"""Brute-force ground truth and statistical test utilities.

Everything here works by exhaustive enumeration at desk scale: exact log
partition values, exact gradients and distributions, an exact MAP argmax,
and a graph-Hamiltonicity decision driven entirely by a partition-value
threshold over the cycle space.  These are the oracles the samplers and
estimators are validated against.  Each one scores the space's label table
(``OutputSpace.labels()``, cached for small spaces and built afresh up to the
enumeration cap) with the target's ``label_weights``, through
``_label_scores``.  They share no code with the estimation paths they check
beyond that table and the target's expectation map, which the tests check
against per-structure joint features.

scipy, whose import dominates ``import structprob``, is imported by the
functions that use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import factorial, log

import numpy as np

from .errors import InsufficientSamples
from .model import Params
from .samplers import GibbsTarget
from .spaces import CyclicPermutations, LabelTable, Structure, _pair_index


def _label_scores(target: GibbsTarget) -> tuple[LabelTable, np.ndarray]:
    """(label table, beta-free score of each row) over the whole space."""
    labels = target.space.labels()
    return labels, labels.features @ target.label_weights


def exact_partition(target: GibbsTarget) -> float:
    """ln Z: log-sum-exp of beta*score(y) over the whole space."""
    from scipy.special import logsumexp

    return float(logsumexp(target.beta * _label_scores(target)[1]))


def exact_gradient(target: GibbsTarget) -> np.ndarray:
    """Gradient of ln Z: the probability-weighted mean of joint features."""
    from scipy.special import logsumexp

    labels, scores = _label_scores(target)
    scores = target.beta * scores
    probs = np.exp(scores - logsumexp(scores))
    return target.expected_features(probs, labels.features)


@dataclass(frozen=True)
class ExactDistribution:
    """Full support of pi_beta with normalized probabilities."""

    support: tuple[Structure, ...]
    probs: np.ndarray
    log_partition: float

    def index_of(self, y: Structure) -> int:
        return self._index[y.payload]

    @cached_property
    def _index(self) -> dict:
        return {y.payload: i for i, y in enumerate(self.support)}


def exact_distribution(target: GibbsTarget) -> ExactDistribution:
    from scipy.special import logsumexp

    labels, scores = _label_scores(target)
    scores = target.beta * scores
    log_z = float(logsumexp(scores))
    support = tuple(target.space.structures(labels.payloads))
    return ExactDistribution(support, np.exp(scores - log_z), log_z)


def exact_argmax(target: GibbsTarget) -> Structure:
    """Highest-scoring structure; ties go to the first in canonical order."""
    labels, scores = _label_scores(target)
    best = int(np.argmax(target.beta * scores))
    return target.space.structures(labels.payloads[best:best + 1])[0]


# ---------------------------------------------------------------------------
# Hamiltonicity through the partition function


def _normalize_edges(edges) -> list[tuple[int, int]]:
    out = []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        out.append((u, v) if u < v else (v, u))
    return sorted(set(out))


def hamiltonicity_via_partition(edges, n: int) -> bool:
    """Decide Hamiltonicity of a graph from a partition-value threshold.

    Edge parameters are set to ln(n! * n) on graph edges and 0 elsewhere,
    over the space of undirected simple cycles on n vertices.  A Hamiltonian
    cycle alone contributes n * ln(n! * n) to Z, while all non-Hamiltonian
    cycles together stay strictly below that, so

        graph is Hamiltonian  <=>  ln Z >= n * ln(n! * n).

    A 1e-9 slack absorbs float rounding in the single marginal case where
    ln Z equals the threshold exactly.
    """
    space = CyclicPermutations(n)
    weight = log(factorial(n) * n)
    theta = np.zeros(space.feature_dim)
    for u, v in _normalize_edges(edges):
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        theta[_pair_index(u, v, n)] = weight
    # scaling theta by max||psi|| undoes the label normalization, so each
    # cycle scores exactly weight-per-graph-edge it uses
    theta *= space.max_feature_norm()
    log_z = exact_partition(GibbsTarget(space, Params(theta)))
    return log_z >= n * weight - 1e-9


def has_hamiltonian_cycle(edges, n: int) -> bool:
    """Brute-force Hamiltonicity check by scanning vertex orderings."""
    if n < 3:
        return False
    edge_set = set(_normalize_edges(edges))

    def connected(u, v):
        return (u, v) in edge_set if u < v else (v, u) in edge_set

    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        if all(connected(order[i], order[(i + 1) % n]) for i in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# chi-square harness


@dataclass(frozen=True)
class GofResult:
    passed: bool
    statistic: float
    threshold: float
    dof: int
    significance: float


def _pool_cells(counts: np.ndarray, expected: np.ndarray, min_expected: float = 5.0):
    """Greedily merge low-expectation cells until every group clears the bar."""
    order = np.argsort(expected)
    groups: list[list[int]] = []
    current: list[int] = []
    acc = 0.0
    for i in order:
        current.append(int(i))
        acc += expected[i]
        if acc >= min_expected:
            groups.append(current)
            current, acc = [], 0.0
    if current:
        if not groups:
            raise InsufficientSamples(
                "not enough samples to give any cell an expected count of 5"
            )
        groups[-1].extend(current)
    obs = np.array([counts[g].sum() for g in groups], dtype=float)
    exp = np.array([expected[g].sum() for g in groups], dtype=float)
    return obs, exp


def chi_square_gof(
    samples, dist: ExactDistribution, significance: float = 0.01
) -> GofResult:
    """Pearson goodness-of-fit test of samples against an exact distribution.

    Cells with expected count below 5 are pooled before computing the
    statistic.  Raises InsufficientSamples when the sample list is empty,
    contains structures outside the support, or is too small to pool.
    """
    from scipy import stats

    if not 0 < significance < 1:
        raise ValueError("significance must be in (0, 1)")
    samples = list(samples)
    if not samples:
        raise InsufficientSamples("no samples provided")
    counts = np.zeros(len(dist.support))
    for y in samples:
        try:
            counts[dist.index_of(y)] += 1
        except KeyError:
            raise InsufficientSamples(
                f"sample {y} is outside the distribution support"
            ) from None
    expected = dist.probs * len(samples)
    obs, exp = _pool_cells(counts, expected)
    if len(obs) < 2:
        raise InsufficientSamples("fewer than two cells after pooling")
    statistic = float(((obs - exp) ** 2 / exp).sum())
    dof = len(obs) - 1
    threshold = float(stats.chi2.ppf(1.0 - significance, dof))
    return GofResult(statistic <= threshold, statistic, threshold, dof, significance)


def chi_square_two_sample(
    samples_a, samples_b, significance: float = 0.01
) -> GofResult:
    """Pearson homogeneity test that two sample sets share one distribution."""
    from scipy import stats

    samples_a, samples_b = list(samples_a), list(samples_b)
    if not samples_a or not samples_b:
        raise InsufficientSamples("both sample sets must be non-empty")
    cells: dict[tuple, int] = {}
    for y in itertools.chain(samples_a, samples_b):
        cells.setdefault(y.payload, len(cells))
    table = np.zeros((2, len(cells)))
    for row, group in enumerate((samples_a, samples_b)):
        for y in group:
            table[row, cells[y.payload]] += 1
    # pool columns whose combined count is small, as in the one-sample test
    totals = table.sum(axis=0)
    obs_a, _ = _pool_cells(table[0], totals, min_expected=10.0)
    obs_b, _ = _pool_cells(table[1], totals, min_expected=10.0)
    pooled = np.stack([obs_a, obs_b])
    statistic, _, dof, _ = stats.chi2_contingency(pooled, correction=False)
    threshold = float(stats.chi2.ppf(1.0 - significance, dof))
    return GofResult(
        float(statistic) <= threshold, float(statistic), threshold, int(dof), significance
    )
