"""Samplers for exponential-family distributions over combinatorial spaces.

The target density is pi_beta(y) proportional to exp(beta * <phi(x, y), theta>).
The Metropolis chain here proposes a fresh uniform structure each step and
accepts with probability min(1, pi(z)/pi(y)); because the proposal is an exact
uniform sampler, the chain's acceptance probability never drops below
exp(-2*beta*B*R), which yields:

* ``sample_exact_cftp``      -- exact samples via coupling from the past,
* ``sample_approx``          -- approximate samples after a provable number of
                                steps within any total-variation budget,
* ``sample_rejection``       -- an independent exact sampler (envelope
                                rejection) used to cross-check CFTP.

Coalescence in CFTP is detected through a conservative certificate: with
shared per-step randomness (z_t, u_t), the event

    u_t <= exp(beta * (score(z_t) - B*R))

forces every chain, whatever its current state, to accept z_t, so all chains
are provably in the same state from that step on.  The certificate can only
delay detection, never fake it, so exactness is preserved; its expected
firing depth is at most exp(2*beta*B*R).

That event is also the rejection sampler's accept.  So both exact samplers
share one certificate search, CFTP adding a Metropolis replay of the earlier
steps, and the approximate sampler runs lockstep chains.  All of them draw
from ``GibbsTarget.propose``; the scalar samplers are batches of one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from math import ceil, exp, expm1, floor, inf, isfinite, log, log1p
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EpochBudgetExhausted, ZeroInput
from .model import (
    FEATURE_NORM_BOUND,
    Params,
    effective_norm_budget,
    joint_features,
    score,
)
from .spaces import ENUMERATION_CAP, LabelTable, OutputSpace, Structure

# Sampler work expected to exceed this many proposals (or chain steps) is
# refused before its first draw: that is about ten seconds of work on a
# tabled target and minutes on an untabled one, and CFTP keeps every proposal
# until its replay.  The largest benchmark requests expect about 4.5e5
# (certificates) and 2.0e6 (approximate chains).
MAX_EXPECTED_PROPOSALS = 10**7

_LN2 = log(2.0)


@dataclass(frozen=True)
class ScoreTable:
    """Full enumeration of a space with beta-free scores.

    ``structures`` and ``features`` are the space's label matrix, shared
    when the space caches it; only ``scores`` belongs to the target.
    """

    structures: tuple[Structure, ...]
    scores: np.ndarray  # <phi(x, y), theta> per structure
    features: np.ndarray  # psi(y) / max||psi||, one row per structure


@dataclass(frozen=True)
class GibbsTarget:
    """A space, parameters and inverse temperature defining pi_beta.

    ``x`` of None selects the label-only feature map.  ``beta`` must be
    non-negative; values in [0, 1] are the cooling-schedule regime, larger
    values are used by annealed MAP prediction.
    """

    space: OutputSpace
    params: Params
    beta: float = 1.0
    x: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 <= self.beta < inf:
            raise ValueError("beta must be finite and non-negative")
        if self.x is not None:
            object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        expected = self.space.feature_dim * (1 if self.x is None else self.x.size)
        if self.params.theta.size != expected:
            raise DimensionMismatch(
                f"theta has {self.params.theta.size} entries, "
                f"feature map has dimension {expected}"
            )

    def score(self, y: Structure) -> float:
        """Beta-free score <phi(x, y), theta>."""
        return score(self.params.theta, joint_features(self.x, y, self.space))

    @cached_property
    def score_bound(self) -> float:
        """B*R, an upper bound on |score| over the whole space."""
        return effective_norm_budget(self.params, self.space) * FEATURE_NORM_BOUND

    @cached_property
    def unit_input(self) -> Optional[np.ndarray]:
        """x / ||x||, or None for the label-only feature map."""
        if self.x is None:
            return None
        x = self.x.reshape(-1)
        x_norm = float(np.linalg.norm(x))
        if x_norm == 0.0:
            raise ZeroInput("input feature vector has zero norm")
        return x / x_norm

    @cached_property
    def label_weights(self) -> np.ndarray:
        """v with score(y) = psi_n(y) . v, where psi_n = psi / max||psi||.

        phi(x, y) is x/||x|| (x) psi_n(y), so with theta viewed as a
        (|x|, d_Y) matrix v = Theta^T x/||x|| (v = theta in label-only mode).
        """
        x = self.unit_input
        v = self.params.theta
        if x is not None:
            v = x @ v.reshape(x.size, -1)
        return v

    @cached_property
    def table(self) -> Optional[ScoreTable]:
        """Scores of every structure, from the space's shared label table."""
        labels = self.space.label_table
        return None if labels is None else self._scored(labels)

    def full_table(self, cap: int = ENUMERATION_CAP) -> ScoreTable:
        """The score table, else one scored from a fresh ``space.labels(cap)``."""
        table = self.table
        return self._scored(self.space.labels(cap)) if table is None else table

    def _scored(self, labels: LabelTable) -> ScoreTable:
        return ScoreTable(
            labels.structures, labels.features @ self.label_weights, labels.features
        )

    def propose(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n uniform proposals as (keys, beta-free scores).

        Keys are table rows on a tabled target and Structure objects (an
        object array) otherwise; ``structures`` maps them back.
        """
        table = self.table
        if table is not None:
            keys = rng.integers(0, len(table.structures), n)
            return keys, table.scores[keys]
        sample = self.space.sample_uniform
        keys = np.fromiter((sample(rng) for _ in range(n)), dtype=object, count=n)
        return keys, self.label_rows(keys) @ self.label_weights

    def structures(self, keys: np.ndarray) -> list[Structure]:
        """The structures behind proposal keys."""
        table = self.table
        if table is None:
            return list(keys)
        return [table.structures[k] for k in keys]

    def label_rows(self, keys: np.ndarray) -> np.ndarray:
        """psi_n = psi / max||psi|| of the structure behind each key, one row each."""
        table = self.table
        return self.space.label_rows(keys) if table is None else table.features[keys]

    def expected_features(self, probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """E[phi] under ``probs``, a distribution over label rows psi_n.

        By bilinearity E[phi] = x/||x|| (x) (rows^T probs); no joint feature
        vector is formed.
        """
        psi_mean = rows.T @ probs
        x = self.unit_input
        if x is None:
            return psi_mean
        return np.outer(x, psi_mean).reshape(-1)

    @cached_property
    def log_rounds_per_certificate(self) -> float:
        """-ln P(a uniform proposal certifies), P = E_z exp(beta*(s(z) - B*R)).

        Exact on a tabled target; otherwise the bound 2*beta*B*R.
        """
        bound = self.beta * self.score_bound
        if self.table is None:
            return 2.0 * bound
        w = self.beta * self.table.scores - bound
        return log(len(w)) - _logsumexp(w)

    def at_beta(self, beta: float) -> "GibbsTarget":
        """Same space and parameters at a different inverse temperature."""
        other = dataclasses.replace(self, beta=beta)
        if "table" in self.__dict__:  # scores are beta-free, safe to share
            other.__dict__["table"] = self.__dict__["table"]
        return other


@dataclass(frozen=True)
class SamplerReport:
    """Bookkeeping for a single sampler invocation.

    ``steps_taken`` is the certificate depth for CFTP (how many steps back
    in time the returned trajectory started) and the number of trials for
    rejection sampling.
    """

    steps_taken: int
    proposals_accepted: int

    def __post_init__(self):
        if self.proposals_accepted > self.steps_taken:
            raise ValueError("cannot accept more proposals than steps")


def _draw_proposal(target: GibbsTarget, rng: np.random.Generator):
    """One uniform proposal with its beta-free score."""
    keys, scores = target.propose(rng, 1)
    return target.structures(keys)[0], float(scores[0])


def mixing_time_bound(B: float, R: float, eps_tv: float) -> int:
    """Steps after which the chain is within eps_tv total variation.

    ceil(ln(1/eps) / -ln(1 - exp(-2BR))); 0 steps for eps_tv = 1 and a
    single step in the degenerate B*R = 0 case, where the first accepted
    proposal is already an exact sample.  For 2BR > ln 2 the denominator is
    evaluated as -log1p(-exp(-2BR)), which stays positive long after
    1 - exp(-2BR) rounds to 1.  Raises EpochBudgetExhausted when the bound
    exceeds MAX_EXPECTED_PROPOSALS.
    """
    if not 0 < eps_tv <= 1:
        raise ValueError("eps_tv must be in (0, 1]")
    if eps_tv == 1:
        return 0
    a = 2.0 * B * R
    if a <= 0.0:
        return 1
    # -ln(1 - e^-a) without cancellation at either end (Maechler's log1mexp)
    denom = -(log(-expm1(-a)) if a <= _LN2 else log1p(-exp(-a)))
    # the log of the bound stays finite where the bound itself would not;
    # -ln(1 - e^-a) tends to e^-a, which is what an underflowed denom means
    log_steps = log(log(1.0 / eps_tv)) - (log(denom) if denom > 0.0 else -a)
    _check_work(log_steps, f"the mixing bound at B*R = {B * R:.6g} is", "steps")
    return ceil(log(1.0 / eps_tv) / denom)


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + log(float(np.exp(v - m).sum()))


def _format_log_count(log_n: float) -> str:
    """exp(log_n) in scientific notation, without overflowing."""
    if not isfinite(log_n):
        return str(log_n)  # inf, or nan from an infinite score bound
    exponent = floor(log_n / log(10.0))
    mantissa = 10.0 ** (log_n / log(10.0) - exponent)
    if mantissa >= 9.95:  # would print as 10.0
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{mantissa:.1f}e{exponent:+03d}"


def expected_proposals(target: GibbsTarget, n: int) -> float:
    """Expected proposals of n certificate runs (CFTP or rejection).

    n / E_z exp(beta*(s(z) - B*R)): exact on a tabled target, and the bound
    n * exp(2*beta*B*R) otherwise.  inf where the count overflows a float.
    """
    log_rounds = target.log_rounds_per_certificate
    return n * exp(log_rounds) if log_rounds < 700.0 else inf


def _check_work(log_work: float, what: str, unit: str = "proposals") -> None:
    """Refuse, before any draw, work whose natural log exceeds
    ln MAX_EXPECTED_PROPOSALS, as EpochBudgetExhausted naming the estimate.

    ``what`` names the request and ends with its verb ("... expects").
    """
    if not log_work <= log(MAX_EXPECTED_PROPOSALS):  # nan is refused too
        raise EpochBudgetExhausted(
            f"{what} about {_format_log_count(log_work)} {unit}, "
            f"above the limit of {MAX_EXPECTED_PROPOSALS:.0e}"
        )


def _check_expected_proposals(target: GibbsTarget, n: int) -> None:
    """Refuse n certificate runs expected to need too many proposals."""
    _check_work(
        log(n) + target.log_rounds_per_certificate if n else -inf,
        f"a certificate search for {n} runs at beta*B*R = "
        f"{target.beta * target.score_bound:.6g} expects",
    )


def _certificate_rounds(target: GibbsTarget, n: int, rng: np.random.Generator):
    """First certificates of n runs, with each run's earlier rounds.

    Round r proposes once for every run still open and draws its log u; a
    run ends at its first hit, log u <= beta*s(z) - beta*B*R, and its depth
    is that round's number.  Returns (keys, scores, depths, history): the
    hit proposals, and each round as (open runs, keys, scores, log u, hit).
    Raises EpochBudgetExhausted before any draw when the expected number of
    proposals exceeds MAX_EXPECTED_PROPOSALS.  Below that limit each open
    run ends in each round with probability at least n/MAX_EXPECTED_PROPOSALS,
    so the loop needs no horizon of its own.
    """
    _check_expected_proposals(target, n)
    beta = target.beta
    bound = beta * target.score_bound
    runs = np.arange(n)
    history = []
    while True:  # round 1 always runs: it covers every run, even for n = 0
        z, s_z = target.propose(rng, runs.size)
        log_u = np.log(rng.random(runs.size))
        hit = log_u <= beta * s_z - bound
        history.append((runs, z, s_z, log_u, hit))
        runs = runs[~hit]
        if not runs.size:
            break
    keys, scores = history[0][1].copy(), history[0][2].copy()
    depths = np.empty(n, dtype=np.int64)
    for depth, (runs, z, s_z, _, hit) in enumerate(history, start=1):
        ended = runs[hit]
        keys[ended], scores[ended], depths[ended] = z[hit], s_z[hit], depth
    return keys, scores, depths, history


def _cftp_batch_indices(target, n, rng):
    """n CFTP runs as (keys, certificate depths, scores, accepted moves).

    Each run starts from its first certificate and replays the Metropolis
    rule through its earlier rounds, latest first, which is forward in time.
    """
    keys, scores, depths, history = _certificate_rounds(target, n, rng)
    beta = target.beta
    accepted = np.ones(n, dtype=np.int64)
    for runs, z, s_z, log_u, hit in reversed(history):
        live = ~hit
        runs, z, s_z = runs[live], z[live], s_z[live]
        move = log_u[live] <= beta * s_z - beta * scores[runs]
        moved = runs[move]
        keys[moved], scores[moved] = z[move], s_z[move]
        accepted[moved] += 1
    return keys, depths, scores, accepted


def sample_exact_cftp(
    target: GibbsTarget, rng: np.random.Generator
) -> tuple[Structure, SamplerReport]:
    """Exact sample from pi_beta via coupling from the past.

    Scans backwards in time, one step per round, for the most recent step
    whose certificate fires, then replays the single surviving trajectory
    forward to time 0 with the same randomness.  A batch of one.

    Raises EpochBudgetExhausted before any draw when the expected depth
    exceeds MAX_EXPECTED_PROPOSALS; a fresh stream would be refused too.
    """
    keys, (depth,), _, (accepted,) = _cftp_batch_indices(target, 1, rng)
    return target.structures(keys)[0], SamplerReport(int(depth), int(accepted))


def sample_exact_cftp_batch(
    target: GibbsTarget,
    n: int,
    rng: np.random.Generator,
) -> tuple[list[Structure], np.ndarray]:
    """n independent CFTP samples; returns (samples, certificate depths)."""
    keys, depths, _, _ = _cftp_batch_indices(target, n, rng)
    return target.structures(keys), depths


def _chain(target, steps, keys, scores, rng):
    """Advance len(keys) lockstep Metropolis chains by ``steps`` transitions."""
    n = len(keys)
    beta = target.beta
    for _ in range(steps):
        z, s_z = target.propose(rng, n)
        accept = np.log(rng.random(n)) <= beta * s_z - beta * scores
        keys = np.where(accept, z, keys)
        scores = np.where(accept, s_z, scores)
    return keys, scores


def sample_approx(
    target: GibbsTarget,
    eps_tv: float,
    rng: np.random.Generator,
) -> Structure:
    """Run the chain from a uniform start for the provable mixing bound.

    The returned sample's law is within total-variation distance eps_tv of
    pi_beta.  The step count uses the target's budget B and R = 1 without
    the beta factor, which is conservative for beta < 1.  A batch of one.
    """
    return sample_approx_batch(target, eps_tv, 1, rng)[0]


def sample_approx_batch(
    target: GibbsTarget,
    eps_tv: float,
    n: int,
    rng: np.random.Generator,
) -> list[Structure]:
    """n independent approximate samples from lockstep chains."""
    return target.structures(_approx_batch_indices(target, eps_tv, n, rng)[0])


def chain_state_indices(
    target: GibbsTarget,
    steps: int,
    n: int,
    rng: np.random.Generator,
    start=None,
) -> np.ndarray:
    """Final states of n lockstep chains after exactly ``steps`` transitions.

    Requires a score table.  ``start`` may be a single state index shared by
    all chains, an array of per-chain start indices, or None for independent
    uniform starts.  Used by empirical mixing diagnostics.
    """
    table = target.table
    if table is None:
        raise ValueError("chain_state_indices needs a space small enough to tabulate")
    if start is None:
        keys, scores = target.propose(rng, n)
    else:
        keys = np.array(np.full(n, start) if np.ndim(start) == 0 else start, dtype=np.int64)
        if keys.shape != (n,):
            raise ValueError("start array must have one entry per chain")
        scores = table.scores[keys]
    return _chain(target, steps, keys, scores, rng)[0]


def _approx_steps(target, eps_tv, n):
    """The mixing bound each of n chains runs, refused when the
    n*(steps + 1) proposals exceed MAX_EXPECTED_PROPOSALS."""
    steps = mixing_time_bound(
        effective_norm_budget(target.params, target.space), FEATURE_NORM_BOUND, eps_tv
    )
    _check_work(log(n * (steps + 1)) if n else -inf,
                f"{n} approximate draws of {steps} steps each need")
    return steps


def _approx_batch_indices(target, eps_tv, n, rng):
    """(keys, scores) of n chains run from uniform starts for the mixing bound."""
    steps = _approx_steps(target, eps_tv, n)
    keys, scores = target.propose(rng, n)
    return _chain(target, steps, keys, scores, rng)


def sample_rejection(
    target: GibbsTarget, rng: np.random.Generator
) -> tuple[Structure, SamplerReport]:
    """Exact sample by envelope rejection from the uniform proposal.

    A uniform draw z is accepted with probability
    exp(beta * (score(z) - B*R)) <= 1, so accepted draws follow pi_beta
    exactly and the expected number of trials is at most exp(2*beta*B*R).
    A batch of one.
    """
    (y,), (trials,) = sample_rejection_batch(target, 1, rng)
    return y, SamplerReport(int(trials), 1)


def sample_rejection_batch(
    target: GibbsTarget, n: int, rng: np.random.Generator
) -> tuple[list[Structure], np.ndarray]:
    """n independent rejection samples; returns (samples, trial counts)."""
    keys, _, trials, _ = _certificate_rounds(target, n, rng)
    return target.structures(keys), trials
