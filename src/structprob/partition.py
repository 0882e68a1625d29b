"""Randomized approximation of the partition function and its gradient.

In exact mode ln Z is estimated by the Tootsie Pop Algorithm (Huber 2015,
"Approximation algorithms for the normalizing constant of Gibbs
distributions").  With H(y) = s_max - score(y) >= 0, the ceiling s_max of
``GibbsTarget.score_ceiling``, Z = e^{s_max} Z_H(1) where
Z_H(beta) = sum_y exp(-beta H(y)) falls from Z_H(0) = |Y|.  A run starts at
beta = 0 and repeats: draw X ~ pi_beta exactly, then raise beta by
Exp(1)/H(X).  The steps that stay at or below 1 are a Poisson count with
mean L = ln(|Y| / Z_H(1)), so r runs count k ~ Poisson(r L) and

    ln Z ~ ln|Y| + s_max - k/r.

L is at most L_bound = s_max - E_unif score (Jensen): exactly that on a
tabled target, s_max + B*R otherwise.  Bernstein's Poisson tail with
t = ln(1 + eps) sets r = ceil(2 (L_bound + t/3) ln(2/TPA_FAILURE) / t^2), so
the estimate is within (1 +- eps) of Z but with probability at most
TPA_FAILURE.  A run makes one exact draw per step, r (L + 1) draws in all.

In approximate mode Z is a telescoping product of ratios
Z(b_{i-1} theta) / Z(b_i theta) along a cooling schedule 0 = b_0 < ... <
b_l = 1 whose gaps are small enough that each ratio's per-sample estimator

    f_i(y) = exp[(b_{i-1} - b_i) * score(y)],   y ~ pi_{b_i}

is confined to [exp(-1/p), exp(1/p)].  That containment bounds the relative
variance of f_i by exp(2/p), which fixes the per-ratio sample size S needed
for a (1 +- eps) answer with probability >= 3/4 even though each draw is
only within a total-variation budget of pi_{b_i}.  The per-ratio means are
combined in log space: the estimate is ln|Y| - sum_i ln(mean_i).

``boost_by_median`` takes the median of independent estimates to succeed
with probability 1 - delta; ``required_runs`` counts the runs that needs
from the per-run failure, TPA_FAILURE in exact mode and SCHEDULE_FAILURE =
1/4 in approximate mode.

The log-partition gradient is the expectation of the joint features under
pi_beta and is estimated by a sample mean whose directional error obeys a
Hoeffding bound; ``hoeffding_sample_size`` inverts that bound for S.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, exp, inf, isfinite, log, log1p, ulp
from typing import Optional

import numpy as np

from .errors import InvalidEpsilon, TooFewRuns
from .model import FEATURE_NORM_BOUND, ln_count
from .oracle import _label_scores
from .samplers import (
    GibbsTarget,
    _approx_batch_indices,
    _cftp_batch_indices,
    _check_expected_proposals,
    _format_count,
    _logsumexp,
    _rejection_at_betas,
    sample_exact_cftp,  # unused here; the benchmark tracer patches this name
)
from .streams import require_rng

EXACT = "exact"
APPROXIMATE = "approximate"

# An exact-mode (TPA) estimate misses (1 +- eps) Z with probability at most
# TPA_FAILURE, an approximate-mode (schedule) estimate with SCHEDULE_FAILURE.
TPA_FAILURE = 1e-8
SCHEDULE_FAILURE = 0.25


@dataclass(frozen=True)
class CoolingSchedule:
    """Inverse-temperature grid 0 = betas[0] < ... < betas[-1] = 1.

    Consecutive gaps never exceed 1/q with q = p * R * ||theta||, so every
    ratio estimator stays inside [exp(-1/p), exp(1/p)].
    """

    betas: tuple[float, ...]
    p: int

    def __post_init__(self):
        if self.p < 3:
            raise ValueError("p must be an integer >= 3")
        if self.betas[0] != 0.0 or self.betas[-1] != 1.0:
            raise ValueError("schedule must start at 0 and end at 1")
        if any(b >= c for b, c in zip(self.betas, self.betas[1:])):
            raise ValueError("schedule must be strictly increasing")

    @property
    def l(self) -> int:
        """Number of ratio steps."""
        return len(self.betas) - 1


def build_schedule(R: float, theta_norm: float, p: int = 3) -> CoolingSchedule:
    """Uniform grid of spacing 1/(p*R*theta_norm), clamped at 1.

    The literal grid overshoots 1 when R*theta_norm is non-integer, so the
    last point is clamped to 1, shrinking only the final gap.  A zero
    theta_norm yields the trivial schedule (0, 1), for which every ratio
    draw equals 1 and the estimate is ln|Y| exactly.
    """
    q, n = _grid(R, theta_norm, p)
    betas = (0.0,) + tuple(j / q for j in range(1, n + 1)) + (1.0,)
    return CoolingSchedule(betas, p)


def _grid(R: float, theta_norm: float, p: int) -> tuple[float, int]:
    """(q, n): q = p*R*theta_norm, and n grid points j/q < 1.0 (j >= 1).

    In floating point j/q < 1.0 holds exactly when float(j) < q, so
    n = ceil(q) - 1 up to 2^53; above that a bisection over the last float
    spacing below q finds the largest j that still rounds below q.
    """
    if p < 3:
        raise ValueError("p must be an integer >= 3")
    q = p * R * theta_norm
    if not isfinite(q):
        raise ValueError(f"schedule scale p*R*||theta|| = {q} is not finite")
    if q <= 0.0:
        return q, 0
    lo, hi = max(ceil(q) - 1 - int(ulp(q)), 0), ceil(q) - 1
    while lo < hi:  # j = lo is kept, no j above hi is
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid / q < 1.0 else (lo, mid - 1)
    return q, lo


def sample_size(epsilon: float, l: int, p: int) -> int:
    """Per-ratio draws sufficient for the (1 +- eps, 3/4) guarantee.

    Raises InvalidEpsilon when that count is beyond the largest float.
    """
    _check_epsilon(epsilon)
    if l < 1:
        raise ValueError("l must be >= 1")
    try:  # epsilon**-2 and ceil(inf) both raise OverflowError
        return ceil(65.0 * epsilon**-2 * l * exp(2.0 / p))
    except OverflowError:
        raise InvalidEpsilon(
            f"epsilon = {epsilon:g} over {l} ratios needs a per-ratio sample "
            "size beyond the largest float"
        ) from None


def tv_target(epsilon: float, l: int, p: int) -> float:
    """Per-draw total-variation budget for the approximate-sampler mode."""
    _check_epsilon(epsilon)
    if l < 1:
        raise ValueError("l must be >= 1")
    return epsilon / (5.0 * l * exp(2.0 / p))


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")


@dataclass(frozen=True)
class RatioEstimate:
    index: int
    mean: float
    sample_size: int

    def to_json(self) -> dict:
        return {"i": self.index, "mean": self.mean, "S": self.sample_size}


@dataclass(frozen=True)
class TPACount:
    """What an exact-mode estimate spent: r runs counted k steps at or
    below beta = 1 with r + k exact draws, r sized for L_bound at
    TPA_FAILURE."""

    r: int
    k: int
    l_bound: float

    def to_json(self) -> dict:
        return {"r": self.r, "k": self.k, "draws": self.r + self.k,
                "l_bound": self.l_bound, "failure_bound": TPA_FAILURE}


@dataclass(frozen=True)
class PartitionEstimate:
    """An estimated ln Z with its accuracy contract.

    A single run satisfies (1-eps) Z <= Zhat <= (1+eps) Z with probability
    at least success_prob; medians of independent runs boost the latter.
    An exact-mode (TPA) estimate carries its ``tpa`` count, an approximate
    one its ``schedule`` and per-ratio means.
    """

    log_value: float
    epsilon: float
    mode: str
    schedule: Optional[CoolingSchedule] = None
    ratios: tuple[RatioEstimate, ...] = ()
    tpa: Optional[TPACount] = None
    success_prob: float = 1.0 - SCHEDULE_FAILURE
    seed: Optional[int] = None

    def to_json(self) -> dict:
        doc = {"log_value": self.log_value, "epsilon": self.epsilon, "mode": self.mode}
        if self.tpa is not None:
            doc["tpa"] = self.tpa.to_json()
        else:
            doc["p"] = self.schedule.p
            doc["betas"] = list(self.schedule.betas)
            doc["per_ratio"] = [r.to_json() for r in self.ratios]
        doc["seed"] = self.seed
        return doc


def estimate_ratio(
    i: int,
    schedule: CoolingSchedule,
    target: GibbsTarget,
    S: int,
    mode: str = EXACT,
    rng: np.random.Generator = None,
    eps_tv: Optional[float] = None,
) -> RatioEstimate:
    """Sample mean of f_i over S draws from pi at schedule.betas[i].

    ``target`` supplies the space and parameters; its own beta is ignored.
    In approximate mode each draw runs the chain within ``eps_tv`` total
    variation of the target.
    """
    if not 1 <= i <= schedule.l:
        raise ValueError(f"ratio index {i} outside 1..{schedule.l}")
    if mode not in (EXACT, APPROXIMATE):
        raise ValueError(f"unknown sampler mode {mode!r}")
    require_rng(rng, "estimate_ratio")
    if mode == APPROXIMATE and eps_tv is None:
        raise ValueError("approximate mode needs a total-variation budget")
    b_prev, b_cur = schedule.betas[i - 1], schedule.betas[i]
    _, scores = _draws(target.at_beta(b_cur), S, mode, rng, eps_tv)
    values = np.exp((b_prev - b_cur) * scores)
    return RatioEstimate(i, float(values.mean()), S)


def check_partition_work(
    target: GibbsTarget,
    epsilon: float,
    p: int = 3,
    mode: str = EXACT,
    runs: int = 1,
) -> None:
    """Refuse ``runs`` partition estimates whose work exceeds
    MAX_EXPECTED_PROPOSALS, before the grid or any draw (``p`` is read in
    approximate mode only).

    Every draw is priced at beta = 1, the costliest: delta_beta only falls
    as beta rises, so certificates get no cheaper and the mixing bound no
    shorter.
    """
    if mode == EXACT:
        _check_tpa_work(target, epsilon, runs)
    else:
        _check_schedule_work(target, epsilon, p, runs)


def _check_tpa_work(
    target: GibbsTarget, epsilon: float, runs: int
) -> tuple[int, float]:
    """(r, L_bound) of one exact-mode estimate, after refusing ``runs`` of
    them priced at r*(L_bound + 1) draws each, at least the r*(L + 1) they
    expect."""
    l_bound = _tpa_l_bound(target)
    if not isfinite(l_bound):  # B*R overflowed, and so did the certificate price
        _check_expected_proposals(target, runs)
    r = tpa_runs(l_bound, epsilon)
    _check_expected_proposals(
        target, runs * r * ceil(1.0 + l_bound), None,
        f"{runs} partition estimates of {_format_count(r)} TPA runs expecting "
        f"at most {1.0 + l_bound:.3g} draws each")
    return r, l_bound


def _check_schedule_work(
    target: GibbsTarget, epsilon: float, p: int, runs: int
) -> tuple[int, int, float]:
    """(l, S, eps_tv) of one approximate-mode estimate, after refusing
    ``runs`` of them priced at l ratios of S draws each."""
    l = 1 + _grid(FEATURE_NORM_BOUND, target.params.theta_norm, p)[1]
    S = sample_size(epsilon, l, p)
    eps_tv = tv_target(epsilon, l, p)
    steps = target.mixing_steps(eps_tv)
    _check_expected_proposals(target, runs * l * S, steps,
                              f"{runs} partition estimates of {l} ratios of {S} draws, "
                              f"{_format_count(steps)} steps each,")
    return l, S, eps_tv


def _tpa_l_bound(target: GibbsTarget) -> float:
    """L_bound = s_max - E_unif score >= L: exact on a tabled target, with
    -B*R for the mean otherwise."""
    mean = -target.score_bound if target.table is None else float(target.table.mean())
    return target.score_ceiling - mean


def tpa_runs(l_bound: float, epsilon: float) -> int:
    """TPA runs r whose count k/r is within t = ln(1 + eps) of any L <= l_bound
    but with probability at most TPA_FAILURE.

    k is Poisson(r L), so Bernstein's tail bounds P(|k - r L| >= r t) by
    2 exp(-r t^2 / (2 (L + t/3))).  Raises InvalidEpsilon when r is beyond
    the largest float.
    """
    _check_epsilon(epsilon)
    t = log1p(epsilon)
    try:  # t*t may underflow to 0, and ceil(inf) raises OverflowError
        return ceil(2.0 * (l_bound + t / 3.0) * log(2.0 / TPA_FAILURE) / (t * t))
    except (ZeroDivisionError, OverflowError):
        raise InvalidEpsilon(
            f"epsilon = {epsilon:g} needs a TPA run count beyond the largest float"
        ) from None


def _tpa_count(target: GibbsTarget, r: int, rng: np.random.Generator) -> int:
    """k, the steps at or below beta = 1 of r TPA runs from beta = 0.

    The runs advance level by level: one ``_rejection_at_betas`` call draws
    X ~ pi_beta for every run still open, and each run's beta rises by
    Exp(1)/H(X), H = s_max - score(X) >= 0 (to inf where H = 0).  A run
    closes at its first beta above 1.
    """
    s_max = target.score_ceiling
    betas, k = np.zeros(r), 0
    while len(betas):
        _, scores, _ = _rejection_at_betas(target, betas, rng)
        h = s_max - scores
        rise = np.full(len(betas), inf)
        np.divide(rng.standard_exponential(len(betas)), h, out=rise, where=h > 0.0)
        betas = betas + rise
        betas = betas[betas <= 1.0]
        k += len(betas)
    return k


def estimate_partition(
    target: GibbsTarget,
    epsilon: float,
    p: int = 3,
    mode: str = EXACT,
    rng: np.random.Generator = None,
    seed: Optional[int] = None,
) -> PartitionEstimate:
    """(1 +- eps) estimate of ln Z(theta) at beta = 1.

    Exact mode runs TPA: r = tpa_runs(L_bound, eps) runs of exact draws,
    within (1 +- eps) of Z with probability at least 1 - TPA_FAILURE.
    Approximate mode telescopes Z into schedule ratios, spends
    sample_size(eps, l, p) draws on each, each within tv_target(eps, l, p)
    total variation, and combines in log space as ln|Y| - sum ln(mean_i):
    within (1 +- eps) of Z with probability >= 1 - SCHEDULE_FAILURE = 3/4.
    """
    _check_epsilon(epsilon)
    if target.beta != 1.0:
        raise ValueError("partition estimation expects a target at beta = 1")
    if mode not in (EXACT, APPROXIMATE):
        raise ValueError(f"unknown sampler mode {mode!r}")
    require_rng(rng, "estimate_partition")
    if mode == EXACT:
        r, l_bound = _check_tpa_work(target, epsilon, 1)
        k = _tpa_count(target, r, rng)
        return PartitionEstimate(
            log_value=ln_count(target.space) + target.score_ceiling - k / r,
            epsilon=epsilon,
            mode=mode,
            tpa=TPACount(r, k, l_bound),
            success_prob=1.0 - TPA_FAILURE,
            seed=seed,
        )
    l, S, eps_tv = _check_schedule_work(target, epsilon, p, 1)
    schedule = build_schedule(FEATURE_NORM_BOUND, target.params.theta_norm, p)
    ratio_rngs = rng.spawn(l)
    ratios = []
    log_x = 0.0
    for i in range(1, schedule.l + 1):
        est = estimate_ratio(i, schedule, target, S, mode, ratio_rngs[i - 1], eps_tv)
        ratios.append(est)
        log_x += log(est.mean)
    return PartitionEstimate(
        log_value=ln_count(target.space) - log_x,
        epsilon=epsilon,
        mode=mode,
        schedule=schedule,
        ratios=tuple(ratios),
        seed=seed,
    )


def required_runs(delta: float, failure: float = SCHEDULE_FAILURE) -> int:
    """Independent runs needed before a median is (1-delta)-reliable.

    ``failure`` is the probability that one run misses: SCHEDULE_FAILURE
    in approximate mode, TPA_FAILURE in exact mode.  When delta is at
    least that, one run suffices; below it the Chernoff-style count
    24*ln(1/delta) applies, which holds for any per-run failure up to 1/4.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if delta >= failure:
        return 1
    return ceil(24.0 * log(1.0 / delta))


def check_runs(runs: int, delta: float, failure: float = SCHEDULE_FAILURE) -> None:
    """Refuse, as TooFewRuns, fewer runs than a (1-delta)-reliable median needs."""
    needed = required_runs(delta, failure)
    if runs < needed:
        raise TooFewRuns(f"need at least {needed} runs for delta={delta}, got {runs}")


def boost_by_median(runs, delta: float) -> PartitionEstimate:
    """Median log-estimate of independent runs; success prob >= 1 - delta.

    A single run is its own median and keeps its own success probability.
    """
    runs = list(runs)
    failure = max((1.0 - r.success_prob for r in runs), default=SCHEDULE_FAILURE)
    check_runs(len(runs), delta, failure)
    if len(runs) == 1:
        return runs[0]
    log_value = float(np.median([r.log_value for r in runs]))
    return replace(runs[0], log_value=log_value, success_prob=1.0 - delta)


def hoeffding_sample_size(R: float, G: float, epsilon: float, delta: float) -> int:
    """Draws sufficient for |<grad - estimate, z>| <= eps w.p. >= 1 - delta,
    uniformly over directions z with ||z|| <= G.

    Raises InvalidEpsilon when that count is beyond the largest float.
    """
    if min(R, G, epsilon, delta) <= 0 or delta >= 1:
        raise ValueError("R, G, epsilon must be positive and 0 < delta < 1")
    try:  # epsilon**2 may underflow to 0, and ceil(inf) raises OverflowError
        return ceil(2.0 * R * R * G * G * log(2.0 / delta) / (epsilon * epsilon))
    except (ZeroDivisionError, OverflowError):
        raise InvalidEpsilon(
            f"epsilon = {epsilon:g} needs a Hoeffding sample size beyond the "
            "largest float"
        ) from None


def estimate_gradient(
    target: GibbsTarget,
    S: int,
    mode: str = EXACT,
    rng: np.random.Generator = None,
    eps_tv: Optional[float] = None,
) -> np.ndarray:
    """Mean of joint features over S draws from pi_beta, an estimate of the
    log-partition gradient E[phi]."""
    if S < 1:
        raise ValueError("S must be >= 1")
    if mode == APPROXIMATE and eps_tv is None:
        raise ValueError("approximate mode needs a total-variation budget")
    require_rng(rng, "estimate_gradient")
    keys, _ = _draws(target, S, mode, rng, eps_tv)
    return target.expected_features(np.full(S, 1.0 / S), target.label_rows(keys))


def _draws(target, S, mode, rng, eps_tv):
    """(keys, beta-free scores) of S exact or approximate draws from target."""
    if mode == EXACT:
        keys, _, scores = _cftp_batch_indices(target, S, rng)
        return keys, scores
    return _approx_batch_indices(target, eps_tv, S, rng)


def oracle_ratio_moments(
    schedule: CoolingSchedule, i: int, target: GibbsTarget
) -> tuple[float, float]:
    """(E f_i, Var f_i / (E f_i)^2) by full enumeration, no sampling.

    The expectation equals the true ratio Z(b_{i-1} theta) / Z(b_i theta);
    the second entry is the relative variance the sample sizes rely on.
    """
    b_prev, b_cur, scores = _oracle_ratio_scores(schedule, i, target)
    log_w = b_cur * scores
    probs = np.exp(log_w - _logsumexp(log_w))
    f = np.exp((b_prev - b_cur) * scores)
    rho = float(probs @ f)
    second = float(probs @ (f * f))
    return rho, (second - rho * rho) / (rho * rho)


def oracle_ratio_range(
    schedule: CoolingSchedule, i: int, target: GibbsTarget
) -> tuple[float, float]:
    """(min f_i, max f_i) over the whole space, by full enumeration.

    The schedule's gap rule confines both to [exp(-1/p), exp(1/p)].
    """
    b_prev, b_cur, scores = _oracle_ratio_scores(schedule, i, target)
    f = np.exp((b_prev - b_cur) * scores)
    return float(f.min()), float(f.max())


def _oracle_ratio_scores(schedule, i, target):
    """(b_{i-1}, b_i, beta-free score of every structure) for ratio i."""
    if not 1 <= i <= schedule.l:
        raise ValueError(f"ratio index {i} outside 1..{schedule.l}")
    return schedule.betas[i - 1], schedule.betas[i], _label_scores(target)[1]

