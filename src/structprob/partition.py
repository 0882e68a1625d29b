"""Randomized approximation of the partition function and its gradient.

ln Z is estimated by writing Z as a telescoping product of ratios
Z(b_{i-1} theta) / Z(b_i theta) along a cooling schedule 0 = b_0 < ... <
b_l = 1 whose gaps are small enough that each ratio's per-sample estimator

    f_i(y) = exp[(b_{i-1} - b_i) * score(y)],   y ~ pi_{b_i}

is confined to [exp(-1/p), exp(1/p)].  That containment bounds the relative
variance of f_i by exp(2/p), which fixes the per-ratio sample size S needed
for a (1 +- eps) answer with probability >= 3/4.  Sampling per ratio is
either exact (CFTP) or approximate within a total-variation budget that
preserves the same guarantee.

The log-partition gradient is the expectation of the joint features under
pi_beta and is estimated by a sample mean whose directional error obeys a
Hoeffding bound; ``hoeffding_sample_size`` inverts that bound for S.

All combination of per-ratio means happens in log space: the estimate is
ln|Y| - sum_i ln(mean_i).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, exp, isfinite, log, ulp
from typing import Optional

import numpy as np

from .errors import InvalidEpsilon, TooFewRuns
from .model import FEATURE_NORM_BOUND, ln_count
from .samplers import (
    GibbsTarget,
    _approx_batch_indices,
    _cftp_batch_indices,
    _check_expected_proposals,
    _logsumexp,
    sample_exact_cftp,  # unused here; the benchmark tracer patches this name
)
from .spaces import ENUMERATION_CAP
from .streams import require_rng

EXACT = "exact"
APPROXIMATE = "approximate"


@dataclass(frozen=True)
class CoolingSchedule:
    """Inverse-temperature grid 0 = betas[0] < ... < betas[-1] = 1.

    Consecutive gaps never exceed 1/q with q = p * R * ||theta||, so every
    ratio estimator stays inside [exp(-1/p), exp(1/p)].
    """

    betas: tuple[float, ...]
    p: int
    q: float

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
    return CoolingSchedule(betas, p, max(q, 0.0))


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
    sampler_mode: str

    def to_json(self) -> dict:
        return {"i": self.index, "mean": self.mean, "S": self.sample_size}


@dataclass(frozen=True)
class PartitionEstimate:
    """An estimated ln Z with its accuracy contract.

    A single run satisfies (1-eps) Z <= Zhat <= (1+eps) Z with probability
    at least success_prob; medians of independent runs boost the latter.
    """

    log_value: float
    epsilon: float
    mode: str
    schedule: CoolingSchedule
    ratios: tuple[RatioEstimate, ...]
    success_prob: float = 0.75
    seed: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "log_value": self.log_value,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "p": self.schedule.p,
            "betas": list(self.schedule.betas),
            "per_ratio": [r.to_json() for r in self.ratios],
            "seed": self.seed,
        }


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
    return RatioEstimate(i, float(values.mean()), S, mode)


def check_partition_work(
    target: GibbsTarget,
    epsilon: float,
    p: int = 3,
    mode: str = EXACT,
    runs: int = 1,
) -> tuple[int, int, Optional[float]]:
    """Refuse ``runs`` partition estimates whose work exceeds
    MAX_EXPECTED_PROPOSALS, before the grid or any draw; returns
    (l, S, eps_tv) of one run.

    Each of a run's l ratios is priced as S draws at beta = 1, the
    costliest: delta_beta only falls as beta rises, so certificates get no
    cheaper and the mixing bound no shorter.
    """
    l = 1 + _grid(FEATURE_NORM_BOUND, target.params.theta_norm, p)[1]
    S = sample_size(epsilon, l, p)
    eps_tv = None if mode == EXACT else tv_target(epsilon, l, p)
    steps = None if eps_tv is None else target.mixing_steps(eps_tv)
    _check_expected_proposals(target, runs * l * S, steps,
                              f"{runs} partition estimates of {l} ratios of {S} draws"
                              + ("" if steps is None else f", {steps} steps each,"))
    return l, S, eps_tv


def estimate_partition(
    target: GibbsTarget,
    epsilon: float,
    p: int = 3,
    mode: str = EXACT,
    rng: np.random.Generator = None,
    seed: Optional[int] = None,
) -> PartitionEstimate:
    """FPRAS for ln Z(theta) at beta = 1.

    Telescopes Z into schedule ratios, spends sample_size(eps, l, p) draws
    on each, and combines in log space as ln|Y| - sum ln(mean_i).  With an
    exact per-ratio sampler the result is within (1 +- eps) of Z with
    probability >= 3/4; the approximate mode keeps that guarantee by
    sampling each draw within tv_target(eps, l, p) total variation.
    """
    _check_epsilon(epsilon)
    if target.beta != 1.0:
        raise ValueError("partition estimation expects a target at beta = 1")
    require_rng(rng, "estimate_partition")
    l, S, eps_tv = check_partition_work(target, epsilon, p, mode)
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


def required_runs(delta: float) -> int:
    """Independent runs needed before a median is (1-delta)-reliable.

    One run already succeeds with probability 3/4, so delta >= 1/4 needs a
    single run; below that the Chernoff-style count 24*ln(1/delta) applies.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if delta >= 0.25:
        return 1
    return ceil(24.0 * log(1.0 / delta))


def check_runs(runs: int, delta: float) -> None:
    """Refuse, as TooFewRuns, fewer runs than a (1-delta)-reliable median needs."""
    needed = required_runs(delta)
    if runs < needed:
        raise TooFewRuns(f"need at least {needed} runs for delta={delta}, got {runs}")


def boost_by_median(runs, delta: float) -> PartitionEstimate:
    """Median log-estimate of independent runs; success prob >= 1 - delta."""
    runs = list(runs)
    check_runs(len(runs), delta)
    log_value = float(np.median([r.log_value for r in runs]))
    first = runs[0]
    return PartitionEstimate(
        log_value=log_value,
        epsilon=first.epsilon,
        mode=first.mode,
        schedule=first.schedule,
        ratios=first.ratios,
        success_prob=1.0 - delta,
        seed=first.seed,
    )


@dataclass(frozen=True)
class GradientEstimate:
    """Sample-mean estimate of the log-partition gradient E[phi]."""

    d: np.ndarray
    sample_size: int
    sampler_mode: str


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
) -> GradientEstimate:
    """Mean of joint features over S draws from pi_beta."""
    if S < 1:
        raise ValueError("S must be >= 1")
    if mode == APPROXIMATE and eps_tv is None:
        raise ValueError("approximate mode needs a total-variation budget")
    require_rng(rng, "estimate_gradient")
    keys, _ = _draws(target, S, mode, rng, eps_tv)
    d = target.expected_features(np.full(S, 1.0 / S), target.label_rows(keys))
    return GradientEstimate(d=d, sample_size=S, sampler_mode=mode)


def _draws(target, S, mode, rng, eps_tv):
    """(keys, beta-free scores) of S exact or approximate draws from target."""
    if mode == EXACT:
        keys, _, scores = _cftp_batch_indices(target, S, rng)
        return keys, scores
    return _approx_batch_indices(target, eps_tv, S, rng)


def oracle_ratio_moments(
    schedule: CoolingSchedule,
    i: int,
    target: GibbsTarget,
    cap: int = ENUMERATION_CAP,
) -> tuple[float, float]:
    """(E f_i, Var f_i / (E f_i)^2) by full enumeration, no sampling.

    The expectation equals the true ratio Z(b_{i-1} theta) / Z(b_i theta);
    the second entry is the relative variance the sample sizes rely on.
    """
    b_prev, b_cur, scores = _oracle_ratio_scores(schedule, i, target, cap)
    log_w = b_cur * scores
    probs = np.exp(log_w - _logsumexp(log_w))
    f = np.exp((b_prev - b_cur) * scores)
    rho = float(probs @ f)
    second = float(probs @ (f * f))
    return rho, (second - rho * rho) / (rho * rho)


def oracle_ratio_range(
    schedule: CoolingSchedule,
    i: int,
    target: GibbsTarget,
    cap: int = ENUMERATION_CAP,
) -> tuple[float, float]:
    """(min f_i, max f_i) over the whole space, by full enumeration.

    The schedule's gap rule confines both to [exp(-1/p), exp(1/p)].
    """
    b_prev, b_cur, scores = _oracle_ratio_scores(schedule, i, target, cap)
    f = np.exp((b_prev - b_cur) * scores)
    return float(f.min()), float(f.max())


def _oracle_ratio_scores(schedule, i, target, cap):
    """(b_{i-1}, b_i, score of every structure) for ratio i."""
    if not 1 <= i <= schedule.l:
        raise ValueError(f"ratio index {i} outside 1..{schedule.l}")
    return schedule.betas[i - 1], schedule.betas[i], target.full_table(cap).scores

