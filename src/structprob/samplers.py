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

Spaces whose structures can all be enumerated cheaply get a score table:
one matrix-vector product of the space's shared label table with theta
folded against the input.  The batch entry points use it to run thousands
of chains as numpy array operations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from math import ceil, exp, expm1, floor, log, log1p
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EpochBudgetExhausted, SamplerFailure, ZeroInput
from .model import (
    FEATURE_NORM_BOUND,
    Params,
    effective_norm_budget,
    feature_dim,
    joint_features,
    score,
)
from .spaces import OutputSpace, Structure

# Chain lengths above this are refused instead of run: at roughly a
# microsecond per step even the vectorised kernels would take hours.
MAX_MIXING_STEPS = 10**9

_LN2 = log(2.0)

# Rectangular randomness blocks for batch CFTP are grown per sub-batch of
# this many runs, keeping peak memory bounded.
_BATCH_CHUNK = 8192

# Backward windows double up to this many columns per wave, then grow
# linearly; caps transient memory when coalescence is slow.
_MAX_WAVE = 4096


@dataclass(frozen=True)
class ScoreTable:
    """Full enumeration of a small space with beta-free scores.

    ``structures`` and ``features`` are the space's shared label table;
    only ``scores`` belongs to the target.
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
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.x is not None:
            object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        expected = feature_dim(self.space, None if self.x is None else self.x.size)
        if self.params.theta.size != expected:
            raise DimensionMismatch(
                f"theta has {self.params.theta.size} entries, "
                f"feature map has dimension {expected}"
            )

    def features(self, y: Structure) -> np.ndarray:
        return joint_features(self.x, y, self.space, label_only=self.x is None)

    def score(self, y: Structure) -> float:
        """Beta-free score <phi(x, y), theta>."""
        return score(self.params.theta, self.features(y))

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
    def table(self) -> Optional[ScoreTable]:
        """Scores of every structure, from the space's shared label table.

        phi(x, y) is x/||x|| (x) psi(y)/max||psi||, so with theta viewed as
        a (|x|, d_Y) matrix every score is psi_n(y) . v for the single
        vector v = Theta^T x/||x|| (v = theta in label-only mode).
        """
        labels = self.space.label_table
        if labels is None:
            return None
        x = self.unit_input
        v = self.params.theta
        if x is not None:
            v = x @ v.reshape(x.size, -1)
        return ScoreTable(labels.structures, labels.features @ v, labels.features)

    def expected_features(self, probs: np.ndarray) -> np.ndarray:
        """E[phi] under ``probs``, a distribution over the table's rows.

        By bilinearity E[phi] = x/||x|| (x) (Psi_n^T probs); no joint feature
        vector is formed.  Requires a score table.
        """
        psi_mean = self.table.features.T @ probs
        x = self.unit_input
        if x is None:
            return psi_mean
        return np.outer(x, psi_mean).reshape(-1)

    def at_beta(self, beta: float) -> "GibbsTarget":
        """Same space and parameters at a different inverse temperature."""
        other = dataclasses.replace(self, beta=beta)
        if "table" in self.__dict__:  # scores are beta-free, safe to share
            other.__dict__["table"] = self.__dict__["table"]
        return other


@dataclass(frozen=True)
class SamplerReport:
    """Bookkeeping for a single sampler invocation.

    ``coalescence_epoch`` is the certificate depth for CFTP (how many steps
    back in time the returned trajectory started) and the number of trials
    for rejection sampling; absent for samplers without such a notion.
    """

    steps_taken: int
    proposals_accepted: int
    coalescence_epoch: Optional[int] = None
    wall_budget_exhausted: bool = False

    def __post_init__(self):
        if self.proposals_accepted > self.steps_taken:
            raise ValueError("cannot accept more proposals than steps")


def _draw_proposal(target: GibbsTarget, rng: np.random.Generator):
    """Uniform proposal with its beta-free score."""
    table = target.table
    if table is not None:
        i = int(rng.integers(len(table.structures)))
        return table.structures[i], float(table.scores[i])
    z = target.space.sample_uniform(rng)
    return z, target.score(z)


def meta_step(
    current: Structure, target: GibbsTarget, rng: np.random.Generator
) -> Structure:
    """One Metropolis transition: uniform proposal, min(1, ratio) acceptance."""
    z, s_z = _draw_proposal(target, rng)
    if log(rng.random()) <= target.beta * (s_z - target.score(current)):
        return z
    return current


def mixing_time_bound(B: float, R: float, eps_tv: float) -> int:
    """Steps after which the chain is within eps_tv total variation.

    ceil(ln(1/eps) / -ln(1 - exp(-2BR))); 0 steps for eps_tv = 1 and a
    single step in the degenerate B*R = 0 case, where the first accepted
    proposal is already an exact sample.  For 2BR > ln 2 the denominator is
    evaluated as -log1p(-exp(-2BR)), which stays positive long after
    1 - exp(-2BR) rounds to 1.  Raises SamplerFailure when the bound exceeds
    MAX_MIXING_STEPS.
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
    if log_steps > log(MAX_MIXING_STEPS):
        raise SamplerFailure(
            f"mixing bound at B*R = {B * R:.6g} is about "
            f"{_format_log_count(log_steps)} steps, above the limit of "
            f"{MAX_MIXING_STEPS:.0e}"
        )
    return ceil(log(1.0 / eps_tv) / denom)


def _format_log_count(log_n: float) -> str:
    """exp(log_n) in scientific notation, without overflowing."""
    exponent = floor(log_n / log(10.0))
    return f"{10.0 ** (log_n / log(10.0) - exponent):.1f}e{exponent:+d}"


def sample_exact_cftp(
    target: GibbsTarget, rng: np.random.Generator, max_epochs: int = 40
) -> tuple[Structure, SamplerReport]:
    """Exact sample from pi_beta via coupling from the past.

    Scans backwards in time (the backward start epoch doubles as
    -1, -2, -4, ..., with per-step randomness cached and reused) for the
    most recent step whose certificate fires, then replays the single
    surviving trajectory forward to time 0 with the same randomness.

    Raises EpochBudgetExhausted if no certificate occurs within
    ``max_epochs`` doublings; the caller may retry with a fresh stream.
    """
    bound = target.beta * target.score_bound
    horizon = 1 << min(max_epochs, 62)
    proposals: list = []
    weights: list[float] = []
    log_us: list[float] = []
    cert = -1
    while cert < 0:
        if len(proposals) >= horizon:
            report = SamplerReport(
                steps_taken=len(proposals),
                proposals_accepted=0,
                coalescence_epoch=None,
                wall_budget_exhausted=True,
            )
            raise EpochBudgetExhausted(
                f"no coalescence certificate within 2^{max_epochs} steps", report
            )
        z, s_z = _draw_proposal(target, rng)
        lu = log(rng.random())
        proposals.append(z)
        weights.append(target.beta * s_z)
        log_us.append(lu)
        if lu <= weights[-1] - bound:
            cert = len(proposals) - 1
    state, w_state = proposals[cert], weights[cert]
    accepted = 1
    for t in range(cert - 1, -1, -1):
        if log_us[t] <= weights[t] - w_state:
            state, w_state = proposals[t], weights[t]
            accepted += 1
    depth = cert + 1
    report = SamplerReport(
        steps_taken=depth,
        proposals_accepted=accepted,
        coalescence_epoch=depth,
    )
    return state, report


def sample_exact_cftp_batch(
    target: GibbsTarget,
    n: int,
    rng: np.random.Generator,
    max_epochs: int = 40,
) -> tuple[list[Structure], np.ndarray]:
    """n independent CFTP samples; returns (samples, certificate depths).

    Uses vectorized chains when the space has a score table, otherwise
    falls back to sequential single-run CFTP on the same stream.
    """
    table = target.table
    if table is None:
        samples, depths = [], np.empty(n, dtype=np.int64)
        for i in range(n):
            y, rep = sample_exact_cftp(target, rng, max_epochs)
            samples.append(y)
            depths[i] = rep.coalescence_epoch
        return samples, depths
    idx, depths = _cftp_batch_indices(target, n, rng, max_epochs)
    return [table.structures[i] for i in idx], depths


def _cftp_batch_indices(target, n, rng, max_epochs=40):
    table = target.table
    w = target.beta * table.scores
    bound = target.beta * target.score_bound
    k = len(w)
    out_idx = np.empty(n, dtype=np.int64)
    out_depth = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BATCH_CHUNK):
        m = min(_BATCH_CHUNK, n - lo)
        z_hist = np.empty((m, 0), dtype=np.int64)
        lu_hist = np.empty((m, 0))
        cert = np.full(m, -1, dtype=np.int64)
        window, ext, doublings = 0, 1, 0
        while (cert < 0).any():
            if doublings > max_epochs:
                raise EpochBudgetExhausted(
                    f"no coalescence certificate within 2^{max_epochs} steps",
                    SamplerReport(window, 0, None, wall_budget_exhausted=True),
                )
            z_new = rng.integers(0, k, size=(m, ext))
            lu_new = np.log(rng.random((m, ext)))
            z_hist = np.concatenate([z_hist, z_new], axis=1)
            lu_hist = np.concatenate([lu_hist, lu_new], axis=1)
            open_runs = np.flatnonzero(cert < 0)
            hits = lu_new[open_runs] <= w[z_new[open_runs]] - bound
            found = hits.any(axis=1)
            first = hits.argmax(axis=1)
            cert[open_runs[found]] = window + first[found]
            window += ext
            ext = min(window, _MAX_WAVE)
            doublings += 1
        state = z_hist[np.arange(m), cert]
        for t in range(int(cert.max()) - 1, -1, -1):
            active = np.flatnonzero(cert > t)
            if active.size == 0:
                continue
            z_t = z_hist[active, t]
            accept = lu_hist[active, t] <= w[z_t] - w[state[active]]
            state[active[accept]] = z_t[accept]
        out_idx[lo : lo + m] = state
        out_depth[lo : lo + m] = cert + 1
    return out_idx, out_depth


def sample_approx(
    target: GibbsTarget,
    eps_tv: float,
    rng: np.random.Generator,
) -> Structure:
    """Run the chain from a uniform start for the provable mixing bound.

    The returned sample's law is within total-variation distance eps_tv of
    pi_beta.  The step count uses the target's budget B and R = 1 without
    the beta factor, which is conservative for beta < 1.
    """
    steps = mixing_time_bound(
        effective_norm_budget(target.params, target.space), FEATURE_NORM_BOUND, eps_tv
    )
    state, w_state = _draw_proposal(target, rng)
    for _ in range(steps):
        z, s_z = _draw_proposal(target, rng)
        if log(rng.random()) <= target.beta * (s_z - w_state):
            state, w_state = z, s_z
    return state


def sample_approx_batch(
    target: GibbsTarget,
    eps_tv: float,
    n: int,
    rng: np.random.Generator,
) -> list[Structure]:
    """n independent approximate samples, vectorized on table targets."""
    table = target.table
    if table is None:
        return [sample_approx(target, eps_tv, rng) for _ in range(n)]
    idx = _approx_batch_indices(target, eps_tv, n, rng)
    return [table.structures[i] for i in idx]


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
    uniform starts.  Used both by the approximate sampler and by empirical
    mixing diagnostics.
    """
    table = target.table
    if table is None:
        raise ValueError("chain_state_indices needs a space small enough to tabulate")
    w = target.beta * table.scores
    k = len(w)
    if start is None:
        state = rng.integers(0, k, size=n)
    elif np.ndim(start) == 0:
        state = np.full(n, int(start), dtype=np.int64)
    else:
        state = np.array(start, dtype=np.int64)
        if state.shape != (n,):
            raise ValueError("start array must have one entry per chain")
    for _ in range(steps):
        z = rng.integers(0, k, size=n)
        lu = np.log(rng.random(n))
        accept = lu <= w[z] - w[state]
        state = np.where(accept, z, state)
    return state


def _approx_batch_indices(target, eps_tv, n, rng):
    steps = mixing_time_bound(
        effective_norm_budget(target.params, target.space), FEATURE_NORM_BOUND, eps_tv
    )
    return chain_state_indices(target, steps, n, rng)


def sample_rejection(
    target: GibbsTarget, rng: np.random.Generator
) -> tuple[Structure, SamplerReport]:
    """Exact sample by envelope rejection from the uniform proposal.

    A uniform draw z is accepted with probability
    exp(beta * (score(z) - B*R)) <= 1, so accepted draws follow pi_beta
    exactly and the expected number of trials is at most exp(2*beta*B*R).
    """
    bound = target.beta * target.score_bound
    trials = 0
    while True:
        z, s_z = _draw_proposal(target, rng)
        trials += 1
        if log(rng.random()) <= target.beta * s_z - bound:
            report = SamplerReport(
                steps_taken=trials, proposals_accepted=1, coalescence_epoch=trials
            )
            return z, report


def sample_rejection_batch(
    target: GibbsTarget, n: int, rng: np.random.Generator
) -> tuple[list[Structure], np.ndarray]:
    """n independent rejection samples; returns (samples, trial counts)."""
    table = target.table
    if table is None:
        samples, trials = [], np.empty(n, dtype=np.int64)
        for i in range(n):
            y, rep = sample_rejection(target, rng)
            samples.append(y)
            trials[i] = rep.coalescence_epoch
        return samples, trials
    w = target.beta * table.scores
    bound = target.beta * target.score_bound
    k = len(w)
    out = np.empty(n, dtype=np.int64)
    trials = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    round_no = 0
    while pending.size:
        z = rng.integers(0, k, size=pending.size)
        lu = np.log(rng.random(pending.size))
        accept = lu <= w[z] - bound
        out[pending[accept]] = z[accept]
        round_no += 1
        trials[pending[accept]] = round_no
        pending = pending[~accept]
    return [table.structures[i] for i in out], trials
