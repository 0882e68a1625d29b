"""Samplers for exponential-family distributions over combinatorial spaces.

The target density is pi_beta(y) proportional to exp(beta * <phi(x, y), theta>).
The Metropolis chain here proposes a fresh uniform structure each step and
accepts with probability min(1, pi(z)/pi(y)).  Every score lies below a
beta-free ceiling s_max (``GibbsTarget.score_ceiling``): the largest score of
the table on a tabled target, else the worst case B*R raised by a bound on
rounding.  So one step moves anywhere with probability at least

    delta_beta = E_{z uniform} exp(beta * (score(z) - s_max)),

exact on a tabled target and at least exp(-2*beta*B*R) otherwise, which
yields three samplers, each drawing n independent samples in one call:

* ``sample_exact_cftp(target, n, rng)`` -- exact samples via coupling from
  the past, with each run's certificate depth,
* ``sample_rejection(target, n, rng)``  -- exact samples by envelope
  rejection, with each run's trials; its accepts are CFTP's certificates,
* ``sample_approx(target, eps_tv, n, rng)`` -- approximate samples after a
  provable number of steps within any total-variation budget.

Each prices all n draws before the first and refuses, as
EpochBudgetExhausted naming the estimate, work expected to exceed
MAX_EXPECTED_PROPOSALS.

Coalescence in CFTP is detected through a conservative certificate.  Each
step's shared randomness is a proposal z_t and one bid

    a_t = beta * score(z_t) + E_t,   E_t ~ Exp(1)  (E_t is -ln u_t),

and a chain in state y moves to z_t when a_t >= beta * score(y): that is
the Metropolis rule.  The event a_t >= beta * s_max forces every chain,
whatever its current state, to accept z_t, so all chains are provably in
the same state from that step on.  The certificate can only delay
detection, never fake it, so exactness is preserved; it fires with
probability delta_beta per step, so its expected depth is 1/delta_beta:
exact (and at most |Y|) on a tabled target, at most exp(2*beta*B*R) on an
untabled one.  The same delta_beta is the Doeblin constant of the
approximate sampler's chain, so one number prices all three samplers.

That event is also the rejection sampler's accept, and once it forces every
chain onto its proposal nothing earlier matters: a T-step chain from a
uniform start is a CFTP run whose backward search stops after T + 1
proposals, the last its start.  So all three samplers cut one i.i.d. pool
from ``GibbsTarget.propose`` into runs; rejection returns their
certificates, and CFTP and the approximate sampler replay them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from math import ceil, exp, expm1, floor, inf, isfinite, log, log1p, sqrt
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
from .spaces import OutputSpace, Structure

# Sampler work expected to exceed this many proposals (or chain steps) is
# refused before its first draw: that is about ten seconds of work on a
# tabled target and minutes on an untabled one, and a certificate search
# keeps its whole proposal pool, a few percent past the proposals its runs
# use, until the replay.  Summed over their ratios, the largest fpras-tabled
# benchmark requests expect about 4.8e5 proposals in exact mode and fewer
# in approximate mode.
MAX_EXPECTED_PROPOSALS = 10**7

_LN2 = log(2.0)


@dataclass(frozen=True)
class GibbsTarget:
    """A space, parameters and inverse temperature defining pi_beta.

    ``x`` of None selects the label-only feature map, stored as the input
    ``np.ones(1)``: the joint map of that input is the label-only map.
    ``beta`` must be finite and non-negative; values in [0, 1] are the
    cooling-schedule regime, and ``sample --beta`` accepts larger ones.
    """

    space: OutputSpace
    params: Params
    beta: float = 1.0
    x: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0 <= self.beta < inf:
            raise ValueError("beta must be finite and non-negative")
        x = np.ones(1) if self.x is None else np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", x)
        expected = self.space.feature_dim * x.size
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
    def score_ceiling(self) -> float:
        """s_max, a beta-free upper bound on every score the samplers compute.

        On a tabled target it is the table's largest score, the very floats
        the certificate compares.  Untabled, it is B*R raised by a bound on
        the rounding in a computed score: the norms and dot products behind
        it sum at most theta.size + x.size + d_Y terms, each adding at most
        2^-52 of B*R.
        """
        if self.table is not None:
            return float(self.table.max())
        terms = self.params.theta.size + self.x.size + self.space.feature_dim
        return self.score_bound * (1.0 + terms * 2.0**-52)

    @cached_property
    def unit_input(self) -> np.ndarray:
        """x / ||x||."""
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
        return x @ self.params.theta.reshape(x.size, -1)

    @cached_property
    def table(self) -> Optional[np.ndarray]:
        """The beta-free score of every row of ``space.label_table``, or None
        above TABLE_CAP; a row index is a proposal key."""
        labels = self.space.label_table
        return None if labels is None else labels.features @ self.label_weights

    def propose(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n uniform proposals as (keys, beta-free scores).

        On a tabled target the keys are n table rows.  Otherwise they are
        the rows of the (n, w) payload matrix that one call of the space's
        uniform sampler returns, scored by one product of their label rows
        with ``label_weights``.  Either way the samplers index keys by their
        first axis only, and ``structures`` maps keys back to Structure
        objects.
        """
        table = self.table
        if table is not None:
            keys = rng.integers(0, len(table), n)
            return keys, table[keys]
        keys = self.space.sample_uniform(rng, n)
        return keys, self.space.label_rows(keys) @ self.label_weights

    def structures(self, keys: np.ndarray) -> list[Structure]:
        """The structures behind proposal keys, built from their payload rows."""
        if self.table is not None:
            keys = self.space.label_table.payloads[keys]
        return self.space.structures(keys)

    def label_rows(self, keys: np.ndarray) -> np.ndarray:
        """psi_n = psi / max||psi|| of the structure behind each key, one row each."""
        if self.table is None:
            return self.space.label_rows(keys)
        return self.space.label_table.features[keys]

    def expected_features(self, probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """E[phi] under ``probs``, a distribution over label rows psi_n.

        By bilinearity E[phi] = x/||x|| (x) (rows^T probs); no joint feature
        vector is formed.
        """
        return np.outer(self.unit_input, rows.T @ probs).reshape(-1)

    @cached_property
    def log_rounds_per_certificate(self) -> float:
        """-ln delta_beta, delta_beta = E_z exp(beta*(s(z) - s_max)) the
        probability that a uniform proposal certifies.

        Exact, and at most ln|Y|, on a tabled target; otherwise the bound
        2*beta*s_max, with s_max just above B*R.  Infinite when beta*B*R is
        not finite, without scoring the table.
        """
        if not isfinite(self.beta * self.score_bound):
            return inf
        if self.table is None:
            return 2.0 * self.beta * self.score_ceiling
        w = self.beta * (self.table - self.score_ceiling)
        return log(len(w)) - _logsumexp(w)

    def mixing_steps(self, eps_tv: float) -> int | float:
        """Chain steps within eps_tv total variation of pi_beta, from any start.

        ceil(ln(1/eps_tv) / -ln(1 - delta_beta)): every step moves to a
        pi_beta draw with probability at least delta_beta, the certificate's
        firing probability (Liu 1996).  Exact on a tabled target; untabled,
        delta_beta is bounded by exp(-2*beta*B*R), the paper's bound at
        budget beta*B.  Not refused here, however large: a draw costs at
        most its certificate depth, so the samplers price
        min(1/delta_beta, steps + 1) proposals.  inf where the count
        overflows a float, which needs a 1/delta_beta above 1e300.
        """
        return _doeblin_steps(self.log_rounds_per_certificate, eps_tv)[0]

    def at_beta(self, beta: float) -> "GibbsTarget":
        """Same space and parameters at a different inverse temperature."""
        other = dataclasses.replace(self, beta=beta)
        for name in ("table", "score_ceiling"):  # beta-free, safe to share
            if name in self.__dict__:
                other.__dict__[name] = self.__dict__[name]
        return other


def _draw_proposal(target: GibbsTarget, rng: np.random.Generator):
    """One uniform proposal as (an array of its one key, its beta-free score)."""
    keys, scores = target.propose(rng, 1)
    return keys, float(scores[0])


def mixing_time_bound(B: float, R: float, eps_tv: float) -> int:
    """Steps after which the chain is within eps_tv total variation.

    The paper's bound ceil(ln(1/eps) / -ln(1 - exp(-2BR))), valid at beta
    <= 1; 0 steps for eps_tv = 1 and a single step in the degenerate
    B*R = 0 case, where the first accepted proposal is already an exact
    sample.  Raises EpochBudgetExhausted when the bound exceeds
    MAX_EXPECTED_PROPOSALS.
    """
    steps, log_steps = _doeblin_steps(2.0 * B * R, eps_tv)
    _check_work(log_steps, f"the mixing bound at B*R = {B * R:.6g} is", "steps")
    return steps


def _doeblin_steps(a: float, eps_tv: float) -> tuple[int | float, float]:
    """(ceil(ln(1/eps_tv) / -ln(1 - e^-a)), its natural log): steps of a
    chain that moves to an exact draw with probability at least
    delta = e^-a per step.

    0 steps for eps_tv = 1 and one for a <= 0.  For a > ln 2 the
    denominator is evaluated as -log1p(-exp(-a)), which stays positive long
    after 1 - exp(-a) rounds to 1.  The count is inf where it overflows a
    float; its log stays finite.
    """
    if not 0 < eps_tv <= 1:
        raise ValueError("eps_tv must be in (0, 1]")
    if eps_tv == 1:
        return 0, -inf
    if a <= 0.0:
        return 1, 0.0
    # -ln(1 - e^-a) without cancellation at either end (Maechler's log1mexp)
    denom = -(log(-expm1(-a)) if a <= _LN2 else log1p(-exp(-a)))
    # -ln(1 - e^-a) tends to e^-a, which is what an underflowed denom means
    log_steps = log(log(1.0 / eps_tv)) - (log(denom) if denom > 0.0 else -a)
    steps = log(1.0 / eps_tv) / denom if denom > 0.0 else inf
    return (ceil(steps) if steps < inf else inf), log_steps


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    return m + log(float(np.exp(v - m).sum()))


def _format_log_count(log_n: float) -> str:
    """exp(log_n) in scientific notation, without overflowing."""
    if not isfinite(log_n):
        return str(log_n)  # inf or nan
    exponent = floor(log_n / log(10.0))
    mantissa = 10.0 ** (log_n / log(10.0) - exponent)
    if mantissa >= 9.95:  # would print as 10.0
        mantissa, exponent = mantissa / 10.0, exponent + 1
    return f"{mantissa:.1f}e{exponent:+03d}"


def expected_proposals(target: GibbsTarget, n: int) -> float:
    """Expected proposals of n certificate runs (CFTP or rejection).

    n / delta_beta: exact on a tabled target, and the bound
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


def _ceiling_text(target: GibbsTarget) -> str:
    """The ceiling a certificate price used, for refusal messages:
    beta*s_max on a tabled target, else beta*B*R."""
    bound = target.beta * target.score_bound
    if target.table is None or not isfinite(bound):
        return f"beta*B*R = {bound:.6g}"
    return f"beta*s_max = {target.beta * target.score_ceiling:.6g}"


def _check_expected_proposals(target: GibbsTarget, n: int, steps: Optional[int] = None,
                              what: Optional[str] = None) -> None:
    """Refuse n runs whose expected proposals, n*min(1/delta_beta, steps + 1),
    exceed MAX_EXPECTED_PROPOSALS: a run ends at its certificate or, cut off
    at ``steps``, after steps + 1.  ``what`` names the request, plural."""
    log_rounds = target.log_rounds_per_certificate
    if steps is not None:
        log_rounds = min(log_rounds, log1p(steps))
        what = what or f"{n} approximate draws of {steps} steps each"
    subject = f"{what} at {_ceiling_text(target)} expect" if what else (
        f"a certificate search for {n} runs at {_ceiling_text(target)} expects")
    _check_work(log(n) + log_rounds if n else -inf, subject)


def _run_ends(hit: np.ndarray, drawn: int, steps: Optional[int]) -> np.ndarray:
    """End positions of the runs that a pool of ``drawn`` proposals with
    certificates at ``hit`` completes, each run ending at its first
    certificate or, given ``steps``, after steps + 1 positions: each stretch
    up to a hit holds runs cut off every steps + 1 positions, then the run
    that ends at the hit.  No run is cut off when steps + 1 exceeds the
    pool, however large ``steps`` is."""
    if steps is None or steps >= drawn:
        return hit
    cap = steps + 1
    start = np.concatenate(([0], hit + 1))  # where each stretch begins
    stop = np.append(hit, drawn)  # its hit, or the end of the pool
    runs = (stop - start) // cap + 1
    runs[-1] -= 1  # the last stretch has no hit
    j = np.arange(1, runs.sum() + 1) - np.repeat(np.cumsum(runs) - runs, runs)
    return np.minimum(np.repeat(start - 1, runs) + cap * j, np.repeat(stop, runs))


def _certificate_rounds(target: GibbsTarget, n: int, rng: np.random.Generator,
                        steps: Optional[int] = None):
    """n runs cut from one pool of uniform proposals.

    Each proposal z bids a = beta*s(z) + E with E ~ Exp(1) (E is -ln u) and
    certifies when a >= beta*s_max.  The pool is one i.i.d. stream, cut into
    runs by ``_run_ends``; without ``steps`` run j ends at the j-th hit, and
    its depth, the gap between hits, is geometric with mean 1/delta_beta.
    The pool grows in a few ``propose`` chunks, each sized from the rate of
    completed runs so far; a chunk after none at most doubles the pool.
    Returns (ends, depths, (keys, scores, bids)): each run's last pool
    position and length, in pool order, and the pool.  Refused up front by
    ``_check_expected_proposals``.
    """
    _check_expected_proposals(target, n, steps)
    beta = target.beta
    bound = beta * target.score_ceiling
    chunks, hits, drawn, size = [], [], 0, n
    while True:  # the first chunk always runs, even for n = 0
        z, s_z = target.propose(rng, size)
        bids = beta * s_z + rng.standard_exponential(size)
        chunks.append((z, s_z, bids))
        hits.append(drawn + np.flatnonzero(bids >= bound))
        drawn += size
        ends = _run_ends(np.concatenate(hits), drawn, steps)
        if (runs := len(ends)) >= n:
            break
        # the need plus two standard deviations, at a high estimate of the rate
        need, rate = n - runs, (runs + 2.0 * sqrt(runs) + 2.0) / drawn
        size = ceil((need + 2.0 * sqrt(need)) / rate) if runs else drawn
    pool = chunks[0] if len(chunks) == 1 else tuple(np.concatenate(p) for p in zip(*chunks))
    ends = ends[:n]
    return ends, np.diff(ends, prepend=-1), pool


def _cftp_batch_indices(target, n, rng, steps=None, start=None):
    """n CFTP runs as (keys, depths, scores), in pool order.

    Run j starts from its last pool position end_j and replays the
    Metropolis rule through its earlier proposals, step k over end_j - k: it
    moves to z when z's bid reaches beta*s(state).  A run that ends at a
    certificate is exact; one cut off at steps + 1 positions is the
    ``steps``-step chain from the uniform proposal at end_j, or from table
    row ``start[j]``.  With the runs sorted by depth once, those still open
    at step k are a prefix.
    """
    ends, depths, (z, s_z, bids) = _certificate_rounds(target, n, rng, steps)
    state = ends.copy()
    if start is not None:  # cut-off runs start from their own rows instead
        cut = np.flatnonzero(depths == steps + 1)
        state[cut] = len(z) + cut
        z = np.concatenate((z, start))
        s_z = np.concatenate((s_z, target.table[start]))
    order = np.argsort(-depths)  # deepest first
    ends, state = ends[order], state[order]
    level = target.beta * s_z
    rounds = np.arange(1, depths.max(initial=1))
    for k, m in zip(rounds, np.searchsorted(-depths[order], -rounds)):
        step = ends[:m] - k
        np.copyto(state[:m], step, where=bids[step] >= level[state[:m]])
    state[order] = state.copy()  # back to pool order
    return z[state], depths, s_z[state]


def sample_exact_cftp(
    target: GibbsTarget, n: int, rng: np.random.Generator
) -> tuple[list[Structure], np.ndarray]:
    """n independent exact samples from pi_beta via coupling from the past.

    Each run scans backwards in time, one step per round, for the most
    recent step whose certificate fires, then replays its single surviving
    trajectory forward to time 0 with the same randomness.  Returns
    (samples, certificate depths).

    Raises EpochBudgetExhausted before any draw when the n runs' expected
    total depth exceeds MAX_EXPECTED_PROPOSALS; a fresh stream would be
    refused too.
    """
    keys, depths, _ = _cftp_batch_indices(target, n, rng)
    return target.structures(keys), depths


def sample_rejection(
    target: GibbsTarget, n: int, rng: np.random.Generator
) -> tuple[list[Structure], np.ndarray]:
    """n independent exact samples by envelope rejection from the uniform
    proposal; returns (samples, trial counts).

    A uniform draw z is accepted with probability
    exp(beta * (score(z) - s_max)) <= 1, so accepted draws follow pi_beta
    exactly and the expected number of trials is 1/delta_beta: exact (at
    most |Y|) on a tabled target, at most exp(2*beta*B*R) otherwise.  The
    accepts are the certificates of CFTP's search, so on one stream the
    trial counts are CFTP's depths.  Refused before any draw like
    ``sample_exact_cftp``.
    """
    ends, trials, (z, _, _) = _certificate_rounds(target, n, rng)
    return target.structures(z[ends]), trials


def sample_approx(
    target: GibbsTarget,
    eps_tv: float,
    n: int,
    rng: np.random.Generator,
) -> list[Structure]:
    """n independent samples of the chain run from a uniform start for
    ``target.mixing_steps(eps_tv)`` steps: CFTP runs cut off at that many.

    Each sample's law is within total-variation distance eps_tv of pi_beta.
    Refused before any draw like ``sample_exact_cftp``, at
    n*min(1/delta_beta, steps + 1) expected proposals.
    """
    return target.structures(_approx_batch_indices(target, eps_tv, n, rng)[0])


def chain_state_indices(
    target: GibbsTarget,
    steps: int,
    n: int,
    rng: np.random.Generator,
    start=None,
) -> np.ndarray:
    """Final states of n independent chains after exactly ``steps``
    transitions, as CFTP runs cut off at that many.

    Requires a score table.  ``start`` may be a single state index shared by
    all chains, an array of per-chain start indices, or None for independent
    uniform starts.  Used by empirical mixing diagnostics.
    """
    if target.table is None:
        raise ValueError("chain_state_indices needs a space small enough to tabulate")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if start is not None:
        start = np.array(np.full(n, start) if np.ndim(start) == 0 else start, dtype=np.int64)
        if start.shape != (n,):
            raise ValueError("start array must have one entry per chain")
    return _cftp_batch_indices(target, n, rng, steps, start)[0]


def _approx_batch_indices(target, eps_tv, n, rng):
    """(keys, scores) of n chains run from uniform starts for the mixing bound."""
    keys, _, scores = _cftp_batch_indices(target, n, rng, target.mixing_steps(eps_tv))
    return keys, scores
