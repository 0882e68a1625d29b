"""MAP training and MAP prediction.

Training minimizes the regularized negative log-likelihood

    lam * ||theta||^2 + (1/m) * sum_i [ln Z(theta|x_i) - <phi(x_i, y_i), theta>]

by projected gradient descent.  The objective is convex and its optimum can
never leave the ball of radius sqrt(ln|Y| / lam), so every iterate is
projected back onto that ball.  Gradients of the log-partition terms are
either exact (full enumeration) or Monte Carlo estimates sized by the
Hoeffding bound; instances sharing an input reuse one expectation per
iteration.

The exact objective and gradient come together from one batched pass over
the unique inputs, on every space up to the enumeration cap: with X the
unit-norm inputs, Theta the parameters as an (|x|, d_Y) matrix and Psi the
space's label matrix (cached up to TABLE_CAP structures, enumerated once per
layout above), the scores of every (input, structure) pair are
X Theta Psi^T, each ln Z is a row-wise log-sum-exp, and the expectation term
is X^T diag(counts) P Psi.  The theta-free layout (X, the counts, Psi and the
observed term sum_i x_i/||x_i|| (x) psi(y_i)) is built once per train call
in both gradient modes, and each exact iteration makes one pass, shared by
its gradient and its recorded objective; an mcmc iteration reads the unique
inputs and the observed term from the same layout, and records its
objective from a pass that forms no expectation term.  Unique inputs go
through in blocks whose score matrix holds at most _BLOCK_ENTRIES entries,
so memory beyond Psi itself stays bounded.

Prediction returns the best of a number of exact uniform proposals, scored
in one batch.  A Metropolis chain over those proposals, annealed or not,
only visits structures it proposed, so it cannot do better; the result is
validated against exhaustive argmax oracles at desk scale.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import log, nan
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, WrongSpace, ZeroInput
from .model import (  # joint_features is unused; the benchmark tracer patches it
    Dataset,
    Instance,
    Params,
    joint_features,
    ln_count,
    norm_budget_from_space,
    random_unit_theta,
)
from .oracle import (  # unused here; the benchmark tracer patches these names
    exact_gradient,
    exact_partition,
)
from .partition import EXACT, estimate_gradient, hoeffding_sample_size
from .samplers import (  # _draw_proposal is unused; the benchmark tracer patches it
    GibbsTarget,
    _check_work,
    _draw_proposal,
    sample_exact_cftp,
)
from .spaces import ENUMERATION_CAP, OutputSpace, Structure, space_from_descriptor
from .streams import require_rng

EXACT_ORACLE = "exact"
MCMC = "mcmc"

# Most (input, structure) scores the exact pass holds at once: 8 MB.
_BLOCK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1.0
    max_iters: int = 100
    step_size: Optional[float] = None  # None: 1/(2*lam + 1), safe for R = 1
    gradient_mode: str = EXACT_ORACLE
    mcmc_epsilon: float = 0.05
    mcmc_delta: float = 0.05
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.gradient_mode not in (EXACT_ORACLE, MCMC):
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    objective: float
    grad_norm: float
    theta_norm: float
    wall_time: float


@dataclass
class TrainTrace:
    rows: list[TraceRow] = field(default_factory=list)

    CSV_HEADER = "iteration,objective,grad_norm,theta_norm,wall_time"

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.rows])

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for r in self.rows:
                fh.write(
                    f"{r.iteration},{r.objective!r},{r.grad_norm!r},"
                    f"{r.theta_norm!r},{r.wall_time!r}\n"
                )


def _unique_inputs(data: Dataset):
    """(inputs, counts, group of each instance): instances grouped by input
    vector, so that expectations are shared per group."""
    group_of: dict[bytes, int] = {}
    groups = [group_of.setdefault(inst.x.tobytes(), len(group_of))
              for inst in data.instances]
    xs = {g: inst.x for g, inst in zip(groups, data.instances)}
    return list(xs.values()), np.bincount(groups), groups


@dataclass
class _ExactData:
    """A dataset laid out for training: everything the exact pass and the
    mcmc gradient need that does not depend on theta."""

    inputs: list  # unique inputs as given
    xs: np.ndarray  # unique inputs scaled to unit norm, u x |x|
    counts: np.ndarray  # instances per unique input
    observed: np.ndarray  # sum_i x_i/||x_i|| (x) psi_n(y_i), |x| x d_Y
    features: Optional[np.ndarray]  # the label matrix Psi_n, |Y| x d_Y, if enumerated
    m: int  # instances
    memo: tuple = (None, None)  # (theta bytes, lam), (value, gradient) of the last pass


def _exact_data(data: Dataset, space: OutputSpace, unique=None,
                enumerated: bool = True) -> _ExactData:
    """The layout of ``data``; ``unique`` is its ``_unique_inputs`` when
    already computed.  Each label's row is its own feature vector, so a
    label outside the space is refused as WrongSpace; ``enumerated`` only
    decides whether the space's label matrix is built, as the exact pass
    needs and the mcmc gradient on spaces above the enumeration cap cannot
    afford."""
    for inst in data.instances:
        if not space.contains(inst.y):
            raise WrongSpace(f"label {inst.y} is not a structure of the space")
    psi = np.stack([space.output_features(inst.y) for inst in data.instances])
    psi /= space.max_feature_norm()
    features = space.labels().features if enumerated else None
    inputs, counts, groups = _unique_inputs(data) if unique is None else unique
    xs = np.stack([x.reshape(-1) for x in inputs])
    norms = np.linalg.norm(xs, axis=1)
    if not norms.all():
        raise ZeroInput("input feature vector has zero norm")
    xs /= norms[:, None]
    observed = xs[groups].T @ psi
    return _ExactData(inputs, xs, counts, observed, features, data.m)


def _exact_blocks(theta: np.ndarray, ed: _ExactData):
    """(unique-input slice, scores X Theta Psi^T, row-wise ln Z) per block."""
    x_dim, y_dim = ed.xs.shape[1], ed.features.shape[1]
    if theta.size != x_dim * y_dim:
        raise DimensionMismatch(
            f"theta has {theta.size} entries, "
            f"feature map has dimension {x_dim * y_dim}"
        )
    weights = ed.xs @ theta.reshape(x_dim, y_dim)
    step = max(1, _BLOCK_ENTRIES // len(ed.features))
    for lo in range(0, len(weights), step):
        block = slice(lo, lo + step)
        scores = weights[block] @ ed.features.T
        top = scores.max(axis=1)
        yield block, scores, top + np.log(np.exp(scores - top[:, None]).sum(axis=1))


def _exact_pass(theta: np.ndarray, ed: _ExactData, lam: float, with_gradient: bool = True):
    """(objective, gradient) at theta from one pass over the blocks; without
    ``with_gradient`` the pass forms only the objective, and the gradient is
    None.  The last result stays on the layout, so asking again at the same
    theta and lam costs no pass."""
    key = (theta.tobytes(), lam)
    if ed.memo[0] != key or (with_gradient and ed.memo[1][1] is None):
        loss, grad = 0.0, None
        expected = np.zeros((ed.xs.shape[1], len(ed.features)))
        for b, scores, ln_z in _exact_blocks(theta, ed):
            loss += float(ed.counts[b] @ ln_z)
            if with_gradient:
                probs = np.exp(scores - ln_z[:, None])
                expected += ed.xs[b].T @ (ed.counts[b, None] * probs)
        loss -= float(ed.observed.reshape(-1) @ theta)
        if with_gradient:
            terms = (expected @ ed.features - ed.observed).reshape(-1)
            grad = 2.0 * lam * theta + terms / ed.m
        ed.memo = key, (lam * float(theta @ theta) + loss / ed.m, grad)
    return ed.memo[1]


def objective(
    theta: np.ndarray,
    data: Dataset,
    space: OutputSpace,
    lam: float,
    layout: Optional[_ExactData] = None,
) -> float:
    """Regularized negative log-likelihood at theta, every ln Z by enumeration.

    ``layout``, the ``_exact_data(data, space)`` of an earlier call, skips
    rebuilding it.
    """
    theta = np.asarray(theta, dtype=float)
    if layout is None:
        layout = _exact_data(data, space)
    return _exact_pass(theta, layout, lam, with_gradient=False)[0]


def gradient(
    theta: np.ndarray,
    data: Dataset,
    space: OutputSpace,
    lam: float,
    mode: str = EXACT_ORACLE,
    mcmc_epsilon: float = 0.05,
    mcmc_delta: float = 0.05,
    rng: np.random.Generator = None,
    layout: Optional[_ExactData] = None,
) -> np.ndarray:
    """2*lam*theta + (1/m) * sum_i (E_{pi}[phi] - phi(x_i, y_i)).

    ``layout`` is as for ``objective``.  mcmc mode reads only its unique
    inputs, counts and observed term, and builds it without enumerating.
    """
    theta = np.asarray(theta, dtype=float)
    if layout is None:
        layout = _exact_data(data, space, None, mode == EXACT_ORACLE)
    if mode == EXACT_ORACLE:
        return _exact_pass(theta, layout, lam)[1]
    params = Params(theta, lam=lam)
    S = hoeffding_sample_size(1.0, 1.0, mcmc_epsilon, mcmc_delta)
    expectation = np.zeros_like(theta)
    for x, count in zip(layout.inputs, layout.counts):
        target = GibbsTarget(space, params, beta=1.0, x=x)
        expectation += count * estimate_gradient(target, S, EXACT, rng)
    return 2.0 * lam * theta + (expectation - layout.observed.reshape(-1)) / layout.m


def train(
    data: Dataset,
    space: OutputSpace,
    config: TrainConfig,
    rng: np.random.Generator = None,
) -> tuple[Params, TrainTrace]:
    """Projected gradient descent on the MAP objective.

    Starts at theta = 0, steps against the (exact or estimated) gradient
    with eta_t = step_size / (1 + t) and projects onto the radius ball after
    every update.  Stops once the gradient norm falls below the tolerance
    or after max_iters evaluations, taking no step after the last one, so
    the returned theta is the last trace row's.  A failed gradient estimate
    propagates at once.  The exact objective is recorded on every space of
    at most ENUMERATION_CAP structures, and as nan above it.  The dataset's
    layout is built once in either mode, against the label matrix where
    one is needed, and each iteration's exact gradient and recorded
    objective share one pass (in mcmc mode the pass forms the objective
    only).  Iterations whose total work exceeds
    MAX_EXPECTED_PROPOSALS are refused before the first, as
    EpochBudgetExhausted naming the estimate.
    """
    if config.gradient_mode == MCMC:
        require_rng(rng, "train in mcmc mode")
    unique = _unique_inputs(data)
    radius = norm_budget_from_space(config.lam, space)
    _check_train_work(len(unique[0]), space, config, radius)
    step0 = config.step_size
    if step0 is None:
        step0 = 1.0 / (2.0 * config.lam + 1.0)
    record_objective = space.count() <= ENUMERATION_CAP
    exact = config.gradient_mode == EXACT_ORACLE
    layout = _exact_data(data, space, unique, exact or record_objective)
    theta = np.zeros(layout.observed.size)
    grad_args = (data, space, config.lam, config.gradient_mode,
                 config.mcmc_epsilon, config.mcmc_delta, rng, layout)
    trace = TrainTrace()
    start = time.perf_counter()
    for t in range(config.max_iters):
        g = gradient(theta, *grad_args)
        obj = objective(theta, data, space, config.lam, layout) if record_objective else nan
        grad_norm = float(np.linalg.norm(g))
        trace.rows.append(
            TraceRow(t, obj, grad_norm, float(np.linalg.norm(theta)),
                     time.perf_counter() - start)
        )
        if grad_norm <= config.tolerance or t == config.max_iters - 1:
            break
        theta = theta - step0 / (1.0 + t) * g
        norm = float(np.linalg.norm(theta))
        if norm > radius:
            theta = theta * (radius / norm)
    params = Params(theta, lam=config.lam, norm_budget=radius)
    return params, trace


def _check_train_work(u, space, config, radius) -> None:
    """Refuse, before the first iteration, max_iters iterations whose work
    exceeds MAX_EXPECTED_PROPOSALS: u*|Y| scores for an exact pass over u
    unique inputs, and u*S certificate runs for an mcmc estimate.  A run
    expects at most exp(2*B) proposals, with B the projection radius
    sqrt(ln|Y|/lam), and at most |Y| on a tabled space: there the score
    ceiling is the top score, so a round certifies whenever it proposes the
    top structure, with probability at least 1/|Y|.  ``u`` counts the
    dataset's unique inputs."""
    what = f"{config.max_iters} training iterations over {u} unique inputs"
    if config.gradient_mode == MCMC:
        S = hoeffding_sample_size(1.0, 1.0, config.mcmc_epsilon, config.mcmc_delta)
        log_rounds = 2.0 * radius
        if space.label_table is not None:
            log_rounds = min(log_rounds, ln_count(space))
        _check_work(log(config.max_iters * u * S) + log_rounds,
                    f"{what}, {S} mcmc draws per input, expect")
    else:
        _check_work(log(config.max_iters * u) + ln_count(space),
                    f"{what}, {space.count()} structures each, need", "scores")


def predict_map(
    space: OutputSpace,
    x: Optional[np.ndarray],
    params: Params,
    proposals: int,
    rng: np.random.Generator = None,
) -> Structure:
    """Highest-scoring structure among ``proposals`` uniform proposals.

    A Metropolis chain whose proposals are independent uniform draws only
    ever visits structures it proposed, so no such chain, at any
    temperature, can find a better one than the best proposal.  All
    proposals come from one ``GibbsTarget.propose`` call and the first with
    the maximum score wins ties.  Deterministic given the stream.  Fewer
    than one proposal is a ValueError, and more than MAX_EXPECTED_PROPOSALS
    are refused before the first draw.
    """
    require_rng(rng, "predict_map")
    if proposals < 1:
        raise ValueError("proposals must be >= 1")
    _check_work(log(proposals), f"MAP prediction from {proposals} proposals needs")
    target = GibbsTarget(space, params, beta=1.0, x=x)
    keys, scores = target.propose(rng, proposals)
    best = int(np.argmax(scores))
    return target.structures(keys[best:best + 1])[0]


# ---------------------------------------------------------------------------
# trained-model serialization


def save_model(path, params: Params, space: OutputSpace, feature_mode: str = "outer",
               seed: Optional[int] = None) -> None:
    doc = {
        "space": space.to_descriptor(),
        "theta": params.theta.tolist(),
        "lambda": params.lam,
        "radius": params.norm_budget,
        "feature_mode": feature_mode,
        "seed": seed,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_model(path) -> tuple[Params, OutputSpace, dict]:
    with open(path) as fh:
        doc = json.load(fh)
    space = space_from_descriptor(doc["space"])
    params = Params(
        np.asarray(doc["theta"], dtype=float),
        lam=float(doc["lambda"]),
        norm_budget=doc.get("radius"),
    )
    return params, space, doc


def make_toy_dataset(
    space: OutputSpace, m: int = 20, rng: np.random.Generator = None
) -> Dataset:
    """Label-only toy data: every input is the scalar 1, labels are drawn
    from a fixed skewed exponential-family distribution over the space."""
    theta = random_unit_theta(space.feature_dim, rng, norm=1.0)
    params = Params(theta, lam=1.0, norm_budget=1.0)
    target = GibbsTarget(space, params, beta=1.0, x=None)
    ys, _ = sample_exact_cftp(target, m, rng)
    return Dataset(tuple(Instance(np.ones(1), y) for y in ys))
