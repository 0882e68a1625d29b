"""MAP training and annealed MAP prediction.

Training minimizes the regularized negative log-likelihood

    lam * ||theta||^2 + (1/m) * sum_i [ln Z(theta|x_i) - <phi(x_i, y_i), theta>]

by projected gradient descent.  The objective is convex and its optimum can
never leave the ball of radius sqrt(ln|Y| / lam), so every iterate is
projected back onto that ball (or a user-supplied radius).  Gradients of the
log-partition terms are either exact (full enumeration) or Monte Carlo
estimates sized by the Hoeffding bound; instances sharing an input reuse
one expectation per iteration.

The exact objective and gradient are one batched pass over the unique
inputs, on every space up to the enumeration cap: with X the unit-norm
inputs, Theta the parameters as an (|x|, d_Y) matrix and Psi the space's
label matrix (cached up to TABLE_CAP structures, built per call above), the
scores of every (input, structure) pair are X Theta Psi^T, each ln Z is a
row-wise log-sum-exp, and the expectation term is X^T diag(counts) P Psi.
The observed term sum_i x_i/||x_i|| (x) psi(y_i) is formed once per call.
Unique inputs go through in blocks whose score matrix holds at most
_BLOCK_ENTRIES entries, so memory beyond Psi itself stays bounded.

Prediction runs the Metropolis chain along an increasing inverse-temperature
ladder and returns the best structure visited, which is validated against
exhaustive argmax oracles at desk scale.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from math import log, nan
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, WrongSpace, ZeroInput
from .model import (
    Dataset,
    Instance,
    Params,
    joint_features,
    norm_budget_from_space,
    random_unit_theta,
)
from .oracle import (  # unused here; the benchmark tracer patches these names
    exact_gradient,
    exact_partition,
)
from .partition import (
    EXACT,
    estimate_gradient,
    estimate_partition,
    hoeffding_sample_size,
)
from .samplers import GibbsTarget, _check_work, _draw_proposal, sample_exact_cftp
from .spaces import ENUMERATION_CAP, OutputSpace, Structure, space_from_descriptor
from .streams import require_rng

EXACT_ORACLE = "exact"
FPRAS = "fpras"
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
    projection_radius: Optional[float] = None  # None: sqrt(ln|Y| / lam)
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.gradient_mode not in (EXACT_ORACLE, MCMC):
            raise ValueError(f"unknown gradient mode {self.gradient_mode!r}")
        if self.projection_radius is not None and self.projection_radius <= 0:
            raise ValueError("projection_radius must be positive")


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


def _instance_features(data: Dataset, space: OutputSpace) -> np.ndarray:
    return np.stack(
        [joint_features(inst.x, inst.y, space) for inst in data.instances]
    )


def _unique_inputs(data: Dataset):
    """(inputs, counts, group of each instance): instances grouped by input
    vector, so that expectations are shared per group."""
    group_of: dict[bytes, int] = {}
    groups = [group_of.setdefault(inst.x.tobytes(), len(group_of))
              for inst in data.instances]
    xs = {g: inst.x for g, inst in zip(groups, data.instances)}
    return list(xs.values()), np.bincount(groups), groups


@dataclass(frozen=True)
class _ExactData:
    """A dataset laid out against a space's label matrix for the exact pass."""

    xs: np.ndarray  # unique inputs scaled to unit norm, u x |x|
    counts: np.ndarray  # instances per unique input
    observed: np.ndarray  # sum_i x_i/||x_i|| (x) psi_n(y_i), |x| x d_Y
    features: np.ndarray  # the label matrix Psi_n, |Y| x d_Y


def _exact_data(data: Dataset, space: OutputSpace) -> _ExactData:
    labels = space.label_table
    if labels is None:
        labels = space.labels()
    label_rows = [labels.index.get(inst.y) for inst in data.instances]
    if None in label_rows:
        y = data.instances[label_rows.index(None)].y
        raise WrongSpace(f"label {y} is not a structure of the space")
    inputs, counts, groups = _unique_inputs(data)
    xs = np.stack([x.reshape(-1) for x in inputs])
    norms = np.linalg.norm(xs, axis=1)
    if not norms.all():
        raise ZeroInput("input feature vector has zero norm")
    xs /= norms[:, None]
    observed = xs[groups].T @ labels.features[label_rows]
    return _ExactData(xs, counts, observed, labels.features)


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


def objective(
    theta: np.ndarray,
    data: Dataset,
    space: OutputSpace,
    lam: float,
    partition_mode: str = EXACT_ORACLE,
    epsilon: float = 0.2,
    p: int = 3,
    sampler_mode: str = EXACT,
    rng: np.random.Generator = None,
) -> float:
    """Regularized negative log-likelihood at theta.

    ``partition_mode`` "exact" evaluates every ln Z by enumeration; "fpras"
    replaces each with a randomized estimate of accuracy epsilon.
    """
    if partition_mode not in (EXACT_ORACLE, FPRAS):
        raise ValueError(f"unknown partition mode {partition_mode!r}")
    theta = np.asarray(theta, dtype=float)
    if partition_mode == EXACT_ORACLE:
        ed = _exact_data(data, space)
        loss = sum(float(ed.counts[b] @ z) for b, _, z in _exact_blocks(theta, ed))
        loss -= float(ed.observed.reshape(-1) @ theta)
        return lam * float(theta @ theta) + loss / data.m
    params = Params(theta, lam=lam)
    loss = 0.0
    inputs, counts, _ = _unique_inputs(data)
    for x, count in zip(inputs, counts):
        target = GibbsTarget(space, params, beta=1.0, x=x)
        loss += count * estimate_partition(
            target, epsilon, p, sampler_mode, rng
        ).log_value
    phis = _instance_features(data, space)
    loss -= float((phis @ theta).sum())
    return lam * float(theta @ theta) + loss / data.m


def gradient(
    theta: np.ndarray,
    data: Dataset,
    space: OutputSpace,
    lam: float,
    mode: str = EXACT_ORACLE,
    mcmc_epsilon: float = 0.05,
    mcmc_delta: float = 0.05,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """2*lam*theta + (1/m) * sum_i (E_{pi}[phi] - phi(x_i, y_i))."""
    theta = np.asarray(theta, dtype=float)
    if mode == EXACT_ORACLE:
        ed = _exact_data(data, space)
        expected = np.zeros((ed.xs.shape[1], len(ed.features)))
        for b, scores, ln_z in _exact_blocks(theta, ed):
            probs = np.exp(scores - ln_z[:, None])
            expected += ed.xs[b].T @ (ed.counts[b, None] * probs)
        terms = (expected @ ed.features - ed.observed).reshape(-1)
        return 2.0 * lam * theta + terms / data.m
    params = Params(theta, lam=lam)
    S = hoeffding_sample_size(1.0, 1.0, mcmc_epsilon, mcmc_delta)
    expectation = np.zeros_like(theta)
    inputs, counts, _ = _unique_inputs(data)
    for x, count in zip(inputs, counts):
        target = GibbsTarget(space, params, beta=1.0, x=x)
        expectation += count * estimate_gradient(target, S, EXACT, rng).d
    phis = _instance_features(data, space)
    return 2.0 * lam * theta + (expectation - phis.sum(axis=0)) / data.m


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
    at most ENUMERATION_CAP structures, and as nan above it.
    """
    if config.gradient_mode == MCMC:
        require_rng(rng, "train in mcmc mode")
    dim = joint_features(data.instances[0].x, data.instances[0].y, space).size
    theta = np.zeros(dim)
    radius = config.projection_radius
    if radius is None:
        radius = norm_budget_from_space(config.lam, space)
    step0 = config.step_size
    if step0 is None:
        step0 = 1.0 / (2.0 * config.lam + 1.0)
    record_objective = space.count() <= ENUMERATION_CAP
    grad_args = (data, space, config.lam, config.gradient_mode,
                 config.mcmc_epsilon, config.mcmc_delta, rng)
    trace = TrainTrace()
    start = time.perf_counter()
    for t in range(config.max_iters):
        g = gradient(theta, *grad_args)
        obj = objective(theta, data, space, config.lam) if record_objective else nan
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


@dataclass(frozen=True)
class AnnealConfig:
    """Inverse-temperature ladder for MAP prediction."""

    rungs: int = 8
    beta_max: float = 10.0
    steps_per_rung: int = 50

    def __post_init__(self):
        if self.rungs < 1 or self.beta_max < 1.0 or self.steps_per_rung < 0:
            raise ValueError("need rungs >= 1, beta_max >= 1 and steps_per_rung >= 0")

    def ladder(self) -> tuple[float, ...]:
        if self.rungs == 1:
            return (self.beta_max,)
        return tuple(
            self.beta_max ** (k / (self.rungs - 1)) for k in range(self.rungs)
        )


def predict_map(
    space: OutputSpace,
    x: Optional[np.ndarray],
    params: Params,
    budget: AnnealConfig = AnnealConfig(),
    rng: np.random.Generator = None,
) -> Structure:
    """Best structure visited by the chain along an annealing ladder.

    Runs the Metropolis chain for steps_per_rung steps at each rung of a
    geometric ladder from beta = 1 to beta_max and returns the
    highest-scoring structure seen anywhere on the trajectory (first visit
    wins ties).  Deterministic given the stream.  A ladder whose
    rungs*(steps_per_rung + 1) proposals exceed MAX_EXPECTED_PROPOSALS is
    refused before the first draw.
    """
    require_rng(rng, "predict_map")
    steps = budget.steps_per_rung
    _check_work(log(budget.rungs * (steps + 1)),
                f"annealing over {budget.rungs} rungs of {steps} steps needs")
    base = GibbsTarget(space, params, beta=1.0, x=x)
    best, best_score = _draw_proposal(base, rng)
    w_state = best_score
    for beta in budget.ladder():
        keys, scores = base.propose(rng, steps)
        log_us = np.log(rng.random(steps)).tolist()
        for z, s_z, log_u in zip(base.structures(keys), scores.tolist(), log_us):
            if log_u <= beta * (s_z - w_state):
                w_state = s_z
                if s_z > best_score:
                    best, best_score = z, s_z
    return best


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
    instances = []
    x = np.ones(1)
    for _ in range(m):
        y, _ = sample_exact_cftp(target, rng)
        instances.append(Instance(x, y))
    return Dataset(tuple(instances))
