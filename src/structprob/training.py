"""MAP training and annealed MAP prediction.

Training minimizes the regularized negative log-likelihood

    lam * ||theta||^2 + (1/m) * sum_i [ln Z(theta|x_i) - <phi(x_i, y_i), theta>]

by projected gradient descent.  The objective is convex and its optimum can
never leave the ball of radius sqrt(ln|Y| / lam), so every iterate is
projected back onto that ball (or a user-supplied radius).  Gradients of the
log-partition terms are either exact (full enumeration) or Monte Carlo
estimates sized by the Hoeffding bound; instances sharing an input reuse
one expectation per iteration.

On a space with a label table the exact objective and gradient are one
batched pass over the unique inputs: with X the unit-norm inputs, Theta the
parameters as an (|x|, d_Y) matrix and Psi the table's label features, the
scores of every (input, structure) pair are X Theta Psi^T, each ln Z is a
row-wise log-sum-exp, and the expectation term is X^T diag(counts) P Psi.
Larger spaces fall back to one exact oracle call per unique input.

Prediction runs the Metropolis chain along an increasing inverse-temperature
ladder and returns the best structure visited, which is validated against
exhaustive argmax oracles at desk scale.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, SamplerFailure, WrongSpace, ZeroInput
from .model import (
    Dataset,
    Instance,
    Params,
    joint_features,
    norm_budget_from_space,
    random_unit_theta,
)
from .oracle import exact_gradient, exact_partition
from .partition import (
    EXACT,
    estimate_gradient,
    estimate_partition,
    hoeffding_sample_size,
)
from .samplers import GibbsTarget, _draw_proposal, sample_exact_cftp
from .spaces import TABLE_CAP, LabelTable, OutputSpace, Structure, space_from_descriptor
from .streams import require_rng

EXACT_ORACLE = "exact"
FPRAS = "fpras"
MCMC = "mcmc"


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 1.0
    max_iters: int = 100
    step_size: Optional[float] = None  # None: 1/(2*lam + 1), safe for R = 1
    decay: bool = True  # eta_t = step_size / (1 + t)
    gradient_mode: str = EXACT_ORACLE
    mcmc_epsilon: float = 0.05
    mcmc_delta: float = 0.05
    sampler_mode: str = EXACT  # per-draw sampler for mcmc gradients
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

    def append(self, row: TraceRow) -> None:
        self.rows.append(row)

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
    """Instances grouped by input vector; expectations are shared per group."""
    groups: dict[bytes, tuple[np.ndarray, int]] = {}
    for inst in data.instances:
        key = inst.x.tobytes()
        if key in groups:
            x, cnt = groups[key]
            groups[key] = (x, cnt + 1)
        else:
            groups[key] = (inst.x, 1)
    return list(groups.values())


@dataclass(frozen=True)
class _TabledData:
    """A dataset laid out against a label table for the batched exact pass."""

    xs: np.ndarray  # unique inputs scaled to unit norm, u x |x|
    counts: np.ndarray  # instances per unique input
    pairs: np.ndarray  # u x |Y| counts of observed (input, label) pairs


def _tabled_data(data: Dataset, table: LabelTable) -> _TabledData:
    groups = _unique_inputs(data)
    row_of = {x.tobytes(): r for r, (x, _) in enumerate(groups)}
    pairs = np.zeros((len(groups), len(table.structures)))
    for inst in data.instances:
        k = table.index.get(inst.y)
        if k is None:
            raise WrongSpace(f"label {inst.y} is not a structure of the space")
        pairs[row_of[inst.x.tobytes()], k] += 1.0
    xs = np.stack([x.reshape(-1) for x, _ in groups])
    norms = np.linalg.norm(xs, axis=1)
    if not norms.all():
        raise ZeroInput("input feature vector has zero norm")
    counts = np.array([c for _, c in groups], dtype=float)
    return _TabledData(xs / norms[:, None], counts, pairs)


def _tabled_scores(theta: np.ndarray, tab: _TabledData, table: LabelTable):
    """(scores X Theta Psi^T, row-wise ln Z) of every unique input."""
    x_dim, y_dim = tab.xs.shape[1], table.features.shape[1]
    if theta.size != x_dim * y_dim:
        raise DimensionMismatch(
            f"theta has {theta.size} entries, "
            f"feature map has dimension {x_dim * y_dim}"
        )
    scores = (tab.xs @ theta.reshape(x_dim, y_dim)) @ table.features.T
    top = scores.max(axis=1)
    log_z = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
    return scores, log_z


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
    table = space.label_table
    if partition_mode == EXACT_ORACLE and table is not None:
        tab = _tabled_data(data, table)
        scores, log_z = _tabled_scores(theta, tab, table)
        loss = float(tab.counts @ log_z) - float((tab.pairs * scores).sum())
        return lam * float(theta @ theta) + loss / data.m
    params = Params(theta, lam=lam)
    loss = 0.0
    for x, count in _unique_inputs(data):
        target = GibbsTarget(space, params, beta=1.0, x=x)
        if partition_mode == EXACT_ORACLE:
            ln_z = exact_partition(target)
        else:
            ln_z = estimate_partition(
                target, epsilon, p, sampler_mode, rng
            ).log_value
        loss += count * ln_z
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
    sampler_mode: str = EXACT,
    rng: np.random.Generator = None,
) -> np.ndarray:
    """2*lam*theta + (1/m) * sum_i (E_{pi}[phi] - phi(x_i, y_i))."""
    theta = np.asarray(theta, dtype=float)
    table = space.label_table
    if mode == EXACT_ORACLE and table is not None:
        tab = _tabled_data(data, table)
        scores, log_z = _tabled_scores(theta, tab, table)
        probs = np.exp(scores - log_z[:, None])
        weights = tab.counts[:, None] * probs - tab.pairs
        terms = (tab.xs.T @ weights @ table.features).reshape(-1)
        return 2.0 * lam * theta + terms / data.m
    params = Params(theta, lam=lam)
    expectation = np.zeros_like(theta)
    for x, count in _unique_inputs(data):
        target = GibbsTarget(space, params, beta=1.0, x=x)
        if mode == EXACT_ORACLE:
            e_phi = exact_gradient(target)
        else:
            S = hoeffding_sample_size(1.0, 1.0, mcmc_epsilon, mcmc_delta)
            e_phi = estimate_gradient(target, S, sampler_mode, rng).d
        expectation += count * e_phi
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
    every update.  Stops at max_iters or when the gradient norm falls below
    the tolerance.  A failed gradient estimate is retried once with a fresh
    stream before the failure propagates.
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
    record_objective = space.count() <= TABLE_CAP
    trace = TrainTrace()
    start = time.perf_counter()
    for t in range(config.max_iters):
        try:
            g = _train_gradient(theta, data, space, config, rng)
        except SamplerFailure:
            g = _train_gradient(theta, data, space, config, rng)
        obj = (
            objective(theta, data, space, config.lam)
            if record_objective
            else float("nan")
        )
        grad_norm = float(np.linalg.norm(g))
        trace.append(
            TraceRow(t, obj, grad_norm, float(np.linalg.norm(theta)),
                     time.perf_counter() - start)
        )
        if grad_norm <= config.tolerance:
            break
        eta = step0 / (1.0 + t) if config.decay else step0
        theta = theta - eta * g
        norm = float(np.linalg.norm(theta))
        if norm > radius:
            theta = theta * (radius / norm)
    params = Params(theta, lam=config.lam, norm_budget=radius)
    return params, trace


def _train_gradient(theta, data, space, config, rng):
    return gradient(
        theta,
        data,
        space,
        config.lam,
        mode=config.gradient_mode,
        mcmc_epsilon=config.mcmc_epsilon,
        mcmc_delta=config.mcmc_delta,
        sampler_mode=config.sampler_mode,
        rng=rng,
    )


@dataclass(frozen=True)
class AnnealConfig:
    """Inverse-temperature ladder for MAP prediction."""

    rungs: int = 8
    beta_max: float = 10.0
    steps_per_rung: int = 50

    def ladder(self) -> tuple[float, ...]:
        if self.rungs < 1 or self.beta_max < 1.0:
            raise ValueError("need rungs >= 1 and beta_max >= 1")
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
    wins ties).  Deterministic given the stream.
    """
    require_rng(rng, "predict_map")
    base = GibbsTarget(space, params, beta=1.0, x=x)
    state, w_state = _draw_proposal(base, rng)
    best, best_score = state, w_state
    for beta in budget.ladder():
        target = base.at_beta(beta)
        for _ in range(budget.steps_per_rung):
            z, s_z = _draw_proposal(target, rng)
            if np.log(rng.random()) <= beta * (s_z - w_state):
                state, w_state = z, s_z
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
