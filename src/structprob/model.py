"""Exponential-family model pieces: joint features, scores, norm budgets.

Feature vectors are plain ``numpy.ndarray``; the joint feature map is the
flattened outer product of the input features with the output indicators,
scaled so that every joint feature vector has l2 norm at most 1.  With that
normalization the feature-norm bound R is identically 1 throughout the
library, and all sampler and estimator bounds reduce to functions of the
parameter-norm budget B.

The outer product is one admissible choice of joint map for these models,
not the only one; see README for the discussion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import log, sqrt

import numpy as np

from .errors import DimensionMismatch, ZeroInput
from .spaces import OutputSpace, Structure, space_from_descriptor, structure_from_json

# The joint feature map below guarantees ||phi(x, y)|| <= R for every input.
FEATURE_NORM_BOUND = 1.0


@dataclass(frozen=True)
class Params:
    """Parameter vector with regularization weight and norm budget.

    ``norm_budget`` of None means "derive it from the space": the budget
    used by samplers and estimators is then sqrt(ln|Y| / lam), the radius
    the regularized optimum can never leave.
    """

    theta: np.ndarray
    lam: float = 1.0
    norm_budget: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        with np.errstate(over="ignore"):  # finite entries can overflow the norm
            norm = self.theta_norm  # not finite either with an inf or nan entry
        if not np.isfinite(norm):
            raise ValueError(f"theta must be finite with a finite norm, got {norm}")
        if not self.lam > 0:
            raise ValueError("lam must be positive")
        if self.norm_budget is not None and not self.norm_budget > 0:
            raise ValueError("norm_budget must be positive")

    @property
    def theta_norm(self) -> float:
        return float(np.linalg.norm(self.theta))


@dataclass(frozen=True)
class Instance:
    x: np.ndarray
    y: Structure

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


@dataclass(frozen=True)
class Dataset:
    instances: tuple[Instance, ...]

    def __post_init__(self):
        object.__setattr__(self, "instances", tuple(self.instances))
        if not self.instances:
            raise ValueError("dataset must contain at least one instance")
        dims = {inst.x.shape for inst in self.instances}
        if len(dims) != 1:
            raise ValueError("all instances must share the input dimension")

    @property
    def m(self) -> int:
        return len(self.instances)


def joint_features(
    x: np.ndarray | None,
    y: Structure,
    space: OutputSpace,
    label_only: bool = False,
) -> np.ndarray:
    """Normalized joint feature vector phi(x, y).

    phi is the flattened outer product x (x) psi(y), divided by
    ||x|| * max_y ||psi(y)|| so that ||phi|| <= 1.  In label-only mode the
    input is the constant scalar 1 and phi reduces to psi(y) / max||psi||.
    """
    psi = space.output_features(y)
    if label_only or x is None:
        return psi / space.max_feature_norm()
    x = np.asarray(x, dtype=float)
    x_norm = float(np.linalg.norm(x))
    if x_norm == 0.0:
        raise ZeroInput("input feature vector has zero norm")
    scale = x_norm * space.max_feature_norm()
    return np.outer(x, psi).reshape(-1) / scale


def score(theta: np.ndarray, phi: np.ndarray) -> float:
    """Inner product <phi, theta>; |score| <= B*R by Cauchy-Schwarz."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if theta.shape != phi.shape:
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, features have shape {phi.shape}"
        )
    return float(np.dot(theta, phi))


def ln_count(space: OutputSpace) -> float:
    """Natural log of |Y|, computed from the exact big-integer count."""
    return log(space.count())


def norm_budget_from_space(lam: float, space: OutputSpace) -> float:
    """Radius sqrt(ln|Y| / lam) that always contains the regularized optimum."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return sqrt(ln_count(space) / lam)


def effective_norm_budget(params: Params, space: OutputSpace) -> float:
    """Budget consumed by sampler and estimator bounds.

    The cap sqrt(ln|Y|/lam) applies on top of any user budget.  The result
    is floored at ||theta||: a budget below the actual parameter norm would
    invalidate the coalescence and rejection envelopes, so a caller holding
    such a theta gets the smallest bound that is still sound.
    """
    cap = norm_budget_from_space(params.lam, space)
    budget = cap if params.norm_budget is None else min(params.norm_budget, cap)
    return max(budget, params.theta_norm)


def random_unit_theta(dim: int, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Uniformly random direction scaled to the requested norm."""
    v = rng.normal(size=dim)
    return v * (norm / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# dataset serialization


def dataset_to_json(data: Dataset, space: OutputSpace) -> dict:
    return {
        "space": space.to_descriptor(),
        "instances": [
            {"x": inst.x.tolist(), "y": inst.y.to_json()} for inst in data.instances
        ],
    }


def dataset_from_json(doc: dict) -> tuple[Dataset, OutputSpace]:
    space = space_from_descriptor(doc["space"])
    instances = [
        Instance(np.asarray(rec["x"], dtype=float), structure_from_json(space.kind, rec["y"]))
        for rec in doc["instances"]
    ]
    for inst in instances:
        if not space.contains(inst.y):
            raise ValueError(f"label {inst.y} is not a member of the declared space")
    return Dataset(tuple(instances)), space


def load_dataset(path) -> tuple[Dataset, OutputSpace]:
    with open(path) as fh:
        return dataset_from_json(json.load(fh))


def save_dataset(path, data: Dataset, space: OutputSpace) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_json(data, space), fh, indent=2)
        fh.write("\n")
