"""Workload definitions for the structprob benchmark.

A workload is an endless, seed-determined sequence of *cycles*; a cycle is
one pass over the workload's request templates, in a fixed order, with fresh
inputs (parameter directions, datasets, CLI seeds) for every request.  The
timed loop always runs whole cycles, so every run has the same mix of
request kinds whatever the seed.

A request is one or more in-process ``structprob.cli.main`` calls.  Inputs
are files written before the request runs; outputs are files (and captured
stdout) checked only after the timed phase, against reference values this
module computes with its own vectorised code.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import logsumexp

from structprob.spaces import (
    CyclicPermutations,
    Hypercube,
    Permutations,
    RootedTree,
    Subtrees,
    structure_from_json,
)

WORKLOADS = ("fpras-tabled", "fpras-untabled", "train-predict")

# Subtree spaces: a 13-vertex tree with 729 root subtrees (under TABLE_CAP =
# 4096) and a 14-vertex tree with 5120 (over it).  No tree with fewer than
# 14 vertices has more than 4096 root subtrees.
SUBTREE_TABLED = (0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3)
SUBTREE_UNTABLED = (0,) * 12 + (1, 1)
# 7 vertices, 22 root subtrees: small enough to train on exactly.
SUBTREE_TRAIN = (0, 0, 0, 1, 1, 2, 2)

# Input feature dimension of the train-predict datasets.
X_DIM = 3


@dataclass(frozen=True)
class PartitionTemplate:
    space: str  # "hypercube:12", "subtrees:tabled", ...
    norm: float
    mode: str
    eps: float

    @property
    def kind(self) -> str:
        return f"partition-{self.mode}"


@dataclass(frozen=True)
class TrainTemplate:
    space: str
    m_train: int
    m_test: int
    iters: int
    lam: float = 1.0
    kind: str = "train-predict"


def _partition_templates(spaces, norms, mode, eps):
    return [PartitionTemplate(s, n, mode, eps) for s in spaces for n in norms]


# fpras-tabled: every space has |Y| <= TABLE_CAP, so each ratio builds one
# score table and draws from the vectorised kernels.  Norms reach 3.4, where
# schedules are l = ceil(3 * ||theta||) = 11 ratios long.  A fixed quarter of
# the requests use approximate mode, at norms <= 2.
#
# Peak memory is set by the widest batch-CFTP window, a power of two at or
# above the deepest certificate of a chunk of 8192 chains.  At norm 3 the
# deepest certificate of a run ranged from 223 to 292 across seeds, so the
# window flipped between 256 and 512; at norm 3.4 it ranged from 361 to 390,
# inside one window size.
FPRAS_TABLED = (
    _partition_templates(
        ("hypercube:12", "permutations:6", "cycles:7", "subtrees:tabled"),
        (1.1, 2.1, 3.4), "exact", 0.3)
    + [PartitionTemplate("hypercube:12", 1.1, "approximate", 0.3),
       PartitionTemplate("permutations:6", 1.9, "approximate", 0.3),
       PartitionTemplate("subtrees:tabled", 1.9, "approximate", 0.3)]
)

# fpras-untabled: every space has TABLE_CAP < |Y| <= ENUMERATION_CAP, so each
# draw is a scalar CFTP run over exact uniform proposals.  The subtree
# sampler costs about 15x the others per proposal, so its requests take a
# coarser eps to stay well under a second.
FPRAS_UNTABLED = (
    _partition_templates(
        ("hypercube:13", "permutations:7", "cycles:8"), (0.75, 0.95, 1.15), "exact", 0.5)
    + _partition_templates(("subtrees:untabled",), (0.75, 0.95, 1.15), "exact", 0.9)
)

# train-predict: exact-gradient training on small tabled spaces (every
# objective and gradient term rebuilds a score table), then annealed MAP
# prediction on held-out inputs with the saved model.
TRAIN_PREDICT = [
    TrainTemplate("hypercube:5", 16, 8, 10),
    TrainTemplate("permutations:4", 16, 8, 10),
    TrainTemplate("cycles:5", 16, 8, 10),
    TrainTemplate("subtrees:train", 16, 8, 10),
    TrainTemplate("hypercube:6", 16, 8, 10),
]

TEMPLATES = {
    "fpras-tabled": FPRAS_TABLED,
    "fpras-untabled": FPRAS_UNTABLED,
    "train-predict": TRAIN_PREDICT,
}

# One small request per request kind, run untimed before the timed phase so
# that lazy imports and first-call costs are paid in set-up.
WARMUPS = {
    "fpras-tabled": [PartitionTemplate("hypercube:12", 0.3, "exact", 0.9),
                     PartitionTemplate("hypercube:12", 0.3, "approximate", 0.9)],
    "fpras-untabled": [PartitionTemplate("hypercube:13", 0.3, "exact", 0.9)],
    "train-predict": [TrainTemplate("hypercube:5", 4, 2, 2)],
}


def build_space(spec: str):
    kind, _, arg = spec.partition(":")
    if kind == "hypercube":
        return Hypercube(int(arg))
    if kind == "permutations":
        return Permutations(int(arg))
    if kind == "cycles":
        return CyclicPermutations(int(arg))
    parents = {"tabled": SUBTREE_TABLED, "untabled": SUBTREE_UNTABLED,
               "train": SUBTREE_TRAIN}[arg]
    return Subtrees(RootedTree(parents))


@dataclass
class Request:
    """One closed-loop request: CLI calls plus what its check needs."""

    rid: str
    kind: str
    argvs: list[list[str]]
    artifacts: list[str]  # output files, relative to the run directory
    check: dict = field(default_factory=dict)


class InputFactory:
    """Writes request inputs under ``input_dir``; deterministic in the seed."""

    def __init__(self, workload: str, seed: int, input_dir: str):
        if workload not in TEMPLATES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self._space_args: dict[str, str] = {}
        os.makedirs(input_dir, exist_ok=True)

    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(
            (self.seed, WORKLOADS.index(self.workload)) + key)

    def _space_arg(self, spec: str) -> str:
        """CLI --space value; subtree specs point at a tree file."""
        if not spec.startswith("subtrees:"):
            return spec
        if spec not in self._space_args:
            tree = build_space(spec).tree
            path = os.path.join(self.input_dir, f"tree-{spec.split(':')[1]}.txt")
            with open(path, "w") as fh:
                fh.write(f"{tree.vertex_count} " + " ".join(map(str, tree.parent)) + "\n")
            self._space_args[spec] = f"subtrees:{path}"
        return self._space_args[spec]

    def cycle(self, index: int) -> list[Request]:
        """Requests of cycle ``index``, in template order."""
        return [
            self._request(t, f"c{index:04d}r{j:02d}", self._rng(index, j))
            for j, t in enumerate(TEMPLATES[self.workload])
        ]

    def warmups(self) -> list[Request]:
        return [
            self._request(t, f"warm{j}", self._rng(1 << 30, j))
            for j, t in enumerate(WARMUPS[self.workload])
        ]

    def _request(self, template, rid: str, rng: np.random.Generator) -> Request:
        if isinstance(template, PartitionTemplate):
            return self._partition_request(template, rid, rng)
        return self._train_request(template, rid, rng)

    def _partition_request(self, t: PartitionTemplate, rid, rng) -> Request:
        space = build_space(t.space)
        theta = _centred_direction(space, rng) * t.norm
        theta_path = os.path.join(self.input_dir, f"{rid}.theta.json")
        with open(theta_path, "w") as fh:
            json.dump({"theta": theta.tolist()}, fh)
        out = f"{rid}.partition.json"
        argv = [
            "partition", "--seed", str(_cli_seed(rng)),
            "--space", self._space_arg(t.space),
            "--theta-file", theta_path,
            "--norm-budget", repr(t.norm),
            "--mode", t.mode, "--eps", repr(t.eps),
            "--out", out,
        ]
        return Request(rid, t.kind, [argv], [out],
                       {"space": t.space, "theta": theta, "eps": t.eps, "mode": t.mode})

    def _train_request(self, t: TrainTemplate, rid, rng) -> Request:
        space = build_space(t.space)
        structures, psi = space_table(t.space)
        # planted parameters of norm 2 generate the labels
        planted = _direction(X_DIM * space.feature_dim, rng) * 2.0
        xs = rng.normal(size=(t.m_train + t.m_test, X_DIM))
        scores = _joint_scores(planted, xs, psi)
        probs = np.exp(scores - logsumexp(scores, axis=1, keepdims=True))
        labels = [structures[rng.choice(len(structures), p=p)] for p in probs]
        paths = {}
        for part, rows in (("train", range(t.m_train)),
                           ("test", range(t.m_train, t.m_train + t.m_test))):
            paths[part] = os.path.join(self.input_dir, f"{rid}.{part}.json")
            doc = {
                "space": space.to_descriptor(),
                "instances": [{"x": xs[i].tolist(), "y": labels[i].to_json()}
                              for i in rows],
            }
            with open(paths[part], "w") as fh:
                json.dump(doc, fh)
        model = f"{rid}.model.json"
        trace = f"{rid}.trace.csv"
        preds = f"{rid}.predictions.jsonl"
        seed = str(_cli_seed(rng))
        train_argv = [
            "train", "--seed", seed, "--data", paths["train"], "--mode", "exact",
            "--iters", str(t.iters), "--lambda", repr(t.lam),
            "--model-out", model, "--trace-out", trace,
        ]
        predict_argv = [
            "predict", "--seed", seed, "--model", model,
            "--data", paths["test"], "--out", preds,
        ]
        check = {
            "space": t.space, "lam": t.lam,
            "x_train": xs[: t.m_train],
            "y_train": labels[: t.m_train],
            "x_test": xs[t.m_train:],
        }
        return Request(rid, t.kind, [train_argv, predict_argv],
                       [model, trace, preds], check)


def _direction(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _centred_direction(space, rng: np.random.Generator) -> np.ndarray:
    """Random unit direction orthogonal to the mean label feature E[psi(y)]
    under the uniform distribution on the space.

    The CFTP certificate fires with probability exp(-beta*B) * E[exp(beta*s)]
    per proposal, and the mean score E[s] is the direction's projection on
    E[psi].  Unconstrained, that projection changes one request's cost by up
    to 3x at ||theta|| = 3 and dominates the run-to-run spread; with it
    removed, each template's cost is set by its norm and space.
    """
    mean = np.ones(space.feature_dim)
    if isinstance(space, Subtrees):
        # P(v in Y) = prod over non-root u on the root path of g(u)/(1+g(u))
        parent, g = space.tree.parent, space.g
        for v in range(1, space.tree.vertex_count):
            u = v
            while u != 0:
                mean[v] *= g[u] / (1 + g[u])
                u = parent[u]
    mean /= np.linalg.norm(mean)
    v = rng.normal(size=space.feature_dim)
    v -= (v @ mean) * mean
    return v / np.linalg.norm(v)


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


# ---------------------------------------------------------------------------
# reference values (computed after the timed phase)


@lru_cache(maxsize=None)
def space_table(spec: str):
    """(structures, label features psi(y) / max ||psi||) over the whole space."""
    space = build_space(spec)
    structures = list(space.enumerate())
    psi = np.stack([space.output_features(y) for y in structures])
    return structures, psi / space.max_feature_norm()


def _joint_scores(theta: np.ndarray, xs: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<phi(x, y), theta> for every row x of xs and every row of psi.

    phi(x, y) is the flattened outer product x (x) psi(y) / ||x||, so the
    score is psi(y) . (Theta^T x) / ||x|| with Theta = theta as (|x|, |psi|).
    """
    big = theta.reshape(xs.shape[1], psi.shape[1])
    proj = (xs @ big) / np.linalg.norm(xs, axis=1, keepdims=True)
    return proj @ psi.T


def reference_objective(theta, spec, lam, xs, ys) -> float:
    """lam ||theta||^2 + mean_i [ln Z(theta | x_i) - <phi(x_i, y_i), theta>]."""
    structures, psi = space_table(spec)
    index = {y.payload: i for i, y in enumerate(structures)}
    scores = _joint_scores(theta, xs, psi)
    observed = scores[np.arange(len(ys)), [index[y.payload] for y in ys]]
    return lam * float(theta @ theta) + float(
        np.mean(logsumexp(scores, axis=1) - observed))


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_request(req: Request, run_dir: str, stdouts: list[str]) -> str | None:
    """None when every output of ``req`` is correct, else the first reason."""
    try:
        if req.kind.startswith("partition"):
            return _check_partition(req, run_dir)
        return _check_train_predict(req, run_dir, stdouts)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _check_partition(req: Request, run_dir: str) -> str | None:
    c = req.check
    with open(os.path.join(run_dir, req.artifacts[0])) as fh:
        doc = json.load(fh)
    _, psi = space_table(c["space"])
    ln_z = float(logsumexp(psi @ c["theta"]))
    if doc["mode"] != c["mode"] or doc["epsilon"] != c["eps"]:
        return f"echoed mode/eps {doc['mode']}/{doc['epsilon']} differ from the request"
    err = abs(math.exp(doc["log_value"] - ln_z) - 1.0)
    if not err <= c["eps"]:
        return f"relative error {err:.4g} exceeds eps {c['eps']}"
    return None


def _check_train_predict(req: Request, run_dir: str, stdouts: list[str]) -> str | None:
    c = req.check
    spec, lam = c["space"], c["lam"]
    report = json.loads(stdouts[0])
    model_path, trace_path, pred_path = (os.path.join(run_dir, a) for a in req.artifacts)
    with open(model_path) as fh:
        model = json.load(fh)
    theta = np.asarray(model["theta"], dtype=float)
    with open(trace_path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    final = report["final_objective"]
    if not math.isfinite(final):
        return f"final_objective {final} is not finite"
    if report["iterations"] != len(rows) or float(rows[-1][1]) != final:
        return "final_objective or iterations disagree with the trace"
    if not _close(report["theta_norm"], float(np.linalg.norm(theta))):
        return "reported theta_norm differs from the saved theta"
    radius = model["radius"]
    if not np.linalg.norm(theta) <= radius * (1 + 1e-12):
        return f"||theta|| {np.linalg.norm(theta):.6g} exceeds radius {radius:.6g}"
    at_zero = reference_objective(np.zeros_like(theta), spec, lam,
                                  c["x_train"], c["y_train"])
    if not final <= at_zero + 1e-9 * max(1.0, abs(at_zero)):
        return f"final_objective {final!r} exceeds the objective at zero {at_zero!r}"
    # ``final_objective`` is the objective at the last iterate recorded in
    # the trace; the saved theta is one projected gradient step past it.
    # With step eta <= 1/L, that step lowers the objective by at least 0 and
    # at most eta * ||g||^2, both read from the trace's last row.
    saved = reference_objective(theta, spec, lam, c["x_train"], c["y_train"])
    last_t, last_grad = int(rows[-1][0]), float(rows[-1][2])
    eta = (1.0 / (2.0 * lam + 1.0)) / (1.0 + last_t)
    drop = final - saved
    slack = 1e-9 * max(1.0, abs(final))
    if not -slack <= drop <= eta * last_grad**2 + slack:
        return (f"objective at the saved theta {saved!r} is not within one "
                f"step of final_objective {final!r}")
    structures, psi = space_table(spec)
    space = build_space(spec)
    index = {y.payload: i for i, y in enumerate(structures)}
    with open(pred_path) as fh:
        preds = [json.loads(line) for line in fh if line.strip()]
    if len(preds) != len(c["x_test"]):
        return f"{len(preds)} predictions for {len(c['x_test'])} inputs"
    scores = _joint_scores(theta, c["x_test"], psi)
    for i, rec in enumerate(preds):
        y = structure_from_json(space.kind, rec["structure"])
        if not space.contains(y):
            return f"prediction {i} is not a member of {spec}"
        if not _close(rec["score"], float(scores[i, index[y.payload]])):
            return f"prediction {i} score {rec['score']!r} differs from the recomputed score"
    return None

