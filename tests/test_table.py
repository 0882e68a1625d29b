"""The per-space label matrix and the exact paths built on it.

The references here form every joint feature vector with ``joint_features``,
one structure at a time, and never touch a label or score table.  Each
exact path is also run on an untabled copy of the space (``TABLE_CAP``
patched to 0), where the label matrix is built afresh for every call.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

import structprob.spaces as spaces_mod
import structprob.training as training_mod
from structprob import (
    CyclicPermutations,
    Dataset,
    Hypercube,
    Instance,
    Params,
    Permutations,
    RootedTree,
    Subtrees,
    ZeroInput,
    build_schedule,
    estimate_gradient,
    exact_argmax,
    exact_distribution,
    exact_gradient,
    exact_partition,
    gradient,
    joint_features,
    objective,
    oracle_ratio_moments,
    oracle_ratio_range,
    random_unit_theta,
)
from structprob.partition import EXACT
from structprob.samplers import GibbsTarget

SPACES = [
    Hypercube(4),
    Permutations(4),
    Subtrees(RootedTree((0, 0, 0, 1, 1, 2, 2))),
    CyclicPermutations(5),
]
X_DIM = 3


def reference_objective_and_gradient(theta, data, space, lam):
    """Per-instance loop over every structure's joint feature vector."""
    structures = list(space.enumerate())
    loss = 0.0
    terms = np.zeros_like(theta)
    for inst in data.instances:
        feats = np.stack([joint_features(inst.x, y, space) for y in structures])
        scores = feats @ theta
        ln_z = logsumexp(scores)
        observed = joint_features(inst.x, inst.y, space)
        loss += ln_z - observed @ theta
        terms += feats.T @ np.exp(scores - ln_z) - observed
    return (lam * theta @ theta + loss / data.m,
            2.0 * lam * theta + terms / data.m)


def real_input_dataset(space, seed):
    """Gaussian inputs, several of them repeated with different labels."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(5, X_DIM))
    rows = [0, 1, 2, 0, 3, 1, 4, 0, 2, 0]
    structures = list(space.enumerate())
    labels = rng.integers(0, len(structures), size=len(rows))
    return Dataset(tuple(
        Instance(xs[r], structures[k]) for r, k in zip(rows, labels)))


def untabled_copy(space, monkeypatch):
    """An equal space with no cached label table (TABLE_CAP patched to 0)."""
    assert space.label_table is not None  # cache the original's first
    monkeypatch.setattr(spaces_mod, "TABLE_CAP", 0)
    fresh = type(space)(*(getattr(space, f) for f in space.__dataclass_fields__))
    assert fresh.label_table is None
    return fresh


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_batched_exact_pass_matches_joint_feature_loop(space, monkeypatch):
    data = real_input_dataset(space, seed=300)
    rng = np.random.default_rng(301)
    thetas = [(lam, random_unit_theta(X_DIM * space.feature_dim, rng, norm=1.7))
              for lam in (0.3, 1.0)]
    one_block = [(objective(theta, data, space, lam), gradient(theta, data, space, lam))
                 for lam, theta in thetas]
    untabled = untabled_copy(space, monkeypatch)
    # one unique input per block: the blocked pass must match the one-block pass
    for blocks, sp in ((None, space), (None, untabled), (1, space), (1, untabled)):
        if blocks is not None:
            monkeypatch.setattr(training_mod, "_BLOCK_ENTRIES", blocks)
        for (lam, theta), (obj, grad) in zip(thetas, one_block):
            want_obj, want_grad = reference_objective_and_gradient(theta, data, sp, lam)
            got_obj = objective(theta, data, sp, lam)
            got_grad = gradient(theta, data, sp, lam)
            np.testing.assert_allclose(got_obj, want_obj, rtol=1e-12)
            np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12)
            np.testing.assert_allclose(got_obj, obj, rtol=1e-12)
            np.testing.assert_allclose(got_grad, grad, rtol=1e-12)


@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.kind)
def test_batched_pass_matches_untabled_fallback(space, monkeypatch):
    # the untabled copy scores a fresh label matrix: every oracle on it must
    # match both the cached table and a per-structure joint-feature loop
    data = real_input_dataset(space, seed=302)
    rng = np.random.default_rng(303)
    theta = random_unit_theta(X_DIM * space.feature_dim, rng, norm=1.2)
    x = rng.normal(size=X_DIM)
    tabled = (objective(theta, data, space, 0.5), gradient(theta, data, space, 0.5))
    fresh = untabled_copy(space, monkeypatch)
    untabled = (objective(theta, data, fresh, 0.5), gradient(theta, data, fresh, 0.5))
    np.testing.assert_allclose(tabled[0], untabled[0], rtol=1e-12)
    np.testing.assert_allclose(tabled[1], untabled[1], rtol=1e-12)

    structures = list(fresh.enumerate())
    feats = np.stack([joint_features(x, y, fresh) for y in structures])
    scores = feats @ theta
    schedule = build_schedule(1.0, float(np.linalg.norm(theta)), p=3)
    for beta in (0.4, 1.0):
        target = GibbsTarget(fresh, Params(theta), beta=beta, x=x)
        assert target.table is None
        ln_z = logsumexp(beta * scores)
        probs = np.exp(beta * scores - ln_z)
        np.testing.assert_allclose(exact_partition(target), ln_z, rtol=1e-12)
        np.testing.assert_allclose(exact_gradient(target), feats.T @ probs, rtol=1e-12)
        dist = exact_distribution(target)
        assert list(dist.support) == structures
        np.testing.assert_allclose(dist.probs, probs, rtol=1e-12)
        assert exact_argmax(target) == structures[int(np.argmax(scores))]
    for i in range(1, schedule.l + 1):
        b_prev, b_cur = schedule.betas[i - 1], schedule.betas[i]
        f = np.exp((b_prev - b_cur) * scores)
        w = np.exp(b_cur * scores - logsumexp(b_cur * scores))
        rho = w @ f
        got = oracle_ratio_moments(schedule, i, target)
        np.testing.assert_allclose(got, (rho, (w @ f**2 - rho**2) / rho**2),
                                   rtol=1e-12)
        np.testing.assert_allclose(oracle_ratio_range(schedule, i, target),
                                   (f.min(), f.max()), rtol=1e-12)


def test_target_table_scores_and_expectation_match_joint_features():
    space = Permutations(3)
    rng = np.random.default_rng(304)
    x = rng.normal(size=X_DIM)
    theta = random_unit_theta(X_DIM * space.feature_dim, rng, norm=2.0)
    target = GibbsTarget(space, Params(theta), beta=1.0, x=x)
    feats = np.stack([joint_features(x, y, space) for y in space.enumerate()])
    np.testing.assert_allclose(target.table.scores, feats @ theta, rtol=1e-12)
    probs = np.exp(feats @ theta - logsumexp(feats @ theta))
    np.testing.assert_allclose(exact_gradient(target), feats.T @ probs, rtol=1e-12)


def test_space_is_enumerated_once_across_targets(monkeypatch):
    calls = {"n": 0}
    real = Hypercube.enumerate

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Hypercube, "enumerate", counting)
    space = Hypercube(5)
    rng = np.random.default_rng(305)
    features = space.label_table.features
    for k in range(6):
        x = rng.normal(size=2) if k % 2 else None
        dim = space.feature_dim * (1 if x is None else 2)
        theta = random_unit_theta(dim, rng, norm=0.5 + 0.2 * k)
        target = GibbsTarget(space, Params(theta), beta=0.25 * k, x=x)
        assert target.table.features is features
        exact_partition(target)
        exact_gradient(target)
        estimate_gradient(target.at_beta(1.0), 50, EXACT, rng)
        if x is not None:
            data = Dataset((Instance(x, target.table.structures[k]),))
            objective(theta, data, space, 1.0)
            gradient(theta, data, space, 1.0)
    assert calls["n"] == 1
    # the table lives on the instance: an equal space builds its own
    assert Hypercube(5).label_table is not space.label_table
    assert calls["n"] == 2


def test_label_table_is_read_only():
    features = Hypercube(3).label_table.features
    with pytest.raises(ValueError):
        features[0, 0] = 1.0


def test_zero_norm_input_still_raises():
    space = Hypercube(3)
    theta = np.ones(2 * space.feature_dim)
    target = GibbsTarget(space, Params(theta), beta=1.0, x=np.zeros(2))
    with pytest.raises(ZeroInput):
        target.table
    with pytest.raises(ZeroInput):
        exact_partition(target)
    y = next(iter(space.enumerate()))
    data = Dataset((Instance(np.ones(2), y), Instance(np.zeros(2), y)))
    with pytest.raises(ZeroInput):
        objective(theta, data, space, 1.0)
    with pytest.raises(ZeroInput):
        gradient(theta, data, space, 1.0)
