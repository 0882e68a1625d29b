"""The per-space label matrix and the exact paths built on it.

The references here form every joint feature vector with ``joint_features``,
one structure at a time, and never touch a label or score table.  Each
exact path is also run on an untabled copy of the space (``TABLE_CAP``
patched to 0), where the label matrix is built afresh for every call.
"""

import copy

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
    TrainConfig,
    ZeroInput,
    build_schedule,
    estimate_gradient,
    exact_argmax,
    exact_distribution,
    exact_gradient,
    exact_partition,
    gradient,
    hoeffding_sample_size,
    joint_features,
    objective,
    oracle_ratio_moments,
    oracle_ratio_range,
    random_unit_theta,
    train,
)
from structprob.cli import main
from structprob.partition import EXACT
from structprob.samplers import GibbsTarget
from structprob.spaces import Structure

SPACES = [
    Hypercube(4),
    Permutations(4),
    Subtrees(RootedTree((0, 0, 0, 1, 1, 2, 2))),
    CyclicPermutations(5),
]
X_DIM = 3

# Every space the benchmark defines, then the smallest of each kind and two
# extreme tree shapes: a path and a star.
TABLE_SPACES = [
    Hypercube(12), Permutations(6), CyclicPermutations(7),
    Subtrees(RootedTree((0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3))),
    Hypercube(13), Permutations(7), CyclicPermutations(8),
    Subtrees(RootedTree((0,) * 12 + (1, 1))),
    Hypercube(5), Hypercube(6), Permutations(4), CyclicPermutations(5),
    Subtrees(RootedTree((0, 0, 0, 1, 1, 2, 2))),
    Hypercube(1), Permutations(1), CyclicPermutations(3),
    Subtrees(RootedTree((0, 0, 1, 2, 3, 4, 5, 6))),
    Subtrees(RootedTree((0,) * 9)),
]


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


@pytest.mark.parametrize("mode", ["exact", "mcmc"])
@pytest.mark.parametrize("tabled", [True, False], ids=["tabled", "untabled"])
def test_train_builds_one_layout_and_makes_one_pass_per_iteration(
        mode, tabled, monkeypatch):
    space = Hypercube(4)
    data = real_input_dataset(space, seed=306)  # 5 unique inputs
    if not tabled:
        space = untabled_copy(space, monkeypatch)
    monkeypatch.setattr(training_mod, "_BLOCK_ENTRIES", 2 * space.count())
    calls = {"layouts": 0, "passes": 0, "blocks": 0}
    steps = []  # (theta, gradient) per gradient call
    layout, blocks, grad = (training_mod._exact_data, training_mod._exact_blocks,
                            training_mod.gradient)

    def counted_layout(*args):
        calls["layouts"] += 1
        return layout(*args)

    def counted_blocks(*args):
        calls["passes"] += 1
        for block in blocks(*args):
            calls["blocks"] += 1
            yield block

    def recorded_gradient(theta, *args, **kwargs):
        g = grad(theta, *args, **kwargs)
        steps.append((theta, g))
        return g

    monkeypatch.setattr(training_mod, "_exact_data", counted_layout)
    monkeypatch.setattr(training_mod, "_exact_blocks", counted_blocks)
    monkeypatch.setattr(training_mod, "gradient", recorded_gradient)
    config = TrainConfig(lam=0.5, max_iters=4, gradient_mode=mode, tolerance=0.0,
                         mcmc_epsilon=0.5, mcmc_delta=0.5)
    _, trace = train(data, space, config, rng=np.random.default_rng(307))
    assert len(trace.rows) == len(steps) == 4
    assert calls == {"layouts": 1, "passes": 4, "blocks": 12}
    for row, (theta, g) in zip(trace.rows, steps):
        assert row.objective == objective(theta, data, space, config.lam)
        if mode == "exact":
            g = gradient(theta, data, space, config.lam)
        assert row.grad_norm == float(np.linalg.norm(g))


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
    real = Hypercube.enumerate_payloads

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Hypercube, "enumerate_payloads", counting)
    space = Hypercube(5)
    rng = np.random.default_rng(305)
    features = space.label_table.features
    for k in range(6):
        x = rng.normal(size=2) if k % 2 else None
        dim = space.feature_dim * (1 if x is None else 2)
        theta = random_unit_theta(dim, rng, norm=0.5 + 0.2 * k)
        target = GibbsTarget(space, Params(theta), beta=0.25 * k, x=x)
        assert target.table.labels.features is features
        exact_partition(target)
        exact_gradient(target)
        estimate_gradient(target.at_beta(1.0), 50, EXACT, rng)
        if x is not None:
            data = Dataset((Instance(x, target.table.labels.structures[k]),))
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


@pytest.mark.parametrize("space", TABLE_SPACES,
                         ids=lambda s: f"{s.kind}-{s.count()}")
def test_label_table_matches_the_per_structure_build(space):
    # one label_rows call on the payload matrix against enumerate() plus
    # one output_features call per structure: equal row for row, in order
    structures = tuple(space.enumerate())
    psi = np.stack([space.output_features(y) for y in structures])
    psi /= space.max_feature_norm()
    table = space.labels()
    assert table.payloads.shape[0] == len(structures) == space.count()
    assert np.array_equal(table.features, psi)
    assert table.structures == structures
    with pytest.raises(ValueError):
        table.payloads[0, 0] = 0


def test_tabled_partition_builds_no_structure(monkeypatch, tmp_path):
    built = {"n": 0}
    init = Structure.__init__

    def counting_init(self, *args, **kwargs):
        built["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Structure, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    common = ["--space", "permutations:5", "--theta-random", "1.5", "--seed", "3",
              "--eps", "0.5"]
    for mode in ("exact", "approximate"):
        assert main(["partition", "--mode", mode, "--out", f"{mode}.json"] + common) == 0
        assert built["n"] == 0, mode
    # the count sees structures that are built: a sample returns 7
    assert main(["sample", "--space", "permutations:5", "--theta-random", "1.5",
                 "--seed", "3", "--n", "7", "--out", "sample.json"]) == 0
    assert built["n"] == 7


def _permutation_data():
    """20 permutations:4 instances over 4 distinct inputs, and those inputs."""
    space = Permutations(4)
    rng = np.random.default_rng(308)
    xs = rng.normal(size=(4, X_DIM))
    structures = list(space.enumerate())
    data = Dataset(tuple(Instance(xs[k % 4], structures[int(y)])
                         for k, y in enumerate(rng.integers(0, 24, 20))))
    return space, data, xs


def test_mcmc_train_builds_its_layout_once(monkeypatch):
    space, data, xs = _permutation_data()
    calls = {"unique": 0, "joint": 0}
    gradients = []  # (theta, stream before the call, gradient) per iteration
    unique, grad = training_mod._unique_inputs, training_mod.gradient

    def counted_unique(*args):
        calls["unique"] += 1
        return unique(*args)

    def counted_joint(*args):
        calls["joint"] += 1
        return joint_features(*args)

    def recorded_gradient(theta, *args):
        stream = copy.deepcopy(args[6])
        g = grad(theta, *args)
        gradients.append((theta, stream, g))
        return g

    monkeypatch.setattr(training_mod, "_unique_inputs", counted_unique)
    monkeypatch.setattr(training_mod, "joint_features", counted_joint)
    monkeypatch.setattr(training_mod, "gradient", recorded_gradient)
    config = TrainConfig(lam=0.5, max_iters=5, gradient_mode="mcmc", tolerance=0.0,
                         mcmc_epsilon=0.3, mcmc_delta=0.3)
    train(data, space, config, rng=np.random.default_rng(309))
    assert len(gradients) == 5
    assert calls == {"unique": 1, "joint": 0}
    # against the per-iteration sum of per-instance joint features it replaced
    S = hoeffding_sample_size(1.0, 1.0, config.mcmc_epsilon, config.mcmc_delta)
    phis = np.stack([joint_features(inst.x, inst.y, space) for inst in data.instances])
    counts = np.bincount([k % 4 for k in range(20)])
    for theta, stream, g in gradients:
        params = Params(theta, lam=config.lam)
        expectation = sum(
            count * estimate_gradient(GibbsTarget(space, params, x=x), S, EXACT, stream).d
            for x, count in zip(xs, counts))
        want = 2.0 * config.lam * theta + (expectation - phis.sum(axis=0)) / data.m
        np.testing.assert_allclose(g, want, rtol=1e-12)


def test_mcmc_train_records_objectives_without_a_gradient_pass(monkeypatch):
    space, data, _ = _permutation_data()
    passes = []  # (theta, (objective, gradient)) of every exact pass
    exact_pass = training_mod._exact_pass

    def recorded_pass(theta, *args, **kwargs):
        result = exact_pass(theta, *args, **kwargs)
        passes.append((theta, result))
        return result

    monkeypatch.setattr(training_mod, "_exact_pass", recorded_pass)
    config = TrainConfig(lam=0.5, max_iters=5, gradient_mode="mcmc", tolerance=0.0,
                         mcmc_epsilon=0.3, mcmc_delta=0.3)
    _, trace = train(data, space, config, rng=np.random.default_rng(309))
    assert len(passes) == 5
    assert all(grad is None for _, (_, grad) in passes)  # no expectation term formed
    # each recorded objective is bit-identical to the one the shared
    # objective-and-gradient pass gives at the same theta
    layout = training_mod._exact_data(data, space)
    for (theta, _), recorded in zip(passes, trace.objectives()):
        assert exact_pass(theta, layout, config.lam)[0] == recorded
