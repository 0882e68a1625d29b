from math import sqrt

import numpy as np
import pytest

from structprob import (
    AnnealConfig,
    Dataset,
    Hypercube,
    Instance,
    Params,
    SamplerFailure,
    Structure,
    TrainConfig,
    exact_argmax,
    gradient,
    joint_features,
    ln_count,
    load_model,
    make_toy_dataset,
    objective,
    predict_map,
    random_unit_theta,
    save_model,
    train,
)
from structprob.samplers import GibbsTarget
import structprob.training as training_mod

SPACE = Hypercube(4)


def label_only_dataset(labels):
    x = np.ones(1)
    return Dataset(tuple(Instance(x, Structure("hypercube", p)) for p in labels))


@pytest.fixture(scope="module")
def toy_data():
    return make_toy_dataset(SPACE, m=20, rng=np.random.default_rng(140))


# ---------------------------------------------------------------- objective

def test_objective_at_zero_is_log_count(toy_data):
    assert objective(np.zeros(4), toy_data, SPACE, lam=1.0) == pytest.approx(
        ln_count(SPACE), rel=1e-12
    )


def test_loss_term_is_nonnegative(toy_data):
    rng = np.random.default_rng(141)
    for _ in range(10):
        theta = random_unit_theta(4, rng, norm=float(rng.uniform(0.1, 2.0)))
        lam = float(rng.uniform(0.1, 2.0))
        obj = objective(theta, toy_data, SPACE, lam=lam)
        assert obj - lam * float(theta @ theta) >= -1e-12


def test_doubling_lambda_adds_quadratic_term(toy_data):
    theta = random_unit_theta(4, np.random.default_rng(142), norm=0.8)
    lam = 0.7
    low = objective(theta, toy_data, SPACE, lam=lam)
    high = objective(theta, toy_data, SPACE, lam=2 * lam)
    assert high - low == pytest.approx(lam * float(theta @ theta), rel=1e-10)


def test_objective_convexity(toy_data):
    rng = np.random.default_rng(143)
    for _ in range(10):
        a = random_unit_theta(4, rng, norm=1.5)
        b = random_unit_theta(4, rng, norm=1.5)
        t = float(rng.uniform())
        mix = objective(t * a + (1 - t) * b, toy_data, SPACE, lam=0.5)
        bound = t * objective(a, toy_data, SPACE, lam=0.5) + (1 - t) * objective(
            b, toy_data, SPACE, lam=0.5
        )
        assert mix <= bound + 1e-9


def test_objective_fpras_mode_tracks_exact(toy_data):
    theta = random_unit_theta(4, np.random.default_rng(160), norm=1.0)
    exact = objective(theta, toy_data, SPACE, lam=1.0)
    est = objective(
        theta, toy_data, SPACE, lam=1.0, partition_mode="fpras",
        epsilon=0.2, rng=np.random.default_rng(161),
    )
    # a (1 +- 0.2) multiplicative band on Z is a +-ln(1.2) band on ln Z
    assert abs(est - exact) <= np.log(1.2) + 1e-9
    with pytest.raises(ValueError):
        objective(theta, toy_data, SPACE, lam=1.0, partition_mode="bogus")


# ----------------------------------------------------------------- gradient

def test_gradient_zero_when_labels_cover_space():
    # with every structure appearing once, the empirical feature mean equals
    # the uniform expectation, so theta = 0 is stationary
    labels = [y.payload for y in SPACE.enumerate()]
    data = label_only_dataset(labels)
    g = gradient(np.zeros(4), data, SPACE, lam=1.0)
    assert np.allclose(g, 0.0, atol=1e-12)


def test_gradient_matches_finite_differences(toy_data):
    theta = random_unit_theta(4, np.random.default_rng(144), norm=0.9)
    g = gradient(theta, toy_data, SPACE, lam=0.8)
    h = 1e-4
    for j in range(4):
        bump = np.zeros(4)
        bump[j] = h
        fd = (
            objective(theta + bump, toy_data, SPACE, lam=0.8)
            - objective(theta - bump, toy_data, SPACE, lam=0.8)
        ) / (2 * h)
        assert abs(fd - g[j]) <= 1e-5 * max(1.0, abs(g[j]))


def test_mcmc_gradient_close_to_exact(toy_data):
    theta = random_unit_theta(4, np.random.default_rng(145), norm=0.7)
    exact = gradient(theta, toy_data, SPACE, lam=1.0)
    rng = np.random.default_rng(146)
    approx = gradient(
        theta, toy_data, SPACE, lam=1.0, mode="mcmc",
        mcmc_epsilon=0.05, mcmc_delta=0.05, rng=rng,
    )
    dir_rng = np.random.default_rng(147)
    violations = sum(
        abs(float((approx - exact) @ random_unit_theta(4, dir_rng))) > 0.05
        for _ in range(20)
    )
    assert violations <= 1


# ----------------------------------------------------------------- training

def test_train_exact_mode(toy_data):
    config = TrainConfig(lam=1.0, max_iters=40)
    params, trace = train(toy_data, SPACE, config, rng=np.random.default_rng(148))
    objs = trace.objectives()
    assert np.all(np.diff(objs) <= 1e-12)
    radius = sqrt(ln_count(SPACE) / 1.0)
    for row in trace.rows:
        assert row.theta_norm <= radius + 1e-12
    assert params.theta_norm <= radius + 1e-12
    # strictly better than the start
    assert objs[-1] < objs[0]


def test_train_large_lambda_keeps_theta_in_unit_ball(toy_data):
    lam = ln_count(SPACE)  # lam >= ln|Y| forces radius <= 1
    config = TrainConfig(lam=lam, max_iters=30)
    params, _ = train(toy_data, SPACE, config, rng=np.random.default_rng(149))
    assert params.theta_norm <= 1.0 + 1e-12


def test_train_mcmc_mode_tracks_exact(toy_data):
    exact_cfg = TrainConfig(lam=1.0, max_iters=25)
    mcmc_cfg = TrainConfig(lam=1.0, max_iters=25, gradient_mode="mcmc")
    exact_params, _ = train(toy_data, SPACE, exact_cfg, rng=np.random.default_rng(150))
    mcmc_params, _ = train(toy_data, SPACE, mcmc_cfg, rng=np.random.default_rng(150))
    assert np.linalg.norm(exact_params.theta - mcmc_params.theta) <= 0.1


def test_train_retries_failed_gradient_once(toy_data, monkeypatch):
    calls = {"n": 0}
    real = training_mod.gradient

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise SamplerFailure("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(training_mod, "gradient", flaky)
    config = TrainConfig(lam=1.0, max_iters=3)
    params, trace = train(toy_data, SPACE, config, rng=np.random.default_rng(151))
    assert len(trace.rows) == 3
    assert calls["n"] == 4  # one retry plus one call per remaining iteration

    def always_fail(*args, **kwargs):
        raise SamplerFailure("injected failure")

    monkeypatch.setattr(training_mod, "gradient", always_fail)
    with pytest.raises(SamplerFailure):
        train(toy_data, SPACE, config, rng=np.random.default_rng(152))


def test_predict_map_refuses_a_missing_rng():
    params = Params(np.zeros(4))
    with pytest.raises(ValueError, match="predict_map needs an explicit rng"):
        predict_map(SPACE, None, params, AnnealConfig())


def test_train_mcmc_mode_refuses_a_missing_rng(toy_data):
    config = TrainConfig(lam=1.0, max_iters=2, gradient_mode="mcmc")
    with pytest.raises(ValueError, match="train in mcmc mode needs an explicit rng"):
        train(toy_data, SPACE, config)
    # exact mode draws nothing and needs no stream
    train(toy_data, SPACE, TrainConfig(lam=1.0, max_iters=2))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lam=0.0)
    with pytest.raises(ValueError):
        TrainConfig(gradient_mode="sgd")
    with pytest.raises(ValueError):
        TrainConfig(projection_radius=-1.0)


def test_trace_csv(tmp_path, toy_data):
    config = TrainConfig(lam=1.0, max_iters=5)
    _, trace = train(toy_data, SPACE, config, rng=np.random.default_rng(153))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,grad_norm,theta_norm,wall_time"
    assert len(lines) == 6
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs, reverse=True)


# --------------------------------------------------------------- prediction

def test_predict_map_recovers_planted_argmax():
    planted = Structure("hypercube", (1, 1, 1, 1))
    theta = 8.0 * joint_features(None, planted, SPACE)  # margin 2 over runner-up
    params = Params(theta)
    target = GibbsTarget(SPACE, params, beta=1.0)
    best = exact_argmax(target)
    assert best == planted
    hits = 0
    for seed in range(100):
        got = predict_map(SPACE, None, params, AnnealConfig(), np.random.default_rng(seed))
        hits += got == best
    assert hits >= 99


def test_predict_map_zero_theta_returns_member():
    params = Params(np.zeros(4))
    y = predict_map(SPACE, None, params, AnnealConfig(), np.random.default_rng(154))
    assert SPACE.contains(y)


def test_predict_map_beats_uniform_draw_on_average():
    theta = random_unit_theta(4, np.random.default_rng(155), norm=1.0)
    params = Params(theta)
    target = GibbsTarget(SPACE, params, beta=1.0)
    rng = np.random.default_rng(156)
    predicted, uniform = 0.0, 0.0
    for _ in range(100):
        y = predict_map(SPACE, None, params, AnnealConfig(steps_per_rung=10), rng)
        predicted += target.score(y)
        uniform += target.score(SPACE.sample_uniform(rng))
    assert predicted > uniform


def test_anneal_ladder_geometric():
    ladder = AnnealConfig(rungs=8, beta_max=10.0).ladder()
    assert len(ladder) == 8
    assert ladder[0] == 1.0
    assert ladder[-1] == pytest.approx(10.0)
    ratios = [b / a for a, b in zip(ladder, ladder[1:])]
    assert np.allclose(ratios, ratios[0])
    assert AnnealConfig(rungs=1).ladder() == (10.0,)


def test_predict_map_deterministic():
    theta = random_unit_theta(4, np.random.default_rng(157))
    params = Params(theta)
    a = predict_map(SPACE, None, params, AnnealConfig(), np.random.default_rng(7))
    b = predict_map(SPACE, None, params, AnnealConfig(), np.random.default_rng(7))
    assert a == b


# ------------------------------------------------------------- serialization

def test_model_round_trip(tmp_path, toy_data):
    config = TrainConfig(lam=1.0, max_iters=10)
    params, _ = train(toy_data, SPACE, config, rng=np.random.default_rng(158))
    path = tmp_path / "model.json"
    save_model(path, params, SPACE, feature_mode="outer", seed=158)
    loaded, space, doc = load_model(path)
    assert space == SPACE
    assert np.allclose(loaded.theta, params.theta)
    assert loaded.lam == params.lam
    assert loaded.norm_budget == params.norm_budget
    assert doc["seed"] == 158


def test_make_toy_dataset_deterministic():
    a = make_toy_dataset(SPACE, m=6, rng=np.random.default_rng(159))
    b = make_toy_dataset(SPACE, m=6, rng=np.random.default_rng(159))
    assert [i.y for i in a.instances] == [i.y for i in b.instances]
    assert all(SPACE.contains(i.y) for i in a.instances)
