import json
from math import log, sqrt

import numpy as np
import pytest

from structprob import (
    Dataset,
    DimensionMismatch,
    Hypercube,
    Instance,
    Params,
    Permutations,
    RootedTree,
    Structure,
    Subtrees,
    ZeroInput,
    effective_norm_budget,
    joint_features,
    load_dataset,
    norm_budget_from_space,
    random_unit_theta,
    save_dataset,
    score,
)


def test_label_only_all_ones_has_unit_norm():
    space = Hypercube(4)
    y = Structure("hypercube", (1, 1, 1, 1))
    phi = joint_features(None, y, space)
    assert phi.tolist() == [0.5, 0.5, 0.5, 0.5]
    assert np.linalg.norm(phi) == pytest.approx(1.0)


def test_joint_feature_norm_never_exceeds_one():
    rng = np.random.default_rng(31)
    spaces = [Hypercube(5), Permutations(4), Subtrees(RootedTree((0, 0, 0, 1, 1)))]
    for space in spaces:
        for y in space.structures(space.sample_uniform(rng, 100)):
            x = rng.normal(size=3)
            assert np.linalg.norm(joint_features(x, y, space)) <= 1.0 + 1e-12
            assert np.linalg.norm(joint_features(None, y, space)) <= 1.0 + 1e-12


def test_outer_product_example():
    space = Hypercube(1)
    y = Structure("hypercube", (1,))
    phi = joint_features(np.array([1.0, 0.0]), y, space)
    assert phi.tolist() == [1.0, 0.0]


def test_zero_input_rejected():
    space = Hypercube(2)
    y = Structure("hypercube", (1, 0))
    with pytest.raises(ZeroInput):
        joint_features(np.zeros(3), y, space)


def test_score_basics():
    rng = np.random.default_rng(32)
    phi = rng.normal(size=6)
    assert score(np.zeros(6), phi) == 0.0
    theta = rng.normal(size=6)
    assert score(2.5 * theta, phi) == pytest.approx(2.5 * score(theta, phi))
    unit = phi / np.linalg.norm(phi)
    assert score(unit, unit) == pytest.approx(1.0)
    with pytest.raises(DimensionMismatch):
        score(np.zeros(5), phi)


def test_score_difference_bounded_by_2br():
    # |<phi(y) - phi(y'), theta>| <= 2 B R over random structure pairs
    space = Hypercube(6)
    rng = np.random.default_rng(33)
    B = 1.5
    theta = random_unit_theta(space.feature_dim, rng, norm=B)
    worst = 0.0
    for _ in range(1000):
        y, z = space.structures(space.sample_uniform(rng, 2))
        s_y = score(theta, joint_features(None, y, space))
        s_z = score(theta, joint_features(None, z, space))
        worst = max(worst, abs(s_y - s_z))
    assert worst <= 2.0 * B * 1.0 + 1e-12


def test_norm_budget_values():
    space = Hypercube(8)
    ln_y = 8 * log(2)
    assert norm_budget_from_space(ln_y, space) == pytest.approx(1.0)
    assert norm_budget_from_space(2.0, space) == pytest.approx(sqrt(ln_y / 2))
    assert norm_budget_from_space(2.0, space) == pytest.approx(1.6651, abs=1e-4)
    assert norm_budget_from_space(4.0 * ln_y, space) == pytest.approx(0.5)


def test_effective_budget_min_and_floor():
    space = Hypercube(8)
    ln_y = 8 * log(2)
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(34), norm=0.5)
    # user budget below the cap wins
    assert effective_norm_budget(Params(theta, lam=1.0, norm_budget=1.0), space) == 1.0
    # cap wins when the user budget is larger
    cap = sqrt(ln_y / 2.0)
    assert effective_norm_budget(Params(theta, lam=2.0, norm_budget=9.0), space) == (
        pytest.approx(cap)
    )
    # floored at ||theta|| so sampler envelopes stay valid
    big = random_unit_theta(space.feature_dim, np.random.default_rng(35), norm=5.0)
    assert effective_norm_budget(Params(big, lam=100.0), space) == pytest.approx(5.0)


def test_label_only_features_injective():
    for space in (Hypercube(4), Subtrees(RootedTree((0, 0, 1, 1, 0)))):
        seen = {}
        for y in space.enumerate():
            key = joint_features(None, y, space).tobytes()
            assert key not in seen
            seen[key] = y


def test_params_validation():
    with pytest.raises(ValueError):
        Params(np.array([np.inf]))
    with pytest.raises(ValueError):
        Params(np.zeros(2), lam=0.0)
    with pytest.raises(ValueError):
        Params(np.zeros(2), norm_budget=-1.0)


def test_dataset_round_trip(tmp_path):
    space = Hypercube(3)
    rng = np.random.default_rng(36)
    instances = tuple(
        Instance(rng.normal(size=2), y)
        for y in space.structures(space.sample_uniform(rng, 5))
    )
    data = Dataset(instances)
    path = tmp_path / "data.json"
    save_dataset(path, data, space)
    loaded, loaded_space = load_dataset(path)
    assert loaded_space == space
    assert loaded.m == 5
    for a, b in zip(loaded.instances, data.instances):
        assert a.y == b.y
        assert np.allclose(a.x, b.x)


def test_dataset_rejects_foreign_labels(tmp_path):
    doc = {
        "space": {"kind": "hypercube", "d": 2},
        "instances": [{"x": [1.0], "y": [1, 1, 1]}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_dataset(path)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(())
    space = Hypercube(2)
    y = Structure("hypercube", (0, 1))
    with pytest.raises(ValueError):
        Dataset((Instance(np.ones(2), y), Instance(np.ones(3), y)))
