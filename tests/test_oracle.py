import tracemalloc
from math import exp, log

import numpy as np
import pytest

from structprob import (
    CapExceeded,
    CyclicPermutations,
    Dataset,
    Hypercube,
    Instance,
    InsufficientSamples,
    Params,
    Permutations,
    RootedTree,
    Structure,
    Subtrees,
    chi_square_gof,
    chi_square_two_sample,
    exact_argmax,
    exact_distribution,
    exact_gradient,
    exact_partition,
    gradient,
    hamiltonicity_via_partition,
    has_hamiltonian_cycle,
    joint_features,
    ln_count,
    objective,
    random_unit_theta,
)
from structprob.samplers import GibbsTarget


def unit_target(space, seed, norm=1.0, beta=1.0):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), norm)
    return GibbsTarget(space, Params(theta, norm_budget=norm), beta=beta)


# ------------------------------------------------------------ exact partition

def test_partition_zero_theta_is_log_count():
    for space in (Hypercube(5), Permutations(4), CyclicPermutations(4)):
        target = GibbsTarget(space, Params(np.zeros(space.feature_dim)), beta=1.0)
        assert exact_partition(target) == pytest.approx(ln_count(space), rel=1e-12)


def test_partition_two_state_closed_form():
    space = Hypercube(1)
    for t in (-1.3, 0.0, 0.7, 2.5):
        target = GibbsTarget(space, Params(np.array([t])), beta=1.0)
        assert exact_partition(target) == pytest.approx(log(1 + exp(t)), rel=1e-12)


def test_partition_beta_scaling_consistency():
    space = Hypercube(4)
    theta = random_unit_theta(4, np.random.default_rng(120), norm=1.5)
    beta = 0.37
    scaled = GibbsTarget(space, Params(beta * theta), beta=1.0)
    tempered = GibbsTarget(space, Params(theta), beta=beta)
    assert exact_partition(scaled) == pytest.approx(exact_partition(tempered), rel=1e-12)


def test_partition_cap():
    space = Hypercube(24)
    target = GibbsTarget(space, Params(np.zeros(24)), beta=1.0)
    # above ENUMERATION_CAP every exact path refuses before it allocates
    data = Dataset((Instance(np.ones(2), Structure("hypercube", (0,) * 24)),))
    calls = [
        lambda: exact_partition(target),
        lambda: exact_gradient(target),
        lambda: objective(np.zeros(48), data, space, 1.0),
        lambda: gradient(np.zeros(48), data, space, 1.0),
    ]
    for call in calls:
        tracemalloc.start()
        with pytest.raises(CapExceeded):
            call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1 << 20


# ------------------------------------------------------------- exact gradient

def test_gradient_zero_theta_is_feature_mean():
    space = Hypercube(3)
    target = GibbsTarget(space, Params(np.zeros(3)), beta=1.0)
    feats = np.stack([joint_features(None, y, space) for y in space.enumerate()])
    assert np.allclose(exact_gradient(target), feats.mean(axis=0))


def test_gradient_matches_finite_differences():
    space = Hypercube(4)
    target = unit_target(space, seed=121)
    theta = target.params.theta
    grad = exact_gradient(target)
    h = 1e-4
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = h
        up = exact_partition(GibbsTarget(space, Params(theta + bump), beta=1.0))
        down = exact_partition(GibbsTarget(space, Params(theta - bump), beta=1.0))
        fd = (up - down) / (2 * h)
        assert abs(fd - grad[j]) <= 1e-6 * max(1.0, abs(grad[j]))


def test_gradient_norm_bounded():
    for seed in range(122, 127):
        target = unit_target(Hypercube(5), seed=seed, norm=2.0)
        assert np.linalg.norm(exact_gradient(target)) <= 1.0 + 1e-12


# --------------------------------------------------------- exact distribution

def test_distribution_uniform_at_beta_zero():
    space = Permutations(3)
    target = GibbsTarget(space, Params(np.zeros(9)), beta=0.0)
    dist = exact_distribution(target)
    assert np.allclose(dist.probs, 1.0 / 6.0)
    assert abs(dist.probs.sum() - 1.0) < 1e-12


def test_distribution_normalizes_and_matches_argmax():
    target = unit_target(Hypercube(5), seed=127)
    dist = exact_distribution(target)
    assert abs(dist.probs.sum() - 1.0) < 1e-12
    assert dist.support[int(np.argmax(dist.probs))] == exact_argmax(target)


def test_argmax_tie_break_is_canonical_order():
    space = Hypercube(3)
    target = GibbsTarget(space, Params(np.zeros(3)), beta=1.0)
    assert exact_argmax(target) == Structure("hypercube", (0, 0, 0))


def test_argmax_recovers_planted_structure():
    space = Subtrees(RootedTree((0, 0, 0, 1)))
    planted = Structure("subtrees", (1, 1, 0, 1))
    theta = joint_features(None, planted, space)
    target = GibbsTarget(space, Params(theta), beta=1.0)
    assert exact_argmax(target) == planted


# -------------------------------------------------------------- hamiltonicity

def test_hamiltonicity_triangle_threshold_is_tight():
    assert hamiltonicity_via_partition([(0, 1), (1, 2), (0, 2)], 3)


def test_hamiltonicity_path_rejected():
    assert not hamiltonicity_via_partition([(0, 1), (1, 2)], 3)


def test_hamiltonicity_agrees_with_brute_force():
    rng = np.random.default_rng(128)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.55
        ]
        assert hamiltonicity_via_partition(edges, n) == has_hamiltonian_cycle(edges, n)


def test_hamiltonicity_rejects_bad_edges():
    with pytest.raises(ValueError):
        hamiltonicity_via_partition([(0, 0)], 4)
    with pytest.raises(ValueError):
        hamiltonicity_via_partition([(0, 9)], 4)


def test_brute_force_hamiltonicity_known_graphs():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    assert has_hamiltonian_cycle(k4, 4)
    star = [(0, i) for i in range(1, 5)]
    assert not has_hamiltonian_cycle(star, 5)
    cycle5 = [(i, (i + 1) % 5) for i in range(5)]
    assert has_hamiltonian_cycle(cycle5, 5)
    path4 = [(i, i + 1) for i in range(3)]
    assert not has_hamiltonian_cycle(path4, 4)


# ----------------------------------------------------------------- chi-square

def test_chi_square_calibration():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4)), beta=0.0)
    dist = exact_distribution(target)
    rng = np.random.default_rng(129)
    idx = rng.choice(len(dist.support), size=100_000, p=dist.probs)
    samples = [dist.support[i] for i in idx]
    res = chi_square_gof(samples, dist, 0.01)
    assert res.passed
    assert res.dof == 15


def test_chi_square_rejects_degenerate_samples():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4)), beta=0.0)
    dist = exact_distribution(target)
    samples = [dist.support[0]] * 10_000
    assert not chi_square_gof(samples, dist, 0.01).passed


def test_chi_square_pools_rare_cells():
    # skewed target: smallest cells fall below an expected count of 5 and
    # must be pooled rather than inflating the statistic
    target = unit_target(Hypercube(6), seed=130, norm=2.0)
    dist = exact_distribution(target)
    n = 600
    assert dist.probs.min() * n < 5.0  # the setup really has rare cells
    rng = np.random.default_rng(131)
    idx = rng.choice(len(dist.support), size=n, p=dist.probs)
    res = chi_square_gof([dist.support[i] for i in idx], dist, 0.01)
    assert res.dof < len(dist.support) - 1
    assert res.passed


def test_chi_square_error_cases():
    space = Hypercube(3)
    target = GibbsTarget(space, Params(np.zeros(3)), beta=0.0)
    dist = exact_distribution(target)
    with pytest.raises(InsufficientSamples):
        chi_square_gof([], dist, 0.01)
    foreign = Structure("hypercube", (1, 1, 1, 1))
    with pytest.raises(InsufficientSamples):
        chi_square_gof([foreign] * 100, dist, 0.01)
    with pytest.raises(InsufficientSamples):
        chi_square_gof([dist.support[0]] * 2, dist, 0.01)
    with pytest.raises(ValueError):
        chi_square_gof([dist.support[0]] * 100, dist, significance=2.0)


def test_chi_square_two_sample_behaviour():
    space = Hypercube(4)
    hot = unit_target(space, seed=132, norm=2.0)
    cold = GibbsTarget(space, Params(np.zeros(4)), beta=0.0)
    hot_dist = exact_distribution(hot)
    cold_dist = exact_distribution(cold)
    rng = np.random.default_rng(133)
    a = [hot_dist.support[i]
         for i in rng.choice(16, size=30_000, p=hot_dist.probs)]
    b = [hot_dist.support[i]
         for i in rng.choice(16, size=30_000, p=hot_dist.probs)]
    c = [cold_dist.support[i]
         for i in rng.choice(16, size=30_000, p=cold_dist.probs)]
    assert chi_square_two_sample(a, b, 0.01).passed
    assert not chi_square_two_sample(a, c, 0.01).passed
    with pytest.raises(InsufficientSamples):
        chi_square_two_sample([], a, 0.01)
