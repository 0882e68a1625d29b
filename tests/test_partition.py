from math import exp, log

import numpy as np
import pytest

from structprob import (
    Hypercube,
    InvalidEpsilon,
    Params,
    PartitionEstimate,
    Permutations,
    TooFewRuns,
    boost_by_median,
    build_schedule,
    estimate_gradient,
    estimate_partition,
    estimate_ratio,
    exact_gradient,
    exact_partition,
    hoeffding_sample_size,
    ln_count,
    oracle_ratio_moments,
    random_unit_theta,
    required_runs,
    sample_size,
    tv_target,
)
from structprob.partition import APPROXIMATE, EXACT
from structprob.samplers import GibbsTarget


def unit_target(space, seed, norm=1.0, beta=1.0):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), norm)
    return GibbsTarget(space, Params(theta, norm_budget=norm), beta=beta)


# ----------------------------------------------------------------- schedule

def test_build_schedule_non_integer_product():
    sched = build_schedule(1.0, 2.5, p=3)  # q = 7.5
    expected = [0.0] + [j / 7.5 for j in range(1, 8)] + [1.0]
    assert sched.l == 8
    assert np.allclose(sched.betas, expected)
    assert sched.betas[-2] == pytest.approx(14 / 15)


def test_build_schedule_zero_theta():
    sched = build_schedule(1.0, 0.0, p=3)
    assert sched.betas == (0.0, 1.0)
    assert sched.l == 1


def test_build_schedule_integer_product():
    sched = build_schedule(1.0, 1.0, p=3)
    assert np.allclose(sched.betas, [0.0, 1 / 3, 2 / 3, 1.0])


def test_schedule_gap_invariant():
    rng = np.random.default_rng(90)
    for _ in range(50):
        norm = float(rng.uniform(0.01, 5.0))
        p = int(rng.integers(3, 7))
        sched = build_schedule(1.0, norm, p)
        gaps = np.diff(sched.betas)
        assert gaps.max() * norm <= 1.0 / p + 1e-12
        assert sched.betas[0] == 0.0 and sched.betas[-1] == 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(1.0, 1.0, p=2)


# --------------------------------------------------------------- fixed sizes

def test_sample_size_values():
    assert sample_size(0.2, 8, 3) == 25321
    assert sample_size(0.5, 1, 3) == 507
    with pytest.raises(InvalidEpsilon):
        sample_size(1.0, 8, 3)
    with pytest.raises(InvalidEpsilon):
        sample_size(0.0, 8, 3)


def test_sample_size_linear_in_l():
    raw = lambda l: 65.0 * 0.1**-2 * l * exp(2.0 / 3.0)
    assert raw(16) == pytest.approx(2 * raw(8))
    assert sample_size(0.1, 16, 3) in (2 * sample_size(0.1, 8, 3) - 1,
                                       2 * sample_size(0.1, 8, 3))


def test_tv_target_values():
    assert tv_target(0.2, 8, 3) == pytest.approx(0.0025671, abs=1e-7)
    assert tv_target(0.4, 1, 1000) == pytest.approx(0.4 / 5.0, rel=1e-2)
    assert tv_target(0.1, 8, 3) == pytest.approx(0.5 * tv_target(0.2, 8, 3))


def test_hoeffding_sample_size_values():
    assert hoeffding_sample_size(1.0, 1.0, 0.1, 0.05) == 738
    assert hoeffding_sample_size(1.0, 1.0, 1.0, 2.0 / exp(2.0)) == 4
    assert hoeffding_sample_size(1.0, 1.0, 0.05, 0.05) == 2952
    # quadrupling epsilon divides the pre-ceiling size by 16
    coarse = 2.0 * log(2.0 / 0.05) / 0.4**2
    fine = 2.0 * log(2.0 / 0.05) / 0.1**2
    assert fine == pytest.approx(16 * coarse)
    with pytest.raises(ValueError):
        hoeffding_sample_size(1.0, 1.0, 0.1, 1.5)


# ------------------------------------------------------------ ratio oracles

def test_oracle_ratio_is_unbiased_for_true_ratio():
    space = Hypercube(4)
    target = unit_target(space, seed=91, norm=1.7)
    sched = build_schedule(1.0, 1.7, p=3)
    for i in range(1, sched.l + 1):
        rho, _ = oracle_ratio_moments(sched, i, target)
        lnz_prev = exact_partition(target.at_beta(sched.betas[i - 1]))
        lnz_cur = exact_partition(target.at_beta(sched.betas[i]))
        assert rho == pytest.approx(exp(lnz_prev - lnz_cur), rel=1e-12)


def test_oracle_ratio_band_and_variance_bound():
    rng = np.random.default_rng(92)
    for trial in range(5):
        space = Hypercube(6)
        norm = float(rng.uniform(0.3, 2.0))
        target = unit_target(space, seed=300 + trial, norm=norm)
        sched = build_schedule(1.0, norm, p=3)
        for i in range(1, sched.l + 1):
            rho, rel_var = oracle_ratio_moments(sched, i, target)
            assert exp(1.0 / 3.0) - 1.0 <= rho <= exp(-1.0 / 3.0) + 1.0
            assert rel_var <= exp(2.0 / 3.0)


def test_telescoping_identity():
    space = Hypercube(6)
    target = unit_target(space, seed=93, norm=1.3)
    sched = build_schedule(1.0, 1.3, p=3)
    log_prod = sum(
        log(oracle_ratio_moments(sched, i, target)[0])
        for i in range(1, sched.l + 1)
    )
    assert ln_count(space) - log_prod == pytest.approx(
        exact_partition(target), abs=1e-10
    )


# ------------------------------------------------------------- ratio sampling

def test_estimate_ratio_theta_zero_is_exactly_one():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4), norm_budget=1.0), beta=1.0)
    sched = build_schedule(1.0, 0.0, p=3)
    est = estimate_ratio(1, sched, target, 200, EXACT, np.random.default_rng(94))
    assert est.mean == 1.0


def test_estimate_ratio_values_in_band():
    space = Hypercube(4)
    target = unit_target(space, seed=95)
    sched = build_schedule(1.0, 1.0, p=3)
    est = estimate_ratio(2, sched, target, 500, EXACT, np.random.default_rng(96))
    assert exp(-1.0 / 3.0) <= est.mean <= exp(1.0 / 3.0)


def test_estimate_ratio_close_to_oracle():
    space = Hypercube(4)
    target = unit_target(space, seed=97)
    sched = build_schedule(1.0, 1.0, p=3)
    S = 10_000
    for i in range(1, sched.l + 1):
        est = estimate_ratio(i, sched, target, S, EXACT, np.random.default_rng(98 + i))
        rho, _ = oracle_ratio_moments(sched, i, target)
        assert abs(est.mean - rho) <= 3.0 * np.sqrt(exp(2.0 / 3.0) / S)


def test_estimate_ratio_validation():
    space = Hypercube(4)
    target = unit_target(space, seed=99)
    sched = build_schedule(1.0, 1.0, p=3)
    with pytest.raises(ValueError):
        estimate_ratio(0, sched, target, 10, EXACT, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_ratio(1, sched, target, 10, "bogus", np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_ratio(1, sched, target, 10, APPROXIMATE, np.random.default_rng(0))


# ---------------------------------------------------------------- partition

def test_estimate_partition_theta_zero_exact():
    space = Permutations(4)
    target = GibbsTarget(space, Params(np.zeros(16), norm_budget=1.0), beta=1.0)
    est = estimate_partition(target, 0.5, rng=np.random.default_rng(100))
    assert est.log_value == ln_count(space)
    assert est.schedule.betas == (0.0, 1.0)


def test_estimate_partition_validation():
    space = Hypercube(4)
    target = unit_target(space, seed=101)
    with pytest.raises(InvalidEpsilon):
        estimate_partition(target, 1.5, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_partition(target.at_beta(0.5), 0.2, rng=np.random.default_rng(0))


@pytest.mark.parametrize("mode", [EXACT, APPROXIMATE])
def test_estimate_partition_within_band_most_runs(mode):
    space = Hypercube(8)
    target = unit_target(space, seed=102)
    ln_z = exact_partition(target)
    inside = 0
    for run in range(20):
        est = estimate_partition(
            target, 0.2, p=3, mode=mode, rng=np.random.default_rng((103, run))
        )
        inside += abs(exp(est.log_value - ln_z) - 1.0) <= 0.2
    assert inside >= 11  # one-sided binomial rejection of success < 3/4 at 1%


def test_partition_estimate_serialization():
    space = Hypercube(4)
    target = unit_target(space, seed=104)
    est = estimate_partition(target, 0.4, rng=np.random.default_rng(105), seed=105)
    doc = est.to_json()
    assert set(doc) == {"log_value", "epsilon", "mode", "p", "betas", "per_ratio", "seed"}
    assert doc["seed"] == 105
    assert len(doc["per_ratio"]) == est.schedule.l
    assert doc["per_ratio"][0]["S"] == est.ratios[0].sample_size


# ------------------------------------------------------------- median boost

def test_required_runs():
    assert required_runs(0.25) == 1
    assert required_runs(0.5) == 1
    assert required_runs(0.01) == 111  # ceil(24 * ln 100)
    with pytest.raises(ValueError):
        required_runs(0.0)


def _fake_run(value):
    sched = build_schedule(1.0, 0.0, p=3)
    return PartitionEstimate(value, 0.2, EXACT, sched, ())


def test_boost_by_median():
    runs = [_fake_run(3.0) for _ in range(5)]
    assert boost_by_median(runs, 0.25).log_value == 3.0
    single = boost_by_median([_fake_run(7.0)], 0.25)
    assert single.log_value == 7.0 and single.success_prob == 0.75
    with pytest.raises(TooFewRuns):
        boost_by_median(runs, 0.01)
    # 13 of 25 runs inside a band puts the median inside it
    inside = [_fake_run(v) for v in np.linspace(4.9, 5.1, 13)]
    outside = [_fake_run(v) for v in [0.0] * 6 + [10.0] * 6]
    boosted = boost_by_median(inside + outside, 0.25)
    assert 4.9 <= boosted.log_value <= 5.1


# ----------------------------------------------------------------- gradient

def test_estimate_gradient_uniform_target():
    space = Hypercube(2)
    target = GibbsTarget(space, Params(np.zeros(2), norm_budget=1.0), beta=1.0)
    S = hoeffding_sample_size(1.0, 1.0, 0.05, 0.01)
    est = estimate_gradient(target, S, EXACT, np.random.default_rng(106))
    # uniform expectation of psi is (1/2, 1/2); features divide by sqrt(2)
    expected = np.array([0.5, 0.5]) / np.sqrt(2.0)
    assert np.all(np.abs(est.d - expected) <= 0.05)
    assert np.linalg.norm(est.d) <= 1.0 + 1e-12


def test_estimate_gradient_matches_oracle_directions():
    space = Hypercube(4)
    target = unit_target(space, seed=107)
    grad = exact_gradient(target)
    S = hoeffding_sample_size(1.0, 1.0, 0.05, 0.05)
    est = estimate_gradient(target, S, EXACT, np.random.default_rng(108))
    rng = np.random.default_rng(109)
    violations = 0
    for _ in range(20):
        z = random_unit_theta(4, rng)
        violations += abs(float((est.d - grad) @ z)) > 0.05
    assert violations <= 1


def test_estimate_gradient_approximate_mode():
    space = Hypercube(4)
    target = unit_target(space, seed=110)
    grad = exact_gradient(target)
    est = estimate_gradient(
        target, 5000, APPROXIMATE, np.random.default_rng(111), eps_tv=0.001
    )
    assert np.linalg.norm(est.d - grad) <= 0.1
    with pytest.raises(ValueError):
        estimate_gradient(target, 10, APPROXIMATE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_gradient(target, 0, EXACT, np.random.default_rng(0))


# ------------------------------------------------------------ missing rng

def test_estimators_refuse_a_missing_rng():
    target = unit_target(Hypercube(4), seed=90)
    schedule = build_schedule(1.0, target.params.theta_norm, 3)
    with pytest.raises(ValueError, match="estimate_partition needs an explicit rng"):
        estimate_partition(target, 0.3)
    with pytest.raises(ValueError, match="estimate_ratio needs an explicit rng"):
        estimate_ratio(1, schedule, target, 10)
    with pytest.raises(ValueError, match="estimate_gradient needs an explicit rng"):
        estimate_gradient(target, 10)
