import time
from math import exp, log

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from structprob import (
    CyclicPermutations,
    EpochBudgetExhausted,
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
from structprob.partition import (
    APPROXIMATE,
    EXACT,
    TPA_FAILURE,
    _check_tpa_work,
    _grid,
    _tpa_count,
    _tpa_l_bound,
    check_partition_work,
    check_runs,
    tpa_runs,
)
from structprob.samplers import (
    MAX_EXPECTED_PROPOSALS,
    GibbsTarget,
    _approx_batch_indices,
    expected_proposals,
)


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
    for norm in (float("inf"), float("nan"), 1e308):  # 3 * 1e308 overflows
        with pytest.raises(ValueError, match="not finite"):
            build_schedule(1.0, norm, p=3)
    with pytest.raises(ValueError, match="finite norm"):
        Params(np.full(4, 1e200))  # finite entries, infinite norm


def loop_schedule_betas(R, theta_norm, p):
    """The grid as a loop over j/q < 1.0, kept as the closed form's reference."""
    q = p * R * theta_norm
    if q <= 0.0:
        return (0.0, 1.0)
    betas = [0.0]
    j = 1
    while j / q < 1.0:
        betas.append(j / q)
        j += 1
    return tuple(betas) + (1.0,)


@settings(max_examples=300, deadline=None)
@given(
    theta_norm=st.one_of(
        st.floats(0.0, 500.0),
        st.integers(0, 500).map(float),
        st.integers(1, 1500).map(lambda k: k / 3.0),  # q right at an integer
        st.integers(1, 1500).map(lambda k: np.nextafter(k / 3.0, 0.0)),
        st.integers(1, 1500).map(lambda k: np.nextafter(k / 3.0, 1e9)),
    ),
    R=st.sampled_from([1.0, 0.7, 1.3]),
    p=st.integers(3, 8),
)
def test_closed_form_schedule_matches_the_loop(theta_norm, R, p):
    theta_norm = float(theta_norm)
    sched = build_schedule(R, theta_norm, p)
    assert sched.betas == loop_schedule_betas(R, theta_norm, p)


def test_grid_size_of_a_huge_norm_needs_no_loop():
    # far past 2^53 float(j) rounds, and the loop would run for ages
    for norm in (2.0**52, 2.0**53 + 2, 2.0**60, 1e20, 1e300):
        q, n = _grid(1.0, norm, 3)
        assert n / q < 1.0 and not (n + 1) / q < 1.0


# --------------------------------------------------------------- fixed sizes

def test_sample_size_values():
    assert sample_size(0.2, 8, 3) == 25321
    assert sample_size(0.5, 1, 3) == 507
    with pytest.raises(InvalidEpsilon):
        sample_size(1.0, 8, 3)
    with pytest.raises(InvalidEpsilon):
        sample_size(0.0, 8, 3)
    # epsilon**-2 overflows, or the product does: a typed error either way
    with pytest.raises(InvalidEpsilon, match="beyond the largest float"):
        sample_size(1e-200, 8, 3)
    with pytest.raises(InvalidEpsilon, match="beyond the largest float"):
        sample_size(1e-150, 10**20, 3)


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
    # epsilon**2 underflows to 0, or the size overflows: a typed error
    with pytest.raises(InvalidEpsilon, match="beyond the largest float"):
        hoeffding_sample_size(1.0, 1.0, 1e-200, 0.05)
    with pytest.raises(InvalidEpsilon, match="beyond the largest float"):
        hoeffding_sample_size(1.0, 1.0, 1e-154, 0.05)


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
    assert est.tpa.k == 0  # every score is s_max: no run steps below beta 1


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
    assert set(doc) == {"log_value", "epsilon", "mode", "tpa", "seed"}
    assert doc["seed"] == 105 and doc["mode"] == EXACT
    assert set(doc["tpa"]) == {"r", "k", "draws", "l_bound", "failure_bound"}
    assert doc["tpa"]["draws"] == est.tpa.r + est.tpa.k
    assert doc["tpa"]["failure_bound"] == TPA_FAILURE
    est = estimate_partition(target, 0.4, mode=APPROXIMATE, rng=np.random.default_rng(105),
                             seed=105)
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
    # an exact-mode (TPA) run already fails with probability at most
    # TPA_FAILURE, so one run meets any delta down to that
    assert required_runs(0.05, TPA_FAILURE) == 1
    assert required_runs(TPA_FAILURE, TPA_FAILURE) == 1
    assert required_runs(1e-9, TPA_FAILURE) == 498  # ceil(24 * ln 1e9)
    check_runs(1, 0.05, TPA_FAILURE)
    with pytest.raises(TooFewRuns, match="need at least 72 runs"):
        check_runs(1, 0.05)


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
    assert boosted.success_prob == 0.75


def test_boost_by_median_of_exact_runs():
    # each exact run fails with probability at most TPA_FAILURE: one run
    # meets delta = 0.05 and keeps its own success probability, several are
    # boosted to 1 - delta as in approximate mode
    target = unit_target(Hypercube(4), seed=119)
    runs = [estimate_partition(target, 0.3, rng=np.random.default_rng((120, s)))
            for s in range(3)]
    assert runs[0].success_prob == 1.0 - TPA_FAILURE
    assert boost_by_median(runs[:1], 0.05) == runs[0]
    boosted = boost_by_median(runs, 0.05)
    assert boosted.log_value == np.median([r.log_value for r in runs])
    assert boosted.success_prob == 0.95
    with pytest.raises(TooFewRuns):
        boost_by_median(runs[:1], 1e-9)


# ----------------------------------------------------------------- gradient

def test_estimate_gradient_uniform_target():
    space = Hypercube(2)
    target = GibbsTarget(space, Params(np.zeros(2), norm_budget=1.0), beta=1.0)
    S = hoeffding_sample_size(1.0, 1.0, 0.05, 0.01)
    est = estimate_gradient(target, S, EXACT, np.random.default_rng(106))
    # uniform expectation of psi is (1/2, 1/2); features divide by sqrt(2)
    expected = np.array([0.5, 0.5]) / np.sqrt(2.0)
    assert np.all(np.abs(est - expected) <= 0.05)
    assert np.linalg.norm(est) <= 1.0 + 1e-12


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
        violations += abs(float((est - grad) @ z)) > 0.05
    assert violations <= 1


def test_estimate_gradient_approximate_mode():
    space = Hypercube(4)
    target = unit_target(space, seed=110)
    grad = exact_gradient(target)
    est = estimate_gradient(
        target, 5000, APPROXIMATE, np.random.default_rng(111), eps_tv=0.001
    )
    assert np.linalg.norm(est - grad) <= 0.1
    with pytest.raises(ValueError):
        estimate_gradient(target, 10, APPROXIMATE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_gradient(target, 0, EXACT, np.random.default_rng(0))


@pytest.mark.parametrize("mode", [EXACT, APPROXIMATE])
def test_estimate_gradient_untabled_within_hoeffding_error(mode):
    # same check as above with the score table dropped, so draws come from
    # the uniform sampler and features from per-structure label rows
    space = Hypercube(4)
    target = unit_target(space, seed=112)
    grad = exact_gradient(target)
    target.__dict__["table"] = None
    S = hoeffding_sample_size(1.0, 1.0, 0.05, 0.05)
    est = estimate_gradient(target, S, mode, np.random.default_rng(113), eps_tv=0.001)
    rng = np.random.default_rng(114)
    violations = 0
    for _ in range(20):
        z = random_unit_theta(4, rng)
        violations += abs(float((est - grad) @ z)) > 0.05
    assert violations <= 1


def test_estimate_partition_refuses_hopeless_exact_runs_before_drawing():
    target = unit_target(Hypercube(6), seed=115, norm=40.0)
    rng = np.random.default_rng(116)
    state = rng.bit_generator.state
    with pytest.raises(EpochBudgetExhausted, match="proposals"):
        estimate_partition(target, 0.2, rng=rng)
    assert rng.bit_generator.state == state
    # a 6e6-step schedule is refused before its grid is built
    start = time.perf_counter()
    with pytest.raises(EpochBudgetExhausted, match="proposals"):
        estimate_partition(unit_target(Hypercube(6), seed=117, norm=2e6), 0.2, rng=rng)
    assert time.perf_counter() - start < 0.5
    # approximate mode: S draws of the mixing bound each, refused up front;
    # a draw expects min(1/delta_beta, steps + 1) = 5.1 proposals here
    target = unit_target(Hypercube(12), seed=118, norm=5.0)
    with pytest.raises(EpochBudgetExhausted, match=r"about \d\.\de\+\d+ proposals"):
        estimate_partition(target, 0.01, mode=APPROXIMATE, rng=rng)
    assert rng.bit_generator.state == state
    with pytest.raises(EpochBudgetExhausted, match=r"about 5\.1e\+07 proposals"):
        _approx_batch_indices(target, 1e-3, 10**7, rng)
    assert rng.bit_generator.state == state


# ------------------------------------------------------- TPA (exact mode)

def tpa_targets():
    return [unit_target(Hypercube(4), seed=180, norm=1.5),
            unit_target(Permutations(4), seed=181, norm=2.0),
            unit_target(CyclicPermutations(5), seed=182, norm=2.5)]


def exact_l(target):
    """L = ln|Y| + s_max - ln Z, the mean count of one TPA run."""
    return ln_count(target.space) + target.score_ceiling - exact_partition(target)


@pytest.mark.parametrize("which", range(3))
def test_tpa_counts_are_poisson_with_mean_r_times_l(which):
    # k of r runs is Poisson(r L): its mean over seeds within 4 standard
    # errors of r L, and its dispersion index inside the central 99.9% of
    # its chi-square law
    from scipy import stats

    target = tpa_targets()[which]
    L = exact_l(target)
    assert 0.0 < L <= _tpa_l_bound(target)
    r, seeds = 20, 400
    k = np.array([_tpa_count(target, r, np.random.default_rng((183, which, s)))
                  for s in range(seeds)])
    assert abs(k.mean() - r * L) <= 4.0 * np.sqrt(r * L / seeds)
    dispersion = ((k - k.mean()) ** 2).sum() / k.mean()
    assert stats.chi2.ppf(0.0005, seeds - 1) <= dispersion <= stats.chi2.ppf(0.9995, seeds - 1)


def test_tpa_sized_for_a_failure_bound_fails_no_more_often():
    # r sized by tpa_runs' rule for failure 0.05 (instead of TPA_FAILURE):
    # the estimates outside (1 +- eps) Z stay within the binomial 0.999
    # quantile
    from scipy import stats

    eps, failure, trials = 0.3, 0.05, 300
    t = log(1.0 + eps)
    failures = 0
    for which, target in enumerate(tpa_targets()):
        l_bound = _tpa_l_bound(target)
        r = int(np.ceil(2.0 * (l_bound + t / 3.0) * log(2.0 / failure) / t**2))
        assert r < tpa_runs(l_bound, eps)
        ln_z = exact_partition(target)
        for s in range(trials // 3):
            k = _tpa_count(target, r, np.random.default_rng((184, which, s)))
            log_value = ln_count(target.space) + target.score_ceiling - k / r
            failures += abs(exp(log_value - ln_z) - 1.0) > eps
    assert failures <= stats.binom.ppf(0.999, trials, failure)


def test_tpa_runs_values():
    t = log(1.3)
    assert tpa_runs(1.0, 0.3) == np.ceil(2.0 * (1.0 + t / 3.0) * log(2e8) / t**2)
    assert tpa_runs(2.0, 0.3) < tpa_runs(4.0, 0.3)
    with pytest.raises(InvalidEpsilon, match="beyond the largest float"):
        tpa_runs(1.0, 1e-200)
    with pytest.raises(InvalidEpsilon):
        tpa_runs(1.0, 1.5)


def test_tpa_prices_r_runs_of_l_bound_plus_one_draws():
    # refused at the price r*(L_bound + 1)/delta_1, not at l*S draws
    target = unit_target(Hypercube(6), seed=185, norm=2.0)
    r, l_bound = _check_tpa_work(target, 0.3, 1)
    assert (r, l_bound) == (tpa_runs(_tpa_l_bound(target), 0.3), _tpa_l_bound(target))
    runs = int(MAX_EXPECTED_PROPOSALS / (r * np.ceil(1 + l_bound) * expected_proposals(
        target, 1))) + 1
    check_partition_work(target, 0.3, runs=runs - 1)
    with pytest.raises(EpochBudgetExhausted, match=rf"{runs} partition estimates of "):
        check_partition_work(target, 0.3, runs=runs)


def test_tpa_estimate_reports_its_count():
    target = tpa_targets()[0]
    est = estimate_partition(target, 0.3, rng=np.random.default_rng(186))
    r, l_bound = _check_tpa_work(target, 0.3, 1)
    assert est.tpa.r == r and est.tpa.l_bound == l_bound
    assert est.log_value == ln_count(target.space) + target.score_ceiling - est.tpa.k / r
    assert est.schedule is None and est.ratios == ()
    # the same stream gives the same count
    again = estimate_partition(target, 0.3, rng=np.random.default_rng(186))
    assert again == est


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
