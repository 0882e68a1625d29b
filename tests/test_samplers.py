from math import exp

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structprob import (
    EpochBudgetExhausted,
    Hypercube,
    Params,
    Permutations,
    SamplerFailure,
    SamplerReport,
    chain_state_indices,
    chi_square_gof,
    chi_square_two_sample,
    exact_argmax,
    exact_distribution,
    meta_step,
    mixing_time_bound,
    random_unit_theta,
    sample_approx,
    sample_approx_batch,
    sample_exact_cftp,
    sample_exact_cftp_batch,
    sample_rejection,
    sample_rejection_batch,
)
from structprob.samplers import MAX_MIXING_STEPS, GibbsTarget

from helpers import empirical_tv, multinomial_tv_noise


def unit_target(space, seed, norm=1.0, beta=1.0):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), norm)
    return GibbsTarget(space, Params(theta, norm_budget=norm), beta=beta)


# -------------------------------------------------------------- single steps

def test_meta_step_beta_zero_outputs_are_uniform():
    # acceptance probability is identically 1, so one step from any state
    # reproduces the uniform proposal distribution
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4)), beta=0.0)
    dist = exact_distribution(target)
    current = next(iter(space.enumerate()))
    rng = np.random.default_rng(41)
    outputs = [meta_step(current, target, rng) for _ in range(50_000)]
    assert chi_square_gof(outputs, dist, 0.01).passed


def test_meta_step_always_accepts_uphill():
    # from the lowest-scoring state every proposal has ratio >= 1, so the
    # step always moves to the proposal: outputs are exactly uniform
    space = Hypercube(4)
    target = unit_target(space, seed=42)
    scores = target.table.scores
    current = target.table.structures[int(np.argmin(scores))]
    uniform = exact_distribution(target.at_beta(0.0))
    rng = np.random.default_rng(43)
    outputs = [meta_step(current, target, rng) for _ in range(50_000)]
    assert chi_square_gof(outputs, uniform, 0.01).passed


def test_acceptance_floor():
    # min(1, ratio) >= exp(-2*beta*B*R) over every ordered state pair
    space = Hypercube(6)
    for beta in (0.25, 1.0):
        target = unit_target(space, seed=44, norm=1.0, beta=beta)
        w = beta * target.table.scores
        ratios = np.exp(w[None, :] - w[:, None])
        acceptance = np.minimum(1.0, ratios)
        floor = exp(-2.0 * beta * target.score_bound)
        assert acceptance.min() >= floor - 1e-12


# ------------------------------------------------------------- mixing bound

def test_mixing_time_bound_values():
    assert mixing_time_bound(1.0, 1.0, 0.01) == 32
    assert mixing_time_bound(1.0, 1.0, 1.0) == 0
    assert mixing_time_bound(0.0, 1.0, 0.01) == 1
    assert mixing_time_bound(0.0, 0.0, 0.5) == 1


def test_mixing_time_bound_monotone():
    prev = 0
    for eps in (0.5, 0.1, 0.01, 0.001):
        t = mixing_time_bound(1.0, 1.0, eps)
        assert t >= prev
        prev = t
    assert mixing_time_bound(2.0, 1.0, 0.01) > mixing_time_bound(1.0, 1.0, 0.01)


@given(
    B=st.floats(0.0, 40.0),
    extra=st.floats(0.0, 5.0),
    eps=st.floats(1e-9, 1.0, exclude_max=True),
)
def test_mixing_time_bound_finite_and_monotone_in_budget(B, extra, eps):
    def bound(b):
        try:
            return mixing_time_bound(b, 1.0, eps)
        except SamplerFailure:
            return None  # refused: above MAX_MIXING_STEPS

    low, high = bound(B), bound(B + extra)
    if low is None:
        assert high is None  # a larger budget never needs fewer steps
        return
    assert isinstance(low, int) and 1 <= low <= MAX_MIXING_STEPS
    assert high is None or low <= high


def test_mixing_time_bound_refuses_huge_budgets():
    # at B*R = 18 the bound is about 2e16 steps; at 1000 it used to divide
    # by a zero that 1 - exp(-2BR) had rounded to
    with pytest.raises(SamplerFailure, match=r"2\.0e\+16 steps"):
        mixing_time_bound(18.0, 1.0, 0.01)
    with pytest.raises(SamplerFailure, match="steps"):
        mixing_time_bound(1000.0, 1.0, 0.01)


def test_mixing_time_bound_rejects_bad_eps():
    with pytest.raises(ValueError):
        mixing_time_bound(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mixing_time_bound(1.0, 1.0, 1.5)


# --------------------------------------------------------------------- CFTP

def test_cftp_uniform_at_beta_zero():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4), norm_budget=1.0), beta=0.0)
    ys, depths = sample_exact_cftp_batch(target, 100_000, np.random.default_rng(45))
    dist = exact_distribution(target)
    assert chi_square_gof(ys, dist, 0.01).passed
    # at beta = 0 the certificate fires at the very first step
    assert depths.max() == 1


def test_cftp_matches_oracle_hypercube3():
    space = Hypercube(3)
    target = unit_target(space, seed=46)
    dist = exact_distribution(target)
    ys, _ = sample_exact_cftp_batch(target, 100_000, np.random.default_rng(47))
    assert chi_square_gof(ys, dist, 0.01).passed


def test_cftp_single_run_matches_oracle():
    space = Hypercube(3)
    target = unit_target(space, seed=48)
    rng = np.random.default_rng(49)
    ys = [sample_exact_cftp(target, rng)[0] for _ in range(20_000)]
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_cftp_generic_path_matches_oracle():
    # drop the cached table so the structure-level code path is exercised
    space = Hypercube(3)
    target = unit_target(space, seed=50)
    dist = exact_distribution(target)
    target.__dict__["table"] = None
    rng = np.random.default_rng(51)
    ys = [sample_exact_cftp(target, rng)[0] for _ in range(20_000)]
    assert chi_square_gof(ys, dist, 0.01).passed


def test_cftp_certificate_depth_bound():
    # mean certificate depth is below exp(2*B*R), with 99% one-sided slack
    space = Hypercube(6)
    target = unit_target(space, seed=52)
    assert target.score_bound == pytest.approx(1.0)
    _, depths = sample_exact_cftp_batch(target, 5000, np.random.default_rng(53))
    bound = exp(2.0)
    slack = 2.326 * depths.std(ddof=1) / np.sqrt(len(depths))
    assert depths.mean() - slack <= bound


def test_cftp_reports():
    space = Hypercube(4)
    target = unit_target(space, seed=54)
    y, report = sample_exact_cftp(target, np.random.default_rng(55))
    assert space.contains(y)
    assert report.coalescence_epoch == report.steps_taken >= 1
    assert 1 <= report.proposals_accepted <= report.steps_taken
    assert not report.wall_budget_exhausted


def test_cftp_budget_exhaustion():
    # a tiny lam inflates the derived budget so the certificate cannot fire
    space = Hypercube(4)
    theta = random_unit_theta(4, np.random.default_rng(56))
    target = GibbsTarget(space, Params(theta, lam=1e-12), beta=1.0)
    with pytest.raises(EpochBudgetExhausted) as info:
        sample_exact_cftp(target, np.random.default_rng(57), max_epochs=0)
    assert info.value.report.wall_budget_exhausted
    with pytest.raises(EpochBudgetExhausted):
        sample_exact_cftp_batch(target, 100, np.random.default_rng(58), max_epochs=0)


def test_cftp_reproducible():
    space = Permutations(4)
    target = unit_target(space, seed=59)
    a, da = sample_exact_cftp_batch(target, 500, np.random.default_rng(60))
    b, db = sample_exact_cftp_batch(target, 500, np.random.default_rng(60))
    assert a == b
    assert np.array_equal(da, db)
    c, _ = sample_exact_cftp_batch(target, 500, np.random.default_rng(61))
    assert a != c
    y1, r1 = sample_exact_cftp(target, np.random.default_rng(62))
    y2, r2 = sample_exact_cftp(target, np.random.default_rng(62))
    assert y1 == y2 and r1 == r2


# ---------------------------------------------------------------- rejection

def test_rejection_accepts_first_draw_at_beta_zero():
    space = Hypercube(5)
    target = GibbsTarget(space, Params(np.zeros(5), norm_budget=1.0), beta=0.0)
    rng = np.random.default_rng(63)
    for _ in range(20):
        y, report = sample_rejection(target, rng)
        assert report.steps_taken == 1
        assert space.contains(y)


def test_rejection_mean_trials_bound():
    space = Hypercube(6)
    target = unit_target(space, seed=64)
    _, trials = sample_rejection_batch(target, 5000, np.random.default_rng(65))
    slack = 2.326 * trials.std(ddof=1) / np.sqrt(len(trials))
    assert trials.mean() - slack <= exp(2.0)


def test_rejection_matches_oracle():
    space = Hypercube(3)
    target = unit_target(space, seed=66)
    ys, _ = sample_rejection_batch(target, 100_000, np.random.default_rng(67))
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_cftp_and_rejection_agree_on_permutations():
    space = Permutations(3)
    target = unit_target(space, seed=68)
    cftp, _ = sample_exact_cftp_batch(target, 100_000, np.random.default_rng(69))
    rej, _ = sample_rejection_batch(target, 100_000, np.random.default_rng(70))
    assert chi_square_two_sample(cftp, rej, 0.01).passed


# -------------------------------------------------------- approximate chain

def test_sample_approx_beta_zero_uniform():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4), norm_budget=1.0), beta=0.0)
    ys = sample_approx_batch(target, 0.5, 100_000, np.random.default_rng(71))
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_sample_approx_within_tv_budget():
    space = Hypercube(3)
    target = unit_target(space, seed=72)
    dist = exact_distribution(target)
    eps = 0.05
    n = 50_000
    ys = sample_approx_batch(target, eps, n, np.random.default_rng(73))
    counts = np.zeros(len(dist.support))
    for y in ys:
        counts[dist.index_of(y)] += 1
    tv = empirical_tv(counts, dist.probs)
    assert tv <= eps + multinomial_tv_noise(dist.probs, n)


def test_sample_approx_single_draws_are_members():
    space = Permutations(4)
    target = unit_target(space, seed=74)
    rng = np.random.default_rng(75)
    for _ in range(10):
        assert space.contains(sample_approx(target, 0.1, rng))


def test_chain_state_indices_requires_table():
    space = Permutations(8)  # too large to tabulate
    theta = random_unit_theta(64, np.random.default_rng(76))
    target = GibbsTarget(space, Params(theta, norm_budget=1.0), beta=1.0)
    with pytest.raises(ValueError):
        chain_state_indices(target, 1, 10, np.random.default_rng(77))


# ------------------------------------------------------------------ balance

def test_empirical_detailed_balance():
    # pi(y) P(y,z) must be symmetric: compare transition pair counts started
    # from exact stationary draws, within a three-sigma multinomial band
    space = Hypercube(2)
    target = unit_target(space, seed=78)
    dist = exact_distribution(target)
    k = len(dist.support)
    rng = np.random.default_rng(79)
    n = 1_000_000
    starts = rng.choice(k, size=n, p=dist.probs)
    ends = chain_state_indices(target, 1, n, rng, start=starts)
    counts = np.bincount(starts * k + ends, minlength=k * k).reshape(k, k)
    for y in range(k):
        for z in range(y + 1, k):
            diff = abs(counts[y, z] - counts[z, y])
            assert diff <= 3.0 * np.sqrt(counts[y, z] + counts[z, y])


# ------------------------------------------------------------------ reports

def test_sampler_report_invariant():
    with pytest.raises(ValueError):
        SamplerReport(steps_taken=1, proposals_accepted=2)


def test_target_rejects_negative_beta_and_bad_dims():
    space = Hypercube(4)
    with pytest.raises(ValueError):
        GibbsTarget(space, Params(np.zeros(4)), beta=-0.5)
    from structprob import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        GibbsTarget(space, Params(np.zeros(3)), beta=1.0)


def test_argmax_state_is_sticky_at_high_beta():
    # with beta = 8 a step away from the argmax is exponentially unlikely
    space = Hypercube(4)
    target = unit_target(space, seed=80, beta=1.0)
    best = exact_argmax(target)
    high = target.at_beta(8.0)
    rng = np.random.default_rng(81)
    stays = sum(meta_step(best, high, rng) == best for _ in range(500))
    assert stays >= 400
