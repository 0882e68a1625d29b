from math import exp, log

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from structprob import (
    CyclicPermutations,
    EpochBudgetExhausted,
    Hypercube,
    Params,
    Permutations,
    RootedTree,
    Subtrees,
    chain_state_indices,
    chi_square_gof,
    chi_square_two_sample,
    exact_argmax,
    exact_distribution,
    mixing_time_bound,
    random_unit_theta,
    build_schedule,
    sample_approx,
    sample_exact_cftp,
    sample_rejection,
    sample_size,
    stream,
    tv_target,
)
from structprob import samplers
from structprob.samplers import (
    MAX_EXPECTED_PROPOSALS,
    GibbsTarget,
    _approx_batch_indices,
    _certificate_rounds,
    _cftp_batch_indices,
    _first_chunk,
    _rejection_at_betas,
    _run_count,
    _run_ends,
    expected_proposals,
)

from structprob.oracle import _label_scores

from helpers import empirical_tv, multinomial_tv_noise


def unit_target(space, seed, norm=1.0, beta=1.0):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), norm)
    return GibbsTarget(space, Params(theta, norm_budget=norm), beta=beta)


# -------------------------------------------------------------- single steps

def one_step(target, start, n, seed):
    """Structures after one Metropolis transition of n chains from ``start``."""
    ends = chain_state_indices(target, 1, n, np.random.default_rng(seed), start=start)
    return target.structures(ends)


def test_one_step_beta_zero_outputs_are_uniform():
    # acceptance probability is identically 1, so one step from any state
    # reproduces the uniform proposal distribution
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4)), beta=0.0)
    dist = exact_distribution(target)
    outputs = one_step(target, 0, 50_000, seed=41)
    assert chi_square_gof(outputs, dist, 0.01).passed


def test_one_step_always_accepts_uphill():
    # from the lowest-scoring state every proposal has ratio >= 1, so the
    # step always moves to the proposal: outputs are exactly uniform
    space = Hypercube(4)
    target = unit_target(space, seed=42)
    lowest = int(np.argmin(target.table))
    uniform = exact_distribution(target.at_beta(0.0))
    outputs = one_step(target, lowest, 50_000, seed=43)
    assert chi_square_gof(outputs, uniform, 0.01).passed


def test_acceptance_floor():
    # min(1, ratio) >= exp(-2*beta*B*R) over every ordered state pair
    space = Hypercube(6)
    for beta in (0.25, 1.0):
        target = unit_target(space, seed=44, norm=1.0, beta=beta)
        w = beta * target.table
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
        except EpochBudgetExhausted:
            return None  # refused: above MAX_EXPECTED_PROPOSALS

    low, high = bound(B), bound(B + extra)
    if low is None:
        assert high is None  # a larger budget never needs fewer steps
        return
    assert isinstance(low, int) and 1 <= low <= MAX_EXPECTED_PROPOSALS
    assert high is None or low <= high


def test_mixing_time_bound_refuses_huge_budgets():
    # at B*R = 18 the bound is about 2e16 steps; at 1000 it used to divide
    # by a zero that 1 - exp(-2BR) had rounded to
    with pytest.raises(EpochBudgetExhausted, match=r"2\.0e\+16 steps"):
        mixing_time_bound(18.0, 1.0, 0.01)
    with pytest.raises(EpochBudgetExhausted, match="steps"):
        mixing_time_bound(1000.0, 1.0, 0.01)
    # the limit is MAX_EXPECTED_PROPOSALS steps: about 3.0e6 at B*R = 6.7
    # are returned, about 9.1e7 at B*R = 8.4 are refused
    assert mixing_time_bound(6.7, 1.0, 0.01) <= MAX_EXPECTED_PROPOSALS
    with pytest.raises(EpochBudgetExhausted, match=r"9\.1e\+07 steps, above the limit of 1e\+07"):
        mixing_time_bound(8.4, 1.0, 0.01)


def test_mixing_time_bound_rejects_bad_eps():
    with pytest.raises(ValueError):
        mixing_time_bound(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        mixing_time_bound(1.0, 1.0, 1.5)


# --------------------------------------------------------------------- CFTP

def test_cftp_uniform_at_beta_zero():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4), norm_budget=1.0), beta=0.0)
    ys, depths = sample_exact_cftp(target, 100_000, np.random.default_rng(45))
    dist = exact_distribution(target)
    assert chi_square_gof(ys, dist, 0.01).passed
    # at beta = 0 the certificate fires at the very first step, also for a
    # nonzero theta cooled to beta = 0
    assert depths.max() == 1
    zero = unit_target(Hypercube(6), seed=85).at_beta(0.0)
    _, ones = sample_exact_cftp(zero, 300, np.random.default_rng(87))
    assert ones.max() == 1


def test_cftp_matches_oracle_hypercube3():
    space = Hypercube(3)
    target = unit_target(space, seed=46)
    dist = exact_distribution(target)
    ys, _ = sample_exact_cftp(target, 100_000, np.random.default_rng(47))
    assert chi_square_gof(ys, dist, 0.01).passed


def test_cftp_single_run_matches_oracle():
    space = Hypercube(3)
    target = unit_target(space, seed=48)
    rng = np.random.default_rng(49)
    ys = [sample_exact_cftp(target, 1, rng)[0][0] for _ in range(20_000)]
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_cftp_generic_path_matches_oracle():
    # drop the cached table so the structure-level code path is exercised
    space = Hypercube(3)
    target = unit_target(space, seed=50)
    dist = exact_distribution(target)
    target.__dict__["table"] = None
    rng = np.random.default_rng(51)
    ys = [sample_exact_cftp(target, 1, rng)[0][0] for _ in range(20_000)]
    assert chi_square_gof(ys, dist, 0.01).passed


def test_cftp_certificate_depth_bound():
    # mean certificate depth is below exp(2*B*R), with 99% one-sided slack
    space = Hypercube(6)
    target = unit_target(space, seed=52)
    assert target.score_bound == pytest.approx(1.0)
    _, depths = sample_exact_cftp(target, 5000, np.random.default_rng(53))
    bound = exp(2.0)
    slack = 2.326 * depths.std(ddof=1) / np.sqrt(len(depths))
    assert depths.mean() - slack <= bound


def test_cftp_reports():
    space = Hypercube(4)
    target = unit_target(space, seed=54)
    ys, depths = sample_exact_cftp(target, 20, np.random.default_rng(55))
    assert len(ys) == 20 and all(space.contains(y) for y in ys)
    assert depths.shape == (20,) and depths.min() >= 1


def test_cftp_budget_exhaustion():
    # a tiny lam inflates the derived budget, which prices the certificate
    # on an untabled space
    space = Hypercube(13)
    theta = random_unit_theta(13, np.random.default_rng(56))
    target = GibbsTarget(space, Params(theta, lam=1e-12), beta=1.0)
    assert target.table is None
    rng = np.random.default_rng(57)
    state = rng.bit_generator.state
    for n in (1, 100):
        with pytest.raises(EpochBudgetExhausted, match="proposals"):
            sample_exact_cftp(target, n, rng)
    assert rng.bit_generator.state == state  # refused before any draw


def test_cftp_reproducible():
    space = Permutations(4)
    target = unit_target(space, seed=59)
    a, da = sample_exact_cftp(target, 500, np.random.default_rng(60))
    b, db = sample_exact_cftp(target, 500, np.random.default_rng(60))
    assert a == b
    assert np.array_equal(da, db)
    c, _ = sample_exact_cftp(target, 500, np.random.default_rng(61))
    assert a != c


# ---------------------------------------------------------------- rejection

def test_rejection_accepts_first_draw_at_beta_zero():
    space = Hypercube(5)
    target = GibbsTarget(space, Params(np.zeros(5), norm_budget=1.0), beta=0.0)
    ys, trials = sample_rejection(target, 20, np.random.default_rng(63))
    assert np.all(trials == 1)
    assert all(space.contains(y) for y in ys)


def test_rejection_mean_trials_bound():
    space = Hypercube(6)
    target = unit_target(space, seed=64)
    _, trials = sample_rejection(target, 5000, np.random.default_rng(65))
    slack = 2.326 * trials.std(ddof=1) / np.sqrt(len(trials))
    assert trials.mean() - slack <= exp(2.0)


def test_rejection_matches_oracle():
    space = Hypercube(3)
    target = unit_target(space, seed=66)
    ys, _ = sample_rejection(target, 100_000, np.random.default_rng(67))
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_cftp_and_rejection_agree_on_permutations():
    space = Permutations(3)
    target = unit_target(space, seed=68)
    cftp, _ = sample_exact_cftp(target, 100_000, np.random.default_rng(69))
    rej, _ = sample_rejection(target, 100_000, np.random.default_rng(70))
    assert chi_square_two_sample(cftp, rej, 0.01).passed


# -------------------------------------------------------- approximate chain

def test_sample_approx_beta_zero_uniform():
    space = Hypercube(4)
    target = GibbsTarget(space, Params(np.zeros(4), norm_budget=1.0), beta=0.0)
    ys = sample_approx(target, 0.5, 100_000, np.random.default_rng(71))
    assert chi_square_gof(ys, exact_distribution(target), 0.01).passed


def test_sample_approx_within_tv_budget():
    space = Hypercube(3)
    target = unit_target(space, seed=72)
    dist = exact_distribution(target)
    eps = 0.05
    n = 50_000
    ys = sample_approx(target, eps, n, np.random.default_rng(73))
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
        (y,) = sample_approx(target, 0.1, 1, rng)
        assert space.contains(y)


def test_chain_state_indices_requires_table():
    space = Permutations(8)  # too large to tabulate
    theta = random_unit_theta(64, np.random.default_rng(76))
    target = GibbsTarget(space, Params(theta, norm_budget=1.0), beta=1.0)
    with pytest.raises(ValueError):
        chain_state_indices(target, 1, 10, np.random.default_rng(77))


def test_chain_state_indices_refuses_negative_steps():
    target = unit_target(Hypercube(3), seed=76)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        chain_state_indices(target, -1, 10, np.random.default_rng(77))


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


# ------------------------------------------------------------------ targets

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
    start = space.structures(space.label_table.payloads).index(best)
    stays = sum(y == best for y in one_step(target.at_beta(8.0), start, 500, seed=81))
    assert stays >= 400


# ------------------------------------------------------------ one kernel

def untabled(target):
    """The same target with its score table dropped: proposals then come
    from the space's uniform sampler and are scored from label features."""
    target.__dict__["table"] = None
    return target


@pytest.mark.parametrize("tabled", [True, False])
def test_rejection_trials_equal_cftp_depths(tabled):
    # both samplers run the same certificate search on the same stream
    target = unit_target(Hypercube(5), seed=83, norm=1.2)
    if not tabled:
        target = untabled(target)
    _, trials = sample_rejection(target, 400, np.random.default_rng(84))
    _, depths = sample_exact_cftp(target, 400, np.random.default_rng(84))
    assert np.array_equal(trials, depths)


@pytest.mark.parametrize("tabled", [True, False])
def test_empty_batches(tabled):
    target = unit_target(Hypercube(3), seed=88)
    if not tabled:
        target = untabled(target)
    rng = np.random.default_rng(89)
    ys, depths = sample_exact_cftp(target, 0, rng)
    assert ys == [] and depths.shape == (0,)
    ys, trials = sample_rejection(target, 0, rng)
    assert ys == [] and trials.shape == (0,)
    assert sample_approx(target, 0.1, 0, rng) == []


@pytest.mark.parametrize("tabled", [True, False])
def test_kernel_scores_match_target_scores(tabled):
    x = np.array([0.3, -1.2, 0.5])
    theta = random_unit_theta(3 * 5, np.random.default_rng(90), 1.3)
    target = GibbsTarget(Hypercube(5), Params(theta, norm_budget=1.3), beta=0.7, x=x)
    if not tabled:
        target = untabled(target)
    keys, _, scores = _cftp_batch_indices(target, 200, np.random.default_rng(91))
    approx_keys, approx_scores = _approx_batch_indices(
        target, 0.1, 200, np.random.default_rng(92))
    for ks, ss in ((keys, scores), (approx_keys, approx_scores)):
        expected = [target.score(y) for y in target.structures(ks)]
        np.testing.assert_allclose(ss, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "space",
    [
        Hypercube(13),
        Permutations(7),
        CyclicPermutations(8),
        Subtrees(RootedTree((0,) * 12 + (1, 1))),
    ],
)
def test_untabled_proposal_keys_are_payload_rows(space):
    target = unit_target(space, seed=97)
    assert target.table is None
    keys, scores = target.propose(np.random.default_rng(98), 50)
    assert keys.dtype != object and keys.ndim == 2 and len(keys) == 50
    expected = [target.score(y) for y in target.structures(keys)]
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)


def test_untabled_batch_samplers_match_oracle():
    space = Hypercube(3)
    dist = exact_distribution(unit_target(space, seed=93, norm=0.5))
    target = untabled(unit_target(space, seed=93, norm=0.5))
    ys, _ = sample_exact_cftp(target, 20_000, np.random.default_rng(94))
    assert chi_square_gof(ys, dist, 0.01).passed
    ys, _ = sample_rejection(target, 20_000, np.random.default_rng(95))
    assert chi_square_gof(ys, dist, 0.01).passed
    # a 1e-3 TV budget is far below the resolution of 10k draws
    ys = sample_approx(target, 1e-3, 10_000, np.random.default_rng(96))
    assert chi_square_gof(ys, dist, 0.01).passed


def test_hopeless_certificate_search_is_refused_up_front():
    space = Hypercube(6)
    target = untabled(unit_target(space, seed=97, norm=40.0))
    assert expected_proposals(target, 1) > MAX_EXPECTED_PROPOSALS
    with pytest.raises(EpochBudgetExhausted, match=r"e\+\d+ proposals"):
        sample_exact_cftp(target, 10, np.random.default_rng(98))
    with pytest.raises(EpochBudgetExhausted, match="proposals"):
        sample_rejection(target, 1, np.random.default_rng(98))


def test_expected_proposals_is_the_mean_certificate_depth():
    target = unit_target(Hypercube(6), seed=99, norm=1.5)
    n = 20_000
    _, depths = sample_exact_cftp(target, n, np.random.default_rng(100))
    # tabled: the exact geometric mean; untabled: the exp(2*beta*B*R) bound
    assert depths.sum() == pytest.approx(expected_proposals(target, n), rel=0.05)
    bounded = untabled(unit_target(Hypercube(6), seed=99, norm=1.5))
    assert expected_proposals(bounded, n) == pytest.approx(n * exp(3.0))


# ------------------------------------------- exact ceiling: laws and prices

def metropolis_laws(scores, beta, starts, at):
    """{t: exact laws after t transitions} for each step count t in ``at``,
    of the uniform-proposal Metropolis chain started from each row of
    ``starts``.

    From y the chain moves to z != y with probability
    min(1, exp(beta*(s_z - s_y))) / |Y|.  States are sorted by score, so one
    transition is a few cumulative sums instead of a |Y| x |Y| product.
    """
    n = len(scores)
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    up = np.exp(beta * (s - s[-1]))  # e^{beta (s_z - s_max)} <= 1
    down = np.exp(beta * (s[-1] - s))  # its inverse
    below = np.searchsorted(s, s, side="left")  # states scoring less
    at_most = np.searchsorted(s, s, side="right")  # states scoring no more
    zero = np.zeros((len(starts), 1))
    stay = 1.0 - ((n - below - 1) + down * np.concatenate(([0.0], np.cumsum(up)))[below]) / n
    mu = starts[:, order]
    laws = {}
    for t in range(max(at) + 1):
        if t in at:
            laws[t] = np.empty_like(mu)
            laws[t][:, order] = mu
        from_below = np.concatenate((zero, np.cumsum(mu, axis=1)), axis=1)[:, at_most] - mu
        tail = np.cumsum((mu * down)[:, ::-1], axis=1)[:, ::-1]
        from_above = np.concatenate((tail, zero), axis=1)[:, at_most]
        mu = (from_below + up * from_above) / n + stay * mu
    return laws


def test_metropolis_laws_match_the_dense_transition_matrix():
    # ties (the all-ones direction) and distinct scores, at a high beta
    for theta in (np.ones(6), random_unit_theta(6, np.random.default_rng(120), 2.0)):
        scores = GibbsTarget(Hypercube(6), Params(theta), beta=1.0).table
        beta, n = 3.0, len(scores)
        move = np.minimum(1.0, np.exp(beta * (scores[None, :] - scores[:, None]))) / n
        np.fill_diagonal(move, 0.0)
        np.fill_diagonal(move, 1.0 - move.sum(axis=1))
        starts = np.vstack([np.full(n, 1.0 / n), np.eye(n)[np.argmin(scores)]])
        laws = metropolis_laws(scores, beta, starts, range(8))
        for t, law in laws.items():
            np.testing.assert_allclose(
                law, starts @ np.linalg.matrix_power(move, t), rtol=0, atol=1e-13)


BETAS = (0.3, 1.0, 3.0, 12.0, 20.0)
EPS_TVS = (0.05, 0.01)


def unit_directions(space):
    """The all-ones label direction and two seeded random ones."""
    d = space.feature_dim
    rng = np.random.default_rng(121)
    return [np.ones(d) / np.sqrt(d)] + [random_unit_theta(d, rng) for _ in range(2)]


def worst_tv_over_budget(target, scores):
    """max over eps_tv and over the uniform and lowest-score starts of
    TV(law after mixing_steps(eps_tv), pi_beta) / eps_tv."""
    steps = {eps: target.mixing_steps(eps) for eps in EPS_TVS}
    w = target.beta * (scores - scores.max())
    pi = np.exp(w) / np.exp(w).sum()
    n = len(scores)
    starts = np.vstack([np.full(n, 1.0 / n), np.eye(n)[np.argmin(scores)]])
    laws = metropolis_laws(scores, target.beta, starts, set(steps.values()))
    return max(0.5 * np.abs(laws[t] - pi).sum(axis=1).max() / eps
               for eps, t in steps.items())


@pytest.mark.parametrize("space", [Hypercube(10), Permutations(5), CyclicPermutations(6)],
                         ids=lambda s: s.kind)
def test_tabled_mixing_steps_reach_their_tv_budget(space):
    # mixing_steps carries beta through the exact delta_beta, above beta 1 too
    worst = 0.0
    for u in unit_directions(space):
        for norm in (1.0, 3.0):
            for beta in BETAS:
                target = GibbsTarget(space, Params(norm * u, norm_budget=norm), beta=beta)
                assert target.table is not None
                worst = max(worst, worst_tv_over_budget(target, target.table))
    assert worst <= 1.0


@pytest.mark.parametrize("space", [Hypercube(8), Permutations(4), CyclicPermutations(5)],
                         ids=lambda s: s.kind)
def test_untabled_mixing_steps_reach_their_tv_budget(space):
    # untabled, the bound reads 2*beta*B*R; past the limit the sampler
    # refuses a draw at its price, min(1/delta_beta, steps + 1) proposals
    rng = np.random.default_rng(122)
    for u in unit_directions(space):
        for norm in (1.0, 3.0):
            for beta in BETAS:
                target = untabled(GibbsTarget(space, Params(norm * u, norm_budget=norm),
                                              beta=beta))
                if log(log(1.0 / min(EPS_TVS))) + 2.0 * beta * norm > log(MAX_EXPECTED_PROPOSALS):
                    assert target.mixing_steps(min(EPS_TVS)) > MAX_EXPECTED_PROPOSALS
                    with pytest.raises(EpochBudgetExhausted, match="1 approximate draws"):
                        _approx_batch_indices(target, min(EPS_TVS), 1, rng)
                    continue
                assert worst_tv_over_budget(target, _label_scores(target)[1]) <= 1.0


def _lam_inflated(space, seed):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed))
    return GibbsTarget(space, Params(theta, lam=1e-12), beta=1.0)


def _cli_target(space, seed, norm, **params):
    """The target ``sample --theta-random norm --seed seed`` builds."""
    theta = random_unit_theta(space.feature_dim, stream(seed, 101), norm=norm)
    return GibbsTarget(space, Params(theta, **params), beta=1.0)


# The tabled inputs that were refused while B*R priced every certificate.
OLD_REFUSALS = {
    "lam-1e-12": lambda: _lam_inflated(Hypercube(4), 56),
    "cli-lam-1e-12": lambda: _cli_target(Hypercube(4), 6, 1.0, lam=1e-12),
    "norm-40": lambda: unit_target(Hypercube(6), seed=97, norm=40.0),
    "cli-norm-30": lambda: _cli_target(Hypercube(6), 1, 30.0, norm_budget=30.0),
}


@pytest.mark.parametrize("name", sorted(OLD_REFUSALS))
def test_old_refusal_inputs_sample_exactly_at_the_priced_depth(name):
    target = OLD_REFUSALS[name]()
    assert target.table is not None and expected_proposals(target, 1) < 100.0
    dist = exact_distribution(target)
    n = 20_000
    for i, sampler in enumerate((sample_exact_cftp, sample_rejection)):
        ys, depths = sampler(target, n, np.random.default_rng((122, i)))
        assert chi_square_gof(ys, dist, 0.01).passed
        assert depths.mean() == pytest.approx(expected_proposals(target, 1), rel=0.05)


def test_tabled_requests_over_the_limit_are_still_refused():
    target = unit_target(Hypercube(6), seed=97, norm=40.0)  # about 53 proposals a run
    n = 1_000_000
    assert n * exp(target.log_rounds_per_certificate) > MAX_EXPECTED_PROPOSALS
    rng = np.random.default_rng(123)
    state = rng.bit_generator.state
    for sampler in (sample_exact_cftp, sample_rejection):
        with pytest.raises(EpochBudgetExhausted,
                           match=r"beta\*s_max = [\d.]+ expects about 5\.3e\+07 proposals"):
            sampler(target, n, rng)
    assert rng.bit_generator.state == state  # refused before any draw


@pytest.mark.parametrize("x", [None, np.array([0.6, -0.8, 2.0])], ids=["label-only", "input"])
def test_the_ceiling_is_at_least_every_computed_score(x):
    # theta = c x/||x|| (x) ones/sqrt(d) at norm budget ||theta||: the
    # all-ones structure scores B*R up to rounding, and for a quarter to a
    # third of these c its computed score rounds above the computed B*R.  A
    # ceiling below a score lets the certificate a >= beta*s_max fire for a
    # state whose own threshold beta*s(y) is higher.
    u = np.ones(1) if x is None else x / np.linalg.norm(x)
    for d in (2, 3, 5, 8, 12, 13):
        space = Hypercube(d)
        ones = np.ones((1, d), dtype=np.int8)
        for c in np.linspace(0.1, 3.0, 60):
            theta = c * np.outer(u, np.full(d, 1.0 / np.sqrt(d))).reshape(-1)
            target = GibbsTarget(space, Params(theta, norm_budget=np.linalg.norm(theta)),
                                 x=x)
            if target.table is not None:  # the very scores the kernels compare
                assert target.score_ceiling == target.table.max()
            else:  # the all-ones proposal's score, as ``propose`` computes it
                top = space.label_rows(ones) @ target.label_weights
                assert top[0] <= target.score_ceiling


# ------------------------------------------ one proposal pool per search

POOL_BETAS = (0.4, 1.0, 2.5)


def pool_target(beta):
    """Permutations(3) at a fixed theta: delta_beta is 0.74, 0.51 and 0.29 at
    the POOL_BETAS, and the least likely of the 6 states has mass 0.022."""
    return unit_target(Permutations(3), seed=130, norm=1.5, beta=beta)


def draws_and_depths(target, sampler, n, seed):
    """(table rows, depths) of n exact draws; rejection returns the hits."""
    rng = np.random.default_rng(seed)
    if sampler == "cftp":
        keys, depths, _ = _cftp_batch_indices(target, n, rng)
    else:
        ends, depths, (z, _, _) = _certificate_rounds(target, n, rng)
        keys = z[ends]
    return keys, depths


def gof_p_value(counts, probs):
    """Pearson p-value of counts against probs, the cells whose expected
    count is under 5 pooled into one."""
    from scipy import stats

    expected = probs * counts.sum()
    small = expected < 5.0
    if small.any():
        counts = np.append(counts[~small], counts[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return stats.chisquare(counts, expected).pvalue


def homogeneity_p_value(table):
    """Pearson p-value that the rows of a contingency table share one law,
    the columns with a total under 20 pooled into their neighbour."""
    from scipy import stats

    cols = [table[:, 0]]
    for col in table[:, 1:].T:
        if cols[-1].sum() < 20:
            cols[-1] = cols[-1] + col
        else:
            cols.append(col)
    if len(cols) > 1 and cols[-1].sum() < 20:
        cols[-2] = cols[-2] + cols.pop()
    return stats.chi2_contingency(np.stack(cols, axis=1), correction=False).pvalue


@pytest.mark.parametrize("beta", POOL_BETAS)
@pytest.mark.parametrize("sampler", ["cftp", "rejection"])
def test_consecutive_draws_follow_the_product_law(sampler, beta):
    # a proposal shared across a cut would tie draw j to draw j + 1
    target = pool_target(beta)
    probs = exact_distribution(target).probs  # in table-row order
    k = len(probs)
    keys, _ = draws_and_depths(target, sampler, 60_001, seed=131)
    for offset in (0, 1):  # every cut between draws j and j + 1 is tested once
        pairs = keys[offset:offset + 60_000].reshape(-1, 2)
        counts = np.bincount(pairs[:, 0] * k + pairs[:, 1], minlength=k * k)
        assert gof_p_value(counts, np.outer(probs, probs).reshape(-1)) > 0.01


@pytest.mark.parametrize("beta", POOL_BETAS)
def test_output_position_carries_no_depth_information(beta):
    # runs sorted by depth would put the deep runs, and the states they
    # favour, at the front; in hit order every quarter has one law
    target = pool_target(beta)
    n = 60_000
    quarter = np.arange(n) * 4 // n
    draws = [draws_and_depths(target, s, n, seed=132) for s in ("cftp", "rejection")]
    # both samplers cut the same pool: rejection trials are CFTP depths
    assert np.array_equal(draws[0][1], draws[1][1])
    for keys, depths in draws:
        for values in (np.minimum(depths, 12) - 1, keys):
            table = np.zeros((4, values.max() + 1))
            np.add.at(table, (quarter, values), 1)
            assert homogeneity_p_value(table) > 0.01


@pytest.mark.parametrize("beta", POOL_BETAS)
def test_depths_are_geometric_in_the_certificate_rate(beta):
    target = pool_target(beta)
    delta = exp(-target.log_rounds_per_certificate)
    _, depths = draws_and_depths(target, "cftp", 60_000, seed=133)
    top = 30  # depths above it are pooled with it
    counts = np.bincount(np.minimum(depths, top), minlength=top + 1)[1:]
    probs = delta * (1.0 - delta) ** np.arange(top)
    probs[-1] = (1.0 - delta) ** (top - 1)  # P(depth >= top)
    assert gof_p_value(counts, probs) > 0.01


def recorded_propose(monkeypatch):
    """The size of every GibbsTarget.propose call from now on."""
    sizes = []
    propose = GibbsTarget.propose

    def recording(self, rng, n):
        sizes.append(n)
        return propose(self, rng, n)

    monkeypatch.setattr(GibbsTarget, "propose", recording)
    return sizes


@pytest.mark.parametrize("n", [1, 4, 50])
def test_a_search_without_hits_grows_by_at_most_doubling(monkeypatch, n):
    target = unit_target(Hypercube(10), seed=131, norm=1.5, beta=25.0)
    assert exp(-target.log_rounds_per_certificate) < 0.01
    sizes = recorded_propose(monkeypatch)
    hit, depths, (_, _, bids) = _certificate_rounds(
        target, n, np.random.default_rng(135))
    assert len(depths) == n and len(hit) == n
    hits = np.add.reduceat(bids >= target.beta * target.score_ceiling,
                           np.cumsum([0] + sizes[:-1]))
    assert hits[0] == 0  # the first chunk of n proposals found no certificate
    drawn = 0
    for size, found in zip(sizes, np.cumsum(hits) - hits):
        if not found:
            assert size <= max(drawn, n)
        drawn += size
    assert hits.sum() >= n and len(sizes) < 40


def test_a_large_search_takes_few_propose_calls(monkeypatch):
    # the largest fpras-tabled ratio: 15,474 draws at beta 1 on hypercube:12
    target = unit_target(Hypercube(12), seed=136, norm=3.4)
    sizes = recorded_propose(monkeypatch)
    _, depths, _ = _cftp_batch_indices(target, 15_474, np.random.default_rng(137))
    assert depths.max() >= 20  # one propose call per round would make 20 or more
    assert len(sizes) <= 6


@pytest.mark.parametrize("beta", [0.2, 3.0, 12.0])
def test_unused_proposals_stay_small(beta):
    # summed over searches: under 15% of the proposals the runs use, plus
    # four mean depths per search
    target = unit_target(Hypercube(6), seed=131, norm=1.5, beta=beta)
    mean_depth = exp(target.log_rounds_per_certificate)
    for n in (1, 3, 20, 100, 1000, 15_474):
        searches = 30 if n < 15_474 else 5
        used = unused = 0
        for seed in range(searches):
            _, depths, (z, _, _) = _certificate_rounds(
                target, n, np.random.default_rng((138, seed)))
            used += depths.sum()
            unused += len(z) - depths.sum()
        assert unused <= 0.15 * used + 4 * mean_depth * searches


@pytest.mark.parametrize("tabled", [True, False])
def test_refusal_comes_before_any_proposal(monkeypatch, tabled):
    target = unit_target(Hypercube(6), seed=97, norm=40.0)
    if not tabled:
        target = untabled(target)
    sizes = recorded_propose(monkeypatch)
    rng = np.random.default_rng(139)
    state = rng.bit_generator.state
    for sampler in (sample_exact_cftp, sample_rejection):
        with pytest.raises(EpochBudgetExhausted, match="proposals"):
            sampler(target, 1_000_000, rng)
    assert sizes == [] and rng.bit_generator.state == state


# ------------------------------- approximate draws: CFTP runs cut off at T

def scanned_run_ends(hits, steps):
    """Run ends by a scan over the pool, one position at a time."""
    ends, length = [], 0
    for position, hit in enumerate(hits):
        length += 1
        if hit or (steps is not None and length == steps + 1):
            ends.append(position)
            length = 0
    return ends


@pytest.mark.parametrize("steps", [None, 0, 1, 2, 5, 40])
def test_run_ends_match_a_scan(steps):
    rng = np.random.default_rng(150)
    for rate in (0.0, 0.05, 0.3, 1.0):
        hit = rng.random(300) < rate
        ends = _run_ends(np.flatnonzero(hit), len(hit), steps)
        assert ends.tolist() == scanned_run_ends(hit, steps)
        assert _run_count(np.flatnonzero(hit), len(hit), steps) == len(ends)


def law_targets():
    """Three tabled targets whose certificates fire once in about 2, 5 and
    10 proposals."""
    return [pool_target(1.0),
            unit_target(CyclicPermutations(5), seed=152, norm=2.0, beta=4.0),
            unit_target(Hypercube(4), seed=151, norm=1.5, beta=6.0)]


@pytest.mark.parametrize("which", range(3))
def test_cut_off_runs_follow_the_exact_chain_law(which):
    # at every T, from the uniform start and from the stickiest state, the
    # draws follow the law of the T-step chain (family-wise level 0.01)
    target = law_targets()[which]
    scores = target.table
    k = len(scores)
    mean_depth = exp(target.log_rounds_per_certificate)
    steps = sorted({0, 1, 2, 3, 7, round(2 * mean_depth), round(6 * mean_depth)})
    top = int(np.argmax(scores))
    starts = {None: np.full(k, 1.0 / k), top: np.eye(k)[top]}
    laws = metropolis_laws(scores, target.beta, np.vstack(list(starts.values())), set(steps))
    checks = len(steps) * len(starts)
    for t in steps:
        for row, start in enumerate(starts):
            rng = np.random.default_rng((153, which, t, row))
            keys = chain_state_indices(target, t, 20_000, rng, start=start)
            if t == 0 and start is not None:
                assert np.all(keys == start)
                continue
            p = gof_p_value(np.bincount(keys, minlength=k), laws[t][row])
            assert p > 0.01 / checks, (t, start, p)


def test_an_approximate_draw_at_eps_one_is_one_proposal(monkeypatch):
    # eps_tv = 1 is 0 steps: every run is its one uniform proposal
    target = unit_target(Hypercube(6), seed=154, norm=1.5)
    sizes = recorded_propose(monkeypatch)
    keys, _ = _approx_batch_indices(target, 1.0, 5_000, np.random.default_rng(155))
    assert sizes == [5_000] and len(keys) == 5_000


def test_approximate_draws_cost_at_most_the_certificate_depth(monkeypatch):
    # a run stops at its certificate or at T + 1 positions, whichever comes
    # first: about n/delta_beta proposals, not the n*(T + 1) of lockstep chains
    target = unit_target(Hypercube(6), seed=154, norm=1.5)
    n, steps = 20_000, target.mixing_steps(1e-3)
    mean_depth = exp(target.log_rounds_per_certificate)
    assert steps + 1 > 5 * mean_depth
    sizes = recorded_propose(monkeypatch)
    _approx_batch_indices(target, 1e-3, n, np.random.default_rng(156))
    assert 0.95 * n * mean_depth <= sum(sizes) <= 1.2 * n * mean_depth


@pytest.mark.parametrize("tabled", [True, False])
def test_a_cut_no_run_reaches_leaves_cftp_unchanged(monkeypatch, tabled):
    # with every depth below the cut, the search and the draws are CFTP's;
    # a tabled cut-off search only sizes its first chunk from the expected
    # run length, so both searches start from CFTP's chunk of n here
    target = unit_target(Hypercube(5), seed=157, norm=1.2)
    if not tabled:
        target = untabled(target)
    monkeypatch.setattr(samplers, "_first_chunk", lambda target, n, steps: n)
    exact = _cftp_batch_indices(target, 400, np.random.default_rng(158))
    cut = _cftp_batch_indices(target, 400, np.random.default_rng(158), 10**6)
    for a, b in zip(exact, cut):
        assert np.array_equal(a, b)


def test_the_first_chunk_is_the_expected_cut_off_pool():
    # n runs of min(Geometric(delta), T + 1) positions, summed term by term
    n = 1000
    for target in law_targets():
        delta = exp(-target.log_rounds_per_certificate)
        for steps in (0, 1, 3, 10, 100):
            reach = (1.0 - delta) ** np.arange(steps + 1)  # P(X >= k), k = 1..T+1
            mean = reach.sum()
            var = ((2 * np.arange(steps + 1) + 1) * reach).sum() - mean**2
            expected = min(np.ceil(n * mean + 2.0 * np.sqrt(n * var)), n * (steps + 1))
            assert abs(_first_chunk(target, n, steps) - expected) <= 1
    # CFTP, and any search whose delta is only a bound, start with n
    target = law_targets()[0]
    assert _first_chunk(target, n, None) == n
    assert _first_chunk(untabled(target), n, 5) == n


def test_approximate_searches_rarely_take_a_second_chunk(monkeypatch):
    # the fpras-tabled approximate request on hypercube:12 at norm 1.1:
    # about 2.1 propose calls per search when the first chunk was n
    target = unit_target(Hypercube(12), seed=160, norm=1.1)
    schedule = build_schedule(1.0, 1.1, 3)
    S = sample_size(0.3, schedule.l, 3)
    eps_tv = tv_target(0.3, schedule.l, 3)
    sizes = recorded_propose(monkeypatch)
    searches = 0
    for seed in range(50):
        rng = np.random.default_rng((161, seed))
        for beta in schedule.betas[1:]:
            _approx_batch_indices(target.at_beta(beta), eps_tv, S, rng)
            searches += 1
    assert searches == 200 and len(sizes) / searches <= 1.5


# ------------------------------------- per-run-beta rejection (TPA draws)

REJECTION_BETAS = (0.0, 0.3, 1.0, 2.5)


def rejection_targets():
    """Three tabled targets, and the third again with its table dropped."""
    return [("permutations:3", pool_target(1.0)),
            ("cycles:5", unit_target(CyclicPermutations(5), seed=152, norm=2.0)),
            ("hypercube:4", unit_target(Hypercube(4), seed=151, norm=1.5)),
            ("hypercube:4-untabled", unit_target(Hypercube(4), seed=151, norm=1.5))]


@pytest.mark.parametrize("which", range(4), ids=[n for n, _ in rejection_targets()])
def test_per_run_beta_draws_follow_pi_beta(which):
    # one call mixes the four betas; each beta's draws follow pi_beta and
    # its trial counts Geometric(delta_beta), at a family-wise level of 0.01
    name, target = rejection_targets()[which]
    table = target.table
    rows = {tuple(r): i for i, r in enumerate(target.space.label_table.payloads)}
    if name.endswith("untabled"):
        target = untabled(target)
    n = 20_000
    betas = np.tile(REJECTION_BETAS, n)
    keys, scores, trials = _rejection_at_betas(target, betas, np.random.default_rng(170))
    if target.table is None:  # payload rows back to table rows
        keys = np.array([rows[tuple(r)] for r in keys])
    np.testing.assert_allclose(scores, table[keys], rtol=1e-12, atol=1e-12)
    level = 0.01 / (2 * len(REJECTION_BETAS))
    for j, beta in enumerate(REJECTION_BETAS):
        at = target.at_beta(beta)
        probs = exact_distribution(at).probs
        counts = np.bincount(keys[j::len(REJECTION_BETAS)], minlength=len(probs))
        assert gof_p_value(counts, probs) > level, beta
        t = trials[j::len(REJECTION_BETAS)]
        if beta == 0.0:  # every first proposal is accepted
            assert np.all(t == 1)
            continue
        delta = exp(-at.log_rounds_per_certificate) if at.table is not None else \
            float(np.mean(np.exp(beta * (table - at.score_ceiling))))
        top = 25
        counts = np.bincount(np.minimum(t, top), minlength=top + 1)[1:]
        geometric = delta * (1.0 - delta) ** np.arange(top)
        geometric[-1] = (1.0 - delta) ** (top - 1)  # P(trials >= top)
        assert gof_p_value(counts, geometric) > level, beta


@pytest.mark.parametrize("tabled", [True, False])
def test_per_run_beta_searches_draw_at_most_twice_what_they_use(monkeypatch, tabled):
    # rows of 2, 4, 8, ... proposals: a run accepting at trial t drew at
    # most 2t; over many searches the prototype measured 1.3-1.6x
    target = unit_target(Hypercube(6), seed=171, norm=2.0)
    if not tabled:
        target = untabled(target)
    sizes = recorded_propose(monkeypatch)
    used = 0
    rng = np.random.default_rng(172)
    for _ in range(100):
        betas = rng.uniform(0.0, 1.0, int(rng.integers(1, 300)))
        keys, _, trials = _rejection_at_betas(target, betas, rng)
        assert len(keys) == len(trials) == len(betas) and trials.min() >= 1
        used += trials.sum()
    assert used <= sum(sizes) <= 2 * used
