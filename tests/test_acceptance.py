"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run ``pytest -s tests/test_acceptance.py``
to see them inline).  All seeds are fixed; the statistical assertions use
significance levels or confidence bands chosen so a correct implementation
fails each one with probability about 1% or less per fresh seed.
"""

from math import exp, sqrt

import numpy as np

from structprob import (
    CyclicPermutations,
    Hypercube,
    Params,
    Permutations,
    RootedTree,
    Subtrees,
    TrainConfig,
    build_schedule,
    chain_state_indices,
    chi_square_gof,
    chi_square_two_sample,
    estimate_gradient,
    estimate_partition,
    exact_distribution,
    exact_gradient,
    exact_partition,
    hamiltonicity_via_partition,
    has_hamiltonian_cycle,
    hoeffding_sample_size,
    ln_count,
    make_toy_dataset,
    mixing_time_bound,
    oracle_ratio_moments,
    oracle_ratio_range,
    random_unit_theta,
    sample_exact_cftp,
    sample_rejection,
    train,
)
from structprob.partition import APPROXIMATE, EXACT
from structprob.samplers import GibbsTarget

from helpers import (
    brute_force_cycle_payloads,
    brute_force_subtree_count,
    empirical_tv,
    multinomial_tv_noise,
    random_parent_array,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def unit_target(space, seed, norm=1.0, beta=1.0):
    theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), norm)
    return GibbsTarget(space, Params(theta, norm_budget=norm), beta=beta)


def _fpras_band_runs(mode: str, base_seed: int) -> list[int]:
    space = Hypercube(8)
    inside_counts = []
    for k in range(5):
        target = unit_target(space, seed=base_seed + k)
        ln_z = exact_partition(target)
        inside = 0
        for run in range(20):
            est = estimate_partition(
                target, 0.2, p=3, mode=mode,
                rng=np.random.default_rng((base_seed, k, run)),
            )
            inside += abs(exp(est.log_value - ln_z) - 1.0) <= 0.2
        inside_counts.append(inside)
    return inside_counts


def test_ac1_fpras_accuracy_exact_sampler():
    counts = _fpras_band_runs(EXACT, base_seed=1001)
    # 11/20 is the one-sided 1% binomial rejection point for success >= 3/4
    report("AC-1", all(c >= 11 for c in counts),
           f"runs inside (1+-0.2)Z per theta: {counts} (need >= 11/20)")


def test_ac2_fpras_accuracy_approximate_sampler():
    counts = _fpras_band_runs(APPROXIMATE, base_seed=2001)
    report("AC-2", all(c >= 11 for c in counts),
           f"runs inside (1+-0.2)Z per theta: {counts} (need >= 11/20)")


AC3_TARGETS = [
    ("hypercube-4", Hypercube(4), 3301),
    ("hypercube-5", Hypercube(5), 3302),
    ("hypercube-6", Hypercube(6), 3303),
    ("permutations-3", Permutations(3), 3304),
    ("permutations-4", Permutations(4), 3305),
    ("subtrees-star3", Subtrees(RootedTree((0, 0, 0, 0))), 3306),
    ("subtrees-binary7", Subtrees(RootedTree((0, 0, 0, 1, 1, 2, 2))), 3307),
    ("cycles-4", CyclicPermutations(4), 3308),
]


def test_ac3_exact_sampler_correctness():
    n = 100_000
    failures = []
    for name, space, seed in AC3_TARGETS:
        assert space.count() <= 64
        target = unit_target(space, seed=seed)
        dist = exact_distribution(target)
        cftp, _ = sample_exact_cftp(target, n, np.random.default_rng(seed + 10))
        rej, _ = sample_rejection(target, n, np.random.default_rng(seed + 20))
        gof = chi_square_gof(cftp, dist, 0.01)
        two = chi_square_two_sample(cftp, rej, 0.01)
        if not gof.passed:
            failures.append(f"{name}: gof stat {gof.statistic:.1f} > {gof.threshold:.1f}")
        if not two.passed:
            failures.append(f"{name}: two-sample stat {two.statistic:.1f} > {two.threshold:.1f}")
    report("AC-3", not failures,
           failures or f"{len(AC3_TARGETS)} spaces x (gof + cftp-vs-rejection) at 0.01")


def test_ac4_coalescence_bound():
    space = Hypercube(6)
    target = unit_target(space, seed=4001)
    assert abs(target.score_bound - 1.0) < 1e-12  # B*R = 1 exactly
    _, depths = sample_exact_cftp(target, 10_000, np.random.default_rng(4002))
    bound = exp(2.0)
    ci = 2.326 * depths.std(ddof=1) / sqrt(len(depths))
    ok = depths.mean() - ci <= bound
    report("AC-4", ok,
           f"mean certificate time {depths.mean():.3f} (99% one-sided CI -{ci:.3f}) "
           f"vs e^2 = {bound:.3f}")


def test_ac5_mixing_bound():
    ok_formula = mixing_time_bound(1.0, 1.0, 0.01) == 32
    space = Hypercube(3)
    target = unit_target(space, seed=5001)
    dist = exact_distribution(target)
    worst_start = int(np.argmax(target.beta * target.table))
    n = 100_000
    details = [f"t(0.01)={mixing_time_bound(1.0, 1.0, 0.01)}"]
    ok_tv = True
    for i, eps in enumerate((0.1, 0.01)):
        steps = mixing_time_bound(1.0, 1.0, eps)
        idx = chain_state_indices(
            target, steps, n, np.random.default_rng(5002 + i), start=worst_start
        )
        counts = np.bincount(idx, minlength=len(dist.support))
        tv = empirical_tv(counts, dist.probs)
        allowed = eps + multinomial_tv_noise(dist.probs, n)
        ok_tv &= tv <= allowed
        details.append(f"eps={eps}: steps={steps} tv={tv:.4f} <= {allowed:.4f}")
    report("AC-5", ok_formula and ok_tv, "; ".join(details))


def test_ac6_variance_and_band_bounds():
    p = 3
    worst_var, checked = 0.0, 0
    f_min, f_max = float("inf"), 0.0
    for k in range(5):
        target = unit_target(Hypercube(8), seed=1001 + k)
        schedule = build_schedule(1.0, target.params.theta_norm, p)
        for i in range(1, schedule.l + 1):
            _, rel_var = oracle_ratio_moments(schedule, i, target)
            worst_var = max(worst_var, rel_var)
            lo, hi = oracle_ratio_range(schedule, i, target)
            f_min, f_max = min(f_min, lo), max(f_max, hi)
            checked += 1
    # every per-sample value f_i(y), not just its mean, lies in the band
    band_ok = (exp(-1.0 / p) * (1 - 1e-12) <= f_min
               and f_max <= exp(1.0 / p) * (1 + 1e-12))
    ok = band_ok and worst_var <= exp(2.0 / p)
    report("AC-6", ok,
           f"{checked} ratio steps: worst rel-var {worst_var:.4f} <= "
           f"{exp(2.0 / p):.4f}; f_i range [{f_min:.4f}, {f_max:.4f}] within "
           f"[{exp(-1.0 / p):.4f}, {exp(1.0 / p):.4f}]: {band_ok}")


def test_ac7_gradient_estimator():
    S = hoeffding_sample_size(1.0, 1.0, 0.05, 0.05)
    ok_size = S == 2952
    space = Hypercube(4)
    worst_violations = 0
    for run in range(10):
        target = unit_target(space, seed=7001 + run)
        grad = exact_gradient(target)
        est = estimate_gradient(target, S, EXACT, np.random.default_rng(7100 + run))
        dir_rng = np.random.default_rng(7200 + run)
        violations = sum(
            abs(float((est - grad) @ random_unit_theta(4, dir_rng))) > 0.05
            for _ in range(20)
        )
        worst_violations = max(worst_violations, violations)
    report("AC-7", ok_size and worst_violations <= 1,
           f"S={S} (expect 2952); worst violations/run = {worst_violations} (allow 1)")


def test_ac8_training():
    space = Hypercube(4)
    data = make_toy_dataset(space, m=20, rng=np.random.default_rng(8001))
    lam = 1.0
    exact_cfg = TrainConfig(lam=lam, max_iters=30)
    mcmc_cfg = TrainConfig(lam=lam, max_iters=30, gradient_mode="mcmc")
    exact_params, trace = train(data, space, exact_cfg, rng=np.random.default_rng(8002))
    mcmc_params, _ = train(data, space, mcmc_cfg, rng=np.random.default_rng(8002))
    objs = trace.objectives()
    non_increasing = bool(np.all(np.diff(objs) <= 1e-12))
    radius = sqrt(ln_count(space) / lam)
    in_ball = exact_params.theta_norm <= radius + 1e-12
    dist = float(np.linalg.norm(exact_params.theta - mcmc_params.theta))
    ok = non_increasing and in_ball and dist <= 0.1
    report("AC-8", ok,
           f"objective non-increasing: {non_increasing}; "
           f"|theta|={exact_params.theta_norm:.4f} <= {radius:.4f}; "
           f"exact-vs-mcmc distance {dist:.4f} <= 0.1")


def test_ac9_hamiltonicity_demo():
    graphs = []
    for n in range(3, 7):
        graphs.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
        graphs.append((n, [(i, i + 1) for i in range(n - 1)]))
        graphs.append((n, [(0, i) for i in range(1, n)]))
        graphs.append((n, [(i, (i + 1) % n) for i in range(n)]))
    rng = np.random.default_rng(9001)
    while len(graphs) < 16 + 50:  # the fixed family plus 50 random graphs
        n = int(rng.integers(3, 7))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append((n, edges))
    disagreements = [
        (n, edges)
        for n, edges in graphs
        if hamiltonicity_via_partition(edges, n) != has_hamiltonian_cycle(edges, n)
    ]
    report("AC-9", not disagreements,
           f"{len(graphs)} graphs, {len(disagreements)} disagreements")


def test_ac10_counting():
    rng = np.random.default_rng(10001)
    bad_trees = 0
    for _ in range(40):
        d = int(rng.integers(2, 13))
        tree = RootedTree(random_parent_array(d, rng))
        if Subtrees(tree).count() != brute_force_subtree_count(tree):
            bad_trees += 1
    cycle_ok = True
    for n in (3, 4, 5, 6):
        space = CyclicPermutations(n)
        enumerated = {y.payload for y in space.enumerate()}
        cycle_ok &= space.count() == len(enumerated)
        cycle_ok &= enumerated == brute_force_cycle_payloads(n)
    cycle_ok &= CyclicPermutations(4).count() == 7
    report("AC-10", bad_trees == 0 and cycle_ok,
           f"40 random trees (<= 12 vertices) exact; cycle counts match "
           f"enumeration for n in 3..6; n=4 gives 7")
