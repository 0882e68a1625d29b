"""Command-line front end.

Subcommands::

    structprob sample     draw structures from pi_beta (or uniformly)
    structprob partition  estimate ln Z with accuracy guarantees
    structprob train      fit parameters on a dataset, write model + trace
    structprob predict    annealed MAP prediction from a trained model
    structprob verify     run the oracle invariant suite

Every command requires an explicit --seed; given the same configuration and
seed, primary output artifacts are byte-identical across reruns (the train
trace also logs wall-clock times, which are diagnostic, not primary).
A JSON file passed via --config overrides any flag of the subcommand.

Exit codes: 0 success, 2 configuration error, 3 sampler/estimator failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import exp, isnan, log

import numpy as np

from . import __version__
from .errors import SamplerFailure, StructProbError
from .model import Params, load_dataset, random_unit_theta
from .oracle import (
    chi_square_gof,
    exact_distribution,
    exact_gradient,
    exact_partition,
    hamiltonicity_via_partition,
    has_hamiltonian_cycle,
)
from .partition import (
    APPROXIMATE,
    EXACT,
    boost_by_median,
    build_schedule,
    estimate_partition,
    oracle_ratio_moments,
    oracle_ratio_range,
)
from .samplers import (
    GibbsTarget,
    _approx_steps,
    _check_expected_proposals,
    _check_work,
    sample_approx,
    sample_exact_cftp,
    sample_exact_cftp_batch,
    sample_rejection,
)
from .spaces import (
    CyclicPermutations,
    Hypercube,
    Permutations,
    RootedTree,
    Subtrees,
    read_tree_file,
)
from .streams import stream
from .training import (
    MCMC,
    AnnealConfig,
    TrainConfig,
    load_model,
    make_toy_dataset,
    predict_map,
    save_model,
    train,
)

CONFIG_ERROR, ESTIMATOR_ERROR, VERIFY_ERROR = 2, 3, 4


class ConfigError(Exception):
    pass


def parse_space(spec: str):
    """hypercube:D | permutations:D | subtrees:TREEFILE | cycles:N"""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise ConfigError(f"space spec {spec!r} needs an argument after ':'")
    try:
        if kind == "hypercube":
            return Hypercube(int(arg))
        if kind == "permutations":
            return Permutations(int(arg))
        if kind == "subtrees":
            return Subtrees(read_tree_file(arg))
        if kind == "cycles":
            return CyclicPermutations(int(arg))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad space spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown space kind {kind!r}")


def _theta_for(args, space) -> np.ndarray:
    dim = space.feature_dim
    if getattr(args, "theta_file", None):
        with open(args.theta_file) as fh:
            doc = json.load(fh)
        values = doc["theta"] if isinstance(doc, dict) else doc
        theta = np.asarray(values, dtype=float)
        if theta.size != dim:
            raise ConfigError(
                f"theta has {theta.size} entries, space needs {dim}"
            )
        return theta
    if getattr(args, "theta_random", None) is not None:
        return random_unit_theta(dim, stream(args.seed, 101), norm=args.theta_random)
    return np.zeros(dim)


def _target_for(args, space) -> GibbsTarget:
    theta = _theta_for(args, space)
    params = Params(theta, lam=args.lam, norm_budget=args.norm_budget)
    return GibbsTarget(space, params, beta=getattr(args, "beta", 1.0))


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args) -> int:
    space = parse_space(args.space)
    target = _target_for(args, space)
    # price all n draws before the first: one proposal per uniform draw,
    # steps + 1 per approximate draw, the expected depth per exact draw
    steps = None
    if args.sampler == "uniform":
        _check_work(log(args.n), f"{args.n} uniform draws need")
    elif args.sampler == "approx":
        steps = _approx_steps(target, args.eps_tv, args.n)
    else:
        _check_expected_proposals(target, args.n)
    rng = stream(args.seed, 1)
    lines = []
    for _ in range(args.n):
        if args.sampler == "uniform":
            y = space.sample_uniform(rng)
        elif args.sampler == "approx":
            y = sample_approx(target, args.eps_tv, rng)
        else:
            sampler = sample_exact_cftp if args.sampler == "cftp" else sample_rejection
            y, report = sampler(target, rng)
            steps = report.steps_taken
        record = {
            "structure": y.to_json(),
            "score": target.score(y),
            "sampler": args.sampler,
            "steps": steps,
        }
        lines.append(json.dumps(record))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_partition(args) -> int:
    space = parse_space(args.space)
    target = _target_for(args, space)
    mode = EXACT if args.mode == "exact" else APPROXIMATE
    runs = [
        estimate_partition(
            target,
            args.eps,
            p=args.p,
            mode=mode,
            rng=stream(args.seed, 2, r),
            seed=args.seed,
        )
        for r in range(args.runs)
    ]
    estimate = runs[0] if args.runs == 1 else boost_by_median(runs, args.delta)
    doc = estimate.to_json()
    doc["runs"] = args.runs
    if args.oracle:
        ln_z = exact_partition(target)
        doc["oracle_log_value"] = ln_z
        doc["relative_error"] = abs(exp(estimate.log_value - ln_z) - 1.0)
    _emit(args, json.dumps(doc, indent=2) + "\n")
    return 0


def cmd_train(args) -> int:
    if args.data.startswith("toy:"):
        space = parse_space(args.data[len("toy:"):])
        data = make_toy_dataset(space, m=20, rng=stream(args.seed, 3))
    else:
        data, space = load_dataset(args.data)
    config = TrainConfig(
        lam=args.lam,
        max_iters=args.iters,
        step_size=args.step,
        gradient_mode=args.mode,
        mcmc_epsilon=args.mcmc_eps,
        mcmc_delta=args.mcmc_delta,
        tolerance=args.tolerance,
    )
    params, trace = train(data, space, config, rng=stream(args.seed, 4))
    objective = trace.rows[-1].objective  # nan above ENUMERATION_CAP
    save_model(args.model_out, params, space, feature_mode="outer", seed=args.seed)
    if args.trace_out:
        trace.to_csv(args.trace_out)
    sys.stdout.write(
        json.dumps(
            {
                "model": args.model_out,
                "iterations": len(trace.rows),
                "final_objective": None if isnan(objective) else objective,
                "theta_norm": params.theta_norm,
            }
        )
        + "\n"
    )
    return 0


def cmd_predict(args) -> int:
    params, space, _ = load_model(args.model)
    budget = AnnealConfig(args.rungs, args.beta_max, args.steps_per_rung)
    if args.data:
        data, dspace = load_dataset(args.data)
        if dspace.to_descriptor() != space.to_descriptor():
            raise ConfigError("dataset space does not match the model space")
        xs = [inst.x for inst in data.instances]
    else:
        xs = [None]
    rng = stream(args.seed, 5)
    lines = []
    for x in xs:
        y = predict_map(space, x, params, budget, rng)
        target = GibbsTarget(space, params, beta=1.0, x=x)
        lines.append(json.dumps({"structure": y.to_json(), "score": target.score(y)}))
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    checks = run_verification(seed=args.seed, samples=args.samples)
    all_pass = all(c["pass"] for c in checks)
    _emit(args, json.dumps({"all_pass": all_pass, "checks": checks}, indent=2) + "\n")
    return 0 if all_pass else VERIFY_ERROR


def run_verification(seed: int = 20240, samples: int = 50_000) -> list[dict]:
    """Oracle invariant suite; each entry is {name, pass, detail}."""
    checks: list[dict] = []

    def add(name, ok, detail):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    # the four uniformity checks below draw 4 * samples structures
    _check_work(log(4 * max(samples, 1)), f"{4 * samples} uniform draws need")
    small_spaces = [
        Hypercube(4),
        Permutations(3),
        Subtrees(RootedTree((0, 0, 0, 1))),
        CyclicPermutations(4),
    ]
    # uniformity of the exact uniform samplers
    for i, space in enumerate(small_spaces):
        zero = GibbsTarget(space, Params(np.zeros(space.feature_dim)), beta=0.0)
        dist = exact_distribution(zero)
        rng = stream(seed, 10, i)
        draws = [space.sample_uniform(rng) for _ in range(samples)]
        res = chi_square_gof(draws, dist, 0.01)
        add(f"uniformity:{space.kind}", res.passed, {"statistic": res.statistic,
                                                     "threshold": res.threshold})

    # telescoping identity and per-ratio bounds on a random target
    space = Hypercube(6)
    theta = random_unit_theta(space.feature_dim, stream(seed, 11), norm=1.3)
    target = GibbsTarget(space, Params(theta, norm_budget=1.3), beta=1.0)
    schedule = build_schedule(1.0, float(np.linalg.norm(theta)), p=3)
    log_prod = 0.0
    var_ok = True
    p = schedule.p
    f_min, f_max = float("inf"), 0.0
    for i in range(1, schedule.l + 1):
        rho, rel_var = oracle_ratio_moments(schedule, i, target)
        log_prod += log(rho)
        var_ok &= rel_var <= exp(2.0 / p)
        lo, hi = oracle_ratio_range(schedule, i, target)
        f_min, f_max = min(f_min, lo), max(f_max, hi)
    ln_z = exact_partition(target)
    telescoped = log(space.count()) - log_prod
    add("telescoping-identity", abs(telescoped - ln_z) < 1e-9,
        {"telescoped": telescoped, "exact": ln_z})
    band = (exp(-1.0 / p), exp(1.0 / p))
    band_ok = band[0] * (1.0 - 1e-12) <= f_min and f_max <= band[1] * (1.0 + 1e-12)
    add("ratio-band", band_ok,
        {"l": schedule.l, "min_f": f_min, "max_f": f_max, "band": list(band)})
    add("ratio-relative-variance", var_ok, {"bound": exp(2.0 / p)})

    # gradient vs central finite differences
    fd_space = Hypercube(4)
    fd_theta = random_unit_theta(fd_space.feature_dim, stream(seed, 12))
    fd_target = GibbsTarget(fd_space, Params(fd_theta, norm_budget=1.0), beta=1.0)
    grad = exact_gradient(fd_target)
    h = 1e-4
    worst = 0.0
    for j in range(fd_theta.size):
        delta = np.zeros_like(fd_theta)
        delta[j] = h
        up = exact_partition(
            GibbsTarget(fd_space, Params(fd_theta + delta), beta=1.0))
        down = exact_partition(
            GibbsTarget(fd_space, Params(fd_theta - delta), beta=1.0))
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(fd - grad[j]) / max(abs(grad[j]), 1e-12))
    add("gradient-finite-differences", worst <= 1e-6, {"worst_rel_err": worst})

    # Hamiltonicity threshold vs brute force
    graphs = _verification_graphs(seed)
    agree = all(
        hamiltonicity_via_partition(edges, n) == has_hamiltonian_cycle(edges, n)
        for n, edges in graphs
    )
    add("hamiltonicity-agreement", agree, {"graphs": len(graphs)})

    # CFTP sample distribution on a small target
    cftp_space = Hypercube(4)
    cftp_theta = random_unit_theta(cftp_space.feature_dim, stream(seed, 13))
    cftp_target = GibbsTarget(
        cftp_space, Params(cftp_theta, norm_budget=1.0), beta=1.0)
    ys, _ = sample_exact_cftp_batch(cftp_target, samples, stream(seed, 14))
    res = chi_square_gof(ys, exact_distribution(cftp_target), 0.01)
    add("cftp-distribution", res.passed,
        {"statistic": res.statistic, "threshold": res.threshold})
    return checks


def _verification_graphs(seed: int):
    """Complete graphs, paths, stars, cycles, plus seeded random graphs."""
    graphs = []
    for n in range(3, 7):
        graphs.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
        graphs.append((n, [(i, i + 1) for i in range(n - 1)]))          # path
        graphs.append((n, [(0, i) for i in range(1, n)]))               # star
        graphs.append((n, [(i, (i + 1) % n) for i in range(n)]))        # cycle
    rng = stream(seed, 15)
    for _ in range(20):
        n = int(rng.integers(4, 7))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append((n, edges))
    return graphs


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structprob",
        description="Samplers, partition-function estimation and MAP training "
                    "for exponential-family models over combinatorial spaces.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp_parser, space=True):
        sp_parser.add_argument("--seed", type=int, required=True,
                               help="root seed (mandatory, no silent entropy)")
        sp_parser.add_argument("--config", help="JSON file overriding flags")
        sp_parser.add_argument("--out", help="output path (default stdout)")
        if space:
            sp_parser.add_argument("--space", required=True,
                                   help="hypercube:D | permutations:D | "
                                        "subtrees:TREEFILE | cycles:N")
            sp_parser.add_argument("--theta-file", help="JSON theta vector or model file")
            sp_parser.add_argument("--theta-random", type=float, metavar="NORM",
                                   help="random direction with this norm")
            sp_parser.add_argument("--lambda", dest="lam", type=float, default=1.0)
            sp_parser.add_argument("--norm-budget", type=float, default=None)

    p_sample = sub.add_parser("sample", help="draw structures")
    common(p_sample)
    p_sample.add_argument("--beta", type=float, default=1.0)
    p_sample.add_argument("--n", type=int, default=10)
    p_sample.add_argument("--sampler", default="cftp",
                          choices=["cftp", "rejection", "approx", "uniform"])
    p_sample.add_argument("--eps-tv", type=float, default=0.01)
    p_sample.set_defaults(func=cmd_sample)

    p_part = sub.add_parser("partition", help="estimate ln Z")
    common(p_part)
    p_part.add_argument("--eps", type=float, default=0.2)
    p_part.add_argument("--p", type=int, default=3)
    p_part.add_argument("--mode", default="exact", choices=["exact", "approximate"])
    p_part.add_argument("--runs", type=int, default=1,
                        help="independent runs combined by their median")
    p_part.add_argument("--delta", type=float, default=0.25)
    p_part.add_argument("--oracle", action="store_true",
                        help="also report the exact value and relative error")
    p_part.set_defaults(func=cmd_partition)

    p_train = sub.add_parser("train", help="fit a model")
    common(p_train, space=False)
    p_train.add_argument("--data", required=True,
                         help="dataset JSON, or toy:SPACESPEC for bundled toy data")
    p_train.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_train.add_argument("--iters", type=int, default=50)
    p_train.add_argument("--step", type=float, default=None)
    p_train.add_argument("--mode", default="exact", choices=["exact", MCMC])
    p_train.add_argument("--mcmc-eps", type=float, default=0.05)
    p_train.add_argument("--mcmc-delta", type=float, default=0.05)
    p_train.add_argument("--tolerance", type=float, default=1e-6)
    p_train.add_argument("--model-out", default="model.json")
    p_train.add_argument("--trace-out", default=None)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="annealed MAP prediction")
    common(p_pred, space=False)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--data", default=None,
                        help="dataset JSON; omit for one label-only prediction")
    p_pred.add_argument("--rungs", type=int, default=8)
    p_pred.add_argument("--beta-max", type=float, default=10.0)
    p_pred.add_argument("--steps-per-rung", type=int, default=50)
    p_pred.set_defaults(func=cmd_predict)

    p_verify = sub.add_parser("verify", help="run the oracle invariant suite")
    common(p_verify, space=False)
    p_verify.add_argument("--samples", type=int, default=50_000)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _apply_config_file(parser, args) -> None:
    """Override flags from the --config JSON object, coercing each value
    with its flag's argparse type and checking it against its choices."""
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if attr == "lambda":
            attr = "lam"
        action = actions.get(attr)
        if action is None or not hasattr(args, attr):
            raise ConfigError(f"config key {key!r} is not a flag of this command")
        setattr(args, attr, _coerce_config_value(key, value, action))


def _coerce_config_value(key, value, action):
    if value is None:
        if action.default is None and not action.required:
            return None
        raise ConfigError(f"config key {key!r} must not be null")
    if action.nargs == 0:  # on/off switch such as --oracle
        if not isinstance(value, bool):
            raise ConfigError(f"config key {key!r} must be true or false")
        return value
    convert = action.type or str
    if convert is str and not isinstance(value, str):
        raise ConfigError(f"config key {key!r} must be a string, got {value!r}")
    # argparse types parse text; converting the JSON value's text form makes
    # 5.5 an invalid int and true an invalid float instead of coercing them
    try:
        coerced = convert(value if isinstance(value, str) else json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"config key {key!r}: {value!r} is not a valid {convert.__name__}"
        ) from exc
    if action.choices is not None and coerced not in action.choices:
        raise ConfigError(
            f"config key {key!r} must be one of {sorted(action.choices)}"
        )
    return coerced


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(parser, args)
        _validate(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except SamplerFailure as exc:
        print(f"sampler failure: {exc}", file=sys.stderr)
        return ESTIMATOR_ERROR
    except StructProbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR


def _validate(args) -> None:
    if getattr(args, "eps", None) is not None and not 0 < args.eps < 1:
        raise ConfigError(f"eps must be in (0, 1), got {args.eps}")
    if getattr(args, "eps_tv", None) is not None and not 0 < args.eps_tv <= 1:
        raise ConfigError(f"eps-tv must be in (0, 1], got {args.eps_tv}")
    if getattr(args, "beta", None) is not None and not 0 <= args.beta < float("inf"):
        raise ConfigError("beta must be finite and non-negative")
    if getattr(args, "delta", None) is not None and not 0 < args.delta < 1:
        raise ConfigError(f"delta must be in (0, 1), got {args.delta}")
    if getattr(args, "n", None) is not None and args.n < 1:
        raise ConfigError("n must be >= 1")


if __name__ == "__main__":
    sys.exit(main())
