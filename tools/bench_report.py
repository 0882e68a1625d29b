"""Write a BENCH_<n>.json report: end-to-end medians plus per-layer rates.

End to end, it runs ``bench/run.py --trace 0`` for the ``run_seconds`` of
``BENCHMARK.json`` on every workload there, once per pinned seed
1..REPEATS, and records each run's metrics with their medians and quartiles,
and each run's wall time (``wall_s``: the whole ``bench/run.py`` process,
input writing and output checks included).

Per layer, it measures ``GibbsTarget.propose`` proposals/s on each space of
the ``fpras-untabled`` workload and on its tabled sibling from
``fpras-tabled``, and the milliseconds of one label-table build
(``space.labels()`` on a fresh instance) on each tabled space of the
``fpras-tabled`` and ``train-predict`` workloads.  The batch sizes are the workload's own: one cycle of
``fpras-untabled`` at seed MIX_SEED runs in this checkout with every
``propose`` call's size recorded, and each rate replays that sequence of
sizes (the untabled space's sequence on its tabled sibling too).  It also
measures exact certificate draws/s: ``samplers._cftp_batch_indices`` at
every beta of one exact request's schedule, with that request's per-ratio
sample size, on each exact space of ``fpras-tabled`` at norm 3.4 and of
``fpras-untabled`` at norm 1.15; and approximate draws/s:
``samplers._approx_batch_indices`` the same way, with the request's
per-draw total-variation budget, for each approximate request of
``fpras-tabled``; and exact ln Z estimates/s: ``estimate_partition`` in
exact mode on each of those exact requests (each estimate whole, whatever
estimator the checkout runs in exact mode).  Spaces and directions are built by
``bench/workloads.py``, so the benchmark stays the one place that defines
them.

With ``--parent DIR`` (another checkout, usually the parent commit) both
checkouts are measured, alternating which runs first from one seed to the
next, and the report adds change/parent ratios.  Every run is sequential, so
a report with a parent takes about ``2 * 3 * REPEATS * (run_seconds + 15)``
seconds.

    python3 tools/bench_report.py --out BENCH_8.json --parent ../parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Pinned seeds 1..REPEATS per workload and per propose rate: with a parent,
# REPEATS alternating change/parent pairs.
REPEATS = 10
# The seed of the fpras-untabled cycle whose propose batch sizes are replayed.
MIX_SEED = 1
# Each propose rate replays the recorded sizes whole, repeating them until at
# least this many seconds have passed.
PROPOSE_WINDOW_S = 1.0
# Each label-table time is the median of the builds of this many seconds.
LABELS_WINDOW_S = 0.3
# Each certificate or approximate draw rate replays one request's schedule
# until at least this many seconds have passed.
CERTIFICATE_WINDOW_S = 1.0
# The norm of the exact requests whose schedules the certificate rates replay.
CERTIFICATE_NORMS = {"fpras-tabled": 3.4, "fpras-untabled": 1.15}
# The tabled spaces of fpras-tabled and train-predict.
LABEL_SPECS = ("hypercube:12", "permutations:6", "cycles:7", "subtrees:tabled",
               "hypercube:5", "hypercube:6", "permutations:4", "cycles:5",
               "subtrees:train")

# Run in a fresh interpreter in one checkout, with its src/ and bench/ on the
# path: one fpras-untabled cycle through structprob.cli.main, recording the
# size of every GibbsTarget.propose call on each untabled space.
_MIX_PROBE = """
import contextlib, io, json, os, sys, tempfile
import workloads
from structprob import cli
from structprob.samplers import GibbsTarget
kind = lambda spec: spec.partition(":")[0]
untabled = sorted({t.space for t in workloads.FPRAS_UNTABLED})
tabled = {kind(t.space): t.space for t in workloads.FPRAS_TABLED}
spaces = {spec: workloads.build_space(spec) for spec in untabled}
sizes = {spec: [] for spec in untabled}
propose = GibbsTarget.propose
def recording(self, rng, n):
    for spec, space in spaces.items():
        if self.space == space:
            sizes[spec].append(int(n))
    return propose(self, rng, n)
GibbsTarget.propose = recording
with tempfile.TemporaryDirectory() as work:
    factory = workloads.InputFactory(
        "fpras-untabled", int(sys.argv[1]), os.path.join(work, "inputs"))
    os.chdir(work)
    for req in factory.cycle(0):
        for argv in req.argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    sys.exit(f"request {req.rid} failed")
print(json.dumps({"sizes": sizes, "siblings": {s: tabled[kind(s)] for s in untabled}}))
"""

# Run in a fresh interpreter in one checkout: proposals/s of
# GibbsTarget.propose replaying a sequence of batch sizes, after the table
# (if any) is built.
_PROPOSE_PROBE = """
import json, sys, time
import numpy as np
import workloads
from structprob.model import Params, random_unit_theta
from structprob.samplers import GibbsTarget
space = workloads.build_space(sys.argv[1])
sizes, seed, window = json.loads(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])
theta = random_unit_theta(space.feature_dim, np.random.default_rng(seed), 1.0)
target = GibbsTarget(space, Params(theta, norm_budget=1.0))
target.table
rng = np.random.default_rng(seed)
target.propose(rng, sizes[0])
done, start = 0, time.perf_counter()
while not done or time.perf_counter() - start < window:
    for n in sizes:
        target.propose(rng, n)
    done += sum(sizes)
print(json.dumps({"tabled": target.table is not None,
                  "rate": done / (time.perf_counter() - start)}))
"""

# Run in a fresh interpreter in one checkout: draws/s of _cftp_batch_indices
# (exact) or _approx_batch_indices (approximate, within the request's
# tv_target) over every beta of the schedule of one request (space, norm,
# eps), with the theta direction drawn at seed 0 as the workload draws it,
# the sampling stream at the given seed, and the score tables built before
# the window.
_DRAWS_PROBE = """
import json, sys, time
import numpy as np
import workloads
from structprob.model import FEATURE_NORM_BOUND, Params
from structprob.partition import build_schedule, sample_size, tv_target
from structprob.samplers import GibbsTarget, _approx_batch_indices, _cftp_batch_indices
spec, norm, eps, mode = sys.argv[1], float(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
seed, window = int(sys.argv[5]), float(sys.argv[6])
space = workloads.build_space(spec)
theta = workloads._centred_direction(space, np.random.default_rng(0)) * norm
target = GibbsTarget(space, Params(theta, norm_budget=norm))
target.table
schedule = build_schedule(FEATURE_NORM_BOUND, target.params.theta_norm)
S = sample_size(eps, schedule.l, schedule.p)
eps_tv = tv_target(eps, schedule.l, schedule.p)
draw = ((lambda t: _cftp_batch_indices(t, S, rng)) if mode == "exact"
        else (lambda t: _approx_batch_indices(t, eps_tv, S, rng)))
targets = [target.at_beta(beta) for beta in schedule.betas[1:]]
rng = np.random.default_rng(seed)
draw(targets[0])
done, start = 0, time.perf_counter()
while not done or time.perf_counter() - start < window:
    for t in targets:
        draw(t)
    done += S * len(targets)
print(json.dumps({"tabled": target.table is not None, "S": S, "ratios": len(targets),
                  "rate": done / (time.perf_counter() - start)}))
"""

# Run in a fresh interpreter in one checkout: exact-mode estimate_partition
# calls/s on one request (space, norm, eps), with the theta direction drawn at
# seed 0 as the workload draws it, the stream at the given seed, and the score
# table built before the window.
_ESTIMATES_PROBE = """
import json, sys, time
import numpy as np
import workloads
from structprob.model import Params
from structprob.partition import estimate_partition
from structprob.samplers import GibbsTarget
spec, norm, eps = sys.argv[1], float(sys.argv[2]), float(sys.argv[3])
seed, window = int(sys.argv[4]), float(sys.argv[5])
space = workloads.build_space(spec)
theta = workloads._centred_direction(space, np.random.default_rng(0)) * norm
target = GibbsTarget(space, Params(theta, norm_budget=norm))
target.table
rng = np.random.default_rng(seed)
estimate_partition(target, eps, rng=rng)
done, start = 0, time.perf_counter()
while not done or time.perf_counter() - start < window:
    estimate_partition(target, eps, rng=rng)
    done += 1
print(json.dumps({"tabled": target.table is not None,
                  "rate": done / (time.perf_counter() - start)}))
"""

# The (space, norm, eps) of the requests the draw rates replay, per mode:
# the exact requests at the given norm of each workload, and every
# approximate request of fpras-tabled.
_DRAW_CASES = """
import json, sys
import workloads
norms = json.loads(sys.argv[1])
exact = {(t.space, t.norm, t.eps) for w, norm in norms.items()
         for t in workloads.TEMPLATES[w] if t.mode == "exact" and t.norm == norm}
approximate = {(t.space, t.norm, t.eps) for t in workloads.TEMPLATES["fpras-tabled"]
               if t.mode == "approximate"}
print(json.dumps({"exact": sorted(exact), "approximate": sorted(approximate)}))
"""

# Run in a fresh interpreter in one checkout: milliseconds of one
# space.labels() on a fresh instance, the median over a window.
_LABELS_PROBE = """
import json, statistics, sys, time
import workloads
spec, window = sys.argv[1], float(sys.argv[2])
times, start = [], time.perf_counter()
while len(times) < 3 or time.perf_counter() - start < window:
    space = workloads.build_space(spec)
    t = time.perf_counter()
    space.labels()
    times.append(time.perf_counter() - t)
print(json.dumps({"ms": 1e3 * statistics.median(times)}))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="report file to write")
    parser.add_argument("--parent", type=Path,
                        help="checkout to measure as the parent side")
    return parser.parse_args(argv)


def _git_state(repo: Path) -> dict:
    """HEAD of the checkout, and whether its tracked files differ from it."""
    head = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    diff = subprocess.run(["git", "-C", str(repo), "diff", "--quiet", "HEAD"])
    return {"commit": head.stdout.strip(), "dirty": diff.returncode != 0}


def _bench_run(repo: Path, workload: str, seed: int, seconds: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True, check=True)
    wall_s = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "attempted": result["attempted"], "failed": result["failed"],
            "wall_s": wall_s, **{k: m["value"] for k, m in result["metrics"].items()}}


def _probe(repo: Path, code: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=f"{repo / 'src'}{os.pathsep}{repo / 'bench'}",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          cwd=repo, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def _propose_rate(repo: Path, spec: str, sizes: list[int], seed: int,
                  window: float = PROPOSE_WINDOW_S) -> dict:
    return _probe(repo, _PROPOSE_PROBE, spec, json.dumps(sizes), str(seed), str(window))


def _label_ms(repo: Path, spec: str, window: float = LABELS_WINDOW_S) -> dict:
    return _probe(repo, _LABELS_PROBE, spec, str(window))


def _draw_cases(repo: Path) -> dict:
    """{mode: [(space, norm, eps), ...]} of the requests the draw rates replay."""
    cases = _probe(repo, _DRAW_CASES, json.dumps(CERTIFICATE_NORMS))
    return {mode: [tuple(c) for c in found] for mode, found in cases.items()}


def _draw_rate(repo: Path, case: tuple, mode: str, seed: int,
               window: float = CERTIFICATE_WINDOW_S) -> dict:
    spec, norm, eps = case
    return _probe(repo, _DRAWS_PROBE, spec, repr(norm), repr(eps), mode, str(seed),
                  str(window))


def _estimate_rate(repo: Path, case: tuple, seed: int,
                   window: float = CERTIFICATE_WINDOW_S) -> dict:
    spec, norm, eps = case
    return _probe(repo, _ESTIMATES_PROBE, spec, repr(norm), repr(eps), str(seed), str(window))


def _alternating(sides, i):
    """Sides in the order of repeat i: reversed on odd repeats."""
    return sides if i % 2 == 0 else sides[::-1]


def _spread(values: list[float]) -> dict:
    """Median and quartiles (the distance between the quartiles is the
    run-to-run spread a gain must exceed)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "quartiles": [q1, q3]}


def _size_summary(sizes: list[int]) -> dict:
    return {"calls": len(sizes), "proposals": sum(sizes),
            "quartiles": statistics.quantiles(sizes, n=4)}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    workloads = [w["name"] for w in bench["workloads"]]
    sides = [("change", ROOT)] + ([("parent", args.parent.resolve())] if args.parent else [])
    seeds = list(range(1, REPEATS + 1))
    # the commits the runs measure: edits made while they run are not measured
    states = {name: _git_state(repo) for name, repo in sides}

    runs = {name: {w: [] for w in workloads} for name, _ in sides}
    for w in workloads:
        for i, seed in enumerate(seeds):
            for name, repo in _alternating(sides, i):
                run = _bench_run(repo, w, seed, seconds)
                runs[name][w].append(run)
                print(f"{name} {w} seed {seed}: {run}", file=sys.stderr)

    mix = _probe(ROOT, _MIX_PROBE, str(MIX_SEED))
    cases = [(spec, sizes) for spec, sizes in mix["sizes"].items()]
    cases += [(mix["siblings"][spec], sizes) for spec, sizes in mix["sizes"].items()]
    rates = {name: {spec: [] for spec, _ in cases} for name, _ in sides}
    tabled = {}
    for spec, sizes in cases:
        for i, seed in enumerate(seeds):
            for name, repo in _alternating(sides, i):
                probe = _propose_rate(repo, spec, sizes, seed)
                rates[name][spec].append(probe["rate"])
                tabled[spec] = probe["tabled"]
        print(f"propose {spec}: " + ", ".join(
            f"{n} {_spread(rates[n][spec])['median']:.3g}/s" for n, _ in sides),
            file=sys.stderr)

    label_ms = {name: {spec: [] for spec in LABEL_SPECS} for name, _ in sides}
    for spec in LABEL_SPECS:
        for i, _ in enumerate(seeds):
            for name, repo in _alternating(sides, i):
                probe = _label_ms(repo, spec)
                label_ms[name][spec].append(probe["ms"])
        print(f"labels {spec}: " + ", ".join(
            f"{n} {_spread(label_ms[n][spec])['median']:.3g} ms" for n, _ in sides),
            file=sys.stderr)

    draw_cases = _draw_cases(ROOT)
    draws = {name: {mode: {spec: [] for spec, *_ in found} for mode, found in draw_cases.items()}
             for name, _ in sides}
    draw_info = {mode: {} for mode in draw_cases}
    for mode, found in draw_cases.items():
        for case in found:
            spec, norm, eps = case
            for i, seed in enumerate(seeds):
                for name, repo in _alternating(sides, i):
                    probe = _draw_rate(repo, case, mode, seed)
                    draws[name][mode][spec].append(probe["rate"])
                    draw_info[mode][spec] = {"norm": norm, "eps": eps, "tabled": probe["tabled"],
                                             "S": probe["S"], "ratios": probe["ratios"]}
            print(f"{mode} draws {spec}: " + ", ".join(
                f"{n} {_spread(draws[n][mode][spec])['median']:.3g}/s" for n, _ in sides),
                file=sys.stderr)
    draw_metrics = {"exact": "certificate_draws_per_s", "approximate": "approx_draws_per_s"}

    estimates = {name: {spec: [] for spec, *_ in draw_cases["exact"]} for name, _ in sides}
    for case in draw_cases["exact"]:
        spec = case[0]
        for i, seed in enumerate(seeds):
            for name, repo in _alternating(sides, i):
                estimates[name][spec].append(_estimate_rate(repo, case, seed)["rate"])
        print(f"exact estimates {spec}: " + ", ".join(
            f"{n} {_spread(estimates[n][spec])['median']:.3g}/s" for n, _ in sides),
            file=sys.stderr)

    report = {
        "command": f"bench/run.py --trace 0 --seconds {seconds:g}, seeds {seeds}; "
                   f"GibbsTarget.propose replaying the batch sizes of one "
                   f"fpras-untabled cycle at seed {MIX_SEED}, "
                   f"{REPEATS} windows of at least {PROPOSE_WINDOW_S:g} s; "
                   f"space.labels() on fresh instances, {REPEATS} medians over "
                   f"windows of at least {LABELS_WINDOW_S:g} s; "
                   f"_cftp_batch_indices over one exact request's schedule and "
                   f"_approx_batch_indices over one approximate request's, "
                   f"and exact-mode estimate_partition on one exact request, "
                   f"{REPEATS} windows of at least {CERTIFICATE_WINDOW_S:g} s",
        "environment": {
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        "propose_batch_sizes": {
            spec: {"replayed_on": [spec, mix["siblings"][spec]], **_size_summary(sizes)}
            for spec, sizes in mix["sizes"].items()},
        "sides": {
            name: {
                **states[name],
                "end_to_end": {
                    w: {**{m: _spread([r[m] for r in runs[name][w]])
                           for m in metrics + ["wall_s"]},
                        "failed": sum(r["failed"] for r in runs[name][w]),
                        "attempted": sum(r["attempted"] for r in runs[name][w]),
                        "runs": runs[name][w]}
                    for w in workloads},
                "per_layer": {
                    "propose_per_s": {
                        spec: {"tabled": tabled[spec], **_spread(rates[name][spec]),
                               "runs": rates[name][spec]}
                        for spec, _ in cases},
                    "label_table_ms": {
                        spec: {**_spread(label_ms[name][spec]),
                               "runs": label_ms[name][spec]}
                        for spec in LABEL_SPECS},
                    **{draw_metrics[mode]: {
                        spec: {**draw_info[mode][spec], **_spread(draws[name][mode][spec]),
                               "runs": draws[name][mode][spec]}
                        for spec, *_ in found} for mode, found in draw_cases.items()},
                    "exact_estimates_per_s": {
                        spec: {"norm": norm, "eps": eps, "tabled": draw_info["exact"][spec]["tabled"],
                               **_spread(estimates[name][spec]), "runs": estimates[name][spec]}
                        for spec, norm, eps in draw_cases["exact"]}},
            }
            for name, _ in sides
        },
    }
    if args.parent:
        change, parent = report["sides"]["change"], report["sides"]["parent"]
        report["change_over_parent"] = {
            "end_to_end": {
                w: {m: change["end_to_end"][w][m]["median"]
                    / parent["end_to_end"][w][m]["median"] for m in metrics}
                for w in workloads},
            "propose_per_s": {
                spec: change["per_layer"]["propose_per_s"][spec]["median"]
                / parent["per_layer"]["propose_per_s"][spec]["median"]
                for spec, _ in cases},
            "label_table_ms": {
                spec: change["per_layer"]["label_table_ms"][spec]["median"]
                / parent["per_layer"]["label_table_ms"][spec]["median"]
                for spec in LABEL_SPECS},
            **{metric: {
                spec: change["per_layer"][metric][spec]["median"]
                / parent["per_layer"][metric][spec]["median"]
                for spec, *_ in draw_cases[mode]} for mode, metric in draw_metrics.items()},
            "exact_estimates_per_s": {
                spec: change["per_layer"]["exact_estimates_per_s"][spec]["median"]
                / parent["per_layer"]["exact_estimates_per_s"][spec]["median"]
                for spec, *_ in draw_cases["exact"]},
            "throughput_rps_pairs_won": {
                w: sum(c["throughput_rps"] > p["throughput_rps"]
                       for c, p in zip(runs["change"][w], runs["parent"][w]))
                for w in workloads},
        }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
