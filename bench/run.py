#!/usr/bin/env python3
"""structprob benchmark: closed-loop CLI workloads with a traced per-layer run.

Usage (from the repository root)::

    python3 bench/run.py --workload fpras-tabled --seed 1 --seconds 30 --trace 0

One client sends requests to ``structprob.cli.main`` in this process, each
after the previous one completes, for at least ``--seconds`` seconds of
timed wall time and at least 100 requests, in whole cycles of the
workload's request mix.  Every output is checked after the timed phase.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a fixed list of requests runs once untraced and twice traced, and the
metrics are per-layer counts and self times.  See bench/README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported anywhere in this process or
# in the set-up probes it starts (they inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_PARENT = ROOT / ".bench_work"

# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
# The timed loop stops after this much wall time even below MIN_REQUESTS.
MAX_TIMED_S = 120.0
SETUP_PROBES = 5
# The traced run covers this many cycles of the workload.
TRACE_CYCLES = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# name -> unit; every per-layer metric is reported on every workload (0 where
# the layer does no work).
PER_LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "partition.estimate_partition.calls": "count",
    "partition.estimate_partition.self_s": "s",
    "partition.estimate_ratio.calls": "count",
    "partition.estimate_ratio.self_s": "s",
    "partition.draws": "count",
    "samplers.table_build.calls": "count",
    "samplers.table_build.self_s": "s",
    "samplers.cftp_batch.calls": "count",
    "samplers.cftp_batch.draws": "count",
    "samplers.cftp_batch.proposals": "count",
    "samplers.cftp_batch.self_s": "s",
    "samplers.cftp_batch.max_depth": "count",
    "samplers.cftp_scalar.draws": "count",
    "samplers.cftp_scalar.proposals": "count",
    "samplers.cftp_scalar.self_s": "s",
    "samplers.proposal.calls": "count",
    "samplers.proposal.self_s": "s",
    "samplers.cftp.draws_per_proposal": "ratio",
    "samplers.cftp.draws_per_proposal_floor": "ratio",
    "samplers.approx_batch.draws": "count",
    "samplers.approx_batch.steps": "count",
    "samplers.approx_batch.self_s": "s",
    **{f"spaces.{kind}.sample_uniform.{what}": unit
       for kind in ("hypercube", "permutations", "subtrees", "cycles")
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    "spaces.enumerate.calls": "count",
    "spaces.output_features.calls": "count",
    "model.joint_features.calls": "count",
    "model.joint_features.self_s": "s",
    "oracle.exact_partition.calls": "count",
    "oracle.exact_partition.self_s": "s",
    "oracle.exact_gradient.calls": "count",
    "oracle.exact_gradient.self_s": "s",
    "training.train.calls": "count",
    "training.train.self_s": "s",
    "training.iterations": "count",
    "training.gradient.self_s": "s",
    "training.objective.self_s": "s",
    "training.predict_map.calls": "count",
    "training.predict_map.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # set up, report the time, exit
    return parser.parse_args(argv)


def _monotonic() -> float:
    # CLOCK_MONOTONIC is system-wide, so set-up probes and this process can
    # compare readings.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    """One benchmark process: work directory, inputs and the request runner."""

    def __init__(self, workload: str, seed: int):
        from structprob import cli

        import workloads

        self.cli = cli
        self.workloads = workloads
        WORK_PARENT.mkdir(exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT)
        self.factory = workloads.InputFactory(
            workload, seed, os.path.join(self.work, "inputs"))

    def close(self):
        os.chdir(ROOT)
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()  # only when no other run is using it

    def run_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self):
        """Inputs of the first cycle plus one warm-up request per kind."""
        first = self.factory.cycle(0)
        os.chdir(self.run_dir("warmup"))
        for req in self.factory.warmups():
            outcome = self.execute(req, self.cli.main)
            if outcome["error"]:
                raise RuntimeError(f"warm-up request failed: {outcome['error']}")
        return first

    def execute(self, req, call) -> dict:
        """Run the CLI calls of ``req`` in the current directory."""
        stdouts, error = [], None
        start = time.perf_counter()
        for argv in req.argvs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = call(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception as exc:  # a traceback is a failed request
                error = f"raised {exc!r}"
                break
            stdouts.append(out.getvalue())
            if code != 0:
                error = f"exit {code}: {err.getvalue().strip()[:200]}"
                break
        return {"latency": time.perf_counter() - start, "stdouts": stdouts,
                "error": error}

    def check(self, req, outcome, run_dir: str):
        if outcome["error"]:
            return outcome["error"]
        return self.workloads.check_request(req, run_dir, outcome["stdouts"])


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready for requests."""
    times = []
    for _ in range(SETUP_PROBES):
        start = _monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        times.append(ready - start)
    return times


def run_untraced(args, bench: Bench):
    cycle = bench.setup()
    gc.collect()
    run_dir = bench.run_dir("out")
    os.chdir(run_dir)
    done, cycle_s = [], []
    timed, index = 0.0, 0
    while True:
        start = time.perf_counter()
        for req in cycle:
            done.append((req, bench.execute(req, bench.cli.main)))
        cycle_s.append(time.perf_counter() - start)
        timed += cycle_s[-1]
        index += 1
        if timed >= args.seconds and len(done) >= MIN_REQUESTS or timed >= MAX_TIMED_S:
            break
        cycle = bench.factory.cycle(index)  # untimed: inputs of the next cycle
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_times = measure_setup(args)

    failures = []
    for req, outcome in done:
        reason = bench.check(req, outcome, run_dir)
        if reason:
            failures.append(f"{req.rid} ({req.kind}): {reason}")
    latencies_ms = sorted(o["latency"] * 1e3 for _, o in done)
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "throughput_rps": len(done) / timed,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "requests": len(done),
        "cycles": index,
        "timed_s": timed,
        "cycle_s": cycle_s,
        "latency_samples": len(latencies_ms),
        "failed_frac": len(failures) / len(done),
        "setup_probes_s": setup_times,
        "failures": failures[:10],
    }
    units = END_TO_END_UNITS
    return len(done), failures, {k: (v, units[k]) for k, v in metrics.items()}, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _artifact_bytes(run_dir: str, req, outcome) -> list[bytes]:
    """Primary outputs of a request; the train trace's wall-clock column is
    diagnostic and dropped."""
    blobs = [s.encode() for s in outcome["stdouts"]]
    for name in req.artifacts:
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            blobs.append(b"<missing>")
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if name.endswith(".trace.csv"):
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        blobs.append(data)
    return blobs


def layer_check(req, delta: dict, workload: str, stdouts) -> str | None:
    """Counts at layer boundaries that must agree, for one traced request."""
    if req.kind.startswith("partition"):
        drawn = sum(delta.get(f"samplers.{k}.draws", 0)
                    for k in ("cftp_batch", "cftp_scalar", "approx_batch"))
        if delta.get("partition.draws", 0) != drawn:
            return f"partition.draws {delta.get('partition.draws', 0)} != sampler draws {drawn}"
        if workload == "fpras-untabled" and (
                delta.get("samplers.cftp_scalar.proposals", 0)
                != delta.get("samplers.proposal.calls", 0)):
            return "cftp_scalar.proposals != proposal.calls"
    else:
        reported = json.loads(stdouts[0])["iterations"]
        rows = delta.get("training.trace_rows", 0)
        if not delta.get("training.iterations", 0) == rows == reported:
            return "training.iterations disagrees with the returned trace rows"
    return None


def traced_failure(bench, req, workload, dirs, outcomes, deltas) -> str | None:
    """Why one request of the traced run failed, or None."""
    reason = bench.check(req, outcomes["plain"], dirs["plain"])
    if reason:
        return reason
    for name in ("traced", "retraced"):
        if outcomes[name]["error"]:
            return f"{name} pass: {outcomes[name]['error']}"
    plain = _artifact_bytes(dirs["plain"], req, outcomes["plain"])
    for name in ("traced", "retraced"):
        if _artifact_bytes(dirs[name], req, outcomes[name]) != plain:
            return f"{name} pass wrote different artifacts than the untraced pass"
    if deltas["traced"] != deltas["retraced"]:
        return "counts differ between the two traced passes"
    return layer_check(req, deltas["traced"], workload, outcomes["traced"]["stdouts"])


def run_traced(args, bench: Bench):
    from tracer import Tracer

    bench.setup()
    requests = [req for i in range(TRACE_CYCLES) for req in bench.factory.cycle(i)]
    gc.collect()
    dirs = {name: bench.run_dir(name) for name in ("plain", "traced", "retraced")}
    tracers = {"traced": Tracer(), "retraced": Tracer()}
    wall = {"plain": 0.0, "traced": 0.0}
    failures = []

    for i, req in enumerate(requests):
        order = ["plain", "traced"] if i % 2 == 0 else ["traced", "plain"]
        outcomes, deltas = {}, {}
        for name in order + ["retraced"]:
            os.chdir(dirs[name])
            if name == "plain":
                outcomes[name] = bench.execute(req, bench.cli.main)
            else:
                tr = tracers[name]
                before = tr.snapshot()
                with tr:
                    outcomes[name] = bench.execute(
                        req, lambda argv, tr=tr: tr.span("cli.main", bench.cli.main, argv))
                after = tr.snapshot()
                deltas[name] = {k: v - before.get(k, 0) for k, v in after.items()}
            if name in wall:
                wall[name] += outcomes[name]["latency"]
        reason = traced_failure(bench, req, args.workload, dirs, outcomes, deltas)
        if reason:
            failures.append(f"{req.rid} ({req.kind}): {reason}")

    tr = tracers["traced"]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        base, _, what = name.rpartition(".")
        if what == "calls":
            metrics[name] = tr.calls.get(base, 0)
        elif what == "self_s":
            metrics[name] = tr.self_s.get(base, 0.0)
        else:
            metrics[name] = tr.counts.get(name, 0)
    draws = metrics["samplers.cftp_batch.draws"] + metrics["samplers.cftp_scalar.draws"]
    proposals = (metrics["samplers.cftp_batch.proposals"]
                 + metrics["samplers.cftp_scalar.proposals"])
    metrics["samplers.cftp.draws_per_proposal"] = draws / proposals if proposals else 0.0
    metrics["samplers.cftp.draws_per_proposal_floor"] = (
        draws / tr.floor_proposals if tr.floor_proposals else 0.0)
    metrics["trace.overhead_frac"] = wall["traced"] / wall["plain"] - 1.0
    detail = {
        "requests": len(requests),
        "plain_wall_s": wall["plain"],
        "traced_wall_s": wall["traced"],
        "failures": failures[:10],
    }
    units = PER_LAYER_UNITS
    return len(requests), failures, {k: (v, units[k]) for k, v in metrics.items()}, detail


# ---------------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "structprob" / "__init__.py").is_file():
        print(f"error: no structprob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        if args.setup_probe:
            bench.setup()
            print(json.dumps({"ready": _monotonic()}))
            return 0
        runner = run_traced if args.trace else run_untraced
        attempted, failures, metrics, detail = runner(args, bench)
    finally:
        bench.close()
    print(json.dumps({"environment": environment(args)}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
