"""Self-test of the benchmark harness.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import tracer  # noqa: E402
from structprob import cli  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr]


@pytest.fixture
def bench():
    cwd = os.getcwd()
    opened = []

    def make(workload, seed=7):
        opened.append(run.Bench(workload, seed))
        return opened[-1]

    yield make
    for b in opened:
        b.close()
    os.chdir(cwd)


def _traced_call(tr):
    return lambda argv: tr.span("cli.main", cli.main, argv)


@pytest.mark.parametrize("workload", ["fpras-tabled", "fpras-untabled", "train-predict"])
def test_traced_run_writes_identical_artifacts_and_restores(bench, workload):
    b = bench(workload)
    originals = {t: _current(*t) for t in tracer.patch_targets()}
    requests = b.factory.cycle(0)[:2]
    counts = []
    for name in ("plain", "traced", "retraced"):
        run_dir = b.run_dir(name)
        os.chdir(run_dir)
        tr = tracer.Tracer()
        blobs = []
        for req in requests:
            if name == "plain":
                outcome = b.execute(req, cli.main)
            else:
                with tr:
                    assert _current(*tracer.patch_targets()[0]) is not \
                        originals[tracer.patch_targets()[0]]
                    outcome = b.execute(req, _traced_call(tr))
            assert outcome["error"] is None
            assert b.check(req, outcome, run_dir) is None
            blobs.append(run._artifact_bytes(run_dir, req, outcome))
        if name == "plain":
            reference = blobs
        else:
            assert blobs == reference, "traced run changed a CLI artifact"
            counts.append(tr.snapshot())
        assert all(_current(*t) is f for t, f in originals.items()), \
            "a wrapped function was not restored"
    assert counts[0] == counts[1], "counts differ between two traced runs"
    assert counts[0]["cli.main.calls"] == sum(len(r.argvs) for r in requests)


def test_tracer_restores_on_error():
    originals = {t: _current(*t) for t in tracer.patch_targets()}
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("request failed")
    assert all(_current(*t) is f for t, f in originals.items())


def test_calls_outside_request_spans_are_not_counted():
    from structprob import GibbsTarget, Hypercube, Params, exact_partition
    import numpy as np

    target = GibbsTarget(Hypercube(3), Params(np.ones(3)))
    with tracer.Tracer() as tr:
        exact_partition(target)
    assert tr.snapshot() == {}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fpras-tabled", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_match_benchmark_json():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER_UNITS
