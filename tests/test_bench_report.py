"""The per-layer probes of tools/bench_report.py, run once each in this
checkout with short windows, so that a change to an interface they call
fails here rather than deep into a report run."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WINDOW_S = 0.05


def _load_bench_report():
    spec = importlib.util.spec_from_file_location(
        "bench_report", ROOT / "tools" / "bench_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_report = _load_bench_report()


@pytest.mark.parametrize("spec, tabled", [("hypercube:13", False), ("hypercube:12", True)])
def test_propose_probe(spec, tabled):
    probe = bench_report._propose_rate(ROOT, spec, [64, 8], 1, WINDOW_S)
    assert probe["tabled"] == tabled and probe["rate"] > 0


def test_label_table_probe():
    assert bench_report._label_ms(ROOT, "subtrees:train", WINDOW_S)["ms"] > 0


@pytest.fixture(scope="module")
def draw_cases():
    return bench_report._draw_cases(ROOT)


@pytest.mark.parametrize("mode", ["exact", "approximate"])
def test_draw_probes(draw_cases, mode):
    # the certificate rates (exact) and the approximate draw rates
    assert draw_cases[mode]
    probe = bench_report._draw_rate(ROOT, draw_cases[mode][0], mode, 1, WINDOW_S)
    assert probe["tabled"] and probe["S"] > 0 and probe["ratios"] >= 1 and probe["rate"] > 0


def test_batch_size_probe():
    # the fpras-untabled cycle whose propose batch sizes the rates replay
    mix = bench_report._probe(ROOT, bench_report._MIX_PROBE, str(bench_report.MIX_SEED))
    assert mix["sizes"] and all(mix["sizes"].values())
    assert set(mix["siblings"]) == set(mix["sizes"])


def test_exact_estimate_probe(draw_cases):
    # exact-mode estimate_partition on the first exact request
    probe = bench_report._estimate_rate(ROOT, draw_cases["exact"][0], 1, WINDOW_S)
    assert probe["tabled"] in (True, False) and probe["rate"] > 0
