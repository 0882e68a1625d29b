import argparse
import json
import os
import re
import subprocess
import sys
import time
import warnings
from math import log

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from structprob import (
    CyclicPermutations,
    Dataset,
    Instance,
    Params,
    Permutations,
    RootedTree,
    Structure,
    Subtrees,
    estimate_partition,
    exact_argmax,
    exact_distribution,
    load_model,
    make_toy_dataset,
    objective,
    random_unit_theta,
    save_dataset,
    save_model,
    stream,
)
from structprob import cli
from structprob.cli import main
from structprob.samplers import MAX_EXPECTED_PROPOSALS, GibbsTarget
from structprob.spaces import Hypercube


def run(args):
    return main(args)


def test_sample_is_deterministic(tmp_path):
    out1, out2, out3 = (tmp_path / f"s{i}.jsonl" for i in range(3))
    base = ["sample", "--space", "hypercube:4", "--beta", "0", "--n", "5"]
    assert run(base + ["--seed", "7", "--out", str(out1)]) == 0
    assert run(base + ["--seed", "7", "--out", str(out2)]) == 0
    assert run(base + ["--seed", "8", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes() != out3.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert len(records) == 5
    for rec in records:
        assert rec["sampler"] == "cftp"
        assert len(rec["structure"]) == 4


def test_sample_subtree_members_only(tmp_path):
    tree = tmp_path / "tree.txt"
    tree.write_text("5\n0 0 0 1 1\n")
    out = tmp_path / "out.jsonl"
    assert run([
        "sample", "--space", f"subtrees:{tree}", "--theta-random", "1.0",
        "--norm-budget", "1.0", "--n", "20", "--seed", "3", "--out", str(out),
    ]) == 0
    from structprob import RootedTree, Subtrees

    space = Subtrees(RootedTree((0, 0, 0, 1, 1)))
    for line in out.read_text().splitlines():
        payload = tuple(json.loads(line)["structure"])
        assert space.contains(Structure("subtrees", payload))


@pytest.mark.parametrize("sampler", ["rejection", "approx", "uniform"])
def test_sample_other_samplers(tmp_path, sampler, capsys):
    assert run([
        "sample", "--space", "permutations:3", "--theta-random", "0.5",
        "--norm-budget", "1.0", "--n", "4", "--seed", "5", "--sampler", sampler,
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert json.loads(line)["sampler"] == sampler


@pytest.mark.parametrize("sampler, name", [("cftp", "sample_exact_cftp"),
                                           ("rejection", "sample_rejection"),
                                           ("approx", "sample_approx")])
def test_sample_makes_one_sampler_call_per_request(monkeypatch, capsys, sampler, name):
    calls = []
    original = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or original(*args))
    assert run(["sample", "--space", "hypercube:3", "--theta-random", "1", "--n", "5",
                "--sampler", sampler, "--seed", "1"]) == 0
    assert len(calls) == 1
    assert len(capsys.readouterr().out.splitlines()) == 5


def test_uniform_draws_make_one_sampler_call_per_request(monkeypatch, capsys):
    calls = []
    for cls in (Hypercube, Permutations, Subtrees, CyclicPermutations):
        def counted(self, rng, n, original=cls.sample_uniform):
            calls.append((self.kind, n))
            return original(self, rng, n)
        monkeypatch.setattr(cls, "sample_uniform", counted)
    assert run(["sample", "--space", "hypercube:3", "--n", "5", "--sampler", "uniform",
                "--seed", "1"]) == 0
    assert calls == [("hypercube", 5)]
    assert len(capsys.readouterr().out.splitlines()) == 5
    calls.clear()
    cli.run_verification(seed=1, samples=200)
    assert calls == [("hypercube", 200), ("permutations", 200), ("subtrees", 200),
                     ("cycles", 200)]


def test_import_leaves_scipy_unloaded():
    # scipy costs most of the import time of the package; only the oracles
    # and the chi-square tests load it, when they are called
    code = ("import sys, structprob, structprob.cli; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_partition_zero_theta_exact(tmp_path, capsys):
    assert run([
        "partition", "--space", "hypercube:6", "--eps", "0.5", "--seed", "2",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["log_value"] == 6 * log(2)
    assert doc["betas"] == [0.0, 1.0]


def test_partition_oracle_flag(capsys):
    assert run([
        "partition", "--space", "hypercube:8", "--theta-random", "1.0",
        "--norm-budget", "1.0", "--eps", "0.2", "--seed", "9", "--oracle",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "oracle_log_value" in doc
    assert doc["relative_error"] <= 0.2  # one seeded run; holds w.p. >> 3/4


def test_main_builds_one_parser_and_keeps_no_state_between_calls(
        tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.9}))
    base = ["partition", "--space", "hypercube:3", "--theta-random", "0.5",
            "--seed", "1"]
    assert run(base + ["--config", str(cfg), "--oracle"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["epsilon"] == 0.9 and "oracle_log_value" in first
    assert run(base) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["epsilon"] == 0.2 and "oracle_log_value" not in second
    with pytest.raises(SystemExit) as bad:
        run(base + ["--no-such-flag"])
    assert bad.value.code == 2
    assert run(base + ["--eps", "0.2"]) == 0
    assert json.loads(capsys.readouterr().out) == second
    assert built.count("structprob") == 1


def test_partition_median_boost(capsys):
    assert run([
        "partition", "--space", "hypercube:4", "--theta-random", "1.0",
        "--norm-budget", "1.0", "--eps", "0.3", "--seed", "4",
        "--runs", "5", "--delta", "0.25", "--oracle",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"] == 5
    assert doc["relative_error"] <= 0.3


def test_partition_one_run_reports_that_run(capsys):
    # one run still goes through the median boost, which returns it unchanged
    argv = ["partition", "--space", "hypercube:3", "--theta-random", "1", "--eps", "0.5",
            "--seed", "1"]
    assert run(argv) == 0
    space = Hypercube(3)
    theta = random_unit_theta(space.feature_dim, stream(1, 101), norm=1.0)
    target = GibbsTarget(space, Params(theta), beta=1.0)
    doc = estimate_partition(target, 0.5, rng=stream(1, 2, 0), seed=1).to_json()
    doc["runs"] = 1
    assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("runs", ["1", "2"])
def test_partition_refuses_too_few_runs_for_delta_before_drawing(
        monkeypatch, capsys, runs):
    def no_draws(*args, **kwargs):
        raise AssertionError("partition drew before refusing")

    monkeypatch.setattr(cli, "check_partition_work", no_draws)
    monkeypatch.setattr(cli, "estimate_partition", no_draws)
    _refused_quickly(capsys, ["partition", "--space", "hypercube:3", "--theta-random",
                              "1", "--seed", "1", "--eps", "0.5", "--delta", "0.05",
                              "--runs", runs],
                     2, f"need at least 72 runs for delta=0.05, got {runs}")


def test_partition_invalid_epsilon_exit_code():
    assert run([
        "partition", "--space", "hypercube:4", "--eps", "1.5", "--seed", "1",
    ]) == 2


def test_unknown_space_exit_code():
    assert run(["sample", "--space", "torus:4", "--seed", "1"]) == 2


def test_missing_seed_is_config_error():
    with pytest.raises(SystemExit) as info:
        run(["sample", "--space", "hypercube:4"])
    assert info.value.code == 2


def test_sampler_budget_exhaustion_exit_code(tmp_path):
    # a tiny lambda makes the derived score bound astronomically large; on an
    # untabled space that bound prices the certificate search, which is
    # refused before its first draw
    code = run([
        "sample", "--space", "hypercube:13", "--theta-random", "1.0",
        "--lambda", "1e-12", "--n", "1", "--seed", "6", "--sampler", "cftp",
    ])
    assert code == 3


def test_removed_sampler_flags_are_config_errors(tmp_path):
    # --max-epochs and sample's --delta are gone, as flags and config keys
    for command, flag in (("sample", "--max-epochs"), ("sample", "--delta"),
                          ("partition", "--max-epochs")):
        with pytest.raises(SystemExit) as info:
            run([command, "--space", "hypercube:3", "--seed", "1", flag, "1"])
        assert info.value.code == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag[2:]: 1}))
        assert run([command, "--space", "hypercube:3", "--seed", "1",
                    "--config", str(cfg)]) == 2


def _refused_quickly(capsys, args, code, pattern):
    """Run args; the exit code, a run under 5 s and stderr matching pattern."""
    start = time.perf_counter()
    assert run(args) == code
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert re.search(pattern, err), err


ESTIMATE = r"about \d\.\de\+\d+ (proposals|steps), above the limit of 1e\+07"


@pytest.mark.parametrize("sampler", ["uniform", "cftp", "rejection", "approx"])
def test_sample_prices_all_draws_before_the_first(capsys, sampler):
    _refused_quickly(capsys, [
        "sample", "--space", "hypercube:3", "--theta-random", "1", "--seed", "1",
        "--n", "1000000000000", "--sampler", sampler,
    ], 3, ESTIMATE)


def test_infinite_certificate_bound_is_refused_without_warnings(capsys):
    # beta*B*R overflows to inf: the tabled price is inf, not a nan from
    # scoring the table at an infinite beta
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _refused_quickly(capsys, [
            "sample", "--seed", "1", "--space", "hypercube:3",
            "--theta-random", "10", "--beta", "1e308",
        ], 3, r"beta\*B\*R = inf expects about inf proposals")


def test_predict_prices_its_proposals_before_the_first_draw(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["train", "--data", "toy:hypercube:3", "--iters", "2", "--seed", "1",
                "--model-out", str(model)]) == 0
    capsys.readouterr()
    base = ["predict", "--model", str(model), "--seed", "1"]
    for count in ("1", "2", "3"):
        assert run(base + ["--proposals", count, "--out", str(tmp_path / "p.jsonl")]) == 0
    _refused_quickly(capsys, base + ["--proposals", "1000000000000"], 3, ESTIMATE)
    for count in ("0", "-1"):
        _refused_quickly(capsys, base + ["--proposals", count], 2,
                         "proposals must be >= 1")


def test_predict_prices_all_inputs_before_the_first(tmp_path, capsys):
    # each input's 999999 proposals are under the limit, the 100 inputs' are not
    space = Hypercube(3)
    model, data = tmp_path / "model.json", tmp_path / "data.json"
    save_model(model, Params(np.zeros(6)), space)
    rng = np.random.default_rng(0)
    instances = [Instance(rng.normal(size=2), Structure("hypercube", (0, 1, 0)))
                 for _ in range(100)]
    save_dataset(data, Dataset(tuple(instances)), space)
    _refused_quickly(capsys, ["predict", "--model", str(model), "--data", str(data),
                              "--proposals", "999999", "--seed", "1"],
                     3, r"MAP prediction for 100 inputs from 999999 proposals each needs "
                        + ESTIMATE)


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_train_rejects_nonpositive_iters(tmp_path, capsys, iters):
    _refused_quickly(capsys, ["train", "--data", "toy:hypercube:3", "--iters", iters,
                              "--seed", "1", "--model-out", str(tmp_path / "m.json")],
                     2, "max_iters must be >= 1")


@pytest.mark.parametrize("mode, pattern", [
    ("exact", r"1000000000000 training iterations over 1 unique inputs, 8 structures "
              r"each, need about 8\.0e\+12 scores, above the limit of 1e\+07"),
    ("mcmc", r"1000000000000 training iterations over 1 unique inputs, 2952 mcmc "
             r"draws per input, expect " + ESTIMATE),
])
def test_train_prices_all_iterations_before_the_first(tmp_path, capsys, mode, pattern):
    _refused_quickly(capsys, ["train", "--data", "toy:hypercube:3", "--mode", mode,
                              "--iters", "1000000000000", "--tolerance", "0",
                              "--seed", "1", "--model-out", str(tmp_path / "m.json")],
                     3, pattern)


def test_tabled_mcmc_training_prices_certificates_at_most_ln_count(tmp_path, capsys):
    # lambda 1e-6 makes the radius about 1442, so exp(2*B) would refuse the
    # run; on a tabled space a certificate expects at most |Y| proposals
    assert run(["train", "--data", "toy:hypercube:3", "--mode", "mcmc",
                "--lambda", "1e-6", "--iters", "2", "--seed", "1",
                "--model-out", str(tmp_path / "m.json")]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 2


@pytest.mark.parametrize("sampler", ["cftp", "rejection", "approx"])
def test_tabled_sample_over_the_limit_is_still_refused(capsys, sampler):
    # each draw is cheap at the exact ceiling, a million of them are not
    _refused_quickly(capsys, [
        "sample", "--space", "hypercube:6", "--theta-random", "40",
        "--norm-budget", "40", "--n", "1000000", "--seed", "1", "--sampler", sampler,
    ], 3, (r"1000000 approximate draws of \d+ steps each at beta\*s_max = [\d.]+ expect "
           if sampler == "approx" else r"1000000 runs at beta\*s_max = [\d.]+ expects ")
        + ESTIMATE)


def test_partition_prices_all_runs_before_the_first(capsys):
    _refused_quickly(capsys, ["partition", "--space", "hypercube:3", "--theta-random",
                              "1", "--runs", "1000000000", "--seed", "1"],
                     3, r"1000000000 partition estimates of \d+ ratios of \d+ draws "
                        r"at beta\*s_max = [\d.]+ expect " + ESTIMATE)
    _refused_quickly(capsys, ["partition", "--space", "hypercube:3", "--runs", "0",
                              "--seed", "1"], 2, "runs must be >= 1")


def test_verify_prices_its_uniform_draws(capsys):
    _refused_quickly(capsys, ["verify", "--seed", "1", "--samples", "1000000000000"],
                     3, r"4000000000000 uniform draws need " + ESTIMATE)


def test_tiny_epsilon_is_a_config_error(capsys):
    # the sample sizes overflow a float: a typed error, not a traceback
    _refused_quickly(capsys, ["partition", "--space", "hypercube:3", "--theta-random",
                              "1", "--eps", "1e-200", "--seed", "1"],
                     2, "epsilon = 1e-200 .*beyond the largest float")


def test_tiny_mcmc_epsilon_is_a_config_error(tmp_path, capsys):
    _refused_quickly(capsys, ["train", "--data", "toy:hypercube:3", "--mode", "mcmc",
                              "--mcmc-eps", "1e-200", "--iters", "1", "--seed", "1",
                              "--model-out", str(tmp_path / "m.json")],
                     2, "epsilon = 1e-200 .*beyond the largest float")


def test_train_prints_valid_json_above_the_table_cap(tmp_path, capsys):
    # hypercube:13 has 8192 structures, above TABLE_CAP: the objective is
    # still recorded, and JSON's NaN (not valid JSON) never appears
    assert run(["train", "--data", "toy:hypercube:13", "--iters", "3", "--seed", "1",
                "--model-out", str(tmp_path / "m.json")]) == 0

    def refuse(constant):
        raise ValueError(f"invalid JSON constant {constant}")

    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert isinstance(doc["final_objective"], float)


def test_config_file_overrides_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "beta": 0.0}))
    assert run([
        "sample", "--space", "hypercube:3", "--n", "9", "--beta", "1.0",
        "--seed", "4", "--config", str(cfg),
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_flag": 1}))
    assert run([
        "sample", "--space", "hypercube:3", "--seed", "4", "--config", str(cfg),
    ]) == 2


def test_config_values_are_coerced_by_flag_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "5", "beta": "0.5"}))
    assert run([
        "sample", "--space", "hypercube:3", "--seed", "4", "--config", str(cfg),
    ]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 5


@pytest.mark.parametrize("overrides", [
    {"n": "five"},
    {"n": 5.5},
    {"n": True},
    {"beta": [1.0]},
    {"sampler": "gibbs"},
    {"space": 3},
    {"n": None},
    {"space": None},
])
def test_config_values_that_do_not_fit_their_flag(tmp_path, capsys, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert run([
        "sample", "--space", "hypercube:3", "--seed", "4", "--config", str(cfg),
    ]) == 2
    assert "config key" in capsys.readouterr().err


def test_partition_config_switch_must_be_boolean(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"oracle": "yes"}))
    assert run([
        "partition", "--space", "hypercube:3", "--seed", "4", "--config", str(cfg),
    ]) == 2


def test_approx_sampler_refuses_an_unrunnable_mixing_bound(capsys):
    # untabled, a draw is priced at min(1/delta_beta, steps + 1) with
    # 1/delta_beta = exp(2*beta*B*R) = exp(60), for 10 draws
    code = run([
        "sample", "--space", "hypercube:13", "--theta-random", "30",
        "--norm-budget", "30", "--sampler", "approx", "--seed", "1",
    ])
    assert code == 3
    assert re.search(r"approximate draws of \d+ steps each at beta\*B\*R = 30 expect about "
                     r"1\.1e\+27 proposals", capsys.readouterr().err)


def test_approx_sampler_runs_a_mixing_bound_above_the_limit(capsys):
    # the chain needs about 1.4e7 steps, but a draw stops at its certificate,
    # which is priced at exp(2*beta*B*R) = 2.0e6 proposals: no dearer than CFTP
    args = ["sample", "--space", "hypercube:13", "--theta-random", "0.5",
            "--norm-budget", "7.25", "--lambda", "0.1", "--eps-tv", "0.001",
            "--n", "1", "--seed", "1", "--sampler"]
    for sampler in ("cftp", "approx"):
        assert run(args + [sampler]) == 0
    cftp, approx = capsys.readouterr().out.splitlines()
    assert json.loads(approx)["steps"] > MAX_EXPECTED_PROPOSALS


def test_train_and_predict_round_trip(tmp_path, capsys):
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.csv"
    assert run([
        "train", "--data", "toy:hypercube:4", "--lambda", "1.0",
        "--iters", "15", "--seed", "12",
        "--model-out", str(model), "--trace-out", str(trace),
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    lines = trace.read_text().strip().splitlines()
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs, reverse=True)
    # the reported objective is the saved model's
    params, space, _ = load_model(model)
    data = make_toy_dataset(space, m=20, rng=stream(12, 3))
    assert report["iterations"] == len(objs) == 15
    assert report["final_objective"] == objs[-1] == objective(
        params.theta, data, space, 1.0)

    model2 = tmp_path / "model2.json"
    assert run([
        "train", "--data", "toy:hypercube:4", "--lambda", "1.0",
        "--iters", "15", "--seed", "12", "--model-out", str(model2),
    ]) == 0
    capsys.readouterr()
    assert model.read_bytes() == model2.read_bytes()

    out = tmp_path / "pred.jsonl"
    assert run([
        "predict", "--model", str(model), "--seed", "13", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text().splitlines()[0])["structure"]
    assert len(payload) == 4


def test_predict_matches_oracle_argmax(tmp_path):
    space = Hypercube(4)
    planted = Structure("hypercube", (1, 0, 1, 1))
    # signed weights so the planted structure wins strictly, margin 2
    bits = np.array(planted.payload, dtype=float)
    theta = 4.0 * (2.0 * bits - 1.0)
    model = tmp_path / "model.json"
    save_model(model, Params(theta), space, feature_mode="label-only", seed=0)
    out = tmp_path / "pred.jsonl"
    assert run(["predict", "--model", str(model), "--seed", "21",
                "--out", str(out)]) == 0
    got = tuple(json.loads(out.read_text().splitlines()[0])["structure"])
    best = exact_argmax(GibbsTarget(space, Params(theta), beta=1.0))
    assert got == best.payload == planted.payload


def test_train_predict_with_real_input_features(tmp_path):
    # outer-product features: theta lives in (input dim) x (indicator dim)
    import structprob as sp

    rng = np.random.default_rng(200)
    space = Hypercube(3)
    true_theta = sp.random_unit_theta(6, rng, norm=2.0)
    instances = []
    for _ in range(10):
        x = rng.normal(size=2)
        target = GibbsTarget(space, Params(true_theta), beta=1.0, x=x)
        (y,), _ = sp.sample_exact_cftp(target, 1, rng)
        instances.append(sp.Instance(x, y))
    data_path = tmp_path / "outer.json"
    sp.save_dataset(data_path, sp.Dataset(tuple(instances)), space)

    model = tmp_path / "outer_model.json"
    assert run([
        "train", "--data", str(data_path), "--lambda", "0.5", "--iters", "15",
        "--seed", "33", "--model-out", str(model),
    ]) == 0
    out = tmp_path / "outer_pred.jsonl"
    assert run([
        "predict", "--model", str(model), "--data", str(data_path),
        "--seed", "34", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    for line in lines:
        payload = tuple(json.loads(line)["structure"])
        assert space.contains(Structure("hypercube", payload))


@pytest.mark.parametrize("seed", [0, 3])
def test_verify_passes_at_the_default_sample_count(seed):
    # seed 0 failed uniformity:hypercube when each of the five chi-square
    # checks ran at level 0.01 on 50,000 draws; seed 3 failed
    # uniformity:cycles under an earlier cycle sampler
    assert run(["verify", "--seed", str(seed), "--out", os.devnull]) == 0


def _verify_laws(seed=20240):
    """The exact laws verify's five chi-square checks test against."""
    spaces = [Hypercube(4), Permutations(3), Subtrees(RootedTree((0, 0, 0, 1))),
              CyclicPermutations(4)]
    laws = [np.full(space.count(), 1.0 / space.count()) for space in spaces]
    theta = random_unit_theta(4, stream(seed, 13))
    laws.append(exact_distribution(
        GibbsTarget(Hypercube(4), Params(theta, norm_budget=1.0))).probs)
    return laws


def test_verify_checks_keep_their_power_at_the_split_level():
    # Pearson's statistic under a bias q of the checked law p is noncentral
    # chi-square with lambda = n * sum (q - p)^2 / p, whatever the bias.  So
    # the old checks (level 0.01, 50,000 draws) and the new ones are compared
    # over every lambda at which the old check caught its bias at least one
    # time in ten.
    from scipy import stats

    level = cli.VERIFY_LEVEL / 5
    ratio = cli.VERIFY_SAMPLES / 50_000
    for law in _verify_laws():
        dof = len(law) - 1
        old_t, new_t = stats.chi2.isf(0.01, dof), stats.chi2.isf(level, dof)
        for lam in np.linspace(0.05, 80.0, 400):
            old = stats.ncx2.sf(old_t, dof, lam)
            if 0.1 <= old:
                assert stats.ncx2.sf(new_t, dof, ratio * lam) >= old, (dof, lam)


def test_verify_checks_power_against_planted_biased_samplers():
    # a sampler that returns the checked law's rarest cell with extra
    # probability b, with b set so the old check caught it half the time:
    # the rejection rates of 4,000 simulated checks on each side
    from scipy import optimize, stats

    rng = np.random.default_rng(130)
    for law in _verify_laws():
        k, dof = int(np.argmin(law)), len(law) - 1
        old_t = stats.chi2.isf(0.01, dof)
        lam = optimize.brentq(lambda x: stats.ncx2.sf(old_t, dof, x) - 0.5, 1e-6, 200.0)
        # sum (q - p)^2 / p = b^2 (1 - p_k) / p_k for q = (1 - b) p + b e_k
        b = np.sqrt(lam / (50_000 * (1.0 - law[k]) / law[k]))
        biased = (1.0 - b) * law + b * np.eye(len(law))[k]
        rates = []
        for level, n in ((0.01, 50_000), (cli.VERIFY_LEVEL / 5, cli.VERIFY_SAMPLES)):
            counts = rng.multinomial(n, biased, size=4000)
            statistic = ((counts - n * law) ** 2 / (n * law)).sum(axis=1)
            rates.append(float((statistic > stats.chi2.isf(level, dof)).mean()))
        assert abs(rates[0] - 0.5) < 0.04, rates
        assert rates[1] > rates[0], rates


def test_verify_fails_on_a_planted_biased_sampler(monkeypatch, capsys):
    sample_uniform = CyclicPermutations.sample_uniform

    def biased(self, rng, n):
        rows = sample_uniform(self, rng, n)
        rows[rng.random(n) < 0.02] = rows[0]
        return rows

    monkeypatch.setattr(CyclicPermutations, "sample_uniform", biased)
    assert run(["verify", "--seed", "3"]) == 4
    checks = {c["name"]: c["pass"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert [name for name, ok in checks.items() if not ok] == ["uniformity:cycles"]


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--seed", "20240", "--samples", "20000",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["all_pass"]
    names = {c["name"] for c in doc["checks"]}
    assert "telescoping-identity" in names
    assert "hamiltonicity-agreement" in names
    assert "ratio-relative-variance" in names
    assert all(c["pass"] for c in doc["checks"])


def test_partition_refuses_hopeless_exact_sampling(capsys):
    # about 1.6e9 expected proposals over 120 ratios: refused with the
    # estimate, not run; likewise about 1.9e9 proposals of approximate draws
    for space, norm, extra in (("hypercube:6", "40", ["--eps", "0.2"]),
                               ("hypercube:12", "5", ["--eps", "0.01", "--mode",
                                                      "approximate"])):
        start = time.perf_counter()
        code = run([
            "partition", "--space", space, "--theta-random", norm,
            "--norm-budget", norm, "--seed", "1", *extra,
        ])
        assert code == 3
        assert time.perf_counter() - start < 5.0
        assert re.search(r"about \d\.\de\+\d+ proposals", capsys.readouterr().err)
    # finite entries whose norm overflows are a configuration error
    start = time.perf_counter()
    assert run(["partition", "--space", "hypercube:6", "--theta-random", "1e200",
                "--seed", "1"]) == 2
    assert time.perf_counter() - start < 5.0
    assert "finite norm" in capsys.readouterr().err


JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just([1]))


def _small_or_hopeless(small):
    # either cheap to run or far past the sampler refusals: the band in
    # between is legitimately slow and has no place in a property test
    return st.one_of(small, st.floats(40.0, 1000.0), st.floats(1e3, 1e150))


def _cli_config(draw, flags):
    """A --config object: each flag absent or given a good value, and now
    and then one flag given a bad value or one of the wrong type."""
    doc = {key: draw(good) for key, (good, _) in flags.items() if draw(st.booleans())}
    if draw(st.integers(0, 2)) == 0:
        key = draw(st.sampled_from(sorted(flags)))
        doc[key] = draw(st.one_of(flags[key][1], JUNK))
    return doc


def _space_flag(good):
    return (st.sampled_from(good), st.sampled_from(["cycles:2", "bogus:3", "hypercube:x"]))


def _count_flag(small):
    # small, not positive, or past the up-front refusal: every command
    # refuses any of its counts above 1e7 before its first draw
    return (st.one_of(small, st.integers(-2, 0), st.integers(10**7 + 1, 10**15)),
            st.sampled_from([1.5, "many"]))


@st.composite
def sample_configs(draw):
    return _cli_config(draw, {
        "space": _space_flag(["hypercube:3", "permutations:3", "cycles:4", "hypercube:13"]),
        "theta-random": (_small_or_hopeless(st.floats(-1.5, 1.5)),
                         st.sampled_from([float("nan"), float("inf"), 1e200])),
        "norm-budget": (_small_or_hopeless(st.floats(0.1, 1.5)),
                        st.sampled_from([0.0, -1.0, float("nan"), float("inf")])),
        "lambda": (st.sampled_from([1.0, 0.5, 1e-12]),
                   st.sampled_from([0.0, -1.0, 1e-320, float("nan")])),
        "beta": (st.sampled_from([0.0, 0.5, 1.0, 4.0]),
                 st.sampled_from([-1.0, float("inf"), float("nan"), 1e300])),
        "n": _count_flag(st.integers(1, 3)),
        "sampler": (st.sampled_from(["cftp", "rejection", "approx", "uniform"]),
                    st.just("gibbs")),
        "eps-tv": (st.sampled_from([0.05, 0.5, 1.0]), st.sampled_from([0.0, 2.0])),
    })


@st.composite
def partition_configs(draw):
    return _cli_config(draw, {
        "space": _space_flag(["hypercube:3", "permutations:3", "cycles:4"]),
        "theta-random": (_small_or_hopeless(st.floats(0.0, 1.5)),
                         st.sampled_from([float("nan"), float("inf"), 1e200])),
        "norm-budget": (_small_or_hopeless(st.floats(0.1, 1.5)),
                        st.sampled_from([0.0, float("nan"), float("inf")])),
        "lambda": (st.sampled_from([1.0, 1e-12]),
                   st.sampled_from([0.0, 1e-320, float("nan"), float("inf")])),
        # eps below 1e-4 is refused up front, below about 1e-154 as a config error
        "eps": (st.one_of(st.sampled_from([0.5, 0.9]),
                          st.floats(-300.0, -4.0).map(lambda e: 10.0**e)),
                st.sampled_from([0.0, 1.0, float("nan")])),
        "p": (st.integers(3, 5), st.integers(-1, 2)),
        "mode": (st.sampled_from(["exact", "approximate"]), st.just("gibbs")),
        "runs": _count_flag(st.integers(1, 2)),
        "delta": (st.sampled_from([0.25, 0.05]), st.sampled_from([0.0, 2.0])),
        "oracle": (st.booleans(), st.just("yes")),
    })


@st.composite
def train_configs(draw):
    return _cli_config(draw, {
        "iters": _count_flag(st.integers(1, 3)),
        "mode": (st.sampled_from(["exact", "mcmc"]), st.just("gibbs")),
        "lambda": (st.sampled_from([1.0, 0.5, 1e-12]),
                   st.sampled_from([0.0, -1.0, float("nan")])),
        "mcmc-eps": (st.sampled_from([0.05, 0.2]), st.sampled_from([0.0, 1e-200])),
    })


@st.composite
def predict_configs(draw):
    return _cli_config(draw, {
        "proposals": _count_flag(st.integers(1, 3)),
    })


@st.composite
def verify_configs(draw):
    return _cli_config(draw, {"samples": _count_flag(st.integers(1, 3))})


CONFIGS = {"sample": sample_configs, "partition": partition_configs,
           "train": train_configs, "predict": predict_configs, "verify": verify_configs}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.one_of(*(st.tuples(st.just(command), configs())
                        for command, configs in CONFIGS.items())))
@example(case=("train", {"iters": 0}))
def test_any_config_exits_with_a_documented_code(tmp_path, case):
    command, doc = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    model = tmp_path / "model.json"
    save_model(model, Params(np.zeros(3)), Hypercube(3))
    args = {"sample": ["--space", "hypercube:3"],
            "partition": ["--space", "hypercube:3"],
            "train": ["--data", "toy:hypercube:3", "--model-out", str(model)],
            "predict": ["--model", str(model)],
            # the whole suite at the default 50000 samples takes seconds
            "verify": ["--samples", "3"]}[command]
    start = time.perf_counter()
    code = run([command, *args, "--seed", "3", "--config", str(cfg),
                "--out", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)
    assert time.perf_counter() - start < 5.0
