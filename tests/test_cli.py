import json
import re
import time
from math import log

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from structprob import (
    Params,
    Structure,
    exact_argmax,
    load_model,
    make_toy_dataset,
    objective,
    save_model,
    stream,
)
from structprob.cli import main
from structprob.samplers import GibbsTarget
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


def test_partition_median_boost(capsys):
    assert run([
        "partition", "--space", "hypercube:4", "--theta-random", "1.0",
        "--norm-budget", "1.0", "--eps", "0.3", "--seed", "4",
        "--runs", "5", "--delta", "0.25", "--oracle",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["runs"] == 5
    assert doc["relative_error"] <= 0.3


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
    # a tiny lambda makes the derived score bound astronomically large, so
    # the certificate search is refused before its first draw
    code = run([
        "sample", "--space", "hypercube:4", "--theta-random", "1.0",
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


def test_predict_prices_its_ladder_before_the_first_draw(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["train", "--data", "toy:hypercube:3", "--iters", "2", "--seed", "1",
                "--model-out", str(model)]) == 0
    capsys.readouterr()
    base = ["predict", "--model", str(model), "--seed", "1"]
    _refused_quickly(capsys, base + ["--rungs", "1000000000000",
                                     "--steps-per-rung", "0"], 3, ESTIMATE)
    _refused_quickly(capsys, base + ["--steps-per-rung", "1000000000000"], 3,
                     ESTIMATE)
    _refused_quickly(capsys, base + ["--steps-per-rung", "-1"], 2, "steps_per_rung")


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
    code = run([
        "sample", "--space", "hypercube:6", "--theta-random", "30",
        "--norm-budget", "30", "--sampler", "approx", "--seed", "1",
    ])
    assert code == 3
    assert "steps" in capsys.readouterr().err


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
        y, _ = sp.sample_exact_cftp(target, rng)
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
    # about 2.5e20 expected proposals: refused with the estimate, not run;
    # likewise about 4e12 proposals of approximate chains
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
        # n past 1e7 is refused up front for every sampler
        "n": (st.one_of(st.integers(1, 3), st.integers(10**7 + 1, 10**15)),
              st.integers(-2, 0)),
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
        "runs": (st.integers(1, 2), st.integers(-1, 0)),
        "delta": (st.sampled_from([0.25, 0.05]), st.sampled_from([0.0, 2.0])),
        "oracle": (st.booleans(), st.just("yes")),
    })


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["sample", "partition"]), data=st.data())
def test_any_config_exits_with_a_documented_code(tmp_path, command, data):
    doc = data.draw(sample_configs() if command == "sample" else partition_configs())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = run([command, "--space", "hypercube:3", "--seed", "3",
                "--config", str(cfg), "--out", str(out)])
    assert code in (0, 2, 3)
