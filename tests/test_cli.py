import json
from math import log

import numpy as np
import pytest

from structprob import Params, Structure, exact_argmax, save_model
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
    # the certificate never fires within a zero-doubling budget
    code = run([
        "sample", "--space", "hypercube:4", "--theta-random", "1.0",
        "--lambda", "1e-12", "--n", "1", "--seed", "6",
        "--sampler", "cftp", "--max-epochs", "0", "--delta", "0.5",
    ])
    assert code == 3


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
    capsys.readouterr()
    lines = trace.read_text().strip().splitlines()
    objs = [float(line.split(",")[1]) for line in lines[1:]]
    assert objs == sorted(objs, reverse=True)

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
