"""Digest the pinned-seed artifacts of one checkout, or compare two.

Runs a fixed list of ``structprob`` CLI commands (partitions, samples,
training and prediction on tabled spaces of each kind, plus a few untabled
requests and ``verify``) and the first CYCLES cycles of each benchmark
workload at seed SEED, in a fresh interpreter with the checkout's src/ and
bench/ on the path.  Each artifact is the command's stdout and its output
files, hashed with SHA-256; training traces drop their wall-time column.
With ``--parent DIR`` both checkouts run and the artifacts whose digests
differ are listed; the exit status is 1 if any do.

    python3 tools/artifact_digests.py --parent ../parent --work ../digests
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = 7
CYCLES = 2

# Run in a fresh interpreter in one checkout, in an empty working directory;
# prints {artifact name: digest} as JSON.
_CHILD = r"""
import contextlib, hashlib, io, json, os, sys
import workloads
from structprob import cli

seed, cycles = int(sys.argv[1]), int(sys.argv[2])
with open("tree.txt", "w") as fh:
    fh.write("7 0 0 0 1 1 2 2\n")

def commands():
    for space in ("hypercube:8", "permutations:5", "cycles:6", "subtrees:tree.txt"):
        name = space.split(":")[0]
        on = ["--space", space, "--seed", "11"]
        yield f"{name}/partition-exact", on + ["--theta-random", "2.0", "--eps", "0.4",
                                              "--oracle"], []
        yield f"{name}/partition-approximate", on + ["--theta-random", "1.5", "--eps",
                                                    "0.4", "--mode", "approximate"], []
        for sampler in ("cftp", "rejection", "approx", "uniform"):
            yield f"{name}/sample-{sampler}", on + ["--theta-random", "2.0", "--n", "300",
                                                   "--sampler", sampler], []
        toy = ["--data", f"toy:{space}", "--seed", "13", "--model-out", "model.json",
               "--trace-out", "trace.csv"]
        yield f"{name}/train-mcmc", toy + ["--mode", "mcmc", "--iters", "3",
                                          "--mcmc-eps", "0.3", "--mcmc-delta", "0.3"], [
            "model.json", "trace.csv"]
        yield f"{name}/train-exact", toy + ["--iters", "20"], ["model.json", "trace.csv"]
        yield f"{name}/predict", ["--model", "model.json", "--seed", "14"], []
    for space in ("hypercube:13", "cycles:8"):
        on = ["--space", space, "--seed", "15", "--theta-random", "0.9"]
        yield f"untabled-{space}/partition-exact", on + ["--eps", "0.5"], []
        yield f"untabled-{space}/sample-cftp", on + ["--n", "300"], []
    yield "verify", ["--seed", "5", "--samples", "5000"], []

def digest(stdout, files):
    h = hashlib.sha256(stdout.encode())
    for path in files:
        with open(path) as fh:
            lines = fh.read().splitlines()
        if path.endswith(".csv"):  # drop wall_time, the last column
            lines = [line.rsplit(",", 1)[0] for line in lines]
        h.update(("\n".join(lines) + "\n").encode())
    return h.hexdigest()

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return f"status {status}\n" + out.getvalue()

out = {}
for name, args, files in commands():
    command = name.rsplit("/", 1)[-1].split("-")[0]
    out[name] = digest(run([command] + args), files)
for workload in workloads.WORKLOADS:
    factory = workloads.InputFactory(workload, seed, os.path.join("inputs", workload))
    for c in range(cycles):
        for req in factory.cycle(c):
            stdout = "".join(run(argv) for argv in req.argvs)
            out[f"{workload}/{req.rid}"] = digest(stdout, req.artifacts)
print(json.dumps(out))
"""


def digests(repo: Path, work: Path) -> dict:
    """{artifact: digest} of one checkout, run in the empty directory ``work``."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=f"{repo / 'src'}{os.pathsep}{repo / 'bench'}")
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(SEED), str(CYCLES)],
                          cwd=work, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare against")
    parser.add_argument("--work", type=Path, required=True,
                        help="new directory to run the commands in")
    args = parser.parse_args(argv)
    change = digests(ROOT, args.work / "change")
    if args.parent is None:
        print(json.dumps(change, indent=2))
        return 0
    parent = digests(args.parent.resolve(), args.work / "parent")
    moved = sorted(k for k in change.keys() | parent.keys()
                   if change.get(k) != parent.get(k))
    print(json.dumps({"artifacts": len(change), "identical": len(change) - len(moved),
                      "moved": moved}, indent=2))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
