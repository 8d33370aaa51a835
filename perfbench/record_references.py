#!/usr/bin/env python3
"""Record the reference values that checks.py compares outputs against.

    python3 perfbench/record_references.py > perfbench/references.json

Run from the root of a source checkout.  Closed-form outputs are stored
as printed.  The Monte Carlo references come from independent runs: one
``simulate`` at REF_PATHS paths on a seed no workload uses, and the mean
and spread of ``stats`` over REF_STATS_SEEDS seeds.  Takes a few minutes.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib
import json
import os
import statistics
import subprocess
import tempfile

import checks
import run
import workloads

REF_PATHS = 4_000_000
REF_SEED = 987_654_321
REF_STATS_SEEDS = tuple(range(1_000_001, 1_000_013))
REF_STATS_PATHS = 100_000


def cli(root, env, config, *args) -> bytes:
    argv = [sys.executable, "-m", "expouvol.cli", "--config", config, *args]
    return subprocess.run(argv, env=env, cwd=root, check=True,
                          stdout=subprocess.PIPE).stdout


def main() -> int:
    root = os.getcwd()
    env = run.child_env(root)
    refs = {}
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        config = os.path.join(tmp, "bench.cfg")
        with open(config, "w") as fh:
            fh.write(workloads.CONFIG)
        with open(os.path.join(root, checks.GOLDEN_PRICE), "rb") as fh:
            refs["golden_price_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        for name, args in (("smile", ["smile"]),
                           ("smile_5001", ["--set", "moneyness_points=5001", "smile"]),
                           ("greeks", ["greeks"]),
                           ("density", ["density"])):
            refs[name] = checks.parse_table(cli(root, env, config, *args))
        refs["simulate"] = checks.parse_table(
            cli(root, env, config, "--set", f"seed={REF_SEED}",
                "--set", f"n_paths={REF_PATHS}", "simulate"))
        runs = [checks.parse_table(cli(root, env, config, "--set", f"seed={s}",
                                       "--set", f"n_paths={REF_STATS_PATHS}", "stats"))
                for s in REF_STATS_SEEDS]
        print(f"recorded stats at {len(runs)} seeds", file=sys.stderr)
    header = runs[0]["header"]
    stats_ref = {"header": header, "n_seeds": len(runs), "mean": [], "sd": [],
                 "runs": [r["rows"] for r in runs]}
    for r in range(len(runs[0]["rows"])):
        cells = [[run_["rows"][r][c] for run_ in runs] for c in range(len(header))]
        stats_ref["mean"].append([statistics.fmean(v) for v in cells])
        stats_ref["sd"].append([statistics.stdev(v) for v in cells])
    refs["stats"] = stats_ref
    refs["recorded_with"] = {"ref_paths": REF_PATHS, "ref_seed": REF_SEED,
                             "stats_paths": REF_STATS_PATHS,
                             "stats_seeds": list(REF_STATS_SEEDS)}
    json.dump(refs, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
