"""Smoke test of the benchmark: every workload once at a tiny size.

    python -m pytest perfbench/test_smoke.py

Checks the result schema, that every metric named in BENCHMARK.json is
reported with its unit, and that no command failed.  Asserts no timing.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

E2E = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
LAYER_SELF = ("import.self_s", "cli.self_s", "cli.build_config_s", "risk_neutral.self_s",
              "pricing.self_s", "implied.self_s", "calibration.self_s", "mc.self_s",
              "model.self_s", "trace.remainder_s")


def run_bench(cwd, workload, trace):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_spec_names_the_issue_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == [
        "cli_quick", "chain_fit", "mc_price", "mc_stats"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(E2E)
    layer_names = {m["name"] for m in SPEC["per_layer"]}
    assert {"fail_frac", "mc_tta_s", "trace.overhead_frac", "trace.wall_s",
            *LAYER_SELF} <= layer_names


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stdout
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1

    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert any(line.startswith("env {") for line in lines)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["fail_frac"] == 0
        assert metrics["trace.remainder_s"] >= 0
        total = sum(metrics[k] for k in LAYER_SELF)
        assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    else:
        assert f"fail_frac = 0 ratio (0/{result['attempted']} commands)" in lines


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "cli_quick", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
