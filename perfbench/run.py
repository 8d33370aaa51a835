#!/usr/bin/env python3
"""expouvol benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every workload runs
``python -m expouvol.cli`` commands as child processes, one after another,
with the package taken from ``src/`` of the checkout.  The driver checks
every command's output, prints every metric by name with its unit, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each
command again under ``tracer.py`` and reports the per-layer metrics.
``--tiny`` shrinks every workload for the smoke test.  See README.md.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata

import checks
import trace_metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 3          # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 150   # a child still running after this is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: str) -> dict:
    """Environment for every child: the checkout's package, thread caps.

    Bytecode writing is off so no run writes outside its scratch
    directory; BLAS/OpenMP thread counts are capped at nproc.
    """
    env = dict(os.environ)
    env.pop("EXPOUVOL_CONFIG", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cap = nproc()
    for var in THREAD_VARS:
        try:
            n = int(env.get(var, cap))
        except ValueError:
            n = cap
        env[var] = str(min(max(n, 1), cap))
    return env


def environment(root: str, env: dict, seed: int) -> dict:
    """What a result depends on besides the code: versions, cores, threads."""
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    commit = ""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": nproc(),
            "git_commit": commit or "unknown", "seed": seed,
            "threads": {v: env[v] for v in THREAD_VARS}}


@dataclass
class Child:
    """One finished child process, with its rusage from os.wait4."""

    argv: list
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_path: str
    err_path: str

    def stdout(self) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def stderr(self) -> str:
        with open(self.err_path, errors="replace") as fh:
            return fh.read()


def run_child(argv, env, out_path, root) -> Child:
    """Run argv to completion; per-child CPU and peak RSS come from wait4.

    getrusage(RUSAGE_CHILDREN) would report the largest child reaped so
    far, leaking one command's peak into every later one.
    """
    err_path = out_path + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=root,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(argv=argv, code=code, wall_s=wall, cpu_s=ru.ru_utime + ru.ru_stime,
                 rss_mb=ru.ru_maxrss / 1024.0, out_path=out_path, err_path=err_path)


class Bench:
    """One benchmark run of one workload in its own scratch directory."""

    def __init__(self, root, wl, seed, work, env):
        self.root, self.wl, self.seed, self.work, self.env = root, wl, seed, work, env
        self.config = os.path.join(work, "bench.cfg")
        self.checker = checks.Checker(root, wl, work)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def cli_argv(self, cmd, runner=("-m", "expouvol.cli")):
        args = [a.replace("{work}", self.work) for a in cmd]
        return ([sys.executable, *runner, "--config", self.config,
                 "--set", f"seed={self.seed}"] + args)

    def inputs(self, mode, *args, out):
        """Run inputs.py (chain or minimiser) for this workload's chain."""
        argv = [sys.executable, os.path.join(HERE, "inputs.py"), mode,
                "--config", self.config,
                "--maturities", ",".join(map(repr, self.wl.chain_maturities)),
                "--strikes", str(self.wl.chain_strikes), *args]
        child = run_child(argv, self.env, os.path.join(self.work, out), self.root)
        if child.code != 0:
            raise SystemExit(f"inputs.py {mode} failed ({child.code}):\n{child.stderr()}")
        return child

    def set_up_once(self) -> float:
        """Config file, then one warm-up run of the package; returns seconds.

        Where the workload needs a quote chain, generating it (six ``price``
        runs in one child) is the warm-up run; otherwise it is ``price``.
        """
        t0 = time.perf_counter()
        with open(self.config, "w") as fh:
            fh.write(workloads.CONFIG)
        if self.wl.chain_maturities:
            self.inputs("chain", "--out", os.path.join(self.work, "chain.csv"),
                        "--seed", str(self.seed), out="chain.log")
        else:
            warm = run_child(self.cli_argv(["price"]), self.env,
                             os.path.join(self.work, "warmup.csv"), self.root)
            if warm.code != 0:
                raise SystemExit(f"warm-up command failed ({warm.code}):\n{warm.stderr()}")
        return time.perf_counter() - t0

    def set_up(self) -> float:
        setup_s = statistics.median(self.set_up_once() for _ in range(SETUP_REPS))
        if self.wl.chain_maturities:
            child = self.inputs("minimiser", "--quotes", os.path.join(self.work, "chain.csv"),
                                out="minimiser.json")
            self.checker.minimiser = json.loads(child.stdout())
        return setup_s

    def run_pass(self, tag, traced=False):
        """All commands once; returns (children, wall from first spawn to last exit)."""
        children = []
        t0 = time.perf_counter()
        for i, cmd in enumerate(self.wl.commands):
            out = os.path.join(self.work, f"{tag}-{i}.out")
            if traced:
                runner = (os.path.join(HERE, "tracer.py"), out + ".spans", str(i), "--")
                argv = self.cli_argv(cmd, runner=runner)
            else:
                argv = self.cli_argv(cmd)
            children.append(run_child(argv, self.env, out, self.root))
        wall = time.perf_counter() - t0
        for i, child in enumerate(children):
            errs = self.checker.check(i, child)
            self.attempted += 1
            if errs:
                self.failed += 1
                cmd = " ".join(self.wl.commands[i])
                self.errors += [f"{tag} command {i} ({cmd}): {e}" for e in errs]
        return children, wall

    def tta(self, children):
        """mc_tta_s of a pass: simulate wall x (SE_atm / (1e-3 price_atm))^2."""
        for child in children:
            if "simulate" in child.argv and child.code == 0:
                price, se = checks.atm_price_and_se(child.stdout())
                return child.wall_s * (se / (1e-3 * price)) ** 2
        return 0.0


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def measure(bench, seconds):
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        children, wall = bench.run_pass(f"pass{len(samples)}")
        samples.append({"wall_s": wall,
                        "cpu_s": sum(c.cpu_s for c in children),
                        "peak_rss_mb": max(c.rss_mb for c in children)})
    return ({name: {"value": statistics.median(s[name] for s in samples), "unit": unit}
             for name, unit in E2E_UNITS.items()},
            [s["wall_s"] for s in samples])


def measure_traced(bench, seconds):
    samples = []
    t0 = time.perf_counter()
    while not samples or time.perf_counter() - t0 < seconds:
        n = len(samples)
        plain, plain_wall = bench.run_pass(f"plain{n}")
        traced, traced_wall = bench.run_pass(f"traced{n}", traced=True)
        sample = trace_metrics.layer_metrics(
            [c.out_path + ".spans" for c in traced], traced_wall, bench.wl)
        sample["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
        sample["mc_tta_s"] = bench.tta(plain)
        samples.append(sample)
    imports = run_child([sys.executable, "-X", "importtime", "-c", "import expouvol"],
                        bench.env, os.path.join(bench.work, "importtime.out"), bench.root)
    if imports.code != 0:
        raise SystemExit(f"import failed ({imports.code}):\n{imports.stderr()}")
    for sample in samples:
        sample.update(trace_metrics.import_metrics(imports.stderr()))
    # The median traced pass as a whole (the mean of the middle two for an
    # even count), so its layer self times still sum to its traced wall.
    samples.sort(key=lambda s: s["trace.wall_s"])
    mid = samples[(len(samples) - 1) // 2: len(samples) // 2 + 1]
    return ({name: {"value": statistics.fmean(s[name] for s in mid), "unit": unit}
             for name, unit in trace_metrics.UNITS.items() if name != "fail_frac"},
            [s["trace.wall_s"] for s in samples])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1].strip())
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (smoke test)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "expouvol", "cli.py")):
        print(f"error: no expouvol source under {root}/src; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, tiny=args.tiny)
    env = child_env(root)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch)
    try:
        bench = Bench(root, wl, args.seed, work, env)
        setup_s = bench.set_up()
        if args.trace:
            metrics, pass_walls = measure_traced(bench, args.seconds)
            metrics["fail_frac"] = {"value": bench.failed / bench.attempted,
                                    "unit": "ratio"}
        else:
            metrics, pass_walls = measure(bench, args.seconds)
            metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it

    print(f"perfbench workload={wl.name} seed={args.seed} trace={args.trace} "
          f"commands_per_pass={len(wl.commands)} pass_walls_s="
          + ",".join(f"{w:.4f}" for w in pass_walls))
    print("env " + json.dumps(environment(root, env, args.seed), sort_keys=True))
    for err in bench.errors:
        print("check failed: " + err)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"fail_frac = {bench.failed / bench.attempted:.6g} ratio "
              f"({bench.failed}/{bench.attempted} commands)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
