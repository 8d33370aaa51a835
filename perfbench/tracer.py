"""Traced run of one CLI command, in-process through ``expouvol.cli.main``.

    python perfbench/tracer.py SPANS.json RUN_ID -- CLI ARGS...

Imports the package under an ``import`` span, then wraps every public
function of the layer modules (except the scalar helpers in HOT_HELPERS)
at every module that looks it up, e.g. ``expouvol.calibration.expou_call``
as well as ``expouvol.cli.expou_call``.  Each wrapper records a span
(name, start, end, parent) in memory; the spans, the run id and a few
counts taken from return values are written to SPANS.json at exit.  The
command's CSV goes to stdout exactly as in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "risk_neutral", "pricing", "implied", "calibration", "mc", "model")

# Called once per strike or per Newton step from inside other layer
# functions; a span on each would cost more than the work it times.
HOT_HELPERS = frozenset({
    "pricing.norm_cdf", "pricing.norm_pdf", "pricing.bs_call",
    "pricing.call_components", "risk_neutral.hermite_poly",
    "risk_neutral.regime_warning",
})


def _count_warnings(counts, result):
    counts["pricing.warnings"] += bool(result.warning)


def _count_smile_failures(counts, result):
    counts["implied.failed"] += sum(pt.implied_vol_annual is None for pt in result)


def _count_iterations(counts, result):
    counts["calibration.iterations"] += result.iterations


# Counts read off return values at the span boundary.
RESULT_COUNTS = {
    "pricing.expou_call": _count_warnings,
    "implied.smile_curve": _count_smile_failures,
    "calibration.calibrate_risk_aversion": _count_iterations,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []
        self.counts = Counter()

    def span(self, name, start, end, parent=-1):
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def wrap(self, name, fn):
        on_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1)
            self.stack.append(idx)
            self.starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = clock()
                self.stack.pop()
            if on_result is not None:
                on_result(self.counts, result)
            return result
        return traced

    def install(self):
        modules = [importlib.import_module(f"expouvol.{m}") for m in LAYERS]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in HOT_HELPERS):
                    wrappers[fn] = self.wrap(name, fn)
        # Rebind every lookup site, so calls through ``from .x import f``
        # aliases are traced too.
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("expouvol"):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrappers:
                        setattr(mod, attr, wrappers[val])

    def dump(self, path, run_id):
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"run": run_id, "names": names,
                       "name": [index[n] for n in self.names],
                       "start": self.starts, "end": self.ends,
                       "parent": self.parents, "counts": self.counts}, fh)


def main(argv):
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- CLI ARGS...")
    tracer = Tracer()
    t0 = time.perf_counter()
    import expouvol.cli
    tracer.span("import.expouvol", t0, time.perf_counter())
    tracer.install()
    try:
        code = expouvol.cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, int(run_id))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
