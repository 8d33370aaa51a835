"""Per-layer metrics from the spans written by tracer.py.

A span's self time is its duration minus the time its child spans cover.
Layer self times plus ``trace.remainder_s`` (interpreter start-up, process
spawn and anything outside a wrapped function) sum to ``trace.wall_s``.
"""

from __future__ import annotations

import json
from collections import defaultdict

SELF_LAYERS = ("import", "risk_neutral", "pricing", "implied", "calibration",
               "mc", "model")

# Every per-layer metric with its unit, in report order.
UNITS = {
    "fail_frac": "ratio",
    "mc_tta_s": "s",
    "import.expouvol_s": "s",
    "import.scipy_stats_s": "s",
    "import.scipy_optimize_s": "s",
    "import.self_s": "s",
    "cli.self_s": "s",
    "cli.build_config_s": "s",
    "risk_neutral.self_s": "s",
    "risk_neutral.expansion_coeffs.calls": "count",
    "risk_neutral.expansion_coeffs.self_s": "s",
    "risk_neutral.to_martingale.calls": "count",
    "pricing.self_s": "s",
    "pricing.expou_call.calls": "count",
    "pricing.expou_call.self_s": "s",
    "pricing.expou_call.us_per_call": "us",
    "pricing.delta.self_s": "s",
    "pricing.warnings": "count",
    "implied.self_s": "s",
    "implied.implied_vol.calls": "count",
    "implied.implied_vol.self_s": "s",
    "implied.failed": "count",
    "calibration.self_s": "s",
    "calibration.calibrate_risk_aversion_s": "s",
    "calibration.objective_evals": "count",
    "calibration.s_per_eval": "s",
    "calibration.iterations": "count",
    "calibration.load_quotes_s": "s",
    "mc.self_s": "s",
    "mc.mc_call_prices_s": "s",
    "mc.path_steps_per_s": "1/s",
    "mc.normals_drawn": "count",
    "mc.return_panel_s": "s",
    "mc.mc_leverage_s": "s",
    "mc.mc_sq_autocorr_s": "s",
    "mc.panel_bytes": "B",
    "model.self_s": "s",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(span_paths, traced_wall, wl) -> dict:
    """Per-layer metrics of one traced pass over the workload's commands."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    counts = defaultdict(int)
    evals = 0
    for path in span_paths:
        with open(path) as fh:
            d = json.load(fh)
        names = [d["names"][i] for i in d["name"]]
        durs = [e - s for s, e in zip(d["start"], d["end"])]
        covered = [0.0] * len(names)
        for dur, parent in zip(durs, d["parent"]):
            if parent >= 0:
                covered[parent] += dur
        for name, dur, cov, parent in zip(names, durs, covered, d["parent"]):
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - cov
            # The objective prices the chain through to_martingale once per
            # evaluation; the fit's final rmse pass is one more call.
            if (name == "risk_neutral.to_martingale" and parent >= 0
                    and names[parent] == "calibration.calibrate_risk_aversion"):
                evals += 1
        for key, val in d["counts"].items():
            counts[key] += val
    evals -= calls["calibration.calibrate_risk_aversion"]

    layer = defaultdict(float)
    for name, val in self_s.items():
        layer[name.split(".", 1)[0]] += val
    m = {f"{lay}.self_s": layer[lay] for lay in SELF_LAYERS}
    m["cli.build_config_s"] = self_s["cli.build_config"]
    m["cli.self_s"] = layer["cli"] - self_s["cli.build_config"]
    m["trace.wall_s"] = traced_wall
    m["trace.remainder_s"] = traced_wall - sum(layer.values())

    m["risk_neutral.expansion_coeffs.calls"] = calls["risk_neutral.expansion_coeffs"]
    m["risk_neutral.expansion_coeffs.self_s"] = self_s["risk_neutral.expansion_coeffs"]
    m["risk_neutral.to_martingale.calls"] = calls["risk_neutral.to_martingale"]
    m["pricing.expou_call.calls"] = calls["pricing.expou_call"]
    m["pricing.expou_call.self_s"] = self_s["pricing.expou_call"]
    m["pricing.expou_call.us_per_call"] = 1e6 * _ratio(incl["pricing.expou_call"],
                                                       calls["pricing.expou_call"])
    m["pricing.delta.self_s"] = self_s["pricing.delta"]
    m["pricing.warnings"] = counts["pricing.warnings"]
    m["implied.implied_vol.calls"] = calls["implied.implied_vol"]
    m["implied.implied_vol.self_s"] = self_s["implied.implied_vol"]
    m["implied.failed"] = counts["implied.failed"]
    fit_s = incl["calibration.calibrate_risk_aversion"]
    m["calibration.calibrate_risk_aversion_s"] = fit_s
    m["calibration.objective_evals"] = evals
    m["calibration.s_per_eval"] = _ratio(fit_s, evals)
    m["calibration.iterations"] = counts["calibration.iterations"]
    m["calibration.load_quotes_s"] = incl["calibration.load_quotes"]
    for fn in ("mc_call_prices", "return_panel", "mc_leverage", "mc_sq_autocorr"):
        m[f"mc.{fn}_s"] = incl[f"mc.{fn}"]
    # Computed, not counted: the MC work follows from the workload's config.
    engine_s = incl["mc.mc_call_prices"] + incl["mc.return_panel"]
    m["mc.path_steps_per_s"] = _ratio(wl.path_steps, engine_s)
    m["mc.normals_drawn"] = wl.normals
    m["mc.panel_bytes"] = wl.panel_bytes
    return m


def import_metrics(importtime_stderr: str) -> dict:
    """Cumulative import seconds from ``python -X importtime -c 'import expouvol'``."""
    cumulative = {}
    for line in importtime_stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue  # the header line
    return {"import.expouvol_s": cumulative.get("expouvol", 0.0),
            "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0),
            "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0)}
