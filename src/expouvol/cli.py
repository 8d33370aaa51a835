"""Batch command-line front end emitting plot-ready CSV.

Commands: price, smile, density, greeks, simulate, stats, calibrate.
Configuration comes from a flat ``key = value`` file (``#`` comments,
blank lines ignored) named by --config or the EXPOUVOL_CONFIG environment
variable, with individual --set key=value overrides applied on top.

Recognized keys and defaults::

    m = 0.01             # normal vol level, day^(-1/2)
    alpha = 0.008        # log-vol reversion, day^(-1)
    k = 0.11             # vol-of-vol, day^(-1/2)
    rho = -0.4           # Wiener correlation
    lambda0 = 0.001      # risk aversion, constant term
    lambda1 = 0.001      # risk aversion, linear term
    spot = 100.0         # currency
    rate_annual = 0.0    # year^(-1); converted to daily at load
    z0 = 0.0             # initial shifted log-vol (or give sigma0_annual)
    # sigma0_annual = 0.1655   # annualized vol index; sets y0 = ln(sig0_d/m)
    moneyness_min = 0.8
    moneyness_max = 1.2
    moneyness_points = 101
    maturity_days = 20.0
    n_paths = 100000
    dt = 0.1             # days
    seed = 12345
    antithetic = false
    tau_grid = 0,1,5,20  # days, for the stats command

Annual quantities are converted once at load: rates divide by 252,
volatilities by sqrt(252).  If both sigma0_annual and z0 appear, z0 wins
and a warning goes to stderr.  Numeric values must be finite, and scales,
sizes and steps positive.  Exit codes: 0 success (regime warnings on
stderr), 2 config/input error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .calibration import (
    QuoteError,
    calibrate_risk_aversion,
    load_quotes,
    reprice_quotes,
    y0_from_vol_index,
)
from .implied import smile_curve
from .mc import (SimConfig, export_paths, mc_call_prices, mc_return_stats,
                 simulate_paths)
from .model import ModelParams, _check, leverage, squared_return_autocorr
from .pricing import OptionSpec, _call_prices, delta
from .risk_neutral import (MartingaleParams, RiskAversion, expansion_coeffs,
                           regime_warning, return_density, to_martingale)
from .units import daily_rate

ENV_CONFIG = "EXPOUVOL_CONFIG"

_DEFAULTS = {
    "m": 0.01,
    "alpha": 8e-3,
    "k": 0.11,
    "rho": -0.4,
    "lambda0": 1e-3,
    "lambda1": 1e-3,
    "spot": 100.0,
    "rate_annual": 0.0,
    "sigma0_annual": None,
    "z0": 0.0,
    "moneyness_min": 0.8,
    "moneyness_max": 1.2,
    "moneyness_points": 101,
    "maturity_days": 20.0,
    "n_paths": 100_000,
    "dt": 0.1,
    "seed": 12345,
    "antithetic": False,
    "tau_grid": (0.0, 1.0, 5.0, 20.0),
}

_INT_KEYS = {"moneyness_points", "n_paths", "seed"}
_BOOL_KEYS = {"antithetic"}
_POSITIVE_KEYS = {"m", "alpha", "k", "spot", "sigma0_annual", "moneyness_min",
                  "moneyness_max", "moneyness_points", "maturity_days", "n_paths", "dt"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, already converted to daily units."""

    params: ModelParams
    martingale: MartingaleParams   # z0: the z0 key's, or y0 shifted when y0 is set
    spot: float
    rate: float            # day^(-1)
    y0: Optional[float]    # physical initial log-vol (from sigma0_annual)
    moneyness: np.ndarray
    maturity: float
    sim: SimConfig
    tau_grid: tuple


def _parse_kv_file(path: str) -> dict:
    raw = {}
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected key = value")
            key, val = (part.strip() for part in stripped.split("=", 1))
            raw[key] = val
    return raw


def _convert(key: str, val: str):
    if key in _BOOL_KEYS:
        low = val.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {val!r}")
    try:
        if key == "tau_grid":
            return tuple(float(v) for v in val.split(","))
        if key in _INT_KEYS:
            return int(val)
        return float(val)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {val!r}") from None


def _number_errors(merged: dict) -> list:
    """The package's numeric rule on every value: finite, _POSITIVE_KEYS also positive."""
    errors = []
    for key, val in merged.items():
        if key in _BOOL_KEYS or val is None:
            continue
        try:
            _check(key, val, positive=key in _POSITIVE_KEYS)
        except ValueError as exc:
            errors.append(str(exc))
    return errors


def build_config(file_values: dict, overrides: dict) -> RunConfig:
    """Merge defaults, file values and CLI overrides into a RunConfig."""
    merged = dict(_DEFAULTS)
    errors = []
    for source in (file_values, overrides):
        for key, val in source.items():
            if key not in _DEFAULTS:
                errors.append(f"unknown key {key!r}")
                continue
            try:
                merged[key] = _convert(key, val) if isinstance(val, str) else val
            except (ConfigError, ValueError) as exc:
                errors.append(str(exc))
    errors += _number_errors(merged)
    if errors:
        raise ConfigError("; ".join(errors))

    sigma0 = merged["sigma0_annual"]
    explicit_z0 = "z0" in file_values or "z0" in overrides
    if sigma0 is not None and explicit_z0:
        print("warning: both sigma0_annual and z0 supplied; z0 wins", file=sys.stderr)
    y0 = None
    try:
        params = ModelParams(m=merged["m"], alpha=merged["alpha"],
                             k=merged["k"], rho=merged["rho"])
        if sigma0 is not None and not explicit_z0:
            y0 = y0_from_vol_index(sigma0, params.m)
        risk = RiskAversion(merged["lambda0"], merged["lambda1"])
        martingale = to_martingale(params, risk, 0.0 if y0 is None else y0)
        if y0 is None:
            martingale = dataclasses.replace(martingale, z0=merged["z0"])
        maturity = float(merged["maturity_days"])
        dt = float(merged["dt"])
        n_steps = max(1, round(maturity / dt))
        if abs(n_steps * dt - maturity) > 1e-9 * max(1.0, maturity):
            raise ValueError(f"maturity_days {maturity} is not a multiple of dt {dt}")
        sim = SimConfig(n_paths=merged["n_paths"], n_steps=n_steps, dt=dt,
                        seed=merged["seed"], antithetic=merged["antithetic"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    moneyness = np.linspace(merged["moneyness_min"], merged["moneyness_max"],
                            merged["moneyness_points"])
    return RunConfig(params=params, martingale=martingale, spot=merged["spot"],
                     rate=daily_rate(merged["rate_annual"]), y0=y0, moneyness=moneyness,
                     maturity=maturity, sim=sim, tau_grid=tuple(merged["tau_grid"]))


def _emit(header: str, rows, out: Optional[str]) -> None:
    lines = [header] + [",".join(c if isinstance(c, str) else f"{c:.12g}"
                                 for c in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _expansion(cfg: RunConfig):
    """Martingale parameters and coefficients at the run's maturity; notes the regime flag."""
    mp = cfg.martingale
    coeffs = expansion_coeffs(mp, cfg.maturity, cfg.rate)
    if regime_warning(mp, coeffs):
        print("warning: expansion regime flag raised (small lambda or large "
              "corrections); values computed anyway", file=sys.stderr)
    return mp, coeffs


def _strike_spec(cfg: RunConfig) -> OptionSpec:
    """The option at every moneyness point of the run, as one array spec."""
    return OptionSpec(spot=cfg.spot, strike=cfg.spot / cfg.moneyness,
                      maturity=cfg.maturity, rate=cfg.rate)


def cmd_price(cfg: RunConfig, args) -> int:
    mp, coeffs = _expansion(cfg)
    bs, *_, total = _call_prices(_strike_spec(cfg), mp, coeffs)
    _emit("moneyness,call,bs,diff", zip(cfg.moneyness, total, bs, total - bs), args.output)
    return 0


def cmd_smile(cfg: RunConfig, args) -> int:
    mp, _ = _expansion(cfg)
    template = OptionSpec(spot=cfg.spot, strike=cfg.spot,
                          maturity=cfg.maturity, rate=cfg.rate)
    points = smile_curve(mp, expansion_coeffs, cfg.moneyness, template)
    rows = [(pt.moneyness,
             pt.implied_vol_annual if pt.implied_vol_annual is not None else "")
            for pt in points]
    _emit("moneyness,implied_vol_annual", rows, args.output)
    return 0


def cmd_density(cfg: RunConfig, args) -> int:
    mp, coeffs = _expansion(cfg)
    sd = mp.m_bar * math.sqrt(cfg.maturity)
    xs = np.linspace(coeffs.mu - 8.0 * sd, coeffs.mu + 8.0 * sd, 401)
    ps = return_density(coeffs, mp.m_bar, xs, cfg.maturity, mp.rho)
    _emit("x,p", list(zip(xs, ps)), args.output)
    return 0


def cmd_greeks(cfg: RunConfig, args) -> int:
    mp, coeffs = _expansion(cfg)
    _emit("moneyness,delta", zip(cfg.moneyness, delta(_strike_spec(cfg), mp, coeffs)),
          args.output)
    return 0


def cmd_simulate(cfg: RunConfig, args) -> int:
    mp, coeffs = _expansion(cfg)
    spec = _strike_spec(cfg)
    est = mc_call_prices(mp, cfg.sim, spec)
    analytic = _call_prices(spec, mp, coeffs)[4]
    rows = zip(cfg.moneyness, est.value, est.std_error, analytic,
               np.abs(est.value - analytic))
    _emit("moneyness,mc_price,std_err,analytic,abs_diff", rows, args.output)
    if args.dump_paths:
        dump_cfg = dataclasses.replace(cfg.sim, n_paths=min(cfg.sim.n_paths, 64))
        ens = simulate_paths(mp, dump_cfg, mp.z0, rate=cfg.rate)
        with open(args.dump_paths, "w", newline="") as fh:
            export_paths(ens, fh)
    return 0


def cmd_stats(cfg: RunConfig, args) -> int:
    max_tau = max(cfg.tau_grid) if cfg.tau_grid else 0.0
    n_steps = int(round(max_tau / cfg.sim.dt)) + 100
    sim = dataclasses.replace(cfg.sim, n_steps=n_steps)
    lev, aco = mc_return_stats(cfg.params, sim, cfg.tau_grid, cfg.tau_grid)
    rows = []
    for tau, le, ae in zip(cfg.tau_grid, lev, aco):
        rows.append((tau, le.value, le.std_error, leverage(cfg.params, tau),
                     ae.value, ae.std_error, squared_return_autocorr(cfg.params, tau)))
    _emit("tau,leverage_mc,leverage_se,leverage_fml,autocorr_mc,autocorr_se,autocorr_fml",
          rows, args.output)
    return 0


def cmd_calibrate(cfg: RunConfig, args) -> int:
    loaded = load_quotes(args.quotes)
    if loaded.rejects:
        print(loaded.summary(), file=sys.stderr)
    if len(loaded.quotes) < 2:
        print("error: calibrate needs at least 2 usable quotes for its 2 parameters, "
              f"got {len(loaded.quotes)}", file=sys.stderr)
        return 2
    if cfg.y0 is None:
        print("error: calibrate needs sigma0_annual in the config "
              "(y0 cannot come from z0: the shift depends on the fitted lambdas)",
              file=sys.stderr)
        return 2
    result = calibrate_risk_aversion(list(loaded.quotes), cfg.params,
                                     cfg.spot, cfg.rate, cfg.y0)
    _emit("lambda0,lambda1,rmse,n_quotes,converged,iterations",
          [(result.lambda0, result.lambda1, result.rmse, result.n_quotes,
            str(result.converged).lower(), result.iterations)], args.output)
    if args.repricing:
        table = reprice_quotes(result, list(loaded.quotes), cfg.params,
                               cfg.spot, cfg.rate, cfg.y0)
        _emit("strike,mid,model,residual", table, args.repricing)
    return 0


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="expouvol",
        description="expOU stochastic-volatility pricing toolkit (CSV output)")
    ap.add_argument("--config", help="key = value config file "
                    f"(default: ${ENV_CONFIG} if set)")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a single config key (repeatable)")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [("price", cmd_price), ("smile", cmd_smile),
                     ("density", cmd_density), ("greeks", cmd_greeks),
                     ("simulate", cmd_simulate), ("stats", cmd_stats),
                     ("calibrate", cmd_calibrate)]:
        sp = sub.add_parser(name)
        sp.add_argument("--output", help="write CSV here instead of stdout")
        sp.set_defaults(func=fn)
        if name == "simulate":
            sp.add_argument("--dump-paths", metavar="FILE",
                            help="also export up to 64 raw paths as CSV")
        if name == "calibrate":
            sp.add_argument("--quotes", required=True,
                            help="option-chain CSV (strike,maturity_days,bid,ask|mid)")
            sp.add_argument("--repricing", metavar="FILE",
                            help="write per-quote repricing table here")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config_path = args.config or os.environ.get(ENV_CONFIG)
    try:
        file_values = _parse_kv_file(config_path) if config_path else {}
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
            key, val = item.split("=", 1)
            overrides[key.strip()] = val.strip()
        cfg = build_config(file_values, overrides)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(cfg, args)
    except (QuoteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
