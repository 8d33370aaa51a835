"""Batch command-line front end emitting plot-ready CSV.

Commands: price, smile, density, greeks, simulate, stats, calibrate.
simulate --dump-paths draws its own min(n_paths, 64)-path run from the seed:
past the first step its paths are not the first paths of the priced ensemble.
Configuration comes from a flat ``key = value`` file (UTF-8, a leading
byte-order mark skipped; ``#`` comments, blank lines ignored) named by
--config or the EXPOUVOL_CONFIG environment variable, with individual
--set key=value overrides applied on top.

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
as the martingale start of price, smile, greeks, density and simulate,
sigma0_annual still gives calibrate its y0, and a warning goes to stderr.
Numeric values must be finite; scales, sizes and steps positive; seed in
[0, 2**64); maturity_days and each tau_grid lag, in grid order, nonnegative
multiples of dt.  One cap, PATH_BUDGET = 25,000,000, bounds moneyness_points
and the steps of dt in maturity_days and the stats horizon (longest lag + 100).
Accepted on purpose:

- A key given twice, in the file or in --set, takes its last value; every
  value given is still checked, so a bad one is an error even when a later
  one replaces it.
- Numbers are read by Python's int() and float(): ``1_000`` and decimal
  digits of any script (``١٠٠``) are numbers.
- moneyness_min above moneyness_max gives the same grid in descending order.
- Keys that each pass their rule but that the computation cannot evaluate
  together, such as alpha=1e308 (the expansion's sigma3 is not finite), are
  a computation failure, not an input error.

Each command returns its tables as (destination, header, columns), the
destination None for stdout; ``main`` writes every file first and stdout
last, so nothing reaches stdout unless the run exits 0.  Every closed form
over the grid (price, greeks, smile, simulate's analytic column) runs on
one path, ``_over_grid``, 1,024 points at a time (``_CHUNK``), filling
whole output columns at 8 B per cell (smile's are formatted strings), and
``_emit`` writes 1,024 rows per write: no closed-form grid-sized temporary
and no whole CSV text is built.  Every chunk is computed before any table
is written, and the bytes do not depend on the chunk size.  Exit codes: 0
success (regime warnings on stderr); 2 config/input error, an unreadable
input or an unwritable output; 3 computation failure, with numpy's
overflow, division by zero and invalid operations raised as errors (in
the Monte Carlo worker threads too) and running out of memory included.
Every failure prints one message to stderr, never a traceback.

The CLI runs OpenBLAS on one thread: its BLAS calls are too small to
share, so an OpenBLAS pool would only spin idle at every start.  Importing
this module sets OPENBLAS_NUM_THREADS=1 before it loads numpy, unless the
process loaded numpy first (``import expouvol`` itself loads its
submodules, numpy included, only on first use).  numpy builds on MKL or
Accelerate ignore the variable.  Each command loads only what it runs:
build_config needs ``model`` and ``risk_neutral`` alone; price, greeks,
smile and simulate import ``pricing`` inside the command, and smile,
simulate/stats and calibrate import ``implied``, ``mc`` and
``calibration`` there, so density and stats never load the pricer.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if "numpy" not in sys.modules:
    # OpenBLAS starts one worker thread per extra CPU when numpy loads, and
    # each spins for about 0.1 s of CPU.  The CLI never gives them work:
    # its only BLAS calls, the calibration's residual dots, two-column
    # normal equations and 2x2 solves, are too small for OpenBLAS to
    # share out, and the Monte Carlo pool is the package's own.  A process
    # that loaded numpy first keeps its threads and its environment.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .model import (PATH_BUDGET, ModelParams, QuoteError, SimConfig, _check, _day_steps,
                    leverage, squared_return_autocorr, y0_from_vol_index)
from .risk_neutral import (MartingaleParams, expansion_coeffs, regime_warning,
                           return_density, to_martingale)
from .units import daily_rate

if TYPE_CHECKING:  # the commands that price import pricing themselves
    from .pricing import OptionSpec

ENV_CONFIG = "EXPOUVOL_CONFIG"

_KEYS = {
    "m": (0.01, "positive"),
    "alpha": (8e-3, "positive"),
    "k": (0.11, "positive"),
    "rho": (-0.4, "real"),
    "lambda0": (1e-3, "real"),
    "lambda1": (1e-3, "real"),
    "spot": (100.0, "positive"),
    "rate_annual": (0.0, "real"),
    "sigma0_annual": (None, "positive"),
    "z0": (0.0, "real"),
    "moneyness_min": (0.8, "positive"),
    "moneyness_max": (1.2, "positive"),
    "moneyness_points": (101, "count"),
    "maturity_days": (20.0, "positive"),
    "n_paths": (100_000, "count"),
    "dt": (0.1, "positive"),
    "seed": (12345, "int"),
    "antithetic": (False, "bool"),
    "tau_grid": ((0.0, 1.0, 5.0, 20.0), "grid"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration, already converted to daily units."""

    params: ModelParams
    martingale: MartingaleParams   # z0: the z0 key's if given, else y0 shifted
    spot: float
    rate: float            # day^(-1)
    y0: Optional[float]    # physical initial log-vol (from sigma0_annual)
    moneyness: np.ndarray
    maturity: float
    sim: SimConfig
    tau_grid: tuple


def _parse_kv_file(path: str) -> list:
    pairs = []
    with open(path, encoding="utf-8-sig") as fh:  # some editors write a BOM
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for line_no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        pairs.append(tuple(part.strip() for part in stripped.split("=", 1)))
    return pairs


def _convert(key: str, val: str):
    if _KEYS[key][1] == "bool":
        low = val.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {val!r}")
    try:
        if _KEYS[key][1] == "grid":
            return tuple(float(v) for v in val.split(","))
        if _KEYS[key][1] in ("int", "count"):
            return int(val)
        return float(val)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {val!r}") from None


def build_config(file_values, overrides) -> RunConfig:
    """Merge defaults, file values and CLI overrides into a RunConfig.

    Both are sequences of (key, value string) pairs, applied in order: a
    key's last value wins, and every value given must pass its kind's rule
    (finite; "positive" and "count" also > 0).
    """
    merged = {key: default for key, (default, _) in _KEYS.items()}
    errors = []
    for key, val in (*file_values, *overrides):
        if key not in _KEYS:
            errors.append(f"unknown key {key!r}")
            continue
        try:
            merged[key] = val = _convert(key, val)
            if _KEYS[key][1] != "bool":
                _check(key, val, "positive" if _KEYS[key][1] in ("positive", "count") else "finite")
        except ValueError as exc:  # ConfigError included
            errors.append(str(exc))
    if errors:
        raise ConfigError("; ".join(errors))

    sigma0 = merged["sigma0_annual"]
    explicit_z0 = any(key == "z0" for key, _ in (*file_values, *overrides))
    if sigma0 is not None and explicit_z0:
        print("warning: both sigma0_annual and z0 supplied; z0 wins", file=sys.stderr)
    y0 = None
    try:
        params = ModelParams(m=merged["m"], alpha=merged["alpha"],
                             k=merged["k"], rho=merged["rho"])
        if sigma0 is not None:
            y0 = y0_from_vol_index(sigma0, params.m)
        martingale = to_martingale(params, merged["lambda0"], merged["lambda1"],
                                   0.0 if y0 is None else y0)
        if y0 is None or explicit_z0:
            martingale = dataclasses.replace(martingale, z0=merged["z0"])
        maturity = float(merged["maturity_days"])
        dt = float(merged["dt"])
        n_steps = _day_steps(maturity, dt, "maturity_days")
        for key, steps in [("maturity_days", n_steps),
                           ("tau_grid", _stats_steps(merged["tau_grid"], dt))]:
            if steps > PATH_BUDGET:  # else simulate or stats would run for ages
                raise ValueError(f"{key} needs {float(steps):.3g} steps of dt {dt}, "
                                 f"more than {PATH_BUDGET}")
        sim = SimConfig(n_paths=merged["n_paths"], n_steps=n_steps, dt=dt,
                        seed=merged["seed"], antithetic=merged["antithetic"])
        if merged["moneyness_points"] > PATH_BUDGET:
            raise ValueError(f"moneyness_points must be at most {PATH_BUDGET}")
    except (ValueError, OverflowError) as exc:  # float() of an int beyond float range
        raise ConfigError(str(exc)) from None

    moneyness = np.linspace(merged["moneyness_min"], merged["moneyness_max"],
                            merged["moneyness_points"])
    return RunConfig(params=params, martingale=martingale, spot=merged["spot"],
                     rate=daily_rate(merged["rate_annual"]), y0=y0, moneyness=moneyness,
                     maturity=maturity, sim=sim, tau_grid=tuple(merged["tau_grid"]))


_G = "%.12g"   # every number in every CSV

#: Grid points per chunk: _over_grid evaluates the closed form over the
#: moneyness grid this many points at a time, and _emit writes this many
#: rows per write.  Element-wise kernels and a solver that freezes each
#: lane once it converges give the same bits at any chunk size.  A chunk's
#: temporaries set the small grids' peak: a 5,001-point smile peaks about
#: 0.2 MB higher at 2,048 points per chunk than at 1,024.
_CHUNK = 1024


def _emit(header: str, columns, out: Optional[str]) -> None:
    """Write a CSV given one column per header field, _CHUNK rows per write.

    A column of str cells prints as is; any other prints every cell as
    %.12g.  Each chunk of an array column goes through ``.tolist()`` and
    each row through one format string, so cells are formatted as Python
    floats and ints.  Only one chunk's text is held at a time; the
    columns are still held whole, 8 B per array cell.  The stdout
    contract is unchanged: ``main`` calls this only once every table is
    computed, and for stdout only once every file is written.
    """
    cols = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    line = ",".join("%s" if len(c) and isinstance(c[0], str) else _G for c in cols) + "\n"
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(header + "\n")
        for start in range(0, min(map(len, cols)), _CHUNK):
            part = slice(start, start + _CHUNK)
            cells = [c[part].tolist() if isinstance(c, np.ndarray) else c[part] for c in cols]
            fh.write("".join([line % row for row in zip(*cells)]))


def _expansion(cfg: RunConfig):
    """Martingale parameters and coefficients at the run's maturity; notes the regime flag."""
    mp = cfg.martingale
    coeffs = expansion_coeffs(mp, cfg.maturity, cfg.rate)
    if regime_warning(mp, coeffs):
        print("warning: expansion regime flag raised (small lambda or large "
              "corrections); values computed anyway", file=sys.stderr)
    return mp, coeffs


def _strike_spec(cfg: RunConfig, part: slice = slice(None)) -> OptionSpec:
    """The option at the run's moneyness points ``part`` (all by default), as one array spec."""
    from .pricing import OptionSpec
    return OptionSpec(spot=cfg.spot, strike=cfg.spot / cfg.moneyness[part],
                      maturity=cfg.maturity, rate=cfg.rate)


def _over_grid(cfg: RunConfig, kernel, *columns):
    """Fill ``columns`` from ``kernel(spec, mp, coeffs)`` over the grid, _CHUNK points at a time.

    The kernel returns one sequence per column for the chunk's spec; each
    lands in its column's slice, so a grid-sized column is the only
    grid-sized memory.  Returns the columns.
    """
    mp, coeffs = _expansion(cfg)
    for start in range(0, cfg.moneyness.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        for column, values in zip(columns, kernel(_strike_spec(cfg, part), mp, coeffs)):
            column[part] = values
    return columns


def cmd_price(cfg: RunConfig, args) -> list:
    from .pricing import _call_prices

    def kernel(spec, mp, coeffs):
        bs, *_, total = _call_prices(spec, mp, coeffs)
        return total, bs

    call, bs = _over_grid(cfg, kernel, *np.empty((2, cfg.moneyness.size)))
    return [(args.output, "moneyness,call,bs,diff", (cfg.moneyness, call, bs, call - bs))]


def cmd_smile(cfg: RunConfig, args) -> list:
    from .implied import smile_curve

    def kernel(spec, mp, coeffs):
        return (["" if pt.implied_vol_annual is None else _G % pt.implied_vol_annual
                 for pt in smile_curve(spec, mp, coeffs)],)

    vols, = _over_grid(cfg, kernel, [""] * cfg.moneyness.size)
    return [(args.output, "moneyness,implied_vol_annual", (cfg.moneyness, vols))]


def cmd_density(cfg: RunConfig, args) -> list:
    mp, coeffs = _expansion(cfg)
    sd = mp.m_bar * math.sqrt(cfg.maturity)
    xs = np.linspace(coeffs.mu - 8.0 * sd, coeffs.mu + 8.0 * sd, 401)
    return [(args.output, "x,p", (xs, return_density(mp, coeffs, xs)))]


def cmd_greeks(cfg: RunConfig, args) -> list:
    from .pricing import delta
    deltas, = _over_grid(cfg, lambda *run: (delta(*run),), np.empty(cfg.moneyness.size))
    return [(args.output, "moneyness,delta", (cfg.moneyness, deltas))]


def cmd_simulate(cfg: RunConfig, args) -> list:
    from .mc import mc_call_prices, simulate_paths
    from .pricing import _call_prices
    analytic, = _over_grid(cfg, lambda *run: (_call_prices(*run)[4],),
                           np.empty(cfg.moneyness.size))
    mp = cfg.martingale
    est = mc_call_prices(mp, cfg.sim, _strike_spec(cfg))
    tables = [(args.output, "moneyness,mc_price,std_err,analytic,abs_diff",
               (cfg.moneyness, est.value, est.std_error, analytic, np.abs(est.value - analytic)))]
    if args.dump_paths:
        dump_cfg = dataclasses.replace(cfg.sim, n_paths=min(cfg.sim.n_paths, 64))
        ens = simulate_paths(mp, dump_cfg, mp.z0, rate=cfg.rate)
        n_paths, n_times = ens.x.shape
        tables.append((args.dump_paths, "path,step,t_days,x,y",
                       (np.repeat(np.arange(n_paths), n_times),
                        np.tile(np.arange(n_times), n_paths),
                        np.tile(ens.times, n_paths), ens.x.ravel(), ens.y.ravel())))
    return tables


def _stats_steps(tau_grid, dt: float) -> int:
    """The stats horizon: the longest lag plus 100 steps of dt; each lag is checked in order."""
    return max(_day_steps(tau, dt, "tau_grid lag") for tau in tau_grid) + 100


def cmd_stats(cfg: RunConfig, args) -> list:
    from .mc import mc_return_stats
    sim = dataclasses.replace(cfg.sim, n_steps=_stats_steps(cfg.tau_grid, cfg.sim.dt))
    lev, aco = mc_return_stats(cfg.params, sim, cfg.tau_grid, cfg.tau_grid)
    return [(args.output,
             "tau,leverage_mc,leverage_se,leverage_fml,autocorr_mc,autocorr_se,autocorr_fml",
             (cfg.tau_grid, [e.value for e in lev], [e.std_error for e in lev],
              [leverage(cfg.params, tau) for tau in cfg.tau_grid],
              [e.value for e in aco], [e.std_error for e in aco],
              [squared_return_autocorr(cfg.params, tau) for tau in cfg.tau_grid]))]


def cmd_calibrate(cfg: RunConfig, args) -> list:
    from .calibration import calibrate_risk_aversion, load_quotes, reprice_quotes
    loaded = load_quotes(args.quotes)
    if loaded.rejects:
        print(loaded.summary(), file=sys.stderr)
    if cfg.y0 is None:
        raise ConfigError("calibrate needs sigma0_annual in the config "
                          "(y0 cannot come from z0: the shift depends on the fitted lambdas)")
    result = calibrate_risk_aversion(loaded.quotes, cfg.params, cfg.spot, cfg.rate, cfg.y0)
    tables = [(args.output, "lambda0,lambda1,rmse,n_quotes,converged,iterations",
               [[result.lambda0], [result.lambda1], [result.rmse], [result.n_quotes],
                [str(result.converged).lower()], [result.iterations]])]
    if args.repricing:
        table = reprice_quotes(result, loaded.quotes, cfg.params, cfg.spot, cfg.rate, cfg.y0)
        tables.append((args.repricing, "strike,mid,model,residual", zip(*table)))
    return tables


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
                            help="also export up to 64 paths, from a separate run, as CSV")
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
        file_values = _parse_kv_file(config_path) if config_path else []
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        overrides = [tuple(part.strip() for part in item.split("=", 1)) for item in args.set]
        cfg = build_config(file_values, overrides)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tables = args.func(cfg, args)
        for out, header, columns in sorted(tables, key=lambda table: table[0] is None):
            _emit(header, columns, out)  # files first, so stdout holds only a whole run
    except (ConfigError, QuoteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
