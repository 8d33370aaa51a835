"""Seeded Monte Carlo oracle for the expOU model under both measures.

Scheme: the log-volatility is advanced by its exact OU transition
(mean-reversion factor e^{-alpha dt}, innovation variance
(k^2/2alpha)(1 - e^{-2 alpha dt})), the log-price by Euler with the
same-step correlated Gaussian pair xi2 = rho xi1 + sqrt(1-rho^2) xi_perp.
The parameter type fixes the measure: ModelParams simulate the physical
measure (m, alpha, Y), MartingaleParams the martingale measure (m_bar,
alpha_bar, shifted Z).  The pricer (mc_call_prices) takes only the
latter and streams terminal states; the return statistics
(mc_return_stats, both statistics from one streaming pass, no return
panel) take only the former; simulate_paths takes either and stores
whole paths.

Reproducibility: paths are partitioned into fixed blocks of ``BLOCK``
paths; block ``b`` consumes an independent Philox substream keyed by
(seed, b), with one standard-normal vector per noise leg per step
(numpy's ziggurat standard_normal), so each block's draws depend only on
(seed, b).  Blocks are reduced in block-index order; floating-point sums
are not associative, so it is that fixed order which makes estimates
bit-exact for identical SimConfig.  mc_return_stats draws its bootstrap
weights (0 or 2, one random bit per path and replicate) from a second
stream per block, Philox keyed by (seed, 2**63 + b), so they never
overlap a path stream; the full-sample demeaning is exact algebra on the
accumulated raw sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, _check, _out
from .risk_neutral import MartingaleParams
from .pricing import OptionSpec

__all__ = [
    "SimConfig",
    "McEstimate",
    "PathEnsemble",
    "simulate_paths",
    "mc_call_prices",
    "mc_return_stats",
]

BLOCK = 4096
#: bootstrap replicates behind every mc_return_stats standard error
_N_BOOT = 200
#: simulate_paths refuses ensembles, and mc_return_stats per-block return
#: panels, beyond this many samples; mc_call_prices streams and has no limit.
PATH_BUDGET = 25_000_000


@dataclass(frozen=True)
class SimConfig:
    """Simulation layout: n_paths x n_steps at step dt (days), fixed seed."""

    n_paths: int
    n_steps: int
    dt: float
    seed: int
    antithetic: bool = False

    def __post_init__(self):
        ints = (self.n_paths, self.n_steps, self.seed)
        if not all(isinstance(v, (int, np.integer)) for v in ints):
            raise ValueError(f"n_paths, n_steps and seed must be integers, got {ints}")
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        _check("dt", self.dt)
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic mode requires an even n_paths")

    @property
    def horizon(self) -> float:
        """Total simulated time in days, n_steps * dt."""
        return self.n_steps * self.dt


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error.

    ``value`` and ``std_error`` are floats, or arrays of the broadcast
    strike shape for an array OptionSpec in mc_call_prices.
    """

    value: float
    std_error: float
    n_effective: int


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: log-price x and log-vol state y, (n_paths, n_steps+1)."""

    x: np.ndarray
    y: np.ndarray
    times: np.ndarray

    def __post_init__(self):
        self.x.flags.writeable = False
        self.y.flags.writeable = False
        self.times.flags.writeable = False


def _coerce(params):
    """Map either parameter set onto (vol_level, reversion, k, rho)."""
    if isinstance(params, ModelParams):
        return params.m, params.alpha, params.k, params.rho
    if isinstance(params, MartingaleParams):
        return params.m_bar, params.alpha_bar, params.k, params.rho
    raise TypeError(f"expected ModelParams or MartingaleParams, got {type(params)!r}")


def _expect(params, kind: type, name: str) -> None:
    """Reject parameters of the other measure: the type is the measure."""
    if not isinstance(params, kind):
        raise TypeError(f"{name} expects {kind.__name__}, got {type(params).__name__}")


def _block_sizes(n_paths: int):
    sizes = [BLOCK] * (n_paths // BLOCK)
    if n_paths % BLOCK:
        sizes.append(n_paths % BLOCK)
    return sizes


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normals(rng, size, antithetic):
    if not antithetic:
        return rng.standard_normal(size)
    half = rng.standard_normal(size // 2)
    g = np.empty(size)
    g[0::2] = half
    g[1::2] = -half
    return g


def _iter_blocks(params, cfg: SimConfig, y0: float, rate: float,
                 stationary_start: bool = False, keep_paths: bool = False,
                 keep_returns: bool = False):
    """Advance each block and yield its terminal/trajectory data.

    Yields dicts with the terminal log-price ``x`` always, full ``xs``/``ys``
    (n_block, n_steps+1) when keep_paths, and per-step simple returns
    ``rets`` (n_block, n_steps) when keep_returns.
    """
    vol0, rev, k, rho = _coerce(params)
    dt, n_steps = cfg.dt, cfg.n_steps
    decay = math.exp(-rev * dt)
    sd_ou = math.sqrt(k * k / (2.0 * rev) * -math.expm1(-2.0 * rev * dt))
    beta = math.sqrt(k * k / (2.0 * rev))
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    sdt = math.sqrt(dt)

    for b, size in enumerate(_block_sizes(cfg.n_paths)):
        rng = _block_rng(cfg.seed, b)
        if stationary_start:
            y = beta * _normals(rng, size, cfg.antithetic)
        else:
            y = np.full(size, float(y0))
        x = np.zeros(size)
        xs = ys = rets = None
        if keep_paths:
            xs = np.empty((size, n_steps + 1))
            ys = np.empty((size, n_steps + 1))
            xs[:, 0], ys[:, 0] = x, y
        if keep_returns:
            rets = np.empty((size, n_steps))
        for step in range(n_steps):
            g1 = _normals(rng, size, cfg.antithetic)
            gp = _normals(rng, size, cfg.antithetic)
            g2 = rho * g1 + rho_perp * gp
            sig = vol0 * np.exp(y)
            dx = (rate - 0.5 * sig * sig) * dt + sig * sdt * g1
            x = x + dx
            y = y * decay + sd_ou * g2
            if keep_paths:
                xs[:, step + 1], ys[:, step + 1] = x, y
            if keep_returns:
                rets[:, step] = np.expm1(dx)
        yield {"x": x, "xs": xs, "ys": ys, "rets": rets}


def simulate_paths(params, cfg: SimConfig, y0: float, rate: float = 0.0) -> PathEnsemble:
    """Simulate and store the full path ensemble.

    ``params`` is ModelParams (physical measure; ``y0`` is Y(0)) or
    MartingaleParams (martingale measure; ``y0`` is Z(0)).  ``rate`` is
    the log-price drift's risk-free rate (martingale pricing); physical
    diagnostics demean returns, so their drift convention is immaterial.

    Raises ValueError when n_paths*(n_steps+1) exceeds PATH_BUDGET; the
    streaming estimators (mc_call_prices etc.) handle large runs instead.
    """
    if cfg.n_paths * (cfg.n_steps + 1) > PATH_BUDGET:
        raise ValueError(
            f"ensemble of {cfg.n_paths}x{cfg.n_steps + 1} samples exceeds the "
            f"storage budget ({PATH_BUDGET}); use the streaming estimators")
    xs = np.empty((cfg.n_paths, cfg.n_steps + 1))
    ys = np.empty((cfg.n_paths, cfg.n_steps + 1))
    lo = 0
    for blk in _iter_blocks(params, cfg, y0, rate, keep_paths=True):
        hi = lo + blk["xs"].shape[0]
        xs[lo:hi] = blk["xs"]
        ys[lo:hi] = blk["ys"]
        lo = hi
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return PathEnsemble(x=xs, y=ys, times=times)


def _pairwise(values: np.ndarray, antithetic: bool) -> np.ndarray:
    """Collapse antithetic pairs to their means (the iid samples)."""
    if not antithetic:
        return values
    return 0.5 * (values[0::2] + values[1::2])


def mc_call_prices(mp: MartingaleParams, cfg: SimConfig, spec: OptionSpec) -> McEstimate:
    """Discounted expected call payoffs under the martingale measure, from ``mp.z0``.

    Spot and strike may be arrays; maturity and rate are scalars and the
    maturity equals the config horizon.  ``value`` and ``std_error`` follow
    the OptionSpec shape contract: floats for a scalar spec, arrays of the
    broadcast strike shape otherwise.  All strikes share one ensemble
    (common random numbers), which keeps the price curve internally
    consistent.  With antithetic variates the mirrored pair means are the
    independent samples, so n_effective is n_paths/2.
    """
    _expect(mp, MartingaleParams, "mc_call_prices")
    t, r = spec.maturity, spec.rate
    if np.ndim(t) or np.ndim(r):
        raise ValueError("maturity and rate must be scalars (one horizon per ensemble)")
    if _day_steps(t, cfg.dt, "config horizon: option maturity") != cfg.n_steps:
        raise ValueError(f"config horizon {cfg.horizon:g} != option maturity {t:g}")
    spots, strikes = np.broadcast_arrays(spec.spot, spec.strike)
    disc = math.exp(-r * t)
    total = np.zeros(strikes.shape)
    total_sq = np.zeros(strikes.shape)
    n = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths
    for blk in _iter_blocks(mp, cfg, mp.z0, r):
        growth = np.exp(blk["x"])
        for i in np.ndindex(strikes.shape):
            pay = disc * np.maximum(spots[i] * growth - strikes[i], 0.0)
            pay = _pairwise(pay, cfg.antithetic)
            total[i] += pay.sum()
            total_sq[i] += (pay * pay).sum()
    mean = total / n
    var = np.maximum(0.0, (total_sq - n * mean * mean) / max(n - 1, 1))
    return McEstimate(value=_out(mean), std_error=_out(np.sqrt(var / n)), n_effective=n)


def _day_steps(days: float, dt: float, name: str) -> int:
    """Steps of dt in ``days``: a nonnegative multiple to 1e-9 relative, else ValueError."""
    n = round(days / dt, 0)  # a float: an infinite or NaN count fails the test below
    if days < 0 or not abs(n * dt - days) <= 1e-9 * days:
        raise ValueError(f"{name} must be a nonnegative multiple of dt {dt}, got {days}")
    return int(n)


def _lag_steps(tau_grid: Sequence[float], cfg: SimConfig):
    steps = [_day_steps(abs(tau), cfg.dt, "lag magnitude") for tau in tau_grid]
    if any(n >= cfg.n_steps for n in steps):
        raise ValueError(f"lag {max(map(abs, tau_grid))} is beyond the simulated horizon")
    return [n if tau >= 0 else -n for tau, n in zip(tau_grid, steps)]


#: (p, q) powers of the pair sums sum a^p b^q kept per lag; (0, 0) is the
#: weighted pair count, which follows from the weight row.
_PAIR_POWERS = [(p, q) for p in range(3) for q in range(3) if p or q]


def _raw_sums(r: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """Per-path raw sums of one block of returns, one row per sum.

    Row 0 is each path's weight 1, rows 1-4 are sum r^p over every step,
    then each lag l adds sum a^p b^q for (p, q) in _PAIR_POWERS over the
    pairs a = r(t), b = r(t+l).  Window sums (a or b alone) are the full
    sums less the l edge steps the window leaves out.
    """
    n = r.shape[1]
    pw = [None, r, r * r]
    full = [None, pw[1].sum(axis=1), pw[2].sum(axis=1)]
    rows = [np.ones(r.shape[0]), full[1], full[2],
            np.vecdot(pw[2], pw[1]), np.vecdot(pw[2], pw[2])]
    for lag in lags:
        for p, q in _PAIR_POWERS:
            if p and q:
                rows.append(np.vecdot(pw[p][:, : n - lag], pw[q][:, lag:]))
            elif p:
                rows.append(full[p] - pw[p][:, n - lag:].sum(axis=1))
            else:
                rows.append(full[q] - pw[q][:, :lag].sum(axis=1))
    return np.stack(rows)


def _double_or_nothing(seed: int, block: int, size: int) -> np.ndarray:
    """(_N_BOOT + 1, size) path weights of one block.

    Row 0 is all ones (the point estimate); every other entry is 0 or 2
    with probability 1/2, one bit each, unpacked most significant bit
    first from _N_BOOT * ceil(size/8) bytes of the block's weight stream:
    Philox keyed by (seed, 2**63 + block), disjoint from every path stream.
    """
    rng = _block_rng(seed, block | 1 << 63)
    bits = np.frombuffer(rng.bytes(_N_BOOT * -(-size // 8)), dtype=np.uint8)
    w = np.ones((_N_BOOT + 1, size))
    w[1:] = np.unpackbits(bits.reshape(_N_BOOT, -1), axis=1, count=size)
    w[1:] *= 2.0
    return w


def _centered(raw: dict, mu: float, i: int, j: int):
    """sum (a-mu)^i (b-mu)^j from raw[p, q] = sum a^p b^q, binomially."""
    return sum(math.comb(i, p) * math.comb(j, q) * (-mu) ** (i - p + j - q) * raw[p, q]
               for p in range(i + 1) for q in range(j + 1))


def mc_return_stats(p: ModelParams, cfg: SimConfig, leverage_taus: Sequence[float],
                    autocorr_taus: Sequence[float]):
    """Leverage and squared-return autocorrelation from one simulation.

    Both pool every anchor and path of the demeaned one-step simple
    returns dR of stationary paths.  Leverage is
    L(tau) = mean[dR(t) dR(t+tau)^2] / mean[dR^2]^2; its negative lags
    estimate the anticausal side, which vanishes.  The autocorrelation is
    the Pearson correlation of (dR(t)^2, dR(t+tau)^2) at nonnegative
    lags.  Lags are in days; either grid may be empty.  Returns
    (leverage, autocorr), one list of McEstimate per grid.

    One pass, no panel beyond one block's (at most PATH_BUDGET returns): each
    block's per-path raw sums (powers of r and lagged pair products, see
    _raw_sums) are reduced at once against the block's bootstrap weights
    (_double_or_nothing: row 0 all ones, then _N_BOOT rows of 0/2 weights from
    Philox keyed by (seed, 2**63 + block)).  After the last block, mu =
    sum r / (n_paths n_steps) is the full-sample mean, and every demeaned sum
    follows exactly from the raw ones by binomial expansion in that fixed mu.
    Each replicate uses its own weight sum in place of n_paths; the standard
    error is the std (ddof=1) of the _N_BOOT replicates (less any that drew no
    path at all, possible only for tiny n_paths).
    """
    _expect(p, ModelParams, "mc_return_stats")
    if min(cfg.n_paths, BLOCK) * cfg.n_steps > PATH_BUDGET:
        raise ValueError(f"a block's return panel exceeds the storage budget ({PATH_BUDGET})")
    lev_lags = _lag_steps(leverage_taus, cfg)
    if any(t < 0 for t in autocorr_taus):
        raise ValueError("autocorrelation lags must be nonnegative")
    aco_lags = _lag_steps(autocorr_taus, cfg)
    lags = sorted({abs(lag) for lag in lev_lags + aco_lags})
    n_paths, n_all = cfg.n_paths, cfg.n_steps
    totals = 0.0
    for b, blk in enumerate(_iter_blocks(p, cfg, 0.0, 0.0, stationary_start=True,
                                         keep_returns=True)):
        sums = _raw_sums(blk["rets"], lags)
        w = _double_or_nothing(cfg.seed, b, sums.shape[1])
        # one dot per (replicate, sum): no multithreaded BLAS gemm
        totals = totals + np.vecdot(w[:, None, :], sums)
    totals = totals[totals[:, 0] > 0]       # a replicate that drew no path
    n_w = totals[:, 0]
    mu = totals[0, 1] / (n_paths * n_all)
    single = {(k, 0): totals[:, k] for k in range(1, 5)}
    single[0, 0] = n_w * n_all
    mean2 = _centered(single, mu, 2, 0) / (n_w * n_all)
    mean4 = _centered(single, mu, 4, 0) / (n_w * n_all)

    def pair_sums(lag):
        lo = 5 + len(_PAIR_POWERS) * lags.index(lag)
        raw = dict(zip(_PAIR_POWERS, totals[:, lo: lo + len(_PAIR_POWERS)].T))
        raw[0, 0] = n_w * (n_all - lag)
        return raw

    def estimate(stat, lag):
        return McEstimate(value=float(stat[0]), std_error=float(stat[1:].std(ddof=1)),
                          n_effective=n_paths * (n_all - abs(lag)))

    lev = []
    for lag in lev_lags:
        raw = pair_sums(abs(lag))
        # a is the earlier return: tau >= 0 weights the later one squared
        num = _centered(raw, mu, 1, 2) if lag >= 0 else _centered(raw, mu, 2, 1)
        lev.append(estimate((num / raw[0, 0]) / mean2 ** 2, lag))
    aco = []
    for lag in aco_lags:
        raw = pair_sums(lag)
        cov = _centered(raw, mu, 2, 2) / raw[0, 0] - mean2 * mean2
        aco.append(estimate(cov / (mean4 - mean2 * mean2), lag))
    return lev, aco
