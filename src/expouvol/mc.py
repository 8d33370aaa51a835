"""Seeded Monte Carlo oracle for the expOU model under both measures.

Scheme: the log-volatility is advanced by its exact OU transition
(mean-reversion factor e^{-alpha dt}, innovation variance
(k^2/2alpha)(1 - e^{-2 alpha dt})), the log-price by Euler with the
same-step correlated Gaussian pair xi2 = rho xi1 + sqrt(1-rho^2) xi_perp.
The parameter type fixes the measure: ModelParams simulate the physical
measure (m, alpha, Y), MartingaleParams the martingale measure (m_bar,
alpha_bar, shifted Z).  One step generator (_steps) advances a block of
paths _STEP_CHUNK steps at a time, one numpy call per operation for the
whole chunk, and yields the chunk's log-price increments and log-vols, one
row per step, in buffers it reuses for the next chunk; each of its three
readers keeps what it reads before it asks for the next chunk.  The
pricer (mc_call_prices) takes only MartingaleParams and adds up the
increments to the terminal log-price; the return statistics
(mc_return_stats, both statistics from one streaming pass) take only
ModelParams, start from the stationary law and keep one block's simple
returns at a time; simulate_paths takes either and stores whole paths.

Reproducibility: paths are partitioned into fixed blocks of ``BLOCK``
paths; block ``b`` consumes an independent Philox substream keyed by
(seed, b), with one standard_normal fill per chunk of steps (numpy's
ziggurat reads the stream in order, so this is the stream of one vector
per noise leg per step), so each block's draws and per-block sums depend
only on (seed, b), not on the chunk length.  The blocks run concurrently
on a thread pool with one thread per CPU in the process's affinity mask
(numpy releases the GIL while it fills normals and does array
arithmetic), fewer for mc_return_stats when PATH_BUDGET cannot hold one
return panel per thread; each worker computes one block's sums, and the
calling thread adds them in block-index order.  Floating-point sums are
not associative, so it is that fixed order, not the order in which blocks
finish or the number of threads, which makes estimates bit-exact for
identical SimConfig.
mc_return_stats draws its bootstrap weights (0 or 2, one random bit per
path and replicate) from a second stream per block, Philox keyed by
(seed, 2**63 + b), so they never overlap a path stream; the full-sample
demeaning is exact algebra on the accumulated raw sums.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .model import PATH_BUDGET, ModelParams, SimConfig, _check, _day_steps, _out
from .risk_neutral import MartingaleParams

if TYPE_CHECKING:  # annotations only: mc never runs pricing, so stats never loads it
    from .pricing import OptionSpec

__all__ = [
    "McEstimate",
    "PathEnsemble",
    "simulate_paths",
    "mc_call_prices",
    "mc_return_stats",
]

BLOCK = 4096
#: steps a block advances per pass of _steps (one normal fill and one ufunc call
#: per operation per chunk), and strike lanes per payoff row of mc_call_prices
_STEP_CHUNK = 4
#: bootstrap replicates behind every mc_return_stats standard error
_N_BOOT = 200
#: bytes of one row chunk in the per-block stats reductions: the r*r
#: scratch of _block_sums and the bootstrap weights of _bootstrap_sums.
#: It trades memory for calls: _block_sums makes 5 + 12 per lag a chunk.
_CHUNK_BYTES = 1 << 19


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
        for a in (self.x, self.y, self.times):
            a.flags.writeable = False


def _coerce(params, name: str = "simulate_paths", kinds=(ModelParams, MartingaleParams)):
    """(vol_level, reversion, k, rho) of ``params``; ``name`` takes only ``kinds``: the measure."""
    if not isinstance(params, kinds):
        raise TypeError(f"{name} expects {' or '.join(kind.__name__ for kind in kinds)}, "
                        f"got {type(params).__name__}")
    if isinstance(params, ModelParams):
        return params.m, params.alpha, params.k, params.rho
    return params.m_bar, params.alpha_bar, params.k, params.rho


def _block_sizes(n_paths: int):
    full, rest = divmod(n_paths, BLOCK)
    return [BLOCK] * full + [rest] * (rest > 0)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _normals(rng, out: np.ndarray, antithetic: bool) -> np.ndarray:
    """Fill ``out`` with normals, paths on its last axis; antithetic mode draws
    half as many and puts them in the even lanes, their negations in the odd."""
    if not antithetic:
        return rng.standard_normal(out=out)
    half = rng.standard_normal(out.shape[:-1] + (out.shape[-1] // 2,))
    out[..., 0::2] = half
    np.negative(half, out=out[..., 1::2])
    return out


def _n_workers() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_blocks(fn, cfg: SimConfig, block_samples: int = 0):
    """Yield ``fn(b, size)`` for every block of ``cfg``, in block order.

    Blocks run concurrently on a thread pool of one thread per usable CPU
    (numpy drops the GIL inside the RNG fill and the array arithmetic).
    ``block_samples`` is the size of the panel one running block holds
    (mc_return_stats' returns); the pool then runs at most
    PATH_BUDGET // block_samples blocks at once, so PATH_BUDGET bounds the
    panels of all running blocks together.  At most two blocks per thread
    are queued ahead of the one being yielded, so the bookkeeping does not
    grow with the block count.  A block that raises cancels every queued
    block, and the exception propagates; the pool is joined before this
    returns.  Each block runs under the caller's numpy error state.
    """
    sizes = _block_sizes(cfg.n_paths)
    workers = min(len(sizes), _n_workers())
    if block_samples:
        workers = min(workers, max(1, PATH_BUDGET // block_samples))
    todo = iter(enumerate(sizes))
    errstate = np.geterr()  # numpy's error state is per thread: workers take the caller's

    def run(b, size):
        with np.errstate(**errstate):
            return fn(b, size)

    with ThreadPoolExecutor(workers) as pool:
        window = deque(pool.submit(run, b, size) for b, size in islice(todo, 2 * workers))
        try:
            while window:
                result = window.popleft().result()
                window.extend(pool.submit(run, b, size) for b, size in islice(todo, 1))
                yield result
        finally:
            for future in window:
                future.cancel()


def _steps(params, cfg: SimConfig, rng: np.random.Generator, y: np.ndarray, rate: float):
    """Advance one block's paths from log-vol ``y``, _STEP_CHUNK steps at a time.

    Each chunk of c steps makes one _normals fill of (c, 2, size) from
    ``rng`` (the block's stream; antithetic mode draws a transient of
    c x size doubles and mirrors it), the stream of two per-step normal
    vectors, step after step.  It yields ``(dx, ys)``, the
    (c, size) log-price increments and new log-vols, one row per step; the
    last chunk may be shorter.  Every element goes through the same IEEE
    operations, in the same order, as a one-step-at-a-time loop would take,
    so the bits do not depend on the chunk length.  The yielded arrays are
    views of its three buffers (normals, log-vols, increments), reused by
    the next chunk: a reader consumes them before it advances the generator.
    """
    vol0, rev, k, rho = _coerce(params)
    dt = cfg.dt
    decay = math.exp(-rev * dt)
    sd_ou = math.sqrt(k * k / (2.0 * rev) * -math.expm1(-2.0 * rev * dt))
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    sdt = math.sqrt(dt)
    n, c = y.size, min(_STEP_CHUNK, cfg.n_steps)
    g = np.empty((c, 2, n))             # per step: the price leg g1, then gp
    ys = np.empty((c + 1, n))           # row 0: the log-vol before the chunk
    dx = np.empty((c, n))
    ys[0] = y
    for lo in range(0, cfg.n_steps, c):
        m = min(c, cfg.n_steps - lo)
        g1, gp, d = g[:m, 0], g[:m, 1], dx[:m]
        _normals(rng, g[:m], cfg.antithetic)
        # gp becomes sd_ou * g2, g2 = rho g1 + rho_perp gp; rho g1 waits in d
        np.multiply(rho_perp, gp, out=gp)
        np.multiply(rho, g1, out=d)
        np.add(d, gp, out=gp)
        np.multiply(sd_ou, gp, out=gp)
        for j in range(m):
            np.multiply(ys[j], decay, out=ys[j + 1])
            np.add(ys[j + 1], gp[j], out=ys[j + 1])
        # dx = (rate - 0.5 sig sig) dt + sig sdt g1, sig = vol0 e^y before each step,
        # in the gp rows: the recurrence has read them, so they are spent
        s = np.exp(ys[:m], out=gp)
        np.multiply(vol0, s, out=s)
        np.multiply(0.5, s, out=d)
        np.multiply(d, s, out=d)
        np.subtract(rate, d, out=d)
        np.multiply(d, dt, out=d)
        np.multiply(s, sdt, out=s)
        np.multiply(s, g1, out=s)
        np.add(d, s, out=d)
        yield d, ys[1:m + 1]
        ys[0] = ys[m]


def simulate_paths(params: ModelParams | MartingaleParams, cfg: SimConfig, y0: float,
                   rate: float = 0.0) -> PathEnsemble:
    """Simulate and store the full path ensemble.

    ``params`` is ModelParams (physical measure; ``y0`` is Y(0)) or
    MartingaleParams (martingale measure; ``y0`` is Z(0)).  ``rate`` is
    the log-price drift's risk-free rate (martingale pricing); physical
    diagnostics demean returns, so their drift convention is immaterial.

    Raises TypeError for any other ``params``, and ValueError when ``y0`` or
    ``rate`` is not one finite number or when n_paths*(n_steps+1) exceeds
    PATH_BUDGET; the streaming estimators (mc_call_prices etc.) handle large
    runs instead.
    """
    _coerce(params)
    _check("y0", y0, "finite", scalar=True)
    _check("rate", rate, "finite", scalar=True)
    if cfg.n_paths * (cfg.n_steps + 1) > PATH_BUDGET:
        raise ValueError(
            f"ensemble of {cfg.n_paths}x{cfg.n_steps + 1} samples exceeds the "
            f"storage budget ({PATH_BUDGET}); use the streaming estimators")
    xs = np.empty((cfg.n_paths, cfg.n_steps + 1))
    ys = np.empty((cfg.n_paths, cfg.n_steps + 1))

    def fill(b, size):
        rows = slice(b * BLOCK, b * BLOCK + size)
        xs[rows, 0], ys[rows, 0] = 0.0, y0
        steps = _steps(params, cfg, _block_rng(cfg.seed, b), np.full(size, float(y0)), rate)
        i = 1
        for dx, y in steps:
            xs[rows, i:i + len(dx)] = dx.T
            ys[rows, i:i + len(dx)] = y.T
            i += len(dx)
        np.cumsum(xs[rows], axis=1, out=xs[rows])   # x adds up dx step by step

    for _ in _map_blocks(fill, cfg):
        pass
    times = np.arange(cfg.n_steps + 1) * cfg.dt
    return PathEnsemble(x=xs, y=ys, times=times)


def mc_call_prices(mp: MartingaleParams, cfg: SimConfig, spec: OptionSpec) -> McEstimate:
    """Discounted expected call payoffs under the martingale measure, from ``mp.z0``.

    Spot and strike may be arrays; maturity and rate are single numbers and
    the maturity is the config horizon.  ``value`` and ``std_error`` follow
    the OptionSpec shape contract: floats for a scalar spec, arrays of the
    broadcast strike shape otherwise.  All strikes share one ensemble
    (common random numbers), which keeps the price curve internally
    consistent.  With antithetic variates the mirrored pair means are the
    independent samples, so n_effective is n_paths/2.  20,001 strikes x 8,192
    paths at dt=0.5 take about 0.55 s on one CPU of a 2-CPU Xeon, 0.5 s on two.
    """
    _coerce(mp, "mc_call_prices", (MartingaleParams,))
    t, r = spec.maturity, spec.rate
    _check("maturity", t, scalar=True)  # one horizon per ensemble
    _check("rate", r, "finite", scalar=True)
    if _day_steps(t, cfg.dt, "config horizon: option maturity") != cfg.n_steps:
        raise ValueError(f"config horizon {cfg.horizon:g} != option maturity {t:g}")
    spots, strikes = np.broadcast_arrays(spec.spot, spec.strike)
    sp, st = spots.reshape(-1, 1), strikes.reshape(-1, 1)  # the lanes as columns
    disc = math.exp(-r * t)
    n = cfg.n_paths // 2 if cfg.antithetic else cfg.n_paths

    def payoff_sums(b, size):
        x = np.zeros(size)
        for dx, _ in _steps(mp, cfg, _block_rng(cfg.seed, b), np.full(size, float(mp.z0)), r):
            for dx_i in dx:     # row by row: the order of the sum
                x += dx_i
        growth = np.exp(x, out=x)
        sums = np.empty((2, strikes.size))
        for lo in range(0, strikes.size, _STEP_CHUNK):
            k = slice(lo, lo + _STEP_CHUNK)  # a row sums as one strike alone did: the same bits
            pay = disc * np.maximum(sp[k] * growth - st[k], 0.0)
            if cfg.antithetic:      # the mirrored pair means are the iid samples
                pay = 0.5 * (pay[:, 0::2] + pay[:, 1::2])
            sums[:, k] = pay.sum(axis=1), (pay * pay).sum(axis=1)
        return sums

    # sum() is a left fold: the block sums are added in block order
    total, total_sq = sum(_map_blocks(payoff_sums, cfg)).reshape((2,) + strikes.shape)
    mean = total / n
    var = np.maximum(0.0, (total_sq - n * mean * mean) / max(n - 1, 1))
    return McEstimate(value=_out(mean), std_error=_out(np.sqrt(var / n)), n_effective=n)


def _lag_steps(tau_grid: Sequence[float], cfg: SimConfig, name: str, rule: str):
    for tau in tau_grid:
        _check(name, tau, rule, scalar=True)
    steps = [_day_steps(abs(tau), cfg.dt, "lag magnitude") for tau in tau_grid]
    if any(n >= cfg.n_steps for n in steps):
        raise ValueError(f"lag {max(map(abs, tau_grid))} is beyond the simulated horizon")
    return [n if tau >= 0 else -n for tau, n in zip(tau_grid, steps)]


#: (p, q) powers of the pair sums sum a^p b^q kept per lag; (0, 0) is the
#: weighted pair count, which follows from the weight row.
_PAIR_POWERS = [(p, q) for p in range(3) for q in range(3) if p or q]


def _chunks(n_rows: int, width: int):
    """Row slices of an (n_rows, width) float array, about _CHUNK_BYTES each."""
    step = max(1, _CHUNK_BYTES // (8 * width))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _block_sums(rets: np.ndarray, lags: Sequence[int]) -> np.ndarray:
    """The (5 + 8 len(lags), size) per-path raw sums of a block's returns.

    Row 0 is each path's weight 1 and rows 1-4 are sum r, sum r^2,
    sum r^2 r and sum r^2 r^2 over every step; lag ``lags[k]`` then has
    rows 5+8k to 12+8k, sum a^p b^q for (p, q) in _PAIR_POWERS over the
    pairs a = r(t), b = r(t+lag).  A window sum (a or b alone) is its full
    sum less the sum over the edge steps the window leaves out.  One pass
    writes every row in place, a row chunk at a time, with one r*r scratch
    shared by every chunk.  Each path's sums use only its own row, through
    the same numpy calls whatever the chunk, so the values do not depend
    on the chunking.
    """
    n = rets.shape[1]
    chunks = _chunks(*rets.shape)
    sums = np.empty((5 + len(_PAIR_POWERS) * len(lags), rets.shape[0]))
    sq = np.empty_like(rets[chunks[0]])
    sums[0] = 1.0
    for c in chunks:
        r, out = rets[c], sums[:, c]
        pw = [None, r, np.multiply(r, r, out=sq[:len(r)])]
        np.add.reduce(r, axis=1, out=out[1])
        np.add.reduce(pw[2], axis=1, out=out[2])
        np.vecdot(pw[2], r, out=out[3])
        np.vecdot(pw[2], pw[2], out=out[4])
        for k, lag in enumerate(lags):
            for i, (p, q) in enumerate(_PAIR_POWERS, 5 + len(_PAIR_POWERS) * k):
                if p and q:
                    np.vecdot(pw[p][:, : n - lag], pw[q][:, lag:], out=out[i])
                else:
                    edge = pw[p][:, n - lag:] if p else pw[q][:, :lag]
                    np.add.reduce(edge, axis=1, out=out[i])
                    np.subtract(out[p or q], out[i], out=out[i])
    return sums


def _bootstrap_sums(seed: int, block: int, sums: np.ndarray) -> np.ndarray:
    """(_N_BOOT + 1, n_sums) weighted totals of one block's per-path sums.

    Entry (i, j) is the dot of path weight row i with sums row j.  Row 0's
    weights are all ones (the point estimate); every other weight is 0 or
    2 with probability 1/2, one bit each, unpacked most significant bit
    first from _N_BOOT * ceil(size/8) bytes of the block's weight stream:
    Philox keyed by (seed, 2**63 + block), disjoint from every path stream.
    The weight rows are built a chunk at a time, never all at once.
    """
    size = sums.shape[1]
    rng = _block_rng(seed, block | 1 << 63)
    bits = np.frombuffer(rng.bytes(_N_BOOT * -(-size // 8)), dtype=np.uint8)
    bits = bits.reshape(_N_BOOT, -1)
    out = np.empty((_N_BOOT + 1, sums.shape[0]))
    # one dot per (replicate, sum), sums row by sums row: no multithreaded BLAS gemm
    out[0] = np.vecdot(np.ones(size), sums)
    for rows in _chunks(_N_BOOT, size):
        w = np.unpackbits(bits[rows], axis=1, count=size) * 2.0
        out[1:][rows] = np.vecdot(w, sums[:, None, :]).T
    return out


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
    lags.  Each lag is one number of days; either grid may be empty.
    Returns (leverage, autocorr), one list of McEstimate per grid.

    One pass, at most one block's return panel per worker, and at most
    PATH_BUDGET returns in the panels of all running blocks together: each
    block's per-path raw sums (powers of r, then eight lagged pair sums per
    lag in ``lags`` order, see _block_sums) are reduced at once against
    the block's bootstrap weights (_bootstrap_sums: row 0 all ones, then
    _N_BOOT rows of 0/2 weights from Philox keyed by (seed, 2**63 + block)),
    and the block totals are added in block order.  After the last block, mu =
    sum r / (n_paths n_steps) is the full-sample mean, and every demeaned sum
    follows exactly from the raw ones by binomial expansion in that fixed mu.
    Each replicate uses its own weight sum in place of n_paths; the standard
    error is the std (ddof=1) of the _N_BOOT replicates (less any that drew no
    path at all, possible only for tiny n_paths).
    """
    _coerce(p, "mc_return_stats", (ModelParams,))
    panel = min(cfg.n_paths, BLOCK) * cfg.n_steps
    if panel > PATH_BUDGET:
        raise ValueError(f"a block's return panel exceeds the storage budget ({PATH_BUDGET})")
    lev_lags = _lag_steps(leverage_taus, cfg, "leverage lag", "finite")
    aco_lags = _lag_steps(autocorr_taus, cfg, "autocorrelation lag", "nonnegative")
    lags = sorted({abs(lag) for lag in lev_lags + aco_lags})
    n_paths, n_all = cfg.n_paths, cfg.n_steps

    def weighted_sums(b, size):
        rng = _block_rng(cfg.seed, b)
        rets = np.empty((size, n_all))
        y = math.sqrt(p.beta2) * _normals(rng, np.empty(size), cfg.antithetic)  # stationary start
        i = 0
        for dx, _ in _steps(p, cfg, rng, y, 0.0):
            rets[:, i:i + len(dx)] = np.expm1(dx, out=dx).T
            i += len(dx)
        sums = _block_sums(rets, lags)
        del rets    # freed before the bootstrap
        return _bootstrap_sums(cfg.seed, b, sums)

    # sum() is a left fold: the block totals are added in block order
    totals = sum(_map_blocks(weighted_sums, cfg, block_samples=panel))
    totals = totals[totals[:, 0] > 0]       # a replicate that drew no path
    n_w = totals[:, 0]
    mu = totals[0, 1] / (n_paths * n_all)
    single = {(k, 0): totals[:, k] for k in range(1, 5)}
    single[0, 0] = n_w * n_all
    mean2 = _centered(single, mu, 2, 0) / (n_w * n_all)
    mean4 = _centered(single, mu, 4, 0) / (n_w * n_all)

    def pair_sums(lag):
        lo = 5 + len(_PAIR_POWERS) * lags.index(lag)
        raw = dict(zip(_PAIR_POWERS, totals[:, lo:lo + len(_PAIR_POWERS)].T))
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
