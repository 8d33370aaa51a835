"""Physical-measure exponential Ornstein-Uhlenbeck (expOU) market model.

Two-dimensional diffusion in daily units: the price S(t) is a log-Brownian
motion whose instantaneous volatility is sigma(t) = m * exp(Y(t)), and the
log-volatility Y(t) is an Ornstein-Uhlenbeck process

    dS/S = mu dt + m e^Y dW1,    dY = -alpha Y dt + k dW2,

with Wiener correlation <dW1 dW2> = rho dt.  This module provides the OU
moments, the volatility densities and the two return-correlation
diagnostics (squared-return autocorrelation and leverage), and the input
types and rules that every CLI command checks, SimConfig among them.

All quantities are in daily units: times in days, alpha in 1/day, m and k
in day^(-1/2).  Annualization happens only at the CLI boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units import daily_vol

__all__ = [
    "ModelParams",
    "SimConfig",
    "QuoteError",
    "y0_from_vol_index",
    "ou_conditional_moments",
    "vol_conditional_pdf",
    "vol_stationary_pdf",
    "squared_return_autocorr",
    "leverage",
]


def _out(x):
    """Python scalar for a 0-d result, the array otherwise."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _check(name: str, value, positive: bool = True) -> None:
    """The package's numeric-input rule: ``value`` finite, and > 0 if ``positive``.

    Scalars and arrays alike, element by element; raises ValueError naming
    the field; a bool is not a number here.  A plain float skips numpy, so
    the dataclasses rebuilt on every calibration objective evaluation stay
    cheap.
    """
    lo = 0.0 if positive else -math.inf
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        ok = lo < value < math.inf
    elif np.asarray(value).dtype == bool:
        ok = False
    else:
        v = np.asarray(value, dtype=float)
        ok = np.all((v > lo) & (v < math.inf))
    if not ok:
        kind = "positive and finite" if positive else "finite"
        raise ValueError(f"{name} must be {kind}, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """expOU model parameters (physical measure, daily units).

    Attributes
    ----------
    m : float
        Normal level of volatility, day^(-1/2).  Median of the stationary
        lognormal volatility distribution.
    alpha : float
        Mean-reversion rate of the log-volatility, day^(-1).
    k : float
        Vol-of-vol (noise amplitude of the log-volatility OU), day^(-1/2).
    rho : float
        Correlation between the price and volatility Wiener noises,
        in [-1, 1].  Negative rho produces the leverage effect.
    """

    m: float
    alpha: float
    k: float
    rho: float

    def __post_init__(self):
        for name in ("m", "alpha", "k"):
            _check(name, getattr(self, name))
        if isinstance(self.rho, (bool, np.bool_)) or not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if not math.isfinite(self.beta2):
            raise ValueError("k^2/(2 alpha) is not finite")

    @property
    def beta2(self) -> float:
        """Stationary variance of the log-volatility, beta^2 = k^2/(2 alpha)."""
        return self.k * self.k / (2.0 * self.alpha)


def ou_conditional_moments(p: ModelParams, y0: float, t):
    """Conditional mean and variance of Y(t) given Y(0) = y0.

    mean = y0 exp(-alpha t), variance = (k^2/2alpha)(1 - exp(-2 alpha t)).
    The variance grows monotonically from 0 to beta^2.
    """
    _check("y0", y0, positive=False)
    _check("t", t, positive=False)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be nonnegative")
    mean = y0 * np.exp(-p.alpha * t)
    var = p.beta2 * (-np.expm1(-2.0 * p.alpha * t))
    return _out(mean), _out(var)


def vol_conditional_pdf(p: ModelParams, sigma, t: float, sigma0: float):
    """Transition density of the volatility sigma(t) = m e^{Y(t)}.

    Lognormal in sigma: the log-location relaxes from ln(sigma0) toward
    ln(m) at rate alpha, the log-variance grows toward beta^2.

    Parameters
    ----------
    sigma : float or ndarray
        Volatility at which to evaluate the density, > 0.
    t : float
        Elapsed time in days, > 0.
    sigma0 : float
        Initial volatility, > 0.
    """
    _check("sigma", sigma)
    _check("sigma0", sigma0)
    _check("t", t)
    sigma = np.asarray(sigma, dtype=float)
    decay = math.exp(-p.alpha * t)
    var = p.beta2 * (1.0 - decay * decay)
    z = np.log(sigma / p.m) - decay * math.log(sigma0 / p.m)
    pdf = np.exp(-z * z / (2.0 * var)) / (sigma * math.sqrt(2.0 * math.pi * var))
    return _out(pdf)


def vol_stationary_pdf(p: ModelParams, sigma):
    """Stationary volatility density: lognormal with median m, log-scale beta."""
    _check("sigma", sigma)
    sigma = np.asarray(sigma, dtype=float)
    b2 = p.beta2
    z = np.log(sigma / p.m)
    pdf = np.exp(-z * z / (2.0 * b2)) / (sigma * math.sqrt(2.0 * math.pi * b2))
    return _out(pdf)


def squared_return_autocorr(p: ModelParams, tau):
    """Autocorrelation of squared returns at lag tau >= 0 days.

    Corr[dR(t)^2, dR(t+tau)^2] = (exp(4 beta^2 e^{-alpha tau}) - 1)
                                 / (3 exp(4 beta^2) - 1).

    Decays through a cascade of exponentials exp(-n alpha tau); the lag-0
    value is below 1/3 and the large-lag tail is a single exponential.
    """
    _check("tau", tau, positive=False)
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be nonnegative")
    b2 = p.beta2
    num = np.expm1(4.0 * b2 * np.exp(-p.alpha * tau))
    den = 3.0 * math.exp(4.0 * b2) - 1.0
    out = num / den
    return _out(out)


def leverage(p: ModelParams, tau):
    """Return-volatility correlation L(tau); zero for tau < 0.

    L(tau) = (2 rho k / m) exp(-alpha tau + 2 beta^2 (e^{-alpha tau} - 3/4))
    for tau >= 0.  The sign is the sign of rho; the decay rate is k^2 for
    alpha*tau << 1 and alpha for alpha*tau >> 1.
    """
    _check("tau", tau, positive=False)
    tau = np.asarray(tau, dtype=float)
    b2 = p.beta2
    amp = 2.0 * p.rho * p.k / p.m
    tpos = np.maximum(tau, 0.0)
    val = amp * np.exp(-p.alpha * tpos + 2.0 * b2 * (np.exp(-p.alpha * tpos) - 0.75))
    out = np.where(tau < 0, 0.0, val)
    return _out(out)


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
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer)) for v in ints):
            raise ValueError(f"n_paths, n_steps and seed must be integers, got {ints}")
        if self.n_paths < 1 or self.n_steps < 1:
            raise ValueError("n_paths and n_steps must be >= 1")
        _check("dt", self.dt)
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError(f"antithetic must be a bool, got {self.antithetic!r}")
        if self.antithetic and self.n_paths % 2:
            raise ValueError("antithetic mode requires an even n_paths")

    @property
    def horizon(self) -> float:
        """Total simulated time in days, n_steps * dt."""
        return self.n_steps * self.dt


def _day_steps(days: float, dt: float, name: str) -> int:
    """Steps of dt in ``days``: a nonnegative multiple to 1e-9 relative, else ValueError."""
    n = round(days / dt, 0)  # a float: an infinite or NaN count fails the test below
    if days < 0 or not abs(n * dt - days) <= 1e-9 * days:
        raise ValueError(f"{name} must be a nonnegative multiple of dt {dt}, got {days}")
    return int(n)


class QuoteError(ValueError):
    """Quote file cannot be used at all: empty, or without a usable header."""


def y0_from_vol_index(sigma0_annual: float, m: float) -> float:
    """Initial log-volatility from an annualized vol index: ln(sigma0_daily/m)."""
    _check("sigma0", sigma0_annual)
    _check("m", m)
    return math.log(daily_vol(sigma0_annual) / m)
