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
import numbers
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


#: rule -> (test on a number or an array, what a refused value must do)
_RULES = {"positive": (lambda v: (v > 0) & (v < math.inf), "be positive and finite"),
          "finite": (lambda v: (v > -math.inf) & (v < math.inf), "be finite"),
          "nonnegative": (lambda v: v >= 0, "be nonnegative"),
          "correlation": (lambda v: (v >= -1) & (v <= 1), "lie in [-1, 1]"),
          "number": (lambda v: True, "be a number")}


def _check(name: str, value, rule: str = "positive", scalar: bool = False) -> None:
    """The package's one input rule: ValueError("<name> must <...>, got <value>").

    ``rule`` is a key of _RULES; "nonnegative" runs "finite" first.  A
    number is a numbers.Real but not a bool, or an integer or float array
    (element by element); anything else fails every rule, shown by repr
    unless a numbers.Number, numpy scalar or array.  With ``scalar``, a
    passing array that is not 0-d "must be a single number".  A float skips
    numpy and the ABC test: dataclasses rebuilt per evaluation stay cheap.
    """
    if rule == "nonnegative":
        _check(name, value, "finite", scalar)
    test, must = _RULES[rule]
    if isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool):
        ok = test(value)
    else:
        v = np.asarray(value)
        ok = v.dtype.kind in "iuf" and np.all(test(v))
        if ok and scalar and v.ndim:
            ok, must = False, "be a single number"
    if not ok:
        num = isinstance(value, (numbers.Number, np.generic, np.ndarray))
        raise ValueError(f"{name} must {must}, got {value if num else repr(value)}")


def _broadcast(owner) -> None:
    """Refuse a dataclass whose fields cannot broadcast together, naming every shape."""
    try:
        np.broadcast(*vars(owner).values())
    except ValueError:
        shapes = {name: np.shape(v) for name, v in vars(owner).items()}
        raise ValueError(f"{type(owner).__name__} fields must broadcast together, "
                         f"got shapes {shapes}") from None


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
            _check(name, getattr(self, name), scalar=True)
        _check("rho", self.rho, "correlation", scalar=True)
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
    _check("y0", y0, "finite")
    _check("t", t, "nonnegative")
    t = np.asarray(t, dtype=float)
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
    _check("sigma0", sigma0, scalar=True)
    _check("t", t, scalar=True)
    return _vol_lognormal(p, sigma, *ou_conditional_moments(p, math.log(sigma0 / p.m), t))


def vol_stationary_pdf(p: ModelParams, sigma):
    """Stationary volatility density: lognormal with median m, log-scale beta."""
    _check("sigma", sigma)
    return _vol_lognormal(p, sigma, 0.0, p.beta2)


def _vol_lognormal(p: ModelParams, sigma, mean: float, var: float):
    """Density at ``sigma`` of m e^Y, Y normal with ``mean`` and ``var``: the lognormal law."""
    sigma = np.asarray(sigma, dtype=float)
    z = np.log(sigma / p.m) - mean
    return _out(np.exp(-z * z / (2.0 * var)) / (sigma * math.sqrt(2.0 * math.pi * var)))


def squared_return_autocorr(p: ModelParams, tau):
    """Autocorrelation of squared returns at lag tau >= 0 days.

    Corr[dR(t)^2, dR(t+tau)^2] = (exp(4 beta^2 e^{-alpha tau}) - 1)
                                 / (3 exp(4 beta^2) - 1).

    Decays through a cascade of exponentials exp(-n alpha tau); the lag-0
    value is below 1/3 and the large-lag tail is a single exponential.
    """
    _check("tau", tau, "nonnegative")
    tau = np.asarray(tau, dtype=float)
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
    _check("tau", tau, "finite")
    tau = np.asarray(tau, dtype=float)
    b2 = p.beta2
    amp = 2.0 * p.rho * p.k / p.m
    tpos = np.maximum(tau, 0.0)
    val = amp * np.exp(-p.alpha * tpos + 2.0 * b2 * (np.exp(-p.alpha * tpos) - 0.75))
    out = np.where(tau < 0, 0.0, val)
    return _out(out)


#: The one size cap: on stored ensembles (simulate_paths) and per-block
#: return panels (mc_return_stats), in samples, and on the CLI's grid
#: points and step counts; mc_call_prices streams and has no limit.
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
        if not 0 <= self.seed < 2**64:  # the Philox key's word
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        _check("dt", self.dt, scalar=True)
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
    """Unusable quotes: an empty file, a bad header, non-UTF-8 bytes, a record the
    csv module refuses (a field over its size limit) or fewer than 2 quotes."""


def y0_from_vol_index(sigma0_annual: float, m: float) -> float:
    """Initial log-volatility from an annualized vol index: ln(sigma0_daily/m)."""
    _check("sigma0", sigma0_annual, scalar=True)
    _check("m", m, scalar=True)
    return math.log(daily_vol(sigma0_annual) / m)
