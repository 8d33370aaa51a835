"""Equivalent-martingale machinery for the expOU model.

The measure change uses a market price of risk that is linear in the
log-volatility, Lambda(Y) = Lambda0 + Lambda1 * Y.  Under the pricing
measure the model keeps its expOU form with rescaled parameters

    alpha_bar = alpha + k Lambda1,   m_bar = m exp(-k Lambda0 / alpha_bar),

and a shifted log-volatility Z = Y + k Lambda0 / alpha_bar.  For large
lambda = k / m_bar the characteristic function of the log-return admits a
fourth-order expansion whose coefficients (mu, theta, sigma3, kappa) feed
both the Hermite-corrected return density and the closed-form option
price corrections.

Characteristic functions here follow the convention

    phi(omega) = E[exp(-i omega X(t))],

the complex conjugate of the textbook transform; this is the convention
under which the Hermite-corrected density below is the exact inverse
transform of ``char_fn_expanded``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, _check, _out

__all__ = [
    "RiskAversion",
    "MartingaleParams",
    "ExpansionCoeffs",
    "to_martingale",
    "expansion_coeffs",
    "expansion_coeffs_averaged",
    "char_fn_full",
    "char_fn_expanded",
    "return_density",
    "hermite_poly",
    "negative_mass_fraction",
    "regime_warning",
]

#: lambda = k / m_bar below this value, or Hermite correction weights above
#: REGIME_MAX_CORRECTION, mark the expansion as untrustworthy (soft flag).
REGIME_MIN_LAMBDA = 5.0
REGIME_MAX_CORRECTION = 0.5


@dataclass(frozen=True)
class RiskAversion:
    """Linear market price of volatility risk, Lambda(Y) = lambda0 + lambda1 Y."""

    lambda0: float
    lambda1: float

    def __post_init__(self):
        _check("lambda0", self.lambda0, positive=False)
        _check("lambda1", self.lambda1, positive=False)


@dataclass(frozen=True)
class MartingaleParams:
    """Risk-neutral expOU parameters (daily units).

    ``lam`` (= k/m_bar, the expansion's large parameter), ``nu``
    (= alpha_bar/k^2) and ``beta2_bar`` are derived properties so the
    scale-ratio invariants hold by construction.
    """

    m_bar: float
    alpha_bar: float
    k: float
    rho: float
    z0: float

    def __post_init__(self):
        for name in ("m_bar", "alpha_bar", "k"):
            _check(name, getattr(self, name))
        _check("z0", self.z0, positive=False)
        if isinstance(self.rho, (bool, np.bool_)) or not (-1.0 <= self.rho <= 1.0):
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")

    @property
    def lam(self) -> float:
        """Scale ratio k/m_bar; the expansion assumes lam >> 1."""
        return self.k / self.m_bar

    @property
    def nu(self) -> float:
        """Dimensionless reversion rate alpha_bar/k^2 = 1/(2 beta_bar^2)."""
        return self.alpha_bar / (self.k * self.k)

    @property
    def beta2_bar(self) -> float:
        """Stationary variance of Z, k^2/(2 alpha_bar)."""
        return self.k * self.k / (2.0 * self.alpha_bar)


@dataclass(frozen=True)
class ExpansionCoeffs:
    """Time-dependent coefficients of the return-density expansion.

    mu      drift of the log-return over the maturity (log-return units)
    theta   variance correction (vanishes at z0 = 0)
    sigma3  skew correction; enters weighted by rho
    kappa   kurtosis correction, nonnegative for every maturity
    """

    mu: float
    theta: float
    sigma3: float
    kappa: float
    maturity: float

    def __post_init__(self):
        for name in ("mu", "theta", "sigma3", "kappa", "maturity"):
            _check(name, getattr(self, name), positive=False)
        if np.any(np.asarray(self.maturity) < 0):
            raise ValueError(f"maturity must be nonnegative, got {self.maturity}")

    @property
    def quartic_weight(self) -> float:
        """Weight of the fourth Hermite term, kappa + theta^2/2."""
        return self.kappa + 0.5 * self.theta * self.theta


def to_martingale(p: ModelParams, ra: RiskAversion, y0: float) -> MartingaleParams:
    """Rescale physical parameters to the equivalent-martingale measure.

    Raises
    ------
    ValueError
        If alpha + k*lambda1 <= 0 (risk aversion destabilizes reversion) or
        m_bar = m*exp(-k*lambda0/alpha_bar) is not positive and finite.
    """
    alpha_bar = p.alpha + p.k * ra.lambda1
    if alpha_bar <= 0:
        raise ValueError(
            f"lambda1 must be above -alpha/k = {-p.alpha / p.k:g}, got {ra.lambda1:g}: "
            f"risk aversion destabilizes reversion (alpha + k*lambda1 = {alpha_bar:g})")
    shift = p.k * ra.lambda0 / alpha_bar
    m_bar = p.m * math.exp(-shift) if shift > -709.0 else math.inf  # math.exp overflow
    if not 0.0 < m_bar < math.inf:
        raise ValueError(
            "lambda0 must be small enough in magnitude for m_bar = "
            f"m*exp(-k*lambda0/alpha_bar) to be positive and finite, got {ra.lambda0:g}")
    return MartingaleParams(m_bar=m_bar, alpha_bar=alpha_bar, k=p.k, rho=p.rho,
                            z0=y0 + shift)


def expansion_coeffs(mp: MartingaleParams, t, r: float) -> ExpansionCoeffs:
    """Expansion coefficients (mu, theta, sigma3, kappa) at maturity t.

    With at = alpha_bar*t, e1 = exp(-at), e2 = exp(-2at):

        mu     = r t - m_bar^2 t / 2
        theta  = z0 (1-e1) / (lam^2 nu)
        sigma3 = [at - (1-e1)]/(lam^3 nu^2) - z0 [at e1 - (1-e1)]/(lam^3 nu^2)
        kappa  = [at + (1-e2)/2 - 2(1-e1)]/(2 lam^4 nu^3)
                 + rho^2 [at - 2(1-e1) + at e1]/(2 lam^4 nu^3)

    kappa uses the "+" sign on the (1-e2)/2 term: that sign keeps kappa
    nonnegative and is the variant consistent with both the stationary
    averaging identity and Monte Carlo cumulants.  An array t gives fields
    of its shape, each lane bit for bit the scalar call at its maturity.
    """
    _check("t", t, positive=False)
    _check("r", r, positive=False)
    ts, lane = np.unique(t, return_inverse=True)
    cols = np.array([_coeffs(mp, float(ti), r) for ti in ts]).reshape(-1, 4).T
    return ExpansionCoeffs(*map(_out, cols[:, lane]), maturity=_out(np.asarray(t, float)))


def _coeffs(mp: MartingaleParams, t: float, r: float) -> tuple:
    """(mu, theta, sigma3, kappa) at one maturity t >= 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam, nu, z0, rho = mp.lam, mp.nu, mp.z0, mp.rho
    at = mp.alpha_bar * t
    e1 = math.exp(-at)
    a1 = -math.expm1(-at)       # 1 - e^{-at}
    a2 = -math.expm1(-2.0 * at)  # 1 - e^{-2at}
    mu = r * t - 0.5 * mp.m_bar * mp.m_bar * t
    theta = z0 * a1 / (lam * lam * nu)
    sigma3 = ((at - a1) - z0 * (at * e1 - a1)) / (lam**3 * nu**2)
    kappa = ((at + 0.5 * a2 - 2.0 * a1)
             + rho * rho * (at - 2.0 * a1 + at * e1)) / (2.0 * lam**4 * nu**3)
    return mu, theta, sigma3, kappa


def expansion_coeffs_averaged(mp: MartingaleParams, t, r: float) -> ExpansionCoeffs:
    """Coefficients after averaging z0 over its stationary N(0, beta_bar^2) law.

    theta vanishes and sigma3 keeps only its z0-free term, i.e. the
    ``expansion_coeffs`` values at z0 = 0.  kappa absorbs the averaged
    theta^2/2 exactly: E[theta^2]/2 = (1-e1)^2 / (4 lam^4 nu^3), which turns
    the at + (1-e2)/2 - 2(1-e1) bracket into at - (1-e1), so

        kappa_hat = { at - (1-e1) + rho^2 [at - 2(1-e1) + at e1] } / (2 lam^4 nu^3).

    The quartic weight is then kappa_hat alone; an array t works as in ``expansion_coeffs``.
    """
    co = expansion_coeffs(replace(mp, z0=0.0), t, r)
    a1 = -np.vectorize(math.expm1, otypes=[float])(np.multiply(-mp.alpha_bar, t))
    return replace(co, kappa=_out(co.kappa + a1 * a1 / (4.0 * mp.lam**4 * mp.nu**3)))


def char_fn_full(mp: MartingaleParams, omega1: float, t_prime: float, v0: float,
                 rate: float = 0.0) -> complex:
    """Resummed characteristic function exp(-C) in scaled variables.

    ``omega1`` is the frequency conjugate to the scaled return u = lam*x
    and ``t_prime = k^2 t`` the vol-of-vol time; ``v0 = lam*z0``.  C keeps
    the full exp(-gamma t') structure of the frequency-shifted reversion
    rate instead of expanding it, and its large-lam expansion reproduces
    the (mu, theta, sigma3, kappa) set of ``expansion_coeffs`` through
    order lam^-4, so the two transforms agree to O(lam^-5).

    The effective shifted rates are gamma = nu + i rho omega1 in the
    initial-volatility term and nu + i rho omega1 / 2 in the skew and
    quartic terms (the half compensates the quadratic embedding of the
    skew term in the quartic one).
    """
    if t_prime < 0:
        raise ValueError("t_prime must be nonnegative")
    lam, nu, rho = mp.lam, mp.nu, mp.rho
    w = complex(omega1)
    g1 = nu + 1j * rho * w
    g2 = nu + 0.5j * rho * w
    a1 = 1.0 - cmath.exp(-g1 * t_prime)
    b1 = 1.0 - cmath.exp(-g2 * t_prime)
    b2 = 1.0 - cmath.exp(-2.0 * g2 * t_prime)
    mbar2 = mp.m_bar * mp.m_bar
    c = ((rate / mbar2 - 0.5) * (1j * w / lam) * t_prime
         + 0.5 * w * w * t_prime
         + (v0 * w * w / (lam * g1)) * a1
         - (1j * rho * w**3 / g2) * (t_prime - b1 / g2)
         - (w**4 / (2.0 * g2 * g2)) * (t_prime + b2 / (2.0 * g2) - 2.0 * b1 / g2))
    return cmath.exp(-c)


def char_fn_expanded(mp: MartingaleParams, coeffs: ExpansionCoeffs, omega: float) -> complex:
    """Fourth-order characteristic function of the log-return at t = coeffs.maturity.

    phi(omega) = exp(-[i omega mu + m_bar^2 omega^2 t / 2])
                 * [1 - theta w^2 + i rho sigma3 w^3 + (kappa + theta^2/2) w^4]
    """
    w = float(omega)
    gauss = cmath.exp(-(1j * w * coeffs.mu + 0.5 * mp.m_bar**2 * w * w * coeffs.maturity))
    poly = (1.0 - coeffs.theta * w**2
            + 1j * mp.rho * coeffs.sigma3 * w**3
            + coeffs.quartic_weight * w**4)
    return gauss * poly


def hermite_poly(n: int, x):
    """Physicists' Hermite polynomial H_n, n in 0..4."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        h = np.ones_like(x)
    elif n == 1:
        h = 2.0 * x
    elif n == 2:
        h = 4.0 * x * x - 2.0
    elif n == 3:
        h = (8.0 * x * x - 12.0) * x
    elif n == 4:
        h = (16.0 * x * x - 48.0) * x * x + 12.0
    else:
        raise ValueError(f"hermite_poly supports n in 0..4, got {n}")
    return _out(h)


def _hermite_weights(mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """c2 = 2 m_bar^2 t and the density's H2, H3 and H4 weights at t = coeffs.maturity."""
    c2 = 2.0 * mp.m_bar * mp.m_bar * coeffs.maturity
    return c2, (coeffs.theta / c2, mp.rho * coeffs.sigma3 / c2**1.5,
                coeffs.quartic_weight / (c2 * c2))


def return_density(mp: MartingaleParams, coeffs: ExpansionCoeffs, x):
    """Hermite-corrected risk-neutral density of the log-return at t = coeffs.maturity.

    Gaussian N(mu, m_bar^2 t) times

        1 + theta/(2 m_bar^2 t) H2(u) + rho sigma3/(2 m_bar^2 t)^{3/2} H3(u)
          + (kappa + theta^2/2)/(2 m_bar^2 t)^2 H4(u),

    u = (x - mu)/sqrt(2 m_bar^2 t).  The corrections integrate to zero, so
    total mass is one, but the density can go negative in far tails; values
    are returned as computed, never clamped.
    """
    if coeffs.maturity <= 0:
        raise ValueError("t must be positive")
    x = np.asarray(x, dtype=float)
    c2, weights = _hermite_weights(mp, coeffs)
    u = (x - coeffs.mu) / math.sqrt(c2)
    gauss = np.exp(-u * u) / math.sqrt(math.pi * c2)
    corr = sum((w * hermite_poly(n, u) for n, w in enumerate(weights, start=2)), start=1.0)
    return _out(gauss * corr)


def negative_mass_fraction(mp: MartingaleParams, coeffs: ExpansionCoeffs) -> float:
    """Fraction of probability mass where the corrected density is negative.

    The Hermite corrections can push the far tails below zero; pricing never
    integrates the density numerically, so the value is a diagnostic of how
    far outside its domain the expansion is being used.  Trapezoid estimate
    on 4,001 points over mu +- 10 standard deviations.
    """
    sd = mp.m_bar * math.sqrt(coeffs.maturity)
    xs = np.linspace(coeffs.mu - 10.0 * sd, coeffs.mu + 10.0 * sd, 4001)
    p = return_density(mp, coeffs, xs)
    return float(np.trapezoid(np.minimum(p, 0.0), xs) * -1.0)


def regime_warning(mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """True when the expansion should not be trusted.

    Flags lam < REGIME_MIN_LAMBDA or any Hermite correction weight of the
    return density exceeding REGIME_MAX_CORRECTION in magnitude (never at
    maturity <= 0), lane by lane for array coefficients.  Purely
    diagnostic; operations still compute.
    """
    t = np.asarray(coeffs.maturity, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # t <= 0 lanes, masked below
        weights = np.broadcast_arrays(*_hermite_weights(mp, replace(coeffs, maturity=t))[1])
        big = np.max(np.abs(weights), axis=0) > REGIME_MAX_CORRECTION
    return _out((mp.lam < REGIME_MIN_LAMBDA) | ((t > 0) & big))
