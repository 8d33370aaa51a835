"""Closed-form European option valuation under the expOU expansion.

The call price is the Black-Scholes value at the rescaled normal
volatility m_bar plus three Hermite correction components weighted by the
expansion coefficients:

    C = C_BS + theta*C0 + rho*sigma3*C1 + (kappa + theta^2/2)*C2.

Every term is evaluated by one broadcasting code path over spot, strike
and maturity: each public function returns floats for scalar inputs and
NumPy arrays for array inputs.  The directly assembled single-expression
form of the price is a test oracle (``tests/oracles.py``), asserted
against this component form on a dense grid.  The put follows from
put-call parity, which the expansion satisfies exactly.

A known property of the truncation: the discounted forward it implies is
S*(1 + theta + rho*sigma3 + kappa + theta^2/2) rather than S, a relative
deviation of order 1/lambda^2.  It is left as is; "fixing" it would break
the closed-form structure without making the truncation more accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .model import _check, _out
from .risk_neutral import (
    ExpansionCoeffs,
    MartingaleParams,
    hermite_poly,
    regime_warning,
)

__all__ = [
    "OptionSpec",
    "PriceBreakdown",
    "norm_cdf",
    "norm_pdf",
    "bs_call",
    "call_components",
    "expou_call",
    "expou_put",
    "delta",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class OptionSpec:
    """European option contract and market state (daily units).

    spot and strike in currency, maturity in days, rate in day^(-1).
    Each field is a float or an array (sequences are stored as NumPy
    arrays); arrays broadcast against each other and are validated
    element-wise: rate must be finite, the others positive and finite.
    """

    spot: float
    strike: float
    maturity: float
    rate: float = 0.0

    def __post_init__(self):
        for name in ("spot", "strike", "maturity", "rate"):
            v = getattr(self, name)
            _check(name, v, positive=name != "rate")
            if np.ndim(v):
                object.__setattr__(self, name, np.asarray(v, dtype=float))


@dataclass(frozen=True)
class PriceBreakdown:
    """Call price decomposition.

    ``c0_term``, ``c1_term`` and ``c2_term`` are the unweighted correction
    components; ``total`` applies the coefficient weights on top of ``bs``.
    ``warning`` is set when the total is negative or the expansion regime
    flag is raised; the value is reported as computed, never clamped.
    Every field has the broadcast shape of the option spec (floats and a
    bool for a scalar spec).
    """

    bs: float
    c0_term: float
    c1_term: float
    c2_term: float
    total: float
    warning: bool = False


def norm_cdf(d):
    """Standard normal CDF via the complementary error function.

    norm_cdf(d) = erfc(-d/sqrt(2))/2 to ~1e-16 with scipy.special.erfc (libm's
    erfc differs in the last bits); the fixed algorithm keeps CSVs bit-exact.
    """
    return _out(0.5 * erfc(-np.asarray(d, dtype=float) / _SQRT2))


def norm_pdf(d):
    """Standard normal density."""
    d = np.asarray(d, dtype=float)
    return _out(_INV_SQRT_2PI * np.exp(-0.5 * d * d))


def _terms(spec: OptionSpec, vol: float):
    """d1, d2, w = sqrt(vol^2 T), K e^{-rT} and h = d2/sqrt(2), broadcast."""
    w = vol * np.sqrt(spec.maturity)
    d1 = (np.log(spec.spot / spec.strike)
          + (spec.rate + 0.5 * vol * vol) * spec.maturity) / w
    d2 = d1 - w
    disc_k = spec.strike * np.exp(-spec.rate * spec.maturity)
    return d1, d2, w, disc_k, d2 / _SQRT2


def _call_terms(spec: OptionSpec, vol: float):
    """Black-Scholes price and the correction components (C0, C1, C2)."""
    d1, d2, w, disc_k, h = _terms(spec, vol)
    c2t = 2.0 * vol * vol * spec.maturity   # 2 m_bar^2 T
    q = disc_k / w * norm_pdf(d2)
    sn1 = spec.spot * norm_cdf(d1)
    h1 = hermite_poly(1, h)
    h2 = hermite_poly(2, h)
    return (sn1 - disc_k * norm_cdf(d2),
            sn1 + q,
            sn1 - q * (h1 / np.sqrt(c2t) - 1.0),
            sn1 + q * (h2 / c2t - h1 / np.sqrt(c2t) + 1.0))


def _call_prices(spec: OptionSpec, mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """(bs, c0, c1, c2, total) of the expansion call over the broadcast spec."""
    if np.any(coeffs.maturity != spec.maturity):
        raise ValueError(f"coeffs are for maturity {coeffs.maturity}, not {spec.maturity}")
    bs, c0, c1, c2 = _call_terms(spec, mp.m_bar)
    total = (bs + coeffs.theta * c0 + mp.rho * coeffs.sigma3 * c1
             + coeffs.quartic_weight * c2)
    return bs, c0, c1, c2, total


def bs_call(spec: OptionSpec, vol: float):
    """Black-Scholes call price; ``vol`` (day^(-1/2)) broadcasts against the spec."""
    _check("vol", vol)
    d1, d2, _, disc_k, _ = _terms(spec, vol)
    return _out(spec.spot * norm_cdf(d1) - disc_k * norm_cdf(d2))


def call_components(spec: OptionSpec, m_bar: float):
    """Correction components (C0, C1, C2) of the expansion price.

    Each is the discounted payoff integral against one Hermite term of the
    return density, in closed form:

        C0 = S N(d1) + q N'(d2)
        C1 = S N(d1) - q N'(d2) [H1(h)/sqrt(2 m_bar^2 T) - 1]
        C2 = S N(d1) + q N'(d2) [H2(h)/(2 m_bar^2 T)
                                 - H1(h)/sqrt(2 m_bar^2 T) + 1]

    with q = K e^{-rT}/sqrt(m_bar^2 T) and h = d2/sqrt(2).
    """
    return tuple(_out(c) for c in _call_terms(spec, m_bar)[1:])


def expou_call(spec: OptionSpec, mp: MartingaleParams,
               coeffs: ExpansionCoeffs) -> PriceBreakdown:
    """Approximate expOU European call price with component breakdown.

    ``coeffs`` must come from the same martingale parameters and the
    option's maturity/rate; another maturity raises ValueError.
    """
    bs, c0, c1, c2, total = _call_prices(spec, mp, coeffs)
    warn = (total < 0.0) | regime_warning(mp, coeffs)
    return PriceBreakdown(*(_out(x) for x in (bs, c0, c1, c2, total, warn)))


def expou_put(spec: OptionSpec, mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """expOU European put via put-call parity: P = C + K e^{-rT} - S."""
    disc_k = _terms(spec, mp.m_bar)[3]
    return _out(_call_prices(spec, mp, coeffs)[4] + disc_k - spec.spot)


def delta(spec: OptionSpec, mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """Call delta dC/dS of the corrected price (exact derivative).

    delta = (1 + P) N(d1) + (K e^{-rT} / (S sqrt(m_bar^2 T))) N'(d2) *
            [ -Q H3(h)/(2 m_bar^2 T)^{3/2} + R H2(h)/(2 m_bar^2 T)
              - P H1(h)/sqrt(2 m_bar^2 T) + P ]

    with P = theta + rho sigma3 + Q, R = rho sigma3 + Q, Q the quartic
    weight and h = d2/sqrt(2).  ``coeffs`` must be at the option's maturity.
    """
    if np.any(coeffs.maturity != spec.maturity):
        raise ValueError(f"coeffs are for maturity {coeffs.maturity}, not {spec.maturity}")
    d1, d2, w, disc_k, h = _terms(spec, mp.m_bar)
    c2t = 2.0 * mp.m_bar * mp.m_bar * spec.maturity
    rs = mp.rho * coeffs.sigma3
    qw = coeffs.quartic_weight
    p_all = coeffs.theta + rs + qw
    r_all = rs + qw
    bracket = (-qw * hermite_poly(3, h) / c2t**1.5
               + r_all * hermite_poly(2, h) / c2t
               - p_all * hermite_poly(1, h) / np.sqrt(c2t)
               + p_all)
    return _out((1.0 + p_all) * norm_cdf(d1)
                + disc_k / (spec.spot * w) * norm_pdf(d2) * bracket)
