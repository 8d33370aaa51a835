"""Closed-form European option valuation under the expOU expansion.

The call price is the Black-Scholes value at the rescaled normal
volatility m_bar plus three Hermite correction components weighted by the
expansion coefficients:

    C = C_BS + theta*C0 + rho*sigma3*C1 + (kappa + theta^2/2)*C2.

Every term is evaluated by one broadcasting code path over spot, strike
and maturity: each public function returns floats for scalar inputs and
NumPy arrays for array inputs.  The components, ``bs_call``, ``delta`` and
the implied-vol solver take the Black-Scholes leg from one place, ``_bs``.
The directly assembled single-expression form of the price is a test
oracle (``tests/oracles.py``), asserted against this component form on a
dense grid, and a 50-digit form measures its rounding error.  The put
follows from put-call parity, which the expansion satisfies exactly.

A known property of the truncation: the discounted forward it implies is
S*(1 + theta + rho*sigma3 + kappa + theta^2/2) rather than S, a relative
deviation of order 1/lambda^2.  It is left as is; "fixing" it would break
the closed-form structure without making the truncation more accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _broadcast, _check, _out
from .risk_neutral import (
    ExpansionCoeffs,
    MartingaleParams,
    _polevl,
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
    arrays); arrays must broadcast against each other and are validated
    element-wise: rate must be finite, the others positive and finite.
    """

    spot: float
    strike: float
    maturity: float
    rate: float = 0.0

    def __post_init__(self):
        for name in ("spot", "strike", "maturity", "rate"):
            v = getattr(self, name)
            _check(name, v, "finite" if name == "rate" else "positive")
            if np.ndim(v):
                object.__setattr__(self, name, np.asarray(v, dtype=float))
        _broadcast(self)


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


# Cephes ndtr.c (Moshier, "Methods and Programs for Mathematical
# Functions", 1989): erfc(x) = exp(-x^2) P(|x|)/Q(|x|) for 1 <= |x| < 8,
# exp(-x^2) R(|x|)/S(|x|) beyond, and erf(x) = x T(x^2)/U(x^2) for |x| < 1.
# Highest power first.  Q, S and U are monic: their leading 1 is written
# out (Cephes' p1evl leaves it implicit; x*1 is exact, so the bits agree).
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2   # log(DBL_MAX)


def _erfc(a):
    """erfc as Cephes computes it, step for step, so equal to scipy.special.erfc.

    Same branches as Cephes: 1 - erf(a) for |a| < 1; P/Q for 1 <= |a| < 8
    and R/S beyond, times exp(-a^2); 0 once a^2 > MAXLOG; 2 - y for a < 0.
    Each polynomial runs only on its own lanes, on one path (an empty lane
    set runs on no elements).  exp(-a^2) is libm's (``math.exp``), as in
    Cephes: numpy's SIMD ``np.exp`` differs from libm in the last bit at
    some inputs, and that moves printed digits.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel()
    out = np.full(flat.shape, np.nan)   # NaN lanes take neither branch
    x = np.abs(flat)
    small = x < 1.0
    s = flat[small]
    z = s * s
    out[small] = 1.0 - s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    big = np.flatnonzero(x >= 1.0)
    b = flat[big]
    with np.errstate(over="ignore"):   # a^2 is inf past |a| ~ 1.3e154
        sq = b * b
    live = sq <= _MAXLOG
    out[big[~live]] = 2.0 * (b[~live] < 0.0)
    big, b, sq = big[live], b[live], sq[live]
    y = np.fromiter(map(math.exp, (-sq).tolist()), float, count=sq.size)
    xb = x[big]
    mid = xb < 8.0
    for lanes, p, q in ((mid, _ERFC_P, _ERFC_Q), (~mid, _ERFC_R, _ERFC_S)):
        xl = xb[lanes]
        y[lanes] = y[lanes] * _polevl(xl, p) / _polevl(xl, q)
    neg = b < 0.0
    y[neg] = 2.0 - y[neg]
    out[big] = y
    return out.reshape(a.shape)


def norm_cdf(d):
    """Standard normal CDF, erfc(-d/sqrt(2))/2.

    erfc is ``_erfc``, Cephes' algorithm in numpy with libm's exp: bit for
    bit what scipy.special.erfc gives, so every CSV digit is fixed without
    importing scipy.  Floats for scalars, arrays of d's shape otherwise.
    """
    return _out(0.5 * _erfc(-np.asarray(d, dtype=float) / _SQRT2))


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


def _bs(spec: OptionSpec, vol):
    """The Black-Scholes leg: (S N(d1) - K e^{-rT} N(d2), N(d1), _terms), broadcast.

    N(d1) and N(d2) come from one erfc call: ``_erfc`` runs some fifty
    numpy operations per call whatever the size, which outweighs its
    per-element cost on option-chain-sized arrays.
    """
    d1, d2, _, disc_k, _ = terms = _terms(spec, vol)
    n1, n2 = norm_cdf(np.stack((d1, d2)))
    return spec.spot * n1 - disc_k * n2, n1, terms


def _call_terms(spec: OptionSpec, vol: float):
    """Black-Scholes price and the correction components (C0, C1, C2)."""
    bs, n1, (_, d2, w, disc_k, h) = _bs(spec, vol)
    c2t = 2.0 * vol * vol * spec.maturity   # 2 m_bar^2 T
    q = disc_k / w * norm_pdf(d2)
    sn1 = spec.spot * n1
    h1 = hermite_poly(1, h)
    h2 = hermite_poly(2, h)
    return (bs,
            sn1 + q,
            sn1 - q * (h1 / np.sqrt(c2t) - 1.0),
            sn1 + q * (h2 / c2t - h1 / np.sqrt(c2t) + 1.0))


def _same_maturity(spec: OptionSpec, coeffs: ExpansionCoeffs) -> None:
    """Raise ValueError unless ``coeffs`` are at the option's maturity, lane by lane."""
    if np.any(coeffs.maturity != spec.maturity):
        raise ValueError(f"coeffs are for maturity {coeffs.maturity}, not {spec.maturity}")


def _call_prices(spec: OptionSpec, mp: MartingaleParams, coeffs: ExpansionCoeffs):
    """(bs, c0, c1, c2, total) of the expansion call over the broadcast spec."""
    _same_maturity(spec, coeffs)
    bs, c0, c1, c2 = _call_terms(spec, mp.m_bar)
    total = (bs + coeffs.theta * c0 + mp.rho * coeffs.sigma3 * c1
             + coeffs.quartic_weight * c2)
    return bs, c0, c1, c2, total


def bs_call(spec: OptionSpec, vol: float):
    """Black-Scholes call price; ``vol`` (day^(-1/2)) broadcasts against the spec."""
    _check("vol", vol)
    return _out(_bs(spec, vol)[0])


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
    _check("m_bar", m_bar)
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
    _same_maturity(spec, coeffs)
    _, n1, (_, d2, w, disc_k, h) = _bs(spec, mp.m_bar)
    c2t = 2.0 * mp.m_bar * mp.m_bar * spec.maturity
    rs = mp.rho * coeffs.sigma3
    qw = coeffs.quartic_weight
    p_all = coeffs.theta + rs + qw
    r_all = rs + qw
    bracket = (-qw * hermite_poly(3, h) / c2t**1.5
               + r_all * hermite_poly(2, h) / c2t
               - p_all * hermite_poly(1, h) / np.sqrt(c2t)
               + p_all)
    return _out((1.0 + p_all) * n1
                + disc_k / (spec.spot * w) * norm_pdf(d2) * bracket)
