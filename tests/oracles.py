"""Independent numerical oracles shared by the test suite.

Everything here deliberately avoids the code paths under test: payoff
integrals go through adaptive quadrature against the raw density pieces,
derivatives through central differences, and the assembled call price
through its own scalar single-expression formula.
"""

import math

from scipy.integrate import quad

from expouvol import hermite_poly


def bs_call_quadrature(S, K, T, r, vol):
    """Discounted lognormal payoff integral for the Black-Scholes call."""
    mu = (r - 0.5 * vol * vol) * T
    s2 = vol * vol * T
    sd = math.sqrt(s2)

    def f(x):
        g = math.exp(-(x - mu) ** 2 / (2 * s2)) / math.sqrt(2 * math.pi * s2)
        return g * (S * math.exp(x) - K)

    lo = max(math.log(K / S), mu - 14 * sd)
    val, _ = quad(f, lo, mu + 16 * sd, limit=400)
    return math.exp(-r * T) * val


def component_integral(n_hermite, S, K, T, mbar, r):
    """Defining payoff integral of the expansion component tied to H_n.

    n_hermite = 2, 3, 4 for the variance, skew and kurtosis components;
    the prefactor is 1/(2 mbar^2 T)^(n/2).
    """
    mu = (r - 0.5 * mbar * mbar) * T
    s2 = mbar * mbar * T
    c2 = 2.0 * s2
    sd = math.sqrt(s2)

    def f(x):
        u = (x - mu) / math.sqrt(c2)
        g = math.exp(-u * u) / math.sqrt(math.pi * c2)
        return hermite_poly(n_hermite, u) * g * (S * math.exp(x) - K)

    lo = max(math.log(K / S), mu - 14 * sd)
    val, _ = quad(f, lo, mu + 16 * sd, limit=400)
    return math.exp(-r * T) / c2 ** (n_hermite / 2.0) * val


def expou_call_assembled(S, K, T, r, mp, coeffs):
    """Single-expression form of the corrected call, in scalar ``math``.

    C = C_BS + P S N(d1) + K e^{-rT}/sqrt(m^2 T) N'(d2)
            * [Q H2(h)/(2 m^2 T) - (rho sigma3 + Q) H1(h)/sqrt(2 m^2 T) + P]

    with m = m_bar, P = theta + rho sigma3 + Q, Q the quartic weight and
    h = d2/sqrt(2).  Algebraically equal to the component-weighted sum of
    ``expou_call``; a mismatch means a broken build, not bad input.
    """
    m = mp.m_bar
    w = m * math.sqrt(T)
    c2t = 2.0 * m * m * T
    d1 = (math.log(S / K) + (r + 0.5 * m * m) * T) / w
    d2 = d1 - w
    h = d2 / math.sqrt(2.0)
    cdf = lambda d: 0.5 * math.erfc(-d / math.sqrt(2.0))
    pdf = math.exp(-0.5 * d2 * d2) / math.sqrt(2.0 * math.pi)
    rs = mp.rho * coeffs.sigma3
    qw = coeffs.quartic_weight
    p_all = coeffs.theta + rs + qw
    disc_k = K * math.exp(-r * T)
    bracket = (qw * (4.0 * h * h - 2.0) / c2t
               - (rs + qw) * 2.0 * h / math.sqrt(c2t)
               + p_all)
    return (S * cdf(d1) - disc_k * cdf(d2)
            + p_all * S * cdf(d1)
            + disc_k / w * pdf * bracket)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)
