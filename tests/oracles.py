"""Independent numerical oracles shared by the test suite.

Everything here deliberately avoids the code paths under test: payoff
integrals go through adaptive quadrature against the raw density pieces,
derivatives through central differences, and the assembled call price
through its own scalar single-expression formula.  The return statistics
have the full-panel estimator that mc_return_stats replaced, and the
Monte Carlo return density a Pearson goodness-of-fit test.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import chdtrc

from expouvol import hermite_poly
from expouvol.mc import McEstimate, _iter_blocks, _lag_steps


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


def chi_square_vs_density(hist, pdf, n_total=None, min_expected=5.0):
    """Pearson chi-square of histogram counts against a density callable.

    Bin probabilities come from Simpson's rule on (lo, mid, hi); bins with
    expected count below ``min_expected`` are pooled into their neighbor.
    Returns (statistic, p_value, dof).
    """
    n = hist.counts.sum() if n_total is None else n_total
    lo, hi = hist.edges[:-1], hist.edges[1:]
    mid = 0.5 * (lo + hi)
    probs = (hi - lo) / 6.0 * (pdf(lo) + 4.0 * pdf(mid) + pdf(hi))
    expected = n * probs
    # pool small-expectation bins left to right
    obs_p, exp_p = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(hist.counts, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_p.append(acc_o)
            exp_p.append(acc_e)
            acc_o = acc_e = 0.0
    if not exp_p:
        raise ValueError("no bins with sufficient expected counts to test")
    if acc_e > 0:
        obs_p[-1] += acc_o
        exp_p[-1] += acc_e
    obs = np.array(obs_p)
    exp = np.array(exp_p)
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = max(1, obs.size - 1)
    return stat, float(chdtrc(dof, stat)), dof


def return_stats_full_panel(p, cfg, leverage_taus, autocorr_taus, n_boot=200):
    """Leverage and squared-return autocorrelation by whole-panel sums.

    Every per-path sum is taken over the full demeaned panel and recomputed
    for each lag; same statistics, bootstrap seeds and n_effective as
    mc_return_stats, which must agree exactly.
    """
    if any(t < 0 for t in autocorr_taus):
        raise ValueError("autocorrelation lags must be nonnegative")
    panel = np.concatenate([blk["rets"] for blk in _iter_blocks(
        p, cfg, 0.0, 0.0, stationary_start=True, keep_returns=True)])
    panel = panel - panel.mean()
    n_paths, n_all = panel.shape

    def estimate(stat, per_path, seed, n_pairs):
        rng = np.random.default_rng((seed ^ 0x5DEECE66D) & 0xFFFFFFFFFFFFFFFF)
        boot = []
        for _ in range(n_boot):
            idx = rng.integers(0, n_paths, size=n_paths)
            boot.append(stat([a[idx].sum() for a in per_path], n_pairs))
        return McEstimate(value=stat([a.sum() for a in per_path], n_pairs),
                          std_error=float(np.std(boot, ddof=1)),
                          n_effective=n_paths * n_pairs)

    def lev_stat(sums, n_pairs):
        return float((sums[0] / (n_paths * n_pairs))
                     / (sums[1] / (n_paths * n_all)) ** 2)

    def aco_stat(sums, n_pairs):
        m2, m4 = sums[1] / (n_paths * n_all), sums[2] / (n_paths * n_all)
        return float((sums[0] / (n_paths * n_pairs) - m2 * m2) / (m4 - m2 * m2))

    lev = []
    for lag in _lag_steps(leverage_taus, cfg):
        if lag >= 0:
            a, b = panel[:, : n_all - lag], panel[:, lag:]
        else:
            a, b = panel[:, -lag:], panel[:, : n_all + lag]
        sums = [(a * b * b).sum(axis=1), (panel * panel).sum(axis=1)]
        lev.append(estimate(lev_stat, sums, cfg.seed + lag, a.shape[1]))
    aco = []
    sq = panel * panel
    for lag in _lag_steps(autocorr_taus, cfg):
        a, b = sq[:, : n_all - lag], sq[:, lag:]
        sums = [(a * b).sum(axis=1), sq.sum(axis=1), (sq * sq).sum(axis=1)]
        aco.append(estimate(aco_stat, sums, cfg.seed - lag, a.shape[1]))
    return lev, aco
