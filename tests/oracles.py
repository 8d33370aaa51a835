"""Independent numerical oracles shared by the test suite.

Everything here deliberately avoids the code paths under test: payoff
integrals go through adaptive quadrature against the raw density pieces,
derivatives through central differences, and the assembled call price
through its own scalar single-expression formula.  The return statistics
have the whole-panel estimators that mc_return_stats replaced (with the
same double-or-nothing bootstrap weights, and with the earlier
multinomial bootstrap), and the Monte Carlo terminal-return histogram a
Pearson goodness-of-fit test against a density.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import chdtrc

from expouvol import hermite_poly
from expouvol.mc import (BLOCK, McEstimate, _block_rng, _block_sizes, _lag_steps,
                         _normals, _steps)


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


def terminal_histogram(mp, cfg, n_bins):
    """Histogram of the martingale-measure terminal log-return X(horizon), from mp.z0.

    ``n_bins`` equal bins span mu +- 6 sqrt(m_bar^2 T) around the
    expansion's Gaussian center (rate 0).  Returns (edges, counts, density),
    the density normalized over the samples that fall in range.
    """
    t = cfg.horizon
    mu = -0.5 * mp.m_bar**2 * t
    half = 6.0 * mp.m_bar * math.sqrt(t)
    edges = np.linspace(mu - half, mu + half, n_bins + 1)
    counts = 0
    for b, size in enumerate(_block_sizes(cfg.n_paths)):
        steps = _steps(mp, cfg, _block_rng(cfg.seed, b), np.full(size, mp.z0), 0.0)
        counts = counts + np.histogram(sum(dx for dx, _ in steps), bins=edges)[0]
    return edges, counts, counts / (counts.sum() * np.diff(edges))


def chi_square_vs_density(edges, counts, pdf, n_total=None, min_expected=5.0):
    """Pearson chi-square of histogram counts against a density callable.

    Bin probabilities come from Simpson's rule on (lo, mid, hi); bins with
    expected count below ``min_expected`` are pooled into their neighbor.
    Returns (statistic, p_value, dof).
    """
    n = counts.sum() if n_total is None else n_total
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    probs = (hi - lo) / 6.0 * (pdf(lo) + 4.0 * pdf(mid) + pdf(hi))
    expected = n * probs
    # pool small-expectation bins left to right
    obs_p, exp_p = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(counts, expected):
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


def _return_panel(p, cfg):
    """The whole (n_paths, n_steps) panel of one-step returns, demeaned."""
    blocks = []
    for b, size in enumerate(_block_sizes(cfg.n_paths)):
        rng = _block_rng(cfg.seed, b)
        y = math.sqrt(p.beta2) * _normals(rng, size, cfg.antithetic)   # stationary start
        blocks.append(np.stack([np.expm1(dx) for dx, _ in _steps(p, cfg, rng, y, 0.0)], axis=1))
    panel = np.concatenate(blocks)
    return panel - panel.mean()


def _per_path_sums(panel, leverage_taus, autocorr_taus, cfg):
    """Per-path sums of the demeaned panel, recomputed for every lag.

    Yields ("lev" or "aco", lag, [per-path arrays], n_pairs): the leverage
    numerator and sum dR^2, or the autocorrelation cross sum, sum dR^2 and
    sum dR^4.
    """
    if any(t < 0 for t in autocorr_taus):
        raise ValueError("autocorrelation lags must be nonnegative")
    n_all = panel.shape[1]
    for lag in _lag_steps(leverage_taus, cfg):
        if lag >= 0:
            a, b = panel[:, : n_all - lag], panel[:, lag:]
        else:
            a, b = panel[:, -lag:], panel[:, : n_all + lag]
        yield "lev", lag, [(a * b * b).sum(axis=1), (panel * panel).sum(axis=1)], a.shape[1]
    sq = panel * panel
    for lag in _lag_steps(autocorr_taus, cfg):
        a, b = sq[:, : n_all - lag], sq[:, lag:]
        yield "aco", lag, [(a * b).sum(axis=1), sq.sum(axis=1), (sq * sq).sum(axis=1)], \
            a.shape[1]


def _stat(kind, sums, n, n_pairs, n_all):
    """Leverage or autocorrelation from summed moments over n paths."""
    if kind == "lev":
        return (sums[0] / (n * n_pairs)) / (sums[1] / (n * n_all)) ** 2
    m2, m4 = sums[1] / (n * n_all), sums[2] / (n * n_all)
    return (sums[0] / (n * n_pairs) - m2 * m2) / (m4 - m2 * m2)


def return_stats_multinomial(p, cfg, leverage_taus, autocorr_taus, n_boot=200):
    """Whole-panel leverage and autocorrelation with multinomial bootstrap SEs.

    The earlier estimator: n_paths paths resampled with replacement, 200
    times per statistic and lag, from a generator seeded by
    (seed +- lag) ^ 0x5DEECE66D.
    """
    panel = _return_panel(p, cfg)
    n_paths, n_all = panel.shape
    out = {"lev": [], "aco": []}
    for kind, lag, per_path, n_pairs in _per_path_sums(panel, leverage_taus,
                                                       autocorr_taus, cfg):
        seed = cfg.seed + lag if kind == "lev" else cfg.seed - lag
        rng = np.random.default_rng((seed ^ 0x5DEECE66D) & 0xFFFFFFFFFFFFFFFF)
        boot = []
        for _ in range(n_boot):
            idx = rng.integers(0, n_paths, size=n_paths)
            boot.append(_stat(kind, [a[idx].sum() for a in per_path], n_paths,
                              n_pairs, n_all))
        out[kind].append(McEstimate(
            value=float(_stat(kind, [a.sum() for a in per_path], n_paths, n_pairs, n_all)),
            std_error=float(np.std(boot, ddof=1)), n_effective=n_paths * n_pairs))
    return out["lev"], out["aco"]


def _double_or_nothing_weights(cfg, n_boot=200):
    """(n_boot, n_paths) bootstrap weights, 0 or 2, from the documented key.

    Block b (BLOCK paths, the last one short) takes n_boot * ceil(size/8)
    bytes from Philox keyed by (seed mod 2**64, 2**63 + b) and unpacks
    them most significant bit first, one bit per path and replicate.
    """
    blocks = []
    for b, lo in enumerate(range(0, cfg.n_paths, BLOCK)):
        size = min(BLOCK, cfg.n_paths - lo)
        key = np.array([cfg.seed % 2**64, 2**63 + b], dtype=np.uint64)
        raw = np.random.Generator(np.random.Philox(key=key)).bytes(n_boot * -(-size // 8))
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(n_boot, -1),
                             axis=1, count=size)
        blocks.append(2.0 * bits)
    return np.concatenate(blocks, axis=1)


def return_stats_full_panel(p, cfg, leverage_taus, autocorr_taus):
    """Whole-panel leverage and autocorrelation with 0/2-weight bootstrap SEs.

    The panel is built and demeaned directly and every per-path sum is
    recomputed for each lag, the way mc_return_stats did before it
    streamed.  Each replicate weights the per-path sums by
    _double_or_nothing_weights and divides by its own weight sum in place
    of n_paths; mc_return_stats must agree to rounding.
    """
    panel = _return_panel(p, cfg)
    n_paths, n_all = panel.shape
    w = _double_or_nothing_weights(cfg)
    w = w[w.sum(axis=1) > 0]
    n_w = w.sum(axis=1)
    out = {"lev": [], "aco": []}
    for kind, lag, per_path, n_pairs in _per_path_sums(panel, leverage_taus,
                                                       autocorr_taus, cfg):
        boot = _stat(kind, [w @ a for a in per_path], n_w, n_pairs, n_all)
        out[kind].append(McEstimate(
            value=float(_stat(kind, [a.sum() for a in per_path], n_paths, n_pairs, n_all)),
            std_error=float(boot.std(ddof=1)), n_effective=n_paths * n_pairs))
    return out["lev"], out["aco"]
