"""Independent numerical oracles shared by the test suite.

Everything here deliberately avoids the code paths under test: payoff
integrals go through adaptive quadrature against the raw density pieces,
derivatives through central differences, and the assembled call price
through its own scalar single-expression formula.  The return statistics
have the whole-panel estimators that mc_return_stats replaced (with the
same double-or-nothing bootstrap weights, and with the earlier
multinomial bootstrap), and the Monte Carlo terminal-return histogram a
Pearson goodness-of-fit test against a density.  Both Monte Carlo oracles
run their own stepper, one step and two normal draws at a time, which
mc._steps must match bit for bit.  The per-path raw sums of one stats
block have their earlier form, one list of rows per chunk stacked and
concatenated, which mc._block_sums must match bit for bit.  The
Black-Scholes leg, the expansion coefficients, the component price and
the volatility transition density have 50-digit mpmath forms, evaluated
from the same binary floats the package gets, so a test can measure the
package's rounding error; so does the risk-aversion fit's stationary
point, with lambda carried at 50 digits.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import chdtrc

from expouvol import hermite_poly
from expouvol.mc import (BLOCK, McEstimate, _PAIR_POWERS, _block_rng, _block_sizes, _coerce,
                         _lag_steps)


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


def _normals(rng, size, antithetic):
    if not antithetic:
        return rng.standard_normal(size)
    half = rng.standard_normal(size // 2)
    g = np.empty(size)
    g[0::2] = half
    g[1::2] = -half
    return g


def reference_steps(params, cfg, rng, y, rate):
    """The Monte Carlo scheme one step at a time: yields (dx, y) per step.

    Each step draws the price leg g1, then gp, from ``rng`` (one vector
    each, antithetic pairs mirrored), exactly the stream mc._steps reads
    a chunk at a time.
    """
    vol0, rev, k, rho = _coerce(params)
    dt = cfg.dt
    decay = math.exp(-rev * dt)
    sd_ou = math.sqrt(k * k / (2.0 * rev) * -math.expm1(-2.0 * rev * dt))
    rho_perp = math.sqrt(max(0.0, 1.0 - rho * rho))
    sdt = math.sqrt(dt)
    for _ in range(cfg.n_steps):
        g1 = _normals(rng, y.size, cfg.antithetic)
        gp = _normals(rng, y.size, cfg.antithetic)
        g2 = rho * g1 + rho_perp * gp
        sig = vol0 * np.exp(y)
        dx = (rate - 0.5 * sig * sig) * dt + sig * sdt * g1
        y = y * decay + sd_ou * g2
        yield dx, y


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
        steps = reference_steps(mp, cfg, _block_rng(cfg.seed, b), np.full(size, mp.z0), 0.0)
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


def reference_raw_sums(r, lags):
    """Per-path raw sums of one block of returns, one row per sum.

    Row 0 is each path's weight 1 and rows 1-4 are sum r^p over every
    step, sum r^2 as the dot sum r r (lag 0's pair sum a^p b^q is row
    p + q); then each (nonzero) lag l adds sum a^p b^q for (p, q) in
    _PAIR_POWERS over the pairs a = r(t), b = r(t+l).  Window sums (a or b
    alone) are the full sums less the l edge steps the window leaves out.
    """
    n = r.shape[1]
    pw = [None, r, r * r]
    full = [None, pw[1].sum(axis=1), np.vecdot(pw[1], pw[1])]
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


def reference_block_sums(rets, lags):
    """reference_raw_sums of a block's returns, computed on row chunks of
    about 1 MiB: each path's sums use only its own row, so the values are
    those of one whole call."""
    step = max(1, (1 << 20) // (8 * rets.shape[1]))
    return np.concatenate([reference_raw_sums(rets[lo: lo + step], lags)
                           for lo in range(0, rets.shape[0], step)], axis=1)


def _return_panel(p, cfg):
    """The whole (n_paths, n_steps) panel of one-step returns, demeaned."""
    blocks = []
    for b, size in enumerate(_block_sizes(cfg.n_paths)):
        rng = _block_rng(cfg.seed, b)
        y = math.sqrt(p.beta2) * _normals(rng, size, cfg.antithetic)   # stationary start
        steps = reference_steps(p, cfg, rng, y, 0.0)
        blocks.append(np.stack([np.expm1(dx) for dx, _ in steps], axis=1))
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
    for lag in _lag_steps(leverage_taus, cfg, "leverage lag", "finite"):
        if lag >= 0:
            a, b = panel[:, : n_all - lag], panel[:, lag:]
        else:
            a, b = panel[:, -lag:], panel[:, : n_all + lag]
        yield "lev", lag, [(a * b * b).sum(axis=1), (panel * panel).sum(axis=1)], a.shape[1]
    sq = panel * panel
    for lag in _lag_steps(autocorr_taus, cfg, "autocorrelation lag", "nonnegative"):
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
    bytes from Philox keyed by (seed, 2**63 + b) and unpacks
    them most significant bit first, one bit per path and replicate.
    """
    blocks = []
    for b, lo in enumerate(range(0, cfg.n_paths, BLOCK)):
        size = min(BLOCK, cfg.n_paths - lo)
        key = np.array([cfg.seed, 2**63 + b], dtype=np.uint64)
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


#: digits of the mpmath oracles below: far past double's 16
DIGITS = 50


def _mpf(*xs):
    """Each float as the mpf of exactly its binary value."""
    return [mpmath.mpf(float(x)) for x in xs]


def _ncdf(d):
    return mpmath.erfc(-d / mpmath.sqrt(2)) / 2


def _npdf(d):
    return mpmath.exp(-d * d / 2) / mpmath.sqrt(2 * mpmath.pi)


def _bs_mp(S, K, T, r, vol):
    w = vol * mpmath.sqrt(T)
    d1 = (mpmath.log(S / K) + (r + vol * vol / 2) * T) / w
    d2 = d1 - w
    n1 = _ncdf(d1)
    return S * n1 - K * mpmath.exp(-r * T) * _ncdf(d2), n1, d1, d2


def bs_50(S, K, T, r, vol):
    """pricing._bs at 50 digits: (price, N(d1), d1, d2) as mpf."""
    with mpmath.workdps(DIGITS):
        return _bs_mp(*_mpf(S, K, T, r, vol))


def _coeffs_mp(m_bar, alpha_bar, k, rho, z0, t, r):
    lam, nu = k / m_bar, alpha_bar / (k * k)
    at = alpha_bar * t
    e1 = mpmath.exp(-at)
    a1, a2 = -mpmath.expm1(-at), -mpmath.expm1(-2 * at)
    mu = r * t - m_bar * m_bar * t / 2
    theta = z0 * a1 / (lam ** 2 * nu)
    sigma3 = ((at - a1) - z0 * (at * e1 - a1)) / (lam ** 3 * nu ** 2)
    kappa = ((at + a2 / 2 - 2 * a1)
             + rho * rho * (at - 2 * a1 + at * e1)) / (2 * lam ** 4 * nu ** 3)
    return mu, theta, sigma3, kappa


def coeffs_50(mp, t, r):
    """risk_neutral._coeffs at 50 digits: (mu, theta, sigma3, kappa) as mpf.

    lam and nu are formed at 50 digits too, from m_bar, alpha_bar and k.
    """
    with mpmath.workdps(DIGITS):
        return _coeffs_mp(*_mpf(mp.m_bar, mp.alpha_bar, mp.k, mp.rho, mp.z0, t, r))


def sigma3_scale(mp, t):
    """|s1| + |z0 s2| over lam^3 nu^2, at 50 digits, as mpf.

    s1 = at - (1-e1) and s2 = at e1 - (1-e1) are sigma3's two brackets,
    sigma3 = (s1 - z0 s2)/(lam^3 nu^2), so this is the sum of the
    magnitudes of its two terms: a rounding error in either is relative
    to it, and it over |sigma3| is the condition of their cancellation.
    """
    with mpmath.workdps(DIGITS):
        m_bar, alpha_bar, k, z0, t = _mpf(mp.m_bar, mp.alpha_bar, mp.k, mp.z0, t)
        lam, nu = k / m_bar, alpha_bar / (k * k)
        at = alpha_bar * t
        a1 = -mpmath.expm1(-at)
        s1, s2 = at - a1, at * mpmath.exp(-at) - a1
        return (abs(s1) + abs(z0 * s2)) / (lam ** 3 * nu ** 2)


def _call_mp(S, K, T, r, m_bar, alpha_bar, k, rho, z0):
    _, theta, sigma3, kappa = _coeffs_mp(m_bar, alpha_bar, k, rho, z0, T, r)
    bs, n1, _, d2 = _bs_mp(S, K, T, r, m_bar)
    w = m_bar * mpmath.sqrt(T)
    c2t = 2 * m_bar * m_bar * T
    q = K * mpmath.exp(-r * T) / w * _npdf(d2)
    h = d2 / mpmath.sqrt(2)
    h1, h2 = 2 * h, 4 * h * h - 2
    sn1 = S * n1
    c0 = sn1 + q
    c1 = sn1 - q * (h1 / mpmath.sqrt(c2t) - 1)
    c2 = sn1 + q * (h2 / c2t - h1 / mpmath.sqrt(c2t) + 1)
    total = bs + theta * c0 + rho * sigma3 * c1 + (kappa + theta * theta / 2) * c2
    return bs, c0, c1, c2, total


def expou_call_50(S, K, T, r, mp):
    """pricing._call_prices at 50 digits: (bs, c0, c1, c2, total) as mpf.

    The coefficients come from the same 50-digit form as coeffs_50, so the
    whole chain from the martingale parameters to the price is at 50 digits.
    """
    with mpmath.workdps(DIGITS):
        return _call_mp(*_mpf(S, K, T, r, mp.m_bar, mp.alpha_bar, mp.k, mp.rho, mp.z0))


def chain_fit_50(quotes, p, spot, r, y0):
    """The stationary point of calibrate_risk_aversion's cost at 50 digits.

    Returns (lambda0, lambda1) as mpf, where the gradient of sum (price -
    mid)^2 over ``quotes`` vanishes.  to_martingale and the chain price are
    carried with lambda at 50 digits: expou_call_50 would round m_bar and z0
    to doubles.  Gauss-Newton from (0, 0), as the fit starts: the Jacobian
    by forward differences at h = 1e-25 (each entry good to about 25
    digits, far past the double's 16), each step clipped to 0.01 in
    max-norm so that the first steps cannot leap past alpha + k lambda1 >
    0, and a stop when a step is below 1e-22.  It converges only linearly
    on a chain with a flat direction, so it takes up to 200 steps and
    raises ArithmeticError after them.
    """
    with mpmath.workdps(DIGITS):
        m, alpha, k, rho, spot, r, y0 = _mpf(p.m, p.alpha, p.k, p.rho, spot, r, y0)
        chain = [_mpf(q.strike, q.maturity, q.mid) for q in quotes]

        def residuals(lam):
            alpha_bar = alpha + k * lam[1]
            shift = k * lam[0] / alpha_bar
            mp = (m * mpmath.exp(-shift), alpha_bar, k, rho, y0 + shift)
            return mpmath.matrix([_call_mp(spot, K, T, r, *mp)[4] - mid for K, T, mid in chain])

        lam, h = mpmath.matrix([0, 0]), mpmath.mpf("1e-25")
        probes = [mpmath.matrix([h, 0]), mpmath.matrix([0, h])]
        for _ in range(200):
            f, jac = residuals(lam), mpmath.matrix(len(chain), 2)
            for j, probe in enumerate(probes):
                jac[:, j] = (residuals(lam + probe) - f) / h
            step = mpmath.qr_solve(jac, f)[0]
            step *= min(1, mpmath.mpf("0.01") / mpmath.mnorm(step, "inf"))
            lam -= step
            if mpmath.mnorm(step, "inf") < mpmath.mpf("1e-22"):
                return lam[0], lam[1]
        raise ArithmeticError("Gauss-Newton did not converge in 200 steps")


def vol_conditional_pdf_50(p, sigma, t, sigma0):
    """model.vol_conditional_pdf at 50 digits, as mpf.

    The lognormal transition density of sigma(t) = m e^{Y(t)} from sigma0,
    its OU mean and variance formed at 50 digits from m, alpha and k.
    """
    with mpmath.workdps(DIGITS):
        m, alpha, k, sigma, t, sigma0 = _mpf(p.m, p.alpha, p.k, sigma, t, sigma0)
        mean = mpmath.log(sigma0 / m) * mpmath.exp(-alpha * t)
        var = k * k / (2 * alpha) * -mpmath.expm1(-2 * alpha * t)
        z = mpmath.log(sigma / m) - mean
        return mpmath.exp(-z * z / (2 * var)) / (sigma * mpmath.sqrt(2 * mpmath.pi * var))


def call_condition(S, K, T, r, vol, price):
    """Condition number of a call price made from the Black-Scholes leg.

    The cancellation ratio S N(d1)/price, by which the leg's difference
    magnifies the relative errors of its two terms, times the |d|
    amplification 1 + max |d| N'(d)/N(d) over d1 and d2, by which N
    magnifies a relative error in its argument.  ``price`` is the value
    whose error is judged (the leg itself, or the expansion total).
    """
    with mpmath.workdps(DIGITS):
        _, n1, d1, d2 = bs_50(S, K, T, r, vol)
        amp = 1 + max(abs(d) * _npdf(d) / _ncdf(d) for d in (d1, d2))
        return float(mpmath.mpf(float(S)) * n1 / abs(price) * amp)
