"""Martingale rescaling, expansion coefficients and characteristic functions."""

import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from expouvol import (
    ExpansionCoeffs,
    ModelParams,
    char_fn_expanded,
    char_fn_full,
    expansion_coeffs,
    expansion_coeffs_averaged,
    hermite_poly,
    negative_mass_fraction,
    regime_warning,
    return_density,
    to_martingale,
    y0_from_vol_index,
)
from expouvol.risk_neutral import MartingaleParams
from oracles import DIGITS, coeffs_50


def nth_derivative(f, a, n, half_width=0.6, degree=16):
    """Independent numeric n-th derivative: local Chebyshev fit, differentiated."""
    xs = np.linspace(a - half_width, a + half_width, 4 * degree)
    fit = np.polynomial.chebyshev.Chebyshev.fit(xs, f(xs), degree)
    return float(fit.deriv(n)(a))


class TestToMartingale:
    def test_zero_risk_aversion_is_identity(self, fig_params):
        mp = to_martingale(fig_params, 0.0, 0.0, y0=0.0)
        assert mp.m_bar == fig_params.m
        assert mp.alpha_bar == fig_params.alpha
        assert mp.z0 == 0.0
        assert mp.rho == fig_params.rho

    def test_reference_values(self, fig_params, fig_risk):
        mp = to_martingale(fig_params, *fig_risk, y0=0.0)
        assert mp.alpha_bar == pytest.approx(8.11e-3, rel=1e-14)
        assert mp.m_bar == pytest.approx(0.01 * math.exp(-0.11e-3 / 8.11e-3), rel=1e-14)
        assert mp.m_bar == pytest.approx(9.8652807e-3, abs=1e-9)
        assert mp.lam == pytest.approx(11.150215, abs=1e-6)
        assert mp.lam == pytest.approx(mp.k / mp.m_bar, rel=1e-15)
        assert mp.nu == pytest.approx(mp.alpha_bar / mp.k**2, rel=1e-15)
        assert mp.nu == pytest.approx(0.6702479, abs=1e-6)
        assert mp.z0 == pytest.approx(0.11e-3 / 8.11e-3, rel=1e-14)
        assert mp.beta2_bar == pytest.approx(1.0 / (2 * mp.nu), rel=1e-14)

    def test_positive_lambda0_lowers_level(self, fig_params):
        mp = to_martingale(fig_params, 0.05, 0.0, y0=0.0)
        assert mp.m_bar < fig_params.m

    def test_destabilizing_lambda1_rejected(self, fig_params):
        with pytest.raises(ValueError, match="destabilizes"):
            to_martingale(fig_params, 0.0, -1.0, y0=0.0)

    @pytest.mark.parametrize("lambda0", [-1e6, -1e3, 1e3, 1e6])
    def test_out_of_range_m_bar_names_lambda0(self, fig_params, lambda0):
        # m_bar = m exp(-k lambda0 / alpha_bar) overflows (lambda0 < 0) or underflows
        with pytest.raises(ValueError, match="lambda0 must be small enough"):
            to_martingale(fig_params, lambda0, 0.0, y0=0.0)

    def test_invalid_direct_construction(self):
        with pytest.raises(ValueError):
            MartingaleParams(m_bar=-0.01, alpha_bar=8e-3, k=0.1, rho=0.0, z0=0.0)
        with pytest.raises(ValueError):
            MartingaleParams(m_bar=0.01, alpha_bar=0.0, k=0.1, rho=0.0, z0=0.0)


class TestExpansionCoeffs:
    def test_zero_maturity(self, fig_mp):
        co = expansion_coeffs(fig_mp, 0.0, 5e-4)
        assert (co.mu, co.theta, co.sigma3, co.kappa) == (0.0, 0.0, 0.0, 0.0)

    def test_zero_z0_kills_theta(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        assert co.theta == 0.0
        at = fig_mp.alpha_bar * 20.0
        first_term = (at - (1 - math.exp(-at))) / (fig_mp.lam**3 * fig_mp.nu**2)
        assert co.sigma3 == pytest.approx(first_term, rel=1e-13)

    def test_direct_formula_values(self, fig_mp):
        mp = dataclasses.replace(fig_mp, z0=0.25)
        t, r = 20.0, 2e-4
        co = expansion_coeffs(mp, t, r)
        at = mp.alpha_bar * t
        e1, e2 = math.exp(-at), math.exp(-2 * at)
        assert co.mu == pytest.approx(r * t - 0.5 * mp.m_bar**2 * t, rel=1e-14)
        assert co.theta == pytest.approx(0.25 * (1 - e1) / (mp.lam**2 * mp.nu), rel=1e-13)
        sig3 = ((at - (1 - e1)) - 0.25 * (at * e1 - (1 - e1))) / (mp.lam**3 * mp.nu**2)
        assert co.sigma3 == pytest.approx(sig3, rel=1e-13)
        kap = ((at + 0.5 * (1 - e2) - 2 * (1 - e1))
               + mp.rho**2 * (at - 2 * (1 - e1) + at * e1)) / (2 * mp.lam**4 * mp.nu**3)
        assert co.kappa == pytest.approx(kap, rel=1e-13)

    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_short_maturity_matches_50_digits(self, fig_params, t):
        # alpha_bar t < 0.02: sigma3's and kappa's brackets cancel their leading
        # terms, and summed as written kappa lost up to 8e-8 of itself at t = 0.01
        mp = to_martingale(fig_params, 1e-3, 1e-3, y0_from_vol_index(0.1655, fig_params.m))
        r = 0.02 / 252.0
        co = expansion_coeffs(mp, t, r)
        with mpmath.workdps(DIGITS):
            for name, want in zip(("mu", "theta", "sigma3", "kappa"), coeffs_50(mp, t, r)):
                assert abs(getattr(co, name) - want) <= 1e-15 * abs(want), name

    @pytest.mark.parametrize("z0", [-0.8, 0.0, 0.5])
    @pytest.mark.parametrize("t", [0.0, 0.5, 5.0, 20.0, 120.0, 2000.0])
    def test_kappa_and_quartic_weight_nonnegative(self, fig_mp, t, z0):
        co = expansion_coeffs(dataclasses.replace(fig_mp, z0=z0), t, 0.0)
        assert co.kappa >= 0.0
        assert co.quartic_weight >= 0.0

    def test_large_t_growth(self, fig_mp):
        # mu, sigma3, kappa grow linearly once alpha_bar*t >> 1; theta saturates
        mp = dataclasses.replace(fig_mp, z0=0.4)
        t1 = 3000.0
        c1, c2, c3 = (expansion_coeffs(mp, t, 0.0) for t in (t1, 2 * t1, 3 * t1))
        for field in ("mu", "sigma3", "kappa"):
            inc1 = getattr(c2, field) - getattr(c1, field)
            inc2 = getattr(c3, field) - getattr(c2, field)
            assert inc2 == pytest.approx(inc1, rel=1e-6)
        assert c3.theta == pytest.approx(0.4 / (mp.lam**2 * mp.nu), rel=1e-9)

    def test_continuity_in_t(self, fig_mp):
        ts = np.linspace(0.0, 60.0, 601)
        vals = np.array([expansion_coeffs(fig_mp, t, 0.0).sigma3 for t in ts])
        assert np.max(np.abs(np.diff(vals))) < 1e-6

    @pytest.mark.parametrize("t", [[5.0, 20.0, 5.0, 0.0, 20.0, 60.0],
                                   [[0.0, 5.0, 5.0], [60.0, 5.0, 0.5]], [7.0]])
    def test_array_t_equals_scalar_calls(self, fig_mp, t):
        mp = dataclasses.replace(fig_mp, z0=0.3)
        co = expansion_coeffs(mp, t, 2e-4)
        t = np.asarray(t)
        assert co.maturity.shape == t.shape and (co.maturity == t).all()
        for idx in np.ndindex(t.shape):
            ref = expansion_coeffs(mp, float(t[idx]), 2e-4)
            for field in ("mu", "theta", "sigma3", "kappa"):
                assert getattr(co, field).shape == t.shape
                assert getattr(co, field)[idx] == getattr(ref, field)

    def test_scalar_t_gives_floats(self, fig_mp):
        co = expansion_coeffs(fig_mp, np.float64(20.0), 0.0)
        assert all(type(getattr(co, f.name)) is float for f in dataclasses.fields(co))

    @pytest.mark.parametrize("t", [-1.0, [5.0, -1.0], [[5.0], [-0.5]]])
    def test_negative_maturity_rejected(self, fig_mp, t):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            expansion_coeffs(fig_mp, t, 0.0)

    @pytest.mark.parametrize("fn", [expansion_coeffs, expansion_coeffs_averaged])
    @pytest.mark.parametrize("t, r, name", [
        (math.nan, 0.0, "t"), (math.inf, 0.0, "t"), (-math.inf, 0.0, "t"),
        ([5.0, math.nan], 0.0, "t"), (5.0, math.nan, "r"), (5.0, -math.inf, "r"),
    ])
    def test_non_finite_input_rejected(self, fig_mp, fn, t, r, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fn(fig_mp, t, r)

    @pytest.mark.parametrize("field, value, message", [
        ("mu", math.nan, "mu must be finite"),
        ("theta", math.inf, "theta must be finite"),
        ("sigma3", np.array([0.0, -math.inf]), "sigma3 must be finite"),
        ("kappa", math.nan, "kappa must be finite"),
        ("maturity", math.inf, "maturity must be finite"),
        ("maturity", -5.0, "maturity must be nonnegative"),
        ("maturity", np.array([1.0, -1.0]), "maturity must be nonnegative"),
    ])
    def test_dataclass_rejects_bad_fields(self, field, value, message):
        fields = dict(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0, maturity=5.0)
        ExpansionCoeffs(**fields)
        with pytest.raises(ValueError, match=message):
            ExpansionCoeffs(**{**fields, field: value})

    def test_fields_that_cannot_broadcast_rejected(self):
        with pytest.raises(ValueError, match=r"^ExpansionCoeffs fields must broadcast together, "
                                             r"got shapes \{'mu': \(2,\), .*'maturity': \(3,\)\}$"):
            ExpansionCoeffs(mu=[0, 0], theta=0, sigma3=0, kappa=0, maturity=[1, 2, 3])


class TestAveragedCoeffs:
    def test_zero_maturity(self, fig_mp):
        co = expansion_coeffs_averaged(fig_mp, 0.0, 0.0)
        assert (co.mu, co.theta, co.sigma3, co.kappa) == (0.0, 0.0, 0.0, 0.0)

    def test_sigma3_equals_plain_at_zero_z0(self, fig_mp):
        t, r = 35.0, 1e-4
        avg = expansion_coeffs_averaged(fig_mp, t, r)
        plain = expansion_coeffs(dataclasses.replace(fig_mp, z0=0.0), t, r)
        assert avg.theta == 0.0
        assert avg.sigma3 == pytest.approx(plain.sigma3, rel=1e-14)

    @pytest.mark.parametrize("t", [2.0, 20.0, 80.0])
    def test_kappa_matches_gaussian_average(self, fig_mp, t):
        # Independent oracle: average kappa + theta^2/2 over z0 ~ N(0, beta_bar^2)
        # with Gauss-Hermite quadrature.  This identity holds exactly and pins
        # the sign of the (1 - e^{-2 at})/2 term in kappa: the opposite sign
        # fails it by orders of magnitude.
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        beta = math.sqrt(fig_mp.beta2_bar)
        acc = 0.0
        for x, w in zip(nodes, weights):
            z0 = math.sqrt(2.0) * beta * x
            co = expansion_coeffs(dataclasses.replace(fig_mp, z0=z0), t, 0.0)
            acc += w * co.quartic_weight
        oracle = acc / math.sqrt(math.pi)
        avg = expansion_coeffs_averaged(fig_mp, t, 0.0)
        assert avg.kappa == pytest.approx(oracle, rel=1e-12)

    def test_averaged_kappa_smaller_than_plain(self, fig_mp):
        # the averaged bracket [at - (1-e1)] sits below [at + (1-e2)/2 - 2(1-e1)]
        # plus the theta^2/2 mass only through the exact cancellation above;
        # at z0 = 0 the plain quartic weight is strictly smaller.
        t = 20.0
        plain = expansion_coeffs(dataclasses.replace(fig_mp, z0=0.0), t, 0.0)
        avg = expansion_coeffs_averaged(fig_mp, t, 0.0)
        assert avg.kappa > plain.kappa


class TestHermite:
    def test_reference_values(self):
        assert hermite_poly(0, 3.2) == 1.0
        assert hermite_poly(1, 0.5) == 1.0
        assert hermite_poly(2, 0.0) == -2.0
        assert hermite_poly(3, 1.0) == -4.0
        assert hermite_poly(4, 0.0) == 12.0
        # any number equal to a degree is that degree
        assert hermite_poly(2.0, 1.5) == 7.0
        assert hermite_poly(np.int64(3), 1.5) == 9.0
        assert hermite_poly(True, 1.5) == 3.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            hermite_poly(5, 0.0)
        with pytest.raises(ValueError):
            hermite_poly(-1, 0.0)
        with pytest.raises(ValueError):
            hermite_poly(2.5, 0.0)

    def test_textbook_expansions_bit_for_bit(self):
        rng = np.random.default_rng(4)
        x = np.concatenate([rng.standard_normal(10_000), 1e3 * rng.standard_cauchy(1_000)])
        x = x[x != 0.0]   # Horner's trailing + 0 makes H1 and H3 give +0.0 at a zero
        textbook = [np.ones_like(x), 2.0 * x, 4.0 * x * x - 2.0, (8.0 * x * x - 12.0) * x,
                    (16.0 * x * x - 48.0) * x * x + 12.0]
        for n, want in enumerate(textbook):
            assert hermite_poly(n, x).tobytes() == want.tobytes()
            assert hermite_poly(n, float(x[7])) == want[7]

    @pytest.mark.parametrize("a", [-1.0, 0.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_derivative_identity(self, n, a):
        # d^n/da^n exp(-a^2) = exp(-a^2) H_n(-a)
        deriv = nth_derivative(lambda x: np.exp(-x * x), a, n)
        assert deriv == pytest.approx(math.exp(-a * a) * hermite_poly(n, -a), abs=1e-6)


class TestCharFnFull:
    def test_zero_frequency(self, fig_mp):
        assert char_fn_full(fig_mp, 0.0, 0.242, 1.3) == 1.0

    def test_zero_time(self, fig_mp):
        assert char_fn_full(fig_mp, 0.7, 0.0, 1.3) == pytest.approx(1.0, abs=1e-15)

    def test_conjugate_symmetry(self, fig_mp):
        tp = fig_mp.k**2 * 20.0
        for w in np.linspace(-2, 2, 21):
            a = char_fn_full(fig_mp, w, tp, 0.9)
            b = char_fn_full(fig_mp, -w, tp, 0.9)
            assert b == pytest.approx(a.conjugate(), rel=1e-13, abs=1e-13)

    def test_bounded_on_grid(self, fig_mp):
        tp = fig_mp.k**2 * 20.0
        for v0 in (0.0, fig_mp.lam * 0.3):
            mags = [abs(char_fn_full(fig_mp, w, tp, v0))
                    for w in np.linspace(-2, 2, 41)]
            assert max(mags) <= 1.0 + 1e-12


class TestCharFnExpanded:
    def test_zero_frequency(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        assert char_fn_expanded(fig_mp, co, 0.0) == 1.0

    def test_zero_rho_phase_is_pure_drift(self, fig_params):
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=0.0)
        mp = dataclasses.replace(to_martingale(p, 1e-3, 1e-3, 0.0), z0=0.0)
        t, r = 20.0, 3e-4
        co = expansion_coeffs(mp, t, r)
        for w in (0.3, 1.0, 1.7):
            val = char_fn_expanded(mp, co, w)
            assert cmath.log(val).imag == pytest.approx(-w * co.mu, abs=1e-12)

    @pytest.mark.parametrize("z0", [0.0])
    def test_matches_full_at_lambda_minus_5(self, z0):
        # residual |log expanded - log full| must shrink ~2^5 per lambda doubling
        k, abar, rho, t, r = 0.11, 0.00811, -0.4, 20.0, 3e-4
        resids = []
        for lam in (10.0, 20.0, 40.0):
            mp = MartingaleParams(m_bar=k / lam, alpha_bar=abar, k=k, rho=rho, z0=z0)
            co = expansion_coeffs(mp, t, r)
            tp = k * k * t
            worst = 0.0
            for w in np.linspace(-2, 2, 17):
                if abs(w) < 1e-9:
                    continue
                fe = char_fn_expanded(mp, co, w)
                ff = char_fn_full(mp, w / lam, tp, lam * z0, rate=r)
                worst = max(worst, abs(cmath.log(fe) - cmath.log(ff)))
            resids.append(worst)
        for lo, hi in zip(resids[1:], resids[:-1]):
            assert 16.0 <= hi / lo <= 64.0


class TestReturnDensity:
    def test_pure_gaussian_when_corrections_vanish(self, fig_mp):
        t = 20.0
        co = ExpansionCoeffs(mu=-1e-3, theta=0.0, sigma3=0.0, kappa=0.0,
                             maturity=t)
        xs = np.linspace(-0.2, 0.2, 7)
        s2 = fig_mp.m_bar**2 * t
        expected = np.exp(-(xs + 1e-3)**2 / (2 * s2)) / math.sqrt(2 * math.pi * s2)
        got = return_density(fig_mp, co, xs)
        assert got == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("t", [5.0, 20.0, 60.0])
    def test_normalization(self, fig_mp, t):
        co = expansion_coeffs(fig_mp, t, 0.0)
        sd = fig_mp.m_bar * math.sqrt(t)
        total, _ = quad(lambda x: return_density(fig_mp, co, x),
                        co.mu - 14 * sd, co.mu + 14 * sd, limit=300)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_negative_skew_for_negative_rho(self, fig_mp):
        t = 20.0
        co = expansion_coeffs(fig_mp, t, 0.0)
        sd = fig_mp.m_bar * math.sqrt(t)
        m3, _ = quad(lambda x: (x - co.mu)**3
                     * return_density(fig_mp, co, x),
                     co.mu - 14 * sd, co.mu + 14 * sd, limit=300)
        assert m3 < 0
        assert m3 == pytest.approx(6 * fig_mp.rho * co.sigma3, rel=1e-6)

    def test_mean_matches_char_fn_derivative(self, fig_mp):
        t, r = 20.0, 2e-4
        mp = dataclasses.replace(fig_mp, z0=0.3)
        co = expansion_coeffs(mp, t, r)
        sd = mp.m_bar * math.sqrt(t)
        mean, _ = quad(lambda x: x * return_density(mp, co, x),
                       co.mu - 14 * sd, co.mu + 14 * sd, limit=300)
        h = 1e-4
        dphi = (char_fn_expanded(mp, co, h)
                - char_fn_expanded(mp, co, -h)) / (2 * h)
        mean_cf = (1j * dphi).real
        assert mean == pytest.approx(mean_cf, abs=1e-6)
        assert mean == pytest.approx(co.mu, abs=1e-6)

    @pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
    def test_fourier_transform_matches_char_fn(self, fig_mp, omega):
        t, r = 20.0, 0.0
        mp = dataclasses.replace(fig_mp, z0=0.2)
        co = expansion_coeffs(mp, t, r)
        sd = mp.m_bar * math.sqrt(t)
        lo, hi = co.mu - 12 * sd, co.mu + 12 * sd
        re, _ = quad(lambda x: math.cos(omega * x)
                     * return_density(mp, co, x), lo, hi, limit=300)
        im, _ = quad(lambda x: -math.sin(omega * x)
                     * return_density(mp, co, x), lo, hi, limit=300)
        target = char_fn_expanded(mp, co, omega)
        assert complex(re, im) == pytest.approx(target, abs=1e-6)

    def test_rejects_nonpositive_maturity(self, fig_mp):
        co = expansion_coeffs(fig_mp, 0.0, 0.0)
        with pytest.raises(ValueError):
            return_density(fig_mp, co, 0.0)


class TestNegativeMassDiagnostic:
    def test_zero_for_pure_gaussian(self, fig_mp):
        from expouvol import negative_mass_fraction
        co = ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0,
                             maturity=20.0)
        assert negative_mass_fraction(fig_mp, co) == 0.0

    def test_small_at_reference_params(self, fig_mp):
        from expouvol import negative_mass_fraction
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        frac = negative_mass_fraction(fig_mp, co)
        assert 0.0 <= frac < 1e-3

    @pytest.mark.parametrize("t", [5.0, 20.0])
    def test_no_negative_mass_is_plus_zero(self, fig_params, t):
        from expouvol import negative_mass_fraction
        mp = to_martingale(fig_params, 1e-3, 1e-3, 0.0)
        frac = negative_mass_fraction(mp, expansion_coeffs(mp, t, 0.0))
        assert frac == 0.0 and math.copysign(1.0, frac) == 1.0

    def test_grows_with_forced_corrections(self, fig_mp):
        from expouvol import negative_mass_fraction
        co = ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=3e-3, kappa=0.0,
                             maturity=20.0)
        frac = negative_mass_fraction(fig_mp, co)
        assert frac > 1e-3


class TestInputChecks:
    @pytest.mark.parametrize("call, name", [
        (lambda mp, co: char_fn_full(mp, math.nan, 0.242, 0.0), "omega1"),
        (lambda mp, co: char_fn_full(mp, 1.0, math.nan, 0.0), "t_prime"),
        (lambda mp, co: char_fn_full(mp, 1.0, math.inf, 0.0), "t_prime"),
        (lambda mp, co: char_fn_full(mp, 1.0, 0.242, math.inf), "v0"),
        (lambda mp, co: char_fn_full(mp, 1.0, 0.242, 0.0, rate=math.nan), "rate"),
        (lambda mp, co: char_fn_expanded(mp, co, math.nan), "omega"),
        (lambda mp, co: char_fn_expanded(mp, co, -math.inf), "omega"),
    ])
    def test_non_finite_rejected_by_name(self, fig_mp, call, name):
        # each returned (nan+nanj) before it was checked
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(fig_mp, co)

    def test_negative_t_prime_rejected(self, fig_mp):
        with pytest.raises(ValueError, match="^t_prime must be nonnegative, got -0.1$"):
            char_fn_full(fig_mp, 1.0, -0.1, 0.0)

    @pytest.mark.parametrize("call", [lambda mp, co: return_density(mp, co, 0.0),
                                      negative_mass_fraction])
    def test_zero_maturity_rejected(self, fig_mp, call):
        co = expansion_coeffs(fig_mp, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"^maturity must be positive and finite, got 0\.0$"):
            call(fig_mp, co)

    def test_non_finite_beta2_rejected(self):
        with pytest.raises(ValueError, match=r"^k\^2/\(2 alpha\) is not finite$"):
            ModelParams(m=0.01, alpha=1e-300, k=1e10, rho=0.0)

    @pytest.mark.parametrize("call, name", [
        (lambda mp, co: return_density(mp, co, 0.0), "return_density"),
        (lambda mp, co: negative_mass_fraction(mp, co), "negative_mass_fraction"),
        (lambda mp, co: char_fn_expanded(mp, co, 1.0), "char_fn_expanded"),
    ])
    @pytest.mark.parametrize("maturities", [[5.0, 20.0], [5.0]])
    def test_array_maturity_rejected(self, fig_mp, call, name, maturities):
        # each handles one maturity, so array coefficients are refused even at
        # one lane; ``name`` labels the case
        co = expansion_coeffs(fig_mp, maturities, 0.0)
        with pytest.raises(ValueError, match=r"^maturity must be a single number, got \["):
            call(fig_mp, co)


class TestRegimeWarning:
    def test_reference_set_is_trusted(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        assert not regime_warning(fig_mp, co)

    def test_small_lambda_flags(self):
        mp = MartingaleParams(m_bar=0.05, alpha_bar=8e-3, k=0.11, rho=-0.4, z0=0.0)
        co = expansion_coeffs(mp, 20.0, 0.0)
        assert mp.lam < 5
        assert regime_warning(mp, co)

    def test_large_corrections_flag(self, fig_mp):
        co = ExpansionCoeffs(mu=0.0, theta=0.9 * (2 * fig_mp.m_bar**2 * 20.0),
                             sigma3=0.0, kappa=0.0, maturity=20.0)
        assert regime_warning(fig_mp, co)

    def test_zero_maturity_is_trusted(self, fig_mp):
        assert regime_warning(fig_mp, expansion_coeffs(fig_mp, 0.0, 0.0)) is False

    @pytest.mark.parametrize("lam_small", [False, True])
    def test_array_coeffs_flag_lane_by_lane(self, fig_mp, lam_small):
        mp = dataclasses.replace(fig_mp, m_bar=0.05) if lam_small else fig_mp
        big = 0.9 * (2 * mp.m_bar**2 * 20.0)
        lanes = [(0.0, 0.0), (0.0, 20.0), (big, 20.0), (big, 0.0), (0.0, 5.0)]
        # sigma3 != 0 makes every weight infinite, not NaN, at maturity 0
        co = ExpansionCoeffs(mu=np.zeros(5), theta=np.array([th for th, _ in lanes]),
                             sigma3=np.full(5, 1e-6), kappa=np.zeros(5),
                             maturity=np.array([t for _, t in lanes]))
        ref = [regime_warning(mp, ExpansionCoeffs(mu=0.0, theta=th, sigma3=1e-6,
                                                  kappa=0.0, maturity=t))
               for th, t in lanes]
        flags = regime_warning(mp, co)
        assert flags.dtype == bool
        assert flags.tolist() == ref
        assert ref == ([True] * 5 if lam_small else [False, False, True, False, False])
