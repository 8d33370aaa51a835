"""Physical-measure model: moments, densities, correlation diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from expouvol import (
    ModelParams,
    leverage,
    ou_conditional_moments,
    squared_return_autocorr,
    vol_conditional_pdf,
    vol_stationary_pdf,
)
from oracles import vol_conditional_pdf_50


class TestParams:
    def test_valid(self, fig_params):
        assert fig_params.beta2 == pytest.approx(0.75625, abs=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(m=0.0, alpha=8e-3, k=0.11, rho=0.0),
        dict(m=0.01, alpha=-1e-3, k=0.11, rho=0.0),
        dict(m=0.01, alpha=8e-3, k=0.0, rho=0.0),
        dict(m=0.01, alpha=8e-3, k=0.11, rho=1.5),
        dict(m=0.01, alpha=8e-3, k=0.11, rho=-1.0001),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)


class TestOUMoments:
    def test_zero_time(self, fig_params):
        mean, var = ou_conditional_moments(fig_params, 0.7, 0.0)
        assert mean == 0.7
        assert var == 0.0

    def test_stationary_limit(self, fig_params):
        mean, var = ou_conditional_moments(fig_params, 3.0, 1e7)
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(fig_params.beta2, rel=1e-12)

    def test_direct_evaluation(self):
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=0.0)
        mean, var = ou_conditional_moments(p, 1.0, 100.0)
        assert mean == pytest.approx(math.exp(-0.8), rel=1e-14)
        assert var == pytest.approx(0.75625 * (1.0 - math.exp(-1.6)), rel=1e-14)

    def test_negative_time_rejected(self, fig_params):
        with pytest.raises(ValueError):
            ou_conditional_moments(fig_params, 0.0, -0.1)

    @given(t1=st.floats(0, 500), t2=st.floats(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_variance_monotone_and_bounded(self, t1, t2):
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)
        _, v1 = ou_conditional_moments(p, 0.0, min(t1, t2))
        _, v2 = ou_conditional_moments(p, 0.0, max(t1, t2))
        assert 0.0 <= v1 <= v2 <= p.beta2 * (1 + 1e-12)


class TestVariance:
    def test_fig_value(self, fig_params):
        assert fig_params.beta2 == pytest.approx(0.75625)

    def test_forced_unity(self):
        p = ModelParams(m=1.0, alpha=0.02, k=0.2, rho=0.0)
        assert p.beta2 == pytest.approx(1.0, rel=1e-15)


class TestVolDensities:
    def test_stationary_at_m(self, fig_params):
        beta = math.sqrt(fig_params.beta2)
        expected = 1.0 / (fig_params.m * beta * math.sqrt(2 * math.pi))
        assert vol_stationary_pdf(fig_params, fig_params.m) == pytest.approx(expected, rel=1e-14)

    def test_stationary_normalizes(self, fig_params):
        beta = math.sqrt(fig_params.beta2)
        hi = fig_params.m * math.exp(8 * beta)
        total, err = quad(lambda s: vol_stationary_pdf(fig_params, s), 1e-12, hi,
                          limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_stationary_median_is_m(self, fig_params):
        mass, _ = quad(lambda s: vol_stationary_pdf(fig_params, s), 1e-12,
                       fig_params.m, limit=200)
        assert mass == pytest.approx(0.5, abs=1e-8)

    def test_conditional_normalizes(self, fig_params):
        beta = math.sqrt(fig_params.beta2)
        hi = fig_params.m * math.exp(8 * beta)
        total, _ = quad(lambda s: vol_conditional_pdf(fig_params, s, 20.0, 0.015),
                        1e-12, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_conditional_converges_to_stationary(self, fig_params):
        # contraction rate: sup-norm ~ exp(-alpha t) * p * |ln(sigma0/m)| * z/beta^2
        t = -math.log(1e-13) / fig_params.alpha  # exp(-alpha t) = 1e-13
        sig = np.geomspace(1e-4, 0.3, 200)
        diff = np.abs(vol_conditional_pdf(fig_params, sig, t, 0.02)
                      - vol_stationary_pdf(fig_params, sig))
        assert diff.max() < 1e-10

    @pytest.mark.parametrize("t", [0.001, 0.01])
    def test_conditional_digits_at_short_horizons(self, fig_params, t):
        # over +-3 conditional sd from sigma0 = 0.015, against 50 digits:
        # measured worst 1.1e-13 at t = 0.001 and 4.2e-14 at 0.01; forming
        # the variance as beta^2 (1 - e^{-at} e^{-at}) cancels to 1.4e-11
        sigma0 = 0.015
        mean, var = ou_conditional_moments(fig_params, math.log(sigma0 / fig_params.m), t)
        sig = fig_params.m * np.exp(mean + math.sqrt(var) * np.linspace(-3.0, 3.0, 61))
        got = vol_conditional_pdf(fig_params, sig, t, sigma0)
        for s, g in zip(sig.tolist(), got.tolist()):
            want = vol_conditional_pdf_50(fig_params, s, t, sigma0)
            assert float(abs(g - want) / want) <= 2e-13, s

    def test_domain_errors(self, fig_params):
        with pytest.raises(ValueError):
            vol_conditional_pdf(fig_params, -0.01, 5.0, 0.01)
        with pytest.raises(ValueError):
            vol_conditional_pdf(fig_params, 0.01, 5.0, 0.0)
        with pytest.raises(ValueError):
            vol_stationary_pdf(fig_params, 0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("call, name", [
        (lambda p: ou_conditional_moments(p, math.nan, 5.0), "y0"),
        (lambda p: ou_conditional_moments(p, [0.1, math.inf], 5.0), "y0"),
        (lambda p: ou_conditional_moments(p, 0.1, math.nan), "t"),
        (lambda p: ou_conditional_moments(p, 0.1, [1.0, math.inf]), "t"),
        (lambda p: squared_return_autocorr(p, math.nan), "tau"),
        (lambda p: squared_return_autocorr(p, [0.0, math.inf]), "tau"),
        (lambda p: leverage(p, math.nan), "tau"),
        (lambda p: leverage(p, -math.inf), "tau"),
        (lambda p: vol_stationary_pdf(p, math.nan), "sigma"),
        (lambda p: vol_stationary_pdf(p, [0.01, math.inf]), "sigma"),
        (lambda p: vol_conditional_pdf(p, math.nan, 5.0, 0.01), "sigma"),
    ])
    def test_rejected_by_name(self, fig_params, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            call(fig_params)

    def test_signed_inputs_accepted(self, fig_params):
        assert ou_conditional_moments(fig_params, -0.7, 0.0) == (-0.7, 0.0)
        assert leverage(fig_params, -1e300) == 0.0


class TestSquaredReturnAutocorr:
    def test_lag_zero(self, fig_params):
        b2 = fig_params.beta2
        expected = (math.exp(4 * b2) - 1) / (3 * math.exp(4 * b2) - 1)
        got = squared_return_autocorr(fig_params, 0.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(0.3224, abs=1e-4)

    def test_decays_to_zero(self, fig_params):
        assert squared_return_autocorr(fig_params, 1e7) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing(self, fig_params):
        taus = np.linspace(0, 600, 400)
        vals = squared_return_autocorr(fig_params, taus)
        assert np.all(np.diff(vals) < 0)
        assert np.all((vals > 0) & (vals <= 1))

    def test_long_range_asymptote(self, fig_params):
        # single-exponential tail within 10% once alpha*tau = 5
        tau = 5.0 / fig_params.alpha
        b2 = fig_params.beta2
        asym = 4 * b2 * math.exp(-fig_params.alpha * tau) / (3 * math.exp(4 * b2) - 1)
        assert squared_return_autocorr(fig_params, tau) == pytest.approx(asym, rel=0.10)

    def test_series_form(self, fig_params):
        # exponential-cascade series, truncated when terms drop below 1e-16
        b2 = fig_params.beta2
        for tau in (0.0, 3.0, 40.0, 250.0):
            total = 0.0
            term_base = 4 * b2 * math.exp(-fig_params.alpha * tau)
            term = 1.0
            n = 0
            while True:
                n += 1
                term *= term_base / n
                total += term
                if abs(term) < 1e-16:
                    break
            series = total / (3 * math.exp(4 * b2) - 1)
            assert squared_return_autocorr(fig_params, tau) == pytest.approx(series, abs=1e-10)

    def test_negative_lag_rejected(self, fig_params):
        with pytest.raises(ValueError):
            squared_return_autocorr(fig_params, -1.0)


class TestLeverage:
    def test_heaviside(self, fig_params):
        assert leverage(fig_params, -1.0) == 0.0
        assert leverage(fig_params, -1e-12) == 0.0

    def test_amplitude_at_zero(self, fig_params):
        expected = (2 * -0.4 * 0.11 / 0.01) * math.exp(fig_params.beta2 / 2)
        got = leverage(fig_params, 0.0)
        assert got == pytest.approx(expected, rel=1e-14)
        assert got == pytest.approx(-12.84, abs=5e-3)

    def test_short_range_asymptote(self, fig_params):
        tau = 0.01 / fig_params.alpha
        b2 = fig_params.beta2
        asym = (2 * fig_params.rho * fig_params.k / fig_params.m) \
            * math.exp(b2 / 2) * math.exp(-fig_params.k**2 * tau)
        assert leverage(fig_params, tau) == pytest.approx(asym, rel=0.15)

    def test_long_range_asymptote(self, fig_params):
        tau = 5.0 / fig_params.alpha
        b2 = fig_params.beta2
        asym = (2 * fig_params.rho * fig_params.k / fig_params.m) \
            * math.exp(-1.5 * b2) * math.exp(-fig_params.alpha * tau)
        assert leverage(fig_params, tau) == pytest.approx(asym, rel=0.15)

    @given(tau=st.floats(-50, 500), rho=st.floats(-1, 1))
    @settings(max_examples=80, deadline=None)
    def test_sign_matches_rho(self, tau, rho):
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=rho)
        val = leverage(p, tau)
        if tau < 0:
            assert val == 0.0
        else:
            assert val * rho >= 0.0

    def test_vectorized_matches_scalar(self, fig_params):
        taus = np.array([-2.0, 0.0, 1.0, 5.0, 20.0])
        vec = leverage(fig_params, taus)
        assert vec == pytest.approx([leverage(fig_params, t) for t in taus])
