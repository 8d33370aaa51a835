"""Closed-form pricing: BS baseline, correction components, call/put/delta."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc

from expouvol import (
    ExpansionCoeffs,
    OptionSpec,
    bs_call,
    call_components,
    delta,
    expansion_coeffs,
    expou_call,
    expou_put,
    hermite_poly,
    norm_cdf,
    norm_pdf,
    return_density,
)
from oracles import (bs_call_quadrature, central_diff, component_integral,
                     expou_call_assembled)
from expouvol.pricing import _MAXLOG, _erfc
from expouvol.risk_neutral import MartingaleParams

# The moneyness grid of the CLI defaults, as strikes at spot 100.
CLI_STRIKES = 100.0 / np.linspace(0.8, 1.2, 101)


class TestNormal:
    def test_cdf_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_symmetry(self):
        for d in (0.3, 1.0, 2.5, 6.0):
            assert norm_cdf(-d) == pytest.approx(1.0 - norm_cdf(d), abs=1e-15)

    def test_cdf_reference_value(self):
        # reference by quadrature of the Gaussian density
        ref, _ = quad(norm_pdf, -12.0, 1.96, limit=200)
        assert norm_cdf(1.96) == pytest.approx(ref, abs=1e-12)
        assert norm_cdf(1.96) == pytest.approx(0.9750021, abs=5e-7)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 400)
        assert np.all(np.diff(norm_cdf(xs)) > 0)

    def test_pdf_is_cdf_derivative(self):
        for d in (-1.5, 0.0, 0.9):
            fd = central_diff(norm_cdf, d, 1e-6)
            assert norm_pdf(d) == pytest.approx(fd, abs=1e-9)

    def test_cdf_keeps_scalar_and_array_shapes(self):
        assert type(norm_cdf(0.3)) is float
        assert type(norm_cdf(np.float64(-9.0))) is float
        assert type(norm_cdf(np.array(1.5))) is float
        d = np.linspace(-12.0, 12.0, 24).reshape(2, 3, 4)
        got = norm_cdf(d)
        assert got.shape == (2, 3, 4)
        assert got.tolist() == [[[norm_cdf(v) for v in r] for r in m] for m in d]
        assert norm_cdf(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.byte_exact
class TestErfcPort:
    """``pricing._erfc`` is scipy.special.erfc bit for bit; scipy is the oracle here only."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @staticmethod
    def assert_identical(x):
        x = np.asarray(x, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy RuntimeWarning for any input
            got = _erfc(x)
        want = scipy_erfc(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_dense_grid(self):
        self.assert_identical(np.linspace(-40.0, 40.0, 800_001))

    def test_branch_points_and_neighbours(self):
        edges = np.array([1.0, 8.0, math.sqrt(_MAXLOG)])
        edges = np.concatenate([edges, -edges])
        up, down = np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)
        self.assert_identical(np.concatenate(
            [edges, up, down, np.nextafter(up, np.inf), np.nextafter(down, -np.inf)]))

    def test_special_values(self):
        special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                   5e-324, -5e-324, 26.65, -26.65, 1e300, -1e300, 1.4e154, -1.4e154]
        self.assert_identical(special)
        for v in special:
            self.assert_identical(v)

    def test_random_draws(self):
        rng = np.random.default_rng(2008)
        self.assert_identical(4.0 * rng.standard_normal(200_000))
        self.assert_identical(rng.standard_cauchy(200_000))

    def test_shapes(self):
        self.assert_identical(np.linspace(-30.0, 30.0, 60).reshape(3, 4, 5))
        self.assert_identical(np.empty((2, 0)))

    @given(st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=500, deadline=None)
    def test_any_float(self, x):
        self.assert_identical(x)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_float_array(self, xs):
        self.assert_identical(np.array(xs, dtype=float))


class TestBsCall:
    def test_tiny_strike_gives_spot(self):
        spec = OptionSpec(100.0, 1e-10, 20.0, 1e-4)
        assert bs_call(spec, 0.01) == pytest.approx(100.0, abs=1e-9)

    def test_atm_closed_form(self):
        # S=K, r=0: price = S*(2 N(vol sqrt(T)/2) - 1)
        spec = OptionSpec(100.0, 100.0, 20.0, 0.0)
        vol = 0.01
        expected = 100.0 * (2.0 * norm_cdf(vol * math.sqrt(20.0) / 2.0) - 1.0)
        assert bs_call(spec, vol) == pytest.approx(expected, abs=1e-12)
        assert bs_call(spec, vol) == pytest.approx(1.784, abs=5e-4)

    def test_against_quadrature(self):
        for S, K, T, r, vol in [(100, 100, 20, 0, 0.01), (90, 110, 60, 5e-4, 0.02),
                                (120, 100, 5, 1e-4, 0.015)]:
            spec = OptionSpec(S, K, T, r)
            assert bs_call(spec, vol) == pytest.approx(
                bs_call_quadrature(S, K, T, r, vol), abs=1e-8)

    def test_short_maturity_is_intrinsic(self):
        assert bs_call(OptionSpec(110.0, 100.0, 1e-10, 0.0), 0.01) == pytest.approx(10.0, abs=1e-8)
        assert bs_call(OptionSpec(90.0, 100.0, 1e-10, 0.0), 0.01) == pytest.approx(0.0, abs=1e-12)

    def test_price_bounds(self):
        spec = OptionSpec(100.0, 95.0, 30.0, 2e-4)
        price = bs_call(spec, 0.012)
        assert max(100.0 - 95.0 * math.exp(-2e-4 * 30.0), 0.0) < price < 100.0

    def test_rejects_nonpositive_vol(self):
        with pytest.raises(ValueError):
            bs_call(OptionSpec(100, 100, 20, 0.0), 0.0)

    @pytest.mark.parametrize("vol", [math.nan, math.inf, [0.01, math.nan], [0.01, -0.01]])
    def test_rejects_non_finite_vol_element_wise(self, vol):
        with pytest.raises(ValueError, match="positive and finite"):
            bs_call(OptionSpec(100.0, [95.0, 105.0], 20.0, 0.0), vol)

    def test_array_vol_matches_scalar_calls(self):
        strikes, vols = [90.0, 100.0, 110.0], [0.005, 0.01, 0.03]
        got = bs_call(OptionSpec(100.0, strikes, 20.0, 1e-4), np.array(vols))
        assert got.tolist() == [bs_call(OptionSpec(100.0, k, 20.0, 1e-4), v)
                                for k, v in zip(strikes, vols)]


class TestComponents:
    def test_deep_out_of_money_vanish(self):
        spec = OptionSpec(1.0, 1000.0, 10.0, 0.0)
        c0, c1, c2 = call_components(spec, 0.01)
        assert abs(c0) < 1e-12 and abs(c1) < 1e-12 and abs(c2) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_match_defining_integrals(self, seed):
        rng = np.random.default_rng(seed)
        S = float(rng.uniform(50, 150))
        K = S * float(rng.uniform(0.7, 1.3))
        T = float(rng.uniform(2, 60))
        mbar = float(rng.uniform(0.005, 0.03))
        r = float(rng.uniform(0, 1e-3))
        spec = OptionSpec(S, K, T, r)
        got = call_components(spec, mbar)
        want = [component_integral(n, S, K, T, mbar, r) for n in (2, 3, 4)]
        scale = max(1.0, max(abs(w) for w in want))
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-8 * scale


class TestExpouCall:
    def test_zero_coefficients_reduce_to_bs(self, fig_mp):
        spec = OptionSpec(100.0, 98.0, 20.0, 1e-4)
        co = ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0,
                             maturity=20.0)
        pb = expou_call(spec, fig_mp, co)
        assert pb.total == pytest.approx(bs_call(spec, fig_mp.m_bar), abs=1e-12)

    def test_breakdown_weights(self, fig_mp):
        mp = dataclasses.replace(fig_mp, z0=0.2)
        spec = OptionSpec(100.0, 103.0, 20.0, 0.0)
        co = expansion_coeffs(mp, 20.0, 0.0)
        pb = expou_call(spec, mp, co)
        manual = (pb.bs + co.theta * pb.c0_term + mp.rho * co.sigma3 * pb.c1_term
                  + co.quartic_weight * pb.c2_term)
        assert pb.total == pytest.approx(manual, abs=1e-12 * spec.spot)

    def test_sign_structure_vs_bs(self, fig_mp):
        # negative rho: cheaper than BS below moneyness one, dearer above
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        for mon in (0.95, 0.97):
            spec = OptionSpec(100.0 * mon, 100.0, 20.0, 0.0)
            pb = expou_call(spec, fig_mp, co)
            assert pb.total - pb.bs < 0
        for mon in (1.03, 1.05):
            spec = OptionSpec(100.0 * mon, 100.0, 20.0, 0.0)
            pb = expou_call(spec, fig_mp, co)
            assert pb.total - pb.bs > 0

    def test_monotone_in_spot(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        prices = [expou_call(OptionSpec(100.0 * m, 100.0, 20.0, 0.0), fig_mp, co).total
                  for m in np.linspace(0.8, 1.2, 41)]
        assert all(b > a for a, b in zip(prices, prices[1:]))

    def test_rho_flip_isolates_skew_component(self, fig_mp):
        # C(rho) - C(-rho) = 2 rho sigma3 C1: kappa's rho^2 part is even
        t = 20.0
        spec = OptionSpec(100.0, 104.0, t, 2e-4)
        mp_m = dataclasses.replace(fig_mp, rho=-0.4, z0=0.1)
        mp_p = dataclasses.replace(fig_mp, rho=+0.4, z0=0.1)
        co_m = expansion_coeffs(mp_m, t, 2e-4)
        co_p = expansion_coeffs(mp_p, t, 2e-4)
        assert co_m.sigma3 == co_p.sigma3
        diff = expou_call(spec, mp_m, co_m).total - expou_call(spec, mp_p, co_p).total
        c1 = call_components(spec, fig_mp.m_bar)[1]
        assert diff == pytest.approx(2.0 * (-0.4) * co_m.sigma3 * c1, abs=1e-12 * spec.spot)

    def test_negative_total_flagged_not_clamped(self, fig_mp):
        spec = OptionSpec(60.0, 100.0, 20.0, 0.0)
        co = ExpansionCoeffs(mu=-1e-3, theta=0.0, sigma3=5e-4, kappa=0.0,
                             maturity=20.0)
        pb = expou_call(spec, fig_mp, co)
        assert pb.total < 0
        assert pb.warning

    def test_mc_agreement_short_maturity(self, fig_mp):
        # brute-force oracle where the expansion is trusted (k^2 T small)
        from expouvol import SimConfig, mc_call_prices
        t = 5.0
        co = expansion_coeffs(fig_mp, t, 0.0)
        cfg = SimConfig(n_paths=100_000, n_steps=50, dt=0.1, seed=99)
        spec = OptionSpec(100.0 * np.array([0.95, 1.0, 1.05]), 100.0, t, 0.0)
        est = mc_call_prices(fig_mp, cfg, spec)
        formula = expou_call(spec, fig_mp, co).total
        assert np.all(np.abs(formula - est.value)
                      <= 3 * est.std_error + 2e-4 * spec.spot)

    @pytest.mark.parametrize("fn", [expou_call, expou_put, delta])
    @pytest.mark.parametrize("maturity", [5.0, [20.0, 5.0]])
    def test_coefficients_at_another_maturity_rejected(self, fig_mp, fn, maturity):
        # 20-day coefficients priced this 5-day call at 0.313 against 0.869, silently
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        with pytest.raises(ValueError, match="maturity"):
            fn(OptionSpec(100.0, 100.0, maturity), fig_mp, co)
        fn(OptionSpec(100.0, 100.0, [20.0, 20.0]), fig_mp, co)


class TestAssembledOracle:
    @pytest.mark.parametrize("t", [1.0, 5.0, 20.0, 60.0])
    @pytest.mark.parametrize("z0", [-0.5, 0.0, 0.5])
    @pytest.mark.parametrize("rho", [-0.9, 0.0, 0.9])
    def test_component_sum_matches_assembled_form(self, fig_mp, t, z0, rho):
        # the two algebraic forms of the price agree to 1e-12 of max(S, K, 1)
        mp = dataclasses.replace(fig_mp, z0=z0, rho=rho)
        r = 0.02 / 252.0
        co = expansion_coeffs(mp, t, r)
        got = expou_call(OptionSpec(100.0, CLI_STRIKES, t, r), mp, co).total
        for k, g in zip(CLI_STRIKES, got):
            want = expou_call_assembled(100.0, k, t, r, mp, co)
            assert abs(g - want) <= 1e-12 * max(100.0, k, 1.0)


class TestArrayContract:
    def test_scalar_in_float_out(self, fig_mp):
        spec = OptionSpec(100.0, 103.0, 20.0, 1e-4)
        co = expansion_coeffs(fig_mp, 20.0, 1e-4)
        pb = expou_call(spec, fig_mp, co)
        assert all(type(x) is float for x in (pb.bs, pb.c0_term, pb.c1_term,
                                               pb.c2_term, pb.total))
        assert type(pb.warning) is bool
        assert type(expou_put(spec, fig_mp, co)) is float
        assert type(delta(spec, fig_mp, co)) is float
        assert type(bs_call(spec, 0.01)) is float
        assert all(type(c) is float for c in call_components(spec, 0.01))

    def test_array_fields_follow_broadcast_shape(self, fig_mp):
        spec = OptionSpec(np.array([[90.0], [110.0]]), [95.0, 100.0, 105.0], 20.0)
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        pb = expou_call(spec, fig_mp, co)
        for field in dataclasses.fields(pb):
            assert getattr(pb, field.name).shape == (2, 3)
        assert pb.warning.dtype == bool
        assert delta(spec, fig_mp, co).shape == (2, 3)
        assert expou_put(spec, fig_mp, co).shape == (2, 3)

    def test_two_maturity_spec_equals_scalar_calls(self, fig_mp):
        mp = dataclasses.replace(fig_mp, z0=0.2)
        spec = OptionSpec(100, [100, 100], [5, 20], 0)
        co = expansion_coeffs(mp, spec.maturity, 0.0)
        pb = expou_call(spec, mp, co)
        put, dlt = expou_put(spec, mp, co), delta(spec, mp, co)
        for i, t in enumerate((5.0, 20.0)):
            one = OptionSpec(100.0, 100.0, t, 0.0)
            co_t = expansion_coeffs(mp, t, 0.0)
            ref = expou_call(one, mp, co_t)
            for field in dataclasses.fields(pb):
                assert getattr(pb, field.name)[i] == getattr(ref, field.name)
            assert put[i] == expou_put(one, mp, co_t)
            assert dlt[i] == delta(one, mp, co_t)


class TestKernelProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    market = dict(spot=st.floats(50.0, 150.0),
                  mons=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=12),
                  t=st.floats(1.0, 120.0), r=st.floats(0.0, 1e-3))

    @staticmethod
    def _setup(spot, mons, t, r, z0, rho):
        mp = MartingaleParams(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11,
                              rho=rho, z0=z0)
        spec = OptionSpec(spot, spot / np.array(mons), t, r)
        return spec, mp, expansion_coeffs(mp, t, r)

    @given(**market, z0=st.floats(-0.5, 0.5), rho=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_array_matches_scalar_calls(self, spot, mons, t, r, z0, rho):
        spec, mp, co = self._setup(spot, mons, t, r, z0, rho)
        pb = expou_call(spec, mp, co)
        dl = delta(spec, mp, co)
        for i, k in enumerate(spec.strike):
            one = OptionSpec(spot, float(k), t, r)
            ref = expou_call(one, mp, co)
            for name in ("bs", "c0_term", "c1_term", "c2_term", "total"):
                assert getattr(pb, name)[i] == pytest.approx(
                    getattr(ref, name), rel=1e-13, abs=1e-300)
            assert pb.warning[i] == ref.warning
            assert dl[i] == pytest.approx(delta(one, mp, co), rel=1e-13, abs=1e-300)

    @given(**market, z0=st.floats(-0.5, 0.5), rho=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_put_call_parity_exact(self, spot, mons, t, r, z0, rho):
        spec, mp, co = self._setup(spot, mons, t, r, z0, rho)
        call = expou_call(spec, mp, co).total
        disc_k = spec.strike * np.exp(-r * t)
        assert np.array_equal(expou_put(spec, mp, co), call + disc_k - spot)

    @given(**market)
    @settings(max_examples=60, deadline=None)
    def test_no_arbitrage_bounds_without_forward_shift(self, spot, mons, t, r):
        # rho = z0 = 0 leaves only the kurtosis weight, so the implied
        # forward S(1 + kappa) stays within the bounds' reach of S
        spec, mp, co = self._setup(spot, mons, t, r, 0.0, 0.0)
        pb = expou_call(spec, mp, co)
        lower = np.maximum(spot - spec.strike * np.exp(-r * t), 0.0)
        ok = ~pb.warning
        assert np.all((lower[ok] <= pb.total[ok]) & (pb.total[ok] <= spot))

    @pytest.mark.xfail(strict=True, reason=(
        "the truncation's discounted forward is S(1 + P), P = theta + rho sigma3 "
        "+ kappa + theta^2/2 (module docstring of expouvol.pricing), and its "
        "density goes negative in the tails; with rho or z0 nonzero a call, "
        "mostly in the money, prices below max(S - K e^{-rT}, 0) by up to about "
        "S|P| while the regime flag stays off"))
    @given(**market, z0=st.floats(-0.5, 0.5), rho=st.floats(-1.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_no_arbitrage_bounds_wherever_unflagged(self, spot, mons, t, r, z0, rho):
        spec, mp, co = self._setup(spot, mons, t, r, z0, rho)
        pb = expou_call(spec, mp, co)
        lower = np.maximum(spot - spec.strike * np.exp(-r * t), 0.0)
        ok = ~pb.warning
        assert np.all((lower[ok] <= pb.total[ok]) & (pb.total[ok] <= spot))


class TestQualitativeBehavior:
    def test_higher_initial_vol_raises_price(self, fig_mp):
        t = 20.0
        spec = OptionSpec(100.0, 100.0, t, 0.0)
        lo = expou_call(spec, dataclasses.replace(fig_mp, z0=-0.3),
                        expansion_coeffs(dataclasses.replace(fig_mp, z0=-0.3), t, 0.0)).total
        mid = expou_call(spec, fig_mp, expansion_coeffs(fig_mp, t, 0.0)).total
        hi = expou_call(spec, dataclasses.replace(fig_mp, z0=0.3),
                        expansion_coeffs(dataclasses.replace(fig_mp, z0=0.3), t, 0.0)).total
        assert lo < mid < hi

    def test_negative_risk_aversion_raises_price(self, fig_params):
        # less risk-averse agents (positive lambdas) accept cheaper calls;
        # the comparison holds the shifted initial log-vol at zero
        t = 20.0

        def price(l0, l1):
            from expouvol import RiskAversion, to_martingale
            mp = dataclasses.replace(
                to_martingale(fig_params, RiskAversion(l0, l1), 0.0), z0=0.0)
            co = expansion_coeffs(mp, t, 0.0)
            return expou_call(OptionSpec(100.0, 100.0, t, 0.0), mp, co).total

        assert price(-5e-3, -5e-3) > price(0.0, 0.0) > price(5e-3, 5e-3)


class TestParityProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(mon=st.floats(0.5, 2.0), t=st.floats(1.0, 120.0),
           r=st.floats(0.0, 1e-3), z0=st.floats(-0.5, 0.5),
           rho=st.floats(-1.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_parity_everywhere(self, mon, t, r, z0, rho):
        from expouvol.risk_neutral import MartingaleParams
        mp = MartingaleParams(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11,
                              rho=rho, z0=z0)
        co = expansion_coeffs(mp, t, r)
        spec = OptionSpec(100.0 * mon, 100.0, t, r)
        call = expou_call(spec, mp, co).total
        put = expou_put(spec, mp, co)
        assert abs(call + spec.strike * math.exp(-r * t) - put - spec.spot) \
            <= 1e-12 * spec.spot


def _strike_difference_grid():
    """Per (T, z0, rho, r) case, over 61 moneyness points in [0.5, 2] at spot
    100: central first and second differences of the call in strike
    (h = 1e-4 K), the identities' -e^{-rT} Q(X > ln(K/S)) and
    e^{-rT} p(ln(K/S)) / K, and the regime flag."""
    spot = 100.0
    strikes = spot / np.linspace(0.5, 2.0, 61)
    h = 1e-4 * strikes
    for t, z0, rho, r in itertools.product((1.0, 5.0, 20.0, 60.0, 120.0),
                                           (-0.5, 0.0, 0.5),
                                           (-1.0, -0.4, 0.0, 0.7, 1.0), (0.0, 1e-3)):
        mp = MartingaleParams(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11,
                              rho=rho, z0=z0)
        co = expansion_coeffs(mp, t, r)
        up, mid, down = (expou_call(OptionSpec(spot, k, t, r), mp, co)
                         for k in (strikes + h, strikes, strikes - h))
        slope = (up.total - down.total) / (2.0 * h)
        fd = (up.total - 2.0 * mid.total + down.total) / (h * h)
        x = np.log(strikes / spot)
        # Q(X > x): the Gaussian tail plus each H_n correction integrated,
        # int_u^inf e^{-v^2} H_n(v) dv = e^{-u^2} H_{n-1}(u)
        c2 = 2.0 * mp.m_bar**2 * t
        u = (x - co.mu) / math.sqrt(c2)
        tail = norm_cdf(-math.sqrt(2.0) * u) + np.exp(-u * u) / math.sqrt(math.pi) * (
            co.theta / c2 * hermite_poly(1, u)
            + rho * co.sigma3 / c2**1.5 * hermite_poly(2, u)
            + co.quartic_weight / c2**2 * hermite_poly(3, u))
        disc = math.exp(-r * t)
        yield ((t, z0, rho, r), slope, -disc * tail, fd,
               disc * return_density(mp, co, x) / strikes, mid.warning)


class TestStrikeSlope:
    """dC/dK = -e^{-rT} Q(X > ln(K/S)), Q the Hermite-corrected law."""

    # worst observed 3.3e-6, in units of the slope's range [-1, 0]
    TOL = 1e-5

    def test_first_derivative_is_discounted_tail(self):
        for case, slope, exact, *_ in _strike_difference_grid():
            assert np.max(np.abs(slope - exact)) <= self.TOL, case

    @pytest.mark.xfail(strict=True, reason=(
        "the call rises with the strike where the Hermite tail mass "
        "Q(X > ln(K/S)) is negative: 152 of the 9,150 grid points have a slope "
        "above 1e-8, 70 of them unflagged, the largest 0.081; the regime flag "
        "does not test the tail's sign"))
    def test_non_increasing_wherever_unflagged(self):
        for case, slope, _, _, _, flag in _strike_difference_grid():
            assert np.all(slope[~flag] <= 1e-8), case


class TestStrikeCurvature:
    """d^2C/dK^2 = e^{-rT} p(ln(K/S)) / K, p the Hermite return density."""

    # worst observed 2.0e-5 of the case's largest density (2.0e-3 at
    # h = 1e-3 K: the central difference's h^2 error)
    TOL = 1e-4

    def test_second_derivative_is_discounted_density(self):
        for case, _, _, fd, exact, _ in _strike_difference_grid():
            scale = np.max(np.abs(exact))
            assert np.max(np.abs(fd - exact)) <= self.TOL * scale, case

    @pytest.mark.xfail(strict=True, reason=(
        "convexity fails exactly where the Hermite density is negative: 535 of "
        "the 9,150 grid points, 443 of them unflagged and beyond the identity's "
        "tolerance; the regime flag does not test the density's sign"))
    def test_convex_wherever_unflagged(self):
        for case, _, _, fd, exact, flag in _strike_difference_grid():
            ok = ~flag
            assert np.all(fd[ok] >= -self.TOL * np.max(np.abs(exact))), case


class TestPut:
    def test_parity_exact(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 3e-4)
        for mon in np.linspace(0.8, 1.2, 9):
            spec = OptionSpec(100.0 * mon, 100.0, 20.0, 3e-4)
            call = expou_call(spec, fig_mp, co).total
            put = expou_put(spec, fig_mp, co)
            resid = call + spec.strike * math.exp(-3e-4 * 20.0) - put - spec.spot
            assert abs(resid) < 1e-12 * spec.spot

    def test_atm_forward_put_equals_call(self, fig_mp):
        r, t = 4e-4, 20.0
        spec = OptionSpec(100.0 * math.exp(-r * t), 100.0, t, r)
        co = expansion_coeffs(fig_mp, t, r)
        assert expou_put(spec, fig_mp, co) == pytest.approx(
            expou_call(spec, fig_mp, co).total, abs=1e-12 * spec.spot)

    def test_zero_coefficients_give_bs_put(self, fig_mp):
        spec = OptionSpec(95.0, 100.0, 20.0, 1e-4)
        co = ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0,
                             maturity=20.0)
        bs_put = (bs_call(spec, fig_mp.m_bar)
                  + spec.strike * math.exp(-1e-4 * 20.0) - spec.spot)
        assert expou_put(spec, fig_mp, co) == pytest.approx(bs_put, abs=1e-12)


class TestDelta:
    def test_zero_coefficients_give_bs_delta(self, fig_mp):
        spec = OptionSpec(100.0, 98.0, 20.0, 1e-4)
        co = ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0,
                             maturity=20.0)
        w = fig_mp.m_bar * math.sqrt(20.0)
        d1 = (math.log(100.0 / 98.0) + (1e-4 + fig_mp.m_bar**2 / 2) * 20.0) / w
        assert delta(spec, fig_mp, co) == pytest.approx(norm_cdf(d1), abs=1e-14)

    def test_matches_finite_difference(self, fig_mp):
        mp = dataclasses.replace(fig_mp, z0=0.15)
        t, r = 20.0, 2e-4
        co = expansion_coeffs(mp, t, r)
        for mon in np.linspace(0.8, 1.2, 11):
            S = 100.0 * mon

            def price(s):
                return expou_call(OptionSpec(s, 100.0, t, r), mp, co).total

            fd = central_diff(price, S, 1e-5 * S)
            assert delta(OptionSpec(S, 100.0, t, r), mp, co) == pytest.approx(fd, abs=1e-7)

    def test_deep_out_of_money_vanishes(self, fig_mp):
        co = expansion_coeffs(fig_mp, 20.0, 0.0)
        spec = OptionSpec(1.0, 1000.0, 20.0, 0.0)
        assert delta(spec, fig_mp, co) == pytest.approx(0.0, abs=1e-12)


class TestOptionSpecValidation:
    VALID = dict(spot=100.0, strike=100.0, maturity=20.0, rate=1e-4)

    @pytest.mark.parametrize("kwargs", [
        dict(spot=0.0, strike=100.0, maturity=20.0),
        dict(spot=100.0, strike=-1.0, maturity=20.0),
        dict(spot=100.0, strike=100.0, maturity=0.0),
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            OptionSpec(**kwargs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["spot", "strike", "maturity", "rate"])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            OptionSpec(**{**self.VALID, field: bad})

    @pytest.mark.parametrize("field", ["spot", "strike", "maturity", "rate"])
    def test_array_checked_element_wise(self, field):
        with pytest.raises(ValueError, match=field):
            OptionSpec(**{**self.VALID, field: np.array([1.0, math.nan, 2.0])})

    def test_negative_rate_accepted(self):
        assert OptionSpec(**{**self.VALID, "rate": -1e-4}).rate == -1e-4

    def test_sequence_stored_as_array(self):
        spec = OptionSpec(**{**self.VALID, "strike": [90.0, 110.0]})
        assert isinstance(spec.strike, np.ndarray)
        assert spec.strike.tolist() == [90.0, 110.0]
