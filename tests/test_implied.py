"""Implied-volatility inversion and smile curves."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expouvol import (
    ImpliedVolError,
    OptionSpec,
    bs_call,
    expansion_coeffs,
    implied_vol,
    smile_curve,
    to_martingale,
)
from expouvol.implied import _implied_vols
from expouvol.pricing import _call_prices
from expouvol.risk_neutral import MartingaleParams, expansion_coeffs_averaged
from expouvol.units import annualize_vol


class TestImpliedVol:
    @pytest.mark.parametrize("vol", [0.005, 0.01, 0.03])
    def test_round_trip(self, vol):
        spec = OptionSpec(100.0, 97.0, 20.0, 2e-4)
        price = bs_call(spec, vol)
        assert implied_vol(price, spec) == pytest.approx(vol, abs=1e-10)

    @given(vol=st.floats(1e-3, 0.2), mon=st.floats(0.7, 1.4), t=st.floats(1.0, 120.0))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, vol, mon, t):
        spec = OptionSpec(100.0 * mon, 100.0, t, 1e-4)
        price = bs_call(spec, vol)
        intrinsic = max(spec.spot - spec.strike * math.exp(-spec.rate * t), 0.0)
        assume(price > intrinsic * (1 + 1e-12) + 1e-300)
        recovered = implied_vol(price, spec)
        assert bs_call(spec, recovered) == pytest.approx(price, abs=1e-10 * spec.spot)

    def test_monotone_in_price(self):
        spec = OptionSpec(100.0, 100.0, 20.0, 0.0)
        prices = np.linspace(0.5, 20.0, 25)
        vols = [implied_vol(p, spec) for p in prices]
        assert all(b > a for a, b in zip(vols, vols[1:]))

    def test_below_intrinsic_rejected(self):
        spec = OptionSpec(110.0, 100.0, 20.0, 1e-3)
        intrinsic = 110.0 - 100.0 * math.exp(-1e-3 * 20.0)
        with pytest.raises(ImpliedVolError, match="lower"):
            implied_vol(0.5 * intrinsic, spec)

    def test_above_spot_rejected(self):
        spec = OptionSpec(100.0, 100.0, 20.0, 0.0)
        with pytest.raises(ImpliedVolError, match="upper"):
            implied_vol(100.0, spec)

    def test_near_spot_beyond_cap_rejected(self):
        # a price this close to spot needs vol beyond the 10 day^(-1/2) cap
        spec = OptionSpec(100.0, 100.0, 1.0, 0.0)
        with pytest.raises(ImpliedVolError, match="cap"):
            implied_vol(99.9999999999, spec)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr("expouvol.implied.MAX_ITER", 2)
        spec = OptionSpec(100.0, 97.0, 20.0, 2e-4)
        with pytest.raises(ImpliedVolError, match="no convergence"):
            implied_vol(bs_call(spec, 0.013), spec)

    @pytest.mark.parametrize("price", [math.nan, math.inf, -math.inf])
    def test_non_finite_price_rejected(self, price):
        spec = OptionSpec(100.0, 100.0, 20.0, 0.0)
        with pytest.raises(ImpliedVolError, match=f"price {price:g} is not finite"):
            implied_vol(price, spec)

    def test_below_solver_floor_rejected(self):
        # in the no-arbitrage band but under the vol-floor price
        spec = OptionSpec(100.0, 100.0, 20.0, 0.0)
        with pytest.raises(ImpliedVolError, match="floor"):
            implied_vol(1e-8, spec)

    @pytest.mark.parametrize("price, strike", [(np.array([5.0, 6.0]), 100.0),
                                               (5.0, [95.0, 105.0])])
    def test_many_lanes_rejected(self, price, strike):
        spec = OptionSpec(100.0, strike, 20.0, 0.0)
        with pytest.raises(ValueError, match="^implied_vol takes one lane, got 2; "
                                             "see smile_curve$") as exc:
            implied_vol(price, spec)
        assert not isinstance(exc.value, ImpliedVolError)

    def test_many_lanes_rejected_before_solving(self, monkeypatch):
        # the broadcast's size is known before any lane is solved
        def solve(price, spec):
            raise AssertionError("solved a broadcast implied_vol refuses")

        monkeypatch.setattr("expouvol.implied._implied_vols", solve)
        spec = OptionSpec(100.0, np.linspace(90.0, 110.0, 1000), 20.0, 0.0)
        with pytest.raises(ValueError, match="^implied_vol takes one lane, got 1000; "):
            implied_vol(5.0, spec)

    def test_size_one_inputs(self):
        spec = OptionSpec(100.0, 97.0, 20.0, 2e-4)
        price = bs_call(spec, 0.013)
        one_lane = OptionSpec(100.0, [97.0], 20.0, 2e-4)
        assert implied_vol(np.array([price]), spec) == implied_vol(price, spec)
        assert implied_vol(price, one_lane) == implied_vol(price, spec)
        with pytest.raises(ImpliedVolError, match="^price 100 at or above upper"):
            implied_vol(np.array([100.0]), one_lane)

    @pytest.mark.byte_exact
    def test_vols_keep_their_bits_in_any_currency(self, fig_params, fig_risk):
        # a power of 2 scales spot, strikes and prices exactly, and the stop is
        # relative to spot, so every lane takes the same steps to the same bits
        mp = to_martingale(fig_params, *fig_risk, 0.3)
        spec = OptionSpec(100.0, np.linspace(80.0, 120.0, 41), 20.0, 2e-4)
        price = _call_prices(spec, mp, expansion_coeffs(mp, 20.0, 2e-4))[4]
        vols, why = _implied_vols(price, spec)
        assert not why.any()
        for scale in [2.0 ** j for j in (-10, -3, -1, 1, 2, 10)]:
            scaled = dataclasses.replace(spec, spot=100.0 * scale, strike=spec.strike * scale)
            assert _implied_vols(price * scale, scaled)[0].tobytes() == vols.tobytes()


def _spec(mons, t=20.0, r=0.0):
    """Calls at spot 100 and strikes 100/moneyness."""
    return OptionSpec(100.0, 100.0 / np.asarray(mons, dtype=float), t, r)


class TestSmile:
    def test_flat_for_constant_vol_model(self, fig_mp):
        # zero corrections: implied vol pins m_bar at every moneyness
        co_zero = dataclasses.replace(expansion_coeffs(fig_mp, 20.0, 0.0),
                                      theta=0.0, sigma3=0.0, kappa=0.0)
        pts = smile_curve(_spec([0.9, 1.0, 1.1]), fig_mp, co_zero)
        target = annualize_vol(fig_mp.m_bar)
        for pt in pts:
            assert pt.implied_vol_annual == pytest.approx(target, abs=1e-10)

    def test_smile_not_flat_at_reference_params(self, fig_mp):
        pts = smile_curve(_spec(np.linspace(0.9, 1.1, 9)), fig_mp,
                          expansion_coeffs(fig_mp, 20.0, 0.0))
        ivs = [pt.implied_vol_annual for pt in pts]
        assert None not in ivs
        assert max(ivs) - min(ivs) > 0.005

    def test_skew_flips_with_rho(self, fig_mp):
        def skew(rho):
            mp = dataclasses.replace(fig_mp, rho=rho)
            pts = smile_curve(_spec([0.9, 1.1]), mp, expansion_coeffs(mp, 20.0, 0.0))
            return pts[0].implied_vol_annual - pts[1].implied_vol_annual

        assert skew(-0.4) * skew(+0.4) < 0

    def test_averaged_coeffs_also_invert(self, fig_mp):
        pts = smile_curve(_spec([0.95, 1.0, 1.05]), fig_mp,
                          expansion_coeffs_averaged(fig_mp, 20.0, 0.0))
        assert all(pt.implied_vol_annual is not None for pt in pts)

    def test_unconverged_point_reported_as_none(self, fig_mp, monkeypatch):
        monkeypatch.setattr("expouvol.implied.MAX_ITER", 1)
        pts = smile_curve(_spec([0.95, 1.0, 1.05]), fig_mp,
                          expansion_coeffs(fig_mp, 20.0, 0.0))
        assert [pt.implied_vol_annual for pt in pts] == [None, None, None]
        assert all(pt.price > 0 for pt in pts)

    def test_scalar_spec_gives_one_point(self, fig_mp):
        coeffs = expansion_coeffs(fig_mp, 20.0, 0.0)
        pts = smile_curve(OptionSpec(100.0, 100.0 / 1.05, 20.0, 0.0), fig_mp, coeffs)
        assert pts == smile_curve(_spec([1.05]), fig_mp, coeffs)
        assert len(pts) == 1 and pts[0].implied_vol_annual is not None

    def test_coeffs_at_another_maturity_rejected(self, fig_mp):
        with pytest.raises(ValueError, match="^coeffs are for maturity 10"):
            smile_curve(_spec([0.9, 1.1]), fig_mp, expansion_coeffs(fig_mp, 10.0, 0.0))

    @pytest.mark.parametrize("coeffs_of", [expansion_coeffs, expansion_coeffs_averaged])
    def test_two_maturities_equal_per_maturity_smiles(self, fig_mp, coeffs_of):
        # one call over a (maturity, strike) spec gives, in C order, exactly
        # the points of one call per maturity
        mons, r = [0.9, 0.95, 1.0, 1.05, 1.1], 2e-4
        spec = _spec(mons, np.array([[10.0], [60.0]]), r)
        pts = smile_curve(spec, fig_mp, coeffs_of(fig_mp, spec.maturity, r))
        per_maturity = [pt for t in (10.0, 60.0)
                        for pt in smile_curve(_spec(mons, t, r), fig_mp, coeffs_of(fig_mp, t, r))]
        assert pts == per_maturity
        assert [pt.moneyness for pt in pts] == (100.0 / (100.0 / np.tile(mons, 2))).tolist()
        assert None not in [pt.implied_vol_annual for pt in pts]

    @pytest.mark.byte_exact
    def test_golden_reference_curve(self, fig_mp):
        # frozen after verifying the pricing chain against quadrature and MC
        from pathlib import Path
        pts = smile_curve(_spec([0.9, 1.0, 1.1]), fig_mp, expansion_coeffs(fig_mp, 20.0, 0.0))
        golden = np.loadtxt(Path(__file__).parent / "golden" / "smile_reference.csv",
                            delimiter=",", skiprows=1)
        for pt, row in zip(pts, golden):
            assert pt.moneyness == pytest.approx(row[0], abs=1e-12)
            assert pt.implied_vol_annual == pytest.approx(row[1], abs=1e-12)
            assert pt.price == pytest.approx(row[2], abs=1e-12)

    @pytest.mark.parametrize("max_iter", [100, 3])
    @given(t=st.floats(0.5, 120.0), z0=st.floats(-0.8, 0.8), rho=st.floats(-0.95, 0.95),
           r=st.sampled_from([0.0, 2e-4]),
           mons=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_point_implied_vol(self, max_iter, t, z0, rho, r, mons):
        # one lockstep solve over the grid equals per-point scalar solves bit
        # for bit; at 3 iterations unconverged lanes sit next to frozen ones
        mp = MartingaleParams(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11,
                              rho=rho, z0=z0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("expouvol.implied.MAX_ITER", max_iter)
            pts = smile_curve(_spec(mons, t, r), mp, expansion_coeffs(mp, t, r))
            for mon, pt in zip(mons, pts):
                spec = OptionSpec(100.0, 100.0 / mon, t, r)
                try:
                    ref = annualize_vol(implied_vol(pt.price, spec))
                except ImpliedVolError:
                    ref = None
                assert pt.implied_vol_annual == ref
