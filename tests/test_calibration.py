"""Quote ingestion and risk-aversion least-squares calibration."""

import math

import numpy as np
import pytest

from expouvol import (
    ModelParams,
    OptionQuote,
    OptionSpec,
    RiskAversion,
    calibrate_risk_aversion,
    expansion_coeffs,
    expou_call,
    load_quotes,
    reprice_quotes,
    to_martingale,
    write_quotes,
    y0_from_vol_index,
)
from expouvol.calibration import QuoteError


def synthetic_chain(p, lambda0, lambda1, spot, r, y0, strikes, maturity,
                    noise=0.0, seed=0):
    """Quotes generated by the pricer itself at known risk aversion."""
    mp = to_martingale(p, RiskAversion(lambda0, lambda1), y0)
    coeffs = expansion_coeffs(mp, maturity, r)
    rng = np.random.default_rng(seed)
    quotes = []
    for k in strikes:
        mid = expou_call(OptionSpec(spot, k, maturity, r), mp, coeffs).total
        mid += noise * float(rng.uniform(-1.0, 1.0))
        quotes.append(OptionQuote(strike=k, maturity=maturity,
                                  bid=mid - 0.01, ask=mid + 0.01, mid=mid))
    return quotes


class TestQuoteTypes:
    def test_valid(self):
        OptionQuote(strike=100.0, maturity=10.0, bid=1.0, ask=1.2, mid=1.1)

    @pytest.mark.parametrize("kw", [
        dict(strike=100.0, maturity=0.0, bid=1.0, ask=1.2, mid=1.1),
        dict(strike=100.0, maturity=10.0, bid=0.0, ask=1.2, mid=1.1),
        dict(strike=100.0, maturity=10.0, bid=1.3, ask=1.2, mid=1.25),
        dict(strike=100.0, maturity=10.0, bid=1.0, ask=1.2, mid=1.3),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            OptionQuote(**kw)

    @pytest.mark.parametrize("field, value, message", [
        ("strike", math.nan, "strike must be positive and finite"),
        ("strike", -5.0, "strike must be positive"),
        ("strike", 0.0, "strike must be positive"),
        ("strike", math.inf, "strike must be positive and finite"),
        ("maturity", math.inf, "maturity must be positive and finite"),
        ("maturity", math.nan, "maturity must be positive and finite"),
        ("maturity", -1.0, "maturity must be positive"),
        ("bid", math.nan, "bid must be finite"),
        ("bid", -math.inf, "bid must be finite"),
        ("mid", math.nan, "mid must be finite"),
        ("ask", math.inf, "ask must be finite"),
        ("ask", math.nan, "ask must be finite"),
    ])
    def test_non_finite_or_non_positive_field_named(self, field, value, message):
        kw = dict(strike=100.0, maturity=10.0, bid=1.0, ask=2.0, mid=1.5)
        kw[field] = value
        with pytest.raises(ValueError, match=message):
            OptionQuote(**kw)


class TestLoadQuotes:
    def test_header_only(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,bid,ask\n")
        res = load_quotes(f)
        assert res.quotes == () and res.rejects == ()

    def test_crossed_market_rejected_with_reason(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,bid,ask\n"
                     "100,10,2.0,1.5\n"
                     "105,10,1.0,1.2\n")
        res = load_quotes(f)
        assert len(res.quotes) == 1
        reason = "prices must satisfy 0 < bid <= mid <= ask, got bid=2.0 mid=1.75 ask=1.5"
        assert res.rejects == ((2, reason),)
        assert f"line 2: {reason}" in res.summary()

    def test_malformed_rows_reported_with_line_numbers(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,bid,ask\n"
                     "100,10,1.0,1.2\n"
                     "abc,10,1.0,1.2\n"
                     "100,-5,1.0,1.2\n"
                     "100,10,-1.0,1.2\n")
        res = load_quotes(f)
        assert len(res.quotes) == 1
        assert [ln for ln, _ in res.rejects] == [3, 4, 5]

    # each row is rejected with OptionQuote's own message for its first bad field
    NON_FINITE_ROWS = {
        "nan,10,1.0,1.2": "strike must be positive and finite, got nan",
        "100,inf,1.0,1.2": "maturity must be positive and finite, got inf",
        "100,10,nan,1.2": "bid must be finite, got nan",
        "100,10,1.0,inf": "ask must be finite, got inf",
    }

    @pytest.mark.parametrize("row", list(NON_FINITE_ROWS))
    def test_non_finite_rows_rejected_by_line(self, tmp_path, row):
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,bid,ask\n"
                     "100,10,1.0,1.2\n"
                     f"{row}\n")
        res = load_quotes(f)
        assert len(res.quotes) == 1
        assert res.rejects == ((3, self.NON_FINITE_ROWS[row]),)

    def test_overflowing_mid_rejected_by_line(self, tmp_path):
        # each price is finite but their sum is not
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,bid,ask\n"
                     "100,10,1.0e308,1.7e308\n"
                     "100,10,1.0,1.2\n")
        res = load_quotes(f)
        assert res.rejects == ((2, "mid must be finite, got inf"),)
        assert [(q.bid, q.ask, q.mid) for q in res.quotes] == [(1.0, 1.2, 1.1)]

    def test_mid_only_schema(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("strike,maturity_days,mid\n100,10,1.5\n")
        res = load_quotes(f)
        q = res.quotes[0]
        assert q.bid == q.ask == q.mid == 1.5

    def test_bad_header_raises(self, tmp_path):
        f = tmp_path / "q.csv"
        f.write_text("k,t,b,a\n100,10,1.0,1.2\n")
        with pytest.raises(QuoteError):
            load_quotes(f)

    def test_round_trip(self, tmp_path, fig_params):
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(92, 108, 10), 20.0)
        f = tmp_path / "q.csv"
        write_quotes(quotes, f)
        back = load_quotes(f)
        assert back.rejects == ()
        assert len(back.quotes) == 10
        for a, b in zip(quotes, back.quotes):
            assert b.strike == pytest.approx(a.strike, rel=1e-12)
            assert b.mid == pytest.approx(a.mid, rel=1e-12)


class TestY0FromVolIndex:
    def test_at_normal_level(self):
        m = 0.01
        sigma0 = m * math.sqrt(252.0)
        assert y0_from_vol_index(sigma0, m) == pytest.approx(0.0, abs=1e-14)

    def test_reference_value(self):
        got = y0_from_vol_index(0.1655, 0.01)
        assert got == pytest.approx(math.log(0.1655 / math.sqrt(252.0) / 0.01), rel=1e-14)
        assert got == pytest.approx(0.0417, abs=2e-4)

    def test_e_times_level(self):
        m = 0.01
        assert y0_from_vol_index(m * math.e * math.sqrt(252.0), m) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            y0_from_vol_index(0.0, 0.01)


class TestCalibration:
    def test_noiseless_round_trip(self, fig_params):
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 2e-4, 0.05,
                                 np.linspace(94, 106, 7), 10.0)
        res = calibrate_risk_aversion(quotes, fig_params, 100.0, 2e-4, 0.05)
        assert res.converged
        assert res.lambda0 == pytest.approx(1e-3, abs=1e-6)
        assert res.lambda1 == pytest.approx(1e-3, abs=1e-6)
        assert res.rmse < 1e-8

    def test_noisy_round_trip_reprices_within_tick(self, fig_params):
        tick = 0.05
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(94, 106, 9), 20.0,
                                 noise=tick / 2, seed=4)
        res = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)
        assert res.rmse <= tick

    def test_reported_rmse_is_recomputable(self, fig_params):
        quotes = synthetic_chain(fig_params, 5e-4, -2e-3, 100.0, 0.0, 0.1,
                                 np.linspace(95, 105, 6), 15.0)
        res = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.1)
        table = reprice_quotes(res, quotes, fig_params, 100.0, 0.0, 0.1)
        rmse = math.sqrt(np.mean([row[3] ** 2 for row in table]))
        assert res.rmse == pytest.approx(rmse, abs=1e-12)

    def test_order_invariance(self, fig_params):
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(94, 106, 7), 10.0)
        a = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)
        b = calibrate_risk_aversion(list(reversed(quotes)), fig_params, 100.0, 0.0, 0.0)
        assert a.lambda0 == pytest.approx(b.lambda0, abs=1e-12)
        assert a.lambda1 == pytest.approx(b.lambda1, abs=1e-12)

    def test_deterministic(self, fig_params):
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(94, 106, 7), 10.0)
        a = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)
        b = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)
        assert a == b

    def test_single_quote_underdetermined(self, fig_params):
        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 [100.0], 10.0)
        with pytest.raises(ValueError, match="underdetermined"):
            calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)

    def test_negative_lambdas_recoverable(self, fig_params):
        # negative risk aversion makes calls dearer; the fit is unconstrained in sign
        quotes = synthetic_chain(fig_params, -2e-3, -1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(94, 106, 7), 10.0)
        res = calibrate_risk_aversion(quotes, fig_params, 100.0, 0.0, 0.0)
        assert res.lambda0 == pytest.approx(-2e-3, abs=1e-5)
        assert res.lambda1 == pytest.approx(-1e-3, abs=2e-4)

    def test_objective_monotone_across_iterations(self, fig_params):
        # rerun the fitted objective along the optimizer's own trajectory:
        # the running best must never increase
        from scipy.optimize import minimize
        from expouvol import OptionSpec, expou_call, to_martingale, RiskAversion
        from expouvol.risk_neutral import expansion_coeffs as coeffs_fn

        quotes = synthetic_chain(fig_params, 1e-3, 1e-3, 100.0, 0.0, 0.0,
                                 np.linspace(94, 106, 7), 10.0)
        mids = np.array([q.mid for q in quotes])

        def objective(x):
            mp = to_martingale(fig_params, RiskAversion(*x), 0.0)
            resid = np.array([
                expou_call(OptionSpec(100.0, q.strike, q.maturity, 0.0), mp,
                           coeffs_fn(mp, q.maturity, 0.0)).total
                for q in quotes]) - mids
            return float(resid @ resid)

        best_track = []
        minimize(objective, x0=np.zeros(2), method="Nelder-Mead",
                 bounds=[(-1, 1)] * 2,
                 options={"xatol": 1e-9, "fatol": 1e-18, "maxiter": 500},
                 callback=lambda x: best_track.append(objective(x)))
        assert all(b <= a * (1 + 1e-12) for a, b in zip(best_track, best_track[1:]))
