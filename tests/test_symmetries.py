"""Exact symmetries as bit-level oracles: a change of currency by a power of 2,
and a change of time unit by a power of 4.

Spot, strikes and quotes times 2^j scale every price exactly in binary
floating point and leave moneyness, and so every d1, d2 and erfc argument,
with the same bits.  Prices, Monte Carlo estimates and the fit's residuals
then scale by 2^j exactly, and the fit's normal equations by 4^j, so the
fitted risk aversion keeps its bits at every kernel setting.  ``calibrate``
has no golden; this is its gate that holds on every host.

A time unit c times shorter divides the rates alpha and r by c and the
volatilities m, k, lambda0 and lambda1 by sqrt(c), and multiplies T, dt and
every lag by c.  With c = 4^j each of those is exact, and so is every
product the model forms of them (alpha t, m^2 t, k^2/alpha, sig sqrt(dt)):
closed-form prices, Monte Carlo prices and return statistics keep their bits.
"""

import dataclasses
import math

import numpy as np
import pytest

from expouvol import (
    ModelParams,
    OptionQuote,
    OptionSpec,
    SimConfig,
    calibrate_risk_aversion,
    expansion_coeffs,
    mc_call_prices,
    mc_return_stats,
    to_martingale,
)
from expouvol.pricing import _call_prices

SCALES = [pytest.param(2.0 ** j, id=f"2^{j}") for j in (1, 10, -3)]
TIME_UNITS = [pytest.param(4.0 ** j, id=f"4^{j}") for j in (1, 2, -1)]


def in_time_unit(p, risk, c):
    """(params, (lambda0, lambda1)) with time counted in units c times shorter."""
    s = math.sqrt(c)
    return (ModelParams(m=p.m / s, alpha=p.alpha / c, k=p.k / s, rho=p.rho),
            tuple(lam / s for lam in risk))


def four_maturity_chain(p, r, y0):
    """36 quotes, 9 strikes from 94 to 106 at each of 4 maturities: mids within
    +-0.01 of the model price at lambda0 = lambda1 = 1e-3 (seed 43), bid/ask at
    mid +-0.01."""
    mp = to_martingale(p, 1e-3, 1e-3, y0)
    rng = np.random.default_rng(43)
    quotes = []
    for t in (10.0, 20.0, 40.0, 60.0):
        spec = OptionSpec(100.0, np.linspace(94.0, 106.0, 9), t, r)
        mids = _call_prices(spec, mp, expansion_coeffs(mp, t, r))[4]
        for k, mid in zip(spec.strike, mids + rng.uniform(-0.01, 0.01, mids.size)):
            quotes.append(OptionQuote(strike=float(k), maturity=t, bid=float(mid) - 0.01,
                                      ask=float(mid) + 0.01, mid=float(mid)))
    return quotes


def in_currency(quotes, scale):
    return [OptionQuote(q.strike * scale, q.maturity, q.bid * scale, q.ask * scale,
                        q.mid * scale) for q in quotes]


@pytest.mark.byte_exact
class TestSymmetries:
    """Currency x 2^j: every result keeps its bits or scales by 2^j exactly.
    Time unit / 4^j: every result keeps its bits."""

    @pytest.mark.parametrize("scale", SCALES)
    def test_call_prices_scale_exactly(self, fig_params, scale):
        mp = to_martingale(fig_params, 1e-3, 1e-3, 0.3)
        t = np.array([[5.0], [20.0], [60.0]])
        spec = OptionSpec(100.0, 100.0 / np.linspace(0.8, 1.2, 101), t, 2e-4)
        co = expansion_coeffs(mp, np.broadcast_to(t, (3, 101)), 2e-4)
        total = _call_prices(spec, mp, co)[4]
        scaled = dataclasses.replace(spec, spot=100.0 * scale, strike=spec.strike * scale)
        assert (_call_prices(scaled, mp, co)[4]).tobytes() == (total * scale).tobytes()

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_mc_call_prices_scale_exactly(self, fig_mp, antithetic):
        cfg = SimConfig(n_paths=2000, n_steps=20, dt=1.0, seed=43, antithetic=antithetic)
        spec = OptionSpec(100.0, np.linspace(90.0, 110.0, 11), cfg.horizon, 2e-4)
        est = mc_call_prices(fig_mp, cfg, spec)
        got = mc_call_prices(fig_mp, cfg, dataclasses.replace(spec, spot=200.0,
                                                              strike=spec.strike * 2.0))
        assert got.value.tobytes() == (est.value * 2.0).tobytes()
        assert got.std_error.tobytes() == (est.std_error * 2.0).tobytes()

    @pytest.mark.parametrize("scale", SCALES)
    def test_calibrate_keeps_its_bits(self, fig_params, scale):
        r, y0 = 2e-4, 0.3
        quotes = four_maturity_chain(fig_params, r, y0)
        assert len(quotes) == 36
        base = calibrate_risk_aversion(quotes, fig_params, 100.0, r, y0)
        assert base.converged
        got = calibrate_risk_aversion(in_currency(quotes, scale), fig_params,
                                      100.0 * scale, r, y0)
        assert (got.lambda0.hex(), got.lambda1.hex()) == (base.lambda0.hex(), base.lambda1.hex())
        assert (got.iterations, got.converged) == (base.iterations, base.converged)
        assert got.rmse.hex() == (base.rmse * scale).hex()

    @pytest.mark.parametrize("c", TIME_UNITS)
    def test_call_prices_keep_their_bits(self, fig_params, fig_risk, c):
        # 0.3 days lies in _coeffs' series region
        t, r = np.array([[5.0], [20.0], [60.0], [0.3]]), 2e-4
        strikes = 100.0 / np.linspace(0.8, 1.2, 101)

        def totals(p, risk, t, r):
            mp = to_martingale(p, *risk, 0.3)
            co = expansion_coeffs(mp, np.broadcast_to(t, (4, 101)), r)
            return _call_prices(OptionSpec(100.0, strikes, t, r), mp, co)[4]

        want = totals(fig_params, fig_risk, t, r)
        got = totals(*in_time_unit(fig_params, fig_risk, c), t * c, r / c)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("c", TIME_UNITS)
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_mc_call_prices_keep_their_bits(self, fig_params, fig_risk, c, antithetic):
        cfg = SimConfig(n_paths=2000, n_steps=20, dt=1.0, seed=43, antithetic=antithetic)

        def estimate(p, risk, cfg, r):
            mp = dataclasses.replace(to_martingale(p, *risk, 0.0), z0=0.0)
            return mc_call_prices(mp, cfg, OptionSpec(100.0, np.linspace(90.0, 110.0, 11),
                                                      cfg.horizon, r))

        want = estimate(fig_params, fig_risk, cfg, 2e-4)
        got = estimate(*in_time_unit(fig_params, fig_risk, c),
                       dataclasses.replace(cfg, dt=cfg.dt * c), 2e-4 / c)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.std_error.tobytes() == want.std_error.tobytes()

    @pytest.mark.parametrize("c", TIME_UNITS)
    def test_return_stats_keep_their_bits(self, fig_params, fig_risk, c):
        cfg = SimConfig(n_paths=1000, n_steps=20, dt=1.0, seed=43)
        lev_taus, aco_taus = np.array([-1.0, 0.0, 1.0, 5.0]), np.array([0.0, 1.0, 5.0])
        want = mc_return_stats(fig_params, cfg, lev_taus, aco_taus)
        p, _ = in_time_unit(fig_params, fig_risk, c)
        got = mc_return_stats(p, dataclasses.replace(cfg, dt=cfg.dt * c),
                              lev_taus * c, aco_taus * c)
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert (g.value.hex(), g.std_error.hex()) == (w.value.hex(), w.std_error.hex())
