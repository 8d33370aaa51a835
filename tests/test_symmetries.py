"""Exact symmetries as bit-level oracles: a change of currency by a power of 2.

Spot, strikes and quotes times 2^j scale every price exactly in binary
floating point and leave moneyness, and so every d1, d2 and erfc argument,
with the same bits.  Prices, Monte Carlo estimates and the fit's residuals
then scale by 2^j exactly, and the fit's normal equations by 4^j, so the
fitted risk aversion keeps its bits at every kernel setting.  ``calibrate``
has no golden; this is its gate that holds on every host.
"""

import dataclasses

import numpy as np
import pytest

from expouvol import (
    OptionQuote,
    OptionSpec,
    SimConfig,
    calibrate_risk_aversion,
    expansion_coeffs,
    mc_call_prices,
    to_martingale,
)
from expouvol.pricing import _call_prices

SCALES = [pytest.param(2.0 ** j, id=f"2^{j}") for j in (1, 10, -3)]


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
    """Currency x 2^j: every result keeps its bits or scales by 2^j exactly."""

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
