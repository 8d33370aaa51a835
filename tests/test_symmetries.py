"""Exact symmetries as bit-level oracles: a change of currency by a power of 2,
and a change of time unit by a power of 4.

Spot, strikes and quotes times 2^j scale every price exactly in binary
floating point and leave moneyness, and so every d1, d2 and erfc argument,
with the same bits.  Prices, Monte Carlo estimates and the fit's residuals
then scale by 2^j exactly, and the fit's normal equations by 4^j, so the
fitted risk aversion keeps its bits at every kernel setting; so do the
CLI's tables under ``--set spot=``.  ``calibrate`` has no golden; this is
its gate that holds on every host.  The one exception is a price near the
subnormal range, where a rounding on 2^-1074 does not scale (see
test_call_prices_scale_exactly_over_the_domain).

A time unit c times shorter divides the rates alpha and r by c and the
volatilities m, k, lambda0 and lambda1 by sqrt(c), and multiplies T, dt and
every lag by c.  With c = 4^j each of those is exact, and so is every
product the model forms of them (alpha t, m^2 t, k^2/alpha, sig sqrt(dt)):
closed-form prices, Monte Carlo prices and return statistics keep their bits.
"""

import argparse
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from expouvol import (
    MartingaleParams,
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
from expouvol import cli
from expouvol.mc import BLOCK
from expouvol.pricing import _call_prices

SCALES = [pytest.param(2.0 ** j, id=f"2^{j}") for j in (1, 10, -3)]
TIME_UNITS = [pytest.param(4.0 ** j, id=f"4^{j}") for j in (1, 2, -1)]

#: ROADMAP direction 5's domain box, test_pricing's test_domain_within_condition's:
#: the three scales log-uniform
DOMAIN = dict(log_m_bar=st.floats(-2.5, -1.5), log_k=st.floats(-1.5, -0.5),
              log_alpha_bar=st.floats(-3.5, -1.0), rho=st.floats(-0.9, 0.9),
              z0=st.floats(-1.0, 1.0), t=st.floats(0.1, 250.0), r=st.floats(0.0, 2e-4),
              moneyness=st.floats(0.7, 1.4))


def domain_totals(log_m_bar, log_k, log_alpha_bar, rho, z0, t, r, moneyness,
                  scale=1.0, c=1.0):
    """The _call_prices total at a domain point, in currency x ``scale`` and
    with time counted in units ``c`` times shorter."""
    s = math.sqrt(c)
    mp = MartingaleParams(m_bar=10.0 ** log_m_bar / s, alpha_bar=10.0 ** log_alpha_bar / c,
                          k=10.0 ** log_k / s, rho=rho, z0=z0)
    co = expansion_coeffs(mp, t * c, r / c)
    spec = OptionSpec(100.0 * scale, 100.0 / moneyness * scale, t * c, r / c)
    return _call_prices(spec, mp, co)[4]


#: the fig parameters and risk aversion of tests/conftest.py, for the hypothesis
#: tests, which take no function-scoped fixture
FIG_PARAMS = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)
FIG_RISK = (1e-3, 1e-3)


@st.composite
def sim_configs(draw):
    """A small SimConfig: any seed, 2 paths to a block and a partial one, 1-20
    steps of any dt, plain or antithetic (n_paths then even)."""
    antithetic = draw(st.booleans())
    n_paths = draw(st.integers(2, BLOCK + 904))
    return SimConfig(n_paths=n_paths - n_paths % 2 if antithetic else n_paths,
                     n_steps=draw(st.integers(1, 20)), dt=draw(st.floats(0.05, 5.0)),
                     seed=draw(st.integers(0, 2**64 - 1)), antithetic=antithetic)


#: 1-20 strikes around spot 100
STRIKES = st.lists(st.floats(0.7, 1.4), min_size=1, max_size=20).map(
    lambda moneyness: 100.0 / np.array(moneyness))


@st.composite
def stats_runs(draw):
    """(cfg, leverage lags, autocorrelation lags): a sim_configs run and lags
    of 0 to n_steps - 1 steps, in days."""
    cfg = draw(sim_configs())
    last = cfg.n_steps - 1
    return (cfg, np.array(draw(st.lists(st.integers(-last, last), max_size=4))) * cfg.dt,
            np.array(draw(st.lists(st.integers(0, last), max_size=3))) * cfg.dt)


#: two blocks, the second partial, with the widest strike grid: sizes the
#: derandomized draws do not reach
TWO_BLOCKS = [SimConfig(n_paths=BLOCK + 904, n_steps=20, dt=0.5, seed=2**64 - 1),
              SimConfig(n_paths=BLOCK + 904, n_steps=13, dt=1.7, seed=47, antithetic=True)]
WIDE_STRIKES = 100.0 / np.linspace(0.7, 1.4, 20)


def mc_prices(p, risk, cfg, strikes, r, spot=100.0):
    """mc_call_prices from z0 = 0 at the config horizon."""
    mp = dataclasses.replace(to_martingale(p, *risk, 0.0), z0=0.0)
    return mc_call_prices(mp, cfg, OptionSpec(spot, strikes, cfg.horizon, r))


@st.composite
def model_chains(draw):
    """(quotes, y0): 3-10 quotes spread over 1-3 maturities of 5-60 days,
    strikes 90-110, mids the model price at lambda0 = lambda1 = 1e-3 with
    +-1% noise, bid/ask at mid -+1%.  A chain with a model price at or below
    0 has no such mids and is not drawn: below y0 = 0 the expansion's prices
    go negative, near the money too (-0.88 at y0 = -0.8, T = 60, K = 105)."""
    y0 = draw(st.floats(-0.8, 0.8))
    mp = to_martingale(FIG_PARAMS, *FIG_RISK, y0)
    maturities = draw(st.lists(st.sampled_from([5.0, 10.0, 20.0, 40.0, 60.0]),
                               min_size=1, max_size=3, unique=True))
    quotes = []
    for i in range(draw(st.integers(3, 10))):
        t, k = maturities[i % len(maturities)], draw(st.floats(90.0, 110.0))
        price = _call_prices(OptionSpec(100.0, k, t, 2e-4), mp, expansion_coeffs(mp, t, 2e-4))[4]
        assume(price > 0)
        mid = float(price) * (1.0 + draw(st.floats(-0.01, 0.01)))
        quotes.append(OptionQuote(strike=k, maturity=t, bid=mid * 0.99, ask=mid * 1.01, mid=mid))
    return quotes, y0


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


#: the columns of each command's table that scale with the currency; the
#: others (moneyness, delta, the smile cells) keep their bits
CLI_SCALED = {"price": {"call", "bs", "diff"}, "greeks": set(), "smile": set(),
              "simulate": {"mc_price", "std_err", "analytic", "abs_diff"}}


def cli_tables(command, sets, **args):
    """(header fields, columns) of each table ``cmd_<command>`` hands to _emit,
    with ``sets`` as the --set pairs."""
    cfg = cli.build_config([], list(sets.items()))
    namespace = argparse.Namespace(output=None, dump_paths=None, **args)
    return [(header.split(","), [c if isinstance(c, np.ndarray) else list(c) for c in columns])
            for _, header, columns in getattr(cli, f"cmd_{command}")(cfg, namespace)]


def assert_scaled(names, got, want, scaled, scale):
    """Each column of ``got`` is ``want``'s, times ``scale`` in the ``scaled``
    columns, bit for bit (a float's repr names its bits)."""
    for name, g, w in zip(names, got, want, strict=True):
        if isinstance(w, np.ndarray):
            assert g.tobytes() == (w * scale if name in scaled else w).tobytes(), name
        else:
            assert list(map(repr, g)) == [repr(v * scale if name in scaled else v)
                                          for v in w], name


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

    # Exact scaling stops where an intermediate of either currency rounds on
    # the subnormal grid, 2^-1074 apart, which the other currency does not
    # share.  Both pinned points are such: a subnormal total (2.5e-320, x32),
    # and a normal one (2.9e-307, x4) one of whose terms is subnormal.  Over
    # about 65,000 random points of the box and j in [-10, 10], the totals
    # carried to the higher currency then differed by at most 1.5 steps of
    # the lower currency's 2^-1074 (a subnormal total) or one ulp (a normal
    # total, up to 3.6e-307).  From tiny * 2^53 up, a few 2^-1074 are under
    # 2^-52 ulp of the total: the bits are exact there.
    @example(log_m_bar=-2.5, log_k=-1.5, log_alpha_bar=-1.9098126003631382, rho=0.0, z0=1.0,
             t=0.1, r=0.0, moneyness=0.9622769267495572, j=5)
    @example(log_m_bar=-2.0924674336170996, log_k=-1.4653876325712027,
             log_alpha_bar=-1.6984596791522102, rho=0.12595236795649012, z0=0.8956037553157472,
             t=0.14025008292517885, r=0.0001812586085641364, moneyness=0.8921756851662778, j=2)
    @given(**DOMAIN, j=st.integers(-10, 10))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_call_prices_scale_exactly_over_the_domain(self, j, **point):
        total, scaled = domain_totals(**point), domain_totals(**point, scale=2.0 ** j)
        if min(abs(total), abs(scaled)) >= np.finfo(float).tiny * 2.0 ** 53:
            assert scaled.hex() == (total * 2.0 ** j).hex()
        else:   # both at the higher currency, where each is exact
            up = 2.0 ** abs(j)
            a, b = (scaled, total * up) if j >= 0 else (total, scaled * up)
            assert abs(a - b) <= max(2 * up * 2.0 ** -1074, np.spacing(max(abs(a), abs(b))))

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_mc_call_prices_scale_exactly(self, fig_mp, antithetic):
        cfg = SimConfig(n_paths=2000, n_steps=20, dt=1.0, seed=43, antithetic=antithetic)
        spec = OptionSpec(100.0, np.linspace(90.0, 110.0, 11), cfg.horizon, 2e-4)
        est = mc_call_prices(fig_mp, cfg, spec)
        got = mc_call_prices(fig_mp, cfg, dataclasses.replace(spec, spot=200.0,
                                                              strike=spec.strike * 2.0))
        assert got.value.tobytes() == (est.value * 2.0).tobytes()
        assert got.std_error.tobytes() == (est.std_error * 2.0).tobytes()

    @example(cfg=TWO_BLOCKS[0], strikes=WIDE_STRIKES, j=10)
    @example(cfg=TWO_BLOCKS[1], strikes=WIDE_STRIKES, j=-10)
    @given(cfg=sim_configs(), strikes=STRIKES, j=st.integers(-10, 10))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_mc_call_prices_scale_exactly_over_runs(self, cfg, strikes, j):
        est = mc_prices(FIG_PARAMS, FIG_RISK, cfg, strikes, 2e-4)
        got = mc_prices(FIG_PARAMS, FIG_RISK, cfg, strikes * 2.0 ** j, 2e-4, 100.0 * 2.0 ** j)
        assert got.value.tobytes() == (est.value * 2.0 ** j).tobytes()
        assert got.std_error.tobytes() == (est.std_error * 2.0 ** j).tobytes()

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

    @given(chain=model_chains(), j=st.integers(-10, 10))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_calibrate_keeps_its_bits_over_chains(self, chain, j):
        (quotes, y0), scale = chain, 2.0 ** j
        base = calibrate_risk_aversion(quotes, FIG_PARAMS, 100.0, 2e-4, y0)
        got = calibrate_risk_aversion(in_currency(quotes, scale), FIG_PARAMS,
                                      100.0 * scale, 2e-4, y0)
        assert (got.lambda0.hex(), got.lambda1.hex()) == (base.lambda0.hex(), base.lambda1.hex())
        assert (got.iterations, got.converged) == (base.iterations, base.converged)
        assert got.rmse.hex() == (base.rmse * scale).hex()

    @pytest.mark.parametrize("command", list(CLI_SCALED))
    @pytest.mark.parametrize("scale", SCALES)
    def test_cli_columns_scale_exactly(self, command, scale):
        # simulate at 2,000 paths of 50 steps; the 101-point default grid
        sets = {"n_paths": "2000", "maturity_days": "5"}
        (names, want), = cli_tables(command, sets)
        (_, got), = cli_tables(command, {**sets, "spot": repr(100.0 * scale)})
        assert_scaled(names, got, want, CLI_SCALED[command], scale)

    @pytest.mark.parametrize("scale", SCALES)
    def test_cli_calibrate_keeps_its_bits(self, tmp_path, scale):
        sets = {"sigma0_annual": "0.1655"}
        cfg = cli.build_config([], list(sets.items()))
        quotes = four_maturity_chain(cfg.params, cfg.rate, cfg.y0)
        tables = []
        for s in (1.0, scale):
            path = tmp_path / f"quotes_{s!r}.csv"
            path.write_text("strike,maturity_days,bid,ask\n" + "".join(
                f"{q.strike!r},{q.maturity!r},{q.bid!r},{q.ask!r}\n"
                for q in in_currency(quotes, s)))
            tables.append(cli_tables("calibrate", {**sets, "spot": repr(100.0 * s)},
                                     quotes=str(path), repricing="reprice.csv"))
        (fit_names, fit), (rp_names, rp) = tables[0]
        assert fit[4] == ["true"]                     # converged
        assert_scaled(fit_names, tables[1][0][1], fit, {"rmse"}, scale)
        assert_scaled(rp_names, tables[1][1][1], rp, set(rp_names), scale)

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

    @given(**DOMAIN, j=st.integers(-3, 3))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_call_prices_keep_their_bits_over_the_domain(self, j, **point):
        assert domain_totals(**point, c=4.0 ** j).hex() == domain_totals(**point).hex()

    @pytest.mark.parametrize("c", TIME_UNITS)
    @pytest.mark.parametrize("antithetic", [False, True])
    def test_mc_call_prices_keep_their_bits(self, fig_params, fig_risk, c, antithetic):
        cfg = SimConfig(n_paths=2000, n_steps=20, dt=1.0, seed=43, antithetic=antithetic)
        strikes = np.linspace(90.0, 110.0, 11)
        want = mc_prices(fig_params, fig_risk, cfg, strikes, 2e-4)
        got = mc_prices(*in_time_unit(fig_params, fig_risk, c),
                        dataclasses.replace(cfg, dt=cfg.dt * c), strikes, 2e-4 / c)
        assert got.value.tobytes() == want.value.tobytes()
        assert got.std_error.tobytes() == want.std_error.tobytes()

    @example(cfg=TWO_BLOCKS[0], strikes=WIDE_STRIKES, j=-2)
    @example(cfg=TWO_BLOCKS[1], strikes=WIDE_STRIKES, j=2)
    @given(cfg=sim_configs(), strikes=STRIKES, j=st.integers(-2, 2))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_mc_call_prices_keep_their_bits_over_runs(self, cfg, strikes, j):
        c = 4.0 ** j
        want = mc_prices(FIG_PARAMS, FIG_RISK, cfg, strikes, 2e-4)
        got = mc_prices(*in_time_unit(FIG_PARAMS, FIG_RISK, c),
                        dataclasses.replace(cfg, dt=cfg.dt * c), strikes, 2e-4 / c)
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

    @example(run=(TWO_BLOCKS[0], np.array([-19.0, 0.0, 9.0]) * 0.5, np.array([0.0, 3.0])), j=2)
    @example(run=(TWO_BLOCKS[1], np.array([1.7, -3.4]), np.array([0.0, 20.4])), j=-2)
    @given(run=stats_runs(), j=st.integers(-2, 2))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_return_stats_keep_their_bits_over_runs(self, run, j):
        (cfg, lev, aco), c = run, 4.0 ** j
        want = mc_return_stats(FIG_PARAMS, cfg, lev, aco)
        p, _ = in_time_unit(FIG_PARAMS, FIG_RISK, c)
        got = mc_return_stats(p, dataclasses.replace(cfg, dt=cfg.dt * c), lev * c, aco * c)
        for g, w in zip(got[0] + got[1], want[0] + want[1], strict=True):
            assert (g.value.hex(), g.std_error.hex()) == (w.value.hex(), w.std_error.hex())
