"""Monte Carlo oracle: reproducibility, scheme exactness, estimator checks."""

import dataclasses
import math
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from expouvol import (
    ModelParams,
    OptionSpec,
    RiskAversion,
    SimConfig,
    bs_call,
    expansion_coeffs,
    expou_call,
    leverage,
    mc_call_prices,
    mc_return_stats,
    ou_conditional_moments,
    return_density,
    simulate_paths,
    squared_return_autocorr,
    to_martingale,
)
from expouvol import mc
from expouvol.mc import BLOCK
from expouvol.risk_neutral import MartingaleParams
from kernel_levels import SETTINGS
from oracles import (
    chi_square_vs_density,
    reference_block_sums,
    reference_steps,
    return_stats_full_panel,
    return_stats_multinomial,
    terminal_histogram,
)


def small_cfg(**kw):
    base = dict(n_paths=4000, n_steps=40, dt=0.25, seed=123)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    @pytest.mark.parametrize("kw", [
        dict(n_paths=0), dict(n_steps=0), dict(dt=0.0),
        dict(dt=math.nan), dict(antithetic=True, n_paths=4001),
        dict(dt=math.inf), dict(n_paths=2.5), dict(n_steps=40.0), dict(seed=1.5),
        dict(antithetic="false"), dict(antithetic=1), dict(antithetic=None),
        dict(antithetic=np.array([True])),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            small_cfg(**kw)

    def test_horizon(self):
        assert small_cfg().horizon == pytest.approx(10.0)


class TestReproducibility:
    def test_bit_exact_ensembles(self, fig_mp):
        cfg = small_cfg()
        a = simulate_paths(fig_mp, cfg, 0.0, rate=1e-4)
        b = simulate_paths(fig_mp, cfg, 0.0, rate=1e-4)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_bit_exact_estimates(self, fig_mp):
        cfg = small_cfg()
        spec = OptionSpec(100.0, 100.0, cfg.horizon, 0.0)
        e1 = mc_call_prices(fig_mp, cfg, spec)
        e2 = mc_call_prices(fig_mp, cfg, spec)
        assert e1 == e2

    def test_blocks_independent_of_path_count(self, fig_params):
        # block b's substream is keyed by (seed, b) alone, so adding paths
        # leaves the earlier blocks' paths untouched
        cfg = small_cfg(n_paths=2 * BLOCK + 17, n_steps=6)
        full = simulate_paths(fig_params, cfg, 0.3)
        first = simulate_paths(fig_params, dataclasses.replace(cfg, n_paths=BLOCK), 0.3)
        assert np.array_equal(full.x[:BLOCK], first.x)
        assert np.array_equal(full.y[:BLOCK], first.y)

    def test_seed_changes_results(self, fig_mp):
        a = simulate_paths(fig_mp, small_cfg(), 0.0)
        b = simulate_paths(fig_mp, small_cfg(seed=124), 0.0)
        assert not np.array_equal(a.x, b.x)

    def test_ensemble_immutable(self, fig_mp):
        ens = simulate_paths(fig_mp, small_cfg(), 0.0)
        with pytest.raises(ValueError):
            ens.x[0, 0] = 1.0


def _reverse_map(fn, cfg, block_samples=0):
    """A block map that runs the blocks last to first and yields them in order."""
    sizes = mc._block_sizes(cfg.n_paths)
    done = {b: fn(b, size) for b, size in reversed(list(enumerate(sizes)))}
    for b in range(len(sizes)):
        yield done[b]


class TestBlockPool:
    """The pool decides when blocks run, never what the estimates are:
    the calling thread reduces block results in block order."""

    def run_all(self, fig_params, fig_mp):
        out = []
        for antithetic in (False, True):
            cfg = small_cfg(n_paths=2 * BLOCK + 17 + antithetic, n_steps=8,
                            antithetic=antithetic)
            at_100 = OptionSpec(100.0, 100.0, cfg.horizon, 0.0)
            smile = OptionSpec(100.0, np.linspace(80.0, 120.0, 101), cfg.horizon, 1e-4)
            vec = mc_call_prices(fig_mp, cfg, smile)
            ens = simulate_paths(fig_mp, cfg, 0.1, rate=1e-4)
            out += [mc_call_prices(fig_mp, cfg, at_100), vec.value, vec.std_error,
                    mc_return_stats(fig_params, cfg, [-1.0, 0.5], [0.0, 1.0]), ens.x, ens.y]
        return out

    def assert_same(self, got, want):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w) if isinstance(w, np.ndarray) else g == w

    def test_worker_count_and_block_order_keep_the_bits(self, fig_params, fig_mp,
                                                         monkeypatch):
        monkeypatch.setattr(mc, "_n_workers", lambda: 1)
        want = self.run_all(fig_params, fig_mp)
        switch = sys.getswitchinterval()
        for workers in (2, 3):
            monkeypatch.setattr(mc, "_n_workers", lambda: workers)
            sys.setswitchinterval(1e-6)     # many GIL hand-offs inside each block
            try:
                got = self.run_all(fig_params, fig_mp)
            finally:
                sys.setswitchinterval(switch)
            self.assert_same(got, want)
        monkeypatch.setattr(mc, "_map_blocks", _reverse_map)
        self.assert_same(self.run_all(fig_params, fig_mp), want)

    def test_pricer_reads_the_stored_paths(self, fig_mp):
        # one engine feeds both readers: the stored terminal log-prices,
        # reduced per block in block order, give the pricer's bits
        mp, r = dataclasses.replace(fig_mp, z0=0.3), 1e-4
        strikes = np.array([90.0, 100.0, 110.0])
        for antithetic in (False, True):
            cfg = small_cfg(n_paths=2 * BLOCK + 18, n_steps=8, antithetic=antithetic)
            est = mc_call_prices(mp, cfg, OptionSpec(100.0, strikes, cfg.horizon, r))
            x = simulate_paths(mp, cfg, mp.z0, rate=r).x[:, -1]
            disc = math.exp(-r * cfg.horizon)
            n = cfg.n_paths // 2 if antithetic else cfg.n_paths
            total, total_sq = np.zeros(strikes.size), np.zeros(strikes.size)
            for lo in range(0, cfg.n_paths, BLOCK):
                growth = np.exp(x[lo: lo + BLOCK])
                for j, strike in enumerate(strikes):
                    pay = disc * np.maximum(100.0 * growth - strike, 0.0)
                    if antithetic:
                        pay = 0.5 * (pay[0::2] + pay[1::2])
                    total[j] += pay.sum()
                    total_sq[j] += (pay * pay).sum()
            mean = total / n
            var = np.maximum(0.0, (total_sq - n * mean * mean) / (n - 1))
            assert np.array_equal(est.value, mean)
            assert np.array_equal(est.std_error, np.sqrt(var / n))

    def calls(self, fig_params, fig_mp, cfg):
        spec = OptionSpec(100.0, [95.0, 105.0], cfg.horizon, 0.0)
        return {"mc_call_prices": lambda: mc_call_prices(fig_mp, cfg, spec),
                "mc_return_stats": lambda: mc_return_stats(fig_params, cfg, [0.25], [0.25]),
                "simulate_paths": lambda: simulate_paths(fig_mp, cfg, 0.0)}

    @pytest.mark.parametrize("name", ["mc_call_prices", "mc_return_stats", "simulate_paths"])
    def test_no_thread_outlives_a_call(self, fig_params, fig_mp, name):
        call = self.calls(fig_params, fig_mp, small_cfg(n_paths=3 * BLOCK, n_steps=4))[name]
        before = threading.active_count()
        call()
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["mc_call_prices", "mc_return_stats", "simulate_paths"])
    def test_failing_block_stops_the_run(self, fig_params, fig_mp, monkeypatch, name):
        monkeypatch.setattr(mc, "_n_workers", lambda: 2)
        started = []
        block_rng = mc._block_rng

        def failing(seed, b):
            if b < 1 << 63:     # a path stream, not a bootstrap weight stream
                started.append(b)
                if b == 1:
                    raise RuntimeError("block 1 failed")
                time.sleep(0.01)
            return block_rng(seed, b)

        monkeypatch.setattr(mc, "_block_rng", failing)
        call = self.calls(fig_params, fig_mp, small_cfg(n_paths=40 * BLOCK, n_steps=2))[name]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            call()
        assert threading.active_count() == before
        # blocks 0-3 queued at once, block 4 once block 0 was taken, then block 1 raises
        assert len(started) <= 5

    def test_failing_block_cancels_the_queue(self, monkeypatch):
        monkeypatch.setattr(mc, "_n_workers", lambda: 2)
        gate = threading.Event()
        started = []

        def fn(b, size):
            started.append(b)
            if b == 1:
                raise RuntimeError("block 1 failed")
            if b > 1:
                gate.wait(5.0)      # blocks 2 and 3 hold the workers
            return b

        opener = threading.Timer(0.2, gate.set)
        opener.start()
        with pytest.raises(RuntimeError, match="block 1 failed"):
            for _ in mc._map_blocks(fn, small_cfg(n_paths=40 * BLOCK, n_steps=1)):
                pass
        opener.join(5.0)
        assert not opener.is_alive()
        # block 4 was queued behind blocks 2 and 3 when block 1's error came back
        assert {0, 1} <= set(started) and 4 not in started

    def test_queue_does_not_grow_with_the_block_count(self, monkeypatch):
        workers = 3
        monkeypatch.setattr(mc, "_n_workers", lambda: workers)
        started = []

        def record(b, size):
            started.append(b)
            return b

        cfg = small_cfg(n_paths=500 * BLOCK, n_steps=1)
        for i, b in enumerate(mc._map_blocks(record, cfg)):
            assert b == i
            assert max(started) <= i + 2 * workers
        assert sorted(started) == list(range(500))

    def test_blocks_run_under_the_callers_error_state(self, monkeypatch):
        # numpy's error state is per thread; a worker would otherwise warn
        # where the caller asked for an overflow to raise
        monkeypatch.setattr(mc, "_n_workers", lambda: 2)
        cfg = small_cfg(n_paths=4 * BLOCK, n_steps=1)
        with np.errstate(over="raise", invalid="ignore"):
            states = list(mc._map_blocks(lambda b, size: np.geterr(), cfg))
            with pytest.raises(FloatingPointError, match="overflow"):
                list(mc._map_blocks(lambda b, size: np.exp(np.full(size, 1e3)), cfg))
        assert all(s["over"] == "raise" and s["invalid"] == "ignore" for s in states)
        assert len(states) == 4

    def test_return_panels_in_flight_fit_the_budget(self, fig_params, fig_mp, monkeypatch):
        pools = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(mc, "_n_workers", lambda: 8)
        cfg = small_cfg(n_paths=8 * BLOCK, n_steps=5)
        monkeypatch.setattr(mc, "PATH_BUDGET", 3 * BLOCK * cfg.n_steps + 1)
        mc_return_stats(fig_params, cfg, [0.25], [0.25])
        mc_call_prices(fig_mp, cfg, OptionSpec(100.0, 100.0, cfg.horizon, 0.0))
        assert pools == [3, 8]


class _CountingRng:
    """A block stream that records each normal fill it makes."""

    def __init__(self, rng, fills):
        self._rng, self._fills = rng, fills

    def standard_normal(self, *args, **kwargs):
        self._fills.append(1)
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.byte_exact
class TestStepChunks:
    """_steps advances _STEP_CHUNK steps per pass with the draws and the
    bits of the one-step reference stepper."""

    @pytest.mark.parametrize("n_steps", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("measure", ["physical", "martingale"])
    def test_chunks_equal_the_reference_stepper(self, fig_params, fig_mp, n_steps,
                                                antithetic, measure):
        params = fig_params if measure == "physical" else fig_mp
        cfg = small_cfg(n_paths=1002, n_steps=n_steps, antithetic=antithetic)
        y = np.linspace(-0.8, 0.8, cfg.n_paths)
        rng = mc._block_rng(cfg.seed, 1)
        dx, ys = [], []
        for d, yy in mc._steps(params, cfg, rng, y.copy(), 1e-4):
            assert 1 <= len(d) <= mc._STEP_CHUNK and d.shape == yy.shape
            dx.append(d.copy())
            ys.append(yy.copy())
        ref_rng = mc._block_rng(cfg.seed, 1)
        want = list(reference_steps(params, cfg, ref_rng, y.copy(), 1e-4))
        assert np.array_equal(np.concatenate(dx), np.stack([d for d, _ in want]))
        assert np.array_equal(np.concatenate(ys), np.stack([yy for _, yy in want]))
        # the same stream, read to the same point
        assert rng.bytes(64) == ref_rng.bytes(64)

    @pytest.mark.parametrize("name", ["mc_call_prices", "mc_return_stats", "simulate_paths"])
    def test_one_normal_fill_per_chunk(self, fig_params, fig_mp, monkeypatch, name):
        fills = {}
        block_rng = mc._block_rng

        def counting(seed, b):
            if b >= 1 << 63:    # a bootstrap weight stream draws no normals
                return block_rng(seed, b)
            return _CountingRng(block_rng(seed, b), fills.setdefault(b, []))

        monkeypatch.setattr(mc, "_block_rng", counting)
        for n_steps in (2, 4, 9):
            fills.clear()
            cfg = small_cfg(n_paths=BLOCK + 10, n_steps=n_steps, antithetic=True)
            TestBlockPool().calls(fig_params, fig_mp, cfg)[name]()
            start = name == "mc_return_stats"      # the stationary start
            want = -(-n_steps // mc._STEP_CHUNK) + start
            assert {b: len(f) for b, f in fills.items()} == {0: want, 1: want}

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_working_set_of_one_block(self, fig_mp, antithetic):
        # the draws (2 rows a step), sig and dx (1 each) and the log-vols
        # (1 more than the chunk), allocated once per block: a chunk of 8
        # cost 5.6% of mc_price's peak RSS on 2 threads, over its 5% bound
        rows = 5 * mc._STEP_CHUNK + 1
        assert rows <= 21
        cfg = small_cfg(n_paths=BLOCK, n_steps=41, antithetic=antithetic)
        rng = mc._block_rng(cfg.seed, 0)   # numpy's first generator caches its own tables
        tracemalloc.start()
        try:
            for _ in mc._steps(fig_mp, cfg, rng, np.zeros(BLOCK), 0.0):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * rows * BLOCK * 8


class TestScheme:
    def test_tiny_vol_of_vol_is_deterministic_ou(self, fig_params):
        p = ModelParams(m=0.01, alpha=8e-3, k=1e-14, rho=0.0)
        cfg = small_cfg(n_paths=8)
        ens = simulate_paths(p, cfg, 0.7)
        expected = 0.7 * np.exp(-8e-3 * ens.times)
        assert np.allclose(ens.y, expected[None, :], atol=1e-10)

    def test_ou_marginals_match_closed_form(self, fig_mp):
        # exact transition: marginal moments hit Eq-level values at any dt
        y0, t = 0.5, 10.0
        for dt in (0.5, 0.25):
            cfg = small_cfg(n_paths=100_000, n_steps=int(t / dt), dt=dt, seed=21)
            ens = simulate_paths(fig_mp, cfg, y0)
            mean, var = ou_conditional_moments(
                ModelParams(m=0.01, alpha=fig_mp.alpha_bar, k=fig_mp.k, rho=0.0),
                y0, t)
            y = ens.y[:, -1]
            se_mean = y.std(ddof=1) / math.sqrt(y.size)
            assert abs(y.mean() - mean) < 3 * se_mean
            se_var = y.var(ddof=1) * math.sqrt(2.0 / (y.size - 1))
            assert abs(y.var(ddof=1) - var) < 3 * se_var

    def test_perfect_correlation_aligns_noises(self, fig_mp):
        mp = dataclasses.replace(fig_mp, rho=1.0)
        cfg = small_cfg(n_paths=16, n_steps=5)
        ens = simulate_paths(mp, cfg, 0.0, rate=0.0)
        dt = cfg.dt
        decay = math.exp(-mp.alpha_bar * dt)
        sd_ou = math.sqrt(mp.beta2_bar * -math.expm1(-2 * mp.alpha_bar * dt))
        for step in range(cfg.n_steps):
            sig = mp.m_bar * np.exp(ens.y[:, step])
            g1 = (np.diff(ens.x[:, step:step + 2], axis=1).ravel()
                  + 0.5 * sig**2 * dt) / (sig * math.sqrt(dt))
            g2 = (ens.y[:, step + 1] - decay * ens.y[:, step]) / sd_ou
            assert np.allclose(g1, g2, atol=1e-10)

    def test_martingale_property(self, fig_mp):
        # discounted forward via a vanishing strike
        cfg = small_cfg(n_paths=200_000, n_steps=40, dt=0.5, seed=3)
        r = 2e-4
        spec = OptionSpec(1.0, 1e-14, 20.0, r)
        est = mc_call_prices(fig_mp, cfg, spec)
        assert abs(est.value - 1.0) < 3 * est.std_error

    def test_bs_limit_at_tiny_vol_of_vol(self):
        mp = MartingaleParams(m_bar=0.01, alpha_bar=8e-3, k=1e-6, rho=0.0, z0=0.0)
        cfg = small_cfg(n_paths=100_000, n_steps=40, dt=0.5, seed=17)
        spec = OptionSpec(100.0, 100.0, 20.0, 1e-4)
        est = mc_call_prices(mp, cfg, spec)
        assert abs(est.value - bs_call(spec, 0.01)) < 3 * est.std_error


class TestAntithetic:
    def test_pairs_mirror(self, fig_mp):
        cfg = small_cfg(n_paths=8, antithetic=True)
        ens = simulate_paths(fig_mp, cfg, 0.0)
        assert np.allclose(ens.y[0::2], -ens.y[1::2], atol=1e-12)

    def test_mean_preserved_and_variance_reduced(self, fig_mp):
        spec = OptionSpec(100.0, 100.0, 10.0, 0.0)
        plain = mc_call_prices(fig_mp, small_cfg(n_paths=40_000, seed=5), spec)
        anti = mc_call_prices(fig_mp, small_cfg(n_paths=40_000, seed=5,
                                                antithetic=True), spec)
        assert anti.n_effective == 20_000
        # overlapping confidence intervals at equal total paths
        gap = abs(plain.value - anti.value)
        assert gap < 3 * math.hypot(plain.std_error, anti.std_error)
        assert anti.std_error < plain.std_error


class TestGuards:
    def test_storage_budget(self, fig_mp):
        cfg = small_cfg(n_paths=300_000, n_steps=200)
        with pytest.raises(ValueError, match="budget"):
            simulate_paths(fig_mp, cfg, 0.0)

    @pytest.mark.parametrize("y0, rate, name", [
        (math.nan, 0.0, "y0"), (math.inf, 0.0, "y0"), (0.0, math.inf, "rate"),
        (0.0, -math.inf, "rate"), (0.0, math.nan, "rate"),
    ])
    def test_non_finite_start_or_rate(self, fig_mp, y0, rate, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            simulate_paths(fig_mp, small_cfg(n_paths=8, n_steps=2), y0, rate=rate)

    def test_return_panel_budget(self, fig_params, monkeypatch):
        # one block's panel, min(n_paths, BLOCK) x n_steps, must fit; the whole run need not
        monkeypatch.setattr("expouvol.mc.PATH_BUDGET", 2 * BLOCK)
        mc_return_stats(fig_params, small_cfg(n_paths=BLOCK + 8, n_steps=2), [0.25], [0.25])
        for n_paths, n_steps in ((BLOCK + 8, 3), (8, 2 * BLOCK + 1)):
            with pytest.raises(ValueError, match="budget"):
                mc_return_stats(fig_params, small_cfg(n_paths=n_paths, n_steps=n_steps),
                                [0.25], [0.25])

    def test_measure_type_coherence(self, fig_mp, fig_params):
        # the parameter type is the measure: pricing takes MartingaleParams,
        # the return statistics ModelParams
        cfg = small_cfg(n_paths=64, n_steps=10, dt=1.0)
        spec = OptionSpec(100.0, 100.0, cfg.horizon, 0.0)
        with pytest.raises(TypeError, match="expects MartingaleParams"):
            mc_call_prices(fig_params, cfg, spec)
        for lev_taus, aco_taus in (([1.0], [1.0]), ([1.0], []), ([], [1.0]), ([], [])):
            with pytest.raises(TypeError, match="expects ModelParams"):
                mc_return_stats(fig_mp, cfg, lev_taus, aco_taus)
        # path simulation takes either measure, and nothing else
        simulate_paths(fig_params, cfg, 0.0)
        simulate_paths(fig_mp, cfg, 0.0)
        with pytest.raises(TypeError):
            simulate_paths(object(), cfg, 0.0)

    def test_horizon_mismatch(self, fig_mp):
        spec = OptionSpec(100.0, 100.0, 5.0, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            mc_call_prices(fig_mp, small_cfg(), spec)

    def test_lag_beyond_horizon(self, fig_params):
        cfg = small_cfg(n_paths=64, n_steps=10, dt=1.0)
        with pytest.raises(ValueError, match="horizon"):
            mc_return_stats(fig_params, cfg, [30.0], [])
        with pytest.raises(ValueError, match="horizon"):
            mc_return_stats(fig_params, cfg, [], [30.0])

    def test_negative_lag_rejected_for_autocorr(self, fig_params):
        cfg = small_cfg(n_paths=64, n_steps=10, dt=1.0)
        with pytest.raises(ValueError):
            mc_return_stats(fig_params, cfg, [], [-1.0])
        mc_return_stats(fig_params, cfg, [-1.0], [])  # fine for the leverage


class TestDensity:
    def test_mass_is_one(self, fig_mp):
        edges, _, density = terminal_histogram(fig_mp, small_cfg(), 30)
        assert np.sum(density * np.diff(edges)) == pytest.approx(1.0, abs=1e-12)

    def test_chi_square_in_trusted_regime(self):
        # small vol-of-vol time k^2*T: the expansion density is accurate and
        # the goodness-of-fit test passes at 2e5 paths
        p = ModelParams(m=0.005, alpha=8e-3, k=0.05, rho=-0.4)
        mp = dataclasses.replace(to_martingale(p, RiskAversion(1e-3, 1e-3), 0.0), z0=0.0)
        t = 3.0
        co = expansion_coeffs(mp, t, 0.0)
        cfg = SimConfig(n_paths=200_000, n_steps=30, dt=0.1, seed=31)
        edges, counts, _ = terminal_histogram(mp, cfg, 60)
        _, pval, _ = chi_square_vs_density(
            edges, counts, lambda x: return_density(mp, co, x))
        assert pval > 0.01

    def test_chi_square_detects_expansion_breakdown(self, fig_mp):
        # at the reference parameters and T=20 the model's true variance
        # exceeds the expansion's by ~25% (k^2*T is not small), which the
        # goodness-of-fit test must flag decisively
        t = 20.0
        co = expansion_coeffs(fig_mp, t, 0.0)
        cfg = SimConfig(n_paths=100_000, n_steps=200, dt=0.1, seed=31)
        edges, counts, _ = terminal_histogram(fig_mp, cfg, 60)
        _, pval, _ = chi_square_vs_density(
            edges, counts, lambda x: return_density(fig_mp, co, x))
        assert pval < 1e-6

    def test_sample_skew_negative_for_negative_rho(self, fig_mp):
        cfg = SimConfig(n_paths=100_000, n_steps=40, dt=0.5, seed=8)
        edges, _, density = terminal_histogram(fig_mp, cfg, 80)
        mids = 0.5 * (edges[:-1] + edges[1:])
        w = density * np.diff(edges)
        mean = np.sum(mids * w)
        m3 = np.sum((mids - mean) ** 3 * w)
        assert m3 < 0


class TestPhysicalStats:
    def test_leverage_matches_formula(self, fig_params):
        cfg = SimConfig(n_paths=40_000, n_steps=60, dt=1.0, seed=5)
        taus = [1.0, 5.0]
        lev, _ = mc_return_stats(fig_params, cfg, taus, [])
        for tau, est in zip(taus, lev):
            assert abs(est.value - leverage(fig_params, tau)) < 3 * est.std_error

    def test_leverage_anticausal_side_is_zero(self, fig_params):
        cfg = SimConfig(n_paths=40_000, n_steps=60, dt=1.0, seed=5)
        est = mc_return_stats(fig_params, cfg, [-3.0], [])[0][0]
        assert abs(est.value) < 3 * est.std_error

    def test_autocorr_positive_and_decaying(self, fig_params):
        # magnitude checks only: the plug-in estimator of Eq-level squared
        # return correlations is biased low in feasible samples at this
        # beta^2 (lognormal-moment undersampling); the decay shape and
        # positivity are robust
        cfg = SimConfig(n_paths=40_000, n_steps=60, dt=1.0, seed=5)
        _, ests = mc_return_stats(fig_params, cfg, [], [1.0, 20.0])
        assert ests[0].value > 0
        assert ests[1].value > 0
        assert ests[0].value > ests[1].value

    def test_autocorr_matches_formula_at_mild_vol_of_vol(self):
        # with beta^2 << 1 the moment estimator is well behaved and must
        # agree with the closed form
        p = ModelParams(m=0.01, alpha=0.05, k=0.08, rho=-0.4)  # beta^2 = 0.064
        cfg = SimConfig(n_paths=60_000, n_steps=80, dt=1.0, seed=9)
        taus = [1.0, 5.0, 20.0]
        _, aco = mc_return_stats(p, cfg, [], taus)
        for tau, est in zip(taus, aco):
            assert abs(est.value - squared_return_autocorr(p, tau)) < 3 * est.std_error


class TestReturnStatsOracle:
    @pytest.mark.parametrize("kw, lev_taus, aco_taus", [
        # n_paths not a multiple of BLOCK: the last row block is short
        (dict(n_paths=2 * BLOCK + 17, n_steps=12, dt=1.0), [1.0, 5.0], [1.0, 11.0]),
        # negative and zero leverage lags
        (dict(n_paths=3000, n_steps=20, dt=0.5), [-3.0, 0.0, 2.5], [0.0, 9.5]),
        (dict(n_paths=5000, n_steps=16, dt=1.0, antithetic=True), [0.0, 3.0], [0.0, 3.0]),
        # either grid empty
        (dict(n_paths=4100, n_steps=8, dt=1.0), [], [0.0, 2.0]),
        (dict(n_paths=4100, n_steps=8, dt=1.0), [-2.0, 7.0], []),
    ])
    def test_equals_full_panel_estimator(self, fig_params, kw, lev_taus, aco_taus):
        # demeaning by binomial expansion instead of on the panel changes
        # the rounding, so agreement is to rounding, not bit for bit
        cfg = SimConfig(seed=77, **kw)
        got = mc_return_stats(fig_params, cfg, lev_taus, aco_taus)
        want = return_stats_full_panel(fig_params, cfg, lev_taus, aco_taus)
        assert [len(got[0]), len(got[1])] == [len(lev_taus), len(aco_taus)]
        for g, w in zip(got[0] + got[1], want[0] + want[1]):
            assert g.value == pytest.approx(w.value, rel=1e-10)
            assert g.std_error == pytest.approx(w.std_error, rel=1e-10)
            assert g.n_effective == w.n_effective

    def test_se_close_to_multinomial_bootstrap(self, fig_params):
        # observed new/multinomial SE ratios: 1.10, 1.05, 1.14, 1.01
        # (leverage) and 1.03, 1.21, 1.00 (autocorrelation)
        cfg = SimConfig(n_paths=20_000, n_steps=60, dt=1.0, seed=77)
        lev_taus, aco_taus = [-3.0, 0.0, 1.0, 5.0], [1.0, 5.0, 20.0]
        got = mc_return_stats(fig_params, cfg, lev_taus, aco_taus)
        old = return_stats_multinomial(fig_params, cfg, lev_taus, aco_taus)
        for g, o in zip(got[0] + got[1], old[0] + old[1]):
            assert g.value == pytest.approx(o.value, rel=1e-12)
            assert 0.67 * o.std_error <= g.std_error <= 1.5 * o.std_error


class TestReturnStatsStreaming:
    def test_memory_independent_of_path_count(self, fig_params, monkeypatch):
        # the pool holds one block panel per worker; with one worker the peak
        # does not depend on the host's CPU count or on thread timing
        monkeypatch.setattr(mc, "_n_workers", lambda: 1)

        def peak(n_paths):
            cfg = SimConfig(n_paths=n_paths, n_steps=40, dt=1.0, seed=3)
            tracemalloc.start()
            try:
                mc_return_stats(fig_params, cfg, [1.0, 5.0], [1.0, 5.0])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * BLOCK) <= 1.2 * peak(4 * BLOCK)

    def test_repeated_lag_gives_identical_estimates(self, fig_params):
        cfg = small_cfg(n_paths=5000)
        lev, aco = mc_return_stats(fig_params, cfg, [1.0, -2.0, 1.0, -2.0], [2.0, 0.5, 2.0])
        assert lev[0] == lev[2] and lev[1] == lev[3]
        assert aco[0] == aco[2]

    def test_autocorr_independent_of_leverage_grid(self, fig_params):
        cfg = small_cfg(n_paths=5000)
        aco_taus = [0.0, 0.5, 3.0]
        _, alone = mc_return_stats(fig_params, cfg, [], aco_taus)
        _, shared = mc_return_stats(fig_params, cfg, [-4.0, 0.25, 3.0, 9.75], aco_taus)
        for a, s in zip(alone, shared):
            assert s.value == pytest.approx(a.value, rel=1e-12)
            assert s.std_error == pytest.approx(a.std_error, rel=1e-12)
            assert s.n_effective == a.n_effective


class TestBlockSums:
    """_block_sums writes each block's sums in place into one array, with
    the bits of the earlier stacked form (reference_block_sums); lag 0
    reads the single sums it shares through _sum_rows."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Every (returns, lags, sums) that _block_sums sees in a run."""
        seen = []
        block_sums = mc._block_sums

        def capture(rets, lags):
            sums = block_sums(rets, lags)
            seen.append((rets.copy(), list(lags), sums.copy()))
            return sums

        monkeypatch.setattr(mc, "_block_sums", capture)
        return seen

    @pytest.mark.parametrize("lev_taus, aco_taus", [
        ([-3.0, 0.0, 2.5], [0.0, 9.5]),            # 0 and a negative lag
        ([1.0, -1.0, 1.0], [1.0, 0.0, 0.0]),       # repeated lags
        ([-2.0, 4.0], [0.5, 19.5]),                # no lag 0
        ([], [0.0]),                               # lag 0 alone
    ])
    # lag 0 shares sum r^2 r with sum r r^2, one dot with its arguments
    # swapped: that holds only if every dot kernel is symmetric, so the test
    # runs again at other kernel levels.  The chunk size sets only how many
    # rows a dot call gets, so the default one covers it there.
    @pytest.mark.parametrize("chunk", [pytest.param("default", marks=pytest.mark.byte_exact),
                                       "one row", "over a block"])
    def test_equals_the_reference(self, fig_params, monkeypatch, blocks, lev_taus,
                                  aco_taus, chunk):
        # BLOCK + 1000 paths of 40 steps: neither block is a whole number of
        # default chunks
        cfg = SimConfig(n_paths=BLOCK + 1000, n_steps=40, dt=0.5, seed=11)
        if chunk == "one row":
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 8 * cfg.n_steps)
        elif chunk == "over a block":
            monkeypatch.setattr(mc, "_CHUNK_BYTES", 16 * BLOCK * 8 * cfg.n_steps)
        mc_return_stats(fig_params, cfg, lev_taus, aco_taus)
        assert sorted(rets.shape[0] for rets, _, _ in blocks) == [1000, BLOCK]
        for rets, lags, sums in blocks:
            rows, n_sums = mc._sum_rows(lags)
            assert sums.shape == (n_sums, rets.shape[0])
            assert n_sums == 5 + sum(8 if lag else 1 for lag in lags)
            want = reference_block_sums(rets, lags)
            got = sums[list(range(5)) + [i for lag_rows in rows for i in lag_rows]]
            assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("setting", ["openblas-haswell", "numpy-no-x86-v4"])
    def test_equals_the_reference_at_other_kernel_levels(self, kernel_level_runs, setting):
        # the default-chunk cases run in the byte-exact subprocess of each
        # setting (tests/kernel_levels.py)
        if setting not in kernel_level_runs:
            pytest.skip(f"numpy reports no {SETTINGS[setting][1]}: nothing to turn off or to run")
        run = kernel_level_runs[setting]
        test = f"tests/test_mc.py::{type(self).__name__}::test_equals_the_reference["
        passed = [t for t in run.passed if t.startswith(test) and "default" in t]
        assert len(passed) == 4, run.tail()     # one per lag grid

    def test_one_block_holds_its_panel_and_one_sums_array(self, fig_params, monkeypatch):
        # the mc_stats block at the CLI defaults: 300 steps, lags 0, 10, 50, 200
        monkeypatch.setattr(mc, "_n_workers", lambda: 1)
        cfg = SimConfig(n_paths=BLOCK, n_steps=300, dt=0.1, seed=5)
        taus = [0.0, 1.0, 5.0, 20.0]
        mc_return_stats(fig_params, small_cfg(n_paths=10), [1.0], [1.0])   # warm-up
        tracemalloc.start()
        try:
            mc_return_stats(fig_params, cfg, taus, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        panel = BLOCK * cfg.n_steps * 8
        sums = mc._sum_rows([0, 10, 50, 200])[1] * BLOCK * 8
        assert peak <= panel + sums + 3 * mc._CHUNK_BYTES


def _vol_path_functionals(mp, t, n_paths, dt, seed, z0=0.0):
    """Exact-OU vol paths reduced to (I2, J): the running squared-vol-factor
    integral (trapezoid) and the Euler integral of e^Z against the OU noise."""
    rng = np.random.default_rng(seed)
    n_steps = int(round(t / dt))
    a = math.exp(-mp.alpha_bar * dt)
    sd = math.sqrt(mp.beta2_bar * -math.expm1(-2 * mp.alpha_bar * dt))
    z = np.full(n_paths, z0)
    i2 = np.zeros(n_paths)
    j = np.zeros(n_paths)
    for _ in range(n_steps):
        g = rng.standard_normal(n_paths)
        ez = np.exp(z)
        z_next = z * a + sd * g
        i2 += 0.5 * (ez * ez + np.exp(2 * z_next)) * dt
        j += ez * math.sqrt(dt) * g
        z = z_next
    return i2, j


class TestConditionalLognormalOracle:
    """Second, scheme-independent route to prices and cumulants.

    Conditional on the vol path, X(T) is Gaussian with mean
    rT - m_bar^2 I2/2 + m_bar rho J and variance m_bar^2 (1-rho^2) I2, so
    the call price is an expectation of Black-Scholes values over vol
    paths only.  Agreement with the Euler-leg estimator validates the MC
    pipeline independently of the return-density expansion.
    """

    def test_price_agrees_with_plain_mc_where_expansion_fails(self, fig_mp):
        t, r = 20.0, 0.0
        spec = OptionSpec(100.0, 100.0, t, r)
        i2, j = _vol_path_functionals(fig_mp, t, 40_000, 0.1, seed=14)
        m = r * t - 0.5 * fig_mp.m_bar**2 * i2 + fig_mp.m_bar * fig_mp.rho * j
        v = fig_mp.m_bar**2 * (1 - fig_mp.rho**2) * i2
        fwd = spec.spot * np.exp(m + 0.5 * v)
        sv = np.sqrt(v)
        dp = (np.log(fwd / spec.strike) + 0.5 * v) / sv
        from expouvol import norm_cdf
        px = math.exp(-r * t) * (fwd * norm_cdf(dp) - spec.strike * norm_cdf(dp - sv))
        mix_val = float(px.mean())
        mix_se = float(px.std(ddof=1)) / math.sqrt(px.size)

        cfg = SimConfig(n_paths=100_000, n_steps=200, dt=0.1, seed=15)
        est = mc_call_prices(fig_mp, cfg, spec)
        gap = abs(mix_val - est.value)
        assert gap < 3 * math.hypot(mix_se, est.std_error)
        # and both sit far above the expansion price here, quantifying the
        # truncation error that acceptance criterion 6 documents
        formula = expou_call(spec, fig_mp, expansion_coeffs(fig_mp, t, 0.0)).total
        assert mix_val - formula > 0.1

    def test_return_cumulants_pin_the_kurtosis_bracket_sign(self, fig_mp):
        # conditional third/fourth cumulants of X(T) at small vol-of-vol
        # time: the skew coefficient has the right sign and scale, and the
        # kurtosis is positive, matching the chosen bracket; the opposite
        # sign of the (1-e^{-2at})/2 term would predict kappa_4 < 0
        t, r = 4.0, 0.0
        i2, j = _vol_path_functionals(fig_mp, t, 500_000, 0.05, seed=16)
        m = r * t - 0.5 * fig_mp.m_bar**2 * i2 + fig_mp.m_bar * fig_mp.rho * j
        v = fig_mp.m_bar**2 * (1 - fig_mp.rho**2) * i2
        mc_ = m - m.mean()
        vc = v - v.mean()
        k3 = (mc_**3).mean() + 3 * (mc_ * vc).mean()
        k4 = ((mc_**4).mean() - 3 * (mc_**2).mean()**2
              + 6 * (mc_**2 * vc).mean() + 3 * (vc**2).mean())
        co = expansion_coeffs(fig_mp, t, r)
        assert 0.7 < k3 / (6 * fig_mp.rho * co.sigma3) < 1.5
        assert k4 > 0
        assert 0.8 < k4 / (24 * co.kappa) < 2.5
        # the minus-sign variant of the kappa bracket is negative here
        at = fig_mp.alpha_bar * t
        minus_bracket = at - 0.5 * -math.expm1(-2 * at) - 2 * -math.expm1(-at)
        assert minus_bracket < 0


class TestMultiStrike:
    STRIKES = (95.0, 100.0, 105.0)

    def test_consistent_with_single(self, fig_mp):
        # an array spec gives, strike by strike, the scalar spec's exact
        # value and error: floats in, floats out; array in, array out
        for antithetic in (False, True):
            cfg = small_cfg(n_paths=20_000, antithetic=antithetic)
            multi = mc_call_prices(
                fig_mp, cfg, OptionSpec(100.0, self.STRIKES, cfg.horizon, 0.0))
            assert multi.value.shape == multi.std_error.shape == (3,)
            for i, k in enumerate(self.STRIKES):
                single = mc_call_prices(
                    fig_mp, cfg, OptionSpec(100.0, k, cfg.horizon, 0.0))
                assert type(single.value) is float
                assert type(single.std_error) is float
                assert single.value == multi.value[i]
                assert single.std_error == multi.std_error[i]
                assert single.n_effective == multi.n_effective

    def test_spot_and_strike_broadcast(self, fig_mp):
        cfg = small_cfg(n_paths=8192)
        spots = np.array([[98.0], [102.0]])
        grid = mc_call_prices(
            fig_mp, cfg, OptionSpec(spots, self.STRIKES, cfg.horizon, 0.0))
        assert grid.value.shape == grid.std_error.shape == (2, 3)
        single = mc_call_prices(fig_mp, cfg, OptionSpec(102.0, 95.0, cfg.horizon, 0.0))
        assert single.value == grid.value[1, 0]

    def test_mixed_maturities_rejected(self, fig_mp):
        # one ensemble has one horizon: an array maturity or rate is
        # rejected even when every element would match it
        cfg = small_cfg()
        for maturity in ([10.0, 5.0], [10.0, 10.0]):
            with pytest.raises(ValueError, match="scalars"):
                mc_call_prices(fig_mp, cfg, OptionSpec(100.0, 100.0, maturity, 0.0))
        with pytest.raises(ValueError, match="scalars"):
            mc_call_prices(fig_mp, cfg, OptionSpec(100.0, 100.0, 10.0, [0.0, 1e-4]))
