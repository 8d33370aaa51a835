"""Command-line front end: schemas, determinism, exit codes, round trips."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expouvol.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestPrice:
    def test_schema_and_sign_change(self, capsys):
        code, out, err = run_cli(capsys, "price")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["moneyness", "call", "bs", "diff"]
        assert len(rows) == 101
        # diff flips sign near moneyness one with the default rho = -0.4
        mons = np.array([float(r[0]) for r in rows])
        diffs = np.array([float(r[3]) for r in rows])
        assert np.all(diffs[(mons >= 0.9) & (mons <= 1.0)] < 0)
        assert np.all(diffs[(mons >= 1.03) & (mons <= 1.1)] > 0)

    def test_golden_default_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "price")
        assert code == 0
        assert out == (GOLDEN / "price_default.csv").read_text()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "px.csv"
        code, out, _ = run_cli(capsys, "price", "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("moneyness,call,bs,diff\n")


class TestSmile:
    def test_flat_in_constant_vol_limit(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "lambda0=0", "--set", "lambda1=0",
                               "--set", "k=1e-6", "--set", "moneyness_min=0.9",
                               "--set", "moneyness_max=1.1",
                               "--set", "moneyness_points=5", "smile")
        assert code == 0
        _, rows = parse_csv(out)
        target = 0.01 * math.sqrt(252.0)
        for r in rows:
            assert float(r[1]) == pytest.approx(target, abs=1e-6)

    def test_skew_with_negative_rho(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "moneyness_min=0.9",
                               "--set", "moneyness_max=1.1",
                               "--set", "moneyness_points=3", "smile")
        assert code == 0
        _, rows = parse_csv(out)
        # rho < 0: low strikes (high S/K) carry the higher implied vol
        assert float(rows[0][1]) < float(rows[-1][1])


class TestDensity:
    def test_trapezoid_mass(self, capsys):
        code, out, _ = run_cli(capsys, "density")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "p"]
        xs = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(ps, xs) == pytest.approx(1.0, abs=1e-4)


class TestGreeks:
    def test_schema_and_range(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "moneyness_points=9", "greeks")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["moneyness", "delta"]
        deltas = [float(r[1]) for r in rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))


class TestSimulate:
    ARGS = ("--set", "n_paths=2000", "--set", "moneyness_points=3",
            "--set", "dt=0.5", "simulate")

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2
        header, rows = parse_csv(out1)
        assert header == ["moneyness", "mc_price", "std_err", "analytic", "abs_diff"]
        assert len(rows) == 3

    def test_golden_seeded_bytes(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert out == (GOLDEN / "simulate_seeded.csv").read_text()

    def test_seed_matters(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, "--set", "seed=999", *self.ARGS)
        assert out1 != out2

    def test_dump_paths(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, _, _ = run_cli(capsys, "--set", "n_paths=2000", "--set",
                             "moneyness_points=1", "--set", "dt=0.5",
                             "simulate", "--dump-paths", str(dump))
        assert code == 0
        first = dump.read_text().splitlines()
        assert first[0] == "path,step,t_days,x,y"
        assert len(first) == 1 + 64 * 41


class TestStats:
    def test_golden_seeded_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "n_paths=2000", "--set", "dt=1",
                               "--set", "tau_grid=0,1,5", "stats")
        assert code == 0
        assert out == (GOLDEN / "stats_seeded.csv").read_text()

    def test_schema_and_formula_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "n_paths=20000",
                               "--set", "dt=1", "--set", "tau_grid=0,1,5",
                               "stats")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "leverage_mc", "leverage_se", "leverage_fml",
                          "autocorr_mc", "autocorr_se", "autocorr_fml"]
        fml_at_zero = float(rows[0][3])
        assert fml_at_zero == pytest.approx(-12.844, abs=1e-2)
        assert float(rows[0][6]) == pytest.approx(0.32237, abs=1e-4)


class TestCalibrate:
    def make_chain(self, tmp_path):
        # synthetic chain generated through the CLI's own pricing stack
        from expouvol import (ModelParams, OptionQuote, RiskAversion, OptionSpec,
                              expansion_coeffs, expou_call, to_martingale,
                              write_quotes, y0_from_vol_index)
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)
        r = 0.02 / 252.0
        y0 = y0_from_vol_index(0.1655, p.m)
        mp = to_martingale(p, RiskAversion(1e-3, 1e-3), y0)
        co = expansion_coeffs(mp, 10.0, r)
        quotes = []
        for k in np.linspace(95, 105, 7):
            mid = expou_call(OptionSpec(100.0, k, 10.0, r), mp, co).total
            quotes.append(OptionQuote(strike=k, maturity=10.0, bid=mid - 0.01,
                                      ask=mid + 0.01, mid=mid))
        path = tmp_path / "chain.csv"
        write_quotes(quotes, path)
        return path

    def test_end_to_end_round_trip(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        reprice = tmp_path / "reprice.csv"
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "--set", "rate_annual=0.02",
                                 "--set", "maturity_days=10",
                                 "calibrate", "--quotes", str(chain),
                                 "--repricing", str(reprice))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda0", "lambda1", "rmse", "n_quotes",
                          "converged", "iterations"]
        row = rows[0]
        assert float(row[0]) == pytest.approx(1e-3, abs=1e-5)
        assert float(row[1]) == pytest.approx(1e-3, abs=1e-5)
        assert row[4] == "true"
        rp_header, rp_rows = parse_csv(reprice.read_text())
        assert rp_header == ["strike", "mid", "model", "residual"]
        assert len(rp_rows) == 7

    def test_missing_quote_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        code, _, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                               "calibrate", "--quotes", str(missing))
        assert code == 2
        assert str(missing) in err

    def test_quote_path_is_directory(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                               "calibrate", "--quotes", str(tmp_path))
        assert code == 2
        assert str(tmp_path) in err

    def test_non_finite_quote_rows_skipped_and_reported(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        with open(chain, "a") as fh:
            fh.write("nan,10.0,1.0,1.2\n100.0,10.0,nan,1.2\n")
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "--set", "rate_annual=0.02",
                                 "calibrate", "--quotes", str(chain))
        assert code == 0
        assert parse_csv(out)[1][0][3] == "7"
        assert "line 9: strike must be positive and finite, got nan" in err
        assert "line 10: bid must be finite, got nan" in err

    def test_overflowing_mid_row_skipped_and_reported(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        with open(chain, "a") as fh:
            fh.write("100,10,1.0e308,1.7e308\n")
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "--set", "rate_annual=0.02",
                                 "calibrate", "--quotes", str(chain))
        assert code == 0
        assert parse_csv(out)[1][0][3] == "7"
        assert "line 9: mid must be finite, got inf" in err

    def test_requires_vol_index(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        code, _, err = run_cli(capsys, "calibrate", "--quotes", str(chain))
        assert code == 2
        assert "sigma0_annual" in err

    @pytest.mark.parametrize("rows, usable", [("", 0), ("100,10,1.0,1.2\n", 1),
                                              ("100,10,1.0,1.2\n100,10,2.0,1.5\n", 1)])
    def test_fewer_than_two_usable_quotes_exit_2(self, capsys, tmp_path, rows, usable):
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,maturity_days,bid,ask\n" + rows)
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "calibrate", "--quotes", str(quotes))
        assert code == 2
        assert out == ""
        assert f"needs at least 2 usable quotes for its 2 parameters, got {usable}" in err
        assert "computation failed" not in err


class TestConfigHandling:
    def test_config_file_and_env(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# reference run\nmoneyness_points = 3\nrho = -0.4\n")
        monkeypatch.setenv("EXPOUVOL_CONFIG", str(cfgfile))
        code, out, _ = run_cli(capsys, "price")
        assert code == 0
        assert len(parse_csv(out)[1]) == 3

    def test_cli_set_overrides_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("moneyness_points = 3\n")
        code, out, _ = run_cli(capsys, "--config", str(cfgfile),
                               "--set", "moneyness_points=5", "price")
        assert code == 0
        assert len(parse_csv(out)[1]) == 5

    def test_unknown_key_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "--set", "bogus=1", "price")
        assert code == 2
        assert "bogus" in err

    def test_output_key_removed(self, capsys, tmp_path):
        # each command's --output flag names the output file; no config key does
        code, out, err = run_cli(capsys, "--set", f"output={tmp_path / 'x.csv'}", "price")
        assert code == 2
        assert out == ""
        assert "unknown key 'output'" in err
        assert not (tmp_path / "x.csv").exists()

    def test_invalid_value_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "--set", "rho=2.0", "price")
        assert code == 2
        assert "rho" in err

    @pytest.mark.parametrize("setting, key", [
        ("dt=0", "dt"),
        ("maturity_days=inf", "maturity_days"),
        ("rate_annual=inf", "rate_annual"),
        ("spot=nan", "spot"),
        ("tau_grid=0,inf", "tau_grid"),
        # no martingale measure: m_bar overflows / underflows, alpha + k*lambda1 <= 0
        ("lambda0=-1e6", "lambda0"),
        ("lambda0=1e6", "lambda0"),
        ("lambda1=-1", "lambda1"),
    ])
    def test_non_finite_or_non_positive_exit_2(self, capsys, setting, key):
        code, out, err = run_cli(capsys, "--set", setting, "price")
        assert code == 2
        assert out == ""
        assert f"{key} must be" in err

    def test_z0_wins_with_warning(self, capsys):
        code, _, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                               "--set", "z0=0.0", "--set", "moneyness_points=1",
                               "price")
        assert code == 0
        assert "z0 wins" in err

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "expouvol.cli", "--set", "moneyness_points=2",
             "price"],
            capture_output=True, text=True,
            env={**os.environ, "EXPOUVOL_CONFIG": ""})
        assert proc.returncode == 0
        assert proc.stdout.startswith("moneyness,call,bs,diff\n")


class TestBenchReferences:
    """Closed-form outputs at the defaults against perfbench/references.json.

    The same tolerance and empty-cell rule the benchmark's output checks
    apply, so tier-1 fails wherever the benchmark would.
    """

    REFERENCES = Path(__file__).parent.parent / "perfbench" / "references.json"

    @pytest.mark.parametrize("name, argv", [
        ("smile", ["smile"]),
        ("smile_5001", ["--set", "moneyness_points=5001", "smile"]),
        ("greeks", ["greeks"]),
        ("density", ["density"]),
    ])
    def test_matches_recorded_values(self, capsys, monkeypatch, name, argv):
        monkeypatch.delenv("EXPOUVOL_CONFIG", raising=False)
        ref = json.loads(self.REFERENCES.read_text())[name]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ref["header"]
        assert len(rows) == len(ref["rows"])
        for row, ref_row in zip(rows, ref["rows"]):
            cells = [float(c) if c else None for c in row]
            assert [c is None for c in cells] == [c is None for c in ref_row]
            for got, want in zip(cells, ref_row):
                if want is not None:
                    assert abs(got - want) <= 1e-9 * abs(want)


class TestTracedMode:
    """``perfbench/tracer.py`` wraps public functions by name and reads
    counts off their return values, so a refactor can break the
    benchmark's traced mode without failing anything else: each command
    must exit 0 under the tracer and print the untraced CSV unchanged."""

    ROOT = Path(__file__).parent.parent

    @pytest.mark.parametrize("argv", [
        ["price"], ["smile"], ["greeks"], ["density"],
        ["--set", "n_paths=2000", "simulate"],
        ["--set", "n_paths=500", "stats"],
        ["--set", "sigma0_annual=0.1655", "--set", "rate_annual=0.02",
         "--set", "maturity_days=10", "calibrate", "--quotes", "{chain}",
         "--repricing", "{work}/repricing.csv"],
    ], ids=["price", "smile", "greeks", "density", "simulate", "stats", "calibrate"])
    def test_stdout_matches_untraced(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.delenv("EXPOUVOL_CONFIG", raising=False)
        chain = TestCalibrate().make_chain(tmp_path) if "{chain}" in argv else None
        argv = [a.format(chain=chain, work=tmp_path) for a in argv]
        code, untraced, _ = run_cli(capsys, *argv)
        assert code == 0
        env = {**os.environ, "EXPOUVOL_CONFIG": "", "PYTHONPATH": str(self.ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "perfbench" / "tracer.py"),
             str(tmp_path / "spans.json"), "0", "--", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == untraced
        assert json.loads((tmp_path / "spans.json").read_text())["names"]


class TestImport:
    def test_import_skips_scipy_stats(self):
        # scipy.stats and scipy.optimize cost most of the package's import
        # time; neither the import nor a calibration fit loads them
        script = "\n".join([
            "import sys, expouvol as ev",
            "mods = ('scipy.stats', 'scipy.optimize')",
            "print([m for m in mods if m in sys.modules])",
            "p = ev.ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)",
            "quotes = [ev.OptionQuote(strike=k, maturity=10.0, bid=v - 0.01,",
            "                         ask=v + 0.01, mid=v)",
            "          for k, v in [(98.0, 2.9), (100.0, 1.6), (102.0, 0.8)]]",
            "res = ev.calibrate_risk_aversion(quotes, p, 100.0, 0.0, 0.0)",
            "print(res.converged, [m for m in mods if m in sys.modules])",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True []"]
