"""Command-line front end: schemas, determinism, exit codes, round trips."""

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from expouvol import cli
from expouvol.cli import main
from kernel_levels import SETTINGS

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("price", "smile", "greeks", "density", "simulate", "stats", "calibrate")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_pythonpath():
    """PYTHONPATH for a new interpreter that imports this checkout's package."""
    return os.pathsep.join([str(Path(cli.__file__).parent.parent)]
                           + [p for p in [os.environ.get("PYTHONPATH")] if p])


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

    @pytest.mark.byte_exact
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

    @pytest.mark.byte_exact
    def test_golden_default_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "smile")
        assert code == 0
        assert out == (GOLDEN / "smile_default.csv").read_text()


class TestDensity:
    def test_trapezoid_mass(self, capsys):
        code, out, _ = run_cli(capsys, "density")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "p"]
        xs = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(ps, xs) == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.byte_exact
    def test_golden_default_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "density")
        assert code == 0
        assert out == (GOLDEN / "density_default.csv").read_text()


class TestGreeks:
    def test_schema_and_range(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "moneyness_points=9", "greeks")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["moneyness", "delta"]
        deltas = [float(r[1]) for r in rows]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))

    @pytest.mark.byte_exact
    def test_golden_default_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "greeks")
        assert code == 0
        assert out == (GOLDEN / "greeks_default.csv").read_text()


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

    @pytest.mark.byte_exact
    def test_golden_seeded_bytes(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert out == (GOLDEN / "simulate_seeded.csv").read_text()

    @pytest.mark.byte_exact
    def test_golden_antithetic_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "antithetic=true", *self.ARGS)
        assert code == 0
        assert out == (GOLDEN / "simulate_antithetic.csv").read_text()

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

    def test_unwritable_dump_path_exit_2(self, capsys, tmp_path):
        # every file is written before stdout, so a failed write leaves stdout empty
        dump = tmp_path / "no-such-dir" / "paths.csv"
        code, out, err = run_cli(capsys, *self.ARGS, "--dump-paths", str(dump))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(dump) in err

    @pytest.mark.byte_exact
    def test_golden_dump_paths_bytes(self, capsys, tmp_path):
        dump = tmp_path / "paths.csv"
        code, _, _ = run_cli(capsys, "--set", "n_paths=3", "--set", "maturity_days=1",
                             "--set", "dt=0.5", "--set", "moneyness_points=1",
                             "--set", "z0=0.1", "--set", "rate_annual=0.05",
                             "simulate", "--dump-paths", str(dump))
        assert code == 0
        assert dump.read_bytes() == (GOLDEN / "dump_paths_seeded.csv").read_bytes()


class TestStats:
    ARGS = ("--set", "n_paths=2000", "--set", "dt=1", "--set", "tau_grid=0,1,5", "stats")

    @pytest.mark.byte_exact
    def test_golden_seeded_bytes(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        assert out == (GOLDEN / "stats_seeded.csv").read_text()

    @pytest.mark.byte_exact
    def test_golden_antithetic_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "antithetic=true", *self.ARGS)
        assert code == 0
        assert out == (GOLDEN / "stats_antithetic.csv").read_text()

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
        from expouvol import (ModelParams, OptionSpec, expansion_coeffs,
                              expou_call, to_martingale, y0_from_vol_index)
        p = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)
        r = 0.02 / 252.0
        y0 = y0_from_vol_index(0.1655, p.m)
        mp = to_martingale(p, 1e-3, 1e-3, y0)
        co = expansion_coeffs(mp, 10.0, r)
        rows = ["strike,maturity_days,bid,ask"]
        for k in np.linspace(95, 105, 7):
            mid = expou_call(OptionSpec(100.0, k, 10.0, r), mp, co).total
            rows.append(f"{float(k)!r},10.0,{mid - 0.01!r},{mid + 0.01!r}")
        path = tmp_path / "chain.csv"
        path.write_text("\n".join(rows) + "\n")
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

    def test_z0_keeps_sigma0_for_calibrate(self, capsys, tmp_path):
        # z0 sets the martingale start; calibrate still takes y0 from sigma0_annual
        chain = self.make_chain(tmp_path)
        args = ["--set", "sigma0_annual=0.1655", "--set", "maturity_days=10"]
        code, out, err = run_cli(capsys, *args, "calibrate", "--quotes", str(chain))
        assert code == 0 and "z0" not in err
        code, out_z0, err = run_cli(capsys, *args, "--set", "z0=0.1",
                                    "calibrate", "--quotes", str(chain))
        assert code == 0
        assert out_z0 == out
        assert "z0 wins" in err

    def test_unwritable_repricing_path_exit_2(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        reprice = tmp_path / "no-such-dir" / "reprice.csv"
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "calibrate", "--quotes", str(chain),
                                 "--repricing", str(reprice))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(reprice) in err

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

    def test_utf8_byte_order_mark_accepted(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + chain.read_bytes())
        runs = [run_cli(capsys, "--set", "sigma0_annual=0.1655", "--set", "rate_annual=0.02",
                        "calibrate", "--quotes", str(path)) for path in (chain, bom)]
        assert runs[1] == runs[0]
        assert runs[1][0] == 0 and runs[1][2] == ""
        assert parse_csv(runs[1][1])[1][0][3] == "7"

    def test_quotes_not_utf8_exit_2(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        with open(chain, "ab") as fh:
            fh.write(b"100,10,1.0,1.2\xff\n")
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "calibrate", "--quotes", str(chain))
        assert code == 2
        assert out == ""
        assert f"error: {chain}: not UTF-8 text (invalid start byte)" in err
        assert "computation failed" not in err

    def test_quote_field_over_csv_limit_exit_2(self, capsys, tmp_path):
        # the csv module refuses a field over 131,072 characters: one message, no traceback
        chain = self.make_chain(tmp_path)
        with open(chain, "a") as fh:
            fh.write("1" * 200_001 + ",10,1.0,1.2\n")
        line = len(chain.read_text().splitlines())
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "calibrate", "--quotes", str(chain))
        assert code == 2
        assert out == ""
        assert err == f"error: {chain}: line {line}: field larger than field limit (131072)\n"

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

    def test_too_few_quotes_without_vol_index_names_sigma0_annual(self, capsys, tmp_path):
        # the quote count is the library's rule, checked once the config is complete
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,maturity_days,bid,ask\n100,10,1.0,1.2\n")
        code, out, err = run_cli(capsys, "calibrate", "--quotes", str(quotes))
        assert (code, out) == (2, "")
        assert err.startswith("error: calibrate needs sigma0_annual in the config")

    @pytest.mark.parametrize("text, reason", [
        ("", "empty file"),
        ("strike,maturity_days,bid,last\n100,10,1.0,1.2\n",
         "columns after maturity_days must be bid,ask or mid"),
    ])
    def test_unusable_quote_file_exit_2(self, capsys, tmp_path, text, reason):
        quotes = tmp_path / "q.csv"
        quotes.write_text(text)
        got = run_cli(capsys, "--set", "sigma0_annual=0.1655", "calibrate", "--quotes", str(quotes))
        assert got == (2, "", f"error: {quotes}: {reason}\n")

    def test_blank_rows_skipped_without_reject(self, capsys, tmp_path):
        chain = self.make_chain(tmp_path)
        lines = chain.read_text().splitlines(keepends=True)
        chain.write_text("".join(lines[:3] + ["\n", " , ,\n"] + lines[3:]))
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "--set", "rate_annual=0.02", "calibrate", "--quotes", str(chain))
        assert (code, err) == (0, "")
        assert parse_csv(out)[1][0][3] == "7"


    def test_chain_in_other_units_exit_3_names_the_parameters(self, capsys, tmp_path):
        # strikes 9500-10500 at spot 100: the prices underflow, the Jacobian is zero
        quotes = tmp_path / "q.csv"
        quotes.write_text("strike,maturity_days,mid\n9500,20,510\n10000,20,250\n"
                          "10500,20,100\n")
        code, out, err = run_cli(capsys, "--set", "sigma0_annual=0.1655",
                                 "calibrate", "--quotes", str(quotes))
        assert (code, out) == (3, "")
        assert err.startswith("computation failed: the chain does not identify "
                              "lambda0 or lambda1: ")
        assert "Singular matrix" not in err


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

    @pytest.mark.parametrize("via", ["--config", "EXPOUVOL_CONFIG"])
    def test_config_not_utf8_exit_2(self, capsys, tmp_path, monkeypatch, via):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"moneyness_points = 3\n# caf\xe9\n")    # Latin-1
        if via == "--config":
            argv = ["--config", str(cfgfile), "price"]
        else:
            monkeypatch.setenv(via, str(cfgfile))
            argv = ["price"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfgfile}: not UTF-8 text (invalid continuation byte)\n"

    @pytest.mark.parametrize("via", ["--config", "EXPOUVOL_CONFIG"])
    def test_config_with_byte_order_mark(self, capsys, tmp_path, monkeypatch, via):
        # some editors start a UTF-8 file with a BOM; load_quotes skips it too
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_bytes(b"\xef\xbb\xbfmoneyness_points = 3\n")
        if via == "--config":
            argv = ["--config", str(cfgfile), "price"]
        else:
            monkeypatch.setenv(via, str(cfgfile))
            argv = ["price"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, "--set", "moneyness_points=3", "price")[1]

    @pytest.mark.parametrize("earlier", ["abc", "-1", "nan"])
    def test_repeated_key_checks_every_value(self, capsys, tmp_path, earlier):
        # the last value of a key wins, but one that is never used is still checked
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"spot = {earlier}\nspot = 100\n")
        for argv in (["--config", str(cfgfile)],
                     ["--set", f"spot={earlier}", "--set", "spot=100"]):
            code, out, err = run_cli(capsys, *argv, "--set", "moneyness_points=3", "price")
            assert code == 2
            assert out == ""
            assert err.startswith("error: spot")
        cfgfile.write_text("spot = 90\nspot = 100\n")
        code, out, _ = run_cli(capsys, "--config", str(cfgfile), "--set", "moneyness_points=3",
                               "price")
        assert code == 0
        assert out == run_cli(capsys, "--set", "moneyness_points=3", "price")[1]

    def test_descending_moneyness_grid(self, capsys):
        code, out, _ = run_cli(capsys, "--set", "moneyness_min=2", "--set", "moneyness_max=1.2",
                               "--set", "moneyness_points=3", "price")
        assert code == 0
        assert [row[0] for row in parse_csv(out)[1]] == ["2", "1.6", "1.2"]

    @pytest.mark.parametrize("points, spot", [("1_0", "1_00"), ("١٠", "١٠٠")])
    def test_numbers_read_by_python(self, capsys, points, spot):
        # int() and float() take digit-group underscores and any Unicode decimal digits
        code, out, _ = run_cli(capsys, "--set", f"moneyness_points={points}",
                               "--set", f"spot={spot}", "price")
        assert code == 0
        assert out == run_cli(capsys, "--set", "moneyness_points=10", "price")[1]

    def test_valid_keys_the_expansion_cannot_evaluate_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "--set", "alpha=1e308", "price")
        assert code == 3
        assert out == ""
        assert err == "computation failed: sigma3 must be finite, got nan\n"

    @pytest.mark.parametrize("setting, message", [
        # lam**3 overflows; lam*lam*nu underflows to 0; k*k underflows to 0
        pytest.param("m=1e-120", "lam = k/m_bar and nu = alpha_bar/k^2 must keep the expansion "
                     "coefficients in float range, got lam = 1.11502e+119, nu = 0.670248",
                     id="m=1e-120"),
        pytest.param("m=1e300", "lam = k/m_bar and nu = alpha_bar/k^2 must keep the expansion "
                     "coefficients in float range, got lam = 1.11502e-301, nu = 0.670248",
                     id="m=1e300"),
        pytest.param("k=1e-300", "nu = alpha_bar/k^2 must be finite, got inf at k = 1e-300",
                     id="k=1e-300"),
    ])
    def test_valid_keys_out_of_float_range_name_the_quantity(self, capsys, setting, message):
        code, out, err = run_cli(capsys, "--set", setting, "price")
        assert code == 3
        assert out == ""
        assert err == f"computation failed: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["--set", "spot=1e308", "price"],
        ["--set", "rate_annual=-1e20", "greeks"],
        ["--set", "z0=1e308", "density"],
        # in the MC pool's worker threads too
        ["--set", "m=1e200", "--set", "n_paths=64", "--set", "tau_grid=0,1", "stats"],
    ])
    def test_floating_point_failure_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].startswith("computation failed: ")
        assert "encountered" in err

    def test_config_line_without_equals_exit_2(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# reference run\nmoneyness_points 3\n")
        got = run_cli(capsys, "--config", str(cfgfile), "price")
        assert got == (2, "", f"error: {cfgfile}:2: expected key = value\n")

    def test_bool_value_not_a_bool_exit_2(self, capsys):
        got = run_cli(capsys, "--set", "antithetic=maybe", "price")
        assert got == (2, "", "error: antithetic: expected true/false, got 'maybe'\n")

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_the_philox_key_word_exit_2(self, capsys, seed):
        # Philox keys on one 64-bit word: a seed outside it would share a stream
        got = run_cli(capsys, "--set", f"seed={seed}", "--set", "n_paths=64", "simulate")
        assert got == (2, "", f"error: seed must lie in [0, 2**64), got {seed}\n")

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
        # positive, but zero whole steps of dt
        ("maturity_days=1e-12", "maturity_days"),
    ])
    def test_non_finite_or_non_positive_exit_2(self, capsys, setting, key):
        code, out, err = run_cli(capsys, "--set", setting, "price")
        assert code == 2
        assert out == ""
        assert f"{key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["price", "stats"])
    @pytest.mark.parametrize("grid", ["0.05", "0,1.25", "-1,0,1", "-0.1"])
    def test_bad_tau_grid_exit_2(self, capsys, command, grid):
        # every command checks the lags, as it checks maturity_days against dt
        code, out, err = run_cli(capsys, "--set", f"tau_grid={grid}", "--set", "dt=0.1",
                                 "--set", "n_paths=64", command)
        assert code == 2
        assert out == ""
        assert "tau_grid" in err and "Traceback" not in err

    @pytest.mark.parametrize("settings, message", [
        (["antithetic=true", "n_paths=2001"], "antithetic mode requires an even n_paths"),
        (["tau_grid=0,0.05"], "tau_grid lag must be a nonnegative multiple of dt 0.1, got 0.05"),
        (["dt=1e-12"], "maturity_days needs 2e+13 steps of dt 1e-12, more than 25000000"),
    ], ids=["odd-antithetic-paths", "lag-off-the-dt-grid", "horizon-beyond-step-cap"])
    def test_mc_config_errors_fail_every_command_alike(self, capsys, tmp_path, settings,
                                                       message):
        # the Monte Carlo keys are checked before any command runs, also by
        # the commands that never load the Monte Carlo engine
        sets = [arg for setting in settings for arg in ("--set", setting)]
        for command in COMMANDS:
            quotes = ["--quotes", str(tmp_path / "absent.csv")] if command == "calibrate" else []
            got = run_cli(capsys, *sets, command, *quotes)
            assert got == (2, "", f"error: {message}\n"), command

    @pytest.mark.parametrize("setting", ["maturity_days=1e308", "tau_grid=1e300"])
    def test_step_count_overflow_exit_2(self, capsys, setting):
        code, out, err = run_cli(capsys, "--set", setting, "--set", "dt=1e-10", "price")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {setting.split('=')[0]}")

    @pytest.mark.parametrize("settings, key", [
        ([("maturity_days", "20"), ("dt", "1e-12")], "maturity_days"),   # 2e13 steps
        ([("maturity_days", "1e308"), ("dt", "1")], "maturity_days"),   # 309 digits
        ([("tau_grid", "0,1e300")], "tau_grid"),
    ])
    def test_step_count_beyond_budget_rejected(self, settings, key):
        # simulate and stats would run for practically ever on these
        with pytest.raises(cli.ConfigError, match=f"^{key} needs "):
            cli.build_config([], settings)

    @pytest.mark.parametrize("settings, key", [
        ([("maturity_days", "20"), ("tau_grid", "0")], None),               # 200 steps of 0.1
        ([("maturity_days", "20.1"), ("tau_grid", "0")], "maturity_days"),  # 201
        ([("tau_grid", "0,10")], None),                    # 100 + 100 for stats
        ([("tau_grid", "0,10.1")], "tau_grid"),            # 101 + 100
    ])
    def test_step_count_budget_edge(self, monkeypatch, settings, key):
        monkeypatch.setattr("expouvol.cli.PATH_BUDGET", 200)
        if key is None:
            assert cli.build_config([], settings).sim.n_steps <= 200
        else:
            with pytest.raises(cli.ConfigError, match=f"^{key} needs 201 steps of dt 0.1, "
                               "more than 200$"):
                cli.build_config([], settings)

    @pytest.mark.parametrize("points, code", [(300, 0), (301, 2), (10**20, 2)])
    def test_moneyness_grid_budget(self, capsys, monkeypatch, points, code):
        # 300: the smallest cap that admits the default 200-step maturity
        # and 300-step stats horizon, which the same cap bounds
        monkeypatch.setattr("expouvol.cli.PATH_BUDGET", 300)
        got, out, err = run_cli(capsys, "--set", f"moneyness_points={points}", "price")
        assert got == code
        if code:
            assert out == "" and "moneyness_points must be at most 300" in err
        else:
            assert len(parse_csv(out)[1]) == 300

    def test_return_panel_budget_exit_3(self, capsys, monkeypatch, tmp_path):
        # stats simulates the largest lag plus 100 steps: 8 x 300 > 1000
        monkeypatch.setattr("expouvol.mc.PATH_BUDGET", 1000)
        target = tmp_path / "stats.csv"
        code, out, err = run_cli(capsys, "--set", "n_paths=8", "--set", "tau_grid=0,20",
                                 "stats", "--output", str(target))
        assert code == 3
        assert out == "" and "budget" in err and "Traceback" not in err
        assert not target.exists()

    def test_out_of_memory_exit_3(self, capsys, monkeypatch):
        # numpy's _ArrayMemoryError subclasses MemoryError
        def exhausted(*args):
            raise MemoryError("Unable to allocate 191. MiB")

        monkeypatch.setattr("expouvol.pricing._call_prices", exhausted)  # price imports it per run
        code, out, err = run_cli(capsys, "price")
        assert code == 3
        assert out == ""
        assert err == "computation failed: Unable to allocate 191. MiB\n"

    def test_docstring_lists_every_key_and_default(self):
        doc = cli.__doc__.split("Recognized keys and defaults::")[1].split("\n\n")[1]
        listed = {}
        for line in doc.splitlines():
            commented = line.strip().startswith("#")
            key, val = line.strip().lstrip("# ").split("#")[0].split("=")
            key = key.strip()
            listed[key] = None if commented else cli._convert(key, val.strip())
        assert listed == {key: default for key, (default, _) in cli._KEYS.items()}

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


class TestWorkerThreads:
    """The MC block pool's workers call no public function: the benchmark's
    tracer wraps every one of them with a single, unsynchronised span stack."""

    def test_public_functions_run_on_the_main_thread(self, capsys, monkeypatch):
        calls = []

        def record(name, fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                calls.append((name, threading.get_ident()))
                return fn(*args, **kwargs)
            return wrapped

        # the commands load mc on first use; the tracer imports every layer first
        importlib.import_module("expouvol.mc")
        modules = [m for name, m in list(sys.modules.items())
                   if name.startswith("expouvol.") and m is not None]
        wrappers = {fn: record(f"{mod.__name__}.{attr}", fn)
                    for mod in modules for attr, fn in vars(mod).items()
                    if inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")}
        for mod in modules + [sys.modules["expouvol"]]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    monkeypatch.setattr(mod, attr, wrappers[val])
        size = ["--set", "n_paths=9000", "--set", "dt=1"]
        for argv in (["--set", "maturity_days=3", "simulate"],
                     ["--set", "antithetic=true", "--set", "tau_grid=0,1,5", "stats"]):
            code, _, err = run_cli(capsys, *size, *argv)
            assert code == 0, err
        names = {name for name, _ in calls}
        assert {"expouvol.mc.mc_call_prices", "expouvol.mc.mc_return_stats"} <= names
        assert {ident for _, ident in calls} == {threading.main_thread().ident}


class TestGoldensAtOtherKernelLevels:
    """Every golden test passes again with numpy's AVX-512 kernels off, with
    its AVX2 kernels off as well, with OpenBLAS's Haswell and Nehalem kernels,
    and with OpenBLAS on one thread, as the CLI process runs it: the golden bytes
    depend neither on the SIMD level nor on the thread count.  The goldens
    run in the byte-exact subprocess of each setting (tests/kernel_levels.py)."""

    TESTS = ["tests/test_cli.py::TestPrice::test_golden_default_bytes",
             "tests/test_cli.py::TestSmile::test_golden_default_bytes",
             "tests/test_cli.py::TestDensity::test_golden_default_bytes",
             "tests/test_cli.py::TestGreeks::test_golden_default_bytes",
             "tests/test_cli.py::TestSimulate::test_golden_seeded_bytes",
             "tests/test_cli.py::TestSimulate::test_golden_antithetic_bytes",
             "tests/test_cli.py::TestSimulate::test_golden_dump_paths_bytes",
             "tests/test_cli.py::TestStats::test_golden_seeded_bytes",
             "tests/test_cli.py::TestStats::test_golden_antithetic_bytes",
             "tests/test_implied.py::TestSmile::test_golden_reference_curve"]

    @pytest.mark.parametrize("setting", list(SETTINGS))
    def test_goldens_pass(self, kernel_level_runs, setting):
        if setting not in kernel_level_runs:
            pytest.skip(f"numpy reports no {SETTINGS[setting][1]}: nothing to turn off or to run")
        run = kernel_level_runs[setting]
        assert set(self.TESTS) <= run.passed, run.tail()


class TestGridChunks:
    """price, greeks, smile and simulate's analytic column run the moneyness
    grid, and every command writes its rows, cli._CHUNK points at a time:
    the bytes do not depend on the chunk size, and memory grows by the
    output columns alone."""

    # (moneyness_min, moneyness_max, points); both reach moneyness 1.25, so
    # the smile's blank cells (sub-intrinsic prices, from 1.187 up) run
    # inside chunks and across chunk edges
    GRIDS = {"ascending": ("0.75", "1.25", 2001), "descending": ("1.25", "0.75", 1001)}
    # simulate at TestSimulate's small path count, on the smaller grid
    CASES = [*itertools.product(["price", "greeks", "smile"], GRIDS), ("simulate", "descending")]

    @pytest.mark.byte_exact
    @pytest.mark.parametrize("command, grid", CASES)
    def test_same_bytes_at_any_chunk_size(self, capsys, monkeypatch, command, grid):
        lo, hi, points = self.GRIDS[grid]
        mc = ["--set", "n_paths=2000", "--set", "dt=0.5"] if command == "simulate" else []
        argv = [*mc, "--set", f"moneyness_min={lo}", "--set", f"moneyness_max={hi}",
                "--set", f"moneyness_points={points}", command]
        outs = {}
        for chunk in (points, 1024, 7, 1):
            monkeypatch.setattr(cli, "_CHUNK", chunk)
            code, outs[chunk], err = run_cli(capsys, *argv)
            assert code == 0, err
            assert outs[chunk] == outs[points], chunk
        assert len(parse_csv(outs[1])[1]) == points
        if command == "smile":
            assert ",\n" in outs[1]     # blank cells were written
        if command == "simulate":     # its analytic column is price's call column
            _, price, _ = run_cli(capsys, *argv[:-1], "price")
            assert ([row[3] for row in parse_csv(outs[1])[1]]
                    == [row[1] for row in parse_csv(price)[1]])

    @pytest.mark.parametrize("command, max_bytes", [("price", 64), ("greeks", 64),
                                                    ("smile", 128)])
    def test_traced_memory_per_grid_point(self, tmp_path, command, max_bytes):
        # besides the grid, built before the trace, price holds three 8-byte
        # columns and greeks one; smile holds its formatted cells, about
        # 72 B each with the list's pointer.  Building every temporary, or
        # the whole CSV text, at once costs 200-320 B per point.
        args = cli._parser().parse_args([command, "--output", str(tmp_path / "out.csv")])
        args.func(cli.build_config([], []), args)   # imports outside the trace
        peaks = {}
        for points in (2_001, 20_001):
            cfg = cli.build_config([], [("moneyness_points", str(points))])
            tracemalloc.start()
            try:
                for out, header, columns in args.func(cfg, args):
                    cli._emit(header, columns, out)
                peaks[points] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_point = (peaks[20_001] - peaks[2_001]) / 18_000
        assert per_point < max_bytes, f"{per_point:.0f} B per grid point"


class TestEmit:
    def test_row_format_matches_per_cell_format(self, capsys):
        # one %.12g row format over .tolist() cells prints what formatting
        # each numpy cell on its own prints, special values included
        vals = np.array([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan,
                         1e300, -1.234567890123456, 7.0, 1e12, 123456789012345.0])
        ints = np.arange(len(vals)) * 10**11
        flags = ["true", ""] * (len(vals) // 2)
        cli._emit("a,b,c", (vals, ints, flags), None)
        want = ["a,b,c"] + [f"{v:.12g},{i:.12g},{f}" for v, i, f in zip(vals, ints, flags)]
        assert capsys.readouterr().out == "\n".join(want) + "\n"

    def test_no_rows_prints_header(self, capsys):
        cli._emit("a,b", ([], np.empty(0)), None)
        assert capsys.readouterr().out == "a,b\n"

    TABLE = ("x,n,flag,t", (np.linspace(-1.0, 1.0, 23), np.arange(23) * 10**11,
                            ["true", "", "nan"] * 7 + ["", "x"], tuple(range(23))))

    @pytest.mark.parametrize("chunk", [1, 7, 23])
    def test_same_text_at_any_chunk_size(self, capsys, monkeypatch, chunk):
        header, columns = self.TABLE
        cli._emit(header, columns, None)
        whole = capsys.readouterr().out
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        cli._emit(header, columns, None)
        assert capsys.readouterr().out == whole
        assert whole.count("\n") == 24 and whole.endswith(",x,22\n")

    def test_file_and_stdout_bytes_agree(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "_CHUNK", 7)
        header, columns = self.TABLE
        cli._emit(header, columns, None)
        cli._emit(header, columns, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_bytes() == capsys.readouterr().out.encode()


class TestImport:
    @staticmethod
    def run_fresh(script, **env):
        # OPENBLAS_NUM_THREADS is unset unless given, so the CLI's own
        # setting shows
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**base, "PYTHONPATH": fresh_pythonpath(), **env},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_package_import_loads_no_numpy(self):
        # submodules load on first use, so the CLI can set OpenBLAS's thread
        # count before numpy loads
        assert self.run_fresh("\n".join([
            "import os, sys",
            "env = dict(os.environ)",
            "import expouvol",
            "print('numpy' in sys.modules, dict(os.environ) == env)",
            "expouvol.ModelParams",
            "print('numpy' in sys.modules)",
        ])) == ["False True", "True"]

    def test_public_names_unchanged(self):
        # every name the eager imports bound, submodules included
        names = ["ExpansionCoeffs", "ImpliedVolError", "MartingaleParams", "ModelParams",
                 "OptionQuote", "OptionSpec", "PriceBreakdown", "QuoteError", "SimConfig",
                 "SmilePoint", "TRADING_DAYS_PER_YEAR", "annualize_vol", "bs_call",
                 "calibrate_risk_aversion", "calibration", "call_components",
                 "char_fn_expanded", "char_fn_full", "daily_rate", "daily_vol", "delta",
                 "expansion_coeffs", "expansion_coeffs_averaged", "expou_call", "expou_put",
                 "hermite_poly", "implied", "implied_vol", "leverage", "load_quotes", "mc",
                 "mc_call_prices", "mc_return_stats", "model", "negative_mass_fraction",
                 "norm_cdf", "norm_pdf", "ou_conditional_moments", "pricing",
                 "regime_warning", "reprice_quotes", "return_density", "risk_neutral",
                 "simulate_paths", "smile_curve", "squared_return_autocorr",
                 "to_martingale", "units", "vol_conditional_pdf", "vol_stationary_pdf",
                 "y0_from_vol_index"]
        assert self.run_fresh("\n".join([
            "import expouvol",
            "print([n for n in dir(expouvol) if not n.startswith('_')])",
            "print(expouvol.__all__)",
        ])) == [repr(names)] * 2
        import expouvol
        assert expouvol.mc_call_prices is expouvol.mc.mc_call_prices
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            expouvol.bogus

    # what no closed-form command runs, standard-library imports included
    HEAVY = {"expouvol.mc", "expouvol.calibration", "expouvol.implied",
             "concurrent.futures", "queue", "logging", "csv"}

    @pytest.mark.parametrize("command, loads, skips", [
        ("price", set(), HEAVY),
        ("greeks", set(), HEAVY),
        ("density", set(), HEAVY | {"expouvol.pricing"}),
        ("smile", {"expouvol.implied"}, {"expouvol.mc", "expouvol.calibration"}),
        ("simulate", {"expouvol.mc"}, {"expouvol.calibration", "csv"}),
        ("stats", {"expouvol.mc"}, {"expouvol.calibration", "expouvol.pricing", "csv"}),
        ("calibrate", {"expouvol.calibration"}, {"expouvol.mc", "concurrent.futures"}),
    ], ids=["price", "greeks", "density", "smile", "simulate", "stats", "calibrate"])
    def test_each_command_loads_what_it_runs(self, tmp_path, command, loads, skips):
        argv = {"simulate": ["--set", "n_paths=64", "--set", "dt=1"],
                "stats": ["--set", "n_paths=64", "--set", "dt=1", "--set", "tau_grid=0,1"],
                "calibrate": ["--set", "sigma0_annual=0.1655", "--set", "maturity_days=10"],
                }.get(command, []) + [command, "--output", str(tmp_path / "out.csv")]
        if command == "calibrate":
            argv += ["--quotes", str(TestCalibrate().make_chain(tmp_path))]
        code, *loaded = self.run_fresh("\n".join([
            "import sys, expouvol.cli",
            f"print(expouvol.cli.main({argv!r}))",
            "print(*sys.modules, sep='\\n')",
        ]), EXPOUVOL_CONFIG="")
        assert code == "0"
        assert loads <= set(loaded) and not skips & set(loaded)

    def test_moved_names_are_one_object(self):
        # the names build_config needs moved to model: the old paths still
        # reach them, and the package's names load neither mc nor calibration
        moved = {"SimConfig": "mc", "PATH_BUDGET": "mc", "_day_steps": "mc",
                 "QuoteError": "calibration", "y0_from_vol_index": "calibration"}
        assert self.run_fresh("\n".join([
            "import sys, expouvol",
            "[expouvol.SimConfig, expouvol.QuoteError, expouvol.y0_from_vol_index]",
            "print(sorted(m for m in sys.modules if m.startswith('expouvol.')))",
        ])) == [repr(["expouvol.model", "expouvol.units"])]
        import expouvol
        from expouvol import model
        for name, old in moved.items():
            obj = getattr(model, name)
            assert getattr(importlib.import_module(f"expouvol.{old}"), name) is obj, name
            if name in expouvol.__all__:
                assert getattr(expouvol, name) is obj, name

    def test_cli_import_leaves_one_thread(self):
        # OpenBLAS would start one spinning worker per extra CPU; the CLI
        # process runs it on one thread, whatever the environment asked
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count this process's threads")
        assert self.run_fresh("\n".join([
            "import os, expouvol.cli",
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])",
        ]), OPENBLAS_NUM_THREADS="2") == ["1 1"]

    def test_cli_import_after_numpy_leaves_environment(self):
        assert self.run_fresh("\n".join([
            "import os, numpy",
            "env = dict(os.environ)",
            "import expouvol.cli",
            "print(dict(os.environ) == env, 'OPENBLAS_NUM_THREADS' in os.environ)",
        ])) == ["True False"]

    def test_import_skips_scipy_stats(self):
        # scipy.stats and scipy.optimize would each cost more than the
        # package's whole import; neither the import nor a calibration fit
        # loads them
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

    def test_no_scipy_on_any_run_path(self, tmp_path):
        # scipy is a test-only oracle: no scipy module, scipy.special
        # included, loads on import or in any command
        chain = TestCalibrate().make_chain(tmp_path)
        out = ["--output", str(tmp_path / "out.csv")]
        small = ["--set", "n_paths=2000", "--set", "dt=1"]
        runs = [["price", *out], ["smile", *out], ["greeks", *out], ["density", *out],
                [*small, "simulate", *out, "--dump-paths", str(tmp_path / "paths.csv")],
                [*small, "--set", "tau_grid=0,1,5", "stats", *out],
                ["--set", "sigma0_annual=0.1655", "--set", "maturity_days=10",
                 "calibrate", *out, "--quotes", str(chain),
                 "--repricing", str(tmp_path / "reprice.csv")]]
        script = "\n".join([
            "import sys",
            "import expouvol.cli",
            "def scipy_mods():",
            "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]",
            "print(repr(('import', scipy_mods())))",
            f"for argv in {runs!r}:",
            "    code = expouvol.cli.main(argv)",
            "    print(repr((argv[argv.index('--output') - 1], code, scipy_mods())))",
        ])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [repr(("import", []))] + [
            repr((cmd, 0, [])) for cmd in ("price", "smile", "greeks", "density",
                                           "simulate", "stats", "calibrate")]
