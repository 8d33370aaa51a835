"""Output checks: each failed check counts its command in ``fail_frac``.

- ``price``: stdout equals tests/golden/price_default.csv byte for byte.
- ``smile``, ``greeks``, ``density``: every value within TABLE_RTOL of the
  values recorded in references.json (see record_references.py); a smile
  point that failed to invert (empty cell) must fail in the reference too.
- ``calibrate``: converged, n_quotes equals the chain's quote count, rmse
  at most the noise half-width, (lambda0, lambda1) within LAMBDA_TOL of
  the reference minimiser from inputs.py, one repricing row per quote.
- ``simulate``, ``stats``: identical bytes on every pass of one run, and
  each MC estimate within MC_Z combined standard errors of its reference.
  An estimate's standard error is the larger of its own and the
  reference's sampling error scaled to the run's path count, since a
  deep out-of-the-money strike with no paths in the money reports 0 +- 0.
  Not gated: simulate's abs_diff against the closed-form price (the
  expansion's documented criterion-6 gap) and the stats row at tau=0 (a
  discrete-proxy artefact).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import workloads

GOLDEN_PRICE = os.path.join("tests", "golden", "price_default.csv")
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")

TABLE_RTOL = 1e-9      # closed-form outputs, printed with 12 digits
LAMBDA_TOL = 1e-5      # fitted risk aversion vs the reference minimiser
MC_Z = 6.0             # MC estimate vs reference, in combined standard errors

SUBCOMMANDS = ("price", "smile", "greeks", "density", "simulate", "stats", "calibrate")


def parse_table(data: bytes) -> dict:
    """CSV text to {"header": [...], "rows": [[float or None, ...], ...]}."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    return {"header": rows[0],
            "rows": [[float(c) if c else None for c in row] for row in rows[1:]]}


def compare_tables(got: dict, ref: dict) -> list:
    if got["header"] != ref["header"]:
        return [f"header {got['header']} != {ref['header']}"]
    if len(got["rows"]) != len(ref["rows"]):
        return [f"{len(got['rows'])} rows, reference has {len(ref['rows'])}"]
    errors = []
    for r, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
        for c, (a, b) in enumerate(zip(row, ref_row)):
            if (a is None) != (b is None) or (
                    a is not None and not abs(a - b) <= TABLE_RTOL * abs(b) + 1e-300):
                errors.append(f"row {r} {ref['header'][c]}: {a} != reference {b}")
    return errors[:5]


def atm_price_and_se(simulate_out: bytes):
    """(mc_price, std_err) of the moneyness-1 row of a simulate output."""
    table = parse_table(simulate_out)
    row = min(table["rows"], key=lambda r: abs(r[0] - 1.0))
    return row[1], row[2]


def _subcommand(cmd):
    return next(a for a in cmd if a in SUBCOMMANDS)


def _n_paths(cmd):
    return next(int(a.split("=", 1)[1]) for a in cmd if a.startswith("n_paths="))


class Checker:
    """Checks the outputs of one workload's commands across passes."""

    def __init__(self, root, wl, work):
        self.root, self.wl, self.work = root, wl, work
        with open(REFERENCES) as fh:
            self.refs = json.load(fh)
        self.minimiser = None
        self.first_output = {}

    def check(self, index, child) -> list:
        if child.code != 0:
            return [f"exit code {child.code}: {child.stderr().strip()[-500:]}"]
        cmd = self.wl.commands[index]
        kind = _subcommand(cmd)
        out = child.stdout()
        try:
            if kind in ("simulate", "stats"):
                first = self.first_output.setdefault(index, out)
                if out != first:
                    return ["output bytes differ from the first pass at the same seed"]
                return getattr(self, f"check_{kind}")(out, _n_paths(cmd))
            return getattr(self, f"check_{kind}")(out)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return [f"unreadable output: {exc!r}"]

    def check_price(self, out):
        with open(os.path.join(self.root, GOLDEN_PRICE), "rb") as fh:
            golden = fh.read()
        if hashlib.sha256(golden).hexdigest() != self.refs["golden_price_sha256"]:
            return [f"{GOLDEN_PRICE} differs from the file recorded in references.json"]
        return [] if out == golden else [f"stdout differs from {GOLDEN_PRICE}"]

    def check_smile(self, out):
        got = parse_table(out)
        ref = self.refs["smile" if len(got["rows"]) == 101 else "smile_5001"]
        return compare_tables(got, ref)

    def check_greeks(self, out):
        return compare_tables(parse_table(out), self.refs["greeks"])

    def check_density(self, out):
        return compare_tables(parse_table(out), self.refs["density"])

    def check_calibrate(self, out):
        table = parse_table(out.replace(b"true", b"1").replace(b"false", b"0"))
        (lambda0, lambda1, rmse, n_quotes, converged, _), = table["rows"]
        with open(os.path.join(self.work, "chain.csv")) as fh:
            n_chain = sum(1 for _ in fh) - 1
        with open(os.path.join(self.work, "repricing.csv")) as fh:
            repriced = [line.split(",") for line in fh.read().splitlines()[1:]]
        ref = self.minimiser
        errors = []
        if converged != 1:
            errors.append("not converged")
        if n_quotes != n_chain:
            errors.append(f"n_quotes {n_quotes:g} != {n_chain} quotes in the chain")
        if not rmse <= workloads.CHAIN_NOISE:
            errors.append(f"rmse {rmse} above the noise half-width {workloads.CHAIN_NOISE}")
        for name, got in (("lambda0", lambda0), ("lambda1", lambda1)):
            if not abs(got - ref[name]) <= LAMBDA_TOL:
                errors.append(f"{name} {got} vs reference minimiser {ref[name]}")
        if len(repriced) != n_chain or any(len(r) != 4 for r in repriced):
            errors.append(f"repricing table has {len(repriced)} rows for {n_chain} quotes")
        return errors

    def check_simulate(self, out, n_paths):
        got, ref = parse_table(out), self.refs["simulate"]
        if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
            return ["simulate table shape differs from the reference"]
        scale = math.sqrt(self.refs["recorded_with"]["ref_paths"] / n_paths)
        errors = []
        for row, ref_row in zip(got["rows"], ref["rows"]):
            mon, price, se = row[:3]
            _, ref_price, ref_se = ref_row[:3]
            bound = MC_Z * math.hypot(max(se, ref_se * scale), ref_se)
            if mon != ref_row[0] or not abs(price - ref_price) <= bound:
                errors.append(f"moneyness {mon}: mc_price {price} +- {se} vs "
                              f"reference {ref_price} +- {ref_se}")
        return errors[:5]

    def check_stats(self, out, n_paths):
        got, ref = parse_table(out), self.refs["stats"]
        if got["header"] != ref["header"] or len(got["rows"]) != len(ref["mean"]):
            return ["stats table shape differs from the reference"]
        n_ref = ref["n_seeds"]
        scale = math.sqrt(self.refs["recorded_with"]["stats_paths"] / n_paths)
        errors = []
        for row, mean, sd in zip(got["rows"], ref["mean"], ref["sd"]):
            tau = row[0]
            if tau != mean[0]:
                errors.append(f"tau {tau} != reference {mean[0]}")
                continue
            if tau == 0:
                continue
            for col in (3, 6):      # closed-form columns
                if not abs(row[col] - mean[col]) <= TABLE_RTOL * abs(mean[col]):
                    errors.append(f"tau {tau} {ref['header'][col]}: {row[col]} vs {mean[col]}")
            for col in (1, 4):      # MC estimate, its bootstrap SE in the next column
                se = max(row[col + 1], sd[col] * scale)
                bound = MC_Z * math.hypot(se, sd[col] / math.sqrt(n_ref))
                if not abs(row[col] - mean[col]) <= bound:
                    errors.append(f"tau {tau} {ref['header'][col]}: {row[col]} +- "
                                  f"{row[col + 1]} vs reference mean {mean[col]}")
        return errors
