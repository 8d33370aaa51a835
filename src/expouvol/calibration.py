"""Risk-aversion calibration against an option chain.

Given fixed physical model parameters and a file of quoted call prices,
fit the two market-price-of-risk constants (lambda0, lambda1) by least
squares on mid prices with a bounded derivative-free simplex search.
The quote CSV carries a header ``strike,maturity_days,bid,ask`` (mid is
computed) or ``strike,maturity_days,mid``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, _check
from .pricing import OptionSpec, _call_prices
from .risk_neutral import RiskAversion, expansion_coeffs, to_martingale
from .units import daily_vol

__all__ = [
    "OptionQuote",
    "CalibResult",
    "QuoteError",
    "QuoteLoadResult",
    "load_quotes",
    "y0_from_vol_index",
    "calibrate_risk_aversion",
    "reprice_quotes",
]

LAMBDA_BOUND = 1.0
MAX_ITER = 500
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class OptionQuote:
    """One observed call quote: strike, maturity (days) and bid/ask/mid."""

    strike: float
    maturity: float
    bid: float
    ask: float
    mid: float

    def __post_init__(self):
        for name in ("strike", "maturity", "bid", "ask", "mid"):
            _check(name, getattr(self, name), positive=name in ("strike", "maturity"))
        if not (0 < self.bid <= self.mid <= self.ask):
            raise ValueError(
                f"prices must satisfy 0 < bid <= mid <= ask, got "
                f"bid={self.bid} mid={self.mid} ask={self.ask}")


@dataclass(frozen=True)
class CalibResult:
    """Fitted risk-aversion pair with fit diagnostics."""

    lambda0: float
    lambda1: float
    rmse: float
    n_quotes: int
    converged: bool
    iterations: int


class QuoteError(ValueError):
    """Quote file cannot be used; carries per-row (line, reason) details."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = tuple(rows)


@dataclass(frozen=True)
class QuoteLoadResult:
    """Quotes that parsed cleanly plus (line_number, reason) rejects."""

    quotes: tuple
    rejects: tuple

    def summary(self) -> str:
        lines = [f"{len(self.quotes)} quotes loaded, {len(self.rejects)} rows rejected"]
        lines += [f"  line {ln}: {reason}" for ln, reason in self.rejects]
        return "\n".join(lines)


def load_quotes(path) -> QuoteLoadResult:
    """Read an option-chain CSV, validating row by row.

    Rows with missing or non-numeric fields, or that OptionQuote refuses
    (its message is the reason), are rejected individually with their line
    numbers; a missing or unusable header raises QuoteError outright.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise QuoteError(f"{path}: empty file") from None
        if header[:2] != ["strike", "maturity_days"]:
            raise QuoteError(f"{path}: header must start with strike,maturity_days")
        if header[2:] == ["bid", "ask"]:
            mid_only = False
        elif header[2:] == ["mid"]:
            mid_only = True
        else:
            raise QuoteError(
                f"{path}: columns after maturity_days must be bid,ask or mid")

        quotes, rejects = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                vals = [float(c) for c in row]
            except ValueError:
                rejects.append((line_no, "non-numeric field"))
                continue
            if len(vals) != len(header):
                rejects.append((line_no, f"expected {len(header)} fields, got {len(vals)}"))
                continue
            strike, mat, bid = vals[:3]
            ask = bid if mid_only else vals[3]
            mid = bid if mid_only else 0.5 * (bid + ask)
            try:
                quotes.append(OptionQuote(strike=strike, maturity=mat, bid=bid,
                                          ask=ask, mid=mid))
            except ValueError as exc:
                rejects.append((line_no, str(exc)))
    return QuoteLoadResult(quotes=tuple(quotes), rejects=tuple(rejects))


def write_quotes(quotes: Sequence[OptionQuote], path) -> None:
    """Write quotes back out in the bid/ask schema (round-trips load_quotes).

    Full shortest-repr float precision, so read-back is value-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strike", "maturity_days", "bid", "ask"])
        for q in quotes:
            writer.writerow([repr(float(q.strike)), repr(float(q.maturity)),
                             repr(float(q.bid)), repr(float(q.ask))])


def y0_from_vol_index(sigma0_annual: float, m: float) -> float:
    """Initial log-volatility from an annualized vol index: ln(sigma0_daily/m)."""
    _check("sigma0", sigma0_annual)
    _check("m", m)
    return math.log(daily_vol(sigma0_annual) / m)


def _chain_specs(quotes, spot: float, r: float) -> list:
    """(quote indices, OptionSpec over their strikes) per distinct maturity."""
    strikes = np.array([q.strike for q in quotes])
    maturities = np.array([q.maturity for q in quotes])
    groups = [np.flatnonzero(maturities == t) for t in np.unique(maturities)]
    return [(idx, OptionSpec(spot, strikes[idx], quotes[idx[0]].maturity, r))
            for idx in groups]


def _chain_price(lambda0: float, lambda1: float, chain, p: ModelParams,
                 y0: float) -> np.ndarray:
    """Model prices of a ``_chain_specs`` chain, in quote order."""
    mp = to_martingale(p, RiskAversion(lambda0, lambda1), y0)
    out = np.empty(sum(idx.size for idx, _ in chain))
    for idx, spec in chain:
        coeffs = expansion_coeffs(mp, spec.maturity, spec.rate)
        out[idx] = _call_prices(spec, mp, coeffs)[4]
    return out


def calibrate_risk_aversion(quotes: Sequence[OptionQuote], p: ModelParams,
                            spot: float, r: float, y0: float) -> CalibResult:
    """Least-squares fit of (lambda0, lambda1) to quoted mid prices.

    Nelder-Mead from (0, 0) with |lambda| <= 1 bounds and a penalty
    keeping alpha + k*lambda1 positive; converges when the simplex
    shrinks below 1e-9 or after 500 iterations.

    The reported rmse is the root-mean-square repricing error recomputed
    at the returned parameters.
    """
    if len(quotes) < 2:
        raise ValueError("underdetermined: need at least 2 quotes for 2 parameters")
    from scipy.optimize import minimize  # deferred: costs ~0.3 s of import time
    mids = np.array([q.mid for q in quotes])
    chain = _chain_specs(quotes, spot, r)

    def objective(x):
        l0, l1 = x
        if p.alpha + p.k * l1 <= 0:
            return 1e12 * (1.0 + abs(p.alpha + p.k * l1))
        resid = _chain_price(l0, l1, chain, p, y0) - mids
        return float(np.sum(resid * resid))

    res = minimize(objective, x0=np.zeros(2), method="Nelder-Mead",
                   bounds=[(-LAMBDA_BOUND, LAMBDA_BOUND)] * 2,
                   options={"xatol": SIMPLEX_TOL, "fatol": 1e-18,
                            "maxiter": MAX_ITER, "maxfev": 4 * MAX_ITER})
    l0, l1 = float(res.x[0]), float(res.x[1])
    resid = _chain_price(l0, l1, chain, p, y0) - mids
    rmse = float(np.sqrt(np.mean(resid * resid)))
    return CalibResult(lambda0=l0, lambda1=l1, rmse=rmse, n_quotes=len(quotes),
                       converged=bool(res.success), iterations=int(res.nit))


def reprice_quotes(result: CalibResult, quotes: Sequence[OptionQuote],
                   p: ModelParams, spot: float, r: float, y0: float):
    """Per-quote model prices and residuals at the fitted parameters."""
    model = _chain_price(result.lambda0, result.lambda1,
                         _chain_specs(quotes, spot, r), p, y0)
    return [(q.strike, q.mid, float(mv), float(mv - q.mid))
            for q, mv in zip(quotes, model)]
