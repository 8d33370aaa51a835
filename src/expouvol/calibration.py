"""Risk-aversion calibration against an option chain.

Given fixed physical model parameters and a file of quoted call prices,
fit the two market-price-of-risk constants (lambda0, lambda1) to mid
prices by Levenberg-Marquardt (More 1978) on the residuals model - mid of
``_chain_price``, which ``reprice_quotes`` shares: one kernel call prices
every quote at every maturity.  The Jacobian is a central difference,
one-sided where a probe would break alpha + k*lambda1 > 0.  The damping,
of diag(J'J) at its running maximum, goes up 10x after a trial step that
raises the sum of squares or cannot be priced (that bound broken, or the
expansion overflowing), down 10x after an accepted one.  Steps are
clipped to |lambda| <= LAMBDA_BOUND; a parameter on that box whose
gradient points out of it is held there.  The quote CSV that load_quotes
reads (the package writes none) has the header ``strike,maturity_days,bid,ask``
(mid computed) or ``strike,maturity_days,mid``; a UTF-8 BOM is skipped.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import ModelParams, QuoteError, _check, y0_from_vol_index
from .pricing import OptionSpec, _call_prices
from .risk_neutral import RiskAversion, expansion_coeffs, to_martingale

__all__ = [
    "OptionQuote",
    "CalibResult",
    "QuoteLoadResult",
    "load_quotes",
    "calibrate_risk_aversion",
    "reprice_quotes",
]

LAMBDA_BOUND = 1.0
MAX_ITER = 500
FD_STEP = 1e-7
STEP_TOL = 1e-12


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
    numbers; a missing or unusable header, or bytes that are not UTF-8,
    raise QuoteError outright.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel writes a BOM
        try:
            return _read_quotes(path, csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise QuoteError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read_quotes(path, reader) -> QuoteLoadResult:
    """The rows of load_quotes' reader, checked header first."""
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise QuoteError(f"{path}: empty file") from None
    if header[:2] != ["strike", "maturity_days"]:
        raise QuoteError(f"{path}: header must start with strike,maturity_days")
    if header[2:] not in (["bid", "ask"], ["mid"]):
        raise QuoteError(f"{path}: columns after maturity_days must be bid,ask or mid")
    mid_only = header[2:] == ["mid"]

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


def _chain_spec(quotes, spot: float, r: float) -> OptionSpec:
    """One OptionSpec over every quote's strike and maturity, in quote order."""
    return OptionSpec(spot, np.array([q.strike for q in quotes]),
                      np.array([q.maturity for q in quotes]), r)


def _chain_price(lambda0: float, lambda1: float, spec: OptionSpec, p: ModelParams,
                 y0: float) -> np.ndarray:
    """Model prices of a ``_chain_spec`` chain, in quote order, from one kernel call."""
    mp = to_martingale(p, RiskAversion(lambda0, lambda1), y0)
    return _call_prices(spec, mp, expansion_coeffs(mp, spec.maturity, spec.rate))[4]


def calibrate_risk_aversion(quotes: Sequence[OptionQuote], p: ModelParams,
                            spot: float, r: float, y0: float) -> CalibResult:
    """Least-squares fit of (lambda0, lambda1) to quoted mid prices.

    Levenberg-Marquardt from (0, 0), as in the module docstring.  ``iterations``
    counts trial steps, accepted or not; ``converged`` means one fell below
    STEP_TOL in max-norm within MAX_ITER of them.  rmse is that of the
    residuals at the returned parameters.
    """
    if len(quotes) < 2:
        raise ValueError("underdetermined: need at least 2 quotes for 2 parameters")
    mids = np.array([q.mid for q in quotes])
    spec = _chain_spec(quotes, spot, r)

    def residuals(x):
        return _chain_price(x[0], x[1], spec, p, y0) - mids

    x, f = np.zeros(2), residuals(np.zeros(2))
    scale, damping, jac = np.zeros(2), 1e-3, None
    for iterations in range(1, MAX_ITER + 1):
        if jac is None:  # at the start and after each accepted step
            jac = np.empty((mids.size, 2))
            for i, e in enumerate(np.eye(2) * FD_STEP):
                lo = x - e if p.alpha + p.k * (x - e)[1] > 0 else x
                jac[:, i] = (residuals(x + e) - residuals(lo)) / (x + e - lo)[i]
            jtj, grad = jac.T @ jac, jac.T @ f
            scale = np.maximum(scale, np.diag(jtj))
            free = ~((np.abs(x) == LAMBDA_BOUND) & (x * grad < 0))  # else held on the box
        step, lhs = np.zeros(2), jtj + damping * np.diag(scale)
        step[free] = np.linalg.solve(lhs[np.ix_(free, free)], -grad[free])
        trial = np.clip(x + step, -LAMBDA_BOUND, LAMBDA_BOUND)
        converged = bool(np.max(np.abs(trial - x)) < STEP_TOL)
        if converged:
            break
        try:  # no measure (alpha + k*lambda1 <= 0, m_bar out of range), or an overflow
            f_new = residuals(trial)
        except (ValueError, ArithmeticError):
            f_new = np.full(mids.size, np.inf)
        if f_new @ f_new <= f @ f:
            x, f, damping, jac = trial, f_new, damping / 10, None
        else:
            damping *= 10
    return CalibResult(lambda0=float(x[0]), lambda1=float(x[1]),
                       rmse=float(np.sqrt(np.mean(f * f))), n_quotes=len(quotes),
                       converged=converged, iterations=iterations)


def reprice_quotes(result: CalibResult, quotes: Sequence[OptionQuote],
                   p: ModelParams, spot: float, r: float, y0: float):
    """Per-quote model prices and residuals at the fitted parameters."""
    model = _chain_price(result.lambda0, result.lambda1, _chain_spec(quotes, spot, r), p, y0)
    return [(q.strike, q.mid, float(mv), float(mv - q.mid))
            for q, mv in zip(quotes, model)]
