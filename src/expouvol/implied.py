"""Black-Scholes implied volatility inversion and smile curves.

The solver inverts ``bs_call`` for any price inside the no-arbitrage band
(max(S - K e^{-rT}, 0), S) with a bracketed Newton iteration: Newton steps
accelerated by the analytic vega, falling back to bisection whenever a
step leaves the bracket.  Volatilities are in daily units internally;
smile points report annualized values (x sqrt(252)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .pricing import OptionSpec, _call_prices, _terms, bs_call, norm_pdf
from .risk_neutral import ExpansionCoeffs, MartingaleParams
from .units import annualize_vol

__all__ = ["SmilePoint", "ImpliedVolError", "implied_vol", "smile_curve"]

VOL_LO = 1e-6    # day^(-1/2), lower bracket
VOL_HI = 10.0    # day^(-1/2), upper bracket
PRICE_TOL = 1e-12
MAX_ITER = 100


class ImpliedVolError(ValueError):
    """Price not invertible: outside the band or no convergence; message says which."""


@dataclass(frozen=True)
class SmilePoint:
    """One smile sample: moneyness S/K, annualized implied vol, price."""

    moneyness: float
    implied_vol_annual: Optional[float]
    price: float


def _vega(spec: OptionSpec, vol: float) -> float:
    return spec.spot * norm_pdf(_terms(spec, vol)[0]) * math.sqrt(spec.maturity)


def implied_vol(price: float, spec: OptionSpec) -> float:
    """Daily implied volatility solving bs_call(spec, vol) = price.

    Parameters
    ----------
    price : float
        Call price, strictly inside (max(S - K e^{-rT}, 0), S).

    Raises
    ------
    ImpliedVolError
        If the price violates a no-arbitrage bound, exceeds the price at
        the solver's volatility cap (10 day^(-1/2)), or the iteration does
        not converge within MAX_ITER steps.
    """
    intrinsic = max(spec.spot - spec.strike * math.exp(-spec.rate * spec.maturity), 0.0)
    if price <= intrinsic:
        raise ImpliedVolError(
            f"price {price:g} at or below lower no-arbitrage bound {intrinsic:g} "
            "(discounted intrinsic value)")
    if price >= spec.spot:
        raise ImpliedVolError(
            f"price {price:g} at or above upper no-arbitrage bound {spec.spot:g} (spot)")

    if bs_call(spec, VOL_LO) > price:
        raise ImpliedVolError(
            f"price {price:g} below the price at the solver floor "
            f"{VOL_LO} day^(-1/2)")
    if bs_call(spec, VOL_HI) < price:
        raise ImpliedVolError(
            f"price {price:g} needs volatility beyond the cap {VOL_HI} day^(-1/2)")

    lo, hi, vol = VOL_LO, VOL_HI, 0.01  # 0.01: cheap initial guess
    tol = PRICE_TOL * max(spec.spot, 1.0)
    for _ in range(MAX_ITER):
        f = bs_call(spec, vol) - price
        if abs(f) <= tol:
            return vol
        if f > 0:
            hi = vol
        else:
            lo = vol
        v = _vega(spec, vol)
        nxt = vol - f / v if (v > 0 and math.isfinite(v)) else math.nan
        if not (lo < nxt < hi):
            nxt = 0.5 * (lo + hi)
        vol = nxt
    raise ImpliedVolError(
        f"no convergence for price {price:g} after {MAX_ITER} iterations")


def smile_curve(mp: MartingaleParams,
                coeffs_fn: Callable[[MartingaleParams, float, float], ExpansionCoeffs],
                moneyness_grid: Sequence[float],
                spec_template: OptionSpec) -> list[SmilePoint]:
    """Implied-volatility smile of the expOU price over a moneyness grid.

    The spot is held at ``spec_template.spot`` and the strike set to
    spot/moneyness for each grid point (the price is homogeneous, so the
    smile depends on S/K only).  ``coeffs_fn`` maps (mp, maturity, rate)
    to expansion coefficients, letting callers pick the fixed-z0 or the
    stationary-averaged variant.  Points whose inversion fails carry
    ``implied_vol_annual=None`` instead of aborting the curve.
    """
    if any(g <= 0 for g in moneyness_grid):
        raise ValueError("moneyness grid values must be positive")
    coeffs = coeffs_fn(mp, spec_template.maturity, spec_template.rate)
    spot, t, r = spec_template.spot, spec_template.maturity, spec_template.rate
    strikes = [spot / mon for mon in moneyness_grid]
    prices = _call_prices(OptionSpec(spot, strikes, t, r), mp, coeffs)[4].tolist()
    out = []
    for mon, strike, price in zip(moneyness_grid, strikes, prices):
        try:
            iv = annualize_vol(implied_vol(price, OptionSpec(spot, strike, t, r)))
        except ImpliedVolError:
            iv = None
        out.append(SmilePoint(moneyness=mon, implied_vol_annual=iv, price=price))
    return out
