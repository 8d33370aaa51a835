"""Black-Scholes implied volatility inversion and smile curves.

The solver inverts ``bs_call`` for any price inside the no-arbitrage band
(max(S - K e^{-rT}, 0), S) with a bracketed Newton iteration: Newton steps
accelerated by the analytic vega, falling back to bisection whenever a
step leaves the bracket, in lockstep over every lane of a broadcast
(price, spec).  ``smile_curve`` takes the pricer's (spec, mp, coeffs) and
inverts the expansion price on every lane.  Volatilities are in daily
units internally; smile points report annualized values (x sqrt(252)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import _check
from .pricing import OptionSpec, _bs, _call_prices, norm_pdf
from .risk_neutral import ExpansionCoeffs, MartingaleParams
from .units import annualize_vol

__all__ = ["SmilePoint", "ImpliedVolError", "implied_vol", "smile_curve"]

VOL_LO = 1e-6    # day^(-1/2), lower bracket
VOL_HI = 10.0    # day^(-1/2), upper bracket
PRICE_TOL = 1e-12
MAX_ITER = 100

# Messages for reason codes 1, 2, ..., in the order the solver tests them.
_FAILURES = (
    "price {price:g} is not finite",
    "price {price:g} at or below lower no-arbitrage bound {intrinsic:g} "
    "(discounted intrinsic value)",
    "price {price:g} at or above upper no-arbitrage bound {spot:g} (spot)",
    f"price {{price:g}} below the price at the solver floor {VOL_LO} day^(-1/2)",
    f"price {{price:g}} needs volatility beyond the cap {VOL_HI} day^(-1/2)",
    "no convergence for price {price:g} after {max_iter} iterations",
)


class ImpliedVolError(ValueError):
    """Price not invertible: outside the band or no convergence; message says which."""


@dataclass(frozen=True)
class SmilePoint:
    """One smile sample: moneyness S/K, annualized implied vol, price."""

    moneyness: float
    implied_vol_annual: Optional[float]
    price: float


def _intrinsic(spec: OptionSpec):
    """Discounted intrinsic value max(S - K e^{-rT}, 0), broadcast."""
    return np.maximum(spec.spot - spec.strike * np.exp(-spec.rate * spec.maturity), 0.0)


def _implied_vols(price, spec: OptionSpec):
    """Daily implied vols over the broadcast (price, spec), and reason codes.

    A failed lane has vol NaN and code i > 0 naming ``_FAILURES[i - 1]``.
    """
    price = np.asarray(price, dtype=float)
    why = np.select([~np.isfinite(price),
                     price <= _intrinsic(spec),
                     price >= spec.spot,
                     _bs(spec, VOL_LO)[0] > price,
                     _bs(spec, VOL_HI)[0] < price], range(1, len(_FAILURES)), 0)
    lo, hi, vol = VOL_LO, VOL_HI, 0.01  # 0.01: cheap initial guess
    tol = PRICE_TOL * spec.spot     # relative to spot: the stop scales with the currency
    live = why == 0
    for _ in range(MAX_ITER):
        call, _, (d1, *_) = _bs(spec, vol)
        f = call - price
        live &= ~(np.abs(f) <= tol)
        if not live.any():
            break
        lo, hi = np.where(f > 0, lo, vol), np.where(f > 0, vol, hi)
        v = spec.spot * norm_pdf(d1) * np.sqrt(spec.maturity)
        with np.errstate(all="ignore"):
            nxt = np.where((v > 0) & np.isfinite(v), vol - f / v, math.nan)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
        vol = np.where(live, nxt, vol)
    why = np.where(live, len(_FAILURES), why)
    return np.where(why == 0, vol, math.nan), why


def implied_vol(price: float, spec: OptionSpec) -> float:
    """Daily implied volatility solving bs_call(spec, vol) = price.

    Parameters
    ----------
    price : float
        Call price, strictly inside (max(S - K e^{-rT}, 0), S).

    Raises
    ------
    ValueError
        If price is not a number, or (price, spec) broadcast to more than one option.
    ImpliedVolError
        If the price is not finite, violates a no-arbitrage bound, exceeds
        the price at the solver's volatility cap (10 day^(-1/2)), or the
        iteration does not converge within MAX_ITER steps.
    """
    _check("price", price, "number")
    if (lanes := np.broadcast(price, _intrinsic(spec)).size) != 1:
        raise ValueError(f"implied_vol takes one lane, got {lanes}; see smile_curve")
    vol, why = _implied_vols(price, spec)
    if why.item():
        raise ImpliedVolError(_FAILURES[why.item() - 1].format(
            price=np.ravel(price)[0], intrinsic=np.ravel(_intrinsic(spec))[0],
            spot=np.ravel(spec.spot)[0], max_iter=MAX_ITER))
    return vol.item()


def smile_curve(spec: OptionSpec, mp: MartingaleParams,
                coeffs: ExpansionCoeffs) -> list[SmilePoint]:
    """Implied-volatility smile of the expansion call price over the lanes of ``spec``.

    Prices ``spec`` as ``expou_call`` does (``coeffs`` at another maturity
    raise ValueError) and inverts every lane in one solver call.  One point
    per lane of the broadcast spec, in C order, with moneyness S/K; a scalar
    spec gives a one-point list.  A point whose inversion fails carries
    ``implied_vol_annual=None`` instead of aborting the curve.
    """
    prices = _call_prices(spec, mp, coeffs)[4]
    ivs = annualize_vol(_implied_vols(prices, spec)[0])
    lanes = np.broadcast_arrays(spec.spot / spec.strike, ivs, prices)
    return [SmilePoint(moneyness=mon,
                       implied_vol_annual=None if math.isnan(iv) else iv,
                       price=price)
            for mon, iv, price in zip(*(lane.ravel().tolist() for lane in lanes))]
