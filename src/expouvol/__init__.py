"""expOU stochastic-volatility toolkit.

Physical-measure model diagnostics, the risk-neutral Hermite expansion,
closed-form European option pricing with delta, implied-volatility smile
curves, a seeded Monte Carlo oracle and risk-aversion calibration.

Submodules load the first time one of their names is used (PEP 562), so
``import expouvol`` alone loads no numpy; ``expouvol.cli`` relies on that
to choose OpenBLAS's thread count before numpy starts.
"""

import importlib as _importlib

__version__ = "0.1.0"

#: Each public name, and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(["ModelParams", "QuoteError", "SimConfig", "leverage",
                     "ou_conditional_moments", "squared_return_autocorr",
                     "vol_conditional_pdf", "vol_stationary_pdf", "y0_from_vol_index"],
                    "model"),
    **dict.fromkeys(["ExpansionCoeffs", "MartingaleParams", "char_fn_expanded",
                     "char_fn_full", "expansion_coeffs", "expansion_coeffs_averaged",
                     "hermite_poly", "negative_mass_fraction", "regime_warning",
                     "return_density", "to_martingale"], "risk_neutral"),
    **dict.fromkeys(["OptionSpec", "PriceBreakdown", "bs_call", "call_components",
                     "delta", "expou_call", "expou_put", "norm_cdf", "norm_pdf"],
                    "pricing"),
    **dict.fromkeys(["ImpliedVolError", "SmilePoint", "implied_vol", "smile_curve"],
                    "implied"),
    **dict.fromkeys(["mc_call_prices", "mc_return_stats", "simulate_paths"], "mc"),
    **dict.fromkeys(["OptionQuote", "calibrate_risk_aversion", "load_quotes",
                     "reprice_quotes"], "calibration"),
    **dict.fromkeys(["TRADING_DAYS_PER_YEAR", "annualize_vol", "daily_rate",
                     "daily_vol"], "units"),
}

__all__ = sorted({*_EXPORTS, *_EXPORTS.values()})


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(_importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _EXPORTS.values():
        return _importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
