"""expOU stochastic-volatility toolkit.

Physical-measure model diagnostics, the risk-neutral Hermite expansion,
closed-form European option pricing with delta, implied-volatility smile
curves, a seeded Monte Carlo oracle and risk-aversion calibration.
"""

from .model import (
    ModelParams,
    leverage,
    ou_conditional_moments,
    squared_return_autocorr,
    vol_conditional_pdf,
    vol_stationary_pdf,
)
from .risk_neutral import (
    ExpansionCoeffs,
    MartingaleParams,
    RiskAversion,
    char_fn_expanded,
    char_fn_full,
    expansion_coeffs,
    expansion_coeffs_averaged,
    hermite_poly,
    negative_mass_fraction,
    regime_warning,
    return_density,
    to_martingale,
)
from .pricing import (
    OptionSpec,
    PriceBreakdown,
    bs_call,
    call_components,
    delta,
    expou_call,
    expou_put,
    norm_cdf,
    norm_pdf,
)
from .implied import ImpliedVolError, SmilePoint, implied_vol, smile_curve
from .mc import (
    SimConfig,
    mc_call_prices,
    mc_return_stats,
    simulate_paths,
)
from .calibration import (
    OptionQuote,
    QuoteError,
    calibrate_risk_aversion,
    load_quotes,
    reprice_quotes,
    y0_from_vol_index,
)
from .units import TRADING_DAYS_PER_YEAR, annualize_vol, daily_rate, daily_vol

__version__ = "0.1.0"
