"""The numeric-input rule at every public boundary.

One rule, ``expouvol.model._check``, is applied everywhere: every scale
field must be positive and finite, every signed field finite, every
horizon nonnegative (finite first) and a correlation in [-1, 1]; each
refusal is a ValueError that names the field.  A number is a real other
than a bool, or an integer or float array: text, bytes, complex values
and None are refused, and a field that takes one number refuses an array
("must be a single number").  A value that slipped through would surface
far from its cause: an infinite m_bar makes expansion_coeffs divide by
zero, an infinite k or a NaN z0 makes every price NaN, a non-finite risk
aversion gives to_martingale an infinite m_bar, and a text m would fail
only inside to_martingale, with Python's message about sequences.  The
same rule covers every numeric argument of a public function: ARGUMENTS
gives each one's rule, and a walk over the public signatures keeps it
complete.
"""

import dataclasses
import inspect
import math
import numbers
import re

import numpy as np
import pytest

import expouvol
from expouvol import (
    ExpansionCoeffs,
    MartingaleParams,
    ModelParams,
    OptionQuote,
    OptionSpec,
    SimConfig,
    bs_call,
    calibrate_risk_aversion,
    call_components,
    char_fn_expanded,
    char_fn_full,
    expansion_coeffs,
    expansion_coeffs_averaged,
    expou_call,
    implied_vol,
    leverage,
    ou_conditional_moments,
    reprice_quotes,
    return_density,
    simulate_paths,
    squared_return_autocorr,
    to_martingale,
    vol_conditional_pdf,
    vol_stationary_pdf,
    y0_from_vol_index,
)
from expouvol.calibration import CalibResult
from expouvol.cli import _KEYS, main
from expouvol.mc import mc_return_stats

NON_FINITE = (math.nan, math.inf, -math.inf)
NON_POSITIVE = (0.0, -1.0)


REFERENCE = ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)


def _risk_aversion(lambda0, lambda1):
    """to_martingale at the reference parameters: the risk-aversion pair's one boundary."""
    return to_martingale(REFERENCE, lambda0, lambda1, 0.0)


# (constructor, valid keyword arguments, positive fields, signed fields)
BOUNDARIES = {
    "ModelParams": (ModelParams, dict(m=0.01, alpha=8e-3, k=0.11, rho=-0.4),
                    ("m", "alpha", "k"), ()),
    "MartingaleParams": (MartingaleParams,
                         dict(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11, rho=-0.4, z0=0.1),
                         ("m_bar", "alpha_bar", "k"), ("z0",)),
    # the pair (lambda0, lambda1) has no class of its own; to_martingale checks it
    "RiskAversion": (_risk_aversion, dict(lambda0=1e-3, lambda1=1e-3),
                     (), ("lambda0", "lambda1")),
    "OptionSpec": (OptionSpec, dict(spot=100.0, strike=100.0, maturity=20.0, rate=1e-4),
                   ("spot", "strike", "maturity"), ("rate",)),
    "OptionQuote": (OptionQuote, dict(strike=100.0, maturity=10.0, bid=1.0, ask=2.0, mid=1.5),
                    ("strike", "maturity"), ("bid", "ask", "mid")),
    "SimConfig": (SimConfig, dict(n_paths=8, n_steps=10, dt=0.1, seed=1),
                  ("dt",), ()),
}

CASES = [(kind, field, bad, "positive and finite")
         for kind, (_, _, positive, _) in BOUNDARIES.items()
         for field in positive for bad in NON_FINITE + NON_POSITIVE]
CASES += [(kind, field, bad, "finite")
          for kind, (_, _, _, signed) in BOUNDARIES.items()
          for field in signed for bad in NON_FINITE]


@pytest.mark.parametrize("kind", list(BOUNDARIES))
def test_valid_arguments_construct(kind):
    cls, valid, _, _ = BOUNDARIES[kind]
    cls(**valid)


@pytest.mark.parametrize("kind, field, bad, rule", CASES)
def test_dataclass_field_rejected_by_name(kind, field, bad, rule):
    cls, valid, _, _ = BOUNDARIES[kind]
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got "):
        cls(**{**valid, field: bad})


@pytest.mark.parametrize("sigma0, m, field", [
    (math.nan, 0.01, "sigma0"), (math.inf, 0.01, "sigma0"),
    (0.1655, math.nan, "m"), (0.1655, -math.inf, "m"),
])
def test_vol_index_rejects_non_finite(sigma0, m, field):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        y0_from_vol_index(sigma0, m)


@pytest.mark.parametrize("bad", NON_FINITE + NON_POSITIVE)
def test_smile_moneyness_grid_rejected(capsys, monkeypatch, bad):
    # moneyness enters only through the CLI's grid keys; smile_curve takes strikes
    monkeypatch.delenv("EXPOUVOL_CONFIG", raising=False)
    for key in ("moneyness_min", "moneyness_max"):
        code = main(["--set", f"{key}={bad}", "smile"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {key} must be positive and finite, got ")


NUMERIC_KEYS = sorted(k for k, (_, kind) in _KEYS.items() if kind != "bool")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_every_numeric_config_key_rejected(capsys, monkeypatch, key, value):
    monkeypatch.delenv("EXPOUVOL_CONFIG", raising=False)
    code = main(["--set", f"{key}={value}", "price"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert key in err
    assert "Traceback" not in err


FIELDS = sorted({(kind, field, rule) for kind, field, _, rule in CASES})


def _shown(bad):
    """A refused value as a message shows it: by repr unless a number or an array."""
    return str(bad) if isinstance(bad, (numbers.Number, np.generic, np.ndarray)) else repr(bad)


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["true", "false", "numpy-true"])
@pytest.mark.parametrize("kind, field, rule", FIELDS, ids=[f"{k}-{f}" for k, f, _ in FIELDS])
def test_bool_is_not_a_number(kind, field, rule, flag):
    cls, valid, _, _ = BOUNDARIES[kind]
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {flag}$"):
        cls(**{**valid, field: flag})


@pytest.mark.parametrize("bad", ["1.0", b"1.0", 1 + 0j, np.array([1 + 0j]), None],
                         ids=["text", "bytes", "complex", "complex-array", "none"])
@pytest.mark.parametrize("kind, field, rule", FIELDS, ids=[f"{k}-{f}" for k, f, _ in FIELDS])
def test_text_complex_and_none_are_not_numbers(kind, field, rule, bad):
    # text and complex values were accepted or raised TypeError; None already read as NaN
    cls, valid, _, _ = BOUNDARIES[kind]
    shown = re.escape(_shown(bad))
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {shown}$"):
        cls(**{**valid, field: bad})


# every field that takes one number: all but OptionSpec's and SimConfig's integers
SCALAR = [(kind, field) for kind, field, _ in FIELDS if kind != "OptionSpec"]
SCALAR += [("ModelParams", "rho"), ("MartingaleParams", "rho")]


@pytest.mark.parametrize("kind, field", SCALAR, ids=[f"{k}-{f}" for k, f in SCALAR])
def test_scalar_field_refuses_an_array(kind, field):
    cls, valid, _, _ = BOUNDARIES[kind]
    pair = np.array([valid[field]] * 2)
    with pytest.raises(ValueError, match=rf"^{field} must be a single number, got \["):
        cls(**{**valid, field: pair})


@pytest.mark.parametrize("flag", [True, False, np.True_], ids=["true", "false", "numpy-true"])
@pytest.mark.parametrize("field", ["n_paths", "n_steps", "seed"])
def test_bool_is_not_an_integer(field, flag):
    valid = BOUNDARIES["SimConfig"][1]
    with pytest.raises(ValueError, match=r"^n_paths, n_steps and seed must be integers, got "):
        SimConfig(**{**valid, field: flag})


@pytest.mark.parametrize("kind", ["ModelParams", "MartingaleParams"])
@pytest.mark.parametrize("flag", [True, np.True_], ids=["true", "numpy-true"])
def test_bool_is_not_a_correlation(kind, flag):
    cls, valid, _, _ = BOUNDARIES[kind]
    with pytest.raises(ValueError, match=r"^rho must lie in \[-1, 1\], got True$"):
        cls(**{**valid, "rho": flag})


@pytest.mark.parametrize("kind", ["ModelParams", "MartingaleParams"])
@pytest.mark.parametrize("bad, message", [
    ("0.1", r"lie in \[-1, 1\], got '0\.1'"),
    (None, r"lie in \[-1, 1\], got None"),
    (np.array([0.1, 0.2]), r"be a single number, got \[0\.1 0\.2\]"),
], ids=["text", "none", "array"])
def test_text_none_or_array_is_not_a_correlation(kind, bad, message):
    # text and None raised TypeError from <=, the array numpy's "truth value" error
    cls, valid, _, _ = BOUNDARIES[kind]
    with pytest.raises(ValueError, match=rf"^rho must {message}$"):
        cls(**{**valid, "rho": bad})


SHORT_RUN = SimConfig(n_paths=8, n_steps=10, dt=1.0, seed=1)

# (field, a call with it as the value): every site of the nonnegative rule
HORIZONS = [
    pytest.param("t", lambda t: ou_conditional_moments(REFERENCE, 0.0, t),
                 id="ou_conditional_moments"),
    pytest.param("t", lambda t: expansion_coeffs(_risk_aversion(1e-3, 1e-3), t, 0.0),
                 id="expansion_coeffs"),
    pytest.param("tau", lambda tau: squared_return_autocorr(REFERENCE, tau),
                 id="squared_return_autocorr"),
    pytest.param("maturity", lambda t: ExpansionCoeffs(mu=0.0, theta=0.0, sigma3=0.0, kappa=0.0,
                                                       maturity=t), id="ExpansionCoeffs"),
    pytest.param("t_prime", lambda t: char_fn_full(_risk_aversion(1e-3, 1e-3), 1.0, t, 0.0),
                 id="char_fn_full"),
    pytest.param("autocorrelation lag",
                 lambda lag: mc_return_stats(REFERENCE, SHORT_RUN, [], [lag]), id="mc_return_stats"),
]


@pytest.mark.parametrize("field, call", HORIZONS)
def test_negative_horizon_rejected_with_its_value(field, call):
    with pytest.raises(ValueError, match=rf"^{field} must be nonnegative, got -1\.0$"):
        call(-1.0)
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got nan$"):  # finite first
        call(math.nan)


@pytest.mark.parametrize("field", ["spot", "strike", "maturity", "rate"])
def test_bool_array_is_not_numbers(field):
    # element by element, as for any array field
    cls, valid, _, _ = BOUNDARIES["OptionSpec"]
    with pytest.raises(ValueError, match=rf"^{field} must be (positive and )?finite, got "):
        cls(**{**valid, field: np.array([True, True])})


MP = _risk_aversion(1e-3, 1e-3)
COEFFS = expansion_coeffs(MP, 20.0, 0.0)
SPEC = OptionSpec(100.0, 100.0, 20.0, 0.0)
FIT = CalibResult(lambda0=1e-3, lambda1=1e-3, rmse=0.0, n_quotes=2, converged=True,
                  iterations=1)


def _quote(strike):
    """A quote at the model's own price at FIT, so a fit to such quotes ends at once."""
    c = expou_call(OptionSpec(100.0, strike, 20.0, 0.0), MP, COEFFS).total
    return OptionQuote(strike=strike, maturity=20.0, bid=0.99 * c, ask=1.01 * c, mid=c)


QUOTES = [_quote(95.0), _quote(105.0)]

# (function, parameter) -> (name in the message, a call with the value as that
# argument, a valid value, the _check rule, whether it takes one number only).
# Every numeric parameter of every public function has a row; see
# test_every_public_numeric_argument_is_listed.
ARGUMENTS = {
    ("y0_from_vol_index", "sigma0_annual"):
        ("sigma0", lambda v: y0_from_vol_index(v, 0.01), 0.1655, "positive", True),
    ("y0_from_vol_index", "m"):
        ("m", lambda v: y0_from_vol_index(0.1655, v), 0.01, "positive", True),
    ("ou_conditional_moments", "y0"):
        ("y0", lambda v: ou_conditional_moments(REFERENCE, v, 1.0), 0.1, "finite", False),
    ("ou_conditional_moments", "t"):
        ("t", lambda v: ou_conditional_moments(REFERENCE, 0.1, v), 1.0, "nonnegative", False),
    ("vol_conditional_pdf", "sigma"):
        ("sigma", lambda v: vol_conditional_pdf(REFERENCE, v, 1.0, 0.01), 0.01, "positive", False),
    ("vol_conditional_pdf", "t"):
        ("t", lambda v: vol_conditional_pdf(REFERENCE, 0.01, v, 0.01), 1.0, "positive", True),
    ("vol_conditional_pdf", "sigma0"):
        ("sigma0", lambda v: vol_conditional_pdf(REFERENCE, 0.01, 1.0, v), 0.01, "positive", True),
    ("vol_stationary_pdf", "sigma"):
        ("sigma", lambda v: vol_stationary_pdf(REFERENCE, v), 0.01, "positive", False),
    ("squared_return_autocorr", "tau"):
        ("tau", lambda v: squared_return_autocorr(REFERENCE, v), 1.0, "nonnegative", False),
    ("leverage", "tau"):
        ("tau", lambda v: leverage(REFERENCE, v), 1.0, "finite", False),
    ("to_martingale", "lambda0"):
        ("lambda0", lambda v: to_martingale(REFERENCE, v, 1e-3, 0.1), 1e-3, "finite", True),
    ("to_martingale", "lambda1"):
        ("lambda1", lambda v: to_martingale(REFERENCE, 1e-3, v, 0.1), 1e-3, "finite", True),
    ("to_martingale", "y0"):
        ("y0", lambda v: to_martingale(REFERENCE, 1e-3, 1e-3, v), 0.1, "finite", True),
    ("expansion_coeffs", "t"):
        ("t", lambda v: expansion_coeffs(MP, v, 0.0), 20.0, "nonnegative", False),
    ("expansion_coeffs", "r"):
        ("r", lambda v: expansion_coeffs(MP, 20.0, v), 1e-4, "finite", True),
    ("expansion_coeffs_averaged", "t"):
        ("t", lambda v: expansion_coeffs_averaged(MP, v, 0.0), 20.0, "nonnegative", False),
    ("expansion_coeffs_averaged", "r"):
        ("r", lambda v: expansion_coeffs_averaged(MP, 20.0, v), 1e-4, "finite", True),
    ("char_fn_full", "omega1"):
        ("omega1", lambda v: char_fn_full(MP, v, 1.0, 0.0), 1.0, "finite", True),
    ("char_fn_full", "t_prime"):
        ("t_prime", lambda v: char_fn_full(MP, 1.0, v, 0.0), 1.0, "nonnegative", True),
    ("char_fn_full", "v0"):
        ("v0", lambda v: char_fn_full(MP, 1.0, 1.0, v), 0.1, "finite", True),
    ("char_fn_full", "rate"):
        ("rate", lambda v: char_fn_full(MP, 1.0, 1.0, 0.0, v), 1e-4, "finite", True),
    ("char_fn_expanded", "omega"):
        ("omega", lambda v: char_fn_expanded(MP, COEFFS, v), 1.0, "finite", True),
    ("return_density", "x"):
        ("x", lambda v: return_density(MP, COEFFS, v), 0.01, "finite", False),
    ("bs_call", "vol"):
        ("vol", lambda v: bs_call(SPEC, v), 0.01, "positive", False),
    ("call_components", "m_bar"):
        ("m_bar", lambda v: call_components(SPEC, v), 0.01, "positive", False),
    # a NaN or infinite price is a number the solver refuses with its reason, and
    # an array price is refused for its lanes; test_implied covers both
    ("implied_vol", "price"):
        ("price", lambda v: implied_vol(v, SPEC), 2.0, "number", False),
    ("simulate_paths", "y0"):
        ("y0", lambda v: simulate_paths(REFERENCE, SHORT_RUN, v), 0.1, "finite", True),
    ("simulate_paths", "rate"):
        ("rate", lambda v: simulate_paths(REFERENCE, SHORT_RUN, 0.1, v), 1e-4, "finite", True),
    # a grid's value here is one of its lags
    ("mc_return_stats", "leverage_taus"):
        ("leverage lag", lambda v: mc_return_stats(REFERENCE, SHORT_RUN, [v], []), -1.0,
         "finite", True),
    ("mc_return_stats", "autocorr_taus"):
        ("autocorrelation lag", lambda v: mc_return_stats(REFERENCE, SHORT_RUN, [], [v]), 1.0,
         "nonnegative", True),
    # one spot and one r for the whole chain; y0 reaches to_martingale
    ("calibrate_risk_aversion", "spot"):
        ("spot", lambda v: calibrate_risk_aversion(QUOTES, REFERENCE, v, 0.0, 0.0), 100.0,
         "positive", True),
    ("calibrate_risk_aversion", "r"):
        ("r", lambda v: calibrate_risk_aversion(QUOTES, REFERENCE, 100.0, v, 0.0), 0.0,
         "finite", True),
    ("calibrate_risk_aversion", "y0"):
        ("y0", lambda v: calibrate_risk_aversion(QUOTES, REFERENCE, 100.0, 0.0, v), 0.0,
         "finite", True),
    ("reprice_quotes", "spot"):
        ("spot", lambda v: reprice_quotes(FIT, QUOTES, REFERENCE, v, 0.0, 0.0), 100.0,
         "positive", True),
    ("reprice_quotes", "r"):
        ("r", lambda v: reprice_quotes(FIT, QUOTES, REFERENCE, 100.0, v, 0.0), 0.0,
         "finite", True),
    ("reprice_quotes", "y0"):
        ("y0", lambda v: reprice_quotes(FIT, QUOTES, REFERENCE, 100.0, 0.0, v), 0.0,
         "finite", True),
}

#: what a value that is no number must do under each rule ("nonnegative" runs "finite" first)
NOT_A_NUMBER = {"positive": "be positive and finite", "finite": "be finite",
                "nonnegative": "be finite", "number": "be a number"}

NO_NUMBERS = {"text": "1.0", "bytes": b"1.0", "none": None, "nan": math.nan}
REFUSALS = [pytest.param(key, bad, id=f"{key[0]}-{key[1]}-{kind}")
            for key, (_, _, _, rule, _) in ARGUMENTS.items()
            for kind, bad in NO_NUMBERS.items() if not (rule == "number" and kind == "nan")]
KEYS = [pytest.param(key, id=f"{key[0]}-{key[1]}") for key in ARGUMENTS]
SINGLE = [pytest.param(key, id=f"{key[0]}-{key[1]}") for key in ARGUMENTS if ARGUMENTS[key][4]]


@pytest.mark.parametrize("key", KEYS)
def test_argument_accepts_its_valid_value(key):
    _, call, valid, _, _ = ARGUMENTS[key]
    call(valid)


@pytest.mark.parametrize("key, bad", REFUSALS)
def test_argument_refuses_what_is_no_number(key, bad):
    # m_bar, x, price, the leverage lags and every y0 that reaches to_martingale
    # once let some of these through: a TypeError, a NaN or a price came back
    name, call, _, rule, _ = ARGUMENTS[key]
    with pytest.raises(ValueError, match=rf"^{name} must {NOT_A_NUMBER[rule]}, got "
                                         rf"{re.escape(repr(bad))}$"):
        call(bad)


@pytest.mark.parametrize("key", SINGLE)
def test_one_number_argument_refuses_an_array(key):
    name, call, valid, _, _ = ARGUMENTS[key]
    with pytest.raises(ValueError, match=rf"^{name} must be a single number, got \["):
        call(np.array([valid, valid]))


#: element-by-element math helpers, which take any array as numpy ufuncs do
EXEMPT = {"norm_cdf", "norm_pdf", "hermite_poly", "annualize_vol", "daily_vol", "daily_rate"}

PUBLIC = {name: getattr(expouvol, name) for name in expouvol.__all__
          if inspect.isfunction(getattr(expouvol, name))}

#: every dataclass of the package's modules, by name (annotations are strings)
DATACLASSES = {name for module in map(inspect.getmodule, PUBLIC.values())
               for name, obj in vars(module).items() if dataclasses.is_dataclass(obj)}


def _not_a_number(annotation) -> bool:
    """A package dataclass (or a union of them), a quote list or a path."""
    return isinstance(annotation, str) and (
        annotation in ("Sequence[OptionQuote]", "str | os.PathLike")
        or set(annotation.split(" | ")) <= DATACLASSES)


def test_every_public_numeric_argument_is_listed():
    # a new public numeric argument needs a row in ARGUMENTS, so a rule
    listed = {(fn, param) for fn, f in PUBLIC.items() if fn not in EXEMPT
              for param, p in inspect.signature(f).parameters.items()
              if not _not_a_number(p.annotation)}
    assert listed == set(ARGUMENTS)
