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
only inside to_martingale, with Python's message about sequences.
"""

import math
import re

import numpy as np
import pytest

from expouvol import (
    ExpansionCoeffs,
    MartingaleParams,
    ModelParams,
    OptionQuote,
    OptionSpec,
    SimConfig,
    char_fn_full,
    expansion_coeffs,
    ou_conditional_moments,
    squared_return_autocorr,
    to_martingale,
    y0_from_vol_index,
)
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
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}, got {re.escape(str(bad))}$"):
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
    ("0.1", r"lie in \[-1, 1\], got 0\.1"),
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
