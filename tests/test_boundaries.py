"""The numeric-input rule at every public boundary.

Every scale field must be positive and finite and every signed field
finite; each refusal is a ValueError that names the field.  A value
that slipped through would surface far from its cause: an infinite
m_bar makes expansion_coeffs divide by zero, an infinite k or a NaN z0
makes every price NaN, and a non-finite risk aversion gives
to_martingale an infinite m_bar.
"""

import math

import numpy as np
import pytest

from expouvol import (
    MartingaleParams,
    ModelParams,
    OptionQuote,
    OptionSpec,
    RiskAversion,
    SimConfig,
    y0_from_vol_index,
)
from expouvol.cli import _KEYS, main

NON_FINITE = (math.nan, math.inf, -math.inf)
NON_POSITIVE = (0.0, -1.0)

# (constructor, valid keyword arguments, positive fields, signed fields)
BOUNDARIES = {
    "ModelParams": (ModelParams, dict(m=0.01, alpha=8e-3, k=0.11, rho=-0.4),
                    ("m", "alpha", "k"), ()),
    "MartingaleParams": (MartingaleParams,
                         dict(m_bar=0.0098653, alpha_bar=8.11e-3, k=0.11, rho=-0.4, z0=0.1),
                         ("m_bar", "alpha_bar", "k"), ("z0",)),
    "RiskAversion": (RiskAversion, dict(lambda0=1e-3, lambda1=1e-3),
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


@pytest.mark.parametrize("field", ["spot", "strike", "maturity", "rate"])
def test_bool_array_is_not_numbers(field):
    # element by element, as for any array field
    cls, valid, _, _ = BOUNDARIES["OptionSpec"]
    with pytest.raises(ValueError, match=rf"^{field} must be (positive and )?finite, got "):
        cls(**{**valid, field: np.array([True, True])})
