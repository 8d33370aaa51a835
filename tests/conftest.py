"""Shared fixtures: the reference parameter set used across the suite, and the
byte-exact tests' runs at other kernel levels."""

import dataclasses

import pytest

from expouvol import ModelParams, RiskAversion, to_martingale
from kernel_levels import Runs


@pytest.fixture(scope="session")
def kernel_level_runs():
    """One pytest subprocess per kernel setting, all started at once."""
    runs = Runs()
    yield runs
    runs.close()


@pytest.fixture
def fig_params():
    """Reference physical parameter set (daily units)."""
    return ModelParams(m=0.01, alpha=8e-3, k=0.11, rho=-0.4)


@pytest.fixture
def fig_risk():
    return RiskAversion(lambda0=1e-3, lambda1=1e-3)


@pytest.fixture
def fig_mp(fig_params, fig_risk):
    """Reference martingale parameters with the shifted log-vol at zero."""
    mp = to_martingale(fig_params, fig_risk, y0=0.0)
    return dataclasses.replace(mp, z0=0.0)
