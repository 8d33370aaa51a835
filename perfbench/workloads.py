"""Workload definitions: the CLI commands each workload runs, and its sizes.

A workload is a list of ``python -m expouvol.cli`` argument lists run one
after another.  ``{work}`` in an argument is filled in by the driver with the
run's scratch directory, which holds the config and quote-chain files
written during set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

# The chain_fit quote chain: generated at the default risk aversion
# (lambda0 = lambda1 = 1e-3) from an annualized vol-index level, then
# perturbed by seeded uniform mid noise.
CHAIN_SIGMA0_ANNUAL = 0.1655
CHAIN_STRIKE_LO, CHAIN_STRIKE_HI = 92.0, 108.0
CHAIN_NOISE = 0.01        # mid noise half-width and bid/ask half-spread
SPOT = 100.0

# Every command reads this config file.  It spells out the reference
# parameter set, so the workloads do not move if a CLI default changes.
CONFIG = """\
m = 0.01
alpha = 0.008
k = 0.11
rho = -0.4
lambda0 = 0.001
lambda1 = 0.001
spot = 100.0
rate_annual = 0.0
maturity_days = 20.0
dt = 0.1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple                  # argument lists after the global options
    chain_maturities: tuple = ()     # days; empty when no chain is needed
    chain_strikes: int = 0
    path_steps: int = 0              # computed MC work, for the trace metrics
    normals: int = 0
    panel_bytes: int = 0


def _mc(n_paths, n_steps, stationary_start=False):
    """Computed MC work: path-steps and standard normals drawn (two per step)."""
    steps = n_paths * n_steps
    return steps, 2 * steps + (n_paths if stationary_start else 0)


def build(name: str, tiny: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` shrinks it for the smoke test."""
    if name == "cli_quick":
        return Workload(
            name, "start-up and import cost of four closed-form commands; "
                  "bypasses mc and calibration",
            commands=(["price"], ["smile"], ["greeks"], ["density"]))
    if name == "chain_fit":
        # Tiny keeps every maturity: with only two, lambda1 is so weakly
        # identified that the simplex search can stop at its iteration cap.
        smile_points = 101 if tiny else 5001
        return Workload(
            name, "risk-aversion fit to a seeded multi-maturity chain plus a "
                  "dense smile: pricing, risk_neutral, calibration, implied",
            commands=(["--set", f"sigma0_annual={CHAIN_SIGMA0_ANNUAL}",
                       "calibrate", "--quotes", "{work}/chain.csv",
                       "--repricing", "{work}/repricing.csv"],
                      ["--set", f"moneyness_points={smile_points}", "smile"]),
            chain_maturities=(5.0, 10.0, 20.0, 30.0, 40.0, 60.0),
            chain_strikes=9 if tiny else 41)
    if name == "mc_price":
        n_paths = 8192 if tiny else 200_000
        steps, normals = _mc(n_paths, 200)
        return Workload(
            name, "martingale-measure MC pricing: the streaming path engine "
                  "on terminal states only",
            commands=(["--set", f"n_paths={n_paths}", "simulate"],),
            path_steps=steps, normals=normals)
    if name == "mc_stats":
        n_paths = 4096 if tiny else 100_000
        # stats simulates max(tau_grid)/dt + 100 = 300 steps at the defaults.
        steps, normals = _mc(n_paths, 300, stationary_start=True)
        return Workload(
            name, "physical-measure MC statistics: full return panel and "
                  "bootstrap; the one workload where memory dominates",
            commands=(["--set", f"n_paths={n_paths}", "stats"],),
            path_steps=steps, normals=normals, panel_bytes=steps * 8)
    raise KeyError(name)


NAMES = ("cli_quick", "chain_fit", "mc_price", "mc_stats")
