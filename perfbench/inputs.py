"""Quote-chain generator and reference minimiser for the chain_fit workload.

Runs as a child process with the package on its path and prices only
through the CLI entry point ``expouvol.cli.main``, so it depends on the
program's documented interface, not on its internals.

    python perfbench/inputs.py chain --config CFG --out CHAIN.csv --seed N \\
        --maturities 5,10,20 --strikes 41
    python perfbench/inputs.py minimiser --config CFG --quotes CHAIN.csv \\
        --maturities 5,10,20 --strikes 41

``chain`` prices a strike grid per maturity at the config's risk aversion,
adds seeded uniform mid noise of +-CHAIN_NOISE, quotes bid/ask at mid
+-CHAIN_NOISE and drops quotes whose bid is not positive.  The strikes
are spot/moneyness on a uniform moneyness grid spanning strikes
CHAIN_STRIKE_LO..CHAIN_STRIKE_HI.  ``minimiser`` fits (lambda0, lambda1)
to the chain's mids by Gauss-Newton least squares (scipy's
``least_squares``), a different method from the program's Nelder-Mead,
and prints the minimiser as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import random
import sys

from workloads import (CHAIN_NOISE, CHAIN_SIGMA0_ANNUAL, CHAIN_STRIKE_HI,
                       CHAIN_STRIKE_LO, SPOT)


def price_grid(cli_main, config, maturity, n_strikes, lambdas=None):
    """{strike text: call price} from one ``price`` command run in-process."""
    argv = ["--config", config,
            "--set", f"sigma0_annual={CHAIN_SIGMA0_ANNUAL}",
            "--set", f"maturity_days={maturity!r}",
            "--set", f"moneyness_min={SPOT / CHAIN_STRIKE_HI!r}",
            "--set", f"moneyness_max={SPOT / CHAIN_STRIKE_LO!r}",
            "--set", f"moneyness_points={n_strikes}"]
    if lambdas is not None:
        argv += ["--set", f"lambda0={float(lambdas[0])!r}",
                 "--set", f"lambda1={float(lambdas[1])!r}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv + ["price"])
    if code != 0:
        raise SystemExit(f"price failed with exit code {code}")
    rows = list(csv.reader(io.StringIO(out.getvalue())))[1:]
    return {repr(SPOT / float(mon)): float(call) for mon, call, _, _ in rows}


def write_chain(cli_main, args):
    rng = random.Random(args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strike", "maturity_days", "bid", "ask"])
        for t in args.maturities:
            for strike, call in price_grid(cli_main, args.config, t, args.strikes).items():
                mid = call + rng.uniform(-CHAIN_NOISE, CHAIN_NOISE)
                bid, ask = mid - CHAIN_NOISE, mid + CHAIN_NOISE
                if bid > 0:
                    writer.writerow([strike, repr(t), repr(bid), repr(ask)])


def fit_minimiser(cli_main, args):
    import numpy as np
    from scipy.optimize import least_squares

    with open(args.quotes, newline="") as fh:
        rows = list(csv.DictReader(fh))
    quotes = [(r["strike"], float(r["maturity_days"]),
               0.5 * (float(r["bid"]) + float(r["ask"]))) for r in rows]
    mids = np.array([mid for _, _, mid in quotes])

    def residuals(lambdas):
        grids = {t: price_grid(cli_main, args.config, t, args.strikes, lambdas)
                 for t in args.maturities}
        return np.array([grids[t][k] for k, t, _ in quotes]) - mids

    fit = least_squares(residuals, x0=np.zeros(2), jac="3-point", diff_step=1e-5,
                        x_scale=1e-3, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    print(json.dumps({"lambda0": float(fit.x[0]), "lambda1": float(fit.x[1]),
                      "n_quotes": len(quotes), "nfev": int(fit.nfev)}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("chain", "minimiser"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--maturities", required=True,
                    type=lambda s: [float(v) for v in s.split(",")])
    ap.add_argument("--strikes", type=int, required=True)
    ap.add_argument("--out")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--quotes")
    args = ap.parse_args(argv)
    from expouvol.cli import main as cli_main
    if args.mode == "chain":
        write_chain(cli_main, args)
    else:
        fit_minimiser(cli_main, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
