#!/usr/bin/env python3
"""Coupling-strength convergence study for the two-pointer correlator.

For a geometric ladder of couplings g the script reports the exact
Born-averaged (dx * dx')/g^2 against hbar * sigma^2 and the per-unit
readout discrepancies against the first-order shifts.  The correlator
residual and the per-unit shift errors shrink like g^2; the raw shift
errors shrink like g^3 (the centered symmetric pointer cancels the
even-order terms by parity).

    python scripts/ccr_convergence.py --steps 4
"""

import argparse

import numpy as np

from weaklab import pointer
from weaklab.experiments import ccr_experiment
from weaklab.hilbert import GridConfig, StateVector, gaussian_grid_state, make_grid_ops
from weaklab.weakcorr import weak_value


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--g0", type=float, default=0.04, help="largest coupling")
    ap.add_argument("--steps", type=int, default=4)
    ap.add_argument("--points", type=int, default=128)
    ap.add_argument("--length", type=float, default=40.0)
    args = ap.parse_args()

    rep = GridConfig(args.points, args.length)
    x_op, p_op = make_grid_ops(rep)
    i = gaussian_grid_state(rep, width=rep.length / 24.0)
    x = rep.positions()
    f = StateVector(rep.basis_id, np.exp(-((x - 2.0) ** 2) / 6.76 + 0.35j * x)
                    + 0.6 * np.exp(-((x + 1.5) ** 2) / 4.84 - 0.15j * x))
    x_w = weak_value(i, f, x_op)
    grid = pointer.pointer_grid(1.0)

    print(f"{'g':>8} {'corr/g^2':>12} {'corr resid':>11} "
          f"{'|dev dx|/g':>11} {'|dev dp|/g':>11}")
    gs = [args.g0 / 2**k for k in range(args.steps)]
    sweep = ccr_experiment(rep, sigma=1.0, sigma_prime=1.0, g=gs[0], g_sweep=gs,
                           n_trials=0, run_pointer=False).g_sweep_rows
    for g, corr, _ in sweep:
        stage = pointer.measure_weakly(i, f, x_op, 1.0, g, grid)
        dx = pointer.pointer_mean_position(stage.pointer)
        dp = pointer.pointer_mean_momentum(stage.pointer)
        dev_x = abs(dx + 2.0 * g * x_w.imag) / g
        dev_p = abs(dp - g * x_w.real) / g
        print(f"{g:8.4f} {corr:12.6f} {abs(corr - 1.0):11.2e} "
              f"{dev_x:11.2e} {dev_p:11.2e}")


if __name__ == "__main__":
    main()
