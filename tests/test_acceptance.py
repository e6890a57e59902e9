"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with ``pytest -v -s tests/test_acceptance.py`` to
see the lines; every tolerance is pinned here, nothing is tuned at
runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from weaklab import cli, ensemble, experiments, hilbert, pointer, weakcorr
from weaklab.hilbert import FockConfig, GridConfig, gaussian_grid_state, make_grid_ops


def verdict(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n} failed: {detail}"


# -- 1: Pauli closed forms ---------------------------------------------------

def test_criterion_1_pauli_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0
    for row in experiments.pauli_suite([math.pi / 6, math.pi / 3, math.pi / 2]).rows:
        t = math.tan(row.alpha / 2.0)
        residuals = (
            abs(row.sxsy - 1j * t),
            abs(row.sysx + 1j * t),
            abs(row.sz_w - t),
            abs(row.anticommutator),
            abs(row.commutator - 2j * t),
        )
        worst = max(worst, *residuals)
    ms = (time.perf_counter() - t0) * 1e3
    verdict(1, worst <= 1e-12, f"max residual {worst:.2e} <= 1e-12 ({ms:.1f} ms)")


# -- 2: completeness identity ------------------------------------------------

def test_criterion_2_completeness_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 17))
        seed = int(rng.integers(0, 2**31))
        i = hilbert.random_state(dim, seed)
        # the mid-selections: the eigenbasis of a random Hermitian, as one stack
        _, v = hilbert.eigensystem(hilbert.random_hermitian(dim, seed + 1))
        basis = hilbert.StateVector(i.basis_id, v)
        a = hilbert.random_hermitian(dim, seed + 2)
        b = hilbert.random_hermitian(dim, seed + 3)
        weights = np.abs(hilbert.braket(basis.amplitudes, i.amplitudes)) ** 2
        got = complex(np.sum(weights * weakcorr.weak_commutator(i, basis, a, b)))
        natural = weakcorr.averaged_weak_correlation(i, a, b, "commutator")
        comm = a.matrix @ b.matrix - b.matrix @ a.matrix
        want = complex(np.vdot(i.amplitudes, comm @ i.amplitudes))
        worst = max(worst, abs(got - want) / max(1.0, abs(want)),
                    abs(natural - want) / max(1.0, abs(want)))
    dt = time.perf_counter() - t0
    verdict(2, worst <= 1e-10 and dt < 1.0,
            f"200 instances, max residual {worst:.2e} <= 1e-10 ({dt:.2f} s)")


# -- 3: CCR in truncated Fock space -----------------------------------------

def test_criterion_3_truncated_fock_ccr():
    t0 = time.perf_counter()
    cfg = FockConfig(dim=64)
    x_op, p_op = hilbert.make_fock_ops(cfg)

    low = hilbert.coherent_state(FockConfig(dim=32), 2.0)
    amps = np.zeros(64, dtype=complex)
    amps[:32] = low.amplitudes
    safe = hilbert.StateVector(cfg.basis_id, amps)
    got_safe = weakcorr.averaged_weak_correlation(safe, x_op, p_op, "commutator")
    resid_safe = abs(got_safe - 1j)

    rng = np.random.default_rng(7)
    dense = hilbert.StateVector(
        cfg.basis_id, rng.standard_normal(64) + 1j * rng.standard_normal(64)
    )
    c_top = dense.amplitudes[-1]
    got_dense = weakcorr.averaged_weak_correlation(dense, x_op, p_op, "commutator")
    target_dense = 1j * (1.0 - 64 * abs(c_top) ** 2)
    resid_dense = abs(got_dense - target_dense)
    # independent oracle: expectation of the truncated commutator matrix
    comm = x_op.matrix @ p_op.matrix - p_op.matrix @ x_op.matrix
    oracle = complex(np.vdot(dense.amplitudes, comm @ dense.amplitudes))
    resid_oracle = abs(got_dense - oracle)
    dt = time.perf_counter() - t0
    ok = resid_safe <= 1e-10 and resid_dense <= 1e-10 and resid_oracle <= 1e-10 and dt < 1.0
    verdict(3, ok,
            f"safe-support residual {resid_safe:.2e}, top-level residual "
            f"{resid_dense:.2e}, oracle residual {resid_oracle:.2e} ({dt:.2f} s)")


# -- 4: pointer first-order convergence --------------------------------------

def test_criterion_4_pointer_first_order_convergence():
    t0 = time.perf_counter()
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    x = cfg.positions()
    f_amps = np.exp(-((x - 2.0) ** 2) / (4 * 1.3**2) + 0.35j * x) + 0.6 * np.exp(
        -((x + 1.5) ** 2) / (4 * 1.1**2) - 0.15j * x
    )
    f = hilbert.StateVector(cfg.basis_id, f_amps)
    x_w = weakcorr.weak_value(i, f, x_op)
    sigma = 1.0
    grid = pointer.pointer_grid(sigma)
    y = grid.positions()

    dev_x, dev_p, dev_state = {}, {}, {}
    for g in (0.02, 0.01):
        stage = pointer.measure_weakly(i, f, x_op, sigma, g, grid)
        (dx,), (dp,) = pointer.pointer_mean_position(stage), pointer.pointer_mean_momentum(stage)
        # per-unit-coupling discrepancies vs the first-order shifts
        dev_x[g] = (dx - (-2.0 * sigma**2 * g * x_w.imag)) / g
        dev_p[g] = (dp - g * x_w.real) / g
        closed = np.exp(1j * g * x_w * y) * np.exp(-(y**2) / (4 * sigma**2))
        closed /= math.sqrt(float(np.sum(np.abs(closed) ** 2)) * grid.spacing)
        (psi,) = stage.wavefunctions
        ov = complex(np.vdot(closed, psi)) * grid.spacing
        aligned = closed * np.exp(1j * np.angle(ov))
        dev_state[g] = math.sqrt(
            float(np.sum(np.abs(psi - aligned) ** 2))
            * grid.spacing
        )
    ratio_x = dev_x[0.02] / dev_x[0.01]
    ratio_p = dev_p[0.02] / dev_p[0.01]
    ratio_state = dev_state[0.02] / dev_state[0.01]
    dt = time.perf_counter() - t0
    ok = (
        abs(ratio_x - 4.0) <= 0.8
        and abs(ratio_p - 4.0) <= 0.8
        and abs(ratio_state - 4.0) <= 0.8
    )
    verdict(4, ok,
            f"halving ratios: dx {ratio_x:.2f}, dp {ratio_p:.2f}, "
            f"state {ratio_state:.2f}, all within 4 +- 20% ({dt:.2f} s)")


# -- 5: Eq.-18-style desk-scale correlator -----------------------------------

def test_criterion_5_two_pointer_correlator():
    t0 = time.perf_counter()
    rep = experiments.ccr_experiment(
        GridConfig(128, 40.0), sigma=1.0, sigma_prime=1.0, g=0.01,
        n_trials=4_500_000, seed=42,
    )
    dt = time.perf_counter() - t0
    exact = rep.pointer_corr_over_g2
    rel = abs(exact - 1.0)
    mc_dev = abs(rep.mc_corr_over_g2 - rep.mc_exact_corr_over_g2)  # over the rows it sampled
    band = 3.0 * rep.mc_stderr_over_g2
    ok = (
        rep.all_p_w_real
        and rel <= 0.02
        and rep.mc_accepted >= 100_000
        and mc_dev <= band
        and dt <= 120.0
    )
    verdict(5, ok,
            f"exact corr/g^2 = {exact:.5f} (|dev| {rel:.4f} <= 2%), MC dev "
            f"{mc_dev:.2f} <= 3 stderr = {band:.2f} with {rep.mc_accepted} "
            f"accepted trials ({dt:.1f} s)")


# -- 6: Appendix-A symmetries -------------------------------------------------

def test_criterion_6_symmetries_and_chains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(616)
    worst_sym = worst_chain = 0.0
    exact_reductions = 0
    for _ in range(200):
        seed = int(rng.integers(0, 2**31))
        i = hilbert.random_state(5, seed)
        f = hilbert.random_state(5, seed + 1)
        a = hilbert.random_hermitian(5, seed + 2)
        b = hilbert.random_hermitian(5, seed + 3)
        res = weakcorr.symmetry_residuals(i, f, a, b)
        scale = max(1.0, abs(weakcorr.weak_correlation(i, f, a, b)))
        worst_sym = max(worst_sym, res.order_swap / scale, res.commutator_flip / scale)
        states = weakcorr.alternating(i, f, 2)
        if weakcorr.chain_weak_correlation(states, (b, a)) == weakcorr.weak_correlation(i, f, a, b):
            exact_reductions += 1
        ops = [hilbert.random_hermitian(5, seed + 4 + k) for k in range(4)]
        states = weakcorr.alternating(i, f, 4)
        chain = weakcorr.chain_weak_correlation(states, ops)
        oracle = complex(1.0)
        for k in range(4):
            lo, hi = states[k].amplitudes, states[k + 1].amplitudes
            oracle *= complex(np.vdot(hi, ops[k].matrix @ lo)) / complex(np.vdot(hi, lo))
        worst_chain = max(worst_chain, abs(chain - oracle) / max(1.0, abs(oracle)))
    dt = time.perf_counter() - t0
    ok = worst_sym <= 1e-12 and worst_chain <= 1e-12 and exact_reductions == 200 and dt < 1.0
    verdict(6, ok,
            f"200 instances: symmetry residual {worst_sym:.2e}, 4-op chain "
            f"residual {worst_chain:.2e}, {exact_reductions}/200 bit-exact "
            f"2-op reductions ({dt:.2f} s)")


# -- 7: Riemann module --------------------------------------------------------

def test_criterion_7_riemann_module():
    t0 = time.perf_counter()
    rep = experiments.riemann_experiment(FockConfig(dim=64))
    # ladder-arithmetic oracle for <0|{x,p}|0>: {x,p} has no diagonal term
    a = np.diag(np.sqrt(np.arange(1, 64)), k=1)
    xo = (a + a.T) / math.sqrt(2.0)
    po = 1j * (a.T - a) / math.sqrt(2.0)
    anti = xo @ po + po @ xo
    oracle_rho_00 = complex(anti[0, 0]) / 2.0
    dt = time.perf_counter() - t0
    ok = (
        rep.hermiticity_residual <= 1e-12
        and rep.half_line_residual <= 1e-12
        and abs(rep.rho_w - oracle_rho_00) <= 1e-12
        and abs(rep.rho_w) <= 1e-12
        and abs(rep.r_w - 0.5) <= 1e-12
        and dt < 1.0
    )
    verdict(7, ok,
            f"hermiticity {rep.hermiticity_residual:.2e}, half-line "
            f"{rep.half_line_residual:.2e} (levels 0..61), rho_w = {rep.rho_w}, "
            f"r_w = {rep.r_w} ({dt:.2f} s)")


# -- 8: reproducibility --------------------------------------------------------

def test_criterion_8_reproducibility(tmp_path):
    t0 = time.perf_counter()
    ccr_args = [
        "ccr", "--rep", "grid", "--points", "96", "--length", "40",
        "--n-trials", "60000", "--seed", "11",
    ]
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert cli.main(ccr_args + ["--out", str(out_a)]) == 0
    assert cli.main(ccr_args + ["--out", str(out_b)]) == 0
    # replay from the stored record
    assert cli.main(["ccr", "--config", str(out_a / "run.json"), "--out", str(out_c)]) == 0
    recs = []
    for out in (out_a, out_b, out_c):
        rec = json.loads((out / "run.json").read_text())
        rec.pop("timestamp")
        rec["config"].pop("out")
        recs.append(rec)
    ccr_ok = recs[0] == recs[1] == recs[2]

    mc_args = ["montecarlo", "--preset", "fock", "--n-trials", "30000", "--seed", "4"]
    out_d, out_e = tmp_path / "d", tmp_path / "e"
    assert cli.main(mc_args + ["--out", str(out_d)]) == 0
    assert cli.main(["montecarlo", "--config", str(out_d / "run.json"), "--out", str(out_e)]) == 0
    mc_recs = []
    for out in (out_d, out_e):
        rec = json.loads((out / "run.json").read_text())
        rec.pop("timestamp")
        rec["config"].pop("out")
        mc_recs.append(rec)
    mc_ok = mc_recs[0] == mc_recs[1]
    dt = time.perf_counter() - t0
    verdict(8, ccr_ok and mc_ok,
            f"ccr rerun + replay from run.json identical: {ccr_ok}; montecarlo "
            f"replay from run.json identical: {mc_ok} ({dt:.1f} s)")
