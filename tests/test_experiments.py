"""Tests for the canned experiment presets."""

import dataclasses
import math

import numpy as np
import pytest

from weaklab import experiments, hilbert
from weaklab.errors import AlphaOutOfRange, TruncationWarning
from weaklab.experiments import (
    REFERENCE_ZEROS,
    ccr_experiment,
    chain_experiment,
    montecarlo_experiment,
    pauli_suite,
    riemann_experiment,
    spin_selections,
)


ALPHA_SWEEP = [-5 * math.pi / 6, -math.pi / 2, -math.pi / 3, -math.pi / 6, 0.0,
               math.pi / 6, math.pi / 3, math.pi / 2, 5 * math.pi / 6]


def test_spin_selections_overlap():
    sel = spin_selections(math.pi / 3)
    assert hilbert.inner(sel.f, sel.i) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHA_SWEEP)
def test_pauli_suite_sweep(alpha):
    rep = pauli_suite(alpha)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_pauli_suite_core_values():
    rep = pauli_suite(math.pi / 2)
    assert rep.sxsy == pytest.approx(1j, abs=1e-12)
    assert rep.sz_w == pytest.approx(1.0, abs=1e-12)
    rep3 = pauli_suite(math.pi / 3)
    assert rep3.sz_w == pytest.approx(math.tan(math.pi / 6), abs=1e-12)
    rep0 = pauli_suite(0.0)
    assert abs(rep0.sxsy) <= 1e-12
    assert abs(rep0.sz_w) <= 1e-12
    assert abs(rep0.commutator) <= 1e-12


def test_pauli_suite_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        pauli_suite(math.pi)
    with pytest.raises(AlphaOutOfRange):
        pauli_suite(-math.pi + 1e-9)


def test_ccr_experiment_fock_exact_branches():
    rep = ccr_experiment(hilbert.FockConfig(dim=64), n_trials=0, run_pointer=False)
    assert abs(rep.avg_commutator - 1j) <= 1e-10
    assert abs(rep.avg_commutator - rep.commutator_oracle) <= 1e-12
    assert rep.eq9_born_avg == pytest.approx(0.5, abs=1e-10)
    assert rep.eq10_born_avg == pytest.approx(-0.5, abs=1e-10)
    assert rep.all_p_w_real
    assert rep.passed
    # single mid-selections are generically off the averaged target
    assert rep.per_f_lhs_min < 0.5 - 1e-3 or rep.per_f_lhs_max > 0.5 + 1e-3


def test_ccr_experiment_respects_hbar():
    rep = ccr_experiment(
        hilbert.FockConfig(dim=32, hbar=0.6), n_trials=0, run_pointer=False
    )
    assert abs(rep.avg_commutator - 0.6j) <= 1e-10
    assert rep.eq9_born_avg == pytest.approx(0.3, abs=1e-10)


def test_ccr_experiment_warns_on_truncation_edge():
    cfg = hilbert.FockConfig(dim=8)
    rng = np.random.default_rng(5)
    state = hilbert.StateVector(
        cfg.basis_id, rng.standard_normal(8) + 1j * rng.standard_normal(8)
    )
    with pytest.warns(TruncationWarning):
        rep = ccr_experiment(cfg, i_spec=state, n_trials=0, run_pointer=False)
    # the matrix oracle still matches exactly
    assert abs(rep.avg_commutator - rep.commutator_oracle) <= 1e-12
    # i hbar is no target on the edge: the truncated reading is reported, not gated
    assert "avg_commutator_vs_truncated_i_hbar" not in [c.name for c in rep.checks]
    assert math.isfinite(rep.avg_commutator_vs_truncated_i_hbar)
    assert all(math.isfinite(c.tol) for c in rep.checks)


def test_ccr_experiment_grid_pointer_branch():
    rep = ccr_experiment(hilbert.GridConfig(128, 40.0), n_trials=0)
    assert rep.pointer_corr_over_g2 == pytest.approx(1.0, rel=0.02)
    assert rep.pointer_coverage > 1.0 - 1e-8
    assert rep.all_p_w_real
    assert rep.passed


def test_ccr_experiment_pointer_g_halving():
    rep_a = ccr_experiment(hilbert.GridConfig(128, 40.0), g=0.02, n_trials=0)
    rep_b = ccr_experiment(hilbert.GridConfig(128, 40.0), g=0.01, n_trials=0)
    resid_a = abs(rep_a.pointer_corr_over_g2 - 1.0)
    resid_b = abs(rep_b.pointer_corr_over_g2 - 1.0)
    assert resid_a / resid_b == pytest.approx(4.0, rel=0.2)


def test_ccr_experiment_monte_carlo_branch():
    rep = ccr_experiment(hilbert.GridConfig(96, 40.0), n_trials=400_000, seed=3)
    assert rep.mc_accepted is not None and rep.mc_accepted > 5_000
    assert abs(rep.mc_corr_over_g2 - rep.pointer_corr_over_g2) <= 3.0 * rep.mc_stderr_over_g2
    assert rep.passed


def test_riemann_experiment_fock_ground_state():
    rep = riemann_experiment(hilbert.FockConfig(dim=64))
    assert rep.rho_w == pytest.approx(0.0, abs=1e-12)
    assert rep.r_w == pytest.approx(0.5, abs=1e-12)
    assert rep.hermiticity_residual <= 1e-12
    assert rep.half_line_residual <= 1e-12
    assert rep.reference_zeros == REFERENCE_ZEROS
    assert rep.passed


def test_riemann_experiment_generic_selections():
    cfg = hilbert.FockConfig(dim=64)
    i = hilbert.coherent_state(cfg, 1.2)
    f = hilbert.coherent_state(cfg, 0.4 + 0.9j)
    rep = riemann_experiment(cfg, i=i, f=f)
    # Eq. 25's left side is an algebraic identity in the weak values
    assert rep.checks[2].passed
    # operator weak value vs per-selection correlation form differ in general
    assert rep.operator_vs_correlation > 1e-6
    # the f-averaged correlation telescopes to the rho expectation
    assert rep.correlation_f_averaged == pytest.approx(rep.rho_expectation, abs=1e-10)
    assert rep.hermiticity_residual <= 1e-12


def test_riemann_experiment_grid():
    rep = riemann_experiment(hilbert.GridConfig(128, 40.0))
    assert rep.hermiticity_residual <= 1e-12
    assert rep.half_line_method.startswith("state-residual")
    assert rep.passed


def test_chain_experiment_random_instances():
    rep = chain_experiment(dim=5, n_ops=4, n_instances=40, seed=11)
    assert rep.max_chain_residual <= 1e-12
    assert rep.max_order_swap <= 1e-12
    assert rep.max_commutator_flip <= 1e-12
    assert rep.passed


def test_chain_experiment_two_ops():
    rep = chain_experiment(dim=7, n_ops=2, n_instances=25, seed=4)
    assert rep.passed


def test_montecarlo_experiment_spin():
    rep = montecarlo_experiment(preset="spin", alpha=math.pi / 2, n_trials=40_000, seed=9)
    assert rep.target == pytest.approx(1.0, abs=1e-12)
    assert rep.passed


def test_montecarlo_experiment_fock():
    rep = montecarlo_experiment(preset="fock", dim=8, n_trials=60_000, seed=10)
    assert rep.target == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert rep.passed


def test_montecarlo_experiment_determinism():
    a = montecarlo_experiment(preset="spin", alpha=0.9, n_trials=10_000, seed=12)
    b = montecarlo_experiment(preset="spin", alpha=0.9, n_trials=10_000, seed=12, n_workers=3)
    assert a == b


@pytest.mark.parametrize(
    "rep", [hilbert.GridConfig(128, 40.0), hilbert.FockConfig(dim=64)], ids=["grid", "fock"]
)
def test_ccr_experiment_matches_joint_state_oracle(rep, monkeypatch, oracle_protocol):
    fast = ccr_experiment(rep, n_trials=0)

    def oracle_chains(i, finals, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime,
                      hbar, **eigensystems):
        return [oracle_protocol(i, f, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime)
                for f in finals]

    monkeypatch.setattr(experiments, "run_ccr_protocols", oracle_chains)
    slow = ccr_experiment(rep, n_trials=0)
    assert abs(fast.pointer_corr_over_g2 - slow.pointer_corr_over_g2) <= 1e-12
    assert fast.pointer_coverage == slow.pointer_coverage
    assert [(c.name, c.passed) for c in fast.checks] == [(c.name, c.passed) for c in slow.checks]
    simulated = [(a, b) for a, b in zip(fast.per_f, slow.per_f) if b.dx_d is not None]
    assert len(simulated) >= 20
    # both paths are roundoff-bound on low-weight rows (errors grow as
    # 1/sqrt(weight)); those enter the correlator only through their weight
    for a, b in (pair for pair in simulated if pair[1].weight >= 1e-3):
        assert a.dx_d == pytest.approx(b.dx_d, abs=1e-13)
        assert a.dx_d_prime == pytest.approx(b.dx_d_prime, abs=1e-13)


def test_acceptance_gate_is_finite_for_a_certain_selection():
    # at g = 1e-9 the selection probability rounds to 1 (or just above it);
    # the binomial band is then 0, not inf
    rep = montecarlo_experiment(preset="spin", alpha=0.0, g=1e-9, n_trials=1000)
    gate = {c.name: c for c in rep.checks}["acceptance_vs_born"]
    assert rep.acceptance_expected == 1.0
    assert gate.tol == 0.0 and gate.passed


@pytest.mark.parametrize("field, check", [
    ("accepted_position", "acceptance_vs_born"),
    ("accepted_momentum", "momentum_acceptance_vs_born"),
])
def test_acceptance_gates_each_stream(monkeypatch, field, check):
    # a count 4 binomial standard errors above q fails its own stream's gate only
    n = 40_000
    real = experiments.mc.estimate_weak_value

    def planted(stage, *args):
        est = real(stage, *args)
        q = stage.probability
        return dataclasses.replace(est, **{field: round(n * q + 4 * math.sqrt(n * q * (1 - q)))})

    monkeypatch.setattr(experiments.mc, "estimate_weak_value", planted)
    rep = montecarlo_experiment(preset="spin", n_trials=n, seed=9)
    verdicts = {c.name: c.passed for c in rep.checks}
    assert verdicts.pop(check) is False
    assert all(verdicts.values())


def test_montecarlo_runs_one_weak_stage(monkeypatch):
    calls = []
    real = experiments.mc.measure_weakly

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments.mc, "measure_weakly", counted)
    rep = montecarlo_experiment(preset="fock", n_trials=2000, seed=1)
    assert len(calls) == 1
    assert rep.acceptance_expected == real(*calls[0], hbar=1.0).probability


def test_riemann_experiment_builds_x_and_p_once(monkeypatch):
    calls = []
    real = experiments.make_grid_ops

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(experiments, "make_grid_ops", counted)
    assert riemann_experiment(hilbert.GridConfig(64, 20.0)).passed
    assert len(calls) == 1
