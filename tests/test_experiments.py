"""Tests for the canned experiment presets."""

import dataclasses
import math

import numpy as np
import pytest

from weaklab import experiments, hilbert, pointer, weakcorr
from weaklab.errors import AlphaOutOfRange, InvalidConfig, TruncationWarning
from weaklab.experiments import (
    REFERENCE_ZEROS,
    ccr_experiment,
    chain_experiment,
    montecarlo_experiment,
    pauli_suite,
    riemann_experiment,
    spin_selections,
)
from weaklab.weakcorr import P_IMAG_TOL


ALPHA_SWEEP = [-5 * math.pi / 6, -math.pi / 2, -math.pi / 3, -math.pi / 6, 0.0,
               math.pi / 6, math.pi / 3, math.pi / 2, 5 * math.pi / 6]


def test_tolerance_constants_are_pinned():
    # a loosened tolerance must show up as an edit of this test
    assert (experiments.CCR_EXACT_TOL, experiments.CCR_POINTER_RTOL,
            experiments.MC_SIGMA_BAND) == (1e-10, 0.02, 3.0)
    assert (experiments.PAULI_TOL, experiments.RIEMANN_TOL, experiments.CHAIN_TOL) == (
        1e-12, 1e-12, 1e-12)
    assert (experiments.RIEMANN_EQ25_RTOL, experiments.RIEMANN_AVERAGE_RTOL) == (1e-13, 1e-10)
    assert (weakcorr.P_IMAG_TOL, weakcorr.ORTHOGONALITY_EPS, pointer.WRAP_SHARE) == (
        1e-10, 1e-12, 1e-12)
    assert (pointer.ANNIHILATION_ATOL, hilbert.HERMITIAN_ATOL) == (1e-15, 1e-12)
    assert experiments._POINTER_COVERAGE == 1.0 - 1e-9


def test_spin_selections_overlap():
    pair = spin_selections(math.pi / 3)
    assert type(pair) is tuple  # the (i, f) pair itself, no record
    i, f = pair
    assert np.vdot(f.amplitudes, i.amplitudes) == pytest.approx(math.cos(math.pi / 6), abs=1e-12)


@pytest.mark.parametrize("alpha", ALPHA_SWEEP)
def test_pauli_suite_sweep(alpha):
    rep = pauli_suite([alpha])
    assert rep.passed
    assert rep.rows[0].max_residual <= 1e-12


def test_pauli_suite_core_values():
    row, row3, row0 = pauli_suite([math.pi / 2, math.pi / 3, 0.0]).rows
    assert row.sxsy == pytest.approx(1j, abs=1e-12)
    assert row.sz_w == pytest.approx(1.0, abs=1e-12)
    assert row3.sz_w == pytest.approx(math.tan(math.pi / 6), abs=1e-12)
    assert abs(row0.sxsy) <= 1e-12
    assert abs(row0.sz_w) <= 1e-12
    assert abs(row0.commutator) <= 1e-12


def test_pauli_suite_alpha_out_of_range():
    with pytest.raises(AlphaOutOfRange):
        pauli_suite([math.pi])
    with pytest.raises(AlphaOutOfRange):
        pauli_suite([0.5, -math.pi + 1e-9])
    with pytest.raises(InvalidConfig):  # no angle, no vacuous pass
        pauli_suite([])


def test_pauli_sweep_checks_each_name_at_its_worst_angle():
    report = pauli_suite(ALPHA_SWEEP)
    alone = [pauli_suite([a]) for a in ALPHA_SWEEP]
    assert report.rows == tuple(r.rows[0] for r in alone)
    for k, check in enumerate(report.checks):
        assert check.residual == max(r.checks[k].residual for r in alone)
        assert check.tol == experiments.PAULI_TOL
    assert [c.name for c in report.checks] == [c.name for c in alone[0].checks]
    assert [r.max_residual for r in report.rows] == [
        max(c.residual for c in r.checks) for r in alone
    ]


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


def test_ccr_all_p_w_real_is_not_decided_by_roundoff():
    # momentum mid-selections make every p_w real.  At 1024 points the
    # admitted rows with |<f|i>| <= 1e-8 carry |Im p_w| roundoff above the
    # p_imag_is_zero tolerance; their roundoff bound keeps them from deciding
    # the flag.
    rep = ccr_experiment(hilbert.GridConfig(1024, 40.0), n_trials=0, run_pointer=False)
    assert rep.all_p_w_real
    assert any(abs(r.p_w.imag) > P_IMAG_TOL * max(1.0, abs(r.p_w)) for r in rep.per_f)


def test_ccr_all_p_w_real_sees_a_complex_p_w(monkeypatch):
    orig = experiments.ccr_decomposition
    monkeypatch.setattr(
        experiments, "ccr_decomposition",
        lambda *args: dataclasses.replace(orig(*args), p_imag_is_zero=False),
    )
    rep = ccr_experiment(hilbert.GridConfig(128, 40.0), n_trials=0, run_pointer=False)
    assert not rep.all_p_w_real


@pytest.mark.parametrize("n_points", [128, 512])
def test_ccr_pointer_selections_keep_whole_plus_minus_k_pairs(n_points):
    # the Gaussian's ±k weights are equal in exact arithmetic, and the
    # coverage cut falls inside the k = ±12 pair: both sides are kept
    rep = ccr_experiment(hilbert.GridConfig(n_points, 40.0), n_trials=0)
    kept = {r.p_eigenvalue for r in rep.per_f if r.dx_d is not None}
    assert len(kept) == 25
    assert {-p for p in kept} == kept


def test_ccr_experiment_pointer_g_halving():
    rep_a = ccr_experiment(hilbert.GridConfig(128, 40.0), g=0.02, n_trials=0)
    rep_b = ccr_experiment(hilbert.GridConfig(128, 40.0), g=0.01, n_trials=0)
    resid_a = abs(rep_a.pointer_corr_over_g2 - 1.0)
    resid_b = abs(rep_b.pointer_corr_over_g2 - 1.0)
    assert resid_a / resid_b == pytest.approx(4.0, rel=0.2)


@pytest.mark.parametrize("rep", [hilbert.GridConfig(64, 20.0), hilbert.FockConfig(dim=24)],
                         ids=["grid", "fock"])
def test_ccr_g_sweep_rows_equal_separate_runs(rep):
    gs = [0.01, -0.03, 0.02]
    swept = ccr_experiment(rep, g=0.015, g_sweep=gs, n_trials=0, run_pointer=False)
    assert swept.pointer_corr_over_g2 is None
    assert [row[0] for row in swept.g_sweep_rows] == gs
    targets = []
    for g, corr, resid in swept.g_sweep_rows:
        alone = ccr_experiment(rep, g=g, n_trials=0)
        (target,) = [c for c in alone.checks if c.name == "pointer_corr_vs_hbar_sigma2"]
        assert corr == alone.pointer_corr_over_g2  # bit for bit
        assert resid == target.residual
        targets.append(target)
    worst = max(targets, key=lambda c: c.residual)
    (check,) = [c for c in swept.checks if c.name == "g_sweep_pointer_corr"]
    assert check == dataclasses.replace(worst, name="g_sweep_pointer_corr")
    unswept = ccr_experiment(rep, n_trials=0, run_pointer=False)
    assert unswept.g_sweep_rows == ()
    assert "g_sweep_pointer_corr" not in [c.name for c in unswept.checks]


def test_ccr_g_sweep_precondition_raises_before_any_work(monkeypatch):
    def no_work(rep):
        raise AssertionError("operators built before the precondition")

    monkeypatch.setattr(experiments, "_ccr_ops", no_work)
    with pytest.raises(InvalidConfig, match="ccr g_sweep must be"):
        ccr_experiment(hilbert.GridConfig(64, 20.0), g_sweep=[0.01, 0.0])


@pytest.mark.parametrize("rep", [hilbert.FockConfig(16), hilbert.GridConfig(64, 20.0)],
                         ids=["fock16", "grid64"])
def test_ccr_trials_without_the_pointer_raise_before_any_work(monkeypatch, rep):
    # no Monte Carlo runs without the pointer chains, so a positive budget is refused
    monkeypatch.setattr(experiments, "_ccr_ops", lambda rep: pytest.fail("operators built"))
    for n_trials in (1, 200_000):
        with pytest.raises(InvalidConfig, match=f"ccr n_trials must be 0 under run_pointer=False, "
                                                f"got {n_trials}"):
            ccr_experiment(rep, n_trials=n_trials, run_pointer=False)


def test_ccr_experiment_monte_carlo_branch():
    rep = ccr_experiment(hilbert.GridConfig(96, 40.0), n_trials=400_000, seed=3)
    assert rep.mc_accepted is not None and rep.mc_accepted > 5_000
    # the estimate's own target: the exact correlator over the rows it sampled
    assert abs(rep.mc_corr_over_g2 - rep.mc_exact_corr_over_g2) <= 3.0 * rep.mc_stderr_over_g2
    assert rep.passed


def test_ccr_mc_gate_reads_the_rows_it_sampled():
    # the ccr-mc benchmark's config (Fock 128, seed 42) at the largest budget,
    # where the estimate resolves the correlator: 1.0101 +- 0.0331
    rep = ccr_experiment(hilbert.FockConfig(128), n_trials=2**53, seed=42)
    sampled = [r for r in rep.per_f if r.mc_attempted is not None]
    assert len(sampled) == 30
    same_rows = math.fsum(r.weight * r.dx_d * r.dx_d_prime for r in sampled) / rep.g**2
    assert rep.mc_exact_corr_over_g2 == same_rows
    assert abs(same_rows - 0.99926) <= 1e-5
    check = next(c for c in rep.checks if c.name == "mc_corr_vs_exact_pointer")
    assert (check.residual, check.tol) == (
        abs(rep.mc_corr_over_g2 - same_rows), experiments.MC_SIGMA_BAND * rep.mc_stderr_over_g2
    )
    # the band is a tenth of the target, so a sign error in the estimate fails it
    assert check.tol <= 0.1 * same_rows
    assert check.passed


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
    b = montecarlo_experiment(preset="spin", alpha=0.9, n_trials=10_000, seed=12)
    assert a == b


@pytest.mark.parametrize(
    "rep", [hilbert.GridConfig(128, 40.0), hilbert.FockConfig(dim=64)], ids=["grid", "fock"]
)
def test_ccr_experiment_matches_joint_state_oracle(rep, monkeypatch, oracle_protocol):
    fast = ccr_experiment(rep, n_trials=0)

    def oracle_chains(i, finals, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime,
                      **eigensystems):
        chains = [oracle_protocol(i, hilbert.StateVector(finals.basis_id, f), x_op, p_op, sigma,
                                  sigma_prime, g, grid, grid_prime)
                  for f in finals.amplitudes.T]
        # the one-row stacks of each stage, stacked in row order
        return tuple(pointer.PointerStack(rows[0].grid,
                                          np.concatenate([s.wavefunctions for s in rows]),
                                          np.concatenate([s.probabilities for s in rows]))
                     for rows in zip(*chains))

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
        q = stage.probabilities[0]
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
    assert rep.acceptance_expected == real(*calls[0]).probabilities[0]


def test_montecarlo_spin_100_reads_the_exact_pointer_not_the_first_order_value(monkeypatch):
    # Aharonov, Albert & Vaidman's spin 100: A_w = tan(alpha / 2) = 100.  At
    # g = 0.001 the exact pointer reads <p>/g = 99.01, 1% below the
    # first-order 100 (Duck, Stevenson & Sudarshan 1989); 2.5e11 trials per
    # stream, at P(f) = 1e-4, resolve the two.
    stages = []
    real = experiments.mc.measure_weakly

    def kept(*args, **kwargs):
        stages.append(real(*args, **kwargs))
        return stages[-1]

    monkeypatch.setattr(experiments.mc, "measure_weakly", kept)
    g = 0.001
    rep = montecarlo_experiment(alpha=2.0 * math.atan(100.0), g=g, n_trials=250_000_000_000,
                                seed=0)
    assert rep.target.real == pytest.approx(100.0, rel=1e-9)
    exact = pointer.pointer_mean_momentum(stages[0])[0] / g
    assert 98.9 < exact < 99.1
    assert abs(rep.re_est - exact) <= 3.0 * rep.stderr_re
    assert abs(rep.re_est - rep.target.real) >= 5.0 * rep.stderr_re


def test_riemann_experiment_builds_x_and_p_once(monkeypatch):
    calls = []
    real = experiments.make_grid_ops

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(experiments, "make_grid_ops", counted)
    assert riemann_experiment(hilbert.GridConfig(64, 20.0)).passed
    assert len(calls) == 1
