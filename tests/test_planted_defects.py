"""Every check of the five experiments fails on a planted defect.

A defect is planted with ``monkeypatch`` in the function the check reads
from; the run must report that check as failed and the CLI must exit 1.
The same runs pass unplanted, so no check here can pass vacuously, and
the checks the default runs and a ccr coupling sweep emit are exactly the
ones planted here.  A swept run checks each name at its worst row, so a
defect or a NaN at any one row fails the run.
"""

import csv
import dataclasses
import itertools
import json
import math
import types

import numpy as np
import pytest

from weaklab import cli, ensemble, experiments, hilbert, pointer, weakcorr

PAULI = ["pauli", "--alpha", "1.0"]

GRID_RIEMANN = ["riemann", "--rep", "grid", "--points", "64", "--length", "20"]
GRID_CCR = ["ccr", "--rep", "grid", "--points", "64", "--length", "20",
            "--n-trials", "0", "--no-pointer"]
CHAIN = ["chain", "--dim", "6", "--n-ops", "4", "--instances", "20"]
MC_SPIN = ["montecarlo", "--preset", "spin", "--n-trials", "40000"]
FOCK_CCR_MC = ["ccr", "--dim", "16", "--n-trials", "300000"]
CCR_SWEEP = ["ccr", "--dim", "16", "--n-trials", "0", "--g-sweep", "0.01,-0.02,0.015"]
PAULI_SWEEP = ["pauli", "--alpha-sweep", "0.3,1.0,2.0", "--format", "both"]
# complex weak values and a nonzero <{x, p}>: the grid's real Gaussian has neither
FOCK_RIEMANN_YAML = (
    'experiment: riemann\nriemann: {rep: {dim: 32}, i_displacement: "1+1j", f_displacement: 0.5}\n'
)


def drop_px_column_scaling(monkeypatch):
    """p x psi comes back as p psi: x's scaling before p is dropped."""
    orig = experiments._xp_px_on
    monkeypatch.setattr(
        experiments, "_xp_px_on", lambda x, p, psi: (orig(x, p, psi)[0], p.apply(psi))
    )


def swap_products(monkeypatch):
    """x p psi and p x psi come back swapped: rho is unchanged, R becomes i x p / hbar."""
    orig = experiments._xp_px_on
    monkeypatch.setattr(experiments, "_xp_px_on", lambda x, p, psi: orig(x, p, psi)[::-1])


def drop_conjugate(monkeypatch):
    """np.conj is the identity inside experiments only."""
    fake_np = types.ModuleType("numpy")
    fake_np.__dict__.update(vars(np))
    fake_np.conj = lambda z: z
    monkeypatch.setattr(experiments, "np", fake_np)


def drop_swapped_term(monkeypatch):
    """The Born average sums the product a b, half the commutator plus half the
    anticommutator, instead of the (anti)commutator."""
    orig = experiments.averaged_weak_correlation
    monkeypatch.setattr(
        experiments, "averaged_weak_correlation",
        lambda i, a, b, combine: 0.5 * (orig(i, a, b, "commutator")
                                        + orig(i, a, b, "anticommutator")),
    )


def drop_row_diagonal(monkeypatch):
    """bra @ x skips the diagonal's scaling: <i|x|f> reads <i|f>."""
    orig = hilbert.Operator.apply_left
    monkeypatch.setattr(
        hilbert.Operator, "apply_left",
        lambda self, bra: bra if self.diagonal is not None else orig(self, bra),
    )


def drop_ket_diagonal(monkeypatch):
    """x @ ket skips the diagonal's scaling: every x_w reads 1."""
    orig = hilbert.Operator.apply
    monkeypatch.setattr(
        hilbert.Operator, "apply",
        lambda self, ket: ket if self.diagonal is not None else orig(self, ket),
    )


def drop_eq9_term(monkeypatch):
    """The eq9 left-hand side loses its Im{x_w} Re{p_w} term."""
    orig = experiments.ccr_decomposition

    def planted(*args, **kwargs):
        rec = orig(*args, **kwargs)
        return dataclasses.replace(rec, lhs=rec.x_w.real * rec.p_w.imag)

    monkeypatch.setattr(experiments, "ccr_decomposition", planted)


def reverse_chain_ops(monkeypatch):
    """The chain applies its operators in reverse chronological order."""
    orig = weakcorr.chain_weak_correlation
    monkeypatch.setattr(
        weakcorr, "chain_weak_correlation",
        lambda protocol, ops, *args: orig(protocol, tuple(ops)[::-1], *args),
    )


def swap_dual_ops(monkeypatch):
    """The dual procedure measures its two operators in the opposite order."""
    orig = weakcorr.dual_weak_correlation
    monkeypatch.setattr(
        weakcorr, "dual_weak_correlation",
        lambda i, f, ops, *args: orig(i, f, tuple(ops)[::-1], *args),
    )


def miscount_acceptance(field):
    """One readout stream reports half its accepted trials."""
    def plant(monkeypatch):
        orig = ensemble.estimate_weak_value

        def planted(*args, **kwargs):
            est = orig(*args, **kwargs)
            return dataclasses.replace(est, **{field: getattr(est, field) // 2})

        monkeypatch.setattr(ensemble, "estimate_weak_value", planted)

    return plant


def swap_correlation_operands(monkeypatch):
    """<a b>_w is evaluated as <b a>_w."""
    orig = experiments.weak_correlation
    monkeypatch.setattr(experiments, "weak_correlation", lambda i, f, a, b: orig(i, f, b, a))


def conjugate_correlation(monkeypatch):
    """The weak correlation comes back complex conjugated."""
    orig = experiments.weak_correlation
    monkeypatch.setattr(
        experiments, "weak_correlation", lambda *args: orig(*args).conjugate()
    )


def full_angle_target(monkeypatch):
    """The closed form reads tan(alpha) where it means tan(alpha / 2)."""
    fake_math = types.ModuleType("math")
    fake_math.__dict__.update(vars(experiments.math))
    fake_math.tan = lambda x: np.tan(2.0 * x)
    monkeypatch.setattr(experiments, "math", fake_math)


def anticommutator_sign_flipped(monkeypatch):
    """The weak anticommutator subtracts its two orderings."""
    monkeypatch.setattr(experiments, "weak_anticommutator", weakcorr.weak_commutator)


def pauli_commutator_sign_dropped(monkeypatch):
    """The suite's weak commutator adds its two orderings."""
    monkeypatch.setattr(experiments, "weak_commutator", weakcorr.weak_anticommutator)


def z_built_as_x(monkeypatch):
    """pauli("z") builds sigma_x."""
    orig = experiments.pauli
    monkeypatch.setattr(experiments, "pauli", lambda axis: orig("x" if axis == "z" else axis))


def second_coupling_sign_flipped(monkeypatch):
    """Stage two couples momentum with the sign of stage one."""
    monkeypatch.setitem(pointer.COUPLING_SIGN, pointer.MOMENTUM, -1)


def readout_offset(kind):
    """The sampler reads the ``kind`` readout of every pointer one unit high."""
    def plant(monkeypatch):
        orig = ensemble.readout_distribution

        def planted(p, readout_kind):
            values, probs = orig(p, readout_kind)
            return (values + 1.0 if readout_kind == kind else values), probs

        monkeypatch.setattr(ensemble, "readout_distribution", planted)

    return plant


def spoil_call(module, name, call, spoil):
    """The ``call``-th call of module.name, counted from 1, returns spoil(result)."""
    def plant(monkeypatch):
        orig = getattr(module, name)
        calls = itertools.count(1)

        def planted(*args, **kwargs):
            result = orig(*args, **kwargs)
            return spoil(result) if next(calls) == call else result

        monkeypatch.setattr(module, name, planted)

    return plant


def nan_second_row(values):
    spoiled = np.array(values, dtype=complex)
    spoiled[1] = math.nan
    return spoiled


def negate(value):
    return -value


def nan_first_readouts(chains):
    return [dataclasses.replace(c, dx_d=math.nan) for c in chains]


PLANTED = [
    ("sxsy_vs_i_tan", "pauli", swap_correlation_operands),
    ("sysx_vs_minus_i_tan", "pauli", conjugate_correlation),
    ("sz_w_vs_tan", "pauli", full_angle_target),
    ("anticommutator_vs_zero", "pauli", anticommutator_sign_flipped),
    ("commutator_vs_2i_tan", "pauli", pauli_commutator_sign_dropped),
    ("commutator_vs_2i_sz_w", "pauli", z_built_as_x),
    ("rho_hermiticity", "grid", drop_px_column_scaling),
    ("half_line_residual", "grid", swap_products),
    ("eq25_lhs_vs_re_xw_conj_pw", "fock", drop_conjugate),
    ("f_averaged_correlation_vs_rho_expectation", "fock", drop_swapped_term),
    ("avg_commutator_vs_matrix_oracle", "ccr", drop_px_column_scaling),
    ("avg_commutator_vs_i_hbar", "ccr", drop_row_diagonal),
    ("eq9_born_avg_vs_half_hbar", "ccr", drop_eq9_term),
    ("eq10_born_avg_vs_minus_half_hbar", "ccr", drop_ket_diagonal),
    ("chain_vs_product_of_ratios", "chain", reverse_chain_ops),
    ("dual_order_swap", "chain", swap_dual_ops),
    # the dual procedure's <AB>, the third weak correlation of the block's
    # symmetry_residuals, comes back negated: only the commutator flip reads it
    ("dual_commutator_flip", "chain", spoil_call(weakcorr, "weak_correlation", 3, negate)),
    ("acceptance_vs_born", "mc", miscount_acceptance("accepted_position")),
    ("momentum_acceptance_vs_born", "mc", miscount_acceptance("accepted_momentum")),
    ("re_est_within_3_stderr", "mc", readout_offset(pointer.MOMENTUM)),
    ("im_est_within_3_stderr", "mc", readout_offset(pointer.POSITION)),
    ("pointer_corr_vs_hbar_sigma2", "ccr_mc", second_coupling_sign_flipped),
    ("mc_corr_vs_exact_pointer", "ccr_mc", readout_offset(pointer.POSITION)),
    ("g_sweep_pointer_corr", "ccr_sweep", second_coupling_sign_flipped),
]
ARGV = {"pauli": PAULI, "grid": GRID_RIEMANN, "ccr": GRID_CCR, "ccr_mc": FOCK_CCR_MC,
        "chain": CHAIN, "mc": MC_SPIN, "ccr_sweep": CCR_SWEEP, "pauli_sweep": PAULI_SWEEP}

# A NaN residual at a row other than the first: Python's max would skip it.
NAN_ROW = [
    # instance 1's chain value, the second row of the block's one chain_weak_correlation call
    ("chain_vs_product_of_ratios", "chain",
     spoil_call(weakcorr, "chain_weak_correlation", 1, nan_second_row)),
    # <sz>_w at the second angle: row 2 of the one weak_value call over the stack
    ("sz_w_vs_tan", "pauli_sweep", spoil_call(experiments, "weak_value", 1, nan_second_row)),
    # the second swept coupling (call 1 is the run's own g)
    ("g_sweep_pointer_corr", "ccr_sweep",
     spoil_call(experiments, "run_ccr_protocols", 3, nan_first_readouts)),
]


def run_checks(tmp_path, setup):
    """(exit status, {check name: passed}) of one CLI run."""
    out = tmp_path / "out"
    argv = ARGV.get(setup)
    if argv is None:
        cfgfile = tmp_path / "c.yaml"
        cfgfile.write_text(FOCK_RIEMANN_YAML)
        argv = ["riemann", "--config", str(cfgfile)]
    status = cli.main([*argv, "--out", str(out)])
    record = json.loads((out / "run.json").read_text())
    return status, {c["name"]: c["passed"] for c in record["checks"]}


@pytest.mark.parametrize("setup", ["grid", "fock", "ccr", "chain", "mc", "pauli", "ccr_mc",
                                   "ccr_sweep", "pauli_sweep"])
def test_unplanted_runs_pass(tmp_path, setup):
    status, checks = run_checks(tmp_path, setup)
    assert status == cli.EXIT_OK
    assert all(checks.values())
    assert {name for name, s, _ in PLANTED if s == setup} <= set(checks)


@pytest.mark.parametrize("check, setup, plant", PLANTED, ids=[p[0] for p in PLANTED])
def test_planted_defect_fails_its_check(tmp_path, monkeypatch, check, setup, plant):
    plant(monkeypatch)
    status, checks = run_checks(tmp_path, setup)
    assert checks[check] is False
    assert status == cli.EXIT_CHECK_FAILED == 1


@pytest.mark.parametrize("check, setup, plant", NAN_ROW, ids=[p[1] for p in NAN_ROW])
def test_nan_row_fails_its_check(tmp_path, monkeypatch, check, setup, plant):
    plant(monkeypatch)
    status, checks = run_checks(tmp_path, setup)
    assert checks[check] is False
    assert status == cli.EXIT_CHECK_FAILED


def test_defect_at_one_angle_fails_the_sweep(tmp_path, monkeypatch):
    """The closed form reads tan(alpha) at alpha = 1.0 only, the middle of three angles."""
    fake_math = types.ModuleType("math")
    fake_math.__dict__.update(vars(experiments.math))
    fake_math.tan = lambda x: np.tan(2.0 * x) if x == 0.5 else math.tan(x)
    monkeypatch.setattr(experiments, "math", fake_math)
    status, checks = run_checks(tmp_path, "pauli_sweep")
    assert status == cli.EXIT_CHECK_FAILED
    # the four checks against tan(alpha / 2) fail; the two without it pass
    assert checks == {
        "sxsy_vs_i_tan": False, "sysx_vs_minus_i_tan": False, "sz_w_vs_tan": False,
        "anticommutator_vs_zero": True, "commutator_vs_2i_tan": False,
        "commutator_vs_2i_sz_w": True,
    }
    with open(tmp_path / "out" / "alpha_sweep.csv") as fh:
        residuals = [float(row["max_residual"]) for row in csv.DictReader(fh)]
    assert [r > experiments.PAULI_TOL for r in residuals] == [False, True, False]


def test_every_default_check_is_planted(tmp_path):
    # a new check without a failing mutant here fails this test
    emitted = set()
    runs = [[experiment] for experiment in cli.EXPERIMENTS] + [CCR_SWEEP]
    for k, argv in enumerate(runs):
        out = tmp_path / str(k)
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK
        emitted |= {c["name"] for c in json.loads((out / "run.json").read_text())["checks"]}
    planted = [name for name, _, _ in PLANTED]
    assert len(planted) == len(set(planted)) == 24
    assert emitted == set(planted)
