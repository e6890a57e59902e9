"""Each exact riemann, ccr and chain check and each Monte Carlo acceptance
check fails on a planted defect.

A defect is planted with ``monkeypatch`` in the function the check reads
from; the run must report that check as failed and the CLI must exit 1.
The same runs pass unplanted, so no check here can pass vacuously.
"""

import dataclasses
import json
import types

import numpy as np
import pytest

from weaklab import cli, ensemble, experiments, hilbert, weakcorr

GRID_RIEMANN = ["riemann", "--rep", "grid", "--points", "64", "--length", "20"]
GRID_CCR = ["ccr", "--rep", "grid", "--points", "64", "--length", "20",
            "--n-trials", "0", "--no-pointer"]
CHAIN = ["chain", "--dim", "6", "--n-ops", "4", "--instances", "20"]
MC_SPIN = ["montecarlo", "--preset", "spin", "--n-trials", "40000"]
# complex weak values and a nonzero <{x, p}>: the grid's real Gaussian has neither
FOCK_RIEMANN_YAML = (
    'experiment: riemann\nriemann: {rep: {dim: 32}, i_displacement: "1+1j", f_displacement: 0.5}\n'
)


def drop_px_column_scaling(monkeypatch):
    """p x comes back as p: the diagonal's column scaling is dropped."""
    orig = experiments._xp_px
    monkeypatch.setattr(experiments, "_xp_px", lambda x, p: (orig(x, p)[0], p.matrix))


def swap_products(monkeypatch):
    """x p and p x come back swapped: rho is unchanged, R becomes i x p / hbar."""
    orig = experiments._xp_px
    monkeypatch.setattr(experiments, "_xp_px", lambda x, p: orig(x, p)[::-1])


def drop_conjugate(monkeypatch):
    """np.conj is the identity inside experiments only."""
    fake_np = types.ModuleType("numpy")
    fake_np.__dict__.update(vars(np))
    fake_np.conj = lambda z: z
    monkeypatch.setattr(experiments, "np", fake_np)


def drop_swapped_term(monkeypatch):
    """The Born average sums the product a b instead of the (anti)commutator."""
    orig = experiments.averaged_weak_correlation
    monkeypatch.setattr(
        experiments, "averaged_weak_correlation",
        lambda i, basis, a, b, combine="product": orig(i, basis, a, b, "product"),
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


def commutator_sign_dropped(monkeypatch):
    """The weak commutator adds its two orderings: it is the anticommutator."""
    monkeypatch.setattr(weakcorr, "weak_commutator", weakcorr.weak_anticommutator)


def miscount_acceptance(field):
    """One readout stream reports half its accepted trials."""
    def plant(monkeypatch):
        orig = ensemble.estimate_weak_value

        def planted(*args, **kwargs):
            est = orig(*args, **kwargs)
            return dataclasses.replace(est, **{field: getattr(est, field) // 2})

        monkeypatch.setattr(ensemble, "estimate_weak_value", planted)

    return plant


PLANTED = [
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
    ("dual_commutator_flip", "chain", commutator_sign_dropped),
    ("acceptance_vs_born", "mc", miscount_acceptance("accepted_position")),
    ("momentum_acceptance_vs_born", "mc", miscount_acceptance("accepted_momentum")),
]
ARGV = {"grid": GRID_RIEMANN, "ccr": GRID_CCR, "chain": CHAIN, "mc": MC_SPIN}


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


@pytest.mark.parametrize("setup", ["grid", "fock", "ccr", "chain", "mc"])
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
