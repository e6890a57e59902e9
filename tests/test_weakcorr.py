"""Tests for weak values, weak correlations and their symmetries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import hilbert, weakcorr
from weaklab.errors import ArityMismatch, OrthogonalSelection, WeakLabError
from weaklab.hilbert import PAULI_BASIS_ID, pauli
from weaklab.weakcorr import (
    alternating,
    averaged_weak_correlation,
    ccr_decomposition,
    chain_weak_correlation,
    dual_weak_correlation,
    symmetry_residuals,
    weak_anticommutator,
    weak_commutator,
    weak_correlation,
    weak_value,
)


def spin_pair(alpha):
    """Pre/mid states of the xz-plane spin setup at angle alpha."""
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    i = hilbert.StateVector(PAULI_BASIS_ID, np.array([c + s, c - s]) / math.sqrt(2.0))
    f = hilbert.StateVector(PAULI_BASIS_ID, np.array([1.0, 1.0]) / math.sqrt(2.0))
    return i, f


ALPHAS = [-5 * math.pi / 6, -math.pi / 2, -math.pi / 3, math.pi / 6, math.pi / 3, math.pi / 2]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_spin_sigma_z_weak_value(alpha):
    i, f = spin_pair(alpha)
    got = weak_value(i, f, pauli("z"))
    assert got == pytest.approx(math.tan(alpha / 2.0), abs=1e-12)


def test_spin_weak_value_at_right_angle():
    i, f = spin_pair(math.pi / 2)
    assert weak_value(i, f, pauli("z")) == pytest.approx(1.0, abs=1e-12)


def test_identity_weak_value_is_one():
    psi = hilbert.random_state(6, seed=1)
    phi = hilbert.random_state(6, seed=2)
    ident = hilbert.Operator(psi.basis_id, np.eye(6))
    assert weak_value(psi, phi, ident) == pytest.approx(1.0, abs=1e-12)


def test_fock_ground_state_weak_position():
    # hand arithmetic: <f|x|0> = 1/2, <f|0> = 1/sqrt(2) -> x_w = 1/sqrt(2)
    cfg = hilbert.FockConfig(dim=2)
    x, _ = hilbert.make_fock_ops(cfg)
    i = hilbert.basis_state(2, 0, cfg.basis_id)
    f = hilbert.StateVector(cfg.basis_id, np.array([1.0, 1.0]))
    assert weak_value(i, f, x) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


@given(st.integers(0, 2**31), st.integers(2, 9))
@settings(max_examples=50, deadline=None)
def test_reverse_is_conjugate_of_forward_for_hermitian(seed, dim):
    i = hilbert.random_state(dim, seed)
    f = hilbert.random_state(dim, seed + 1)
    op = hilbert.random_hermitian(dim, seed + 2)
    fw = weak_value(i, f, op)
    rv = weak_value(f, i, op)  # <i|op|f>/<i|f>
    assert abs(rv - np.conj(fw)) <= 1e-14 * max(1.0, abs(fw))


def test_orthogonal_selection_raises_before_nonfinite():
    i = hilbert.basis_state(2, 0)
    f = hilbert.basis_state(2, 1)
    with pytest.raises(OrthogonalSelection):
        weak_value(i, f, hilbert.Operator(i.basis_id, np.eye(2)))


@given(st.floats(min_value=1e-16, max_value=1e-6), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_near_orthogonal_never_emits_nonfinite(overlap, seed):
    # i and f differ by a rotation of magnitude ~overlap: the weak value
    # either raises at the eps gate or stays a finite float
    i = hilbert.basis_state(2, 0)
    f = hilbert.StateVector(i.basis_id, np.array([overlap, 1.0]))
    op = hilbert.random_hermitian(2, seed, basis_id=i.basis_id)
    try:
        val = weak_value(i, f, op)
    except OrthogonalSelection:
        return
    assert np.isfinite(val.real) and np.isfinite(val.imag)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pauli_weak_correlations(alpha):
    i, f = spin_pair(alpha)
    t = math.tan(alpha / 2.0)
    assert weak_correlation(i, f, pauli("x"), pauli("y")) == pytest.approx(1j * t, abs=1e-12)
    assert weak_correlation(i, f, pauli("y"), pauli("x")) == pytest.approx(-1j * t, abs=1e-12)


def test_identity_pair_correlation_is_one():
    i = hilbert.random_state(4, seed=3)
    f = hilbert.random_state(4, seed=4)
    ident = hilbert.Operator(i.basis_id, np.eye(4))
    assert weak_correlation(i, f, ident, ident) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_equal_hermitian_pair_gives_nonnegative_real(seed):
    i = hilbert.random_state(5, seed)
    f = hilbert.random_state(5, seed + 1)
    a = hilbert.random_hermitian(5, seed + 2)
    val = weak_correlation(i, f, a, a)
    assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))
    assert val.real >= -1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_pauli_commutator_and_anticommutator(alpha):
    i, f = spin_pair(alpha)
    t = math.tan(alpha / 2.0)
    assert weak_anticommutator(i, f, pauli("x"), pauli("y")) == pytest.approx(0.0, abs=1e-12)
    assert weak_commutator(i, f, pauli("x"), pauli("y")) == pytest.approx(2j * t, abs=1e-12)
    # commutator identity against the independently measured sigma_z
    sz_w = weak_value(i, f, pauli("z"))
    assert weak_commutator(i, f, pauli("x"), pauli("y")) == pytest.approx(2j * sz_w, abs=1e-12)


def test_commutator_of_operator_with_itself_vanishes():
    i = hilbert.random_state(4, seed=5)
    f = hilbert.random_state(4, seed=6)
    a = hilbert.random_hermitian(4, seed=7)
    assert weak_commutator(i, f, a, a) == 0.0


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_commutator_antisymmetry(seed):
    i = hilbert.random_state(6, seed)
    f = hilbert.random_state(6, seed + 1)
    a = hilbert.random_hermitian(6, seed + 2)
    b = hilbert.random_hermitian(6, seed + 3)
    assert weak_commutator(i, f, a, b) == -weak_commutator(i, f, b, a)


def eigenbasis_average(i, basis_op, a, b):
    """sum_f |<f|i>|^2 <a b>_w^(f) over the eigenbasis of ``basis_op``, taken
    as one stack of mid-selections f."""
    f = hilbert.StateVector(i.basis_id, hilbert.eigensystem(basis_op)[1])
    weights = np.abs(hilbert.braket(f.amplitudes, i.amplitudes)) ** 2
    return complex(np.sum(weights * weak_correlation(i, f, a, b)))


@given(st.integers(0, 2**31), st.integers(2, 16))
@settings(max_examples=60, deadline=None)
def test_averaged_product_telescopes_to_expectation(seed, dim):
    i = hilbert.random_state(dim, seed)
    a = hilbert.random_hermitian(dim, seed + 2)
    b = hilbert.random_hermitian(dim, seed + 3)
    got = eigenbasis_average(i, hilbert.random_hermitian(dim, seed + 1), a, b)
    ab = complex(np.vdot(i.amplitudes, a.matrix @ (b.matrix @ i.amplitudes)))
    ba = complex(np.vdot(i.amplitudes, b.matrix @ (a.matrix @ i.amplitudes)))
    assert abs(got - ab) <= 1e-10 * max(1.0, abs(ab))
    # the natural-basis (anti)commutator averages telescope alike
    for combine, want in (("commutator", ab - ba), ("anticommutator", ab + ba)):
        got = averaged_weak_correlation(i, a, b, combine)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@given(st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_averaged_matches_explicit_weighted_sum(seed):
    # weight * weak (anti)commutator over the natural basis, summed the slow
    # way with real divisions
    dim = 6
    i = hilbert.random_state(dim, seed)
    a = hilbert.random_hermitian(dim, seed + 2)
    b = hilbert.random_hermitian(dim, seed + 3)
    for combine, weak in (("commutator", weak_commutator), ("anticommutator", weak_anticommutator)):
        slow = complex(0.0)
        for k in range(dim):
            f = hilbert.basis_state(dim, k)
            w = abs(np.vdot(f.amplitudes, i.amplitudes)) ** 2
            if w == 0.0:
                continue
            slow += w * weak(i, f, a, b)
        fast = averaged_weak_correlation(i, a, b, combine)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_averaged_refuses_a_combine_it_does_not_name():
    i = hilbert.random_state(3, seed=1)
    a = hilbert.random_hermitian(3, seed=2)
    with pytest.raises(ArityMismatch, match="combine must be one of"):
        averaged_weak_correlation(i, a, a, "product")


def test_averaged_fock_commutator_on_safe_support():
    cfg = hilbert.FockConfig(dim=64)
    x, p = hilbert.make_fock_ops(cfg)
    low = hilbert.coherent_state(hilbert.FockConfig(dim=32), 2.0)
    amps = np.zeros(64, dtype=complex)
    amps[:32] = low.amplitudes
    i = hilbert.StateVector(cfg.basis_id, amps)
    got = averaged_weak_correlation(i, x, p, "commutator")
    # oracle: the truncated commutator is i*hbar*diag(1,...,1,1-N)
    diag = np.ones(64)
    diag[-1] = 1.0 - 64
    want = 1j * float(np.sum(diag * np.abs(i.amplitudes) ** 2))
    assert abs(got - want) <= 1e-12
    assert abs(got - 1j) <= 1e-10


def test_averaged_fock_commutator_with_edge_amplitude():
    cfg = hilbert.FockConfig(dim=16)
    x, p = hilbert.make_fock_ops(cfg)
    rng = np.random.default_rng(99)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    i = hilbert.StateVector(cfg.basis_id, amps)
    c_top = i.amplitudes[-1]
    got = averaged_weak_correlation(i, x, p, "commutator")
    assert abs(got - 1j * (1.0 - 16 * abs(c_top) ** 2)) <= 1e-10


def test_ccr_decomposition_same_selection_vanishes():
    cfg = hilbert.FockConfig(dim=8)
    x, p = hilbert.make_fock_ops(cfg)
    i = hilbert.coherent_state(hilbert.FockConfig(dim=8), 0.5)
    rec = ccr_decomposition(i, i, x, p)
    assert rec.lhs == pytest.approx(0.0, abs=1e-12)


def test_ccr_decomposition_born_average_hits_half_hbar():
    cfg = hilbert.FockConfig(dim=32)
    x, p = hilbert.make_fock_ops(cfg)
    i_small = hilbert.coherent_state(hilbert.FockConfig(dim=16), 1.5)
    amps = np.zeros(32, dtype=complex)
    amps[:16] = i_small.amplitudes
    i = hilbert.StateVector(cfg.basis_id, amps)
    _, basis = hilbert.eigenbasis(p)
    total = 0.0
    for f in basis:
        w = abs(np.vdot(f.amplitudes, i.amplitudes)) ** 2
        if w == 0.0:
            continue
        total += w * ccr_decomposition(i, f, x, p).lhs
    assert total == pytest.approx(0.5, abs=1e-10)


def test_single_generic_mid_selection_misses_half_hbar():
    cfg = hilbert.FockConfig(dim=8)
    x, p = hilbert.make_fock_ops(cfg)
    i = hilbert.coherent_state(hilbert.FockConfig(dim=8), 0.4)
    f = hilbert.random_state(8, seed=21, basis_id=cfg.basis_id)
    rec = ccr_decomposition(i, f, x, p)
    # direct-evaluation oracle for this one selection
    x_w = weak_value(i, f, x)
    p_w = weak_value(i, f, p)
    want = x_w.real * p_w.imag - x_w.imag * p_w.real
    assert rec.lhs == pytest.approx(want, abs=1e-13)
    assert abs(rec.lhs - 0.5) > 1e-3  # generically off target per-selection


def test_chain_two_ops_reduces_to_weak_correlation():
    i = hilbert.random_state(5, seed=31)
    f = hilbert.random_state(5, seed=32)
    a = hilbert.random_hermitian(5, seed=33)
    b = hilbert.random_hermitian(5, seed=34)
    states = alternating(i, f, 2)
    chain = chain_weak_correlation(states, (b, a))
    assert chain == weak_correlation(i, f, a, b)


def test_chain_of_identities_is_one():
    i = hilbert.random_state(3, seed=41)
    f = hilbert.random_state(3, seed=42)
    ident = hilbert.Operator(i.basis_id, np.eye(3))
    states = alternating(i, f, 4)
    assert chain_weak_correlation(states, [ident] * 4) == pytest.approx(1.0, abs=1e-12)


def test_chain_four_ops_matches_product_of_ratios_oracle():
    rng_seed = 51
    i = hilbert.random_state(2, seed=rng_seed, basis_id=PAULI_BASIS_ID)
    f = hilbert.random_state(2, seed=rng_seed + 1, basis_id=PAULI_BASIS_ID)
    ops = [hilbert.random_hermitian(2, seed=rng_seed + 2 + k, basis_id=PAULI_BASIS_ID) for k in range(4)]
    states = alternating(i, f, 4)
    got = chain_weak_correlation(states, ops)
    # oracle: explicit product of the four single-gap weak values
    states = [i, f, i, f, i]
    oracle = 1.0 + 0j
    for k in range(4):
        lo, hi = states[k].amplitudes, states[k + 1].amplitudes
        oracle *= np.vdot(hi, ops[k].matrix @ lo) / np.vdot(hi, lo)
    assert got == pytest.approx(oracle, abs=1e-12 * max(1.0, abs(oracle)))


def test_chain_arity_mismatch():
    i, f = spin_pair(1.0)
    states = alternating(i, f, 2)
    with pytest.raises(ArityMismatch):
        chain_weak_correlation(states, (pauli("x"),))


def test_chain_raises_once_a_product_leaves_the_normal_range():
    up = hilbert.basis_state(2, 0, PAULI_BASIS_ID)
    tilted = hilbert.StateVector(PAULI_BASIS_ID, np.array([1e-11, 1.0]))
    ident = hilbert.Operator(PAULI_BASIS_ID, np.eye(2))
    # every gap overlap is 1e-11, above ORTHOGONALITY_EPS; 27 gaps give 1e-297
    assert chain_weak_correlation(alternating(up, tilted, 27), [ident] * 27) == pytest.approx(1.0)
    # 29 gaps give about 1e-319, a subnormal overlap product (the matrix elements too)
    with pytest.raises(WeakLabError, match="normal float range"):
        chain_weak_correlation(alternating(up, tilted, 29), [ident] * 29)
    # the overlaps stay 1, the matrix elements multiply to 1e-320
    small = hilbert.Operator(PAULI_BASIS_ID, 1e-20 * np.eye(2))
    with pytest.raises(WeakLabError, match="normal float range"):
        chain_weak_correlation(alternating(up, up, 16), [small] * 16)
    # a zero matrix element is exact: the chain is 0
    zero = hilbert.Operator(PAULI_BASIS_ID, np.zeros((2, 2)))
    assert chain_weak_correlation(alternating(up, tilted, 4), [ident, zero, ident, ident]) == 0


def test_chain_rejects_orthogonal_neighbors():
    up = hilbert.basis_state(2, 0, PAULI_BASIS_ID)
    down = hilbert.basis_state(2, 1, PAULI_BASIS_ID)
    states = alternating(up, down, 2)  # building the chain checks nothing
    with pytest.raises(OrthogonalSelection):
        chain_weak_correlation(states, (pauli("x"), pauli("x")))


def test_alternating_needs_an_operator():
    i, f = spin_pair(1.0)
    assert [s is i for s in alternating(i, f, 3)] == [True, False, True, False]
    with pytest.raises(ArityMismatch):
        alternating(i, f, 0)


def test_weak_value_is_a_complex_number():
    i, f = spin_pair(1.0)
    for pre, post in ((i, f), (f, i)):
        assert type(weak_value(pre, post, pauli("z"))) is complex


@pytest.mark.parametrize("alpha", [math.pi / 2, math.pi / 3])
def test_pauli_symmetry_residuals_vanish(alpha):
    i, f = spin_pair(alpha)
    res = symmetry_residuals(i, f, pauli("x"), pauli("y"))
    assert res.order_swap <= 1e-12
    assert res.commutator_flip <= 1e-12


def test_symmetry_residuals_equal_operators():
    i = hilbert.random_state(3, seed=61)
    f = hilbert.random_state(3, seed=62)
    a = hilbert.random_hermitian(3, seed=63)
    res = symmetry_residuals(i, f, a, a)
    assert res.commutator_flip == 0.0


@given(st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
def test_symmetry_residuals_random_dim5(seed):
    i = hilbert.random_state(5, seed)
    f = hilbert.random_state(5, seed + 1)
    a = hilbert.random_hermitian(5, seed + 2)
    b = hilbert.random_hermitian(5, seed + 3)
    res = symmetry_residuals(i, f, a, b)
    scale = max(1.0, abs(weak_correlation(i, f, a, b)))
    assert res.order_swap <= 1e-12 * scale
    assert res.commutator_flip <= 1e-12 * scale


def test_odd_order_chain_self_equality():
    # the odd-order "symmetry" is literally the same expression on both
    # sides; assert the self-equality once and move on
    i = hilbert.random_state(3, seed=81)
    f = hilbert.random_state(3, seed=82)
    ops = [hilbert.random_hermitian(3, seed=83 + k) for k in range(3)]
    states = alternating(i, f, 3)
    val = chain_weak_correlation(states, ops)
    assert val == chain_weak_correlation(states, ops)


def test_dual_weak_correlation_explicit_form():
    i = hilbert.random_state(4, seed=71)
    f = hilbert.random_state(4, seed=72)
    a = hilbert.random_hermitian(4, seed=73)
    b = hilbert.random_hermitian(4, seed=74)
    got = dual_weak_correlation(i, f, (a, b))
    num = np.vdot(i.amplitudes, a.matrix @ f.amplitudes) * np.vdot(
        f.amplitudes, b.matrix @ i.amplitudes
    )
    den = np.vdot(i.amplitudes, f.amplitudes) * np.vdot(f.amplitudes, i.amplitudes)
    assert got == pytest.approx(num / den, abs=1e-12 * max(1.0, abs(num / den)))


def stack(states):
    """The states as one stack, one column each."""
    return hilbert.StateVector(states[0].basis_id, np.stack([s.amplitudes for s in states], axis=1))


@given(st.integers(0, 2**31), st.integers(2, 9))
@settings(max_examples=30, deadline=None)
def test_a_stack_evaluates_each_row_as_its_single_state(seed, dim):
    raw = np.stack([hilbert.random_state(dim, seed + k).amplitudes for k in range(4)], axis=1)
    rows = [hilbert.StateVector(f"generic(dim={dim})", column) for column in raw.T]
    f = hilbert.random_state(dim, seed + 4)
    a = hilbert.random_hermitian(dim, seed + 5)
    b = hilbert.random_hermitian(dim, seed + 6)
    evaluations = [
        lambda i, f: weak_value(i, f, a),
        lambda i, f: weak_value(f, i, a),
        lambda i, f: weak_correlation(i, f, a, b),
        lambda i, f: dual_weak_correlation(i, f, (a, b, a)),
        lambda i, f: chain_weak_correlation(alternating(i, f, 3), (a, b, a)),
    ]
    for evaluate in evaluations:
        got = evaluate(hilbert.StateVector(f"generic(dim={dim})", raw), f)
        assert got.shape == (4,)
        # a row's bits do not depend on the other rows of its stack
        for lo, hi in ((0, 1), (1, 3), (3, 4)):
            part = evaluate(hilbert.StateVector(f"generic(dim={dim})", raw[:, lo:hi]), f)
            assert part.tolist() == got[lo:hi].tolist()
        # a lone state agrees to roundoff only: where the stack is below a gap,
        # the operator acts on <f| from the left, for a lone state on |i>
        for value, i in zip(got, rows):
            one = evaluate(i, f)
            assert abs(value - one) <= 1e-13 * max(1.0, abs(one))

    # per-row operators pair two stacks row by row, or a stack with one state
    raw_f = np.stack([hilbert.random_state(dim, seed + 7 + k).amplitudes for k in range(4)], axis=1)
    a_rows = np.stack([hilbert.random_hermitian(dim, seed + 11 + k).matrix for k in range(4)])
    b_rows = np.stack([hilbert.random_hermitian(dim, seed + 15 + k).matrix for k in range(4)])
    basis = f"generic(dim={dim})"

    def rows_of(lo, hi):
        return (hilbert.StateVector(basis, raw[:, lo:hi]), hilbert.StateVector(basis, raw_f[:, lo:hi]),
                hilbert.Operator(basis, a_rows[lo:hi]), hilbert.Operator(basis, b_rows[lo:hi]))

    row_paired = [
        lambda i, f, a, b: weak_value(i, f, a),
        lambda i, f, a, b: weak_value(f, i, a),
        lambda i, f, a, b: weak_correlation(i, f, a, b),
        lambda i, f_, a, b: weak_correlation(i, f, a, b),
        lambda i, f, a, b: dual_weak_correlation(i, f, (a, b, a)),
        lambda i, f, a, b: chain_weak_correlation(alternating(i, f, 3), (a, b, a)),
    ]
    for evaluate in row_paired:
        got = evaluate(*rows_of(0, 4))
        assert got.shape == (4,)
        for r in range(4):
            assert evaluate(*rows_of(r, r + 1)).tolist() == got[r:r + 1].tolist()
            one = evaluate(rows[r], hilbert.StateVector(basis, raw_f[:, r]),
                           hilbert.Operator(basis, a_rows[r]), hilbert.Operator(basis, b_rows[r]))
            assert abs(got[r] - one) <= 1e-13 * max(1.0, abs(one))


def test_a_stack_names_its_first_failing_row():
    up = hilbert.basis_state(2, 0, PAULI_BASIS_ID)
    down = hilbert.basis_state(2, 1, PAULI_BASIS_ID)
    tilted = hilbert.StateVector(PAULI_BASIS_ID, np.array([1e-11, 1.0]))
    ident = hilbert.Operator(PAULI_BASIS_ID, np.eye(2))
    with pytest.raises(OrthogonalSelection, match="^row 2: selection overlap"):
        weak_value(stack([tilted, tilted, up, up]), down, ident)
    # row 1's 29 overlaps of 1e-11 underflow; row 0's overlaps are 1
    with pytest.raises(WeakLabError, match="^row 1: chain products leave the normal float range"):
        chain_weak_correlation(alternating(stack([tilted, up]), tilted, 29), [ident] * 29)
    with pytest.raises(ArityMismatch, match="two stacks"):
        weak_value(stack([up, tilted]), stack([tilted, up]), ident)
    with pytest.raises(ArityMismatch, match="two stacks"):
        weak_value(stack([up, tilted]), stack([tilted, up, up]), ident)
    # a stack of operators pairs two stacks row by row, each of its width
    idents = hilbert.Operator(PAULI_BASIS_ID, np.stack([np.eye(2)] * 2))
    assert weak_value(stack([up, tilted]), stack([tilted, up]), idents).shape == (2,)
    with pytest.raises(OrthogonalSelection, match="^row 1: selection overlap"):
        weak_value(stack([up, up]), stack([up, down]), idents)
    with pytest.raises(ArityMismatch, match=r"a stack of 2 operators meets state stacks of widths \[2, 3\]"):
        weak_value(stack([up, tilted]), stack([tilted, up, up]), idents)
