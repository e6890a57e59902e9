"""Tests for the Hilbert-space foundation layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_matrix
from weaklab import hilbert, pointer, weakcorr
from weaklab.errors import (
    BasisMismatch,
    InvalidConfig,
    NotHermitian,
)

# Hand-evaluated ladder matrix elements, a|1> = |0>:
# x = (a + a+)/sqrt(2) for hbar = mw = 1.
X_FOCK2 = np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0)

# Explicit 3x3 ladder matrices (independent of make_fock_ops).
A3 = np.array(
    [
        [0.0, 1.0, 0.0],
        [0.0, 0.0, np.sqrt(2.0)],
        [0.0, 0.0, 0.0],
    ],
    dtype=complex,
)
X3 = (A3 + A3.conj().T) / np.sqrt(2.0)
P3 = 1j * (A3.conj().T - A3) / np.sqrt(2.0)


def test_fock2_position_matrix():
    x, _ = hilbert.make_fock_ops(hilbert.FockConfig(dim=2))
    np.testing.assert_allclose(x.matrix, X_FOCK2, atol=1e-15)


def test_fock_position_is_exactly_symmetric():
    for n in (2, 3, 17, 64):
        x, _ = hilbert.make_fock_ops(hilbert.FockConfig(dim=n))
        assert np.max(np.abs(x.matrix - x.matrix.conj().T)) == 0.0


def test_fock3_commutator_matches_matmul_oracle():
    x, p = hilbert.make_fock_ops(hilbert.FockConfig(dim=3))
    oracle = X3 @ P3 - P3 @ X3
    np.testing.assert_allclose(oracle, 1j * np.diag([1.0, 1.0, -2.0]), atol=1e-15)
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    np.testing.assert_allclose(comm, oracle, atol=1e-14)


def test_fock_commutator_diagonal_any_dim():
    cfg = hilbert.FockConfig(dim=9, hbar=0.7)
    x, p = hilbert.make_fock_ops(cfg)
    comm = x.matrix @ p.matrix - p.matrix @ x.matrix
    want = 1j * cfg.hbar * np.diag([1.0] * 8 + [1.0 - 9])
    np.testing.assert_allclose(comm, want, atol=1e-13)


def test_fock_dim_too_small():
    with pytest.raises(InvalidConfig):
        hilbert.FockConfig(dim=1)


@pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
def test_configs_reject_an_hbar_that_is_not_positive_and_finite(hbar):
    # a grid at hbar = 0 would give a pointer stage a nan probability
    with pytest.raises(InvalidConfig, match="hbar must be positive and finite"):
        hilbert.GridConfig(64, 10.0, hbar)
    with pytest.raises(InvalidConfig, match="hbar must be positive and finite"):
        hilbert.FockConfig(dim=8, hbar=hbar)


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
def test_grid_rejects_a_length_that_is_not_positive_and_finite(length):
    with pytest.raises(InvalidConfig, match="grid length must be positive and finite"):
        hilbert.GridConfig(64, length)


def test_grid_plane_wave_is_momentum_eigenfunction():
    cfg = hilbert.GridConfig(n_points=64, length=10.0, hbar=1.0)
    _, p = hilbert.make_grid_ops(cfg)
    k = 2.0 * np.pi * 3 / cfg.length  # grid-commensurate
    psi = np.exp(1j * k * cfg.positions())
    out = p.apply(psi)
    np.testing.assert_allclose(out, cfg.hbar * k * psi, atol=1e-10)


def test_grid_constant_state_has_zero_momentum():
    cfg = hilbert.GridConfig(n_points=32, length=4.0)
    _, p = hilbert.make_grid_ops(cfg)
    out = p.apply(np.ones(32, dtype=complex))
    np.testing.assert_allclose(out, 0.0, atol=1e-12)


def test_grid_momentum_hermitian():
    cfg = hilbert.GridConfig(n_points=48, length=7.0)
    _, p = hilbert.make_grid_ops(cfg)
    m = dense_matrix(p)
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12


def test_grid_too_coarse():
    with pytest.raises(InvalidConfig):
        hilbert.GridConfig(n_points=4, length=1.0)


def test_pauli_matrices_exact():
    np.testing.assert_array_equal(
        hilbert.pauli("x").matrix, np.array([[0, 1], [1, 0]], dtype=complex)
    )
    np.testing.assert_array_equal(
        hilbert.pauli("y").matrix, np.array([[0, -1j], [1j, 0]], dtype=complex)
    )
    assert hilbert.pauli("z").matrix is None
    np.testing.assert_array_equal(hilbert.pauli("z").diagonal, [1.0, -1.0])


def inner(psi, phi):
    """<psi|phi> of two single states: a plain complex number."""
    value = hilbert.braket(psi.amplitudes, phi.amplitudes)
    assert type(value) is complex
    return value


def expectation(psi, op):
    """<psi|op|psi> of a single state."""
    return hilbert.braket(psi.amplitudes, op.apply(psi.amplitudes))


def test_inner_and_expectation_basics():
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    down = hilbert.basis_state(2, 1, hilbert.PAULI_BASIS_ID)
    assert inner(up, up) == pytest.approx(1.0)
    assert inner(up, down) == 0.0
    assert expectation(up, hilbert.pauli("z")) == pytest.approx(1.0)


def test_inner_conjugate_linear_in_first_argument():
    psi = hilbert.random_state(5, seed=11)
    phi = hilbert.random_state(5, seed=12)
    assert inner(psi, phi) == pytest.approx(np.conj(inner(phi, psi)))
    assert inner(psi, phi) == np.vdot(psi.amplitudes, phi.amplitudes)  # the same dot


def test_basis_mismatch_raises():
    psi = hilbert.random_state(2, seed=1, basis_id="a")
    phi = hilbert.random_state(2, seed=2, basis_id="b")
    with pytest.raises(BasisMismatch):
        weakcorr.selection_overlap(psi, phi)
    with pytest.raises(BasisMismatch):
        weakcorr.weak_value(psi, psi, hilbert.pauli("z"))


@given(st.integers(0, 2**31), st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_hermitian_expectation_is_real(seed, dim):
    psi = hilbert.random_state(dim, seed)
    op = hilbert.random_hermitian(dim, seed + 1)
    assert abs(expectation(psi, op).imag) <= 1e-12


@given(st.integers(0, 2**31), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_resolution_of_identity(seed, dim):
    psi = hilbert.random_state(dim, seed)
    phi = hilbert.random_state(dim, seed + 1)
    _, basis = hilbert.eigenbasis(hilbert.random_hermitian(dim, seed + 2))
    total = sum(inner(psi, f) * inner(f, phi) for f in basis)
    assert abs(total - inner(psi, phi)) <= 1e-10


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_truncated_ccr_exact_off_the_edge(seed):
    cfg = hilbert.FockConfig(dim=12)
    x, p = hilbert.make_fock_ops(cfg)
    amps = np.zeros(12, dtype=complex)
    rng = np.random.default_rng(seed)
    amps[:11] = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    psi = hilbert.StateVector(cfg.basis_id, amps)
    comm = hilbert.Operator(cfg.basis_id, x.matrix @ p.matrix - p.matrix @ x.matrix)
    assert abs(expectation(psi, comm) - 1j * cfg.hbar) <= 1e-12


def test_random_state_deterministic_and_normalized():
    a = hilbert.random_state(9, seed=42)
    b = hilbert.random_state(9, seed=42)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_random_hermitian_deterministic_and_hermitian():
    a = hilbert.random_hermitian(6, seed=7)
    b = hilbert.random_hermitian(6, seed=7)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert np.max(np.abs(a.matrix - a.matrix.conj().T)) == 0.0


@pytest.mark.parametrize("seed", [0, 5, 12345, 2**31 - 1])
@pytest.mark.parametrize("dim", [1, 2, 64])
def test_random_hermitian_keeps_the_bits_of_its_formula(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert hilbert.random_hermitian(dim, seed).matrix.tobytes() == (0.5 * (m + m.conj().T)).tobytes()


def test_an_operator_stack_applies_each_matrix_to_its_own_column():
    mats = np.stack([hilbert.random_hermitian(5, seed).matrix for seed in range(3)])
    kets = np.stack([hilbert.random_state(5, 10 + seed).amplitudes for seed in range(3)], axis=1)
    op = hilbert.Operator("generic(dim=5)", mats)
    assert (op.rows, op.dim) == (3, 5)
    got = op.apply(kets)
    for r in range(3):
        assert got[:, r].tobytes() == (mats[r] @ kets[:, r]).tobytes()
        assert op.apply(kets[:, 0])[:, r].tobytes() == (mats[r] @ kets[:, 0]).tobytes()
    assert hilbert.Operator("generic(dim=5)", mats[0]).rows is None


def test_an_operator_keeps_only_memory_that_nothing_can_write():
    mats = np.stack([hilbert.random_hermitian(3, seed).matrix for seed in range(3)])
    # read-only views of memory that is writable elsewhere are copied
    view = mats.view()
    view.flags.writeable = False
    spread = np.broadcast_to(mats[0], (2, 3, 3))
    for values in (mats, view, spread):
        op = hilbert.Operator("generic(dim=3)", values)
        before = op.matrix.copy()
        mats[0, 0, 0] += 1.0
        assert op.matrix.tobytes() == before.tobytes()
    # a view of a frozen owner is kept, not copied
    mats.flags.writeable = False
    assert hilbert.Operator("generic(dim=3)", mats[1:]).matrix.base is mats


def test_coherent_state_safe_edge():
    cfg = hilbert.FockConfig(dim=64)
    psi = hilbert.coherent_state(cfg, 2.0)
    assert hilbert.edge_amplitude(psi) < 1e-12
    # Poisson number statistics: <n> = |alpha|^2
    n_mean = float(np.sum(np.arange(64) * np.abs(psi.amplitudes) ** 2))
    assert n_mean == pytest.approx(4.0, rel=1e-10)


def test_gaussian_grid_state_moments():
    cfg = hilbert.GridConfig(n_points=512, length=40.0)
    psi = hilbert.gaussian_grid_state(cfg, width=2.0, center=1.0, momentum=0.5)
    xs = cfg.positions()
    prob = np.abs(psi.amplitudes) ** 2
    mean = float(np.sum(xs * prob))
    var = float(np.sum((xs - mean) ** 2 * prob))
    assert mean == pytest.approx(1.0, abs=1e-8)
    assert var == pytest.approx(4.0, rel=1e-6)


def test_state_normalizes_on_construction():
    psi = hilbert.StateVector("generic(dim=3)", [3.0, 0.0, 4.0])
    np.testing.assert_allclose(np.abs(psi.amplitudes), [0.6, 0.0, 0.8], atol=1e-15)
    with pytest.raises(InvalidConfig):
        hilbert.StateVector("generic(dim=2)", [0.0, 0.0])


def test_stack_normalizes_each_column():
    amps = np.array([[3.0, 1.0], [0.0, 1.0], [4.0, 0.0]])
    stack = hilbert.StateVector("generic(dim=3)", amps)
    assert stack.dim == 3 and stack.amplitudes.shape == (3, 2)
    for c in range(2):
        one = hilbert.StateVector("generic(dim=3)", amps[:, c])
        assert np.array_equal(stack.amplitudes[:, c], one.amplitudes)
    # a column's norm is its own: the same bits in a stack of any width
    rng = np.random.default_rng(5)
    wide = rng.standard_normal((40, 9)) + 1j * rng.standard_normal((40, 9))
    full = hilbert.StateVector("generic(dim=40)", wide).amplitudes
    for c in range(9):
        for part in (wide[:, c], wide[:, c:]):
            normalized = hilbert.StateVector("generic(dim=40)", part).amplitudes
            assert np.array_equal(full[:, c] if part.ndim == 1 else full[:, c:], normalized)
    with pytest.raises(InvalidConfig):
        hilbert.StateVector("generic(dim=2)", [[1.0, 0.0], [1.0, 0.0]])


@pytest.mark.parametrize("kind", ["dense", "diagonal", "spectral"])
def test_operator_apply_on_a_block_equals_its_columns(kind):
    cfg = hilbert.GridConfig(32, 10.0, 0.7)
    x, p = hilbert.make_grid_ops(cfg)
    op = {"dense": hilbert.random_hermitian(32, 5, cfg.basis_id), "diagonal": x, "spectral": p}[kind]
    rng = np.random.default_rng(11)
    block = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
    columns = np.stack([op.apply(block[:, c]) for c in range(5)], axis=1)
    if kind == "dense":
        # one matrix product against five matrix-vector products: BLAS may
        # round them differently
        assert np.abs(op.apply(block) - columns).max() <= 1e-14 * np.abs(columns).max()
    else:
        assert np.array_equal(op.apply(block), columns)


def test_braket_pairs_rows_and_rounds_each_row_alone():
    rng = np.random.default_rng(3)
    bras = rng.standard_normal((33, 6)) + 1j * rng.standard_normal((33, 6))
    kets = rng.standard_normal((33, 6)) + 1j * rng.standard_normal((33, 6))
    one = kets[:, 0].copy()
    # a state pairs with every row of a stack, two stacks pair row by row
    assert hilbert.braket(bras, one).tolist() == [
        hilbert.braket(bras[:, c].copy(), one) for c in range(6)]
    assert hilbert.braket(one, bras).tolist() == [
        hilbert.braket(one, bras[:, c].copy()) for c in range(6)]
    assert hilbert.braket(bras, kets).tolist() == [
        hilbert.braket(bras[:, c].copy(), kets[:, c].copy()) for c in range(6)]
    assert hilbert.braket(bras[:, 2:4], kets[:, 2:4]).tolist() == (
        hilbert.braket(bras, kets)[2:4].tolist())
    # a single pair rounds as np.vdot does
    assert hilbert.braket(bras[:, 1].copy(), one) == np.vdot(bras[:, 1].copy(), one)
    assert np.allclose(hilbert.braket(bras, kets), np.einsum("jc,jc->c", bras.conj(), kets))


def test_a_non_hermitian_matrix_is_refused_where_it_is_coupled_or_diagonalized():
    op = hilbert.Operator("generic(dim=2)", np.array([[0.0, 1.0], [0.0, 0.0]]))
    i = hilbert.basis_state(2, 0)
    phi = pointer.gaussian_pointer(pointer.pointer_grid(1.0), 1.0)
    for generator in (pointer.POSITION, pointer.MOMENTUM):
        with pytest.raises(NotHermitian, match="coupled observable"):
            pointer.conditional_pointers(i, i, op, generator, 0.01, phi)
    with pytest.raises(NotHermitian, match="eigenbasis"):
        hilbert.eigenbasis(op)


def _builder_operators():
    for dim in (2, 3, 16, 64):
        for hbar in (0.25, 1.0, 3.7):
            yield from hilbert.make_fock_ops(hilbert.FockConfig(dim, hbar))
    for n, length, hbar in ((8, 10.0, 1.0), (128, 40.0, 0.5), (1023, 7.3, 2.0)):
        x, p = hilbert.make_grid_ops(hilbert.GridConfig(n, length, hbar))
        yield from (x.diagonal, p.spectrum)  # each Hermitian when real
    for axis in "xyz":
        yield hilbert.pauli(axis).stored  # z is a diagonal
    for seed in (0, 5, 12345, 2**31 - 1):
        for dim in (1, 2, 64):
            yield hilbert.random_hermitian(dim, seed)


def test_every_builder_is_hermitian_bit_for_bit():
    # the builders run no Hermiticity check, so each must equal its
    # conjugate transpose exactly (signed zeros may differ, so no bytes)
    for op in _builder_operators():
        m = op if isinstance(op, np.ndarray) else op.matrix
        assert np.array_equal(m, m.conj().T)  # a 1-D array is Hermitian when real
