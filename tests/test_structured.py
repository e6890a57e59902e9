"""The structured exact path against the dense oracle it replaced.

The grid position operator is stored as its diagonal and the natural
mid-selection basis as the identity.  Every product that involves them
must give the same bits as the dense matrices did: the terms the dense
products add are exact zeros.  The grid momentum eigensystem is the
closed-form plane waves; it agrees with ``eigh`` of the dense p to
roundoff, not bit for bit, since eigenvector phases are arbitrary.

The dense grid matrices (p, rho, R, the half line, the pointer phase
kernel) are built each in one buffer, in place; the expressions they
were built from before stay here as oracles, equal bit for bit, and a
traced memory budget holds the buffers to that count.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weaklab import experiments, hilbert, pointer
from weaklab.errors import GridResolutionError, InvalidConfig, NotHermitian
from weaklab.weakcorr import averaged_weak_correlation, weak_value

grids = st.builds(
    hilbert.GridConfig,
    n_points=st.integers(8, 256),
    length=st.floats(1.0, 100.0),
    hbar=st.floats(0.25, 4.0),
)


def dense_x(cfg):
    """The grid position matrix as it was built densely."""
    return np.diag(cfg.positions().astype(complex))


@settings(max_examples=30, deadline=None)
@given(cfg=grids)
def test_riemann_ops_bit_identical_to_dense(cfg):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    rho, r = experiments.riemann_ops(x_op, p_op, cfg.hbar)
    xm, pm = dense_x(cfg), p_op.matrix
    assert np.array_equal(rho.matrix, (xm @ pm + pm @ xm) / (2.0 * cfg.hbar))
    assert np.array_equal(r.matrix, 1j * (pm @ xm) / cfg.hbar)


@settings(max_examples=30, deadline=None)
@given(cfg=grids)
def test_commutator_matrix_bit_identical_to_dense(cfg):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    xp, px = experiments._xp_px(x_op, p_op)
    xm, pm = dense_x(cfg), p_op.matrix
    assert np.array_equal(xp - px, xm @ pm - pm @ xm)


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_weak_value_on_diagonal_x_bit_identical(cfg, seed):
    x_op, _ = hilbert.make_grid_ops(cfg)
    x_dense = hilbert.Operator(cfg.basis_id, dense_x(cfg))
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    f = hilbert.random_state(cfg.n_points, seed + 1, cfg.basis_id)
    for pre, post in ((i, f), (f, i)):
        assert weak_value(pre, post, x_op) == weak_value(pre, post, x_dense)


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_natural_basis_average_bit_identical_to_basis_list(cfg, seed):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    x_dense = hilbert.Operator(cfg.basis_id, dense_x(cfg))
    basis = [hilbert.basis_state(cfg.n_points, k, cfg.basis_id) for k in range(cfg.n_points)]
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    for combine in ("commutator", "anticommutator", "product"):
        fast = averaged_weak_correlation(i, hilbert.NATURAL_BASIS, x_op, p_op, combine)
        assert fast == averaged_weak_correlation(i, basis, x_dense, p_op, combine)
        assert fast == averaged_weak_correlation(i, basis, x_op, p_op, combine)


def test_grid_x_is_stored_diagonal():
    cfg = hilbert.GridConfig(16, 4.0)
    x_op, p_op = hilbert.make_grid_ops(cfg)
    assert np.array_equal(x_op.diagonal, cfg.positions())
    assert x_op.dim == 16
    assert np.array_equal(x_op.matrix, dense_x(cfg))
    assert x_op.matrix is x_op.matrix  # built once, on first access
    assert not x_op.matrix.flags.writeable and not x_op.diagonal.flags.writeable
    assert p_op.diagonal is None


def test_diagonal_hermiticity_residual_equals_dense():
    d = np.array([1.0, 2.0 + 3e-12j, -1.0])
    assert hilbert.hermitian_residual(d) == hilbert.hermitian_residual(np.diag(d))
    with pytest.raises(NotHermitian):
        hilbert.Operator("generic(dim=3)", diagonal=d, hermitian_hint=True)
    hilbert.Operator("generic(dim=3)", diagonal=d.real, hermitian_hint=True)


@pytest.mark.parametrize("kwargs", [
    {},
    {"matrix": np.eye(2), "diagonal": np.ones(2)},
    {"diagonal": np.eye(2)},
])
def test_operator_needs_one_storage(kwargs):
    with pytest.raises(InvalidConfig):
        hilbert.Operator("generic(dim=2)", **kwargs)


def test_pauli_operators_are_built_once():
    for axis in "xyz":
        op = hilbert.pauli(axis)
        assert op is hilbert.pauli(axis)
        assert not op.matrix.flags.writeable
    with pytest.raises(InvalidConfig):
        hilbert.pauli("w")


@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(
        st.integers(4, 128).map(lambda h: 2 * h),  # even, 8..256
        st.integers(4, 127).map(lambda h: 2 * h + 1),  # odd, 9..255
    ),
    length=st.floats(1.0, 100.0),
    hbar=st.floats(0.25, 4.0),
)
@example(n=8, length=1.0, hbar=1.0)
@example(n=9, length=3.3, hbar=0.25)
@example(n=255, length=100.0, hbar=4.0)
@example(n=256, length=40.0, hbar=1.0)
def test_momentum_eigensystem_matches_eigh(n, length, hbar):
    cfg = hilbert.GridConfig(n, length, hbar)
    _, p_op = hilbert.make_grid_ops(cfg)
    w, v = cfg.momentum_eigensystem()
    scale = np.max(np.abs(hbar * cfg.wavenumbers()))
    assert np.linalg.norm(p_op.matrix @ v - v * w) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(cfg.n_points)) <= 1e-12
    assert np.max(np.abs(w - np.linalg.eigh(p_op.matrix)[0])) <= 1e-12 * scale
    assert np.all(np.diff(w) > 0)


def eigh_momentum_eigensystem(cfg):
    """The eigensystem as the dense eigh of the grid p gave it."""
    return np.linalg.eigh(hilbert.make_grid_ops(cfg)[1].matrix)


def test_ccr_plane_waves_agree_with_eigh(monkeypatch):
    cfg = hilbert.GridConfig(128, 40.0)
    plane = experiments.ccr_experiment(cfg)
    monkeypatch.setattr(hilbert.GridConfig, "momentum_eigensystem", eigh_momentum_eigensystem)
    oracle = experiments.ccr_experiment(cfg)
    verdicts = [[(c.name, c.passed) for c in rep.checks] for rep in (plane, oracle)]
    assert verdicts[0] == verdicts[1]
    assert plane.passed
    assert [r.index for r in plane.per_f] == [r.index for r in oracle.per_f]
    diff = abs(plane.pointer_corr_over_g2 - oracle.pointer_corr_over_g2)
    assert diff <= 1e-13 * abs(oracle.pointer_corr_over_g2)


def test_grid_ccr_runs_without_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("the grid ccr experiment called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert experiments.ccr_experiment(hilbert.GridConfig(64, 20.0)).passed


@settings(max_examples=30, deadline=None)
@given(cfg=grids)
def test_grid_momentum_bit_identical_to_dense(cfg):
    n = cfg.n_points
    pm = np.fft.ifft(cfg.wavenumbers()[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0) * cfg.hbar
    _, p_op = hilbert.make_grid_ops(cfg)
    assert np.array_equal(p_op.matrix, 0.5 * (pm + pm.conj().T))


def dense_hermitian_residual(m):
    return float(np.max(np.abs(m - m.conj().T)))


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 40), slab_entries=st.integers(1, 1600), seed=st.integers(0, 2**31 - 1))
@example(n=37, slab_entries=64, seed=0)  # slabs of 1 row
@example(n=37, slab_entries=370, seed=1)  # 10-row slabs and a 7-row tail
def test_slabbed_hermitian_residual_equals_dense(n, slab_entries, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_SLAB_ENTRIES", slab_entries)
        assert hilbert.hermitian_residual(m) == dense_hermitian_residual(m)


@pytest.mark.parametrize("entry", [(0, 0), (150, 7), (299, 299)])
def test_slabbed_hermitian_residual_propagates_nan(entry):
    # 300 rows: slabs of 218 and 82 rows at the default slab size; a NaN
    # at (299, 299) lies in the last slab only
    rng = np.random.default_rng(entry[0])
    m = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    assert hilbert.hermitian_residual(m) == dense_hermitian_residual(m)
    m[entry] = np.nan
    assert math.isnan(dense_hermitian_residual(m))
    assert math.isnan(hilbert.hermitian_residual(m))


def dense_half_line_residual(rep, r, i):
    """The half-line residual as riemann_experiment computed it from dense temporaries."""
    half_line = 0.5 * (r.matrix + r.matrix.conj().T) - 0.5 * np.eye(r.dim)
    if isinstance(rep, hilbert.FockConfig):
        return float(np.max(np.abs(half_line[: rep.dim - 2, : rep.dim - 2])))
    return float(np.linalg.norm(half_line @ i.amplitudes))


@settings(max_examples=30, deadline=None)
@given(rep=st.one_of(grids, st.builds(hilbert.FockConfig, dim=st.integers(3, 64),
                                      hbar=st.floats(0.25, 4.0))))
def test_half_line_residual_bit_identical_to_dense(rep):
    x_op, p_op = experiments._ccr_ops(rep)
    _, r = experiments.riemann_ops(x_op, p_op, rep.hbar)
    i, _ = experiments.riemann_selections(rep)
    report = experiments.riemann_experiment(rep)
    assert report.half_line_residual == dense_half_line_residual(rep, r, i)


def dense_kernel_rows(initial, final, generator, g, phi, eigensystem):
    """conditional_pointers' rows with the phase kernel built as one exp of temporaries."""
    a = np.stack([s.amplitudes for s in initial], axis=1)
    b = np.stack([s.amplitudes for s in final], axis=1)
    w, v = eigensystem
    if v is not None:
        a, b = v.conj().T @ a, v.conj().T @ b
    coeffs = b.conj().T * a.T
    grid = phi.grid
    coeff = -1j * pointer.COUPLING_SIGN[generator] * g
    if generator == pointer.POSITION:
        kernel = np.exp(coeff * np.outer(w, grid.positions()) / grid.hbar)
        kernel *= phi.wavefunction
        return coeffs @ kernel
    kernel = np.exp(coeff * np.outer(w, grid.wavenumbers()))
    kernel *= np.fft.fft(phi.wavefunction)
    return np.fft.ifft(coeffs @ kernel, axis=1)


@settings(max_examples=30, deadline=None)
@given(
    cfg=grids,
    which=st.sampled_from(["x", "p"]),
    generator=st.sampled_from([pointer.POSITION, pointer.MOMENTUM]),
    g=st.floats(-0.1, 0.1),
    seed=st.integers(0, 2**31 - 1),
)
def test_pointer_kernel_bit_identical_to_dense(oracle_wraps, cfg, which, generator, g, seed):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    obs, eigensystem = (
        (x_op, (x_op.diagonal.real, None)) if which == "x" else (p_op, cfg.momentum_eigensystem())
    )
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    fs = [hilbert.random_state(cfg.n_points, seed + k, cfg.basis_id) for k in (1, 2)]
    phi = pointer.gaussian_pointer(pointer.pointer_grid(1.0, cfg.hbar, 256), 1.0)
    if any(oracle_wraps(i, f, obs, generator, g, phi.grid) for f in fs):
        # the coupling wraps the pointer, so the kernel returns no rows
        with pytest.raises(GridResolutionError):
            pointer.conditional_pointers([i], fs, obs, generator, g, phi, eigensystem)
        return
    rows, _ = pointer.conditional_pointers([i], fs, obs, generator, g, phi, eigensystem)
    assert np.array_equal(rows, dense_kernel_rows([i], fs, generator, g, phi, eigensystem))


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while ``fn`` runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dense_grid_path_memory_budget():
    # in units of one n x n complex matrix; the dense temporaries this path
    # once built peaked at 4.03 (make_grid_ops) and 6.0 (riemann_experiment),
    # and ccr_experiment, holding its momentum basis three times, at 7.28
    cfg = hilbert.GridConfig(512, 40.0)
    unit = cfg.n_points**2 * 16
    assert traced_peak(lambda: hilbert.make_grid_ops(cfg)) <= 3.0 * unit
    assert traced_peak(lambda: experiments.riemann_experiment(cfg)) <= 4.5 * unit
    assert traced_peak(lambda: experiments.ccr_experiment(cfg, n_trials=0)) <= 5.75 * unit
