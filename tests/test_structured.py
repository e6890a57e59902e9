"""The structured exact path against the dense oracle it replaced.

The grid position operator is stored as its diagonal, the grid momentum
as its spectrum, and the Born average reads the natural mid-selection
basis off the entries of its kets.  Every product that involves the
diagonal x or the natural basis must give the same bits as the dense
matrices and an explicit basis list did: the terms the dense products add
are exact zeros.  The spectral p is applied by FFTs, so it agrees with its
dense reference (``conftest.dense_matrix``, the symmetrized FFT of the
identity), and rho, R and the half line built on it agree with their dense
expressions, to a stated roundoff tolerance.  The grid momentum
eigenvectors are the closed-form plane waves of ``GridConfig.plane_waves``,
and the DFT columns of ``hilbert.eigensystem``; they agree with ``eigh`` of
the dense p to roundoff, not bit for bit, since eigenvector phases are
arbitrary.  A ccr run expands its momentum stage on the kept
mid-selection columns only, and that stage equals the one on the whole
eigenbasis.

The dense expressions the grid path was built from stay here as oracles,
and a traced memory budget holds a grid riemann run, a grid ccr run and
the grid operator builder to no n x n buffer at all.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import dense_matrix
from weaklab import experiments, hilbert, pointer
from weaklab.errors import GridResolutionError, InvalidConfig, NotHermitian, SelectionAnnihilated
from weaklab.weakcorr import averaged_weak_correlation, weak_value

grids = st.builds(
    hilbert.GridConfig,
    n_points=st.integers(8, 256),
    length=st.floats(1.0, 100.0),
    hbar=st.floats(0.25, 4.0),
)

# Roundoff tolerance of a spectral (FFT) application against the dense
# mat-vec, relative to the operator's scale times |psi|: max |hbar k| for
# p, max |x| max |hbar k| / hbar for rho and R.  The largest ratio seen over
# 300 random grids of 8-512 points was 4.8e-16.
SPECTRAL_RTOL = 1e-14


def dense_x(cfg):
    """The grid position matrix as it was built densely."""
    return np.diag(cfg.positions().astype(complex))


def unit_state(n, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return psi / np.linalg.norm(psi)


def operator_scales(cfg):
    """(max |hbar k|, max |x| max |hbar k| / hbar): the scales of p and of rho, R."""
    p_max = float(np.max(np.abs(cfg.hbar * cfg.wavenumbers())))
    return p_max, float(np.max(np.abs(cfg.positions()))) * p_max / cfg.hbar


@settings(max_examples=40, deadline=None)
@given(
    cfg=st.builds(
        hilbert.GridConfig,
        n_points=st.integers(8, 512),
        length=st.floats(1.0, 100.0),
        hbar=st.floats(0.25, 4.0),
    ),
    seed=st.integers(0, 2**31 - 1),
)
@example(cfg=hilbert.GridConfig(8, 1.0), seed=0)
@example(cfg=hilbert.GridConfig(511, 100.0, 4.0), seed=1)
@example(cfg=hilbert.GridConfig(512, 40.0, 0.25), seed=2)
def test_spectral_momentum_matches_dense_matrix(cfg, seed):
    _, p_op = hilbert.make_grid_ops(cfg)
    assert p_op.spectrum is not None
    psi = unit_state(cfg.n_points, seed)
    tol = SPECTRAL_RTOL * operator_scales(cfg)[0]
    pm = dense_matrix(p_op)
    assert np.linalg.norm(p_op.apply(psi) - pm @ psi) <= tol
    assert np.linalg.norm(p_op.apply_left(psi) - psi @ pm) <= tol


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_rho_and_r_applications_match_dense_oracle(cfg, seed):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    xm, pm = dense_x(cfg), dense_matrix(p_op)
    psi = unit_state(cfg.n_points, seed)
    tol = SPECTRAL_RTOL * operator_scales(cfg)[1]
    rho_dense = (xm @ pm + pm @ xm) / (2.0 * cfg.hbar)
    assert np.linalg.norm(experiments._rho_on(x_op, p_op, cfg.hbar, psi) - rho_dense @ psi) <= tol
    _, px = experiments._xp_px_on(x_op, p_op, psi)
    assert np.linalg.norm(1j * px / cfg.hbar - (1j * (pm @ xm) / cfg.hbar) @ psi) <= tol


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_commutator_products_match_dense_oracle(cfg, seed):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    xm, pm = dense_x(cfg), dense_matrix(p_op)
    psi = unit_state(cfg.n_points, seed)
    xp, px = experiments._xp_px_on(x_op, p_op, psi)
    tol = SPECTRAL_RTOL * cfg.hbar * operator_scales(cfg)[1]
    assert np.linalg.norm((xp - px) - (xm @ pm - pm @ xm) @ psi) <= tol


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_weak_value_on_diagonal_x_bit_identical(cfg, seed):
    x_op, _ = hilbert.make_grid_ops(cfg)
    x_dense = hilbert.Operator(cfg.basis_id, dense_x(cfg))
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    f = hilbert.random_state(cfg.n_points, seed + 1, cfg.basis_id)
    for pre, post in ((i, f), (f, i)):
        assert weak_value(pre, post, x_op) == weak_value(pre, post, x_dense)


def basis_list_average(i, basis, a, b, combine):
    """The Born average over an orthonormal list of basis states, each <f|ket>
    a product with the stacked basis rows, as a dense basis takes it."""
    rows = np.stack([f.amplitudes for f in basis])
    psi = i.amplitudes
    keep = np.abs(rows.conj() @ psi) > experiments.ORTHOGONALITY_EPS
    forward = (a.apply_left(psi.conj()) @ rows.T) * (rows.conj() @ b.apply(psi))
    swapped = (b.apply_left(psi.conj()) @ rows.T) * (rows.conj() @ a.apply(psi))
    if combine == "commutator":
        return complex(np.sum(forward[keep] - swapped[keep]))
    return complex(np.sum(forward[keep] + swapped[keep]))


@settings(max_examples=30, deadline=None)
@given(cfg=grids, seed=st.integers(0, 2**31 - 1))
def test_natural_basis_average_bit_identical_to_basis_list(cfg, seed):
    x_op, p_op = hilbert.make_grid_ops(cfg)
    x_dense = hilbert.Operator(cfg.basis_id, dense_x(cfg))
    basis = [hilbert.basis_state(cfg.n_points, k, cfg.basis_id) for k in range(cfg.n_points)]
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    for combine in ("commutator", "anticommutator"):
        fast = averaged_weak_correlation(i, x_op, p_op, combine)
        assert fast == averaged_weak_correlation(i, x_dense, p_op, combine)
        assert fast == basis_list_average(i, basis, x_dense, p_op, combine)
        assert fast == basis_list_average(i, basis, x_op, p_op, combine)


def test_grid_x_is_stored_diagonal():
    cfg = hilbert.GridConfig(16, 4.0)
    x_op, p_op = hilbert.make_grid_ops(cfg)
    assert np.array_equal(x_op.diagonal, cfg.positions())
    assert x_op.dim == 16 and x_op.rows is None
    assert x_op.matrix is None and x_op.spectrum is None  # one form, never a dense one
    assert x_op.stored is x_op.diagonal and not x_op.diagonal.flags.writeable
    assert p_op.matrix is None and p_op.diagonal is None
    assert np.array_equal(p_op.spectrum, cfg.wavenumbers()) and p_op.scale == cfg.hbar
    assert p_op.dim == 16 and p_op.rows is None
    assert p_op.stored is p_op.spectrum and not p_op.spectrum.flags.writeable


def couple_observable(op):
    """One pointer stage of ``op`` between two copies of basis state 0."""
    i = hilbert.basis_state(op.dim, 0, op.basis_id)
    phi = pointer.gaussian_pointer(pointer.pointer_grid(1.0), 1.0)
    return pointer.conditional_pointers(i, i, op, pointer.MOMENTUM, 0.01, phi)


def test_spectral_hermiticity_reads_the_spectrum():
    # the dense matrix of any spectrum is symmetrized, so only the spectrum shows this
    k = np.array([0.0, 1.0, -1.0 + 3e-12j])
    with pytest.raises(NotHermitian, match="coupled observable"):
        couple_observable(hilbert.Operator("generic(dim=3)", spectrum=k))
    op = hilbert.Operator("generic(dim=3)", spectrum=k.real, scale=2.0)
    couple_observable(op)
    m = dense_matrix(op)
    assert np.array_equal(m, m.conj().T)
    w = np.linalg.eigvalsh(m)
    assert np.max(np.abs(w - np.sort(2.0 * k.real))) <= 1e-15
    assert np.array_equal(hilbert.eigensystem(op)[0], 2.0 * k.real)


def test_grid_runs_read_no_dense_matrix(monkeypatch):
    # a grid operator has no matrix, and the one n x n array of the grid p,
    # its DFT eigenvectors, is built only by an eigensystem that no grid run asks for
    real = hilbert.eigensystem

    def no_dense_eigensystem(op):
        assert op.spectrum is None, f"the DFT eigensystem of a {op.dim}-level operator was built"
        return real(op)

    monkeypatch.setattr(hilbert, "eigensystem", no_dense_eigensystem)
    cfg = hilbert.GridConfig(128, 40.0)
    assert all(op.matrix is None for op in hilbert.make_grid_ops(cfg))
    with pytest.raises(AssertionError, match="DFT eigensystem"):
        couple_observable(hilbert.make_grid_ops(cfg)[1])
    assert experiments.riemann_experiment(cfg).passed
    assert experiments.ccr_experiment(cfg, n_trials=20000, g_sweep=(0.02,)).passed


def test_diagonal_hermiticity_residual_equals_dense():
    d = np.array([1.0, 2.0 + 3e-12j, -1.0])
    assert hilbert.hermitian_residual(d) == hilbert.hermitian_residual(np.diag(d))
    with pytest.raises(NotHermitian, match="coupled observable"):
        couple_observable(hilbert.Operator("generic(dim=3)", diagonal=d))
    couple_observable(hilbert.Operator("generic(dim=3)", diagonal=d.real))


@pytest.mark.parametrize("kwargs", [
    {},
    {"matrix": np.eye(2), "diagonal": np.ones(2)},
    {"diagonal": np.eye(2)},
    {"diagonal": np.ones(2), "spectrum": np.ones(2)},
    {"spectrum": np.eye(2)},
])
def test_operator_needs_one_storage(kwargs):
    with pytest.raises(InvalidConfig):
        hilbert.Operator("generic(dim=2)", **kwargs)


def test_pauli_operators_are_built_once():
    for axis in "xyz":
        op = hilbert.pauli(axis)
        assert op is hilbert.pauli(axis)
        assert not op.stored.flags.writeable
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
    w = hbar * np.fft.fftshift(cfg.wavenumbers())
    v = cfg.plane_waves(np.arange(n))
    scale = np.max(np.abs(hbar * cfg.wavenumbers()))
    pm = dense_matrix(p_op)
    assert np.linalg.norm(pm @ v - v * w) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(cfg.n_points)) <= 1e-12
    assert np.max(np.abs(w - np.linalg.eigh(pm)[0])) <= 1e-12 * scale
    assert np.all(np.diff(w) > 0)


@settings(max_examples=30, deadline=None)
@given(cfg=grids, scale=st.floats(0.25, 4.0), sign=st.sampled_from([1.0, -1.0]))
@example(cfg=hilbert.GridConfig(8, 1.0), scale=1.0, sign=1.0)
@example(cfg=hilbert.GridConfig(256, 1.0, 4.0), scale=3.9, sign=-1.0)
@example(cfg=hilbert.GridConfig(255, 100.0, 0.25), scale=0.25, sign=1.0)
def test_spectral_eigensystem_is_the_dft_basis(cfg, scale, sign):
    # eigenvalues scale * spectrum and the DFT columns, with no eigh
    op = hilbert.Operator(cfg.basis_id, spectrum=cfg.wavenumbers(), scale=sign * scale)
    w, v = hilbert.eigensystem(op)
    assert np.linalg.norm(op.apply(v) - v * w) <= 1e-12 * np.max(np.abs(w))
    assert np.linalg.norm(v.conj().T @ v - np.eye(cfg.n_points)) <= 1e-12
    # a grid chain that diagonalizes p itself expands stage two on every DFT
    # column; the kept-column expansion of the ccr experiment agrees with it
    x_op, p_op = hilbert.make_grid_ops(cfg)
    k1 = 2.0 * math.pi / cfg.length
    i = hilbert.gaussian_grid_state(cfg, cfg.length / 16.0, momentum=cfg.hbar * k1)
    column = cfg.plane_waves([cfg.n_points // 2 + 1])  # wavenumber k1, ascending order
    grid = pointer.pointer_grid(1.0, cfg.hbar)
    args = (x_op, p_op, 1.0, 1.0, 0.01, grid, grid)
    full = pointer.run_ccr_protocol(i, hilbert.StateVector(cfg.basis_id, column[:, 0]), *args)
    kept, = pointer.run_ccr_protocols(i, hilbert.StateVector(cfg.basis_id, column), *args,
                                      p_eigensystem=(np.array([cfg.hbar * k1]), column))
    assert abs(full.dx_d - kept.dx_d) <= 1e-12
    assert abs(full.dx_d_prime - kept.dx_d_prime) <= 1e-12
    assert abs(kept.dx_d_prime - 0.01 * cfg.hbar * k1) <= 1e-9  # stage two translates P' by g p


def index_matrix_momentum_eigensystem(cfg):
    """The plane waves as one gather through the n x n index matrix (r m) % n."""
    n = cfg.n_points
    m = np.arange(n) - n // 2
    roots = np.exp(2j * np.pi / n * np.arange(n))
    v = roots[np.outer(np.arange(n), m) % n] * (np.where(m % 2, -1.0, 1.0) / math.sqrt(n))
    return cfg.hbar * np.sort(cfg.wavenumbers(), kind="stable"), v


@pytest.mark.parametrize("n", [8, 9, 64, 127, 128, 255, 512, 1001])
def test_momentum_eigensystem_bit_identical_to_index_matrix(n):
    cfg = hilbert.GridConfig(n, 40.0, 0.5)
    w_old, v_old = index_matrix_momentum_eigensystem(cfg)
    assert np.array_equal(cfg.hbar * np.fft.fftshift(cfg.wavenumbers()), w_old)
    assert np.array_equal(cfg.plane_waves(np.arange(n)), v_old)
    # each column is built alone, whatever the others are
    some = [n - 1, 0, n // 2, 3]
    assert np.array_equal(cfg.plane_waves(some), v_old[:, some])
    assert cfg.plane_waves([]).shape == (n, 0)


def spy_ccr_stages(monkeypatch):
    """Record the finals and p eigensystem of every run_ccr_protocols call of ccr_experiment."""
    calls = []
    real = experiments.run_ccr_protocols

    def spy(i, finals, *args, p_eigensystem=None):
        calls.append((i, finals, p_eigensystem))
        return real(i, finals, *args, p_eigensystem=p_eigensystem)

    monkeypatch.setattr(experiments, "run_ccr_protocols", spy)
    return calls


def test_ccr_plane_waves_agree_with_eigh(monkeypatch):
    cfg = hilbert.GridConfig(128, 40.0)
    calls = spy_ccr_stages(monkeypatch)
    report = experiments.ccr_experiment(cfg)
    assert report.passed
    (i, finals, (p_kept, v_kept)), = calls
    p_matrix = dense_matrix(hilbert.make_grid_ops(cfg)[1])
    w, v = np.linalg.eigh(p_matrix)
    scale = np.max(np.abs(w))
    # eigenvalue and FFT weight of every admissible row, against eigh and |vdot|^2
    for r in report.per_f:
        assert abs(r.p_eigenvalue - w[r.index]) <= 1e-12 * scale
        assert abs(r.weight - abs(np.vdot(v[:, r.index], i.amplitudes)) ** 2) <= 1e-14
    # each kept mid-selection column is that row's eigh eigenvector, up to a phase
    index_of = {r.p_eigenvalue: r.index for r in report.per_f}
    weight_of = {r.index: r.weight for r in report.per_f}
    kept = [index_of[float(p)] for p in p_kept]
    assert sorted(kept) == [r.index for r in report.per_f if r.dx_d is not None]
    assert len(kept) >= 10
    assert np.array_equal(v_kept, finals.amplitudes)
    for j, p_s, f in zip(kept, p_kept, finals.amplitudes.T):
        assert np.linalg.norm(p_matrix @ f - p_s * f) <= 1e-12 * scale
        assert abs(abs(np.vdot(v[:, j], f)) - 1.0) <= 1e-12
        assert abs(weight_of[j] - abs(np.vdot(f, i.amplitudes)) ** 2) <= 1e-15


def full_momentum_eigensystem(rep):
    """The whole p eigensystem: the index-matrix plane waves on a grid, eigh in Fock."""
    if isinstance(rep, hilbert.GridConfig):
        return index_matrix_momentum_eigensystem(rep)
    return np.linalg.eigh(experiments._ccr_ops(rep)[1].matrix)


@pytest.mark.parametrize("g", [0.01, 0.2])
@pytest.mark.parametrize("rep", [
    hilbert.FockConfig(64), hilbert.FockConfig(32, 0.5), hilbert.GridConfig(512, 40.0),
], ids=["fock64", "fock32-hbar0.5", "grid512"])
def test_ccr_stage_two_on_kept_columns_equals_full_basis(monkeypatch, rep, g):
    # every kept mid-selection is a p eigenvector, so the stage that expands
    # on the kept columns alone is the full-basis stage up to roundoff
    calls = spy_ccr_stages(monkeypatch)
    report = experiments.ccr_experiment(rep, g=g)
    (i, finals, kept), = calls
    _, p_op = experiments._ccr_ops(rep)
    phi = pointer.gaussian_pointer(pointer.pointer_grid(1.0, rep.hbar), 1.0)
    stage = [pointer.conditional_pointers(finals, i, p_op, pointer.MOMENTUM, g, phi, eigensystem)
             for eigensystem in (kept, full_momentum_eigensystem(rep))]
    (rows, amps), (full_rows, full_amps) = stage
    assert np.sqrt(np.sum(np.abs(rows - full_rows) ** 2, axis=1) * phi.grid.spacing).max() <= 1e-12
    # the full expansion carries an absolute roundoff of its n levels, so
    # prob_post is compared relative to the stage's largest one
    prob, full_prob = amps**2, full_amps**2
    assert np.max(np.abs(prob - full_prob)) <= 1e-14 * np.max(full_prob)
    # stage two translates P' by g p_s
    row_of = {r.p_eigenvalue: r for r in report.per_f}
    for p_s in kept[0]:
        assert abs(row_of[float(p_s)].dx_d_prime - g * p_s) <= 1e-11


def test_ccr_stage_two_alone_wraps():
    rep = hilbert.FockConfig(64)
    # stage one is the same at both widths, and runs
    assert experiments.ccr_experiment(rep, g=0.2, sigma_prime=0.1).pointer_corr_over_g2 is not None
    # a quarter of P''s grid is 10 sigma_prime = 0.3 < |g p_s| for the outer kept rows
    with pytest.raises(GridResolutionError, match="momentum generator"):
        experiments.ccr_experiment(rep, g=0.2, sigma_prime=0.03)


def test_ccr_wrap_guard_names_the_mid_selection_index():
    rep, g, sigma_prime = hilbert.FockConfig(64), 0.2, 0.03
    with pytest.raises(GridResolutionError) as caught:
        experiments.ccr_experiment(rep, g=g, sigma_prime=sigma_prime)
    named = int(re.match(r"selection (\d+): ", str(caught.value)).group(1))
    rows = experiments.ccr_experiment(rep, g=g, n_trials=0, run_pointer=False).per_f
    quarter = pointer.pointer_grid(sigma_prime).length / 4.0
    # stage two checks its kept rows by descending weight: the heaviest that wraps is named
    wrapping = [r for r in rows if abs(g * r.p_eigenvalue) > quarter]
    assert named == max(wrapping, key=lambda r: r.weight).index
    assert caught.value.row == named  # the error's row is the index its message names


def test_ccr_names_an_annihilated_mid_selection_by_its_index(monkeypatch):
    rep = hilbert.FockConfig(64)
    rows = experiments.ccr_experiment(rep, n_trials=0, run_pointer=False).per_f
    heaviest = max(rows, key=lambda r: r.weight).index  # stage one's first kept row
    monkeypatch.setattr(pointer, "ANNIHILATION_ATOL", 1.0)  # every selection amplitude is below 1
    with pytest.raises(SelectionAnnihilated, match=rf"^selection {heaviest}: selection amplitude ") as caught:
        experiments.ccr_experiment(rep, n_trials=0)
    assert caught.value.row == heaviest != 0


def test_grid_ccr_runs_without_eigh(monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("the grid ccr experiment called eigh")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert experiments.ccr_experiment(hilbert.GridConfig(64, 20.0)).passed


@settings(max_examples=30, deadline=None)
@given(cfg=grids)
def test_grid_momentum_bit_identical_to_dense(cfg):
    # the dense reference the oracles read is the symmetrized FFT matrix bit
    # for bit, and the closed-form eigensystem of the spectral p rebuilds it
    n = cfg.n_points
    pm = np.fft.ifft(cfg.wavenumbers()[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0) * cfg.hbar
    _, p_op = hilbert.make_grid_ops(cfg)
    dense = dense_matrix(p_op)
    assert np.array_equal(dense, 0.5 * (pm + pm.conj().T))
    w, v = hilbert.eigensystem(p_op)
    assert np.max(np.abs((v * w) @ v.conj().T - dense)) <= 1e-12 * np.max(np.abs(w))


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


def dense_half_line_residual(rep, i):
    """The half-line residual as riemann_experiment computed it from dense temporaries."""
    x_op, p_op = experiments._ccr_ops(rep)
    xm = x_op.matrix if isinstance(rep, hilbert.FockConfig) else dense_x(rep)
    r = 1j * (dense_matrix(p_op) @ xm) / rep.hbar
    half_line = 0.5 * (r + r.conj().T) - 0.5 * np.eye(r.shape[0])
    if isinstance(rep, hilbert.FockConfig):
        return float(np.max(np.abs(half_line[: rep.dim - 2, : rep.dim - 2])))
    return float(np.linalg.norm(half_line @ i.amplitudes))


@settings(max_examples=30, deadline=None)
@given(rep=st.one_of(grids, st.builds(hilbert.FockConfig, dim=st.integers(3, 64),
                                      hbar=st.floats(0.25, 4.0))))
def test_half_line_residual_matches_dense_oracle(rep):
    i, _ = experiments.riemann_selections(rep)
    report = experiments.riemann_experiment(rep)
    dense = dense_half_line_residual(rep, i)
    if isinstance(rep, hilbert.FockConfig):
        assert report.half_line_residual == dense  # the Fock matrix path is unchanged
    else:
        assert abs(report.half_line_residual - dense) <= SPECTRAL_RTOL * operator_scales(rep)[1]


def dense_kernel_rows(initial, final, generator, g, phi, eigensystem):
    """conditional_pointers' rows with the phase kernel built as one exp of temporaries."""
    a = initial.amplitudes.reshape(initial.dim, -1)
    b = final.amplitudes.reshape(final.dim, -1)
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
    # The levels of x, and of p in the ascending order given here, are evenly
    # spaced.  From CHIRP_MIN_LEVELS of them a position-generator stage is
    # summed as a chirp-z transform, which matches the dense kernel only to
    # the bound of test_chirp_rows_within_their_bound_of_the_dense_kernel.
    assume(not (generator == pointer.POSITION and cfg.n_points >= pointer.CHIRP_MIN_LEVELS))
    x_op, p_op = hilbert.make_grid_ops(cfg)
    obs, eigensystem = (
        (x_op, (x_op.diagonal.real, None)) if which == "x"
        else (p_op, index_matrix_momentum_eigensystem(cfg))
    )
    i = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    fs = [hilbert.random_state(cfg.n_points, seed + k, cfg.basis_id) for k in (1, 2)]
    finals = hilbert.StateVector(cfg.basis_id, np.stack([f.amplitudes for f in fs], axis=1))
    phi = pointer.gaussian_pointer(hilbert.GridConfig(256, 40.0, cfg.hbar), 1.0)
    if any(oracle_wraps(i, f, obs, generator, g, phi.grid) for f in fs):
        # the coupling wraps the pointer, so the kernel returns no rows
        with pytest.raises(GridResolutionError):
            pointer.conditional_pointers(i, finals, obs, generator, g, phi, eigensystem)
        return
    rows, _ = pointer.conditional_pointers(i, finals, obs, generator, g, phi, eigensystem)
    assert np.array_equal(rows, dense_kernel_rows(i, finals, generator, g, phi, eigensystem))


def chirp_error_bound(coeffs, cfg, g, phi):
    """Per row, a bound on max_j |chirp row - dense row| of a grid x stage,
    from its shapes and phases alone (u the unit roundoff, c a row of coeffs).

    - Phases.  Each path rounds each phase it exponentiates at most three
      times, an error of 3u times the phase.  The chirp's are its pre-chirp,
      post-chirp and convolution chirp, largest Phi_pre, Phi_post and Phi_k.
      The dense kernel's is at most Phi_d = |g| max|x| max|y| / hbar.  The
      chirp also reads the levels as w_0 + l step, within 8u max|x|, and the
      pointer positions within 2u max|y| of y_c + j' dy: 10u Phi_d more.
      Each term of a row element then errs by u (3 (Phi_pre + Phi_post +
      Phi_k) + 13 Phi_d + 4) |c_l| max|phi|.
    - The dense product sums n terms: at most n u ||c||_1 max|phi|.
    - The FFTs.  A radix-2 FFT of length N errs by at most 8u log2 N of its
      output in 2-norm (Higham, Accuracy and Stability of Numerical
      Algorithms, thm. 24.2).  Through the forward transform of the
      coefficients, the transform of the chirp (2-norm sqrt(N), times
      max|FFT c| <= ||c||_1), the product with it (max|H| <= N) and the
      inverse transform, the rows err in 2-norm, so in each element, by at
      most 8u log2 N (2 N ||c||_2 + sqrt(N) ||c||_1) max|phi|.
    """
    u = np.finfo(float).eps / 2
    w, y = cfg.positions(), phi.grid.positions()
    n, m = w.size, y.size
    size = 1 << (n + m - 2).bit_length()
    scale = abs(g) / phi.grid.hbar
    lc, jc = n // 2, m // 2
    step = cfg.spacing
    b = scale * step * phi.grid.spacing
    k_max = max(abs(lc - jc - (n - 1)), abs(m - 1 + lc - jc))
    phi_pre = scale * step * abs(y[jc]) * lc + 0.5 * b * lc**2
    phi_post = scale * abs(w[0] + step * lc) * np.max(np.abs(y)) + 0.5 * b * jc**2
    phi_k = 0.5 * b * k_max**2
    phi_d = scale * np.max(np.abs(w)) * np.max(np.abs(y))
    norm1 = np.sum(np.abs(coeffs), axis=1)
    norm2 = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=1))
    phases = (3 * (phi_pre + phi_post + phi_k) + 13 * phi_d + 4 + n) * norm1
    ffts = 8 * math.log2(size) * (2 * size * norm2 + math.sqrt(size) * norm1)
    return u * np.max(np.abs(phi.wavefunction)) * (phases + ffts)


@settings(max_examples=40, deadline=None)
@given(
    cfg=st.builds(hilbert.GridConfig, n_points=st.integers(pointer.CHIRP_MIN_LEVELS, 600),
                  length=st.floats(1.0, 100.0)),
    hbar=st.floats(0.25, 4.0),
    reach=st.floats(-0.99, 0.99),
    seed=st.integers(0, 2**31 - 1),
    batch_initial=st.booleans(),
)
@example(cfg=hilbert.GridConfig(512, 40.0), hbar=1.0, reach=0.99, seed=0, batch_initial=False)
@example(cfg=hilbert.GridConfig(601, 3.0), hbar=0.3, reach=-0.99, seed=1, batch_initial=True)
def test_chirp_rows_within_their_bound_of_the_dense_kernel(cfg, hbar, reach, seed, batch_initial):
    # g spans the couplings the wrap guard admits: |g| max|x| / hbar up to
    # 0.99 of a quarter of the pointer's wavenumber range
    x_op, _ = hilbert.make_grid_ops(cfg)
    phi = pointer.gaussian_pointer(hilbert.GridConfig(256, 40.0, hbar), 1.0)
    g = reach * math.pi / (2 * phi.grid.spacing) * hbar / np.max(np.abs(cfg.positions()))
    one = hilbert.random_state(cfg.n_points, seed, cfg.basis_id)
    many = hilbert.StateVector(cfg.basis_id, np.stack(
        [hilbert.random_state(cfg.n_points, seed + k, cfg.basis_id).amplitudes for k in (1, 2, 3)],
        axis=1))
    initial, final = (many, one) if batch_initial else (one, many)
    eigensystem = (x_op.diagonal.real, None)
    rows, _ = pointer.conditional_pointers(initial, final, x_op, pointer.POSITION, g, phi)
    dense = dense_kernel_rows(initial, final, pointer.POSITION, g, phi, eigensystem)
    a, b = initial.amplitudes.reshape(cfg.n_points, -1), final.amplitudes.reshape(cfg.n_points, -1)
    bound = chirp_error_bound(b.conj().T * a.T, cfg, g, phi)
    assert np.all(np.max(np.abs(rows - dense), axis=1) <= bound)


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate while ``fn`` runs, above what was live before."""
    np.fft, np.random  # numpy imports these on first use; count no import in the peak
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_dense_grid_path_memory_budget():
    # in units of one n x n complex matrix.  The grid operators and a grid
    # riemann run build no such buffer (measured 0.009 and 0.031; the dense
    # path once peaked at 2.53 and 4.04).
    cfg = hilbert.GridConfig(512, 40.0)
    unit = cfg.n_points**2 * 16
    assert traced_peak(lambda: hilbert.make_grid_ops(cfg)) <= 0.05 * unit
    assert traced_peak(lambda: experiments.riemann_experiment(cfg)) <= 0.05 * unit
    # in units of one n x 1024 complex pointer kernel, which a grid ccr run
    # never holds whole: each stage builds it a 1 MiB slab of columns at a
    # time.  What remains is that slab, the kept plane waves and the rows;
    # the admissible plane waves are released before the stages.  Measured
    # 0.32 at 512 and 0.14 at 2048 points (1.67 and 1.64 with the whole
    # kernel); an n x n buffer alone is 2.0 units at 2048.
    for n, bound in ((512, 0.35), (2048, 0.15)):
        cfg = hilbert.GridConfig(n, 40.0)
        peak = traced_peak(lambda: experiments.ccr_experiment(cfg, n_trials=0))
        assert peak <= bound * n * pointer.POINTER_POINTS * 16
