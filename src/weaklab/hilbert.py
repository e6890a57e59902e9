"""Finite-dimensional Hilbert-space foundation.

States, operators, standard builders (Fock ladder, periodic grid,
Pauli), the inner product ``braket`` and operator eigensystems.  A
``StateVector`` holds one state or a stack of them as columns; ``braket``
and ``Operator.apply`` work on either.  An operator is stored in the one
form it is built in and never converted: dense, or a stack of dense
matrices, one per column of the states it meets; diagonal, as the grid
position operator and Pauli z are; or spectral, as the grid momentum is,
by its multiplier in the discrete Fourier basis, applied to a state by two
FFTs.  ``eigensystem`` is the one rule for an operator's eigenvalues and
eigenvectors, read from the stored form.  All objects are immutable
values; all functions are pure.  hbar defaults to 1 everywhere and can be
overridden per call or per config; the Fock ladder uses m*omega = 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, InvalidConfig, NotHermitian, TruncationWarning

HERMITIAN_ATOL = 1e-12

# Fock states with edge weight above this trip TruncationWarning
# (check_truncation_edge): the truncated commutator is only exact off the edge.
EDGE_AMPLITUDE_WARN = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen_to_owner(arr: np.ndarray) -> bool:
    """Whether arr and every array it views are read-only."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        if arr.base is None:
            return True
        arr = arr.base
    return False  # memory owned by some other object, which may change it


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over a labeled finite basis: one state,
    shape (dim,), or a stack of states, the columns of a (dim, rows) array."""

    basis_id: str
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        amps = amps if amps.ndim == 2 else amps.reshape(-1)
        if amps.size < 1:
            raise InvalidConfig("state needs at least one amplitude")
        rows = np.ascontiguousarray(amps.T)  # np.linalg.norm's sums, one BLAS call per column
        norm = np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))
        if (norm < 1e-300).any():
            raise InvalidConfig("cannot normalize a zero state vector")
        object.__setattr__(self, "amplitudes", _freeze(amps / norm))

    @classmethod
    def stack(cls, states) -> StateVector:
        """Unit states as the columns of one stack, their bits kept: no second normalization."""
        for s in states[1:]:
            _require_same_basis(states[0], s)
        out = object.__new__(cls)
        object.__setattr__(out, "basis_id", states[0].basis_id)
        # each column contiguous, as braket and Operator.apply read them
        object.__setattr__(out, "amplitudes", _freeze(np.stack([s.amplitudes for s in states]).T))
        return out

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, init=False, eq=False)
class Operator:
    """Complex square matrix over a labeled basis: dense, diagonal or spectral.

    Give exactly one of ``matrix``, ``diagonal`` or ``spectrum``; the other
    two fields are None.  A ``matrix`` of shape (rows, dim, dim) is a stack,
    one matrix per column of the states it is applied to.  An array that is
    read-only down to the array that owns its memory, such as a view of a
    frozen block of matrices, is kept as it is; any other is copied.  A
    spectral operator is scale * ifft(spectrum * fft(psi)) on a state psi,
    with a real ``scale``; it is Hermitian, with eigenvalues
    scale * spectrum (FFT order), when the spectrum is real.  Hermiticity
    is not checked here: it is checked where an observable is coupled
    (``pointer``) or diagonalized (``eigenbasis``).
    """

    basis_id: str
    matrix: np.ndarray | None
    diagonal: np.ndarray | None
    spectrum: np.ndarray | None
    scale: float

    def __init__(self, basis_id, matrix=None, *, diagonal=None, spectrum=None, scale=1.0):
        given = [a for a in (matrix, diagonal, spectrum) if a is not None]
        if len(given) != 1:
            raise InvalidConfig("operator needs exactly one of matrix, diagonal and spectrum")
        values = np.asarray(given[0], dtype=complex)
        if not _frozen_to_owner(values):
            values = values.copy()
        if matrix is None and values.ndim != 1:
            kind = "diagonal" if spectrum is None else "spectrum"
            raise InvalidConfig(f"operator {kind} must be 1-D, got {values.shape}")
        if matrix is not None and (values.ndim not in (2, 3) or values.shape[-2] != values.shape[-1]):
            raise InvalidConfig(f"operator matrix must be square, or a stack of square matrices, "
                                f"got {values.shape}")
        object.__setattr__(self, "basis_id", basis_id)
        object.__setattr__(self, "matrix", None if matrix is None else _freeze(values))
        object.__setattr__(self, "diagonal", None if diagonal is None else _freeze(values))
        object.__setattr__(self, "spectrum", None if spectrum is None else _freeze(values))
        object.__setattr__(self, "scale", float(scale))

    @property
    def stored(self) -> np.ndarray:
        """The one array the operator is stored as: its matrix, diagonal or spectrum."""
        return next(a for a in (self.matrix, self.diagonal, self.spectrum) if a is not None)

    @property
    def dim(self) -> int:
        return self.stored.shape[-1]

    @property
    def rows(self) -> int | None:
        """The number of matrices of a stack; None for one operator."""
        return self.stored.shape[0] if self.stored.ndim == 3 else None

    def apply(self, ket: np.ndarray) -> np.ndarray:
        """op @ ket, for a ket of shape (dim,) or a block of columns (dim, k).

        A stack applies its matrix r to column r of the block, or each of
        its matrices to one ket; a column rounds as its matrix times it alone.
        """
        column = (slice(None),) + (None,) * (ket.ndim - 1)
        if self.diagonal is not None:
            return self.diagonal[column] * ket
        if self.spectrum is not None:
            out = np.fft.ifft(self.spectrum[column] * np.fft.fft(ket, axis=0), axis=0)
            out *= self.scale
            return out
        if self.matrix.ndim == 3:
            return np.matmul(self.matrix, np.ascontiguousarray(ket.T)[..., None])[..., 0].T
        return self.matrix @ ket

    def apply_left(self, bra: np.ndarray) -> np.ndarray:
        """bra @ op, for a row vector ``bra``."""
        if self.diagonal is not None:
            return bra * self.diagonal
        if self.spectrum is not None:
            out = np.fft.fft(self.spectrum * np.fft.ifft(bra))
            out *= self.scale
            return out
        return bra @ self.matrix


@dataclass(frozen=True)
class FockConfig:
    """Truncated harmonic-oscillator representation, levels 0..dim-1."""

    dim: int = 64
    hbar: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidConfig(f"Fock truncation needs dim >= 2, got {self.dim}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidConfig(f"hbar must be positive and finite, got {self.hbar!r}")

    @property
    def basis_id(self) -> str:
        return f"fock(dim={self.dim})"


@dataclass(frozen=True)
class GridConfig:
    """Periodic position grid spanning [-length/2, length/2)."""

    n_points: int
    length: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_points < 8:
            raise InvalidConfig(f"grid needs n_points >= 8, got {self.n_points}")
        if not (math.isfinite(self.length) and self.length > 0):
            raise InvalidConfig(f"grid length must be positive and finite, got {self.length!r}")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise InvalidConfig(f"hbar must be positive and finite, got {self.hbar!r}")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    def positions(self) -> np.ndarray:
        return -0.5 * self.length + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def plane_waves(self, index) -> np.ndarray:
        """Plane-wave columns exp(i k x) / sqrt(n), eigenvectors of the grid p.

        Column c has the wavenumber ``fftshift(wavenumbers())[index[c]]``
        (ascending) and eigenvalue hbar times it.  Its phase
        k_m x_j = 2 pi m j / n - pi m is reduced modulo 2 pi in integers, so
        each entry is (-1)^m times one of the n roots of unity of one table,
        without the roundoff of a large argument; no n x n array is built.
        """
        n = self.n_points
        roots = np.exp(2j * np.pi / n * np.arange(n))
        rows = np.arange(n)
        cols = np.empty((n, len(index)), dtype=complex)
        for c, m in enumerate(np.asarray(index, dtype=int) - n // 2):
            np.multiply(roots[(rows * m) % n], (-1.0 if m % 2 else 1.0) / math.sqrt(n), out=cols[:, c])
        return cols

    @property
    def basis_id(self) -> str:
        return f"grid(n={self.n_points},L={self.length!r})"


# Rows per slab of hermitian_residual: 2**16 complex entries, 1 MiB.
_SLAB_ENTRIES = 1 << 16


def hermitian_residual(matrix: np.ndarray) -> float:
    """max |M - M^dag|; a 1-D array is read as the diagonal of M.

    A matrix is taken in slabs of rows, so no n x n difference is built;
    each entry is the same |M_jk - conj(M_kj)| and the maximum is exact.
    The slab maxima meet in ``np.max``, which propagates a NaN.
    """
    if matrix.ndim == 1:
        return float(np.max(np.abs(matrix - matrix.conj())))
    step = max(1, _SLAB_ENTRIES // max(1, matrix.shape[0]))
    return float(np.max([
        np.max(np.abs(matrix[r:r + step] - matrix[:, r:r + step].conj().T))
        for r in range(0, matrix.shape[0], step)
    ]))


def hermitian_part(matrix: np.ndarray) -> np.ndarray:
    """0.5 (M + M^dag) in one new C-contiguous buffer, bit for bit as the expression."""
    out = np.empty_like(matrix, order="C")
    np.conjugate(matrix.T, out=out)
    np.add(matrix, out, out=out)
    out *= 0.5
    return out


def require_hermitian(op: Operator, context: str) -> None:
    """Raise NotHermitian when the residual of op's stored array exceeds
    HERMITIAN_ATOL; a diagonal or spectrum is Hermitian when it is real."""
    resid = hermitian_residual(op.stored)
    if resid > HERMITIAN_ATOL:
        raise NotHermitian(f"{context} needs a Hermitian matrix, max|M - M^dag| = {resid:.3e}")


def _require_same_basis(a, b) -> None:
    if a.basis_id != b.basis_id:
        raise BasisMismatch(f"basis {a.basis_id!r} vs {b.basis_id!r}")


def basis_state(dim: int, index: int, basis_id: str = "") -> StateVector:
    """Computational basis vector |index> of the given dimension."""
    if not 0 <= index < dim:
        raise InvalidConfig(f"basis index {index} outside 0..{dim - 1}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(basis_id or f"generic(dim={dim})", amps)


def make_fock_ops(cfg: FockConfig) -> tuple[Operator, Operator]:
    """Position and momentum in the truncated ladder representation.

    x = sqrt(hbar/2)(a + a+), p = i sqrt(hbar/2)(a+ - a) at m*omega = 1.
    The truncated commutator is i*hbar*diag(1, ..., 1, 1-N) exactly.  Both
    equal their conjugate transposes exactly: a + a+ is real symmetric and
    a+ - a real antisymmetric.
    """
    n = cfg.dim
    a = np.zeros((n, n), dtype=complex)
    levels = np.arange(1, n)
    a[levels - 1, levels] = np.sqrt(levels)
    adag = a.conj().T
    c = math.sqrt(cfg.hbar / 2.0)
    x = Operator(cfg.basis_id, c * (a + adag))
    p = Operator(cfg.basis_id, 1j * c * (adag - a))
    return x, p


def make_grid_ops(cfg: GridConfig) -> tuple[Operator, Operator]:
    """Diagonal position and spectral (Fourier) momentum on the grid.

    x is stored as its diagonal, the grid positions; p as its spectrum,
    p psi = hbar * ifft(k * fft(psi)) with the wavenumbers k in FFT order.
    Neither builds an n x n buffer.  The momentum is exact on band-limited
    periodic states.  Its eigensystem is known in closed form, the plane
    waves exp(i k x) / sqrt(n) with eigenvalues hbar k: ascending in
    ``GridConfig.plane_waves``, in FFT order (as DFT columns, which differ
    only by phases) in ``eigensystem``; a state's overlaps with them are one
    FFT.  No ``eigh`` ever reads it.
    """
    x = Operator(cfg.basis_id, diagonal=cfg.positions())
    p = Operator(cfg.basis_id, spectrum=cfg.wavenumbers(), scale=cfg.hbar)
    return x, p


PAULI_BASIS_ID = "spin-1/2"

_PAULI = {
    "x": Operator(PAULI_BASIS_ID, [[0.0, 1.0], [1.0, 0.0]]),
    "y": Operator(PAULI_BASIS_ID, [[0.0, -1.0j], [1.0j, 0.0]]),
    "z": Operator(PAULI_BASIS_ID, diagonal=[1.0, -1.0]),
}


def pauli(axis: str) -> Operator:
    """One of the three Pauli matrices on the spin-1/2 basis, built once."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise InvalidConfig(f"pauli axis must be x, y or z, got {axis!r}") from None


def braket(bra: np.ndarray, ket: np.ndarray):
    """<bra|ket> of amplitudes (dim,) or stacks (dim, rows): a complex number
    for two states, else one per row (a state pairs with every row, two
    stacks row by row).  Each row is its own contiguous dot, as ``np.vdot``
    computes it, so its bits do not depend on the other rows."""
    value = np.vecdot(np.ascontiguousarray(bra.T), np.ascontiguousarray(ket.T))
    return complex(value) if value.ndim == 0 else value


def eigensystem(op: Operator) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues w and eigenvector columns v of a Hermitian operator, read
    from the form it is stored in; Hermiticity is the caller's to check.

    A diagonal gives its real part and v None: its eigenvectors are the
    natural basis.  A spectral operator gives scale * spectrum (FFT order)
    and the DFT columns exp(2 pi i j m / n) / sqrt(n), each entry one of the
    n roots of unity of one table, as j m is reduced modulo n in integers.
    A dense matrix goes through ``np.linalg.eigh``.
    """
    if op.diagonal is not None:
        return np.real(op.diagonal), None
    if op.spectrum is not None:
        n = op.dim
        roots = np.exp(2j * np.pi / n * np.arange(n)) / math.sqrt(n)
        return op.scale * np.real(op.spectrum), roots[np.outer(np.arange(n), np.arange(n)) % n]
    return np.linalg.eigh(op.matrix)


def eigenbasis(op: Operator) -> tuple[np.ndarray, list[StateVector]]:
    """Eigenvalues and normalized eigenvectors of a Hermitian operator (``eigensystem``)."""
    require_hermitian(op, "eigenbasis")
    w, v = eigensystem(op)
    v = np.eye(op.dim) if v is None else v
    return w, [StateVector(op.basis_id, v[:, j]) for j in range(op.dim)]


def random_state(dim: int, seed: int, basis_id: str = "") -> StateVector:
    """Haar-ish random normalized state, deterministic for fixed seed."""
    if dim < 1:
        raise InvalidConfig("dim must be >= 1")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(basis_id or f"generic(dim={dim})", amps)


def random_hermitian(dim: int, seed: int, basis_id: str = "") -> Operator:
    """Random Hermitian matrix (GUE-style), deterministic for fixed seed; Hermitian
    bit for bit, as entries j,k and k,j are conjugate sums of the same two numbers."""
    if dim < 1:
        raise InvalidConfig("dim must be >= 1")
    rng = np.random.default_rng(seed)
    # the real parts, then the imaginary, in the order two (dim, dim) draws take them
    parts = np.empty((2, dim, dim))
    rng.standard_normal(out=parts)
    m = np.empty((dim, dim), dtype=complex)
    m.real, m.imag = parts
    return Operator(basis_id or f"generic(dim={dim})", _freeze(hermitian_part(m)))


def edge_amplitude(psi: StateVector) -> float:
    """Max |amplitude| on the top two levels; the truncation-safety figure."""
    return float(np.max(np.abs(psi.amplitudes[-2:])))


def check_truncation_edge(rep, psi: StateVector) -> float:
    """edge_amplitude(psi); warns TruncationWarning when a Fock state leans on the edge."""
    edge = edge_amplitude(psi)
    if isinstance(rep, FockConfig) and edge > EDGE_AMPLITUDE_WARN:
        warnings.warn(
            f"top-two-level amplitude {edge:.2e} leans on the truncation edge",
            TruncationWarning,
            stacklevel=2,
        )
    return edge


def gaussian_grid_state(
    cfg: GridConfig,
    width: float,
    center: float = 0.0,
    momentum: float = 0.0,
) -> StateVector:
    """Gaussian wavepacket exp(-(x-c)^2/4w^2 + i k x) sampled on the grid.

    ``width`` is the standard deviation of |psi|^2.  The packet must fit
    the periodic box; tails wrapping around the boundary are the caller's
    responsibility (keep width <= length/8).
    """
    if width <= 0:
        raise InvalidConfig("gaussian width must be positive")
    x = cfg.positions()
    k = momentum / cfg.hbar
    amps = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * k * x)
    return StateVector(cfg.basis_id, amps)


def coherent_state(cfg: FockConfig, displacement: complex) -> StateVector:
    """Truncated coherent state c_n = e^{-|a|^2/2} a^n / sqrt(n!).

    Renormalized after truncation; callers should keep |displacement| small
    enough that edge_amplitude stays below EDGE_AMPLITUDE_WARN.
    """
    n = np.arange(cfg.dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cfg.dim)))))
    mag = np.exp(-0.5 * abs(displacement) ** 2 + n * np.log(max(abs(displacement), 1e-300)) - 0.5 * log_fact)
    phase = np.exp(1j * n * np.angle(displacement)) if displacement != 0 else np.ones(cfg.dim)
    amps = mag * phase
    if displacement == 0:
        amps = np.zeros(cfg.dim, dtype=complex)
        amps[0] = 1.0
    return StateVector(cfg.basis_id, amps)
