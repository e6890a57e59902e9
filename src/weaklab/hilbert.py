"""Finite-dimensional Hilbert-space foundation.

States, operators, standard builders (Fock ladder, periodic grid,
Pauli), inner products and Born probabilities.  An operator is stored
dense or, where the representation makes it so, as its diagonal: the grid
position operator is diagonal, and its dense matrix is built only when a
generic consumer asks for ``.matrix``.  The natural (computational) basis
is passed as ``NATURAL_BASIS`` rather than as a list of basis states.  All
objects are immutable values; all functions are pure.  hbar defaults to 1
everywhere and can be overridden per call or per config.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BasisMismatch,
    IncompleteBasis,
    InvalidConfig,
    NotHermitian,
    TruncationWarning,
)

HERMITIAN_ATOL = 1e-12
BASIS_ATOL = 1e-10

# Fock states with edge weight above this trip TruncationWarning
# (check_truncation_edge): the truncated commutator is only exact off the edge.
EDGE_AMPLITUDE_WARN = 1e-10


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitudes over a labeled finite basis."""

    basis_id: str
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1).copy()
        if amps.size < 1:
            raise InvalidConfig("state needs at least one amplitude")
        norm = float(np.linalg.norm(amps))
        if norm < 1e-300:
            raise InvalidConfig("cannot normalize a zero state vector")
        object.__setattr__(self, "amplitudes", _freeze(amps / norm))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, init=False, eq=False)
class Operator:
    """Complex square matrix over a labeled basis, stored dense or diagonal.

    Give either ``matrix`` or, for a diagonal operator, ``diagonal``; the
    dense ``matrix`` of a diagonal operator is built on first access.
    ``units`` is carried as free-form metadata (e.g. "length").  If
    ``hermitian_hint`` is True the operator is checked for Hermiticity at
    construction time.
    """

    basis_id: str
    diagonal: np.ndarray | None
    units: str

    def __init__(self, basis_id, matrix=None, units="", hermitian_hint=None, *, diagonal=None):
        if (matrix is None) == (diagonal is None):
            raise InvalidConfig("operator needs exactly one of matrix and diagonal")
        if diagonal is not None:
            values = np.asarray(diagonal, dtype=complex).copy()
            if values.ndim != 1:
                raise InvalidConfig(f"operator diagonal must be 1-D, got {values.shape}")
        else:
            values = np.asarray(matrix, dtype=complex).copy()
            if values.ndim != 2 or values.shape[0] != values.shape[1]:
                raise InvalidConfig(f"operator matrix must be square, got {values.shape}")
        if hermitian_hint:
            require_hermitian(values, "hermitian_hint=True")
        object.__setattr__(self, "basis_id", basis_id)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "diagonal", None if diagonal is None else _freeze(values))
        if diagonal is None:
            # fills the cached_property below, so a dense matrix is stored as given
            object.__setattr__(self, "matrix", _freeze(values))

    @cached_property
    def matrix(self) -> np.ndarray:
        return _freeze(np.diag(self.diagonal))

    @property
    def dim(self) -> int:
        return self.diagonal.size if self.diagonal is not None else self.matrix.shape[0]

    def apply(self, ket: np.ndarray) -> np.ndarray:
        """op @ ket."""
        return self.diagonal * ket if self.diagonal is not None else self.matrix @ ket

    def apply_left(self, bra: np.ndarray) -> np.ndarray:
        """bra @ op, for a row vector ``bra``."""
        return bra * self.diagonal if self.diagonal is not None else bra @ self.matrix


@dataclass(frozen=True)
class FockConfig:
    """Truncated harmonic-oscillator representation, levels 0..dim-1."""

    dim: int = 64
    hbar: float = 1.0
    mass_freq_product: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidConfig(f"Fock truncation needs dim >= 2, got {self.dim}")
        if self.hbar <= 0 or self.mass_freq_product <= 0:
            raise InvalidConfig("hbar and mass_freq_product must be positive")

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
        if self.length <= 0:
            raise InvalidConfig("grid length must be positive")

    @property
    def spacing(self) -> float:
        return self.length / self.n_points

    def positions(self) -> np.ndarray:
        return -0.5 * self.length + self.spacing * np.arange(self.n_points)

    def wavenumbers(self) -> np.ndarray:
        """Angular wavenumbers in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def momentum_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, v): eigenvalues and eigenvector columns of the grid momentum.

        The spectral p of ``make_grid_ops`` is diagonal on the DFT basis:
        its eigenvectors are the plane waves exp(i k x) / sqrt(n), with
        eigenvalues hbar k.  The wavenumbers are sorted ascending (stable),
        the order ``eigh`` returns; they are all distinct, the Nyquist one
        occurring once.  The phase k_m x_j = 2 pi m j / n - pi m is reduced
        modulo 2 pi in integers, so every entry is one of the n roots of
        unity times (-1)^m and no column carries the roundoff of a large
        argument.
        """
        n = self.n_points
        m = np.arange(n) - n // 2  # the fftfreq integers, ascending
        roots = np.exp(2j * np.pi / n * np.arange(n))
        v = roots[np.outer(np.arange(n), m) % n] * (np.where(m % 2, -1.0, 1.0) / math.sqrt(n))
        return self.hbar * np.sort(self.wavenumbers(), kind="stable"), v

    @property
    def basis_id(self) -> str:
        return f"grid(n={self.n_points},L={self.length!r})"


def hermitian_residual(matrix: np.ndarray) -> float:
    """max |M - M^dag|; a 1-D array is read as the diagonal of M."""
    return float(np.max(np.abs(matrix - matrix.conj().T)))


def require_hermitian(matrix: np.ndarray, context: str) -> None:
    """Raise NotHermitian when the residual exceeds HERMITIAN_ATOL."""
    resid = hermitian_residual(matrix)
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

    x = sqrt(hbar/2mw)(a + a+), p = i sqrt(hbar mw/2)(a+ - a).  The
    truncated commutator is i*hbar*diag(1, ..., 1, 1-N) exactly.
    """
    n = cfg.dim
    a = np.zeros((n, n), dtype=complex)
    levels = np.arange(1, n)
    a[levels - 1, levels] = np.sqrt(levels)
    adag = a.conj().T
    cx = math.sqrt(cfg.hbar / (2.0 * cfg.mass_freq_product))
    cp = math.sqrt(cfg.hbar * cfg.mass_freq_product / 2.0)
    x = Operator(cfg.basis_id, cx * (a + adag), units="length", hermitian_hint=True)
    p = Operator(cfg.basis_id, 1j * cp * (adag - a), units="momentum", hermitian_hint=True)
    return x, p


def make_grid_ops(cfg: GridConfig) -> tuple[Operator, Operator]:
    """Diagonal position and spectral (Fourier) momentum on the grid.

    x is stored as its diagonal, the grid positions.
    The momentum matrix is exact on band-limited periodic states; it is
    symmetrized to remove FFT roundoff so the Hermiticity residual is 0.
    Its eigensystem is known in closed form, the plane waves
    exp(i k x) / sqrt(n) with eigenvalues hbar k
    (``GridConfig.momentum_eigensystem``), so it is never diagonalized.
    """
    n = cfg.n_points
    x = Operator(cfg.basis_id, diagonal=cfg.positions(), units="length", hermitian_hint=True)
    k = cfg.wavenumbers()
    pmat = np.fft.ifft(k[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0) * cfg.hbar
    pmat = 0.5 * (pmat + pmat.conj().T)
    p = Operator(cfg.basis_id, pmat, units="momentum", hermitian_hint=True)
    return x, p


PAULI_BASIS_ID = "spin-1/2"

_PAULI = {
    axis: Operator(PAULI_BASIS_ID, mat, units="dimensionless", hermitian_hint=True)
    for axis, mat in (
        ("x", [[0.0, 1.0], [1.0, 0.0]]),
        ("y", [[0.0, -1.0j], [1.0j, 0.0]]),
        ("z", [[1.0, 0.0], [0.0, -1.0]]),
    )
}


def pauli(axis: str) -> Operator:
    """One of the three Pauli matrices on the spin-1/2 basis, built once."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise InvalidConfig(f"pauli axis must be x, y or z, got {axis!r}") from None


def inner(psi: StateVector, phi: StateVector) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    _require_same_basis(psi, phi)
    return complex(np.vdot(psi.amplitudes, phi.amplitudes))


def matrix_element(psi: StateVector, op: Operator, phi: StateVector) -> complex:
    """<psi|op|phi>."""
    _require_same_basis(psi, op)
    _require_same_basis(op, phi)
    return complex(np.vdot(psi.amplitudes, op.apply(phi.amplitudes)))


def expectation(psi: StateVector, op: Operator) -> complex:
    """<psi|op|psi>."""
    return matrix_element(psi, op, psi)


# Stands for the natural (computational) basis {|0>, ..., |dim-1>} wherever a
# mid-selection basis is taken; its basis matrix is the identity, so it is
# neither built nor Gram-checked.
NATURAL_BASIS = None


def _basis_matrix(basis, dim: int, basis_id: str) -> np.ndarray:
    """Rows are the basis amplitudes; validates orthonormal completeness."""
    if len(basis) != dim:
        raise IncompleteBasis(f"basis has {len(basis)} states, dim is {dim}")
    for b in basis:
        if b.basis_id != basis_id:
            raise BasisMismatch(f"basis {b.basis_id!r} vs {basis_id!r}")
    rows = np.stack([b.amplitudes for b in basis])
    gram = rows.conj() @ rows.T
    resid = float(np.max(np.abs(gram - np.eye(dim))))
    if resid > BASIS_ATOL:
        raise IncompleteBasis(f"basis not orthonormal, Gram residual {resid:.3e}")
    return rows


def born_probabilities(psi: StateVector, basis) -> np.ndarray:
    """Weights |<f|psi>|^2 over an orthonormal complete basis or NATURAL_BASIS."""
    if basis is NATURAL_BASIS:
        return np.abs(psi.amplitudes) ** 2
    rows = _basis_matrix(basis, psi.dim, psi.basis_id)
    return np.abs(rows.conj() @ psi.amplitudes) ** 2


def eigenbasis(op: Operator) -> tuple[np.ndarray, list[StateVector]]:
    """Eigenvalues and normalized eigenvectors of a Hermitian operator."""
    require_hermitian(op.matrix, "eigenbasis")
    w, v = np.linalg.eigh(op.matrix)
    states = [StateVector(op.basis_id, v[:, j]) for j in range(op.dim)]
    return w, states


def random_state(dim: int, seed: int, basis_id: str = "") -> StateVector:
    """Haar-ish random normalized state, deterministic for fixed seed."""
    if dim < 1:
        raise InvalidConfig("dim must be >= 1")
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(basis_id or f"generic(dim={dim})", amps)


def random_hermitian(dim: int, seed: int, basis_id: str = "") -> Operator:
    """Random Hermitian matrix (GUE-style), deterministic for fixed seed."""
    if dim < 1:
        raise InvalidConfig("dim must be >= 1")
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return Operator(
        basis_id or f"generic(dim={dim})",
        0.5 * (m + m.conj().T),
        hermitian_hint=True,
    )


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
