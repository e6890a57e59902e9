"""Exact simulation of the von Neumann measurement chain.

Gaussian pointer preparation, impulsive system-pointer couplings applied
as exact unitaries (never the first-order expansion; the textbook
expansions are shipped as predictions to compare against), strong
selections, and pointer readout in position and momentum.

Conventions: pointers live on periodic grids with L2 normalization
sum |psi|^2 dx = 1.  The coupling Hamiltonian is
sign * g * (observable x generator) integrated to unit impulse, so the
applied unitary is exp(-i * sign * g * observable x generator / hbar).
The sign is fixed by the generator (``COUPLING_SIGN``): -1 for the
position-position stage, +1 for the momentum-momentum stage.  hbar is
the pointer grid's ``GridConfig.hbar``; no stage takes it separately.

Every stage is linear in the system state.  With (w_l, v_l) the
eigensystem of the coupled observable, preparing |a> x phi, coupling and
selecting <b| leaves the unnormalized conditional pointer

    sum_l <b|v_l> <v_l|a> K_l phi,

where K_l is the phase profile exp(-i sign g w_l x / hbar) (position
generator) or the translation exp(-i sign g w_l k) applied in the Fourier
domain (momentum generator).  ``conditional_pointers`` evaluates this for
a whole list of selections at once: one (selections x levels) by
(levels x points) product, followed for the momentum generator by one
inverse FFT along the rows.  ``measure_weakly``, ``run_ccr_protocol`` and
``run_ccr_protocols`` are built on it.  The joint-state path
(``product_joint`` -> ``couple`` -> ``select``) evolves the full
system x pointer state and is kept as the oracle the kernel is tested
against.

A periodic pointer wraps a displacement past a quarter of its grid: level
l translates the pointer by g w_l (momentum generator) or kicks its
wavenumber by g w_l / hbar (position generator), and a quarter grid is
length/4 or pi / (2 spacing).  ``conditional_pointers`` raises
GridResolutionError when, for some selection, the levels displaced past a
quarter grid carry more than ``WRAP_SHARE`` of sum_l |<b|v_l><v_l|a>|.
The rule reads the exact coupling; the first-order shifts of the weak
values (``predicted_shifts``) are predictions, never a guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BasisMismatch,
    GridResolutionError,
    InvalidConfig,
    SelectionAnnihilated,
)
from .hilbert import GridConfig, Operator, StateVector, require_hermitian
# not called here; importable because bench/tracer.py wraps pointer.weak_value
from .weakcorr import weak_value  # noqa: F401

ANNIHILATION_ATOL = 1e-15
# largest share of sum_l |<b|v_l><v_l|a>| that a stage may displace past a
# quarter of its pointer grid
WRAP_SHARE = 1e-12

POSITION = "position"
MOMENTUM = "momentum"
# sign of the coupling Hamiltonian sign * g * observable x generator
COUPLING_SIGN = {POSITION: -1, MOMENTUM: +1}

DEFAULT_POINTER_POINTS = 1024
DEFAULT_POINTER_WIDTHS = 40.0  # grid length in units of sigma


def pointer_grid(
    sigma: float,
    hbar: float = 1.0,
    n_points: int = DEFAULT_POINTER_POINTS,
    widths: float = DEFAULT_POINTER_WIDTHS,
) -> GridConfig:
    """Pointer grid of ``n_points`` spanning ``widths`` pointer widths sigma."""
    return GridConfig(n_points, widths * sigma, hbar)


@dataclass(frozen=True)
class PointerState:
    """One-dimensional grid wavefunction."""

    grid: GridConfig
    wavefunction: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.wavefunction, dtype=complex).reshape(-1).copy()
        if psi.size != self.grid.n_points:
            raise InvalidConfig("wavefunction length does not match grid")
        norm = math.sqrt(float(np.sum(np.abs(psi) ** 2)) * self.grid.spacing)
        if norm < 1e-300:
            raise InvalidConfig("cannot normalize a zero pointer state")
        psi /= norm
        psi.flags.writeable = False
        object.__setattr__(self, "wavefunction", psi)


@dataclass(frozen=True)
class JointState:
    """System x pointer amplitudes, shape (system_dim, n_points)."""

    system_basis_id: str
    grid: GridConfig
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).copy()
        if amps.ndim != 2 or amps.shape[1] != self.grid.n_points:
            raise InvalidConfig(f"joint amplitudes have shape {amps.shape}")
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)) * self.grid.spacing)
        if norm < 1e-300:
            raise InvalidConfig("cannot normalize a zero joint state")
        amps /= norm
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def system_dim(self) -> int:
        return self.amplitudes.shape[0]


def check_resolution(grid: GridConfig, sigma: float) -> None:
    """Raise GridResolutionError unless 4 * spacing <= sigma <= length/8."""
    if sigma < 4.0 * grid.spacing:
        raise GridResolutionError(
            f"sigma = {sigma} under-resolved: needs >= 4 * spacing = {4 * grid.spacing}"
        )
    if sigma > grid.length / 8.0:
        raise GridResolutionError(
            f"sigma = {sigma} too wide for box: needs <= length/8 = {grid.length / 8}"
        )


def gaussian_pointer(grid: GridConfig, sigma: float) -> PointerState:
    """Real centered Gaussian of probability width sigma on the grid."""
    check_resolution(grid, sigma)
    x = grid.positions()
    psi = np.exp(-(x**2) / (4.0 * sigma**2))
    return PointerState(grid, psi)


def product_joint(system: StateVector, pointer: PointerState) -> JointState:
    """|system> x |pointer>."""
    amps = np.outer(system.amplitudes, pointer.wavefunction)
    return JointState(system.basis_id, pointer.grid, amps)


def _observable_eigensystem(op: Operator, eigensystem=None):
    """(w, v) of a Hermitian observable; v is None when it is diagonal.

    A known ``eigensystem`` (from ``hilbert.eigenbasis`` or, for the grid
    momentum, ``GridConfig.momentum_eigensystem``) is passed
    through after the Hermiticity check instead of diagonalizing again.
    """
    d = op.diagonal
    require_hermitian(op.matrix if d is None else d, "coupled observable")
    if eigensystem is not None:
        return eigensystem
    if d is not None:
        return np.real(d), None
    mat = op.matrix
    off = mat - np.diag(np.diag(mat))
    if np.count_nonzero(off) == 0:
        return np.real(np.diag(mat)), None  # already diagonal
    w, v = np.linalg.eigh(mat)
    return w, v


def _check_amplitude(amplitude: float) -> None:
    if amplitude <= ANNIHILATION_ATOL:
        raise SelectionAnnihilated(
            f"selection amplitude {amplitude:.3e} <= {ANNIHILATION_ATOL}"
        )


def _coupling_coeff(generator: str, g: float) -> complex:
    """-i * sign * g of the coupling unitary, after checking generator and g."""
    if generator not in (POSITION, MOMENTUM):
        raise InvalidConfig(f"generator must be {POSITION!r} or {MOMENTUM!r}")
    if not math.isfinite(g):
        raise InvalidConfig("coupling strength must be finite")
    return -1j * COUPLING_SIGN[generator] * g


def couple(joint: JointState, observable: Operator, generator: str, g: float) -> JointState:
    """Apply exp(-i * sign * g * observable x generator / hbar) exactly.

    Position generator: system-conditional phase profile.  Momentum
    generator: system-conditional translation, applied in the Fourier
    domain (exact for band-limited pointers).
    """
    coeff = _coupling_coeff(generator, g)
    if observable.basis_id != joint.system_basis_id:
        raise BasisMismatch(
            f"observable on {observable.basis_id!r}, joint system on "
            f"{joint.system_basis_id!r}"
        )
    if observable.dim != joint.system_dim:
        raise BasisMismatch("observable dimension does not match joint system")
    w, v = _observable_eigensystem(observable)
    b = joint.amplitudes if v is None else v.conj().T @ joint.amplitudes
    if generator == POSITION:
        phase = np.exp(coeff * np.outer(w, joint.grid.positions()) / joint.grid.hbar)
        b = b * phase
    else:
        k = joint.grid.wavenumbers()  # p_d = hbar k, the hbar cancels
        phase = np.exp(coeff * np.outer(w, k))
        b = np.fft.ifft(np.fft.fft(b, axis=1) * phase, axis=1)
    amps = b if v is None else v @ b
    return JointState(joint.system_basis_id, joint.grid, amps)


def select(joint: JointState, target: StateVector) -> tuple[PointerState, float]:
    """Project the system onto ``target``.

    Returns the renormalized conditional pointer together with the
    selection amplitude (the L2 norm of the unnormalized conditional
    wavefunction <target|joint>); the success probability is amplitude**2
    and the unnormalized wavefunction is amplitude * pointer.
    """
    if target.basis_id != joint.system_basis_id:
        raise BasisMismatch(
            f"target on {target.basis_id!r}, joint system on "
            f"{joint.system_basis_id!r}"
        )
    raw = target.amplitudes.conj() @ joint.amplitudes
    amplitude = math.sqrt(float(np.sum(np.abs(raw) ** 2)) * joint.grid.spacing)
    _check_amplitude(amplitude)
    return PointerState(joint.grid, raw), amplitude


def _state_columns(states, observable: Operator) -> np.ndarray:
    """Amplitudes of ``states`` as columns, checked against the observable's basis."""
    for s in states:
        if s.basis_id != observable.basis_id:
            raise BasisMismatch(
                f"observable on {observable.basis_id!r}, state on {s.basis_id!r}"
            )
        if s.dim != observable.dim:
            raise BasisMismatch("observable dimension does not match state")
    return np.stack([s.amplitudes for s in states], axis=1)


def conditional_pointers(
    initial,
    final,
    observable: Operator,
    generator: str,
    g: float,
    pointer: PointerState,
    eigensystem=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized conditional pointers of one stage, one row per selection.

    Row s is <final_s| exp(-i sign g observable x generator / hbar)
    |initial_s> x pointer, exactly as ``select(couple(product_joint(...)))``
    would leave it before renormalization.  ``initial`` and ``final`` are
    sequences of states of equal length, or one of them has length one and
    is paired with every entry of the other.  ``eigensystem`` (w, v) of
    the observable skips its diagonalization.  Returns the rows, shape
    (selections, n_points), and their L2 norms (selection amplitudes).

    Raises GridResolutionError when a selection's coupling wraps the
    pointer (the module docstring's rule).
    """
    coeff = _coupling_coeff(generator, g)
    a = _state_columns(initial, observable)
    b = _state_columns(final, observable)
    if a.shape[1] != b.shape[1] and 1 not in (a.shape[1], b.shape[1]):
        raise InvalidConfig(
            f"{a.shape[1]} initial states cannot pair with {b.shape[1]} final states"
        )
    w, v = _observable_eigensystem(observable, eigensystem)
    if v is not None:
        a = v.conj().T @ a
        b = v.conj().T @ b
    coeffs = b.conj().T * a.T  # <b_s|v_l><v_l|a_s>, shape (selections, levels)
    grid = pointer.grid
    if generator == POSITION:
        reach, quarter = np.abs(g * w) / grid.hbar, math.pi / (2.0 * grid.spacing)
    else:
        reach, quarter = np.abs(g * w), grid.length / 4.0
    beyond = reach > quarter
    if beyond.any():
        weight = np.abs(coeffs)
        wrapped = weight[:, beyond].sum(axis=1)
        total = weight.sum(axis=1)
        wraps = np.flatnonzero(wrapped > WRAP_SHARE * total)
        if wraps.size:
            s = wraps[0]
            raise GridResolutionError(
                f"selection {s}: levels displaced past a quarter of the pointer grid "
                f"({quarter:.3g}, {generator} generator) carry a share "
                f"{wrapped[s] / total[s]:.3g} > {WRAP_SHARE:g} of its weight; the "
                f"largest displacement is {reach.max():.3g}"
            )
    # the phase kernel exp(coeff w x / hbar), built in one buffer
    if generator == POSITION:
        kernel = np.multiply(coeff, np.outer(w, grid.positions()))
        kernel /= grid.hbar
        np.exp(kernel, out=kernel)
        kernel *= pointer.wavefunction
        rows = coeffs @ kernel
    else:
        kernel = np.multiply(coeff, np.outer(w, grid.wavenumbers()))  # the hbar cancels
        np.exp(kernel, out=kernel)
        kernel *= np.fft.fft(pointer.wavefunction)
        rows = np.fft.ifft(coeffs @ kernel, axis=1)
    amplitudes = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1) * grid.spacing)
    return rows, amplitudes


def momentum_distribution(p: PointerState) -> tuple[np.ndarray, np.ndarray]:
    """Momentum readout values hbar*k (FFT order) and their probabilities."""
    ft = np.fft.fft(p.wavefunction)
    probs = (p.grid.spacing / p.grid.n_points) * np.abs(ft) ** 2
    values = p.grid.hbar * p.grid.wavenumbers()
    return values, probs


def position_distribution(p: PointerState) -> tuple[np.ndarray, np.ndarray]:
    """Position readout values and their grid-cell probabilities."""
    return p.grid.positions(), np.abs(p.wavefunction) ** 2 * p.grid.spacing


def readout_distribution(p: PointerState, kind: str) -> tuple[np.ndarray, np.ndarray]:
    if kind == POSITION:
        return position_distribution(p)
    if kind == MOMENTUM:
        return momentum_distribution(p)
    raise InvalidConfig(f"readout kind must be {POSITION!r} or {MOMENTUM!r}")


def pointer_mean_position(p: PointerState) -> float:
    """Mean of the position readout distribution."""
    values, probs = position_distribution(p)
    return float(np.sum(values * probs))


def pointer_mean_momentum(p: PointerState) -> float:
    """Mean of the momentum readout distribution."""
    values, probs = momentum_distribution(p)
    return float(np.sum(values * probs))


def predicted_shifts(
    x_w: complex, sigma: float, hbar: float = 1.0, g: float = 1.0
) -> tuple[float, float]:
    """First-order pointer shifts of a weak value measured at strength g.

    dx = -2 sigma^2 g Im{x_w} / hbar and dp = g Re{x_w}; the
    hbar-consistent form of the position shift is used (at hbar = 1 it
    coincides with the bare -2 sigma^2 g Im{x_w}).
    """
    return -2.0 * sigma**2 * g * complex(x_w).imag / hbar, g * complex(x_w).real


@dataclass(frozen=True)
class WeakStageResult:
    """One weak coupling plus selection: conditional pointer and probability."""

    pointer: PointerState
    probability: float


def _stage_result(pointer: PointerState, row: np.ndarray, amplitude: float) -> WeakStageResult:
    amplitude = float(amplitude)
    _check_amplitude(amplitude)
    return WeakStageResult(
        pointer=PointerState(pointer.grid, row),
        probability=amplitude * amplitude,
    )


def measure_weakly(
    i: StateVector,
    f: StateVector,
    observable: Operator,
    sigma: float,
    g: float,
    grid: GridConfig,
) -> WeakStageResult:
    """Prepare i x Gaussian on ``grid``, couple position-position, select f.

    Exact throughout; a coupling that wraps the pointer raises
    GridResolutionError (see ``conditional_pointers``).
    """
    phi = gaussian_pointer(grid, sigma)
    rows, amps = conditional_pointers([i], [f], observable, POSITION, g, phi)
    return _stage_result(phi, rows[0], amps[0])


@dataclass(frozen=True)
class CcrProtocolResult:
    """Readouts and bookkeeping of one two-stage commutator run."""

    dx_d: float
    dx_d_prime: float
    prob_mid: float
    prob_post: float
    pointer_first: PointerState
    pointer_second: PointerState


def run_ccr_protocols(
    i: StateVector,
    finals,
    x_op: Operator,
    p_op: Operator,
    sigma: float,
    sigma_prime: float,
    g: float,
    grid: GridConfig,
    grid_prime: GridConfig,
    p_eigensystem=None,
) -> list[CcrProtocolResult]:
    """Exact two-pointer commutator chains for a list of mid-selections.

    Stage one: prepare i x P on ``grid``, couple position-position with
    strength g, select f, read P's position.  Stage two: prepare f x P' on
    ``grid_prime``, couple momentum-momentum, select i again, read P''s
    position.

    Each stage is one ``conditional_pointers`` call for all of ``finals``;
    ``p_eigensystem`` (w, v) of ``p_op`` skips its diagonalization.  A
    coupling that wraps its pointer raises GridResolutionError (see
    ``conditional_pointers``); then rows are checked in order, and the
    first selection that leaves no amplitude raises SelectionAnnihilated.
    """
    phi = gaussian_pointer(grid, sigma)
    phi_prime = gaussian_pointer(grid_prime, sigma_prime)
    rows1, amps1 = conditional_pointers([i], finals, x_op, POSITION, g, phi)
    rows2, amps2 = conditional_pointers(finals, [i], p_op, MOMENTUM, g, phi_prime, p_eigensystem)
    results = []
    for s in range(len(finals)):
        stage1 = _stage_result(phi, rows1[s], amps1[s])
        stage2 = _stage_result(phi_prime, rows2[s], amps2[s])
        results.append(
            CcrProtocolResult(
                dx_d=pointer_mean_position(stage1.pointer),
                dx_d_prime=pointer_mean_position(stage2.pointer),
                prob_mid=stage1.probability,
                prob_post=stage2.probability,
                pointer_first=stage1.pointer,
                pointer_second=stage2.pointer,
            )
        )
    return results


def run_ccr_protocol(
    i: StateVector,
    f: StateVector,
    x_op: Operator,
    p_op: Operator,
    sigma: float,
    sigma_prime: float,
    g: float,
    grid: GridConfig,
    grid_prime: GridConfig,
) -> CcrProtocolResult:
    """Full exact chain of the two-pointer commutator measurement for one
    mid-selection ``f``; see ``run_ccr_protocols``."""
    return run_ccr_protocols(i, [f], x_op, p_op, sigma, sigma_prime, g, grid, grid_prime)[0]
