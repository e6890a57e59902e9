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
eigensystem of the coupled observable (``hilbert.eigensystem``, read from
the form it is stored in: the natural basis of a diagonal, the DFT
columns of a spectrum, an ``eigh`` of a dense matrix), preparing
|a> x phi, coupling and selecting <b| leaves the unnormalized conditional
pointer

    sum_l <b|v_l> <v_l|a> K_l phi,

where K_l is the phase profile exp(-i sign g w_l x / hbar) (position
generator) or the translation exp(-i sign g w_l k) applied in the Fourier
domain (momentum generator).  ``conditional_pointers`` evaluates this for
every row of a stack of selections (one ``StateVector`` whose columns are
the states) at once, in one of two ways chosen from the stage's levels:

- a position-generator stage of at least ``CHIRP_MIN_LEVELS`` evenly
  spaced levels w_l, as the grid x has, is a chirp-z transform of each row
  (Rabiner, Schafer & Rader 1969; Bluestein 1970), since the pointer
  positions are evenly spaced too: a pre-chirp, one FFT convolution and a
  post-chirp, O((levels + points) log) per row;
- every other stage (the Fock x, every momentum generator, a few levels
  such as sigma_z's two) is a (selections x levels) by (levels x points)
  product taken a slab of pointer columns at a time, so the kernel is never
  held whole, followed for the momentum generator by one inverse FFT along
  the rows.

Both keep every intermediate within slabs of about ``hilbert._SLAB_ENTRIES``
entries, and they agree to roundoff, not bit for bit.
``measure_weakly``, ``run_ccr_protocol`` and ``run_ccr_protocols`` are
built on it.  The joint-state path (``product_joint`` -> ``couple`` ->
``select``) evolves the full system x pointer state and is kept as the
oracle both paths are tested against.

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
    ArityMismatch,
    BasisMismatch,
    GridResolutionError,
    InvalidConfig,
    SelectionAnnihilated,
    raise_first_row,
)
from . import hilbert
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

# Every pointer grid: 1024 points spanning 40 pointer widths sigma.  Its
# spacing is sigma / 25.6 and its length/8 is 5 sigma, so check_resolution
# passes for every sigma > 0.
POINTER_POINTS = 1024
POINTER_WIDTHS = 40.0

# Fewest evenly spaced levels that a position-generator stage sums as a
# chirp-z transform rather than through its dense (levels x points) kernel.
# Measured for 25 rows on 1024 pointer points (2 vCPU Xeon, one BLAS
# thread; dense against chirp, medians of 41): 8 levels 0.3-0.5 against
# 1.6-2.4 ms, 16 levels 0.5-0.8 against 1.6-2.3 ms, 32 levels 1.0-1.5
# against 1.6-2.6 ms, 48 levels 1.9-3.2 against 1.6-2.7 ms, 64 levels
# 2.6-3.6 against 1.7-2.8 ms, 512 levels 13-18 against 1.0-1.6 ms.  The
# crossover lies between 40 and 48 levels; 64 is a conservative bound above
# it, not the crossover itself.
CHIRP_MIN_LEVELS = 64


def pointer_grid(sigma: float, hbar: float = 1.0) -> GridConfig:
    """Pointer grid of ``POINTER_POINTS`` spanning ``POINTER_WIDTHS`` pointer widths sigma."""
    return GridConfig(POINTER_POINTS, POINTER_WIDTHS * sigma, hbar)


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
    """(w, v) of a Hermitian observable by ``hilbert.eigensystem``; v is
    None when it is diagonal.

    A known ``eigensystem`` (from an ``eigh``, or some of its eigenvector
    columns, as ``conditional_pointers`` allows) is passed through after the
    Hermiticity check instead of diagonalizing again.  A stack of operators
    is refused: a stage couples one observable to its pointer.
    """
    if op.rows is not None:
        raise ArityMismatch(f"a pointer stage couples one observable, not a stack of {op.rows}")
    require_hermitian(op, "coupled observable")
    return hilbert.eigensystem(op) if eigensystem is None else eigensystem


def _check_amplitude(amplitude) -> None:
    """SelectionAnnihilated when an amplitude, or a row of an array of them, is at
    most ANNIHILATION_ATOL."""
    raise_first_row(amplitude <= ANNIHILATION_ATOL, SelectionAnnihilated,
                    f"selection amplitude {{:.3e}} <= {ANNIHILATION_ATOL}", amplitude)


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


def _state_columns(state: StateVector, observable: Operator) -> np.ndarray:
    """Amplitudes of a state or stack as columns, checked against the observable's basis."""
    if state.basis_id != observable.basis_id or state.dim != observable.dim:
        raise BasisMismatch(f"observable on {observable.basis_id!r} (dim {observable.dim}), "
                            f"state on {state.basis_id!r} (dim {state.dim})")
    return state.amplitudes.reshape(state.dim, -1)


def _even_spacing(w: np.ndarray):
    """(w_0, step) when the levels are w_l = w_0 + l step to within 8 ulps of
    the largest |w_l| and number at least ``CHIRP_MIN_LEVELS``, else None.

    Reading the levels as w_0 + l step then moves each phase by at most 8
    ulps of the largest, the size of the dense kernel's own phase roundoff.
    """
    if w.size < CHIRP_MIN_LEVELS:
        return None
    step = (w[-1] - w[0]) / (w.size - 1)
    drift = np.max(np.abs(w - (w[0] + step * np.arange(w.size))))
    return (w[0], step) if drift <= 8.0 * np.finfo(float).eps * np.max(np.abs(w)) else None


def _kernel_rows(coeffs: np.ndarray, w: np.ndarray, coeff: complex, generator: str,
                 pointer: PointerState) -> np.ndarray:
    """Rows coeffs @ (kernel times profile) through the dense (levels x points)
    kernel exp(coeff w x / hbar) or exp(coeff w k), built a slab of pointer
    columns at a time; the momentum generator then takes one inverse FFT."""
    grid = pointer.grid
    if generator == POSITION:
        axis, profile = grid.positions(), pointer.wavefunction
    else:
        axis, profile = grid.wavenumbers(), np.fft.fft(pointer.wavefunction)  # the hbar cancels
    # A power-of-two slab width keeps every slab on a multiple of the BLAS
    # kernel's column unroll (4 on OpenBLAS Haswell), so from 4 columns up each
    # row element is summed exactly as in one product over all columns.
    rows = np.empty((coeffs.shape[0], axis.size), dtype=complex)
    step = 1 << max(0, (hilbert._SLAB_ENTRIES // max(1, w.size)).bit_length() - 1)
    for start in range(0, axis.size, step):
        cols = slice(start, start + step)
        kernel = np.multiply(coeff, np.outer(w, axis[cols]))
        if generator == POSITION:
            kernel /= grid.hbar
        np.exp(kernel, out=kernel)
        kernel *= profile[cols]
        np.matmul(coeffs, kernel, out=rows[:, cols])
        del kernel  # so two slabs are never held at once
    return np.fft.ifft(rows, axis=1) if generator == MOMENTUM else rows


def _chirp_rows(coeffs: np.ndarray, w0: float, step: float, scale: float,
                grid: GridConfig, profile: np.ndarray) -> np.ndarray:
    """Rows sum_l coeffs[s, l] exp(i scale w_l y_j) profile_j for evenly spaced
    levels w_l = w0 + l step and the grid positions y_j, as chirp-z transforms.

    With the indices centred, l' = l - n//2 and j' = j - m//2, the phase is
    scale (w_c y_j + step y_c l' + step dy l' j'), and l' j' =
    (l'^2 + j'^2 - (j' - l')^2) / 2 turns the sum over l into a pre-chirp of
    the coefficients, one convolution with exp(-i b k^2 / 2), b = scale step dy,
    taken by FFTs of a power-of-two length >= n + m - 1, and a post-chirp
    times the profile.  The rows go a slab of at most ``hilbert._SLAB_ENTRIES``
    FFT entries at a time.
    """
    n, m = coeffs.shape[1], grid.n_points
    size = 1 << (n + m - 2).bit_length()
    y = grid.positions()
    lc, jc = n // 2, m // 2
    l, j = np.arange(n) - lc, np.arange(m) - jc
    b = scale * step * grid.spacing
    pre = np.exp(1j * (scale * step * y[jc] * l + 0.5 * b * l * l))
    post = np.exp(1j * (scale * (w0 + step * lc) * y + 0.5 * b * j * j)) * profile
    k = np.arange(size)
    k[k >= m] -= size  # k = j - l, from m - size (only -(n - 1) and up are read) to m - 1
    k += lc - jc  # j' - l'
    chirp = np.fft.fft(np.exp(-0.5j * b * k * k))
    rows = np.empty((coeffs.shape[0], m), dtype=complex)
    per_slab = max(1, hilbert._SLAB_ENTRIES // size)
    for start in range(0, coeffs.shape[0], per_slab):
        sel = slice(start, start + per_slab)
        spectrum = np.fft.fft(coeffs[sel] * pre, n=size, axis=1)
        spectrum *= chirp
        np.multiply(np.fft.ifft(spectrum, axis=1)[:, :m], post, out=rows[sel])
        del spectrum  # so two slabs are never held at once
    return rows


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
    |initial_s> x pointer, as ``select(couple(product_joint(...)))`` would
    leave it before renormalization, to roundoff.  ``initial`` and ``final`` are
    stacks (``StateVector``) of as many rows, or one of them is a single
    state, paired with every row of the other.  ``eigensystem`` (w, v) of
    the observable skips its diagonalization; its columns may span only an
    eigen-subspace that holds every initial state, which keeps the expansion
    exact.  Returns the rows, shape (selections, n_points), and their L2
    norms (selection amplitudes).

    A position-generator stage of at least ``CHIRP_MIN_LEVELS`` evenly
    spaced levels is summed as chirp-z transforms (``_chirp_rows``), a slab
    of rows at a time; every other stage through its dense kernel
    (``_kernel_rows``), a slab of pointer columns at a time.

    Raises GridResolutionError when a selection's coupling wraps the
    pointer (the module docstring's rule), naming the first such row.
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
    # <b_s|v_l><v_l|a_s>, shape (selections, levels), conjugated in place
    # rather than through a conjugated copy of b
    coeffs = b.T * a.T.conj()
    np.conjugate(coeffs, out=coeffs)
    grid = pointer.grid
    if generator == POSITION:
        reach, quarter = np.abs(g * w) / grid.hbar, math.pi / (2.0 * grid.spacing)
    else:
        reach, quarter = np.abs(g * w), grid.length / 4.0
    beyond = reach > quarter
    if beyond.any():
        weight = np.abs(coeffs)
        wrapped, total = weight[:, beyond].sum(axis=1), weight.sum(axis=1)
        with np.errstate(invalid="ignore"):  # a row of no weight wraps none of it
            share = wrapped / total
        raise_first_row(wrapped > WRAP_SHARE * total, GridResolutionError,
                        f"levels displaced past a quarter of the pointer grid ({quarter:.3g}, "
                        f"{generator} generator) carry a share {{:.3g}} > {WRAP_SHARE:g} of its "
                        f"weight; the largest displacement is {reach.max():.3g}", share)
    spaced = _even_spacing(w) if generator == POSITION else None
    if spaced is not None:
        rows = _chirp_rows(coeffs, *spaced, coeff.imag / grid.hbar, grid, pointer.wavefunction)
    else:
        rows = _kernel_rows(coeffs, w, coeff, generator, pointer)
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
    rows, amps = conditional_pointers(i, f, observable, POSITION, g, phi)
    _check_amplitude(amps[0])
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
    """Exact two-pointer commutator chains for a stack of mid-selections.

    Stage one: prepare i x P on ``grid``, couple position-position with
    strength g, select f, read P's position.  Stage two: prepare f x P' on
    ``grid_prime``, couple momentum-momentum, select i again, read P''s
    position.

    ``finals`` is one state or a stack (``StateVector``), one result per
    row.  Each stage is one ``conditional_pointers`` call for all of them;
    ``p_eigensystem`` (w, v) of ``p_op`` skips its diagonalization, and
    when every final is a p eigenvector it may hold just their columns.  A
    coupling that wraps its pointer raises GridResolutionError (see
    ``conditional_pointers``); then the first row where either stage leaves
    no amplitude raises SelectionAnnihilated.  Either error names its row.
    """
    phi = gaussian_pointer(grid, sigma)
    phi_prime = gaussian_pointer(grid_prime, sigma_prime)
    rows1, amps1 = conditional_pointers(i, finals, x_op, POSITION, g, phi)
    rows2, amps2 = conditional_pointers(finals, i, p_op, MOMENTUM, g, phi_prime, p_eigensystem)
    _check_amplitude(np.minimum(amps1, amps2))
    results = []
    for row1, amp1, row2, amp2 in zip(rows1, amps1, rows2, amps2):
        first, second = _stage_result(phi, row1, amp1), _stage_result(phi_prime, row2, amp2)
        results.append(CcrProtocolResult(
            dx_d=pointer_mean_position(first.pointer),
            dx_d_prime=pointer_mean_position(second.pointer),
            prob_mid=first.probability, prob_post=second.probability,
            pointer_first=first.pointer, pointer_second=second.pointer,
        ))
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
    return run_ccr_protocols(i, f, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime)[0]
