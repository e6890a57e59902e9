"""Closed-form weak values and weak correlation functions.

Weak values, two-operator weak correlations and their
(anti)commutator combinations, their Born-weighted averages over the
natural mid-selection basis, high-order selection chains, dual
correlations and the associated symmetry residuals.

Every weak value and correlation is one selection chain, a plain tuple
of states (pre, mids, post) such as ``alternating(i, f, n_ops)``,
evaluated by ``_chain_value``; ``weak_value`` is the chain of one gap.
A state may be a stack (a ``StateVector`` whose columns are the
selections, say one pre-selection per spin angle).  A gap pairs a stack
with one state; a gap whose operator is a stack, one matrix per row (say
one random instance per row), pairs two stacks row by row.  So a chain
returns one complex value per row in one pass, the same bits in a stack
of any width, and a plain complex number when no state or operator is a
stack.  A near-orthogonal pair of neighbours raises OrthogonalSelection,
naming the first row of a stack that fails.  Only ``ccr_decomposition`` and
``symmetry_residuals`` return small records.  The reverse weak value
<i|A|f>/<i|f> is ``weak_value(f, i, A)``.

Two readings of the bracket around operator products are implemented
side by side: the per-selection product (single mid-state f) and the
Born-weighted average over a complete basis {f}, the natural basis in
``averaged_weak_correlation``; an average over another basis is a weighted
sum of ``weak_correlation`` over a stack of its states.  Only the averaged
form carries an exact operator identity (it telescopes to <i|A B|i> by the
resolution of identity); experiment reports show both.

Of the dual-procedure symmetries, the even-order ones (order swap under
interchange, commutator sign flip) are checked numerically via
``symmetry_residuals``.  The odd-order chain displays whose two sides
are syntactically identical are self-equalities: they hold by
construction and are not separately implemented.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatch, OrthogonalSelection, WeakLabError, raise_first_row
from .hilbert import Operator, StateVector, _require_same_basis, braket

# Below this overlap (unit-norm states) the weak-value ratio has no
# significant digits left in double precision.
ORTHOGONALITY_EPS = 1e-12

# Smallest normal float; below it a product has lost significant digits.
_TINY = sys.float_info.min

# Relative tolerance of CcrDecomposition.p_imag_is_zero: |Im p_w| at most
# this times max(1, |p_w|).
P_IMAG_TOL = 1e-10


def alternating(i: StateVector, f: StateVector, n_ops: int) -> tuple:
    """The canonical selection chain (i, f, i, f, ...) with n_ops gaps."""
    if n_ops < 1:
        raise ArityMismatch("need at least one weakly measured operator")
    return tuple(i if k % 2 == 0 else f for k in range(n_ops + 1))


def selection_overlap(bra: StateVector, ket: StateVector):
    """<bra|ket>, one value per row of a stack; OrthogonalSelection at the
    first row where it is <= ORTHOGONALITY_EPS."""
    _require_same_basis(bra, ket)
    ov = braket(bra.amplitudes, ket.amplitudes)
    size = abs(ov)
    raise_first_row(size <= ORTHOGONALITY_EPS, OrthogonalSelection,
                    f"selection overlap |<f|i>| = {{:.3e}} <= eps = {ORTHOGONALITY_EPS:.1e}", size)
    return ov


def weak_value(i: StateVector, f: StateVector, op: Operator):
    """<f|op|i>/<f|i>, the chain of one gap.

    ``weak_value(f, i, op)`` is the reverse value <i|op|f>/<i|f>; for
    Hermitian op it is the complex conjugate of the forward one.
    """
    return _chain_value((i, f), (op,))


def _chain_value(states, ops):
    """Product of gap matrix elements over product of gap overlaps, every row at once.

    In each gap one operator acts on the side that is one state (from the
    left, as <hi|op, when the stack is below it), and a stack of operators
    acts on ``lo`` row by row, so a row rounds the same in a stack of any
    width.  The overlap and normal-range checks run per row and name the
    first row that fails.
    """
    if len(ops) != len(states) - 1:
        raise ArityMismatch(f"{len(ops)} operators for {len(states) - 1} selection gaps")
    num = den = complex(1.0)
    for lo, op, hi in zip(states, ops, states[1:]):
        _require_same_basis(lo, op)
        _require_same_basis(hi, op)
        widths = [s.amplitudes.shape[1] for s in (lo, hi) if s.amplitudes.ndim == 2]
        if op.rows is None and len(widths) == 2:
            raise ArityMismatch("a selection gap pairs a stack with one state, not two stacks")
        if op.rows is not None and any(w != op.rows for w in widths):
            raise ArityMismatch(f"a stack of {op.rows} operators meets state stacks of widths {widths}")
        den = den * selection_overlap(hi, lo)
        if lo.amplitudes.ndim == 2 and op.rows is None:
            num = num * braket(op.apply_left(hi.amplitudes.conj()).conj(), lo.amplitudes)
        else:
            num = num * braket(hi.amplitudes, op.apply(lo.amplitudes))
    # |overlap| <= 1, so den only shrinks: one check after the loop sees it
    # leave the normal range.  num may be exactly 0, as a zero factor makes it.
    size_num, size_den = abs(num), abs(den)
    normal = (size_den >= _TINY) & ((size_num == 0) | ((size_num >= _TINY) & (size_num < math.inf)))
    raise_first_row(np.logical_not(normal), WeakLabError, "chain products leave the normal "
                    "float range: |numerator| = {:.3e}, |overlaps| = {:.3e}", size_num, size_den)
    return num / den


def weak_correlation(
    i: StateVector,
    f: StateVector,
    a: Operator,
    b: Operator,
) -> complex:
    """<i|a|f><f|b|i> / (<i|f><f|i>): b weakly measured first, then a.

    Equals weak_value(f, i, a) times weak_value(i, f, b).  Swapping
    the argument order gives the opposite measurement order.
    """
    return _chain_value((i, f, i), (b, a))


def weak_commutator(i, f, a, b) -> complex:
    """Weak correlation of [a,b]; purely imaginary for Hermitian a, b."""
    return weak_correlation(i, f, a, b) - weak_correlation(i, f, b, a)


def weak_anticommutator(i, f, a, b) -> complex:
    """Weak correlation of {a,b}; real for Hermitian a, b."""
    return weak_correlation(i, f, a, b) + weak_correlation(i, f, b, a)


_COMBINES = ("commutator", "anticommutator")


def averaged_weak_correlation(
    i: StateVector,
    a: Operator,
    b: Operator,
    combine: str,
) -> complex:
    """Born-weighted sum over the natural basis states f of the weak
    (anti)commutator of a and b, as ``combine`` names it.

    Each admissible term |<f|i>|^2 <...>_w^(f) cancels algebraically to
    plain matrix elements (<i|a|f><f|b|i> -+ <i|b|f><f|a|i>), which is how
    it is evaluated here; no small-overlap division occurs.  Terms with
    |<f|i>| <= ORTHOGONALITY_EPS are defined as zero (the weight annihilates
    the divergent weak value).  When no term is skipped the sum telescopes
    to <i|[a, b]|i> or <i|{a, b}|i> exactly.
    """
    if combine not in _COMBINES:
        raise ArityMismatch(f"combine must be one of {_COMBINES}, got {combine!r}")
    _require_same_basis(i, a)
    _require_same_basis(i, b)
    psi = i.amplitudes
    keep = np.abs(psi) > ORTHOGONALITY_EPS  # |<f|i>| per f
    # <i|a|f><f|b|i> and <i|b|f><f|a|i> for every f at once; <f|ket> is ket's entry f
    forward = a.apply_left(psi.conj()) * b.apply(psi)
    swapped = b.apply_left(psi.conj()) * a.apply(psi)
    if combine == "commutator":
        return complex(np.sum(forward[keep] - swapped[keep]))
    return complex(np.sum(forward[keep] + swapped[keep]))


@dataclass(frozen=True)
class CcrDecomposition:
    """Per-selection real-part combination of the canonical commutator.

    ``lhs`` is Re{x_w}Im{p_w} - Im{x_w}Re{p_w} for one mid-selection;
    only its Born average over a complete basis has to equal hbar/2.
    ``simplified_lhs`` is the Im{x_w} * p_w variant, valid when
    ``p_imag_is_zero``; its averaged target is -hbar/2.  For a stack of
    mid-selections every field holds one entry per row.
    """

    x_w: complex
    p_w: complex
    lhs: float
    p_imag_is_zero: bool
    simplified_lhs: float


def ccr_decomposition(
    i: StateVector,
    f: StateVector,
    x_op: Operator,
    p_op: Operator,
) -> CcrDecomposition:
    """Real/imaginary split of the weak CCR for a mid-selection f or a stack of them.

    The per-selection values do not depend on hbar; their Born averages
    are compared with +-hbar/2 by the caller.
    """
    x_w = weak_value(i, f, x_op)
    p_w = weak_value(i, f, p_op)
    return CcrDecomposition(
        x_w=x_w,
        p_w=p_w,
        lhs=x_w.real * p_w.imag - x_w.imag * p_w.real,
        p_imag_is_zero=np.abs(p_w.imag) <= P_IMAG_TOL * np.maximum(1.0, np.abs(p_w)),
        simplified_lhs=x_w.imag * p_w.real,
    )


def chain_weak_correlation(
    states: tuple,
    ops,
) -> complex:
    """High-order weak correlation over an alternating selection chain.

    ``states`` are the strong selections in order (pre, mids, post), for
    example ``alternating(i, f, n_ops)``; ``ops`` are given in
    chronological order, one per selection gap.  The value is the product
    of gap matrix elements over the product of gap overlaps; it raises
    OrthogonalSelection, before any division, when a gap overlap is
    at most ORTHOGONALITY_EPS, and WeakLabError when either product
    leaves the normal float range (a long chain's overlaps underflow).
    It does not depend on when each weak coupling happens inside its gap.
    With two ops and states (i, f, i) this reduces
    bit-for-bit to ``weak_correlation``.
    """
    return _chain_value(tuple(states), tuple(ops))


def dual_weak_correlation(
    i: StateVector,
    f: StateVector,
    ops,
) -> complex:
    """Chain value for the interchanged procedure (pre f, mid i, ...)."""
    ops = tuple(ops)
    return _chain_value(alternating(f, i, len(ops)), ops)


@dataclass(frozen=True)
class SymmetryResiduals:
    """Numerical residuals of the dual-procedure identities."""

    order_swap: float  # |<BA>_dual - <AB>|
    commutator_flip: float  # |<[A,B]> + <[A,B]>_dual|


def symmetry_residuals(
    i: StateVector,
    f: StateVector,
    a: Operator,
    b: Operator,
) -> SymmetryResiduals:
    """Check <BA>_dual = <AB> and <[A,B]>_dual = -<[A,B]>, from four chains
    evaluated once each (the dual <BA> is ``weak_correlation(f, i, b, a)``)."""
    ab = weak_correlation(i, f, a, b)
    ba = weak_correlation(i, f, b, a)
    ba_dual = dual_weak_correlation(i, f, (a, b))
    ab_dual = weak_correlation(f, i, a, b)
    return SymmetryResiduals(
        order_swap=abs(ba_dual - ab),
        commutator_flip=abs((ab - ba) + (ab_dual - ba_dual)),
    )
