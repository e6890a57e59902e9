"""Shared helpers: the dense reference of an operator, and the joint-state
oracle of the two-pointer chain, which couples that dense reference."""

import math

import numpy as np
import pytest

from weaklab import hilbert
from weaklab.errors import GridResolutionError
from weaklab.pointer import (
    MOMENTUM,
    POSITION,
    CcrProtocolResult,
    couple,
    gaussian_pointer,
    pointer_mean_position,
    product_joint,
    select,
)


def dense_matrix(op):
    """The dense matrix of ``op``: a dense operator's own matrix, np.diag of a
    diagonal, and for a spectral operator the FFT of the identity's columns,
    scaled by its spectrum and scale and symmetrized to remove FFT roundoff."""
    if op.matrix is not None:
        return op.matrix
    if op.diagonal is not None:
        return np.diag(op.diagonal)
    dense = np.fft.fft(np.eye(op.dim), axis=0)
    dense *= op.spectrum[:, None]
    dense = np.fft.ifft(dense, axis=0)
    dense *= op.scale
    return hilbert.hermitian_part(dense)


def dense_reference(op):
    """``op`` with a spectrum replaced by its dense matrix (``dense_matrix``),
    so the oracle diagonalizes it with ``eigh``; any other operator as it is."""
    return op if op.spectrum is None else hilbert.Operator(op.basis_id, dense_matrix(op))


def _oracle_wraps(a, b, op, generator, g, grid):
    """Whether the levels of ``op`` that the coupling displaces past a
    quarter of ``grid`` carry more than 1e-12 of sum_l |<b|v_l><v_l|a>|.

    Level l translates the pointer by g w_l (momentum generator) or kicks
    its wavenumber by g w_l / hbar (position generator); a quarter grid
    is length/4 or pi / (2 spacing).
    """
    if op.diagonal is not None:
        w, v = np.real(op.diagonal), np.eye(op.dim)
    else:
        w, v = np.linalg.eigh(dense_matrix(op))
    weight = np.abs((v.conj().T @ b.amplitudes).conj() * (v.conj().T @ a.amplitudes))
    if generator == MOMENTUM:
        beyond = np.abs(g * w) > grid.length / 4.0
    else:
        beyond = np.abs(g * w) / grid.hbar > math.pi / (2.0 * grid.spacing)
    return bool(weight[beyond].sum() > 1e-12 * weight.sum())


def _oracle_protocol(i, f, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime):
    """One two-stage chain through the full system x pointer state.

    Same guards as ``pointer.run_ccr_protocol``, written out separately:
    a stage whose levels displaced past a quarter of its pointer grid
    carry more than 1e-12 of sum_l |<b|v_l><v_l|a>| raises
    GridResolutionError (``_oracle_wraps``), an annihilated selection
    SelectionAnnihilated.  hbar is the pointer grid's; ``couple`` takes
    each stage's coupling sign from its generator
    (``pointer.COUPLING_SIGN``).  A spectral operator is coupled as its
    dense reference (``dense_reference``).
    """
    x_op, p_op = dense_reference(x_op), dense_reference(p_op)
    if _oracle_wraps(i, f, x_op, POSITION, g, grid):
        raise GridResolutionError("oracle: the P coupling wraps its pointer")
    if _oracle_wraps(f, i, p_op, MOMENTUM, g, grid_prime):
        raise GridResolutionError("oracle: the P' coupling wraps its pointer")
    joint = product_joint(i, gaussian_pointer(grid, sigma))
    first, amp1 = select(couple(joint, x_op, POSITION, g), f)
    joint = product_joint(f, gaussian_pointer(grid_prime, sigma_prime))
    second, amp2 = select(couple(joint, p_op, MOMENTUM, g), i)
    return CcrProtocolResult(
        dx_d=pointer_mean_position(first),
        dx_d_prime=pointer_mean_position(second),
        prob_mid=amp1 * amp1,
        prob_post=amp2 * amp2,
        pointer_first=first,
        pointer_second=second,
    )


@pytest.fixture(scope="session")
def oracle_protocol():
    return _oracle_protocol


@pytest.fixture(scope="session")
def oracle_wraps():
    return _oracle_wraps
