"""Shared fixtures: the joint-state oracle of the two-pointer chain."""

import math

import numpy as np
import pytest

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
        w, v = np.linalg.eigh(op.matrix)
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
    (``pointer.COUPLING_SIGN``).
    """
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
