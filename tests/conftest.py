"""Shared fixtures: the joint-state oracle of the two-pointer chain."""

import math

import pytest

from weaklab.errors import GridResolutionError, OrthogonalSelection
from weaklab.pointer import (
    MOMENTUM,
    POSITION,
    CcrProtocolResult,
    CouplingSpec,
    couple,
    gaussian_pointer,
    pointer_mean_position,
    product_joint,
    select,
)
from weaklab.weakcorr import weak_value


def _oracle_protocol(i, f, x_op, p_op, sigma, sigma_prime, g, grid, grid_prime):
    """One two-stage chain through the full system x pointer state.

    Same guards as ``pointer.run_ccr_protocol``, written out separately:
    a predicted shift beyond a quarter of its grid raises
    GridResolutionError, an annihilated selection SelectionAnnihilated.
    hbar is the pointer grid's; ``couple`` takes each stage's coupling
    sign from its generator (``pointer.COUPLING_SIGN``).
    """
    hbar = grid.hbar
    try:
        x_w = weak_value(i, f, x_op)
        p_w_bar = weak_value(f, i, p_op)
    except OrthogonalSelection:
        x_w = p_w_bar = complex(math.nan, math.nan)
    dx = -2.0 * sigma**2 * g * x_w.imag / hbar
    if math.isfinite(dx) and abs(dx) > grid.length / 4.0:
        raise GridResolutionError("oracle: P shift beyond length/4")
    if math.isfinite(abs(g * p_w_bar)) and abs(g * p_w_bar) > grid_prime.length / 4.0:
        raise GridResolutionError("oracle: P' translation beyond length/4")
    joint = product_joint(i, gaussian_pointer(grid, sigma))
    first, amp1 = select(couple(joint, CouplingSpec(x_op, POSITION, g)), f)
    joint = product_joint(f, gaussian_pointer(grid_prime, sigma_prime))
    second, amp2 = select(couple(joint, CouplingSpec(p_op, MOMENTUM, g)), i)
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
