"""Born-rule sampler of exact stages that the caller already holds.

The module simulates nothing: the caller evolves a two-stage commutator
chain (the two ``PointerStack``s of ``pointer.run_ccr_protocols``) or a
weak stage (the one of ``pointer.measure_weakly``) exactly and hands it
in, and a sampler reads one row of it.  Each readout distribution is
computed once per stack, for all its rows (``readout_distribution``).  A
laboratory run on a row is emulated by its sufficient statistics.  A
trial passes its strong selections independently, each with its exact Born
probability, so the accepted count of n trials is Binomial(n, product of
the gate probabilities).  An accepted trial's readout is an independent
draw from the grid readout distribution (``readout_distribution``), so
the accepted readouts are summarized, exactly in law, by their counts on
the grid: Multinomial(accepted, probabilities).  The product of two
readouts (ccr's dx * dx') draws the counts of the first readout, then for
each grid cell k that holds c_k trials the counts of the second readout,
Multinomial(c_k, probabilities').

Reproducibility contract: stream ``s`` of master seed ``m`` draws from one
Philox generator keyed by (m, s), with no other draw: Binomial(n_trials,
p) for the accepted count, then one multinomial of the first readout's
cell counts, then, for two readouts, the second readout's counts of every
nonzero cell of the first, cell by cell: one multinomial call per slab of
cells, each call continuing the stream where the last one left it, so the
counts are those one call over all the cells would draw.  Each readout
lists the cells of nonzero probability, most probable first (ties in grid
order).  So a stream is a pure function of (stage, seed, stream,
n_trials), and its cost does not grow with n_trials.  The terms c_k v_k
and c_k v_k^2 of the cells (for two readouts v_k S_k and v_k^2 Q_k) are
merged exactly (``math.fsum``).  S_k and Q_k, the second readout's sums,
come from one matrix product per slab of cells.  They are exact when
every term and partial sum is a float (the dyadic readout values of a
sigma' = 1 pointer grid, at counts that keep each sum within 53 bits),
and within roundoff of any other summation order otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hilbert
from .errors import NoAcceptedTrials
# run_ccr_protocol and measure_weakly are not called here; they stay
# importable because bench/tracer.py wraps them under this module's name
# (montecarlo_experiment runs its stage as ensemble.measure_weakly).
from .pointer import (  # noqa: F401
    MOMENTUM,
    POSITION,
    PointerStack,
    measure_weakly,
    readout_distribution,
    run_ccr_protocol,
)

_STREAM_TRIALS = 1
_STREAM_IMAG = 2
_STREAM_REAL = 3

_MASK64 = (1 << 64) - 1


def _generator(master_seed: int, stream: int) -> np.random.Generator:
    # a uint64 array: numpy would read a list holding a value >= 2**63 as float64
    key = np.array([master_seed & _MASK64, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EnsembleStats:
    """Accepted-trial statistics of one Monte Carlo run."""

    attempted: int
    accepted: int
    mean_product: float
    stderr_product: float


def _readout(distribution, row: int):
    """(values, probabilities) of the cells of row ``row`` of a stack's readout
    distribution (``readout_distribution``) that it can read, most probable first.

    A multinomial draw takes one binomial per cell until its count is used
    up, so with the likely cells first it stops after them.  The
    probabilities are scaled to sum to 1 at roundoff, since
    ``Generator.multinomial`` rejects a sum above 1 + 1e-12.  Cells of
    probability 0 are never read; left out, none of them can meet a
    remaining probability of exactly 0, whose ratio would be NaN.
    """
    values, probs = distribution[0], distribution[1][row]
    order = np.argsort(-probs, kind="stable")
    order = order[probs[order] > 0.0]
    return values[order], probs[order] / np.sum(probs)


def _second_moments(gen, counts, readout):
    """(S_k, Q_k) rows, S_k = sum_j c_kj v'_j and Q_k = sum_j c_kj v'_j^2, per cell k.

    ``counts`` are the first readout's nonzero cell counts, in cell order,
    and ``readout`` is the second (values v', probabilities).  The counts
    c_kj of a slab of cells, about ``hilbert._SLAB_ENTRIES`` entries, come
    from one multinomial call, which continues the stream where the last
    slab's call left it, and one matrix product reduces them to the slab's
    rows: no (cells x cells) array is formed.
    """
    values2, probs2 = readout
    powers = np.stack([values2, values2 * values2], axis=1)
    moments = np.empty((counts.size, 2))
    step = max(1, hilbert._SLAB_ENTRIES // values2.size)
    for start in range(0, counts.size, step):
        block = slice(start, start + step)
        np.matmul(gen.multinomial(counts[block], probs2), powers, out=moments[block])
    return moments


def _sample(master_seed, stream, n_trials, gates, readouts):
    """(accepted, (mean, stderr)) of ``n_trials`` trials of one stream.

    A trial passes gate k with probability ``gates[k]``, independently, and
    reads one value of each of ``readouts`` (one or two (values,
    probabilities) pairs).  The moments are those of the product of the
    readouts, so of the readout itself when there is one.  With two, the
    second readout is drawn and summed a slab of the first's nonzero cells
    at a time (``_second_moments``).
    """
    gen = _generator(master_seed, stream)
    # each gate reads as the test u < gate: one at or above 1 (roundoff can
    # put a near-certain selection there) passes every trial, one not above
    # 0, NaN included, passes none
    p = math.prod(1.0 if g >= 1.0 else g if g > 0.0 else 0.0 for g in gates)
    accepted = int(gen.binomial(n_trials, p))
    if accepted == 0:
        raise NoAcceptedTrials(f"0 of {n_trials} trials passed all selections")
    (values, probs), *second = readouts
    counts = gen.multinomial(accepted, probs)
    if second:
        cells = np.flatnonzero(counts)
        moments = _second_moments(gen, counts[cells], *second)
        values = values[cells]
        sums = values * moments[:, 0]
        squares = values * values * moments[:, 1]
    else:
        sums = counts * values
        squares = sums * values
    mean = math.fsum(sums) / accepted
    if accepted < 2:
        return accepted, (mean, float("nan"))
    var = max(0.0, (math.fsum(squares) - accepted * mean * mean) / (accepted - 1))
    return accepted, (mean, math.sqrt(var / accepted))


def run_trials(gates, distributions, row: int, n_trials: int,
               master_seed: int) -> EnsembleStats:
    """Sample ``n_trials`` runs of row ``row`` of a two-stage commutator chain.

    Of the chain's two stage stacks (``pointer.run_ccr_protocols``),
    ``gates`` holds the selection probabilities and ``distributions`` the
    position readout distributions (``readout_distribution``).  A trial
    passes the two selection gates, the row's probability in each stack,
    and reads the row's two position readouts; see the module docstring.
    The moments are those of the readouts' product dx * dx'.
    """
    accepted, (mean, stderr) = _sample(
        master_seed, _STREAM_TRIALS, n_trials, tuple(gate[row] for gate in gates),
        tuple(_readout(distribution, row) for distribution in distributions),
    )
    return EnsembleStats(n_trials, accepted, mean, stderr)


@dataclass(frozen=True)
class WeakValueEstimate:
    """Monte Carlo weak-value estimate from inverted pointer shifts."""

    re_est: float
    im_est: float
    stderr_re: float
    stderr_im: float
    attempted: int
    accepted_position: int
    accepted_momentum: int


def estimate_weak_value(
    stage: PointerStack,
    row: int,
    sigma: float,
    g: float,
    n_trials: int,
    master_seed: int,
) -> WeakValueEstimate:
    """Invert sampled pointer shifts of row ``row`` of a weak stage into Re/Im of
    the weak value.

    Im{O_w} = -<dx> * hbar / (2 sigma^2 g) from a position-readout
    ensemble, with hbar that of the stage's pointer grid, and
    Re{O_w} = <dp> / g from a momentum-readout ensemble; each
    ensemble runs ``n_trials`` attempts on its own stream, accepted at the
    row's selection probability.  The estimates converge to the
    closed-form weak value as n_trials grows and g shrinks.
    """
    (n_pos, (mean_dx, se_dx)), (n_mom, (mean_dp, se_dp)) = (
        _sample(master_seed, stream, n_trials, (stage.probabilities[row],),
                (_readout(readout_distribution(stage, kind), row),))
        for kind, stream in ((POSITION, _STREAM_IMAG), (MOMENTUM, _STREAM_REAL))
    )
    scale_im = -stage.grid.hbar / (2.0 * sigma**2 * g)
    return WeakValueEstimate(
        re_est=mean_dp / g,
        im_est=mean_dx * scale_im,
        stderr_re=se_dp / abs(g),
        stderr_im=se_dx * abs(scale_im),
        attempted=n_trials,
        accepted_position=n_pos,
        accepted_momentum=n_mom,
    )
