"""Born-rule sampler of exact stages that the caller already holds.

The module simulates nothing: a two-stage commutator chain
(``pointer.run_ccr_protocol``) or a weak stage (``pointer.measure_weakly``)
is evolved exactly by the caller and handed in.  A laboratory run on it is
emulated trial by trial: each strong selection is passed with its exact
Born probability (sampled against a uniform variate), failed trials are
discarded, and surviving pointers are read out by inverse-CDF sampling on
the grid readout distribution.  The inverse CDF is a guide table built
once per readout distribution; it returns exactly the indices of a binary
search (``searchsorted``), so every readout is bit-identical to that form.

Reproducibility contract: the four uniforms of trial ``t`` are row
``t % BLOCK`` of a Philox stream keyed by (master_seed, stream, block
``t // BLOCK``), so every trial is a pure function of (stage, seed, t) and
results are bit-identical regardless of execution order or worker
count.  Draw count per trial is fixed (inverse-CDF, never rejection),
which is what keeps the counter layout stable.  Accumulation is
single-pass per block with exact (math.fsum) merging across blocks in
block order.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import InvalidConfig, NoAcceptedTrials
# run_ccr_protocol and measure_weakly are not called here; they stay
# importable because bench/tracer.py wraps them under this module's name
# (montecarlo_experiment runs its stage as ensemble.measure_weakly).
from .pointer import (  # noqa: F401
    MOMENTUM,
    POSITION,
    CcrProtocolResult,
    WeakStageResult,
    measure_weakly,
    readout_distribution,
    run_ccr_protocol,
)

BLOCK = 1 << 16  # trials per RNG block
_DRAWS = 4  # uniforms per trial: accept-mid, accept-post, readout, readout'
# Guide-table buckets of the readout sampler; a power of two, so u * K and
# k / K are exact.
GUIDE_BUCKETS = 1 << 14

_STREAM_TRIALS = 1
_STREAM_IMAG = 2
_STREAM_REAL = 3

_MASK64 = (1 << 64) - 1


def _block_stream(master_seed: int, stream: int, block: int) -> np.random.Generator:
    if block >= 1 << 32:
        raise InvalidConfig("trial count exceeds the RNG block address space")
    # a uint64 array: numpy would read a list holding a value >= 2**63 as float64
    key = np.array([master_seed & _MASK64, ((stream << 32) | block) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EnsembleStats:
    """Accepted-trial statistics of one Monte Carlo run."""

    attempted: int
    accepted: int
    mean_product: float
    stderr_product: float


def _inverse_cdf(values: np.ndarray, cdf: np.ndarray):
    """Sampler u -> values[min(searchsorted(cdf, u, "right"), n - 1)] for u in [0, 1).

    A guide table (Chen & Asau 1974) over GUIDE_BUCKETS equal buckets of
    [0, 1): ``lo[k]`` is the binary-search index of the bucket's left
    edge.  A key in bucket k has an index in [lo[k], hi[k]], hi[k] being
    the count of cdf entries below the right edge; where hi - lo <= 1 one
    comparison with ``cdf[lo[k]]`` decides it, and the few keys of wider
    buckets are binary-searched.  The indices, so the readouts, equal the
    binary search's bit for bit (``cdf`` nondecreasing).
    """
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    lo = np.searchsorted(cdf, edges[:-1], side="right")
    wide = np.searchsorted(cdf, edges[1:], side="left") - lo > 1
    ext = np.append(cdf, np.inf)
    last = values.size - 1

    def sample(u: np.ndarray) -> np.ndarray:
        k = (u * GUIDE_BUCKETS).astype(np.intp)
        idx = lo[k]
        idx += ext[idx] <= u
        fallback = np.flatnonzero(wide[k])
        if fallback.size:
            idx[fallback] = np.searchsorted(cdf, u[fallback], side="right")
        return values[np.minimum(idx, last, out=idx)]

    return sample


def _readout(pointer, kind: str):
    values, probs = readout_distribution(pointer, kind)
    return _inverse_cdf(values, np.cumsum(probs))


def _sample(master_seed, stream, n_trials, gates, readouts, n_workers):
    """(accepted, (mean, stderr)) of ``n_trials`` trials of one stream.

    A trial passes when ``u[:, k] < gates[k]`` for every gate k; readout m
    reads column 2 + m of the accepted rows.  The moments are those of the
    product of the readouts, so of the readout itself when there is one.
    """
    blocks = range((n_trials + BLOCK - 1) // BLOCK)

    def one(b):
        size = min(BLOCK, n_trials - b * BLOCK)
        # random((size, 4)) is the first ``size`` rows of random((BLOCK, 4))
        u = _block_stream(master_seed, stream, b).random((size, _DRAWS))
        acc = u[:, 0] < gates[0]
        for k in range(1, len(gates)):
            acc &= u[:, k] < gates[k]
        v = reduce(operator.mul, (readout(np.compress(acc, u[:, 2 + m]))
                                  for m, readout in enumerate(readouts)))
        return int(np.count_nonzero(acc)), float(np.sum(v)), float(np.sum(v * v))

    n_threads = min(n_workers, len(blocks))
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            partials = list(pool.map(one, blocks))
    else:
        partials = [one(b) for b in blocks]

    accepted = sum(n for n, _, _ in partials)
    if accepted == 0:
        raise NoAcceptedTrials(f"0 of {n_trials} trials passed all selections")
    mean = math.fsum(s for _, s, _ in partials) / accepted
    if accepted < 2:
        return accepted, (mean, float("nan"))
    total_sq = math.fsum(q for _, _, q in partials)
    var = max(0.0, (total_sq - accepted * mean * mean) / (accepted - 1))
    return accepted, (mean, math.sqrt(var / accepted))


def run_trials(
    chain: CcrProtocolResult, n_trials: int, master_seed: int, n_workers: int = 1
) -> EnsembleStats:
    """Sample ``n_trials`` runs of a two-stage commutator chain.

    Per-trial randomness is the two selection gates (``prob_mid``,
    ``prob_post``) and the two position readouts of the conditional
    pointers; see the module docstring.  The moments are those of the
    readouts' product dx * dx'.
    """
    accepted, (mean, stderr) = _sample(
        master_seed, _STREAM_TRIALS, n_trials, (chain.prob_mid, chain.prob_post),
        (_readout(chain.pointer_first, POSITION), _readout(chain.pointer_second, POSITION)),
        n_workers,
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
    stage: WeakStageResult,
    sigma: float,
    g: float,
    n_trials: int,
    master_seed: int,
    n_workers: int = 1,
) -> WeakValueEstimate:
    """Invert sampled pointer shifts of one weak stage into Re/Im of the weak value.

    Im{O_w} = -<dx> * hbar / (2 sigma^2 g) from a position-readout
    ensemble, with hbar that of the stage's pointer grid, and
    Re{O_w} = <dp> / g from a momentum-readout ensemble; each
    ensemble runs ``n_trials`` attempts on its own stream, accepted at the
    stage's selection probability.  The estimates converge to the
    closed-form weak value as n_trials grows and g shrinks.
    """
    (n_pos, (mean_dx, se_dx)), (n_mom, (mean_dp, se_dp)) = (
        _sample(master_seed, stream, n_trials, (stage.probability,),
                (_readout(stage.pointer, kind),), n_workers)
        for kind, stream in ((POSITION, _STREAM_IMAG), (MOMENTUM, _STREAM_REAL))
    )
    scale_im = -stage.pointer.grid.hbar / (2.0 * sigma**2 * g)
    return WeakValueEstimate(
        re_est=mean_dp / g,
        im_est=mean_dx * scale_im,
        stderr_re=se_dp / abs(g),
        stderr_im=se_dx * abs(scale_im),
        attempted=n_trials,
        accepted_position=n_pos,
        accepted_momentum=n_mom,
    )
