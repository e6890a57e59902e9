"""Born-rule Monte Carlo engine over the exact pointer chain.

A laboratory run is emulated trial by trial: each strong selection is
passed with its exact Born probability (sampled against a uniform
variate), failed trials are discarded, and surviving pointers are read
out by inverse-CDF sampling on the grid readout distribution.  The
inverse CDF is a guide table built once per readout distribution; it
returns exactly the indices of a binary search (``searchsorted``), so
every readout is bit-identical to that form.

Reproducibility contract: the four uniforms of trial ``t`` are row
``t % BLOCK`` of a Philox stream keyed by (master_seed, stream, block
``t // BLOCK``), so every trial is a pure function of (config, t) and
results are bit-identical regardless of execution order or worker
count.  Draw count per trial is fixed (inverse-CDF, never rejection),
which is what keeps the counter layout stable.  Accumulation is
single-pass per block with exact (math.fsum) merging across blocks in
block order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NoAcceptedTrials, SelectionAnnihilated
from .hilbert import GridConfig, Operator, StateVector
from .pointer import (
    MOMENTUM,
    POSITION,
    CcrProtocolResult,
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
    key = [master_seed & _MASK64, ((stream & _MASK64) << 32) | block]
    return np.random.Generator(np.random.Philox(key=key))


def trial_uniforms(master_seed: int, stream: int, trial_index: int) -> np.ndarray:
    """The four uniforms consumed by one trial (for purity checks)."""
    block, row = divmod(trial_index, BLOCK)
    u = _block_stream(master_seed, stream, block).random((BLOCK, _DRAWS))
    return u[row]


@dataclass(frozen=True)
class TrialConfig:
    """Inputs of the two-stage commutator protocol plus sampling knobs."""

    i: StateVector
    f: StateVector
    x_op: Operator
    p_op: Operator
    sigma: float
    sigma_prime: float
    g: float
    n_trials: int
    master_seed: int
    readout_first: str = POSITION
    readout_second: str = POSITION
    grid: GridConfig | None = None
    grid_prime: GridConfig | None = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidConfig("n_trials must be >= 1")
        for r in (self.readout_first, self.readout_second):
            if r not in (POSITION, MOMENTUM):
                raise InvalidConfig(f"readout must be position or momentum, got {r!r}")


@dataclass(frozen=True)
class EnsembleStats:
    """Accepted-trial statistics of one Monte Carlo run."""

    attempted: int
    accepted: int
    acceptance_rate: float
    mean_dx: float
    mean_dx_prime: float
    mean_product: float
    stderr_dx: float
    stderr_dx_prime: float
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


def _reduce_moments(partials, attempted):
    """Exact-order merge of per-block partial sums."""
    accepted = sum(p["n"] for p in partials)
    if accepted == 0:
        raise NoAcceptedTrials(f"0 of {attempted} trials passed all selections")

    def moments(key_sum, key_sq):
        total = math.fsum(p[key_sum] for p in partials)
        total_sq = math.fsum(p[key_sq] for p in partials)
        mean = total / accepted
        if accepted < 2:
            return mean, float("nan")
        var = max(0.0, (total_sq - accepted * mean * mean) / (accepted - 1))
        return mean, math.sqrt(var / accepted)

    return accepted, moments


def _run_blocks(master_seed, stream, n_trials, block_fn, n_workers):
    blocks = range((n_trials + BLOCK - 1) // BLOCK)

    def one(b):
        lo = b * BLOCK
        size = min(BLOCK, n_trials - lo)
        # random((size, 4)) is the first ``size`` rows of random((BLOCK, 4))
        u = _block_stream(master_seed, stream, b).random((size, _DRAWS))
        return block_fn(u)

    n_threads = min(n_workers, len(blocks))
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            return list(pool.map(one, blocks))
    return [one(b) for b in blocks]


def run_trials(
    cfg: TrialConfig,
    n_workers: int = 1,
    chain: CcrProtocolResult | None = None,
) -> EnsembleStats:
    """Sample the full two-stage protocol; see module docstring.

    The conditional chain is deterministic for a fixed config, so it is
    evolved once exactly; per-trial randomness is the two selection
    gates and the two readout draws.  A caller that already holds the
    chain of this config (``run_ccr_protocol`` on the same inputs) passes
    it as ``chain`` and it is used as is.
    """
    if chain is None:
        try:
            chain = run_ccr_protocol(
                cfg.i, cfg.f, cfg.x_op, cfg.p_op, cfg.sigma, cfg.sigma_prime, cfg.g,
                grid=cfg.grid, grid_prime=cfg.grid_prime, hbar=cfg.hbar,
            )
        except SelectionAnnihilated as exc:
            raise NoAcceptedTrials(
                f"a selection annihilates every trial: {exc}"
            ) from exc
    q1, q2 = chain.prob_mid, chain.prob_post
    v1, p1 = readout_distribution(chain.pointer_first, cfg.readout_first)
    v2, p2 = readout_distribution(chain.pointer_second, cfg.readout_second)
    readout1 = _inverse_cdf(v1, np.cumsum(p1))
    readout2 = _inverse_cdf(v2, np.cumsum(p2))

    def block_fn(u):
        acc = (u[:, 0] < q1) & (u[:, 1] < q2)
        r1 = readout1(np.compress(acc, u[:, 2]))
        r2 = readout2(np.compress(acc, u[:, 3]))
        prod = r1 * r2
        return {
            "n": int(np.count_nonzero(acc)),
            "s1": float(np.sum(r1)), "q1": float(np.sum(r1 * r1)),
            "s2": float(np.sum(r2)), "q2": float(np.sum(r2 * r2)),
            "sp": float(np.sum(prod)), "qp": float(np.sum(prod * prod)),
        }

    partials = _run_blocks(cfg.master_seed, _STREAM_TRIALS, cfg.n_trials, block_fn, n_workers)
    accepted, moments = _reduce_moments(partials, cfg.n_trials)
    mean_dx, se_dx = moments("s1", "q1")
    mean_dxp, se_dxp = moments("s2", "q2")
    mean_prod, se_prod = moments("sp", "qp")
    return EnsembleStats(
        attempted=cfg.n_trials,
        accepted=accepted,
        acceptance_rate=accepted / cfg.n_trials,
        mean_dx=mean_dx,
        mean_dx_prime=mean_dxp,
        mean_product=mean_prod,
        stderr_dx=se_dx,
        stderr_dx_prime=se_dxp,
        stderr_product=se_prod,
    )


@dataclass(frozen=True)
class WeakValueTrialConfig:
    """Single weak coupling of one observable, read out both ways."""

    i: StateVector
    f: StateVector
    observable: Operator
    sigma: float
    g: float
    n_trials: int
    master_seed: int
    grid: GridConfig | None = None
    hbar: float = 1.0

    def __post_init__(self):
        if self.n_trials < 1:
            raise InvalidConfig("n_trials must be >= 1")
        if self.g == 0:
            raise InvalidConfig("weak-value estimation needs g != 0")


@dataclass(frozen=True)
class WeakValueEstimate:
    """Monte Carlo weak-value estimate from inverted pointer shifts.

    ``probability`` is the exact selection probability of the weak stage,
    the rate the trials are accepted at.
    """

    re_est: float
    im_est: float
    stderr_re: float
    stderr_im: float
    attempted: int
    accepted_position: int
    accepted_momentum: int
    probability: float


def estimate_weak_value(cfg: WeakValueTrialConfig, n_workers: int = 1) -> WeakValueEstimate:
    """Invert sampled pointer shifts into Re/Im of the weak value.

    Im{O_w} = -<dx> * hbar / (2 sigma^2 g) from a position-readout
    ensemble, Re{O_w} = <dp> / g from a momentum-readout ensemble; each
    ensemble runs cfg.n_trials attempts on its own stream.  The
    estimates converge to the closed-form weak value as n_trials grows
    and g shrinks.
    """
    try:
        stage = measure_weakly(
            cfg.i, cfg.f, cfg.observable, cfg.sigma, cfg.g,
            grid=cfg.grid, hbar=cfg.hbar,
        )
    except SelectionAnnihilated as exc:
        raise NoAcceptedTrials(
            f"the mid selection annihilates every trial: {exc}"
        ) from exc
    q = stage.probability

    def run_readout(kind, stream):
        values, probs = readout_distribution(stage.pointer, kind)
        readout = _inverse_cdf(values, np.cumsum(probs))

        def block_fn(u):
            acc = u[:, 0] < q
            r = readout(np.compress(acc, u[:, 2]))
            return {"n": int(np.count_nonzero(acc)),
                    "s": float(np.sum(r)), "q": float(np.sum(r * r))}

        partials = _run_blocks(cfg.master_seed, stream, cfg.n_trials, block_fn, n_workers)
        accepted, moments = _reduce_moments(partials, cfg.n_trials)
        mean, se = moments("s", "q")
        return accepted, mean, se

    n_pos, mean_dx, se_dx = run_readout(POSITION, _STREAM_IMAG)
    n_mom, mean_dp, se_dp = run_readout(MOMENTUM, _STREAM_REAL)
    scale_im = -cfg.hbar / (2.0 * cfg.sigma**2 * cfg.g)
    return WeakValueEstimate(
        re_est=mean_dp / cfg.g,
        im_est=mean_dx * scale_im,
        stderr_re=se_dp / abs(cfg.g),
        stderr_im=se_dx * abs(scale_im),
        attempted=cfg.n_trials,
        accepted_position=n_pos,
        accepted_momentum=n_mom,
        probability=q,
    )
