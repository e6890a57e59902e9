"""Tests for the Born-rule Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import ensemble, hilbert, pointer
from weaklab.ensemble import BLOCK, estimate_weak_value, run_trials
from weaklab.errors import InvalidConfig, NoAcceptedTrials, SelectionAnnihilated
from weaklab.experiments import montecarlo_experiment
from weaklab.hilbert import (
    FockConfig,
    GridConfig,
    coherent_state,
    gaussian_grid_state,
    make_fock_ops,
    make_grid_ops,
)

# the pointer grid of a unit-width pointer at hbar = 1
POINTER_GRID = pointer.pointer_grid(1.0)


def trial_uniforms(master_seed, stream, trial_index):
    """The four uniforms consumed by one trial, drawn the way the sampler draws them."""
    block, row = divmod(trial_index, ensemble.BLOCK)
    return ensemble._block_stream(master_seed, stream, block).random((ensemble.BLOCK, 4))[row]


def readout_moments(chain, n_trials, seed, pointer_state):
    """(accepted, (mean, stderr)) of one position readout of ``pointer_state``
    under both gates of ``chain``: the per-readout view of ``run_trials``."""
    return ensemble._sample(seed, ensemble._STREAM_TRIALS, n_trials,
                            (chain.prob_mid, chain.prob_post),
                            (ensemble._readout(pointer_state, pointer.POSITION),), 1)


def grid_setup(n_sys=64, length=20.0):
    cfg = GridConfig(n_sys, length)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=length / 24.0)
    return cfg, x_op, p_op, i


def plane_wave(cfg, mode):
    k = 2.0 * np.pi * mode / cfg.length
    return hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions())), k


def test_trial_draws_are_pure_functions_of_index():
    # the same uniforms come back no matter how the block is regenerated
    for idx in (0, 17, BLOCK - 1, BLOCK, BLOCK + 3):
        u1 = trial_uniforms(99, 1, idx)
        u2 = trial_uniforms(99, 1, idx)
        np.testing.assert_array_equal(u1, u2)
    direct = ensemble._block_stream(99, 1, 0).random((BLOCK, 4))
    np.testing.assert_array_equal(trial_uniforms(99, 1, 17), direct[17])


HIGH_SEEDS = [2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]


@pytest.mark.filterwarnings("error")
def test_seeds_above_int64_keep_their_philox_key():
    # a key read as float64 would round these to multiples of 2048, and 2**64 - 1 to 0
    for seed in HIGH_SEEDS:
        key = ensemble._block_stream(seed, 1, 0).bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [seed & ((1 << 64) - 1), 1 << 32]
    rows = [trial_uniforms(seed, 1, 0).tobytes() for seed in [0, *HIGH_SEEDS]]
    assert len(set(rows)) == len(rows)


def base_chain():
    """The exact chain of a momentum-eigenvector mid-selection on the grid."""
    cfg, x_op, p_op, i = grid_setup()
    f, _ = plane_wave(cfg, 1)
    return pointer.run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, 0.01, POINTER_GRID, POINTER_GRID)


def uncoupled_chain():
    """i selected again after a zero coupling: every trial passes."""
    cfg, x_op, p_op, i = grid_setup()
    return pointer.run_ccr_protocol(i, i, x_op, p_op, 1.0, 1.0, 0.0, POINTER_GRID, POINTER_GRID)


def test_same_selection_zero_coupling_accepts_everything():
    chain = uncoupled_chain()
    stats = run_trials(chain, 20_000, 11)
    assert stats.accepted == stats.attempted == 20_000
    for pointer_state in (chain.pointer_first, chain.pointer_second):
        accepted, (mean, stderr) = readout_moments(chain, 20_000, 11, pointer_state)
        assert accepted == 20_000
        assert abs(mean) <= 4.0 * stderr


def test_orthogonal_selection_zero_coupling_accepts_nothing():
    cfg_g, x_op, p_op, i = grid_setup()
    amps = i.amplitudes.copy()
    xs = cfg_g.positions()
    orth = hilbert.StateVector(cfg_g.basis_id, amps * xs)  # odd * even = orthogonal
    assert abs(hilbert.inner(orth, i)) < 1e-12
    # the exact stage refuses the selection; a chain whose mid selection
    # has probability 0 accepts no trial
    with pytest.raises(SelectionAnnihilated):
        pointer.run_ccr_protocol(i, orth, x_op, p_op, 1.0, 1.0, 0.0, POINTER_GRID, POINTER_GRID)
    never = dataclasses.replace(uncoupled_chain(), prob_mid=0.0)
    with pytest.raises(NoAcceptedTrials):
        run_trials(never, 100, 3)


def test_acceptance_rate_matches_born_product():
    n = 200_000
    chain = base_chain()
    q = chain.prob_mid * chain.prob_post
    stats = run_trials(chain, n, 7)
    se = math.sqrt(q * (1 - q) / n)
    assert abs(stats.accepted / stats.attempted - q) <= 3.0 * se


def test_mean_product_matches_exact_chain():
    # momentum-eigenvector mid-selection, ~1e5 accepted trials
    chain = base_chain()
    stats = run_trials(chain, 3_200_000, 2)
    assert stats.accepted >= 100_000
    exact = chain.dx_d * chain.dx_d_prime
    assert abs(stats.mean_product - exact) <= 3.0 * stats.stderr_product
    for pointer_state, dx in ((chain.pointer_first, chain.dx_d),
                              (chain.pointer_second, chain.dx_d_prime)):
        _, (mean, stderr) = readout_moments(chain, 3_200_000, 2, pointer_state)
        assert abs(mean - dx) <= 3.0 * stderr


def test_bit_identical_reruns_and_worker_independence():
    chain = base_chain()
    a = run_trials(chain, 150_000, 5, n_workers=1)
    b = run_trials(chain, 150_000, 5, n_workers=1)
    c = run_trials(chain, 150_000, 5, n_workers=3)
    assert a == b
    assert a == c


def test_stderr_scales_inverse_sqrt_accepted():
    chain = uncoupled_chain()
    _, (_, se_small) = readout_moments(chain, 1_000, 13, chain.pointer_first)
    _, (_, se_big) = readout_moments(chain, 100_000, 13, chain.pointer_first)
    ratio = se_small / se_big
    assert ratio == pytest.approx(10.0, rel=0.2)


def spin_pair(alpha):
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    i = hilbert.StateVector(
        hilbert.PAULI_BASIS_ID, np.array([c + s, c - s]) / math.sqrt(2.0)
    )
    f = hilbert.StateVector(hilbert.PAULI_BASIS_ID, np.array([1.0, 1.0]))
    return i, f


def weak_stage(i, f, observable, g=0.05):
    return pointer.measure_weakly(i, f, observable, 1.0, g, POINTER_GRID)


def test_estimate_weak_value_spin():
    i, f = spin_pair(math.pi / 2)
    est = estimate_weak_value(weak_stage(i, f, hilbert.pauli("z")), 1.0, 0.05, 40_000, 21)
    # closed form tan(pi/4) = 1, purely real
    assert abs(est.re_est - 1.0) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_identity_observable():
    i, f = spin_pair(math.pi / 3)
    ident = hilbert.Operator(hilbert.PAULI_BASIS_ID, np.eye(2))
    est = estimate_weak_value(weak_stage(i, f, ident), 1.0, 0.05, 40_000, 22)
    assert abs(est.re_est - 1.0) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_fock_position():
    cfg_f = hilbert.FockConfig(dim=2)
    x_op, _ = hilbert.make_fock_ops(cfg_f)
    i = hilbert.basis_state(2, 0, cfg_f.basis_id)
    f = hilbert.StateVector(cfg_f.basis_id, np.array([1.0, 1.0]))
    est = estimate_weak_value(weak_stage(i, f, x_op), 1.0, 0.05, 60_000, 23)
    assert abs(est.re_est - 1.0 / math.sqrt(2.0)) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_requires_nonzero_g(monkeypatch):
    # the estimates divide by g: the experiment refuses g = 0 before its stage
    def no_stage(*args, **kwargs):
        raise AssertionError("a weak stage ran at g = 0")

    monkeypatch.setattr(ensemble, "measure_weakly", no_stage)
    with pytest.raises(InvalidConfig, match="montecarlo g must be != 0"):
        montecarlo_experiment(alpha=1.0, g=0.0, n_trials=10, seed=1)


def test_estimate_deterministic():
    i, f = spin_pair(0.8)
    stage = weak_stage(i, f, hilbert.pauli("z"))
    assert (estimate_weak_value(stage, 1.0, 0.05, 5_000, 31)
            == estimate_weak_value(stage, 1.0, 0.05, 5_000, 31, n_workers=2))


@pytest.mark.parametrize("n", [1, 3, 1000, 12345, 65535])
def test_short_draw_is_prefix_of_full_block(n):
    # the last, partial block draws only the rows it needs
    for seed, stream, block in ((99, 1, 0), (2**63 + 5, 3, 7)):
        full = ensemble._block_stream(seed, stream, block).random((BLOCK, 4))
        short = ensemble._block_stream(seed, stream, block).random((n, 4))
        np.testing.assert_array_equal(short, full[:n])


def record_uniforms(monkeypatch):
    """Spy on _block_stream: the uniform rows each stream hands to its trials."""
    seen = {}
    real = ensemble._block_stream

    class Recorded:
        def __init__(self, stream, gen):
            self.stream, self.gen = stream, gen

        def random(self, shape):
            u = self.gen.random(shape)
            seen.setdefault(self.stream, []).append(u.copy())
            return u

    monkeypatch.setattr(
        ensemble, "_block_stream",
        lambda seed, stream, block: Recorded(stream, real(seed, stream, block)),
    )
    return seen


def full_block_draws(monkeypatch):
    """Draw whole blocks and slice, as the tail block used to."""
    real = ensemble._block_stream

    class FullBlock:
        def __init__(self, gen):
            self.gen = gen

        def random(self, shape):
            return self.gen.random((BLOCK, shape[1]))[: shape[0]]

    monkeypatch.setattr(
        ensemble, "_block_stream", lambda *a: FullBlock(real(*a))
    )


def assert_rows_are_trial_uniforms(blocks, seed, stream, n):
    rows = np.concatenate(blocks)
    assert rows.shape == (n, 4)
    for t in (0, 17, BLOCK - 1, *range(BLOCK, n)):
        np.testing.assert_array_equal(rows[t], trial_uniforms(seed, stream, t))


def test_run_trials_consumes_trial_uniforms_row_by_row(monkeypatch):
    n = BLOCK + 40
    chain = base_chain()
    plain = run_trials(chain, n, 17)
    seen = record_uniforms(monkeypatch)
    assert run_trials(chain, n, 17) == plain
    assert list(seen) == [ensemble._STREAM_TRIALS]
    assert_rows_are_trial_uniforms(seen[ensemble._STREAM_TRIALS], 17, ensemble._STREAM_TRIALS, n)
    full_block_draws(monkeypatch)
    assert run_trials(chain, n, 17) == plain


def test_estimate_weak_value_consumes_trial_uniforms_row_by_row(monkeypatch):
    n = BLOCK + 40
    i, f = spin_pair(0.8)
    stage = weak_stage(i, f, hilbert.pauli("z"))
    plain = estimate_weak_value(stage, 1.0, 0.05, n, 41)
    seen = record_uniforms(monkeypatch)
    assert estimate_weak_value(stage, 1.0, 0.05, n, 41) == plain
    assert sorted(seen) == [ensemble._STREAM_IMAG, ensemble._STREAM_REAL]
    for stream, blocks in seen.items():
        assert_rows_are_trial_uniforms(blocks, 41, stream, n)
    full_block_draws(monkeypatch)
    assert estimate_weak_value(stage, 1.0, 0.05, n, 41) == plain


# -- guide-table readout: the same indices as binary search -------------------

def reference_inverse_cdf(values, cdf):
    """The binary-search readout the guide table must reproduce (test oracle)."""
    return lambda u: values[np.minimum(np.searchsorted(cdf, u, side="right"), values.size - 1)]


def probability_vector(kind, n, rng):
    x = np.linspace(-1.0, 1.0, n)
    if kind == "random":
        return rng.random(n)
    if kind == "uniform":
        return np.ones(n)
    # the gaussian and spiky kinds are scaled so their largest entry is 1:
    # a narrow peak between points, or one small draw at n = 1, would
    # otherwise underflow to an all-zero vector
    if kind == "gaussian":
        d = ((x - rng.uniform(-0.5, 0.5)) / rng.uniform(1e-3, 0.5)) ** 2
        return np.exp(-(d - d.min()))
    if kind == "spiky":
        r = rng.random(n)
        return (r / r.max()) ** 40
    p = rng.random(n)  # zero runs: equal cdf entries
    for start in rng.integers(0, n, size=3):
        p[start:start + rng.integers(1, n + 1)] = 0.0
    p[rng.integers(0, n)] = 1.0
    return p


def guide_keys(cdf, rng):
    """Random keys plus every cdf entry, every bucket edge and their neighbours."""
    edges = np.arange(ensemble.GUIDE_BUCKETS) / ensemble.GUIDE_BUCKETS
    keys = np.concatenate([
        rng.random(4096),
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
        edges, np.nextafter(edges, -1.0),
        [0.0, 1.0 - 2.0**-53],
    ])
    return keys[(keys >= 0.0) & (keys < 1.0)]


@given(
    kind=st.sampled_from(["random", "uniform", "gaussian", "spiky", "zero-runs"]),
    n=st.one_of(st.integers(1, 300), st.just(1024)),
    total=st.sampled_from([1.0, 1.0 - 2**-52, 1.0 - 1e-12, 1.0 - 1e-6, 1.0 + 2**-52, 1.0 + 1e-9]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_guide_table_equals_binary_search(kind, n, total, seed):
    rng = np.random.default_rng(seed)
    p = probability_vector(kind, n, rng)
    cdf = np.cumsum(p * (total / p.sum()))
    assert np.all(np.isfinite(cdf))
    values = rng.normal(size=n)
    keys = guide_keys(cdf, rng)
    got = ensemble._inverse_cdf(values, cdf)(keys)
    np.testing.assert_array_equal(got, reference_inverse_cdf(values, cdf)(keys))


def test_guide_table_dense_bucket_falls_back_to_binary_search():
    # 1000 cdf entries inside the first bucket, so its keys take the fallback
    p = np.concatenate([np.full(1000, 1e-9), [1.0], np.full(23, 1e-3)])
    cdf = np.cumsum(p / p.sum())
    values = np.arange(cdf.size, dtype=float)
    keys = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.linspace(0.0, 2e-6, 5001)])
    keys = keys[keys < 1.0]
    got = ensemble._inverse_cdf(values, cdf)(keys)
    np.testing.assert_array_equal(got, reference_inverse_cdf(values, cdf)(keys))
    assert np.unique(got[keys < 1e-6]).size > 100


def assert_equal_fields(a, b):
    for field in dataclasses.fields(a):
        assert getattr(a, field.name) == getattr(b, field.name), field.name


def spin_trial_setup():
    i, f = spin_pair(0.8)
    return dict(i=i, f=f, x_op=hilbert.pauli("x"), p_op=hilbert.pauli("y"), g=0.05)


def fock_trial_setup():
    rep = FockConfig(dim=16)
    x_op, p_op = make_fock_ops(rep)
    return dict(i=coherent_state(rep, 1.0), f=coherent_state(rep, 0.5 + 0.5j),
                x_op=x_op, p_op=p_op, g=0.05)


def grid_trial_setup():
    cfg, x_op, p_op, i = grid_setup()
    f, _ = plane_wave(cfg, 1)
    return dict(i=i, f=f, x_op=x_op, p_op=p_op, g=0.01)


TRIAL_SETUPS = {"spin": spin_trial_setup, "fock": fock_trial_setup, "grid": grid_trial_setup}


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("setup", sorted(TRIAL_SETUPS))
def test_run_trials_equals_binary_search_readout(monkeypatch, setup, n_workers):
    kw = TRIAL_SETUPS[setup]()
    chain = pointer.run_ccr_protocol(kw["i"], kw["f"], kw["x_op"], kw["p_op"], 1.0, 1.0, kw["g"],
                                     POINTER_GRID, POINTER_GRID)
    guided = run_trials(chain, 2 * BLOCK + 999, 5, n_workers)
    monkeypatch.setattr(ensemble, "_inverse_cdf", reference_inverse_cdf)
    assert_equal_fields(guided, run_trials(chain, 2 * BLOCK + 999, 5, n_workers))


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("setup", sorted(TRIAL_SETUPS))
def test_estimate_weak_value_equals_binary_search_readout(monkeypatch, setup, n_workers):
    kw = TRIAL_SETUPS[setup]()
    stage = weak_stage(kw["i"], kw["f"], kw["x_op"], kw["g"])
    guided = estimate_weak_value(stage, 1.0, kw["g"], 2 * BLOCK + 999, 6, n_workers=n_workers)
    monkeypatch.setattr(ensemble, "_inverse_cdf", reference_inverse_cdf)
    assert_equal_fields(
        guided, estimate_weak_value(stage, 1.0, kw["g"], 2 * BLOCK + 999, 6, n_workers=n_workers)
    )


# float.hex of every output of the sampler on two fixed stages, from the
# implementation with one block loop per sampler that preceded the shared
# one.  A change of the Philox layout, the gate order, the readout columns
# or the merge order changes them.
PINNED_RUN_TRIALS = {
    "attempted": 66535, "accepted": 24595,
    "mean_product": "0x1.133b11a4821b9p-7", "stderr_product": "0x1.aac43904c08e9p-8",
}
PINNED_ESTIMATE = {
    "re_est": "0x1.84b7941a8db62p-2", "im_est": "-0x1.feb4dd07b1642p-5",
    "stderr_re": "0x1.5b860164c05a4p-5", "stderr_im": "0x1.5607e3901cf7ep-5",
    "attempted": 66535, "accepted_position": 56405, "accepted_momentum": 56119,
}


def hex_fields(result):
    return {k: v.hex() if isinstance(v, float) else v for k, v in dataclasses.asdict(result).items()}


def block_tagged_readout(seed, stream, n_blocks, block_values):
    """Readout that reads ``block_values[b]`` and then zeros in block b.

    A block is told by its first trial's readout uniform, so the readout
    does not depend on the order in which blocks run.
    """
    tag = {trial_uniforms(seed, stream, b * ensemble.BLOCK)[2]: b for b in range(n_blocks)}

    def readout(u):
        out = np.zeros(u.size)
        values = block_values[tag[u[0]]]
        out[:len(values)] = values
        return out

    return readout


@pytest.mark.parametrize("n_workers", [1, 2])
def test_block_merge_is_exact(monkeypatch, n_workers):
    # The per-block partial sums below round differently when added left to
    # right; math.fsum merges them exactly.  A small BLOCK keeps 128 blocks
    # cheap; the merge does not depend on the block size.
    monkeypatch.setattr(ensemble, "BLOCK", 8)
    seed, stream, n_blocks = 11, 1, 128
    n_trials = 8 * n_blocks  # a power of two, so dividing by it is exact

    def sample(block_values):
        readout = block_tagged_readout(seed, stream, n_blocks, block_values)
        accepted, moments = ensemble._sample(seed, stream, n_trials, (2.0,), (readout,),
                                             n_workers)
        assert accepted == n_trials  # a gate above 1 passes every trial
        return moments

    # sums 1 + 2**-53 + 2**-107: exactly above a tie, so 1 + 2**-52; left to
    # right, and compensated (Neumaier) too, they give 1
    mean, _ = sample([[1.0], [2.0**-53], [2.0**-107]] + [[]] * (n_blocks - 3))
    assert mean == (1.0 + 2.0**-52) / n_trials
    # sums 0, squares 1 + 127 * 2**-53; left to right each 2**-53 is half
    # an ulp of 1 and rounds away
    tiny = 2.0**-27
    mean, stderr = sample([[0.5, -0.5, 0.5, -0.5]] + [[tiny, -tiny]] * (n_blocks - 1))
    assert mean == 0.0
    assert stderr == math.sqrt((1.0 + 127 * 2.0**-53) / (n_trials - 1) / n_trials)


@pytest.mark.parametrize("n_workers", [1, 2])
def test_replay_layout_is_pinned(n_workers):
    kw = fock_trial_setup()
    chain = pointer.run_ccr_protocol(kw["i"], kw["f"], kw["x_op"], kw["p_op"], 1.0, 1.0, kw["g"],
                                     POINTER_GRID, POINTER_GRID)
    assert hex_fields(run_trials(chain, BLOCK + 999, 5, n_workers)) == PINNED_RUN_TRIALS
    i, f = spin_pair(0.8)
    est = estimate_weak_value(weak_stage(i, f, hilbert.pauli("z")), 1.0, 0.05, BLOCK + 999, 41,
                              n_workers=n_workers)
    assert hex_fields(est) == PINNED_ESTIMATE


@pytest.mark.parametrize("n_workers, n_trials, pool_size", [
    (1, 3 * BLOCK, None),
    (4, BLOCK, None),
    (3, BLOCK + 1, 2),
    (2, 3 * BLOCK, 2),
])
def test_run_blocks_starts_at_most_one_thread_per_block(monkeypatch, n_workers, n_trials,
                                                        pool_size):
    sizes = []

    class Pool(ensemble.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", Pool)
    # a gate above 1 passes every trial
    accepted, _ = ensemble._sample(3, 1, n_trials, (2.0,), (np.zeros_like,), n_workers)
    assert accepted == n_trials
    assert sizes == ([] if pool_size is None else [pool_size])
