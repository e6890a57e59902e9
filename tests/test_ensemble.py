"""Tests for the Born-rule Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import ensemble, hilbert, pointer
from weaklab.ensemble import (
    BLOCK,
    EnsembleStats,
    TrialConfig,
    WeakValueTrialConfig,
    estimate_weak_value,
    run_trials,
    trial_uniforms,
)
from weaklab.errors import InvalidConfig, NoAcceptedTrials
from weaklab.hilbert import (
    FockConfig,
    GridConfig,
    coherent_state,
    gaussian_grid_state,
    make_fock_ops,
    make_grid_ops,
)
from weaklab.weakcorr import weak_value


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


def base_config(**kw):
    cfg, x_op, p_op, i = grid_setup()
    f, _ = plane_wave(cfg, 1)
    defaults = dict(
        i=i, f=f, x_op=x_op, p_op=p_op,
        sigma=1.0, sigma_prime=1.0, g=0.01,
        n_trials=50_000, master_seed=7,
    )
    defaults.update(kw)
    return TrialConfig(**defaults)


def test_same_selection_zero_coupling_accepts_everything():
    cfg_g, x_op, p_op, i = grid_setup()
    cfg = TrialConfig(
        i=i, f=i, x_op=x_op, p_op=p_op,
        sigma=1.0, sigma_prime=1.0, g=0.0,
        n_trials=20_000, master_seed=11,
    )
    stats = run_trials(cfg)
    assert stats.accepted == stats.attempted
    assert stats.acceptance_rate == 1.0
    assert abs(stats.mean_dx) <= 4.0 * stats.stderr_dx
    assert abs(stats.mean_dx_prime) <= 4.0 * stats.stderr_dx_prime


def test_orthogonal_selection_zero_coupling_accepts_nothing():
    cfg_g, x_op, p_op, i = grid_setup()
    amps = i.amplitudes.copy()
    xs = cfg_g.positions()
    orth = hilbert.StateVector(cfg_g.basis_id, amps * xs)  # odd * even = orthogonal
    assert abs(hilbert.inner(orth, i)) < 1e-12
    cfg = TrialConfig(
        i=i, f=orth, x_op=x_op, p_op=p_op,
        sigma=1.0, sigma_prime=1.0, g=0.0,
        n_trials=100, master_seed=3,
    )
    with pytest.raises(NoAcceptedTrials):
        run_trials(cfg)


def test_acceptance_rate_matches_born_product():
    cfg = base_config(n_trials=200_000)
    chain = pointer.run_ccr_protocol(
        cfg.i, cfg.f, cfg.x_op, cfg.p_op, cfg.sigma, cfg.sigma_prime, cfg.g
    )
    q = chain.prob_mid * chain.prob_post
    stats = run_trials(cfg)
    se = math.sqrt(q * (1 - q) / cfg.n_trials)
    assert abs(stats.acceptance_rate - q) <= 3.0 * se


def test_mean_product_matches_exact_chain():
    # momentum-eigenvector mid-selection, ~1e5 accepted trials
    cfg = base_config(n_trials=3_200_000, master_seed=2)
    chain = pointer.run_ccr_protocol(
        cfg.i, cfg.f, cfg.x_op, cfg.p_op, cfg.sigma, cfg.sigma_prime, cfg.g
    )
    stats = run_trials(cfg)
    assert stats.accepted >= 100_000
    exact = chain.dx_d * chain.dx_d_prime
    assert abs(stats.mean_product - exact) <= 3.0 * stats.stderr_product
    assert abs(stats.mean_dx - chain.dx_d) <= 3.0 * stats.stderr_dx
    assert abs(stats.mean_dx_prime - chain.dx_d_prime) <= 3.0 * stats.stderr_dx_prime


def test_bit_identical_reruns_and_worker_independence():
    cfg = base_config(n_trials=150_000, master_seed=5)
    a = run_trials(cfg, n_workers=1)
    b = run_trials(cfg, n_workers=1)
    c = run_trials(cfg, n_workers=3)
    assert a == b
    assert a == c


def test_stderr_scales_inverse_sqrt_accepted():
    cfg_g, x_op, p_op, i = grid_setup()
    small = TrialConfig(
        i=i, f=i, x_op=x_op, p_op=p_op, sigma=1.0, sigma_prime=1.0,
        g=0.0, n_trials=1_000, master_seed=13,
    )
    big = TrialConfig(
        i=i, f=i, x_op=x_op, p_op=p_op, sigma=1.0, sigma_prime=1.0,
        g=0.0, n_trials=100_000, master_seed=13,
    )
    s_small = run_trials(small)
    s_big = run_trials(big)
    ratio = s_small.stderr_dx / s_big.stderr_dx
    assert ratio == pytest.approx(10.0, rel=0.2)


def test_invalid_trial_config():
    cfg_g, x_op, p_op, i = grid_setup()
    with pytest.raises(InvalidConfig):
        TrialConfig(
            i=i, f=i, x_op=x_op, p_op=p_op, sigma=1.0, sigma_prime=1.0,
            g=0.0, n_trials=0, master_seed=1,
        )
    with pytest.raises(InvalidConfig):
        TrialConfig(
            i=i, f=i, x_op=x_op, p_op=p_op, sigma=1.0, sigma_prime=1.0,
            g=0.0, n_trials=10, master_seed=1, readout_first="energy",
        )


def spin_pair(alpha):
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    i = hilbert.StateVector(
        hilbert.PAULI_BASIS_ID, np.array([c + s, c - s]) / math.sqrt(2.0)
    )
    f = hilbert.StateVector(hilbert.PAULI_BASIS_ID, np.array([1.0, 1.0]))
    return i, f


def test_estimate_weak_value_spin():
    i, f = spin_pair(math.pi / 2)
    cfg = WeakValueTrialConfig(
        i=i, f=f, observable=hilbert.pauli("z"),
        sigma=1.0, g=0.05, n_trials=40_000, master_seed=21,
    )
    est = estimate_weak_value(cfg)
    # closed form tan(pi/4) = 1, purely real
    assert abs(est.re_est - 1.0) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_identity_observable():
    i, f = spin_pair(math.pi / 3)
    ident = hilbert.Operator(hilbert.PAULI_BASIS_ID, np.eye(2))
    cfg = WeakValueTrialConfig(
        i=i, f=f, observable=ident,
        sigma=1.0, g=0.05, n_trials=40_000, master_seed=22,
    )
    est = estimate_weak_value(cfg)
    assert abs(est.re_est - 1.0) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_fock_position():
    cfg_f = hilbert.FockConfig(dim=2)
    x_op, _ = hilbert.make_fock_ops(cfg_f)
    i = hilbert.basis_state(2, 0, cfg_f.basis_id)
    f = hilbert.StateVector(cfg_f.basis_id, np.array([1.0, 1.0]))
    cfg = WeakValueTrialConfig(
        i=i, f=f, observable=x_op,
        sigma=1.0, g=0.05, n_trials=60_000, master_seed=23,
    )
    est = estimate_weak_value(cfg)
    assert abs(est.re_est - 1.0 / math.sqrt(2.0)) <= 3.0 * est.stderr_re
    assert abs(est.im_est) <= 3.0 * est.stderr_im


def test_estimate_weak_value_requires_nonzero_g():
    i, f = spin_pair(1.0)
    with pytest.raises(InvalidConfig):
        WeakValueTrialConfig(
            i=i, f=f, observable=hilbert.pauli("z"),
            sigma=1.0, g=0.0, n_trials=10, master_seed=1,
        )


def test_estimate_deterministic():
    i, f = spin_pair(0.8)
    cfg = WeakValueTrialConfig(
        i=i, f=f, observable=hilbert.pauli("z"),
        sigma=1.0, g=0.05, n_trials=5_000, master_seed=31,
    )
    assert estimate_weak_value(cfg) == estimate_weak_value(cfg, n_workers=2)


@pytest.mark.parametrize("n", [1, 3, 1000, 12345, 65535])
def test_short_draw_is_prefix_of_full_block(n):
    # the last, partial block draws only the rows it needs
    for seed, stream, block in ((99, 1, 0), (2**63 + 5, 3, 7)):
        full = ensemble._block_stream(seed, stream, block).random((BLOCK, 4))
        short = ensemble._block_stream(seed, stream, block).random((n, 4))
        np.testing.assert_array_equal(short, full[:n])


def record_uniforms(monkeypatch):
    """Spy on _run_blocks: the uniform rows each stream hands to its trials."""
    seen = {}
    real = ensemble._run_blocks

    def spy(master_seed, stream, n_trials, block_fn, n_workers):
        def recorded(u):
            seen.setdefault(stream, []).append(u.copy())
            return block_fn(u)

        return real(master_seed, stream, n_trials, recorded, n_workers)

    monkeypatch.setattr(ensemble, "_run_blocks", spy)
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
    cfg = base_config(n_trials=n, master_seed=17)
    plain = run_trials(cfg)
    seen = record_uniforms(monkeypatch)
    assert run_trials(cfg) == plain
    assert list(seen) == [ensemble._STREAM_TRIALS]
    assert_rows_are_trial_uniforms(seen[ensemble._STREAM_TRIALS], 17, ensemble._STREAM_TRIALS, n)
    full_block_draws(monkeypatch)
    assert run_trials(cfg) == plain


def test_estimate_weak_value_consumes_trial_uniforms_row_by_row(monkeypatch):
    n = BLOCK + 40
    i, f = spin_pair(0.8)
    cfg = WeakValueTrialConfig(
        i=i, f=f, observable=hilbert.pauli("z"),
        sigma=1.0, g=0.05, n_trials=n, master_seed=41,
    )
    plain = estimate_weak_value(cfg)
    seen = record_uniforms(monkeypatch)
    assert estimate_weak_value(cfg) == plain
    assert sorted(seen) == [ensemble._STREAM_IMAG, ensemble._STREAM_REAL]
    for stream, blocks in seen.items():
        assert_rows_are_trial_uniforms(blocks, 41, stream, n)
    full_block_draws(monkeypatch)
    assert estimate_weak_value(cfg) == plain


def test_run_trials_uses_a_given_chain(monkeypatch):
    cfg = base_config(n_trials=30_000, master_seed=8)
    chain = pointer.run_ccr_protocol(
        cfg.i, cfg.f, cfg.x_op, cfg.p_op, cfg.sigma, cfg.sigma_prime, cfg.g
    )
    plain = run_trials(cfg)

    def no_recompute(*a, **kw):
        raise AssertionError("run_trials re-ran a chain it was given")

    monkeypatch.setattr(ensemble, "run_ccr_protocol", no_recompute)
    assert run_trials(cfg, chain=chain) == plain


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
    if kind == "gaussian":
        return np.exp(-((x - rng.uniform(-0.5, 0.5)) / rng.uniform(1e-3, 0.5)) ** 2)
    if kind == "spiky":
        return rng.random(n) ** 40
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
    cfg = TrialConfig(sigma=1.0, sigma_prime=1.0, n_trials=2 * BLOCK + 999, master_seed=5,
                      readout_second=pointer.MOMENTUM, **TRIAL_SETUPS[setup]())
    guided = run_trials(cfg, n_workers)
    monkeypatch.setattr(ensemble, "_inverse_cdf", reference_inverse_cdf)
    assert_equal_fields(guided, run_trials(cfg, n_workers))


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("setup", sorted(TRIAL_SETUPS))
def test_estimate_weak_value_equals_binary_search_readout(monkeypatch, setup, n_workers):
    kw = TRIAL_SETUPS[setup]()
    cfg = WeakValueTrialConfig(i=kw["i"], f=kw["f"], observable=kw["x_op"], sigma=1.0,
                               g=kw["g"], n_trials=2 * BLOCK + 999, master_seed=6)
    guided = estimate_weak_value(cfg, n_workers)
    monkeypatch.setattr(ensemble, "_inverse_cdf", reference_inverse_cdf)
    assert_equal_fields(guided, estimate_weak_value(cfg, n_workers))


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
    counts = ensemble._run_blocks(3, 1, n_trials, len, n_workers)
    assert sum(counts) == n_trials
    assert sizes == ([] if pool_size is None else [pool_size])
