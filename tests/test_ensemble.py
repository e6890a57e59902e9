"""Tests for the Born-rule Monte Carlo engine."""

import math

import numpy as np
import pytest

from weaklab import ensemble, hilbert, pointer
from weaklab.ensemble import (
    BLOCK,
    EnsembleStats,
    TrialConfig,
    WeakValueTrialConfig,
    estimate_weak_value,
    run_trials,
    substream,
    trial_uniforms,
)
from weaklab.errors import InvalidConfig, NoAcceptedTrials
from weaklab.hilbert import GridConfig, gaussian_grid_state, make_grid_ops
from weaklab.weakcorr import weak_value


def grid_setup(n_sys=64, length=20.0):
    cfg = GridConfig(n_sys, length)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=length / 24.0)
    return cfg, x_op, p_op, i


def plane_wave(cfg, mode):
    k = 2.0 * np.pi * mode / cfg.length
    return hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions())), k


def test_substream_deterministic_and_distinct():
    a = substream(123, 5).random(16)
    b = substream(123, 5).random(16)
    np.testing.assert_array_equal(a, b)
    c = substream(123, 6).random(16)
    assert np.max(np.abs(a - c)) > 1e-3


def test_substream_lag_correlation():
    n = 100_000
    a = substream(2024, 0).random(n)
    b = substream(2024, 1).random(n)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


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
