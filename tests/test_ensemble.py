"""Tests for the Born-rule Monte Carlo engine."""

import dataclasses
import math

import numpy as np
import pytest

from weaklab import ensemble, hilbert, pointer
from weaklab.ensemble import estimate_weak_value, run_trials
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


def readout_moments(chain, n_trials, seed, pointer_state):
    """(accepted, (mean, stderr)) of one position readout of ``pointer_state``
    under both gates of ``chain``: the per-readout view of ``run_trials``."""
    return ensemble._sample(seed, ensemble._STREAM_TRIALS, n_trials,
                            (chain.prob_mid, chain.prob_post),
                            (ensemble._readout(pointer_state, pointer.POSITION),))


def grid_setup(n_sys=64, length=20.0):
    cfg = GridConfig(n_sys, length)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=length / 24.0)
    return cfg, x_op, p_op, i


def plane_wave(cfg, mode):
    k = 2.0 * np.pi * mode / cfg.length
    return hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions())), k


HIGH_SEEDS = [2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]


@pytest.mark.filterwarnings("error")
def test_seeds_above_int64_keep_their_philox_key():
    # a key read as float64 would round these to multiples of 2048, and 2**64 - 1 to 0
    for seed in HIGH_SEEDS:
        key = ensemble._generator(seed, 1).bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [seed & ((1 << 64) - 1), 1]
    rows = [ensemble._generator(seed, 1).random(4).tobytes() for seed in [0, *HIGH_SEEDS]]
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
    assert abs(np.vdot(orth.amplitudes, i.amplitudes)) < 1e-12
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


def test_bit_identical_reruns():
    # a stream is a pure function of (stage, seed, stream, n_trials)
    chain = base_chain()
    a = run_trials(chain, 150_000, 5)
    assert run_trials(chain, 150_000, 5) == a
    assert run_trials(chain, 150_000, 6) != a


def stream_draws(master_seed, stream):
    """A binomial and a multinomial of one stream's generator, as the sampler draws them."""
    gen = ensemble._generator(master_seed, stream)
    return int(gen.binomial(10**12, 0.3)), gen.multinomial(10**6, [0.5, 0.3, 0.2]).tolist()


def test_trial_draws_are_pure_functions_of_index():
    # a stream's draws are a pure function of its index (seed, stream): the
    # same count and cell counts come back however often its generator is
    # rebuilt, and other indices draw others
    index = [(5, 1), (5, 2), (5, 3), (6, 1), (2**64 - 1, 3)]
    draws = [stream_draws(seed, stream) for seed, stream in index]
    for (seed, stream), first in zip(index, draws):
        assert stream_draws(seed, stream) == first
    assert len({repr(d) for d in draws}) == len(draws)


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
            == estimate_weak_value(stage, 1.0, 0.05, 5_000, 31))


def record_draws(monkeypatch):
    """Spy on _generator: per stream, the list of (method, n, p or pvals, result) it drew.

    A stream's generator offers only the binomial and the multinomial, so
    any other draw raises AttributeError.
    """
    seen = {}

    class Recorded:
        def __init__(self, draws, gen):
            self.draws, self.gen = draws, gen

        def binomial(self, n, p):
            result = self.gen.binomial(n, p)
            self.draws.append(("binomial", n, p, result))
            return result

        def multinomial(self, n, pvals):
            result = self.gen.multinomial(n, pvals)
            self.draws.append(("multinomial", np.copy(n), np.copy(pvals), result.copy()))
            return result

    real = ensemble._generator

    def spy(seed, stream):
        assert stream not in seen, "a stream built its generator twice"
        return Recorded(seen.setdefault(stream, []), real(seed, stream))

    monkeypatch.setattr(ensemble, "_generator", spy)
    return seen


def assert_counts_layout(draws, n_trials, p, readouts):
    """One Binomial(n_trials, p) and one multinomial over the accepted count;
    for two readouts, then one multinomial per slab of the first readout's
    nonzero cells, slabs of ``_SLAB_ENTRIES // cells`` cells in cell order;
    returns the accepted count."""
    kinds = [d[0] for d in draws]
    assert kinds[:2] == ["binomial", "multinomial"] and set(kinds[2:]) <= {"multinomial"}
    assert (len(kinds) > 2) == (len(readouts) == 2)
    (_, n, p_drawn, accepted), (_, n1, pvals1, counts1), *slabs = draws
    assert (n, p_drawn) == (n_trials, p)
    assert int(n1) == accepted and counts1.sum() == accepted
    np.testing.assert_array_equal(pvals1, readouts[0][1])
    if slabs:
        step = max(1, hilbert._SLAB_ENTRIES // readouts[1][1].size)
        assert [len(n2) for _, n2, _, _ in slabs[:-1]] == [step] * (len(slabs) - 1)
        assert 1 <= len(slabs[-1][1]) <= step
        # the slabs serve every nonzero cell of the first readout once, in order
        np.testing.assert_array_equal(np.concatenate([n2 for _, n2, _, _ in slabs]),
                                      counts1[counts1 > 0])
        for _, n2, pvals2, counts2 in slabs:
            np.testing.assert_array_equal(pvals2, readouts[1][1])
            np.testing.assert_array_equal(counts2.sum(axis=1), n2)
    return int(accepted)


def sampled_streams(n_readouts, chain, stage, n_trials):
    """(result, {stream: (gate product, readouts, accepted)}) of the sampler
    with ``n_readouts`` readouts per stream: estimate_weak_value for 1 (a
    position and a momentum stream), run_trials for 2 (one stream of dx * dx')."""
    if n_readouts == 1:
        est = estimate_weak_value(stage, 1.0, 0.05, n_trials, 9)
        return est, {
            stream: (stage.probability, [ensemble._readout(stage.pointer, kind)], accepted)
            for stream, kind, accepted in (
                (ensemble._STREAM_IMAG, pointer.POSITION, est.accepted_position),
                (ensemble._STREAM_REAL, pointer.MOMENTUM, est.accepted_momentum),
            )
        }
    stats = run_trials(chain, n_trials, 8)
    readouts = [ensemble._readout(p, pointer.POSITION)
                for p in (chain.pointer_first, chain.pointer_second)]
    return stats, {ensemble._STREAM_TRIALS: (chain.prob_mid * chain.prob_post, readouts,
                                             stats.accepted)}


@pytest.mark.parametrize("n_readouts", [1, 2])
def test_sampler_draws_only_the_uniforms_it_reads(monkeypatch, n_readouts):
    # A per-trial draw takes at least one uniform per gate for every
    # attempt, and the block-thinned oracle one per readout of every
    # accepted trial.  The counts form reads no uniform and draws none: per
    # stream one Binomial(N, p), one multinomial of the first readout and,
    # for a second, one per slab of cells, the same draws at 10**13 trials
    # as at 3 * BLOCK + 5.
    chain = base_chain()
    stage = weak_stage(*spin_pair(2.6), hilbert.pauli("z"))
    assert chain.prob_mid * chain.prob_post < 0.5 and stage.probability < 0.5
    for n_trials in (3 * BLOCK + 5, 10**13):
        plain, _ = sampled_streams(n_readouts, chain, stage, n_trials)
        seen = record_draws(monkeypatch)
        result, streams = sampled_streams(n_readouts, chain, stage, n_trials)
        monkeypatch.undo()
        assert result == plain
        assert sorted(seen) == sorted(streams)
        for stream, (p, readouts, accepted) in streams.items():
            assert assert_counts_layout(seen[stream], n_trials, p, readouts) == accepted
    monkeypatch.setattr(ensemble, "_sample", thinned_sample)
    blocks = record_block_draws(monkeypatch)
    _, streams = sampled_streams(n_readouts, chain, stage, 3 * BLOCK + 5)
    assert uniforms_drawn(blocks) == n_readouts * sum(a for _, _, a in streams.values())


def slab_chain(sigma_prime):
    """base_chain with the second pointer of width ``sigma_prime``."""
    cfg, x_op, p_op, i = grid_setup()
    f, _ = plane_wave(cfg, 1)
    return pointer.run_ccr_protocol(i, f, x_op, p_op, 1.0, sigma_prime, 0.01, POINTER_GRID,
                                    pointer.pointer_grid(sigma_prime))


@pytest.mark.parametrize("sigma_prime", [1.0, 0.37])
def test_second_readout_slabs_continue_one_stream(monkeypatch, sigma_prime):
    # One stream sampled a cell per slab, 7 cells per slab (a partial last
    # slab) and in one slab of all cells draws the counts of one multinomial
    # over all the cells.  The readouts of sigma' = 1 are dyadic, so every
    # sum is exact and the three shapes give equal statistics; at
    # sigma' = 0.37 each row of sums is the reference's to roundoff.
    chain = slab_chain(sigma_prime)
    n, seed, stream = 3_200_000, 2, ensemble._STREAM_TRIALS
    p = chain.prob_mid * chain.prob_post
    first, second = (ensemble._readout(q, pointer.POSITION)
                     for q in (chain.pointer_first, chain.pointer_second))
    values2, probs2 = second
    generator = ensemble._generator

    def first_counts():  # a fresh stream, drawn up to the second readout
        gen = generator(seed, stream)
        counts = gen.multinomial(int(gen.binomial(n, p)), first[1])
        return gen, counts[counts > 0]

    gen, counts = first_counts()
    counts2 = gen.multinomial(counts, probs2)
    # the form the slab product replaced, as the reference
    reference = np.stack([np.sum(counts2 * values2, axis=1),
                          np.sum(counts2 * (values2 * values2), axis=1)], axis=1)
    bound = values2.size * np.finfo(float).eps * np.stack(
        [np.sum(counts2 * np.abs(values2), axis=1), np.sum(counts2 * values2**2, axis=1)], axis=1)
    assert counts.size > 7 and counts.size % 7 != 0
    stats = []
    for width in (1, 7, counts.size):
        with monkeypatch.context() as mp:
            mp.setattr(hilbert, "_SLAB_ENTRIES", width * values2.size)
            seen = record_draws(mp)
            stats.append(run_trials(chain, n, seed))
            assert assert_counts_layout(seen[stream], n, p, [first, second]) == stats[-1].accepted
            slabs = [drawn for _, _, _, drawn in seen[stream][2:]]
            assert len(slabs) == -(-counts.size // width)
            assert np.array_equal(np.concatenate(slabs), counts2)
            moments = ensemble._second_moments(first_counts()[0], counts, second)
        if sigma_prime == 1.0:
            np.testing.assert_array_equal(moments, reference)
        else:
            assert np.all(np.abs(moments - reference) <= bound)
    if sigma_prime == 1.0:
        assert stats[0] == stats[1] == stats[2]


# -- the counts form against trials read one by one by binary search ----------

def cells_read(probs, u):
    """Binary-search readout: the cell whose cdf entry u in [0, 1) first passes."""
    return np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), probs.size - 1)


def trial_rows(master_seed, stream, n_trials, n_readouts):
    """Per-trial uniforms: row t is trial t's gate uniform, then one per readout."""
    return np.random.default_rng([master_seed, stream]).random((n_trials, 1 + n_readouts))


class CountedRows:
    """A stream that counts given trials instead of drawing their counts.

    The binomial counts the rows of ``u`` whose gate uniform is below p;
    the multinomials read the accepted rows' readout uniforms by binary
    search over the probabilities they are handed and count the cells,
    the second readout's per nonzero cell of the first, in cell order: a
    call for ``len(n)`` cells serves the next ``len(n)`` cells not yet
    served, and ``pending`` holds the cells left.
    """

    def __init__(self, u):
        self.u = u

    def binomial(self, n, p):
        assert n == len(self.u)
        self.rows = self.u[self.u[:, 0] < p]
        return len(self.rows)

    def multinomial(self, n, pvals):
        if np.ndim(n) == 0:
            assert n == len(self.rows)
            self.first = cells_read(pvals, self.rows[:, 1])
            self.pending = np.unique(self.first)
            return np.bincount(self.first, minlength=pvals.size)
        assert len(n) <= len(self.pending)
        cells, self.pending = self.pending[:len(n)], self.pending[len(n):]
        second = cells_read(pvals, self.rows[:, 2])
        counts = np.array([np.bincount(second[self.first == k], minlength=pvals.size)
                           for k in cells])
        np.testing.assert_array_equal(counts.sum(axis=1), n)
        return counts


def binary_search_moments(u, p, readouts):
    """(accepted, mean, stderr, mean |v|) of the trials of ``u``, each read by binary search."""
    rows = u[u[:, 0] < p]
    v = np.prod([values[cells_read(probs, rows[:, 1 + m])]
                 for m, (values, probs) in enumerate(readouts)], axis=0)
    n = v.size
    mean = math.fsum(v) / n
    var = max(0.0, (math.fsum(v * v) - n * mean * mean) / (n - 1))
    return n, mean, math.sqrt(var / n), math.fsum(np.abs(v)) / n


# The counts form rounds each cell's term once, and for two readouts also
# the matrix product's sums over the second readout's cells (at most 1024):
# 64 units of roundoff of the readouts' scale bound that with room.
CELL_ROUNDOFF = 64 * 2.0**-53


def assert_counted_moments(mean, stderr, scale, reference):
    """``mean`` and ``stderr``, scaled by ``scale``, are the reference trials' to roundoff."""
    _, ref_mean, ref_stderr, abs_mean = reference
    assert abs(mean - ref_mean * scale) <= CELL_ROUNDOFF * abs(abs_mean * scale)
    assert abs(stderr - ref_stderr * abs(scale)) <= CELL_ROUNDOFF * abs(ref_stderr * scale)


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


def count_trial_rows(monkeypatch, n_trials, n_readouts):
    """Hand the sampler CountedRows streams; returns the list of the streams built."""
    streams = []

    def counted(seed, stream):
        streams.append(CountedRows(trial_rows(seed, stream, n_trials, n_readouts)))
        return streams[-1]

    monkeypatch.setattr(ensemble, "_generator", counted)
    return streams


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("setup", sorted(TRIAL_SETUPS))
def test_run_trials_equals_binary_search_readout(monkeypatch, setup, seed):
    # handed the cell counts of per-trial uniforms read by binary search,
    # the counts form gives those trials' accepted count and, to roundoff,
    # the moments of their product dx * dx'
    kw = TRIAL_SETUPS[setup]()
    chain = pointer.run_ccr_protocol(kw["i"], kw["f"], kw["x_op"], kw["p_op"], 1.0, 1.0, kw["g"],
                                     POINTER_GRID, POINTER_GRID)
    n = 2 * BLOCK + 999
    streams = count_trial_rows(monkeypatch, n, 2)
    stats = run_trials(chain, n, seed)
    (stream,) = streams
    assert stream.pending.size == 0  # every cell of the first readout was served
    readouts = [ensemble._readout(p, pointer.POSITION)
                for p in (chain.pointer_first, chain.pointer_second)]
    reference = binary_search_moments(trial_rows(seed, ensemble._STREAM_TRIALS, n, 2),
                                      chain.prob_mid * chain.prob_post, readouts)
    assert (stats.attempted, stats.accepted) == (n, reference[0])
    assert_counted_moments(stats.mean_product, stats.stderr_product, 1.0, reference)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("setup", sorted(TRIAL_SETUPS))
def test_estimate_weak_value_equals_binary_search_readout(monkeypatch, setup, seed):
    # the same per stream: the position stream gives Im, the momentum stream Re
    kw = TRIAL_SETUPS[setup]()
    stage = weak_stage(kw["i"], kw["f"], kw["x_op"], kw["g"])
    n = 2 * BLOCK + 999
    count_trial_rows(monkeypatch, n, 1)
    est = estimate_weak_value(stage, 1.0, kw["g"], n, seed)
    pos, mom = (
        binary_search_moments(trial_rows(seed, stream, n, 1), stage.probability,
                              [ensemble._readout(stage.pointer, kind)])
        for stream, kind in ((ensemble._STREAM_IMAG, pointer.POSITION),
                             (ensemble._STREAM_REAL, pointer.MOMENTUM))
    )
    assert (est.attempted, est.accepted_position, est.accepted_momentum) == (n, pos[0], mom[0])
    assert_counted_moments(est.im_est, est.stderr_im,
                           -stage.pointer.grid.hbar / (2.0 * kw["g"]), pos)
    assert_counted_moments(est.re_est, est.stderr_re, 1.0 / kw["g"], mom)


def test_readout_lists_the_readable_cells_most_probable_first(monkeypatch):
    # ties keep grid order; cells of probability 0 are left out
    probs = np.array([0.1, 0.0, 0.4, 0.1, 0.0, 0.4]) * 3.0
    monkeypatch.setattr(ensemble, "readout_distribution",
                        lambda p, kind: (np.arange(6.0), probs))
    values, cell_probs = ensemble._readout(None, pointer.POSITION)
    np.testing.assert_array_equal(values, [2.0, 5.0, 0.0, 3.0])
    np.testing.assert_allclose(cell_probs, [0.4, 0.4, 0.1, 0.1], rtol=1e-15)
    assert abs(math.fsum(cell_probs) - 1.0) <= 1e-15


@pytest.mark.parametrize("gate, accepts", [
    (1.0 + 2**-52, True),  # roundoff above a certain selection
    (math.inf, True),
    (math.nan, False),  # u < nan passes no trial
    (-0.0, False),
])
def test_gate_outside_unit_interval_reads_as_u_below_gate(gate, accepts):
    chain = uncoupled_chain()
    assert chain.prob_mid == pytest.approx(1.0) and chain.prob_post == pytest.approx(1.0)
    stage = weak_stage(*spin_pair(math.pi / 2), hilbert.pauli("z"))
    for mid, post in ((gate, 1.0), (1.0, gate), (gate, gate)):
        odd = dataclasses.replace(chain, prob_mid=mid, prob_post=post)
        if accepts:
            assert run_trials(odd, 1000, 3).accepted == 1000
        else:
            with pytest.raises(NoAcceptedTrials):
                run_trials(odd, 1000, 3)
    odd_stage = dataclasses.replace(stage, probability=gate)
    if accepts:
        est = estimate_weak_value(odd_stage, 1.0, 0.05, 1000, 4)
        assert est.accepted_position == est.accepted_momentum == 1000
    else:
        with pytest.raises(NoAcceptedTrials):
            estimate_weak_value(odd_stage, 1.0, 0.05, 1000, 4)


# float.hex of every output of the sampler on two fixed stages, at a budget
# no per-trial draw could reach.  A change of the Philox key, the gate
# product, the order of the draws, the cell order of a readout or the
# merge changes them.
PINNED_RUN_TRIALS = {
    "attempted": 10**12, "accepted": 367592717255,
    "mean_product": "0x1.45d52ea465c5ep-11", "stderr_product": "0x1.baad79112f55bp-20",
}
PINNED_ESTIMATE = {
    "re_est": "0x1.b1d51ad782100p-2", "im_est": "-0x1.1647d8c552c4dp-18",
    "stderr_re": "0x1.6d6caff0f8b83p-17", "stderr_im": "0x1.6bed9de88b7f9p-17",
    "attempted": 10**12, "accepted_position": 846615936871, "accepted_momentum": 846615762859,
}


def hex_fields(result):
    return {k: v.hex() if isinstance(v, float) else v for k, v in dataclasses.asdict(result).items()}


@pytest.mark.parametrize("n_readouts", [1, 2])
def test_replay_layout_is_pinned(n_readouts):
    if n_readouts == 1:
        i, f = spin_pair(0.8)
        est = estimate_weak_value(weak_stage(i, f, hilbert.pauli("z")), 1.0, 0.05, 10**12, 41)
        assert hex_fields(est) == PINNED_ESTIMATE
    else:
        kw = fock_trial_setup()
        chain = pointer.run_ccr_protocol(kw["i"], kw["f"], kw["x_op"], kw["p_op"], 1.0, 1.0,
                                         kw["g"], POINTER_GRID, POINTER_GRID)
        assert hex_fields(run_trials(chain, 10**12, 5)) == PINNED_RUN_TRIALS


class FixedCounts:
    """A stream whose gate passes every trial and whose readouts fall one
    trial per cell: the first readout's counts are all 1, and the second's
    put the k-th trial of the first in cell k, slab after slab."""

    def binomial(self, n, p):
        assert p == 1.0
        return n

    def multinomial(self, n, pvals):
        if np.ndim(n) == 0:
            assert n == len(pvals)
            self.served = 0
            return np.ones(len(pvals), dtype=np.int64)
        rows = np.eye(len(n), len(pvals), self.served, dtype=np.int64)
        self.served += len(n)
        return rows


@pytest.mark.parametrize("n_readouts", [1, 2])
def test_cell_merge_is_exact(monkeypatch, n_readouts):
    # The per-cell terms below round differently when added left to right;
    # math.fsum merges them exactly.  With two readouts the first carries
    # the values and the second reads 1 in every cell, so the terms are the
    # same products v_k * S_k.
    monkeypatch.setattr(ensemble, "_generator", lambda seed, stream: FixedCounts())

    def sample(values):
        values = np.array(values)
        readouts = [(values, np.full(values.size, 1.0 / values.size))]
        if n_readouts == 2:
            readouts.append((np.ones(values.size), readouts[0][1]))
        accepted, moments = ensemble._sample(11, 1, values.size, (2.0,), readouts)
        assert accepted == values.size  # one trial per cell
        return moments

    # terms 1 + 2**-53 + 2**-107: exactly above a tie, so 1 + 2**-52; left to
    # right, and compensated (Neumaier) too, they give 1.  Four cells: the
    # division by the accepted count is exact.
    mean, _ = sample([1.0, 2.0**-53, 2.0**-107, 0.0])
    assert mean == (1.0 + 2.0**-52) / 4
    # terms sum to 0, squares to 1 + 254 * 2**-54; left to right each
    # 2**-54 is a quarter ulp of 1 and rounds away
    tiny = 2.0**-27
    values = [0.5, -0.5, 0.5, -0.5] + [tiny, -tiny] * 127
    mean, stderr = sample(values)
    n = len(values)
    assert mean == 0.0
    assert stderr == math.sqrt((1.0 + 127 * 2.0**-53) / (n - 1) / n)


# -- false alarms over fixed seeds, and the two earlier forms as oracles ------

BLOCK = 1 << 16  # trials per block of the two oracles


def block_stream(master_seed, stream, block):
    """The Philox stream of one block of the oracles, keyed (seed, stream << 32 | block)."""
    key = np.array([master_seed & ((1 << 64) - 1), (stream << 32) | block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def inverse_cdf(values, probs):
    """Readout by binary search: u in [0, 1) reads the cell its cdf entry passes."""
    return lambda u: values[cells_read(probs, u)]


def merged_moments(n_trials, partials):
    """(accepted, (mean, stderr)) from per-block (accepted, sum, sum of squares)."""
    accepted = sum(n for n, _, _ in partials)
    if accepted == 0:
        raise NoAcceptedTrials(f"0 of {n_trials} trials passed all selections")
    mean = math.fsum(s for _, s, _ in partials) / accepted
    if accepted < 2:
        return accepted, (mean, float("nan"))
    total_sq = math.fsum(q for _, _, q in partials)
    var = max(0.0, (total_sq - accepted * mean * mean) / (accepted - 1))
    return accepted, (mean, math.sqrt(var / accepted))


def per_trial_sample(master_seed, stream, n_trials, gates, readouts):
    """The per-trial form of ``ensemble._sample`` (test oracle).

    Trial t reads row t % BLOCK of a (BLOCK, gates + readouts) uniform draw
    of block t // BLOCK: it passes when each gate's uniform is below the
    gate, and reads readout m from column len(gates) + m.
    """
    k = len(gates)
    read = [inverse_cdf(values, probs) for values, probs in readouts]
    partials = []
    for b in range((n_trials + BLOCK - 1) // BLOCK):
        size = min(BLOCK, n_trials - b * BLOCK)
        u = block_stream(master_seed, stream, b).random((size, k + len(readouts)))
        acc = np.all(u[:, :k] < np.asarray(gates), axis=1)
        v = np.prod([r(u[acc, k + m]) for m, r in enumerate(read)], axis=0)
        partials.append((int(np.count_nonzero(acc)), float(np.sum(v)), float(np.sum(v * v))))
    return merged_moments(n_trials, partials)


def thinned_sample(master_seed, stream, n_trials, gates, readouts):
    """The block-thinned form of ``ensemble._sample`` (test oracle).

    Block b draws its accepted count Binomial(size, product of the gates),
    then one row of readout uniforms per accepted trial.
    """
    p = math.prod(1.0 if g >= 1.0 else g if g > 0.0 else 0.0 for g in gates)
    read = [inverse_cdf(values, probs) for values, probs in readouts]
    partials = []
    for b in range((n_trials + BLOCK - 1) // BLOCK):
        gen = block_stream(master_seed, stream, b)
        n = int(gen.binomial(min(BLOCK, n_trials - b * BLOCK), p))
        u = gen.random((n, len(readouts)))
        v = np.prod([r(u[:, m]) for m, r in enumerate(read)], axis=0)
        partials.append((n, float(np.sum(v)), float(np.sum(v * v))))
    return merged_moments(n_trials, partials)


# the oracles' block streams, also while a test spies on them
BLOCK_STREAM = block_stream


def block_draws(master_seed, stream, block, size, p, n_readouts):
    """(accepted count, readout uniforms) of one block, drawn the way the thinned oracle draws them.

    The block's stream draws Binomial(size, p) accepted trials, then an
    (accepted, n_readouts) array of uniforms, row k for the k-th accepted
    trial.
    """
    gen = BLOCK_STREAM(master_seed, stream, block)
    n = int(gen.binomial(size, p))
    return n, gen.random((n, n_readouts))


@pytest.mark.parametrize("n", [1, 3, 1000, 12345, 65535])
def test_short_draw_is_prefix_of_full_block(n):
    # a block of the thinned oracle draws only the readout rows its accepted
    # trials read; they are the leading rows of any longer draw from the
    # same point
    for seed, stream, block in ((99, 1, 0), (2**63 + 5, 3, 7)):
        full = block_stream(seed, stream, block).random((BLOCK, 2))
        short = block_stream(seed, stream, block).random((n, 2))
        np.testing.assert_array_equal(short, full[:n])


def record_block_draws(monkeypatch):
    """Spy on the oracles' block_stream: per stream, block -> [size, p, accepted, readout uniforms].

    A block's stream offers only the two draws of the thinned layout, so
    any other draw raises AttributeError.
    """
    seen = {}

    class Recorded:
        def __init__(self, draws, gen):
            self.draws, self.gen = draws, gen

        def binomial(self, size, p):
            n = self.gen.binomial(size, p)
            self.draws += [size, p, n]
            return n

        def random(self, shape):
            u = self.gen.random(shape)
            self.draws.append(u.copy())
            return u

    def spy(seed, stream, block):
        draws = seen.setdefault(stream, {}).setdefault(block, [])
        return Recorded(draws, BLOCK_STREAM(seed, stream, block))

    monkeypatch.setitem(globals(), "block_stream", spy)
    return seen


def uniforms_drawn(seen):
    return sum(draws[-1].size for blocks in seen.values() for draws in blocks.values())


def full_block_draws(monkeypatch):
    """Draw a whole block of readout rows after the count and slice the accepted ones."""

    class FullBlock:
        def __init__(self, gen):
            self.gen = gen

        def binomial(self, size, p):
            return self.gen.binomial(size, p)

        def random(self, shape):
            return self.gen.random((BLOCK, shape[1]))[: shape[0]]

    monkeypatch.setitem(globals(), "block_stream", lambda *a: FullBlock(BLOCK_STREAM(*a)))


def assert_thinned_layout(blocks, seed, stream, n_trials, p, n_readouts):
    """Every block drew one count of its trials at ``p``, then one row of
    ``n_readouts`` uniforms per accepted trial, and nothing else; returns
    the accepted total."""
    assert sorted(blocks) == list(range((n_trials + BLOCK - 1) // BLOCK))
    for b, (size, p_drawn, n, u) in blocks.items():
        assert (size, p_drawn) == (min(BLOCK, n_trials - b * BLOCK), p)
        assert u.shape == (n, n_readouts)
        n_ref, u_ref = block_draws(seed, stream, b, size, p, n_readouts)
        assert n == n_ref
        np.testing.assert_array_equal(u, u_ref)
    return sum(n for _, _, n, _ in blocks.values())


# float.hex of the block-thinned sampler's outputs on the stages of
# test_replay_layout_is_pinned at BLOCK + 999 trials, its readouts in grid
# order, as pinned before the counts form replaced it: the thinned oracle
# is that sampler
PINNED_THINNED_RUN_TRIALS = {
    "attempted": 66535, "accepted": 24532,
    "mean_product": "-0x1.532a48b6a90d8p-10", "stderr_product": "0x1.9d293e0ccd302p-8",
}
PINNED_THINNED_ESTIMATE = {
    "re_est": "0x1.84518d6368c26p-2", "im_est": "0x1.d04a0ce2deb20p-6",
    "stderr_re": "0x1.5b0fc6452bee8p-5", "stderr_im": "0x1.5914a72697322p-5",
    "attempted": 66535, "accepted_position": 56420, "accepted_momentum": 56334,
}


def grid_order_readouts(monkeypatch):
    monkeypatch.setattr(ensemble, "_readout", pointer.readout_distribution)


def test_run_trials_consumes_trial_uniforms_row_by_row(monkeypatch):
    # run_trials hands the thinned oracle both gates at once and one position
    # readout per pointer; the oracle reads row k of a block's uniforms for
    # its k-th accepted trial, the rows a full block's leading rows
    monkeypatch.setattr(ensemble, "_sample", thinned_sample)
    n = BLOCK + 40
    chain = base_chain()
    plain = run_trials(chain, n, 17)
    seen = record_block_draws(monkeypatch)
    assert run_trials(chain, n, 17) == plain
    assert list(seen) == [ensemble._STREAM_TRIALS]
    accepted = assert_thinned_layout(seen[ensemble._STREAM_TRIALS], 17, ensemble._STREAM_TRIALS,
                                     n, chain.prob_mid * chain.prob_post, 2)
    assert accepted == plain.accepted
    full_block_draws(monkeypatch)
    assert run_trials(chain, n, 17) == plain
    grid_order_readouts(monkeypatch)
    kw = fock_trial_setup()
    chain = pointer.run_ccr_protocol(kw["i"], kw["f"], kw["x_op"], kw["p_op"], 1.0, 1.0, kw["g"],
                                     POINTER_GRID, POINTER_GRID)
    assert hex_fields(run_trials(chain, BLOCK + 999, 5)) == PINNED_THINNED_RUN_TRIALS


def test_estimate_weak_value_consumes_trial_uniforms_row_by_row(monkeypatch):
    monkeypatch.setattr(ensemble, "_sample", thinned_sample)
    n = BLOCK + 40
    i, f = spin_pair(0.8)
    stage = weak_stage(i, f, hilbert.pauli("z"))
    plain = estimate_weak_value(stage, 1.0, 0.05, n, 41)
    seen = record_block_draws(monkeypatch)
    assert estimate_weak_value(stage, 1.0, 0.05, n, 41) == plain
    assert sorted(seen) == [ensemble._STREAM_IMAG, ensemble._STREAM_REAL]
    for stream, accepted in ((ensemble._STREAM_IMAG, plain.accepted_position),
                             (ensemble._STREAM_REAL, plain.accepted_momentum)):
        assert assert_thinned_layout(seen[stream], 41, stream, n, stage.probability, 1) == accepted
    full_block_draws(monkeypatch)
    assert estimate_weak_value(stage, 1.0, 0.05, n, 41) == plain
    grid_order_readouts(monkeypatch)
    assert hex_fields(estimate_weak_value(stage, 1.0, 0.05, BLOCK + 999, 41)) == (
        PINNED_THINNED_ESTIMATE
    )


FALSE_ALARM_SEEDS = range(300)
FALSE_ALARM_TRIALS = 100_000
MC_CHECKS = ("re_est_within_3_stderr", "im_est_within_3_stderr",
             "acceptance_vs_born", "momentum_acceptance_vs_born")


def standardized_residuals(report):
    """Signed residual over standard error of each of MC_CHECKS, in that order."""
    n, q = report.n_trials, report.acceptance_expected
    acc_se = math.sqrt(q * (1.0 - q) / n)
    return [(report.re_est - report.target.real) / report.stderr_re,
            (report.im_est - report.target.imag) / report.stderr_im,
            (report.accepted_position / n - q) / acc_se,
            (report.accepted_momentum / n - q) / acc_se]


def spin_runs_at_zero_bias():
    """(fail flags, standardized residuals), one row per seed, of the spin
    montecarlo run at alpha = pi/2, where |A_w| = 1 and the exact pointer
    reads tan(alpha/2) = 1 at every g."""
    fails, z = [], []
    for seed in FALSE_ALARM_SEEDS:
        report = montecarlo_experiment(alpha=math.pi / 2, n_trials=FALSE_ALARM_TRIALS, seed=seed)
        assert tuple(c.name for c in report.checks) == MC_CHECKS
        fails.append([not c.passed for c in report.checks])
        z.append(standardized_residuals(report))
    return np.array(fails), np.array(z)


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the empirical CDFs."""
    at = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(np.sort(a), at, side="right") / a.size
                               - np.searchsorted(np.sort(b), at, side="right") / b.size)))


def test_unbiased_spin_run_fails_at_the_nominal_rate(monkeypatch):
    # Each check is a 3-standard-error band, nominal false-alarm 0.27%.
    # Over 300 seeds the fail count of one check is Binomial(300, 0.0027),
    # mean 0.81; it exceeds 4 with probability 0.15%.  The standardized
    # residuals must be unit normal: their sample mean over 300 seeds has
    # standard error 0.058 and their sample variance 0.082, and the bounds
    # are four of those.
    fails, z = spin_runs_at_zero_bias()
    assert fails.sum(axis=0).max() <= 4, dict(zip(MC_CHECKS, fails.sum(axis=0)))
    assert np.all(np.abs(z.mean(axis=0)) <= 4 / math.sqrt(z.shape[0])), z.mean(axis=0)
    assert np.all(np.abs(z.var(axis=0, ddof=1) - 1.0) <= 4 * math.sqrt(2 / (z.shape[0] - 1)))
    # the counts form, the block-thinned form and the per-trial form are
    # equal in law: over the same seeds each standardized residual of the
    # counts form passes a two-sample KS test against each oracle at level
    # 1e-3 (asymptotic critical distance 1.949 sqrt(2 / 300) = 0.159)
    critical = 1.949 * math.sqrt(2 / len(FALSE_ALARM_SEEDS))
    for oracle in (thinned_sample, per_trial_sample):
        monkeypatch.setattr(ensemble, "_sample", oracle)
        oracle_fails, oracle_z = spin_runs_at_zero_bias()
        assert oracle_fails.sum(axis=0).max() <= 4, oracle.__name__
        for k, name in enumerate(MC_CHECKS):
            assert ks_distance(z[:, k], oracle_z[:, k]) <= critical, (oracle.__name__, name)
