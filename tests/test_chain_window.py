"""chain_experiment's blocks of instances against drawing every instance afresh."""

import json

import numpy as np
import pytest

from weaklab import cli, experiments, hilbert
from weaklab.errors import InvalidConfig, OrthogonalSelection
from weaklab.experiments import CHAIN_TOL, ChainInstanceRow, ChainReport, make_check
from weaklab.weakcorr import alternating, chain_weak_correlation, symmetry_residuals

MASK = 0x7FFFFFFF


def fresh_draw_chain(dim, n_ops, n_instances, seed):
    """The chain report with both states and every operator drawn anew per
    instance, each instance evaluated as a stack of width one."""
    rows = []
    for inst in range(n_instances):
        s = experiments._subseed(seed, inst)
        i = hilbert.StateVector.stack([hilbert.random_state(dim, s & MASK)])
        f = hilbert.StateVector.stack([hilbert.random_state(dim, (s + 1) & MASK)])
        mats = [hilbert.random_hermitian(dim, (s + 2 + k) & MASK).matrix for k in range(n_ops)]
        ops = [hilbert.Operator(i.basis_id, m[None]) for m in mats]
        states = alternating(i, f, n_ops)
        chain = chain_weak_correlation(states, ops).item()
        oracle = complex(1.0)
        for k in range(n_ops):
            lo, hi = states[k].amplitudes[:, 0], states[k + 1].amplitudes[:, 0]
            oracle *= complex(np.vdot(hi, mats[k] @ lo)) / complex(np.vdot(hi, lo))
        sym = symmetry_residuals(i, f, ops[0], ops[1])
        scale = max(1.0, abs(oracle))
        rows.append(ChainInstanceRow(
            seed=inst, n_ops=n_ops, chain_value=chain, oracle_value=oracle,
            chain_residual=abs(chain - oracle) / scale,
            order_swap_residual=sym.order_swap.item() / scale,
            commutator_flip_residual=sym.commutator_flip.item() / scale,
        ))
    return report_of(dim, n_ops, rows)


def report_of(dim, n_ops, rows):
    maxima = [max(getattr(r, name) for r in rows) for name in (
        "chain_residual", "order_swap_residual", "commutator_flip_residual")]
    checks = tuple(make_check(name, m, CHAIN_TOL) for name, m in zip(
        ("chain_vs_product_of_ratios", "dual_order_swap", "dual_commutator_flip"), maxima))
    return ChainReport(dim=dim, n_ops=n_ops, instances=tuple(rows),
                       max_chain_residual=maxima[0], max_order_swap=maxima[1],
                       max_commutator_flip=maxima[2], checks=checks)


def lone_state_rows(dim, n_ops, n_instances, seed):
    """Each instance's row from lone states and operators, in Python complex arithmetic."""
    rows = []
    for inst in range(n_instances):
        s = experiments._subseed(seed, inst)
        i = hilbert.random_state(dim, s & MASK)
        f = hilbert.random_state(dim, (s + 1) & MASK)
        ops = [hilbert.random_hermitian(dim, (s + 2 + k) & MASK) for k in range(n_ops)]
        states = alternating(i, f, n_ops)
        chain = chain_weak_correlation(states, ops)
        oracle = complex(1.0)
        for k in range(n_ops):
            lo, hi = states[k].amplitudes, states[k + 1].amplitudes
            oracle *= complex(np.vdot(hi, ops[k].matrix @ lo)) / complex(np.vdot(hi, lo))
        sym = symmetry_residuals(i, f, ops[0], ops[1])
        scale = max(1.0, abs(oracle))
        rows.append(ChainInstanceRow(
            seed=inst, n_ops=n_ops, chain_value=chain, oracle_value=oracle,
            chain_residual=abs(chain - oracle) / scale,
            order_swap_residual=sym.order_swap / scale,
            commutator_flip_residual=sym.commutator_flip / scale,
        ))
    return rows


def seed_near_wrap(offset):
    """A master seed whose first instance's masked subseed is 2**31 - offset."""
    base = experiments._subseed(0, 0)  # the seed-independent term
    return ((2**31 - offset - base) * pow(1_000_003, -1, 2**31)) % 2**31


WRAP_SEED = seed_near_wrap(4)


def test_wrap_seed_window_crosses_the_mask():
    seeds = [(experiments._subseed(WRAP_SEED, 0) + k) & MASK for k in range(10)]
    assert seeds[0] == 2**31 - 4 and seeds[4] == 0


@pytest.mark.parametrize("dim, n_ops, n_instances, seed", [
    (5, 4, 50, 0),
    (7, 2, 25, 4),
    (3, 2, 1, 9),
    (4, 6, 12, 2**64 - 1),
    (6, 3, 20, WRAP_SEED),
    (4, 8, 15, WRAP_SEED),
    (5, 5, 30, 2147483000),
])
def test_window_equals_fresh_draws(dim, n_ops, n_instances, seed):
    got = cli.to_jsonable(experiments.chain_experiment(dim, n_ops, n_instances, seed))
    want = cli.to_jsonable(fresh_draw_chain(dim, n_ops, n_instances, seed))
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("n_ops, n_instances, seed", [
    (4, 20, 0), (2, 7, 3), (8, 1, 5), (5, 9, WRAP_SEED),
])
def test_each_seed_is_drawn_once(monkeypatch, n_ops, n_instances, seed):
    drawn = {"random_state": [], "random_hermitian": []}

    def counting(real, calls):
        def draw(dim, q, *args):
            calls.append(q)
            return real(dim, q, *args)
        return draw

    for name, calls in drawn.items():
        monkeypatch.setattr(hilbert, name, counting(getattr(hilbert, name), calls))
    experiments.chain_experiment(3, n_ops, n_instances, seed)
    states, ops = drawn["random_state"], drawn["random_hermitian"]
    assert len(states) == len(set(states)) == n_instances + 1
    assert len(ops) == len(set(ops)) == n_instances + n_ops - 1


@pytest.mark.parametrize("kwargs, name", [
    ({"n_instances": 0}, "instances"),
    ({"n_instances": -3}, "instances"),
    ({"n_ops": 1}, "n_ops"),
    ({"n_ops": 0}, "n_ops"),
    ({"dim": 0}, "dim"),
])
def test_preconditions_raise_before_any_draw(monkeypatch, kwargs, name):
    def no_draw(*args):
        raise AssertionError("drawn before the preconditions were checked")

    monkeypatch.setattr(hilbert, "random_state", no_draw)
    monkeypatch.setattr(hilbert, "random_hermitian", no_draw)
    with pytest.raises(InvalidConfig, match=f"chain {name} must be"):
        experiments.chain_experiment(**{"dim": 3, "n_ops": 2, "n_instances": 1, **kwargs})


@pytest.mark.parametrize("dim, n_ops, n_instances, seed", [
    (5, 4, 50, 0),
    (4, 6, 12, 2**64 - 1),
    (64, 8, 20, 3),
])
def test_rows_agree_with_lone_state_chains(dim, n_ops, n_instances, seed):
    got = experiments.chain_experiment(dim, n_ops, n_instances, seed).instances
    want = lone_state_rows(dim, n_ops, n_instances, seed)
    for row, lone in zip(got, want, strict=True):
        for name in ("chain_value", "oracle_value"):
            value, ref = getattr(row, name), getattr(lone, name)
            assert abs(value - ref) <= 1e-13 * max(1.0, abs(ref))
        for name in ("chain_residual", "order_swap_residual", "commutator_flip_residual"):
            assert abs(getattr(row, name) - getattr(lone, name)) <= 1e-13


@pytest.mark.parametrize("dim, n_ops", [(3, 2), (4, 3), (2, 8)])
def test_rows_do_not_depend_on_the_block_width(monkeypatch, dim, n_ops):
    whole = json.dumps(cli.to_jsonable(experiments.chain_experiment(dim, n_ops, 130, 7)))
    for width in (1, 7, 60):
        monkeypatch.setattr(experiments, "_CHAIN_BLOCK_ENTRIES", (width + n_ops - 1) * dim * dim)
        blocked = cli.to_jsonable(experiments.chain_experiment(dim, n_ops, 130, 7))
        assert json.dumps(blocked) == whole


def test_a_failing_instance_past_the_first_block_is_named_by_its_index(monkeypatch):
    # dim 64 and 8 operators: 9 instances per block, so instance 20 is row 2 of block 2
    real = hilbert.random_state
    s = experiments._subseed(0, 20)

    def planted(dim, q, *args):
        if q != (s + 1) & MASK:
            return real(dim, q, *args)
        i = real(dim, s & MASK, *args).amplitudes
        e0 = np.eye(dim)[0]
        return hilbert.StateVector(f"generic(dim={dim})", e0 - i[0].conjugate() * i)  # f of instance 20

    monkeypatch.setattr(hilbert, "random_state", planted)
    assert experiments._CHAIN_BLOCK_ENTRIES // 64**2 - 7 == 9
    with pytest.raises(OrthogonalSelection, match=r"^instance 20: selection overlap ") as caught:
        experiments.chain_experiment(64, 8, 30, 0)
    assert caught.value.row == 20  # the same exception, its row named by the instance
