"""Tests for the exact von Neumann pointer chain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weaklab import hilbert, pointer
from weaklab.errors import (
    BasisMismatch,
    GridResolutionError,
    InvalidConfig,
    NotHermitian,
    SelectionAnnihilated,
)
from weaklab.hilbert import GridConfig, gaussian_grid_state, make_grid_ops
from weaklab.pointer import (
    ANNIHILATION_ATOL,
    MOMENTUM,
    POSITION,
    PointerState,
    conditional_pointers,
    couple,
    gaussian_pointer,
    measure_weakly,
    momentum_distribution,
    pointer_mean_momentum,
    pointer_mean_position,
    predicted_shifts,
    product_joint,
    run_ccr_protocol,
    run_ccr_protocols,
    select,
)
from weaklab.weakcorr import weak_value


GRID = GridConfig(1024, 40.0)


def two_hump_state(cfg):
    """Irregular mid-selection with complex weak values; non-Gaussian so
    the higher-order pointer corrections do not cancel."""
    x = cfg.positions()
    amps = np.exp(-((x - 2.0) ** 2) / (4 * 1.3**2) + 0.35j * x) + 0.6 * np.exp(
        -((x + 1.5) ** 2) / (4 * 1.1**2) - 0.15j * x
    )
    return hilbert.StateVector(cfg.basis_id, amps)


def test_gaussian_pointer_moments():
    phi = gaussian_pointer(GRID, 1.0)
    xs = GRID.positions()
    prob = np.abs(phi.wavefunction) ** 2 * GRID.spacing
    assert float(np.sum(prob)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(xs * prob)) == pytest.approx(0.0, abs=1e-10)
    var = float(np.sum(xs**2 * prob))
    assert var == pytest.approx(1.0, rel=1e-3)
    assert np.all(phi.wavefunction.real > -1e-300)  # real and positive
    assert np.max(np.abs(phi.wavefunction.imag)) == 0.0


def test_gaussian_pointer_resolution_guards():
    with pytest.raises(GridResolutionError):
        gaussian_pointer(GridConfig(16, 16.0), 0.5)  # spacing 1, needs >= 4
    with pytest.raises(GridResolutionError):
        gaussian_pointer(GRID, 10.0)  # > length/8


def test_couple_zero_strength_is_identity():
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    phi = gaussian_pointer(GRID, 1.0)
    joint = product_joint(up, phi)
    out = couple(joint, hilbert.pauli("z"), "momentum", 0.0)
    np.testing.assert_allclose(out.amplitudes, joint.amplitudes, atol=1e-15)


def test_couple_translates_eigenstate_by_g_lambda():
    # system in sigma_z eigenstate (+1); exp(-i sign g lam p_d/hbar) with
    # the momentum generator's sign +1 translates the pointer by g * lam
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    phi = gaussian_pointer(GRID, 1.0)
    g = 0.3
    joint = couple(product_joint(up, phi), hilbert.pauli("z"), "momentum", g)
    cond, amp = select(joint, up)
    assert amp == pytest.approx(1.0, abs=1e-12)
    assert pointer_mean_position(cond) == pytest.approx(g, abs=1e-10)
    # translation-operator oracle: analytically shifted Gaussian
    x = GRID.positions()
    shifted = np.exp(-((x - g) ** 2) / 4.0)
    shifted /= math.sqrt(float(np.sum(np.abs(shifted) ** 2)) * GRID.spacing)
    assert np.max(np.abs(cond.wavefunction - shifted)) < 1e-12


def test_couple_preserves_norm():
    cfg = GridConfig(64, 20.0)
    xs_op, _ = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=1.5)
    phi = gaussian_pointer(GRID, 1.0)
    joint = couple(product_joint(i, phi), xs_op, "position", 0.7)
    total = float(np.sum(np.abs(joint.amplitudes) ** 2)) * GRID.spacing
    assert total == pytest.approx(1.0, abs=1e-10)


def test_couple_basis_mismatch():
    up = hilbert.basis_state(2, 0, "elsewhere")
    phi = gaussian_pointer(GRID, 1.0)
    with pytest.raises(BasisMismatch):
        couple(product_joint(up, phi), hilbert.pauli("z"), "position", 0.1)


def test_select_product_state_returns_pointer():
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    phi = gaussian_pointer(GRID, 1.0)
    cond, amp = select(product_joint(up, phi), up)
    assert amp == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cond.wavefunction, phi.wavefunction, atol=1e-14)


def test_select_orthogonal_annihilates():
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    down = hilbert.basis_state(2, 1, hilbert.PAULI_BASIS_ID)
    phi = gaussian_pointer(GRID, 1.0)
    with pytest.raises(SelectionAnnihilated):
        select(product_joint(up, phi), down)


def test_weakly_coupled_fock_pointer_matches_closed_form():
    cfg = hilbert.FockConfig(dim=2)
    x_op, _ = hilbert.make_fock_ops(cfg)
    i = hilbert.basis_state(2, 0, cfg.basis_id)
    f = hilbert.StateVector(cfg.basis_id, np.array([1.0, 1.0]))
    g = 0.02
    stage = measure_weakly(i, f, x_op, sigma=1.0, g=g, grid=GRID)
    x_w = weak_value(i, f, x_op)
    y = GRID.positions()
    closed = np.exp(1j * g * x_w * y) * np.exp(-(y**2) / 4.0)
    closed /= math.sqrt(float(np.sum(np.abs(closed) ** 2)) * GRID.spacing)
    ov = complex(np.vdot(closed, stage.pointer.wavefunction)) * GRID.spacing
    fidelity = abs(ov) ** 2
    assert fidelity >= 1.0 - 10.0 * g**2
    assert fidelity <= 1.0 + 1e-12


def test_mean_momentum_of_phase_modulated_gaussian():
    k = 0.8137  # deliberately not grid-commensurate
    phi = gaussian_pointer(GRID, 1.0)
    psi = pointer.PointerState(GRID, phi.wavefunction * np.exp(1j * k * GRID.positions()))
    assert pointer_mean_momentum(psi) == pytest.approx(GRID.hbar * k, abs=1e-8)
    assert pointer_mean_position(psi) == pytest.approx(0.0, abs=1e-10)


def test_mean_position_of_shifted_gaussian():
    d = 1.37
    x = GRID.positions()
    psi = pointer.PointerState(GRID, np.exp(-((x - d) ** 2) / 4.0))
    assert pointer_mean_position(psi) == pytest.approx(d, abs=1e-8)
    assert pointer_mean_momentum(psi) == pytest.approx(0.0, abs=1e-8)


def test_momentum_distribution_normalized():
    phi = gaussian_pointer(GRID, 2.0)
    _, probs = momentum_distribution(phi)
    assert float(np.sum(probs)) == pytest.approx(1.0, abs=1e-12)


def test_predicted_shifts_closed_forms():
    assert predicted_shifts(0.7, sigma=2.0) == (0.0, 0.7)  # real weak value
    dx, dp = predicted_shifts(1j, sigma=1.0, hbar=1.0)
    assert dx == pytest.approx(-2.0)
    assert predicted_shifts(1.0, sigma=1.0)[1] == pytest.approx(1.0)


def test_run_ccr_protocol_small_g_limit():
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    f = two_hump_state(cfg)
    res = run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, 1e-7, GRID, GRID)
    assert abs(res.dx_d) < 1e-6
    assert abs(res.dx_d_prime) < 1e-6


def test_run_ccr_protocol_convergence_orders():
    # raw shift error is O(g^3): the centered symmetric pointer kills the
    # even-order terms by parity; per-unit-coupling error is O(g^2)
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    f = two_hump_state(cfg)
    x_w = weak_value(i, f, x_op)
    devs = {}
    for g in (0.02, 0.01):
        res = run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, g, GRID, GRID)
        devs[g] = res.dx_d - predicted_shifts(x_w, 1.0, GRID.hbar, g)[0]
    raw_ratio = devs[0.02] / devs[0.01]
    assert raw_ratio == pytest.approx(8.0, rel=0.2)
    norm_ratio = (devs[0.02] / 0.02) / (devs[0.01] / 0.01)
    assert norm_ratio == pytest.approx(4.0, rel=0.2)
    assert abs(devs[0.01]) < abs(devs[0.02]) / 3.2


def test_run_ccr_protocol_momentum_eigen_midselection_exact():
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    k = 2.0 * np.pi * 3 / cfg.length
    f = hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions()))
    g = 0.01
    res = run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, g, GRID, GRID)
    # second-stage translation oracle: pointer moves by exactly g * (hbar k)
    assert res.dx_d_prime == pytest.approx(g * cfg.hbar * k, abs=1e-10)
    # ... which is the first-order shift of the real weak value <i|p|f>/<i|f>
    p_w_bar = weak_value(f, i, p_op)
    assert p_w_bar.imag == pytest.approx(0.0, abs=1e-12)
    assert res.dx_d_prime == pytest.approx(predicted_shifts(p_w_bar, 1.0, GRID.hbar, g)[1], abs=1e-10)


def test_run_ccr_protocol_wrap_guard():
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    k = 2.0 * np.pi * 2 / cfg.length
    f = hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions()))
    with pytest.raises(GridResolutionError):
        # predicted translations far beyond a quarter box
        run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, 40.0, GRID, GRID)


def test_run_ccr_protocol_probabilities_near_born_weights():
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    k = 2.0 * np.pi / cfg.length
    f = hilbert.StateVector(cfg.basis_id, np.exp(1j * k * cfg.positions()))
    w = abs(hilbert.inner(f, i)) ** 2
    res = run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, 0.01, GRID, GRID)
    assert res.prob_mid == pytest.approx(w, rel=1e-3)
    assert res.prob_post == pytest.approx(w, rel=1e-12)  # eigenvector stage exact


# --- batched kernel vs the joint-state oracle -------------------------------

KERNEL_GRID = GridConfig(256, 40.0)


def system(kind, size):
    """A small grid or Fock representation with its x and p operators."""
    if kind == "grid":
        cfg = GridConfig(size, 10.0)
        return cfg, make_grid_ops(cfg)
    cfg = hilbert.FockConfig(dim=size)
    return cfg, hilbert.make_fock_ops(cfg)


def l2_distance(a, b, grid):
    return math.sqrt(float(np.sum(np.abs(a - b) ** 2)) * grid.spacing)


def assert_stage_matches(row, amplitude, oracle_pointer, oracle_amplitude, grid):
    """Probabilities to 1e-14; normalized pointers to 1e-12 in L2 where
    the probability is at least 1e-3 (below that both are roundoff-bound)."""
    assert abs(amplitude**2 - oracle_amplitude**2) <= 1e-14
    if oracle_amplitude**2 >= 1e-3:
        ours = PointerState(grid, row).wavefunction
        assert l2_distance(ours, oracle_pointer.wavefunction, grid) <= 1e-12


@given(
    kind=st.sampled_from(["grid", "fock"]),
    size=st.integers(8, 24),
    which=st.sampled_from(["x", "p"]),
    generator=st.sampled_from([POSITION, MOMENTUM]),
    g=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2**31),
    n_sel=st.integers(1, 3),
    batch_initial=st.booleans(),
    reuse_eigensystem=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_conditional_pointers_match_joint_state_oracle(
    kind, size, which, generator, g, seed, n_sel, batch_initial, reuse_eigensystem
):
    cfg, (x_op, p_op) = system(kind, size)
    obs = x_op if which == "x" else p_op
    one = hilbert.random_state(size, seed, cfg.basis_id)
    many = [hilbert.random_state(size, seed + 1 + k, cfg.basis_id) for k in range(n_sel)]
    initial, final = (many, [one]) if batch_initial else ([one], many)
    phi = gaussian_pointer(KERNEL_GRID, 1.0)
    eigensystem = None
    if reuse_eigensystem:
        w, states = hilbert.eigenbasis(obs)
        eigensystem = (w, np.stack([s.amplitudes for s in states], axis=1))
    rows, amps = conditional_pointers(initial, final, obs, generator, g, phi, eigensystem)
    assert rows.shape == (n_sel, KERNEL_GRID.n_points)
    for s in range(n_sel):
        a = many[s] if batch_initial else one
        b = one if batch_initial else many[s]
        cond, amp = select(couple(product_joint(a, phi), obs, generator, g), b)
        assert_stage_matches(rows[s], amps[s], cond, amp, KERNEL_GRID)


def assert_protocol_matches_oracle(oracle_protocol, *args):
    """run_ccr_protocol(*args) raises what the oracle raises, or matches its
    stages; returns the protocol's result (None when both raised)."""
    grid, grid_prime = args[-2:]
    try:
        want = oracle_protocol(*args)
    except (GridResolutionError, SelectionAnnihilated) as exc:
        with pytest.raises(type(exc)):
            run_ccr_protocol(*args)
        return None
    got = run_ccr_protocol(*args)
    assert_stage_matches(got.pointer_first.wavefunction * got.prob_mid**0.5,
                         got.prob_mid**0.5, want.pointer_first, want.prob_mid**0.5, grid)
    assert_stage_matches(got.pointer_second.wavefunction * got.prob_post**0.5,
                         got.prob_post**0.5, want.pointer_second, want.prob_post**0.5, grid_prime)
    if min(want.prob_mid, want.prob_post) >= 1e-3:
        assert got.dx_d == pytest.approx(want.dx_d, abs=1e-11)
        assert got.dx_d_prime == pytest.approx(want.dx_d_prime, abs=1e-11)
    return got


@given(
    kind=st.sampled_from(["grid", "fock"]),
    size=st.integers(8, 24),
    g=st.one_of(st.floats(1e-3, 0.05), st.floats(0.5, 40.0)),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_run_ccr_protocol_matches_oracle_and_its_guards(
    oracle_protocol, kind, size, g, seed
):
    # a small pointer box (quarter length 2) so large g trips the wrap guard
    cfg, (x_op, p_op) = system(kind, size)
    grid = GridConfig(128, 8.0)
    i = hilbert.random_state(size, seed, cfg.basis_id)
    f = hilbert.random_state(size, seed + 1, cfg.basis_id)
    assert_protocol_matches_oracle(oracle_protocol, i, f, x_op, p_op, 0.75, 0.75, g, grid, grid)


def test_near_orthogonal_selection_runs_without_weak_values(oracle_protocol, monkeypatch):
    # <f|i> = 0.01: the first-order P' translation g |<i|p|f>/<i|f>| = 91.7
    # is far past length/4 = 10, but the exact translations g p_l stay
    # within g max|p| = 5.03, so the stage runs
    def no_weak_value(*args):
        raise AssertionError("the pointer stage computed a weak value")

    monkeypatch.setattr(pointer, "weak_value", no_weak_value)
    cfg = GridConfig(128, 40.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    x = cfg.positions()
    f = hilbert.StateVector(cfg.basis_id, x * np.exp(-x**2 / (4 * 1.67**2)) + 0.01 * i.amplitudes)
    grid = pointer.pointer_grid(1.0)
    got = assert_protocol_matches_oracle(oracle_protocol, i, f, x_op, p_op, 1.0, 1.0, 0.5,
                                         grid, grid)
    assert got.prob_post >= 1e-3
    assert abs(got.dx_d_prime) < 1e-12



@given(
    size=st.integers(8, 24),
    generator=st.sampled_from([POSITION, MOMENTUM]),
    g=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_annihilated_selection_raises_like_oracle(oracle_protocol, size, generator, g, seed):
    # x is diagonal on the grid, so selections with disjoint support stay
    # exactly orthogonal under any x coupling
    cfg = GridConfig(size, 10.0)
    x_op, p_op = make_grid_ops(cfg)
    rng = np.random.default_rng(seed)
    half = size // 2
    a = np.zeros(size, dtype=complex)
    b = np.zeros(size, dtype=complex)
    a[:half] = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    b[half:] = rng.standard_normal(size - half) + 1j * rng.standard_normal(size - half)
    i = hilbert.StateVector(cfg.basis_id, a)
    f = hilbert.StateVector(cfg.basis_id, b)
    phi = gaussian_pointer(KERNEL_GRID, 1.0)
    with pytest.raises(SelectionAnnihilated):
        select(couple(product_joint(i, phi), x_op, generator, g), f)
    _, amps = conditional_pointers([i], [f], x_op, generator, g, phi)
    assert amps[0] <= ANNIHILATION_ATOL
    with pytest.raises(SelectionAnnihilated):
        measure_weakly(i, f, x_op, 1.0, g, KERNEL_GRID)
    args = (i, f, x_op, p_op, 1.0, 1.0, g, KERNEL_GRID, KERNEL_GRID)
    with pytest.raises(SelectionAnnihilated):
        oracle_protocol(*args)
    with pytest.raises(SelectionAnnihilated):
        run_ccr_protocol(*args)
    # one annihilated row fails the whole batch
    with pytest.raises(SelectionAnnihilated):
        run_ccr_protocols(i, [i, f], x_op, p_op, 1.0, 1.0, g, KERNEL_GRID, KERNEL_GRID)


def test_run_ccr_protocols_rows_equal_single_runs():
    cfg = GridConfig(64, 20.0)
    x_op, p_op = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=cfg.length / 24.0)
    w, states = hilbert.eigenbasis(p_op)
    finals = [two_hump_state(cfg), states[30], states[33]]
    batch = run_ccr_protocols(
        i, finals, x_op, p_op, 1.0, 1.0, 0.01, GRID, GRID,
        p_eigensystem=(w, np.stack([s.amplitudes for s in states], axis=1)),
    )
    for f, res in zip(finals, batch):
        one = run_ccr_protocol(i, f, x_op, p_op, 1.0, 1.0, 0.01, GRID, GRID)
        assert res.dx_d == pytest.approx(one.dx_d, abs=1e-13)
        assert res.dx_d_prime == pytest.approx(one.dx_d_prime, abs=1e-13)
        assert res.prob_mid == pytest.approx(one.prob_mid, abs=1e-15)
        assert res.prob_post == pytest.approx(one.prob_post, abs=1e-15)


def test_conditional_pointers_guards():
    cfg = GridConfig(16, 10.0)
    x_op, _ = make_grid_ops(cfg)
    i = gaussian_grid_state(cfg, width=1.0)
    phi = gaussian_pointer(KERNEL_GRID, 1.0)
    elsewhere = hilbert.StateVector("elsewhere", i.amplitudes)
    with pytest.raises(BasisMismatch):
        conditional_pointers([i], [elsewhere], x_op, POSITION, 0.01, phi)
    with pytest.raises(BasisMismatch):
        conditional_pointers([elsewhere], [i], x_op, POSITION, 0.01, phi)
    skew = hilbert.Operator(cfg.basis_id, 1j * np.eye(16))
    with pytest.raises(NotHermitian):
        conditional_pointers([i], [i], skew, MOMENTUM, 0.01, phi)
    with pytest.raises(InvalidConfig):
        conditional_pointers([i, i], [i, i, i], x_op, POSITION, 0.01, phi)
    with pytest.raises(InvalidConfig, match="generator"):
        conditional_pointers([i], [i], x_op, "angle", 0.01, phi)
    with pytest.raises(InvalidConfig, match="finite"):
        conditional_pointers([i], [i], x_op, POSITION, math.inf, phi)


@pytest.mark.parametrize("generator, g_fits, g_wraps", [
    # a kick of g / hbar against pi / (2 spacing) = 40.2 on GRID
    (POSITION, 40.0, 40.3),
    # a translation of g against length/4 = 10
    (MOMENTUM, 10.0, 10.1),
])
def test_wrap_guard_reads_the_exact_spectrum(generator, g_fits, g_wraps):
    # sigma_z has levels +-1, so the coupling displaces the pointer by +-g
    # (in wavenumber for the position generator)
    i, f = (hilbert.StateVector(hilbert.PAULI_BASIS_ID, a) for a in ([1.0, 0.3], [1.0, 1.0]))
    phi = gaussian_pointer(GRID, 1.0)
    _, amps = conditional_pointers([i], [f], hilbert.pauli("z"), generator, g_fits, phi)
    assert amps[0] > 0.0
    with pytest.raises(GridResolutionError, match="quarter"):
        conditional_pointers([i], [f], hilbert.pauli("z"), generator, g_wraps, phi)
    # an eigenstate selection puts no weight on the wrapping level
    up = hilbert.basis_state(2, 0, hilbert.PAULI_BASIS_ID)
    down = hilbert.basis_state(2, 1, hilbert.PAULI_BASIS_ID)
    z_shifted = hilbert.Operator(hilbert.PAULI_BASIS_ID, np.diag([g_fits / g_wraps, 5.0]))
    _, amps = conditional_pointers([up], [up], z_shifted, generator, g_wraps, phi)
    assert amps[0] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(GridResolutionError):
        conditional_pointers([down], [down], z_shifted, generator, g_wraps, phi)
