"""Canned experiments with structured pass/fail reports.

Five experiments bind the machinery together: the Pauli spin suite with
its exact tan(alpha/2) targets, the canonical-commutator experiment
(exact averages, per-selection tables, pointer simulation and Monte
Carlo), the Riemann-operator weak value, random selection chains with
their dual symmetries, and Monte Carlo weak-value estimation from
sampled pointer shifts.  Every report carries a list of named
residual checks with pinned tolerances; the CLI turns them into exit
statuses.

Where the bracket notation around operator products is ambiguous, the
reports deliberately show both readings: per-selection products for a
single mid-state next to Born-weighted averages over a complete basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AlphaOutOfRange, InvalidConfig, NoAcceptedTrials
from .hilbert import (
    EDGE_AMPLITUDE_WARN,
    NATURAL_BASIS,
    FockConfig,
    GridConfig,
    Operator,
    StateVector,
    check_truncation_edge,
    coherent_state,
    edge_amplitude,
    eigenbasis,  # noqa: F401  (unused; bench/tracer.py wraps it under this name)
    expectation,
    gaussian_grid_state,
    hermitian_part,
    hermitian_residual,
    make_fock_ops,
    make_grid_ops,
    basis_state,
    pauli,
)
from . import ensemble as mc
# run_ccr_protocol is the one-selection form of run_ccr_protocols; it stays
# importable here because bench/tracer.py wraps it under this module's name.
from .pointer import (  # noqa: F401
    DEFAULT_POINTER_POINTS,
    DEFAULT_POINTER_WIDTHS,
    pointer_grid,
    run_ccr_protocol,
    run_ccr_protocols,
)
from .weakcorr import (
    ORTHOGONALITY_EPS,
    P_IMAG_TOL,
    averaged_weak_correlation,
    ccr_decomposition,
    weak_anticommutator,
    weak_commutator,
    weak_correlation,
    weak_value,
)

# First three imaginary parts of the nontrivial zeta zeros; display and
# comparison constants only, nothing in here computes zeros.
REFERENCE_ZEROS = (14.13, 21.02, 25.01)


@dataclass(frozen=True)
class Check:
    """One named residual against a pinned tolerance."""

    name: str
    residual: float
    tol: float
    passed: bool


def make_check(name: str, residual: float, tol: float) -> Check:
    return Check(name=name, residual=float(residual), tol=tol, passed=bool(residual <= tol))


# The config preconditions that no other builder checks, by config path:
# (holds, what it needs).  Each experiment raises InvalidConfig from
# require_precondition before any work, and cli.validate_config calls it
# with the same path, one diagnostic per field.
PRECONDITIONS = {
    "ccr.n_trials": (lambda v: v >= 0, ">= 0"),  # 0 disables the Monte Carlo
    # the correlators divide by g**2, which must not underflow to 0
    "ccr.g": (lambda v: v * v > 0, "nonzero with g * g > 0"),
    "ccr.g_sweep": (lambda v: all(g * g > 0 for g in v), "couplings each with g * g > 0"),
    # the draws need a dimension, the maxima an instance, and the dual
    # symmetries two operators
    "chain.dim": (lambda v: v >= 1, ">= 1"),
    "chain.n_ops": (lambda v: v >= 2, ">= 2"),
    "chain.instances": (lambda v: v >= 1, ">= 1"),
    "montecarlo.n_trials": (lambda v: v >= 1, ">= 1"),  # per readout stream
    "montecarlo.g": (lambda v: v != 0, "!= 0"),  # the estimates divide by g
    "montecarlo.sigma": (lambda v: v > 0, "> 0"),
    "montecarlo.dim": (lambda v: v >= 2, ">= 2"),  # fock preset: f holds |1>
    # Fock only: the half-line residual is a maximum over levels 0..dim-3
    "riemann.rep.dim": (lambda v: v >= 3, ">= 3"),
}


def require_precondition(path: str, value) -> None:
    """Raises InvalidConfig when ``value`` fails the precondition of config ``path``."""
    holds, need = PRECONDITIONS[path]
    if not holds(value):
        raise InvalidConfig(f"{path.replace('.', ' ')} must be {need}, got {value!r}")


def spin_selections(alpha: float) -> tuple[StateVector, StateVector]:
    """(i, f): the xz-plane spin selections, i at angle alpha, f along +x.

    Raises AlphaOutOfRange when |alpha| is within 1e-6 of pi.
    """
    if not abs(alpha) < math.pi - 1e-6:
        raise AlphaOutOfRange(
            f"|alpha| = {abs(alpha)} too close to pi: selections go orthogonal"
        )
    c, s = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    i = StateVector("spin-1/2", np.array([c + s, c - s]) / math.sqrt(2.0))
    f = StateVector("spin-1/2", np.array([1.0, 1.0]) / math.sqrt(2.0))
    return i, f


@dataclass(frozen=True)
class PauliReport:
    """Weak Pauli (anti)commutator suite vs the exact closed forms."""

    alpha: float
    tan_half: float
    sxsy: complex
    sysx: complex
    sz_w: complex
    anticommutator: complex
    commutator: complex
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)


PAULI_TOL = 1e-12


def pauli_suite(alpha: float) -> PauliReport:
    """sigma_x/sigma_y weak correlations at spin angle alpha.

    Targets: <sx sy>_w = i tan(a/2), <sy sx>_w = -i tan(a/2),
    <sz>_w = tan(a/2), anticommutator 0, commutator 2i tan(a/2).
    """
    i, f = spin_selections(alpha)
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    t = math.tan(alpha / 2.0)
    sxsy = weak_correlation(i, f, sx, sy)
    sysx = weak_correlation(i, f, sy, sx)
    sz_w = weak_value(i, f, sz)
    anti = weak_anticommutator(i, f, sx, sy)
    comm = weak_commutator(i, f, sx, sy)
    checks = (
        make_check("sxsy_vs_i_tan", abs(sxsy - 1j * t), PAULI_TOL),
        make_check("sysx_vs_minus_i_tan", abs(sysx + 1j * t), PAULI_TOL),
        make_check("sz_w_vs_tan", abs(sz_w - t), PAULI_TOL),
        make_check("anticommutator_vs_zero", abs(anti), PAULI_TOL),
        make_check("commutator_vs_2i_tan", abs(comm - 2j * t), PAULI_TOL),
        make_check("commutator_vs_2i_sz_w", abs(comm - 2j * sz_w), PAULI_TOL),
    )
    return PauliReport(
        alpha=alpha, tan_half=t, sxsy=sxsy, sysx=sysx, sz_w=sz_w,
        anticommutator=anti, commutator=comm, checks=checks,
    )


@dataclass(frozen=True)
class MidSelectionRow:
    """Per-mid-selection quantities of the CCR experiment."""

    index: int
    p_eigenvalue: float
    weight: float
    x_w: complex
    p_w: complex
    eq9_lhs: float
    eq10_lhs: float
    dx_d: float | None = None
    dx_d_prime: float | None = None
    product_over_g2: float | None = None
    mc_mean_product: float | None = None
    mc_stderr_product: float | None = None
    mc_accepted: int | None = None
    mc_attempted: int | None = None


@dataclass(frozen=True)
class CcrReport:
    """All four branches of the commutator experiment."""

    representation: str
    hbar: float
    sigma: float
    sigma_prime: float
    g: float
    n_trials: int
    master_seed: int
    edge_amp: float
    # (a) exact f-averaged weak commutator
    avg_commutator: complex
    commutator_oracle: complex  # direct <i|[x,p]|i> by matrix multiplication
    # |avg_commutator - i hbar (1 - N edge^2)| for a state on the truncation
    # edge (edge_amp >= 1e-7), where i hbar itself is not the target; else None
    avg_commutator_vs_truncated_i_hbar: float | None
    # (b-c) real-part combination over the momentum mid-selection basis
    eq9_born_avg: float
    eq10_born_avg: float
    all_p_w_real: bool
    per_f: tuple
    per_f_lhs_min: float
    per_f_lhs_max: float
    # (d) two-pointer correlator
    pointer_corr_over_g2: float | None
    pointer_coverage: float | None
    mc_corr_over_g2: float | None
    mc_stderr_over_g2: float | None
    mc_accepted: int | None
    mc_attempted: int | None
    mc_coverage: float | None
    # (g, pointer_corr_over_g2, its relative residual) per g_sweep coupling
    g_sweep_rows: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


CCR_EXACT_TOL = 1e-10
CCR_POINTER_RTOL = 0.02
MC_SIGMA_BAND = 3.0
_MC_MIN_EXPECTED_ACCEPTED = 25.0
_POINTER_COVERAGE = 1.0 - 1e-9
# Weights this close (relative) to the smallest one the coverage cut keeps are
# kept too: a cut inside a +-k pair of equal weights would otherwise keep one
# of the two, chosen by roundoff.
_POINTER_TIE_RTOL = 1e-9
# Unit roundoff of a float64 operation, and the share of the p_imag_is_zero
# tolerance that a row's roundoff bound may take for the row to decide
# all_p_w_real.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_ROUNDOFF_SHARE = 0.1


def ccr_default_displacement(dim: int) -> float:
    """Displacement of the default Fock initial state.

    min(2, sqrt(dim) / 4), so the mean occupation |alpha|^2 is at most
    dim / 16, capped further by the largest displacement (found by
    bisection) whose coherent state keeps its top-two-level amplitude at
    or below EDGE_AMPLITUDE_WARN.  The cap binds only for dims 2-26; at
    dim 2 no displacement keeps off the edge and the result is 0.  A
    ``dim`` below 2, which no Fock space has, gives min(2, sqrt(dim) / 4)
    (0 below 1).
    """
    a = min(2.0, 0.25 * math.sqrt(max(dim, 0)))
    if dim < 2:
        return a

    def off_edge(displacement: float) -> bool:
        psi = coherent_state(FockConfig(dim=dim), displacement)
        return edge_amplitude(psi) <= EDGE_AMPLITUDE_WARN

    if off_edge(a):
        return a
    lo, hi = 0.0, a  # the edge amplitude grows with the displacement
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if off_edge(mid) else (lo, mid)


def _ccr_default_state(rep) -> StateVector:
    if isinstance(rep, FockConfig):
        return coherent_state(rep, ccr_default_displacement(rep.dim))
    return gaussian_grid_state(rep, width=rep.length / 24.0)


def _ccr_ops(rep):
    """x and p of a Fock or grid representation."""
    if isinstance(rep, FockConfig):
        return make_fock_ops(rep)
    if isinstance(rep, GridConfig):
        return make_grid_ops(rep)
    raise InvalidConfig(f"representation must be FockConfig or GridConfig, got {type(rep)!r}")


def _xp_px(x_op: Operator, p_op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """The dense products x p and p x.

    A diagonal x scales the rows and the columns of p instead of entering
    an O(n^3) matrix product; the entries are the same, since every other
    term of the product is an exact zero.
    """
    p = p_op.matrix
    if x_op.diagonal is not None:
        d = x_op.diagonal
        return d[:, None] * p, p * d[None, :]
    return x_op.matrix @ p, p @ x_op.matrix


def _subseed(master_seed: int, index: int) -> int:
    return (master_seed * 1_000_003 + 0x9E37 + index) & ((1 << 64) - 1)


def ccr_experiment(
    rep,
    i_spec: StateVector | None = None,
    sigma: float = 1.0,
    sigma_prime: float = 1.0,
    g: float = 0.01,
    g_sweep: tuple | list = (),
    n_trials: int = 0,
    seed: int = 0,
    run_pointer: bool = True,
    n_workers: int = 1,
    pointer_points: int = DEFAULT_POINTER_POINTS,
    pointer_sigmas: float = DEFAULT_POINTER_WIDTHS,
) -> CcrReport:
    """Measure [x,p] = i hbar every way the machinery allows.

    (a) exact Born-averaged weak commutator over the representation's
    natural basis, against both i*hbar and the direct truncated
    expectation; (b) per-selection real-part combinations over the
    momentum eigenbasis and their Born average vs hbar/2 (on a grid the
    closed-form plane waves exp(i k x) / sqrt(n) with eigenvalues hbar k,
    in Fock one ``eigh`` of p); (c) the
    simplified Im{x_w} p_w average vs -hbar/2 (momentum mid-selections
    make every p_w real); (d) the exact two-pointer correlator and, when
    ``n_trials`` > 0, its Monte Carlo estimate, vs hbar * sigma^2.

    ``g_sweep`` reruns only the exact pointer stage, at each of its
    couplings and also under ``run_pointer=False``: one ``g_sweep_rows`` entry
    (g, pointer_corr_over_g2, relative residual) and one check each.

    ``n_trials`` is the total attempt budget, allocated over the
    mid-selections proportionally to their Born weights; a positive budget
    that leaves no selection its 25 expected accepted trials raises
    NoAcceptedTrials.  A negative budget, or a ``g`` or ``g_sweep``
    coupling whose square is 0, raises InvalidConfig before any work.
    """
    require_precondition("ccr.n_trials", n_trials)
    require_precondition("ccr.g", g)
    require_precondition("ccr.g_sweep", g_sweep)
    x_op, p_op = _ccr_ops(rep)
    hbar = rep.hbar
    i = i_spec if i_spec is not None else _ccr_default_state(rep)
    if i.basis_id != x_op.basis_id:
        raise InvalidConfig("i_spec does not live on the representation basis")
    edge = check_truncation_edge(rep, i)

    # (a) exact f-average over the natural basis
    avg_comm = averaged_weak_correlation(i, NATURAL_BASIS, x_op, p_op, "commutator")
    xp, px = _xp_px(x_op, p_op)
    oracle = complex(np.vdot(i.amplitudes, (xp - px) @ i.amplitudes))
    del xp, px  # not kept through the pointer stage

    # (b, c) momentum mid-selection basis: plane waves on the grid, eigh for
    # Fock, held once in v.  Each column becomes its StateVector's amplitudes;
    # the StateVectors of the admissible rows are the mid-selections.
    if isinstance(rep, GridConfig):
        p_eigs, v = rep.momentum_eigensystem()
    else:
        p_eigs, v = np.linalg.eigh(p_op.matrix)
    weights, mids = np.empty(len(p_eigs)), {}
    for j in range(len(p_eigs)):
        f = StateVector(rep.basis_id, v[:, j])
        v[:, j] = f.amplitudes
        weights[j] = abs(complex(np.vdot(f.amplitudes, i.amplitudes))) ** 2
        if weights[j] > ORTHOGONALITY_EPS**2:  # overlap above the orthogonality eps
            mids[j] = f
    decomps = {j: ccr_decomposition(i, f, x_op, p_op) for j, f in mids.items()}
    eq9_avg = math.fsum(weights[j] * d.lhs for j, d in decomps.items())
    eq10_avg = math.fsum(weights[j] * d.simplified_lhs for j, d in decomps.items())
    # A row decides all_p_w_real only when the roundoff bound of its ratio
    # p_w = <f|p|i>/<f|i>, u (||p i|| + |p_w|) / |<f|i>|, is at most
    # _ROUNDOFF_SHARE of its p_imag_is_zero tolerance; past that, roundoff
    # alone can reach the tolerance.
    p_i_norm = float(np.linalg.norm(p_op.apply(i.amplitudes)))
    all_real = all(
        d.p_imag_is_zero for j, d in decomps.items()
        if _UNIT_ROUNDOFF * (p_i_norm + abs(d.p_w)) / math.sqrt(weights[j])
        <= _ROUNDOFF_SHARE * P_IMAG_TOL * max(1.0, abs(d.p_w))
    )

    # (d) pointer + Monte Carlo over the dominant mid-selections; only d depends on g
    chains, stats = {}, {}
    pointer_corr = pointer_resid = pointer_cov = None
    mc_corr = mc_se = mc_cov = mc_accepted = mc_attempted = None
    if run_pointer or g_sweep:
        grid = pointer_grid(sigma, hbar, pointer_points, pointer_sigmas)
        grid_prime = pointer_grid(sigma_prime, hbar, pointer_points, pointer_sigmas)
        order = np.argsort(weights)[::-1]
        cum = np.cumsum(weights[order])
        n_keep = int(np.searchsorted(cum, _POINTER_COVERAGE * cum[-1])) + 1
        w_cut = weights[order[n_keep - 1]] * (1.0 - _POINTER_TIE_RTOL)
        n_keep = int(np.count_nonzero(weights[order] >= w_cut))  # order is descending
        keep = [int(j) for j in order[:n_keep] if j in mids]

    def pointer_stage(g_s):  # -> chains, pointer_corr_over_g2, its relative residual
        chains = dict(zip(keep, run_ccr_protocols(
            i, [mids[j] for j in keep], x_op, p_op, sigma, sigma_prime, g_s,
            grid, grid_prime, p_eigensystem=(p_eigs, v),
        )))
        corr = math.fsum(weights[j] * c.dx_d * c.dx_d_prime for j, c in chains.items()) / g_s**2
        return chains, corr, abs(corr - hbar * sigma**2) / (hbar * sigma**2)

    if run_pointer:
        chains, pointer_corr, pointer_resid = pointer_stage(g)
        pointer_cov = float(np.sum(weights[keep]))

        if n_trials > 0:
            # attempts proportional to Born weight; keep selections whose
            # expected accepted count is workable
            w_keep = weights[keep]
            alloc = np.ceil(n_trials * w_keep / np.sum(w_keep)).astype(int)
            acc_prob = np.array([chains[j].prob_mid * chains[j].prob_post for j in keep])
            usable = alloc * acc_prob >= _MC_MIN_EXPECTED_ACCEPTED
            if not usable.any():
                raise NoAcceptedTrials(
                    f"a budget of {n_trials} trials gives no mid-selection the "
                    f"{_MC_MIN_EXPECTED_ACCEPTED:g} expected accepted trials it needs"
                )
            mc_accepted, mc_attempted, mc_cov = 0, 0, 0.0
            for j, a, ok in zip(keep, alloc, usable):
                if not ok:
                    continue
                stats[j] = mc.run_trials(chains[j], int(a), _subseed(seed, j), n_workers)
                mc_accepted += stats[j].accepted
                mc_attempted += stats[j].attempted
                mc_cov += float(weights[j])
            mc_corr = math.fsum(weights[j] * st.mean_product for j, st in stats.items()) / g**2
            mc_se = math.sqrt(
                math.fsum((weights[j] * st.stderr_product) ** 2 for j, st in stats.items())
            ) / g**2

    rows = []
    for j, d in decomps.items():
        chain, st = chains.get(j), stats.get(j)
        rows.append(MidSelectionRow(
            index=j, p_eigenvalue=float(p_eigs[j]), weight=float(weights[j]),
            x_w=d.x_w, p_w=d.p_w, eq9_lhs=d.lhs, eq10_lhs=d.simplified_lhs,
            **({} if chain is None else dict(
                dx_d=chain.dx_d, dx_d_prime=chain.dx_d_prime,
                product_over_g2=chain.dx_d * chain.dx_d_prime / g**2,
            )),
            **({} if st is None else dict(
                mc_mean_product=st.mean_product, mc_stderr_product=st.stderr_product,
                mc_accepted=st.accepted, mc_attempted=st.attempted,
            )),
        ))
    lhs_values = [d.lhs for d in decomps.values()]

    on_edge = edge >= 1e-7
    checks = [
        make_check("avg_commutator_vs_matrix_oracle", abs(avg_comm - oracle), CCR_EXACT_TOL),
        *([] if on_edge else [
            make_check("avg_commutator_vs_i_hbar", abs(avg_comm - 1j * hbar), CCR_EXACT_TOL)
        ]),
        make_check("eq9_born_avg_vs_half_hbar", abs(eq9_avg - 0.5 * hbar), CCR_EXACT_TOL),
        make_check("eq10_born_avg_vs_minus_half_hbar", abs(eq10_avg + 0.5 * hbar), CCR_EXACT_TOL),
    ]
    if pointer_corr is not None:
        checks.append(make_check("pointer_corr_vs_hbar_sigma2", pointer_resid, CCR_POINTER_RTOL))
    if mc_corr is not None:
        checks.append(make_check(
            "mc_corr_vs_exact_pointer", abs(mc_corr - pointer_corr), MC_SIGMA_BAND * mc_se
        ))
    sweep_rows = tuple((g_s, *pointer_stage(g_s)[1:]) for g_s in g_sweep)
    checks += [make_check(f"g_sweep_pointer_corr(g={g_s!r})", resid, CCR_POINTER_RTOL)
               for g_s, _, resid in sweep_rows]

    return CcrReport(
        representation=rep.basis_id,
        hbar=hbar, sigma=sigma, sigma_prime=sigma_prime, g=g,
        n_trials=n_trials, master_seed=seed,
        edge_amp=edge,
        avg_commutator=avg_comm,
        commutator_oracle=oracle,
        avg_commutator_vs_truncated_i_hbar=(
            abs(avg_comm - 1j * hbar * (1.0 - i.dim * edge**2)) if on_edge else None
        ),
        eq9_born_avg=eq9_avg,
        eq10_born_avg=eq10_avg,
        all_p_w_real=all_real,
        per_f=tuple(rows),
        per_f_lhs_min=min(lhs_values) if lhs_values else float("nan"),
        per_f_lhs_max=max(lhs_values) if lhs_values else float("nan"),
        pointer_corr_over_g2=pointer_corr,
        pointer_coverage=pointer_cov,
        mc_corr_over_g2=mc_corr,
        mc_stderr_over_g2=mc_se,
        mc_accepted=mc_accepted,
        mc_attempted=mc_attempted,
        mc_coverage=mc_cov,
        g_sweep_rows=sweep_rows,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class RiemannReport:
    """Weak value of the Hermitian part generator rho = {x,p}/2hbar."""

    representation: str
    hbar: float
    rho_w: complex
    r_w: complex
    correlation_form: complex  # (x_wbar p_w + p_wbar x_w) / 2 hbar, per-selection
    operator_vs_correlation: float
    eq25_lhs: float  # Re{x_w}Re{p_w} + Im{x_w}Im{p_w}
    eq25_rhs: complex  # hbar * rho_w: complex in general; mismatch is reported
    eq25_mismatch: float
    correlation_f_averaged: float
    rho_expectation: float
    hermiticity_residual: float
    half_line_residual: float
    half_line_method: str
    reference_zeros: tuple
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


RIEMANN_TOL = 1e-12


def riemann_ops(x_op: Operator, p_op: Operator, hbar: float) -> tuple[Operator, Operator]:
    """rho = {x,p}/2hbar and R = i p x / hbar.

    rho is Hermitian up to roundoff; its residual is not checked here but
    reported by riemann_experiment's rho_hermiticity check.
    """
    xp, px = _xp_px(x_op, p_op)
    # each matrix in one new buffer; xp and px may be read-only, so only
    # the buffers allocated here are written
    rho_m = np.add(xp, px)
    del xp
    rho_m /= 2.0 * hbar
    rho = Operator(x_op.basis_id, rho_m)
    del rho_m
    r_m = np.multiply(1j, px)
    del px
    r_m /= hbar
    return rho, Operator(x_op.basis_id, r_m)


def riemann_selections(rep, i: StateVector | None = None, f: StateVector | None = None):
    """The (i, f) pair riemann_experiment uses.

    i defaults to the Fock ground state (on a grid, the default CCR
    state), f to i.
    """
    if i is None:
        i = (
            basis_state(rep.dim, 0, rep.basis_id)
            if isinstance(rep, FockConfig)
            else _ccr_default_state(rep)
        )
    return i, i if f is None else f


def riemann_experiment(
    rep,
    i: StateVector | None = None,
    f: StateVector | None = None,
) -> RiemannReport:
    """Weak value of rho and the residuals tying R to the half line.

    The operator weak value <f|rho|i>/<f|i> and the per-selection
    correlation form generally differ; both are reported along with
    their difference rather than conflated.  The half-line residual
    ||(R + R^dag)/2 - 1/2|| is a matrix max-norm restricted to levels
    0..N-3 in the Fock representation; on a grid no finite level cut
    exists, so the residual of the same combination applied to the
    pre-selection state is reported instead.  A Fock ``rep`` of fewer than
    3 levels raises InvalidConfig before any work.
    """
    if isinstance(rep, FockConfig):
        require_precondition("riemann.rep.dim", rep.dim)
    x_op, p_op = _ccr_ops(rep)
    hbar = rep.hbar
    rho, r_hat = riemann_ops(x_op, p_op, hbar)
    i, f = riemann_selections(rep, i, f)
    check_truncation_edge(rep, i)

    herm_resid = hermitian_residual(rho.matrix)
    # (R + R^dag)/2 - 1/2 in one C-contiguous buffer, so the grid mat-vec
    # below takes the same BLAS path; subtracting 0 off the diagonal changes no bit
    half_line = hermitian_part(r_hat.matrix)
    half_line[np.diag_indices(rho.dim)] -= 0.5
    if isinstance(rep, FockConfig):
        safe = half_line[: rep.dim - 2, : rep.dim - 2]
        half_resid = float(np.max(np.abs(safe)))
        half_method = "matrix-max-norm(levels 0..N-3)"
    else:
        half_resid = float(np.linalg.norm(half_line @ i.amplitudes))
        half_method = "state-residual(pre-selection)"

    rho_w = weak_value(i, f, rho)
    r_w = 0.5 + 1j * rho_w
    corr_form = weak_anticommutator(i, f, x_op, p_op) / (2.0 * hbar)
    x_w = weak_value(i, f, x_op)
    p_w = weak_value(i, f, p_op)
    eq25_lhs = x_w.real * p_w.real + x_w.imag * p_w.imag
    eq25_rhs = hbar * rho_w
    avg_corr = (
        averaged_weak_correlation(i, NATURAL_BASIS, x_op, p_op, "anticommutator").real
        / (2.0 * hbar)
    )
    rho_exp = expectation(i, rho).real

    checks = (
        make_check("rho_hermiticity", herm_resid, RIEMANN_TOL),
        make_check("half_line_residual", half_resid, RIEMANN_TOL),
        make_check(
            "eq25_lhs_vs_re_xw_conj_pw",
            abs(eq25_lhs - (np.conj(x_w) * p_w).real),
            1e-13 * max(1.0, abs(x_w * p_w)),
        ),
        make_check(
            "f_averaged_correlation_vs_rho_expectation",
            abs(avg_corr - rho_exp),
            1e-10 * max(1.0, abs(rho_exp)),
        ),
    )
    return RiemannReport(
        representation=rep.basis_id,
        hbar=hbar,
        rho_w=rho_w,
        r_w=r_w,
        correlation_form=corr_form,
        operator_vs_correlation=abs(rho_w - corr_form),
        eq25_lhs=eq25_lhs,
        eq25_rhs=eq25_rhs,
        eq25_mismatch=abs(eq25_lhs - eq25_rhs),
        correlation_f_averaged=avg_corr,
        rho_expectation=rho_exp,
        hermiticity_residual=herm_resid,
        half_line_residual=half_resid,
        half_line_method=half_method,
        reference_zeros=REFERENCE_ZEROS,
        checks=checks,
    )


@dataclass(frozen=True)
class McReport:
    """Monte Carlo weak-value estimation against the closed form."""

    preset: str
    alpha: float | None
    dim: int | None
    sigma: float
    g: float
    n_trials: int
    master_seed: int
    target: complex
    re_est: float
    im_est: float
    stderr_re: float
    stderr_im: float
    attempted: int
    accepted_position: int
    accepted_momentum: int
    acceptance_expected: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def montecarlo_experiment(
    preset: str = "spin",
    alpha: float = math.pi / 2,
    dim: int = 8,
    sigma: float = 1.0,
    g: float = 0.05,
    n_trials: int = 40_000,
    seed: int = 0,
    hbar: float = 1.0,
    n_workers: int = 1,
) -> McReport:
    """Estimate a weak value from sampled pointer shifts.

    Presets: ``spin`` measures sigma_z between the xz-plane selections
    (closed form tan(alpha/2)); ``fock`` measures the position quadrature
    between the ground state and (|0> + |1>)/sqrt(2).  Both estimates
    must land within three standard errors of the closed form, and the
    acceptance rate of each readout stream (position: ``acceptance_vs_born``,
    momentum: ``momentum_acceptance_vs_born``) within three binomial
    standard errors of the exact selection probability.

    Raises InvalidConfig, before any work, for n_trials < 1, g == 0,
    sigma <= 0 or, under the fock preset, dim < 2, and GridResolutionError
    when the coupling kicks weight past a quarter of the pointer grid
    (at sigma = hbar = 1, |g| > 40.2 for the spin preset).
    """
    require_precondition("montecarlo.n_trials", n_trials)
    require_precondition("montecarlo.g", g)
    require_precondition("montecarlo.sigma", sigma)
    if preset == "spin":
        i, f = spin_selections(alpha)
        obs = pauli("z")
        rep_dim = None
    elif preset == "fock":
        require_precondition("montecarlo.dim", dim)
        fock = FockConfig(dim=dim, hbar=hbar)
        x_op, _ = make_fock_ops(fock)
        i = basis_state(fock.dim, 0, fock.basis_id)
        amps = np.zeros(fock.dim)
        amps[0] = amps[1] = 1.0
        f = StateVector(fock.basis_id, amps)
        obs = x_op
        rep_dim = fock.dim
    else:
        raise InvalidConfig(f"montecarlo preset must be spin or fock, got {preset!r}")

    target = weak_value(i, f, obs)
    # through the ensemble's name, which bench/tracer.py wraps
    stage = mc.measure_weakly(i, f, obs, sigma, g, pointer_grid(sigma, hbar))
    est = mc.estimate_weak_value(stage, sigma, g, n_trials, seed, n_workers)
    # roundoff can put a near-certain selection's probability just above 1
    q = min(stage.probability, 1.0)
    acc_se = math.sqrt(q * (1.0 - q) / n_trials)
    checks = (
        make_check(
            "re_est_within_3_stderr", abs(est.re_est - target.real),
            MC_SIGMA_BAND * est.stderr_re,
        ),
        make_check(
            "im_est_within_3_stderr", abs(est.im_est - target.imag),
            MC_SIGMA_BAND * est.stderr_im,
        ),
        # each readout stream accepts its own n_trials attempts at rate q
        *(
            make_check(name, abs(accepted / n_trials - q), MC_SIGMA_BAND * acc_se)
            for name, accepted in (
                ("acceptance_vs_born", est.accepted_position),
                ("momentum_acceptance_vs_born", est.accepted_momentum),
            )
        ),
    )
    return McReport(
        preset=preset,
        alpha=alpha if preset == "spin" else None,
        dim=rep_dim,
        sigma=sigma, g=g, n_trials=n_trials, master_seed=seed,
        target=target,
        re_est=est.re_est, im_est=est.im_est,
        stderr_re=est.stderr_re, stderr_im=est.stderr_im,
        attempted=est.attempted,
        accepted_position=est.accepted_position,
        accepted_momentum=est.accepted_momentum,
        acceptance_expected=q,
        checks=checks,
    )


@dataclass(frozen=True)
class ChainInstanceRow:
    """One random-instance check of the chain and symmetry identities."""

    seed: int
    n_ops: int
    chain_value: complex
    oracle_value: complex
    chain_residual: float
    order_swap_residual: float
    commutator_flip_residual: float


@dataclass(frozen=True)
class ChainReport:
    """Random-instance verification of chains and dual symmetries."""

    dim: int
    n_ops: int
    instances: tuple
    max_chain_residual: float
    max_order_swap: float
    max_commutator_flip: float
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


CHAIN_TOL = 1e-12


def _slide(window: dict, seeds, draw) -> dict:
    """{seed: draw} for ``seeds``, reusing the draws ``window`` already holds."""
    return {q: window[q] if q in window else draw(q) for q in seeds}


def chain_experiment(dim: int = 5, n_ops: int = 4, n_instances: int = 50, seed: int = 0) -> ChainReport:
    """Random chains vs the product-of-ratios oracle, plus dual symmetries.

    Instance ``inst`` draws i and f at seeds s and s + 1 and its operators
    at s + 2 .. s + 1 + n_ops, with s = _subseed(seed, inst) and each seed
    masked to 31 bits.  The next instance's s is one higher, so it shares
    all but one state seed and one operator seed with this one.  The draws
    of the current instance are kept in a window keyed by seed, and only
    the new seeds are drawn: instances + 1 states and instances + n_ops - 1
    operators in all.  The same seed gives the same draw, so every record
    equals that of drawing each instance afresh.

    Raises InvalidConfig, before any draw, for dim < 1, n_ops < 2 or
    n_instances < 1.
    """
    # looked up at call time, so a wrapper installed on hilbert is seen
    from .hilbert import random_hermitian, random_state
    from .weakcorr import alternating, chain_weak_correlation, symmetry_residuals

    for name, value in (("dim", dim), ("n_ops", n_ops), ("instances", n_instances)):
        require_precondition(f"chain.{name}", value)
    mask = 0x7FFFFFFF
    state_window, op_window = {}, {}
    rows = []
    for inst in range(n_instances):
        s = _subseed(seed, inst)
        state_window = _slide(
            state_window, [s & mask, (s + 1) & mask], lambda q: random_state(dim, q)
        )
        op_window = _slide(
            op_window, [(s + 2 + k) & mask for k in range(n_ops)],
            lambda q: random_hermitian(dim, q),
        )
        i, f = state_window.values()
        ops = list(op_window.values())
        states = alternating(i, f, n_ops)
        chain = chain_weak_correlation(states, ops)
        oracle = complex(1.0)
        for k in range(n_ops):
            lo, hi = states[k].amplitudes, states[k + 1].amplitudes
            oracle *= complex(np.vdot(hi, ops[k].matrix @ lo)) / complex(np.vdot(hi, lo))
        sym = symmetry_residuals(i, f, ops[0], ops[1])
        scale = max(1.0, abs(oracle))
        rows.append(
            ChainInstanceRow(
                seed=inst,
                n_ops=n_ops,
                chain_value=chain,
                oracle_value=oracle,
                chain_residual=abs(chain - oracle) / scale,
                order_swap_residual=sym.order_swap / scale,
                commutator_flip_residual=sym.commutator_flip / scale,
            )
        )
    max_chain = max(r.chain_residual for r in rows)
    max_swap = max(r.order_swap_residual for r in rows)
    max_flip = max(r.commutator_flip_residual for r in rows)
    checks = (
        make_check("chain_vs_product_of_ratios", max_chain, CHAIN_TOL),
        make_check("dual_order_swap", max_swap, CHAIN_TOL),
        make_check("dual_commutator_flip", max_flip, CHAIN_TOL),
    )
    return ChainReport(
        dim=dim, n_ops=n_ops, instances=tuple(rows),
        max_chain_residual=max_chain, max_order_swap=max_swap,
        max_commutator_flip=max_flip, checks=checks,
    )
