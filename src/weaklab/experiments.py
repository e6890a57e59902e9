"""Canned experiments with structured pass/fail reports.

Five experiments bind the machinery together: the Pauli spin suite with
its exact tan(alpha/2) targets, the canonical-commutator experiment
(exact averages, per-selection tables, pointer simulation and Monte
Carlo), the Riemann-operator weak value, random selection chains with
their dual symmetries, and Monte Carlo weak-value estimation from
sampled pointer shifts.  Every report carries a list of named
residual checks with pinned tolerances; the CLI turns them into exit
statuses.  A swept experiment (Pauli angles, the CCR coupling sweep,
chain instances) holds one row per point and checks each name once,
at its worst row (``worst``), so a check passes exactly when every
point does.

Where the bracket notation around operator products is ambiguous, the
reports deliberately show both readings: per-selection products for a
single mid-state next to Born-weighted averages over a complete basis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AlphaOutOfRange, InvalidConfig, NoAcceptedTrials, WeakLabError
from .hilbert import (
    EDGE_AMPLITUDE_WARN,
    FockConfig,
    GridConfig,
    Operator,
    StateVector,
    check_truncation_edge,
    coherent_state,
    edge_amplitude,
    eigenbasis,  # noqa: F401  (unused; bench/tracer.py wraps it under this name)
    eigensystem,
    gaussian_grid_state,
    hermitian_part,
    make_fock_ops,
    make_grid_ops,
    basis_state,
    pauli,
)
from . import ensemble as mc
# run_ccr_protocol is the one-selection form of run_ccr_protocols; it stays
# importable here because bench/tracer.py wraps it under this module's name.
from .pointer import (  # noqa: F401
    pointer_grid,
    run_ccr_protocol,
    run_ccr_protocols,
)
from .weakcorr import (
    ORTHOGONALITY_EPS,
    P_IMAG_TOL,
    averaged_weak_correlation,
    ccr_decomposition,
    selection_overlap,
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


class Report:
    """A report's verdict: it passed when each of its ``checks`` did.  No
    dataclass fields, so a report's record keeps its own keys in their order."""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def worst(residuals) -> float:
    """The largest of ``residuals``, NaN when any is NaN.

    A swept run checks each name once, at its worst row, so the check
    passes exactly when every row does.  Python's ``max`` would skip a NaN
    that is not first: max([0.1, nan, 0.05]) is 0.1.
    """
    return float(np.max(residuals))


# A pointer width: the pointer is exp(-x^2 / 4 sigma^2), and ccr divides by hbar sigma^2.
_WIDTH = (lambda v: v > 0 and 0 < v * v < math.inf, "> 0 with a positive, finite square")


# The largest trial budget.  Up to 2**53 a budget is an exact float, so
# ccr's allocation n_trials * w / sum(w) stays exact, and the int64
# binomial of the sampler holds it.
_MAX_TRIALS = 1 << 53

# The config preconditions that no other builder checks, by config path:
# (holds, what it needs).  Each experiment raises InvalidConfig from
# require_precondition before any work, and cli.validate_config calls it
# with the same path, one diagnostic per field.
PRECONDITIONS = {
    # 0 disables the Monte Carlo
    "ccr.n_trials": (lambda v: 0 <= v <= _MAX_TRIALS, ">= 0 and <= 2**53"),
    # the correlators divide by g**2, which must not underflow to 0
    "ccr.g": (lambda v: v * v > 0, "nonzero with g * g > 0"),
    "ccr.g_sweep": (lambda v: all(g * g > 0 for g in v), "couplings each with g * g > 0"),
    "ccr.sigma": _WIDTH,
    "ccr.sigma_prime": _WIDTH,
    # the draws need a dimension, the maxima an instance, and the dual
    # symmetries two operators
    "chain.dim": (lambda v: v >= 1, ">= 1"),
    "chain.n_ops": (lambda v: v >= 2, ">= 2"),
    "chain.instances": (lambda v: v >= 1, ">= 1"),
    "montecarlo.n_trials": (lambda v: 1 <= v <= _MAX_TRIALS, ">= 1 and <= 2**53"),  # per stream
    "montecarlo.g": (lambda v: v != 0, "!= 0"),  # the estimates divide by g
    "montecarlo.sigma": _WIDTH,
    "montecarlo.dim": (lambda v: v >= 2, ">= 2"),  # fock preset: f holds |1>
    # Fock only: the half-line residual is a maximum over levels 0..dim-3
    "riemann.rep.dim": (lambda v: v >= 3, ">= 3"),
}


def require_precondition(path: str, value) -> None:
    """Raises InvalidConfig when ``value`` fails the precondition of config ``path``."""
    holds, need = PRECONDITIONS[path]
    if not holds(value):
        raise InvalidConfig(f"{path.replace('.', ' ')} must be {need}, got {value!r}")


def spin_selections(alpha) -> tuple[StateVector, StateVector]:
    """(i, f): the xz-plane spin selections, i at angle alpha, f along +x.

    ``alpha`` is one angle, or a sequence of angles that makes i a stack
    with one column per angle.  Raises AlphaOutOfRange when some |alpha| is
    within 1e-6 of pi.
    """
    alphas = np.ravel(alpha).tolist()
    for a in alphas:
        if not abs(a) < math.pi - 1e-6:
            raise AlphaOutOfRange(f"|alpha| = {abs(a)} too close to pi: selections go orthogonal")
    c, s = np.array([(math.cos(a / 2.0), math.sin(a / 2.0)) for a in alphas]).T
    amps = np.array([c + s, c - s]) / math.sqrt(2.0)
    i = StateVector("spin-1/2", amps if np.ndim(alpha) else amps[:, 0])
    f = StateVector("spin-1/2", np.array([1.0, 1.0]) / math.sqrt(2.0))
    return i, f


@dataclass(frozen=True)
class PauliRow:
    """The weak Pauli values at one spin angle, and the largest of its residuals."""

    alpha: float
    tan_half: float
    sxsy: complex
    sysx: complex
    sz_w: complex
    anticommutator: complex
    commutator: complex
    max_residual: float


@dataclass(frozen=True)
class PauliReport(Report):
    """Weak Pauli (anti)commutator suite vs the exact closed forms, one row per angle."""

    rows: tuple
    checks: tuple


PAULI_TOL = 1e-12
_PAULI_CHECKS = (
    "sxsy_vs_i_tan", "sysx_vs_minus_i_tan", "sz_w_vs_tan",
    "anticommutator_vs_zero", "commutator_vs_2i_tan", "commutator_vs_2i_sz_w",
)


def pauli_suite(alphas) -> PauliReport:
    """sigma_x/sigma_y weak correlations at each spin angle of ``alphas``.

    Targets: <sx sy>_w = i tan(a/2), <sy sx>_w = -i tan(a/2),
    <sz>_w = tan(a/2), anticommutator 0, commutator 2i tan(a/2) and
    2i <sz>_w.  One check per target (``_PAULI_CHECKS``), at its worst
    angle.  The angles are one stack of pre-selections, so each weak value
    and correlation is evaluated once for all of them.  Raises
    AlphaOutOfRange for an angle within 1e-6 of +-pi.
    """
    alphas = list(alphas)
    if not alphas:
        raise InvalidConfig("the Pauli suite needs at least one angle")
    sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
    i, f = spin_selections(alphas)
    t = np.array([math.tan(alpha / 2.0) for alpha in alphas])
    sxsy = weak_correlation(i, f, sx, sy)
    sysx = weak_correlation(i, f, sy, sx)
    sz_w = weak_value(i, f, sz)
    anti = weak_anticommutator(i, f, sx, sy)
    comm = weak_commutator(i, f, sx, sy)
    residuals = np.abs([sxsy - 1j * t, sysx + 1j * t, sz_w - t,
                        anti, comm - 2j * t, comm - 2j * sz_w])  # one row per check
    columns = (t, sxsy, sysx, sz_w, anti, comm, np.max(residuals, axis=0))  # PauliRow's order
    rows = tuple(PauliRow(*row) for row in zip(alphas, *(c.tolist() for c in columns)))
    checks = tuple(
        make_check(name, worst(col), PAULI_TOL) for name, col in zip(_PAULI_CHECKS, residuals)
    )
    return PauliReport(rows=rows, checks=checks)


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


class GSweepRow(NamedTuple):
    """One g_sweep coupling's exact pointer_corr_over_g2 and its relative residual."""

    g: float
    pointer_corr_over_g2: float
    rel_residual: float


@dataclass(frozen=True)
class CcrReport(Report):
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
    commutator_oracle: complex  # direct <i|x p i> - <i|p x i>, by operator applications
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
    # exact correlator over the rows the Monte Carlo sampled: mc_corr_over_g2's target
    mc_exact_corr_over_g2: float | None
    mc_accepted: int | None
    mc_attempted: int | None
    mc_coverage: float | None
    g_sweep_rows: tuple
    checks: tuple


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


def ccr_default_width(length: float) -> float:
    """Width of the default grid initial Gaussian: length / 24."""
    return length / 24.0


def _ccr_default_state(rep) -> StateVector:
    if isinstance(rep, FockConfig):
        return coherent_state(rep, ccr_default_displacement(rep.dim))
    return gaussian_grid_state(rep, width=ccr_default_width(rep.length))


def _ccr_ops(rep):
    """x and p of a Fock or grid representation."""
    if isinstance(rep, FockConfig):
        return make_fock_ops(rep)
    if isinstance(rep, GridConfig):
        return make_grid_ops(rep)
    raise InvalidConfig(f"representation must be FockConfig or GridConfig, got {type(rep)!r}")


def _xp_px_on(x_op: Operator, p_op: Operator, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x p psi, p x psi), each from two operator applications.

    ``psi`` is a state's amplitudes; for a dense pair it may be the
    identity, which gives the dense products x p and p x themselves.
    """
    return x_op.apply(p_op.apply(psi)), p_op.apply(x_op.apply(psi))


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
) -> CcrReport:
    """Measure [x,p] = i hbar every way the machinery allows.

    (a) exact Born-averaged weak commutator over the representation's
    natural basis, against both i*hbar and the direct truncated
    expectation; (b) per-selection real-part combinations over the
    momentum eigenbasis and their Born average vs hbar/2 (its eigenvalues
    and row weights: hbar k and |FFT(i)|^2 / n on a grid, one ``eigh`` of
    p in Fock; the admissible rows are one stack of states, decomposed in
    one ``ccr_decomposition``); (c) the simplified Im{x_w} p_w average vs
    -hbar/2 (momentum mid-selections make every p_w real); (d) the exact
    two-pointer correlator vs hbar * sigma^2 and, when ``n_trials`` > 0,
    its Monte Carlo estimate vs the exact correlator over the rows it
    sampled (``mc_exact_corr_over_g2``).

    ``g_sweep`` reruns only the exact pointer stage, at each of its
    couplings and also under ``run_pointer=False``: one ``GSweepRow`` each
    in ``g_sweep_rows``, and one ``g_sweep_pointer_corr`` check at the worst
    of them.

    ``n_trials`` is the total attempt budget, allocated over the
    mid-selections proportionally to their Born weights; a positive budget
    that leaves no selection its 25 expected accepted trials raises
    NoAcceptedTrials, and one under ``run_pointer=False`` raises
    InvalidConfig before any work.  A budget outside [0, 2**53], a ``g`` or
    ``g_sweep`` coupling whose square is 0, a pointer width ``sigma`` or
    ``sigma_prime`` that is not positive or whose square overflows or
    underflows, or an ``hbar * sigma**2`` outside the normal floats raises
    InvalidConfig before any work, also under ``run_pointer=False``.  Each
    pointer lives on ``pointer_grid`` of its width.
    """
    require_precondition("ccr.n_trials", n_trials)
    require_precondition("ccr.g", g)
    require_precondition("ccr.g_sweep", g_sweep)
    require_precondition("ccr.sigma", sigma)
    require_precondition("ccr.sigma_prime", sigma_prime)
    # the pointer residual is relative to hbar sigma^2, which no per-field bound sees
    if not sys.float_info.min <= rep.hbar * sigma**2 < math.inf:
        raise InvalidConfig(
            f"ccr must be run at a positive normal hbar * sigma**2, got "
            f"{rep.hbar!r} * {sigma!r}**2 = {rep.hbar * sigma**2!r}"
        )
    # the trials run on the pointer chains, so a record must not claim them without one
    if not run_pointer and n_trials > 0:
        raise InvalidConfig(f"ccr n_trials must be 0 under run_pointer=False, got {n_trials!r}")
    x_op, p_op = _ccr_ops(rep)
    hbar = rep.hbar
    i = i_spec if i_spec is not None else _ccr_default_state(rep)
    if i.basis_id != x_op.basis_id:
        raise InvalidConfig("i_spec does not live on the representation basis")
    edge = check_truncation_edge(rep, i)

    # (a) exact f-average over the natural basis
    avg_comm = averaged_weak_correlation(i, x_op, p_op, "commutator")
    xp_i, px_i = _xp_px_on(x_op, p_op, i.amplitudes)
    oracle = complex(np.vdot(i.amplitudes, xp_i - px_i))  # <i|x p i> - <i|p x i>

    # (b, c) momentum basis as eigenvalues and weights |<f_j|i>|^2; the
    # admissible rows are one stack of mid-selections (on a grid, plane waves)
    if isinstance(rep, GridConfig):
        p_eigs = hbar * np.fft.fftshift(rep.wavenumbers())
        weights = np.abs(np.fft.fftshift(np.fft.fft(i.amplitudes))) ** 2 / rep.n_points
    else:
        p_eigs, v = eigensystem(p_op)
        weights = np.abs(i.amplitudes.conj() @ v) ** 2  # |(v^dag i)_j|^2
    admissible = weights > ORTHOGONALITY_EPS**2  # overlap above the orthogonality eps
    adm = np.flatnonzero(admissible)
    w_adm = weights[adm]
    columns = rep.plane_waves(adm) if isinstance(rep, GridConfig) else v[:, adm]
    mids = StateVector(rep.basis_id, columns)
    decomp = ccr_decomposition(i, mids, x_op, p_op)
    eq9_avg = math.fsum(w_adm * decomp.lhs)
    eq10_avg = math.fsum(w_adm * decomp.simplified_lhs)
    # A row decides all_p_w_real only when the roundoff bound of its ratio
    # p_w = <f|p|i>/<f|i>, u (||p i|| + |p_w|) / |<f|i>|, is at most
    # _ROUNDOFF_SHARE of its p_imag_is_zero tolerance; past that, roundoff
    # alone can reach the tolerance.
    p_i_norm = float(np.linalg.norm(p_op.apply(i.amplitudes)))
    p_w_size = np.abs(decomp.p_w)
    decides = (_UNIT_ROUNDOFF * (p_i_norm + p_w_size) / np.sqrt(w_adm)
               <= _ROUNDOFF_SHARE * P_IMAG_TOL * np.maximum(1.0, p_w_size))
    all_real = bool(np.all(decomp.p_imag_is_zero | ~decides))

    # (d) pointer + Monte Carlo over the dominant mid-selections; only d depends on g
    chains, stats = {}, {}
    pointer_corr = pointer_resid = pointer_cov = None
    mc_corr = mc_se = mc_exact = mc_cov = mc_accepted = mc_attempted = None
    if run_pointer or g_sweep:
        grid = pointer_grid(sigma, hbar)
        grid_prime = pointer_grid(sigma_prime, hbar)
        order = np.argsort(weights)[::-1]
        cum = np.cumsum(weights[order])
        n_keep = int(np.searchsorted(cum, _POINTER_COVERAGE * cum[-1])) + 1
        w_cut = weights[order[n_keep - 1]] * (1.0 - _POINTER_TIE_RTOL)
        n_keep = int(np.count_nonzero(weights[order] >= w_cut))  # order is descending
        keep = [int(j) for j in order[:n_keep] if admissible[j]]

        # the kept columns, normalized as in mids (a column's norm is its own);
        # each final is a p eigenvector, so stage two expands exactly on them
        finals = StateVector(rep.basis_id, columns[:, np.searchsorted(adm, keep)])
        p_kept = (p_eigs[keep], finals.amplitudes)
        del columns, mids  # no reader past here: the pointer stages need not hold them

    def corr_over_g2(chains, rows, g_s):  # the exact two-pointer correlator over rows
        return math.fsum(weights[j] * chains[j].dx_d * chains[j].dx_d_prime for j in rows) / g_s**2

    def pointer_stage(g_s):  # -> chains, pointer_corr_over_g2, its relative residual
        try:
            protocols = run_ccr_protocols(
                i, finals, x_op, p_op, sigma, sigma_prime, g_s, grid, grid_prime,
                p_eigensystem=p_kept,
            )
        except WeakLabError as exc:  # name the row by the index the report uses
            if exc.row is not None:
                exc.rename_row("selection", keep[exc.row])
            raise
        chains = dict(zip(keep, protocols))
        corr = corr_over_g2(chains, keep, g_s)
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
                stats[j] = mc.run_trials(chains[j], int(a), _subseed(seed, j))
                mc_accepted += stats[j].accepted
                mc_attempted += stats[j].attempted
                mc_cov += float(weights[j])
            mc_corr = math.fsum(weights[j] * st.mean_product for j, st in stats.items()) / g**2
            mc_exact = corr_over_g2(chains, stats, g)
            mc_se = math.sqrt(
                math.fsum((weights[j] * st.stderr_product) ** 2 for j, st in stats.items())
            ) / g**2

    rows = []
    exact = (decomp.x_w, decomp.p_w, decomp.lhs, decomp.simplified_lhs)  # MidSelectionRow's order
    for j, *values in zip(adm.tolist(), *(column.tolist() for column in exact)):
        chain, st = chains.get(j), stats.get(j)
        rows.append(MidSelectionRow(
            j, float(p_eigs[j]), float(weights[j]), *values,
            **({} if chain is None else dict(
                dx_d=chain.dx_d, dx_d_prime=chain.dx_d_prime,
                product_over_g2=chain.dx_d * chain.dx_d_prime / g**2,
            )),
            **({} if st is None else dict(
                mc_mean_product=st.mean_product, mc_stderr_product=st.stderr_product,
                mc_accepted=st.accepted, mc_attempted=st.attempted,
            )),
        ))

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
            "mc_corr_vs_exact_pointer", abs(mc_corr - mc_exact), MC_SIGMA_BAND * mc_se
        ))
    sweep_rows = tuple(GSweepRow(g_s, *pointer_stage(g_s)[1:]) for g_s in g_sweep)
    if sweep_rows:
        checks.append(make_check(
            "g_sweep_pointer_corr", worst([row.rel_residual for row in sweep_rows]),
            CCR_POINTER_RTOL,
        ))

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
        per_f_lhs_min=min(decomp.lhs.tolist()),
        per_f_lhs_max=max(decomp.lhs.tolist()),
        pointer_corr_over_g2=pointer_corr,
        pointer_coverage=pointer_cov,
        mc_corr_over_g2=mc_corr,
        mc_stderr_over_g2=mc_se,
        mc_exact_corr_over_g2=mc_exact,
        mc_accepted=mc_accepted,
        mc_attempted=mc_attempted,
        mc_coverage=mc_cov,
        g_sweep_rows=sweep_rows,
        checks=tuple(checks),
    )


@dataclass(frozen=True)
class RiemannReport(Report):
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
    hermiticity_residual: float  # |<a|rho b> - <rho a|b>| on two fixed unit probes
    half_line_residual: float
    half_line_method: str
    reference_zeros: tuple
    checks: tuple


RIEMANN_TOL = 1e-12
# Relative tolerances of eq25_lhs_vs_re_xw_conj_pw and f_averaged_correlation_vs_rho_expectation
RIEMANN_EQ25_RTOL = 1e-13
RIEMANN_AVERAGE_RTOL = 1e-10


# Seed of the two unit probes of rho_hermiticity: fixed, so replay is bit-identical.
_HERMITICITY_PROBE_SEED = 0


def _rho_on(x_op: Operator, p_op: Operator, hbar: float, psi: np.ndarray) -> np.ndarray:
    """rho psi = (x p psi + p x psi) / 2 hbar, from operator applications."""
    xp, px = _xp_px_on(x_op, p_op, psi)
    out = np.add(xp, px)
    out /= 2.0 * hbar
    return out


def _rho_hermiticity(x_op: Operator, p_op: Operator, hbar: float) -> float:
    """|<a|rho b> - <rho a|b>| on two fixed unit probes a and b.

    The probes are complex Gaussian vectors drawn at a fixed seed, so every
    level and wavenumber enters; a Hermitian rho gives 0 up to roundoff.
    """
    rng = np.random.default_rng(_HERMITICITY_PROBE_SEED)
    a, b = rng.standard_normal((2, x_op.dim)) + 1j * rng.standard_normal((2, x_op.dim))
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    rho_a, rho_b = (_rho_on(x_op, p_op, hbar, v) for v in (a, b))
    return abs(complex(np.vdot(a, rho_b)) - complex(np.vdot(rho_a, b)))


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

    rho = {x,p}/2hbar and R = i p x / hbar are applied to states, never
    built: rho|i> = (x p i + p x i)/2hbar from operator applications.  The
    operator weak value <f|rho|i>/<f|i> and the per-selection correlation
    form generally differ; both are reported along with their difference
    rather than conflated.  ``rho_hermiticity`` is |<a|rho b> - <rho a|b>|
    on two fixed unit probes, through the same rho applications.  The
    half-line residual ||(R + R^dag)/2 - 1/2|| is a matrix max-norm
    restricted to levels 0..N-3 in the Fock representation, from the dense
    products x p and p x; on a grid no finite level cut exists, so the
    residual of the same combination applied to the pre-selection state,
    ||(i/2hbar)(p x i - x p i) - i/2||, is reported instead.  A Fock
    ``rep`` of fewer than 3 levels raises InvalidConfig before any work.
    """
    if isinstance(rep, FockConfig):
        require_precondition("riemann.rep.dim", rep.dim)
    x_op, p_op = _ccr_ops(rep)
    hbar = rep.hbar
    i, f = riemann_selections(rep, i, f)
    check_truncation_edge(rep, i)
    psi = i.amplitudes

    herm_resid = _rho_hermiticity(x_op, p_op, hbar)
    if isinstance(rep, FockConfig):
        # (R + R^dag)/2 - 1/2 as a dense matrix, R = i p x / hbar; the
        # identity's columns give the product p x itself
        r_m = np.multiply(1j, _xp_px_on(x_op, p_op, np.eye(rep.dim))[1])
        r_m /= hbar
        half_line = hermitian_part(r_m)
        half_line[np.diag_indices(rep.dim)] -= 0.5
        half_resid = float(np.max(np.abs(half_line[: rep.dim - 2, : rep.dim - 2])))
        half_method = "matrix-max-norm(levels 0..N-3)"
    else:
        xp_i, px_i = _xp_px_on(x_op, p_op, psi)
        half = px_i - xp_i
        half *= 0.5j / hbar
        half -= 0.5 * psi
        half_resid = float(np.linalg.norm(half))
        half_method = "state-residual(pre-selection)"

    rho_i = _rho_on(x_op, p_op, hbar, psi)
    rho_w = complex(np.vdot(f.amplitudes, rho_i)) / selection_overlap(f, i)
    r_w = 0.5 + 1j * rho_w
    corr_form = weak_anticommutator(i, f, x_op, p_op) / (2.0 * hbar)
    x_w = weak_value(i, f, x_op)
    p_w = weak_value(i, f, p_op)
    eq25_lhs = x_w.real * p_w.real + x_w.imag * p_w.imag
    eq25_rhs = hbar * rho_w
    avg_corr = (
        averaged_weak_correlation(i, x_op, p_op, "anticommutator").real
        / (2.0 * hbar)
    )
    rho_exp = complex(np.vdot(psi, rho_i)).real

    checks = (
        make_check("rho_hermiticity", herm_resid, RIEMANN_TOL),
        make_check("half_line_residual", half_resid, RIEMANN_TOL),
        make_check(
            "eq25_lhs_vs_re_xw_conj_pw",
            abs(eq25_lhs - (np.conj(x_w) * p_w).real),
            RIEMANN_EQ25_RTOL * max(1.0, abs(x_w * p_w)),
        ),
        make_check(
            "f_averaged_correlation_vs_rho_expectation",
            abs(avg_corr - rho_exp),
            RIEMANN_AVERAGE_RTOL * max(1.0, abs(rho_exp)),
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
class McReport(Report):
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


def montecarlo_selections(preset: str, alpha: float, dim: int, hbar: float):
    """(i, f, observable) of a montecarlo preset.

    ``spin``: sigma_z between the xz-plane selections at angle alpha;
    ``fock``: the position quadrature of ``dim`` levels between the ground
    state and (|0> + |1>)/sqrt(2).  Raises AlphaOutOfRange, InvalidConfig
    for a fock ``dim`` below 2, or InvalidConfig for an unknown preset.
    """
    if preset == "spin":
        return (*spin_selections(alpha), pauli("z"))
    if preset != "fock":
        raise InvalidConfig(f"montecarlo preset must be spin or fock, got {preset!r}")
    require_precondition("montecarlo.dim", dim)
    fock = FockConfig(dim=dim, hbar=hbar)
    amps = np.zeros(fock.dim)
    amps[0] = amps[1] = 1.0
    return (
        basis_state(fock.dim, 0, fock.basis_id),
        StateVector(fock.basis_id, amps),
        make_fock_ops(fock)[0],
    )


def montecarlo_experiment(
    preset: str = "spin",
    alpha: float = math.pi / 2,
    dim: int = 8,
    sigma: float = 1.0,
    g: float = 0.05,
    n_trials: int = 40_000,
    seed: int = 0,
    hbar: float = 1.0,
) -> McReport:
    """Estimate a weak value from sampled pointer shifts.

    Presets: ``spin`` measures sigma_z between the xz-plane selections
    (closed form tan(alpha/2)); ``fock`` measures the position quadrature
    between the ground state and (|0> + |1>)/sqrt(2).  Both estimates
    must land within three standard errors of the closed form, and the
    acceptance rate of each readout stream (position: ``acceptance_vs_born``,
    momentum: ``momentum_acceptance_vs_born``) within three binomial
    standard errors of the exact selection probability.

    Raises InvalidConfig, before any work, for n_trials outside
    [1, 2**53], g == 0, a sigma that is not positive or whose square
    overflows or underflows, or, under the fock preset, dim < 2, and
    GridResolutionError when the coupling kicks weight past a quarter of
    the pointer grid (at sigma = hbar = 1, |g| > 40.2 for the spin preset).
    """
    require_precondition("montecarlo.n_trials", n_trials)
    require_precondition("montecarlo.g", g)
    require_precondition("montecarlo.sigma", sigma)
    i, f, obs = montecarlo_selections(preset, alpha, dim, hbar)

    target = weak_value(i, f, obs)
    # through the ensemble's name, which bench/tracer.py wraps
    stage = mc.measure_weakly(i, f, obs, sigma, g, pointer_grid(sigma, hbar))
    est = mc.estimate_weak_value(stage, sigma, g, n_trials, seed)
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
        dim=dim if preset == "fock" else None,
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
class ChainReport(Report):
    """Random-instance verification of chains and dual symmetries."""

    dim: int
    n_ops: int
    instances: tuple
    max_chain_residual: float
    max_order_swap: float
    max_commutator_flip: float
    checks: tuple


CHAIN_TOL = 1e-12


# Operator entries per block of chain instances: 2**16 complex entries, 1 MiB,
# the size of hilbert's slabs.  A block holds at least n_ops - 1 instances, so
# the n_ops - 1 operators it carries over cost at most one copy per instance.
_CHAIN_BLOCK_ENTRIES = 1 << 16


def _chain_block_rows(start: int, i: StateVector, f: StateVector, block: np.ndarray) -> list:
    """The ChainInstanceRows of instances start, start + 1, ..: row r pairs
    column r of the stacks i and f, and its gap j takes block[r + j]."""
    from .weakcorr import alternating, chain_weak_correlation, symmetry_residuals

    width = i.amplitudes.shape[1]
    n_ops = block.shape[0] - width + 1
    ops = [Operator(i.basis_id, block[j:j + width]) for j in range(n_ops)]
    try:
        chain = chain_weak_correlation(alternating(i, f, n_ops), ops)
        sym = symmetry_residuals(i, f, ops[0], ops[1])
    except WeakLabError as exc:
        if exc.row is not None:
            exc.rename_row("instance", start + exc.row)
        raise
    # the oracle: each gap's matrix elements and overlaps over the block,
    # then each row's product of ratios in Python complex arithmetic
    rows_i, rows_f = i.amplitudes.T, f.amplitudes.T
    elements, overlaps = [], []
    for j, op in enumerate(ops):
        lo, hi = (rows_i, rows_f) if j % 2 == 0 else (rows_f, rows_i)
        elements.append(np.vecdot(hi, np.matmul(op.matrix, lo[..., None])[..., 0]).tolist())
        overlaps.append(np.vecdot(hi, lo).tolist())
    rows = []
    for r, (value, swap, flip) in enumerate(zip(
            chain.tolist(), sym.order_swap.tolist(), sym.commutator_flip.tolist())):
        oracle = complex(1.0)
        for element, overlap in zip(elements, overlaps):
            oracle *= element[r] / overlap[r]
        scale = max(1.0, abs(oracle))
        rows.append(ChainInstanceRow(
            seed=start + r, n_ops=n_ops, chain_value=value, oracle_value=oracle,
            chain_residual=abs(value - oracle) / scale,
            order_swap_residual=swap / scale, commutator_flip_residual=flip / scale,
        ))
    return rows


def chain_experiment(dim: int = 5, n_ops: int = 4, n_instances: int = 50, seed: int = 0) -> ChainReport:
    """Random chains vs the product-of-ratios oracle, plus dual symmetries.

    Instance ``inst`` draws i and f at seeds s and s + 1 and its operators
    at s + 2 .. s + 1 + n_ops, with s = _subseed(seed, inst) and each seed
    masked to 31 bits.  The next instance's s is one higher: its i is this
    instance's f, and it shares all but one operator with this one.  So
    instances + 1 states and instances + n_ops - 1 operators are drawn in
    all, each seed once per kind, and every record equals that of drawing
    each instance afresh.

    The two kinds share generator streams.  ``random_state(dim, s)`` reads
    the same 2 dim normals that begin ``random_hermitian(dim, s)``'s draw,
    and instance inst's first operator is drawn at s + 2, the seed of
    instance inst + 2's i.  So the first two rows of that operator's draw
    (before its Hermitian part is taken) are that state's amplitudes before
    normalization: the instances are not independent draws.  The seeds stay
    as they are, since separating the streams moves every chain record.

    Instances are evaluated a block at a time, one row of the block's
    stacks each.  The block's operators are drawn into one buffer of at
    most _CHAIN_BLOCK_ENTRIES entries, or of 2 (n_ops - 1) operators when
    that is more, frozen while the block is evaluated; gap j of row r takes
    operator r + j, so each gap's stack is a view of that buffer.  The last
    state and n_ops - 1 operators carry over to the next block.  A row's
    bits do not depend on its block.

    Raises InvalidConfig, before any draw, for dim < 1, n_ops < 2 or
    n_instances < 1, and WeakLabError for a chain whose products leave the
    normal float range (``chain_weak_correlation``).  A failing row's
    error names its instance.
    """
    # looked up at call time, so a wrapper installed on hilbert is seen
    from .hilbert import random_hermitian, random_state

    for name, value in (("dim", dim), ("n_ops", n_ops), ("instances", n_instances)):
        require_precondition(f"chain.{name}", value)
    mask = 0x7FFFFFFF
    width = min(n_instances, max(n_ops - 1, _CHAIN_BLOCK_ENTRIES // (dim * dim) - (n_ops - 1)))
    buffer = np.empty((width + n_ops - 1, dim, dim), dtype=complex)
    states, rows = [], []
    for start in range(0, n_instances, width):
        stop = min(start + width, n_instances)
        states = states[-1:]
        states += [random_state(dim, _subseed(seed, t) & mask)
                   for t in range(start + len(states), stop + 1)]
        # the last block's operators died with _chain_block_rows, so its
        # buffer is written again: first the n_ops - 1 carried over
        buffer.flags.writeable = True
        carried = 0 if start == 0 else n_ops - 1
        buffer[:carried] = buffer[width:width + carried]
        for t in range(start + carried, stop + n_ops - 1):
            buffer[t - start] = random_hermitian(dim, (_subseed(seed, t) + 2) & mask).matrix
        buffer.flags.writeable = False
        block = buffer[:stop - start + n_ops - 1]
        rows += _chain_block_rows(start, StateVector.stack(states[:-1]), StateVector.stack(states[1:]), block)
    max_chain = worst([r.chain_residual for r in rows])
    max_swap = worst([r.order_swap_residual for r in rows])
    max_flip = worst([r.commutator_flip_residual for r in rows])
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
