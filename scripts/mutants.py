#!/usr/bin/env python3
"""Run tier-1 against hand-made text mutants of weaklab and list the survivors.

Each mutant is one (name, file, old, new) text replacement, and ``old``
occurs exactly once in its file.  The repository is copied to a temporary
directory, and each mutant is applied there in turn, never to the checkout.
The tier-1 suite runs against it with ``-x``, less the test that checks
these texts against the tree.  A mutant that the suite passes has
survived: no test sees that defect.

    python scripts/mutants.py

Prints one line per mutant and then the survivors.  Exits 0 when every
mutant is killed and 1 when any survives.  A mutant takes as long as
tier-1 takes to reach its first failure, up to the whole suite (about 25 s
on 2 vCPUs) for a survivor.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPERIMENTS = "src/weaklab/experiments.py"
WEAKCORR = "src/weaklab/weakcorr.py"
POINTER = "src/weaklab/pointer.py"
CLI = "src/weaklab/cli.py"
ENSEMBLE = "src/weaklab/ensemble.py"
HILBERT = "src/weaklab/hilbert.py"

MUTANTS = (
    ("chain operator window off by one", EXPERIMENTS,
     "ops = [Operator(i.basis_id, block[j:j + width]) for j in range(n_ops)]",
     "ops = [Operator(i.basis_id, block[j + 1:j + 1 + width]) for j in range(n_ops)]"),
    ("oracle lo/hi parity swapped", EXPERIMENTS,
     "lo, hi = (rows_i, rows_f) if j % 2 == 0 else (rows_f, rows_i)",
     "lo, hi = (rows_f, rows_i) if j % 2 == 0 else (rows_i, rows_f)"),
    ("per-row overlap check dropped", WEAKCORR,
     "raise_first_row(size <= ORTHOGONALITY_EPS, OrthogonalSelection,",
     "raise_first_row(size < 0, OrthogonalSelection,"),
    ("oracle overlap conjugated", EXPERIMENTS,
     "overlaps.append(np.vecdot(hi, lo).tolist())",
     "overlaps.append(np.vecdot(lo, hi).tolist())"),
    ("worst is the min", EXPERIMENTS,
     "return float(np.max(residuals))",
     "return float(np.min(residuals))"),
    ("mc_corr negated", EXPERIMENTS,
     "mc_corr = math.fsum(",
     "mc_corr = -math.fsum("),
    ("ccr pointer tolerance x 10", EXPERIMENTS,
     "CCR_POINTER_RTOL = 0.02",
     "CCR_POINTER_RTOL = 0.2"),
    ("coupled observable's Hermiticity guard dropped", POINTER,
     'require_hermitian(op, "coupled observable")',
     "pass"),
    ("ccr names the stack row, not the mid-selection", EXPERIMENTS,
     'exc.rename_row("selection", keep[exc.row])',
     'exc.rename_row("selection", exc.row)'),
    ("chain names the block row, not the instance", EXPERIMENTS,
     'exc.rename_row("instance", start + exc.row)',
     'exc.rename_row("instance", exc.row)'),
    ("wrap share x 1e6", POINTER,
     "wrapped > WRAP_SHARE * total",
     "wrapped > WRAP_SHARE * 1e6 * total"),
    ("CSV _im cell written from the real part", CLI,
     "else row[name][part] for name, part in columns]",
     'else row[name]["re"] for name, part in columns]'),
    ("stage kernel times hbar", POINTER,
     "kernel /= grid.hbar",
     "kernel *= grid.hbar"),
    ("stage position coupling sign flipped", POINTER,
     "kernel /= grid.hbar",
     "kernel /= -grid.hbar"),
    ("stage skips the last partial slab", POINTER,
     "for start in range(0, axis.size, step):",
     "for start in range(0, axis.size - axis.size % step, step):"),
    ("chirp convolution sign flipped", POINTER,
     "chirp = np.fft.fft(np.exp(-0.5j * b * k * k))",
     "chirp = np.fft.fft(np.exp(0.5j * b * k * k))"),
    ("chirp convolution index off by one", POINTER,
     "k += lc - jc  # j' - l'",
     "k += lc - jc + 1  # j' - l'"),
    ("chirp skips the last partial slab of rows", POINTER,
     "for start in range(0, coeffs.shape[0], per_slab):",
     "for start in range(0, coeffs.shape[0] - coeffs.shape[0] % per_slab, per_slab):"),
    ("predicted position shift times hbar", POINTER,
     "complex(x_w).imag / hbar",
     "complex(x_w).imag * hbar"),
    ("sampler skips the last partial slab of cells", ENSEMBLE,
     "for start in range(0, counts.size, step):",
     "for start in range(0, counts.size - counts.size % step, step):"),
    ("sampler's second-moment column is v', not v'^2", ENSEMBLE,
     "powers = np.stack([values2, values2 * values2], axis=1)",
     "powers = np.stack([values2, values2], axis=1)"),
    ("ccr's grid Born weights in FFT order, not ascending", EXPERIMENTS,
     "weights = np.abs(np.fft.fftshift(np.fft.fft(i.amplitudes))) ** 2 / rep.n_points",
     "weights = np.abs(np.fft.fft(i.amplitudes)) ** 2 / rep.n_points"),
    ("ccr's least expected accepted count / 10", EXPERIMENTS,
     "_MC_MIN_EXPECTED_ACCEPTED = 25.0",
     "_MC_MIN_EXPECTED_ACCEPTED = 2.5"),
    ("sampler's stderr halved", ENSEMBLE,
     "return accepted, (mean, math.sqrt(var / accepted))",
     "return accepted, (mean, 0.5 * math.sqrt(var / accepted))"),
    ("pauli tolerance x 10", EXPERIMENTS,
     "PAULI_TOL = 1e-12",
     "PAULI_TOL = 1e-11"),
    ("montecarlo acceptance stderr x 0", EXPERIMENTS,
     "acc_se = math.sqrt(q * (1.0 - q) / n_trials)",
     "acc_se = 0.0 * math.sqrt(q * (1.0 - q) / n_trials)"),
    ("spectral eigenvalues without the scale", HILBERT,
     "return op.scale * np.real(op.spectrum),",
     "return np.real(op.spectrum),"),
)

IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 "*.egg-info", "weaklab-out", ".bench_out")


def run_suite(repo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    # The test that each mutant's ``old`` text occurs once in its file fails
    # on every mutant, whose text is replaced; it would kill them all.
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_scripts.py::test_each_mutant_text_occurs_once_in_its_file"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=1800,
    )


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory(prefix="weaklab-mutants-") as tmp:
        repo = Path(tmp) / "repo"
        shutil.copytree(ROOT, repo, ignore=IGNORED)
        for name, file, old, new in MUTANTS:
            path = repo / file
            original = path.read_text()
            if original.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {original.count(old)} times in {file}")
            path.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                passed = run_suite(repo).returncode == 0
            except subprocess.TimeoutExpired:  # a suite that hangs has not passed
                passed = False
            finally:
                path.write_text(original)
            print(f"{'SURVIVED' if passed else 'killed  '} {time.perf_counter() - start:6.1f} s  {name}",
                  flush=True)
            if passed:
                survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + "".join(f"\n  {s}" for s in survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
