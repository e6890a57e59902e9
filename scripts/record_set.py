#!/usr/bin/env python3
"""Write the records of a fixed set of weaklab runs, one directory each.

Runs every invocation below in this process, each into ``OUT/<name>/``:
the commands of the four benchmark workloads at their default seeds (taken
from ``bench/run.py``), the five default experiment runs, a grid ``ccr``
with Monte Carlo, a Fock ``montecarlo``, a Fock ``riemann`` with
displaced selections, four runs that reach the pointer's hbar and the
coupling sweep (a Fock ``ccr`` with Monte Carlo at hbar = 0.5, a Fock and
a grid ``ccr`` g-sweep, and a Fock-preset ``montecarlo`` at hbar = 0.5),
a grid ``riemann`` at 2048 points, where the dense grid matrices are
largest, and two couplings near the pointer's wrap guard (a spin
``montecarlo`` at g = 40, the largest the guard admits at sigma = 1, and
a Fock ``ccr`` at g = 0.3).
Two such directories, from two versions of the code, are compared with
``scripts/record_diff.py A B``.

    python scripts/record_set.py /tmp/records-old

Exits 0 when every run wrote its record (a failed check still writes
one), 1 otherwise.
"""

import argparse
import contextlib
import importlib.util
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FOCK_RIEMANN_YAML = (
    'experiment: riemann\nriemann: {i_displacement: "1+1j", f_displacement: 0.5}\n'
)


def _bench():
    spec = importlib.util.spec_from_file_location("weaklab_bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def invocations(config_dir: Path) -> list:
    """(name, argv) of every run, without --out."""
    bench = _bench()
    runs = []
    for workload, (seed, _) in bench.WORKLOADS.items():
        calls = bench.workload_invocations(workload, seed)
        runs += [(workload if len(calls) == 1 else f"{workload}-{label}", argv)
                 for label, argv in calls]
    runs += [(f"default-{experiment}", [experiment])
             for experiment in ("pauli", "ccr", "riemann", "chain", "montecarlo")]
    config = config_dir / "fock-riemann.yaml"
    config.write_text(FOCK_RIEMANN_YAML)
    runs += [
        ("ccr-grid128-mc", ["ccr", "--rep", "grid", "--points", "128", "--n-trials", "2000000",
                            "--seed", "9", "--format", "both"]),
        ("montecarlo-fock8", ["montecarlo", "--preset", "fock", "--dim", "8",
                              "--n-trials", "3000000", "--seed", "5", "--format", "both"]),
        ("riemann-fock-displaced", ["riemann", "--config", str(config)]),
        ("ccr-fock32-hbar0.5-mc", ["ccr", "--dim", "32", "--hbar", "0.5", "--n-trials", "400000",
                                   "--seed", "3", "--format", "both"]),
        ("ccr-fock32-g-sweep", ["ccr", "--dim", "32", "--n-trials", "0",
                                "--g-sweep", "0.01,0.02,-0.05", "--format", "both"]),
        ("ccr-grid128-g-sweep", ["ccr", "--rep", "grid", "--points", "128", "--n-trials", "0",
                                 "--g-sweep", "0.01,-0.03", "--format", "both"]),
        ("montecarlo-fock-hbar0.5", ["montecarlo", "--preset", "fock", "--hbar", "0.5",
                                     "--n-trials", "2000000", "--seed", "4"]),
        ("riemann-grid2048", ["riemann", "--rep", "grid", "--points", "2048"]),
        ("montecarlo-spin-g40", ["montecarlo", "--g", "40", "--n-trials", "2000000",
                                 "--seed", "6"]),
        ("ccr-fock32-g0.3", ["ccr", "--dim", "32", "--g", "0.3", "--n-trials", "0",
                             "--format", "both"]),
    ]
    return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="directory that receives one subdirectory per run")
    args = ap.parse_args(argv)
    from weaklab import cli

    out = Path(args.out)
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, run_argv in invocations(Path(tmp)):
            # the per-check console lines (12,000 for the pauli sweep) are dropped
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                status = cli.main([*run_argv, "--out", str(out / name)])
            print(f"{name}: exit {status}", flush=True)
            if status not in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED):
                failed.append(name)
    if failed:
        print(f"no record from: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
