#!/usr/bin/env python3
"""Benchmark a change against its parent and write a ``BENCH_<n>.json`` record.

Both sides are clean ``git archive`` exports, never the checkout itself:
``--base`` (default ``HEAD``) and ``--head`` (default: the working tree,
snapshotted with ``git stash create``, which holds the tracked and staged
files and leaves the checkout as it is; ``HEAD`` when nothing differs).
The workloads, the end-to-end metrics, the command and its run length are
the ones ``BENCHMARK.json`` declares.  For each workload the command runs
unchanged on both exports, one run per side in each of ``PAIRS`` pairs, and
the side that runs first alternates from pair to pair.  A pair in which
either run fails is dropped whole and its failure recorded.  Two sources of
noise that are not work are taken out:

- bytecode: each side gets its own fresh ``PYTHONPYCACHEPREFIX``, compiled
  with ``compileall`` before its first timed run, and its processes may
  write bytecode there (``PYTHONDONTWRITEBYTECODE`` is unset), so what the
  discarded warm-up start of ``bench/run.py`` imports, numpy and the
  standard library included, is not compiled again at every timed start;
- the allocator: ``MALLOC_MMAP_THRESHOLD_`` and ``MALLOC_TRIM_THRESHOLD_``
  are pinned (``PINNED_ENV``), so glibc's dynamic mmap threshold does not
  move between runs.

The record holds, per workload and end-to-end metric, each side's median
and quartiles over the pairs, the relative change of the medians, the
number of pairs the change wins, and whether the change of the medians
exceeds the base's interquartile range.  It also holds the environment,
each side's ``scripts/record_set.py`` exit statuses and check verdicts, and
every difference ``scripts/record_diff.py`` finds between the two sides'
records (run.json fields and CSV bytes), by record.

    python scripts/bench_record.py --out BENCH_<n>.json
    python scripts/bench_record.py --base HEAD~1 --head HEAD --out /tmp/bench.json

Exits 0 when every run of both sides finished, 1 otherwise.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10  # the fewest alternated pairs a claimed gain is judged on
# glibc's defaults, pinned: an explicit threshold turns off the dynamic one
PINNED_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
SIDES = ("base", "head")


def _record_diff():
    spec = importlib.util.spec_from_file_location("record_diff", ROOT / "scripts" / "record_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_orders(pairs: int) -> list[tuple[str, str]]:
    """The order the two sides run in, pair by pair: base first in even pairs."""
    return [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(pairs)]


def paired_runs(run, pairs: int = PAIRS) -> tuple[dict, list[str]]:
    """``run(side)`` for both sides in each pair, in ``pair_orders``' order.

    Returns each side's results and the failures.  A pair in which either
    run raises RuntimeError or TimeoutExpired is dropped whole, so the k-th
    results of the two sides always come from the same pair.
    """
    runs, failures = {side: [] for side in SIDES}, []
    for order in pair_orders(pairs):
        pair = {}
        for side in order:
            try:
                pair[side] = run(side)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(str(exc))
        if len(pair) == len(SIDES):
            for side in SIDES:
                runs[side].append(pair[side])
    return runs, failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def compare(base: list[float], head: list[float], better: str = "lower") -> dict:
    """Statistics of one metric over paired runs (base[k], head[k])."""
    if len(base) != len(head) or not base:
        raise ValueError(f"need paired runs, got {len(base)} base and {len(head)} head")
    sign = {"lower": 1.0, "higher": -1.0}[better]
    (b1, bmed, b3), (h1, hmed, h3) = quartiles(base), quartiles(head)
    return {
        "base": {"median": bmed, "q1": b1, "q3": b3, "runs": base},
        "head": {"median": hmed, "q1": h1, "q3": h3, "runs": head},
        "change": hmed / bmed - 1.0 if bmed else None,
        "pairs": len(base),
        "head_wins": sum(sign * (b - h) > 0 for b, h in zip(base, head)),
        "gain_exceeds_base_iqr": sign * (bmed - hmed) > b3 - b1,
    }


def record_summary(out: Path, exits: dict) -> dict:
    """Per record_set run: its exit status and, when it wrote a record, its check verdicts."""
    summary = {}
    for name, status in exits.items():
        path = out / name / "run.json"
        entry = {"exit": status}
        if path.is_file():
            entry["checks"] = {c["name"]: c["passed"] for c in json.loads(path.read_text()).get("checks", [])}
        summary[name] = entry
    return summary


def moved_records(base: Path, head: Path) -> dict:
    """``record_diff.tree_diff``'s lines of two record_set outputs, grouped by record."""
    moved = {}
    for line in _record_diff().tree_diff(base, head):
        moved.setdefault(line.partition("/")[0], []).append(line)
    return moved


def git(*args: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, **kw)


def resolve(rev: str | None) -> str:
    """A commit id: ``rev``, or a snapshot of the working tree when rev is None."""
    if rev is None:
        rev = git("stash", "create", text=True).stdout.strip() or "HEAD"
    return git("rev-parse", "--verify", f"{rev}^{{commit}}", text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """A clean tree of ``commit`` at ``dest``, its bytecode compiled under dest/pycache."""
    dest.mkdir(parents=True)
    archive = git("archive", "--format=tar", commit).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(dest / "src"), str(dest / "bench")],
                   env=side_env(dest), check=True, stdout=subprocess.DEVNULL)


def side_env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return {**env, **PINNED_ENV, "PYTHONPYCACHEPREFIX": str(tree / "pycache"),
            "PYTHONPATH": str(tree / "src")}


def bench_once(tree: Path, workload: str) -> tuple[dict, str]:
    """One run of the benchmark's command: its final JSON line and its environment line."""
    seconds = BENCHMARK["run_seconds"]
    proc = subprocess.run([*BENCHMARK["command"], "--workload", workload, "--seconds", str(seconds)],
                          cwd=tree, env=side_env(tree), capture_output=True, text=True,
                          timeout=seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree.name} {workload} exit {proc.returncode}: {proc.stderr[-2000:]}")
    env_line = next((ln for ln in lines if ln.startswith("environment: ")), "environment: {}")
    return json.loads(lines[-1]), env_line.split(": ", 1)[1]


def record_set(tree: Path, out: Path) -> dict:
    """Run the side's own scripts/record_set.py into ``out``; summarize its records."""
    proc = subprocess.run([sys.executable, "scripts/record_set.py", str(out)], cwd=tree,
                          env=side_env(tree), capture_output=True, text=True, timeout=1800)
    exits = {}
    for line in proc.stdout.splitlines():
        name, sep, status = line.rpartition(": exit ")
        if sep:
            exits[name] = int(status)
    return record_summary(out, exits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    ap.add_argument("--head", default=None,
                    help="the changed revision (default: a snapshot of the working tree)")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    commits = {"base": resolve(args.base), "head": resolve(args.head)}
    metrics = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    failures, workloads, environment = [], {}, {}
    with tempfile.TemporaryDirectory(prefix="weaklab-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(commits[side], trees[side])
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            def run(side):
                result, env_line = bench_once(trees[side], workload)
                if not environment:
                    environment.update(json.loads(env_line))
                print(f"{workload} {side}: " + ", ".join(
                    f"{m} {result['metrics'][m]['value']:.4g}" for m in metrics), flush=True)
                return result

            runs, failed = paired_runs(run)
            failures += failed
            if not runs["base"]:
                continue  # no pair finished on both sides
            workloads[workload] = {
                "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
                "metrics": {m: compare(*([r["metrics"][m]["value"] for r in runs[side]]
                                         for side in SIDES), better=better)
                            for m, better in metrics.items()},
            }
        outs = {side: Path(tmp) / f"records-{side}" for side in SIDES}
        records = {side: record_set(trees[side], outs[side]) for side in SIDES}
        moved = moved_records(outs["base"], outs["head"])
    exits_or_verdicts_moved = sorted(
        name for name in records["base"].keys() | records["head"].keys()
        if records["base"].get(name) != records["head"].get(name))
    bench = {
        "commits": commits,
        "pairs": PAIRS,
        "command": BENCHMARK["command"],
        "seconds_per_run": BENCHMARK["run_seconds"],
        "order": "base first in even pairs, head first in odd pairs",
        "environment": {
            **environment,
            **PINNED_ENV,
            "pycache": "a fresh PYTHONPYCACHEPREFIX per side, compiled before its first run; "
                       "PYTHONDONTWRITEBYTECODE unset",
            "host_python": platform.python_version(),
            "written": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
        "workloads": workloads,
        "records": {"moved": moved, "exits_or_verdicts_moved": exits_or_verdicts_moved, **records},
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(bench, indent=1) + "\n")
    for workload, entry in workloads.items():
        for m, s in entry["metrics"].items():
            print(f"{workload} {m}: {s['base']['median']:.4g} -> {s['head']['median']:.4g} "
                  f"({s['change']:+.1%}), head wins {s['head_wins']}/{s['pairs']}")
    print(f"records moved: {', '.join(moved) or 'none'}; "
          f"exits or verdicts moved: {', '.join(exits_or_verdicts_moved) or 'none'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
