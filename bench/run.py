"""End-to-end and per-layer benchmark of the ``weaklab`` CLI.

Run from the root of a source checkout::

    python3 bench/run.py --workload ccr-mc
    python3 bench/run.py --workload ccr-mc --seed 7 --seconds 20
    python3 bench/run.py --workload exact-suite --trace 1

Each workload run is one or more fresh ``weaklab`` processes, started the
way a user starts them (``bench/child.py`` only adds timing marks at the CLI
boundary).  Runs repeat until ``--seconds`` of measuring are used; every run's
outputs are checked.  The report goes to standard output; its last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
See ``bench/README.md`` for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"

DEADLINE_MARGIN_S = 120.0  # a workload is cut this long after its --seconds
SETUP_PROBES = 8  # extra setup-only starts per workload, for the setup_s median

# Every weaklab process runs with one BLAS thread.  With OpenBLAS's default
# of one thread per core, a run waits at each BLAS call for its slowest
# thread, so one busy neighbour on a 2-core host made the same run 1.5-2.5x
# slower (chain 1.9 -> 4.2-5.1 s, ccr-exact 8-9 -> 18.7 s); with one thread
# the same neighbour left exact-suite unchanged.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

LIMITS = (
    "thread scaling is not measured: every weaklab process runs with one BLAS "
    "thread (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1)",
    "--workers 2 is left out: its run-to-run spread was about 30% "
    "(ccr-mc 3.7-5.2 s) against about 6% single-threaded (5.95-6.32 s)",
)


def _alpha_sweep() -> str:
    n = 2000
    angles = [-2.6 + 5.2 * k / (n - 1) for k in range(n)]
    angles[-1] = 2.6
    return ",".join(repr(a) for a in angles)


def workload_invocations(name: str, seed: int) -> list[tuple[str, list[str]]]:
    """The ``weaklab`` argument lists of one run of a workload."""
    s = ["--seed", str(seed)]
    if name == "ccr-exact":
        return [("ccr", ["ccr", "--rep", "grid", "--points", "512", "--length", "40",
                         "--n-trials", "0", *s])]
    if name == "ccr-mc":
        return [("ccr", ["ccr", "--rep", "fock", "--dim", "128",
                         "--n-trials", "45000000", *s])]
    if name == "mc-spin":
        return [("montecarlo", ["montecarlo", "--preset", "spin",
                                "--n-trials", "40000000", *s])]
    if name == "exact-suite":
        # "=" keeps argparse from reading the leading "-2.6" as a flag.
        return [
            ("pauli", ["pauli", f"--alpha-sweep={_alpha_sweep()}", "--format", "both", *s]),
            ("riemann", ["riemann", "--rep", "grid", "--points", "1024", *s]),
            ("chain", ["chain", "--dim", "64", "--n-ops", "8", "--instances", "500", *s]),
        ]
    raise ValueError(name)


WORKLOADS = {
    "ccr-exact": (0, "the pointer layer does almost all the work: 24 exact two-stage "
                     "chains on a 512 x 1024 joint state; the ensemble is idle"),
    "ccr-mc": (42, "pointer and ensemble share the run: Fock dim 128, 45M trials "
                   "split over 16 selections at 0.73% acceptance"),
    "mc-spin": (0, "the ensemble does about 99% of the work: 2 streams of 40M trials; "
                   "the pointer runs one 2-level stage"),
    "exact-suite": (0, "hilbert builders, weakcorr and cli serialisation carry the "
                       "load: pauli 2000-angle sweep, riemann grid 1024, chain 500 x 64"),
}
MC_WORKLOADS = ("ccr-mc", "mc-spin")


# ---------------------------------------------------------------------------
# one child process

class ChildFailed(Exception):
    pass


def spawn(mode: str, argv: list[str], workdir: Path, deadline: float) -> dict:
    """Run child.py once; return its exit status, timing marks and CPU time.

    The child is killed if it is still running at ``deadline`` (monotonic).
    """
    workdir.mkdir(parents=True, exist_ok=True)
    timing = workdir / "timing.json"
    cmd = [sys.executable, str(CHILD), str(timing), mode, "--", *argv]
    with open(workdir / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            proc.returncode = -1  # reaped here; keep Popen from waiting again
    rc = os.waitstatus_to_exitcode(status)
    marks = json.loads(timing.read_text()) if timing.exists() else {}
    return {
        "rc": rc,
        "t0": t0,
        "marks": marks,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stderr": (workdir / "stderr.txt").read_text(errors="replace")[-2000:],
    }


# ---------------------------------------------------------------------------
# output checks

def _finite_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_outputs(out_dir: Path) -> tuple[dict, list[str]]:
    """Read run.json and verify every check; returns (summary, problems)."""
    problems = []
    try:
        record = json.loads((out_dir / "run.json").read_text())
    except (OSError, ValueError) as exc:
        return {}, [f"run.json unreadable: {exc}"]
    checks = record.get("checks")
    if not isinstance(checks, list) or not checks:
        return {}, ["run.json holds no checks"]
    for c in checks:
        name = c.get("name")
        if not _finite_number(c.get("tol")):
            problems.append(f"check {name} has non-finite tolerance {c.get('tol')!r}")
        elif c.get("passed") is not True or not (
            _finite_number(c.get("residual")) and c["residual"] <= c["tol"]
        ):
            problems.append(f"check {name} failed: residual {c.get('residual')!r} "
                            f"tol {c.get('tol')!r}")
    if record.get("passed") is not True:
        problems.append("run.json passed is not true")
    report = record.get("report") or {}
    mc = None
    if report.get("mc_attempted") is not None:
        mc = (report["mc_accepted"], report["mc_attempted"])
    elif "accepted_position" in report:
        mc = (report["accepted_position"] + report["accepted_momentum"],
              2 * report["attempted"])
    stripped = dict(record)
    stripped.pop("timestamp", None)
    stripped["config"] = {k: v for k, v in record.get("config", {}).items() if k != "out"}
    digest = hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()
    summary = {
        "check_names": tuple(c.get("name") for c in checks),
        "n_checks": len(checks),
        "n_passed": sum(c.get("passed") is True for c in checks),
        "digest": digest,
        "mc": mc,
        "run_json_bytes": (out_dir / "run.json").stat().st_size,
        "csv_bytes": sum(p.stat().st_size for p in out_dir.glob("*.csv")),
    }
    return summary, problems


# ---------------------------------------------------------------------------
# one workload run

class Runner:
    """Runs one workload repeatedly and keeps what every later run is checked against."""

    def __init__(self, workload: str, seed: int, scratch: Path, deadline: float):
        self.deadline = deadline
        self.invocations = workload_invocations(workload, seed)
        self.scratch = scratch
        self.first: dict[str, tuple] = {}  # label -> (check names, digest)
        self.count = 0

    def setup_probe(self, k: int) -> float:
        label, argv = self.invocations[k % len(self.invocations)]
        d = self.scratch / f"probe{k}"
        res = spawn("setup", [*argv, "--out", str(d / "out")], d, self.deadline)
        shutil.rmtree(d, ignore_errors=True)
        if res["rc"] != 0 or "enter" not in res["marks"]:
            raise ChildFailed(f"setup probe of {label} failed: {res['stderr']}")
        return res["marks"]["enter"] - res["t0"]

    def run(self, trace: bool) -> dict:
        """One workload run: every invocation once, outputs checked."""
        self.count += 1
        run = {"run_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "setup": [], "problems": [],
               "mc": None, "trials": 0, "run_json_bytes": 0, "csv_bytes": 0,
               "spans": [], "invocations": []}
        for label, argv in self.invocations:
            d = self.scratch / f"run{self.count}-{label}"
            out = d / "out"
            res = spawn("trace" if trace else "run", [*argv, "--out", str(out)], d,
                        self.deadline)
            m = res["marks"]
            inv = {"label": label, "rc": res["rc"], "n_checks": 0, "n_passed": 0}
            run["invocations"].append(inv)
            run["cpu_s"] += res["cpu_s"]
            if res["rc"] != 0:
                run["problems"].append(f"{label}: exit status {res['rc']}: "
                                       f"{res['stderr'].strip()[-300:]}")
            if "enter" not in m or "written" not in m:
                run["problems"].append(f"{label}: no timing marks")
                shutil.rmtree(d, ignore_errors=True)
                continue
            run["setup"].append(m["enter"] - res["t0"])
            run["rss_mb"] = max(run["rss_mb"], m["peak_rss_kb"] / 1024.0)
            run["run_s"] += m["written"] - m["enter"]
            summary, problems = check_outputs(out)
            run["problems"] += [f"{label}: {p}" for p in problems]
            if summary:
                inv.update(n_checks=summary["n_checks"], n_passed=summary["n_passed"])
                ref = self.first.setdefault(label, (summary["check_names"],
                                                    summary["digest"]))
                if summary["check_names"] != ref[0]:
                    run["problems"].append(f"{label}: check names differ from run 1")
                elif summary["digest"] != ref[1]:
                    run["problems"].append(
                        f"{label}: run.json differs from run 1 (timestamp and "
                        "config.out ignored)")
                run["run_json_bytes"] += summary["run_json_bytes"]
                run["csv_bytes"] += summary["csv_bytes"]
                if summary["mc"] is not None:
                    run["mc"] = summary["mc"]
                    run["trials"] += summary["mc"][1]
            if trace:
                spans_file = Path(str(d / "timing.json") + ".spans.json")
                if spans_file.exists():
                    run["spans"].append(json.loads(spans_file.read_text()))
                else:
                    run["problems"].append(f"{label}: no spans written")
            shutil.rmtree(d, ignore_errors=True)
        run["failed"] = bool(run["problems"])
        run["traced"] = trace
        return run


# ---------------------------------------------------------------------------
# per-layer metrics from spans

PER_LAYER = (
    # name, unit, what it is
    ("pointer.protocol_calls", "count", "run_ccr_protocol calls (experiments + ensemble)"),
    ("pointer.protocol_s", "s", "run_ccr_protocol total time"),
    ("pointer.protocol_recompute_calls", "count",
     "run_ccr_protocol calls from ensemble for a selection experiments already ran"),
    ("pointer.couple_calls", "count", "couple calls"),
    ("pointer.couple_s", "s", "couple total time"),
    ("pointer.select_s", "s", "select total time"),
    ("pointer.measure_s", "s", "measure_weakly total time (pointer + ensemble names)"),
    ("pointer.joint_bytes", "bytes",
     "COMPUTED: sum over couple calls of system dim x pointer points x 16 B"),
    ("linalg.eigh_calls", "count", "numpy.linalg.eigh calls"),
    ("linalg.eigh_s", "s", "numpy.linalg.eigh total time"),
    ("ensemble.calls", "count", "run_trials + estimate_weak_value calls"),
    ("ensemble.self_s", "s", "ensemble self time (pointer chains excluded)"),
    ("ensemble.trials", "count", "Monte Carlo trials attempted"),
    ("ensemble.accepted", "count", "Monte Carlo trials accepted"),
    ("ensemble.accept_ratio", "1", "ensemble.accepted / ensemble.trials"),
    ("ensemble.trials_per_s", "1/s", "ensemble.trials / ensemble.self_s"),
    ("hilbert.build_calls", "count", "operator and state builder calls"),
    ("hilbert.build_s", "s", "operator and state builder total time"),
    ("hilbert.eigenbasis_s", "s", "hilbert.eigenbasis total time (eigh included)"),
    ("weakcorr.averaged_calls", "count", "averaged_weak_correlation calls"),
    ("weakcorr.averaged_s", "s", "averaged_weak_correlation total time"),
    ("weakcorr.per_selection_s", "s",
     "weak_value / weak_correlation / (anti)commutator / ccr_decomposition time"),
    ("weakcorr.chain_s", "s", "chain_weak_correlation + symmetry_residuals time"),
    ("experiments.self_s", "s", "experiment functions' self time"),
    ("experiments.mid_selections", "count", "CCR admissible mid-selections"),
    ("experiments.pointer_selections", "count", "CCR mid-selections with an exact chain"),
    ("experiments.mc_selections", "count", "CCR mid-selections sampled by Monte Carlo"),
    ("cli.config_s", "s", "build_parser + flag overrides + config load/resolve time"),
    ("cli.serialize_s", "s", "outermost to_jsonable + json.dumps time"),
    ("cli.write_s", "s", "write_outputs self time (json.dumps excluded)"),
    ("cli.run_json_bytes", "bytes", "size of run.json (summed over invocations)"),
    ("cli.csv_bytes", "bytes", "size of the CSV tables (summed over invocations)"),
    ("trace.overhead_s", "s", "median of traced - untraced run_s over run pairs"),
)
RATIO_BASES = {
    "ensemble.accept_ratio": ("ensemble.accepted", "ensemble.trials"),
    "ensemble.trials_per_s": ("ensemble.trials", "ensemble.self_s"),
}


def layer_metrics(span_lists: list[list]) -> dict[str, float]:
    """Per-layer figures of one workload run (its invocations summed)."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    extra: dict[str, float] = {}
    for spans in span_lists:
        by_id = {s[0]: s for s in spans}
        group_of = {s[0]: s[2].split("/", 1)[0] for s in spans}
        child_time: dict[int, float] = {}
        for sid, parent, _name, start, end, _attrs in spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, attrs in spans:
            group = group_of[sid]
            dur = end - start
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + dur - child_time.get(sid, 0.0)
            p = parent
            while p and group_of[p] != group:
                p = by_id[p][1]
            if not p:  # outermost span of its group
                total[group] = total.get(group, 0.0) + dur
            for key, val in (attrs or {}).items():
                extra[key] = extra.get(key, 0) + val
    g = lambda d, k: d.get(k, 0)  # noqa: E731
    trials, ens_self = g(extra, "trials"), g(self_s, "ensemble")
    return {
        "pointer.protocol_calls": g(calls, "pointer.protocol"),
        "pointer.protocol_s": g(total, "pointer.protocol"),
        "pointer.protocol_recompute_calls": g(extra, "recompute"),
        "pointer.couple_calls": g(calls, "pointer.couple"),
        "pointer.couple_s": g(total, "pointer.couple"),
        "pointer.select_s": g(total, "pointer.select"),
        "pointer.measure_s": g(total, "pointer.measure"),
        "pointer.joint_bytes": g(extra, "joint_bytes"),
        "linalg.eigh_calls": g(calls, "linalg.eigh"),
        "linalg.eigh_s": g(total, "linalg.eigh"),
        "ensemble.calls": g(calls, "ensemble"),
        "ensemble.self_s": ens_self,
        "ensemble.trials": trials,
        "ensemble.accepted": g(extra, "accepted"),
        "ensemble.accept_ratio": g(extra, "accepted") / trials if trials else 0.0,
        "ensemble.trials_per_s": trials / ens_self if ens_self else 0.0,
        "hilbert.build_calls": g(calls, "hilbert.build"),
        "hilbert.build_s": g(total, "hilbert.build"),
        "hilbert.eigenbasis_s": g(total, "hilbert.eigenbasis"),
        "weakcorr.averaged_calls": g(calls, "weakcorr.averaged"),
        "weakcorr.averaged_s": g(total, "weakcorr.averaged"),
        "weakcorr.per_selection_s": g(total, "weakcorr.per_selection"),
        "weakcorr.chain_s": g(total, "weakcorr.chain"),
        "experiments.self_s": g(self_s, "experiments"),
        "experiments.mid_selections": g(extra, "mid_selections"),
        "experiments.pointer_selections": g(extra, "pointer_selections"),
        "experiments.mc_selections": g(extra, "mc_selections"),
        "cli.config_s": g(total, "cli.config"),
        "cli.serialize_s": g(total, "cli.serialize"),
        "cli.write_s": g(self_s, "cli.write"),
    }


# ---------------------------------------------------------------------------
# statistics and report

def describe(values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if not n:
        return "no samples"
    med = statistics.median(values)
    if n >= 11:
        k = n - 10
        tail = f"p{100 * k // n} {sorted(values)[k - 1]:.6g} (10 of {n} beyond)"
    else:
        tail = f"no percentile with 10 samples beyond (n={n})"
    return f"median {med:.6g}, {tail}"


def environment(seed: int, workload: str) -> dict:
    probe = ("import json, platform, numpy; d = numpy.show_config(mode='dicts')"
             "['Build Dependencies']; print(json.dumps({'python': platform.python_version(),"
             " 'numpy': numpy.__version__, 'blas': d['blas'].get('name') + ' ' + "
             "str(d['blas'].get('version')), 'lapack': d['lapack'].get('name') + ' ' + "
             "str(d['lapack'].get('version'))}))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                         text=True, timeout=60, env={**os.environ, **CHILD_ENV})
    env = json.loads(out.stdout) if out.returncode == 0 else {"numpy": "unavailable"}
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        **env,
        **CHILD_ENV,  # the thread settings every weaklab process sees
        "git_sha": git_sha(),
        "limits": LIMITS,
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(runner: Runner, seconds: float, trace: bool) -> tuple[list, list]:
    """Run the workload until ``seconds`` are used; returns (untraced, traced) runs."""
    untraced, traced = [], []
    start = time.monotonic()
    lap = []
    while True:
        t = time.monotonic()
        untraced.append(runner.run(trace=False))
        if trace:
            traced.append(runner.run(trace=True))
        lap.append(time.monotonic() - t)
        now = time.monotonic()
        if now - start + statistics.median(lap) > seconds or now > runner.deadline:
            break
    return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default 42 for ccr-mc, 0 elsewhere)")
    ap.add_argument("--seconds", type=float, default=28.0, help="measuring time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced runs")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "weaklab" / "cli.py").is_file():
        print(f"no weaklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name = args.workload
    seed = WORKLOADS[name][0] if args.seed is None else args.seed
    scratch_root = ROOT / ".bench_out"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    metrics: dict = {}
    try:
        runner = Runner(name, seed, scratch,
                        time.monotonic() + args.seconds + DEADLINE_MARGIN_S)
        print(f"== {name}: {WORKLOADS[name][1]}")
        env = environment(seed, name)
        runner.setup_probe(-1)  # warm-up: bytecode cache and file cache
        setup = [] if args.trace else [runner.setup_probe(k) for k in range(SETUP_PROBES)]
        untraced, traced = measure(runner, args.seconds, args.trace == 1)
    except ChildFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another benchmark process is still using it

    runs = untraced + traced
    failed = sum(r["failed"] for r in runs)
    print("environment: " + json.dumps({**env, "runs": len(runs)}))
    for k, r in enumerate(runs, 1):
        kind = "traced" if r["traced"] else "untraced"
        invs = "; ".join(f"{i['label']} exit {i['rc']}, {i['n_passed']}/"
                         f"{i['n_checks']} checks passed" for i in r["invocations"])
        mc = f", mc_accepted/mc_attempted {r['mc'][0]}/{r['mc'][1]}" if r["mc"] else ""
        print(f"run {k} ({kind}): {invs}{mc}, run_s {r['run_s']:.4f}")
        for p in r["problems"]:
            print(f"  FAILED: {p}")
    ok = [r for r in untraced if not r["failed"]] or untraced
    setup += [s for r in untraced for s in r["setup"]]
    e2e = {
        "run_s": ([r["run_s"] for r in ok], "s"),
        "setup_s": (setup, "s"),
        "cpu_s": ([r["cpu_s"] for r in ok], "s"),
        "peak_rss_mb": ([r["rss_mb"] for r in ok], "MB"),
    }
    if name in MC_WORKLOADS:
        print(f"{name} trials attempted per run: {ok[0]['trials']}")
        e2e["trials_per_s"] = ([r["trials"] / r["run_s"] for r in ok if r["run_s"]], "1/s")
    for key, (vals, unit) in e2e.items():
        print(f"{name} {key} [{unit}]: {describe(vals)}")
    print(f"{name} failed_share [1]: {failed / len(runs):.6g} "
          f"({failed} of {len(runs)} runs failed)")
    if args.trace == 0:
        for key in ("run_s", "setup_s", "cpu_s", "peak_rss_mb"):
            vals, unit = e2e[key]
            metrics[key] = {"value": statistics.median(vals or [0.0]), "unit": unit}
    else:
        metrics = traced_report(name, untraced, traced)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_report(name: str, untraced: list, traced: list) -> dict:
    """Print the per-layer metrics of the traced runs; returns them for the JSON line."""
    t_ok = [r for r in traced if not r["failed"]] or traced
    per_run = [layer_metrics(r["spans"]) for r in t_ok]
    layer = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    layer["cli.run_json_bytes"] = statistics.median(r["run_json_bytes"] for r in t_ok)
    layer["cli.csv_bytes"] = statistics.median(r["csv_bytes"] for r in t_ok)
    # Each traced run follows its own untraced run, so the two share the
    # machine's state; the overhead is the median of those pair differences.
    diffs = [t["run_s"] - u["run_s"] for u, t in zip(untraced, traced)
             if not (u["failed"] or t["failed"])]
    layer["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    verdict = ("unresolved: the sign differs between pairs"
               if diffs and min(diffs) < 0 < max(diffs) else "")
    if len(diffs) < 2:
        verdict = "unresolved: fewer than 2 pairs"
    print(f"{name} traced runs: {len(t_ok)}; tracing overhead [s]: median "
          f"{layer['trace.overhead_s']:.4f} of {len(diffs)} traced - untraced run_s "
          f"pair differences {[round(d, 4) for d in diffs]}"
          + (f" ({verdict})" if verdict else ""))
    for key, unit, what in PER_LAYER:
        base = ""
        if key in RATIO_BASES:
            num, den = RATIO_BASES[key]
            base = f" = {layer[num]:.6g} / {layer[den]:.6g}"
        print(f"{name} {key} [{unit}]: {layer[key]:.6g}{base}  ({what})")
    return {key: {"value": layer[key], "unit": unit} for key, unit, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
