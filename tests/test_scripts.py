"""Smoke runs of the study scripts in scripts/."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["ccr_convergence.py", "--steps", "2"],
    ["riemann_scan.py", "--dim", "32", "--points", "3"],
])
def test_script_runs(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def run_script(argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)


def test_record_diff(tmp_path):
    from weaklab import cli

    assert cli.main(["chain", "--dim", "3", "--n-ops", "2", "--instances", "2",
                     "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    assert cli.main(["chain", "--dim", "3", "--n-ops", "2", "--instances", "2",
                     "--out", str(tmp_path / "b")]) == cli.EXIT_OK
    a, b = tmp_path / "a" / "run.json", tmp_path / "b" / "run.json"
    # the two records differ in config.out and possibly the timestamp only
    same = run_script(["record_diff.py", str(a), str(b)])
    assert same.returncode == 0, same.stdout
    assert same.stdout.strip() == "identical"

    record = json.loads(b.read_text())
    old = record["report"]["max_chain_residual"]
    record["report"]["max_chain_residual"] = old + 1e-3
    b.write_text(json.dumps(record))
    changed = run_script(["record_diff.py", str(a), str(b)])
    assert changed.returncode == 1
    line, summary = changed.stdout.strip().splitlines()
    assert line.startswith("report.max_chain_residual: ")
    assert "abs 1.000e-03" in line
    assert summary == "1 differing field(s)"


def test_record_diff_directories(tmp_path):
    from weaklab import cli

    argv = ["chain", "--dim", "3", "--n-ops", "2", "--instances", "2", "--format", "both"]
    for side in ("a", "b"):
        assert cli.main([*argv, "--out", str(tmp_path / side / "chain")]) == cli.EXIT_OK
    same = run_script(["record_diff.py", str(tmp_path / "a"), str(tmp_path / "b")])
    assert same.returncode == 0, same.stdout
    assert same.stdout.strip() == "identical"

    record = tmp_path / "b" / "chain" / "run.json"
    data = json.loads(record.read_text())
    data["report"]["max_chain_residual"] += 1e-3
    record.write_text(json.dumps(data))
    table = tmp_path / "b" / "chain" / "instances.csv"
    table.write_bytes(table.read_bytes().replace(b"\n1,", b"\n7,", 1))  # the seed-1 row
    (tmp_path / "a" / "extra.csv").write_text("x\n")
    changed = run_script(["record_diff.py", str(tmp_path / "a"), str(tmp_path / "b")])
    assert changed.returncode == 1
    csv_line, json_line, only_line, summary = changed.stdout.strip().splitlines()
    assert csv_line == "chain/instances.csv: bytes differ from line 3"
    assert json_line.startswith("chain/run.json: report.max_chain_residual: ")
    assert only_line == f"extra.csv: only in {tmp_path / 'a'}"
    assert summary == "3 difference(s)"


def test_validate_accepts_every_recorded_run(tmp_path):
    # every record_set.py run writes a record, so validate must refuse none of them
    from weaklab import cli

    spec = importlib.util.spec_from_file_location("record_set", ROOT / "scripts" / "record_set.py")
    record_set = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(record_set)
    refused = {}
    for name, argv in record_set.invocations(tmp_path):
        args = cli.build_parser().parse_args(cli._attach_list_values(argv))
        file_cfg = cli.load_config_file(args.config) if args.config else {}
        cfg = cli.resolve_config(args.command, file_cfg, cli._flag_overrides(args, args.command))
        diags = cli.validate_config(cfg)
        if diags:
            refused[name] = diags
    assert refused == {}


def test_each_mutant_text_occurs_once_in_its_file():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({name for name, *_ in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for name, file, old, new in mutants.MUTANTS:
        assert (ROOT / file).read_text().count(old) == 1, name
        assert new != old, name


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_alternates_the_side_that_runs_first():
    bench_record = load_script("bench_record")
    orders = bench_record.pair_orders(5)
    assert orders == [("base", "head"), ("head", "base")] * 2 + [("base", "head")]
    assert all(sorted(order) == ["base", "head"] for order in orders)


def test_bench_record_pair_statistics():
    bench_record = load_script("bench_record")
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    head = [0.5, 2.5, 1.0, 1.5, 2.0]  # wins pairs 0, 2, 3 and 4
    stats = bench_record.compare(base, head)
    assert (stats["base"]["q1"], stats["base"]["median"], stats["base"]["q3"]) == (2.0, 3.0, 4.0)
    assert (stats["head"]["q1"], stats["head"]["median"], stats["head"]["q3"]) == (1.0, 1.5, 2.0)
    assert stats["change"] == -0.5
    assert stats["head_wins"] == 4 and stats["pairs"] == 5
    assert not stats["gain_exceeds_base_iqr"]  # 3 - 1.5 is below the base IQR of 2
    faster = bench_record.compare(base, [0.1, 0.2, 0.3, 0.4, 0.5])
    assert faster["head_wins"] == 5 and faster["gain_exceeds_base_iqr"]
    tie = bench_record.compare([1.0], [1.0])  # a tie is no win
    assert tie["head_wins"] == 0 and tie["change"] == 0.0
    with pytest.raises(ValueError):
        bench_record.compare([1.0, 2.0], [1.0])


def test_bench_record_keeps_a_pair_only_when_both_of_its_runs_finish():
    bench_record = load_script("bench_record")
    calls = []

    def run(side):
        calls.append((len(calls) // 2, side))
        pair = calls[-1][0]
        if (pair, side) in {(1, "base"), (4, "head")}:
            raise RuntimeError(f"{side} failed in pair {pair}")
        return pair

    runs, failures = bench_record.paired_runs(run, pairs=6)
    assert failures == ["base failed in pair 1", "head failed in pair 4"]
    # both runs of each pair still ran, in the alternating order
    assert [side for _, side in calls] == ["base", "head", "head", "base"] * 3
    assert runs == {"base": [0, 2, 3, 5], "head": [0, 2, 3, 5]}


def test_bench_record_higher_is_better_metric():
    bench_record = load_script("bench_record")
    mixed = bench_record.compare([1.0, 2.0, 3.0], [2.0, 1.0, 5.0], better="higher")
    assert mixed["head_wins"] == 2 and not mixed["gain_exceeds_base_iqr"]  # equal medians
    higher = bench_record.compare([1.0, 2.0, 3.0], [2.0, 4.0, 5.0], better="higher")
    assert higher["head_wins"] == 3 and higher["gain_exceeds_base_iqr"]  # 4 - 2 > 2.5 - 1.5


def test_bench_record_summarizes_verdicts_and_reads_moves_through_record_diff(tmp_path):
    bench_record = load_script("bench_record")
    record = {"timestamp": "t0", "config": {"out": "a", "seed": 1},
              "checks": [{"name": "c1", "passed": True}, {"name": "c2", "passed": False}]}
    base, head = tmp_path / "base", tmp_path / "head"
    for root, stamp in ((base, "t0"), (head, "t1")):
        for name in ("same", "csv-only", "field"):
            (root / name).mkdir(parents=True)
            (root / name / "run.json").write_text(json.dumps(
                {**record, "timestamp": stamp, "config": {"out": str(root), "seed": 1}}))
            (root / name / "rows.csv").write_text("a,b\n1,2\n")
    (head / "csv-only" / "rows.csv").write_text("a,b\n1,3\n")  # run.json unchanged
    (head / "field" / "run.json").write_text(json.dumps({**record, "config": {"out": "", "seed": 2}}))
    moved = bench_record.moved_records(base, head)
    assert moved == {"csv-only": ["csv-only/rows.csv: bytes differ from line 2"],
                     "field": ["field/run.json: config.seed: 1 -> 2  abs 1.000e+00  rel 1.000e+00"]}
    assert bench_record.record_summary(base, {"same": 1, "gone": 2}) == {
        "same": {"exit": 1, "checks": {"c1": True, "c2": False}},
        "gone": {"exit": 2},  # no record written
    }
