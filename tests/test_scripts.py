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
