"""End-to-end tests of the command-line runner."""

import csv
import json
import math

import pytest

from weaklab import cli


def run_cli(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_pauli_sweep_csv(tmp_path):
    out = tmp_path / "r"
    status = run_cli([
        "pauli", "--alpha-sweep", "0,0.5236,1.0472,1.5708",
        "--out", str(out), "--format", "both",
    ])
    assert status == 0
    record = read_json(out / "run.json")
    assert record["passed"] is True
    assert record["config"]["pauli"]["alpha_sweep"] == [0.0, 0.5236, 1.0472, 1.5708]
    with open(out / "alpha_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["alpha"] for r in rows] == ["0.0", "0.5236", "1.0472", "1.5708"]
    assert float(rows[-1]["sxsy_im"]) == pytest.approx(1.0, abs=1e-4)
    assert float(rows[-1]["residual"]) <= 1e-12


def test_pauli_single_alpha_record(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["pauli", "--alpha", str(math.pi / 3), "--out", str(out)]) == 0
    record = read_json(out / "run.json")
    assert record["report"]["sz_w"]["re"] == pytest.approx(math.tan(math.pi / 6))


def test_ccr_fock_run_is_reproducible(tmp_path):
    out = tmp_path / "a"
    args = [
        "ccr", "--rep", "fock", "--dim", "64", "--sigma", "1", "--g", "0.01",
        "--seed", "7", "--n-trials", "20000", "--out", str(out), "--format", "both",
    ]
    assert run_cli(args) == 0
    first = read_json(out / "run.json")
    assert run_cli(args) == 0
    second = read_json(out / "run.json")
    first.pop("timestamp")
    second.pop("timestamp")
    assert first == second


def test_ccr_worker_count_does_not_change_outputs(tmp_path):
    base = [
        "ccr", "--rep", "grid", "--points", "96", "--length", "40",
        "--n-trials", "50000", "--seed", "5",
    ]
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert run_cli(base + ["--out", str(out1), "--workers", "1"]) == 0
    assert run_cli(base + ["--out", str(out2), "--workers", "4"]) == 0
    a = read_json(out1 / "run.json")
    b = read_json(out2 / "run.json")
    for rec in (a, b):
        rec.pop("timestamp")
        rec["config"].pop("out")
        rec["config"].pop("workers")
    assert a == b


def test_stored_run_record_round_trips(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli([
        "montecarlo", "--preset", "fock", "--n-trials", "20000",
        "--seed", "3", "--out", str(out1),
    ]) == 0
    assert run_cli([
        "montecarlo", "--config", str(out1 / "run.json"), "--out", str(out2),
    ]) == 0
    a = read_json(out1 / "run.json")
    b = read_json(out2 / "run.json")
    assert a["report"] == b["report"]
    assert a["checks"] == b["checks"]


def test_malformed_config_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: ccr\nccr: {bogus: 1}\n")
    out = tmp_path / "never"
    status = run_cli(["ccr", "--config", str(bad), "--out", str(out)])
    assert status == cli.EXIT_CONFIG_ERROR
    assert not out.exists()


def test_unparseable_yaml_is_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: [unclosed\n")
    assert run_cli(["ccr", "--config", str(bad)]) == cli.EXIT_CONFIG_ERROR


def test_numerical_error_exit_status(tmp_path):
    # alpha at pi makes the selections orthogonal: AlphaOutOfRange
    status = run_cli([
        "montecarlo", "--preset", "spin", "--alpha", str(math.pi),
        "--out", str(tmp_path / "x"),
    ])
    assert status == cli.EXIT_NUMERICAL_ERROR
    assert not (tmp_path / "x").exists()


def test_validate_clean_config(tmp_path, capsys):
    cfgfile = tmp_path / "ok.yaml"
    cfgfile.write_text("experiment: ccr\nccr:\n  sigma: 1.0\n")
    assert run_cli(["validate", str(cfgfile)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


def test_validate_grid_resolution_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "coarse.yaml"
    cfgfile.write_text("experiment: ccr\nccr:\n  pointer_points: 64\n")
    assert run_cli(["validate", str(cfgfile)]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert any(d["error"] == "GridResolutionError" for d in diags)


def test_validate_orthogonal_selection_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "orth.yaml"
    cfgfile.write_text(
        "experiment: riemann\nriemann:\n  i_displacement: 4.0\n  f_displacement: -4.0\n"
    )
    assert run_cli(["validate", str(cfgfile)]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert any(d["error"] == "OrthogonalSelection" for d in diags)


def test_validate_truncation_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "edge.yaml"
    cfgfile.write_text(
        "experiment: ccr\nccr:\n  rep: {kind: fock, dim: 8}\n  state: {displacement: 2.0}\n"
    )
    assert run_cli(["validate", str(cfgfile)]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert any(d["error"] == "TruncationWarning" for d in diags)


def test_validate_alpha_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "alpha.yaml"
    cfgfile.write_text(f"experiment: pauli\npauli:\n  alpha: {math.pi}\n")
    assert run_cli(["validate", str(cfgfile)]) == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert any(d["error"] == "AlphaOutOfRange" for d in diags)


def test_chain_subcommand(tmp_path):
    out = tmp_path / "chain"
    assert run_cli([
        "chain", "--dim", "4", "--n-ops", "4", "--instances", "20",
        "--seed", "2", "--out", str(out), "--format", "both",
    ]) == 0
    with open(out / "instances.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 20
    assert all(float(r["chain_residual"]) <= 1e-12 for r in rows)


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "r"
    assert run_cli([
        "ccr", "--rep", "grid", "--points", "96", "--length", "40",
        "--n-trials", "0", "--out", str(out), "--format", "both",
    ]) == 0
    record = read_json(out / "run.json")
    with open(out / "mid_selections.csv") as fh:
        rows = list(csv.DictReader(fh))
    by_index = {int(r["index"]): r for r in rows}
    for row in record["report"]["per_f"]:
        got = by_index[row["index"]]
        assert float(got["weight"]) == row["weight"]  # exact round trip
        assert float(got["x_w_re"]) == row["x_w"]["re"]


def test_config_file_flag_precedence(tmp_path):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("experiment: pauli\nseed: 5\npauli:\n  alpha: 0.3\n")
    out = tmp_path / "o"
    assert run_cli([
        "pauli", "--config", str(cfgfile), "--alpha", "0.7", "--out", str(out),
    ]) == 0
    record = read_json(out / "run.json")
    assert record["config"]["pauli"]["alpha"] == 0.7  # flag wins
    assert record["config"]["seed"] == 5  # file survives where no flag given
    assert record["config"]["format"] == "json"  # default echoed


@pytest.mark.parametrize("glued", [False, True], ids=["separate", "equals"])
def test_pauli_alpha_sweep_leading_minus(tmp_path, glued):
    out = tmp_path / "r"
    flag = ["--alpha-sweep=-0.5,0.5"] if glued else ["--alpha-sweep", "-0.5,0.5"]
    assert run_cli(["pauli", *flag, "--out", str(out)]) == 0
    record = read_json(out / "run.json")
    assert record["config"]["pauli"]["alpha_sweep"] == [-0.5, 0.5]


@pytest.mark.parametrize("glued", [False, True], ids=["separate", "equals"])
def test_ccr_g_sweep_leading_minus(tmp_path, glued):
    out = tmp_path / "r"
    flag = ["--g-sweep=-0.01,0.01"] if glued else ["--g-sweep", "-0.01,0.01"]
    args = ["ccr", "--rep", "grid", "--points", "64", "--length", "20", *flag,
            "--n-trials", "0", "--out", str(out)]
    assert run_cli(args) == 0
    record = read_json(out / "run.json")
    assert record["config"]["ccr"]["g_sweep"] == [-0.01, 0.01]
    assert [c["name"] for c in record["checks"]][-2:] == [
        "g_sweep_pointer_corr(g=-0.01)", "g_sweep_pointer_corr(g=0.01)",
    ]
