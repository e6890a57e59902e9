"""End-to-end tests of the command-line runner."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from weaklab import cli, experiments, hilbert
from weaklab.errors import TruncationWarning


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
    assert float(rows[-1]["max_residual"]) <= 1e-12


def test_pauli_single_alpha_record(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["pauli", "--alpha", str(math.pi / 3), "--out", str(out)]) == 0
    record = read_json(out / "run.json")
    (row,) = record["report"]["rows"]
    assert row["sz_w"]["re"] == pytest.approx(math.tan(math.pi / 6))


def _angles(n):
    return ",".join(repr(-3.0 + 6.0 * k / (n - 1)) for k in range(n))


def test_pauli_record_has_one_shape_for_any_number_of_angles(tmp_path):
    records = {}
    for n, flag in ((1, ["--alpha", "0.7"]), (2000, [f"--alpha-sweep={_angles(2000)}"])):
        out = tmp_path / str(n)
        assert run_cli(["pauli", *flag, "--out", str(out)]) == 0
        records[n] = read_json(out / "run.json")
    one, many = records[1], records[2000]
    assert one.keys() == many.keys()
    assert one["report"].keys() == many["report"].keys() == {"rows", "checks", "passed"}
    assert (len(one["report"]["rows"]), len(many["report"]["rows"])) == (1, 2000)
    assert one["report"]["rows"][0].keys() == many["report"]["rows"][-1].keys()
    for record in (one, many):
        assert len(record["checks"]) == 6
        assert record["checks"] == record["report"]["checks"]
    assert [c["name"] for c in one["checks"]] == [c["name"] for c in many["checks"]]


@pytest.mark.parametrize("argv", [
    ["pauli"],
    ["pauli", f"--alpha-sweep={_angles(2000)}"],
    ["ccr", "--dim", "16", "--n-trials", "20000", "--g-sweep", "0.01,0.02"],
    ["riemann"],
    ["chain", "--instances", "30"],
    ["montecarlo", "--n-trials", "4000"],
], ids=["pauli", "pauli-sweep", "ccr-sweep", "riemann", "chain", "montecarlo"])
def test_console_prints_one_line_per_check(tmp_path, capsys, argv):
    out = tmp_path / "r"
    assert run_cli([*argv, "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    lines = capsys.readouterr().out.splitlines()
    checks = read_json(out / "run.json")["checks"]
    assert len(lines) == len(checks) + 1
    assert [line.split(":")[0] for line in lines[:-1]] == [
        f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}" for c in checks
    ]
    assert lines[-1] == f"wrote {out / 'run.json'}"


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


@pytest.mark.parametrize("g, status", [(90.0, cli.EXIT_NUMERICAL_ERROR), (40.0, cli.EXIT_OK)])
def test_montecarlo_coupling_that_wraps_the_pointer_exits_3(tmp_path, capsys, g, status):
    # sigma = hbar = 1 on 1024 points over 40: the spin kick +-g wraps past
    # the quarter grid pi / (2 spacing) = 40.2
    out = tmp_path / "o"
    argv = ["montecarlo", "--g", str(g), "--n-trials", "200000", "--out", str(out)]
    assert run_cli(argv) == status
    wraps = status == cli.EXIT_NUMERICAL_ERROR
    assert ("numerical error: GridResolutionError:" in capsys.readouterr().err) == wraps
    assert out.exists() != wraps


@pytest.mark.parametrize("g, status", [(90.0, cli.EXIT_CHECK_FAILED), (40.0, cli.EXIT_OK)])
def test_validate_runs_the_montecarlo_wrap_guard(tmp_path, capsys, g, status):
    cfgfile = tmp_path / "mc.yaml"
    cfgfile.write_text(f"experiment: montecarlo\nmontecarlo: {{g: {g}}}\n")
    assert run_cli(["validate", str(cfgfile)]) == status
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    expected = [("montecarlo.g", "GridResolutionError")] if g == 90.0 else []
    assert [(d["field"], d["error"]) for d in diags] == expected


def test_validate_clean_config(tmp_path, capsys):
    cfgfile = tmp_path / "ok.yaml"
    cfgfile.write_text("experiment: ccr\nccr:\n  sigma: 1.0\n")
    assert run_cli(["validate", str(cfgfile)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


def test_validate_grid_resolution_diagnostic(tmp_path, capsys):
    cfgfile = tmp_path / "coarse.yaml"
    cfgfile.write_text("experiment: ccr\nccr:\n  g: 5.0\n")
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


@pytest.mark.parametrize("yaml_text", [
    "{g: 5.0, n_trials: 0}",
    "{run_pointer: false, n_trials: 0, g_sweep: [0.01, 5.0]}",
])
def test_validate_runs_the_ccr_wrap_guard(tmp_path, capsys, yaml_text):
    # a coupling of 5 kicks the sigma = 1 position pointer past a quarter of its grid
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: ccr\nccr: {yaml_text}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [("ccr", "GridResolutionError")]
    out = tmp_path / "o"
    assert run_cli(["ccr", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert "numerical error: GridResolutionError:" in capsys.readouterr().err
    assert not out.exists()


def test_validate_runs_on_past_a_truncation_warning(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(
        "experiment: ccr\nccr: {rep: {dim: 8}, state: {displacement: 2.0}, g: 5.0, n_trials: 0}\n"
    )
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [
        ("ccr", "TruncationWarning"), ("ccr", "GridResolutionError"),
    ]


@pytest.mark.parametrize("experiment", ["pauli", "riemann", "chain"])
def test_validate_samples_no_trial_and_writes_nothing(tmp_path, capsys, monkeypatch, experiment):
    def no_trials(*args, **kwargs):
        raise AssertionError("validate sampled Monte Carlo trials")

    monkeypatch.setattr(experiments.mc, "run_trials", no_trials)
    monkeypatch.setattr(experiments.mc, "estimate_weak_value", no_trials)
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: {experiment}\nout: {out}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    assert not out.exists()


@pytest.mark.parametrize("experiment, sampler", [
    ("ccr", "run_trials"),  # 200,000 trials over the kept mid-selections
    ("montecarlo", "estimate_weak_value"),  # 40,000 trials per stream
])
def test_validate_runs_the_trials_and_writes_nothing(tmp_path, capsys, monkeypatch, experiment,
                                                     sampler):
    calls = []
    orig = getattr(experiments.mc, sampler)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(experiments.mc, sampler, counted)
    out = tmp_path / "o"
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: {experiment}\nout: {out}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    assert calls
    assert not out.exists()


@pytest.mark.parametrize("experiment, flags, yaml_text", [
    # no mid-selection gets its 25 expected accepted trials
    ("ccr", ["--n-trials", "100"], "{n_trials: 100}"),
    # P(f) = 1e-4 at A_w = 100: one trial per stream is accepted by neither
    ("montecarlo", ["--n-trials", "1", "--alpha", "3.1215953196"],
     "{n_trials: 1, alpha: 3.1215953196}"),
])
def test_validate_fails_where_the_trials_accept_nothing(tmp_path, capsys, experiment, flags,
                                                        yaml_text):
    out = tmp_path / "o"
    assert run_cli([experiment, *flags, "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert "numerical error: NoAcceptedTrials: " in capsys.readouterr().err
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: {experiment}\n{experiment}: {yaml_text}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [(experiment, "NoAcceptedTrials")]


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


@pytest.mark.parametrize("flags, fields", [
    (["--instances", "0"], {"chain.instances"}),
    (["--instances", "-2"], {"chain.instances"}),
    (["--n-ops", "1"], {"chain.n_ops"}),
    (["--dim", "0"], {"chain.dim"}),
])
def test_chain_preconditions_exit_3_and_validate_agrees(tmp_path, capsys, flags, fields):
    out = tmp_path / "o"
    assert run_cli(["chain", *flags, "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert "numerical error: InvalidConfig: chain " in capsys.readouterr().err
    assert not out.exists()
    keys = {"--instances": "instances", "--n-ops": "n_ops", "--dim": "dim"}
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: chain\nchain: {{{keys[flags[0]]}: {flags[1]}}}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert {d["field"] for d in diags} == fields
    assert {d["error"] for d in diags} == {"InvalidConfig"}


@pytest.mark.parametrize("experiment, flags, yaml_text, field", [
    ("montecarlo", ["--n-trials", "0"], "{n_trials: 0}", "montecarlo.n_trials"),
    ("montecarlo", ["--g", "0"], "{g: 0}", "montecarlo.g"),
    ("montecarlo", ["--sigma", "0"], "{sigma: 0}", "montecarlo.sigma"),
    ("montecarlo", ["--sigma", "-1"], "{sigma: -1}", "montecarlo.sigma"),
    ("montecarlo", ["--preset", "fock", "--dim", "1"], "{preset: fock, dim: 1}",
     "montecarlo.dim"),
    ("ccr", ["--n-trials", "-5"], "{n_trials: -5}", "ccr.n_trials"),
    # the correlators divide by g**2: 0, one that underflows, and 0 in a sweep
    ("ccr", ["--g", "0"], "{g: 0}", "ccr.g"),
    ("ccr", ["--g", "1e-170"], "{g: 1e-170}", "ccr.g"),
    ("ccr", ["--g-sweep", "0.01,0"], "{g_sweep: [0.01, 0]}", "ccr.g_sweep"),
    # the pointer widths, also under --no-pointer
    ("ccr", ["--no-pointer", "--sigma", "0"], "{run_pointer: false, sigma: 0}", "ccr.sigma"),
    ("ccr", ["--sigma-prime", "-1"], "{sigma_prime: -1}", "ccr.sigma_prime"),
    # widths whose square overflows or underflows
    ("ccr", ["--sigma", "1e300", "--n-trials", "0"], "{sigma: 1e300, n_trials: 0}", "ccr.sigma"),
    ("ccr", ["--sigma-prime", "1e200", "--n-trials", "0"], "{sigma_prime: 1e200, n_trials: 0}",
     "ccr.sigma_prime"),
    ("montecarlo", ["--sigma", "1e300", "--n-trials", "10"], "{sigma: 1e300, n_trials: 10}",
     "montecarlo.sigma"),
    ("ccr", ["--sigma", "1e-200", "--n-trials", "0"], "{sigma: 1e-200, n_trials: 0}", "ccr.sigma"),
    # each field in range, but hbar * sigma**2 underflows; validate names the run's section
    ("ccr", ["--sigma", "1e-160", "--hbar", "1e-10", "--n-trials", "0"],
     "{sigma: 1e-160, n_trials: 0}\nhbar: 1e-10", "ccr"),
    # budgets above 2**53, the largest the binomial and ccr's allocation hold exactly
    ("montecarlo", ["--n-trials", "100000000000000000000"], "{n_trials: 100000000000000000000}",
     "montecarlo.n_trials"),
    ("montecarlo", ["--n-trials", str(2**53 + 1)], f"{{n_trials: {2**53 + 1}}}",
     "montecarlo.n_trials"),
    ("ccr", ["--n-trials", "100000000000000000000"], "{n_trials: 100000000000000000000}",
     "ccr.n_trials"),
])
def test_monte_carlo_preconditions_exit_3_and_validate_agrees(tmp_path, capsys, experiment,
                                                              flags, yaml_text, field):
    out = tmp_path / "o"
    assert run_cli([experiment, *flags, "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert f"numerical error: InvalidConfig: {field.replace('.', ' ')} must be " in (
        capsys.readouterr().err
    )
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: {experiment}\n{experiment}: {yaml_text}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [(field, "InvalidConfig")]


@pytest.mark.parametrize("n_ops", [280, 300])
def test_chain_whose_overlap_product_underflows_exits_3(tmp_path, capsys, n_ops):
    # dim 64: the gap overlaps multiply to a subnormal number (280) or to 0 (300)
    out = tmp_path / "o"
    assert run_cli(["chain", "--dim", "64", "--n-ops", str(n_ops), "--out", str(out)]) == (
        cli.EXIT_NUMERICAL_ERROR
    )
    assert re.search(r"numerical error: WeakLabError: instance \d+: chain products leave the "
                     r"normal float range", capsys.readouterr().err)
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: chain\nchain: {{dim: 64, n_ops: {n_ops}}}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [("chain", "WeakLabError")]


def test_spin_preset_ignores_the_fock_dimension(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("experiment: montecarlo\nmontecarlo: {preset: spin, dim: 1, n_trials: 2000}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    assert run_cli(["montecarlo", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0


def test_fock_riemann_needs_three_levels(tmp_path, capsys):
    # dim 2 leaves the half-line residual no level 0..N-3 to take its maximum over
    out = tmp_path / "o"
    assert run_cli(["riemann", "--dim", "2", "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    assert "numerical error: InvalidConfig: riemann rep dim must be >= 3, got 2" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("experiment: riemann\nriemann: {rep: {dim: 2}}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert ("riemann.rep.dim", "InvalidConfig") in [(d["field"], d["error"]) for d in diags]
    assert run_cli(["riemann", "--dim", "3", "--out", str(out)]) == cli.EXIT_OK


def test_grid_riemann_ignores_the_fock_dimension(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(
        "experiment: riemann\nriemann: {rep: {kind: grid, dim: 2, n_points: 64, length: 20}}\n"
    )
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []
    assert run_cli(["riemann", "--config", str(cfgfile), "--out", str(tmp_path / "o")]) == 0


def test_validate_reports_every_chain_precondition(tmp_path, capsys):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("experiment: chain\nchain: {instances: 0, n_ops: 1}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["field"] for d in diags] == ["chain.n_ops", "chain.instances"]
    cfgfile.write_text("experiment: chain\nchain: {dim: 1, instances: 1, n_ops: 2}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


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
    assert [c["name"] for c in record["checks"]][-1] == "g_sweep_pointer_corr"
    assert [row[0] for row in record["report"]["g_sweep_rows"]] == [-0.01, 0.01]


def test_ccr_g_sweep_reruns_only_the_pointer_stage(tmp_path, monkeypatch):
    calls = {"_ccr_ops": 0, "ccr_decomposition": 0}
    for name in calls:
        def counted(*args, _name=name, _orig=getattr(experiments, name)):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(experiments, name, counted)
    out = tmp_path / "r"
    assert run_cli(["ccr", "--rep", "grid", "--points", "64", "--length", "20", "--n-trials", "0",
                    "--g-sweep", "0.01,0.02,-0.03", "--out", str(out)]) == 0
    assert calls["_ccr_ops"] == 1
    report = read_json(out / "run.json")["report"]
    # one decomposition over the stack of every admissible mid-selection
    assert calls["ccr_decomposition"] == 1
    assert len(report["per_f"]) == 39
    assert [row[0] for row in report["g_sweep_rows"]] == [0.01, 0.02, -0.03]


# -- config schema: one coercion point ---------------------------------------

@pytest.mark.parametrize("yaml_text", [
    "seed: true",
    "workers: 0",
    "ccr:\n  rep: {kind: fock, dim: 16.7}",
    "hbar: .nan",
    "ccr: fock",
    "ccr:\n  state: {displacement: 1+2}",
    "ccr:\n  state: {displacement: 1e400j}",
])
def test_rejected_config_exits_2_without_outputs(tmp_path, yaml_text):
    cfgfile = tmp_path / "bad.yaml"
    cfgfile.write_text(f"experiment: ccr\n{yaml_text}\n")
    out = tmp_path / "never"
    assert run_cli(["ccr", "--config", str(cfgfile), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--hbar", "0"], ["--dim", "16.7"], ["--seed", "1.5"]])
def test_rejected_flag_exits_2_without_outputs(tmp_path, flag):
    out = tmp_path / "never"
    assert run_cli(["ccr", *flag, "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert not out.exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_2_and_validate_reports_it(tmp_path, capsys, seed):
    # the Monte Carlo keys take the seed modulo 2**64: -1 would replay 2**64 - 1
    # and 2**64 would replay 0, each under a record stating another seed
    out = tmp_path / "never"
    assert run_cli(["montecarlo", "--seed", str(seed), "--out", str(out)]) == cli.EXIT_CONFIG_ERROR
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: chain\nseed: {seed}\n")
    capsys.readouterr()
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CONFIG_ERROR
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [("config", "ConfigError")]
    assert diags[0]["message"].startswith("seed must be in [0, 2**64)")


@pytest.mark.parametrize("workers", ["65", "1000000"])
def test_workers_above_the_bound_exit_2_without_outputs(tmp_path, capsys, workers):
    # the sampler runs no threads, and the field, its flag and its 1..64
    # bound went with them: any value is an unknown field
    for experiment in ("ccr", "montecarlo"):
        out = tmp_path / experiment
        with pytest.raises(SystemExit) as flag_exit:
            run_cli([experiment, "--workers", workers, "--out", str(out)])
        assert flag_exit.value.code == cli.EXIT_CONFIG_ERROR
        assert "unrecognized arguments: --workers" in capsys.readouterr().err
        cfgfile = tmp_path / f"{experiment}.yaml"
        cfgfile.write_text(f"experiment: {experiment}\nworkers: {workers}\n")
        assert run_cli([experiment, "--config", str(cfgfile), "--out", str(out)]) == (
            cli.EXIT_CONFIG_ERROR
        )
        assert "config error: unknown config field 'workers'" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CONFIG_ERROR
        diags = json.loads(capsys.readouterr().out)["diagnostics"]
        assert [(d["field"], d["error"], d["message"]) for d in diags] == [
            ("config", "ConfigError", "unknown config field 'workers'")
        ]


def test_ccr_small_dim_default_state_passes(tmp_path, capsys):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationWarning)
        assert run_cli(["ccr", "--dim", "16", "--n-trials", "0", "--no-pointer",
                        "--out", str(out)]) == 0
    record = read_json(out / "run.json")
    # sqrt(16)/4 = 1.0 leans on the edge (2.05e-6); the edge cap binds
    displacement = record["config"]["ccr"]["state"]["displacement"]
    assert displacement == experiments.ccr_default_displacement(16)
    assert displacement == pytest.approx(0.4786, abs=1e-4)
    assert record["report"]["edge_amp"] <= hilbert.EDGE_AMPLITUDE_WARN
    assert "avg_commutator_vs_i_hbar" in {c["name"] for c in record["checks"]}
    assert all(c["passed"] for c in record["checks"])
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text("experiment: ccr\nccr: {rep: {dim: 16}, n_trials: 0, run_pointer: false}\n")
    capsys.readouterr()
    assert run_cli(["validate", str(cfgfile)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


@pytest.mark.parametrize("flags, yaml_text", [
    (["--no-pointer"], "{run_pointer: false}"),  # the default budget, 200000
    (["--no-pointer", "--n-trials", "1"], "{run_pointer: false, n_trials: 1}"),
])
def test_ccr_trials_without_the_pointer_exit_3_and_validate_agrees(tmp_path, capsys, flags,
                                                                  yaml_text):
    # a record without the pointer would claim trials that never ran
    out = tmp_path / "o"
    assert run_cli(["ccr", "--dim", "16", *flags, "--out", str(out)]) == cli.EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical error: InvalidConfig: ccr n_trials must be 0 under run_pointer=False" in (
        captured.err)
    assert not out.exists()
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: ccr\nccr: {yaml_text}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d["field"], d["error"]) for d in diags] == [("ccr", "InvalidConfig")]
    assert diags[0]["message"].startswith("ccr n_trials must be 0 under run_pointer=False")


@pytest.mark.parametrize("dim", [8, 16, 24, 32, 64])
def test_ccr_default_displacement_keeps_off_the_edge(dim):
    a = experiments.ccr_default_displacement(dim)
    rule = min(2.0, 0.25 * math.sqrt(dim))
    edge = hilbert.edge_amplitude(hilbert.coherent_state(hilbert.FockConfig(dim), a))
    assert edge <= hilbert.EDGE_AMPLITUDE_WARN
    if dim >= 32:
        assert a == rule  # default records at dim 32 and up are unchanged
    else:
        assert a < rule
        # largest such displacement: one part in 1e9 more crosses the threshold
        bigger = hilbert.coherent_state(hilbert.FockConfig(dim), a * (1 + 1e-9))
        assert hilbert.edge_amplitude(bigger) > hilbert.EDGE_AMPLITUDE_WARN


@pytest.mark.parametrize("zero", ["0", "0.0", '"0j"', '"0+0j"'])
def test_riemann_zero_f_displacement_means_f_is_i(tmp_path, capsys, zero):
    def riemann_yaml(name, text):
        path = tmp_path / name
        path.write_text(f"experiment: riemann\nriemann: {{{text}}}\n")
        return str(path)

    reports = []
    for name, f_text in (("zero", f", f_displacement: {zero}"), ("absent", "")):
        cfgfile = riemann_yaml(f"{name}.yaml", f"rep: {{dim: 32}}, i_displacement: 1.0{f_text}")
        out = tmp_path / name
        assert run_cli(["riemann", "--config", cfgfile, "--out", str(out)]) == 0
        reports.append(read_json(out / "run.json")["report"])
    assert reports[0] == reports[1]
    assert abs(reports[0]["rho_w"]["im"]) < 0.1  # the ground state as f gives -0.5
    # validate builds (i, f) the same way: f = i, so no orthogonal selection
    far = riemann_yaml("far.yaml", f"rep: {{dim: 160}}, i_displacement: 8.0, f_displacement: {zero}")
    capsys.readouterr()
    assert run_cli(["validate", far]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"] == []


def test_yaml_decimal_string_is_a_number(tmp_path):
    # PyYAML (YAML 1.1) reads 1e-2 as the string "1e-2"
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(
        "experiment: ccr\nhbar: 1e-2\nccr:\n  n_trials: 0\n  run_pointer: false\n"
        "  rep: {dim: 6.4e1}\n"
    )
    out = tmp_path / "o"
    assert run_cli(["ccr", "--config", str(cfgfile), "--out", str(out)]) == 0
    record = read_json(out / "run.json")
    assert record["config"]["hbar"] == 0.01
    assert record["config"]["ccr"]["rep"]["dim"] == 64
    assert record["report"]["hbar"] == 0.01
    assert record["report"]["representation"] == "fock(dim=64)"


def test_complex_string_displacement_runs(tmp_path):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(
        "experiment: ccr\nccr:\n  n_trials: 0\n  run_pointer: false\n"
        "  state: {displacement: \"0.5+0.5j\"}\n"
    )
    out = tmp_path / "o"
    assert run_cli(["ccr", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert read_json(out / "run.json")["config"]["ccr"]["state"]["displacement"] == "0.5+0.5j"


# Each precondition: validate reports the error class the run raises (or,
# for TruncationWarning, warns).  The Hermitian residual has no config path:
# every operator a config can build is Hermitian by construction.
@pytest.mark.parametrize("experiment, yaml_text, error", [
    ("pauli", f"pauli: {{alpha: {math.pi}}}", "AlphaOutOfRange"),
    ("montecarlo", f"montecarlo: {{alpha: {-math.pi}}}", "AlphaOutOfRange"),
    ("montecarlo", "montecarlo: {g: 90}", "GridResolutionError"),
    ("ccr", "ccr: {g: 5.0, n_trials: 0}", "GridResolutionError"),
    ("ccr", "ccr: {sigma: 0.0, n_trials: 0}", "InvalidConfig"),
    ("ccr", "ccr: {rep: {dim: 1}}", "InvalidConfig"),
    ("riemann", "riemann: {rep: {dim: 96}, i_displacement: 4.0, f_displacement: -4.0}",
     "OrthogonalSelection"),
    ("ccr", "ccr: {rep: {dim: 8}, run_pointer: false, n_trials: 0, state: {displacement: 1.0}}",
     "TruncationWarning"),
    ("riemann", "riemann: {rep: {dim: 8}, i_displacement: 2.0}", "TruncationWarning"),
])
def test_validate_and_run_report_the_same_error(tmp_path, capsys, experiment, yaml_text, error):
    cfgfile = tmp_path / "c.yaml"
    cfgfile.write_text(f"experiment: {experiment}\n{yaml_text}\n")
    assert run_cli(["validate", str(cfgfile)]) == cli.EXIT_CHECK_FAILED
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert error in {d["error"] for d in diags}
    args = [experiment, "--config", str(cfgfile), "--out", str(tmp_path / "o")]
    if error == "TruncationWarning":
        with pytest.warns(TruncationWarning):
            run_cli(args)
    else:
        assert run_cli(args) == cli.EXIT_NUMERICAL_ERROR
        assert f"numerical error: {error}:" in capsys.readouterr().err


def _reals():
    """(raw value, the number it stands for or None)."""
    finite = st.floats(-1e6, 1e6)
    return st.one_of(
        st.integers(-10, 10**6).map(lambda n: (n, n)),
        st.integers(-10, 10**6).map(lambda n: (str(n), n)),
        finite.map(lambda x: (x, x)),
        finite.map(lambda x: (repr(x), x)),
        st.sampled_from([("1e-2", 0.01), ("2E3", 2000.0), ("-.5", -0.5), ("+7", 7),
                         ("4.5e6", 4.5e6), (16.7, 16.7), (2.25, 2.25)]),
        st.sampled_from([math.nan, math.inf, -math.inf, "inf", "nan"]).map(lambda v: (v, None)),
    )


_OTHERS = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["0.5+0.5j", "1j", "-2-1j", "nanj", "1e400j", "x", "", "fock", "grid",
                     "json", "csv", "both", "spin", "./out"]),
    st.lists(st.floats(-3, 3), max_size=3),
    st.lists(st.one_of(st.booleans(), st.text("xyz", max_size=2)), min_size=1, max_size=2),
    st.dictionaries(st.sampled_from(["a", "dim"]), st.integers(0, 3), max_size=1),
).map(lambda v: (v, None))

def _expected(kind, raw, number):
    """The coerced value resolve_config must give, or _REJECT."""
    if isinstance(kind, tuple):
        return raw if isinstance(raw, str) and raw in kind else _REJECT
    if kind == "str":
        return raw if isinstance(raw, str) else _REJECT
    if kind == "bool":
        return raw if isinstance(raw, bool) else _REJECT
    if kind == "floats":
        return list(raw) if isinstance(raw, list) and all(
            isinstance(x, float) for x in raw) else _REJECT
    if number is None:
        if kind == "complex" and isinstance(raw, str) and raw:
            try:
                z = complex(raw)
            except ValueError:
                return _REJECT
            return raw if math.isfinite(z.real) and math.isfinite(z.imag) else _REJECT
        return _REJECT
    if kind == "int":
        return int(number) if float(number).is_integer() else _REJECT
    return float(number)


_REJECT = object()


def _is_schema_type(kind, value):
    if isinstance(kind, tuple):
        return value in kind
    return {
        "int": lambda v: type(v) is int,
        "float": lambda v: type(v) is float and math.isfinite(v),
        "complex": lambda v: type(v) in (float, str),
        "floats": lambda v: type(v) is list and all(type(x) is float for x in v),
        "bool": lambda v: type(v) is bool,
        "str": lambda v: type(v) is str,
    }[kind](value)


@st.composite
def _configs(draw):
    experiment = draw(st.sampled_from(cli.EXPERIMENTS))
    fields = cli._fields(experiment)
    chosen = draw(st.lists(st.sampled_from(sorted(fields)), max_size=6, unique=True))
    raw, expected = {}, {}
    for path in chosen:
        value, number = draw(st.one_of(_reals(), _OTHERS))
        cli._put(raw, path, value)
        expected[path] = _expected(fields[path].kind, value, number)
    unknown = draw(st.sampled_from([None, "bogus", f"{experiment}.bogus", "rep"]))
    if unknown is not None:
        cli._put(raw, unknown, 1)
    return experiment, raw, expected, unknown is not None


@given(_configs())
@example(("chain", {"seed": -1}, {"seed": -1}, False))
@example(("chain", {"seed": 2**64}, {"seed": 2**64}, False))
@example(("chain", {"seed": 2**64 - 1}, {"seed": 2**64 - 1}, False))
@settings(max_examples=200, deadline=None)
def test_resolve_config_accepts_exactly_the_schema_types(case):
    experiment, raw, expected, has_unknown = case
    fields = cli._fields(experiment)
    values = {path: expected.get(path, field.default) for path, field in fields.items()}
    if experiment == "ccr" and "ccr.state.displacement" not in expected:
        dim = values["ccr.rep.dim"]
        values["ccr.state.displacement"] = (
            _REJECT if dim is _REJECT else experiments.ccr_default_displacement(dim))
    if experiment == "ccr" and "ccr.state.width" not in expected:
        length = values["ccr.rep.length"]
        values["ccr.state.width"] = (
            _REJECT if length is _REJECT else experiments.ccr_default_width(length))
    accept = (not has_unknown and _REJECT not in values.values()
              and values["hbar"] > 0 and 0 <= values["seed"] < 2**64)
    if not accept:
        with pytest.raises(cli.ConfigError):
            cli.resolve_config(experiment, raw, {})
        return
    cfg = cli.resolve_config(experiment, raw, {})
    for path, field in fields.items():
        got = cli._lookup(cfg, path)
        assert _is_schema_type(field.kind, got), (path, got)
        assert got == values[path], (path, got)
    assert cli.resolve_config(experiment, cfg, {}) == cfg
    stored = json.loads(json.dumps(cli.to_jsonable(cfg), allow_nan=False))
    assert cli.resolve_config(experiment, stored, {}) == cfg


# -- gates and the record ----------------------------------------------------

def test_monte_carlo_budget_without_usable_selection_exits_3(tmp_path, capsys):
    # 10 trials give no mid-selection the expected accepted count Monte Carlo
    # needs; the MC gate used to pass with tolerance inf
    out = tmp_path / "o"
    status = run_cli(["ccr", "--rep", "grid", "--points", "128", "--n-trials", "10",
                      "--out", str(out)])
    assert status == cli.EXIT_NUMERICAL_ERROR
    assert "NoAcceptedTrials" in capsys.readouterr().err
    assert not out.exists()


def test_run_json_is_strict_json(tmp_path):
    report = {"z": complex(math.nan, 0.0), "w": complex(1.0, -math.inf),
              "f": np.float64(math.inf), "a": np.array([math.nan])}
    record = {"report": cli.to_jsonable(report)}
    cli.write_outputs({"out": str(tmp_path), "format": "json"}, record, {})

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = json.loads((tmp_path / "run.json").read_text(), parse_constant=reject)
    assert data["report"] == {"z": {"re": "nan", "im": 0.0}, "w": {"re": 1.0, "im": "-inf"},
                              "f": "inf", "a": ["nan"]}
    with pytest.raises(ValueError):  # a bare non-finite float is refused, not written
        cli.write_outputs({"out": str(tmp_path), "format": "json"}, {"x": math.nan}, {})


def test_run_json_is_one_line_written_by_the_c_encoder(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["pauli", f"--alpha-sweep={_angles(200)}", "--out", str(out)]) == 0
    text = (out / "run.json").read_text()
    assert text == json.dumps(json.loads(text), allow_nan=False) + "\n"


def _flat_names(row) -> list:
    """A row's field names in declared order, a complex value's as <name>_re, <name>_im."""
    names = []
    for name in row._fields if isinstance(row, tuple) else [f.name for f in dataclasses.fields(row)]:
        names += [f"{name}_re", f"{name}_im"] if isinstance(getattr(row, name), complex) else [name]
    return names


def _flat_values(record_row) -> list:
    """A row's values as run.json holds them, a complex field as its re and im."""
    values = []
    for v in record_row:
        values += [v["re"], v["im"]] if isinstance(v, dict) else [v]
    return values


def _parse_cell(cell: str):
    """A CSV cell as a JSON value: "" is None, nan/inf the record's strings."""
    if cell == "":
        return None
    if cell in ("nan", "inf", "-inf"):
        return cell
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


@pytest.mark.parametrize("argv", [
    ["pauli", "--alpha-sweep", "0,0.5236,-1.0472,1e-05"],
    ["ccr", "--dim", "16", "--n-trials", "20000"],
    ["ccr", "--rep", "grid", "--points", "128", "--n-trials", "0", "--g-sweep", "0.01,0.02"],
    ["chain", "--dim", "3", "--n-ops", "3", "--instances", "3"],
    ["montecarlo", "--n-trials", "4000"],
], ids=["pauli", "ccr-fock-mc", "ccr-grid-sweep", "chain", "montecarlo"])
def test_csv_cells_are_plain_and_written_as_by_the_reference(tmp_path, monkeypatch, argv):
    """The reference is run.json: each CSV's header is its row type's flattened
    field names, and each cell parses back to the exact value the record holds."""
    reports = []

    def run(cfg, _run=cli._RUNNERS[argv[0]]):  # keeps the report, for its row types
        reports.append(_run(cfg))
        return reports[-1]

    monkeypatch.setitem(cli._RUNNERS, argv[0], run)
    assert run_cli([*argv, "--out", str(tmp_path), "--format", "csv"]) == cli.EXIT_OK
    (report,) = reports
    record_report = read_json(tmp_path / "run.json")["report"]
    # a table with no rows writes no file
    tables = {name: field for name, field in cli.TABLES[argv[0]].items()
              if field is None or record_report[field]}
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(f"{name}.csv" for name in tables)
    for name, field in tables.items():
        if field is None:  # the report itself, less the checks the record keeps on their own
            first = report
            records = [[v for k, v in record_report.items() if k not in ("checks", "passed")]]
        else:
            first = getattr(report, field)[0]
            records = [r.values() if isinstance(r, dict) else r for r in record_report[field]]
        with open(tmp_path / f"{name}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == [n for n in _flat_names(first) if n != "checks"]
        assert len(rows) == len(records)
        for row, record_row in zip(rows, records):
            # exact: a float round-trips, and an int stays an int
            assert [(type(v), v) for v in map(_parse_cell, row)] == [
                (type(v), v) for v in _flat_values(record_row)]


def test_a_non_finite_csv_cell_is_the_records_string():
    rows = cli.to_jsonable((experiments.GSweepRow(0.01, math.nan, -math.inf),))
    assert rows == [[0.01, "nan", "-inf"]]
    assert cli._table(experiments.GSweepRow, rows) == (
        ["g", "pointer_corr_over_g2", "rel_residual"], [[0.01, "nan", "-inf"]])


def test_json_replay_never_imports_yaml(tmp_path):
    argv = ["chain", "--dim", "3", "--n-ops", "2", "--instances", "2"]
    assert run_cli([*argv, "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    yaml_cfg = tmp_path / "c.yaml"
    yaml_cfg.write_text("experiment: chain\nchain: {dim: 3, n_ops: 2, instances: 2}\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])}
    imported = {}
    for name, config in (("b", tmp_path / "a" / "run.json"), ("c", yaml_cfg)):
        code = ("import sys\nfrom weaklab import cli\n"
                f"rc = cli.main(['chain', '--config', {str(config)!r}, "
                f"'--out', {str(tmp_path / name)!r}])\n"
                "print(rc, 'yaml' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rc, imported[name] = proc.stdout.split()[-2:]
        assert rc == "0"
    assert imported == {"b": "False", "c": "True"}  # a YAML config still reads as YAML
    a, b, c = (read_json(tmp_path / name / "run.json") for name in "abc")
    assert a["report"] == b["report"] == c["report"]


@pytest.mark.parametrize("argv", [
    ["pauli", "--alpha-sweep", "0.7,-1.2,1e-05"],
    ["ccr", "--rep", "grid", "--points", "128", "--n-trials", "0", "--g-sweep", "1e-05,0.02"],
    ["riemann", "--rep", "fock", "--dim", "32"],
    ["chain", "--dim", "3", "--n-ops", "2", "--instances", "2"],
    ["montecarlo", "--n-trials", "4000"],
], ids=["pauli", "ccr", "riemann", "chain", "montecarlo"])
def test_stored_record_resolves_alike_through_json_and_yaml(tmp_path, argv):
    # YAML 1.1 reads an exponent without a dot (1e-05) as a string, which
    # resolve_config reads back as the same float
    import yaml

    out = tmp_path / "r"
    assert run_cli([*argv, "--out", str(out)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
    path = out / "run.json"
    via_json = cli.load_config_file(str(path))
    via_yaml = yaml.safe_load(path.read_text())["config"]
    assert (via_json != via_yaml) == ("1e-05" in " ".join(argv))
    experiment = argv[0]
    resolved = cli.resolve_config(experiment, via_json, {})
    assert cli.resolve_config(experiment, via_yaml, {}) == resolved
    assert cli.to_jsonable(resolved) == read_json(path)["config"]


def _to_jsonable_reference(obj):
    """The isinstance-chain serializer that cli.to_jsonable must match."""
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"re": _to_jsonable_reference(obj.real), "im": _to_jsonable_reference(obj.imag)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: _to_jsonable_reference(getattr(obj, f.name))
               for f in dataclasses.fields(obj)}
        if hasattr(obj, "passed"):
            out["passed"] = bool(obj.passed)
        return out
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_to_jsonable_reference(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable_reference(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _to_jsonable_reference(v) for k, v in obj.items()}
    return obj


class _FloatSub(float):
    pass


def test_to_jsonable_matches_reference_byte_for_byte():
    import collections

    reports = [
        experiments.pauli_suite([0.7, -1.2]),
        experiments.riemann_experiment(hilbert.FockConfig(dim=16)),
        experiments.chain_experiment(dim=3, n_ops=3, n_instances=2),
        experiments.ccr_experiment(hilbert.FockConfig(dim=32), n_trials=0, run_pointer=False),
    ]
    odd = {
        "numpy": [np.float64(-0.0), np.int64(3), np.complex128(1 - 2j), np.arange(3),
                  np.array([np.inf, np.nan])],
        "plain": [-0.0, float("inf"), float("-nan"), True, None, "s", 7, (1.5, 2j)],
        "subclasses": [_FloatSub(2.5), collections.OrderedDict(a=1), _FloatSub("inf")],
        3: experiments.make_check("c", 0.5, 1.0),
    }
    for obj in [*reports, odd]:
        want = json.dumps(_to_jsonable_reference(obj), indent=2)
        assert json.dumps(cli.to_jsonable(obj), indent=2) == want
    assert cli.to_jsonable(experiments.Check) is experiments.Check  # a class is no record
