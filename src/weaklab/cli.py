"""Config-driven command-line runner.

Subcommands: pauli, ccr, riemann, chain, montecarlo, validate.  Each run
resolves its configuration (documented defaults <- YAML config file <-
command-line flags), executes the experiment, and writes ``run.json``
(the full RunRecord: resolved config, version, timestamp, report,
checks) plus per-sweep CSV tables into the output directory.  Exit
status 0 means every residual check passed its pinned tolerance, 1
means a tolerance failure, 2 a configuration problem, 3 a numerical
error from the physics layers.

Config files are YAML (JSON works too).  A stored ``run.json`` can be
fed back via --config; its embedded resolved config reproduces every
non-timestamp field bit-identically.  The full schema, with defaults:

    experiment: pauli | ccr | riemann | chain | montecarlo
    out: ./weaklab-out      # output directory
    format: json            # json | csv | both
    seed: 0                 # 64-bit master seed
    hbar: 1.0
    workers: 1              # Monte Carlo worker threads
    pauli:
      alpha: 1.0471975511965976       # pi/3
      alpha_sweep: []                 # overrides alpha when nonempty
    ccr:
      rep: {kind: fock, dim: 64, n_points: 128, length: 40.0}
      sigma: 1.0
      sigma_prime: 1.0
      g: 0.01
      g_sweep: []
      n_trials: 200000                # MC attempt budget; 0 disables MC
      run_pointer: true
      state: {displacement: 2.0, width: null}   # fock / grid initial state
      pointer_points: 1024
      pointer_length_sigmas: 40.0
    riemann:
      rep: {kind: fock, dim: 64, n_points: 128, length: 40.0}
      i_displacement: 0.0             # fock selections as coherent states
      f_displacement: 0.0
    chain:
      dim: 5
      n_ops: 4
      instances: 50
    montecarlo:
      preset: spin                    # spin | fock
      alpha: 1.5707963267948966       # pi/2, spin preset
      dim: 8                          # fock preset
      sigma: 1.0
      g: 0.05
      n_trials: 40000
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__, experiments, hilbert
from .errors import InvalidConfig, WeakLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

EXPERIMENTS = ("pauli", "ccr", "riemann", "chain", "montecarlo")

DEFAULTS = {
    "out": "./weaklab-out",
    "format": "json",
    "seed": 0,
    "hbar": 1.0,
    "workers": 1,
    "pauli": {"alpha": math.pi / 3, "alpha_sweep": []},
    "ccr": {
        "rep": {"kind": "fock", "dim": 64, "n_points": 128, "length": 40.0},
        "sigma": 1.0,
        "sigma_prime": 1.0,
        "g": 0.01,
        "g_sweep": [],
        "n_trials": 200_000,
        "run_pointer": True,
        "state": {"displacement": 2.0, "width": None},
        "pointer_points": 1024,
        "pointer_length_sigmas": 40.0,
    },
    "riemann": {
        "rep": {"kind": "fock", "dim": 64, "n_points": 128, "length": 40.0},
        "i_displacement": 0.0,
        "f_displacement": 0.0,
    },
    "chain": {"dim": 5, "n_ops": 4, "instances": 50},
    "montecarlo": {
        "preset": "spin",
        "alpha": math.pi / 2,
        "dim": 8,
        "sigma": 1.0,
        "g": 0.05,
        "n_trials": 40_000,
    },
}


def to_jsonable(obj):
    """Recursively convert dataclasses/complex/numpy into JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
        if hasattr(obj, "passed"):
            out["passed"] = bool(obj.passed)
        return out
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _fmt(v) -> str:
    """Shortest round-trip decimal for CSV cells."""
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return str(int(v))
    return str(v)


class ConfigError(Exception):
    """Raised on schema violations; maps to exit status 2."""


def _deep_merge(base: dict, override: dict, path="") -> dict:
    out = dict(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(base[key], dict) and isinstance(val, dict):
            out[key] = _deep_merge(base[key], val, where)
        else:
            out[key] = val
    return out


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path!r}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    if "config" in data and "experiment" in data:  # a stored RunRecord
        inner = data["config"]
        if not isinstance(inner, dict):
            raise ConfigError("run-record config field must be a mapping")
        return inner
    return data


def resolve_config(experiment: str, file_cfg: dict, overrides: dict) -> dict:
    """defaults <- config file <- CLI flags, with unknown-key errors."""
    base = {
        "experiment": experiment,
        "out": DEFAULTS["out"],
        "format": DEFAULTS["format"],
        "seed": DEFAULTS["seed"],
        "hbar": DEFAULTS["hbar"],
        "workers": DEFAULTS["workers"],
        experiment: DEFAULTS[experiment],
    }
    file_cfg = dict(file_cfg)
    declared = file_cfg.pop("experiment", experiment)
    if declared != experiment:
        raise ConfigError(
            f"config declares experiment {declared!r} but {experiment!r} was requested"
        )
    # drop other experiments' sections so one file can hold all of them
    for other in EXPERIMENTS:
        if other != experiment:
            file_cfg.pop(other, None)
    cfg = _deep_merge(base, file_cfg)
    cfg = _deep_merge(cfg, overrides)
    if cfg["format"] not in ("json", "csv", "both"):
        raise ConfigError(f"format must be json, csv or both, got {cfg['format']!r}")
    if cfg["experiment"] != experiment:
        raise ConfigError("experiment field cannot be overridden")
    for field, kind in (("seed", int), ("workers", int)):
        if not isinstance(cfg[field], int):
            raise ConfigError(f"{field} must be an integer")
    if not isinstance(cfg["hbar"], (int, float)) or cfg["hbar"] <= 0:
        raise ConfigError("hbar must be a positive real")
    return cfg


def _build_rep(rep_cfg: dict, hbar: float):
    kind = rep_cfg.get("kind")
    if kind == "fock":
        return hilbert.FockConfig(dim=int(rep_cfg["dim"]), hbar=hbar)
    if kind == "grid":
        return hilbert.GridConfig(
            n_points=int(rep_cfg["n_points"]), length=float(rep_cfg["length"]), hbar=hbar
        )
    raise ConfigError(f"rep.kind must be fock or grid, got {kind!r}")


def _ccr_state(rep, state_cfg: dict):
    if isinstance(rep, hilbert.FockConfig):
        disp = state_cfg.get("displacement")
        if disp is None:
            return None
        return hilbert.coherent_state(rep, complex(disp))
    width = state_cfg.get("width")
    if width is None:
        return None
    return hilbert.gaussian_grid_state(rep, width=float(width))


def _pointer_grid(cfg_ccr: dict, sigma: float, hbar: float):
    return hilbert.GridConfig(
        n_points=int(cfg_ccr["pointer_points"]),
        length=float(cfg_ccr["pointer_length_sigmas"]) * sigma,
        hbar=hbar,
    )


# ---------------------------------------------------------------------------
# experiment execution -> (report, csv tables)

def _run_pauli(cfg):
    sub = cfg["pauli"]
    alphas = list(sub["alpha_sweep"]) or [sub["alpha"]]
    reports = [experiments.pauli_suite(float(a)) for a in alphas]
    rows = [
        [r.alpha, r.sxsy.real, r.sxsy.imag, r.sz_w.real, r.commutator.imag,
         r.tan_half, r.max_residual]
        for r in reports
    ]
    tables = {
        "alpha_sweep": (
            ["alpha", "sxsy_re", "sxsy_im", "sz_w", "commutator_im", "target", "residual"],
            rows,
        )
    }
    report = reports[0] if len(reports) == 1 else {
        "sweep": [to_jsonable(r) for r in reports]
    }
    checks = [c for r in reports for c in r.checks]
    return report, checks, tables


def _run_ccr(cfg):
    sub = cfg["ccr"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    i_spec = _ccr_state(rep, sub["state"])
    report = experiments.ccr_experiment(
        rep,
        i_spec=i_spec,
        sigma=float(sub["sigma"]),
        sigma_prime=float(sub["sigma_prime"]),
        g=float(sub["g"]),
        n_trials=int(sub["n_trials"]),
        seed=int(cfg["seed"]),
        run_pointer=bool(sub["run_pointer"]),
        n_workers=int(cfg["workers"]),
        pointer_points=int(sub["pointer_points"]),
        pointer_sigmas=float(sub["pointer_length_sigmas"]),
    )
    rows = [
        [r.index, r.p_eigenvalue, r.weight, r.x_w.real, r.x_w.imag,
         r.p_w.real, r.p_w.imag, r.eq9_lhs, r.eq10_lhs, r.dx_d, r.dx_d_prime,
         r.product_over_g2, r.mc_mean_product, r.mc_stderr_product,
         r.mc_accepted, r.mc_attempted]
        for r in report.per_f
    ]
    tables = {
        "mid_selections": (
            ["index", "p_eigenvalue", "weight", "x_w_re", "x_w_im", "p_w_re",
             "p_w_im", "eq9_lhs", "eq10_lhs", "dx_d", "dx_d_prime",
             "product_over_g2", "mc_mean_product", "mc_stderr_product",
             "mc_accepted", "mc_attempted"],
            rows,
        )
    }
    checks = list(report.checks)
    sweep = [float(g) for g in sub["g_sweep"]]
    if sweep:
        g_rows = []
        for g in sweep:
            rg = experiments.ccr_experiment(
                rep, i_spec=i_spec, sigma=float(sub["sigma"]),
                sigma_prime=float(sub["sigma_prime"]), g=g,
                n_trials=0, seed=int(cfg["seed"]), run_pointer=True,
                pointer_points=int(sub["pointer_points"]),
                pointer_sigmas=float(sub["pointer_length_sigmas"]),
            )
            rel = abs(rg.pointer_corr_over_g2 - cfg["hbar"] * float(sub["sigma"]) ** 2) / (
                cfg["hbar"] * float(sub["sigma"]) ** 2
            )
            g_rows.append([g, rg.pointer_corr_over_g2, rel])
            checks.append(
                experiments.make_check(
                    f"g_sweep_pointer_corr(g={g!r})", rel, experiments.CCR_POINTER_RTOL
                )
            )
        tables["g_sweep"] = (["g", "pointer_corr_over_g2", "rel_residual"], g_rows)
        report = {"base": to_jsonable(report), "g_sweep_rows": to_jsonable(g_rows)}
    return report, checks, tables


def _run_riemann(cfg):
    sub = cfg["riemann"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    i = f = None
    if isinstance(rep, hilbert.FockConfig):
        if sub["i_displacement"]:
            i = hilbert.coherent_state(rep, complex(sub["i_displacement"]))
        if sub["f_displacement"]:
            f = hilbert.coherent_state(rep, complex(sub["f_displacement"]))
    report = experiments.riemann_experiment(rep, i=i, f=f)
    return report, list(report.checks), {}


def _run_chain(cfg):
    sub = cfg["chain"]
    report = experiments.chain_experiment(
        dim=int(sub["dim"]), n_ops=int(sub["n_ops"]),
        n_instances=int(sub["instances"]), seed=int(cfg["seed"]),
    )
    rows = [
        [r.seed, r.n_ops, r.chain_value.real, r.chain_value.imag,
         r.oracle_value.real, r.oracle_value.imag, r.chain_residual,
         r.order_swap_residual, r.commutator_flip_residual]
        for r in report.instances
    ]
    tables = {
        "instances": (
            ["seed", "n_ops", "chain_re", "chain_im", "oracle_re", "oracle_im",
             "chain_residual", "order_swap_residual", "commutator_flip_residual"],
            rows,
        )
    }
    return report, list(report.checks), tables


def _run_montecarlo(cfg):
    sub = cfg["montecarlo"]
    report = experiments.montecarlo_experiment(
        preset=sub["preset"],
        alpha=float(sub["alpha"]),
        dim=int(sub["dim"]),
        sigma=float(sub["sigma"]),
        g=float(sub["g"]),
        n_trials=int(sub["n_trials"]),
        seed=int(cfg["seed"]),
        hbar=float(cfg["hbar"]),
        n_workers=int(cfg["workers"]),
    )
    rows = [[report.re_est, report.im_est, report.stderr_re, report.stderr_im,
             report.target.real, report.target.imag,
             report.accepted_position, report.accepted_momentum, report.attempted]]
    tables = {
        "estimates": (
            ["re_est", "im_est", "stderr_re", "stderr_im", "target_re",
             "target_im", "accepted_position", "accepted_momentum", "attempted"],
            rows,
        )
    }
    return report, list(report.checks), tables


_RUNNERS = {
    "pauli": _run_pauli,
    "ccr": _run_ccr,
    "riemann": _run_riemann,
    "chain": _run_chain,
    "montecarlo": _run_montecarlo,
}


# ---------------------------------------------------------------------------
# validation (schema + physics preconditions, no execution)

def validate_config(cfg: dict) -> list[dict]:
    """Physics-precondition diagnostics; empty list means runnable."""
    diags = []

    def diag(field, error, message):
        diags.append({"field": field, "error": error, "message": message})

    experiment = cfg["experiment"]
    if experiment == "pauli":
        alphas = list(cfg["pauli"]["alpha_sweep"]) or [cfg["pauli"]["alpha"]]
        for a in alphas:
            if not abs(float(a)) < math.pi - 1e-6:
                diag("pauli.alpha", "AlphaOutOfRange",
                     f"|alpha| = {abs(float(a))} leaves no selection overlap")
    if experiment == "montecarlo" and cfg["montecarlo"]["preset"] == "spin":
        a = float(cfg["montecarlo"]["alpha"])
        if not abs(a) < math.pi - 1e-6:
            diag("montecarlo.alpha", "AlphaOutOfRange",
                 f"|alpha| = {abs(a)} leaves no selection overlap")
    if experiment == "ccr":
        sub = cfg["ccr"]
        try:
            rep = _build_rep(sub["rep"], cfg["hbar"])
        except (ConfigError, InvalidConfig) as exc:
            diag("ccr.rep", type(exc).__name__, str(exc))
            return diags
        for name, sigma in (("sigma", sub["sigma"]), ("sigma_prime", sub["sigma_prime"])):
            grid = _pointer_grid(sub, float(sigma), cfg["hbar"])
            if float(sigma) < 4.0 * grid.spacing:
                diag(f"ccr.{name}", "GridResolutionError",
                     f"{name} = {sigma} under-resolved: needs >= 4 * spacing "
                     f"= {4.0 * grid.spacing}")
            if float(sigma) > grid.length / 8.0:
                diag(f"ccr.{name}", "GridResolutionError",
                     f"{name} = {sigma} too wide: needs <= pointer length/8")
        state = _ccr_state(rep, sub["state"])
        if state is None:
            state = experiments._ccr_default_state(rep)
        if isinstance(rep, hilbert.FockConfig):
            edge = hilbert.edge_amplitude(state)
            if edge > hilbert.EDGE_AMPLITUDE_WARN:
                diag("ccr.state", "TruncationWarning",
                     f"top-two-level amplitude {edge:.3e} exceeds "
                     f"{hilbert.EDGE_AMPLITUDE_WARN}")
    if experiment == "riemann":
        sub = cfg["riemann"]
        try:
            rep = _build_rep(sub["rep"], cfg["hbar"])
        except (ConfigError, InvalidConfig) as exc:
            diag("riemann.rep", type(exc).__name__, str(exc))
            return diags
        if isinstance(rep, hilbert.FockConfig):
            i = (hilbert.coherent_state(rep, complex(sub["i_displacement"]))
                 if sub["i_displacement"] else hilbert.basis_state(rep.dim, 0, rep.basis_id))
            f = (hilbert.coherent_state(rep, complex(sub["f_displacement"]))
                 if sub["f_displacement"] else hilbert.basis_state(rep.dim, 0, rep.basis_id))
            if abs(hilbert.inner(f, i)) <= 1e-12:
                diag("riemann.selections", "OrthogonalSelection",
                     "selection overlap <f|i> below 1e-12; weak values diverge")
    return diags


# ---------------------------------------------------------------------------
# output

def write_outputs(cfg: dict, record: dict, tables: dict) -> None:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    if cfg["format"] in ("csv", "both"):
        for name, (header, rows) in tables.items():
            with open(out_dir / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])


def _flag_overrides(args, experiment) -> dict:
    top = {}
    for name in ("out", "format", "seed", "hbar", "workers"):
        val = getattr(args, name, None)
        if val is not None:
            top[name] = val
    sub = {}
    mapping = {
        "pauli": {"alpha": "alpha", "alpha_sweep": "alpha_sweep"},
        "ccr": {"sigma": "sigma", "sigma_prime": "sigma_prime", "g": "g",
                "g_sweep": "g_sweep", "n_trials": "n_trials"},
        "riemann": {},
        "chain": {"dim": "dim", "n_ops": "n_ops", "instances": "instances"},
        "montecarlo": {"preset": "preset", "alpha": "alpha", "dim": "dim",
                       "sigma": "sigma", "g": "g", "n_trials": "n_trials"},
    }[experiment]
    for attr, key in mapping.items():
        val = getattr(args, attr, None)
        if val is not None:
            sub[key] = val
    if experiment in ("ccr", "riemann"):
        rep = {}
        if getattr(args, "rep", None) is not None:
            rep["kind"] = args.rep
        if getattr(args, "dim", None) is not None:
            rep["dim"] = args.dim
        if getattr(args, "points", None) is not None:
            rep["n_points"] = args.points
        if getattr(args, "length", None) is not None:
            rep["length"] = args.length
        if rep:
            sub["rep"] = rep
    if experiment == "ccr" and getattr(args, "no_pointer", False):
        sub["run_pointer"] = False
    if sub:
        top[experiment] = sub
    return top


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}") from exc


_LIST_FLAGS = ("--alpha-sweep", "--g-sweep")


def _attach_list_values(argv: list) -> list:
    """Rewrite ``--g-sweep -0.01,0.01`` as ``--g-sweep=-0.01,0.01``.

    argparse takes a separate token that starts with "-" and is not a
    single number for a flag, so a list with a leading minus would fail
    with "expected one argument"; attached with "=" it parses.
    """
    out = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        if tok == "--":
            out.extend(argv[k:])
            break
        nxt = argv[k + 1] if k + 1 < len(argv) else ""
        if tok in _LIST_FLAGS and nxt.startswith("-"):
            try:
                _float_list(nxt)
            except argparse.ArgumentTypeError:
                pass
            else:
                out.append(f"{tok}={nxt}")
                k += 2
                continue
        out.append(tok)
        k += 1
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description="Desk-scale weak-measurement laboratory",
    )
    parser.add_argument("--version", action="version", version=f"weaklab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file (or a stored run.json)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="64-bit master seed")
        p.add_argument("--format", choices=("json", "csv", "both"))
        p.add_argument("--hbar", type=float, help="hbar (default 1)")
        p.add_argument("--workers", type=int, help="Monte Carlo worker threads")

    p = subs.add_parser("pauli", help="weak Pauli (anti)commutator suite")
    common(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--alpha-sweep", dest="alpha_sweep", type=_float_list,
                   help="comma-separated angles")

    p = subs.add_parser("ccr", help="canonical commutator experiment")
    common(p)
    p.add_argument("--rep", choices=("fock", "grid"))
    p.add_argument("--dim", type=int, help="Fock truncation")
    p.add_argument("--points", type=int, help="grid points")
    p.add_argument("--length", type=float, help="grid length")
    p.add_argument("--sigma", type=float)
    p.add_argument("--sigma-prime", dest="sigma_prime", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--g-sweep", dest="g_sweep", type=_float_list)
    p.add_argument("--n-trials", dest="n_trials", type=int)
    p.add_argument("--no-pointer", dest="no_pointer", action="store_true")

    p = subs.add_parser("riemann", help="Riemann-operator weak value")
    common(p)
    p.add_argument("--rep", choices=("fock", "grid"))
    p.add_argument("--dim", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--length", type=float)

    p = subs.add_parser("chain", help="high-order chain and dual symmetries")
    common(p)
    p.add_argument("--dim", type=int)
    p.add_argument("--n-ops", dest="n_ops", type=int)
    p.add_argument("--instances", type=int)

    p = subs.add_parser("montecarlo", help="Monte Carlo weak-value estimation")
    common(p)
    p.add_argument("--preset", choices=("spin", "fock"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--g", type=float)
    p.add_argument("--n-trials", dest="n_trials", type=int)

    p = subs.add_parser("validate", help="check a config without running it")
    p.add_argument("config_path", help="YAML config file")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_attach_list_values(argv))

    if args.command == "validate":
        try:
            file_cfg = load_config_file(args.config_path)
            experiment = file_cfg.get("experiment")
            if experiment not in EXPERIMENTS:
                raise ConfigError(
                    f"validate needs an experiment field, one of {EXPERIMENTS}"
                )
            cfg = resolve_config(experiment, file_cfg, {})
            diags = validate_config(cfg)
        except ConfigError as exc:
            print(json.dumps({"diagnostics": [
                {"field": "config", "error": "ConfigError", "message": str(exc)}
            ]}, indent=2))
            return EXIT_CONFIG_ERROR
        print(json.dumps({"diagnostics": diags}, indent=2))
        return EXIT_OK if not diags else EXIT_CHECK_FAILED

    experiment = args.command
    try:
        file_cfg = load_config_file(args.config) if args.config else {}
        cfg = resolve_config(experiment, file_cfg, _flag_overrides(args, experiment))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        report, checks, tables = _RUNNERS[experiment](cfg)
    except WeakLabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    passed = all(c.passed for c in checks)
    record = {
        "experiment": experiment,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": to_jsonable(cfg),
        "report": to_jsonable(report),
        "checks": to_jsonable(list(checks)),
        "passed": passed,
    }
    write_outputs(cfg, record, tables if cfg["format"] in ("csv", "both") else {})
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: residual {c.residual:.3e} (tol {c.tol:.3e})")
    print(f"wrote {Path(cfg['out']) / 'run.json'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
