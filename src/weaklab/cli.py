"""Config-driven command-line runner.

Subcommands: pauli, ccr, riemann, chain, montecarlo, validate.  Each run
resolves its configuration (the defaults in ``SCHEMA`` <- YAML config
file <- command-line flags), executes the experiment, and writes
``run.json`` (the full RunRecord: resolved config, version, timestamp,
report, checks) plus per-sweep CSV tables into the output directory.
Exit status 0 means every residual check passed its pinned tolerance, 1
means a tolerance failure, 2 a configuration problem, 3 a numerical
error from the physics layers.

Config files are YAML (JSON works too).  A stored ``run.json`` can be
fed back via --config; its embedded resolved config reproduces every
non-timestamp field bit-identically.  ``SCHEMA`` lists every field with
its default, its type and its flag; ``resolve_config`` is the one place
values are coerced to those types.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__, experiments, hilbert, pointer, weakcorr
from .errors import TruncationWarning, WeakLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

EXPERIMENTS = ("pauli", "ccr", "riemann", "chain", "montecarlo")

# Upper bound on --workers.  The useful thread count is at most the number
# of 65536-trial RNG blocks; the bound keeps a typo from asking for
# thousands of threads.
MAX_WORKERS = 64


class ConfigError(Exception):
    """Raised on schema violations; maps to exit status 2."""


@dataclass(frozen=True)
class Field:
    """One config leaf: default, type and command-line flag (None: file only).

    ``kind`` is one of the names in ``_KINDS`` or a tuple of allowed strings.
    A callable ``default`` derives the value from the config resolved so
    far (the fields listed before it in ``SCHEMA``).
    """

    default: object
    kind: object
    flag: str | None = None
    help: str | None = None


def _rep_fields(experiment: str) -> dict:
    return {
        f"{experiment}.rep.kind": Field("fock", ("fock", "grid"), "--rep", "representation"),
        f"{experiment}.rep.dim": Field(64, "int", "--dim", "Fock truncation"),
        f"{experiment}.rep.n_points": Field(128, "int", "--points", "grid points"),
        f"{experiment}.rep.length": Field(40.0, "float", "--length", "grid length"),
    }


SCHEMA = {
    "out": Field("./weaklab-out", "str", "--out", "output directory"),
    "format": Field("json", ("json", "csv", "both"), "--format", "output files"),
    "seed": Field(0, "int", "--seed", "64-bit master seed"),
    "hbar": Field(1.0, "float", "--hbar", "hbar > 0"),
    "workers": Field(1, "int", "--workers", f"Monte Carlo worker threads, 1 to {MAX_WORKERS}"),
    "pauli.alpha": Field(math.pi / 3, "float", "--alpha", "spin angle"),
    "pauli.alpha_sweep": Field(
        [], "floats", "--alpha-sweep", "comma-separated angles; overrides alpha when nonempty"
    ),
    **_rep_fields("ccr"),
    "ccr.sigma": Field(1.0, "float", "--sigma", "first pointer width"),
    "ccr.sigma_prime": Field(1.0, "float", "--sigma-prime", "second pointer width"),
    "ccr.g": Field(0.01, "float", "--g", "coupling strength"),
    "ccr.g_sweep": Field([], "floats", "--g-sweep", "comma-separated couplings, exact pointer only"),
    "ccr.n_trials": Field(200_000, "int", "--n-trials", "Monte Carlo attempt budget; 0 disables it"),
    "ccr.run_pointer": Field(True, "bool", "--no-pointer", "skip the pointer and Monte Carlo"),
    "ccr.state.displacement": Field(
        lambda cfg: experiments.ccr_default_displacement(cfg["ccr"]["rep"]["dim"]),
        "complex", None,
        "Fock initial coherent state; default min(2, sqrt(dim) / 4), kept off the truncation edge",
    ),
    "ccr.state.width": Field(None, "float?", None, "grid initial Gaussian width; null: length/24"),
    "ccr.pointer_points": Field(pointer.DEFAULT_POINTER_POINTS, "int", None, "pointer grid points"),
    "ccr.pointer_length_sigmas": Field(
        pointer.DEFAULT_POINTER_WIDTHS, "float", None, "pointer grid length in units of sigma"
    ),
    **_rep_fields("riemann"),
    "riemann.i_displacement": Field(0.0, "complex", None, "Fock pre-selection; 0: ground state"),
    "riemann.f_displacement": Field(0.0, "complex", None, "Fock post-selection; 0: same as i"),
    "chain.dim": Field(5, "int", "--dim", "system dimension"),
    "chain.n_ops": Field(4, "int", "--n-ops", "operators per chain"),
    "chain.instances": Field(50, "int", "--instances", "random instances"),
    "montecarlo.preset": Field("spin", ("spin", "fock"), "--preset", "selection preset"),
    "montecarlo.alpha": Field(math.pi / 2, "float", "--alpha", "spin preset angle"),
    "montecarlo.dim": Field(8, "int", "--dim", "fock preset truncation"),
    "montecarlo.sigma": Field(1.0, "float", "--sigma", "pointer width"),
    "montecarlo.g": Field(0.05, "float", "--g", "coupling strength"),
    "montecarlo.n_trials": Field(40_000, "int", "--n-trials", "trials per readout"),
}

# YAML 1.1 leaves decimals without a dot or a signed exponent, such as
# 1e-2, as strings; they are read as numbers here.
_DECIMAL = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _real(value):
    """A finite int or float, from a number or a decimal string; never a bool."""
    if isinstance(value, str) and _DECIMAL.fullmatch(value):
        value = int(value) if value.lstrip("+-").isdigit() else float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(value)
    return value


def _int(value):
    x = _real(value)
    if x != int(x):
        raise ValueError(value)
    return int(x)


def _float(value):
    return float(_real(value))


def _complex(value):
    """A real number as a float, or a complex string such as "0.5+0.5j" as written."""
    if isinstance(value, str) and not _DECIMAL.fullmatch(value):
        z = complex(value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(value)
        return value
    return _float(value)


def _floats(value):
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    return [_float(x) for x in value]


def _typed(kind):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value

    return check


_KINDS = {
    "int": (_int, "an integer"),
    "float": (_float, "a finite real number"),
    "float?": (lambda v: None if v is None else _float(v), "a finite real number or null"),
    "complex": (_complex, 'a finite real number or a complex string such as "0.5+0.5j"'),
    "floats": (_floats, "a list of finite real numbers"),
    "bool": (_typed(bool), "true or false"),
    "str": (_typed(str), "a string"),
}


def _coerce(path: str, kind, value):
    if isinstance(kind, tuple):
        if isinstance(value, str) and value in kind:
            return value
        raise ConfigError(f"{path} must be one of {', '.join(kind)}, got {value!r}")
    convert, expected = _KINDS[kind]
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path} must be {expected}, got {value!r}") from None


def _fields(experiment: str) -> dict:
    """The schema of one experiment: the shared fields and its own section."""
    return {path: field for path, field in SCHEMA.items()
            if "." not in path or path.startswith(experiment + ".")}


_MISSING = object()


def _lookup(tree: dict, path: str):
    for key in path.split("."):
        if not isinstance(tree, dict) or key not in tree:
            return _MISSING
        tree = tree[key]
    return tree


def _put(tree: dict, path: str, value) -> None:
    *sections, leaf = path.split(".")
    for key in sections:
        tree = tree.setdefault(key, {})
    tree[leaf] = value


def _check_keys(tree: dict, fields: dict, prefix: str = "") -> None:
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if path in fields:
            continue
        if not any(p.startswith(path + ".") for p in fields):
            raise ConfigError(f"unknown config field {path!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"config field {path!r} must be a mapping")
        _check_keys(value, fields, path + ".")


_FIELD_NAMES: dict[type, tuple] = {}  # dataclass -> its field names


def to_jsonable(obj):
    """Recursively convert dataclasses/complex/numpy into strict-JSON types.

    Non-finite floats, also the parts of a complex number, become the
    strings "nan", "inf" and "-inf".  The common exact types are dispatched
    first; subclasses and numpy types take the isinstance branches below.
    """
    t = type(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if t is float:
        return obj if math.isfinite(obj) else repr(obj)
    if t is complex:
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if t is dict:
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [to_jsonable(v) for v in obj]
    names = _FIELD_NAMES.get(t)
    if names is None and dataclasses.is_dataclass(t):
        names = _FIELD_NAMES[t] = tuple(f.name for f in dataclasses.fields(t))
    if names is not None:
        out = {name: to_jsonable(getattr(obj, name)) for name in names}
        if hasattr(obj, "passed"):
            out["passed"] = bool(obj.passed)
        return out
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"re": to_jsonable(obj.real), "im": to_jsonable(obj.imag)}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
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
    """defaults <- config file <- CLI flags, each leaf coerced to its SCHEMA type.

    Raises ConfigError on unknown fields, values of the wrong type
    (bools, fractional integers, non-finite numbers), hbar <= 0 and
    workers outside 1..MAX_WORKERS.
    """
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
    fields = _fields(experiment)
    cfg = {"experiment": experiment}
    for source in (file_cfg, overrides):
        _check_keys(source, fields)
    for path, field in fields.items():
        value = _MISSING
        for source in (file_cfg, overrides):
            found = _lookup(source, path)
            if found is not _MISSING:
                value = found
        if value is _MISSING:
            value = field.default(cfg) if callable(field.default) else field.default
        _put(cfg, path, _coerce(path, field.kind, value))
    if cfg["hbar"] <= 0:
        raise ConfigError("hbar must be a positive real")
    if not 1 <= cfg["workers"] <= MAX_WORKERS:
        raise ConfigError(f"workers must be between 1 and {MAX_WORKERS}")
    return cfg


def _build_rep(rep_cfg: dict, hbar: float):
    if rep_cfg["kind"] == "fock":
        return hilbert.FockConfig(dim=rep_cfg["dim"], hbar=hbar)
    return hilbert.GridConfig(n_points=rep_cfg["n_points"], length=rep_cfg["length"], hbar=hbar)


def _ccr_state(rep, state_cfg: dict):
    if isinstance(rep, hilbert.FockConfig):
        return hilbert.coherent_state(rep, complex(state_cfg["displacement"]))
    if state_cfg["width"] is None:
        return experiments._ccr_default_state(rep)
    return hilbert.gaussian_grid_state(rep, width=state_cfg["width"])


def _riemann_selections(rep, sub: dict):
    """(i, f) of a riemann run: a nonzero displacement gives a Fock coherent state."""
    i, f = (
        hilbert.coherent_state(rep, complex(sub[key]))
        if isinstance(rep, hilbert.FockConfig) and complex(sub[key]) != 0 else None
        for key in ("i_displacement", "f_displacement")
    )
    return experiments.riemann_selections(rep, i, f)


def _check_ccr_pointer(sub: dict, name: str, hbar: float) -> None:
    """The grid checks a ccr run makes before it prepares the pointer of width sub[name]."""
    grid = pointer.pointer_grid(sub[name], hbar, sub["pointer_points"], sub["pointer_length_sigmas"])
    pointer.check_resolution(grid, sub[name])


# ---------------------------------------------------------------------------
# experiment execution -> (report, csv tables)

def _run_pauli(cfg):
    sub = cfg["pauli"]
    reports = [experiments.pauli_suite(a) for a in sub["alpha_sweep"] or [sub["alpha"]]]
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
    report = reports[0] if len(reports) == 1 else {"sweep": reports}
    checks = [c for r in reports for c in r.checks]
    return report, checks, tables


def _run_ccr(cfg):
    sub = cfg["ccr"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    common = dict(
        i_spec=_ccr_state(rep, sub["state"]), sigma=sub["sigma"],
        sigma_prime=sub["sigma_prime"], seed=cfg["seed"],
        pointer_points=sub["pointer_points"], pointer_sigmas=sub["pointer_length_sigmas"],
    )
    report = experiments.ccr_experiment(
        rep, g=sub["g"], n_trials=sub["n_trials"], run_pointer=sub["run_pointer"],
        n_workers=cfg["workers"], **common,
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
    if sub["g_sweep"]:
        target = cfg["hbar"] * sub["sigma"] ** 2
        g_rows = []
        for g in sub["g_sweep"]:
            rg = experiments.ccr_experiment(rep, g=g, n_trials=0, run_pointer=True, **common)
            rel = abs(rg.pointer_corr_over_g2 - target) / target
            g_rows.append([g, rg.pointer_corr_over_g2, rel])
            checks.append(
                experiments.make_check(
                    f"g_sweep_pointer_corr(g={g!r})", rel, experiments.CCR_POINTER_RTOL
                )
            )
        tables["g_sweep"] = (["g", "pointer_corr_over_g2", "rel_residual"], g_rows)
        report = {"base": report, "g_sweep_rows": g_rows}
    return report, checks, tables


def _run_riemann(cfg):
    sub = cfg["riemann"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    i, f = _riemann_selections(rep, sub)
    report = experiments.riemann_experiment(rep, i=i, f=f)
    return report, list(report.checks), {}


def _run_chain(cfg):
    sub = cfg["chain"]
    report = experiments.chain_experiment(
        dim=sub["dim"], n_ops=sub["n_ops"], n_instances=sub["instances"], seed=cfg["seed"],
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
        preset=sub["preset"], alpha=sub["alpha"], dim=sub["dim"], sigma=sub["sigma"],
        g=sub["g"], n_trials=sub["n_trials"], seed=cfg["seed"], hbar=cfg["hbar"],
        n_workers=cfg["workers"],
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
# validation: the run's own precondition functions, without the run

def validate_config(cfg: dict) -> list[dict]:
    """Physics-precondition diagnostics; empty list means runnable.

    Each precondition is checked by calling the function the run raises
    (or, for TruncationWarning, warns) from; every error it raises
    becomes one diagnostic.
    """
    diags = []

    def check(field, fn, *args):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", TruncationWarning)
                return fn(*args)
        except (WeakLabError, TruncationWarning) as exc:
            diags.append({"field": field, "error": type(exc).__name__, "message": str(exc)})
            return None

    experiment = cfg["experiment"]
    sub = cfg[experiment]
    if experiment == "pauli":
        for a in sub["alpha_sweep"] or [sub["alpha"]]:
            check("pauli.alpha", experiments.spin_selections, a)
    if experiment == "montecarlo" and sub["preset"] == "spin":
        check("montecarlo.alpha", experiments.spin_selections, sub["alpha"])
    for path in experiments.PRECONDITIONS:
        scope, name = path.split(".")
        # the spin preset has no dimension
        if scope == experiment and not (name == "dim" and sub.get("preset") == "spin"):
            check(path, experiments.require_precondition, path, sub[name])
    if experiment not in ("ccr", "riemann"):
        return diags
    rep = check(f"{experiment}.rep", _build_rep, sub["rep"], cfg["hbar"])
    if rep is None:
        return diags
    if experiment == "ccr":
        state = check("ccr.state", _ccr_state, rep, sub["state"])
        if state is not None:
            check("ccr.state", hilbert.check_truncation_edge, rep, state)
        if sub["run_pointer"] or sub["g_sweep"]:
            for name in ("sigma", "sigma_prime"):
                check(f"ccr.{name}", _check_ccr_pointer, sub, name, cfg["hbar"])
    else:
        i, f = _riemann_selections(rep, sub)
        check("riemann.i_displacement", hilbert.check_truncation_edge, rep, i)
        check("riemann.selections", weakcorr.selection_overlap, f, i)
    return diags


# ---------------------------------------------------------------------------
# output

def write_outputs(cfg: dict, record: dict, tables: dict) -> None:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run.json").write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    if cfg["format"] in ("csv", "both"):
        for name, (header, rows) in tables.items():
            with open(out_dir / f"{name}.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_fmt(v) for v in row])


def _flag_overrides(args, experiment) -> dict:
    """The flags given on the command line, nested as in a config file."""
    overrides = {}
    for path in _fields(experiment):
        value = getattr(args, path, None)
        if value is not None:
            _put(overrides, path, value)
    return overrides


def _float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}") from exc


_LIST_FLAGS = {field.flag for field in SCHEMA.values() if field.kind == "floats"}


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
    """One subcommand per experiment with the flags of its SCHEMA fields, plus validate."""
    parser = argparse.ArgumentParser(
        prog="weaklab",
        description="Desk-scale weak-measurement laboratory",
    )
    parser.add_argument("--version", action="version", version=f"weaklab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    helps = {
        "pauli": "weak Pauli (anti)commutator suite",
        "ccr": "canonical commutator experiment",
        "riemann": "Riemann-operator weak value",
        "chain": "high-order chain and dual symmetries",
        "montecarlo": "Monte Carlo weak-value estimation",
    }
    for experiment in EXPERIMENTS:
        p = subs.add_parser(experiment, help=helps[experiment])
        p.add_argument("--config", help="YAML config file (or a stored run.json)")
        for path, field in _fields(experiment).items():
            if field.flag is None:
                continue
            # values stay strings here; resolve_config coerces them
            kwargs = {"dest": path, "help": field.help}
            if field.kind == "bool":
                kwargs.update(action="store_const", const=not field.default)
            elif field.kind == "floats":
                kwargs["type"] = _float_list
            elif isinstance(field.kind, tuple):
                kwargs["choices"] = field.kind
            p.add_argument(field.flag, **kwargs)

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
