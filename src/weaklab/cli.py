"""Config-driven command-line runner.

Subcommands: pauli, ccr, riemann, chain, montecarlo, validate.  Each run
resolves its configuration (the defaults in ``SCHEMA`` <- YAML config
file <- command-line flags), executes the experiment, and writes
``run.json`` (the full RunRecord: resolved config, version, timestamp,
report, checks) into the output directory, with ``--format csv|both``
also the CSV tables of ``TABLES``, each a projection of rows the record
holds, and prints one line per check.  A swept run (pauli angles, ccr
couplings, chain instances) reports one row per point and one check per
name, at its worst row.  Exit status 0 means every residual check passed
its pinned tolerance, 1 means a tolerance failure, 2 a configuration
problem, 3 a numerical error from the physics layers.

Config files are JSON or YAML: a file that parses as JSON is read as
JSON, any other as YAML.  ``run.json`` is one line of strict JSON, and a
stored one can be fed back via --config; its embedded resolved config
reproduces every non-timestamp field bit-identically.  ``SCHEMA`` lists
every field with its default, its type and its flag; ``resolve_config``
is the one place values are coerced to those types.
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
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, experiments, hilbert, pointer
from .errors import TruncationWarning, WeakLabError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_ERROR = 3

EXPERIMENTS = ("pauli", "ccr", "riemann", "chain", "montecarlo")

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
    "seed": Field(0, "int", "--seed", "master seed, 0 to 2**64 - 1"),
    "hbar": Field(1.0, "float", "--hbar", "hbar > 0"),
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
    "ccr.run_pointer": Field(True, "bool", "--no-pointer",
                             "skip the pointer and Monte Carlo (needs --n-trials 0)"),
    "ccr.state.displacement": Field(
        lambda cfg: experiments.ccr_default_displacement(cfg["ccr"]["rep"]["dim"]),
        "complex", None,
        "Fock initial coherent state; default min(2, sqrt(dim) / 4), kept off the truncation edge",
    ),
    "ccr.state.width": Field(
        lambda cfg: experiments.ccr_default_width(cfg["ccr"]["rep"]["length"]), "float", None,
        "grid initial Gaussian width; default length / 24",
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
    first; a numpy value is turned into Python values, and a subclass into
    its base, and then dispatched through the same branches.
    """
    t = type(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if t is float:
        return obj if math.isfinite(obj) else repr(obj)
    if t is complex:
        re, im = obj.real, obj.imag
        return {"re": re if math.isfinite(re) else repr(re),
                "im": im if math.isfinite(im) else repr(im)}
    if t is dict:
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [to_jsonable(v) for v in obj]
    names = _FIELD_NAMES.get(t)
    if names is None and dataclasses.is_dataclass(t):
        names = _FIELD_NAMES[t] = tuple(f.name for f in dataclasses.fields(t))
    if names is not None:
        out = {name: to_jsonable(getattr(obj, name)) for name in names}
        if isinstance(obj, experiments.Report):
            out["passed"] = obj.passed
        return out
    if isinstance(obj, (np.generic, np.ndarray)):
        return to_jsonable(obj.tolist())
    for base in (int, float, complex, list, tuple, dict):
        if isinstance(obj, base):
            return to_jsonable(base(obj))
    return obj


def load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # YAML only when the text is not JSON: PyYAML is slow to import and to read
        import yaml

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
    (bools, fractional integers, non-finite numbers), hbar <= 0 and a seed
    outside [0, 2**64).
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
    # Monte Carlo keys and chain seeds take it modulo 2**64: one outside aliases one inside
    if not 0 <= cfg["seed"] < 1 << 64:
        raise ConfigError(f"seed must be in [0, 2**64), got {cfg['seed']}")
    return cfg


def _build_rep(rep_cfg: dict, hbar: float):
    if rep_cfg["kind"] == "fock":
        return hilbert.FockConfig(dim=rep_cfg["dim"], hbar=hbar)
    return hilbert.GridConfig(n_points=rep_cfg["n_points"], length=rep_cfg["length"], hbar=hbar)


def _ccr_state(rep, state_cfg: dict):
    if isinstance(rep, hilbert.FockConfig):
        return hilbert.coherent_state(rep, complex(state_cfg["displacement"]))
    return hilbert.gaussian_grid_state(rep, width=state_cfg["width"])


# ---------------------------------------------------------------------------
# experiment execution: config -> report

def _run_pauli(cfg):
    sub = cfg["pauli"]
    return experiments.pauli_suite(sub["alpha_sweep"] or [sub["alpha"]])


def _run_ccr(cfg):
    sub = cfg["ccr"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    return experiments.ccr_experiment(
        rep, i_spec=_ccr_state(rep, sub["state"]), sigma=sub["sigma"],
        sigma_prime=sub["sigma_prime"], g=sub["g"], g_sweep=sub["g_sweep"],
        n_trials=sub["n_trials"], seed=cfg["seed"], run_pointer=sub["run_pointer"],
    )


def _run_riemann(cfg):
    sub = cfg["riemann"]
    rep = _build_rep(sub["rep"], cfg["hbar"])
    # a nonzero displacement gives a Fock coherent state, else the default selection
    i, f = (
        hilbert.coherent_state(rep, complex(sub[key]))
        if isinstance(rep, hilbert.FockConfig) and complex(sub[key]) != 0 else None
        for key in ("i_displacement", "f_displacement")
    )
    return experiments.riemann_experiment(rep, i=i, f=f)


def _run_chain(cfg):
    sub = cfg["chain"]
    return experiments.chain_experiment(
        dim=sub["dim"], n_ops=sub["n_ops"], n_instances=sub["instances"], seed=cfg["seed"],
    )


def _run_montecarlo(cfg):
    sub = cfg["montecarlo"]
    return experiments.montecarlo_experiment(
        preset=sub["preset"], alpha=sub["alpha"], dim=sub["dim"], sigma=sub["sigma"],
        g=sub["g"], n_trials=sub["n_trials"], seed=cfg["seed"], hbar=cfg["hbar"],
    )


_RUNNERS = {
    "pauli": _run_pauli,
    "ccr": _run_ccr,
    "riemann": _run_riemann,
    "chain": _run_chain,
    "montecarlo": _run_montecarlo,
}


# ---------------------------------------------------------------------------
# validation: the bounds, then the run itself

def validate_config(cfg: dict) -> list[dict]:
    """Physics-precondition diagnostics; empty list means runnable.

    First the ``experiments.PRECONDITIONS`` bounds, one diagnostic per
    field.  When they hold, the run itself runs, Monte Carlo trials
    included, and writes nothing: the experiment's runner, after, for
    ``montecarlo``, its selections and pointer stage.  So validate fails
    exactly where the run at the same seed fails with an error.  An error
    the run raises becomes one diagnostic named after the experiment's
    section (``montecarlo.alpha`` and ``montecarlo.g`` for the two
    montecarlo stages); each TruncationWarning it warns becomes one more,
    and the run goes on past it as a real run does.
    """
    diags = []

    def check(field, fn, *args):
        """fn(*args), or None when it raises WeakLabError; both become diagnostics of field."""
        result = raised = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            try:
                result = fn(*args)
            except WeakLabError as exc:
                raised = exc
        for w in caught:
            if issubclass(w.category, TruncationWarning):
                diags.append({"field": field, "error": w.category.__name__,
                              "message": str(w.message)})
            else:  # any other warning is shown as the run would show it
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if raised is not None:
            diags.append({"field": field, "error": type(raised).__name__, "message": str(raised)})
        return result

    experiment = cfg["experiment"]
    sub = cfg[experiment]
    for path in experiments.PRECONDITIONS:
        scope, *parents, name = path.split(".")
        if scope != experiment:
            continue
        fields = sub
        for key in parents:
            fields = fields[key]
        # the spin preset and the grid have no dimension
        if not (name == "dim" and (fields.get("preset") == "spin" or fields.get("kind") == "grid")):
            check(path, experiments.require_precondition, path, fields[name])
    if diags:
        return diags
    if experiment == "montecarlo":
        selections = check("montecarlo.alpha", experiments.montecarlo_selections,
                           sub["preset"], sub["alpha"], sub["dim"], cfg["hbar"])
        grid = pointer.pointer_grid(sub["sigma"], cfg["hbar"])
        if selections is None or check("montecarlo.g", pointer.measure_weakly, *selections,
                                       sub["sigma"], sub["g"], grid) is None:
            return diags
    check(experiment, _RUNNERS[experiment], cfg)
    return diags


# ---------------------------------------------------------------------------
# output

# Each experiment's CSV tables: file name -> the report field whose rows the
# table holds (None: the report itself, as one row).
TABLES = {
    "pauli": {"alpha_sweep": "rows"},
    "ccr": {"mid_selections": "per_f", "g_sweep": "g_sweep_rows"},
    "riemann": {},
    "chain": {"instances": "instances"},
    "montecarlo": {"estimates": None},
}


def _table(row_type, rows: list) -> tuple[list, list]:
    """The CSV header and cells of ``rows``, the records of ``row_type`` rows: the
    type's fields in declared order, less a report's checks, a complex one as
    two columns, <name>_re and <name>_im."""
    hints = typing.get_type_hints(row_type)
    columns = [(name, part) for name, kind in hints.items() if name != "checks"
               for part in (("re", "im") if kind is complex else (None,))]
    if type(rows[0]) is list:  # a NamedTuple's record
        rows = [dict(zip(hints, row)) for row in rows]
    header = [name if part is None else f"{name}_{part}" for name, part in columns]
    return header, [[row[name] if part is None else row[name][part] for name, part in columns]
                    for row in rows]


def write_outputs(cfg: dict, record: dict, report) -> None:
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    # one line: with an indent, json falls back from its C encoder to pure Python
    (out_dir / "run.json").write_text(json.dumps(record, allow_nan=False) + "\n")
    if cfg["format"] in ("csv", "both"):
        # the row types come from the report and every cell from the record,
        # so None is written empty and a non-finite float as its string
        for name, field in TABLES[cfg["experiment"]].items():
            rows = [record["report"]] if field is None else record["report"][field]
            if rows:
                row_type = type(report if field is None else getattr(report, field)[0])
                header, cells = _table(row_type, rows)
                with open(out_dir / f"{name}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows(cells)


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
        p.add_argument("--config", help="JSON or YAML config file (or a stored run.json)")
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

    p = subs.add_parser(
        "validate", help="check a config: run it, Monte Carlo trials included, write nothing"
    )
    p.add_argument("config_path", help="JSON or YAML config file")
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
        report = _RUNNERS[experiment](cfg)
    except WeakLabError as exc:
        print(f"numerical error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR

    record = {
        "experiment": experiment,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": to_jsonable(cfg),
        "report": to_jsonable(report),
        "checks": to_jsonable(report.checks),
        "passed": report.passed,
    }
    write_outputs(cfg, record, report)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"[{status}] {c.name}: residual {c.residual:.3e} (tol {c.tol:.3e})")
    print(f"wrote {Path(cfg['out']) / 'run.json'}")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
