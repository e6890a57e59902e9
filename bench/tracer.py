"""Spans around the public functions of the six weaklab layers.

Installed from outside the program by ``child.py --trace``.  The modules
import names from each other directly, so each function is wrapped where
its caller looks it up: ``experiments.run_ccr_protocol`` and
``ensemble.run_ccr_protocol`` are separate names, as are
``pointer.measure_weakly`` and ``ensemble.measure_weakly``; ``couple``,
``select``, ``to_jsonable`` and ``write_outputs`` are looked up in their own
modules.  Functions that ``experiments.chain_experiment`` and
``montecarlo_experiment`` import at call time are wrapped in their home
module.

A span is ``[id, parent_id, name, start, end, attrs]`` with ``name`` of the
form ``group/function``; spans stay in memory until the run ends.  The
parent process turns them into per-layer metrics (``run.py``).
"""

from __future__ import annotations

import itertools
import json
import time
import types

import numpy as np

from weaklab import cli, ensemble, experiments, hilbert, pointer, weakcorr

# (namespace, attribute, group).  A group becomes one or more per-layer
# metrics; its functions are the ones listed in bench/README.md.
PATCHES = (
    *((experiments, name, "hilbert.build") for name in (
        "make_fock_ops", "make_grid_ops", "basis_state", "coherent_state",
        "gaussian_grid_state", "pauli",
    )),
    *((hilbert, name, "hilbert.build") for name in (
        "random_state", "random_hermitian", "coherent_state", "gaussian_grid_state",
    )),
    (experiments, "eigenbasis", "hilbert.eigenbasis"),
    (np.linalg, "eigh", "linalg.eigh"),
    (pointer, "couple", "pointer.couple"),
    (pointer, "select", "pointer.select"),
    (pointer, "measure_weakly", "pointer.measure"),
    (ensemble, "measure_weakly", "pointer.measure"),
    (ensemble, "run_trials", "ensemble"),
    (ensemble, "estimate_weak_value", "ensemble"),
    (experiments, "averaged_weak_correlation", "weakcorr.averaged"),
    *((experiments, name, "weakcorr.per_selection") for name in (
        "weak_value", "weak_correlation", "weak_commutator",
        "weak_anticommutator", "ccr_decomposition",
    )),
    (pointer, "weak_value", "weakcorr.per_selection"),
    (weakcorr, "chain_weak_correlation", "weakcorr.chain"),
    (weakcorr, "symmetry_residuals", "weakcorr.chain"),
    *((experiments, name, "experiments") for name in (
        "pauli_suite", "ccr_experiment", "riemann_experiment",
        "chain_experiment", "montecarlo_experiment",
    )),
    *((cli, name, "cli.config") for name in (
        "build_parser", "_flag_overrides", "load_config_file", "resolve_config",
    )),
    (cli, "write_outputs", "cli.write"),
)


def _selection_key(state) -> bytes:
    return state.amplitudes.tobytes()


class Tracer:
    """Wraps weaklab functions in place and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._simulated: set[bytes] = set()

    def wrap(self, name, fn, attrs=None):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append([sid, parent, name, start, clock(), {"raised": True}])
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append([sid, parent, name, start, end,
                          attrs(args, result) if attrs else None])
            return result

        return traced

    def install(self) -> None:
        attrs = {
            "couple": lambda a, r: {
                "joint_bytes": a[0].amplitudes.shape[0] * a[0].amplitudes.shape[1] * 16
            },
            "run_trials": lambda a, r: {"trials": r.attempted, "accepted": r.accepted},
            "estimate_weak_value": lambda a, r: {
                "trials": 2 * r.attempted,
                "accepted": r.accepted_position + r.accepted_momentum,
            },
            "ccr_experiment": lambda a, r: {
                "mid_selections": len(r.per_f),
                "pointer_selections": sum(row.dx_d is not None for row in r.per_f),
                "mc_selections": sum(row.mc_attempted is not None for row in r.per_f),
            },
        }
        for module, name, group in PATCHES:
            fn = getattr(module, name)
            setattr(module, name, self.wrap(f"{group}/{name}", fn, attrs.get(name)))

        # run_ccr_protocol: a chain that ensemble.run_trials runs for a
        # selection experiments already simulated is a recompute.
        def simulated(a, r):
            self._simulated.add(_selection_key(a[1]))

        def recomputed(a, r):
            return {"recompute": _selection_key(a[1]) in self._simulated}

        experiments.run_ccr_protocol = self.wrap(
            "pointer.protocol/run_ccr_protocol", experiments.run_ccr_protocol, simulated)
        ensemble.run_ccr_protocol = self.wrap(
            "pointer.protocol/run_ccr_protocol", ensemble.run_ccr_protocol, recomputed)

        # to_jsonable recurses through its module global: one span per
        # outermost call, with the unwrapped function in place meanwhile.
        plain = cli.to_jsonable
        traced = self.wrap("cli.serialize/to_jsonable", plain)

        def outermost(*args, **kwargs):
            cli.to_jsonable = plain
            try:
                return traced(*args, **kwargs)
            finally:
                cli.to_jsonable = outermost

        cli.to_jsonable = outermost

        # json.dumps inside cli only, so the serialisation share of
        # write_outputs is its own span.
        cli_json = types.ModuleType("json")
        cli_json.__dict__.update(vars(json))
        cli_json.dumps = self.wrap("cli.serialize/json.dumps", json.dumps)
        cli.json = cli_json
