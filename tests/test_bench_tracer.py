"""The per-layer tracer in bench/ wraps names that still exist.

``bench/tracer.py`` replaces each ``(module, name)`` of its ``PATCHES``
with a timed wrapper, and ``Tracer.install`` replaces four more names by
hand; a refactor that removes or renames one of them would make
``bench/run.py --trace 1`` fail, or lose its span.  These tests only
import the tracer.
"""

import importlib.util
import json
from pathlib import Path

from weaklab import cli, ensemble, experiments

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("weaklab_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = load_tracer().PATCHES
    assert patches
    missing = [
        f"{module.__name__}.{name}"
        for module, name, _group in patches
        if not callable(getattr(module, name, None))
    ]
    assert missing == []


def test_every_name_install_replaces_by_hand_resolves():
    # the two protocol spans and the serialisation spans of Tracer.install
    missing = [
        f"{module.__name__}.{name}"
        for module, name in ((experiments, "run_ccr_protocol"), (ensemble, "run_ccr_protocol"),
                             (cli, "to_jsonable"))
        if not callable(getattr(module, name, None))
    ]
    assert missing == []
    # install swaps cli's json module for a copy whose dumps is traced
    assert getattr(cli, "json", None) is json
