"""The per-layer tracer in bench/ wraps names that still exist.

``bench/tracer.py`` replaces each ``(module, name)`` of its ``PATCHES``
with a timed wrapper; a refactor that removes or renames one of them
would make ``bench/run.py --trace 1`` fail.  This test only imports the
tracer.
"""

import importlib.util
from pathlib import Path

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
