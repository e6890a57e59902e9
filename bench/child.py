"""Run one ``weaklab`` CLI invocation in this fresh interpreter, timed from outside.

Usage::

    python3 bench/child.py TIMING_FILE MODE -- WEAKLAB_ARGS...

MODE is one of

- ``run``: run the command as ``weaklab WEAKLAB_ARGS`` would;
- ``setup``: stop as soon as the CLI enters the experiment runner;
- ``trace``: run it with spans around every layer (see ``tracer.py``) and
  write them to TIMING_FILE with the suffix ``.spans.json``.

TIMING_FILE receives ``time.monotonic()`` marks (a clock shared by every
process on the machine, so the parent can subtract its own spawn time):
``main`` when this script starts, ``enter`` when the CLI calls the
experiment runner and ``written`` when ``write_outputs`` returns, plus
``peak_rss_kb``, this process's own high-water RSS (``VmHWM``; the parent's
``ru_maxrss`` would also count the parent's memory at spawn time).  The
program itself is not modified; only the two CLI-level names
``_RUNNERS`` and ``write_outputs`` are wrapped.
"""

import json
import os
import sys
import time

T_MAIN = time.monotonic()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    timing_path, mode, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("run", "setup", "trace"):
        raise SystemExit("usage: child.py TIMING_FILE run|setup|trace -- ARGS...")
    marks = {"main": T_MAIN}

    def dump(path, obj):
        with open(path, "w") as fh:
            json.dump(obj, fh)

    from weaklab import cli

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def timed_runner(fn):
        def runner(cfg):
            marks["enter"] = time.monotonic()
            if mode == "setup":
                dump(timing_path, marks)
                os._exit(0)
            return fn(cfg)

        return runner

    for name, fn in list(cli._RUNNERS.items()):
        cli._RUNNERS[name] = timed_runner(fn)
    write_outputs = cli.write_outputs

    def timed_write(*args, **kwargs):
        write_outputs(*args, **kwargs)
        marks["written"] = time.monotonic()

    cli.write_outputs = timed_write

    rc = cli.main(argv)
    with open("/proc/self/status") as fh:
        marks["peak_rss_kb"] = next(int(line.split()[1]) for line in fh
                                    if line.startswith("VmHWM:"))
    dump(timing_path, marks)
    if tracer is not None:
        dump(timing_path + ".spans.json", tracer.spans)
    return rc


if __name__ == "__main__":
    sys.exit(main())
