#!/usr/bin/env python3
"""Compare two weaklab run.json records field by field.

Prints each differing path with its old and new value and, for numbers,
the absolute and relative change.  ``timestamp`` and ``config.out``
differ between any two runs and are ignored.  Exits 0 only when the
records are otherwise identical, 1 when a field differs.

    python scripts/record_diff.py old/run.json new/run.json
"""

import argparse
import json
import sys
from itertools import zip_longest

IGNORED = {"timestamp", "config.out"}
ABSENT = "<absent>"


def diff(old, new, path=""):
    """(path, old, new) for every differing leaf; a missing entry reads ABSENT."""
    if path in IGNORED:
        return []
    if isinstance(old, dict) and isinstance(new, dict):
        keys = [*old, *(k for k in new if k not in old)]
        return [d for k in keys
                for d in diff(old.get(k, ABSENT), new.get(k, ABSENT), f"{path}.{k}" if path else k)]
    if isinstance(old, list) and isinstance(new, list):
        pairs = zip_longest(old, new, fillvalue=ABSENT)
        return [d for k, (a, b) in enumerate(pairs) for d in diff(a, b, f"{path}[{k}]")]
    # 1 and 1.0, or 1 and true, compare equal in Python but not in the record
    if type(old) is not type(new) or old != new:
        return [(path, old, new)]
    return []


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def describe(path, old, new) -> str:
    line = f"{path}: {json.dumps(old)} -> {json.dumps(new)}"
    if _is_number(old) and _is_number(new):
        change = abs(new - old)
        rel = f"{change / abs(old):.3e}" if old else "inf"
        line += f"  abs {change:.3e}  rel {rel}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", help="the reference run.json")
    ap.add_argument("new", help="the run.json to compare against it")
    args = ap.parse_args(argv)
    with open(args.old) as fa, open(args.new) as fb:
        diffs = diff(json.load(fa), json.load(fb))
    for d in diffs:
        print(describe(*d))
    print(f"{len(diffs)} differing field(s)" if diffs else "identical")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
