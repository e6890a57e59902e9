#!/usr/bin/env python3
"""Compare two weaklab run.json records field by field.

Prints each differing path with its old and new value and, for numbers,
the absolute and relative change.  ``timestamp`` and ``config.out``
differ between any two runs and are ignored.  Exits 0 only when the
records are otherwise identical, 1 when a field differs.

    python scripts/record_diff.py old/run.json new/run.json

Given two directories (for example two outputs of scripts/record_set.py),
it compares every run.json below them field by field and every CSV file
byte for byte, and names each file that only one of them holds.

    python scripts/record_diff.py records-old records-new
"""

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

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


def record_diff(old: Path, new: Path) -> list[str]:
    """One line per differing field of two run.json files."""
    with open(old) as fa, open(new) as fb:
        return [describe(*d) for d in diff(json.load(fa), json.load(fb))]


def csv_diff(old: Path, new: Path) -> list[str]:
    """One line naming the first differing line, or none when the bytes agree."""
    a, b = old.read_bytes(), new.read_bytes()
    if a == b:
        return []
    pairs = zip_longest(a.splitlines(), b.splitlines(), fillvalue=b"")
    k = next((k for k, (x, y) in enumerate(pairs) if x != y), None)
    return ["bytes differ" if k is None else f"bytes differ from line {k + 1}"]


def _records(root: Path) -> set:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.is_file() and (p.name == "run.json" or p.suffix == ".csv")}


def tree_diff(old: Path, new: Path) -> list[str]:
    """One line per difference of the run.json and CSV files below two directories."""
    lines = []
    for rel in sorted(_records(old) | _records(new)):
        a, b = old / rel, new / rel
        if not (a.is_file() and b.is_file()):
            lines.append(f"{rel}: only in {old if a.is_file() else new}")
            continue
        compare = csv_diff if rel.endswith(".csv") else record_diff
        lines += [f"{rel}: {line}" for line in compare(a, b)]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old", help="the reference run.json, or a directory of records")
    ap.add_argument("new", help="the run.json or directory to compare against it")
    args = ap.parse_args(argv)
    old, new = Path(args.old), Path(args.new)
    if old.is_dir() and new.is_dir():
        lines, unit = tree_diff(old, new), "difference(s)"
    else:
        lines, unit = record_diff(old, new), "differing field(s)"
    for line in lines:
        print(line)
    print(f"{len(lines)} {unit}" if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
