"""Compare two sweep output directories cell by cell.

Two sweeps match when they hold the same `outcome_*.json` files, each pair
equal apart from `runtime_s`, and byte-identical `accuracy_cdf.csv` files.
`sweep.csv` and `summary.json` are not compared: `phasebal verify` rebuilds
both from the outcome files.

Prints one line per differing cell, naming the top-level keys that differ,
each with the largest absolute difference between the numbers at matching
paths under it, as in `outcome_73_lbfm.json: model (1.1e-12), q_adjust
(2.0e-11)`; a key whose shape or types differ (a list of another length, a
number against NaN, changed text) is named bare. Exits 0 when everything
matches, 1 when something differs, and 2 when a directory holds no outcome
files; the code stands when the reader of its output stops early (`| head -1`).

Usage: python3 tools/diff_sweeps.py OLD NEW
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

IGNORED = {"runtime_s"}  # wall time differs between any two runs
MISSING = object()


def outcomes(directory: Path) -> dict[str, dict]:
    """Each outcome file's document by file name; NaN and infinities stay
    text, so that a NaN equals the same NaN in the other sweep."""

    return {
        p.name: json.loads(p.read_text(), parse_constant=str)
        for p in sorted(directory.glob("outcome_*.json"))
    }


def largest_change(a: object, b: object) -> float | None:
    """The largest absolute difference between the numbers at matching paths
    of two JSON values, or None when their shapes, types or texts differ."""

    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return None
        parts = [largest_change(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return None
        parts = [largest_change(x, y) for x, y in zip(a, b)]
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        return abs(a - b)
    else:
        return 0.0 if a == b and type(a) is type(b) else None
    return None if None in parts else max(parts, default=0.0)


def described(key: str, a: object, b: object) -> str:
    change = largest_change(a, b)
    return key if change is None else f"{key} ({change:.1e})"


def differences(old_dir: Path, new_dir: Path) -> list[str]:
    """One line per outcome file or report that differs between the sweeps."""

    old, new = outcomes(old_dir), outcomes(new_dir)
    lines = [f"{name}: only in {old_dir}" for name in sorted(old.keys() - new.keys())]
    lines += [f"{name}: only in {new_dir}" for name in sorted(new.keys() - old.keys())]
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        keys = sorted(
            k for k in (a.keys() | b.keys()) - IGNORED if a.get(k, MISSING) != b.get(k, MISSING)
        )
        if keys:
            changes = (described(k, a.get(k, MISSING), b.get(k, MISSING)) for k in keys)
            lines.append(f"{name}: {', '.join(changes)}")
    cdf = "accuracy_cdf.csv"
    texts = [(d / cdf).read_bytes() if (d / cdf).exists() else None for d in (old_dir, new_dir)]
    if texts[0] != texts[1]:
        lines.append(f"{cdf}: differs")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for directory in (args.old, args.new):
        if not any(directory.glob("outcome_*.json")):
            print(f"{directory}: no outcome files", file=sys.stderr)
            return 2
    lines = differences(args.old, args.new)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head -1`). Point stdout at the null
        # device so that the flush at exit cannot fail again; the exit code
        # still tells what was found.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
