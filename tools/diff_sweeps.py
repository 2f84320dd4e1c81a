"""Compare two sweep output directories cell by cell.

Two sweeps match when they hold the same `outcome_*.json` files, each pair
equal apart from `runtime_s`, and byte-identical `accuracy_cdf.csv` files.
`sweep.csv` and `summary.json` are not compared: `phasebal verify` rebuilds
both from the outcome files.

Prints one line per differing cell, naming the top-level keys that differ.
Exits 0 when everything matches, 1 when something differs, and 2 when a
directory holds no outcome files.

Usage: python3 tools/diff_sweeps.py OLD NEW
"""

from __future__ import annotations

import argparse
import json
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
            lines.append(f"{name}: {', '.join(keys)}")
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
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
