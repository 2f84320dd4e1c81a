"""Write the record of a day's decisions from a sweep directory.

For each (period, method) cell of a sweep with PV-Q off, the record holds
the chosen assignment (one phase digit per customer), whether the search
fell back to the initial assignment (`stats.fell_back_to_initial`), and the
model and verified objectives, as one CSV row. The bundled day's record is
`tests/data/bundled_day_decisions.csv`, which `tests/test_decision_record.py`
compares with a fresh sweep: assignments and fallback flags exactly,
objectives to RTOL relative.

A change that moves decisions on purpose rewrites it with

    phasebal sweep --periods 0:96 --parallelism 2 --out-dir D
    python3 tools/decision_record.py D

which exits 2, writing nothing, when D holds no outcome file, a failed
cell or a PV-Q-on cell.

Usage: python3 tools/decision_record.py SWEEP_DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

RECORD = Path(__file__).resolve().parents[1] / "tests" / "data" / "bundled_day_decisions.csv"
FIELDS = ("period", "method", "assignment", "fell_back", "model_objective", "verified_objective")
RTOL = 1e-9  # relative tolerance on the objectives; the rest compares exactly


@dataclass(frozen=True)
class Decision:
    assignment: str  # one phase digit (0, 1, 2) per customer, in customer order
    fell_back: bool
    model_objective: float
    verified_objective: float


Decisions = dict[tuple[int, str], Decision]


def decisions(sweep_dir: Path) -> Decisions:
    """Each outcome file's decision by (period, method); a failed cell or a
    PV-Q-on sweep is refused, since neither has a decision at q = 0."""

    out: Decisions = {}
    for path in sorted(Path(sweep_dir).glob("outcome_*.json")):
        doc = json.loads(path.read_text())
        if doc["status"] != "ok":
            raise ValueError(f"{path.name}: {doc['error']}")
        if doc["pv_control"]:
            raise ValueError(f"{path.name}: the record is of a sweep with PV-Q off")
        out[doc["period"], doc["method"]] = Decision(
            "".join(str(p) for p in doc["assignment"]),
            doc["stats"].get("fell_back_to_initial", 0.0) == 1.0,
            doc["model"]["objective"],
            doc["verified"]["objective"],
        )
    return out


def write(path: Path, record: Decisions) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIELDS)
        for (period, method), d in sorted(record.items()):
            writer.writerow([
                period, method, d.assignment, int(d.fell_back),
                repr(d.model_objective), repr(d.verified_objective),
            ])


def read(path: Path = RECORD) -> Decisions:
    with open(path, newline="") as fh:
        return {
            (int(row["period"]), row["method"]): Decision(
                row["assignment"], row["fell_back"] == "1",
                float(row["model_objective"]), float(row["verified_objective"]),
            )
            for row in csv.DictReader(fh)
        }


def differences(want: Decisions, got: Decisions) -> list[str]:
    """One line per cell that differs, naming what differs."""

    lines = [f"period {p} {m}: not in the sweep" for p, m in sorted(want.keys() - got.keys())]
    lines += [f"period {p} {m}: not in the record" for p, m in sorted(got.keys() - want.keys())]
    for key in sorted(want.keys() & got.keys()):
        a, b = want[key], got[key]
        changed = [name for name in ("assignment", "fell_back") if getattr(a, name) != getattr(b, name)]
        changed += [
            name
            for name in ("model_objective", "verified_objective")
            if not math.isclose(getattr(a, name), getattr(b, name), rel_tol=RTOL)
        ]
        if changed:
            lines.append(f"period {key[0]} {key[1]}: {', '.join(changed)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep_dir", type=Path)
    args = parser.parse_args(argv)
    try:
        got = decisions(args.sweep_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not got:
        print(f"{args.sweep_dir}: no outcome files", file=sys.stderr)
        return 2
    write(RECORD, got)
    return 0


if __name__ == "__main__":
    sys.exit(main())
