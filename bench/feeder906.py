"""Deterministic 906-bus stand-in for the IEEE European LV test feeder.

The IEEE European LV test feeder has 906 buses and 55 loads; it is not shipped
with phasebal. This module grows a radial tree of that size around the bundled
54-bus feeder and re-hangs the bundled loads and load shapes on it:

* every bundled line is cut into shorter segments at seeded random points, so
  the path impedance from the transformer to each original bus is unchanged;
* every load moves onto a service bus of its own, a few metres of cable below
  its original bus;
* unloaded side branches fill the tree up to the bus count.

Load order, names and shapes are copied unchanged, so ``DEFAULT_SCENARIO``'s
switch and PV customer ids apply as they are, and the voltages the loads see
stay within a fraction of a percent of the bundled feeder's.
"""

from __future__ import annotations

import csv
import shutil
from pathlib import Path

import numpy as np

N_BUSES = 906
SEED = 906
SERVICE_M = (2.0, 6.0)  # service cable from a load's original bus to its own bus
SERVICE_CODE = "tail"
SPUR_SEGMENTS = (1, 12)  # segments per unloaded side branch, inclusive
SPUR_M = (5.0, 25.0)  # metres per side-branch segment
SPUR_CODE = "branch"
SPLIT_SHARE = 0.5  # share of the added buses spent on cutting bundled lines


def _read(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _write(path: Path, header: tuple[str, ...], records: list[tuple]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def write_feeder(out_dir: Path, source_dir: Path) -> Path:
    """Write the feeder CSV tables that ``import_european_feeder`` reads.

    source_dir holds the bundled feeder's tables; the result is the same for
    every call.
    """

    rng = np.random.default_rng(SEED)
    lines = _read(source_dir / "Lines.csv")
    loads = _read(source_dir / "Loads.csv")
    root = int({r["quantity"]: r["value"] for r in _read(source_dir / "Source.csv")}["bus"])
    buses = sorted({root} | {int(l[k]) for l in lines for k in ("Bus1", "Bus2")})
    added = N_BUSES - len(buses) - len(loads)
    if added < 0:
        raise ValueError(f"{N_BUSES} buses cannot hold {len(buses)} feeder buses and {len(loads)} loads")
    next_bus = max(buses) + 1

    out_lines: list[tuple] = []
    lengths = np.array([float(l["Length_m"]) for l in lines])
    cuts = rng.multinomial(int(added * SPLIT_SHARE), lengths / lengths.sum())
    for line, n_cut in zip(lines, cuts):
        points = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n_cut)), [1.0]])
        stops = [int(line["Bus1"])] + list(range(next_bus, next_bus + n_cut)) + [int(line["Bus2"])]
        next_bus += n_cut
        for k, share in enumerate(np.diff(points)):
            out_lines.append(
                (f"{line['Name']}_{k + 1}", stops[k], stops[k + 1],
                 repr(float(line["Length_m"]) * float(share)), line["LineCode"])
            )

    out_loads: list[tuple] = []
    first_service = next_bus
    for k, load in enumerate(loads, start=1):
        out_lines.append((f"S{k}", int(load["Bus"]), next_bus,
                          repr(float(rng.uniform(*SERVICE_M))), SERVICE_CODE))
        out_loads.append((load["Name"], next_bus, load["Phase"], load["kW"], load["PF"]))
        next_bus += 1

    # Side branches hang off any feeder bus but the transformer's, whose one
    # outgoing line is the transformer branch, and the service buses, which
    # stay leaves as house connections are.
    anchors = [b for b in buses if b != root] + list(range(max(buses) + 1, first_service))
    remaining = N_BUSES - len(buses) - (next_bus - max(buses) - 1)
    spur = 0
    while remaining > 0:
        spur += 1
        count = min(remaining, int(rng.integers(SPUR_SEGMENTS[0], SPUR_SEGMENTS[1] + 1)))
        prev = int(rng.choice(anchors))
        for k in range(count):
            out_lines.append((f"B{spur}_{k + 1}", prev, next_bus,
                              repr(float(rng.uniform(*SPUR_M))), SPUR_CODE))
            prev = next_bus
            next_bus += 1
        remaining -= count

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("Source.csv", "LineCodes.csv", "LoadShapes.csv"):
        shutil.copyfile(source_dir / name, out_dir / name)
    _write(out_dir / "Lines.csv", ("Name", "Bus1", "Bus2", "Length_m", "LineCode"), out_lines)
    _write(out_dir / "Loads.csv", ("Name", "Bus", "Phase", "kW", "PF"), out_loads)
    return out_dir

