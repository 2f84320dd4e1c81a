"""Generate the bundled synthetic LV feeder dataset (deterministic).

Writes the five CSV tables the importer consumes. Rerunning with the same
knobs reproduces the committed files byte-for-byte; the knobs below are the
tuning surface for the acceptance bands measured on this dataset (feeder
voltage drop, movable-load sizes and depths, phase skew, PV/demand shapes).

Usage: python3 tools/gen_feeder.py [--out src/phasebal/data/european_lv] [--pf-movable 1.0]

--pf-movable sets the switchable customers' power factor. The random stream
does not draw it, so a variant differs from the bundled tables only in
those ten customers' PF column of Loads.csv; at the default 1.0 the output
is the bundled tables byte for byte.
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

SEED = 20240817
N_PERIODS = 96
N_CUSTOMERS = 55

# Source / transformer.
ROOT_BUS = 1
SOURCE_PU = 1.05
DT_KVA = 200.0

# Trunk: buses 1..TRUNK_BUSES chained with TRUNK_SEG_M metres per segment.
TRUNK_BUSES = 15
TRUNK_SEG_M = 55

# Laterals hang off trunk buses: trunk bus -> (bus count, metres per segment).
LATERALS = {
    3: (3, 40),
    4: (2, 35),
    5: (4, 40),
    6: (2, 35),
    7: (3, 40),
    8: (2, 35),
    9: (4, 40),
    10: (2, 35),
    11: (4, 40),
    12: (2, 35),
    13: (5, 45),
    14: (2, 35),
    15: (4, 45),
}
LATERAL_CODE = {3: "branch", 4: "branch", 5: "branch", 6: "branch", 7: "branch",
                8: "branch", 9: "branch", 10: "branch", 11: "tail", 12: "tail",
                13: "tail", 14: "tail", 15: "tail"}

# Sequence parameters per km (R1, X1, R0, X0): overhead trunk, buried tails.
LINE_CODES = {
    "trunk": (0.125, 0.24, 0.42, 0.85),
    "branch": (0.32, 0.24, 1.0, 0.80),
    "tail": (0.52, 0.14, 1.55, 0.55),
}

# Switchable customers: cid -> (trunk bus of lateral, position on lateral,
# kW, initial phase). Sizes are spaced ~20% apart (no two within 0.28 kW,
# pair-vs-single regroups separated by >= 0.09 kW) so the discrete optimum
# stays stable under small voltage-profile updates instead of cycling
# between exchange-tied assignments. All switchable customers sit at the
# first or second lateral position: reassignments then shift transformer
# power while barely moving the voltage field, so a stale profile stays a
# usable ranking surface.
MOVABLE = {
    2: (13, 2, 2.23, "b"),
    8: (7, 2, 4.07, "b"),
    23: (3, 1, 7.65, "a"),
    24: (5, 2, 5.17, "c"),
    29: (15, 2, 1.57, "c"),
    32: (9, 1, 3.35, "b"),
    33: (11, 1, 2.72, "c"),
    35: (4, 1, 6.21, "b"),
    38: (13, 1, 1.95, "b"),
    53: (15, 1, 1.26, "c"),
}

# PV hosts: cid -> (trunk bus of lateral, position, base load kW, phase).
PV_HOSTS = {
    5: (5, 3, 2.6, "a"),
    9: (9, 2, 1.9, "b"),
    15: (11, 4, 3.0, "c"),
    18: (13, 3, 2.2, "b"),
    20: (15, 1, 2.7, "a"),
    26: (7, 1, 1.8, "c"),
    30: (12, 1, 2.4, "a"),
    37: (14, 2, 2.1, "a"),
    45: (15, 3, 2.9, "b"),
    50: (13, 5, 1.6, "c"),
}

# Remaining customers: kW range and phase-share skew (toward phase a).
FIXED_KW = (0.8, 2.6)
PHASE_WEIGHTS = (0.40, 0.32, 0.28)

# Power factor by connected phase (lo, hi): phase a carries most active
# power at near-unity PF while phase c runs lighter but reactive-heavy, so
# the reactive unbalance sets a floor the switchable customers cannot
# remove. Switchable customers run at unity PF by default: their phase
# choice then moves only the active-power grid, which keeps the discrete
# optimum profile-stable instead of cycling across the max(P, Q) kink.
# --pf-movable writes a variant where their choice moves Q too.
PF_RANGE = {"a": (0.95, 0.995), "b": (0.93, 0.97), "c": (0.90, 0.95)}
PF_MOVABLE = 1.0
PF_PV = (0.97, 0.99)

# Demand-shape anchor points (hour, multiplier) per category.
SHAPES = {
    "evening": ((0, 0.16), (5, 0.13), (7, 0.32), (9, 0.38), (12, 0.30),
                (16, 0.40), (18, 0.75), (19.5, 1.0), (21, 0.88), (23, 0.35),
                (24, 0.16)),
    "day": ((0, 0.15), (6, 0.20), (9, 0.55), (12, 0.72), (15, 0.58),
            (18, 0.80), (20, 0.90), (22, 0.40), (24, 0.15)),
    "flat": ((0, 0.30), (6, 0.35), (8, 0.55), (10, 0.62), (12, 0.60),
             (14, 0.62), (16, 0.70), (18, 0.90), (20, 1.0), (22, 0.55),
             (24, 0.30)),
}
GAIN_JITTER = 0.10
PEAK_SHIFT_H = 1.75  # per-customer shift of the whole daily pattern
NOISE_SIGMA = {"evening": 0.05, "day": 0.05, "flat": 0.03}
SHAPE_CLIP = (0.04, 1.20)


def build_topology():
    """Return (lines, lat_bus) where lat_bus[trunk][i] is the i-th lateral bus."""

    lines = []
    for k in range(1, TRUNK_BUSES):
        lines.append((f"T{k}", k, k + 1, TRUNK_SEG_M, "trunk"))
    nxt = TRUNK_BUSES + 1
    lat_bus: dict[int, list[int]] = {}
    for trunk, (count, seg_m) in LATERALS.items():
        code = LATERAL_CODE[trunk]
        chain = []
        prev = trunk
        for i in range(count):
            chain.append(nxt)
            lines.append((f"L{trunk}_{i + 1}", prev, nxt, seg_m, code))
            prev = nxt
            nxt += 1
        lat_bus[trunk] = chain
    return lines, lat_bus


def build_customers(rng, lat_bus, pf_movable=PF_MOVABLE):
    """Return rows (name, bus, phase, kw, pf, category) indexed by cid-1."""

    rows: list[tuple | None] = [None] * N_CUSTOMERS
    used: dict[int, int] = {}

    def place(cid, bus, phase, kw, pf, category):
        rows[cid - 1] = (f"LOAD{cid}", bus, phase, kw, pf, category)
        used[bus] = used.get(bus, 0) + 1

    for cid, (trunk, pos, kw, phase) in MOVABLE.items():
        place(cid, lat_bus[trunk][pos - 1], phase, kw, pf_movable, "flat")
    for cid, (trunk, pos, kw, phase) in PV_HOSTS.items():
        pf = round(float(rng.uniform(*PF_PV)), 2)
        place(cid, lat_bus[trunk][pos - 1], phase, kw, pf, "day")

    pool = [b for chain in lat_bus.values() for b in chain]
    order = list(rng.permutation(pool)) + list(rng.permutation(pool))
    slot = 0
    for cid in range(1, N_CUSTOMERS + 1):
        if rows[cid - 1] is not None:
            continue
        while used.get(int(order[slot]), 0) >= 2:
            slot += 1
        bus = int(order[slot])
        slot += 1
        phase = "abc"[int(rng.choice(3, p=PHASE_WEIGHTS))]
        kw = round(float(rng.uniform(*FIXED_KW)), 1)
        pf = round(float(rng.uniform(*PF_RANGE[phase])), 2)
        category = "evening" if rng.random() < 0.7 else "day"
        place(cid, bus, phase, kw, pf, category)
    return rows


def build_shapes(rng, rows):
    hours = (np.arange(N_PERIODS) + 0.5) * (24.0 / N_PERIODS)
    shapes = np.empty((N_PERIODS, N_CUSTOMERS))
    for k, (_, _, _, _, _, category) in enumerate(rows):
        anchors = np.array(SHAPES[category], dtype=float)
        # Tile one day on each side so a shifted lookup wraps around midnight.
        tiled_h = np.concatenate([anchors[:, 0] - 24.0, anchors[:, 0], anchors[:, 0] + 24.0])
        tiled_v = np.tile(anchors[:, 1], 3)
        shift = rng.uniform(-PEAK_SHIFT_H, PEAK_SHIFT_H)
        base = np.interp(hours - shift, tiled_h, tiled_v)
        gain = 1.0 + rng.uniform(-GAIN_JITTER, GAIN_JITTER)
        noise = rng.normal(0.0, NOISE_SIGMA[category], N_PERIODS)
        noise = np.convolve(noise, np.ones(3) / 3.0, mode="same")
        shapes[:, k] = np.clip(base * gain + noise, *SHAPE_CLIP)
    return np.round(shapes, 4)


def write_dataset(out_dir: Path, pf_movable: float = PF_MOVABLE) -> None:
    rng = np.random.default_rng(SEED)
    lines, lat_bus = build_topology()
    rows = build_customers(rng, lat_bus, pf_movable)
    shapes = build_shapes(rng, rows)

    out_dir.mkdir(parents=True, exist_ok=True)

    def write(name, header, records):
        with (out_dir / name).open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(records)

    write("Source.csv", ("quantity", "value"), [
        ("bus", ROOT_BUS), ("pu", SOURCE_PU), ("angle_deg", 0), ("dt_kva", DT_KVA),
    ])
    write("LineCodes.csv",
          ("Name", "R1_ohm_per_km", "X1_ohm_per_km", "R0_ohm_per_km", "X0_ohm_per_km"),
          [(n, *LINE_CODES[n]) for n in sorted(LINE_CODES)])
    write("Lines.csv", ("Name", "Bus1", "Bus2", "Length_m", "LineCode"), lines)
    write("Loads.csv", ("Name", "Bus", "Phase", "kW", "PF"),
          [(name, bus, phase, kw, pf) for name, bus, phase, kw, pf, _ in rows])

    header = ["minutes"] + [r[0] for r in rows]
    records = [[15] + [f"{shapes[t, k]:.4f}" for k in range(N_CUSTOMERS)]
               for t in range(N_PERIODS)]
    write("LoadShapes.csv", header, records)

    total_kw = sum(r[3] for r in rows)
    by_phase = {p: sum(r[3] for r in rows if r[2] == p) for p in "abc"}
    peak = float((shapes * np.array([r[3] for r in rows])).sum(axis=1).max())
    buses = {bus for _, bus1, bus2, _, _ in lines for bus in (bus1, bus2)}
    print(f"wrote {out_dir}: {len(buses)} buses, {len(lines)} lines, "
          f"{len(rows)} customers")
    print(f"  installed kW {total_kw:.1f} (a/b/c {by_phase['a']:.1f}/"
          f"{by_phase['b']:.1f}/{by_phase['c']:.1f}), peak coincident {peak:.1f} kW")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parents[1] / "src/phasebal/data/european_lv"),
    )
    parser.add_argument(
        "--pf-movable", type=float, default=PF_MOVABLE,
        help="power factor of the switchable customers (0 < PF <= 1)",
    )
    args = parser.parse_args()
    if not 0.0 < args.pf_movable <= 1.0:
        parser.error(f"--pf-movable must lie in (0, 1], got {args.pf_movable}")
    write_dataset(Path(args.out), args.pf_movable)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
