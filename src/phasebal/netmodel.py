"""Feeder topology, demand series and per-period case snapshots.

Loads a low-voltage feeder from its CSV tables (lines, line codes, loads,
load shapes, source, bus coordinates), converts everything to per-unit on
the default bases and produces immutable per-period snapshots with net
demands and optional PV reactive-power bounds.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

PHASES = ("a", "b", "c")
PHASE_INDEX = {"a": 0, "b": 1, "c": 2, "A": 0, "B": 1, "C": 2, "1": 0, "2": 1, "3": 2}


class FeederFormatError(ValueError):
    """A feeder table is missing, malformed or references unknown records."""


class RadialityError(ValueError):
    """The feeder graph is not a tree rooted at the source bus."""


@dataclass(frozen=True, eq=False)
class Phasor3:
    """One complex value per phase a, b, c."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=complex)
        if arr.shape != (3,):
            raise ValueError(f"Phasor3 needs exactly 3 values, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Phasor3 components must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_polar(cls, magnitudes: Sequence[float], angles_rad: Sequence[float]) -> "Phasor3":
        mags = np.asarray(magnitudes, dtype=float)
        angs = np.asarray(angles_rad, dtype=float)
        return cls(mags * np.exp(1j * angs))

    def __iter__(self):
        return iter(complex(v) for v in self.values)


@dataclass(frozen=True)
class PerUnitBases:
    """Per-unit system: line-neutral voltage base and three-phase power base."""

    voltage_v: float = 240.0
    power_va: float = 100_000.0

    @property
    def phase_power_va(self) -> float:
        return self.power_va / 3.0

    @property
    def impedance_ohm(self) -> float:
        return self.voltage_v**2 / self.phase_power_va


@dataclass(frozen=True)
class Limits:
    """Operational limits and the penalty weight shared by all formulations."""

    v_min: float = 0.94
    v_max: float = 1.10
    neg_seq_max: float = 0.01
    i_dt_max: float = 2.0
    mb: float = 500.0
    angle_halfwidth_rad: float = math.radians(10.0)

    def __post_init__(self) -> None:
        if not self.v_min < self.v_max:
            raise ValueError("require v_min < v_max")
        if min(self.v_min, self.neg_seq_max, self.i_dt_max, self.mb, self.angle_halfwidth_rad) <= 0:
            raise ValueError("limits and penalty weight must be positive")


@dataclass(frozen=True, eq=False)
class Line:
    name: str
    from_bus: int
    to_bus: int
    z_pu: np.ndarray  # (3, 3) complex, symmetric

    def __post_init__(self) -> None:
        z = np.asarray(self.z_pu, dtype=complex)
        if z.shape != (3, 3):
            raise FeederFormatError(f"line {self.name}: impedance must be 3x3")
        if not np.allclose(z, z.T, rtol=0, atol=1e-12):
            raise FeederFormatError(f"line {self.name}: impedance matrix is not symmetric")
        z.setflags(write=False)
        object.__setattr__(self, "z_pu", z)


@dataclass(frozen=True)
class Customer:
    cid: int
    name: str
    bus: int
    initial_phase: int  # 0, 1, 2 for a, b, c


@dataclass(frozen=True, eq=False)
class Network:
    """Radial feeder in per-unit: buses, lines, customers, limits and bases.

    `topology` is the radiality check's report, made once on construction.
    """

    name: str
    buses: tuple[int, ...]
    root: int
    lines: tuple[Line, ...]
    customers: tuple[Customer, ...]
    v0: Phasor3
    limits: Limits
    bases: PerUnitBases
    coords: Mapping[int, tuple[float, float]] = field(default_factory=dict)
    topology: TopologyReport = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bus_set = set(self.buses)
        if self.root not in bus_set:
            raise FeederFormatError(f"root bus {self.root} is not in the bus list")
        for line in self.lines:
            for end in (line.from_bus, line.to_bus):
                if end not in bus_set:
                    raise FeederFormatError(f"line {line.name} references unknown bus {end}")
        for cust in self.customers:
            if cust.bus not in bus_set:
                raise FeederFormatError(f"customer {cust.name} references unknown bus {cust.bus}")
        object.__setattr__(self, "topology", validate_radial(self))

    @property
    def n_buses(self) -> int:
        return len(self.buses)

    @property
    def n_customers(self) -> int:
        return len(self.customers)


@dataclass(frozen=True)
class TopologyReport:
    """Buses in breadth-first order from the root, each non-root bus's parent
    bus, and the position in `Network.lines` of the line to that parent."""

    depth_order: tuple[int, ...]
    parent: Mapping[int, int]
    parent_line: Mapping[int, int]


@dataclass(frozen=True, eq=False)
class DemandSeries:
    """Aligned per-customer demand samples in watts/vars on a fixed grid."""

    customer_ids: tuple[int, ...]
    p_w: np.ndarray  # (periods, customers)
    q_var: np.ndarray
    minutes_per_period: int
    start_minute: int = 0

    def __post_init__(self) -> None:
        p = np.asarray(self.p_w, dtype=float)
        q = np.asarray(self.q_var, dtype=float)
        if p.shape != q.shape or p.ndim != 2 or p.shape[1] != len(self.customer_ids):
            raise ValueError("demand arrays must be (periods, customers) and aligned")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("demand samples must be finite")
        if self.minutes_per_period <= 0:
            raise ValueError("resolution must be positive")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p_w", p)
        object.__setattr__(self, "q_var", q)

    @property
    def n_periods(self) -> int:
        return self.p_w.shape[0]

    def period_mid_hour(self, period: int) -> float:
        return (self.start_minute + (period + 0.5) * self.minutes_per_period) / 60.0


@dataclass(frozen=True)
class ScenarioOptions:
    """Which customers carry PV and switches, and whether PV Q is controllable."""

    pv_customers: tuple[int, ...] = ()
    pv_capacity_kw: float = 7.0
    switch_customers: tuple[int, ...] = ()
    pv_q_control: bool = False
    pv_q_fraction: float = 0.05  # reactive band as a fraction of PV capacity


DEFAULT_SCENARIO = ScenarioOptions(
    pv_customers=(5, 9, 15, 18, 20, 26, 30, 37, 45, 50),
    pv_capacity_kw=7.0,
    switch_customers=(2, 8, 23, 24, 29, 32, 33, 35, 38, 53),
)


@dataclass(frozen=True, eq=False)
class CaseSnapshot:
    """Net per-unit demands for one period plus PV reactive bounds."""

    network: Network
    period: int
    p_pu: np.ndarray  # (customers,) net active demand, negative when exporting
    q_pu: np.ndarray
    q_lo_pu: np.ndarray  # per-customer reactive adjustment bounds, q_lo <= 0 <= q_hi
    q_hi_pu: np.ndarray
    adjustable_idx: tuple[int, ...]  # positions into network.customers

    def __post_init__(self) -> None:
        n = self.network.n_customers
        for nameattr in ("p_pu", "q_pu", "q_lo_pu", "q_hi_pu"):
            arr = np.asarray(getattr(self, nameattr), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{nameattr} must have one entry per customer")
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)
        if np.any(self.q_lo_pu > 0) or np.any(self.q_hi_pu < 0):
            raise ValueError("reactive bounds must satisfy q_lo <= 0 <= q_hi")
        bad = [i for i in self.adjustable_idx if not 0 <= i < n]
        if bad:
            raise ValueError(f"adjustable customer positions out of range: {bad}")

    @property
    def s_pu(self) -> np.ndarray:
        return self.p_pu + 1j * self.q_pu

    @property
    def n_adjustable(self) -> int:
        return len(self.adjustable_idx)


@dataclass(frozen=True, eq=False)
class FeederImport:
    network: Network
    demands: DemandSeries


def _read_csv(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        raise FeederFormatError(f"missing feeder table: {path.name}")
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FeederFormatError(f"{path.name}: no records")
    return rows


def _sequence_to_phase_matrix(z1: complex, z0: complex) -> np.ndarray:
    # Kron-reduced phase matrix from sequence parameters.
    zs = (z0 + 2.0 * z1) / 3.0
    zm = (z0 - z1) / 3.0
    return np.full((3, 3), zm, dtype=complex) + np.eye(3) * (zs - zm)


def import_european_feeder(directory: str | Path) -> FeederImport:
    """Parse a feeder directory of CSV tables into a per-unit Network.

    Expects Source.csv, LineCodes.csv, Lines.csv, Loads.csv, LoadShapes.csv
    and optionally Buscoords.csv. Uses the default PerUnitBases and Limits,
    with the transformer current limit taken from Source.csv's dt_kva.
    Raises FeederFormatError naming the offending record on any dangling
    reference or malformed table.
    """

    directory = Path(directory)
    bases = PerUnitBases()

    source = {row["quantity"].strip(): row["value"].strip() for row in _read_csv(directory / "Source.csv")}
    try:
        root = int(source["bus"])
        v0_pu = float(source["pu"])
        angle_deg = float(source.get("angle_deg", "0"))
        dt_kva = float(source["dt_kva"])
    except KeyError as exc:
        raise FeederFormatError(f"Source.csv: missing quantity {exc}") from exc

    codes: dict[str, np.ndarray] = {}
    for row in _read_csv(directory / "LineCodes.csv"):
        name = row["Name"].strip()
        z1 = complex(float(row["R1_ohm_per_km"]), float(row["X1_ohm_per_km"]))
        z0 = complex(float(row["R0_ohm_per_km"]), float(row["X0_ohm_per_km"]))
        codes[name] = _sequence_to_phase_matrix(z1, z0)

    lines: list[Line] = []
    for row in _read_csv(directory / "Lines.csv"):
        name = row["Name"].strip()
        code = row["LineCode"].strip()
        if code not in codes:
            raise FeederFormatError(f"Lines.csv: line {name} uses unknown line code {code}")
        z_ohm = codes[code] * (float(row["Length_m"]) / 1000.0)
        lines.append(
            Line(
                name=name,
                from_bus=int(row["Bus1"]),
                to_bus=int(row["Bus2"]),
                z_pu=z_ohm / bases.impedance_ohm,
            )
        )

    buses = sorted({root} | {l.from_bus for l in lines} | {l.to_bus for l in lines})
    bus_set = set(buses)

    customers: list[Customer] = []
    pf_by_load: dict[str, float] = {}
    kw_by_load: dict[str, float] = {}
    for idx, row in enumerate(_read_csv(directory / "Loads.csv"), start=1):
        name = row["Name"].strip()
        bus = int(row["Bus"])
        if bus not in bus_set:
            raise FeederFormatError(f"Loads.csv: load {name} references unknown bus {bus}")
        phase = row["Phase"].strip()
        if phase not in PHASE_INDEX:
            raise FeederFormatError(f"Loads.csv: load {name} has invalid phase {phase!r}")
        customers.append(Customer(cid=idx, name=name, bus=bus, initial_phase=PHASE_INDEX[phase]))
        kw_by_load[name] = float(row["kW"])
        pf_by_load[name] = float(row["PF"])
        if not 0.0 < pf_by_load[name] <= 1.0:
            raise FeederFormatError(f"Loads.csv: load {name} has invalid power factor")

    shape_rows = _read_csv(directory / "LoadShapes.csv")
    load_names = [c.name for c in customers]
    missing = [n for n in load_names if n not in shape_rows[0]]
    if missing:
        raise FeederFormatError(f"LoadShapes.csv: missing shape columns for {missing}")
    mult = np.array([[float(row[n]) for n in load_names] for row in shape_rows], dtype=float)
    p_w = mult * np.array([kw_by_load[n] for n in load_names]) * 1e3
    tan_phi = np.array([math.tan(math.acos(pf_by_load[n])) for n in load_names])
    q_var = p_w * tan_phi
    minutes = int(shape_rows[0].get("minutes", "15") or "15")

    coords: dict[int, tuple[float, float]] = {}
    coords_path = directory / "Buscoords.csv"
    if coords_path.exists():
        for row in _read_csv(coords_path):
            coords[int(row["Bus"])] = (float(row["x"]), float(row["y"]))

    lim = Limits(i_dt_max=dt_kva / (bases.power_va / 1e3))
    angles = np.deg2rad(angle_deg) + np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
    network = Network(
        name=directory.name,
        buses=tuple(buses),
        root=root,
        lines=tuple(lines),
        customers=tuple(customers),
        v0=Phasor3.from_polar([v0_pu] * 3, angles),
        limits=lim,
        bases=bases,
        coords=coords,
    )
    demands = DemandSeries(
        customer_ids=tuple(c.cid for c in customers),
        p_w=p_w,
        q_var=q_var,
        minutes_per_period=minutes,
    )
    return FeederImport(network=network, demands=demands)


def bundled_feeder_dir() -> Path:
    return Path(__file__).parent / "data" / "european_lv"


def load_bundled_feeder() -> FeederImport:
    """Import the feeder dataset shipped with the package."""

    return import_european_feeder(bundled_feeder_dir())


def validate_radial(network: "Network") -> TopologyReport:
    """Check the feeder is a tree rooted at the source and order buses by depth.

    Raises RadialityError naming the offending lines or buses on cycles,
    parallel paths or disconnected buses.
    """

    adjacency: dict[int, list[tuple[int, int]]] = {b: [] for b in network.buses}
    for li, line in enumerate(network.lines):
        adjacency[line.from_bus].append((line.to_bus, li))
        adjacency[line.to_bus].append((line.from_bus, li))

    parent: dict[int, int] = {network.root: network.root}
    parent_line: dict[int, int] = {}
    order: list[int] = [network.root]
    queue = deque(order)
    while queue:
        bus = queue.popleft()
        for nxt, li in adjacency[bus]:
            if nxt == parent[bus] and parent_line.get(bus) == li:
                continue
            if nxt in parent:
                seen = network.lines[parent_line[nxt]].name if nxt in parent_line else "root"
                raise RadialityError(
                    f"cycle or parallel path detected at bus {nxt} via lines "
                    f"{seen} and {network.lines[li].name}"
                )
            parent[nxt] = bus
            parent_line[nxt] = li
            order.append(nxt)
            queue.append(nxt)

    unreachable = [b for b in network.buses if b not in parent]
    if unreachable:
        raise RadialityError(f"buses not connected to the root: {unreachable}")

    return TopologyReport(depth_order=tuple(order), parent=parent, parent_line=parent_line)


def pv_generation_w(capacity_kw: float, hour: float) -> float:
    """Clear-sky PV output: half-cosine bell from 06:00 to 18:00, peak at noon."""

    if not 6.0 <= hour <= 18.0:
        return 0.0
    return capacity_kw * 1e3 * max(0.0, math.cos(math.pi * (hour - 12.0) / 12.0))


def build_snapshot(
    network: Network,
    demands: DemandSeries,
    period: int,
    scenario: ScenarioOptions = DEFAULT_SCENARIO,
) -> CaseSnapshot:
    """Produce the immutable per-unit case for one period under a scenario."""

    if not 0 <= period < demands.n_periods:
        raise ValueError(f"period {period} outside series of {demands.n_periods}")
    known = {c.cid for c in network.customers}
    for cid in tuple(scenario.pv_customers) + tuple(scenario.switch_customers):
        if cid not in known:
            raise ValueError(f"scenario references unknown customer index {cid}")

    id_to_col = {cid: k for k, cid in enumerate(demands.customer_ids)}
    phase_base = network.bases.phase_power_va
    n = network.n_customers
    p_w = np.empty(n)
    q_var = np.empty(n)
    for k, cust in enumerate(network.customers):
        col = id_to_col[cust.cid]
        p_w[k] = demands.p_w[period, col]
        q_var[k] = demands.q_var[period, col]

    hour = demands.period_mid_hour(period)
    gen_w = pv_generation_w(scenario.pv_capacity_kw, hour)
    q_lo = np.zeros(n)
    q_hi = np.zeros(n)
    pv_set = set(scenario.pv_customers)
    for k, cust in enumerate(network.customers):
        if cust.cid in pv_set:
            p_w[k] -= gen_w
            if scenario.pv_q_control:
                band = scenario.pv_q_fraction * scenario.pv_capacity_kw * 1e3
                q_lo[k] = -band / phase_base
                q_hi[k] = band / phase_base

    switch_set = set(scenario.switch_customers)
    adjustable = tuple(k for k, c in enumerate(network.customers) if c.cid in switch_set)

    return CaseSnapshot(
        network=network,
        period=period,
        p_pu=p_w / phase_base,
        q_pu=q_var / phase_base,
        q_lo_pu=q_lo,
        q_hi_pu=q_hi,
        adjustable_idx=adjustable,
    )


def write_network_json(network: Network, path: str | Path) -> None:
    """Write the normalized network form (documented schema, stable ordering)."""

    def cplx(z: complex) -> list[float]:
        return [float(z.real), float(z.imag)]

    doc = {
        "name": network.name,
        "bases": {"voltage_v": network.bases.voltage_v, "power_va": network.bases.power_va},
        "root": network.root,
        "v0": [cplx(v) for v in network.v0],
        "limits": {
            "v_min": network.limits.v_min,
            "v_max": network.limits.v_max,
            "neg_seq_max": network.limits.neg_seq_max,
            "i_dt_max": network.limits.i_dt_max,
            "mb": network.limits.mb,
            "angle_halfwidth_rad": network.limits.angle_halfwidth_rad,
        },
        "buses": list(network.buses),
        "lines": [
            {
                "name": l.name,
                "from": l.from_bus,
                "to": l.to_bus,
                "z_pu": [[cplx(l.z_pu[r, c]) for c in range(3)] for r in range(3)],
            }
            for l in network.lines
        ],
        "customers": [
            {
                "id": c.cid,
                "name": c.name,
                "bus": c.bus,
                "phase": PHASES[c.initial_phase],
            }
            for c in network.customers
        ],
        "coords": {str(b): list(xy) for b, xy in sorted(network.coords.items())},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def read_network_json(path: str | Path) -> Network:
    doc = json.loads(Path(path).read_text())
    limits = Limits(**doc["limits"])
    bases = PerUnitBases(**doc["bases"])
    lines = tuple(
        Line(
            name=l["name"],
            from_bus=l["from"],
            to_bus=l["to"],
            z_pu=np.array([[complex(re, im) for re, im in row] for row in l["z_pu"]]),
        )
        for l in doc["lines"]
    )
    customers = tuple(
        Customer(
            cid=c["id"],
            name=c["name"],
            bus=c["bus"],
            initial_phase=PHASE_INDEX[c["phase"]],
        )
        for c in doc["customers"]
    )
    return Network(
        name=doc["name"],
        buses=tuple(doc["buses"]),
        root=doc["root"],
        lines=lines,
        customers=customers,
        v0=Phasor3(np.array([complex(re, im) for re, im in doc["v0"]])),
        limits=limits,
        bases=bases,
        coords={int(b): (xy[0], xy[1]) for b, xy in doc.get("coords", {}).items()},
    )


def write_profiles_csv(demands: DemandSeries, path: str | Path) -> None:
    """Write the demand series as period, customer_id, p_kw, q_kvar rows."""

    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["period", "customer_id", "p_kw", "q_kvar"])
        for t in range(demands.n_periods):
            for k, cid in enumerate(demands.customer_ids):
                writer.writerow(
                    [t, cid, f"{demands.p_w[t, k] / 1e3:.6f}", f"{demands.q_var[t, k] / 1e3:.6f}"]
                )
