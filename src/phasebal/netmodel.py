"""Feeder topology, demand series and per-period case snapshots.

Loads a low-voltage feeder from its CSV tables (lines, line codes, loads,
load shapes, source), converts everything to per-unit on the fixed bases
and produces immutable per-period snapshots with net demands and optional
PV reactive-power bounds. The operational limits, the penalty weight and
the case study's PV and switch customers are module constants; only the
transformer rating varies, per feeder.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

PHASE_INDEX = {"a": 0, "b": 1, "c": 2, "A": 0, "B": 1, "C": 2, "1": 0, "2": 1, "3": 2}


class FeederFormatError(ValueError):
    """A feeder table is missing, malformed or references unknown records."""


class RadialityError(ValueError):
    """The feeder graph is not a tree rooted at the source bus."""


# Per-unit system: line-neutral voltage base and three-phase power base, and
# the per-phase power and impedance bases they imply.
VOLTAGE_BASE_V = 240.0
POWER_BASE_VA = 100_000.0
PHASE_POWER_BASE_VA = POWER_BASE_VA / 3.0
IMPEDANCE_BASE_OHM = VOLTAGE_BASE_V**2 / PHASE_POWER_BASE_VA


# Operational limits shared by every formulation: the voltage-magnitude band
# and the negative-sequence unbalance limit in per-unit, and the big-M
# weight on their total slack in the objective.
V_MIN = 0.94
V_MAX = 1.10
NEG_SEQ_MAX = 0.01
MB = 500.0

# The case study: customer ids (Loads.csv record numbers) that host PV or
# a phase-switching device, each PV unit's capacity, and its reactive band
# as a fraction of that capacity when PV-Q control is on.
PV_CUSTOMERS = (5, 9, 15, 18, 20, 26, 30, 37, 45, 50)
SWITCH_CUSTOMERS = (2, 8, 23, 24, 29, 32, 33, 35, 38, 53)
PV_CAPACITY_KW = 7.0
PV_Q_FRACTION = 0.05


def _freeze(record, name: str, dtype) -> np.ndarray:
    """Put a read-only dtype copy of record's array field name in its place; return it."""
    arr = np.array(getattr(record, name), dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(record, name, arr)
    return arr


@dataclass(frozen=True, eq=False)
class Line:
    name: str
    from_bus: int
    to_bus: int
    z_pu: np.ndarray  # (3, 3) complex, symmetric

    def __post_init__(self) -> None:
        z = _freeze(self, "z_pu", complex)
        if z.shape != (3, 3):
            raise FeederFormatError(f"line {self.name}: impedance must be 3x3")
        if not np.all(np.isfinite(z)):
            raise FeederFormatError(f"line {self.name}: impedance must be finite")
        if np.abs(z - z.T).max() > 1e-12:
            raise FeederFormatError(f"line {self.name}: impedance matrix is not symmetric")


@dataclass(frozen=True)
class Customer:
    cid: int
    name: str
    bus: int
    initial_phase: int  # 0, 1, 2 for a, b, c


@dataclass(frozen=True, eq=False)
class Network:
    """Radial feeder in per-unit: buses, lines, customers, the source voltage
    and the transformer's current rating.

    `topology` is the radiality check's report, made once on construction,
    with read-only maps. Bus ids and customer ids must not repeat.
    """

    buses: tuple[int, ...]
    root: int
    lines: tuple[Line, ...]
    customers: tuple[Customer, ...]
    v0: np.ndarray  # (3,) complex source voltage, phases a, b, c
    i_dt_max: float  # per-phase transformer current limit
    topology: TopologyReport = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.i_dt_max) and self.i_dt_max > 0):
            raise FeederFormatError(f"i_dt_max must be finite and positive, got {self.i_dt_max!r}")
        given = self.v0
        v0 = _freeze(self, "v0", complex)
        if v0.shape != (3,) or not np.all(np.isfinite(v0) & (v0 != 0)):
            raise FeederFormatError(f"v0 must be 3 finite phase voltages, none zero, got {given!r}")
        for what, ids in (("bus", self.buses), ("customer", [c.cid for c in self.customers])):
            if repeated := sorted(i for i, count in Counter(ids).items() if count > 1):
                raise FeederFormatError(f"{what} ids repeated: {repeated}")
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
            if cust.initial_phase not in (0, 1, 2):
                raise FeederFormatError(f"customer {cust.name} has initial phase {cust.initial_phase!r}")
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
    """Per-customer demand samples in watts/vars on a fixed grid, one column
    per customer of the network they come with, in its customer order."""

    p_w: np.ndarray  # (periods, customers)
    q_var: np.ndarray
    minutes_per_period: int

    def __post_init__(self) -> None:
        p, q = _freeze(self, "p_w", float), _freeze(self, "q_var", float)
        if p.shape != q.shape or p.ndim != 2:
            raise ValueError("demand arrays must be (periods, customers) and aligned")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("demand samples must be finite")
        if self.minutes_per_period <= 0:
            raise ValueError("resolution must be positive")

    @property
    def n_periods(self) -> int:
        return self.p_w.shape[0]

    def period_mid_hour(self, period: int) -> float:
        return (period + 0.5) * self.minutes_per_period / 60.0


@dataclass(frozen=True, eq=False)
class CaseSnapshot:
    """Net per-unit demands for one period plus PV reactive bounds."""

    network: Network
    p_pu: np.ndarray  # (customers,) net active demand, negative when exporting
    q_pu: np.ndarray
    q_lo_pu: np.ndarray  # per-customer reactive adjustment bounds, q_lo <= 0 <= q_hi
    q_hi_pu: np.ndarray
    adjustable_idx: tuple[int, ...]  # positions into network.customers

    def __post_init__(self) -> None:
        n = self.network.n_customers
        for nameattr in ("p_pu", "q_pu", "q_lo_pu", "q_hi_pu"):
            arr = _freeze(self, nameattr, float)
            if arr.shape != (n,):
                raise ValueError(f"{nameattr} must have one entry per customer")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{nameattr} must be finite")
        if np.any(self.q_lo_pu > 0) or np.any(self.q_hi_pu < 0):
            raise ValueError("reactive bounds must satisfy q_lo <= 0 <= q_hi")
        bad = [i for i in self.adjustable_idx if not 0 <= i < n]
        if bad:
            raise ValueError(f"adjustable customer positions out of range: {bad}")
        repeated = sorted({i for i in self.adjustable_idx if self.adjustable_idx.count(i) > 1})
        if repeated:
            raise ValueError(f"adjustable customer positions repeated: {repeated}")

    @property
    def s_pu(self) -> np.ndarray:
        return self.p_pu + 1j * self.q_pu


def _read_csv(path: Path) -> list[dict[str, str]]:
    if not path.exists():
        raise FeederFormatError(f"missing feeder table: {path.name}")
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise FeederFormatError(f"{path.name}: no records")
    return rows


def _column(
    table: str, rows: Sequence[Mapping[str, str | None]], column: str, convert=str.strip, start: int = 1
) -> list:
    """Every record's column value passed through convert, records counted
    from start. A missing column or value, or one convert refuses, raises
    FeederFormatError naming the table, the first such record and the column."""

    try:
        return [convert(row[column]) for row in rows]
    except (KeyError, TypeError, ValueError):
        for k, row in enumerate(rows, start=start):
            text = row.get(column)
            try:
                convert(text)
            except (TypeError, ValueError):
                reason = f"no {column} value" if text is None else f"invalid {column} {text!r}"
                raise FeederFormatError(f"{table} record {k}: {reason}") from None
        raise


def _unique(table: str, what: str, names: Sequence[str]) -> dict[str, int]:
    """Each name's position in names, in order; a name an earlier record
    took raises FeederFormatError naming the later record."""

    first: dict[str, int] = {}
    for k, name in enumerate(names):
        if first.setdefault(name, k) != k:
            raise FeederFormatError(f"{table} record {k + 1}: {what} {name} repeats")
    return first


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not positive")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"{text!r} is not positive")
    return value


def _non_negative(text: str) -> float:
    value = _finite(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _sequence_to_phase_matrix(z1: complex, z0: complex) -> np.ndarray:
    # Kron-reduced phase matrix from sequence parameters.
    zs = (z0 + 2.0 * z1) / 3.0
    zm = (z0 - z1) / 3.0
    return np.full((3, 3), zm, dtype=complex) + np.eye(3) * (zs - zm)


def import_european_feeder(directory: str | Path) -> tuple[Network, DemandSeries]:
    """Parse a feeder directory of CSV tables into a per-unit Network and
    its demand series.

    Expects Source.csv, LineCodes.csv, Lines.csv, Loads.csv and
    LoadShapes.csv, on the module's per-unit bases, with the transformer
    current limit taken from Source.csv's dt_kva. The source voltage pu and
    dt_kva must be positive, line lengths and line-code impedances
    non-negative, and LoadShapes.csv's minutes column, when present, one
    positive value in every record. No quantity, line-code name or load
    name may repeat, which would let a later record override an earlier one.
    Raises FeederFormatError naming the offending record on any dangling
    reference or malformed table.
    """

    directory = Path(directory)

    source = _read_csv(directory / "Source.csv")
    record_of = _unique("Source.csv", "quantity", _column("Source.csv", source, "quantity"))

    def quantity(name: str, convert=_finite):
        if name not in record_of:
            raise FeederFormatError(f"Source.csv: missing quantity {name!r}")
        k = record_of[name]
        return _column("Source.csv", source[k:k + 1], "value", convert, start=k + 1)[0]

    root, v0_pu, dt_kva = quantity("bus", int), quantity("pu", _positive), quantity("dt_kva", _positive)
    angle_deg = quantity("angle_deg") if "angle_deg" in record_of else 0.0

    col = partial(_column, "LineCodes.csv", _read_csv(directory / "LineCodes.csv"))
    r1, x1, r0, x0 = (col(f"{part}_ohm_per_km", _non_negative) for part in ("R1", "X1", "R0", "X0"))
    codes = {
        name: _sequence_to_phase_matrix(complex(a, b), complex(c, d))
        for name, a, b, c, d in zip(_unique("LineCodes.csv", "line code", col("Name")), r1, x1, r0, x0)
    }

    col = partial(_column, "Lines.csv", _read_csv(directory / "Lines.csv"))
    lines: list[Line] = []
    for name, code, length_m, bus1, bus2 in zip(
        col("Name"), col("LineCode"), col("Length_m", _non_negative), col("Bus1", int), col("Bus2", int)
    ):
        if code not in codes:
            raise FeederFormatError(f"Lines.csv: line {name} uses unknown line code {code}")
        z_ohm = codes[code] * (length_m / 1000.0)
        lines.append(Line(name=name, from_bus=bus1, to_bus=bus2, z_pu=z_ohm / IMPEDANCE_BASE_OHM))

    buses = sorted({root} | {l.from_bus for l in lines} | {l.to_bus for l in lines})
    bus_set = set(buses)

    # A load's shape is the LoadShapes.csv column of its name, so names must not repeat.
    customers: list[Customer] = []
    col = partial(_column, "Loads.csv", _read_csv(directory / "Loads.csv"))
    names, kws, pfs = col("Name"), col("kW", _finite), col("PF", _finite)
    _unique("Loads.csv", "load name", names)
    for idx, (name, bus, phase, pf) in enumerate(zip(names, col("Bus", int), col("Phase"), pfs), start=1):
        if bus not in bus_set:
            raise FeederFormatError(f"Loads.csv: load {name} references unknown bus {bus}")
        if phase not in PHASE_INDEX:
            raise FeederFormatError(f"Loads.csv: load {name} has invalid phase {phase!r}")
        if not 0.0 < pf <= 1.0:
            raise FeederFormatError(f"Loads.csv: load {name} has invalid power factor")
        customers.append(Customer(cid=idx, name=name, bus=bus, initial_phase=PHASE_INDEX[phase]))

    shape_rows = _read_csv(directory / "LoadShapes.csv")
    missing = [n for n in names if n not in shape_rows[0]]
    if missing:
        raise FeederFormatError(f"LoadShapes.csv: missing shape columns for {missing}")
    mult = np.column_stack([_column("LoadShapes.csv", shape_rows, n, float) for n in names])
    # Only a column holding a non-finite sample is re-read through _finite, which names
    # the record: _finite on every sample made the bundled feeder's conversion 70% slower.
    for name in np.asarray(names)[~np.isfinite(mult).all(axis=0)]:
        _column("LoadShapes.csv", shape_rows, name, _finite)
    p_w = mult * np.array(kws) * 1e3
    q_var = p_w * np.array([math.tan(math.acos(pf)) for pf in pfs])
    minutes = 15  # 15-minute periods when the table has no minutes column
    if "minutes" in shape_rows[0]:
        every = _column("LoadShapes.csv", shape_rows, "minutes", _positive_int)
        minutes = every[0]
        for k, value in enumerate(every, start=1):
            if value != minutes:
                raise FeederFormatError(
                    f"LoadShapes.csv record {k}: minutes {value} differ from record 1's {minutes}"
                )

    angles = np.deg2rad(angle_deg) + np.array([0.0, -2.0 * math.pi / 3.0, 2.0 * math.pi / 3.0])
    network = Network(
        buses=tuple(buses),
        root=root,
        lines=tuple(lines),
        customers=tuple(customers),
        v0=v0_pu * np.exp(1j * angles),
        i_dt_max=dt_kva / (POWER_BASE_VA / 1e3),
    )
    return network, DemandSeries(p_w=p_w, q_var=q_var, minutes_per_period=minutes)


def bundled_feeder_dir() -> Path:
    return Path(__file__).parent / "data" / "european_lv"


def load_bundled_feeder() -> tuple[Network, DemandSeries]:
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

    return TopologyReport(tuple(order), MappingProxyType(parent), MappingProxyType(parent_line))


def pv_generation_w(capacity_kw: float, hour: float) -> float:
    """Clear-sky PV output: half-cosine bell from 06:00 to 18:00, peak at noon."""

    if not 6.0 <= hour <= 18.0:
        return 0.0
    return capacity_kw * 1e3 * max(0.0, math.cos(math.pi * (hour - 12.0) / 12.0))


def build_snapshot(
    network: Network, demands: DemandSeries, period: int, pv_q_control: bool = False
) -> CaseSnapshot:
    """Produce the immutable per-unit case for one period of the case study,
    with PV reactive bands when pv_q_control is set."""

    n = network.n_customers
    if demands.p_w.shape[1] != n:
        raise ValueError(
            f"demands have {demands.p_w.shape[1]} customer columns, the network {n} customers"
        )
    if not 0 <= period < demands.n_periods:
        raise ValueError(f"period {period} outside series of {demands.n_periods}")
    known = {c.cid for c in network.customers}
    for cid in PV_CUSTOMERS + SWITCH_CUSTOMERS:
        if cid not in known:
            raise ValueError(f"the feeder has no customer {cid}, a case-study PV or switch customer")

    phase_base = PHASE_POWER_BASE_VA
    p_w = demands.p_w[period].copy()
    q_var = demands.q_var[period]

    hour = demands.period_mid_hour(period)
    gen_w = pv_generation_w(PV_CAPACITY_KW, hour)
    q_lo = np.zeros(n)
    q_hi = np.zeros(n)
    for k, cust in enumerate(network.customers):
        if cust.cid in PV_CUSTOMERS:
            p_w[k] -= gen_w
            if pv_q_control:
                band = PV_Q_FRACTION * PV_CAPACITY_KW * 1e3
                q_lo[k] = -band / phase_base
                q_hi[k] = band / phase_base

    adjustable = tuple(k for k, c in enumerate(network.customers) if c.cid in SWITCH_CUSTOMERS)

    return CaseSnapshot(
        network=network,
        p_pu=p_w / phase_base,
        q_pu=q_var / phase_base,
        q_lo_pu=q_lo,
        q_hi_pu=q_hi,
        adjustable_idx=adjustable,
    )
