"""Exact unbalanced three-phase power flow on a radial feeder.

Backward current aggregation and forward voltage sweeps with constant-PQ
customers, used as the verification oracle for every formulation and
optimization result. Also hosts the factorized tree geometry (depth order,
path impedances, and each customer's shared-path impedances to every bus)
reused by the evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .netmodel import CaseSnapshot, Network

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 100
COLLAPSE_GUARD = 0.5

__all__ = [
    "PFSolution",
    "PhaseAssignment",
    "PowerFlowError",
    "VoltageCollapseError",
    "NonConvergenceError",
    "solve_utpf",
    "power_balance_residual",
    "feeder_geometry",
]


class PowerFlowError(RuntimeError):
    """Power-flow evaluation failed."""


class VoltageCollapseError(PowerFlowError):
    """A voltage magnitude fell below the collapse guard during iteration."""


class NonConvergenceError(PowerFlowError):
    """The sweep did not reach the mismatch tolerance within the cap."""

    def __init__(self, mismatch: float, iterations: int) -> None:
        super().__init__(
            f"no convergence after {iterations} iterations, last mismatch {mismatch:.3e} p.u."
        )
        self.mismatch = mismatch
        self.iterations = iterations


@dataclass(frozen=True, eq=False)
class PhaseAssignment:
    """Per-customer one-hot phase choice, stored as phase indices 0, 1, 2."""

    phases: tuple[int, ...]

    def __post_init__(self) -> None:
        bad = [p for p in self.phases if p not in (0, 1, 2)]
        if bad:
            raise ValueError(f"phase indices must be 0, 1 or 2, got {bad}")

    @classmethod
    def initial(cls, network: Network) -> "PhaseAssignment":
        return cls(tuple(c.initial_phase for c in network.customers))

    def __len__(self) -> int:
        return len(self.phases)


def check_assignment(snapshot: CaseSnapshot, assignment: PhaseAssignment) -> None:
    """Reject assignments that move customers without switches."""

    network = snapshot.network
    if len(assignment) != network.n_customers:
        raise ValueError(
            f"assignment covers {len(assignment)} customers, network has {network.n_customers}"
        )
    movable = set(snapshot.adjustable_idx)
    for k, cust in enumerate(network.customers):
        if k not in movable and assignment.phases[k] != cust.initial_phase:
            raise ValueError(
                f"customer {cust.name} has no switch but is moved from phase "
                f"{cust.initial_phase} to {assignment.phases[k]}"
            )


def _effective_loads(snapshot: CaseSnapshot, q_adjust: np.ndarray | None) -> np.ndarray:
    """Snapshot loads plus reactive adjustments, checked against their bounds."""

    s = snapshot.s_pu.copy()
    if q_adjust is not None:
        dq = np.asarray(q_adjust, dtype=float)
        if dq.shape != s.shape:
            raise ValueError("q_adjust must have one entry per customer")
        _check_band(snapshot, dq)
        s = s + 1j * dq
    return s


def _check_band(
    snapshot: CaseSnapshot, dq: np.ndarray, customers: int | slice = slice(None)
) -> None:
    """Raise unless the reactive adjustments dq of customers lie in their bands."""

    lo, hi = snapshot.q_lo_pu[customers], snapshot.q_hi_pu[customers]
    if np.any(dq < lo - 1e-12) or np.any(dq > hi + 1e-12):
        raise ValueError("q_adjust outside the snapshot's reactive bounds")


@dataclass(frozen=True, eq=False)
class FeederGeometry:
    """Factorized radial topology in array form.

    zcum[m] is the summed 3x3 path impedance from the root to bus m and
    cust_meet[j, m] = zcum[lca(m, bus_j)], the impedance that the paths to
    bus m and to customer j's bus share; the voltage effect at bus m of a
    current i that customer j draws on phase p is -cust_meet[j, m][:, p] * i.
    col_rep[m] is m itself when a customer sits in m's subtree and otherwise
    its parent's col_rep. Such a bus meets every customer's path where its
    parent does, so cust_meet[:, m] is cust_meet[:, col_rep[m]] bit for bit,
    and so is any state built column by column from the table.
    """

    bus_ids: tuple[int, ...]
    root_idx: int
    depth_order: np.ndarray  # bus indices, root first
    parent: np.ndarray  # parent bus index, -1 at root
    parent_line: np.ndarray  # line index of the edge to the parent, -1 at root
    line_from: np.ndarray
    line_to: np.ndarray
    z_lines: np.ndarray  # (L, 3, 3) complex
    zcum: np.ndarray  # (n, 3, 3) complex
    cust_meet: np.ndarray  # (customers, n, 3, 3) complex
    cust_bus: np.ndarray  # (customers,) bus index
    col_rep: np.ndarray  # (n,) bus whose customer column bus m repeats
    root_lines: tuple[int, ...]  # lines leaving the root (the DT branch)


@lru_cache(maxsize=8)
def _geometry_for(network: Network) -> FeederGeometry:
    report = network.topology
    bus_index = {b: i for i, b in enumerate(network.buses)}
    n = network.n_buses

    parent = np.full(n, -1, dtype=int)
    parent_line = np.full(n, -1, dtype=int)
    depth_order = np.array([bus_index[b] for b in report.depth_order], dtype=int)
    for bus, li in report.parent_line.items():
        parent[bus_index[bus]] = bus_index[report.parent[bus]]
        parent_line[bus_index[bus]] = li

    z_lines = np.stack([l.z_pu for l in network.lines])
    zcum = np.zeros((n, 3, 3), dtype=complex)
    for bi in depth_order[1:]:
        zcum[bi] = zcum[parent[bi]] + z_lines[parent_line[bi]]

    # lca[j, m] is the deepest bus on both bus m's and customer j's root
    # paths: bus m itself when it lies on customer j's path, else its
    # parent's entry, which one pass down the depth order has already set.
    # A bus on no customer's path copies its parent's whole column.
    cust_bus = np.array([bus_index[c.bus] for c in network.customers], dtype=int)
    on_path = np.zeros((len(cust_bus), n), dtype=bool)
    for j, bi in enumerate(cust_bus):
        while bi >= 0:
            on_path[j, bi] = True
            bi = parent[bi]
    lca = np.empty((len(cust_bus), n), dtype=int)
    root_idx = bus_index[network.root]
    lca[:, root_idx] = root_idx
    customer_below = on_path.any(axis=0)
    col_rep = np.arange(n)
    for bi in depth_order[1:]:
        lca[:, bi] = np.where(on_path[:, bi], bi, lca[:, parent[bi]])
        if not customer_below[bi]:
            col_rep[bi] = col_rep[parent[bi]]

    return FeederGeometry(
        bus_ids=tuple(network.buses),
        root_idx=root_idx,
        depth_order=depth_order,
        parent=parent,
        parent_line=parent_line,
        line_from=np.array([bus_index[l.from_bus] for l in network.lines], dtype=int),
        line_to=np.array([bus_index[l.to_bus] for l in network.lines], dtype=int),
        z_lines=z_lines,
        zcum=zcum,
        cust_meet=zcum[lca],
        cust_bus=cust_bus,
        col_rep=col_rep,
        root_lines=tuple(
            li for li, l in enumerate(network.lines) if network.root in (l.from_bus, l.to_bus)
        ),
    )


def feeder_geometry(network: Network) -> FeederGeometry:
    return _geometry_for(network)


@dataclass(frozen=True, eq=False)
class PFSolution:
    """Converged power-flow state in per-unit.

    s_cust holds the effective complex loads the state serves, including
    any reactive-power adjustments applied on top of the snapshot demands.
    """

    bus_ids: tuple[int, ...]
    v: np.ndarray  # (n, 3) complex bus voltages
    i_lines: np.ndarray  # (L, 3) complex line currents, oriented root-outward
    s_dt: np.ndarray  # (3,) complex DT branch power per phase
    s_cust: np.ndarray  # (customers,) complex effective loads
    cust_phase: np.ndarray  # (customers,) connected phase index
    iterations: int
    mismatch: float

    def __post_init__(self) -> None:
        for nameattr in ("v", "i_lines", "s_dt", "s_cust"):
            arr = np.asarray(getattr(self, nameattr), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)
        ph = np.asarray(self.cust_phase, dtype=int)
        ph.setflags(write=False)
        object.__setattr__(self, "cust_phase", ph)


def _sweep_state(
    geometry: FeederGeometry,
    v0: np.ndarray,
    i_cust: np.ndarray,
    cust_phase: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One backward current aggregation plus forward voltage sweep.

    Returns (bus voltages, line currents) for the given customer injections.
    """

    n = geometry.zcum.shape[0]
    inj = np.zeros((n, 3), dtype=complex)
    np.add.at(inj, (geometry.cust_bus, cust_phase), i_cust)

    acc = inj.copy()
    i_lines = np.zeros((geometry.z_lines.shape[0], 3), dtype=complex)
    for bi in geometry.depth_order[::-1]:
        li = geometry.parent_line[bi]
        if li < 0:
            continue
        i_lines[li] = acc[bi]
        acc[geometry.parent[bi]] += acc[bi]

    v = np.empty((n, 3), dtype=complex)
    v[geometry.root_idx] = v0
    for bi in geometry.depth_order[1:]:
        li = geometry.parent_line[bi]
        v[bi] = v[geometry.parent[bi]] - geometry.z_lines[li] @ i_lines[li]
    return v, i_lines


def solve_utpf(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
    tol: float = MISMATCH_TOL,
    max_iterations: int = MAX_ITERATIONS,
) -> PFSolution:
    """Exact fixed-point power flow for one period under a phase assignment.

    Flat start at the root voltage; customer currents are re-evaluated from
    the latest voltages each pass until the worst complex power mismatch is
    at or below tol. Raises VoltageCollapseError or NonConvergenceError.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    geometry = feeder_geometry(network)
    v0 = network.v0.values

    s = _effective_loads(snapshot, q_adjust)
    phases = np.asarray(assignment.phases, dtype=int)

    n = network.n_buses
    v = np.tile(v0, (n, 1))
    i_lines = np.zeros((geometry.z_lines.shape[0], 3), dtype=complex)
    polished = False

    for iteration in range(1, max_iterations + 1):
        vc = v[geometry.cust_bus, phases]
        if np.any(np.abs(vc) < COLLAPSE_GUARD):
            raise VoltageCollapseError(
                f"voltage magnitude below {COLLAPSE_GUARD} p.u. at iteration {iteration}"
            )
        i_cust = np.conj(s) / np.conj(vc)
        v, i_lines = _sweep_state(geometry, v0, i_cust, phases)

        vc_new = v[geometry.cust_bus, phases]
        mismatch = float(np.max(np.abs(vc_new * np.conj(i_cust) - s))) if len(s) else 0.0
        if mismatch <= tol:
            # Per-customer mismatches share the sign of the last voltage
            # correction, so their sum can reach n times the max; one extra
            # consistency pass shrinks the pooled balance error well below tol.
            if not polished:
                polished = True
                continue
            if np.any(np.abs(v) < COLLAPSE_GUARD):
                raise VoltageCollapseError("converged state below the collapse guard")
            s_dt = sum(v0 * np.conj(i_lines[li]) for li in geometry.root_lines)
            return PFSolution(
                bus_ids=geometry.bus_ids,
                v=v,
                i_lines=i_lines,
                s_dt=np.asarray(s_dt, dtype=complex),
                s_cust=s,
                cust_phase=phases,
                iterations=iteration,
                mismatch=mismatch,
            )

    raise NonConvergenceError(mismatch=mismatch, iterations=max_iterations)


def power_balance_residual(solution: PFSolution, snapshot: CaseSnapshot) -> float:
    """|DT injection - customer loads - line losses| in p.u. (complex magnitude).

    Loads are the effective customer powers carried by the solution, so the
    check remains exact when reactive adjustments were applied to the snapshot.
    """

    geometry = feeder_geometry(snapshot.network)
    v = solution.v
    drops = v[geometry.line_from] - v[geometry.line_to]
    losses = np.einsum("lp,lp->", drops, np.conj(solution.i_lines))
    total_load = solution.s_cust.sum()
    injected = solution.s_dt.sum()
    return float(abs(injected - losses - total_load))
