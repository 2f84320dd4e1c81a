"""Exact unbalanced three-phase power flow on a radial feeder.

Backward current aggregation and forward voltage sweeps with constant-PQ
customers, used as the verification oracle for every formulation and
optimization result. Also hosts the factorized tree geometry (depth order,
path impedances, shared-path impedance tensor) reused by the evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .netmodel import CaseSnapshot, Network, Phasor3, validate_radial

MISMATCH_TOL = 1e-8
MAX_ITERATIONS = 100
COLLAPSE_GUARD = 0.5

# Re-exported carrier type; voltages and currents share it.
__all__ = [
    "PFSolution",
    "PhaseAssignment",
    "Phasor3",
    "PowerFlowError",
    "VoltageCollapseError",
    "NonConvergenceError",
    "customer_current",
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

    def one_hot(self) -> np.ndarray:
        eps = np.zeros((len(self.phases), 3), dtype=float)
        eps[np.arange(len(self.phases)), list(self.phases)] = 1.0
        return eps

    def with_phases(self, positions: Sequence[int], new_phases: Sequence[int]) -> "PhaseAssignment":
        out = list(self.phases)
        for pos, ph in zip(positions, new_phases):
            out[pos] = int(ph)
        return PhaseAssignment(tuple(out))

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
        if np.any(dq < snapshot.q_lo_pu - 1e-12) or np.any(dq > snapshot.q_hi_pu + 1e-12):
            raise ValueError("q_adjust outside the snapshot's reactive bounds")
        s = s + 1j * dq
    return s


@dataclass(frozen=True, eq=False)
class FeederGeometry:
    """Factorized radial topology in array form.

    zcum[m] is the summed 3x3 path impedance from the root to bus m and
    meet[m, b] = zcum[lca(m, b)], the impedance shared by the two paths;
    the voltage effect at bus m of a current i injected at bus b on phase p
    is -meet[m, b][:, p] * i.
    """

    bus_ids: tuple[int, ...]
    bus_index: Mapping[int, int]
    root_idx: int
    depth_order: np.ndarray  # bus indices, root first
    parent: np.ndarray  # parent bus index, -1 at root
    parent_line: np.ndarray  # line index of the edge to the parent, -1 at root
    line_from: np.ndarray
    line_to: np.ndarray
    z_lines: np.ndarray  # (L, 3, 3) complex
    zcum: np.ndarray  # (n, 3, 3) complex
    meet: np.ndarray  # (n, n, 3, 3) complex
    cust_bus: np.ndarray  # (customers,) bus index
    root_lines: tuple[int, ...]  # lines leaving the root (the DT branch)


@lru_cache(maxsize=8)
def _geometry_for(network: Network) -> FeederGeometry:
    report = validate_radial(network)
    bus_index = {b: i for i, b in enumerate(network.buses)}
    n = network.n_buses
    line_index = {l.name: i for i, l in enumerate(network.lines)}

    parent = np.full(n, -1, dtype=int)
    parent_line = np.full(n, -1, dtype=int)
    depth_order = np.array([bus_index[b] for b in report.depth_order], dtype=int)

    adjacency: dict[int, list[tuple[int, int]]] = {b: [] for b in network.buses}
    for li, line in enumerate(network.lines):
        adjacency[line.from_bus].append((line.to_bus, li))
        adjacency[line.to_bus].append((line.from_bus, li))
    for bus, up in report.parent.items():
        if bus == network.root:
            continue
        parent[bus_index[bus]] = bus_index[up]
        for nxt, li in adjacency[up]:
            if nxt == bus:
                parent_line[bus_index[bus]] = li
                break

    z_lines = np.stack([l.z_pu for l in network.lines])
    zcum = np.zeros((n, 3, 3), dtype=complex)
    for bi in depth_order[1:]:
        zcum[bi] = zcum[parent[bi]] + z_lines[parent_line[bi]]

    # Ancestor chains for pairwise lowest common ancestors.
    chains: list[list[int]] = [[] for _ in range(n)]
    for bi in depth_order:
        if parent[bi] < 0:
            chains[bi] = [bi]
        else:
            chains[bi] = chains[parent[bi]] + [bi]
    chain_sets = [set(c) for c in chains]
    meet = np.zeros((n, n, 3, 3), dtype=complex)
    for m in range(n):
        for b in range(n):
            lca = next(x for x in reversed(chains[m]) if x in chain_sets[b])
            meet[m, b] = zcum[lca]

    root_idx = bus_index[network.root]
    return FeederGeometry(
        bus_ids=tuple(network.buses),
        bus_index=bus_index,
        root_idx=root_idx,
        depth_order=depth_order,
        parent=parent,
        parent_line=parent_line,
        line_from=np.array([bus_index[l.from_bus] for l in network.lines], dtype=int),
        line_to=np.array([bus_index[l.to_bus] for l in network.lines], dtype=int),
        z_lines=z_lines,
        zcum=zcum,
        meet=meet,
        cust_bus=np.array([bus_index[c.bus] for c in network.customers], dtype=int),
        root_lines=tuple(
            line_index[l.name] for l in network.lines if network.root in (l.from_bus, l.to_bus)
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
    mismatch_history: tuple[float, ...]

    def __post_init__(self) -> None:
        for nameattr in ("v", "i_lines", "s_dt", "s_cust"):
            arr = np.asarray(getattr(self, nameattr), dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)
        ph = np.asarray(self.cust_phase, dtype=int)
        ph.setflags(write=False)
        object.__setattr__(self, "cust_phase", ph)

    def voltage(self, bus_id: int) -> Phasor3:
        return Phasor3(self.v[self.bus_ids.index(bus_id)])

    @property
    def vm(self) -> np.ndarray:
        return np.abs(self.v)


def customer_current(s: complex, v: complex, one_hot: Sequence[float]) -> Phasor3:
    """Constant-PQ injection conj(s)/conj(v) on the connected phase."""

    eps = np.asarray(one_hot, dtype=float)
    if eps.shape != (3,) or not np.isclose(eps.sum(), 1.0) or not np.all((eps == 0) | (eps == 1)):
        raise ValueError("one-hot phase indicator must have exactly one entry set")
    out = np.zeros(3, dtype=complex)
    if s != 0:
        if abs(v) == 0.0:
            raise PowerFlowError("zero voltage magnitude on the connected phase")
        out[int(np.argmax(eps))] = np.conj(s) / np.conj(v)
    return Phasor3(out)


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
    history: list[float] = []
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
        history.append(mismatch)
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
                mismatch_history=tuple(history),
            )

    raise NonConvergenceError(mismatch=history[-1], iterations=max_iterations)


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
