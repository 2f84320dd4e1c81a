"""Exact unbalanced three-phase power flow on a radial feeder.

A fixed point over the constant-PQ customers' own voltages (Teng's direct
load flow, restricted to the buses that carry load), used as the
verification oracle for every formulation and optimization result, and
its power-balance check, both in customer space. Also hosts the factorized
tree geometry (each customer's shared-path impedances to every distinct bus
column) and the customer-space helpers built on it, which the
linearized-inverse model's solver shares: the coupling between customers'
own voltages and the product that turns customer currents into the voltages
at those columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .netmodel import CaseSnapshot, Network, _freeze

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
        return cls(tuple(network.initial_phases.tolist()))

    def __len__(self) -> int:
        return len(self.phases)


def check_assignment(snapshot: CaseSnapshot, assignment: PhaseAssignment) -> None:
    """Reject assignments that move customers without switches."""

    network = snapshot.network
    if len(assignment) != network.n_customers:
        raise ValueError(
            f"assignment covers {len(assignment)} customers, network has {network.n_customers}"
        )
    initial = network.initial_phases
    moved = ~snapshot.switchable & (np.array(assignment.phases) != initial)
    if moved.any():
        k = int(moved.argmax())
        raise ValueError(
            f"customer {network.customer_names[k]} has no switch but is moved from phase "
            f"{initial[k]} to {assignment.phases[k]}"
        )


def _effective_loads(snapshot: CaseSnapshot, q_adjust: np.ndarray | None) -> np.ndarray:
    """Snapshot loads plus reactive adjustments, checked against their bounds."""

    s = snapshot.s_pu.copy()
    if q_adjust is not None:
        dq = np.asarray(q_adjust, dtype=float)
        if dq.shape != s.shape:
            raise ValueError("q_adjust must have one entry per customer")
        _check_band(dq, snapshot.q_lo_pu, snapshot.q_hi_pu)
        s = s + 1j * dq
    return s


_BAND_TOL = 1e-12  # how far a reactive adjustment may stray outside its band


def _check_band(dq: np.ndarray, lo: np.ndarray | float, hi: np.ndarray | float) -> None:
    """Raise unless the reactive adjustments dq lie in their bands [lo, hi];
    a NaN lies in none."""

    if not np.all((lo - _BAND_TOL <= dq) & (dq <= hi + _BAND_TOL)):
        raise ValueError("q_adjust outside the snapshot's reactive bounds")


@dataclass(frozen=True, eq=False)
class FeederGeometry:
    """Factorized radial topology in array form: the tables behind the
    customer-space state that `solve_utpf` and the models compute. Every
    array is read-only: the cache hands the same tables to every caller.

    columns is the (3 * customers, 3 * k) coupling table:
    columns[3j + p, 3c + phi] is the impedance that column c's and customer
    j's root paths share, seen on phase phi for a current drawn on phase p.
    A bus with no customer in its subtree meets every customer's path where
    its parent does, so the table keeps one column per bus that is the root
    or has a customer below it, in bus order, and col_inverse[m] is bus m's:
    the effect at (m, phi) of a current i that customer j draws on phase p
    is -columns[3j + p, 3 col_inverse[m] + phi] * i, and a state built column
    by column goes to bus order with one take(col_inverse), bit for bit.
    """

    columns: np.ndarray  # (3 * customers, 3 * k) complex
    cust_bus: np.ndarray  # (customers,) bus index
    col_inverse: np.ndarray  # (n,) column of each bus


@lru_cache(maxsize=8)
def feeder_geometry(network: Network) -> FeederGeometry:
    """The network's tables, built from the customers' root paths.

    Only a bus with a customer below it has a column of its own; every
    other bus takes its parent's, resolved in plain ints down the depth
    order. The customers' paths are found by pointer doubling in a few
    vectorized steps and summed from the root outward, each bus's impedance
    its parent's plus its own parent line's row of the line table: the chain
    of additions a walk over every bus makes, so `columns` keeps its bits.
    """

    report = network.topology
    bus_index = {b: i for i, b in enumerate(network.buses)}
    n, m = network.n_buses, network.n_customers
    parent = [-1] * n
    for bus in report.parent_line:
        parent[bus_index[bus]] = bus_index[report.parent[bus]]
    z_child = np.zeros((n + 1, 3, 3), dtype=complex)  # each bus's line to its parent
    child = [bus_index[bus] for bus in report.parent_line]
    z_child[child] = network.line_z_pu[list(report.parent_line.values())]
    cust_bus = np.array([bus_index[b] for b in network.customer_buses.tolist()], dtype=int)

    # up[s, j] is the bus s steps above customer j's, -1 above the root:
    # while step takes each bus len(up) steps up, step[up] is the next len(up) rows.
    up, step = cust_bus[None], np.array(parent + [-1])
    while (up[-1] >= 0).any():
        up, step = np.concatenate([up, step[up]]), step[step]
    up = up[: (up >= 0).any(axis=1).sum()]
    s, j = np.nonzero(up >= 0)
    cust_depth = np.bincount(j, minlength=m) - 1
    on = up[s, j]
    on_path = np.zeros((m, n), dtype=bool)
    on_path[j, on] = True
    depth, holder = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
    depth[on], holder[on] = cust_depth[j] - s, j  # a bus's depth and a customer below it

    # A bus on no customer's path repeats its parent's column; the root keeps its own.
    col_rep, own = list(range(n)), on_path.any(axis=0).tolist()
    for bus in report.depth_order[1:]:
        bi = bus_index[bus]
        if not own[bi]:
            col_rep[bi] = col_rep[parent[bi]]
    cols, col_inverse = np.unique(col_rep, return_inverse=True)

    # zsum[len(up) - 1 - s, j] is the transposed impedance from the root to
    # up[s, j]: one running sum per customer from the root outward, its
    # padding above the root adding zeros as the root's own zero table does.
    # (Gathered from a strided view, zsum would come out strided too.)
    z_child = np.ascontiguousarray(z_child.transpose(0, 2, 1))
    zsum = np.cumsum(z_child[up[::-1]], axis=0)

    # Customer j meets column c's bus at the shallower of that bus and the
    # deepest bus j's path shares with the path of a customer below the bus
    # (a feeder without customers has no row to meet).
    on_path_f = on_path.astype(float)
    shared = (on_path_f @ on_path_f.T).astype(int) - 1  # depth of two customers' deepest common bus
    meet = np.minimum(depth[cols], shared[:, holder[cols]]) if m else np.zeros((0, len(cols)), int)
    row = len(up) - 1 - cust_depth[:, None] + meet
    # One gather along one axis straight into the table's layout: indexing
    # two axes at once ran three times slower on a 906-bus feeder.
    flat = zsum.reshape(-1, 3)  # flat[3 * (t * m + j) + p] = zsum[t, j][p]
    index = 3 * (row * m + np.arange(m)[:, None])[:, None, :] + np.arange(3)[:, None]
    columns = np.take(flat, index, axis=0).reshape(3 * m, 3 * len(cols))
    for table in (columns, cust_bus, col_inverse):
        table.setflags(write=False)
    return FeederGeometry(columns, cust_bus, col_inverse)


def _customer_meet(network: Network) -> np.ndarray:
    """meet[j, p, c, phi] = columns[3j + p, 3c + phi]: the geometry's table
    as a (customers, 3, k, 3) view over its k columns."""

    return feeder_geometry(network).columns.reshape(network.n_customers, 3, -1, 3)


def _coupling(network: Network, phases: np.ndarray) -> np.ndarray:
    """coupling[..., j, k] = Meet[bus_j, bus_k][p_j, p_k] for phase rows
    (..., customers): the drop in customer j's own voltage per unit current
    that customer k draws."""

    geometry = feeder_geometry(network)
    width = geometry.columns.shape[1]
    rows = 3 * np.arange(phases.shape[-1]) + phases  # each customer's injection row
    cols = 3 * geometry.col_inverse[geometry.cust_bus] + phases  # and its own column
    # One gather from the flat table runs faster than indexing two axes.
    return np.take(geometry.columns, width * rows[..., None, :] + cols[..., :, None])


def _injections(phases: np.ndarray, i_cust: np.ndarray) -> np.ndarray:
    """The (..., customers, 3) injections of customer currents i_cust
    (..., customers) drawn on phases: each current on its phase, zero on
    the other two."""

    injected = np.zeros(i_cust.shape + (3,), dtype=complex)
    np.put_along_axis(
        injected, np.broadcast_to(phases, i_cust.shape)[..., None], i_cust[..., None], axis=-1
    )
    return injected


def _bus_voltages(network: Network, injected: np.ndarray) -> np.ndarray:
    """The (..., k, 3) column voltages of (..., customers, 3) injections, in
    one product with the geometry's table; take(col_inverse, axis=-2) gives
    bus order. A product of one row takes another BLAS path than one of
    several, so a row's voltages may differ in the last bits between the two."""

    lead = injected.shape[:-2]
    drops = injected.reshape(lead + (-1,)) @ feeder_geometry(network).columns
    return network.v0 - drops.reshape(lead + (-1, 3))


@dataclass(frozen=True, eq=False)
class PFSolution:
    """Converged power-flow state in per-unit.

    s_cust holds the effective complex loads the state serves, including
    any reactive-power adjustments applied on top of the snapshot demands,
    and i_cust the converged currents conj(s) / conj(V) that the customers
    draw on their phases cust_phase, which give every voltage in v.
    """

    v: np.ndarray  # (n, 3) complex bus voltages
    i_cust: np.ndarray  # (customers,) complex customer currents
    s_dt: np.ndarray  # (3,) complex DT branch power per phase
    s_cust: np.ndarray  # (customers,) complex effective loads
    cust_phase: np.ndarray  # (customers,) connected phase index
    iterations: int
    mismatch: float

    def __post_init__(self) -> None:
        for nameattr in ("v", "i_cust", "s_dt", "s_cust"):
            _freeze(self, nameattr, complex)
        _freeze(self, "cust_phase", int)


def solve_utpf(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> PFSolution:
    """Exact fixed-point power flow for one period under a phase assignment.

    Flat start at the root voltage. Each pass draws conj(s) / conj(V) at
    every customer's own voltage V and moves those voltages by the coupling
    of the customers' shared paths, until the worst complex power mismatch
    is at or below MISMATCH_TOL. The converged currents then give every bus
    voltage. Raises VoltageCollapseError, or NonConvergenceError after
    MAX_ITERATIONS passes.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    v0 = network.v0

    s = _effective_loads(snapshot, q_adjust)
    phases = np.asarray(assignment.phases, dtype=int)
    coupling = _coupling(network, phases)
    v0c = v0[phases]
    vc = v0c
    polished = False

    for iteration in range(1, MAX_ITERATIONS + 1):
        if np.any(np.abs(vc) < COLLAPSE_GUARD):
            raise VoltageCollapseError(
                f"voltage magnitude below {COLLAPSE_GUARD} p.u. at iteration {iteration}"
            )
        i_cust = np.conj(s) / np.conj(vc)
        vc = v0c - coupling @ i_cust
        mismatch = float(np.max(np.abs(vc * np.conj(i_cust) - s))) if len(s) else 0.0
        if mismatch <= MISMATCH_TOL:
            # Per-customer mismatches share the sign of the last voltage
            # correction, so their sum can reach n times the max; one extra
            # consistency pass shrinks the pooled balance error well below
            # MISMATCH_TOL.
            if not polished:
                polished = True
                continue
            injected = _injections(phases, i_cust)
            v = _bus_voltages(network, injected)
            if np.any(np.abs(v) < COLLAPSE_GUARD):
                raise VoltageCollapseError("converged state below the collapse guard")
            return PFSolution(
                v=v.take(feeder_geometry(network).col_inverse, axis=0),
                i_cust=i_cust,
                s_dt=v0 * np.conj(injected.sum(axis=0)),
                s_cust=s,
                cust_phase=phases,
                iterations=iteration,
                mismatch=mismatch,
            )

    raise NonConvergenceError(mismatch=mismatch, iterations=MAX_ITERATIONS)


def power_balance_residual(solution: PFSolution, snapshot: CaseSnapshot) -> float:
    """|DT injection - customer loads - line losses| in p.u. (complex magnitude).

    Loads are the effective customer powers carried by the solution, so the
    check remains exact when reactive adjustments were applied to the snapshot.
    A line carries the currents of the customers below it, so the losses
    sum(drop_l * conj(I_l)) over the lines telescope along each customer's
    root path to sum_j (v0[p_j] - V_j) * conj(i_j): customer j drawing i_j
    on phase p_j at its own voltage V_j.
    """

    phases = solution.cust_phase
    v_own = solution.v[feeder_geometry(snapshot.network).cust_bus, phases]
    losses = np.sum((snapshot.network.v0[phases] - v_own) * np.conj(solution.i_cust))
    total_load = solution.s_cust.sum()
    injected = solution.s_dt.sum()
    return float(abs(injected - losses - total_load))
