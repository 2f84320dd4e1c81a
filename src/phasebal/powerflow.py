"""Exact unbalanced three-phase power flow on a radial feeder.

A fixed point over the constant-PQ customers' own voltages (Teng's direct
load flow, restricted to the buses that carry load), used as the
verification oracle for every formulation and optimization result. Also
hosts the factorized tree geometry (each customer's shared-path impedances
to every distinct bus column, the line-to-customer incidence) and the
customer-space helpers built on it, which the linearized-inverse model's
solver shares: the coupling between customers' own voltages and the product
that turns customer currents into the voltages at those columns.
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
    line_child[l] is the bus at line l's end away from the root, whichever
    way the line is stored, and below[l, j] is 1 when customer j's current
    flows through line l, so below @ (customer injections) gives the line
    currents oriented root-outward.
    """

    parent: np.ndarray  # parent bus index, -1 at root
    columns: np.ndarray  # (3 * customers, 3 * k) complex
    cust_bus: np.ndarray  # (customers,) bus index
    col_inverse: np.ndarray  # (n,) column of each bus
    line_child: np.ndarray  # (L,) bus index
    below: np.ndarray  # (L, customers) 0.0 or 1.0


@lru_cache(maxsize=8)
def feeder_geometry(network: Network) -> FeederGeometry:
    report = network.topology
    bus_index = {b: i for i, b in enumerate(network.buses)}
    n = network.n_buses

    parent = np.full(n, -1, dtype=int)
    line_child = np.empty(len(network.lines), dtype=int)
    depth_order = np.array([bus_index[b] for b in report.depth_order], dtype=int)
    for bus, li in report.parent_line.items():
        parent[bus_index[bus]] = bus_index[report.parent[bus]]
        line_child[li] = bus_index[bus]

    z_child = np.zeros((n, 3, 3), dtype=complex)  # each bus's line to its parent
    z_child[line_child] = np.stack([l.z_pu for l in network.lines])
    zcum = np.zeros((n, 3, 3), dtype=complex)
    for bi in depth_order[1:]:
        zcum[bi] = zcum[parent[bi]] + z_child[bi]

    # lca[j, m] is the deepest bus on both bus m's and customer j's root
    # paths: bus m itself when it lies on customer j's path, else its
    # parent's entry, which one pass down the depth order has already set.
    # A bus on no customer's path copies its parent's whole column, so the
    # table keeps the columns of the buses that are their own col_rep.
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

    # One gather straight into the table's layout from rows[3m + p] =
    # zcum[m][:, p], taken along one axis: indexing two axes at once ran
    # three times slower on a 906-bus feeder.
    rows = zcum.transpose(0, 2, 1).reshape(3 * n, 3)
    cols, col_inverse = np.unique(col_rep, return_inverse=True)
    columns = np.take(rows, 3 * lca[:, None, cols] + np.arange(3)[:, None], axis=0)
    columns = columns.reshape(3 * len(cust_bus), 3 * len(cols))
    below = on_path[:, line_child].T.astype(float)
    for table in (parent, columns, cust_bus, col_inverse, line_child, below):
        table.setflags(write=False)
    return FeederGeometry(parent, columns, cust_bus, col_inverse, line_child, below)


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


def _bus_voltages(
    network: Network, phases: np.ndarray, i_cust: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (..., k, 3) column voltages for customer currents i_cust (..., customers)
    drawn on phases, in one product with the geometry's table, and the (...,
    customers, 3) injections; take(col_inverse, axis=-2) gives bus order."""

    lead = i_cust.shape[:-1]
    injected = np.zeros(i_cust.shape + (3,), dtype=complex)
    np.put_along_axis(
        injected, np.broadcast_to(phases, i_cust.shape)[..., None], i_cust[..., None], axis=-1
    )
    drops = injected.reshape(lead + (-1,)) @ feeder_geometry(network).columns
    return network.v0 - drops.reshape(lead + (-1, 3)), injected


@dataclass(frozen=True, eq=False)
class PFSolution:
    """Converged power-flow state in per-unit.

    s_cust holds the effective complex loads the state serves, including
    any reactive-power adjustments applied on top of the snapshot demands.
    """

    v: np.ndarray  # (n, 3) complex bus voltages
    i_lines: np.ndarray  # (L, 3) complex line currents, oriented root-outward
    s_dt: np.ndarray  # (3,) complex DT branch power per phase
    s_cust: np.ndarray  # (customers,) complex effective loads
    cust_phase: np.ndarray  # (customers,) connected phase index
    iterations: int
    mismatch: float

    def __post_init__(self) -> None:
        for nameattr in ("v", "i_lines", "s_dt", "s_cust"):
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
    voltage and line current. Raises VoltageCollapseError, or
    NonConvergenceError after MAX_ITERATIONS passes.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    geometry = feeder_geometry(network)
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
            v, injected = _bus_voltages(network, phases, i_cust)
            if np.any(np.abs(v) < COLLAPSE_GUARD):
                raise VoltageCollapseError("converged state below the collapse guard")
            return PFSolution(
                v=v.take(geometry.col_inverse, axis=0),
                # Two real products: numpy would cast the incidence to complex.
                i_lines=geometry.below @ injected.real + 1j * (geometry.below @ injected.imag),
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
    """

    geometry = feeder_geometry(snapshot.network)
    v, child = solution.v, geometry.line_child
    drops = v[geometry.parent[child]] - v[child]  # parent to child, as i_lines flow
    losses = np.einsum("lp,lp->", drops, np.conj(solution.i_lines))
    total_load = solution.s_cust.sum()
    injected = solution.s_dt.sum()
    return float(abs(injected - losses - total_load))
