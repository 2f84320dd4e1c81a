"""Exact power-flow solver: hand oracles, conservation, error reporting."""

from __future__ import annotations

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasebal import powerflow
from phasebal.netmodel import Network, build_snapshot
from phasebal.powerflow import (
    FeederGeometry,
    NonConvergenceError,
    PhaseAssignment,
    VoltageCollapseError,
    _customer_meet,
    check_assignment,
    feeder_geometry,
    power_balance_residual,
    solve_utpf,
)

from conftest import (
    customer_table, line_table, loaded_snapshot, make_v0, random_radial_network, symmetric_z, two_bus_network,
)


def snapshot_for(network, p_pu, q_pu=None, adjustable=()):
    from phasebal.netmodel import CaseSnapshot

    n = network.n_customers
    q = np.zeros(n) if q_pu is None else np.asarray(q_pu, dtype=float)
    return CaseSnapshot(
        network=network,
        p_pu=np.asarray(p_pu, dtype=float),
        q_pu=q,
        q_lo_pu=np.zeros(n),
        q_hi_pu=np.zeros(n),
        switchable=np.isin(np.arange(n), tuple(adjustable)),
    )


class TestPhaseAssignment:
    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="0, 1 or 2"):
            PhaseAssignment((0, 3))

    def test_initial_reads_customer_phases(self, network):
        asg = PhaseAssignment.initial(network)
        assert len(asg) == network.n_customers
        assert asg.phases == tuple(network.initial_phases.tolist())

    def test_check_assignment_guards_switchless_moves(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        initial = PhaseAssignment.initial(network).phases

        def moved(k):
            return PhaseAssignment(initial[:k] + ((initial[k] + 1) % 3,) + initial[k + 1:])

        fixed = int(np.flatnonzero(~snap.switchable)[0])
        with pytest.raises(ValueError, match="no switch"):
            check_assignment(snap, moved(fixed))
        check_assignment(snap, moved(int(np.flatnonzero(snap.switchable)[0])))
        # With two switchless customers moved, the first is named.
        first, second = np.flatnonzero(~snap.switchable)[[0, -1]].tolist()
        both = list(initial)
        both[first], both[second] = (initial[first] + 1) % 3, (initial[second] + 2) % 3
        with pytest.raises(ValueError) as info:
            check_assignment(snap, PhaseAssignment(tuple(both)))
        name, before, after = network.customer_names[first], initial[first], both[first]
        assert str(info.value) == f"customer {name} has no switch but is moved from phase {before} to {after}"

    def test_check_assignment_length(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        with pytest.raises(ValueError, match="covers"):
            check_assignment(snap, PhaseAssignment((0, 1)))


class TestScalarOracle:
    def test_resistive_single_phase_closed_form(self, monkeypatch):
        # Uncoupled resistive line, real load on phase a, real source voltage:
        # V = v0 - r * s / V  =>  V = (v0 + sqrt(v0^2 - 4 r s)) / 2.
        r, s, v0 = 0.02, 0.05, 1.05
        network = two_bus_network(z_self=r, z_mutual=0.0)
        network = replace(
            network,
            v0=np.array([v0, v0, v0], dtype=complex),
        )
        snap = snapshot_for(network, [s])
        monkeypatch.setattr(powerflow, "MISMATCH_TOL", 1e-14)
        sol = solve_utpf(snap, PhaseAssignment((0,)))
        i_line = line_currents(network, sol)[0, 0]
        expect = (v0 + math.sqrt(v0 * v0 - 4 * r * s)) / 2.0
        assert abs(sol.v[1, 0] - expect) <= 1e-12
        assert abs(sol.v[1, 0] * np.conj(i_line) - s) <= 1e-12
        # DT power covers the load plus the line's resistive loss.
        loss = r * abs(i_line) ** 2
        assert abs(sol.s_dt.sum() - s - loss) <= 1e-12

    def test_single_customer_first_iteration_current(self):
        # Flat-start current conj(s)/conj(v0) is the first ladder injection.
        network = two_bus_network()
        snap = snapshot_for(network, [0.01], [0.005])
        sol = solve_utpf(snap, PhaseAssignment((0,)))
        expect0 = (0.01 - 0.005j) / 1.05
        assert abs(line_currents(network, sol)[0, 0] - expect0) <= 2e-4  # near, then refined
        assert sol.mismatch <= 1e-8


class TestZeroLoad:
    def test_voltages_pin_to_source(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        empty = replace(
            snap,
            p_pu=np.zeros(network.n_customers),
            q_pu=np.zeros(network.n_customers),
        )
        sol = solve_utpf(empty, PhaseAssignment.initial(network))
        assert sol.mismatch == 0.0
        assert np.array_equal(sol.v, np.tile(network.v0, (network.n_buses, 1)))
        assert np.array_equal(sol.s_dt, np.zeros(3, dtype=complex))


class TestBundledConvergence:
    def test_period_40_state(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        sol = solve_utpf(snap, PhaseAssignment.initial(network))
        assert sol.mismatch <= 1e-8
        assert sol.iterations < 60
        assert power_balance_residual(sol, snap) <= 1e-8
        assert np.all(np.abs(sol.v) > 0.9) and np.all(np.abs(sol.v) < 1.1)

    def test_kirchhoff_from_raw_line_list(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = PhaseAssignment.initial(network)
        sol = solve_utpf(snap, asg)
        assert np.max(np.abs(current_imbalance(network, asg, sol, snap.s_pu))) <= 1e-9

    @pytest.mark.parametrize("adjusted", [False, True], ids=["no-q", "q-adjust"])
    @pytest.mark.parametrize("period", [40, 73])
    def test_residual_equals_the_line_sum(self, network, demands, period, adjusted):
        snap = build_snapshot(network, demands, period, pv_q_control=True)
        q_adjust = None
        if adjusted:
            q_adjust = np.random.default_rng(period).uniform(snap.q_lo_pu, snap.q_hi_pu)
            assert np.any(q_adjust != 0)
        sol = solve_utpf(snap, PhaseAssignment.initial(network), q_adjust=q_adjust)
        assert_residual_as_line_sum(network, sol, snap)


def line_currents(network, sol):
    """The (lines, 3) currents of sol, each line's flowing from its
    parent-side bus to its child-side bus: every customer's current
    sol.i_cust[j], on its phase, added to each line of its root path, walked
    up the topology report rather than the solver's cached geometry."""

    report = network.topology
    i_lines = np.zeros((len(network.line_names), 3), dtype=complex)
    for j, bus in enumerate(network.customer_buses.tolist()):
        while bus != network.root:
            i_lines[report.parent_line[bus], sol.cust_phase[j]] += sol.i_cust[j]
            bus = report.parent[bus]
    return i_lines


def line_balance_residual(network, sol):
    """`power_balance_residual` in line space: |DT injection - customer
    loads - line losses|, the losses summed as drop * conj(current) over the
    lines, each drop from parent to child as `line_currents` flow."""

    bus_index = {b: i for i, b in enumerate(network.buses)}
    report = network.topology
    parent, child = np.zeros((2, len(network.line_names)), dtype=int)
    for bus, li in report.parent_line.items():
        parent[li], child[li] = bus_index[report.parent[bus]], bus_index[bus]
    drops = sol.v[parent] - sol.v[child]
    losses = np.einsum("lp,lp->", drops, np.conj(line_currents(network, sol)))
    return float(abs(sol.s_dt.sum() - losses - sol.s_cust.sum()))


def assert_residual_as_line_sum(network, sol, snap):
    assert abs(power_balance_residual(sol, snap) - line_balance_residual(network, sol)) <= 1e-14


def current_imbalance(network, asg, sol, s):
    """Independent KCL check for customer loads s: per bus and phase, line
    flows out of the bus plus local customer injections minus flows into it,
    zero at the root slack. Uses only the topology report, whose line to
    each bus's parent carries `line_currents` from the parent to the bus,
    not the solver's cached geometry."""

    bus_index = {b: i for i, b in enumerate(network.buses)}
    report = network.topology
    i_lines = line_currents(network, sol)
    balance = np.zeros((network.n_buses, 3), dtype=complex)
    for bus, li in report.parent_line.items():
        balance[bus_index[report.parent[bus]]] -= i_lines[li]
        balance[bus_index[bus]] += i_lines[li]
    for k, bus in enumerate(network.customer_buses.tolist()):
        vc = sol.v[bus_index[bus], asg.phases[k]]
        balance[bus_index[bus], asg.phases[k]] -= np.conj(s[k] / vc)
    balance[bus_index[network.root]] = 0.0  # root slack supplies the feeder
    return balance


def ohm_gap(network, sol):
    """Largest |v[child] - (v[parent] - z_pu @ i_line)| over the line table's
    rows, each oriented from parent to child by the topology report and
    carrying its `line_currents`."""

    bus_index = {b: i for i, b in enumerate(network.buses)}
    report = network.topology
    i_lines = line_currents(network, sol)
    return max(
        np.max(np.abs(
            sol.v[bus_index[bus]]
            - sol.v[bus_index[report.parent[bus]]]
            + network.line_z_pu[li] @ i_lines[li]
        ))
        for bus, li in report.parent_line.items()
    )


class TestRandomFeederConservation:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), n_buses=st.integers(2, 60), q_band=st.sampled_from([0.0, 0.02]))
    def test_kirchhoff_and_power_balance(self, seed, n_buses, q_band):
        # Every customer switchable, on random phases, with random reactive
        # adjustments inside its band.
        network = random_radial_network(seed, n_buses=n_buses, n_customers=16)
        snap = loaded_snapshot(network, seed, switches=16, q_band=q_band)
        rng = np.random.default_rng(seed)
        asg = PhaseAssignment(tuple(int(p) for p in rng.integers(0, 3, 16)))
        q_adjust = rng.uniform(snap.q_lo_pu, snap.q_hi_pu)
        sol = solve_utpf(snap, asg, q_adjust=q_adjust)
        imbalance = current_imbalance(network, asg, sol, snap.s_pu + 1j * q_adjust)
        assert np.max(np.abs(imbalance)) <= 1e-9
        assert ohm_gap(network, sol) <= 1e-12
        assert power_balance_residual(sol, snap) <= 1e-8
        assert_residual_as_line_sum(network, sol, snap)

    def test_lines_stored_child_to_parent(self):
        # The radiality check accepts a line in either direction; the state
        # and its balance must not depend on it.
        network = random_radial_network(seed=12, n_buses=12, n_customers=8)
        ends = np.array(network.line_ends)
        ends[1::2] = ends[1::2, ::-1]
        flipped = replace(network, line_ends=ends)
        asg = PhaseAssignment.initial(network)
        sol = solve_utpf(loaded_snapshot(network, 12, switches=0), asg)
        snap = loaded_snapshot(flipped, 12, switches=0)
        sol_flipped = solve_utpf(snap, asg)
        assert np.array_equal(sol_flipped.v, sol.v)
        assert np.array_equal(sol_flipped.i_cust, sol.i_cust)
        assert np.max(np.abs(current_imbalance(flipped, asg, sol_flipped, snap.s_pu))) <= 1e-9
        assert ohm_gap(flipped, sol_flipped) <= 1e-12
        assert power_balance_residual(sol_flipped, snap) <= 1e-8
        assert_residual_as_line_sum(flipped, sol_flipped, snap)


class TestReactiveAdjustment:
    def test_bounds_enforced(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = PhaseAssignment.initial(network)
        with pytest.raises(ValueError, match="one entry per customer"):
            solve_utpf(snap, asg, q_adjust=np.zeros(3))
        with pytest.raises(ValueError, match="reactive bounds"):
            solve_utpf(snap, asg, q_adjust=np.full(network.n_customers, 1e-3))

    def test_adjustment_shifts_served_power(self, network, demands):
        snap = build_snapshot(network, demands, 48, pv_q_control=True)
        asg = PhaseAssignment.initial(network)
        dq = np.where(snap.q_hi_pu > 0, snap.q_hi_pu, 0.0)
        sol = solve_utpf(snap, asg, q_adjust=dq)
        assert np.allclose(sol.s_cust, snap.s_pu + 1j * dq)
        assert power_balance_residual(sol, snap) <= 1e-8


class TestFailureReporting:
    def test_voltage_collapse_is_typed(self):
        network = two_bus_network(z_self=0.5 + 1.5j, z_mutual=0.0)
        snap = snapshot_for(network, [2.0])
        with pytest.raises(VoltageCollapseError):
            solve_utpf(snap, PhaseAssignment((0,)))

    def test_nonconvergence_carries_state(self, network, demands, monkeypatch):
        snap = build_snapshot(network, demands, 40)
        monkeypatch.setattr(powerflow, "MAX_ITERATIONS", 1)
        with pytest.raises(NonConvergenceError) as info:
            solve_utpf(snap, PhaseAssignment.initial(network))
        assert info.value.iterations == 1
        assert info.value.mismatch > 1e-8


def chain_lca_meet(network):
    """Reference `_customer_meet`, expanded to every bus, by a pairwise
    ancestor-chain search: for each customer's bus b and each bus m, the
    line impedances summed from the root along the chain of buses that m's
    and b's root chains share, as out[j, p, m, phi] = Z[phi, p]."""

    topology = network.topology
    chains = {network.root: [network.root]}
    for bus in topology.depth_order[1:]:
        chains[bus] = chains[topology.parent[bus]] + [bus]
    out = np.zeros((network.n_customers, 3, network.n_buses, 3), dtype=complex)
    for j, bus in enumerate(network.customer_buses.tolist()):
        on_b = set(chains[bus])
        for m, bus in enumerate(network.buses):
            z = np.zeros((3, 3), dtype=complex)
            for x in chains[bus][1:]:
                if x not in on_b:
                    break
                z = z + network.line_z_pu[topology.parent_line[x]]
            out[j, :, m] = z.T
    return out


def expanded_meet(network):
    """`_customer_meet` put in bus order through the geometry's col_inverse."""

    return _customer_meet(network)[:, :, feeder_geometry(network).col_inverse]


def bus_parents(network):
    """Each bus's parent index by the topology report, -1 at the root."""

    bus_index = {b: i for i, b in enumerate(network.buses)}
    report = network.topology
    parent = np.full(network.n_buses, -1)
    for bus in report.parent_line:
        parent[bus_index[bus]] = bus_index[report.parent[bus]]
    return parent


def on_customer_paths(network):
    """Indices of the root and of every bus on some customer's root path."""

    parent = bus_parents(network)
    on_paths = {network.buses.index(network.root)}
    for bus in network.customer_buses.tolist():
        bi = network.buses.index(bus)
        while bi >= 0:
            on_paths.add(int(bi))
            bi = parent[bi]
    return on_paths


def per_bus_geometry(network):
    """`feeder_geometry`'s three tables, in field order, built by a walk
    over every bus with one numpy step per bus: the reference the path walk
    must equal byte for byte."""

    report = network.topology
    bus_index = {b: i for i, b in enumerate(network.buses)}
    n = network.n_buses

    parent = np.full(n, -1, dtype=int)
    line_child = np.empty(len(network.line_names), dtype=int)
    depth_order = np.array([bus_index[b] for b in report.depth_order], dtype=int)
    for bus, li in report.parent_line.items():
        parent[bus_index[bus]] = bus_index[report.parent[bus]]
        line_child[li] = bus_index[bus]

    z_child = np.zeros((n, 3, 3), dtype=complex)  # each bus's line to its parent
    z_child[line_child] = network.line_z_pu
    zcum = np.zeros((n, 3, 3), dtype=complex)
    for bi in depth_order[1:]:
        zcum[bi] = zcum[parent[bi]] + z_child[bi]

    # lca[j, m] is the deepest bus on both bus m's and customer j's root
    # paths: bus m itself when it lies on customer j's path, else its
    # parent's entry, which one pass down the depth order has already set.
    cust_bus = np.array([bus_index[b] for b in network.customer_buses.tolist()], dtype=int)
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

    rows = zcum.transpose(0, 2, 1).reshape(3 * n, 3)
    cols, col_inverse = np.unique(col_rep, return_inverse=True)
    columns = np.take(rows, 3 * lca[:, None, cols] + np.arange(3)[:, None], axis=0)
    columns = columns.reshape(3 * len(cust_bus), 3 * len(cols))
    return columns, cust_bus, col_inverse


def assert_geometry_as_per_bus(network):
    geometry = feeder_geometry(network)
    for field, want in zip(fields(FeederGeometry), per_bus_geometry(network)):
        got = getattr(geometry, field.name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape), field.name
        assert got.tobytes() == want.tobytes(), field.name


def branched_chain_network(seed, depth, customers_at):
    """A chain of buses 0..depth from root 0 with a side branch of one to
    four buses off every third chain bus, every other line stored child to
    parent; customers sit at customers_at(all bus ids, chain bus ids). Each
    impedance is skewed within the symmetry tolerance, so that a table
    read the wrong way round differs in its bits."""

    rng = np.random.default_rng(seed)
    chain = list(range(depth + 1))
    edges = list(zip(chain, chain[1:]))
    for stem in chain[::3]:
        for _ in range(int(rng.integers(1, 5))):
            edges.append((stem, len(edges) + 1))  # a tree of e lines has buses 0..e
            stem = len(edges)
    buses = list(range(len(edges) + 1))
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1], skew[2, 1] = 4e-13, 3e-13j
    lines = line_table(*(
        (
            f"l{k}",
            a if k % 2 else b,
            b if k % 2 else a,
            skew + symmetric_z(complex(*rng.uniform(0.001, 0.03, 2)), complex(*rng.uniform(0.0005, 0.01, 2))),
        )
        for k, (a, b) in enumerate(edges)
    ))
    customers = customer_table(*((f"c{j + 1}", bus, j % 3) for j, bus in enumerate(customers_at(buses, chain))))
    return Network(buses=tuple(buses), root=0, **lines, **customers, v0=make_v0(), i_dt_max=2.0)


class TestFeederGeometry:
    def test_customer_table_matches_the_chain_search_on_the_bundled_feeder(self, network):
        assert expanded_meet(network).tobytes() == chain_lca_meet(network).tobytes()

    @pytest.mark.parametrize("n_buses", [2, 7, 40, 150, 400])
    def test_customer_table_matches_the_chain_search_on_random_feeders(self, n_buses):
        network = random_radial_network(seed=n_buses, n_buses=n_buses, n_customers=20)
        assert expanded_meet(network).tobytes() == chain_lca_meet(network).tobytes()

    @pytest.mark.parametrize("n_buses", [None, 2, 7, 40, 150, 400])
    def test_bus_columns_repeat_their_representative(self, network, n_buses):
        if n_buses is not None:  # else the bundled feeder
            network = random_radial_network(seed=n_buses, n_buses=n_buses, n_customers=20)
        geometry = feeder_geometry(network)
        col_inverse, parent = geometry.col_inverse, bus_parents(network)
        # A bus has a column of its own exactly when it is the root or lies
        # on a customer's root path, that is, has a customer in its subtree;
        # any other bus repeats its parent's column. The columns follow their
        # own buses' order.
        on_paths = on_customer_paths(network)
        own = {m for m in range(network.n_buses) if parent[m] < 0 or col_inverse[m] != col_inverse[parent[m]]}
        assert own == on_paths
        assert np.array_equal(col_inverse[sorted(on_paths)], np.arange(len(on_paths)))
        assert geometry.columns.shape[1] == 3 * len(on_paths)

    def test_tables_equal_the_per_bus_walk_on_the_bundled_feeder(self, network):
        assert_geometry_as_per_bus(network)

    @pytest.mark.parametrize("n_customers", [1, 24])
    @pytest.mark.parametrize("n_buses", [2, 3, 7, 40, 150, 400])
    def test_tables_equal_the_per_bus_walk_on_random_feeders(self, n_buses, n_customers):
        for seed in range(3):
            assert_geometry_as_per_bus(random_radial_network(seed * 1000 + n_buses, n_buses, n_customers))

    @pytest.mark.parametrize(
        "where",
        [
            pytest.param(lambda buses, chain: buses[-1:] + chain[-1:], id="tips"),
            pytest.param(lambda buses, chain: buses[1::7] + chain[::-11], id="scattered"),
            pytest.param(lambda buses, chain: [chain[-1]] * 3 + buses[::5], id="shared-buses"),
        ],
    )
    def test_tables_equal_the_per_bus_walk_on_a_deep_branched_chain(self, where):
        # Deeper than the 906-bus feeder's 197 levels.
        network = branched_chain_network(seed=3, depth=260, customers_at=where)
        assert_geometry_as_per_bus(network)

    @pytest.mark.parametrize("customers_at", [lambda buses, chain: [0], lambda buses, chain: []], ids=["root", "none"])
    def test_tables_equal_the_per_bus_walk_without_a_customer_below_the_root(self, customers_at):
        # The one customer at the root meets every bus there; with no
        # customer at all the table has no rows. Either way the root keeps
        # the only column.
        network = branched_chain_network(seed=4, depth=12, customers_at=customers_at)
        assert_geometry_as_per_bus(network)
        assert feeder_geometry(network).columns.shape == (3 * network.n_customers, 3)

    def test_customer_table_is_stored_customer_major(self, network):
        # One read-only array, rows by (customer, phase), one column triple per
        # bus with a column of its own; the kernels read it through a
        # contiguous view of the same memory.
        columns = feeder_geometry(network).columns
        k = len(on_customer_paths(network))
        assert columns.shape == (3 * network.n_customers, 3 * k)
        assert columns.flags["C_CONTIGUOUS"] and not columns.flags["WRITEABLE"]
        meet = _customer_meet(network)
        assert meet.flags["C_CONTIGUOUS"] and np.shares_memory(meet, columns)

    def test_memory_grows_with_buses_times_customers(self):
        network = random_radial_network(seed=900, n_buses=900, n_customers=55)
        geometry = feeder_geometry(network)
        arrays = [v for v in vars(geometry).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) < 3 * 2**20  # an (n, n, 3, 3) table would hold 112 MiB
