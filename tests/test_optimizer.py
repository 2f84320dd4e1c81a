"""Discrete search strategies, iterated refinement, and reactive dispatch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasebal.formulations import _combo_table, _make_kernel, evaluate_fixv
from phasebal.netmodel import DEFAULT_SCENARIO, CaseSnapshot, ScenarioOptions, build_snapshot
from phasebal.optimizer import (
    _BLOCK,
    _CHUNK,
    Algorithm1Options,
    SearchOptions,
    _decode,
    _pi_order,
    branch_and_bound,
    exhaustive,
    fixv_algorithm1,
    local_search,
    optimize_pv_q,
)
from phasebal.powerflow import PhaseAssignment, solve_utpf

from conftest import random_radial_network, two_bus_network
from test_powerflow import snapshot_for
from dataclasses import replace


class TestOptions:
    def test_search_options_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SearchOptions(strategy="genetic")
        with pytest.raises(ValueError, match="positive"):
            SearchOptions(enumeration_budget=0)
        with pytest.raises(ValueError, match="non-negative"):
            SearchOptions(restarts=-1)

    def test_algorithm1_options_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Algorithm1Options(max_outer=0)
        with pytest.raises(ValueError, match="eps_v"):
            Algorithm1Options(eps_v=0.0)


def tiny_snapshot():
    network = two_bus_network(
        customers=((0, True), (0, True), (1, False), (2, False))
    )
    return snapshot_for(
        network, [0.30, 0.20, 0.15, 0.05], [0.10, 0.08, 0.05, 0.02], adjustable=(0, 1)
    )


class TestExhaustive:
    def test_matches_hand_enumeration(self):
        snap = tiny_snapshot()
        combos = _combo_table(2)
        scores = []
        for row in combos:
            asg = PhaseAssignment.initial(snap.network).with_phases([0, 1], row)
            scores.append(evaluate_fixv(snap, asg).objective)
        k = int(np.argmin(scores))
        out = exhaustive(snap, method="fixv")
        assert out.strategy == "exhaustive"
        assert out.candidates == 9
        assert out.assignment.phases[:2] == tuple(int(p) for p in combos[k])
        assert out.model.objective == pytest.approx(scores[k], abs=1e-14)

    def test_never_worse_than_initial(self):
        snap = tiny_snapshot()
        out = exhaustive(snap, method="lbfm")
        assert out.model.objective <= out.initial_model.objective

    @pytest.mark.parametrize("search", [exhaustive, branch_and_bound])
    def test_budget_guard(self, search):
        snap = tiny_snapshot()
        with pytest.raises(ValueError, match="exceed the enumeration budget"):
            search(snap, options=SearchOptions(enumeration_budget=8))


def loaded_snapshot(network, seed, switches, q_band=0.0, idle=0):
    """Loads heavy enough (up to 0.1 pu P, 0.03 pu Q) to put buses into the
    kernels' cap set; the first switches customers are adjustable, the first
    idle of them draw nothing (so candidates tie), and each customer may
    move its reactive power by up to q_band."""

    rng = np.random.default_rng(seed)
    n = network.n_customers
    band = rng.uniform(0.0, q_band, n)
    p, q = rng.uniform(0.0, 0.1, n), rng.uniform(0.0, 0.03, n)
    p[:idle] = q[:idle] = 0.0
    return CaseSnapshot(
        network=network,
        period=0,
        p_pu=p,
        q_pu=q,
        q_lo_pu=-band,
        q_hi_pu=band,
        adjustable_idx=tuple(range(switches)),
    )


class TestBranchAndBound:
    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_equals_exhaustive_on_randomized_instances(self, network, demands, method):
        rng = np.random.default_rng(20240817)
        cids = [c.cid for c in network.customers]
        scored = candidates = 0
        for trial in range(4):
            period = int(rng.integers(0, demands.p_w.shape[0]))
            switches = tuple(
                int(c) for c in rng.choice(cids, size=int(rng.integers(6, 8)), replace=False)
            )
            scenario = ScenarioOptions(
                pv_customers=DEFAULT_SCENARIO.pv_customers,
                pv_capacity_kw=DEFAULT_SCENARIO.pv_capacity_kw,
                switch_customers=switches,
            )
            snap = build_snapshot(network, demands, period, scenario)
            full = exhaustive(snap, method=method)
            pruned = branch_and_bound(snap, method=method)
            assert pruned.strategy == "branch-and-bound"
            assert abs(pruned.model.objective - full.model.objective) <= 1e-12
            assert pruned.assignment.phases == full.assignment.phases
            assert pruned.candidates == full.candidates
            scored += pruned.stats["scored"]
            candidates += pruned.candidates
        assert scored < candidates  # the bound actually skips field scoring

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        switches=st.integers(1, 8),
        method=st.sampled_from(["fixv", "lbfm"]),
        q_band=st.sampled_from([0.0, 0.02]),
        idle=st.integers(0, 1),
    )
    def test_equals_exhaustive_on_random_feeders(self, seed, switches, method, q_band, idle):
        network = random_radial_network(seed, n_switches=switches)
        snap = loaded_snapshot(network, seed, switches, q_band, idle)
        q_adjust = None
        if q_band:
            q_adjust = np.random.default_rng(seed + 1).uniform(snap.q_lo_pu, snap.q_hi_pu)
        full = exhaustive(snap, method=method, q_adjust=q_adjust)
        pruned = branch_and_bound(snap, method=method, q_adjust=q_adjust)
        assert pruned.assignment.phases == full.assignment.phases
        assert pruned.model.objective == full.model.objective

    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_equals_exhaustive_with_twelve_switches(self, method):
        network = random_radial_network(seed=5, n_buses=30, n_switches=12)
        snap = loaded_snapshot(network, seed=5, switches=12)
        full = exhaustive(snap, method=method)
        pruned = branch_and_bound(snap, method=method)
        assert pruned.assignment.phases == full.assignment.phases
        assert pruned.model.objective == full.model.objective
        assert pruned.stats["scored"] < pruned.candidates == 3**12

    @pytest.mark.parametrize("period", [48, 73])
    @pytest.mark.parametrize("model", ["fixv-flat", "fixv-exact", "lbfm"])
    def test_pi_ordered_blocks_score_as_index_chunks(self, network, demands, model, period):
        # The scan's bound and tie-break rely on a candidate pricing the same
        # in any batch: ascending-pi blocks against the exhaustive chunks.
        snap = build_snapshot(network, demands, period)
        profile = None
        if model == "fixv-exact":
            profile = solve_utpf(snap, PhaseAssignment.initial(network)).v
        kernel = _make_kernel(snap, model[:4], profile=profile)
        mm = kernel.n_movable
        total = 3**mm
        chunks = [
            kernel.score(_decode(np.arange(lo, min(lo + _CHUNK, total)), mm))
            for lo in range(0, total, _CHUNK)
        ]
        pi, order = _pi_order(kernel)
        blocked = np.empty(total)
        for lo in range(0, total, _BLOCK):
            block = order[lo:lo + _BLOCK]
            blocked[block] = kernel.score(_decode(block, mm)).objective
        assert blocked.tobytes() == np.concatenate([c.objective for c in chunks]).tobytes()
        assert pi.tobytes() == np.concatenate([c.pi for c in chunks]).tobytes()

    def test_rejects_non_separable_model(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        with pytest.raises(ValueError, match="separable"):
            branch_and_bound(snap, method="linv")


class TestLocalSearch:
    def test_model_objective_never_above_initial(self, network, demands):
        for period in (4, 40, 48):
            snap = build_snapshot(network, demands, period)
            out = local_search(snap, method="fixv")
            assert out.strategy == "local"
            assert out.model.objective <= out.initial_model.objective + 1e-12

    def test_optimum_is_a_fixed_point(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        best = exhaustive(snap, method="fixv")
        seed_choices = [best.assignment.phases[j] for j in sorted(snap.adjustable_idx)]
        out = local_search(
            snap,
            method="fixv",
            options=SearchOptions(restarts=0),
            extra_starts=[seed_choices],
        )
        assert abs(out.model.objective - best.model.objective) <= 1e-12

    def test_seeded_restarts_are_reproducible(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        opts = SearchOptions(restarts=5, seed=123)
        a = local_search(snap, method="lbfm", options=opts)
        b = local_search(snap, method="lbfm", options=opts)
        assert a.assignment.phases == b.assignment.phases
        assert a.model.objective == b.model.objective
        assert a.stats["starts"] == 6.0


class TestIteratedRefinement:
    def test_single_outer_is_one_discrete_solve(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(
            snap, algorithm=Algorithm1Options(max_outer=1, warm_start=True)
        )
        assert out.strategy == "algorithm1-warm"
        assert out.stats["outer"] == 1.0
        assert out.candidates == 3 ** len(snap.adjustable_idx)
        assert len(out.trace) == 1
        assert out.model.meta["profile"] == "given"  # warm profile from power flow

    def test_cold_start_scores_on_flat_profile_first(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap, algorithm=Algorithm1Options(max_outer=1))
        assert out.strategy == "algorithm1-cold"
        flat_view = evaluate_fixv(snap, out.assignment)
        assert out.model.objective == flat_view.objective
        # One pass cannot reach the profile tolerance; reported, not raised.
        assert out.stats["delta_v"] > 1e-4

    def test_profile_refreshes_pin_after_two_searches(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(
            snap, algorithm=Algorithm1Options(max_outer=6, eps_v=1e-12)
        )
        assert out.stats["outer"] >= 3
        assert out.stats["pinned_outer"] == 3.0
        held = {step.phases for step in out.trace[1:]}
        assert held == {out.trace[1].phases}  # incumbent kept from pass 2 on
        assert out.trace[-1].delta_v == out.stats["delta_v"]

    def test_trace_converges_on_bundled_period(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap, algorithm=Algorithm1Options(max_outer=10))
        assert out.stats["delta_v"] <= 1e-4
        assert out.stats["outer"] <= 5
        deltas = [step.delta_v for step in out.trace]
        assert deltas[-1] <= deltas[0]

    def test_runs_are_reproducible(self, network, demands):
        snap = build_snapshot(network, demands, 48)
        alg = Algorithm1Options(max_outer=3)
        a = fixv_algorithm1(snap, algorithm=alg)
        b = fixv_algorithm1(snap, algorithm=alg)
        assert a.assignment.phases == b.assignment.phases
        assert a.model.objective == b.model.objective
        assert a.trace == b.trace


class TestReactiveDispatch:
    def test_degenerate_bounds_change_nothing(self, network, demands):
        snap = build_snapshot(network, demands, 48)  # pv_q_control off: zero bands
        asg = PhaseAssignment.initial(network)
        start = evaluate_fixv(snap, asg)
        q, final, stats = optimize_pv_q(snap, asg)
        assert np.array_equal(q, np.zeros(network.n_customers))
        assert final.objective == start.objective
        assert stats == {"evaluations": 1.0, "rounds": 1.0}

    def test_descends_within_bounds(self, network, demands):
        scenario = replace(DEFAULT_SCENARIO, pv_q_control=True)
        snap = build_snapshot(network, demands, 48, scenario)
        asg = PhaseAssignment.initial(network)
        start = evaluate_fixv(snap, asg)
        q, final, stats = optimize_pv_q(snap, asg, max_rounds=4)
        assert final.objective <= start.objective
        assert np.all(q >= snap.q_lo_pu - 1e-12)
        assert np.all(q <= snap.q_hi_pu + 1e-12)
        assert np.any(q != 0.0)  # PV noon period leaves room to act
        assert stats["rounds"] <= 4

    def test_monotone_across_round_budgets(self, network, demands):
        scenario = replace(DEFAULT_SCENARIO, pv_q_control=True)
        snap = build_snapshot(network, demands, 48, scenario)
        asg = PhaseAssignment.initial(network)
        _, one, _ = optimize_pv_q(snap, asg, max_rounds=1)
        _, two, _ = optimize_pv_q(snap, asg, max_rounds=2)
        assert two.objective <= one.objective + 1e-12
