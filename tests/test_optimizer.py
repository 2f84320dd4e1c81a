"""Discrete search strategies, iterated refinement, and reactive dispatch."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phasebal import formulations, optimizer
from phasebal.cli import load_scenario
from phasebal.formulations import _FixvKernel, _decode, evaluate_fixv
from phasebal.netmodel import SWITCH_CUSTOMERS, build_snapshot
from phasebal.optimizer import (
    _BLOCK,
    _MODELS,
    _bnb_choices,
    _exhaustive_choices,
    branch_and_bound,
    exhaustive,
    fixv_algorithm1,
    local_search,
    optimize_pv_q,
)
from phasebal.powerflow import solve_utpf

from conftest import loaded_snapshot, random_radial_network, two_bus_network
from test_powerflow import snapshot_for
from dataclasses import replace


def with_switches(snapshot, cids):
    """snapshot with the customers of the given ids (positions + 1) as its switch set."""

    return replace(snapshot, switchable=np.isin(np.arange(1, snapshot.network.n_customers + 1), cids))


def warm_profile(snapshot, warm=True):
    """fixv-mw's start profile, the initial assignment's exact voltages,
    when warm; None, the cold start, otherwise."""

    return solve_utpf(snapshot, snapshot.phases).v if warm else None


def tiny_snapshot():
    network = two_bus_network(customers=(0, 0, 1, 2))
    return snapshot_for(
        network, [0.30, 0.20, 0.15, 0.05], [0.10, 0.08, 0.05, 0.02], adjustable=(0, 1)
    )


class TestExhaustive:
    def test_matches_hand_enumeration(self):
        snap = tiny_snapshot()
        combos = _decode(np.arange(9), 2)
        scores = []
        for row in combos:
            asg = np.append(row, (1, 2))
            scores.append(evaluate_fixv(snap, asg).objective)
        k = int(np.argmin(scores))
        out = exhaustive(snap, method="fixv")
        assert out.strategy == "exhaustive"
        assert out.candidates == 9
        assert np.array_equal(out.assignment[:2], combos[k])
        assert out.model.objective == pytest.approx(scores[k], abs=1e-14)

    def test_never_worse_than_initial(self):
        snap = tiny_snapshot()
        out = exhaustive(snap, method="lbfm")
        assert out.model.objective <= out.initial_model.objective

    @pytest.mark.parametrize("search", [exhaustive, branch_and_bound])
    def test_budget_guard(self, search, monkeypatch):
        # 3^13 candidates exceed the budget of 3^12: the guard raises before
        # any candidate is scored.
        network = random_radial_network(seed=13)
        snap = loaded_snapshot(network, seed=13, switches=13)
        monkeypatch.setattr(_FixvKernel, "score", None)
        with pytest.raises(ValueError) as info:
            search(snap, "fixv")
        assert str(info.value) == (
            "3^13 = 1594323 candidates exceed the enumeration budget of 531441: "
            "13 switch customers are too many to search exactly"
        )


class TestBranchAndBound:
    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_equals_exhaustive_on_randomized_instances(self, network, demands, method):
        rng = np.random.default_rng(20240817)
        cids = list(range(1, network.n_customers + 1))
        scored = candidates = 0
        for trial in range(4):
            period = int(rng.integers(0, demands.p_w.shape[0]))
            switches = tuple(
                int(c) for c in rng.choice(cids, size=int(rng.integers(6, 8)), replace=False)
            )
            snap = with_switches(build_snapshot(network, demands, period), switches)
            full = exhaustive(snap, method=method)
            pruned = branch_and_bound(snap, method=method)
            assert pruned.strategy == "branch-and-bound"
            assert abs(pruned.model.objective - full.model.objective) <= 1e-12
            assert np.array_equal(pruned.assignment, full.assignment)
            assert pruned.candidates == full.candidates
            scored += pruned.stats["scored"]
            candidates += pruned.candidates
        assert scored < candidates  # the bound actually skips field scoring

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        switches=st.integers(1, 8),
        method=st.sampled_from(["fixv", "lbfm"]),
        idle=st.integers(0, 1),
    )
    # The least-pi candidate carries slack here; the scan once scored it twice.
    @example(seed=2, switches=1, method="fixv", idle=0)
    def test_equals_exhaustive_on_random_feeders(self, seed, switches, method, idle):
        network = random_radial_network(seed)
        snap = loaded_snapshot(network, seed, switches, idle=idle)
        kernel = _MODELS[method].kernel(snap)
        full, full_count, _ = _exhaustive_choices(kernel)
        pruned, pruned_count, stats = _bnb_choices(kernel)
        assert np.array_equal(pruned, full)
        assert pruned_count == full_count
        assert stats["scored"] <= pruned_count

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_equals_exhaustive_with_twelve_switches(self, method):
        network = random_radial_network(seed=5, n_buses=30)
        snap = loaded_snapshot(network, seed=5, switches=12)
        full = exhaustive(snap, method=method)
        pruned = branch_and_bound(snap, method=method)
        assert np.array_equal(pruned.assignment, full.assignment)
        assert pruned.model.objective == full.model.objective
        assert pruned.stats["scored"] < pruned.candidates == 3**12

    # "pf095" periods are the reactive-switch variant's.
    @pytest.mark.parametrize("period", [48, 73, "pf095-48", "pf095-73"])
    @pytest.mark.parametrize("model", ["fixv-flat", "fixv-exact", "lbfm"])
    def test_pi_ordered_blocks_score_as_index_chunks(
        self, request, network, demands, model, period, monkeypatch
    ):
        # The scan's bound and tie-break rely on a candidate pricing the same
        # in any batch: ascending-pi blocks against the exhaustive chunks,
        # whose priced spreads are the bound's. The scan then chooses as
        # exhaustive enumeration does.
        if str(period).startswith("pf095"):
            network, demands = load_scenario(request.getfixturevalue("reactive_switch_scenario"))
            period = int(period.split("-")[1])
        snap = build_snapshot(network, demands, period)
        profile = None
        if model == "fixv-exact":
            profile = solve_utpf(snap, snap.phases).v
        kernel = _MODELS[model[:4]].kernel(snap, profile=profile)
        mm = kernel.n_movable
        total = 3**mm
        assert total > kernel.chunk  # more than one chunk
        priced, original = [], formulations._price

        def price(*args, **kwargs):
            out = original(*args, **kwargs)
            priced.append(out.pi)
            return out

        with monkeypatch.context() as patch:
            patch.setattr(formulations, "_price", price)
            chunks = kernel.score(_decode(np.arange(total), mm))
        pi = kernel.spreads()
        order = np.argsort(pi, kind="stable")
        blocked = np.empty(total)
        for lo in range(0, total, _BLOCK):
            block = order[lo:lo + _BLOCK]
            blocked[block] = kernel.score(_decode(block, mm))
        assert blocked.tobytes() == chunks.tobytes()
        assert pi.tobytes() == np.concatenate(priced).tobytes()
        assert np.array_equal(_bnb_choices(kernel)[0], _decode(np.array([np.argmin(chunks)]), mm)[0])

    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_scan_stops_at_the_spread_plateau(self, network, demands, method):
        # Thousands of candidates tie at the least pi at period 73; the
        # smallest-index one carries no slack and wins, so the scan stops
        # within the first block.
        kernel = _MODELS[method].kernel(build_snapshot(network, demands, 73))
        best, count, stats = _bnb_choices(kernel)
        assert np.array_equal(best, _exhaustive_choices(kernel)[0])
        assert count == 3**kernel.n_movable
        assert stats["scored"] <= _BLOCK + 1

    def test_scan_past_a_first_incumbent_with_slack(self, network, demands):
        # At period 41 on the initial assignment's exact profile the least-pi
        # candidate carries slack, so the scan must go on scoring past it.
        snap = build_snapshot(network, demands, 41)
        profile = solve_utpf(snap, snap.phases).v
        kernel = _MODELS["fixv"].kernel(snap, profile=profile)
        pi = kernel.spreads()
        first = kernel.score(_decode(np.array([np.argmin(pi)]), kernel.n_movable))
        assert first[0] > pi.min()
        best, _, stats = _bnb_choices(kernel)
        assert np.array_equal(best, _exhaustive_choices(kernel)[0])
        assert stats["scored"] > 1

    def test_rejects_non_separable_model(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        with pytest.raises(ValueError, match="separable"):
            branch_and_bound(snap, method="linv")


class TestLocalSearch:
    def test_model_objective_never_above_initial(self, network, demands):
        for period in (4, 40, 48):
            snap = build_snapshot(network, demands, period)
            out = local_search(snap, method="fixv", seed=7)
            assert out.strategy == "local"
            assert out.model.objective <= out.initial_model.objective + 1e-12

    def test_seeded_restarts_are_reproducible(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        a = local_search(snap, method="lbfm", seed=123)
        b = local_search(snap, method="lbfm", seed=123)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.model.objective == b.model.objective
        assert a.stats["starts"] == 4.0  # the initial assignment and three restarts


class TestIteratedRefinement:
    def test_single_outer_is_one_discrete_solve(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap, warm_profile(snap))
        assert out.strategy == "algorithm1-warm"
        assert out.stats["outer"] == 1.0
        assert out.candidates == 3 ** snap.switchable.sum()
        assert len(out.trace) == 1

    def test_cold_start_scores_on_flat_profile_first(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap)
        assert out.strategy == "algorithm1-cold"
        first = evaluate_fixv(snap, out.trace[0].phases)
        assert out.trace[0].model_objective == first.objective
        # The second pass searches at the first pass's model voltages, and
        # the outcome's model view is taken there.
        second = evaluate_fixv(snap, out.assignment, profile=first.v)
        assert out.model.objective == second.objective
        assert out.trace[1].delta_v == out.stats["delta_v"] > 0.0

    def test_cold_run_is_two_search_passes(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap)
        assert out.stats["outer"] == 2.0
        assert [step.outer for step in out.trace] == [1, 2]
        assert np.array_equal(out.trace[1].phases, out.assignment)
        assert out.candidates == 2 * 3 ** snap.switchable.sum()
        assert set(out.stats) == {"outer", "delta_v", "scored"}

    # False and True run fixv_algorithm1 cold and warm; lbfm runs
    # branch_and_bound and linv local_search. Each search pass returns the
    # candidate its kernel ranks worst, which `_search`'s scalar guard
    # refuses for the initial assignment.
    @pytest.mark.parametrize("case", [False, True, "lbfm", "linv"])
    def test_records_a_pass_that_fell_back(self, case, monkeypatch):
        def worst_choices(kernel, seed=None):
            choices = _decode(np.arange(3**kernel.n_movable), kernel.n_movable)
            worst = int(np.argmax(kernel.score(choices)))
            return choices[worst], len(choices), {}

        monkeypatch.setattr(optimizer, "_local_choices" if case == "linv" else "_bnb_choices", worst_choices)
        snap = tiny_snapshot()
        initial = snap.phases.tolist()
        if case in ("lbfm", "linv"):
            out = branch_and_bound(snap, case) if case == "lbfm" else local_search(snap, case, 7)
            assert out.stats == {"fell_back_to_initial": 1.0}
        else:
            out = fixv_algorithm1(snap, warm_profile(snap, case))
            assert [step.phases.tolist() for step in out.trace] == [initial] * (1 if case else 2)
            assert out.stats["fell_back_to_initial"] == 1.0
        assert out.assignment.tolist() == initial
        assert out.model.objective == out.initial_model.objective

    def test_trace_converges_on_bundled_period(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = fixv_algorithm1(snap)
        deltas = [step.delta_v for step in out.trace]
        assert deltas[-1] <= deltas[0]

    def test_runs_are_reproducible(self, network, demands):
        snap = build_snapshot(network, demands, 48)
        a = fixv_algorithm1(snap)
        b = fixv_algorithm1(snap)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.model.objective == b.model.objective
        steps = [[(s.outer, s.phases.tolist(), s.delta_v, s.model_objective) for s in out.trace] for out in (a, b)]
        assert steps[0] == steps[1]

    # The case ids are those of the (warm, starts, passes) cases that covered
    # the fixv local-search fallback beyond the budget before it was deleted.
    @pytest.mark.parametrize("warm", [False, True], ids=["False-8.0-2", "True-4.0-1"])
    def test_local_search_beyond_the_enumeration_budget(self, network, demands, monkeypatch, warm):
        # 3^13 candidates exceed the budget, so Algorithm 1's scan refuses
        # before any candidate is scored.
        snap = with_switches(build_snapshot(network, demands, 73), SWITCH_CUSTOMERS + (11, 14, 41))
        assert snap.switchable.sum() == 13
        monkeypatch.setattr(_FixvKernel, "score", None)
        with pytest.raises(ValueError, match="3\\^13 = 1594323 candidates exceed the enumeration budget"):
            fixv_algorithm1(snap, warm_profile(snap, warm))


class TestReactiveDispatch:
    def test_degenerate_bounds_change_nothing(self, network, demands):
        snap = build_snapshot(network, demands, 48)  # pv_q_control off: zero bands
        asg = snap.phases
        start = evaluate_fixv(snap, asg)
        q, final, stats = optimize_pv_q(snap, asg, "fixv")
        assert np.array_equal(q, np.zeros(network.n_customers))
        assert final.objective == start.objective
        assert stats == {"evaluations": 1.0, "rounds": 1.0, "f_start": start.objective}

    def test_descends_within_bounds(self, network, demands, monkeypatch):
        monkeypatch.setattr(optimizer, "_MAX_ROUNDS", 4)
        snap = build_snapshot(network, demands, 48, pv_q_control=True)
        asg = snap.phases
        start = evaluate_fixv(snap, asg)
        q, final, stats = optimize_pv_q(snap, asg, "fixv")
        assert final.objective <= start.objective
        assert np.all(q >= snap.q_lo_pu - 1e-12)
        assert np.all(q <= snap.q_hi_pu + 1e-12)
        assert np.any(q != 0.0)  # PV noon period leaves room to act
        assert stats["rounds"] <= 4

    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_end_state_above_the_start_is_dropped(self, network, demands, method, monkeypatch):
        # Line scores turned upside down walk the descent uphill; the scalar
        # model then ranks the end state above the start, which is kept.
        model = _MODELS[method]

        def uphill(*args):
            line = model.line(*args)
            return lambda q, c: (lambda t: -line(q, c)(t))

        monkeypatch.setitem(_MODELS, method, replace(model, line=uphill))
        monkeypatch.setattr(optimizer, "_MAX_ROUNDS", 1)
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        asg = snap.phases
        start = model.evaluate(snap, asg, None, None)
        q, final, stats = optimize_pv_q(snap, asg, method)
        assert np.array_equal(q, np.zeros(network.n_customers))
        assert final.objective == start.objective == stats["f_start"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), method=st.sampled_from(["fixv", "linv", "lbfm"]))
    def test_never_raises_the_objective_on_random_feeders(self, seed, method):
        network = random_radial_network(seed, n_buses=16, n_customers=8)
        snap = loaded_snapshot(network, seed, switches=3, q_band=0.02)
        moved = np.random.default_rng(seed).integers(0, 3, size=3)
        asg = np.concatenate([moved, snap.phases[3:]])
        start = _MODELS[method].evaluate(snap, asg, None, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_MAX_ROUNDS", 3)
            q, final, stats = optimize_pv_q(snap, asg, method)
        assert stats["f_start"] == start.objective
        assert final.objective <= start.objective
        assert np.all(q >= snap.q_lo_pu - 1e-12) and np.all(q <= snap.q_hi_pu + 1e-12)

    def test_monotone_across_round_budgets(self, network, demands, monkeypatch):
        snap = build_snapshot(network, demands, 48, pv_q_control=True)
        asg = snap.phases
        monkeypatch.setattr(optimizer, "_MAX_ROUNDS", 1)
        _, one, _ = optimize_pv_q(snap, asg, "fixv")
        monkeypatch.setattr(optimizer, "_MAX_ROUNDS", 2)
        _, two, _ = optimize_pv_q(snap, asg, "fixv")
        assert two.objective <= one.objective + 1e-12


def sequential_minimize_1d(g, lo, hi, t0, f0):
    """`_minimize_1d` pricing one point per golden step, the reference the
    priced-ahead search must reproduce; also returns the golden steps taken."""

    points = np.unique(np.concatenate([np.linspace(lo, hi, optimizer._COARSE), [0.0, t0]]))
    points = points[(points >= lo) & (points <= hi)]
    new = points != t0
    values = np.full(len(points), f0)
    values[new] = g(points[new])
    evals = int(new.sum())
    k = int(np.argmin(values))
    best_t, best_f = float(points[k]), float(values[k])

    a = float(points[max(0, k - 1)])
    b = float(points[min(len(points) - 1, k + 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = (float(f) for f in g(np.array([c, d])))
    evals += 2
    steps = 0
    while evals < optimizer._MAX_EVALS and (b - a) > 1e-10 * max(1.0, hi - lo):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = float(g(np.array([c]))[0])
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = float(g(np.array([d]))[0])
        evals += 1
        steps += 1
    for t, f in ((c, fc), (d, fd)):
        if f < best_f:
            best_t, best_f = float(t), float(f)
    if f0 < best_f:
        best_t, best_f = t0, f0
    return (best_t, best_f, evals), steps


@st.composite
def line_searches(draw):
    """A band, a start in it (often an edge) and an objective along it with
    plateaus and exactly tied values, computed point by point."""

    lo = draw(st.floats(-1.0, 0.5))
    hi = lo + draw(st.floats(1e-7, 1.5))
    t0 = draw(st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)))
    centre = draw(st.floats(lo - 0.2, hi + 0.2))
    flat = draw(st.floats(0.0, hi - lo))  # half-width of the plateau at the bottom
    levels = draw(st.sampled_from([None, 1.0, 7.0, 1e3, 1e6]))  # rounding makes ties
    kind = draw(st.sampled_from(["bowl", "wave", "constant"]))

    def g(t):
        if kind == "constant":
            return np.full(len(t), 0.25)
        if kind == "wave":
            f = np.sin(9.0 * (t - centre)) + np.maximum(np.abs(t - centre) - flat, 0.0)
        else:
            f = np.maximum(np.abs(t - centre) - flat, 0.0) ** 2
        return f if levels is None else np.floor(f * levels) / levels

    f0 = float(g(np.array([t0]))[0]) + draw(st.sampled_from([0.0, -1e-3, 1e-3]))
    return g, lo, hi, t0, f0


class TestMinimize1d:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=line_searches())
    def test_pricing_ahead_steps_as_one_point_per_call(self, case):
        g, lo, hi, t0, f0 = case
        want, steps = sequential_minimize_1d(g, lo, hi, t0, f0)
        calls = []

        def counted(t):
            calls.append(t)
            return g(t)

        got = optimizer._minimize_1d(counted, lo, hi, t0, f0)
        assert np.array(got[:2]).tobytes() == np.array(want[:2]).tobytes()
        assert got[2] == want[2]
        assert len(calls) <= 2 + math.ceil(steps / optimizer._AHEAD)
        assert all(np.all((t >= lo) & (t <= hi)) for t in calls)

    def test_prices_the_golden_steps_in_batches(self):
        # A smooth bowl runs the golden steps until the evaluation budget.
        def g(t):
            return (t - 0.3) ** 2

        want, steps = sequential_minimize_1d(g, -1.0, 1.0, 0.0, 0.09)
        calls = []
        got = optimizer._minimize_1d(lambda t: calls.append(len(t)) or g(t), -1.0, 1.0, 0.0, 0.09)
        assert got == want
        assert steps > 30
        # Coarse scan, golden pair, then 15 points per _AHEAD steps (fewer
        # calls when a later step lands on a point priced from another branch).
        assert calls[:2] == [12, 2]
        assert calls[2:] == [15] * (len(calls) - 2)
        assert len(calls) <= 2 + math.ceil(steps / optimizer._AHEAD)
