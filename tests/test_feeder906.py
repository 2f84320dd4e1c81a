"""The models, the sweep and the exact search on the 906-bus feeder.

The feeder is the one the benchmark generates (`bench/feeder906.py`): the
bundled lines cut into segments, each load on its own service bus and
unloaded side branches, 906 buses in all. The fast tests check the geometry
on random trees; this one checks the full-size feeder at the evening peak.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from phasebal.cli import SweepConfig, load_scenario, run_sweep
from phasebal.formulations import evaluate_fixv, evaluate_lbfm, evaluate_linv
from phasebal.netmodel import build_snapshot, bundled_feeder_dir
from phasebal.formulations import _decode
from phasebal.optimizer import _MODELS, _bnb_choices, _exhaustive_choices
from phasebal.powerflow import PhaseAssignment, power_balance_residual, solve_utpf

from test_formulations import (
    assert_bound_contract,
    assert_bound_moves_no_choice,
    assert_tables_as_complex_products,
    contract_bounds,
    linv_spreads,
    recorded_linv_scores,
    separable_kernel,
)
from test_netmodel import assert_impedances_per_line
from test_powerflow import assert_geometry_as_per_bus, assert_residual_as_line_sum, current_imbalance, ohm_gap

PERIOD = 73


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    path = Path(__file__).resolve().parents[1] / "bench" / "feeder906.py"
    spec = importlib.util.spec_from_file_location("feeder906", path)
    feeder906 = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(feeder906)
    return str(feeder906.write_feeder(tmp_path_factory.mktemp("feeder906"), bundled_feeder_dir()))


@pytest.fixture(scope="module")
def snapshot(scenario):
    network, demands = load_scenario(scenario)
    assert network.n_buses == 906
    return build_snapshot(network, demands, PERIOD)


def test_line_impedances_equal_the_per_line_product(scenario, snapshot):
    assert_impedances_per_line(snapshot.network, scenario)


def test_geometry_equals_the_per_bus_walk(snapshot):
    assert_geometry_as_per_bus(snapshot.network)


@pytest.mark.parametrize("model", ["fixv-flat", "fixv-exact", "lbfm"])
def test_separable_tables_equal_the_complex_products(snapshot, model):
    assert_tables_as_complex_products(*separable_kernel(snapshot, model))


def test_exact_state(snapshot):
    network = snapshot.network
    asg = PhaseAssignment.initial(network)
    sol = solve_utpf(snapshot, asg)
    assert np.max(np.abs(current_imbalance(network, asg, sol, snapshot.s_pu))) <= 1e-9
    assert ohm_gap(network, sol) <= 1e-12
    assert power_balance_residual(sol, snapshot) <= 1e-8
    assert_residual_as_line_sum(network, sol, snapshot)
    assert solve_utpf(snapshot, asg).iterations == sol.iterations


@pytest.mark.parametrize(
    "method, evaluate",
    [("fixv", evaluate_fixv), ("lbfm", evaluate_lbfm), ("linv", evaluate_linv)],
)
def test_batch_matches_scalar(snapshot, method, evaluate):
    kernel = _MODELS[method].kernel(snapshot)
    choices = np.random.default_rng(906).integers(0, 3, size=(32, kernel.n_movable))
    batch = kernel.score(choices)
    tol = 1e-10 if method == "linv" else 1e-9
    for row, full in zip(batch, kernel.full_phases(choices)):
        one = evaluate(snapshot, PhaseAssignment(tuple(int(p) for p in full)))
        assert abs(row - one.objective) <= tol * (1 + abs(one.objective))


def test_linv_bound_keeps_the_priced_rows_bits(snapshot, monkeypatch):
    # Random blocks and every neighbourhood local search scores: the rows
    # whose pi is below the bound keep their bits, the others come back +inf.
    kernel = _MODELS["linv"].kernel(snapshot)
    mm = kernel.n_movable
    rng = np.random.default_rng(906)
    blocks = [_decode(rng.choice(3**mm, size=b, replace=False), mm) for b in (2, 40, kernel.chunk)]
    for choices in blocks:
        priced = assert_bound_contract(kernel, choices, contract_bounds(linv_spreads(kernel, choices)))
        assert priced == [0, 1, len(choices)]
    _, calls = recorded_linv_scores(snapshot, monkeypatch)
    for kernel, choices, bound in calls:
        assert_bound_contract(kernel, choices, [bound, *contract_bounds(linv_spreads(kernel, choices))])
    assert_bound_moves_no_choice(snapshot, monkeypatch)


def test_sweep_decides_every_method(scenario, tmp_path):
    config = SweepConfig(
        scenario=scenario, periods=(PERIOD, PERIOD + 1), out_dir=str(tmp_path), parallelism=1
    )
    report = run_sweep(config)
    assert report.summary["failures"] == 0
    assert sorted(r["method"] for r in report.rows) == sorted(config.methods)


@pytest.mark.slow
def test_bound_ordered_scan_equals_exhaustive(snapshot):
    kernel = _MODELS["lbfm"].kernel(snapshot)
    full, full_count, _ = _exhaustive_choices(kernel)
    pruned, pruned_count, stats = _bnb_choices(kernel)
    assert np.array_equal(pruned, full)
    assert pruned_count == full_count == 3**kernel.n_movable
    assert stats["scored"] <= pruned_count
