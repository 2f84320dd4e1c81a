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
from phasebal.optimizer import _MODELS, _bnb_choices, _exhaustive_choices
from phasebal.powerflow import PhaseAssignment, power_balance_residual, solve_utpf

from test_powerflow import current_imbalance, ohm_gap

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


def test_exact_state(snapshot):
    network = snapshot.network
    asg = PhaseAssignment.initial(network)
    sol = solve_utpf(snapshot, asg)
    assert np.max(np.abs(current_imbalance(network, asg, sol, snapshot.s_pu))) <= 1e-9
    assert ohm_gap(network, sol) <= 1e-12
    assert power_balance_residual(sol, snapshot) <= 1e-8
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
    for row, full in zip(batch.objective, kernel.full_phases(choices)):
        one = evaluate(snapshot, PhaseAssignment(tuple(int(p) for p in full)))
        assert abs(row - one.objective) <= tol * (1 + abs(one.objective))


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
