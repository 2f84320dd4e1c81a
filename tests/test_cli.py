"""The command line end to end: sweep, verify, evaluate and optimize."""

from __future__ import annotations

import concurrent.futures
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from phasebal import cli, formulations, optimizer
from phasebal.cli import SweepConfig, main, run_sweep
from phasebal.formulations import evaluate_exact, evaluate_fixv, evaluate_lbfm, evaluate_linv
from phasebal.netmodel import DEFAULT_SCENARIO, build_snapshot
from phasebal.powerflow import PhaseAssignment

# Evening peak: every optimizing method moves customers, and lbfm's choice
# verifies worse than the initial assignment.
PERIOD = 73
REPORTS = (
    "sweep.csv",
    "summary.json",
    "accuracy.csv",
    "accuracy_cdf.csv",
    "plot_pi.csv",
    "plot_vm.csv",
    "plot_vub.csv",
)


@pytest.fixture(scope="module")
def counted_sweep(tmp_path_factory):
    """One-period sweep of every method through `main`, in this process,
    counting the exact power-flow solves each cell makes."""

    out = tmp_path_factory.mktemp("sweep")
    solves: Counter[str] = Counter()
    cell = {}
    solve = formulations.solve_utpf
    run_cell = cli._run_cell

    def counting_solve(*args, **kwargs):
        solves[cell["method"]] += 1
        return solve(*args, **kwargs)

    def tracking_run_cell(spec):
        cell["method"] = spec.method
        return run_cell(spec)

    with pytest.MonkeyPatch.context() as mp:
        for module in (cli, optimizer, formulations):
            mp.setattr(module, "solve_utpf", counting_solve)
        mp.setattr(cli, "_run_cell", tracking_run_cell)
        code = main(
            [
                "sweep", "--periods", f"{PERIOD}:{PERIOD + 1}", "--parallelism", "1",
                "--pv-control", "off", "--out-dir", str(out),
            ]
        )
    assert code == 0
    return out, solves


def test_exact_solves_once_per_reported_state(counted_sweep):
    # A cell reports at most two exact states, chosen and initial; the warm
    # iterated method also solves the initial state for its start profile.
    _, solves = counted_sweep
    most = {"initial": 1, "fixv-mc": 2, "fixv-mw": 3, "linv": 2, "lbfm": 2}
    assert set(solves) == set(most)
    for method, limit in most.items():
        assert 1 <= solves[method] <= limit, (method, solves[method])


def test_reported_states_match_a_fresh_solve(counted_sweep, network, demands):
    out, _ = counted_sweep
    snap = build_snapshot(network, demands, PERIOD)
    initial = evaluate_exact(snap, PhaseAssignment.initial(network))
    for path in sorted(out.glob("outcome_*.json")):
        doc = json.loads(path.read_text())
        assert doc["status"] == "ok", doc["error"]
        chosen = evaluate_exact(snap, PhaseAssignment(tuple(doc["assignment"])))
        for key, exact in (("verified", chosen), ("initial_verified", initial)):
            view = doc[key]
            assert view["objective"] == exact.objective
            assert view["pi"] == exact.pi
            assert view["iterations"] == exact.meta["iterations"]
            assert view["mismatch"] == exact.meta["mismatch"]
            assert view["balance_residual"] == exact.meta["balance_residual"]


def test_verify_regenerates_reports_byte_identically(counted_sweep):
    out, _ = counted_sweep
    before = {name: (out / name).read_bytes() for name in REPORTS}
    for name in REPORTS:
        (out / name).unlink()
    assert main(["verify", "--out-dir", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in REPORTS} == before


def test_sweep_workers_capped_by_cells(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one cell needs no worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = SweepConfig(
        methods=("initial",), periods=(0, 1), out_dir=str(tmp_path), parallelism=8
    )
    assert run_sweep(config).failures == 0


@pytest.mark.parametrize(
    "method, evaluate",
    [
        ("utpf", evaluate_exact),
        ("fixv", evaluate_fixv),
        ("linv", evaluate_linv),
        ("lbfm", evaluate_lbfm),
    ],
)
def test_evaluate_writes_the_model_view(method, evaluate, tmp_path, network, demands):
    assert main(
        ["evaluate", "--period", "40", "--method", method, "--out-dir", str(tmp_path)]
    ) == 0
    view = json.loads((tmp_path / f"evaluation_40_{method}.json").read_text())
    expect = evaluate(build_snapshot(network, demands, 40), PhaseAssignment.initial(network))
    assert view["method"] == method
    assert view["objective"] == expect.objective
    assert view["pi"] == expect.pi
    assert view["slack_total"] == expect.slacks.total()


@pytest.mark.parametrize("method", ["fixv-mw", "lbfm"])
def test_optimize_with_pv_q_reports_the_tuned_state(method, tmp_path, network, demands):
    assert main(
        [
            "optimize", "--period", str(PERIOD), "--method", method,
            "--pv-q", "on", "--out-dir", str(tmp_path),
        ]
    ) == 0
    doc = json.loads((tmp_path / f"outcome_{PERIOD}_{method}.json").read_text())
    pv = doc["pv"]
    assert pv is not None
    assert pv["f_after"] <= pv["f_before"]
    assert doc["model"]["objective"] == pv["f_after"]

    snap = build_snapshot(
        network, demands, PERIOD, replace(DEFAULT_SCENARIO, pv_q_control=True)
    )
    q = np.asarray(doc["q_adjust"])
    assert np.all(q >= snap.q_lo_pu - 1e-12) and np.all(q <= snap.q_hi_pu + 1e-12)
    assert np.any(q != 0.0)
    tuned = evaluate_exact(snap, PhaseAssignment(tuple(doc["assignment"])), q_adjust=q)
    assert doc["verified"]["objective"] == tuned.objective
    assert doc["verified"]["balance_residual"] == tuned.meta["balance_residual"]
    initial = evaluate_exact(snap, PhaseAssignment.initial(network))
    assert doc["initial_verified"]["objective"] == initial.objective
