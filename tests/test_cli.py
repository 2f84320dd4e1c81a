"""The command line end to end: sweep, verify, evaluate and import."""

from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasebal import cli, formulations, optimizer
from phasebal.cli import SweepConfig, main, run_sweep
from phasebal.formulations import evaluate_exact, evaluate_fixv, evaluate_lbfm, evaluate_linv
from phasebal.netmodel import DEFAULT_SCENARIO, build_snapshot, bundled_feeder_dir, read_network_json
from phasebal.powerflow import PhaseAssignment

# Evening peak: every optimizing method moves customers, and lbfm's choice
# verifies worse than the initial assignment.
PERIOD = 73
REPORTS = ("sweep.csv", "summary.json", "accuracy_cdf.csv")


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
    # Every optimizing method moves customers at this period, so its cell
    # reports two exact states, chosen and initial; the warm iterated method
    # reuses its start profile's solve as the initial state's.
    _, solves = counted_sweep
    assert dict(solves) == {"initial": 1, "fixv-mc": 2, "fixv-mw": 2, "linv": 2, "lbfm": 2}


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


@pytest.mark.parametrize("method", ["fixv-mc", "fixv-mw"])
def test_iterated_outcomes_count_the_field_scored_candidates(counted_sweep, method):
    out, _ = counted_sweep
    doc = json.loads(cli.outcome_path(out, PERIOD, method).read_text())
    assert doc["strategy"].startswith("algorithm1")
    assert 0 < doc["stats"]["scored"] <= doc["candidates"]


def test_verify_regenerates_reports_byte_identically(counted_sweep):
    out, _ = counted_sweep
    before = {name: (out / name).read_bytes() for name in REPORTS}
    for name in REPORTS:
        (out / name).unlink()
    assert main(["verify", "--out-dir", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in REPORTS} == before


def test_package_runs_as_a_module_without_warnings():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "phasebal", "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: phasebal")


def test_sweep_workers_capped_by_cells(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one cell needs no worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = SweepConfig(
        methods=("initial",), periods=(0, 1), out_dir=str(tmp_path), parallelism=8
    )
    assert run_sweep(config).failures == 0


def test_sweep_refuses_a_directory_holding_other_cells(tmp_path):
    first = SweepConfig(methods=("initial",), periods=(0, 2), out_dir=str(tmp_path), parallelism=1)
    run_sweep(first)
    before = sorted(p.name for p in tmp_path.glob("outcome_*.json"))
    assert before == ["outcome_0_initial.json", "outcome_1_initial.json"]
    with pytest.raises(ValueError, match="outcome_0_initial.json, outcome_1_initial.json"):
        run_sweep(replace(first, periods=(5, 6)))
    assert sorted(p.name for p in tmp_path.glob("outcome_*.json")) == before


def test_sweep_reruns_into_its_own_directory(tmp_path):
    config = SweepConfig(methods=("initial",), periods=(0, 2), out_dir=str(tmp_path), parallelism=1)
    first = run_sweep(config)
    again = run_sweep(config)
    assert len(again.rows) == 2 and again.summary["period_count"] == 2
    assert [r["pi_after"] for r in again.rows] == [r["pi_after"] for r in first.rows]


@pytest.mark.parametrize("periods", ["5", "5:x", "1:2:3", "5:3", "4:4"])
def test_sweep_rejects_a_malformed_period_range(periods, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--periods", periods, "--out-dir", str(tmp_path)])
    assert info.value.code == 2
    assert (
        "argument --periods: expected start:stop with integer bounds "
        f"0 <= start < stop, got {periods!r}"
    ) in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--periods", "90:100"], "periods (90, 100) exceed the 96-period profile"),
        (["--methods", "foo"], "unknown methods ['foo']"),
        (["--methods", "initial,initial"], "methods must not repeat, got ['initial', 'initial']"),
        (["--parallelism", "0"], "parallelism must be at least 1"),
        (["--scenario", "no-feeder"], "missing feeder table: Source.csv"),
    ],
    ids=["past-profile", "unknown-method", "repeated-method", "no-workers", "no-feeder"],
)
def test_sweep_rejects_invalid_settings(flags, message, tmp_path, monkeypatch, capsys):
    # Refused before any cell runs: a usage error, and nothing written.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--periods", "0:1", "--out-dir", "out", *flags])
    assert info.value.code == 2
    assert f"phasebal sweep: error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_import_writes_the_normalized_network(tmp_path, capsys, network):
    assert main(["import", str(bundled_feeder_dir()), "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "imported 54 buses, 53 lines, 55 customers, 96 periods (max depth 18)"
    )
    written = read_network_json(tmp_path / "network.json")
    assert written.buses == network.buses
    assert [(l.name, l.from_bus, l.to_bus) for l in written.lines] == [
        (l.name, l.from_bus, l.to_bus) for l in network.lines
    ]
    assert all(np.array_equal(a.z_pu, b.z_pu) for a, b in zip(written.lines, network.lines))
    assert written.customers == network.customers
    customers = json.loads((tmp_path / "network.json").read_text())["customers"]
    assert {frozenset(c) for c in customers} == {frozenset({"id", "name", "bus", "phase"})}


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


@pytest.mark.parametrize("method", ["fixv-mw", "linv", "lbfm"])
def test_optimize_with_pv_q_reports_the_tuned_state(method, tmp_path, network, demands):
    assert main(
        [
            "sweep", "--periods", f"{PERIOD}:{PERIOD + 1}", "--methods", method,
            "--pv-control", "on", "--parallelism", "1", "--out-dir", str(tmp_path),
        ]
    ) == 0
    doc = json.loads(cli.outcome_path(tmp_path, PERIOD, method).read_text())
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
