"""Two full days' decisions, swept again, match the committed records.

`tests/data/bundled_day_decisions.csv` holds each (period, method) cell's
assignment, fallback flag and model and verified objectives for the full
bundled day with PV-Q off, and `tests/data/pf095_day_decisions.csv` the
same for the reactive-switch variant's day, whose evening has no spread
plateau (`tools/decision_record.py` writes both). The decision runs at
q = 0, so PV-Q-on sweeps choose the same assignments. A change that moves a
decision on purpose rewrites the record and names the moved cells.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from phasebal.cli import SweepConfig, run_sweep

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "decision_record.py"
_spec = importlib.util.spec_from_file_location("decision_record", SCRIPT)
record = sys.modules["decision_record"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)  # registered first: its dataclass looks itself up there


@pytest.fixture(scope="module")
def day(tmp_path_factory):
    out = tmp_path_factory.mktemp("day")
    run_sweep(SweepConfig(periods=(0, 96), parallelism=2, out_dir=str(out)))
    return out


@pytest.fixture(scope="module")
def pf095_day(tmp_path_factory, reactive_switch_scenario):
    out = tmp_path_factory.mktemp("pf095_day")
    config = SweepConfig(scenario=reactive_switch_scenario, periods=(0, 96), parallelism=2, out_dir=str(out))
    run_sweep(config)
    return out


def test_the_bundled_day_decides_as_recorded(day):
    want = record.read()
    assert len(want) == 96 * 5
    assert record.differences(want, record.decisions(day)) == []


def test_the_reactive_switch_day_decides_as_recorded(pf095_day):
    want = record.read(record.RECORD.with_name("pf095_day_decisions.csv"))
    assert len(want) == 96 * 5
    assert record.differences(want, record.decisions(pf095_day)) == []


def test_the_summary_counts_what_the_exact_flow_finds(day):
    # Per method, the cells whose verified state breaks a limit and those
    # verified worse than the initial assignment: the initial assignment
    # breaks the unbalance limit at midday (periods 41-56), lbfm's evening
    # picks break limits, and fixv-mw verifies worse at period 0.
    summary = json.loads((day / "summary.json").read_text())
    assert summary["schema"] == "phasebal.summary.v2"
    counts = {
        method: (stats["violation_cells"], stats["worse_than_initial_cells"])
        for method, stats in summary["methods"].items()
    }
    assert counts == {"fixv-mc": (0, 0), "fixv-mw": (0, 1), "initial": (16, 0), "lbfm": (11, 10), "linv": (0, 0)}


def test_every_edited_assignment_is_named(day):
    want, got = record.read(), record.decisions(day)
    for (period, method), d in want.items():
        digit = str((int(d.assignment[-1]) + 1) % 3)
        edited = {**want, (period, method): replace(d, assignment=d.assignment[:-1] + digit)}
        assert record.differences(edited, got) == [f"period {period} {method}: assignment"]


def test_an_edited_flag_or_objective_is_named(day):
    want, got = record.read(), record.decisions(day)
    d = want[73, "lbfm"]
    edits = {
        "fell_back": replace(d, fell_back=not d.fell_back),
        "model_objective": replace(d, model_objective=d.model_objective * (1 + 2e-9)),
        "verified_objective": replace(d, verified_objective=d.verified_objective * (1 - 2e-9)),
    }
    for name, edit in edits.items():
        assert record.differences({**want, (73, "lbfm"): edit}, got) == [f"period 73 lbfm: {name}"]
    # Objectives within the tolerance match.
    near = replace(d, model_objective=d.model_objective * (1 + 0.5e-9))
    assert record.differences({**want, (73, "lbfm"): near}, got) == []


def test_the_record_round_trips(day, tmp_path):
    path = tmp_path / "record.csv"
    record.write(path, record.decisions(day))
    assert record.read(path) == record.decisions(day)
