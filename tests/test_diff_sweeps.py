"""tools/diff_sweeps.py: two sweeps' outcome files compared cell by cell."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from phasebal.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "diff_sweeps.py"


def diff(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)], capture_output=True, text=True
    )


def test_sweeps_match_apart_from_runtime_and_an_edit_is_named(tmp_path):
    for name in ("old", "new"):
        argv = ["sweep", "--periods", "73:74", "--methods", "lbfm", "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
    cell = tmp_path / "new" / "outcome_73_lbfm.json"
    doc = json.loads(cell.read_text())
    doc["runtime_s"] += 1.0
    cell.write_text(json.dumps(doc))
    same = diff(tmp_path / "old", tmp_path / "new")
    assert (same.returncode, same.stdout) == (0, "")

    doc["assignment"] = [(p + 1) % 3 for p in doc["assignment"]]
    cell.write_text(json.dumps(doc))
    edited = diff(tmp_path / "old", tmp_path / "new")
    assert edited.returncode == 1
    assert edited.stdout.splitlines() == ["outcome_73_lbfm.json: assignment (2.0e+00)"]


def test_each_change_is_sized_and_a_changed_shape_named_bare(tmp_path):
    for name in ("old", "new"):
        argv = ["sweep", "--periods", "73:74", "--methods", "lbfm", "--out-dir", str(tmp_path / name)]
        assert main(argv) == 0
    cell = tmp_path / "new" / "outcome_73_lbfm.json"
    doc = json.loads(cell.read_text())
    doc["model"]["objective"] += 1.5e-12  # a number deep in a key
    doc["model"]["slack"]["v_lo"] -= 3e-11
    doc["vm_error"] = doc["vm_error"][:-1]  # a list of another length
    doc["status"] = "failed"  # changed text
    cell.write_text(json.dumps(doc))
    edited = diff(tmp_path / "old", tmp_path / "new")
    assert edited.returncode == 1
    assert edited.stdout.splitlines() == ["outcome_73_lbfm.json: model (3.0e-11), status, vm_error"]


def test_a_directory_without_outcomes_is_refused(tmp_path):
    for name in ("old", "empty"):
        (tmp_path / name).mkdir()
    (tmp_path / "old" / "outcome_73_lbfm.json").write_text("{}")
    refused = diff(tmp_path / "old", tmp_path / "empty")
    assert refused.returncode == 2
    assert "no outcome files" in refused.stderr


def test_a_reader_that_stops_early_leaves_the_exit_code(tmp_path):
    for name, status in (("old", "ok"), ("new", "failed")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "outcome_73_lbfm.json").write_text(json.dumps({"status": status}))
    # A pipe whose reading end is closed before the script writes, as
    # `| head -1` leaves it once it has read its line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed = subprocess.run(
            [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (closed.returncode, closed.stderr) == (1, "")
