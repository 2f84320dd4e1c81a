"""The command line end to end: sweep, verify and evaluate."""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasebal import cli, formulations, optimizer
from phasebal.cli import SweepConfig, main, run_sweep
from phasebal.formulations import _FixvKernel, evaluate_exact, evaluate_fixv, evaluate_lbfm, evaluate_linv
from phasebal.netmodel import PHASE_POWER_BASE_VA, SWITCH_CUSTOMERS, build_snapshot, bundled_feeder_dir

from test_optimizer import with_switches

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
    initial = evaluate_exact(snap, snap.phases)
    for path in sorted(out.glob("outcome_*.json")):
        doc = json.loads(path.read_text())
        assert doc["status"] == "ok", doc["error"]
        chosen = evaluate_exact(snap, doc["assignment"])
        for key, exact in (("verified", chosen), ("initial_verified", initial)):
            view = doc[key]
            assert view["objective"] == exact.objective
            assert view["pi"] == exact.pi
            assert view["iterations"] == exact.meta["iterations"]
            assert view["mismatch"] == exact.meta["mismatch"]
            assert view["balance_residual"] == exact.meta["balance_residual"]


def test_linv_outcome_counts_the_neighbours_priced_in_full(counted_sweep):
    # candidates counts every start and neighbour; scored only those whose
    # spread could beat the incumbent, the starts included.
    out, _ = counted_sweep
    doc = json.loads(cli.outcome_path(out, PERIOD, "linv").read_text())
    assert doc["strategy"] == "local"
    assert 0 < doc["stats"]["scored"] < doc["candidates"]


@pytest.mark.parametrize("method", ["fixv-mc", "fixv-mw"])
def test_iterated_outcomes_count_the_field_scored_candidates(counted_sweep, method):
    out, _ = counted_sweep
    doc = json.loads(cli.outcome_path(out, PERIOD, method).read_text())
    assert doc["strategy"].startswith("algorithm1")
    assert 0 < doc["stats"]["scored"] <= doc["candidates"]
    # One trace step per Algorithm 1 pass; the last pass's choice is the outcome's.
    passes = {"fixv-mc": 2, "fixv-mw": 1}[method]
    assert len(doc["trace"]) == doc["stats"]["outer"] == passes
    assert [step["outer"] for step in doc["trace"]] == list(range(1, passes + 1))
    assert doc["trace"][-1]["phases"] == doc["assignment"]
    assert doc["trace"][-1]["delta_v"] == doc["stats"]["delta_v"]


def test_verify_regenerates_reports_byte_identically(counted_sweep):
    out, _ = counted_sweep
    before = {name: (out / name).read_bytes() for name in REPORTS}
    for name in REPORTS:
        (out / name).unlink()
    assert main(["verify", "--out-dir", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in REPORTS} == before


def test_verify_refuses_an_older_outcome_schema(counted_sweep, tmp_path, capsys):
    # And a damaged outcome file: cut short, without a key the reports read,
    # or with no vm_error to take quantiles of.
    out, _ = counted_sweep
    name = f"outcome_{PERIOD}_initial.json"
    text = (out / name).read_text()
    doc = json.loads(text)
    no_vm_error = {**doc, "vm_error": []}
    del doc["method"]
    cases = {
        "older": (text.replace(cli.OUTCOME_SCHEMA, "phasebal.outcome.v2"),
                  "unexpected schema 'phasebal.outcome.v2'"),
        "truncated": (text[: len(text) // 2], "not JSON: "),
        "no-method": (json.dumps(doc), "missing key 'method'"),
        "empty-vm-error": (json.dumps(no_vm_error), f"malformed outcome: outcome {PERIOD}/initial: vm_error is not"),
    }
    for case, (damaged, message) in cases.items():
        (tmp_path / case).mkdir()
        (tmp_path / case / name).write_text(damaged)
        with pytest.raises(SystemExit) as info:
            main(["verify", "--out-dir", str(tmp_path / case)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith(f"phasebal verify: error: {name}: {message}"), case
        assert "Traceback" not in err
        assert [p.name for p in (tmp_path / case).iterdir()] == [name]


def test_verify_refuses_an_outcome_file_named_for_another_cell(counted_sweep, tmp_path, capsys):
    # A copy saved under another period's name would be reported twice.
    out, _ = counted_sweep
    copied = tmp_path / "copied"
    copied.mkdir()
    for path in out.glob("outcome_*.json"):
        (copied / path.name).write_bytes(path.read_bytes())
    name = f"outcome_{PERIOD + 1}_lbfm.json"
    (copied / name).write_bytes(cli.outcome_path(out, PERIOD, "lbfm").read_bytes())
    with pytest.raises(SystemExit) as info:
        main(["verify", "--out-dir", str(copied)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"phasebal verify: error: {name}: holds the outcome of outcome_{PERIOD}_lbfm.json"
    )
    assert "Traceback" not in err
    assert not any(copied.glob("*.csv")) and not (copied / "summary.json").exists()


def test_initial_cell_reports_its_one_exact_solve(tmp_path, network, demands):
    # PV-Q is on, and the initial cell still keeps the untuned state.
    assert main(
        [
            "sweep", "--periods", f"{PERIOD}:{PERIOD + 1}", "--methods", "initial",
            "--pv-control", "on", "--parallelism", "1", "--out-dir", str(tmp_path),
        ]
    ) == 0
    doc = json.loads(cli.outcome_path(tmp_path, PERIOD, "initial").read_text())
    assert (doc["strategy"], doc["candidates"], doc["moves"]) == ("none", 1, 0)
    assert doc["pv"] is None and doc["q_adjust"] is None
    assert doc["trace"] == [] and doc["stats"] == {}
    snap = build_snapshot(network, demands, PERIOD, pv_q_control=True)
    exact = evaluate_exact(snap, snap.phases)
    for key in ("model", "initial_model", "verified", "initial_verified"):
        assert doc[key]["objective"] == exact.objective
        # Only the verified views carry the solve's diagnostics.
        assert ("iterations" in doc[key]) == key.endswith("verified")
    assert doc["vm_error"] == [0.0] * 3 * network.n_buses


def test_search_follows_the_kernel_beyond_the_budget(network, demands, monkeypatch):
    # 3^13 candidates exceed the budget. lbfm's kernel is separable, so its
    # cell runs the scan, which refuses before any candidate is scored;
    # linv's is not, so its cell still runs local search from the initial
    # assignment and three restarts.
    snap = with_switches(build_snapshot(network, demands, 73), SWITCH_CUSTOMERS + (11, 14, 41))
    initial = evaluate_exact(snap, snap.phases)
    monkeypatch.setattr(_FixvKernel, "score", None)
    monkeypatch.setitem(cli._CTX, "seed", SweepConfig.seed)
    with pytest.raises(ValueError, match="3\\^13 = 1594323 candidates exceed the enumeration budget"):
        cli._optimize_cell(snap, cli.CellSpec(73, "lbfm"), initial)
    out = cli._optimize_cell(snap, cli.CellSpec(73, "linv"), initial)
    assert out.strategy == "local"
    assert out.stats["starts"] == 4.0
    assert out.model.objective <= out.initial_model.objective


def _package_env(**extra: str) -> dict[str, str]:
    """The environment with this checkout's package first on PYTHONPATH."""

    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_package_runs_as_a_module_without_warnings():
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "phasebal", "--help"],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""
    assert done.stdout.startswith("usage: phasebal")


# Reads numpy's OpenBLAS thread count; exits 3 when the library exposes no getter.
BLAS_THREADS = """
import ctypes, sys
from pathlib import Path
import numpy as np

def threads():
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    sys.exit(3)
"""


def _blas_probe(script: str) -> list[str]:
    """What script prints after BLAS_THREADS, run in a process that starts
    OpenBLAS with two threads; skips when the thread count cannot be read."""

    done = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS + script], capture_output=True, text=True,
        timeout=120, env=_package_env(OPENBLAS_NUM_THREADS="2"),
    )
    if done.returncode == 3:
        pytest.skip("numpy's OpenBLAS exposes no thread-count getter")
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_sweep_workers_run_one_blas_thread():
    # The worker setup leaves OpenBLAS one thread.
    probe = """
from phasebal import cli
before = threads()
cli._worker_init(cli.SweepConfig())
print(before, threads())
"""
    assert _blas_probe(probe) == ["2", "1"]


def test_in_process_sweep_cells_run_one_blas_thread(tmp_path):
    # `phasebal sweep --parallelism 1` runs its cells under one BLAS thread;
    # `run_sweep` called as a library leaves its caller's threads alone.
    probe = f"""
import contextlib, io
from phasebal import cli
seen, run_cell = [], cli._run_cell
def counting_cell(spec):
    seen.append(threads())
    return run_cell(spec)
cli._run_cell = counting_cell
config = cli.SweepConfig(methods=("initial",), periods=(0, 1), out_dir={str(tmp_path / "lib")!r})
cli.run_sweep(config)
argv = ["sweep", "--periods", "0:1", "--methods", "initial", "--parallelism", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv + ["--out-dir", {str(tmp_path / "cli")!r}])
print(*seen, code)
"""
    assert _blas_probe(probe) == ["2", "1", "0"]


def _assert_blas_threads_change_no_outcome(tmp_path, parallelism: str) -> None:
    for threads in ("2", "1"):
        argv = ["sweep", "--periods", "72:74", "--parallelism", parallelism]
        done = subprocess.run(
            [sys.executable, "-m", "phasebal", *argv, "--out-dir", str(tmp_path / threads)],
            capture_output=True, text=True, timeout=300,
            env=_package_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert done.returncode == 0, done.stderr
    script = Path(__file__).resolve().parents[1] / "tools" / "diff_sweeps.py"
    diff = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "2"), str(tmp_path / "1")],
        capture_output=True, text=True, timeout=120,
    )
    assert (diff.returncode, diff.stdout) == (0, "")


def test_sweep_outcomes_do_not_depend_on_the_blas_threads(tmp_path):
    _assert_blas_threads_change_no_outcome(tmp_path, parallelism="2")


def test_in_process_sweep_outcomes_do_not_depend_on_the_blas_threads(tmp_path):
    _assert_blas_threads_change_no_outcome(tmp_path, parallelism="1")


@pytest.mark.parametrize("period", [48, 73])
def test_reactive_switch_day_sweeps_every_method(reactive_switch_scenario, tmp_path, period):
    # The switchable customers draw reactive power, so their phase choice
    # moves the reactive spread too and the max(P, Q) kink can bind. With
    # PV-Q on, each cell keeps its assignment and verifies no worse than
    # its untuned state.
    docs = {}
    for pv_control in (False, True):
        config = SweepConfig(
            scenario=reactive_switch_scenario, periods=(period, period + 1),
            out_dir=str(tmp_path / str(pv_control)), parallelism=1, pv_control=pv_control,
        )
        report = run_sweep(config)
        assert report.summary["failures"] == 0
        assert sorted(r["method"] for r in report.rows) == sorted(config.methods)
        docs[pv_control] = {d["method"]: d for d in cli.load_outcomes(config.out_dir)}
    off, on = docs[False], docs[True]
    assert any(doc["pv"] is not None and doc["pv"]["kept"] for doc in on.values())
    for method, doc in on.items():
        assert doc["assignment"] == off[method]["assignment"], method
        assert doc["verified"]["objective"] <= off[method]["verified"]["objective"], method


def test_sweep_workers_capped_by_cells(tmp_path, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("one cell needs no worker processes")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    config = SweepConfig(
        methods=("initial",), periods=(0, 1), out_dir=str(tmp_path), parallelism=8
    )
    assert run_sweep(config).summary["failures"] == 0


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
        (["--seed", "-8"], "seed must be non-negative, got -8"),
        (
            ["--scenario", "SHORT-LOADS"],
            "the feeder has no customer 53, a case-study PV or switch customer",
        ),
    ],
    ids=["past-profile", "unknown-method", "repeated-method", "no-workers", "no-feeder", "negative-seed",
         "no-switch-customer"],
)
def test_sweep_rejects_invalid_settings(flags, message, tmp_path, monkeypatch, capsys, broken_feeders):
    # Refused before any cell runs: a usage error, and nothing written.
    monkeypatch.chdir(tmp_path)
    flags = [str(broken_feeders.get(f, f)) for f in flags]
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--periods", "0:1", "--out-dir", "out", *flags])
    assert info.value.code == 2
    assert f"phasebal sweep: error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["evaluate", "--period", "200", "--method", "fixv"],
            "phasebal evaluate: error: period 200 outside series of 96",
        ),
        (
            ["evaluate", "--period", "-1", "--method", "utpf"],
            "phasebal evaluate: error: period -1 outside series of 96",
        ),
        (
            ["evaluate", "--period", "3", "--method", "linv", "--scenario", "no-feeder"],
            "phasebal evaluate: error: missing feeder table: Source.csv",
        ),
        (["pf", "--period", "96"], "phasebal pf: error: period 96 outside series of 96"),
        (
            ["pf", "--period", "3", "--scenario", "no-feeder"],
            "phasebal pf: error: missing feeder table: Source.csv",
        ),
        (
            ["pf", "--period", "3", "--scenario", "NO-LENGTHS"],
            "phasebal pf: error: Lines.csv record 1: no Length_m value",
        ),
        (
            ["evaluate", "--period", "73", "--method", "fixv", "--scenario", "NAN-RATING"],
            "phasebal evaluate: error: Source.csv record 4: invalid value 'nan'",
        ),
        (
            ["pf", "--period", "3", "--scenario", "ZERO-VOLTAGE"],
            "phasebal pf: error: Source.csv record 2: invalid value '0'",
        ),
        (
            ["pf", "--period", "73", "--scenario", "NEGATIVE-LENGTH"],
            "phasebal pf: error: Lines.csv record 4: invalid Length_m '-55.0'",
        ),
        (["verify"], "phasebal verify: error: no outcome files under out"),
    ],
    ids=["evaluate-period", "evaluate-negative", "evaluate-no-feeder", "pf-period", "pf-no-feeder",
         "pf-malformed-feeder", "evaluate-non-finite-feeder", "pf-zero-voltage", "pf-negative-length",
         "verify-empty"],
)
def test_bad_input_is_a_usage_error(argv, message, tmp_path, monkeypatch, capsys, broken_feeders):
    monkeypatch.chdir(tmp_path)
    argv = [str(broken_feeders.get(a, a)) for a in argv]
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out-dir", "out"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == message
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("out_dir", ["out", "out/sub"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--periods", "0:1", "--methods", "initial"],
        ["pf", "--period", "3"],
        ["evaluate", "--period", "3", "--method", "utpf"],
    ],
    ids=["sweep", "pf", "evaluate"],
)
def test_out_dir_at_a_file_is_a_usage_error(argv, out_dir, tmp_path, monkeypatch, capsys):
    # Refused before the feeder is loaded; the file is left as it was.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").write_text("keep\n")
    monkeypatch.setattr(cli, "load_scenario", None)  # any load would raise TypeError
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out-dir", out_dir])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"phasebal {argv[0]}: error: --out-dir {out_dir}: out is not a directory"
    )
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (tmp_path / "out").read_text() == "keep\n"


@pytest.fixture(scope="module")
def broken_feeders(tmp_path_factory):
    """Copies of the bundled feeder: NO-LENGTHS has the Length_m column cut
    from Lines.csv, NEGATIVE-LENGTH line T4 -55.0 m long, NAN-RATING reads
    dt_kva,nan and ZERO-VOLTAGE pu,0 in Source.csv, SHORT-LOADS keeps the first 51 records of Loads.csv, and
    HEAVY-LOADS draws 40 times every load's kW."""

    def rewrite(name, table, transform):
        target = tmp_path_factory.mktemp("feeder") / name
        shutil.copytree(bundled_feeder_dir(), target)
        with (target / table).open(newline="") as fh:
            rows = list(csv.reader(fh))
        (target / table).write_text("".join(",".join(r) + "\n" for r in transform(rows)))
        return target

    def drop_lengths(rows):
        drop = rows[0].index("Length_m")
        return [r[:drop] + r[drop + 1:] for r in rows]

    def negative_length(rows):
        length = rows[0].index("Length_m")
        return [r[:length] + ["-55.0"] + r[length + 1:] if r[0] == "T4" else r for r in rows]

    def nan_rating(rows):
        return [["dt_kva", "nan"] if r[0] == "dt_kva" else r for r in rows]

    def zero_voltage(rows):
        return [["pu", "0"] if r[0] == "pu" else r for r in rows]

    def heavy_loads(rows):
        kw = rows[0].index("kW")
        return [rows[0]] + [r[:kw] + [repr(40 * float(r[kw]))] + r[kw + 1:] for r in rows[1:]]

    return {
        "NO-LENGTHS": rewrite("no-lengths", "Lines.csv", drop_lengths),
        "NEGATIVE-LENGTH": rewrite("negative-length", "Lines.csv", negative_length),
        "NAN-RATING": rewrite("nan-rating", "Source.csv", nan_rating),
        "ZERO-VOLTAGE": rewrite("zero-voltage", "Source.csv", zero_voltage),
        "SHORT-LOADS": rewrite("short-loads", "Loads.csv", lambda rows: rows[:52]),
        "HEAVY-LOADS": rewrite("heavy-loads", "Loads.csv", heavy_loads),
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pf"], "phasebal pf: period 73: VoltageCollapseError: voltage magnitude below 0.5 p.u."),
        (
            ["evaluate", "--method", "utpf"],
            "phasebal evaluate: period 73: VoltageCollapseError: voltage magnitude below 0.5 p.u.",
        ),
        (
            ["evaluate", "--method", "linv"],
            "phasebal evaluate: period 73: FormulationError: voltage fixed point did not contract",
        ),
    ],
    ids=["pf", "evaluate-utpf", "evaluate-linv"],
)
def test_a_failed_solve_is_one_line_and_exit_1(argv, message, tmp_path, monkeypatch, capsys, broken_feeders):
    # As a failed sweep cell: exit status 1, no traceback, nothing written.
    monkeypatch.chdir(tmp_path)
    scenario = ["--scenario", str(broken_feeders["HEAVY-LOADS"])]
    assert main([*argv, "--period", str(PERIOD), *scenario, "--out-dir", "out"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(message)
    assert not any(tmp_path.iterdir())


def test_a_method_without_a_verified_cell_summarizes_as_n_a(tmp_path, capsys, broken_feeders):
    # The exact flow collapses under 40 times the loads, so the one cell fails.
    argv = ["sweep", "--scenario", str(broken_feeders["HEAVY-LOADS"]), "--methods", "initial"]
    assert main([*argv, "--periods", "73:74", "--parallelism", "1", "--out-dir", str(tmp_path)]) == 1
    stats = json.loads((tmp_path / "summary.json").read_text())["methods"]["initial"]
    verified = ("verified_reduction_pct", "max_verified_vneg", "mean_model_gap")
    assert (stats["failures"], *(stats[key] for key in verified)) == (1, None, None, None)
    assert (
        "  initial: 1 rows, 1 failures, pi reduction n/a, 0 violation cells, 0 worse than initial, "
        "verified F reduction n/a, max verified vneg n/a, mean model gap n/a"
    ) in capsys.readouterr().out.splitlines()


def test_pf_writes_plain_numbers(tmp_path, network, demands):
    assert main(["pf", "--period", str(PERIOD), "--out-dir", str(tmp_path)]) == 0
    with (tmp_path / f"pf_{PERIOD}.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * (network.n_buses + 1)
    for row in rows:
        for key in ("vm_pu", "va_rad", "p_kw", "q_kvar"):
            float(row[key])  # a numpy repr such as np.float64(1.2) does not parse
    bus_kw = sum(float(row["p_kw"]) for row in rows if row["bus_id"] != "DT")
    load_kw = build_snapshot(network, demands, PERIOD).p_pu.sum() * PHASE_POWER_BASE_VA / 1e3
    assert bus_kw == pytest.approx(load_kw, rel=1e-12)


def test_in_process_sweep_imports_the_feeder_once(tmp_path, monkeypatch):
    imports = []
    load_scenario = cli.load_scenario

    def counting_load(spec):
        imports.append(spec)
        return load_scenario(spec)

    monkeypatch.setattr(cli, "load_scenario", counting_load)
    config = SweepConfig(methods=("initial",), periods=(0, 2), out_dir=str(tmp_path), parallelism=1)
    assert run_sweep(config).summary["failures"] == 0
    assert imports == ["bundled"]
    assert not cli._CTX  # and holds it no longer than the sweep


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
    snap = build_snapshot(network, demands, 40)
    expect = evaluate(snap, snap.phases)
    assert view["method"] == method
    assert view["objective"] == expect.objective
    assert view["pi"] == expect.pi
    assert view["slack_total"] == sum(expect.slack.values())


@pytest.fixture(scope="module")
def pvq_cells(tmp_path_factory):
    """Periods 43, 48 and 73 swept by every optimizing method through
    `main`, with PV-Q on and off: each setting's outcomes by (period, method)."""

    cells: dict[str, dict[tuple[int, str], dict]] = {"on": {}, "off": {}}
    for setting, docs in cells.items():
        for period in (43, 48, PERIOD):
            out = tmp_path_factory.mktemp(f"pvq_{setting}")
            assert main(
                [
                    "sweep", "--periods", f"{period}:{period + 1}", "--methods", "fixv-mc,fixv-mw,linv,lbfm",
                    "--pv-control", setting, "--parallelism", "1", "--out-dir", str(out),
                ]
            ) == 0
            docs.update({(d["period"], d["method"]): d for d in cli.load_outcomes(out)})
    return cells


def test_pv_q_never_verifies_worse_than_its_untuned_state(pvq_cells):
    on, off = pvq_cells["on"], pvq_cells["off"]
    assert len(on) == 12 and on.keys() == off.keys()
    for cell, doc in on.items():
        assert doc["assignment"] == off[cell]["assignment"]
        assert doc["verified"]["objective"] <= off[cell]["verified"]["objective"], cell


@pytest.mark.parametrize("method", ["fixv-mw", "linv", "lbfm"])
def test_optimize_with_pv_q_reports_the_tuned_state(method, pvq_cells, network, demands):
    # The tuned q is kept only when the exact power flow ranks it no worse
    # than q = 0. At this period linv keeps it, while fixv-mw and lbfm revert
    # and report what their PV-Q-off cells report.
    doc, off = pvq_cells["on"][PERIOD, method], pvq_cells["off"][PERIOD, method]
    pv = doc["pv"]
    assert pv["f_after"] <= pv["f_before"]

    snap = build_snapshot(network, demands, PERIOD, pv_q_control=True)
    q = np.asarray(pv["q"])
    assert np.all(q >= snap.q_lo_pu - 1e-12) and np.all(q <= snap.q_hi_pu + 1e-12)
    assert np.any(q != 0.0)
    chosen = doc["assignment"]
    tuned = evaluate_exact(snap, chosen, q_adjust=q)
    assert pv["kept"] == (tuned.objective <= evaluate_exact(snap, chosen).objective)
    assert pv["kept"] == (method == "linv")
    if pv["kept"]:
        assert doc["q_adjust"] == pv["q"]
        assert doc["model"]["objective"] == pv["f_after"]
        assert doc["verified"]["objective"] == tuned.objective
        assert doc["verified"]["balance_residual"] == tuned.meta["balance_residual"]
    else:
        assert doc["q_adjust"] is None
        for key in ("model", "verified", "vm_error"):
            assert doc[key] == off[key], key
    initial = evaluate_exact(snap, snap.phases)
    assert doc["initial_verified"]["objective"] == initial.objective
