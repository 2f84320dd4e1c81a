"""Benchmark: per-period phase decisions on fixed workloads, checked and timed.

Drives the public entry point ``phasebal.cli.run_sweep(SweepConfig(...))``
from this one process, one call per period, the way an operator deciding each
15-minute period in turn would. Every outcome is checked, and the metrics
named in BENCHMARK.json are printed by name with their units. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; one attempt is one (period, method)
cell.

    python3 bench/run.py --workload pvq-bundled --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all   # every workload, untraced then traced

``--trace 0`` reports the end-to-end metrics. It repeats the whole sweep
while another repeat fits in ``--seconds`` (at least once), sets the feeder up
at least three times before the first sweep and again before each repeat
(median ``setup_s``), and reports medians.
``--trace 1`` decides each period twice, untraced and then with spans around
the calls between phasebal's modules, and reports the per-layer metrics.

A workload's feeder, periods and methods are fixed, so its quality metrics
and result fingerprint compare across runs; ``--seed`` sets the order in which
the periods are decided, which is moot while each workload decides one
period. Each run also writes its environment, fingerprint, metrics and spans
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True
# One BLAS thread: the sweep runs in this one process (parallelism 1), and on
# a 2-core machine a second BLAS thread made PV-Q sweeps slower in wall time,
# 1.8x the CPU time and far less repeatable. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (after the BLAS setting)
from feeder906 import write_feeder  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

METHODS = ("fixv-mc", "fixv-mw", "initial", "lbfm", "linv")
OPTIMIZING = ("fixv-mc", "fixv-mw", "linv", "lbfm")
MODELS = {"evaluate_fixv": "fixv", "evaluate_linv": "linv", "evaluate_lbfm": "lbfm", "evaluate_exact": "utpf"}
SEARCHES = {"exhaustive": "exhaustive", "local_search": "local", "fixv_algorithm1": "algorithm1"}
SETUP_REPEATS = 3  # at least this many before the first sweep
SETUP_BUDGET_S = 0.25  # and more before each sweep until this much is spent
PROGRAM_SEED = 7  # SweepConfig's default local-search seed
# SweepConfig's default of 8 worker processes oversubscribes small machines;
# the sweep runs in this process, which also lets the traced run see its calls.
PARALLELISM = 1
BALANCE_TOL = 1e-6  # p.u.; converged states sit near 1e-9
OBJECTIVE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    feeder: str  # "bundled", or "906" for the generated feeder
    periods: tuple[int, ...]
    pv_control: bool


# Both workloads decide the evening-peak period (73), where lbfm's choice
# verifies worse than the initial assignment. With PV-Q one sweep of it takes
# about 6 s, so a run repeats it five or six times and its medians hold
# against the 10-20 s slow spells of a shared host. A sweep of five PV-Q
# periods (10, 34, 48, 62, 73) fits only once in a run; its per-method medians,
# one cell per period, spread by a third between runs on a 2-core VM.
# A PV-Q-off day on the bundled feeder was measured too and left out: its
# 60-80 ms linv cells spread by up to 32 % between runs on a 2-core VM.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pvq-bundled", "bundled", (73,), True),
        Workload("feeder-906", "906", (73,), False),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    **{f"cell_s_p50.{m}": "s" for m in OPTIMIZING},
    "pi_reduction_pct": "%",
    "verified_worse_cells": "count",
    "verified_violation_cells": "count",
    "vm_err_p99": "pu",
}


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                return int(func())
    return None


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "parallelism": PARALLELISM,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _clear_program_caches(modules: dict) -> None:
    """Drop the program's memo caches, so each sweep starts as a fresh process does."""

    for module in modules.values():
        for obj in list(vars(module).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        from phasebal import cli, formulations, netmodel, optimizer, powerflow

        self.cli, self.powerflow = cli, powerflow
        self.modules = {m.__name__.rsplit(".", 1)[1]: m for m in (netmodel, powerflow, formulations, optimizer, cli)}
        self.workload = workload
        self.work = work
        if workload.feeder == "bundled":
            self.scenario = "bundled"
        else:
            self.scenario = str(write_feeder(work / "feeder906", netmodel.bundled_feeder_dir()))
        order = list(workload.periods)
        np.random.default_rng(seed).shuffle(order)
        self.order = order
        self.sweeps = 0

    def setup(self) -> float:
        """Import the feeder and build its geometry, timed."""

        _clear_program_caches(self.modules)
        started = time.perf_counter()
        network, _ = self.cli.load_scenario(self.scenario)
        self.powerflow.feeder_geometry(network)
        elapsed = time.perf_counter() - started
        _clear_program_caches(self.modules)
        return elapsed

    def sweep(self, tracers=(None,)) -> list[tuple[float, float, Path]]:
        """Decide every period once per tracer, each into a fresh directory.

        One run_sweep call per period; for each period the calls for the
        different tracers (None: untraced) run back to back, in alternating
        order, so a traced and an untraced sweep see the same machine
        conditions. A tracer records spans around its own calls and nothing
        else. Returns (wall, cpu, dir) per tracer.
        """

        _clear_program_caches(self.modules)
        lanes = []
        for _ in tracers:
            self.sweeps += 1
            lanes.append([0.0, 0.0, self.work / f"sweep{self.sweeps}"])
        for k, period in enumerate(self.order):
            turns = list(zip(lanes, tracers))
            for lane, tracer in turns[::-1] if k % 2 else turns:
                config = self.cli.SweepConfig(
                    scenario=self.scenario,
                    methods=METHODS,
                    periods=(period, period + 1),
                    pv_control=self.workload.pv_control,
                    out_dir=str(lane[2]),
                    parallelism=PARALLELISM,
                    seed=PROGRAM_SEED,
                )
                if tracer is not None:
                    tracer.install({self.modules[n]: attrs for n, attrs in TRACE_TARGETS.items()})
                try:
                    w0, c0 = time.perf_counter(), time.process_time()
                    self.cli.run_sweep(config)
                    lane[0] += time.perf_counter() - w0
                    lane[1] += time.process_time() - c0
                finally:
                    if tracer is not None:
                        tracer.restore()
        return [tuple(lane) for lane in lanes]


# ------------------------------------------------------------------ checks


def check_outcomes(cli, powerflow, out: Path, expected: int) -> tuple[list[dict], list[str], int]:
    """Load every outcome; list what is wrong and count the cells at fault."""

    docs = cli.load_outcomes(out)
    problems = []
    if len(docs) != expected:
        problems.append(f"{len(docs)} outcome files, expected {expected}")
    bad_cells = 0
    for doc in docs:
        found = len(problems)
        _check_cell(powerflow, doc, problems)
        bad_cells += len(problems) > found
    return docs, problems, bad_cells + max(0, expected - len(docs))


def _check_cell(powerflow, doc: dict, problems: list[str]) -> None:
    cell = f"period {doc['period']} {doc['method']}"
    if doc["status"] != "ok":
        problems.append(f"{cell}: status {doc['status']}: {doc['error']}")
        return
    for key in ("verified", "initial_verified"):
        view = doc[key]
        if view["mismatch"] > powerflow.MISMATCH_TOL:
            problems.append(f"{cell}: {key} mismatch {view['mismatch']:.3e}")
        if view["balance_residual"] > BALANCE_TOL:
            problems.append(f"{cell}: {key} balance residual {view['balance_residual']:.3e}")
    # With PV-Q the model view is re-evaluated after the reactive tuning (for
    # fixv at another voltage profile, so the outcome keeps no fixv objective
    # comparable with the initial one); the decision is checked on the
    # objective before tuning, and the tuning must not raise it.
    pv = doc.get("pv")
    chosen = doc["model"]["objective"] if pv is None else pv["f_before"]
    initial = doc["initial_model"]["objective"]
    if pv is not None and pv["f_after"] > pv["f_before"] + OBJECTIVE_TOL:
        problems.append(f"{cell}: PV-Q raised the model objective")
    comparable = pv is None or not doc["method"].startswith("fixv")
    if comparable and chosen > initial + OBJECTIVE_TOL * (1.0 + abs(initial)):
        problems.append(f"{cell}: model objective {chosen!r} above the initial {initial!r}")


def check_reports_reproduce(cli, out: Path) -> list[str]:
    """Regenerating the reports from the outcome files must change no byte."""

    names = ("sweep.csv", "summary.json")
    before = {n: (out / n).read_bytes() for n in names}
    cli.write_report_files(out)
    return [f"{n} changed when regenerated" for n in names if (out / n).read_bytes() != before[n]]


def fingerprint(docs: list[dict]) -> str:
    """Hash of every chosen assignment and verified objective."""

    digest = hashlib.sha256()
    for d in sorted(docs, key=lambda d: (d["period"], d["method"])):
        record = [d["period"], d["method"], d["assignment"], repr(d["verified"]["objective"]), repr(d["initial_verified"]["objective"])]
        digest.update(json.dumps(record).encode())
    return digest.hexdigest()[:16]


# ------------------------------------------------------------------ metrics


def quality_metrics(docs: list[dict], summary: dict) -> dict[str, float]:
    ok = [d for d in docs if d["status"] == "ok"]
    return {
        "pi_reduction_pct": statistics.fmean(summary["methods"][m]["reduction_pct"] for m in OPTIMIZING),
        "verified_worse_cells": float(
            sum(d["verified"]["objective"] > d["initial_verified"]["objective"] for d in ok)
        ),
        "verified_violation_cells": float(sum(d["verified"]["slack_total"] > 0.0 for d in ok)),
        "vm_err_p99": max(stats["p99"] for stats in summary["accuracy"].values()),
    }


def cell_p50s(doc_sets: list[list[dict]]) -> dict[str, float]:
    return {
        f"cell_s_p50.{m}": _median([d["runtime_s"] for docs in doc_sets for d in docs if d["method"] == m])
        for m in OPTIMIZING
    }


def layer_metrics(spans, docs: list[dict], traced_s: float, untraced_s: float) -> dict[str, float]:
    own = self_times(spans)
    cells = len(docs)
    by_func: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_func.setdefault(s.func, []).append(i)

    def durations(*funcs: str) -> list[float]:
        return [spans[i].duration for f in funcs for i in by_func.get(f, [])]

    def total_self(*funcs: str) -> float:
        return sum(own[i] for f in funcs for i in by_func.get(f, []))

    m: dict[str, float] = {}
    m["netmodel.import_s"] = _median(durations("load_bundled_feeder", "import_european_feeder"))
    m["netmodel.snapshot_ms"] = 1e3 * _median(durations("build_snapshot"))

    builds = by_func.get("feeder_geometry", [])
    m["powerflow.geometry_s"] = _median(durations("feeder_geometry"))
    m["powerflow.geometry_builds"] = float(len(builds))
    m["powerflow.geometry_mb"] = max((spans[i].info["nbytes"] for i in builds), default=0.0) / 2**20
    utpf = by_func.get("solve_utpf", [])
    m["powerflow.utpf_ms"] = 1e3 * _median(durations("solve_utpf"))
    m["powerflow.utpf_iterations"] = statistics.fmean(spans[i].info["iterations"] for i in utpf) if utpf else 0.0
    m["powerflow.utpf_calls_per_cell"] = len(utpf) / cells

    for func, model in MODELS.items():
        m[f"formulations.eval_ms.{model}"] = 1e3 * _median(durations(func))
        m[f"formulations.eval_calls.{model}"] = float(len(by_func.get(func, [])))

    for func, label in SEARCHES.items():
        m[f"optimizer.search_s.{label}"] = total_self(func)
    for method in OPTIMIZING:
        mine = [d["candidates"] for d in docs if d["method"] == method]
        m[f"optimizer.candidates_per_cell.{method}"] = statistics.fmean(mine) if mine else 0.0
    for model in ("fixv", "lbfm", "linv"):
        searches = [i for f in ("exhaustive", "local_search", "branch_and_bound") for i in by_func.get(f, [])
                    if spans[i].info["model"] == model]
        candidates = sum(spans[i].info["candidates"] for i in searches)
        m[f"optimizer.us_per_candidate.{model}"] = (
            1e6 * sum(own[i] for i in searches) / candidates if candidates else 0.0
        )
    mc = [d for d in docs if d["method"] == "fixv-mc"]
    m["optimizer.outer_passes"] = statistics.fmean(d["stats"]["outer"] for d in mc) if mc else 0.0
    optimizing = [d for d in docs if d["method"] in OPTIMIZING]
    fallbacks = sum(d["stats"].get("fell_back_to_initial", 0.0) for d in optimizing)
    m["optimizer.fallback_cells"] = float(fallbacks)
    m["optimizer.useful_share"] = 1.0 - fallbacks / len(optimizing) if optimizing else 0.0
    pvq = by_func.get("optimize_pv_q", [])
    m["optimizer.pvq_s"] = _median(durations("optimize_pv_q"))
    m["optimizer.pvq_evaluations"] = statistics.fmean(spans[i].info["evaluations"] for i in pvq) if pvq else 0.0

    m["cli.report_s"] = sum(durations("write_report_files"))
    m["cli.cell_self_s"] = total_self("_run_cell")

    for layer in ("netmodel", "powerflow", "formulations", "optimizer", "cli"):
        mine = [i for i, s in enumerate(spans) if s.layer == layer]
        m[f"{layer}.self_s"] = sum(own[i] for i in mine)
        m[f"{layer}.calls"] = float(len(mine))
    m["trace_overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return m


LAYER_UNITS = {
    "netmodel.import_s": "s", "netmodel.snapshot_ms": "ms",
    "powerflow.geometry_s": "s", "powerflow.geometry_builds": "count", "powerflow.geometry_mb": "MiB",
    "powerflow.utpf_ms": "ms", "powerflow.utpf_iterations": "count", "powerflow.utpf_calls_per_cell": "count",
    **{f"formulations.eval_ms.{m}": "ms" for m in MODELS.values()},
    **{f"formulations.eval_calls.{m}": "count" for m in MODELS.values()},
    **{f"optimizer.search_s.{s}": "s" for s in SEARCHES.values()},
    **{f"optimizer.candidates_per_cell.{m}": "count" for m in OPTIMIZING},
    **{f"optimizer.us_per_candidate.{m}": "us" for m in ("fixv", "lbfm", "linv")},
    "optimizer.outer_passes": "count", "optimizer.fallback_cells": "count", "optimizer.useful_share": "share",
    "optimizer.pvq_s": "s", "optimizer.pvq_evaluations": "count",
    "cli.report_s": "s", "cli.cell_self_s": "s",
    **{f"{layer}.self_s": "s" for layer in ("netmodel", "powerflow", "formulations", "optimizer", "cli")},
    **{f"{layer}.calls": "count" for layer in ("netmodel", "powerflow", "formulations", "optimizer", "cli")},
    "trace_overhead_pct": "%",
}

# Functions wrapped in the traced run, under the names their callers use.
TRACE_TARGETS = {
    "cli": ("run_sweep", "_run_cell", "load_bundled_feeder", "import_european_feeder", "build_snapshot",
            "solve_utpf", "evaluate_exact", "evaluate_fixv", "evaluate_linv", "evaluate_lbfm",
            "exhaustive", "local_search", "branch_and_bound", "fixv_algorithm1", "optimize_pv_q",
            "write_report_files"),
    "optimizer": ("solve_utpf", "evaluate_exact", "evaluate_fixv", "evaluate_linv", "evaluate_lbfm",
                  "exhaustive", "local_search", "branch_and_bound"),
    "formulations": ("solve_utpf", "feeder_geometry"),
    "powerflow": ("feeder_geometry",),
}


# ------------------------------------------------------------------ running


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root))
    try:
        return _measure(Bench(workload, seed, work), seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(bench: Bench, seconds: float, trace: bool) -> dict:
    cli, powerflow = bench.cli, bench.powerflow
    expected = len(bench.workload.periods) * len(METHODS)
    setups: list[float] = []

    def set_up(count: int) -> None:
        # Set-ups spread between the sweeps, so a slow spell of the host
        # moves their median no more than it moves the sweeps'.
        block = [bench.setup() for _ in range(count)]
        while sum(block) < SETUP_BUDGET_S:
            block.append(bench.setup())
        setups.extend(block)

    problems: list[str] = []
    walls, cpus, doc_sets, prints = [], [], [], []
    report = None
    failed = 0

    def sweeps(tracers=(None,)) -> None:
        nonlocal report, failed
        for wall, cpu, out in bench.sweep(tracers):
            docs, found, bad_cells = check_outcomes(cli, powerflow, out, expected)
            found += check_reports_reproduce(cli, out)
            problems.extend(found)
            failed += bad_cells
            walls.append(wall)
            cpus.append(cpu)
            doc_sets.append(docs)
            prints.append(fingerprint(docs))
            report = json.loads((out / "summary.json").read_text())

    spans = []
    if trace:
        tracer = Tracer()
        sweeps((None, tracer))
        spans = tracer.spans
    else:
        set_up(SETUP_REPEATS)
        started = time.perf_counter()
        sweeps()
        while time.perf_counter() - started + walls[-1] <= seconds:
            set_up(1)
            sweeps()
    if len(set(prints)) != 1:
        problems.append(f"repeated sweeps chose differently: {sorted(set(prints))}")

    result = {
        "attempted": expected * len(doc_sets),
        "failed": failed,
        "problems": problems,
        "fingerprint": prints[0],
        "sweeps": len(walls),
        "sweep_walls_s": walls,
        "setups_s": setups,
        "cells_per_method": len(bench.workload.periods) * len(walls),
    }
    if trace:
        result["metrics"] = layer_metrics(spans, doc_sets[1], walls[1], walls[0])
        result["spans"] = [vars(s) for s in spans]
    else:
        result["metrics"] = {
            "setup_s": _median(setups),
            "sweep_s": _median(walls),
            "cpu_s": _median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **cell_p50s(doc_sets),
            **quality_metrics(doc_sets[0], report),
        }
    return result


def _print_table(title: str, rows: list[tuple[str, str, list[str]]], columns: list[str]) -> None:
    print(title)
    width = max(len(r[0]) for r in rows)
    print(f"  {'metric':<{width}}  {'unit':<6}  " + "  ".join(f"{c:>14}" for c in columns))
    for name, unit, cells in rows:
        print(f"  {name:<{width}}  {unit:<6}  " + "  ".join(f"{c:>14}" for c in cells))


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.6g}"


def run_all(seed: int, seconds: int) -> int:
    """Every workload untraced, then traced, each in a fresh interpreter."""

    results: dict[tuple[str, int], dict] = {}
    status = 0
    for trace in (0, 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                status = 1
                continue
            results[name, trace] = json.loads(lines[-1])
    names = list(WORKLOADS)
    for trace, units, title in ((0, E2E_UNITS, "end-to-end (untraced)"), (1, LAYER_UNITS, "per layer (traced)")):
        rows = [
            (metric, unit, [_fmt(results.get((n, trace), {}).get("metrics", {}).get(metric, {}).get("value"))
                            for n in names])
            for metric, unit in units.items()
        ]
        _print_table(title, rows, names)
        print()
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "phasebal" / "__init__.py").is_file():
        print(f"no phasebal sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if PARALLELISM > (os.cpu_count() or 1):
        print(f"parallelism {PARALLELISM} would start more workers than the {os.cpu_count()} CPUs here",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    workload = WORKLOADS[args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": len(workload.periods) * len(METHODS),
                          "failed": len(workload.periods) * len(METHODS), "metrics": {}}))
        return 1

    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not result["problems"]
    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()} if correct else {}
    print(f"workload {workload.name}: periods {list(workload.periods)}, pv_control {workload.pv_control}, "
          f"{result['sweeps']} sweep(s), {result['cells_per_method']} cells per method, "
          f"fingerprint {result['fingerprint']}")
    if correct:
        _print_table("per layer (traced)" if args.trace else "end-to-end (untraced)",
                     [(k, units[k], [_fmt(v)]) for k, v in result["metrics"].items()], [workload.name])

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "environment": env,
              **{k: v for k, v in result.items() if k != "metrics"}, "metrics": metrics}
    (out_dir / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
