"""Scenario runner: day sweeps, method comparison, accuracy verification.

The sweep writes one self-contained `outcome_<period>_<method>.json` per
cell. The three report files are pure functions of those outcome files:
`sweep.csv` (one row per cell), `summary.json` (per-method means, the cells
whose exact state breaks a limit or verifies worse than the initial
assignment, the reduction in mean verified objective, the largest verified
negative-sequence voltage, and the model-vs-exact |V| error percentiles) and
`accuracy_cdf.csv` (the thinned CDF of that error), so `verify` can
regenerate them byte-identically from a finished output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import ctypes
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .formulations import EvaluationResult, FormulationError, evaluate_exact
from .netmodel import (
    PHASE_POWER_BASE_VA,
    CaseSnapshot,
    DemandSeries,
    Network,
    build_snapshot,
    import_european_feeder,
    load_bundled_feeder,
)
from .optimizer import (
    _MODELS,
    OptimizationOutcome,
    branch_and_bound,
    fixv_algorithm1,
    local_search,
    optimize_pv_q,
)
from .powerflow import PhaseAssignment, PowerFlowError, feeder_geometry, power_balance_residual, solve_utpf

# Bound here only so that every name the benchmark tracer (bench/run.py) wraps
# in this module resolves; nothing here calls them.
from .formulations import evaluate_fixv, evaluate_lbfm, evaluate_linv  # noqa: F401
from .optimizer import exhaustive  # noqa: F401

METHODS = ("initial", "fixv-mc", "fixv-mw", "linv", "lbfm")
OUTCOME_SCHEMA = "phasebal.outcome.v5"
SUMMARY_SCHEMA = "phasebal.summary.v4"
CDF_POINTS = 256

ROW_FIELDS = (
    "period",
    "method",
    "status",
    "pi_before",
    "pi_after",
    "f_model",
    "f_verified",
    "f_initial_verified",
    "vm_min",
    "vm_max",
    "vneg_max",
    "slack_total",
    "moves",
    "candidates",
    "runtime_s",
    "error",
)


class ReportError(ValueError):
    """Outcome files missing or inconsistent with the report schema."""


@dataclass(frozen=True)
class SweepConfig:
    """Full-day experiment description."""

    scenario: str = "bundled"
    methods: tuple[str, ...] = METHODS
    periods: tuple[int, int] = (0, 96)
    pv_control: bool = False
    out_dir: str = "sweep_out"
    parallelism: int = 8
    seed: int = 7

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("methods must be non-empty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must not repeat, got {list(self.methods)}")
        start, stop = self.periods
        if start < 0 or stop <= start:
            raise ValueError(f"periods must satisfy 0 <= start < stop, got {self.periods}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.seed < 0:  # else early periods get negative cell seeds, which numpy refuses
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SweepReport:
    """Rows plus derived summaries, all recomputable from outcome files."""

    rows: tuple[Mapping[str, object], ...]
    summary: Mapping[str, object]


@dataclass(frozen=True)
class CellSpec:
    """One (period, method) work item."""

    period: int
    method: str


def load_scenario(spec: str) -> tuple[Network, DemandSeries]:
    return load_bundled_feeder() if spec == "bundled" else import_european_feeder(spec)


# The cells' feeder, PV-Q setting and base seed: set once per worker process
# by _worker_init, or by run_sweep for the cells it runs in its own process.
_CTX: dict[str, Any] = {}


def _set_context(network: Network, demands: DemandSeries, config: SweepConfig) -> None:
    _CTX.update(network=network, demands=demands, pv_control=config.pv_control, seed=config.seed)


def _pin_blas_thread() -> None:
    """Give numpy's OpenBLAS one thread in this process, when the library
    numpy loaded exposes a setter. Sweep workers already share the cores, so
    more BLAS threads per worker only oversubscribe them. `phasebal sweep`
    pins its own process too; a library caller of `run_sweep` keeps its own."""

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in (
            "scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"
        ):
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _worker_init(config: SweepConfig) -> None:
    _pin_blas_thread()
    _set_context(*load_scenario(config.scenario), config)


def _cell_seed(period: int) -> int:
    return int(_CTX["seed"]) + 7919 * int(period)


def _optimize_cell(snapshot, spec: CellSpec, initial: EvaluationResult) -> OptimizationOutcome:
    """The cell's decision, on the model alone; the one place that maps a
    method name to its search. initial is the initial assignment's exact
    state: the initial cell keeps that assignment with this state as both
    model views, and fixv-mw searches at its voltages. Another method runs
    the bound-ordered scan when its kernel is separable (lbfm), else local
    search from the cell's seed (linv), each by this module's name, which
    the benchmark's traced run wraps."""

    if spec.method == "initial":
        assignment = PhaseAssignment.initial(snapshot.network)
        return OptimizationOutcome("utpf", "none", assignment, initial, initial, 1)
    if spec.method in ("fixv-mc", "fixv-mw"):
        return fixv_algorithm1(snapshot, profile=initial.v if spec.method == "fixv-mw" else None)
    if _MODELS[spec.method].kernel.separable:
        return branch_and_bound(snapshot, spec.method)
    return local_search(snapshot, spec.method, seed=_cell_seed(spec.period))


def _eval_view(result: EvaluationResult) -> dict[str, object]:
    """A state's objective, slacks and extreme voltages, without per-bus arrays."""

    vm = np.asarray(result.vm, dtype=float)
    return {
        "method": result.method,
        "pi": float(result.pi),
        "objective": float(result.objective),
        "slack_total": sum(result.slack.values()),
        "slack": {**result.slack, "squared_voltage_units": result.squared_voltage_units},
        "s_dt": [[float(z.real), float(z.imag)] for z in result.s_dt],
        "vm_min": float(vm.min()),
        "vm_max": float(vm.max()),
        "vneg_max": float(np.abs(np.asarray(result.vneg)).max()),
    }


def _verified_view(result: EvaluationResult) -> dict[str, object]:
    """An exact state's view plus its solve diagnostics."""

    view = _eval_view(result)
    view["iterations"] = int(result.meta["iterations"])
    view["mismatch"] = float(result.meta["mismatch"])
    view["balance_residual"] = float(result.meta["balance_residual"])
    return view


def _run_cell(spec: CellSpec) -> dict[str, object]:
    """Run one (period, method) cell; failures become error records, not raises."""

    started = time.perf_counter()
    pv_control = bool(_CTX["pv_control"])
    doc: dict[str, object] = {
        "schema": OUTCOME_SCHEMA,
        "period": int(spec.period),
        "method": spec.method,
        "pv_control": pv_control,
        "seed": _cell_seed(spec.period),
        "status": "ok",
        "error": None,
    }
    try:
        network = _CTX["network"]
        demands = _CTX["demands"]
        snapshot = build_snapshot(network, demands, spec.period, pv_control)
        initial = PhaseAssignment.initial(snapshot.network)

        # The cell's exact solves: the initial assignment, the chosen one
        # (the same solve when the two coincide), then the PV-Q state.
        initial_verified = evaluate_exact(snapshot, initial)
        outcome = _optimize_cell(snapshot, spec, initial_verified)
        verified = initial_verified
        if outcome.assignment.phases != initial.phases:
            verified = evaluate_exact(snapshot, outcome.assignment)
        q_adjust = None
        pv_block = None
        model = outcome.model
        tunable = pv_control and np.any(snapshot.q_hi_pu > snapshot.q_lo_pu)
        if tunable and spec.method != "initial":
            # Tune PV reactive power under the cell's model; only fixv reads
            # the profile, freezing currents at the verified voltages.
            q, tuned, stats = optimize_pv_q(snapshot, outcome.assignment, outcome.method, verified.v)
            tuned_verified = evaluate_exact(snapshot, outcome.assignment, q_adjust=q)
            # The tuned q stays only if it verifies no worse than q = 0; else
            # the cell reports the chosen state untuned, as with PV-Q off.
            kept = tuned_verified.objective <= verified.objective
            pv_block = {
                "f_before": float(stats["f_start"]),
                "f_after": float(tuned.objective),
                "rounds": float(stats["rounds"]),
                "evaluations": float(stats["evaluations"]),
                "q": [float(x) for x in q],
                "kept": kept,
            }
            if kept:
                q_adjust, model, verified = pv_block["q"], tuned, tuned_verified
        doc.update(
            strategy=outcome.strategy,
            candidates=int(outcome.candidates),
            assignment=[int(p) for p in outcome.assignment.phases],
            initial_assignment=[int(p) for p in initial.phases],
            moves=int(
                sum(a != b for a, b in zip(outcome.assignment.phases, initial.phases))
            ),
            q_adjust=q_adjust,
            model=_eval_view(model),
            initial_model=_eval_view(outcome.initial_model),
            verified=_verified_view(verified),
            # |V| of the model less the exact |V| per bus and phase, which
            # `verify_accuracy` pools.
            vm_error=np.abs(
                np.asarray(model.vm, dtype=float) - np.asarray(verified.vm, dtype=float)
            ).ravel().tolist(),
            initial_verified=_verified_view(initial_verified),
            trace=[
                {
                    "outer": int(step.outer),
                    "phases": [int(p) for p in step.phases],
                    "delta_v": float(step.delta_v),
                    "model_objective": float(step.model_objective),
                }
                for step in outcome.trace
            ],
            stats={k: float(v) for k, v in outcome.stats.items()},
            pv=pv_block,
        )
    except Exception as exc:  # per-row containment: the sweep must not abort
        doc["status"] = "error"
        doc["error"] = f"{type(exc).__name__}: {exc}"
    doc["runtime_s"] = time.perf_counter() - started
    return doc


def outcome_path(out_dir: Path, period: int, method: str) -> Path:
    return out_dir / f"outcome_{period}_{method}.json"


def _write_json(path: Path, obj: object) -> None:
    # Compact: an indent sends json to its pure-Python encoder, twice as slow.
    path.write_text(json.dumps(obj, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, which numpy 2 reprs with its type name
        return repr(float(value))
    return str(value)


def load_outcomes(out_dir: str | Path) -> list[dict[str, object]]:
    """Parse every outcome file, ordered by (period, method). A file that is
    not JSON, has another schema, lacks what the reports read or is named
    for another cell than its own period and method raises ReportError
    naming it."""

    paths = sorted(Path(out_dir).glob("outcome_*.json"))
    if not paths:
        raise ReportError(f"no outcome files under {out_dir}")
    docs = []
    for path in paths:
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise ReportError(f"{path.name}: not JSON: {exc}") from None
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != OUTCOME_SCHEMA:
            raise ReportError(f"{path.name}: unexpected schema {schema!r}")
        try:
            row = _row_from_outcome(doc)
            if doc["status"] == "ok":
                _vm_error(doc)
        except KeyError as exc:
            raise ReportError(f"{path.name}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ReportError(f"{path.name}: malformed outcome: {exc}") from None
        own = outcome_path(path.parent, row["period"], row["method"]).name
        if path.name != own:
            raise ReportError(f"{path.name}: holds the outcome of {own}")
        docs.append(doc)
    docs.sort(key=lambda d: (int(d["period"]), str(d["method"])))
    return docs


def _row_from_outcome(doc: Mapping[str, object]) -> dict[str, object]:
    row: dict[str, object] = {
        "period": int(doc["period"]),
        "method": str(doc["method"]),
        "status": str(doc["status"]),
        "error": doc.get("error") or "",
    }
    if doc["status"] != "ok":
        row.update(
            {f: None for f in ROW_FIELDS if f not in row},
        )
        return row
    verified = doc["verified"]
    baseline = doc["initial_verified"]
    row.update(
        pi_before=float(baseline["pi"]),
        pi_after=float(verified["pi"]),
        f_model=float(doc["model"]["objective"]),
        f_verified=float(verified["objective"]),
        f_initial_verified=float(baseline["objective"]),
        vm_min=float(verified["vm_min"]),
        vm_max=float(verified["vm_max"]),
        vneg_max=float(verified["vneg_max"]),
        slack_total=float(verified["slack_total"]),
        moves=int(doc["moves"]),
        candidates=int(doc["candidates"]),
        runtime_s=float(doc["runtime_s"]),
    )
    return row


def _vm_error(doc: Mapping[str, Any]) -> np.ndarray:
    """|vm_model - vm_utpf| over a successful cell's buses and phases."""

    error = np.asarray(doc["vm_error"], dtype=float)
    if error.ndim != 1 or not error.size:
        raise ReportError(f"outcome {doc['period']}/{doc['method']}: vm_error is not a flat, non-empty list")
    return error


def verify_accuracy(outcomes: Sequence[Mapping[str, object]]) -> dict[str, object]:
    """Model-vs-verified |V| deviation distribution per method.

    Pools |vm_model - vm_utpf| over all buses, phases and periods of each
    method's successful cells and reports max plus the 50/90/99th
    percentiles, with a thinned CDF for plotting.
    """

    pools: dict[str, list[np.ndarray]] = {}
    for doc in outcomes:
        if doc["status"] == "ok":
            pools.setdefault(str(doc["method"]), []).append(_vm_error(doc))

    methods: dict[str, dict[str, float]] = {}
    cdf: dict[str, list[list[float]]] = {}
    for method in sorted(pools):
        dv = np.sort(np.concatenate(pools[method]))
        p50, p90, p99 = (float(np.quantile(dv, q)) for q in (0.50, 0.90, 0.99))
        methods[method] = {
            "count": float(dv.size),
            "p50": p50,
            "p90": p90,
            "p99": p99,
            "max": float(dv[-1]),
        }
        take = np.unique(np.linspace(0, dv.size - 1, min(CDF_POINTS, dv.size)).round().astype(int))
        cdf[method] = [[float(dv[i]), float((i + 1) / dv.size)] for i in take]
    return {"methods": methods, "cdf": cdf}


def _mean(values: Sequence[float]) -> float | None:
    return float(np.mean(values)) if values else None


def _reduction_pct(before: float | None, after: float | None) -> float | None:
    """100 (1 - after / before), or None when before is missing or zero."""

    return float(100.0 * (1.0 - after / before)) if before else None


def _build_summary(
    rows: Sequence[Mapping[str, object]], accuracy: Mapping[str, object]
) -> dict[str, object]:
    failures = sum(1 for r in rows if r["status"] != "ok")
    methods: dict[str, dict[str, object]] = {}
    for name in sorted({str(r["method"]) for r in rows}):
        mine = [r for r in rows if r["method"] == name]
        ok = [r for r in mine if r["status"] == "ok"]
        before = _mean([r["pi_before"] for r in ok])
        after = _mean([r["pi_after"] for r in ok])
        methods[name] = {
            "rows": len(mine),
            "failures": len(mine) - len(ok),
            "mean_pi_before": before,
            "mean_pi_after": after,
            "reduction_pct": _reduction_pct(before, after),
            "mean_runtime_s": _mean([r["runtime_s"] for r in ok]),
            "mean_moves": _mean([float(r["moves"]) for r in ok]),
            # What the exact flow finds: cells whose verified state breaks a
            # limit, cells verified worse than the initial assignment, the
            # reduction in mean verified objective, the largest verified
            # negative-sequence voltage and the mean |model - verified| objective.
            "violation_cells": sum(r["slack_total"] > 0.0 for r in ok),
            "worse_than_initial_cells": sum(r["f_verified"] > r["f_initial_verified"] for r in ok),
            "verified_reduction_pct": _reduction_pct(
                _mean([r["f_initial_verified"] for r in ok]), _mean([r["f_verified"] for r in ok])
            ),
            "max_verified_vneg": max((r["vneg_max"] for r in ok), default=None),
            "mean_model_gap": _mean([abs(r["f_model"] - r["f_verified"]) for r in ok]),
        }
    return {
        "schema": SUMMARY_SCHEMA,
        "rows": len(rows),
        "failures": failures,
        "period_count": len({r["period"] for r in rows}),
        "methods": methods,
        "accuracy": accuracy["methods"],
    }


def write_report_files(out_dir: str | Path) -> SweepReport:
    """Derive every report artifact from the stored outcome files."""

    out = Path(out_dir)
    docs = load_outcomes(out)
    rows = [_row_from_outcome(d) for d in docs]
    accuracy = verify_accuracy(docs)
    summary = _build_summary(rows, accuracy)

    _write_csv(
        out / "sweep.csv",
        ROW_FIELDS,
        [[_fmt(row[f]) for f in ROW_FIELDS] for row in rows],
    )
    _write_json(out / "summary.json", summary)

    _write_csv(
        out / "accuracy_cdf.csv",
        ("method", "delta_v", "cum_fraction"),
        [
            [method, _fmt(dv), _fmt(frac)]
            for method, points in accuracy["cdf"].items()
            for dv, frac in points
        ],
    )
    return SweepReport(rows=tuple(rows), summary=summary)


def run_sweep(config: SweepConfig) -> SweepReport:
    """Optimize and verify every (period, method) cell, then build reports."""

    network, demands = load_scenario(config.scenario)
    start, stop = config.periods
    if stop > demands.n_periods:
        raise ValueError(
            f"periods {config.periods} exceed the {demands.n_periods}-period profile"
        )
    build_snapshot(network, demands, start)  # refuse now a feeder that every cell would refuse

    out = Path(config.out_dir)
    tasks = [CellSpec(period=p, method=m) for p in range(start, stop) for m in sorted(config.methods)]
    # The reports read every outcome file in the directory, so another
    # sweep's cells would be counted as this one's.
    ours = {outcome_path(out, t.period, t.method) for t in tasks}
    foreign = sorted(p.name for p in out.glob("outcome_*.json") if p not in ours)
    if foreign:
        raise ValueError(
            f"{out} holds outcome files this sweep would not overwrite: "
            f"{', '.join(foreign)}; choose another output directory or remove them"
        )
    out.mkdir(parents=True, exist_ok=True)

    # Seeds are per cell, so outcomes do not depend on the worker count.
    workers = min(config.parallelism, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(config,),
        ) as pool:
            docs = list(pool.map(_run_cell, tasks))
    else:
        _set_context(network, demands, config)
        try:
            docs = [_run_cell(t) for t in tasks]
        finally:
            _CTX.clear()  # the feeder is this sweep's; keep it no longer

    for doc in docs:
        _write_json(outcome_path(out, int(doc["period"]), str(doc["method"])), doc)
    return write_report_files(out)


# ---------------------------------------------------------------- subcommands


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default=SweepConfig.scenario,
        help="feeder CSV directory, or 'bundled' for the shipped dataset",
    )


def _out_dir(args: argparse.Namespace) -> Path:
    """The --out-dir path; one that names an existing file, or a path under
    one, is a usage error, checked before anything is loaded or run."""

    out = Path(args.out_dir)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        args.usage_error(f"--out-dir {args.out_dir}: {existing} is not a directory")
    return out


def _load_period(args: argparse.Namespace) -> CaseSnapshot:
    """The --period snapshot of the --scenario feeder; a feeder that cannot be
    loaded or a period outside its profile is a usage error."""

    try:
        network, demands = load_scenario(args.scenario)
        return build_snapshot(network, demands, args.period)
    except ValueError as exc:
        args.usage_error(str(exc))


def _cmd_pf(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    snapshot = _load_period(args)
    network = snapshot.network
    solution = solve_utpf(snapshot, PhaseAssignment.initial(network))
    residual = power_balance_residual(solution, snapshot)

    # kW and kvar per bus and phase: the customers' loads, then the DT's supply.
    kw = np.zeros((network.n_buses + 1, 3))
    kvar = np.zeros((network.n_buses + 1, 3))
    at = (feeder_geometry(network).cust_bus, solution.cust_phase)
    np.add.at(kw, at, solution.s_cust.real * PHASE_POWER_BASE_VA / 1e3)
    np.add.at(kvar, at, solution.s_cust.imag * PHASE_POWER_BASE_VA / 1e3)
    kw[-1] = solution.s_dt.real * PHASE_POWER_BASE_VA / 1e3
    kvar[-1] = solution.s_dt.imag * PHASE_POWER_BASE_VA / 1e3
    v = np.vstack([solution.v, network.v0])
    rows = [
        [str(bus), name, _fmt(np.abs(v[i, p])), _fmt(np.angle(v[i, p])), _fmt(kw[i, p]), _fmt(kvar[i, p])]
        for i, bus in enumerate([*network.buses, "DT"])
        for p, name in enumerate("abc")
    ]

    out.mkdir(parents=True, exist_ok=True)
    path = out / f"pf_{args.period}.csv"
    _write_csv(path, ("bus_id", "phase", "vm_pu", "va_rad", "p_kw", "q_kvar"), rows)
    print(
        f"period {args.period}: {solution.iterations} iterations, "
        f"mismatch {solution.mismatch:.3e}, balance residual {residual:.3e}"
    )
    print(f"wrote {path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    out = _out_dir(args)
    snapshot = _load_period(args)
    initial = PhaseAssignment.initial(snapshot.network)
    result = _MODELS[args.method].evaluate(snapshot, initial, None, None)
    view = {**_eval_view(result), "vm": np.asarray(result.vm, dtype=float).tolist()}
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"evaluation_{args.period}_{args.method}.json"
    _write_json(path, view)
    print(
        f"period {args.period} {args.method}: pi {view['pi']:.6f}, "
        f"F {view['objective']:.6f}, slack {view['slack_total']:.3e}"
    )
    print(f"wrote {path}")
    return 0


def _shown(value: float | None, spec: str, unit: str = "") -> str:
    return "n/a" if value is None else f"{value:{spec}}{unit}"


def _print_summary(report: SweepReport) -> int:
    """Print the per-method lines; the exit status is 1 when a cell failed."""

    for name, stats in report.summary["methods"].items():  # type: ignore[union-attr]
        print(
            f"  {name}: {stats['rows']} rows, {stats['failures']} failures, "
            f"pi reduction {_shown(stats['reduction_pct'], '.2f', '%')}, "
            f"{stats['violation_cells']} violation cells, "
            f"{stats['worse_than_initial_cells']} worse than initial, "
            f"verified F reduction {_shown(stats['verified_reduction_pct'], '.2f', '%')}, "
            f"max verified vneg {_shown(stats['max_verified_vneg'], '.5f')}, "
            f"mean model gap {_shown(stats['mean_model_gap'], '.2e')}"
        )
    for name, stats in report.summary["accuracy"].items():  # type: ignore[union-attr]
        print(
            f"  accuracy {name}: p50 {stats['p50']:.2e}, p99 {stats['p99']:.2e}, "
            f"max {stats['max']:.2e}"
        )
    failures = report.summary["failures"]
    if failures:
        print(f"{failures} rows FAILED")
    return 1 if failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _out_dir(args)
    _pin_blas_thread()  # the cells that run in this process, at --parallelism 1
    try:
        config = SweepConfig(
            scenario=args.scenario,
            methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
            periods=args.periods,
            pv_control=args.pv_control == "on",
            out_dir=args.out_dir,
            parallelism=args.parallelism,
            seed=args.seed,
        )
        report = run_sweep(config)
    except ReportError:
        raise
    except ValueError as exc:  # a setting or feeder the sweep refuses before any cell runs
        args.usage_error(str(exc))
    print(
        f"sweep: {len(report.rows)} rows over {report.summary['period_count']} periods "
        f"-> {config.out_dir}"
    )
    return _print_summary(report)


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        report = write_report_files(args.out_dir)
    except ReportError as exc:  # outcome files missing or unreadable as a report
        args.usage_error(str(exc))
    print(f"verify: regenerated reports for {len(report.rows)} rows in {args.out_dir}")
    return _print_summary(report)


def _period_range(text: str) -> tuple[int, int]:
    """The half-open range of a --periods value written start:stop."""

    try:
        start, stop = (int(bound) for bound in text.split(":"))
        valid = 0 <= start < stop
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(
            f"expected start:stop with integer bounds 0 <= start < stop, got {text!r}"
        )
    return start, stop


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebal",
        description="Per-period phase-balancing optimization for LV feeders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pf = sub.add_parser("pf", help="exact power flow for one period")
    _add_scenario_arg(p_pf)
    p_pf.add_argument("--period", type=int, required=True)
    p_pf.add_argument("--out-dir", default=".")
    p_pf.set_defaults(func=_cmd_pf, usage_error=p_pf.error)

    p_eval = sub.add_parser("evaluate", help="one formulation's view of one period")
    _add_scenario_arg(p_eval)
    p_eval.add_argument("--period", type=int, required=True)
    p_eval.add_argument("--method", choices=tuple(_MODELS), required=True)
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=_cmd_evaluate, usage_error=p_eval.error)

    p_sweep = sub.add_parser("sweep", help="full-day optimization sweep")
    _add_scenario_arg(p_sweep)
    p_sweep.add_argument(
        "--methods",
        default=",".join(SweepConfig.methods),
        help="comma-separated method list, each method once",
    )
    p_sweep.add_argument(
        "--periods",
        type=_period_range,
        default=SweepConfig.periods,
        help="half-open period range start:stop; period stop is not run",
    )
    p_sweep.add_argument(
        "--pv-control",
        choices=("on", "off"),
        default="on" if SweepConfig.pv_control else "off",
        help="co-optimize PV reactive power after the phase decision",
    )
    p_sweep.add_argument("--out-dir", default=SweepConfig.out_dir)
    p_sweep.add_argument(
        "--parallelism",
        type=int,
        default=SweepConfig.parallelism,
        help="most worker processes; capped at the CPU count and the number of cells",
    )
    seed_help = "seeds linv's local-search restarts; the exact scans of fixv and lbfm do not read it"
    p_sweep.add_argument("--seed", type=int, default=SweepConfig.seed, help=seed_help)
    p_sweep.set_defaults(func=_cmd_sweep, usage_error=p_sweep.error)

    p_verify = sub.add_parser("verify", help="regenerate reports from stored outcomes")
    p_verify.add_argument("--out-dir", default=".")
    p_verify.set_defaults(func=_cmd_verify, usage_error=p_verify.error)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PowerFlowError, FormulationError) as exc:
        # pf or evaluate could not solve its period (a sweep keeps such failures
        # in their cells): one line and status 1, as a failed cell, nothing written.
        print(f"phasebal {args.command}: period {args.period}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
