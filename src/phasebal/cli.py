"""Scenario runner: day sweeps, method comparison, accuracy verification.

The sweep writes one self-contained `outcome_<period>_<method>.json` per
cell. The three report files are pure functions of those outcome files:
`sweep.csv` (one row per cell), `summary.json` (per-method means and the
model-vs-exact |V| error percentiles) and `accuracy_cdf.csv` (the thinned
CDF of that error), so `verify` can regenerate them byte-identically from a
finished output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .formulations import EvaluationResult, evaluate_exact

# Bound here only so that the benchmark tracer (bench/run.py) finds them.
from .formulations import evaluate_fixv, evaluate_lbfm, evaluate_linv  # noqa: F401
from .netmodel import (
    DEFAULT_SCENARIO,
    DemandSeries,
    Network,
    build_snapshot,
    import_european_feeder,
    load_bundled_feeder,
    write_network_json,
    write_profiles_csv,
)
from .optimizer import (
    Algorithm1Options,
    OptimizationOutcome,
    _model_evaluator,
    _search_once,
    fixv_algorithm1,
    optimize_pv_q,
)

# Bound here only so that the benchmark tracer (bench/run.py) finds them.
from .optimizer import branch_and_bound, exhaustive, local_search  # noqa: F401
from .powerflow import PhaseAssignment, power_balance_residual, solve_utpf

METHODS = ("initial", "fixv-mc", "fixv-mw", "linv", "lbfm")
OUTCOME_SCHEMA = "phasebal.outcome.v1"
SUMMARY_SCHEMA = "phasebal.summary.v1"
CDF_POINTS = 256

ROW_FIELDS = (
    "period",
    "method",
    "status",
    "pi_before",
    "pi_after",
    "f_model",
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


@dataclass(frozen=True)
class SweepReport:
    """Rows plus derived summaries, all recomputable from outcome files."""

    rows: tuple[Mapping[str, object], ...]
    summary: Mapping[str, object]
    accuracy: Mapping[str, Mapping[str, float]]
    failures: int


@dataclass(frozen=True)
class CellSpec:
    """One (period, method) work item."""

    period: int
    method: str
    pv_control: bool
    seed: int


def load_scenario(spec: str) -> tuple[Network, DemandSeries]:
    feeder = load_bundled_feeder() if spec == "bundled" else import_european_feeder(spec)
    return feeder.network, feeder.demands


# Worker-process state, populated once per process by _worker_init.
_CTX: dict[str, object] = {}


def _worker_init(scenario: str, pv_control: bool) -> None:
    network, demands = load_scenario(scenario)
    _CTX["network"] = network
    _CTX["demands"] = demands
    _CTX["options"] = replace(DEFAULT_SCENARIO, pv_q_control=pv_control)


def _cell_seed(base: int, period: int) -> int:
    return int(base) + 7919 * int(period)


def _optimize_cell(snapshot, spec: CellSpec) -> OptimizationOutcome:
    seed = _cell_seed(spec.seed, spec.period)
    if spec.method in ("fixv-mc", "fixv-mw"):
        warm = spec.method == "fixv-mw"
        algorithm = Algorithm1Options(max_outer=1 if warm else 3, warm_start=warm)
        return fixv_algorithm1(snapshot, algorithm, seed=seed)
    return _search_once(snapshot, spec.method, seed)


def _eval_view(result: EvaluationResult) -> dict[str, object]:
    slacks = result.slacks
    vm = np.asarray(result.vm, dtype=float)
    vneg_mag = np.abs(np.asarray(result.vneg))
    return {
        "method": result.method,
        "pi": float(result.pi),
        "objective": float(result.objective),
        "slack_total": float(slacks.total()),
        "slack": {
            "v_lo": float(slacks.v_lo.sum()),
            "v_hi": float(slacks.v_hi.sum()),
            "neg_seq": float(slacks.neg_seq.sum()),
            "i_dt": float(slacks.i_dt.sum()),
            "squared_voltage_units": bool(slacks.squared_voltage_units),
        },
        "s_dt": [[float(z.real), float(z.imag)] for z in result.s_dt],
        "vm": [[float(x) for x in row] for row in vm],
        "vm_min": float(vm.min()),
        "vm_max": float(vm.max()),
        "vneg_mag": [float(x) for x in vneg_mag],
        "vneg_max": float(vneg_mag.max()),
    }


def _verified_view(result: EvaluationResult) -> dict[str, object]:
    """An exact state's view plus its solve diagnostics."""

    view = _eval_view(result)
    view["iterations"] = int(result.meta["iterations"])
    view["mismatch"] = float(result.meta["mismatch"])
    view["balance_residual"] = float(result.meta["balance_residual"])
    return view


def _pv_refine(snapshot, outcome: OptimizationOutcome) -> tuple[np.ndarray, dict[str, object], dict[str, object]]:
    """Tune PV reactive power after the phase decision, under the same model."""

    # The fixed-voltage model freezes currents at the verified voltages.
    profile = np.asarray(outcome.verified.v) if outcome.method == "fixv" else None
    q, final, stats = optimize_pv_q(snapshot, outcome.assignment, outcome.method, profile=profile)
    block = {
        "f_before": float(stats["f_start"]),
        "f_after": float(final.objective),
        "rounds": float(stats["rounds"]),
        "evaluations": float(stats["evaluations"]),
    }
    return q, _eval_view(final), block


def _run_cell(spec: CellSpec) -> dict[str, object]:
    """Run one (period, method) cell; failures become error records, not raises."""

    started = time.perf_counter()
    doc: dict[str, object] = {
        "schema": OUTCOME_SCHEMA,
        "period": int(spec.period),
        "method": spec.method,
        "pv_control": bool(spec.pv_control),
        "seed": _cell_seed(spec.seed, spec.period),
        "status": "ok",
        "error": None,
    }
    try:
        network = _CTX["network"]
        demands = _CTX["demands"]
        options = _CTX["options"]
        snapshot = build_snapshot(network, demands, spec.period, options)  # type: ignore[arg-type]
        initial = PhaseAssignment.initial(snapshot.network)

        if spec.method == "initial":
            verified = _verified_view(evaluate_exact(snapshot, initial))
            doc.update(
                strategy="none",
                candidates=1,
                assignment=[int(p) for p in initial.phases],
                initial_assignment=[int(p) for p in initial.phases],
                moves=0,
                q_adjust=None,
                model=verified,
                initial_model=verified,
                verified=verified,
                initial_verified=verified,
                trace=[],
                stats={},
                pv=None,
            )
        else:
            outcome = _optimize_cell(snapshot, spec)
            q_adjust = None
            pv_block = None
            model_view = _eval_view(outcome.model)
            verified = outcome.verified
            if spec.pv_control and np.any(snapshot.q_hi_pu > snapshot.q_lo_pu):
                q_adjust, model_view, pv_block = _pv_refine(snapshot, outcome)
                verified = evaluate_exact(snapshot, outcome.assignment, q_adjust=q_adjust)
            doc.update(
                strategy=outcome.strategy,
                candidates=int(outcome.candidates),
                assignment=[int(p) for p in outcome.assignment.phases],
                initial_assignment=[int(p) for p in initial.phases],
                moves=int(
                    sum(a != b for a, b in zip(outcome.assignment.phases, initial.phases))
                ),
                q_adjust=None if q_adjust is None else [float(x) for x in q_adjust],
                model=model_view,
                initial_model=_eval_view(outcome.initial_model),
                verified=_verified_view(verified),
                initial_verified=_verified_view(outcome.initial_verified),
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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def load_outcomes(out_dir: str | Path) -> list[dict[str, object]]:
    """Parse every outcome file, ordered by (period, method)."""

    paths = sorted(Path(out_dir).glob("outcome_*.json"))
    if not paths:
        raise ReportError(f"no outcome files under {out_dir}")
    docs = []
    for path in paths:
        doc = json.loads(path.read_text())
        if doc.get("schema") != OUTCOME_SCHEMA:
            raise ReportError(f"{path.name}: unexpected schema {doc.get('schema')!r}")
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
        vm_min=float(verified["vm_min"]),
        vm_max=float(verified["vm_max"]),
        vneg_max=float(verified["vneg_max"]),
        slack_total=float(verified["slack_total"]),
        moves=int(doc["moves"]),
        candidates=int(doc["candidates"]),
        runtime_s=float(doc["runtime_s"]),
    )
    return row


def verify_accuracy(outcomes: Sequence[Mapping[str, object]]) -> dict[str, object]:
    """Model-vs-verified |V| deviation distribution per method.

    Pools |vm_model - vm_utpf| over all buses, phases and periods of each
    method's successful cells and reports max plus the 50/90/99th
    percentiles, with a thinned CDF for plotting.
    """

    pools: dict[str, list[np.ndarray]] = {}
    for doc in outcomes:
        if doc["status"] != "ok":
            continue
        if "verified" not in doc or "vm" not in doc["verified"]:
            raise ReportError(
                f"outcome {doc['period']}/{doc['method']}: missing verified voltages"
            )
        model_vm = np.asarray(doc["model"]["vm"], dtype=float)
        utpf_vm = np.asarray(doc["verified"]["vm"], dtype=float)
        if model_vm.shape != utpf_vm.shape:
            raise ReportError(
                f"outcome {doc['period']}/{doc['method']}: voltage shape mismatch"
            )
        pools.setdefault(str(doc["method"]), []).append(np.abs(model_vm - utpf_vm).ravel())

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
        reduction = None
        if before:
            reduction = float(100.0 * (1.0 - after / before))
        methods[name] = {
            "rows": len(mine),
            "failures": len(mine) - len(ok),
            "mean_pi_before": before,
            "mean_pi_after": after,
            "reduction_pct": reduction,
            "mean_runtime_s": _mean([r["runtime_s"] for r in ok]),
            "mean_moves": _mean([float(r["moves"]) for r in ok]),
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
    return SweepReport(
        rows=tuple(rows),
        summary=summary,
        accuracy=accuracy["methods"],
        failures=int(summary["failures"]),
    )


def run_sweep(config: SweepConfig) -> SweepReport:
    """Optimize and verify every (period, method) cell, then build reports."""

    network, demands = load_scenario(config.scenario)
    start, stop = config.periods
    if stop > demands.n_periods:
        raise ValueError(
            f"periods {config.periods} exceed the {demands.n_periods}-period profile"
        )

    out = Path(config.out_dir)
    tasks = [
        CellSpec(
            period=p,
            method=m,
            pv_control=config.pv_control,
            seed=config.seed,
        )
        for p in range(start, stop)
        for m in sorted(config.methods)
    ]
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
            initargs=(config.scenario, config.pv_control),
        ) as pool:
            docs = list(pool.map(_run_cell, tasks))
    else:
        _worker_init(config.scenario, config.pv_control)
        docs = [_run_cell(t) for t in tasks]

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


def _cmd_import(args: argparse.Namespace) -> int:
    feeder = import_european_feeder(args.source)
    report = feeder.network.topology
    depth = {feeder.network.root: 0}
    for bus in report.depth_order[1:]:
        depth[bus] = depth[report.parent[bus]] + 1
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_network_json(feeder.network, out / "network.json")
    write_profiles_csv(feeder.demands, out / "profiles.csv")
    print(
        f"imported {feeder.network.n_buses} buses, {len(feeder.network.lines)} lines, "
        f"{feeder.network.n_customers} customers, {feeder.demands.n_periods} periods "
        f"(max depth {max(depth.values())})"
    )
    print(f"wrote {out / 'network.json'} and {out / 'profiles.csv'}")
    return 0


def _cmd_pf(args: argparse.Namespace) -> int:
    network, demands = load_scenario(args.scenario)
    snapshot = build_snapshot(network, demands, args.period, DEFAULT_SCENARIO)
    solution = solve_utpf(snapshot, PhaseAssignment.initial(network))
    residual = power_balance_residual(solution, snapshot)

    phase_base = network.bases.phase_power_va
    load_kw = np.zeros((network.n_buses, 3))
    load_kvar = np.zeros((network.n_buses, 3))
    bus_index = {b: i for i, b in enumerate(solution.bus_ids)}
    for k, customer in enumerate(network.customers):
        i = bus_index[customer.bus]
        p = int(solution.cust_phase[k])
        load_kw[i, p] += solution.s_cust[k].real * phase_base / 1e3
        load_kvar[i, p] += solution.s_cust[k].imag * phase_base / 1e3

    rows = []
    for i, bus in enumerate(solution.bus_ids):
        for p, name in enumerate("abc"):
            rows.append(
                [
                    str(bus),
                    name,
                    _fmt(float(np.abs(solution.v[i, p]))),
                    _fmt(float(np.angle(solution.v[i, p]))),
                    _fmt(load_kw[i, p]),
                    _fmt(load_kvar[i, p]),
                ]
            )
    v0 = network.v0.values
    for p, name in enumerate("abc"):
        rows.append(
            [
                "DT",
                name,
                _fmt(float(np.abs(v0[p]))),
                _fmt(float(np.angle(v0[p]))),
                _fmt(float(solution.s_dt[p].real * phase_base / 1e3)),
                _fmt(float(solution.s_dt[p].imag * phase_base / 1e3)),
            ]
        )

    out = Path(args.out_dir)
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
    network, demands = load_scenario(args.scenario)
    snapshot = build_snapshot(network, demands, args.period, DEFAULT_SCENARIO)
    result = _model_evaluator(args.method)(snapshot, PhaseAssignment.initial(network), None)
    view = _eval_view(result)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"evaluation_{args.period}_{args.method}.json"
    _write_json(path, view)
    print(
        f"period {args.period} {args.method}: pi {view['pi']:.6f}, "
        f"F {view['objective']:.6f}, slack {view['slack_total']:.3e}"
    )
    print(f"wrote {path}")
    return 0


def _print_summary(report: SweepReport) -> None:
    for name, stats in report.summary["methods"].items():  # type: ignore[union-attr]
        reduction = stats["reduction_pct"]
        shown = "n/a" if reduction is None else f"{reduction:.2f}%"
        print(
            f"  {name}: {stats['rows']} rows, {stats['failures']} failures, "
            f"pi reduction {shown}"
        )
    for name, stats in report.accuracy.items():
        print(
            f"  accuracy {name}: p50 {stats['p50']:.2e}, p99 {stats['p99']:.2e}, "
            f"max {stats['max']:.2e}"
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
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
    _print_summary(report)
    if report.failures:
        print(f"{report.failures} rows FAILED")
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = write_report_files(args.out_dir)
    print(f"verify: regenerated reports for {len(report.rows)} rows in {args.out_dir}")
    _print_summary(report)
    if report.failures:
        print(f"{report.failures} rows FAILED")
        return 1
    return 0


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

    p_import = sub.add_parser("import", help="normalize a feeder CSV directory")
    p_import.add_argument("source", help="directory with the feeder CSV tables")
    p_import.add_argument("--out-dir", default=".", help="where to write the normalized files")
    p_import.set_defaults(func=_cmd_import)

    p_pf = sub.add_parser("pf", help="exact power flow for one period")
    _add_scenario_arg(p_pf)
    p_pf.add_argument("--period", type=int, required=True)
    p_pf.add_argument("--out-dir", default=".")
    p_pf.set_defaults(func=_cmd_pf)

    p_eval = sub.add_parser("evaluate", help="one formulation's view of one period")
    _add_scenario_arg(p_eval)
    p_eval.add_argument("--period", type=int, required=True)
    p_eval.add_argument("--method", choices=("utpf", "fixv", "linv", "lbfm"), required=True)
    p_eval.add_argument("--out-dir", default=".")
    p_eval.set_defaults(func=_cmd_evaluate)

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
    p_sweep.add_argument("--seed", type=int, default=SweepConfig.seed)
    p_sweep.set_defaults(func=_cmd_sweep, usage_error=p_sweep.error)

    p_verify = sub.add_parser("verify", help="regenerate reports from stored outcomes")
    p_verify.add_argument("--out-dir", default=".")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
