"""What the benchmark harness reads from the package still exists.

`bench/run.py` wraps the functions its `TRACE_TARGETS` names, calls the
package through its module objects and reads fields off the results of the
traced calls (`bench/tracer.py`). A name the package drops breaks the
benchmark only when it runs; this guard parses `bench/` (it imports and
changes nothing there) and names each reference that no longer resolves.
The last test runs the harness itself, on copies of `bench/` and `src/`.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

from phasebal import cli, optimizer, powerflow
from phasebal.netmodel import DemandSeries, Network, build_snapshot
from phasebal.optimizer import OptimizationOutcome
from phasebal.powerflow import PFSolution, PhaseAssignment

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"
MODULES = ("cli", "formulations", "netmodel", "optimizer", "powerflow")


def _tree(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def trace_targets() -> dict[str, tuple[str, ...]]:
    """The `TRACE_TARGETS` literal of bench/run.py."""

    for node in _tree("run.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACE_TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no TRACE_TARGETS")


def module_attributes() -> set[tuple[str, str]]:
    """(module, attribute) for every `cli.x`, `self.cli.x` and the like that
    bench/run.py loads off one of the package's modules."""

    found = set()
    for node in ast.walk(_tree("run.py")):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name in MODULES:
                found.add((name, node.attr))
    return found


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert set(targets) <= set(MODULES)
    missing = [
        f"{module}.{attr}"
        for module, attrs in targets.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"phasebal.{module}"), attr, None))
    ]
    assert not missing, f"TRACE_TARGETS names that phasebal no longer defines: {missing}"


def test_every_module_attribute_the_harness_loads_resolves():
    found = module_attributes()
    assert ("cli", "run_sweep") in found and ("powerflow", "feeder_geometry") in found
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(found)
        if not hasattr(importlib.import_module(f"phasebal.{module}"), attr)
    ]
    assert not missing, f"bench/run.py loads attributes phasebal no longer has: {missing}"


def test_sweep_config_takes_every_keyword_the_harness_passes():
    passed = {
        kw.arg
        for node in ast.walk(_tree("run.py"))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "SweepConfig"
        for kw in node.keywords
    }
    assert passed and passed <= {f.name for f in dataclasses.fields(cli.SweepConfig)}


def test_results_carry_the_fields_the_tracer_reads():
    # tracer.py reads method and candidates off search outcomes and
    # iterations off power-flow solutions.
    source = (BENCH / "tracer.py").read_text()
    for owner, name in ((OptimizationOutcome, "method"), (OptimizationOutcome, "candidates"),
                        (PFSolution, "iterations")):
        assert f"result.{name}" in source
        assert name in {f.name for f in dataclasses.fields(owner)}, f"{owner.__name__}.{name}"


def test_the_geometry_cache_can_be_cleared():
    # The harness empties every memo cache it finds before each sweep.
    assert callable(getattr(powerflow.feeder_geometry, "cache_clear", None))


def test_setup_unpacks_the_scenario_into_network_and_demands():
    # Bench.setup unpacks load_scenario(...) into a pair and builds the
    # geometry of its first element.
    setup = next(
        node for node in ast.walk(_tree("run.py"))
        if isinstance(node, ast.FunctionDef) and node.name == "setup"
    )
    (target,) = [
        node.targets[0] for node in ast.walk(setup)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", None) == "load_scenario"
    ]
    assert isinstance(target, ast.Tuple) and len(target.elts) == 2
    geometry_args = [
        ast.unparse(node.args[0]) for node in ast.walk(setup)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "feeder_geometry"
    ]
    assert geometry_args == [ast.unparse(target.elts[0])]

    network, demands = cli.load_scenario("bundled")
    assert isinstance(network, Network) and isinstance(demands, DemandSeries)
    assert powerflow.feeder_geometry(network).cust_bus.shape == (network.n_customers,)


def test_the_model_table_calls_the_evaluators_the_tracer_wraps(monkeypatch):
    # The tracer counts evaluator calls (formulations.eval_calls.*) through
    # wrappers it puts on optimizer's module-level names. A model table that
    # bound the evaluators at import would bypass them and read zero.
    names = [attr for attr in trace_targets()["optimizer"] if attr.startswith("evaluate_")]
    assert sorted(names) == ["evaluate_exact", "evaluate_fixv", "evaluate_lbfm", "evaluate_linv"]
    counts = dict.fromkeys(names, 0)

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(optimizer, name, counting(name, getattr(optimizer, name)))

    network, demands = cli.load_scenario("bundled")
    snap = build_snapshot(network, demands, 73, pv_q_control=True)
    asg = PhaseAssignment.initial(network)
    runs = [
        (partial(optimizer.fixv_algorithm1, snap), "evaluate_fixv"),
        (partial(optimizer.fixv_algorithm1, snap, warm=True), "evaluate_fixv"),
        (partial(optimizer._search_once, snap, "linv", 7), "evaluate_linv"),
        (partial(optimizer._search_once, snap, "lbfm", 7), "evaluate_lbfm"),
        (partial(optimizer._MODELS["utpf"].evaluate, snap, asg, None, None), "evaluate_exact"),
        *(
            (partial(optimizer.optimize_pv_q, snap, asg, method), f"evaluate_{method}")
            for method in ("fixv", "linv", "lbfm")
        ),
    ]
    for k, (run, name) in enumerate(runs):
        before = counts[name]
        run()
        assert counts[name] > before, f"run {k} made no {name} call"


def test_the_harness_runs_every_workload(tmp_path):
    # One sweep of each workload, untraced and traced, with every outcome
    # check, the report regeneration and the tracer's targets; run.py writes
    # its work and records beside its own copy, so the checkout stays as it is.
    ignore = shutil.ignore_patterns("__pycache__", ".bench_*")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=ignore)
    shutil.copytree(SRC, tmp_path / "src", ignore=ignore)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seconds", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
