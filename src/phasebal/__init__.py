"""Phase-balancing optimization toolkit for low-voltage distribution feeders.

Decides, per time period, which phase each switchable residential customer
connects to so that active and reactive power unbalance at the distribution
transformer is minimized subject to voltage, unbalance and capacity limits.
Three fast formulation evaluators are cross-checked against an exact
unbalanced three-phase power flow.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .netmodel import (
    CaseSnapshot,
    DemandSeries,
    Network,
    build_snapshot,
    import_european_feeder,
    load_bundled_feeder,
    validate_radial,
)
from .powerflow import PFSolution, PhaseAssignment, power_balance_residual, solve_utpf
from .formulations import (
    AffineFit,
    EvaluationResult,
    evaluate_exact,
    evaluate_fixv,
    evaluate_lbfm,
    evaluate_linv,
    fit_inverse_voltage,
)
from .cli import SweepConfig, SweepReport, run_sweep, verify_accuracy, write_report_files
from .optimizer import (
    OptimizationOutcome,
    branch_and_bound,
    exhaustive,
    fixv_algorithm1,
    local_search,
    optimize_pv_q,
)

__all__ = [
    "AffineFit",
    "CaseSnapshot",
    "DemandSeries",
    "EvaluationResult",
    "Network",
    "OptimizationOutcome",
    "PFSolution",
    "PhaseAssignment",
    "SweepConfig",
    "SweepReport",
    "branch_and_bound",
    "build_snapshot",
    "evaluate_exact",
    "evaluate_fixv",
    "evaluate_lbfm",
    "evaluate_linv",
    "exhaustive",
    "fit_inverse_voltage",
    "fixv_algorithm1",
    "import_european_feeder",
    "load_bundled_feeder",
    "local_search",
    "optimize_pv_q",
    "power_balance_residual",
    "run_sweep",
    "solve_utpf",
    "validate_radial",
    "verify_accuracy",
    "write_report_files",
]
