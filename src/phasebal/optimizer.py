"""Assignment search over the formulation kernels.

Strategies: chunked exhaustive enumeration (lexicographic tie-break), the
same exact answer by a scan in ascending transformer spread pi, which
bounds each objective from below (branch-and-bound, separable models only),
and seeded best-improvement local search. On top of those, an iterated
fixed-voltage refinement re-solves the discrete problem while updating the
frozen voltage profile, and a cyclic coordinate descent tunes continuous
reactive adjustments after the discrete search.

`_model_evaluator` is the one lookup from a model name to its scalar
evaluator, and `_strategy` holds the one "auto" rule: branch-and-bound for
separable models within the enumeration budget, local search otherwise.
Every search keeps a choice only if the scalar model ranks it no worse
than the initial assignment, then verifies the outcome once: one exact
power flow for the chosen and one for the initial assignment (shared when
they coincide), carried in the outcome for reporting. The inner passes of
the iterated refinement decide on the model alone; only its final choice
is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .formulations import (
    _KERNELS,
    EvaluationResult,
    _Kernel,
    _make_kernel,
    _score,
    evaluate_exact,
    evaluate_fixv,
    evaluate_lbfm,
    evaluate_linv,
)
from .netmodel import CaseSnapshot
from .powerflow import PFSolution, PhaseAssignment, solve_utpf

__all__ = [
    "Algorithm1Options",
    "Algorithm1Step",
    "OptimizationOutcome",
    "SearchOptions",
    "branch_and_bound",
    "exhaustive",
    "fixv_algorithm1",
    "local_search",
    "optimize_pv_q",
]

_CHUNK = 6561  # candidates scored per exhaustive batch
_BLOCK = 512  # candidates field-scored per bound-ordered batch
_MAX_SWEEPS = 60  # best-improvement passes per local-search start


@dataclass(frozen=True)
class SearchOptions:
    """Knobs shared by the discrete search strategies."""

    strategy: str = "auto"  # "auto" or a key of _SEARCHES
    enumeration_budget: int = 3**12  # candidate cap for the exact searches
    restarts: int = 3  # random local-search starts beyond the initial point
    seed: int = 7

    def __post_init__(self) -> None:
        if self.strategy not in ("auto", *_SEARCHES):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.enumeration_budget < 1:
            raise ValueError("budgets must be positive")
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")


@dataclass(frozen=True)
class Algorithm1Options:
    """Iterated fixed-voltage refinement controls."""

    max_outer: int = 3  # discrete solves allowed (K)
    eps_v: float = 1e-4  # stop once the profile moves less than this
    warm_start: bool = False  # start from the exact initial-assignment profile

    def __post_init__(self) -> None:
        if self.max_outer < 1:
            raise ValueError("need at least one outer solve")
        if self.eps_v <= 0:
            raise ValueError("eps_v must be positive")


@dataclass(frozen=True)
class Algorithm1Step:
    """One outer iteration: assignment chosen and profile movement."""

    outer: int
    phases: tuple[int, ...]
    delta_v: float
    model_objective: float


@dataclass(frozen=True, eq=False)
class OptimizationOutcome:
    """Chosen assignment with model-view and exact-verification results."""

    method: str
    strategy: str
    assignment: PhaseAssignment
    model: EvaluationResult
    initial_model: EvaluationResult
    verified: EvaluationResult
    initial_verified: EvaluationResult
    candidates: int
    trace: tuple[Algorithm1Step, ...] = ()
    stats: Mapping[str, float] = field(default_factory=dict)
    q_adjust: np.ndarray | None = None

    @property
    def objective(self) -> float:
        return self.model.objective


def _model_evaluator(
    method: str, profile: np.ndarray | None = None
) -> Callable[[CaseSnapshot, PhaseAssignment, np.ndarray | None], EvaluationResult]:
    """The one lookup from a model name to its scalar evaluator."""

    if method == "fixv":
        return lambda snap, asg, q: evaluate_fixv(snap, asg, profile=profile, q_adjust=q)
    if method == "linv":
        return lambda snap, asg, q: evaluate_linv(snap, asg, q_adjust=q)
    if method == "lbfm":
        return lambda snap, asg, q: evaluate_lbfm(snap, asg, q_adjust=q)
    if method == "utpf":
        return lambda snap, asg, q: evaluate_exact(snap, asg, q_adjust=q)
    raise ValueError(f"unknown formulation {method!r}")


def _decode(indices: np.ndarray, width: int) -> np.ndarray:
    if width == 0:
        return np.zeros((len(indices), 0), dtype=np.int64)
    digits = np.unravel_index(indices, (3,) * width)
    return np.stack(digits, axis=1).astype(np.int64)


def _no_worse(
    snapshot: CaseSnapshot,
    method: str,
    chosen: PhaseAssignment,
    profile: np.ndarray | None,
    q_adjust: np.ndarray | None,
) -> tuple[PhaseAssignment, EvaluationResult, EvaluationResult, bool]:
    """Never keep anything the scalar model ranks below the status quo.

    Returns the kept assignment, its model view, the initial assignment's
    model view and whether the choice fell back to the initial assignment.
    """

    evaluator = _model_evaluator(method, profile)
    initial = PhaseAssignment.initial(snapshot.network)
    model = evaluator(snapshot, chosen, q_adjust)
    initial_model = evaluator(snapshot, initial, q_adjust)
    if model.objective > initial_model.objective:
        return initial, initial_model, initial_model, True
    return chosen, model, initial_model, False


def _finish(
    snapshot: CaseSnapshot,
    method: str,
    strategy: str,
    chosen: PhaseAssignment,
    candidates: int,
    stats: Mapping[str, float],
    profile: np.ndarray | None,
    q_adjust: np.ndarray | None,
    trace: tuple[Algorithm1Step, ...] = (),
    initial_solution: PFSolution | None = None,
) -> OptimizationOutcome:
    """Apply the no-worse check, then verify the kept and initial assignments.

    initial_solution, when the caller already solved the initial assignment
    exactly, stands in for that state's solve.
    """

    initial = PhaseAssignment.initial(snapshot.network)
    chosen, model, initial_model, fell_back = _no_worse(
        snapshot, method, chosen, profile, q_adjust
    )
    if fell_back:
        stats = dict(stats, fell_back_to_initial=1.0)

    initial_verified = evaluate_exact(
        snapshot, initial, q_adjust=q_adjust, solution=initial_solution
    )
    verified = (
        initial_verified
        if chosen.phases == initial.phases
        else evaluate_exact(snapshot, chosen, q_adjust=q_adjust)
    )
    return OptimizationOutcome(
        method=method,
        strategy=strategy,
        assignment=chosen,
        model=model,
        initial_model=initial_model,
        verified=verified,
        initial_verified=initial_verified,
        candidates=candidates,
        trace=trace,
        stats=dict(stats),
        q_adjust=None if q_adjust is None else np.asarray(q_adjust, dtype=float),
    )


def _enumerated(mm: int, options: SearchOptions) -> int:
    """The 3**mm candidates an exact search enumerates, checked against the budget."""

    total = 3**mm
    if total > options.enumeration_budget:
        raise ValueError(
            f"3^{mm} = {total} candidates exceed the enumeration budget "
            f"{options.enumeration_budget}; use local search or raise the budget"
        )
    return total


def _exhaustive_choices(
    kernel: _Kernel, options: SearchOptions, extra_starts: Sequence[Sequence[int]] = ()
) -> tuple[np.ndarray, int, dict[str, float]]:
    mm = kernel.n_movable
    total = _enumerated(mm, options)
    best_f = math.inf
    best_idx = 0
    for lo in range(0, total, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, total))
        score = kernel.score(_decode(idx, mm))
        i = int(np.argmin(score.objective))
        if score.objective[i] < best_f:
            best_f = float(score.objective[i])
            best_idx = lo + i
    return _decode(np.array([best_idx]), mm)[0], total, {}


def _pi_order(kernel: _Kernel) -> tuple[np.ndarray, np.ndarray]:
    """Every candidate's spread pi by flat index, and the indices stably sorted
    by it. The half-tables' outer sum adds up s_dt bit for bit as `score` does."""

    (sv1, _), (sv2, _) = kernel.halves
    s_dt = ((kernel.s_base + sv1)[:, None] + sv2[None, :]).reshape(-1, 3)
    pi = _score(kernel.limits, s_dt, ()).pi
    return pi, np.argsort(pi, kind="stable")


def _bnb_choices(
    kernel: _Kernel, options: SearchOptions, extra_starts: Sequence[Sequence[int]] = ()
) -> tuple[np.ndarray, int, dict[str, float]]:
    if not kernel.separable:
        raise ValueError(
            "branch-and-bound needs separable per-customer effects; "
            f"{kernel.method!r} must use exhaustive or local search"
        )
    mm = kernel.n_movable
    total = _enumerated(mm, options)
    pi, order = _pi_order(kernel)
    best_f, best_idx, scored = math.inf, 0, 0
    for lo in range(0, total, _BLOCK):
        block = order[lo:lo + _BLOCK]
        # The objective is pi plus a non-negative slack term, so once the
        # block's smallest pi exceeds the incumbent nothing left can tie it.
        if pi[block[0]] > best_f:
            break
        objective = kernel.score(_decode(block, mm)).objective
        scored += len(block)
        f = float(objective.min())
        i = int(block[objective == f].min())
        if f < best_f or (f == best_f and i < best_idx):
            best_f, best_idx = f, i
    return _decode(np.array([best_idx]), mm)[0], total, {"scored": float(scored)}


def _local_choices(
    kernel: _Kernel, options: SearchOptions, extra_starts: Sequence[Sequence[int]] = ()
) -> tuple[np.ndarray, int, dict[str, float]]:
    mm = kernel.n_movable
    rng = np.random.default_rng(options.seed)
    starts = [kernel.initial[kernel.movable].astype(np.int64)]
    starts.extend(np.asarray(s, dtype=np.int64) for s in extra_starts)
    starts.extend(rng.integers(0, 3, size=mm) for _ in range(options.restarts))

    best_f = math.inf
    best = starts[0].copy()
    evaluations = 0
    for start in starts:
        x = start.copy()
        f = float(kernel.score(x[None, :]).objective[0])
        evaluations += 1
        for _ in range(_MAX_SWEEPS):
            if mm == 0:
                break
            neighbors = np.repeat(x[None, :], 2 * mm, axis=0)
            row = 0
            for j in range(mm):
                for p in range(3):
                    if p != x[j]:
                        neighbors[row, j] = p
                        row += 1
            score = kernel.score(neighbors)
            evaluations += len(neighbors)
            i = int(np.argmin(score.objective))
            if score.objective[i] < f:
                f = float(score.objective[i])
                x = neighbors[i].copy()
            else:
                break
        if f < best_f:
            best_f = f
            best = x
    return best, evaluations, {"starts": float(len(starts))}


# Strategy name -> search over a kernel's movable customers, returning the
# best choices, the candidates scored and strategy statistics.
_SEARCHES = {
    "exhaustive": _exhaustive_choices,
    "branch-and-bound": _bnb_choices,
    "local": _local_choices,
}


def _verified_search(
    strategy: str,
    snapshot: CaseSnapshot,
    method: str,
    profile: np.ndarray | None,
    q_adjust: np.ndarray | None,
    options: SearchOptions | None,
    extra_starts: Sequence[Sequence[int]] = (),
) -> OptimizationOutcome:
    kernel = _make_kernel(snapshot, method, profile=profile, q_adjust=q_adjust)
    best, candidates, stats = _SEARCHES[strategy](kernel, options or SearchOptions(), extra_starts)
    return _finish(
        snapshot, method, strategy, kernel.assignment(best), candidates,
        stats, profile, q_adjust,
    )


def exhaustive(
    snapshot: CaseSnapshot,
    method: str = "fixv",
    profile: np.ndarray | None = None,
    q_adjust: np.ndarray | None = None,
    options: SearchOptions | None = None,
) -> OptimizationOutcome:
    """Score every assignment of the adjustable customers; ties break toward
    the lexicographically smallest phase tuple."""

    return _verified_search("exhaustive", snapshot, method, profile, q_adjust, options)


def branch_and_bound(
    snapshot: CaseSnapshot,
    method: str = "fixv",
    profile: np.ndarray | None = None,
    q_adjust: np.ndarray | None = None,
    options: SearchOptions | None = None,
) -> OptimizationOutcome:
    """Exact search that scores the fields only where the spread bound can win.

    Every candidate's transformer spread pi, a lower bound on its
    objective, is priced from the kernel's half-tables; the fields are then
    scored in ascending-pi blocks until a block's smallest pi exceeds the
    incumbent objective. Among equal objectives the smallest flat index
    wins, so the choice is exactly the exhaustive one. Requires a separable
    model (fixed-voltage or branch-flow) within the enumeration budget;
    stats["scored"] counts the field-scored candidates."""

    return _verified_search("branch-and-bound", snapshot, method, profile, q_adjust, options)


def local_search(
    snapshot: CaseSnapshot,
    method: str = "fixv",
    profile: np.ndarray | None = None,
    q_adjust: np.ndarray | None = None,
    options: SearchOptions | None = None,
    extra_starts: Sequence[Sequence[int]] = (),
) -> OptimizationOutcome:
    """Best-improvement descent over single-customer moves.

    Starts from the initial assignment, any extra starts, then seeded
    random restarts; each pass scores the whole one-move neighborhood and
    takes the best strict improvement."""

    return _verified_search(
        "local", snapshot, method, profile, q_adjust, options, extra_starts
    )


def _strategy(snapshot: CaseSnapshot, method: str, options: SearchOptions) -> str:
    """The one "auto" rule: the bound-ordered exact scan for a separable model
    whose candidates fit the enumeration budget, local search otherwise."""

    if options.strategy != "auto":
        return options.strategy
    small = 3**snapshot.n_adjustable <= options.enumeration_budget
    return "branch-and-bound" if _KERNELS[method].separable and small else "local"


def _search_once(
    snapshot: CaseSnapshot, method: str, options: SearchOptions
) -> OptimizationOutcome:
    """One verified search under method's model with the strategy `_strategy` picks.

    The public search functions are looked up by name when this runs, so
    the benchmark's traced run (bench/run.py) still sees every search.
    """

    search = {"exhaustive": exhaustive, "branch-and-bound": branch_and_bound, "local": local_search}
    return search[_strategy(snapshot, method, options)](snapshot, method, options=options)


# Search passes beyond this hold the incumbent assignment and only refresh
# the profile.  Near-tied argmins re-rank under profile updates of the same
# order as their fixed-point spread, so an exact solver can cycle through
# them indefinitely; holding after two passes keeps the remaining profile
# updates purely contractive.
_SEARCH_PASSES = 2


def fixv_algorithm1(
    snapshot: CaseSnapshot,
    algorithm: Algorithm1Options | None = None,
    search: SearchOptions | None = None,
    q_adjust: np.ndarray | None = None,
) -> OptimizationOutcome:
    """Iterated fixed-voltage refinement.

    Each outer pass solves the discrete assignment problem with customer
    currents frozen at the working voltage profile, then refreshes the
    profile from the chosen assignment's model voltages; it stops when the
    profile moves less than eps_v or the outer budget is spent. Cold runs
    start from the flat root-voltage profile, warm runs from the exact
    power flow of the initial assignment, which then also verifies the
    initial assignment. A pass keeps its choice only if
    the model at that pass's profile ranks it no worse than the initial
    assignment, and seeds the next pass's local search with it; only the
    final choice is verified against the exact power flow.

    Near-tied assignments can re-rank under the profile updates and trap
    the loop in a limit cycle (convergence of the iteration has no
    theoretical guarantee). Passes after the second therefore keep the
    incumbent assignment and only refresh the profile, which contracts
    geometrically to that assignment's fixed point; stats["pinned_outer"]
    records the first profile-only pass (0 when none was needed).

    The outcome's model view is evaluated at the profile the deciding
    search pass ran on, i.e. the estimate that actually selected the
    assignment; the trace records the loop's own profile convergence."""

    alg = algorithm or Algorithm1Options()
    opt = search or SearchOptions()
    network = snapshot.network
    initial = PhaseAssignment.initial(network)

    base = None
    if alg.warm_start:
        base = solve_utpf(snapshot, initial, q_adjust=q_adjust)
        profile = np.asarray(base.v)
    else:
        profile = np.tile(network.v0.values, (network.n_buses, 1))
    prev_profile = profile

    delta = math.inf
    outer = 0
    candidates = 0
    trace: list[Algorithm1Step] = []
    extra_starts: list[np.ndarray] = []
    current: PhaseAssignment | None = None
    pinned_outer = 0
    decide_profile = profile

    while delta > alg.eps_v and outer < alg.max_outer:
        outer += 1
        if outer <= _SEARCH_PASSES or current is None:
            decide_profile = profile
            kernel = _make_kernel(snapshot, "fixv", profile=profile, q_adjust=q_adjust)
            search_fn = _SEARCHES[_strategy(snapshot, "fixv", opt)]
            best, count, _ = search_fn(kernel, opt, extra_starts)
            candidates += count
            current, model, _, _ = _no_worse(
                snapshot, "fixv", kernel.assignment(best), profile, q_adjust
            )
            if outer < _SEARCH_PASSES:
                extra_starts = [np.asarray(current.phases, dtype=np.int64)[kernel.movable]]
        else:
            if not pinned_outer:
                pinned_outer = outer
            model = evaluate_fixv(snapshot, current, profile, q_adjust=q_adjust)
        new_profile = np.asarray(model.v)
        delta = float(np.max(np.abs(new_profile - prev_profile)))
        trace.append(
            Algorithm1Step(
                outer=outer,
                phases=current.phases,
                delta_v=delta,
                model_objective=model.objective,
            )
        )
        prev_profile = new_profile
        profile = new_profile

    assert current is not None
    return _finish(
        snapshot,
        "fixv",
        "algorithm1-warm" if alg.warm_start else "algorithm1-cold",
        current,
        candidates,
        {
            "outer": float(outer),
            "delta_v": float(delta),
            "pinned_outer": float(pinned_outer),
        },
        decide_profile,
        q_adjust,
        trace=tuple(trace),
        initial_solution=base,
    )


def _minimize_1d(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    t0: float,
    f0: float,
    coarse: int = 13,
    max_evals: int = 64,
) -> tuple[float, float, int]:
    """Coarse scan plus golden-section refinement; never worse than (t0, f0)."""

    points = np.unique(np.concatenate([np.linspace(lo, hi, coarse), [0.0, t0]]))
    points = points[(points >= lo) & (points <= hi)]
    values = []
    evals = 0
    for t in points:
        values.append(f0 if t == t0 else g(float(t)))
        evals += 1 if t != t0 else 0
    values = np.asarray(values)
    k = int(np.argmin(values))
    best_t, best_f = float(points[k]), float(values[k])

    a = float(points[max(0, k - 1)])
    b = float(points[min(len(points) - 1, k + 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = g(c), g(d)
    evals += 2
    while evals < max_evals and (b - a) > 1e-10 * max(1.0, hi - lo):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = g(d)
        evals += 1
    for t, f in ((c, fc), (d, fd)):
        if f < best_f:
            best_t, best_f = float(t), float(f)
    if f0 < best_f:
        best_t, best_f = t0, f0
    return best_t, best_f, evals


def optimize_pv_q(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    method: str = "fixv",
    profile: np.ndarray | None = None,
    q_start: np.ndarray | None = None,
    max_rounds: int = 8,
    sweep_tol: float = 1e-6,
) -> tuple[np.ndarray, EvaluationResult, Mapping[str, float]]:
    """Cyclic coordinate descent on the per-customer reactive adjustments.

    Customers with a non-degenerate reactive band are visited in ascending
    position; each coordinate is minimized over its band by a coarse scan
    plus golden-section refinement under the chosen model. The objective
    never increases; rounds stop once a full sweep improves by less than
    sweep_tol."""

    evaluator = _model_evaluator(method, profile)
    q = np.zeros(snapshot.network.n_customers) if q_start is None else np.array(q_start, dtype=float)
    free = [
        int(c)
        for c in range(snapshot.network.n_customers)
        if snapshot.q_hi_pu[c] - snapshot.q_lo_pu[c] > 0.0
    ]
    f_cur = evaluator(snapshot, assignment, q).objective
    total_evals = 1
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        f_round = f_cur
        for c in free:
            def g(t: float) -> float:
                trial = q.copy()
                trial[c] = t
                return evaluator(snapshot, assignment, trial).objective

            t_best, f_best, used = _minimize_1d(
                g, float(snapshot.q_lo_pu[c]), float(snapshot.q_hi_pu[c]),
                float(q[c]), f_cur,
            )
            total_evals += used
            if f_best < f_cur:
                q[c] = t_best
                f_cur = f_best
        if f_round - f_cur < sweep_tol:
            break
    final = evaluator(snapshot, assignment, q)
    return q, final, {"evaluations": float(total_evals), "rounds": float(rounds)}
