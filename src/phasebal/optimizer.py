"""Assignment search over the formulation kernels.

Strategies: chunked exhaustive enumeration (lexicographic tie-break), the
same exact answer by a scan in ascending transformer spread pi, which bounds
each objective from below and stops once no candidate left can beat its
incumbent in (objective, index) order (branch-and-bound, separable models
only), and seeded best-improvement local search. Exhaustive enumeration is
the reference the scan is tested against; no sweep runs it. On top of those,
the iterated fixed-voltage refinement (the paper's Algorithm 1) solves the
discrete problem at a frozen voltage profile and refreshes the profile from
its choice: two search passes from the flat profile (cold), or one at the
exact profile of the initial assignment (warm). A cyclic coordinate descent
tunes continuous reactive adjustments after the discrete search. The descent
prices each coordinate's points in batches through the model's line scorer
(`formulations._line_scorer`), objectives only: the coarse scan in one call,
the first golden pair in another, and the golden steps _AHEAD at a time,
each call pricing every point those steps can reach. The scalar evaluator
runs only at the start and the end; an end the scalar model ranks above the
start is dropped for the start.

`_model_evaluator` is the one lookup from a model name to its scalar
evaluator, and `_strategy` holds the one search policy, which no caller
overrides: branch-and-bound for separable models within the enumeration
budget of 3**12 candidates, local search otherwise. Every search keeps a
choice only if the scalar model ranks it no worse than the initial
assignment, then verifies the outcome once: one exact power flow for the
chosen and one for the initial assignment (shared when they coincide),
carried in the outcome for reporting. The passes of the iterated
refinement decide on the model alone; only its final choice is verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .formulations import (
    _KERNELS,
    EvaluationResult,
    _decode,
    _Kernel,
    _line_scorer,
    _make_kernel,
    evaluate_exact,
    evaluate_fixv,
    evaluate_lbfm,
    evaluate_linv,
)
from .netmodel import CaseSnapshot
from .powerflow import PFSolution, PhaseAssignment, solve_utpf

__all__ = [
    "Algorithm1Step",
    "OptimizationOutcome",
    "branch_and_bound",
    "exhaustive",
    "fixv_algorithm1",
    "local_search",
    "optimize_pv_q",
]

_CHUNK = 6561  # candidates scored per exhaustive batch
_BLOCK = 512  # candidates field-scored per bound-ordered batch
_MAX_SWEEPS = 60  # best-improvement passes per local-search start
_ENUMERATION_BUDGET = 3**12  # candidate cap for the exact searches
_RESTARTS = 3  # random local-search starts beyond the initial point
_SEED = 7  # seed of those starts when the caller gives none


@dataclass(frozen=True)
class Algorithm1Step:
    """One search pass: assignment chosen and profile movement."""

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


def _no_worse(
    snapshot: CaseSnapshot,
    method: str,
    chosen: PhaseAssignment,
    profile: np.ndarray | None,
) -> tuple[PhaseAssignment, EvaluationResult, EvaluationResult, bool]:
    """Never keep anything the scalar model ranks below the status quo.

    Returns the kept assignment, its model view, the initial assignment's
    model view and whether the choice fell back to the initial assignment.
    """

    evaluator = _model_evaluator(method, profile)
    initial = PhaseAssignment.initial(snapshot.network)
    model = evaluator(snapshot, chosen, None)
    initial_model = evaluator(snapshot, initial, None)
    if model.objective > initial_model.objective:
        return initial, initial_model, initial_model, True
    return chosen, model, initial_model, False


def _finish(
    snapshot: CaseSnapshot,
    method: str,
    strategy: str,
    kept: tuple[PhaseAssignment, EvaluationResult, EvaluationResult, bool],
    candidates: int,
    stats: Mapping[str, float],
    trace: tuple[Algorithm1Step, ...] = (),
    initial_solution: PFSolution | None = None,
) -> OptimizationOutcome:
    """Verify the kept and initial assignments of a `_no_worse` result.

    kept is that result; its flag, set when the search fell back to the
    initial assignment, becomes stats["fell_back_to_initial"].
    initial_solution, when the caller already solved the initial assignment
    exactly, stands in for that state's solve.
    """

    initial = PhaseAssignment.initial(snapshot.network)
    chosen, model, initial_model, fell_back = kept
    if fell_back:
        stats = dict(stats, fell_back_to_initial=1.0)

    initial_verified = evaluate_exact(snapshot, initial, solution=initial_solution)
    verified = (
        initial_verified
        if chosen.phases == initial.phases
        else evaluate_exact(snapshot, chosen)
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
    )


def _enumerated(mm: int) -> int:
    """The 3**mm candidates an exact search enumerates, checked against the budget."""

    total = 3**mm
    if total > _ENUMERATION_BUDGET:
        raise ValueError(
            f"3^{mm} = {total} candidates exceed the enumeration budget "
            f"{_ENUMERATION_BUDGET}; use local search"
        )
    return total


def _exhaustive_choices(kernel: _Kernel) -> tuple[np.ndarray, int, dict[str, float]]:
    mm = kernel.n_movable
    total = _enumerated(mm)
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


def _bnb_choices(kernel: _Kernel) -> tuple[np.ndarray, int, dict[str, float]]:
    if not kernel.separable:
        raise ValueError(
            "branch-and-bound needs separable per-customer effects; "
            f"{kernel.method!r} must use exhaustive or local search"
        )
    mm = kernel.n_movable
    total = _enumerated(mm)
    pi = kernel.spreads()
    # The first incumbent is the smallest-index candidate of least pi.
    best_idx = int(np.argmin(pi))
    best_f = float(kernel.score(_decode(np.array([best_idx]), mm)).objective[0])
    scored = 1
    # The objective is pi plus a non-negative slack term, so only candidates
    # with pi <= best_f can still win; a stable sort lists them in
    # (pi, index) order, their order among all candidates. The incumbent
    # is already scored.
    live = np.flatnonzero(pi <= best_f)
    live = live[live != best_idx]
    order = live[np.argsort(pi[live], kind="stable")]
    for lo in range(0, len(order), _BLOCK):
        block = order[lo:lo + _BLOCK]
        # Nothing from the block's head on can beat the incumbent in
        # (objective, index) order once the head itself cannot.
        head = int(block[0])
        if pi[head] > best_f or (pi[head] == best_f and head >= best_idx):
            break
        objective = kernel.score(_decode(block, mm)).objective
        scored += len(block)
        f = float(objective.min())
        i = int(block[objective == f].min())
        if f < best_f or (f == best_f and i < best_idx):
            best_f, best_idx = f, i
    return _decode(np.array([best_idx]), mm)[0], total, {"scored": float(scored)}


def _local_choices(kernel: _Kernel, seed: int) -> tuple[np.ndarray, int, dict[str, float]]:
    mm = kernel.n_movable
    rng = np.random.default_rng(seed)
    starts = [kernel.initial[kernel.movable].astype(np.int64)]
    starts.extend(rng.integers(0, 3, size=mm) for _ in range(_RESTARTS))

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


def _verified_search(
    strategy: str,
    search: Callable[[_Kernel], tuple[np.ndarray, int, dict[str, float]]],
    snapshot: CaseSnapshot,
    method: str,
) -> OptimizationOutcome:
    """Run search, which maps a kernel to its best movable choices, the
    candidates scored and strategy statistics, then verify its choice."""

    kernel = _make_kernel(snapshot, method)
    best, candidates, stats = search(kernel)
    kept = _no_worse(snapshot, method, kernel.assignment(best), None)
    return _finish(snapshot, method, strategy, kept, candidates, stats)


def exhaustive(snapshot: CaseSnapshot, method: str = "fixv") -> OptimizationOutcome:
    """Score every assignment of the adjustable customers; ties break toward
    the lexicographically smallest phase tuple."""

    return _verified_search("exhaustive", _exhaustive_choices, snapshot, method)


def branch_and_bound(snapshot: CaseSnapshot, method: str = "fixv") -> OptimizationOutcome:
    """Exact search that scores the fields only where the spread bound can win.

    Every candidate's transformer spread pi, a lower bound on its
    objective, is priced from the kernel's half-tables. The first incumbent
    is the smallest-index candidate of least pi, scored alone; the
    candidates whose pi does not exceed its objective are then scored in
    (pi, index) order, in blocks, until a block's first candidate cannot
    beat the incumbent: its pi exceeds the incumbent objective, or equals
    it at an index no smaller than the incumbent's. Among equal objectives the smallest flat index
    wins, so the choice is exactly the exhaustive one. Requires a separable
    model (fixed-voltage or branch-flow) within the enumeration budget;
    stats["scored"] counts the field-scored candidates, the first
    incumbent included."""

    return _verified_search("branch-and-bound", _bnb_choices, snapshot, method)


def local_search(
    snapshot: CaseSnapshot, method: str = "fixv", seed: int = _SEED
) -> OptimizationOutcome:
    """Best-improvement descent over single-customer moves.

    Starts from the initial assignment, then _RESTARTS random restarts
    drawn from seed; each pass scores the whole one-move neighborhood and
    takes the best strict improvement."""

    return _verified_search("local", partial(_local_choices, seed=seed), snapshot, method)


def _strategy(snapshot: CaseSnapshot, method: str) -> str:
    """The one search policy: the bound-ordered exact scan for a separable
    model whose candidates fit the enumeration budget, local search otherwise."""

    small = 3**snapshot.n_adjustable <= _ENUMERATION_BUDGET
    return "branch-and-bound" if _KERNELS[method].separable and small else "local"


def _search_once(snapshot: CaseSnapshot, method: str, seed: int) -> OptimizationOutcome:
    """One verified search under method's model with the strategy `_strategy` picks.

    The public search functions are looked up by name when this runs, so
    the benchmark's traced run (bench/run.py) still sees every search.
    """

    if _strategy(snapshot, method) == "local":
        return local_search(snapshot, method, seed=seed)
    return branch_and_bound(snapshot, method)


def fixv_algorithm1(
    snapshot: CaseSnapshot, warm: bool = False, seed: int = _SEED
) -> OptimizationOutcome:
    """Iterated fixed-voltage refinement.

    A search pass solves the discrete assignment problem with customer
    currents frozen at the working voltage profile, keeps its choice only
    if the model at that profile ranks it no worse than the initial
    assignment, and refreshes the profile from the kept assignment's model
    voltages. The cold run makes two passes: the first from the flat
    root-voltage profile, the second at the first pass's refreshed profile.
    The warm run makes one pass at the exact power flow of the initial
    assignment, whose solve then also verifies the initial assignment. Only
    the final choice is verified against the exact power flow. The search
    passes' own statistics (the bound-ordered scan's "scored", local
    search's "starts") are summed into stats, and
    stats["fell_back_to_initial"] is set when any pass fell back.

    The outcome's model view is evaluated at the profile the last pass
    searched, i.e. the estimate that actually selected the assignment; the
    trace records each pass's choice and how far it moved the profile, and
    stats["delta_v"] is the last pass's movement. seed draws local search's
    random restarts."""

    network = snapshot.network
    base = None
    if warm:
        base = solve_utpf(snapshot, PhaseAssignment.initial(network))
        profile = np.asarray(base.v)
    else:
        profile = np.tile(network.v0, (network.n_buses, 1))

    local = _strategy(snapshot, "fixv") == "local"
    search = partial(_local_choices, seed=seed) if local else _bnb_choices
    candidates = 0
    trace: list[Algorithm1Step] = []
    search_stats: dict[str, float] = {}
    fell_back = False
    for outer in range(1, 2 if warm else 3):
        kernel = _make_kernel(snapshot, "fixv", profile=profile)
        best, count, pass_stats = search(kernel)
        candidates += count
        for key, value in pass_stats.items():
            search_stats[key] = search_stats.get(key, 0.0) + value
        current, model, initial_model, pass_fell_back = _no_worse(
            snapshot, "fixv", kernel.assignment(best), profile
        )
        fell_back = fell_back or pass_fell_back
        decide_profile, profile = profile, np.asarray(model.v)
        delta = float(np.max(np.abs(profile - decide_profile)))
        trace.append(
            Algorithm1Step(
                outer=outer,
                phases=current.phases,
                delta_v=delta,
                model_objective=model.objective,
            )
        )

    return _finish(
        snapshot,
        "fixv",
        "algorithm1-warm" if warm else "algorithm1-cold",
        (current, model, initial_model, fell_back),
        candidates,
        {"outer": float(len(trace)), "delta_v": delta, **search_stats},
        trace=tuple(trace),
        initial_solution=base,
    )


_COARSE = 13  # evenly spaced points of a coordinate's coarse scan
_MAX_EVALS = 64  # points scored per coordinate, coarse scan included
_SWEEP_TOL = 1e-6  # a round improving the objective by less ends the descent
_MAX_ROUNDS = 8  # full sweeps over the free coordinates at most
_AHEAD = 4  # golden steps whose reachable points are priced in one call
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio


def _golden_step(
    a: float, b: float, c: float, d: float, left: bool
) -> tuple[tuple[float, float, float, float], float]:
    """One golden step on the bracket a < c < d < b: keep [a, d] when left,
    else [c, b]. Returns the new (a, b, c, d) and the point it adds."""

    if left:
        b, d = d, c
        c = b - _INV_PHI * (b - a)
        return (a, b, c, d), c
    a, c = c, d
    d = a + _INV_PHI * (b - a)
    return (a, b, c, d), d


def _reachable(a: float, b: float, c: float, d: float, steps: int) -> list[float]:
    """The points the next `steps` golden steps from a bracket can add, on either branch."""

    points = []
    for left in (True, False) if steps else ():
        bracket, t = _golden_step(a, b, c, d, left)
        points.append(t)
        points.extend(_reachable(*bracket, steps - 1))
    return points


def _minimize_1d(
    g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, t0: float, f0: float
) -> tuple[float, float, int]:
    """Coarse scan plus golden-section refinement; never worse than (t0, f0).

    g maps an array of points to their objectives, each row on its own, so
    a point's value does not depend on the batch it is priced in. The
    coarse scan is one call and the first golden pair another. Each golden
    step depends on the last, so when a step's point is not yet priced, one
    call prices every point the next _AHEAD steps can reach (1 + 2 + 4 + 8);
    the steps then read their values from it. The steps taken, their points
    and the count returned are those of pricing one point per step.
    """

    points = np.unique(np.concatenate([np.linspace(lo, hi, _COARSE), [0.0, t0]]))
    points = points[(points >= lo) & (points <= hi)]
    new = points != t0
    values = np.full(len(points), f0)
    values[new] = g(points[new])
    evals = int(new.sum())
    k = int(np.argmin(values))
    best_t, best_f = float(points[k]), float(values[k])

    a = float(points[max(0, k - 1)])
    b = float(points[min(len(points) - 1, k + 1)])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = (float(f) for f in g(np.array([c, d])))
    evals += 2
    priced: dict[float, float] = {}
    while evals < _MAX_EVALS and (b - a) > 1e-10 * max(1.0, hi - lo):
        left = fc < fd
        (a, b, c, d), t = _golden_step(a, b, c, d, left)
        if t not in priced:
            ahead = [t, *_reachable(a, b, c, d, _AHEAD - 1)]
            priced.update(zip(ahead, (float(f) for f in g(np.array(ahead)))))
        if left:
            fc, fd = priced[t], fc
        else:
            fc, fd = fd, priced[t]
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
) -> tuple[np.ndarray, EvaluationResult, Mapping[str, float]]:
    """Cyclic coordinate descent on the per-customer reactive adjustments.

    The descent starts from zero adjustments. Customers with a
    non-degenerate reactive band are visited in ascending position; each
    coordinate is minimized over its band by a coarse scan plus
    golden-section refinement under the chosen model. The points of a
    coordinate are priced by the model's line scorer (`_line_scorer`),
    which returns objectives only, in a few batched calls per coordinate
    (see `_minimize_1d`); the scalar evaluator prices only the start and
    the final state. Rounds stop once a full sweep improves by less than
    _SWEEP_TOL, or after _MAX_ROUNDS. Line objectives match the scalar
    ones to rounding only, so a final state the scalar model ranks above
    the start is dropped for the start: the objective never increases.
    stats["f_start"] is the start's scalar objective and
    stats["evaluations"] counts the start and every point the descent steps
    through, not the points priced ahead of the golden steps and never
    reached."""

    evaluator = _model_evaluator(method, profile)
    line = _line_scorer(snapshot, assignment, method, profile)
    q = np.zeros(snapshot.network.n_customers)
    free = [
        int(c)
        for c in range(snapshot.network.n_customers)
        if snapshot.q_hi_pu[c] - snapshot.q_lo_pu[c] > 0.0
    ]
    start_q = q.copy()
    start = evaluator(snapshot, assignment, q)
    f_cur = start.objective
    total_evals = 1
    rounds = 0
    for _ in range(_MAX_ROUNDS):
        rounds += 1
        f_round = f_cur
        for c in free:
            t_best, f_best, used = _minimize_1d(
                line(q, c), float(snapshot.q_lo_pu[c]), float(snapshot.q_hi_pu[c]),
                float(q[c]), f_cur,
            )
            total_evals += used
            if f_best < f_cur:
                q[c] = t_best
                f_cur = f_best
        if f_round - f_cur < _SWEEP_TOL:
            break
    final = evaluator(snapshot, assignment, q)
    if final.objective > start.objective:
        q, final = start_q, start
    stats = {"evaluations": float(total_evals), "rounds": float(rounds), "f_start": start.objective}
    return q, final, stats
