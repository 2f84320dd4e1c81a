"""Assignment search over the formulation kernels.

Strategies: exhaustive enumeration (lexicographic tie-break), the
same exact answer by a scan in ascending transformer spread pi, which bounds
each objective from below and stops once no candidate left can beat its
incumbent in (objective, index) order (branch-and-bound, separable models
only), and seeded best-improvement local search, whose linv kernel prices
in full only the neighbours whose spread pi can beat the incumbent.
Exhaustive enumeration is the reference the scan is tested against; no
sweep runs it. On top of those, the iterated fixed-voltage refinement (the
paper's Algorithm 1) solves the discrete problem at a frozen voltage
profile and refreshes the profile from its choice: two search passes from
the flat profile (cold), or one at the voltage profile the caller gives
(warm). A cyclic coordinate descent
tunes continuous reactive adjustments after the discrete search. The descent
prices each coordinate's points in batches through the model's line scorer,
objectives only: the coarse scan in one call, the first golden pair in
another, and the golden steps _AHEAD at a time, each call pricing every
point those steps can reach. The scalar evaluator runs only at the start and
the end; an end it ranks above the start is dropped for the start.

`_MODELS` is the one lookup from a model name to its scalar evaluator,
batch kernel class and PV-Q line builder; its kernel's `separable` flag
tells which searches a model admits: the bound-ordered scan needs a
separable kernel (fixv, lbfm) and the enumeration budget of 3**12
candidates, local search takes any. Which search a sweep's method runs is
the caller's rule (`cli._optimize_cell`). Each search, and each pass of
Algorithm 1, is one `_search`: the kernel, the search, then the scalar
guard, which keeps the choice only if the scalar model ranks it no worse
than the initial assignment. The searches decide on the model alone and
solve no exact power flow; the caller verifies their choice
(`cli._run_cell` in a sweep).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Mapping

import numpy as np

from .formulations import (
    EvaluationResult,
    _decode,
    _FixvKernel,
    _fixv_line,
    _fixv_profile,
    _Kernel,
    _LbfmKernel,
    _lbfm_line,
    _Line,
    _LinvKernel,
    _linv_line,
    evaluate_exact,
    evaluate_fixv,
    evaluate_lbfm,
    evaluate_linv,
)
from .netmodel import CaseSnapshot
from .powerflow import PhaseAssignment

# Bound here only so that the benchmark tracer (bench/run.py) finds it.
from .powerflow import solve_utpf  # noqa: F401

__all__ = [
    "Algorithm1Step",
    "OptimizationOutcome",
    "branch_and_bound",
    "exhaustive",
    "fixv_algorithm1",
    "local_search",
    "optimize_pv_q",
]

_BLOCK = 512  # candidates field-scored per bound-ordered batch
_MAX_SWEEPS = 60  # best-improvement passes per local-search start
_ENUMERATION_BUDGET = 3**12  # candidate cap for the exact searches
_RESTARTS = 3  # random local-search starts beyond the initial point


@dataclass(frozen=True)
class Algorithm1Step:
    """One search pass: assignment chosen and profile movement."""

    outer: int
    phases: tuple[int, ...]
    delta_v: float
    model_objective: float


@dataclass(frozen=True, eq=False)
class OptimizationOutcome:
    """What one `_search` kept: the chosen assignment with its and the
    initial assignment's model views; fixv_algorithm1 adds its passes'
    trace. The caller verifies it against the exact power flow."""

    method: str
    strategy: str
    assignment: PhaseAssignment
    model: EvaluationResult
    initial_model: EvaluationResult
    candidates: int
    trace: tuple[Algorithm1Step, ...] = ()
    stats: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Model:
    """One formulation: its scalar evaluator, batch kernel class and PV-Q
    line builder; the exact power flow (utpf) has neither of the last two.

    evaluate(snapshot, assignment, q_adjust, profile) calls the evaluator by
    its module-level name, so a wrapper put there (bench/tracer.py) sees
    every call. Only fixv reads profile, in all three parts.
    """

    evaluate: Callable[..., EvaluationResult]
    kernel: type[_Kernel] | None
    line: Callable[[CaseSnapshot, np.ndarray, np.ndarray | None], _Line] | None


_MODELS = {
    "utpf": _Model(lambda s, a, q, v: evaluate_exact(s, a, q_adjust=q), None, None),
    "fixv": _Model(
        lambda s, a, q, v: evaluate_fixv(s, a, profile=v, q_adjust=q), _FixvKernel, _fixv_line
    ),
    "linv": _Model(lambda s, a, q, v: evaluate_linv(s, a, q_adjust=q), _LinvKernel, _linv_line),
    "lbfm": _Model(lambda s, a, q, v: evaluate_lbfm(s, a, q_adjust=q), _LbfmKernel, _lbfm_line),
}


def _model(method: str, part: str = "evaluate") -> _Model:
    """method's `_MODELS` entry, which must have the part the caller reads."""

    model = _MODELS.get(method)
    if model is None:
        raise ValueError(f"unknown formulation {method!r}")
    if getattr(model, part) is None:
        raise ValueError(f"formulation {method!r} has no {part}; it only verifies")
    return model


def _enumerated(mm: int) -> int:
    """The 3**mm candidates an exact search enumerates, checked against the budget."""

    total = 3**mm
    if total > _ENUMERATION_BUDGET:
        raise ValueError(
            f"3^{mm} = {total} candidates exceed the enumeration budget "
            f"of {_ENUMERATION_BUDGET}: {mm} switch customers are too many to search exactly"
        )
    return total


def _exhaustive_choices(kernel: _Kernel) -> tuple[np.ndarray, int, dict[str, float]]:
    mm = kernel.n_movable
    total = _enumerated(mm)
    # argmin takes the first least objective, the smallest flat index.
    best_idx = int(np.argmin(kernel.score(_decode(np.arange(total), mm))))
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
    best_f = float(kernel.score(_decode(np.array([best_idx]), mm))[0])
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
        objective = kernel.score(_decode(block, mm))
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
    evaluations = scored = 0
    for start in starts:
        x = start.copy()
        f = float(kernel.score(x[None, :])[0])
        evaluations += 1
        scored += 1
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
            # Only a neighbour whose pi is below f can improve on it; the
            # kernel may return +inf for the others instead of pricing them.
            objective = kernel.score(neighbors, f)
            evaluations += len(neighbors)
            scored += int(np.count_nonzero(objective != np.inf))
            i = int(np.argmin(objective))
            if objective[i] < f:
                f = float(objective[i])
                x = neighbors[i].copy()
            else:
                break
        if f < best_f:
            best_f = f
            best = x
    return best, evaluations, {"starts": float(len(starts)), "scored": float(scored)}


def _search(
    strategy: str,
    search: Callable[[_Kernel], tuple[np.ndarray, int, dict[str, float]]],
    snapshot: CaseSnapshot,
    method: str,
    profile: np.ndarray | None = None,
) -> OptimizationOutcome:
    """One search pass: build method's kernel at profile, run search, which
    maps a kernel to its best movable choices, the candidates scored and
    strategy statistics, then guard the choice with the scalar model at
    profile. A choice it ranks worse than the initial assignment is dropped
    for the initial assignment, and stats["fell_back_to_initial"] is 1.0."""

    model = _model(method, "kernel")
    kernel = model.kernel(snapshot, profile)
    best, candidates, stats = search(kernel)
    chosen = kernel.assignment(best)
    initial = PhaseAssignment.initial(snapshot.network)
    chosen_model = model.evaluate(snapshot, chosen, None, profile)
    initial_model = model.evaluate(snapshot, initial, None, profile)
    if chosen_model.objective > initial_model.objective:
        chosen, chosen_model = initial, initial_model
        stats = dict(stats, fell_back_to_initial=1.0)
    return OptimizationOutcome(
        method, strategy, chosen, chosen_model, initial_model, candidates, stats=stats
    )


def exhaustive(snapshot: CaseSnapshot, method: str) -> OptimizationOutcome:
    """Score every assignment of the adjustable customers; ties break toward
    the lexicographically smallest phase tuple."""

    return _search("exhaustive", _exhaustive_choices, snapshot, method)


def branch_and_bound(snapshot: CaseSnapshot, method: str) -> OptimizationOutcome:
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

    return _search("branch-and-bound", _bnb_choices, snapshot, method)


def local_search(snapshot: CaseSnapshot, method: str, seed: int) -> OptimizationOutcome:
    """Best-improvement descent over single-customer moves, under any
    model's kernel; a sweep runs it for linv, whose kernel is not separable.

    Starts from the initial assignment, then _RESTARTS random restarts
    drawn from seed; each pass scores the whole one-move neighborhood and
    takes the best strict improvement. The incumbent objective bounds the
    scoring (`_Kernel.score`): a neighbour whose spread pi is not below it
    cannot improve, and the kernel may return +inf for it unpriced. The
    others keep their objectives bit for bit, so the path and the choice
    are those of pricing every neighbour. candidates counts every start and
    neighbour; stats["scored"] those priced in full, the starts included."""

    return _search("local", partial(_local_choices, seed=seed), snapshot, method)


def fixv_algorithm1(snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> OptimizationOutcome:
    """Iterated fixed-voltage refinement.

    Each pass is one `_search`: the bound-ordered scan with customer
    currents frozen at the working voltage profile, then the scalar guard
    at that profile; the kept assignment's model voltages become the next
    profile. Given no profile, the cold run makes two passes: the first
    from the flat root-voltage profile, the second at the first pass's
    refreshed profile. Given a (buses, 3) profile, the warm run makes one
    pass at it; a sweep passes the exact power flow of the initial
    assignment. The scan raises ValueError beyond the enumeration budget.
    The passes' candidates and "scored" counts are summed, and
    stats["fell_back_to_initial"] is 1.0 when any pass fell back.

    The outcome is the last pass's, so its model view is evaluated at the
    profile that pass searched, i.e. the estimate that actually selected
    the assignment; the trace records each pass's choice and how far it
    moved the profile, and stats["delta_v"] is the last pass's movement."""

    warm = profile is not None
    strategy = "algorithm1-warm" if warm else "algorithm1-cold"
    if not warm:
        profile = _fixv_profile(snapshot.network, None)

    candidates = 0
    trace: list[Algorithm1Step] = []
    stats: dict[str, float] = {}
    for outer in range(1, 2 if warm else 3):
        outcome = _search(strategy, _bnb_choices, snapshot, "fixv", profile)
        candidates += outcome.candidates
        for key, value in outcome.stats.items():
            stats[key] = value if key == "fell_back_to_initial" else stats.get(key, 0.0) + value
        decide_profile, profile = profile, np.asarray(outcome.model.v)
        delta = float(np.max(np.abs(profile - decide_profile)))
        trace.append(Algorithm1Step(outer, outcome.assignment.phases, delta, outcome.model.objective))

    stats = {"outer": float(len(trace)), "delta_v": delta, **stats}
    return replace(outcome, candidates=candidates, trace=tuple(trace), stats=stats)


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
    """The points the next `steps` golden steps from a bracket can add, on either
    branch, one step's brackets at a time."""

    points: list[float] = []
    brackets = [(a, b, c, d)]
    for _ in range(steps):
        grown = []
        for bracket in brackets:
            for left in (True, False):
                after, t = _golden_step(*bracket, left)
                grown.append(after)
                points.append(t)
        brackets = grown
    return points


def _minimize_1d(
    g: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, t0: float, f0: float
) -> tuple[float, float, int]:
    """Coarse scan plus golden-section refinement; never worse than (t0, f0).

    g maps an array of points to their objectives, each row on its own, so
    a point's value does not depend on the batch it is priced in. A line
    scorer's g leaves out a voltage slack only where its per-coordinate
    screen proves it +0.0 across the band, which changes no value. The
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
    fc, fd = g(np.array([c, d])).tolist()
    evals += 2
    priced: dict[float, float] = {}
    while evals < _MAX_EVALS and (b - a) > 1e-10 * max(1.0, hi - lo):
        left = fc < fd
        (a, b, c, d), t = _golden_step(a, b, c, d, left)
        if t not in priced:
            ahead = [t, *_reachable(a, b, c, d, _AHEAD - 1)]
            priced.update(zip(ahead, g(np.array(ahead)).tolist()))
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
    method: str,
    profile: np.ndarray | None = None,
) -> tuple[np.ndarray, EvaluationResult, Mapping[str, float]]:
    """Cyclic coordinate descent on the per-customer reactive adjustments.

    The descent starts from zero adjustments. Customers with a
    non-degenerate reactive band are visited in ascending position; each
    coordinate is minimized over its band by a coarse scan plus
    golden-section refinement under the chosen model. The points of a
    coordinate are priced by the model's line scorer (its `_MODELS` line),
    which returns objectives only, in a few batched calls per coordinate
    (see `_minimize_1d`); the scalar evaluator prices only the start and
    the final state. A line prices pi and the transformer-current slack at
    every point, and a voltage slack only when its screen, made once per
    coordinate under every model, cannot prove it +0.0 across the
    customer's band; a slack left out is zero at every point it would have
    priced, so each objective, and so each q, is what pricing all four
    slacks gives, bit for bit. Rounds stop once a full sweep improves by
    less than _SWEEP_TOL, or after _MAX_ROUNDS. Line objectives match the
    scalar ones to rounding only, so a final state the scalar model ranks
    above the start is dropped for the start: the objective never
    increases.
    stats["f_start"] is the start's scalar objective and
    stats["evaluations"] counts the start and every point the descent steps
    through, not the points priced ahead of the golden steps and never
    reached."""

    model = _model(method, "line")
    q = np.zeros(snapshot.network.n_customers)
    free = [
        int(c)
        for c in range(snapshot.network.n_customers)
        if snapshot.q_hi_pu[c] - snapshot.q_lo_pu[c] > 0.0
    ]
    start_q = q.copy()
    start = model.evaluate(snapshot, assignment, q, profile)
    line = model.line(snapshot, np.asarray(assignment.phases, dtype=int), profile)
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
    final = model.evaluate(snapshot, assignment, q, profile)
    if final.objective > start.objective:
        q, final = start_q, start
    stats = {"evaluations": float(total_evals), "rounds": float(rounds), "f_start": start.objective}
    return q, final, stats
