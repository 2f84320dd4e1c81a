"""Steady-state formulations sharing one phase-balancing objective.

Every formulation prices an assignment the same way: the largest pairwise
spread of the transformer's per-phase active and reactive power, plus a
big-M penalty on slack against voltage-magnitude, voltage-unbalance and
transformer-current limits. What differs is the voltage model:

* fixed-voltage: customer currents frozen at a given voltage profile and
  replayed through the path impedances, exact at the profile's fixed point;
* linearized-inverse: currents affine in the local bus voltage through a
  fitted approximation of 1/conj(V), closed by a fixed point over the
  customers' own voltages;
* lossless branch-flow: squared-magnitude voltage propagation with
  nominally rotated per-phase flows and no voltage feedback at all.

All evaluators return the same result shape, so search code can score
assignments under any model and verify winners against the exact power
flow. The private batch kernels score many assignments at once and are the
workhorses behind enumeration and local search; `_make_kernel` is the one
lookup from a model name to its kernel class, whose `separable` attribute
tells search code whether the model's customer effects add up. For any
batch of model states, a single state included, `_slack_terms` computes
the limit slacks and `_score` the objective, so the scalar evaluators and
the kernels price an assignment identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

import numpy as np

from .netmodel import CaseSnapshot, Limits, Network, Phasor3
from .powerflow import (
    PFSolution,
    PhaseAssignment,
    _effective_loads,
    check_assignment,
    feeder_geometry,
    power_balance_residual,
    solve_utpf,
)

CHI = complex(np.exp(-2j * np.pi / 3))
# Row vector turning phase values into 3x the negative-sequence component.
_NEG_ROW = np.array([1.0, CHI, CHI**2], dtype=complex)
# BETA[phi, p]: assumed voltage ratio V_phi / V_p under exact 120 deg spacing.
BETA = np.array([[CHI ** ((phi - p) % 3) for p in range(3)] for phi in range(3)])

__all__ = [
    "AffineFit",
    "EvaluationResult",
    "FormulationError",
    "Limits",
    "Slacks",
    "dt_unbalance",
    "evaluate_exact",
    "evaluate_fixv",
    "evaluate_lbfm",
    "evaluate_linv",
    "fit_inverse_voltage",
    "negative_sequence",
]


class FormulationError(RuntimeError):
    """A formulation could not be evaluated on the given case."""


def negative_sequence(v: np.ndarray) -> np.ndarray | complex:
    """Negative-sequence component (V_a + chi*V_b + chi^2*V_c) / 3.

    Accepts any (..., 3) complex array; returns a scalar for a single phasor.
    """

    arr = np.asarray(getattr(v, "values", v), dtype=complex)
    if arr.shape[-1] != 3:
        raise ValueError("phase values must lie along a final axis of size 3")
    out = arr @ (_NEG_ROW / 3.0)
    return complex(out) if out.ndim == 0 else out


def dt_unbalance(s_dt: np.ndarray) -> float:
    """Largest pairwise gap among per-phase P and among per-phase Q."""

    s = np.asarray(s_dt, dtype=complex)
    if s.shape != (3,):
        raise ValueError("expected the three per-phase transformer powers")
    return float(max(np.ptp(s.real), np.ptp(s.imag)))


@dataclass(frozen=True, eq=False)
class Slacks:
    """Non-negative limit violations; voltage entries per bus, current per phase.

    When squared_voltage_units is set (branch-flow model) v_lo, v_hi and
    neg_seq are expressed in squared per-unit, matching that model's
    constraint space; they still sum into the objective unconverted.
    """

    v_lo: np.ndarray  # (buses,)
    v_hi: np.ndarray  # (buses,)
    neg_seq: np.ndarray  # (buses,)
    i_dt: np.ndarray  # (3,)
    squared_voltage_units: bool = False

    def __post_init__(self) -> None:
        for nameattr in ("v_lo", "v_hi", "neg_seq", "i_dt"):
            arr = np.asarray(getattr(self, nameattr), dtype=float)
            if np.any(arr < 0):
                raise ValueError(f"{nameattr} slack must be non-negative")
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)

    def total(self) -> float:
        return float(
            self.v_lo.sum() + self.v_hi.sum() + self.neg_seq.sum() + self.i_dt.sum()
        )


def _voltage_measures(
    v: np.ndarray, nominal: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower-bound measure, |V| and negative-sequence phasor of a voltage field.

    v is (..., buses, 3). The lower bound tests |V|, or, with nominal phasors
    given, the projection X cos(d) + Y sin(d) onto their directions, which is
    how the linearized model treats the lower magnitude bound.
    """

    vm = np.abs(v)
    lo = vm
    if nominal is not None:
        ang = np.angle(nominal)
        lo = v.real * np.cos(ang) + v.imag * np.sin(ang)
    return lo, vm, v @ (_NEG_ROW / 3.0)


def _phase_min(x: np.ndarray) -> np.ndarray:
    """x.min(axis=-1) over a final phase axis of 3, as two elementwise minima,
    which numpy runs far faster than a reduction along so short an axis."""

    return np.minimum(np.minimum(x[..., 0], x[..., 1]), x[..., 2])


def _phase_max(x: np.ndarray) -> np.ndarray:
    """x.max(axis=-1) over a final phase axis of 3, as `_phase_min` does."""

    return np.maximum(np.maximum(x[..., 0], x[..., 1]), x[..., 2])


def _slack_terms(
    limits: Limits,
    lo: np.ndarray,
    hi: np.ndarray,
    neg: np.ndarray,
    i_dt_mag: np.ndarray,
    squared: bool = False,
) -> Iterator[np.ndarray]:
    """Yield the limit slacks v_lo, v_hi, neg_seq and i_dt, over any leading batch axes.

    lo and hi are (..., buses, 3) voltage measures held against v_min and
    v_max, neg the (..., buses) unbalance magnitude against neg_seq_max and
    i_dt_mag the (..., 3) transformer current magnitudes against i_dt_max.
    With squared set, lo and hi are squared magnitudes (branch-flow units),
    and the voltage limits and the unbalance magnitude are squared to match.
    One term at a time, so that a large batch never holds all four. The
    phase axis is reduced elementwise, which gives min and max bit for bit.
    """

    v_min, v_max, neg_max = limits.v_min, limits.v_max, limits.neg_seq_max
    if squared:
        v_min, v_max, neg_max = v_min**2, v_max**2, neg_max**2
    yield np.maximum(0.0, v_min - _phase_min(lo))
    yield np.maximum(0.0, _phase_max(hi) - v_max)
    yield np.maximum(0.0, (neg**2 if squared else neg) - neg_max)
    yield np.maximum(0.0, i_dt_mag - limits.i_dt_max)


@dataclass(frozen=True, eq=False)
class _BatchScore:
    objective: np.ndarray
    pi: np.ndarray
    slack_total: np.ndarray


def _score(limits: Limits, s_dt: np.ndarray, terms: Iterable[np.ndarray]) -> _BatchScore:
    """Objective pi + mb * total slack for a batch of model states.

    s_dt is the (..., 3) complex transformer power and terms the slacks
    `_slack_terms` yields. They sum in the order of `Slacks.total`, so a
    batch of one prices exactly like the scalar path.
    """

    p, q = s_dt.real, s_dt.imag
    pi = np.maximum(_phase_max(p) - _phase_min(p), _phase_max(q) - _phase_min(q))
    total = sum(term.sum(axis=-1) for term in terms)
    return _BatchScore(objective=pi + limits.mb * total, pi=pi, slack_total=total)


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """One formulation's view of one assignment on one period."""

    method: str
    phases: tuple[int, ...]
    pi: float  # transformer power spread
    slacks: Slacks
    objective: float  # pi + mb * total slack
    s_dt: np.ndarray  # (3,) complex transformer power
    vm: np.ndarray  # (buses, 3) voltage magnitudes under the model
    vneg: np.ndarray  # (buses,) model unbalance; squared units for branch-flow
    v: np.ndarray | None = None  # (buses, 3) phasors when the model has them
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        s = np.asarray(self.s_dt, dtype=complex)
        s.setflags(write=False)
        object.__setattr__(self, "s_dt", s)
        for nameattr, kind in (("vm", float), ("vneg", complex)):
            arr = np.asarray(getattr(self, nameattr), dtype=kind)
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)
        if self.v is not None:
            arr = np.asarray(self.v, dtype=complex)
            arr.setflags(write=False)
            object.__setattr__(self, "v", arr)


def _result(
    method: str,
    phases: np.ndarray,
    limits: Limits,
    s_dt: np.ndarray,
    i_dt_mag: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    vneg: np.ndarray,
    vm: np.ndarray,
    v: np.ndarray | None,
    meta: Mapping[str, object],
    squared: bool = False,
) -> EvaluationResult:
    """One model's view of one state, priced by `_slack_terms` and `_score`."""

    terms = tuple(_slack_terms(limits, lo, hi, np.abs(vneg), i_dt_mag, squared))
    score = _score(limits, s_dt, terms)
    return EvaluationResult(
        method=method,
        phases=tuple(int(p) for p in phases),
        pi=float(score.pi),
        slacks=Slacks(*terms, squared_voltage_units=squared),
        objective=float(score.objective),
        s_dt=s_dt,
        vm=vm,
        vneg=vneg,
        v=v,
        meta=meta,
    )


def _customer_meet(network: Network) -> np.ndarray:
    """meet_t[j, p, m, phi] = cust_meet[j, m][phi, p], the shared-path
    impedance of customer j on phase p seen at bus m on phase phi: a
    transposed view of the geometry's table."""

    return np.transpose(feeder_geometry(network).cust_meet, (0, 3, 1, 2))


@lru_cache(maxsize=8)
def _customer_columns(network: Network) -> np.ndarray:
    """`_customer_meet` as a read-only (3 * customers, 3 * buses) matrix: the
    bus voltage drops per unit current injected at (customer, phase)."""

    table = _customer_meet(network).reshape(3 * network.n_customers, 3 * network.n_buses)
    table.setflags(write=False)
    return table


def _phase_path_impedances(network: Network, phases: np.ndarray) -> np.ndarray:
    """sel[j, m, phi] = shared-path impedance row Meet[m, bus_j][phi, p_j]."""

    return _customer_meet(network)[np.arange(len(phases)), phases]  # (m, buses, 3)


def _dt_current(phases: np.ndarray, i_cust: np.ndarray) -> np.ndarray:
    i_dt = np.zeros(3, dtype=complex)
    np.add.at(i_dt, phases, i_cust)
    return i_dt


def evaluate_exact(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
    solution: PFSolution | None = None,
) -> EvaluationResult:
    """Objective under the exact power flow; the verification reference.

    meta carries the solve's iterations, final mismatch and power-balance
    residual, so a verified state needs no second solve to be reported.
    """

    if solution is None:
        solution = solve_utpf(snapshot, assignment, q_adjust=q_adjust)
    geometry = feeder_geometry(snapshot.network)
    i_root = sum(solution.i_lines[li] for li in geometry.root_lines)
    lo, vm, vneg = _voltage_measures(solution.v)
    meta = {
        "iterations": solution.iterations,
        "mismatch": solution.mismatch,
        "balance_residual": power_balance_residual(solution, snapshot),
    }
    return _result(
        "utpf", solution.cust_phase, snapshot.network.limits, solution.s_dt,
        np.abs(i_root), lo, vm, vneg, vm, solution.v, meta,
    )


def _fixv_profile(network: Network, profile: np.ndarray | None) -> tuple[np.ndarray, str]:
    """The frozen voltage field and its kind: given (buses, 3), or flat at the root."""

    if profile is None:
        return np.tile(network.v0.values, (network.n_buses, 1)), "flat"
    profile = np.asarray(profile, dtype=complex)
    if profile.shape != (network.n_buses, 3):
        raise ValueError(f"profile must be (buses, 3), got {profile.shape}")
    if np.any(np.abs(profile[feeder_geometry(network).cust_bus]) < 1e-6):
        raise FormulationError("voltage profile vanishes at a customer bus")
    return profile, "given"


def evaluate_fixv(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    profile: np.ndarray | None = None,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Fixed-voltage model: currents conj(s)/conj(V_profile), linear replay.

    profile is a (buses, 3) complex voltage field; omitted, every customer
    sees the root voltage (flat profile). The model voltages returned in v
    are the natural next profile for iterated refinement.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    geometry = feeder_geometry(network)
    v0 = network.v0.values
    profile, profile_kind = _fixv_profile(network, profile)

    s = _effective_loads(snapshot, q_adjust)
    phases = np.asarray(assignment.phases, dtype=int)
    i_cust = np.conj(s) / np.conj(profile[geometry.cust_bus, phases])

    sel = _phase_path_impedances(network, phases)  # (customers, buses, 3)
    v = v0[None, :] - np.einsum("jmf,j->mf", sel, i_cust)
    i_dt = _dt_current(phases, i_cust)
    lo, vm, vneg = _voltage_measures(v)
    return _result(
        "fixv", phases, network.limits, v0 * np.conj(i_dt), np.abs(i_dt),
        lo, vm, vneg, vm, v, {"profile": profile_kind},
    )


@dataclass(frozen=True, eq=False)
class AffineFit:
    """Per-phase affine surrogate for 1/conj(V) over a voltage window.

    Re g = bx + kx*X + ky*Y and Im g = by + hx*X + hy*Y, with X, Y the
    rectangular voltage parts; one coefficient row per phase, fitted around
    each phase's nominal direction. max_residual is the worst |g - 1/conj(V)|
    on a denser validation grid over the same window.
    """

    bx: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    by: np.ndarray
    hx: np.ndarray
    hy: np.ndarray
    vm_range: tuple[float, float]
    angle_halfwidth_rad: float
    max_residual: float

    def __post_init__(self) -> None:
        for nameattr in ("bx", "kx", "ky", "by", "hx", "hy"):
            arr = np.asarray(getattr(self, nameattr), dtype=float)
            if arr.shape != (3,):
                raise ValueError(f"{nameattr} must hold one coefficient per phase")
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)

    # Complex-coefficient view: g = cb + ck * Re(V) + ch * Im(V).
    @property
    def cb(self) -> np.ndarray:
        return self.bx + 1j * self.by

    @property
    def ck(self) -> np.ndarray:
        return self.kx + 1j * self.hx

    @property
    def ch(self) -> np.ndarray:
        return self.ky + 1j * self.hy

    def g(self, v: np.ndarray, phase: np.ndarray | int) -> np.ndarray:
        varr = np.asarray(v, dtype=complex)
        return self.cb[phase] + self.ck[phase] * varr.real + self.ch[phase] * varr.imag


def fit_inverse_voltage(
    v0: Phasor3 | np.ndarray,
    limits: Limits,
    n_mag: int = 20,
    n_ang: int = 20,
    n_validation: int = 50,
) -> AffineFit:
    """Least-squares affine fit of 1/conj(V) per phase.

    The window spans the voltage-magnitude limits and the angle halfwidth
    around each phase's nominal direction; the fit minimizes the squared
    complex error on an n_mag x n_ang grid.
    """

    v0arr = np.asarray(getattr(v0, "values", v0), dtype=complex)
    delta = limits.angle_halfwidth_rad
    coef = {k: np.zeros(3) for k in ("bx", "kx", "ky", "by", "hx", "hy")}
    worst = 0.0
    for phi in range(3):
        center = float(np.angle(v0arr[phi]))

        def window(nm: int, na: int) -> np.ndarray:
            mags = np.linspace(limits.v_min, limits.v_max, nm)
            angs = np.linspace(center - delta, center + delta, na)
            return (mags[:, None] * np.exp(1j * angs[None, :])).ravel()

        v = window(n_mag, n_ang)
        target = 1.0 / np.conj(v)
        design = np.column_stack([np.ones(v.size), v.real, v.imag])
        re_c, *_ = np.linalg.lstsq(design, target.real, rcond=None)
        im_c, *_ = np.linalg.lstsq(design, target.imag, rcond=None)
        coef["bx"][phi], coef["kx"][phi], coef["ky"][phi] = re_c
        coef["by"][phi], coef["hx"][phi], coef["hy"][phi] = im_c

        check = window(n_validation, n_validation)
        approx = (re_c[0] + re_c[1] * check.real + re_c[2] * check.imag) + 1j * (
            im_c[0] + im_c[1] * check.real + im_c[2] * check.imag
        )
        worst = max(worst, float(np.max(np.abs(approx - 1.0 / np.conj(check)))))

    return AffineFit(
        vm_range=(limits.v_min, limits.v_max),
        angle_halfwidth_rad=delta,
        max_residual=worst,
        **coef,
    )


@lru_cache(maxsize=8)
def _default_fit(network: Network) -> AffineFit:
    return fit_inverse_voltage(network.v0, network.limits)


_LINV_TOL = 1e-12  # fixed-point step at which the voltages count as converged
_LINV_MAX_ITER = 80


def _linv_solve(
    network: Network, s: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """The linearized-inverse state of a (b, customers) batch of phase choices.

    Customer j draws conj(s_j) * g(V_j), affine in its own voltage V_j through
    the fitted surrogate, and V_j depends on the other customers' currents
    only through their shared-path impedances. So the fixed point runs over
    the customers' voltages alone (the fixed-point linearization of Bernstein
    & Dall'Anese, 2017), and the converged currents, injected at their
    (customer, phase) rows, give every bus voltage in one product with the
    customer-column table. Returns the (b, buses, 3) voltages, the (b, 3)
    transformer currents and the final fixed-point step; a batch whose step
    does not contract below _LINV_TOL within _LINV_MAX_ITER iterations raises
    FormulationError.
    """

    fit = _default_fit(network)
    b, m = phases.shape
    v0 = network.v0.values
    table = _customer_columns(network)
    rows = 3 * np.arange(m) + phases  # (b, customers): each customer's injection row
    cols = 3 * feeder_geometry(network).cust_bus + phases  # and its own (bus, phase) column
    coupling = table[rows[:, None, :], cols[:, :, None]]  # [b, j, k] = Meet[bus_j, bus_k][p_j, p_k]
    cb, ck, ch = fit.cb[phases], fit.ck[phases], fit.ch[phases]
    sconj = np.conj(s)[None, :]
    v0c = v0[phases]

    v = v0c
    i_cust = sconj * (cb + ck * v.real + ch * v.imag)
    for _ in range(_LINV_MAX_ITER):
        v_new = v0c - np.einsum("bjk,bk->bj", coupling, i_cust)
        step = float(np.max(np.abs(v_new - v))) if v.size else 0.0
        v = v_new
        i_cust = sconj * (cb + ck * v.real + ch * v.imag)
        if step <= _LINV_TOL:
            break
    else:
        raise FormulationError(f"voltage fixed point did not contract below {_LINV_TOL:.1e}")

    injected = np.zeros((b, m, 3), dtype=complex)
    injected[np.arange(b)[:, None], np.arange(m), phases] = i_cust
    v_bus = v0 - (injected.reshape(b, 3 * m) @ table).reshape(b, network.n_buses, 3)
    return v_bus, injected.sum(axis=1), step


def evaluate_linv(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Linearized-inverse model: `_linv_solve` for a batch of one.

    Customer currents are affine in their bus voltage via the surrogate
    fitted over the network's voltage limits; meta records its residual and
    the fixed point's final step. A state the fixed point cannot reach
    raises FormulationError. Slack uses the linearized lower voltage bound.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    v0 = network.v0.values
    phases = np.asarray(assignment.phases, dtype=int)
    v, i_dt, step = _linv_solve(network, _effective_loads(snapshot, q_adjust), phases[None, :])
    lo, vm, vneg = _voltage_measures(v[0], v0)
    meta = {"fit_residual": _default_fit(network).max_residual, "fixed_point_step": step}
    return _result(
        "linv", phases, network.limits, v0 * np.conj(i_dt[0]), np.abs(i_dt[0]),
        lo, vm, vneg, vm, v[0], meta,
    )


def evaluate_lbfm(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Lossless branch-flow model over squared voltage magnitudes.

    Per-phase flows aggregate customer powers unchanged (no losses, no
    voltage feedback); squared magnitudes and the unbalance surrogate
    propagate through the path impedances under nominal phase rotation.
    Voltage-type slacks are in squared per-unit; the transformer current
    surrogate is |S_phase| / |V0_phase|.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    v0 = network.v0.values

    s = _effective_loads(snapshot, q_adjust)
    phases = np.asarray(assignment.phases, dtype=int)
    sel = _phase_path_impedances(network, phases)  # (customers, buses, 3)

    beta_sel = BETA[:, phases].T  # (customers, 3): ratio toward each observed phase
    ddiag = 2.0 * np.real(beta_sel[:, None, :] * s[:, None, None] * np.conj(sel))
    diag = np.abs(v0) ** 2 - ddiag.sum(axis=0)  # (buses, 3)

    vneg0 = complex(_NEG_ROW @ v0) / 3.0
    i_nom = np.conj(s) / np.conj(v0[phases])
    vneg = vneg0 - np.einsum("j,jm->m", i_nom / 3.0, sel @ _NEG_ROW)

    s_dt = np.zeros(3, dtype=complex)
    np.add.at(s_dt, phases, s)
    return _result(
        "lbfm", phases, network.limits, s_dt, np.abs(s_dt) / np.abs(v0),
        diag, diag, vneg, np.sqrt(np.clip(diag, 0.0, None)), None,
        {"voltage_units": "squared"}, squared=True,
    )


# ---------------------------------------------------------------------------
# Batch scoring kernels (internal).
#
# Search code scores thousands of assignments per period. Customer effects
# under the fixed-voltage and branch-flow models are separable, so each
# kernel precomputes per-(customer, phase) effect tables, folds the
# non-adjustable customers into a base state, and scores a batch through two
# half-assignment lookup tables, the first of which carries the base. The
# outer sum of the transformer-power halves (sv1, sv2) prices every
# candidate's spread pi, which the bound-ordered search ranks by. Slack
# terms are only evaluated on the buses that could possibly violate a limit
# under some assignment (triangle bound on the movable customers' total
# effect); all other buses contribute zero slack for every candidate. Of
# those cap buses, only one per distinct customer column (the geometry's
# col_rep) gets a state: buses with no customer below them repeat their
# parent's column bit for bit, so their slacks are copied, not recomputed.
# The linearized-inverse model is not separable; its kernel hands chunks of
# candidates to `_linv_solve`, the same fixed point `evaluate_linv` runs for
# one. Every kernel prices its states through `_score`, as the scalar
# evaluators do.
# ---------------------------------------------------------------------------

_LINV_CHUNK = 128  # assignments per batched fixed-point solve


def _combo_table(k: int) -> np.ndarray:
    """All 3**k phase tuples in lexicographic order, first position slowest."""

    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    grids = np.meshgrid(*([np.arange(3)] * k), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _radix(k: int) -> np.ndarray:
    return 3 ** np.arange(k - 1, -1, -1, dtype=np.int64) if k else np.zeros(0, np.int64)


class _Kernel:
    """What every kernel shares: loads, movable positions, the initial phases.

    Only the fixed-voltage kernel reads profile, its frozen voltage field.
    """

    separable = False

    def __init__(
        self,
        snapshot: CaseSnapshot,
        profile: np.ndarray | None = None,
        q_adjust: np.ndarray | None = None,
    ) -> None:
        self.network = snapshot.network
        self.limits = snapshot.network.limits
        self.v0 = self.network.v0.values
        self.s = _effective_loads(snapshot, q_adjust)
        self.movable = np.asarray(sorted(snapshot.adjustable_idx), dtype=int)
        self.initial = np.array([c.initial_phase for c in self.network.customers], dtype=int)

    @property
    def n_movable(self) -> int:
        return len(self.movable)

    def full_phases(self, choices: np.ndarray) -> np.ndarray:
        choices = np.asarray(choices, dtype=int)
        full = np.tile(self.initial, (choices.shape[0], 1))
        full[:, self.movable] = choices
        return full

    def assignment(self, choices: np.ndarray) -> PhaseAssignment:
        return PhaseAssignment(tuple(int(p) for p in self.full_phases(choices[None, :])[0]))


class _SeparableKernel(_Kernel):
    """Half-table scoring for models whose customer effects simply add up.

    A subclass hands `_tabulate` each customer's power landing on each phase
    and its effect on every state field, and names in `_measures` the voltage
    measures and unbalance magnitude that `_slack_terms` tests on the fields.
    """

    separable = True
    squared = False

    def _tabulate(
        self,
        s_on: np.ndarray,
        effects: list[np.ndarray],
        no_load: list[np.ndarray],
    ) -> None:
        """s_on (customers, 3); effects[f] (customers, 3, buses, ...) with no_load[f]
        the field's (buses, ...) value when no customer draws power."""

        fixed = np.setdiff1d(np.arange(len(s_on)), self.movable)
        pf = self.initial[fixed]
        self.s_base = np.zeros(3, dtype=complex)
        np.add.at(self.s_base, pf, s_on[fixed, pf])
        base = [z + e[fixed, pf].sum(axis=0) for z, e in zip(no_load, effects)]
        moving = [e[self.movable] for e in effects]

        # Buses that could violate a limit under some choice of the movables:
        # no measure moves further than the movables' largest effects summed.
        lo, hi, neg = self._measures(*base)
        lo_r, hi_r, neg_r = (np.abs(x).max(axis=1).sum(axis=0) for x in self._measures(*moving))
        k = 2 if self.squared else 1
        limits = self.limits
        cap = (
            ((lo - lo_r).min(axis=1) < limits.v_min**k)
            | ((hi + hi_r).max(axis=1) > limits.v_max**k)
            | (neg + neg_r > limits.neg_seq_max)
        )
        self.cap_idx = np.flatnonzero(cap)
        # States are kept at cols, one cap bus per distinct column (a cap
        # bus's representative is a cap bus too); cap_inverse puts each cap
        # bus's slack back in cap_idx order.
        cols, self.cap_inverse = np.unique(
            feeder_geometry(self.network).col_rep[self.cap_idx], return_inverse=True
        )

        k1 = (self.n_movable + 1) // 2
        (sv1, t1), (sv2, t2) = (
            self._half(s_on[self.movable[part]], [e[part][:, :, cols] for e in moving])
            for part in (slice(0, k1), slice(k1, None))
        )
        self.halves = [(sv1, [b[cols] + t for b, t in zip(base, t1)]), (sv2, t2)]

    @staticmethod
    def _half(s_on: np.ndarray, effects: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
        combos = _combo_table(len(s_on))
        rows = np.arange(combos.shape[0])
        sv = np.zeros((combos.shape[0], 3), dtype=complex)
        tables = [np.zeros((combos.shape[0],) + e.shape[2:], dtype=e.dtype) for e in effects]
        for local in range(len(s_on)):
            pj = combos[:, local]
            np.add.at(sv, (rows, pj), s_on[local, pj])
            for table, e in zip(tables, effects):
                table += e[local][pj]
        return sv, tables

    def score(self, choices: np.ndarray) -> _BatchScore:
        choices = np.asarray(choices, dtype=np.int64)
        k1 = (self.n_movable + 1) // 2
        idx1 = choices[:, :k1] @ _radix(k1)
        idx2 = choices[:, k1:] @ _radix(self.n_movable - k1)
        (sv1, t1), (sv2, t2) = self.halves
        s_dt = self.s_base + sv1[idx1] + sv2[idx2]
        # The field states, a chunk's largest arrays, are freed once measured.
        measures = self._measures(*(a[idx1] + c[idx2] for a, c in zip(t1, t2)))
        i_dt_mag = np.abs(s_dt) / np.abs(self.v0)
        terms = _slack_terms(self.limits, *measures, i_dt_mag, self.squared)
        # The three per-bus terms go back to cap_idx order (i_dt is per
        # phase). take keeps them C-ordered, so they sum as unmerged terms
        # would; fancy indexing returns an F-ordered copy that sums otherwise.
        return _score(
            self.limits,
            s_dt,
            (t.take(self.cap_inverse, axis=-1) if k < 3 else t for k, t in enumerate(terms)),
        )


class _FixvKernel(_SeparableKernel):
    """Batch scorer for the fixed-voltage model at one voltage profile."""

    method = "fixv"

    def __init__(
        self,
        snapshot: CaseSnapshot,
        profile: np.ndarray | None = None,
        q_adjust: np.ndarray | None = None,
    ) -> None:
        super().__init__(snapshot, q_adjust=q_adjust)
        profile, _ = _fixv_profile(self.network, profile)
        cust_bus = feeder_geometry(self.network).cust_bus
        i_all = np.conj(self.s)[:, None] / np.conj(profile[cust_bus])  # (customers, 3 options)
        # Voltage effect at (bus, phi) of customer j connected at p.
        dv_all = -_customer_meet(self.network) * i_all[:, :, None, None]
        self._tabulate(
            self.v0[None, :] * np.conj(i_all),
            [dv_all],
            [np.tile(self.v0, (self.network.n_buses, 1))],
        )

    @staticmethod
    def _measures(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lo, vm, vneg = _voltage_measures(v)
        return lo, vm, np.abs(vneg)


class _LbfmKernel(_SeparableKernel):
    """Batch scorer for the lossless branch-flow model."""

    method = "lbfm"
    squared = True

    def __init__(
        self,
        snapshot: CaseSnapshot,
        profile: np.ndarray | None = None,
        q_adjust: np.ndarray | None = None,
    ) -> None:
        super().__init__(snapshot, q_adjust=q_adjust)
        s, v0, meet_t = self.s, self.v0, _customer_meet(self.network)
        # Changes of the squared magnitude at (bus, phi) and of the unbalance
        # surrogate at each bus when customer j sits on phase p.
        ddiag_all = -2.0 * np.real(
            BETA.T[None, :, None, :] * s[:, None, None, None] * np.conj(meet_t)
        )
        dneg_all = -(
            ((1.0 / np.conj(v0))[None, :, None] / 3.0) * np.conj(s)[:, None, None] * (meet_t @ _NEG_ROW)
        )
        n = self.network.n_buses
        self._tabulate(
            np.repeat(s[:, None], 3, axis=1),
            [ddiag_all, dneg_all],
            [np.tile(np.abs(v0) ** 2, (n, 1)), np.full(n, complex(_NEG_ROW @ v0) / 3.0)],
        )

    @staticmethod
    def _measures(diag: np.ndarray, vneg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return diag, diag, np.abs(vneg)


class _LinvKernel(_Kernel):
    """Batch scorer for the linearized-inverse model, in chunks of `_linv_solve`."""

    method = "linv"

    def score(self, choices: np.ndarray) -> _BatchScore:
        choices = np.asarray(choices, dtype=np.int64)
        b = choices.shape[0]
        obj, pi, slack = np.empty(b), np.empty(b), np.empty(b)
        for lo in range(0, b, _LINV_CHUNK):
            part = self._score_chunk(self.full_phases(choices[lo:lo + _LINV_CHUNK]))
            hi = lo + len(part.objective)
            obj[lo:hi], pi[lo:hi], slack[lo:hi] = part.objective, part.pi, part.slack_total
        return _BatchScore(objective=obj, pi=pi, slack_total=slack)

    def _score_chunk(self, phases: np.ndarray) -> _BatchScore:
        v, i_dt, _ = _linv_solve(self.network, self.s, phases)
        lo, vm, vneg = _voltage_measures(v, self.v0)
        return _score(
            self.limits,
            self.v0[None, :] * np.conj(i_dt),
            _slack_terms(self.limits, lo, vm, np.abs(vneg), np.abs(i_dt)),
        )


# The one lookup from a model name to its batch kernel.
_KERNELS = {kernel.method: kernel for kernel in (_FixvKernel, _LbfmKernel, _LinvKernel)}


def _make_kernel(
    snapshot: CaseSnapshot,
    method: str,
    profile: np.ndarray | None = None,
    q_adjust: np.ndarray | None = None,
) -> _Kernel:
    """Build method's kernel; only fixv reads profile."""

    if method not in _KERNELS:
        raise ValueError(f"unknown formulation {method!r}")
    return _KERNELS[method](snapshot, profile=profile, q_adjust=q_adjust)
