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
workhorses behind enumeration and local search; a kernel class's
`separable` attribute tells search code whether the model's customer
effects add up. For PV reactive-power tuning, a line builder (`_fixv_line`,
`_linv_line`, `_lbfm_line`) prices a batch of values of one customer's
reactive adjustment, objectives only, through the same field equations the
scalar evaluator runs (`_fixv_fields`, `_linv_solve`, `_lbfm_fields`),
called once per coordinate: every model's fields are affine along it, in
the customer's load for fixv and lbfm and in the customer's own current for
linv. For any batch of model states, a single state included,
`_slack_terms` computes the limit slacks and `_score` the objective, so the
scalar evaluators, the kernels and the line builders price a state the same
way. `optimizer._MODELS` is the one lookup from a model name to its
evaluator, kernel class and line builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .netmodel import MB, NEG_SEQ_MAX, V_MAX, V_MIN, CaseSnapshot, Network
from .powerflow import (
    PFSolution,
    PhaseAssignment,
    _bus_voltages,
    _check_band,
    _coupling,
    _customer_meet,
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
    "evaluate_exact",
    "evaluate_fixv",
    "evaluate_lbfm",
    "evaluate_linv",
    "fit_inverse_voltage",
]


class FormulationError(RuntimeError):
    """A formulation could not be evaluated on the given case."""


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
    i_dt_max: float,
    lo: np.ndarray,
    hi: np.ndarray,
    neg: np.ndarray,
    i_dt_mag: np.ndarray,
    squared: bool = False,
) -> Iterator[np.ndarray]:
    """Yield the limit slacks v_lo, v_hi, neg_seq and i_dt, over any leading batch axes.

    lo and hi are (..., buses, 3) voltage measures held against V_MIN and
    V_MAX, neg the (..., buses) unbalance magnitude against NEG_SEQ_MAX and
    i_dt_mag the (..., 3) transformer current magnitudes against i_dt_max.
    With squared set, lo and hi are squared magnitudes (branch-flow units),
    and the voltage limits and the unbalance magnitude are squared to match.
    One term at a time, so that a large batch never holds all four. The
    phase axis is reduced elementwise, which gives min and max bit for bit.
    """

    v_min, v_max, neg_max = V_MIN, V_MAX, NEG_SEQ_MAX
    if squared:
        v_min, v_max, neg_max = v_min**2, v_max**2, neg_max**2
    yield np.maximum(0.0, v_min - _phase_min(lo))
    yield np.maximum(0.0, _phase_max(hi) - v_max)
    yield np.maximum(0.0, (neg**2 if squared else neg) - neg_max)
    yield np.maximum(0.0, i_dt_mag - i_dt_max)


@dataclass(frozen=True, eq=False)
class _BatchScore:
    objective: np.ndarray
    pi: np.ndarray


def _score(s_dt: np.ndarray, terms: Iterable[np.ndarray]) -> _BatchScore:
    """Objective pi + MB * total slack for a batch of model states.

    s_dt is the (..., 3) complex transformer power and terms the slacks
    `_slack_terms` yields, summed in that order.
    """

    p, q = s_dt.real, s_dt.imag
    pi = np.maximum(_phase_max(p) - _phase_min(p), _phase_max(q) - _phase_min(q))
    total = sum(term.sum(axis=-1) for term in terms)
    return _BatchScore(objective=pi + MB * total, pi=pi)


def _price(
    i_dt_max: float,
    s_dt: np.ndarray,
    i_dt_mag: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    vneg: np.ndarray,
    squared: bool = False,
) -> _BatchScore:
    """`_score` of a batch of states given by a model's measures (see `_result`)."""

    return _score(s_dt, _slack_terms(i_dt_max, lo, hi, np.abs(vneg), i_dt_mag, squared))


@dataclass(frozen=True, eq=False)
class EvaluationResult:
    """One formulation's view of one assignment on one period."""

    method: str
    pi: float  # transformer power spread
    slack: Mapping[str, float]  # summed v_lo, v_hi, neg_seq and i_dt slacks, in that order
    squared_voltage_units: bool  # voltage slacks in squared per-unit (branch-flow)
    objective: float  # pi + MB * sum(slack.values())
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
    i_dt_max: float,
    s_dt: np.ndarray,
    i_dt_mag: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    vneg: np.ndarray,
    v: np.ndarray | None,
    squared: bool = False,
    meta: Mapping[str, object] | None = None,
) -> EvaluationResult:
    """One model's view of one state, priced by `_slack_terms` and `_score`.

    lo and hi are the voltage measures held against the lower and upper
    limits, and hi is |V| itself, or its square when squared is set.
    """

    terms = tuple(_slack_terms(i_dt_max, lo, hi, np.abs(vneg), i_dt_mag, squared))
    score = _score(s_dt, terms)
    return EvaluationResult(
        method=method,
        pi=float(score.pi),
        slack={k: float(t.sum()) for k, t in zip(("v_lo", "v_hi", "neg_seq", "i_dt"), terms)},
        squared_voltage_units=squared,
        objective=float(score.objective),
        s_dt=s_dt,
        vm=np.sqrt(np.clip(hi, 0.0, None)) if squared else hi,
        vneg=vneg,
        v=v,
        meta=dict(meta or {}),
    )


def _phase_path_impedances(network: Network, phases: np.ndarray) -> np.ndarray:
    """sel[j, m, phi] = shared-path impedance row Meet[m, bus_j][phi, p_j]."""

    return _customer_meet(network)[np.arange(len(phases)), phases]  # (m, buses, 3)


def _dt_current(phases: np.ndarray, i_cust: np.ndarray) -> np.ndarray:
    """Per-phase sums (..., 3) of customer values (..., customers), in customer order."""

    i_dt = np.zeros(i_cust.shape[:-1] + (3,), dtype=complex)
    np.add.at(i_dt.T, phases, i_cust.T)
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
    network = snapshot.network
    lo, vm, vneg = _voltage_measures(solution.v)
    meta = {
        "iterations": solution.iterations,
        "mismatch": solution.mismatch,
        "balance_residual": power_balance_residual(solution, snapshot),
    }
    return _result(
        "utpf", network.i_dt_max, solution.s_dt,
        np.abs(solution.s_dt) / np.abs(network.v0), lo, vm, vneg, solution.v, meta=meta,
    )


def _fixv_profile(network: Network, profile: np.ndarray | None) -> np.ndarray:
    """The frozen voltage field: given (buses, 3), or flat at the root."""

    if profile is None:
        return np.tile(network.v0, (network.n_buses, 1))
    profile = np.asarray(profile, dtype=complex)
    if profile.shape != (network.n_buses, 3):
        raise ValueError(f"profile must be (buses, 3), got {profile.shape}")
    if np.any(np.abs(profile[feeder_geometry(network).cust_bus]) < 1e-6):
        raise FormulationError("voltage profile vanishes at a customer bus")
    return profile


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
    profile = _fixv_profile(network, profile)
    phases = np.asarray(assignment.phases, dtype=int)
    v, i_dt = _fixv_fields(network, phases, _effective_loads(snapshot, q_adjust), profile)
    return _result("fixv", network.i_dt_max, *_phasor_measures(network, v, i_dt), v)


def _fixv_fields(
    network: Network, phases: np.ndarray, s: np.ndarray, profile: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-voltage model's equations for loads s (..., customers): the
    (..., buses, 3) voltages and (..., 3) transformer currents, both affine
    in every customer's load."""

    i_cust = np.conj(s) / np.conj(profile[feeder_geometry(network).cust_bus, phases])
    sel = _phase_path_impedances(network, phases)  # (customers, buses, 3)
    v = network.v0 - np.einsum("jmf,...j->...mf", sel, i_cust)
    return v, _dt_current(phases, i_cust)


def _phasor_measures(
    network: Network, v: np.ndarray, i_dt: np.ndarray, linearized: bool = False
) -> tuple[np.ndarray, ...]:
    """s_dt, |i_dt| and the voltage measures lo, hi and vneg that `_price`
    reads off a phasor model's voltages and transformer currents; linearized
    tests the lower bound on the projection onto the nominal phasors (linv)."""

    v0 = network.v0
    lo, vm, vneg = _voltage_measures(v, v0 if linearized else None)
    return v0 * np.conj(i_dt), np.abs(i_dt), lo, vm, vneg


@dataclass(frozen=True, eq=False)
class AffineFit:
    """Per-phase affine surrogate for 1/conj(V) over a voltage window.

    g = cb + ck*X + ch*Y, with X, Y the rectangular voltage parts and
    complex coefficients; one coefficient row per phase, fitted around each
    phase's nominal direction.
    """

    cb: np.ndarray
    ck: np.ndarray
    ch: np.ndarray

    def __post_init__(self) -> None:
        for nameattr in ("cb", "ck", "ch"):
            arr = np.asarray(getattr(self, nameattr), dtype=complex)
            if arr.shape != (3,):
                raise ValueError(f"{nameattr} must hold one coefficient per phase")
            arr.setflags(write=False)
            object.__setattr__(self, nameattr, arr)

    def g(self, v: np.ndarray, phase: np.ndarray | int) -> np.ndarray:
        varr = np.asarray(v, dtype=complex)
        return self.cb[phase] + self.ck[phase] * varr.real + self.ch[phase] * varr.imag


_FIT_GRID = 20  # magnitudes and angles of the least-squares grid
_FIT_HALFWIDTH = np.radians(10.0)  # the window's angle halfwidth around each nominal phase


def fit_inverse_voltage(v0: np.ndarray) -> AffineFit:
    """Least-squares affine fit of 1/conj(V) per phase.

    The window spans the voltage-magnitude band V_MIN to V_MAX and
    _FIT_HALFWIDTH around each phase's nominal direction; the fit minimizes
    the squared complex error on a _FIT_GRID x _FIT_GRID grid.
    """

    coef = np.zeros((3, 3), dtype=complex)  # phase x (constant, X, Y)
    mags = np.linspace(V_MIN, V_MAX, _FIT_GRID)
    for phi in range(3):
        center = float(np.angle(v0[phi]))
        angs = np.linspace(center - _FIT_HALFWIDTH, center + _FIT_HALFWIDTH, _FIT_GRID)
        v = (mags[:, None] * np.exp(1j * angs[None, :])).ravel()
        target = 1.0 / np.conj(v)
        design = np.column_stack([np.ones(v.size), v.real, v.imag])
        re_c, *_ = np.linalg.lstsq(design, target.real, rcond=None)
        im_c, *_ = np.linalg.lstsq(design, target.imag, rcond=None)
        coef[phi] = re_c + 1j * im_c

    cb, ck, ch = coef.T.copy()
    return AffineFit(cb=cb, ck=ck, ch=ch)


@lru_cache(maxsize=8)
def _default_fit(network: Network) -> AffineFit:
    return fit_inverse_voltage(network.v0)


_LINV_TOL = 1e-12  # fixed-point step at which the voltages count as converged
_LINV_MAX_ITER = 80


def _linv_solve(
    network: Network, s: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The linearized-inverse state of a batch of b (loads, phase choices) rows.

    Customer j draws conj(s_j) * g(V_j), affine in its own voltage V_j through
    the fitted surrogate, and V_j depends on the other customers' currents
    only through their shared-path impedances. So the fixed point runs over
    the customers' voltages alone (the fixed-point linearization of Bernstein
    & Dall'Anese, 2017), on the same customer-space coupling and bus-voltage
    product as the exact `solve_utpf`, with g in place of 1 / conj(V).
    Returns the (b, buses, 3) voltages and the (b, 3) transformer currents;
    a batch whose fixed-point step does not contract below _LINV_TOL within
    _LINV_MAX_ITER iterations raises FormulationError.

    s is one (customers,) load vector or a (b, customers) batch, phases a
    (b, customers) batch or one (customers,) row that every load row shares,
    whose coupling is then gathered once. The fixed point starts from the
    root voltages.
    """

    fit = _default_fit(network)
    coupling = _coupling(network, phases)
    cb, ck, ch = fit.cb[phases], fit.ck[phases], fit.ch[phases]
    sconj = np.conj(s)
    v0c = network.v0[phases]

    v = v0c
    i_cust = sconj * (cb + ck * v.real + ch * v.imag)
    for _ in range(_LINV_MAX_ITER):
        v_new = v0c - np.einsum("...jk,...k->...j", coupling, i_cust)
        step = float(np.max(np.abs(v_new - v))) if v.size else 0.0
        v = v_new
        i_cust = sconj * (cb + ck * v.real + ch * v.imag)
        if step <= _LINV_TOL:
            break
    else:
        raise FormulationError(f"voltage fixed point did not contract below {_LINV_TOL:.1e}")

    v_bus, injected = _bus_voltages(network, phases, i_cust)
    return v_bus, injected.sum(axis=1)


def evaluate_linv(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Linearized-inverse model: `_linv_solve` for a batch of one.

    Customer currents are affine in their bus voltage via the surrogate
    fitted over the voltage band. A state the fixed point cannot
    reach raises FormulationError. Slack uses the linearized lower voltage
    bound.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    phases = np.asarray(assignment.phases, dtype=int)
    v, i_dt = _linv_solve(network, _effective_loads(snapshot, q_adjust), phases[None, :])
    measures = _phasor_measures(network, v[0], i_dt[0], linearized=True)
    return _result("linv", network.i_dt_max, *measures, v[0])


# A line scorer: line(q, c) gives g, which maps a batch of values t of
# customer c's reactive adjustment, every other customer held at q, to the
# model's objectives there: the scalar evaluator's, to rounding. A t outside
# c's band raises ValueError, as the scalar evaluators do. A line builder
# makes one from a snapshot, an assignment's phases and a profile.
_Line = Callable[[np.ndarray, int], Callable[[np.ndarray], np.ndarray]]


def _linv_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of linv, closed in customer c's own current i_c; no profile.

    With every other customer's load held, the fixed-point map is affine in
    i_c, and so are its fixed point's bus voltages and transformer currents:
    base + Re(i_c) * U_re + Im(i_c) * U_im. Per coordinate, one `_linv_solve`
    of three rows, c's load at 0, delta and j * delta, gives the base and the
    two directions. Each point t then solves i_c = conj(s_c + jt) g(V_c(i_c))
    as one real 2x2 system, since V_c is affine in i_c too.
    """

    network = snapshot.network
    fit = _default_fit(network)
    cust_bus = feeder_geometry(network).cust_bus

    def line(q: np.ndarray, c: int) -> Callable[[np.ndarray], np.ndarray]:
        rows = np.repeat(_effective_loads(snapshot, q)[None, :], 3, axis=0)
        delta = max(abs(rows[0, c]), float(snapshot.q_hi_pu[c] - snapshot.q_lo_pu[c]))
        rows[:, c] = (0.0, delta, 1j * delta)
        v, i_dt = _linv_solve(network, rows, phases)
        p, bus = phases[c], cust_bus[c]
        i_c = np.conj(rows[1:, c]) * fit.g(v[1:, bus, p], p)
        # Field difference k (row k + 1 less row 0) is m[0, k] U_re + m[1, k] U_im,
        # with column k of m the (Re, Im) of row k + 1's i_c; inv(m) weighs
        # the differences into U_re and U_im.
        m_inv = np.linalg.inv(np.array([i_c.real, i_c.imag]))
        base = (v[0], i_dt[0])
        units = [
            tuple(np.tensordot(weights, f[1:] - f[0], axes=1) for f in (v, i_dt))
            for weights in m_inv.T
        ]
        # g(V_c) at the base and along each unit direction of i_c.
        g0 = fit.g(v[0, bus, p], p)
        g_re, g_im = (fit.ck[p] * u[0][bus, p].real + fit.ch[p] * u[0][bus, p].imag for u in units)

        def g(t: np.ndarray) -> np.ndarray:
            _check_band(snapshot, t, c)
            w = np.conj(snapshot.s_pu[c] + 1j * t)  # as `_effective_loads` adds it
            a, b, e = w * g0, w * g_re, w * g_im
            # x + jy = a + x b + y e, as (1 - Re b) x - Re e y = Re a and
            # -Im b x + (1 - Im e) y = Im a, by Cramer's rule.
            det = (1.0 - b.real) * (1.0 - e.imag) - e.real * b.imag
            x = (a.real * (1.0 - e.imag) + e.real * a.imag) / det
            y = ((1.0 - b.real) * a.imag + b.imag * a.real) / det
            fields = (
                f0 + np.multiply.outer(x, ur) + np.multiply.outer(y, ui)
                for f0, ur, ui in zip(base, *units)
            )
            return _price(network.i_dt_max, *_phasor_measures(network, *fields, True)).objective

        return g

    return line


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
    phases = np.asarray(assignment.phases, dtype=int)
    fields = _lbfm_fields(network, phases, _effective_loads(snapshot, q_adjust))
    return _result(
        "lbfm", network.i_dt_max, *_lbfm_measures(network, *fields), None, squared=True
    )


def _lbfm_fields(
    network: Network, phases: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch-flow model's equations for loads s (..., customers): the
    (..., buses, 3) squared magnitudes, the (..., buses) unbalance surrogate
    and the (..., 3) transformer power, all affine in every customer's load."""

    v0 = network.v0
    sel = _phase_path_impedances(network, phases)  # (customers, buses, 3)

    beta_sel = BETA[:, phases].T  # (customers, 3): ratio toward each observed phase
    ddiag = 2.0 * np.real(beta_sel[:, None, :] * s[..., :, None, None] * np.conj(sel))
    diag = np.abs(v0) ** 2 - ddiag.sum(axis=-3)

    vneg0 = complex(_NEG_ROW @ v0) / 3.0
    i_nom = np.conj(s) / np.conj(v0[phases])
    vneg = vneg0 - np.einsum("...j,jm->...m", i_nom / 3.0, sel @ _NEG_ROW)
    return diag, vneg, _dt_current(phases, s)


def _lbfm_measures(
    network: Network, diag: np.ndarray, vneg: np.ndarray, s_dt: np.ndarray
) -> tuple[np.ndarray, ...]:
    """s_dt, the |S|/|V0| current surrogate, and diag as both voltage measures."""

    return s_dt, np.abs(s_dt) / np.abs(network.v0), diag, diag, vneg


def _affine_line(
    snapshot: CaseSnapshot,
    fields: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    measures: Callable[..., tuple[np.ndarray, ...]],
    squared: bool = False,
) -> _Line:
    """The line scorer of a model whose fields are affine in each customer's load.

    fields maps (..., customers) loads to the model's field arrays, and
    measures maps those to what `_price` reads. Per coordinate, the fields
    are built at q and one unit of reactive load further on customer c; each
    point then moves the base fields along that direction.
    """

    network = snapshot.network

    def line(q: np.ndarray, c: int) -> Callable[[np.ndarray], np.ndarray]:
        q_c = float(q[c])
        rows = np.repeat(_effective_loads(snapshot, q)[None, :], 2, axis=0)
        rows[1, c] += 1j
        base, unit = zip(*((f[0], f[1] - f[0]) for f in fields(rows)))

        def g(t: np.ndarray) -> np.ndarray:
            _check_band(snapshot, t, c)
            step = t - q_c
            moved = (b + step.reshape((-1,) + (1,) * b.ndim) * u for b, u in zip(base, unit))
            return _price(network.i_dt_max, *measures(network, *moved), squared).objective

        return g

    return line


def _fixv_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of fixv at profile, flat at the root when omitted."""

    network = snapshot.network
    fields = partial(_fixv_fields, network, phases, profile=_fixv_profile(network, profile))
    return _affine_line(snapshot, fields, _phasor_measures)


def _lbfm_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of lbfm, which has no voltage profile to read."""

    fields = partial(_lbfm_fields, snapshot.network, phases)
    return _affine_line(snapshot, fields, _lbfm_measures, squared=True)


# ---------------------------------------------------------------------------
# Batch scoring kernels (internal).
#
# Search code scores thousands of assignments per period. Customer effects
# under the fixed-voltage and branch-flow models are separable, so each
# kernel precomputes per-(customer, phase) effect tables, folds the
# non-adjustable customers into a base state, and scores a batch through two
# half-assignment lookup tables, the first of which carries the base. The
# outer sum of the transformer-power halves (sv1, sv2) prices every
# candidate's spread pi (`spreads`), which the bound-ordered search ranks
# by. Slack terms are only evaluated on the buses that could possibly
# violate a limit under some assignment (triangle bound on the movable
# customers' total effect); all other buses contribute zero slack for every
# candidate. Of those cap buses, only one per distinct customer column (the
# geometry's col_rep) gets a state: buses with no customer below them
# repeat their parent's column bit for bit, so their slacks are copied, not
# recomputed.
# The linearized-inverse model is not separable; its kernel hands chunks of
# candidates to `_linv_solve`, the same fixed point `evaluate_linv` runs for
# one. Every kernel prices its states through `_score`, as the scalar
# evaluators do.
# ---------------------------------------------------------------------------

_LINV_CHUNK = 128  # assignments per batched fixed-point solve


def _decode(indices: np.ndarray, width: int) -> np.ndarray:
    """The phase tuples of flat candidate indices, first position slowest:
    `_decode(np.arange(3**k), k)` lists all 3**k in lexicographic order."""

    if width == 0:
        return np.zeros((len(indices), 0), dtype=np.int64)
    digits = np.unravel_index(indices, (3,) * width)
    return np.stack(digits, axis=1).astype(np.int64)


def _radix(k: int) -> np.ndarray:
    """Place values of k base-3 digits, the inverse of `_decode`."""

    return 3 ** np.arange(k - 1, -1, -1, dtype=np.int64) if k else np.zeros(0, np.int64)


class _Kernel:
    """What every kernel shares: loads, movable positions, the initial phases.

    Only the fixed-voltage kernel reads profile, its frozen voltage field.
    """

    separable = False

    def __init__(self, snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> None:
        self.network = snapshot.network
        self.v0 = self.network.v0
        self.s = _effective_loads(snapshot, None)
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
        cap = (
            ((lo - lo_r).min(axis=1) < V_MIN**k)
            | ((hi + hi_r).max(axis=1) > V_MAX**k)
            | (neg + neg_r > NEG_SEQ_MAX)
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
        """Transformer power and field tables of every choice of these
        customers in `_decode` order, built by one outer sum per customer."""

        sv = np.zeros((1, 3), dtype=complex)
        tables = [np.zeros((1,) + e.shape[2:], dtype=e.dtype) for e in effects]
        for local in range(len(s_on)):
            # On phase p the customer adds its power to the transformer's phase p only.
            sv = (sv[:, None] + np.diag(s_on[local])[None, :]).reshape(-1, 3)
            tables = [
                (t[:, None] + e[local][None, :]).reshape((3 * len(t),) + t.shape[1:])
                for t, e in zip(tables, effects)
            ]
        return sv, tables

    def spreads(self) -> np.ndarray:
        """Every candidate's spread pi by flat index. The half-tables' outer
        sum adds up s_dt bit for bit as `score` does."""

        (sv1, _), (sv2, _) = self.halves
        s_dt = ((self.s_base + sv1)[:, None] + sv2[None, :]).reshape(-1, 3)
        return _score(s_dt, ()).pi

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
        terms = _slack_terms(self.network.i_dt_max, *measures, i_dt_mag, self.squared)
        # The three per-bus terms go back to cap_idx order (i_dt is per
        # phase). take keeps them C-ordered, so they sum as unmerged terms
        # would; fancy indexing returns an F-ordered copy that sums otherwise.
        return _score(
            s_dt,
            (t.take(self.cap_inverse, axis=-1) if k < 3 else t for k, t in enumerate(terms)),
        )


class _FixvKernel(_SeparableKernel):
    """Batch scorer for the fixed-voltage model at one voltage profile."""

    method = "fixv"

    def __init__(self, snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> None:
        super().__init__(snapshot)
        profile = _fixv_profile(self.network, profile)
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

    def __init__(self, snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> None:
        super().__init__(snapshot)
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
        obj, pi = np.empty(b), np.empty(b)
        for lo in range(0, b, _LINV_CHUNK):
            part = self._score_chunk(self.full_phases(choices[lo:lo + _LINV_CHUNK]))
            hi = lo + len(part.objective)
            obj[lo:hi], pi[lo:hi] = part.objective, part.pi
        return _BatchScore(objective=obj, pi=pi)

    def _score_chunk(self, phases: np.ndarray) -> _BatchScore:
        v, i_dt = _linv_solve(self.network, self.s, phases)
        return _price(self.network.i_dt_max, *_phasor_measures(self.network, v, i_dt, linearized=True))
