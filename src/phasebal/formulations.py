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
* lossless branch-flow: the fixed-voltage state at the flat profile read as
  squared magnitudes to first order in the drop, the loads' exact sum on the
  transformer: under a balanced source the nominally rotated linear branch
  flow of Gan & Low (2014), under an unbalanced one the source's own ratios.

All evaluators return the same result shape, so search code can score
assignments under any model and verify winners against the exact power
flow. The private batch kernels score many assignments at once for the
searches, in one chunked loop (`_Kernel.score`) that returns objectives; a
kernel class's `separable` attribute tells search code whether the model's
customer effects add up. A separable kernel scores a candidate by adding its
switch customers' effect tables onto a base state, and prices every
candidate's transformer spread from two half-tables of transformer power.
For PV reactive-power tuning, a line builder (`_fixv_line`, `_linv_line`,
`_lbfm_line`) prices a batch of values of one customer's reactive
adjustment, objectives only, from the model's field equations
(`_fixv_fields`, `_linv_currents`, `_lbfm_fields`) run once per coordinate:
the fields are affine in the customer's load (fixv, lbfm) or own current
(linv), and `_line` moves them along those directions. Per coordinate,
`_live_terms` screens each voltage slack (v_lo, v_hi, neg_seq) with a bound
over the customer's whole band, and a slack it proves +0.0 at every point
is left out, which changes no bit. `_price` is the one pricer of any batch
of model states: the spread pi, the transformer current as |s_dt| / |v0|
under every model, the per-term slack sums (`_slack_terms`) and the
objective. Every per-phase sum over customers, a kernel's base transformer
power included, is `_injections(phases, x).sum(axis=-2)`, in customer order.
`optimizer._MODELS` is the one lookup from a model name to its evaluator,
kernel class and line builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Mapping

import numpy as np

from .netmodel import MB, NEG_SEQ_MAX, V_MAX, V_MIN, CaseSnapshot, Network, _freeze
from .powerflow import (
    _BAND_TOL,
    PhaseAssignment,
    _bus_voltages,
    _check_band,
    _coupling,
    _customer_meet,
    _effective_loads,
    _injections,
    check_assignment,
    feeder_geometry,
    power_balance_residual,
    solve_utpf,
)

CHI = complex(np.exp(-2j * np.pi / 3))
# Row vector turning phase values into 3x the negative-sequence component.
_NEG_ROW = np.array([1.0, CHI, CHI**2], dtype=complex)

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


def _limits(squared: bool) -> tuple[float, float, float]:
    """V_MIN, V_MAX and NEG_SEQ_MAX, squared for branch-flow units."""

    k = 2 if squared else 1
    return V_MIN**k, V_MAX**k, NEG_SEQ_MAX**k


def _slack_terms(
    i_dt_max: float,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
    neg: np.ndarray | None,
    i_dt_mag: np.ndarray,
    squared: bool = False,
    col_inverse: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield the limit slacks v_lo, v_hi, neg_seq and i_dt, over any leading batch axes.

    lo and hi are (..., buses, 3) voltage measures held against V_MIN and
    V_MAX, neg the (..., buses) unbalance magnitude against NEG_SEQ_MAX and
    i_dt_mag the (..., 3) transformer current magnitudes against i_dt_max.
    With squared set, lo and hi are squared magnitudes (branch-flow units),
    and the voltage limits and the unbalance magnitude are squared to match.
    A voltage measure given as None has its term left out (see
    `_live_terms`). One term at a time, so that a large batch never holds
    all four. The phase axis is reduced elementwise, which gives min and max
    bit for bit. With col_inverse given, the measures are at the geometry's
    columns, and one take puts each per-bus term in bus order C-ordered, so
    it sums as one built there (fancy indexing's F-ordered copy would not).
    """

    buses = (lambda t: t) if col_inverse is None else partial(np.take, indices=col_inverse, axis=-1)
    v_min, v_max, neg_max = _limits(squared)
    if lo is not None:
        yield buses(np.maximum(0.0, v_min - _phase_min(lo)))
    if hi is not None:
        yield buses(np.maximum(0.0, _phase_max(hi) - v_max))
    if neg is not None:
        yield buses(np.maximum(0.0, (neg**2 if squared else neg) - neg_max))
    yield np.maximum(0.0, i_dt_mag - i_dt_max)


def _spread(s_dt: np.ndarray) -> np.ndarray:
    """The transformer spread pi of (..., 3) complex transformer powers."""

    p, q = s_dt.real, s_dt.imag
    return np.maximum(_phase_max(p) - _phase_min(p), _phase_max(q) - _phase_min(q))


@dataclass(frozen=True, eq=False)
class _BatchScore:
    objective: np.ndarray
    pi: np.ndarray
    slack: tuple[np.ndarray, ...]  # each priced term summed over its last axis, in order


def _price(
    network: Network,
    s_dt: np.ndarray,
    lo: np.ndarray | None,
    hi: np.ndarray | None,
    vneg: np.ndarray | None,
    squared: bool = False,
    live: tuple[bool, bool, bool] = (True, True, True),
    col_inverse: np.ndarray | None = None,
) -> _BatchScore:
    """pi + MB * total slack of a batch of model states, and each term's sum.

    s_dt is the (..., 3) complex transformer power, whose current every model
    prices as |s_dt| / |v0|; lo, hi and the unbalance phasor vneg are the
    model's voltage measures (see `_result`), col_inverse as `_slack_terms`
    takes it. live flags the v_lo, v_hi and neg_seq terms to price; a line
    scorer clears those `_live_terms` proves zero, their measures then None.
    """

    lo, hi, vneg = (m if keep else None for m, keep in zip((lo, hi, vneg), live))
    neg = None if vneg is None else np.abs(vneg)
    i_dt_mag = np.abs(s_dt) / np.abs(network.v0)
    terms = _slack_terms(network.i_dt_max, lo, hi, neg, i_dt_mag, squared, col_inverse)
    slack = tuple(term.sum(axis=-1) for term in terms)
    pi = _spread(s_dt)
    return _BatchScore(objective=pi + MB * sum(slack), pi=pi, slack=slack)


# How far a bound on a voltage measure along a line must clear its limit for
# the line scorers to leave that limit's slack out: far above the rounding of
# the measures and of the bound itself (about 1e-16 pu).
_SCREEN_MARGIN = 1e-9


def _live_terms(
    at: tuple[np.ndarray, ...], moves: tuple[np.ndarray, ...], squared: bool = False
) -> tuple[bool, bool, bool]:
    """Whether the v_lo, v_hi and neg_seq slacks can be nonzero along a line.

    at holds the voltage measures lo, hi and vneg at the line's base, and
    moves bounds, elementwise, how far lo, hi and |vneg| move from there at
    any point the line prices. Every measure is linear in the fields or the
    modulus of a linear map of them, so it moves by at most the modulus of
    its own value at the fields' move. A term whose bound clears its limit
    by _SCREEN_MARGIN is +0.0 at every such point, and leaving +0.0 out of
    the slack total changes no bit of the objective. A NaN bound clears
    nothing.
    """

    (lo, hi, vneg), (d_lo, d_hi, d_neg) = at, moves
    v_min, v_max, neg_max = _limits(squared)
    neg = np.max(np.abs(vneg) + d_neg)
    return (
        not np.min(lo - d_lo) >= v_min + _SCREEN_MARGIN,
        not np.max(hi + d_hi) <= v_max - _SCREEN_MARGIN,
        not (neg**2 if squared else neg) <= neg_max - _SCREEN_MARGIN,
    )


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
    vneg: np.ndarray  # (buses,) model negative-sequence phasor, in per-unit for every model
    v: np.ndarray | None = None  # (buses, 3) phasors when the model has them
    meta: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for nameattr, kind in (("s_dt", complex), ("vm", float), ("vneg", complex)):
            _freeze(self, nameattr, kind)
        if self.v is not None:
            _freeze(self, "v", complex)


def _result(
    method: str,
    network: Network,
    s_dt: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    vneg: np.ndarray,
    v: np.ndarray | None,
    squared: bool = False,
    meta: Mapping[str, object] | None = None,
) -> EvaluationResult:
    """One model's view of one state, priced by `_price`.

    lo and hi are the voltage measures held against the lower and upper
    limits, and hi is |V| itself, or its square when squared is set.
    """

    score = _price(network, s_dt, lo, hi, vneg, squared)
    return EvaluationResult(
        method=method,
        pi=float(score.pi),
        slack={k: float(t) for k, t in zip(("v_lo", "v_hi", "neg_seq", "i_dt"), score.slack)},
        squared_voltage_units=squared,
        objective=float(score.objective),
        s_dt=s_dt,
        vm=np.sqrt(np.clip(hi, 0.0, None)) if squared else hi,
        vneg=vneg,
        v=v,
        meta=dict(meta or {}),
    )


def evaluate_exact(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Objective under the exact power flow; the verification reference.

    meta carries the solve's iterations, final mismatch and power-balance
    residual, so a verified state needs no second solve to be reported.
    """

    solution = solve_utpf(snapshot, assignment, q_adjust=q_adjust)
    lo, vm, vneg = _voltage_measures(solution.v)
    meta = {
        "iterations": solution.iterations,
        "mismatch": solution.mismatch,
        "balance_residual": power_balance_residual(solution, snapshot),
    }
    return _result("utpf", snapshot.network, solution.s_dt, lo, vm, vneg, solution.v, meta=meta)


def _fixv_profile(network: Network, profile: np.ndarray | None) -> np.ndarray:
    """The frozen voltage field: given (buses, 3), or flat at the root. A
    customer bus where the given field vanishes or is not finite (an
    infinite voltage would draw no current) raises FormulationError."""

    if profile is None:
        return np.tile(network.v0, (network.n_buses, 1))
    profile = np.asarray(profile, dtype=complex)
    if profile.shape != (network.n_buses, 3):
        raise ValueError(f"profile must be (buses, 3), got {profile.shape}")
    at = np.abs(profile[feeder_geometry(network).cust_bus])
    if not np.all(np.isfinite(at) & (at >= 1e-6)):
        raise FormulationError("voltage profile vanishes or is not finite at a customer bus")
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
    return _result("fixv", network, *_phasor_measures(network, v, i_dt), v)


def _fixv_fields(
    network: Network, phases: np.ndarray, s: np.ndarray, profile: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The fixed-voltage model's equations for loads s (..., customers): the
    (..., buses, 3) voltages, computed at the geometry's columns, and (..., 3)
    transformer currents, both affine in every customer's load."""

    geometry = feeder_geometry(network)
    i_cust = np.conj(s) / np.conj(profile[geometry.cust_bus, phases])
    # sel[j, c, phi]: shared-path impedance row Meet[c, bus_j][phi, p_j] at column c.
    sel = _customer_meet(network)[np.arange(len(phases)), phases]  # (customers, k, 3)
    v = network.v0 - np.einsum("jmf,...j->...mf", sel, i_cust)
    return v.take(geometry.col_inverse, axis=-2), _injections(phases, i_cust).sum(axis=-2)


def _phasor_measures(
    network: Network, v: np.ndarray | None, i_dt: np.ndarray, linearized: bool = False
) -> tuple[np.ndarray | None, ...]:
    """s_dt and the voltage measures lo, hi and vneg that `_price` reads off
    a phasor model's voltages and transformer currents; linearized tests the
    lower bound on the projection onto the nominal phasors (linv). A line
    scorer passes v as None when it prices no voltage term; the voltage
    measures are then None."""

    v0 = network.v0
    volts = (None,) * 3 if v is None else _voltage_measures(v, v0 if linearized else None)
    return v0 * np.conj(i_dt), *volts


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
            if _freeze(self, nameattr, complex).shape != (3,):
                raise ValueError(f"{nameattr} must hold one coefficient per phase")

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


def _linv_currents(
    network: Network, s: np.ndarray, phases: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The linearized-inverse customer currents of b (loads, phase choices) rows.

    Customer j draws conj(s_j) * g(V_j), affine in its own voltage V_j through
    the fitted surrogate, and V_j depends on the other customers' currents
    only through their shared-path impedances. So the fixed point runs over
    the customers' voltages alone (the fixed-point linearization of Bernstein
    & Dall'Anese, 2017), on the same customer-space coupling as the exact
    `solve_utpf`, with g in place of 1 / conj(V). It stops once its step,
    taken over the whole batch, contracts below _LINV_TOL; a batch that does
    not within _LINV_MAX_ITER iterations raises FormulationError.
    Returns the (b, customers, 3) injections of the converged currents and
    their sums, the (b, 3) transformer currents. The bus-voltage step,
    `_bus_voltages` of the injections, is the caller's, so a caller may run
    it on some rows only: the transformer currents, and so the spread pi,
    need no bus voltage.

    s is one (customers,) load vector or a (b, customers) batch, phases a
    (b, customers) batch or one (customers,) row that every load row shares,
    whose coupling is then gathered once. The fixed point starts from the
    root voltages.
    """

    fit = _default_fit(network)
    coupling = _coupling(network, phases)
    sconj = np.conj(s)
    v0c = network.v0[phases]

    v = v0c
    i_cust = sconj * fit.g(v, phases)
    for _ in range(_LINV_MAX_ITER):
        v_new = v0c - (coupling @ i_cust[..., None])[..., 0]
        step = float(np.max(np.abs(v_new - v))) if v.size else 0.0
        v = v_new
        i_cust = sconj * fit.g(v, phases)
        if step <= _LINV_TOL:
            break
    else:
        raise FormulationError(f"voltage fixed point did not contract below {_LINV_TOL:.1e}")

    injected = _injections(phases, i_cust)
    return injected, injected.sum(axis=1)


def evaluate_linv(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Linearized-inverse model: `_linv_currents` for a batch of one, then its
    bus voltages.

    Customer currents are affine in their bus voltage via the surrogate
    fitted over the voltage band. A state the fixed point cannot
    reach raises FormulationError. Slack uses the linearized lower voltage
    bound.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    phases = np.asarray(assignment.phases, dtype=int)
    injected, i_dt = _linv_currents(network, _effective_loads(snapshot, q_adjust), phases[None, :])
    v = _bus_voltages(network, injected)[0].take(feeder_geometry(network).col_inverse, axis=0)
    return _result("linv", network, *_phasor_measures(network, v, i_dt[0], True), v)


# A line scorer: line(q, c) gives g, which maps a batch of values t of
# customer c's reactive adjustment, every other customer held at q, to the
# model's objectives there: the scalar evaluator's, to rounding. A t outside
# c's band raises ValueError, as the scalar evaluators do. A line builder
# makes one from a snapshot, an assignment's phases and a profile.
_Line = Callable[[np.ndarray, int], Callable[[np.ndarray], np.ndarray]]


def _line(
    network: Network, base: tuple[np.ndarray, ...], directions: list[tuple[np.ndarray, ...]],
    coords: Callable[[np.ndarray], tuple[np.ndarray, ...]], reach: list[float],
    measures: Callable[..., tuple[np.ndarray, ...]], band: tuple[float, float], squared: bool = False,
) -> Callable[[np.ndarray], np.ndarray]:
    """One coordinate's g: fields base + coords(t)[k] * directions[k], added in order of k.

    base and each direction hold a model's field arrays, the transformer's
    last, and measures maps fields to what `_price` reads. No point of the
    band moves coordinate k by more than reach[k], so reach[k] times the
    measures of direction k, summed over k, bounds how far the voltage
    measures move, and `_live_terms` screens them here, once. An infinite
    reach bounds nothing, and every term is priced. With no voltage term
    live, g moves only the transformer field.
    """

    live = (True, True, True)
    if max(reach) < np.inf:
        rates = [measures(*d)[1:] for d in directions]
        moves = tuple(sum(r * np.abs(m) for r, m in zip(reach, ms)) for ms in zip(*rates))
        live = _live_terms(measures(*base)[1:], moves, squared)
    kept = base if any(live) else (None,) * (len(base) - 1) + base[-1:]

    def g(t: np.ndarray) -> np.ndarray:
        _check_band(t, *band)
        fields = kept
        for step, direction in zip(coords(t), directions):
            fields = [None if f is None else f + np.multiply.outer(step, u) for f, u in zip(fields, direction)]
        return _price(network, *measures(*fields), squared, live).objective

    return g


def _linv_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of linv, closed in customer c's own current i_c; no profile.

    With every other customer's load held, the fixed-point map is affine in
    i_c, and so are its fixed point's bus voltages and transformer currents:
    base + Re(i_c) * U_re + Im(i_c) * U_im. Per coordinate, one `_linv_currents`
    and `_bus_voltages` of three rows, c's load at 0, delta and j * delta,
    give the base and the two directions. Each point t then solves
    i_c = w g(V_c(i_c)), with w = conj(s_c + jt), as one real 2x2 system,
    since V_c is affine in i_c too.

    As |i_c| <= |w g0| + |w| (|g_re| + |g_im|) |i_c|, both directions reach at
    most |w g0| / (1 - |w| (|g_re| + |g_im|)), |w| taken at its larger band
    end widened by _BAND_TOL; with that denominator not positive, the reach
    is infinite and every term is priced.
    """

    network = snapshot.network
    fit = _default_fit(network)
    geometry = feeder_geometry(network)

    def line(q: np.ndarray, c: int) -> Callable[[np.ndarray], np.ndarray]:
        rows = np.repeat(_effective_loads(snapshot, q)[None, :], 3, axis=0)
        delta = max(abs(rows[0, c]), float(snapshot.q_hi_pu[c] - snapshot.q_lo_pu[c]))
        rows[:, c] = (0.0, delta, 1j * delta)
        injected, i_dt = _linv_currents(network, rows, phases)
        v = _bus_voltages(network, injected).take(geometry.col_inverse, axis=1)
        p, bus = phases[c], geometry.cust_bus[c]
        i_c = np.conj(rows[1:, c]) * fit.g(v[1:, bus, p], p)
        # Field difference k (row k + 1 less row 0) is m[0, k] U_re + m[1, k] U_im,
        # with column k of m the (Re, Im) of row k + 1's i_c; inv(m) weighs
        # the differences into U_re and U_im.
        m_inv = np.linalg.inv(np.array([i_c.real, i_c.imag]))
        units = [
            tuple(np.tensordot(weights, f[1:] - f[0], axes=1) for f in (v, i_dt))
            for weights in m_inv.T
        ]
        # g(V_c) at the base and along each unit direction of i_c.
        g0 = fit.g(v[0, bus, p], p)
        g_re, g_im = (fit.ck[p] * u[0][bus, p].real + fit.ch[p] * u[0][bus, p].imag for u in units)
        s_c, lo, hi = snapshot.s_pu[c], float(snapshot.q_lo_pu[c]), float(snapshot.q_hi_pu[c])
        w_max = max(abs(s_c + 1j * (lo - _BAND_TOL)), abs(s_c + 1j * (hi + _BAND_TOL)))
        shrink = 1.0 - w_max * (abs(g_re) + abs(g_im))
        reach = w_max * abs(g0) / shrink if shrink > 0.0 else np.inf

        def coords(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            w = np.conj(s_c + 1j * t)  # as `_effective_loads` adds it
            a, b, e = w * g0, w * g_re, w * g_im
            # x + jy = a + x b + y e, as (1 - Re b) x - Re e y = Re a and
            # -Im b x + (1 - Im e) y = Im a, by Cramer's rule.
            det = (1.0 - b.real) * (1.0 - e.imag) - e.real * b.imag
            x = (a.real * (1.0 - e.imag) + e.real * a.imag) / det
            y = ((1.0 - b.real) * a.imag + b.imag * a.real) / det
            return x, y

        measures = partial(_phasor_measures, network, linearized=True)
        return _line(network, (v[0], i_dt[0]), units, coords, [reach] * 2, measures, (lo, hi))

    return line


def evaluate_lbfm(
    snapshot: CaseSnapshot,
    assignment: PhaseAssignment,
    q_adjust: np.ndarray | None = None,
) -> EvaluationResult:
    """Lossless branch-flow model over squared voltage magnitudes.

    Per-phase flows aggregate customer powers unchanged (no losses, no
    voltage feedback). The voltages are flat fixv's read as squared
    magnitudes (`_lbfm_fields`): under a balanced source, as every imported
    feeder has, the nominally rotated branch flow; an unbalanced source's own
    phase ratios replace that rotation. Voltage-type slacks are in squared
    per-unit; the transformer current surrogate is |S_phase| / |V0_phase|.
    """

    check_assignment(snapshot, assignment)
    network = snapshot.network
    phases = np.asarray(assignment.phases, dtype=int)
    fields = _lbfm_fields(network, phases, _effective_loads(snapshot, q_adjust))
    return _result("lbfm", network, *_lbfm_measures(*fields), None, squared=True)


def _lbfm_view(v0: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lbfm's reading of fixv voltages v (..., k, 3) near the root's v0: the
    squared magnitudes to first order in the drop v0 - v, from
    |v|^2 = 2 Re(conj(v0) v) - |v0|^2 + |v0 - v|^2, and the (..., k)
    unbalance phasor, fixv's own."""

    return 2.0 * np.real(np.conj(v0) * v) - np.abs(v0) ** 2, v @ (_NEG_ROW / 3.0)


def _lbfm_fields(
    network: Network, phases: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The branch-flow model's equations for loads s (..., customers): the
    (..., buses, 3) squared magnitudes and (..., buses) unbalance phasor of
    the fixed-voltage state at the flat profile, and the (..., 3) transformer
    power, the exact per-phase sum of the loads; all affine in every load.

    The squares are |v0[phi]|^2 - sum_j 2 Re(s_j conj(Z_j[phi]) v0[phi] / v0[p_j]),
    Z_j the shared-path impedances of customer j, drawing on phase p_j, and
    the unbalance phasor is fixv's.
    """

    v, _ = _fixv_fields(network, phases, s, _fixv_profile(network, None))
    return *_lbfm_view(network.v0, v), _injections(phases, s).sum(axis=-2)


def _lbfm_measures(diag: np.ndarray, vneg: np.ndarray, s_dt: np.ndarray) -> tuple[np.ndarray, ...]:
    """s_dt, diag as both voltage measures, and vneg."""

    return s_dt, diag, diag, vneg


def _affine_line(
    snapshot: CaseSnapshot,
    fields: Callable[[np.ndarray], tuple[np.ndarray, ...]],
    measures: Callable[..., tuple[np.ndarray, ...]],
    squared: bool = False,
) -> _Line:
    """The line scorer of a model whose fields are affine in each customer's load.

    fields maps (..., customers) loads to the model's field arrays, the
    transformer's last, and measures maps those to what `_price` reads. Per
    coordinate, the fields are built at q and one unit of reactive load
    further on customer c, the `_line` direction; t moves along it by
    t - q[c], at most the band's reach from q[c].
    """

    def line(q: np.ndarray, c: int) -> Callable[[np.ndarray], np.ndarray]:
        q_c, lo, hi = float(q[c]), float(snapshot.q_lo_pu[c]), float(snapshot.q_hi_pu[c])
        rows = np.repeat(_effective_loads(snapshot, q)[None, :], 2, axis=0)
        rows[1, c] += 1j
        base, unit = zip(*((f[0], f[1] - f[0]) for f in fields(rows)))
        reach = max(q_c - lo, hi - q_c) + _BAND_TOL
        return _line(snapshot.network, base, [unit], lambda t: (t - q_c,), [reach], measures, (lo, hi), squared)

    return line


def _fixv_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of fixv at profile, flat at the root when omitted."""

    network = snapshot.network
    fields = partial(_fixv_fields, network, phases, profile=_fixv_profile(network, profile))
    return _affine_line(snapshot, fields, partial(_phasor_measures, network))


def _lbfm_line(snapshot: CaseSnapshot, phases: np.ndarray, profile: np.ndarray | None) -> _Line:
    """The line scorer of lbfm, which has no voltage profile to read."""

    fields = partial(_lbfm_fields, snapshot.network, phases)
    return _affine_line(snapshot, fields, _lbfm_measures, squared=True)


# ---------------------------------------------------------------------------
# Batch scoring kernels (internal).
#
# Search code scores thousands of assignments per period. Customer effects
# under the fixed-voltage model are separable, so its kernel folds the
# non-adjustable customers' effects at their own phase into a base state,
# precomputes each movable customer's voltage effect table at every phase,
# and scores a candidate by adding its movable customers' effects onto the
# base in customer order. The branch-flow kernel is the fixed-voltage kernel
# at the flat profile; it differs only in the power each customer lands on
# the transformer (its load, exactly) and in reading the voltages as squared
# magnitudes with `_lbfm_view`, as `_lbfm_fields` does. The outer sum of two
# half-assignment tables of transformer power (sv1, sv2) prices every
# candidate's spread pi (`spreads`), which the bound-ordered search ranks
# by; a scored block adds its transformer power from the same tables, so
# the bound and the score agree bit for bit.
# The linearized-inverse model is not separable; its kernel hands each block
# of candidates to `_linv_currents`, the same fixed point `evaluate_linv` runs
# for one, reads every row's spread pi off the transformer currents, and
# runs the bus-voltage step and the pricing only on the rows whose pi is
# below the caller's bound (local search passes its incumbent).
# `_Kernel.score`, the one scoring loop, scores a class's `chunk`
# candidates per block and returns their objectives. Every kernel keeps its
# states at the geometry's columns and prices them through `_price`, as the
# scalar evaluators do, which copies each column's slacks to the buses that
# share it (no customer below them).
# ---------------------------------------------------------------------------


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
    """What every kernel shares: loads, movable positions, initial phases, the scoring loop.

    Only the fixed-voltage kernel reads profile, its frozen voltage field.
    """

    separable = False
    squared = False
    chunk = 6561  # candidates per scored block

    def __init__(self, snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> None:
        self.network = snapshot.network
        self.v0 = self.network.v0
        self.s = _effective_loads(snapshot, None)
        self.movable = np.asarray(sorted(snapshot.adjustable_idx), dtype=int)
        self.initial = np.array([c.initial_phase for c in self.network.customers], dtype=int)
        self.col_inverse = feeder_geometry(self.network).col_inverse

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

    def score(self, choices: np.ndarray, bound: float = np.inf) -> np.ndarray:
        """The objectives of (b, movable) candidate choices, `chunk` rows per block.

        An objective is pi plus a non-negative slack term, so a row whose
        spread pi is at or above bound cannot score below it. The linv
        kernel returns +inf for such a row instead of pricing it; the
        separable kernels, whose scan already orders by pi, price every row.
        A row priced holds its unbounded objective bit for bit; so does a
        row whose pi is NaN.
        """

        choices = np.asarray(choices, dtype=np.int64)
        objective = np.empty(len(choices))
        for lo in range(0, len(choices), self.chunk):
            objective[lo:lo + self.chunk] = self._score_block(choices[lo:lo + self.chunk], bound)
        return objective


class _FixvKernel(_Kernel):
    """Batch scorer for the fixed-voltage model at one voltage profile, whose
    customer effects simply add up."""

    method = "fixv"
    separable = True

    def __init__(self, snapshot: CaseSnapshot, profile: np.ndarray | None = None) -> None:
        super().__init__(snapshot)
        profile = _fixv_profile(self.network, profile)
        cust_bus = feeder_geometry(self.network).cust_bus
        i_all = np.conj(self.s)[:, None] / np.conj(profile[cust_bus])  # (customers, 3 options)
        s_on = self._s_on(i_all)
        fixed = np.setdiff1d(np.arange(len(s_on)), self.movable)
        pf = self.initial[fixed]
        self.s_base = _injections(pf, s_on[fixed, pf]).sum(axis=-2)
        # Voltage effect at (column, phi) of customer j connected at p, built
        # only for the fixed customers at their phase and the movable at all.
        meet = _customer_meet(self.network)
        fixed_effects = -meet[fixed, pf] * i_all[fixed, pf][:, None, None]
        self.base = np.tile(self.v0, (meet.shape[2], 1)) + fixed_effects.sum(axis=0)
        self.effects = -meet[self.movable] * i_all[self.movable][:, :, None, None]
        k1 = (self.n_movable + 1) // 2
        self.halves = [self._half(s_on[self.movable[part]]) for part in (slice(0, k1), slice(k1, None))]

    def _s_on(self, i_all: np.ndarray) -> np.ndarray:
        """(customers, 3) power customer j lands on phase p drawing i_all[j, p]."""

        return self.v0[None, :] * np.conj(i_all)

    _measures = staticmethod(_voltage_measures)

    @staticmethod
    def _half(s_on: np.ndarray) -> np.ndarray:
        """Transformer power of every choice of these customers in `_decode`
        order, built by one outer sum per customer."""

        sv = np.zeros((1, 3), dtype=complex)
        for row in s_on:
            # On phase p the customer adds its power to the transformer's phase p only.
            sv = (sv[:, None] + np.diag(row)[None, :]).reshape(-1, 3)
        return sv

    def spreads(self) -> np.ndarray:
        """Every candidate's spread pi by flat index. The half-tables' outer
        sum adds up s_dt bit for bit as `score` does."""

        sv1, sv2 = self.halves
        return _spread(((self.s_base + sv1)[:, None] + sv2[None, :]).reshape(-1, 3))

    def _score_block(self, choices: np.ndarray, bound: float) -> np.ndarray:
        k1 = (self.n_movable + 1) // 2
        idx1 = choices[:, :k1] @ _radix(k1)
        idx2 = choices[:, k1:] @ _radix(self.n_movable - k1)
        sv1, sv2 = self.halves
        s_dt = self.s_base + sv1[idx1] + sv2[idx2]
        # The base plus each movable customer's effect, in customer order.
        v = np.repeat(self.base[None], len(choices), axis=0)
        for e, chosen in zip(self.effects, choices.T):
            v += e[chosen]
        measures = self._measures(v)
        del v  # a block's largest array, freed once measured
        return _price(self.network, s_dt, *measures, self.squared, col_inverse=self.col_inverse).objective


class _LbfmKernel(_FixvKernel):
    """Batch scorer for the lossless branch-flow model: fixv at the flat
    profile (its callers pass none), read as `_lbfm_fields` reads it."""

    method = "lbfm"
    squared = True

    def _s_on(self, i_all: np.ndarray) -> np.ndarray:
        # The loads themselves, so that plateau ties in pi stay exact.
        return np.repeat(self.s[:, None], 3, axis=1)

    def _measures(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        diag, vneg = _lbfm_view(self.v0, v)
        return diag, diag, vneg


class _LinvKernel(_Kernel):
    """Batch scorer for the linearized-inverse model, one `_linv_currents` per block."""

    method = "linv"
    chunk = 128

    def _score_block(self, choices: np.ndarray, bound: float) -> np.ndarray:
        # The fixed point runs over the whole block, whose step decides when
        # it stops; the bus voltages, measures and slacks only for the rows
        # whose pi is below bound (or NaN).
        injected, i_dt = _linv_currents(self.network, self.s, self.full_phases(choices))
        s_dt = self.v0 * np.conj(i_dt)
        live = ~(_spread(s_dt) >= bound)
        objective = np.full(len(choices), np.inf)
        rows = np.flatnonzero(live)
        if len(rows) == 1 < len(choices):
            # A product of one row takes another BLAS path than the block's;
            # one more row, priced and dropped, keeps the live row's bits.
            rows = np.array([0, rows[0]] if rows[0] else [0, 1])
        if len(rows):
            v = _bus_voltages(self.network, injected[rows])
            measures = _voltage_measures(v, self.v0)
            priced = _price(self.network, s_dt[rows], *measures, col_inverse=self.col_inverse)
            objective[rows] = np.where(live[rows], priced.objective, np.inf)
        return objective
