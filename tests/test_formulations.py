"""Objective pieces, the four evaluators, and the batch scoring kernels."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phasebal import formulations, powerflow
from phasebal.formulations import (
    _FIT_HALFWIDTH,
    AffineFit,
    FormulationError,
    _decode,
    _lbfm_fields,
    _lbfm_measures,
    _linv_currents,
    _phasor_measures,
    _price,
    _radix,
    _result,
    _slack_terms,
    _spread,
    _voltage_measures,
    evaluate_exact,
    evaluate_fixv,
    evaluate_lbfm,
    evaluate_linv,
    fit_inverse_voltage,
)
from phasebal.cli import load_scenario
from phasebal.netmodel import MB, NEG_SEQ_MAX, V_MAX, V_MIN, CaseSnapshot, build_snapshot
from phasebal.optimizer import (
    _COARSE,
    _MODELS,
    _Kernel,
    _LinvKernel,
    branch_and_bound,
    exhaustive,
    local_search,
    optimize_pv_q,
)
from phasebal.powerflow import (
    _bus_voltages,
    _customer_meet,
    feeder_geometry,
    solve_utpf,
)

from conftest import loaded_snapshot, make_v0, random_radial_network, two_bus_network
from test_powerflow import bus_parents, chain_lca_meet, on_customer_paths, snapshot_for

CHI = np.exp(-2j * np.pi / 3.0)


class TestUnbalanceMeasures:
    def test_spread_picks_worst_axis(self):
        s = np.array([1.0 + 0.5j, 0.8 + 0.1j, 0.9 + 0.2j])
        assert _spread(s) == pytest.approx(0.4)  # Q spread beats P spread
        assert _spread(np.full(3, 0.7 + 0.3j)) == 0.0

    def test_negative_sequence_on_sequence_sets(self):
        positive = np.array([1.0, CHI, CHI**2])
        negative = np.array([1.0, CHI**2, CHI])
        vneg = _voltage_measures(np.stack([positive, negative, make_v0()]))[2]
        assert abs(vneg[0]) <= 1e-14
        assert vneg[1] == pytest.approx(1.0)
        assert abs(vneg[2]) <= 1e-14

    def test_negative_sequence_broadcasts(self):
        buses = np.stack([np.array([1.0, CHI, CHI**2]), np.array([1.0, CHI**2, CHI])])
        vneg = _voltage_measures(np.stack([buses, buses[::-1]]))[2]
        assert vneg.shape == (2, 2)
        assert abs(vneg[0, 0]) <= 1e-14 and vneg[0, 1] == pytest.approx(1.0)
        assert vneg[1, 0] == pytest.approx(1.0) and abs(vneg[1, 1]) <= 1e-14


def slacks_of(v, i_dt_mag, nominal=None, i_dt_max=2.0):
    """The scalar evaluators' slack terms v_lo, v_hi, neg_seq and i_dt for a
    (buses, 3) voltage field."""

    lo, vm, vneg = _voltage_measures(np.asarray(v, dtype=complex), nominal)
    return tuple(_slack_terms(i_dt_max, lo, vm, np.abs(vneg), np.asarray(i_dt_mag, dtype=float)))


class TestSlacks:
    def test_exact_mode_hand_case(self):
        v = np.array(
            [
                1.05 * np.exp(1j * np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])),
                0.90 * np.exp(1j * np.array([0.0, -2 * np.pi / 3, 2 * np.pi / 3])),
            ]
        )
        v_lo, v_hi, neg_seq, i_dt = slacks_of(v, np.array([0.5, 0.5, 2.5]))
        assert v_lo == pytest.approx([0.0, V_MIN - 0.90])
        assert np.all(v_hi == 0.0)
        assert np.all(neg_seq == 0.0)  # balanced scaling keeps sequence clean
        assert i_dt == pytest.approx([0.0, 0.0, 2.5 - 2.0])

    def test_linearized_mode_projects_onto_nominal(self):
        nominal = make_v0()
        # On-angle voltage: projection equals the magnitude.
        v = (0.92 * np.exp(1j * np.angle(nominal)))[None, :]
        exact = slacks_of(v, np.zeros(3))
        lin = slacks_of(v, np.zeros(3), nominal=nominal)
        assert lin[0] == pytest.approx(exact[0])

    @pytest.mark.parametrize("period", [41, 48])
    def test_reported_slack_is_the_priced_slack(self, network, demands, period):
        # Most of these states carry slack at periods 41 and 48; each
        # objective is its spread plus MB times its reported slack, bit for bit.
        snap = build_snapshot(network, demands, period)
        asg = snap.phases
        exact = evaluate_exact(snap, asg)
        results = [
            exact,
            evaluate_fixv(snap, asg),
            evaluate_fixv(snap, asg, profile=exact.v),
            evaluate_linv(snap, asg),
            evaluate_lbfm(snap, asg),
        ]
        assert list(exact.slack) == ["v_lo", "v_hi", "neg_seq", "i_dt"]
        assert sum(sum(r.slack.values()) > 0.0 for r in results) >= 3
        for r in results:
            assert r.objective == r.pi + MB * sum(r.slack.values())


def with_nonfinite_rows(x):
    """x with a few (..., 3) rows of NaN and +-inf mixed into finite values."""

    x = x.copy()
    x[0, :5] = [
        [np.nan, 0.5, -0.5],
        [np.inf, -np.inf, 0.0],
        [1.0, np.nan, np.inf],
        [-np.inf, -np.inf, -np.inf],
        [np.inf, np.nan, -np.inf],
    ]
    return x


class TestPhaseReduction:
    """The elementwise reduction over the phase axis gives numpy's reductions bit for bit."""

    def test_voltage_slacks_match_min_and_max(self):
        rng = np.random.default_rng(3)
        lo = with_nonfinite_rows(rng.uniform(0.85, 1.15, size=(6, 40, 3)))
        hi = with_nonfinite_rows(rng.uniform(0.85, 1.15, size=(6, 40, 3)))[::-1]
        v_lo, v_hi, *_ = _slack_terms(2.0, lo, hi, np.zeros((6, 40)), np.zeros((6, 3)))
        expect_lo = np.maximum(0.0, V_MIN - lo.min(axis=-1))
        expect_hi = np.maximum(0.0, hi.max(axis=-1) - V_MAX)
        assert v_lo.tobytes() == expect_lo.tobytes()
        assert v_hi.tobytes() == expect_hi.tobytes()

    def test_pi_matches_ptp(self):
        rng = np.random.default_rng(4)
        s_dt = np.empty((6, 40, 3), dtype=complex)
        s_dt.real = with_nonfinite_rows(rng.normal(size=s_dt.shape))
        s_dt.imag = with_nonfinite_rows(rng.normal(size=s_dt.shape))[:, ::-1]
        with np.errstate(invalid="ignore"):  # inf - inf
            pi = _spread(s_dt)
            expect = np.maximum(np.ptp(s_dt.real, axis=-1), np.ptp(s_dt.imag, axis=-1))
        assert pi.tobytes() == expect.tobytes()


def worst_fit_error(fit, network, grid=50):
    """The largest |g - 1/conj(V)| on a grid x grid window of magnitudes
    between the voltage limits and angles within the halfwidth of each
    phase's nominal direction, denser than the fit's own grid."""

    half = _FIT_HALFWIDTH
    worst = 0.0
    for phi, v0 in enumerate(network.v0):
        centre = float(np.angle(v0))
        mags = np.linspace(V_MIN, V_MAX, grid)
        angs = np.linspace(centre - half, centre + half, grid)
        v = (mags[:, None] * np.exp(1j * angs[None, :])).ravel()
        worst = max(worst, float(np.max(np.abs(fit.g(v, phi) - 1.0 / np.conj(v)))))
    return worst


class TestInverseVoltageFit:
    def test_residual_is_small_but_honest(self, network):
        fit = fit_inverse_voltage(network.v0)
        assert 1e-3 <= worst_fit_error(fit, network) <= 3.2e-2

    def test_surrogate_tracks_inverse_at_nominal(self, network):
        fit = fit_inverse_voltage(network.v0)
        worst = worst_fit_error(fit, network)
        v0 = network.v0
        for phi in range(3):
            err = abs(fit.g(v0[phi], phi) - 1.0 / np.conj(v0[phi]))
            assert err <= worst

    def test_complex_views_match_parts(self, network):
        # Each complex coefficient row joins the least-squares fits of the
        # real and the imaginary part of 1/conj(V) on the same design.
        fit = fit_inverse_voltage(network.v0)
        half = _FIT_HALFWIDTH
        for phi, v0 in enumerate(network.v0):
            centre = float(np.angle(v0))
            mags = np.linspace(V_MIN, V_MAX, 20)
            angs = np.linspace(centre - half, centre + half, 20)
            v = (mags[:, None] * np.exp(1j * angs[None, :])).ravel()
            design = np.column_stack([np.ones(v.size), v.real, v.imag])
            target = 1.0 / np.conj(v)
            re_c = np.linalg.lstsq(design, target.real, rcond=None)[0]
            im_c = np.linalg.lstsq(design, target.imag, rcond=None)[0]
            row = np.array([fit.cb[phi], fit.ck[phi], fit.ch[phi]])
            assert row.tobytes() == (re_c + 1j * im_c).tobytes()

    def test_coefficient_shape_enforced(self):
        with pytest.raises(ValueError, match="one coefficient per phase"):
            AffineFit(cb=np.zeros(2), ck=np.zeros(3), ch=np.zeros(3))

    def test_coefficients_are_copied_before_freezing(self):
        cb = np.zeros(3, dtype=complex)
        fit = AffineFit(cb=cb, ck=np.ones(3, dtype=complex), ch=np.ones(3, dtype=complex))
        assert cb.flags.writeable and not fit.cb.flags.writeable


class TestFixedVoltageModel:
    def test_flat_profile_is_default(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = snap.phases
        out = evaluate_fixv(snap, asg)
        flat = np.tile(network.v0, (network.n_buses, 1))
        assert out.method == "fixv"
        assert out.objective == evaluate_fixv(snap, asg, profile=flat).objective
        assert out.objective == pytest.approx(out.pi + MB * sum(out.slack.values()))

    def test_exact_profile_is_a_fixed_point(self, network, demands):
        # Replaying the model at the converged exact voltages reproduces the
        # exact solution: same currents, same voltages, same objective.
        snap = build_snapshot(network, demands, 40)
        asg = snap.phases
        sol = solve_utpf(snap, asg)
        exact = evaluate_exact(snap, asg)
        model = evaluate_fixv(snap, asg, profile=sol.v)
        assert np.max(np.abs(model.v - sol.v)) <= 1e-7
        assert np.max(np.abs(model.s_dt - exact.s_dt)) <= 1e-7
        assert model.pi == pytest.approx(exact.pi, abs=1e-7)
        assert model.objective == pytest.approx(exact.objective, abs=1e-6)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), q_band=st.sampled_from([0.0, 0.02]))
    def test_exact_profile_is_a_fixed_point_on_random_feeders(self, seed, q_band):
        network = random_radial_network(seed, n_buses=25, n_customers=12)
        snap = loaded_snapshot(network, seed, switches=4, q_band=q_band)
        rng = np.random.default_rng(seed)
        asg = np.concatenate([rng.integers(0, 3, 4), snap.phases[4:]])
        q = rng.uniform(snap.q_lo_pu, snap.q_hi_pu)
        sol = solve_utpf(snap, asg, q_adjust=q)
        exact = evaluate_exact(snap, asg, q_adjust=q)
        model = evaluate_fixv(snap, asg, profile=sol.v, q_adjust=q)
        assert np.max(np.abs(model.v - exact.v)) <= 1e-7
        assert model.objective == pytest.approx(exact.objective, abs=1e-6)

    def test_vanishing_profile_rejected(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        with pytest.raises(FormulationError, match="vanishes"):
            evaluate_fixv(
                snap,
                snap.phases,
                profile=np.zeros((network.n_buses, 3), dtype=complex),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_profile_rejected(self, network, demands, bad):
        # An infinite voltage would draw no current: the customer's load would
        # vanish from the objective instead of the profile being refused.
        snap = build_snapshot(network, demands, 73)
        asg = snap.phases
        profile = np.tile(network.v0, (network.n_buses, 1))
        profile[feeder_geometry(network).cust_bus[0], asg[0]] = bad
        with pytest.raises(FormulationError, match="not finite"):
            evaluate_fixv(snap, asg, profile=profile)
        with pytest.raises(FormulationError, match="not finite"):
            _MODELS["fixv"].kernel(snap, profile=profile)

    def test_reactive_adjustment_validation(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = snap.phases
        with pytest.raises(ValueError, match="one entry per customer"):
            evaluate_fixv(snap, asg, q_adjust=np.zeros(2))
        with pytest.raises(ValueError, match="reactive bounds"):
            evaluate_fixv(snap, asg, q_adjust=np.full(network.n_customers, 0.1))

    def test_nan_reactive_adjustment_rejected(self, network, demands):
        # A NaN lies in no band, so no model prices it as an adjustment.
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        asg = snap.phases
        c = int(np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)[0])
        q = np.zeros(network.n_customers)
        q[c] = np.nan
        for solve in (evaluate_fixv, evaluate_linv, evaluate_lbfm, evaluate_exact, solve_utpf):
            with pytest.raises(ValueError, match="reactive bounds"):
                solve(snap, asg, q_adjust=q)
        g = _MODELS["fixv"].line(snap, asg, None)(np.zeros(len(q)), c)
        with pytest.raises(ValueError, match="reactive bounds"):
            g(np.array([np.nan]))


class TestLinearizedInverseModel:
    def test_tracks_exact_closely(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = snap.phases
        lin = evaluate_linv(snap, asg)
        exact = evaluate_exact(snap, asg)
        assert lin.method == "linv"
        assert abs(lin.pi - exact.pi) <= 1e-2
        assert np.max(np.abs(lin.vm - exact.vm)) <= 2e-3

    @staticmethod
    def _equation_residual(snap, asg, out, q_adjust=None):
        """Largest gap in v = v0 - sum_j meet[j, p_j] conj(s_j) g_j(v[bus_j, p_j]),
        the model's defining equation, at the voltages evaluate_linv returns."""

        network = snap.network
        geometry = feeder_geometry(network)
        meet = _customer_meet(network)[:, :, geometry.col_inverse]  # at every bus
        fit = fit_inverse_voltage(network.v0)
        s = snap.s_pu + 1j * (0.0 if q_adjust is None else q_adjust)
        v = out.v
        replay = np.tile(network.v0, (network.n_buses, 1))
        for j, (bus, p) in enumerate(zip(geometry.cust_bus, asg)):
            replay -= meet[j, p] * np.conj(s[j]) * fit.g(v[bus, p], p)
        return float(np.max(np.abs(replay - v)))

    @pytest.mark.parametrize("period", [4, 40, 48, 73])
    def test_solves_the_model_equation(self, network, demands, period):
        snap = build_snapshot(network, demands, period)
        rng = np.random.default_rng(period)
        phases = network.initial_phases.copy()
        phases[snap.switchable] = rng.integers(0, 3, size=snap.switchable.sum())
        asg = phases
        out = evaluate_linv(snap, asg)
        assert self._equation_residual(snap, asg, out) <= 1e-12

    def test_solves_the_model_equation_with_reactive_adjustment(self, network, demands):
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        asg = snap.phases
        dq = np.where(snap.q_hi_pu > 0, snap.q_hi_pu, 0.0)
        assert np.any(dq != 0.0)
        out = evaluate_linv(snap, asg, q_adjust=dq)
        assert self._equation_residual(snap, asg, out, dq) <= 1e-12
        assert out.objective != evaluate_linv(snap, asg).objective

    def test_solves_the_model_equation_on_a_random_feeder(self):
        network = random_radial_network(seed=3)
        rng = np.random.default_rng(3)
        n = network.n_customers
        snap = snapshot_for(
            network, rng.uniform(0.005, 0.03, n), rng.uniform(0.0, 0.01, n), adjustable=range(6)
        )
        phases = network.initial_phases.tolist()
        phases[:6] = rng.integers(0, 3, size=6).tolist()
        asg = phases
        out = evaluate_linv(snap, asg)
        assert self._equation_residual(snap, asg, out) <= 1e-12

    def test_overload_that_does_not_contract_is_rejected(self):
        network = two_bus_network(z_self=0.5 + 1.5j, z_mutual=0.0)
        snap = snapshot_for(network, [2.0])
        with pytest.raises(FormulationError, match="did not contract"):
            evaluate_linv(snap, (0,))


class TestBranchFlowModel:
    def test_squared_units_flagged(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        out = evaluate_lbfm(snap, snap.phases)
        assert out.method == "lbfm"
        assert out.squared_voltage_units
        assert out.v is None

    def test_aggregates_power_without_losses(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        asg = snap.phases
        out = evaluate_lbfm(snap, asg)
        expect = np.zeros(3, dtype=complex)
        np.add.at(expect, asg, snap.s_pu)
        assert np.allclose(out.s_dt, expect, atol=1e-15)

    def test_matches_exact_when_impedance_vanishes(self):
        network = two_bus_network(
            z_self=1e-7 + 3e-7j, z_mutual=0.0, customers=(0, 1)
        )
        snap = snapshot_for(network, [0.3, 0.1], [0.1, 0.05])
        asg = snap.phases
        lossless = evaluate_lbfm(snap, asg)
        exact = evaluate_exact(snap, asg)
        assert abs(lossless.pi - exact.pi) <= 1e-5
        assert np.max(np.abs(lossless.vm - exact.vm)) <= 1e-5

    def test_kernel_lands_each_load_on_the_transformer_exactly(self, network, demands):
        # The switch customers draw at unity power factor, so no choice of
        # theirs may move the transformer's reactive power: the spread
        # plateau's ties stay exact. Flat fixv's v0 * conj(i) leaves
        # reactive power at rounding level.
        snap = build_snapshot(network, demands, 73)
        kernel = _MODELS["lbfm"].kernel(snap)
        assert np.all(snap.q_pu[kernel.movable] == 0.0)
        for half in kernel.halves:
            assert np.all(half.imag == 0.0)

    def test_no_load_is_nominal(self, network):
        snap = snapshot_for(network, np.zeros(network.n_customers))
        out = evaluate_lbfm(snap, snap.phases)
        assert out.pi == 0.0
        assert sum(out.slack.values()) == 0.0
        assert np.allclose(out.vm, np.abs(network.v0)[None, :])
        assert np.max(np.abs(out.vneg)) <= 1e-14


# lbfm's equations as they were written before the model came to read flat
# fixv: BETA[phi, p] is the voltage ratio V_phi / V_p under exact 120 degree
# spacing, and the squared magnitudes and unbalance phasor propagate each
# customer's load through its shared-path impedances under that rotation.
BETA = np.array([[CHI ** ((phi - p) % 3) for p in range(3)] for phi in range(3)])
NEG_ROW = np.array([1.0, CHI, CHI**2])


def nominal_rotation_fields(network, phases, s):
    v0 = network.v0
    sel = _customer_meet(network)[np.arange(len(phases)), phases]  # (customers, k, 3)
    beta_sel = BETA[:, phases].T  # (customers, 3): ratio toward each observed phase
    ddiag = 2.0 * np.real(beta_sel[:, None, :] * s[..., :, None, None] * np.conj(sel))
    diag = np.abs(v0) ** 2 - ddiag.sum(axis=-3)
    vneg0 = complex(NEG_ROW @ v0) / 3.0
    i_nom = np.conj(s) / np.conj(v0[phases])
    vneg = vneg0 - np.einsum("...j,jm->...m", i_nom / 3.0, sel @ NEG_ROW)
    col_inverse = feeder_geometry(network).col_inverse
    s_dt = powerflow._injections(phases, s).sum(axis=-2)
    return diag.take(col_inverse, axis=-2), vneg.take(col_inverse, axis=-1), s_dt


class TestBranchFlowIsFlatFixv:
    """lbfm's fields, read off flat fixv, equal the nominal-rotation branch
    flow on every source that is balanced, as the bundled feeder's and
    `make_v0`'s are."""

    @staticmethod
    def _assert_matches_nominal_rotation(snap, rng):
        network = snap.network
        phases = network.initial_phases.copy()
        phases[snap.switchable] = rng.integers(0, 3, snap.switchable.sum())
        asg = phases
        q = rng.uniform(snap.q_lo_pu, snap.q_hi_pu)
        assert np.any(q != 0.0)
        s = powerflow._effective_loads(snap, q)
        reference = nominal_rotation_fields(network, phases, s)
        for got, want in zip(_lbfm_fields(network, phases, s), reference):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14
        out = evaluate_lbfm(snap, asg, q_adjust=q)
        ref = _result("lbfm", network, *_lbfm_measures(*reference), None, squared=True)
        assert np.array_equal(out.s_dt, ref.s_dt)
        for name in ("vm", "vneg"):
            assert np.max(np.abs(getattr(out, name) - getattr(ref, name))) <= 1e-14, name
        assert abs(out.objective - ref.objective) <= 1e-14 * max(1.0, abs(ref.objective))

    @pytest.mark.parametrize("period", [0, 48, 73])
    def test_bundled_periods(self, network, demands, period):
        assert np.allclose(network.v0, network.v0[0] * CHI ** np.arange(3), rtol=0, atol=1e-15)
        snap = build_snapshot(network, demands, period, pv_q_control=True)
        rng = np.random.default_rng(period)
        for _ in range(5):
            self._assert_matches_nominal_rotation(snap, rng)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_feeders(self, seed):
        network = random_radial_network(seed)
        snap = loaded_snapshot(network, seed, switches=4, q_band=0.02)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            self._assert_matches_nominal_rotation(snap, rng)


class TestLineScorer:
    """Objectives along one customer's reactive adjustment equal the scalar
    evaluator's at every point, band edges included."""

    @staticmethod
    def _assert_matches_scalar(snap, asg, method, profile=None, seed=0):
        evaluate = {
            "fixv": lambda q: evaluate_fixv(snap, asg, profile=profile, q_adjust=q),
            "linv": lambda q: evaluate_linv(snap, asg, q_adjust=q),
            "lbfm": lambda q: evaluate_lbfm(snap, asg, q_adjust=q),
        }[method]
        # linv's line closes every point in customer c's own current from one
        # three-row fixed point per coordinate, so it carries that solve's
        # stopping error, not one per point (up to 2.4e-13 relative seen).
        tol = 1e-12
        rng = np.random.default_rng(seed)
        q = rng.uniform(snap.q_lo_pu, snap.q_hi_pu)
        line = _MODELS[method].line(snap, asg, profile)
        free = np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)
        assert len(free) > 0
        for c in free:
            lo, hi = snap.q_lo_pu[c], snap.q_hi_pu[c]
            t = np.concatenate([[lo, hi], rng.uniform(lo, hi, 4)])
            g = line(q, c)
            # One batch, then one point per call as the golden steps score them.
            for got in (g(t), np.concatenate([g(t[k:k + 1]) for k in range(len(t))])):
                for tk, fk in zip(t, got):
                    trial = q.copy()
                    trial[c] = tk
                    want = evaluate(trial).objective
                    assert abs(fk - want) <= tol * abs(want)

    # No bundled state reaches the feeder's 2.0 pu transformer rating (1.21 pu
    # at most at the initial assignment), so "73-rated" lowers it to 0.9 pu.
    @pytest.mark.parametrize(
        "period, i_dt_max", [(48, None), (73, None), (73, 0.9)], ids=["48", "73", "73-rated"]
    )
    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_matches_scalar_on_bundled_periods(self, network, demands, method, period, i_dt_max):
        network = replace(network, i_dt_max=i_dt_max or network.i_dt_max)
        snap = build_snapshot(network, demands, period, pv_q_control=True)
        rng = np.random.default_rng(period)
        phases = network.initial_phases.copy()
        phases[snap.switchable] = rng.integers(0, 3, size=snap.switchable.sum())
        asg = phases
        if i_dt_max is not None:
            # The rating binds, so each point prices the transformer current.
            assert _MODELS[method].evaluate(snap, asg, None, None).slack["i_dt"] > 0.0
        self._assert_matches_scalar(snap, asg, method, seed=period)
        if method == "fixv":
            profile = solve_utpf(snap, asg).v
            self._assert_matches_scalar(snap, asg, method, profile=profile, seed=period)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_matches_scalar_on_random_feeders(self, method, seed):
        network = random_radial_network(seed)
        snap = loaded_snapshot(network, seed, switches=4, q_band=0.02)
        asg = snap.phases
        self._assert_matches_scalar(snap, asg, method, seed=seed)
        if method == "fixv":
            profile = solve_utpf(snap, asg).v
            self._assert_matches_scalar(snap, asg, method, profile=profile, seed=seed)

    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_point_outside_the_band_rejected(self, network, demands, method):
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        c = int(np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)[0])
        phases = snap.phases
        g = _MODELS[method].line(snap, phases, None)(np.zeros(network.n_customers), c)
        for t in (snap.q_lo_pu[c] - 1e-9, snap.q_hi_pu[c] + 1e-9):
            with pytest.raises(ValueError, match="reactive bounds"):
                g(np.array([0.0, t]))

    def test_unknown_method_rejected(self, network, demands):
        # A name outside the table is unknown; the exact power flow (utpf)
        # verifies but has no line.
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        asg = snap.phases
        with pytest.raises(ValueError, match="unknown formulation 'newton'"):
            optimize_pv_q(snap, asg, "newton")
        with pytest.raises(ValueError, match="formulation 'utpf' has no line"):
            optimize_pv_q(snap, asg, "utpf")


def doubled(snap):
    """snap with every load and reactive band doubled."""

    return replace(
        snap, p_pu=2.0 * snap.p_pu, q_pu=2.0 * snap.q_pu,
        q_lo_pu=2.0 * snap.q_lo_pu, q_hi_pu=2.0 * snap.q_hi_pu,
    )


class TestLineScreen:
    """A line scorer leaves out only the voltage slacks it proves +0.0 at
    every point it prices, so each objective is bit for bit the one it
    gives when every term is priced (the margin set to infinity)."""

    @staticmethod
    def _assert_screen_changes_nothing(monkeypatch, snap, asg, method, profile=None):
        cleared = []
        live_terms = formulations._live_terms

        def spy(*args):
            live = live_terms(*args)
            cleared.append(3 - sum(live))
            return live

        monkeypatch.setattr(formulations, "_live_terms", spy)
        rng = np.random.default_rng(0)
        line = _MODELS[method].line(snap, asg, profile)
        free = np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)
        for q in (np.zeros(snap.network.n_customers), rng.uniform(snap.q_lo_pu, snap.q_hi_pu)):
            for c in free:
                lo, hi = snap.q_lo_pu[c], snap.q_hi_pu[c]
                # The coarse scan, the band edges, and random points, in one
                # batch and one at a time: the screen is made once per
                # coordinate, so no point's objective hangs on its batch.
                t = np.concatenate([np.linspace(lo, hi, _COARSE), [lo, hi], rng.uniform(lo, hi, 4)])
                batches = [t] + [t[k:k + 1] for k in range(_COARSE, len(t))]
                g = line(q, c)
                screened = [g(b) for b in batches]
                with monkeypatch.context() as patch:
                    patch.setattr(formulations, "_SCREEN_MARGIN", np.inf)
                    g = line(q, c)
                    full = [g(b) for b in batches]
                for got, want in zip(screened, full):
                    assert np.array_equal(got, want)
        # The screen cleared terms, and an infinite margin clears none.
        assert sum(cleared) > 0
        monkeypatch.setattr(formulations, "_SCREEN_MARGIN", np.inf)
        cleared.clear()
        line(np.zeros(snap.network.n_customers), free[0])(snap.q_lo_pu[free[:1]])
        assert cleared == [0]

    @pytest.mark.parametrize("period", [48, 73])
    @pytest.mark.parametrize("method", ["fixv", "fixv-exact", "linv", "lbfm"])
    def test_bundled_periods(self, network, demands, method, period, monkeypatch):
        # At period 48 the initial assignment breaks the unbalance limit.
        snap = build_snapshot(network, demands, period, pv_q_control=True)
        asg = snap.phases
        profile = solve_utpf(snap, asg).v if method == "fixv-exact" else None
        self._assert_screen_changes_nothing(monkeypatch, snap, asg, method[:4], profile)

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_random_feeders_where_v_lo_binds(self, method, seed, monkeypatch):
        network = random_radial_network(seed)
        snap = doubled(loaded_snapshot(network, seed, switches=4, q_band=0.02))
        asg = snap.phases
        if seed == 2:
            assert _MODELS[method].evaluate(snap, asg, None, None).slack["v_lo"] > 0.0
        self._assert_screen_changes_nothing(monkeypatch, snap, asg, method)

    def test_linv_where_the_customer_pulls_v_lo_past_its_limit(self, monkeypatch):
        # One customer draws 0.96 pu through a resistive 0.01 pu line from a
        # 0.95 pu source: under linv its voltage ends 5e-5 pu below V_MIN,
        # while v_hi and neg_seq stay clear. Only a reach too short clears
        # v_lo here: one without its 1 - |w| (|g_re| + |g_im|) shrink, or
        # one halved, would.
        network = replace(two_bus_network(z_self=0.01, z_mutual=0.0), v0=make_v0(0.95))
        band = np.array([0.0192])
        snap = CaseSnapshot(
            network=network, p_pu=np.array([0.96]), q_pu=np.zeros(1),
            q_lo_pu=-band, q_hi_pu=band, switchable=np.array([True]), phases=network.initial_phases,
        )
        asg = snap.phases
        assert evaluate_linv(snap, asg).slack["v_lo"] > 0.0
        self._assert_screen_changes_nothing(monkeypatch, snap, asg, "linv")

    def test_linv_where_the_reach_is_unbounded(self, monkeypatch):
        # 2 pu through a 0.2 + 0.2j pu line: |w| (|g_re| + |g_im|) passes 1,
        # so the bound gives no finite reach, while linv's fixed point still
        # converges. The screen is skipped and every term priced, with no
        # inf * 0 on the way (the root's voltage never moves).
        network = two_bus_network(z_self=0.2 + 0.2j, z_mutual=0.0)
        band = np.array([0.04])
        snap = CaseSnapshot(
            network=network, p_pu=np.array([2.0]), q_pu=np.zeros(1),
            q_lo_pu=-band, q_hi_pu=band, switchable=np.array([True]), phases=network.initial_phases,
        )
        asg = snap.phases
        assert evaluate_linv(snap, asg).slack["v_lo"] > 0.0
        calls = []
        live_terms = formulations._live_terms
        monkeypatch.setattr(
            formulations, "_live_terms", lambda *args: calls.append(args) or live_terms(*args)
        )
        with np.errstate(invalid="raise"):
            TestLineScorer._assert_matches_scalar(snap, asg, "linv")
        assert calls == []

    @pytest.mark.parametrize("method", ["fixv", "linv", "lbfm"])
    def test_each_coordinate_is_screened_once(self, network, demands, method, monkeypatch):
        # line(q, c) screens its coordinate; g only prices points.
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        calls = []
        live_terms = formulations._live_terms
        monkeypatch.setattr(
            formulations, "_live_terms", lambda *args: calls.append(args) or live_terms(*args)
        )
        line = _MODELS[method].line(snap, snap.phases, None)
        q = np.zeros(network.n_customers)
        for c in np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)[:3]:
            calls.clear()
            g = line(q, c)
            assert len(calls) == 1
            t = np.linspace(snap.q_lo_pu[c], snap.q_hi_pu[c], _COARSE)
            g(t)
            g(t[:1])
            assert len(calls) == 1

    def test_a_clear_fixv_line_computes_no_bus_measure(self, network, demands, monkeypatch):
        # At period 73 every fixv line clears all three voltage terms, so g
        # prices pi and the transformer current alone.
        snap = build_snapshot(network, demands, 73, pv_q_control=True)
        asg = snap.phases
        line = _MODELS["fixv"].line(snap, asg, solve_utpf(snap, asg).v)
        c = int(np.flatnonzero(snap.q_hi_pu > snap.q_lo_pu)[0])
        t = np.linspace(snap.q_lo_pu[c], snap.q_hi_pu[c], _COARSE)
        calls = []
        measures = formulations._voltage_measures
        monkeypatch.setattr(
            formulations, "_voltage_measures", lambda *args: calls.append(args) or measures(*args)
        )
        g = line(np.zeros(network.n_customers), c)
        calls.clear()  # building the line measures its base and direction
        g(t)
        assert calls == []
        monkeypatch.setattr(formulations, "_SCREEN_MARGIN", np.inf)
        line(np.zeros(network.n_customers), c)(t)
        assert len(calls) == 3  # the base, the direction, and the batch


def merged_column_case():
    """A random feeder with customer-free branches, which share their
    parent's column, and loads heavy enough that some assignments of its six
    switch customers break a limit."""

    network = random_radial_network(seed=0, n_buses=60, n_customers=20)
    assert feeder_geometry(network).columns.shape[1] < 3 * network.n_buses
    rng = np.random.default_rng(60)
    snap = snapshot_for(
        network, rng.uniform(0.0, 0.1, 20), rng.uniform(0.0, 0.03, 20), adjustable=range(6)
    )
    return network, snap


def unmerged_score(kernel, s_on, effects, no_load, choices):
    """A separable kernel's objective, pi and slack, with no column merging.

    Every bus gets its own voltages from its column's tables, summed as the
    base plus each switch customer's effect in customer order; the
    transformer power is summed as the base plus two halves, each adding its
    customers' powers in turn. The slacks use numpy's reductions over the
    phase axis.
    """

    movable, initial = kernel.movable, kernel.initial
    fixed = np.setdiff1d(np.arange(len(s_on)), movable)
    pf = initial[fixed]
    k1 = (kernel.n_movable + 1) // 2
    rows = np.arange(len(choices))

    s_base = np.zeros(3, dtype=complex)
    np.add.at(s_base, pf, s_on[fixed, pf])
    s_dt = s_base
    for part in (range(k1), range(k1, kernel.n_movable)):
        sv = np.zeros((len(choices), 3), dtype=complex)
        for local in part:
            p = choices[:, local]
            np.add.at(sv, (rows, p), s_on[movable[local], p])
        s_dt = s_dt + sv

    col_inverse = feeder_geometry(kernel.network).col_inverse
    z, e = no_load[col_inverse], effects[:, :, col_inverse]
    v = np.repeat((z + e[fixed, pf].sum(axis=0))[None], len(choices), axis=0)
    for local in range(kernel.n_movable):
        v = v + e[movable[local]][choices[:, local]]

    lo, hi, vneg = kernel._measures(v)
    k = 2 if kernel.squared else 1
    terms = (
        np.maximum(0.0, V_MIN**k - lo.min(axis=-1)),
        np.maximum(0.0, hi.max(axis=-1) - V_MAX**k),
        np.maximum(0.0, np.abs(vneg) ** k - NEG_SEQ_MAX**k),
        np.maximum(0.0, np.abs(s_dt) / np.abs(kernel.v0) - kernel.network.i_dt_max),
    )
    total = sum(term.sum(axis=-1) for term in terms)
    pi = np.maximum(np.ptp(s_dt.real, axis=-1), np.ptp(s_dt.imag, axis=-1))
    return pi + MB * total, pi, total


class TestPerBusOutputs:
    """Every per-bus array that leaves the solvers and evaluators is put in
    bus order from the geometry's columns."""

    @staticmethod
    def _outputs(snap, asg):
        solution = solve_utpf(snap, asg)
        out = {"utpf.v": solution.v}
        views = {
            "linv": evaluate_linv(snap, asg),
            "fixv": evaluate_fixv(snap, asg, profile=solution.v),
            "lbfm": evaluate_lbfm(snap, asg),
        }
        for name, view in views.items():
            out.update({f"{name}.vm": view.vm, f"{name}.vneg": view.vneg})
            if view.v is not None:
                out[f"{name}.v"] = view.v
        return out

    @staticmethod
    def _case():
        network, snap = merged_column_case()
        phases = network.initial_phases.tolist()
        phases[:6] = [2, 0, 1, 1, 2, 0]
        return network, snap, phases

    def test_buses_without_customers_below_repeat_their_column(self):
        network, snap, asg = self._case()
        parent = bus_parents(network)
        # rep[m] is the deepest bus on m's root path that has a customer in
        # its subtree; random_radial_network numbers parents before children.
        on_paths = on_customer_paths(network)
        rep = np.arange(network.n_buses)
        for m in range(network.n_buses):
            if m not in on_paths:
                rep[m] = rep[parent[m]]
        assert np.any(rep != np.arange(network.n_buses))
        for name, arr in self._outputs(snap, asg).items():
            assert arr.shape[0] == network.n_buses, name
            assert arr.take(rep, axis=0).tobytes() == arr.tobytes(), name

    def test_match_the_full_table_product(self, monkeypatch):
        network, snap, asg = self._case()
        merged = self._outputs(snap, asg)
        # The same solvers on a test-local geometry that keeps every bus's
        # column: the chain-search table at full width, each bus its own column.
        geometry = feeder_geometry(network)
        full = chain_lca_meet(network).reshape(3 * network.n_customers, -1)
        unmerged = replace(geometry, columns=full, col_inverse=np.arange(network.n_buses))
        for module in (powerflow, formulations):
            monkeypatch.setattr(module, "feeder_geometry", lambda _network: unmerged)
        reference = self._outputs(snap, asg)
        assert merged.keys() == reference.keys()
        for name, arr in merged.items():
            scale = np.max(np.abs(reference[name]))
            assert np.max(np.abs(arr - reference[name])) <= 1e-13 * scale, name


class TestBatchKernels:
    @staticmethod
    def _random_choices(rng, kernel, count):
        return rng.integers(0, 3, size=(count, kernel.n_movable))

    # "73-rated" lowers the transformer rating to 0.9 pu, so that slack
    # binds; "pf095" periods are the reactive-switch variant's.
    @pytest.mark.parametrize(
        "scenario, period, i_dt_max",
        [("bundled", 4, None), ("bundled", 40, None), ("bundled", 48, None), ("bundled", 73, 0.9),
         ("pf095", 48, None), ("pf095", 73, None)],
        ids=["4", "40", "48", "73-rated", "pf095-48", "pf095-73"],
    )
    @pytest.mark.parametrize("method", ["fixv", "lbfm", "linv"])
    def test_batch_matches_scalar(self, request, network, demands, method, scenario, period, i_dt_max):
        if scenario == "pf095":
            network, demands = load_scenario(request.getfixturevalue("reactive_switch_scenario"))
        network = replace(network, i_dt_max=i_dt_max or network.i_dt_max)
        snap = build_snapshot(network, demands, period)
        kernel = _MODELS[method].kernel(snap)
        rng = np.random.default_rng(20240817 + period)
        choices = self._random_choices(rng, kernel, 25)
        batch = kernel.score(choices)
        scalar = {"fixv": evaluate_fixv, "lbfm": evaluate_lbfm, "linv": evaluate_linv}[
            method
        ]
        tol = 1e-10 if method == "linv" else 1e-9
        for row, full in zip(batch, kernel.full_phases(choices)):
            one = scalar(snap, full)
            assert abs(row - one.objective) <= tol * (1 + abs(one.objective))
            assert i_dt_max is None or one.slack["i_dt"] > 0.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        method=st.sampled_from(["fixv", "lbfm", "linv"]),
        exact_profile=st.booleans(),
    )
    def test_batch_matches_scalar_on_random_feeders(self, seed, method, exact_profile):
        network = random_radial_network(seed, n_buses=25, n_customers=12)
        snap = loaded_snapshot(network, seed, switches=5)
        rng = np.random.default_rng(seed)
        profile = None
        if method == "fixv" and exact_profile:
            profile = solve_utpf(snap, snap.phases).v
        model = _MODELS[method]
        kernel = model.kernel(snap, profile=profile)
        choices = self._random_choices(rng, kernel, 12)
        batch = kernel.score(choices)
        tol = 1e-10 if method == "linv" else 1e-9
        for row, full in zip(batch, kernel.full_phases(choices)):
            one = model.evaluate(snap, full, None, profile)
            assert abs(row - one.objective) <= tol * (1 + abs(one.objective))

    def test_fixv_kernel_accepts_profile(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        sol = solve_utpf(snap, snap.phases)
        kernel = _MODELS["fixv"].kernel(snap, profile=sol.v)
        rng = np.random.default_rng(7)
        choices = self._random_choices(rng, kernel, 10)
        batch = kernel.score(choices)
        for row, full in zip(batch, kernel.full_phases(choices)):
            one = evaluate_fixv(snap, full, profile=sol.v)
            assert abs(row - one.objective) <= 1e-9 * (1 + abs(one.objective))

    def test_full_phases_only_moves_switch_customers(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        kernel = _MODELS["lbfm"].kernel(snap)
        initial = snap.phases
        full = kernel.full_phases(np.zeros((1, kernel.n_movable), dtype=int))[0]
        fixed = np.setdiff1d(np.arange(network.n_customers), kernel.movable)
        assert np.array_equal(full[fixed], initial[fixed])
        assert np.all(full[kernel.movable] == 0)

    def test_decode_is_lexicographic(self):
        table = _decode(np.arange(9), 2)
        assert table.shape == (9, 2)
        assert np.array_equal(
            table[:4], [[0, 0], [0, 1], [0, 2], [1, 0]]
        )
        assert np.array_equal(table @ _radix(2), np.arange(9))  # and _radix inverts it
        assert _decode(np.arange(1), 0).shape == (1, 0)

    @pytest.mark.parametrize("method", ["fixv", "lbfm"])
    def test_merged_columns_score_as_unmerged(self, method):
        network, snap = merged_column_case()
        kernel = _MODELS[method].kernel(snap)
        # Every customer's effect at every phase, at the flat profile both
        # kernels are built at here; the kernel builds only the rows it keeps.
        meet = _customer_meet(network)
        i_all = np.conj(kernel.s)[:, None] / np.conj(network.v0)[None, :]
        no_load = np.tile(network.v0, (meet.shape[2], 1))
        assert no_load.shape[0] < network.n_buses  # some buses share a column
        tables = dict(
            s_on=kernel._s_on(i_all), effects=-meet * i_all[:, :, None, None], no_load=no_load
        )

        choices = _decode(np.arange(3**kernel.n_movable), kernel.n_movable)
        batch = kernel.score(choices)
        objective, pi, slack = unmerged_score(kernel, choices=choices, **tables)
        assert 0.0 < np.mean(slack > 0) < 1.0
        assert batch.tobytes() == objective.tobytes()
        assert kernel.spreads().tobytes() == pi.tobytes()

    def test_linv_merged_columns_score_as_unmerged(self):
        # The kernel prices each block's states at the geometry's columns;
        # the same `_linv_currents` states, put at every bus and priced
        # there, give the same bytes.
        network, snap = merged_column_case()
        kernel = _MODELS["linv"].kernel(snap)
        col_inverse = feeder_geometry(network).col_inverse
        choices = _decode(np.arange(3**kernel.n_movable), kernel.n_movable)
        batch = kernel.score(choices)
        parts = []
        assert len(choices) > kernel.chunk  # more than one block
        for lo in range(0, len(choices), kernel.chunk):
            phases = kernel.full_phases(choices[lo:lo + kernel.chunk])
            injected, i_dt = _linv_currents(network, kernel.s, phases)
            at_buses = _bus_voltages(network, injected).take(col_inverse, axis=1)
            parts.append(_price(network, *_phasor_measures(network, at_buses, i_dt, True)))
        objective = np.concatenate([part.objective for part in parts])
        pi = np.concatenate([part.pi for part in parts])
        assert 0.0 < np.mean(objective > pi) < 1.0
        assert batch.tobytes() == objective.tobytes()

    def test_unknown_method_rejected(self, network, demands):
        # A name outside the table is unknown; the exact power flow (utpf)
        # verifies but has no kernel to search with. (test_optimizer's
        # TestBranchAndBound checks that the scan refuses linv, whose kernel
        # is not separable.)
        snap = build_snapshot(network, demands, 40)
        for search in (exhaustive, branch_and_bound, partial(local_search, seed=7)):
            with pytest.raises(ValueError, match="unknown formulation 'newton'"):
                search(snap, method="newton")
            with pytest.raises(ValueError, match="formulation 'utpf' has no kernel"):
                search(snap, method="utpf")


def separable_kernel(snapshot, model):
    """("fixv-flat" | "fixv-exact" | "lbfm") -> the kernel and the profile it
    was built at: none, or the initial assignment's exact state."""

    profile = None
    if model == "fixv-exact":
        profile = solve_utpf(snapshot, snapshot.phases).v
    return _MODELS[model[:4]].kernel(snapshot, profile=profile), profile


def assert_tables_as_complex_products(kernel, profile):
    """The kernel's pi table and effect tables equal the complex products
    they are built to reproduce: the half-tables' complex outer sum read by
    `_spread`, and each customer's negated meet table times its current."""

    sv1, sv2 = kernel.halves
    pi = _spread(((kernel.s_base + sv1)[:, None] + sv2[None, :]).reshape(-1, 3))
    assert kernel.spreads().tobytes() == pi.tobytes()
    network = kernel.network
    profile = formulations._fixv_profile(network, profile)
    i_all = np.conj(kernel.s)[:, None] / np.conj(profile[feeder_geometry(network).cust_bus])
    meet = _customer_meet(network)
    fixed = np.setdiff1d(np.arange(network.n_customers), kernel.movable)
    pf = kernel.initial[fixed]
    base = np.tile(kernel.v0, (meet.shape[2], 1)) + (-meet[fixed, pf] * i_all[fixed, pf][:, None, None]).sum(axis=0)
    assert kernel.base.tobytes() == base.tobytes()
    assert kernel.effects.tobytes() == (-meet[kernel.movable] * i_all[kernel.movable][:, :, None, None]).tobytes()


class TestSeparableTables:
    # Bundled periods (PV-Q off and on) and the reactive-switch variant's evening periods.
    @pytest.mark.parametrize("model", ["fixv-flat", "fixv-exact", "lbfm"])
    @pytest.mark.parametrize(
        "case", [*(f"bundled-{p}{pvq}" for p in (10, 48, 73, 81) for pvq in ("", "-pvq")), "pf095-48", "pf095-73"]
    )
    def test_tables_equal_the_complex_products(self, request, network, demands, case, model):
        feeder, period, *pvq = case.split("-")
        if feeder == "pf095":
            network, demands = load_scenario(request.getfixturevalue("reactive_switch_scenario"))
        snapshot = build_snapshot(network, demands, int(period), pv_q_control=bool(pvq))
        assert_tables_as_complex_products(*separable_kernel(snapshot, model))


def linv_spreads(kernel, choices):
    """Each row's spread pi as the linv kernel reads it when it scores
    choices as one block (at most `chunk` rows): the fixed point's stop
    depends on the whole block."""

    assert len(choices) <= kernel.chunk
    _, i_dt = _linv_currents(kernel.network, kernel.s, kernel.full_phases(choices))
    return _spread(kernel.v0 * np.conj(i_dt))


def assert_bound_contract(kernel, choices, bounds):
    """score(choices, bound) against score(choices) for each of bounds: a
    row whose pi is below bound keeps its objective bit for bit, any other
    comes back +inf. Returns how many rows each bound left priced."""

    full = kernel.score(choices)
    pi = linv_spreads(kernel, choices)
    priced = []
    for bound in bounds:
        bounded = kernel.score(choices, bound)
        live = pi < bound
        assert bounded[live].tobytes() == full[live].tobytes()
        assert np.all(bounded[~live] == np.inf)
        priced.append(int(live.sum()))
    return priced


def contract_bounds(pi):
    """Bounds that leave no row, the rows of least pi (one row when that
    minimum is unique) and every row priced."""

    ordered = np.unique(pi)
    return [ordered[0], ordered[min(1, len(ordered) - 1)], np.inf]


def recorded_linv_scores(snapshot, monkeypatch):
    """linv local search on snapshot, with every (kernel, choices, bound)
    its kernel was asked to score."""

    calls = []
    score = _LinvKernel.score

    def recording(self, choices, bound=np.inf):
        calls.append((self, np.array(choices), bound))
        return score(self, choices, bound)

    with monkeypatch.context() as patch:
        patch.setattr(_LinvKernel, "score", recording)
        outcome = local_search(snapshot, "linv", 7)
    return outcome, calls


def assert_bound_moves_no_choice(snapshot, monkeypatch):
    """local_search under linv chooses, counts and scores as it does with
    the bound patched out, and prices fewer rows in full."""

    bounded = local_search(snapshot, "linv", 7)
    with monkeypatch.context() as patch:
        patch.setattr(_LinvKernel, "score", lambda self, choices, bound=np.inf: _Kernel.score(self, choices))
        unbounded = local_search(snapshot, "linv", 7)
    assert np.array_equal(bounded.assignment, unbounded.assignment)
    assert bounded.candidates == unbounded.candidates
    assert bounded.model.objective == unbounded.model.objective
    assert unbounded.stats["scored"] == unbounded.candidates
    assert 0 < bounded.stats["scored"] <= bounded.candidates


# Bundled periods (PV-Q off and on), the reactive-switch variant's evening
# periods and conftest's random radial feeders.
LINV_CASES = [
    *(f"bundled-{p}{pvq}" for p in (10, 48, 73) for pvq in ("", "-pvq")),
    "pf095-48",
    "pf095-73",
    *(f"random-{seed}" for seed in range(3)),
]


@pytest.fixture(params=LINV_CASES)
def linv_snapshot(request, network, demands):
    feeder, period, *pvq = request.param.split("-")
    if feeder == "random":
        seed = int(period)
        return loaded_snapshot(random_radial_network(seed), seed, switches=6)
    if feeder == "pf095":
        network, demands = load_scenario(request.getfixturevalue("reactive_switch_scenario"))
    return build_snapshot(network, demands, int(period), pv_q_control=bool(pvq))


class TestLinvBound:
    def test_random_blocks_keep_their_bits(self, linv_snapshot):
        kernel = _LinvKernel(linv_snapshot)
        mm = kernel.n_movable
        rng = np.random.default_rng(30)
        priced = set()
        for b in (2, 3, 40, kernel.chunk):
            choices = _decode(rng.choice(3**mm, size=b, replace=False), mm)
            pi = linv_spreads(kernel, choices)
            bounds = [*contract_bounds(pi), float(np.median(pi))]
            priced.update(n / b for n in assert_bound_contract(kernel, choices, bounds))
        assert {0.0, 1.0, 1 / 40, 1 / kernel.chunk} <= priced  # none, one row, all

    def test_local_search_neighbourhoods_keep_their_bits(self, linv_snapshot, monkeypatch):
        _, calls = recorded_linv_scores(linv_snapshot, monkeypatch)
        bounds = [bound for _, _, bound in calls]
        assert any(np.isfinite(bounds))  # every pass after a start is bounded
        for kernel, choices, bound in calls:
            assert_bound_contract(kernel, choices, [bound, *contract_bounds(linv_spreads(kernel, choices))])

    def test_the_bound_moves_no_choice(self, linv_snapshot, monkeypatch):
        assert_bound_moves_no_choice(linv_snapshot, monkeypatch)


def bits(x):
    """x with every float as its hex and every array as its bytes, so that
    == compares results bit for bit (-0.0 and NaN included)."""

    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if hasattr(x, "__dataclass_fields__"):
        return type(x).__name__, bits(vars(x))
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    return x.hex() if isinstance(x, float) else x


# Every public entry point that takes an assignment, as call(snapshot, assignment).
ENTRY_POINTS = {
    "evaluate_exact": evaluate_exact,
    "evaluate_fixv": evaluate_fixv,
    "evaluate_linv": evaluate_linv,
    "evaluate_lbfm": evaluate_lbfm,
    "solve_utpf": solve_utpf,
    **{f"optimize_pv_q-{m}": partial(optimize_pv_q, method=m) for m in ("fixv", "linv", "lbfm")},
}


def entry_case():
    """A random feeder whose three switch customers move off their start
    phases, with reactive bands for the PV-Q descent."""

    network = random_radial_network(4, n_buses=16, n_customers=8)
    snap = loaded_snapshot(network, 4, switches=3, q_band=0.02)
    phases = np.array(snap.phases)
    phases[:3] = (phases[:3] + 1) % 3
    return snap, phases


class TestEntryPoints:
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_bad_assignments_are_refused_before_any_solve(self, name, monkeypatch):
        snap, phases = entry_case()
        call = ENTRY_POINTS[name]
        out_of_range = np.array(phases)
        out_of_range[1] = 3  # a switch customer, so only the range is at fault
        bad = {
            "integer phases": [phases.astype(float), phases.astype(bool), [float(p) for p in phases]],
            "one phase per customer": [phases[:-1], np.append(phases, 0), phases.tolist()[1:]],
            "0, 1 or 2": [out_of_range, tuple(out_of_range.tolist())],
        }

        def no_solve(_network):
            raise AssertionError("solved before the assignment was checked")

        for module in (powerflow, formulations):
            monkeypatch.setattr(module, "feeder_geometry", no_solve)
        with pytest.raises(AssertionError):  # a valid assignment does reach a solve
            call(snap, phases)
        for message, assignments in bad.items():
            for assignment in assignments:
                with pytest.raises(ValueError, match=message):
                    call(snap, assignment)

    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_lists_tuples_and_arrays_give_the_same_bits(self, name):
        snap, phases = entry_case()
        call = ENTRY_POINTS[name]
        forms = (phases, phases.tolist(), tuple(phases.tolist()), phases.astype(np.int32))
        results = [bits(call(snap, form)) for form in forms]
        assert all(result == results[0] for result in results[1:])
