"""Feeder import, topology validation, demand handling and snapshots."""

from __future__ import annotations

import csv
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phasebal.netmodel import (
    CaseSnapshot,
    Customer,
    DEFAULT_SCENARIO,
    DemandSeries,
    FeederFormatError,
    Limits,
    Line,
    Network,
    PerUnitBases,
    Phasor3,
    RadialityError,
    ScenarioOptions,
    build_snapshot,
    bundled_feeder_dir,
    import_european_feeder,
    pv_generation_w,
    read_network_json,
    validate_radial,
    write_network_json,
    write_profiles_csv,
)

from conftest import make_v0, symmetric_z, two_bus_network


class TestPhasor3:
    def test_shape_and_finiteness_enforced(self):
        with pytest.raises(ValueError, match="exactly 3"):
            Phasor3(np.ones(4, dtype=complex))
        with pytest.raises(ValueError, match="finite"):
            Phasor3(np.array([1.0, np.inf, 1.0], dtype=complex))

    def test_polar_round_trip(self):
        ph = Phasor3.from_polar([1.0, 2.0, 3.0], [0.1, -0.2, 0.3])
        assert np.allclose(np.abs(ph.values), [1.0, 2.0, 3.0])
        assert np.allclose(np.angle(ph.values), [0.1, -0.2, 0.3])

    def test_iterates_phase_values(self):
        ph = Phasor3(np.array([1 + 2j, 3 + 4j, 5 + 6j]))
        assert list(ph) == [1 + 2j, 3 + 4j, 5 + 6j]

    def test_values_are_read_only(self):
        ph = make_v0()
        with pytest.raises(ValueError):
            ph.values[0] = 0.0


class TestPerUnitBases:
    def test_derived_bases(self):
        bases = PerUnitBases(voltage_v=240.0, power_va=100_000.0)
        assert bases.phase_power_va == pytest.approx(100_000.0 / 3.0)
        assert bases.impedance_ohm == pytest.approx(240.0**2 * 3.0 / 100_000.0)


class TestLimits:
    def test_rejects_inverted_and_nonpositive(self):
        with pytest.raises(ValueError, match="v_min < v_max"):
            Limits(v_min=1.1, v_max=0.9)
        with pytest.raises(ValueError, match="positive"):
            Limits(neg_seq_max=0.0)


class TestNetworkValidation:
    def test_line_impedance_must_be_symmetric(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        z = z.copy()
        z[0, 1] += 1e-6
        with pytest.raises(FeederFormatError, match="not symmetric"):
            Line(name="bad", from_bus=0, to_bus=1, z_pu=z)

    def test_dangling_references_rejected(self):
        base = two_bus_network()
        with pytest.raises(FeederFormatError, match="unknown bus"):
            Network(
                name="bad",
                buses=base.buses,
                root=base.root,
                lines=(replace_line(base.lines[0], to_bus=9),),
                customers=base.customers,
                v0=base.v0,
                limits=base.limits,
                bases=base.bases,
            )
        with pytest.raises(FeederFormatError, match="customer"):
            Network(
                name="bad",
                buses=base.buses,
                root=base.root,
                lines=base.lines,
                customers=(Customer(cid=1, name="c1", bus=9, initial_phase=0),),
                v0=base.v0,
                limits=base.limits,
                bases=base.bases,
            )

    def test_cycle_detected(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        with pytest.raises(RadialityError, match="cycle or parallel"):
            Network(
                name="loop",
                buses=(0, 1, 2),
                root=0,
                lines=(
                    Line(name="l1", from_bus=0, to_bus=1, z_pu=z),
                    Line(name="l2", from_bus=1, to_bus=2, z_pu=z),
                    Line(name="l3", from_bus=2, to_bus=0, z_pu=z),
                ),
                customers=(),
                v0=make_v0(),
                limits=Limits(),
                bases=PerUnitBases(),
            )

    def test_disconnected_bus_detected(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        with pytest.raises(RadialityError, match="not connected"):
            Network(
                name="island",
                buses=(0, 1, 2, 3),
                root=0,
                lines=(
                    Line(name="l1", from_bus=0, to_bus=1, z_pu=z),
                    Line(name="l2", from_bus=2, to_bus=3, z_pu=z),
                ),
                customers=(),
                v0=make_v0(),
                limits=Limits(),
                bases=PerUnitBases(),
            )

    def test_parent_line_per_bus(self):
        # 0 - 1 - 2 and 1 - 3; "left" is stored pointing toward the root.
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        network = Network(
            name="fork",
            buses=(0, 1, 2, 3),
            root=0,
            lines=(
                Line(name="trunk", from_bus=0, to_bus=1, z_pu=z),
                Line(name="left", from_bus=2, to_bus=1, z_pu=z),
                Line(name="right", from_bus=1, to_bus=3, z_pu=z),
            ),
            customers=(
                Customer(cid=1, name="c1", bus=2, initial_phase=0),
                Customer(cid=2, name="c2", bus=3, initial_phase=1),
                Customer(cid=3, name="c3", bus=1, initial_phase=2),
            ),
            v0=make_v0(),
            limits=Limits(),
            bases=PerUnitBases(),
        )
        report = network.topology
        assert report.depth_order == (0, 1, 2, 3)
        assert report.parent == {0: 0, 1: 0, 2: 1, 3: 1}
        names = {bus: network.lines[li].name for bus, li in report.parent_line.items()}
        assert names == {1: "trunk", 2: "left", 3: "right"}
        assert validate_radial(network) == report


def replace_line(line: Line, **kwargs) -> Line:
    fields = {"name": line.name, "from_bus": line.from_bus, "to_bus": line.to_bus, "z_pu": line.z_pu}
    fields.update(kwargs)
    return Line(**fields)


class TestImport:
    def test_bundled_counts(self, feeder):
        assert feeder.network.n_buses == 54
        assert len(feeder.network.lines) == 53
        assert feeder.network.n_customers == 55
        assert feeder.demands.n_periods == 96
        assert feeder.demands.minutes_per_period == 15

    def test_source_anchors_root_voltage(self, network):
        assert np.allclose(np.abs(network.v0.values), 1.05)
        angles = np.angle(network.v0.values)
        assert angles[0] == pytest.approx(0.0)
        assert angles[1] == pytest.approx(-2.0 * math.pi / 3.0)
        assert angles[2] == pytest.approx(2.0 * math.pi / 3.0)
        # DT rating from Source.csv, on the 100 kVA base.
        assert network.limits.i_dt_max == pytest.approx(2.0)

    def test_reactive_follows_power_factor(self, feeder):
        with (bundled_feeder_dir() / "Loads.csv").open() as fh:
            loads = {
                row["Name"]: (float(row["kW"]), float(row["PF"]))
                for row in csv.DictReader(fh)
            }
        demands = feeder.demands
        for k, cust in enumerate(feeder.network.customers):
            kw, pf = loads[cust.name]
            expect = demands.p_w[:, k] * math.tan(math.acos(pf))
            assert np.allclose(demands.q_var[:, k], expect)

    def test_generator_reproduces_the_bundled_tables(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "tools" / "gen_feeder.py"
        subprocess.run(
            [sys.executable, str(script), "--out", str(tmp_path)], check=True, capture_output=True
        )
        bundled = sorted(p.name for p in bundled_feeder_dir().iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == bundled
        for name in bundled:
            assert (tmp_path / name).read_bytes() == (bundled_feeder_dir() / name).read_bytes(), name

    @pytest.fixture()
    def broken_dir(self, tmp_path):
        target = tmp_path / "feeder"
        shutil.copytree(bundled_feeder_dir(), target)
        return target

    def _rewrite(self, path: Path, transform) -> None:
        with path.open() as fh:
            rows = list(csv.reader(fh))
        path.write_text("\n".join(",".join(r) for r in transform(rows)) + "\n")

    def test_missing_table_named(self, broken_dir):
        (broken_dir / "Lines.csv").unlink()
        with pytest.raises(FeederFormatError, match="Lines.csv"):
            import_european_feeder(broken_dir)

    def test_unknown_line_code_named(self, broken_dir):
        def transform(rows):
            rows[1][rows[0].index("LineCode")] = "ghost"
            return rows

        self._rewrite(broken_dir / "Lines.csv", transform)
        with pytest.raises(FeederFormatError, match="ghost"):
            import_european_feeder(broken_dir)

    def test_load_on_unknown_bus_named(self, broken_dir):
        def transform(rows):
            rows[1][rows[0].index("Bus")] = "999"
            return rows

        self._rewrite(broken_dir / "Loads.csv", transform)
        with pytest.raises(FeederFormatError, match="999"):
            import_european_feeder(broken_dir)

    def test_invalid_phase_named(self, broken_dir):
        def transform(rows):
            rows[1][rows[0].index("Phase")] = "d"
            return rows

        self._rewrite(broken_dir / "Loads.csv", transform)
        with pytest.raises(FeederFormatError, match="invalid phase"):
            import_european_feeder(broken_dir)

    def test_invalid_power_factor_named(self, broken_dir):
        def transform(rows):
            rows[1][rows[0].index("PF")] = "1.5"
            return rows

        self._rewrite(broken_dir / "Loads.csv", transform)
        with pytest.raises(FeederFormatError, match="power factor"):
            import_european_feeder(broken_dir)

    def test_missing_shape_column_named(self, broken_dir):
        def transform(rows):
            name = rows[1][0]
            return [[c for c, h in zip(row, rows[0]) if h != name] for row in rows]

        # Drop the first load's shape column wholesale.
        with (broken_dir / "LoadShapes.csv").open() as fh:
            rows = list(csv.reader(fh))
        victim = None
        for name in rows[0]:
            if name.startswith("LOAD"):
                victim = name
                break
        keep = [i for i, h in enumerate(rows[0]) if h != victim]
        out = [[row[i] for i in keep] for row in rows]
        (broken_dir / "LoadShapes.csv").write_text(
            "\n".join(",".join(r) for r in out) + "\n"
        )
        with pytest.raises(FeederFormatError, match="missing shape columns"):
            import_european_feeder(broken_dir)


class TestDemandSeries:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="aligned"):
            DemandSeries(
                customer_ids=(1, 2),
                p_w=np.ones((4, 2)),
                q_var=np.ones((4, 3)),
                minutes_per_period=15,
            )
        with pytest.raises(ValueError, match="finite"):
            DemandSeries(
                customer_ids=(1,),
                p_w=np.full((4, 1), np.nan),
                q_var=np.zeros((4, 1)),
                minutes_per_period=15,
            )

    def test_timestamps_and_mid_hour(self):
        series = DemandSeries(
            customer_ids=(1,),
            p_w=np.zeros((4, 1)),
            q_var=np.zeros((4, 1)),
            minutes_per_period=15,
        )
        assert series.period_mid_hour(0) == pytest.approx(0.125)
        assert series.period_mid_hour(3) == pytest.approx(0.875)


class TestPvShape:
    def test_zero_outside_daylight(self):
        assert pv_generation_w(7.0, 3.0) == 0.0
        assert pv_generation_w(7.0, 21.0) == 0.0

    def test_peak_at_noon(self):
        assert pv_generation_w(7.0, 12.0) == pytest.approx(7000.0)
        assert pv_generation_w(7.0, 9.0) == pytest.approx(7000.0 * math.cos(math.pi / 4))
        assert pv_generation_w(7.0, 6.0) == pytest.approx(0.0, abs=1e-9)


class TestSnapshot:
    def test_period_out_of_range(self, network, demands):
        with pytest.raises(ValueError, match="period"):
            build_snapshot(network, demands, 96)

    def test_unknown_scenario_customer(self, network, demands):
        with pytest.raises(ValueError, match="unknown customer"):
            build_snapshot(
                network, demands, 0, ScenarioOptions(switch_customers=(999,))
            )

    def test_pv_subtracts_at_noon_only(self, network, demands):
        noon = 48  # 12:00-12:15
        night = 4
        plain = ScenarioOptions()
        with_pv = DEFAULT_SCENARIO
        for period, changed in ((noon, True), (night, False)):
            bare = build_snapshot(network, demands, period, plain)
            pv = build_snapshot(network, demands, period, with_pv)
            hosts = [
                k
                for k, c in enumerate(network.customers)
                if c.cid in with_pv.pv_customers
            ]
            delta = bare.p_pu[hosts] - pv.p_pu[hosts]
            if changed:
                assert np.all(delta > 0)
            else:
                assert np.allclose(delta, 0.0)
            others = [k for k in range(network.n_customers) if k not in hosts]
            assert np.array_equal(bare.p_pu[others], pv.p_pu[others])
            assert np.array_equal(bare.q_pu, pv.q_pu)

    def test_reactive_bounds_only_under_q_control(self, network, demands):
        off = build_snapshot(network, demands, 48, DEFAULT_SCENARIO)
        on = build_snapshot(
            network, demands, 48, replace(DEFAULT_SCENARIO, pv_q_control=True)
        )
        assert np.all(off.q_lo_pu == 0.0) and np.all(off.q_hi_pu == 0.0)
        band = 0.05 * 7e3 / network.bases.phase_power_va
        hosts = [
            k
            for k, c in enumerate(network.customers)
            if c.cid in DEFAULT_SCENARIO.pv_customers
        ]
        assert np.allclose(on.q_hi_pu[hosts], band)
        assert np.allclose(on.q_lo_pu[hosts], -band)
        assert on.n_adjustable == 10

    def test_adjustable_positions_map_switch_ids(self, network, demands):
        snap = build_snapshot(network, demands, 0, DEFAULT_SCENARIO)
        cids = {network.customers[k].cid for k in snap.adjustable_idx}
        assert cids == set(DEFAULT_SCENARIO.switch_customers)

    def test_snapshot_validation(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        with pytest.raises(ValueError, match="one entry per customer"):
            CaseSnapshot(
                network=network,
                period=0,
                p_pu=snap.p_pu[:-1],
                q_pu=snap.q_pu,
                q_lo_pu=snap.q_lo_pu,
                q_hi_pu=snap.q_hi_pu,
                adjustable_idx=snap.adjustable_idx,
            )
        with pytest.raises(ValueError, match="q_lo <= 0 <= q_hi"):
            CaseSnapshot(
                network=network,
                period=0,
                p_pu=snap.p_pu,
                q_pu=snap.q_pu,
                q_lo_pu=np.full(network.n_customers, 0.1),
                q_hi_pu=snap.q_hi_pu,
                adjustable_idx=snap.adjustable_idx,
            )
        with pytest.raises(ValueError, match="out of range"):
            CaseSnapshot(
                network=network,
                period=0,
                p_pu=snap.p_pu,
                q_pu=snap.q_pu,
                q_lo_pu=snap.q_lo_pu,
                q_hi_pu=snap.q_hi_pu,
                adjustable_idx=(999,),
            )

    def test_s_pu_combines_components(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        assert np.array_equal(snap.s_pu, snap.p_pu + 1j * snap.q_pu)


class TestNetworkSerialization:
    def test_json_round_trip(self, network, tmp_path):
        path = tmp_path / "network.json"
        write_network_json(network, path)
        back = read_network_json(path)
        assert back.buses == network.buses
        assert back.root == network.root
        assert np.allclose(back.v0.values, network.v0.values)
        assert back.limits == network.limits
        assert back.bases == network.bases
        assert len(back.lines) == len(network.lines)
        for a, b in zip(back.lines, network.lines):
            assert a.name == b.name and np.allclose(a.z_pu, b.z_pu)
        assert back.customers == network.customers
        assert dict(back.coords) == dict(network.coords)

    def test_profiles_csv_shape(self, demands, tmp_path):
        path = tmp_path / "profiles.csv"
        write_profiles_csv(demands, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == demands.n_periods * len(demands.customer_ids)
        first = rows[0]
        assert set(first) == {"period", "customer_id", "p_kw", "q_kvar"}
        assert float(first["p_kw"]) == pytest.approx(demands.p_w[0, 0] / 1e3, abs=1e-6)
