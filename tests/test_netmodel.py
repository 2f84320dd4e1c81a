"""Feeder import, topology validation, demand handling and snapshots."""

from __future__ import annotations

import csv
import math
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from phasebal import netmodel
from phasebal.netmodel import (
    CaseSnapshot,
    DemandSeries,
    FeederFormatError,
    Network,
    RadialityError,
    build_snapshot,
    bundled_feeder_dir,
    import_european_feeder,
    pv_generation_w,
    validate_radial,
)
from phasebal.formulations import AffineFit, EvaluationResult
from phasebal.optimizer import Algorithm1Step, OptimizationOutcome
from phasebal.powerflow import PFSolution, feeder_geometry

from conftest import customer_table, line_table, make_v0, symmetric_z, two_bus_network


class TestSourceVoltage:
    def test_shape_and_finiteness_enforced(self):
        # Every model divides the transformer current by |v0|, so a zero phase is refused too.
        for v0 in (
            np.ones(4, dtype=complex), np.ones((1, 3)), np.array([1.0, np.inf, 1.0]), [1.0, np.nan, 1.0],
            np.zeros(3), [1.0, 0.0, 1.0],
        ):
            with pytest.raises(FeederFormatError, match="v0 must be 3 finite phase voltages"):
                replace(two_bus_network(), v0=v0)

    def test_values_are_read_only(self):
        given = make_v0()
        network = replace(two_bus_network(), v0=given)
        assert network.v0.dtype == complex and network.v0.shape == (3,)
        assert np.array_equal(network.v0, given) and network.v0 is not given
        with pytest.raises(ValueError):
            network.v0[0] = 0.0
        given[0] = 0.0
        assert network.v0[0] == make_v0()[0]


class TestPerUnitBases:
    def test_derived_bases(self):
        assert (netmodel.VOLTAGE_BASE_V, netmodel.POWER_BASE_VA) == (240.0, 100_000.0)
        assert netmodel.PHASE_POWER_BASE_VA == pytest.approx(100_000.0 / 3.0)
        assert netmodel.IMPEDANCE_BASE_OHM == pytest.approx(240.0**2 * 3.0 / 100_000.0)


def with_line_z(network, *z, names=None):
    """network with its impedance table replaced by the rows z, and its
    line names too when names is given."""

    return replace(network, line_names=names or network.line_names, line_z_pu=np.array(z))


class TestNetworkValidation:
    def test_line_impedance_must_be_symmetric(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        z = z.copy()
        z[0, 1] += 1e-6
        with pytest.raises(FeederFormatError, match="not symmetric"):
            with_line_z(two_bus_network(), z, names=("bad",))

    def test_symmetry_tolerance_boundary(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        for gap, accepted in ((2e-12, False), (5e-13, True), (2e-12j, False), (5e-13j, True)):
            skewed = z.copy()
            skewed[2, 0] += gap
            if accepted:
                assert with_line_z(two_bus_network(), skewed).line_z_pu[0, 2, 0] == z[2, 0] + gap
            else:
                with pytest.raises(FeederFormatError, match="line far: impedance matrix is not symmetric"):
                    with_line_z(two_bus_network(), skewed, names=("far",))

    @pytest.mark.parametrize(
        "entry",
        [
            math.inf, math.nan, complex(0.0, math.inf), -math.inf,
            complex(0.003, math.nan), complex(0.003, math.inf), complex(0.003, -math.inf),
        ],
    )
    def test_line_impedance_must_be_finite(self, entry):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        for where in ((1, 1), (0, 2)):
            bad = z.copy()
            bad[where] = entry
            with pytest.raises(FeederFormatError, match="line bad: impedance must be finite"):
                with_line_z(two_bus_network(), bad, names=("bad",))
        with pytest.raises(FeederFormatError, match="finite"):
            with_line_z(two_bus_network(), np.full((3, 3), math.inf), names=("bad",))

    def test_line_impedance_must_be_3x3(self):
        base = two_bus_network()
        for z in (np.eye(2, dtype=complex)[None], np.eye(3, dtype=complex), np.eye(4, dtype=complex)[None]):
            with pytest.raises(FeederFormatError) as info:
                replace(base, line_z_pu=z)
            assert str(info.value) == "1 line names need (lines, 2) integer ends and (lines, 3, 3) impedances"

    def test_the_first_faulty_line_is_named(self):
        # A skewed line ahead of a non-finite one is named, and the other way round.
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        skewed, infinite = z.copy(), z.copy()
        skewed[0, 1] += 1e-6
        infinite[1, 1] = math.inf
        names = ("l0", "l1", "l2")
        for rows, message in (
            ((z, skewed, infinite), "line l1: impedance matrix is not symmetric"),
            ((z, infinite, skewed), "line l1: impedance must be finite"),
            ((skewed, z, skewed), "line l0: impedance matrix is not symmetric"),
            ((z, infinite, infinite), "line l1: impedance must be finite"),
        ):
            with pytest.raises(FeederFormatError) as info:
                Network(
                    buses=(0, 1, 2, 3), root=0, line_names=names, line_ends=[(0, 1), (1, 2), (2, 3)],
                    line_z_pu=np.array(rows), **customer_table(), v0=make_v0(), i_dt_max=2.0,
                )
            assert str(info.value) == message

    @pytest.mark.parametrize("ends", [[(0, 1.5)], [(0.0, 1.0)], [("0", "1")]])
    def test_line_ends_must_be_integer_ids(self, ends):
        # An int cast would turn 1.5 into bus 1 and load the wrong bus.
        with pytest.raises(FeederFormatError, match=r"^1 line names need \(lines, 2\) integer ends and"):
            replace(two_bus_network(), line_ends=np.array(ends))

    @pytest.mark.parametrize("field", ["line_names", "line_ends", "line_z_pu"])
    def test_line_tables_must_have_one_length(self, field):
        base = two_bus_network()
        tables = {
            "line_names": ("l1", "l2"),
            "line_ends": np.array([(0, 1), (1, 0)]),
            "line_z_pu": np.array([base.line_z_pu[0]] * 2),
        }
        with pytest.raises(FeederFormatError, match="line names need"):
            replace(base, **{field: tables[field]})

    def test_a_feeder_without_lines_is_valid(self):
        # One bus, its customer at the root: every table empty.
        network = Network(
            buses=(0,), root=0, line_names=(), line_ends=np.empty((0, 2), dtype=int),
            line_z_pu=np.empty((0, 3, 3), dtype=complex),
            **customer_table(("c1", 0, 1)), v0=make_v0(), i_dt_max=2.0,
        )
        assert network.topology.depth_order == (0,)
        assert network.line_ends.shape == (0, 2) and network.line_z_pu.shape == (0, 3, 3)
        assert not feeder_geometry(network).columns.any()

    def test_dangling_references_rejected(self):
        base = two_bus_network()
        for ends, bus in (([(0, 9)], 9), ([(7, 9)], 7)):
            with pytest.raises(FeederFormatError) as info:
                replace(base, line_ends=ends)
            assert str(info.value) == f"line l1 references unknown bus {bus}"
        with pytest.raises(FeederFormatError) as info:
            replace(base, customer_buses=np.array([9]))
        assert str(info.value) == "customer c1 references unknown bus 9"

    def test_repeated_ids_rejected(self):
        # Repeated bus ids left the geometry reading unset table entries.
        base = two_bus_network(customers=(0, 1, 2))
        with pytest.raises(FeederFormatError, match=r"^bus ids repeated: \[1\]$"):
            replace(base, buses=(0, 1, 1))

    @pytest.mark.parametrize("phase", [-1, 3, 5])
    def test_initial_phase_out_of_range_rejected(self, phase):
        base = two_bus_network(customers=(0, 1))
        with pytest.raises(FeederFormatError, match=f"^customer c2 has initial phase {phase}$"):
            replace(base, initial_phases=np.array([0, phase]))

    @pytest.mark.parametrize("field", ["customer_names", "customer_buses", "initial_phases"])
    def test_customer_tables_must_have_one_length(self, field):
        base = two_bus_network()
        tables = {
            "customer_names": ("c1", "c2"),
            "customer_buses": np.array([1, 1]),
            "initial_phases": np.array([0, 1]),
        }
        with pytest.raises(FeederFormatError) as info:
            replace(base, **{field: tables[field]})
        n = 2 if field == "customer_names" else 1
        assert str(info.value) == f"{n} customer names need (customers,) integer buses and initial phases"

    @pytest.mark.parametrize("field", ["customer_buses", "initial_phases"])
    @pytest.mark.parametrize("value", [1.5, 1.0, "1"])
    def test_customer_buses_and_phases_must_be_integer(self, field, value):
        # An int cast would turn 1.5 into bus or phase 1 and load the wrong one.
        with pytest.raises(FeederFormatError) as info:
            replace(two_bus_network(), **{field: np.array([value])})
        assert str(info.value) == "1 customer names need (customers,) integer buses and initial phases"

    def test_the_first_faulty_customer_is_named(self):
        # A customer's unknown bus is named before its phase, and an earlier
        # faulty customer before a later one, whatever its fault.
        base = two_bus_network(customers=(0, 1, 2))
        for buses, phases, message in (
            ([1, 9, 1], [0, 1, 5], "customer c2 references unknown bus 9"),
            ([1, 1, 9], [0, 5, 1], "customer c2 has initial phase 5"),
            ([1, 9, 1], [0, 3, 0], "customer c2 references unknown bus 9"),
            ([7, 1, 1], [0, 0, -1], "customer c1 references unknown bus 7"),
            ([1, 1, 1], [0, -1, 3], "customer c2 has initial phase -1"),
        ):
            with pytest.raises(FeederFormatError) as info:
                replace(base, customer_buses=np.array(buses), initial_phases=np.array(phases))
            assert str(info.value) == message

    @pytest.mark.parametrize("rating", [0.0, -2.0, math.nan, math.inf])
    def test_transformer_rating_must_be_finite_and_positive(self, rating):
        with pytest.raises(FeederFormatError) as info:
            replace(two_bus_network(), i_dt_max=rating)
        assert str(info.value) == f"i_dt_max must be finite and positive, got {rating!r}"

    def test_cycle_detected(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        with pytest.raises(RadialityError, match="cycle or parallel"):
            Network(
                buses=(0, 1, 2),
                root=0,
                **line_table(("l1", 0, 1, z), ("l2", 1, 2, z), ("l3", 2, 0, z)),
                **customer_table(),
                v0=make_v0(),
                i_dt_max=2.0,
            )

    @pytest.mark.parametrize("bus", [0, 1])
    def test_a_line_from_a_bus_to_itself_is_named(self, bus):
        # Not a cycle through l0, nor through a line called root.
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        with pytest.raises(RadialityError) as info:
            Network(
                buses=(0, 1), root=0, **line_table(("l0", 0, 1, z), ("l1", bus, bus, z)),
                **customer_table(), v0=make_v0(), i_dt_max=2.0,
            )
        assert str(info.value) == f"line l1 connects bus {bus} to itself"

    def test_disconnected_bus_detected(self):
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        with pytest.raises(RadialityError, match="not connected"):
            Network(
                buses=(0, 1, 2, 3),
                root=0,
                **line_table(("l1", 0, 1, z), ("l2", 2, 3, z)),
                **customer_table(),
                v0=make_v0(),
                i_dt_max=2.0,
            )

    def test_parent_line_per_bus(self):
        # 0 - 1 - 2 and 1 - 3; "left" is stored pointing toward the root.
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)
        network = Network(
            buses=(0, 1, 2, 3),
            root=0,
            **line_table(("trunk", 0, 1, z), ("left", 2, 1, z), ("right", 1, 3, z)),
            **customer_table(("c1", 2, 0), ("c2", 3, 1), ("c3", 1, 2)),
            v0=make_v0(),
            i_dt_max=2.0,
        )
        report = network.topology
        assert report.depth_order == (0, 1, 2, 3)
        assert report.parent == {0: 0, 1: 0, 2: 1, 3: 1}
        names = {bus: network.line_names[li] for bus, li in report.parent_line.items()}
        assert names == {1: "trunk", 2: "left", 3: "right"}
        assert validate_radial(network) == report


def per_line_impedances(directory) -> list[np.ndarray]:
    """Each Lines.csv record's per-unit impedance, one line at a time: its
    code's phase matrix times the length in km, divided by the impedance base."""

    def table(name):
        with (Path(directory) / name).open(newline="") as fh:
            return list(csv.DictReader(fh))

    codes = {
        row["Name"]: netmodel._sequence_to_phase_matrix(
            complex(float(row["R1_ohm_per_km"]), float(row["X1_ohm_per_km"])),
            complex(float(row["R0_ohm_per_km"]), float(row["X0_ohm_per_km"])),
        )
        for row in table("LineCodes.csv")
    }
    return [
        codes[row["LineCode"]] * (float(row["Length_m"]) / 1000.0) / netmodel.IMPEDANCE_BASE_OHM
        for row in table("Lines.csv")
    ]


def assert_impedances_per_line(network, directory):
    want = per_line_impedances(directory)
    assert network.line_z_pu.shape == (len(want), 3, 3)
    for name, got, z in zip(network.line_names, network.line_z_pu, want):
        assert got.tobytes() == z.tobytes(), name


class TestImport:
    def test_bundled_counts(self, network, demands):
        assert network.n_buses == 54
        assert len(network.line_names) == len(network.line_ends) == len(network.line_z_pu) == 53
        assert network.n_customers == 55
        assert demands.n_periods == 96
        assert demands.minutes_per_period == 15

    def test_line_impedances_equal_the_per_line_product(self, network):
        assert_impedances_per_line(network, bundled_feeder_dir())

    def test_source_anchors_root_voltage(self, network):
        assert np.allclose(np.abs(network.v0), 1.05)
        angles = np.angle(network.v0)
        assert angles[0] == pytest.approx(0.0)
        assert angles[1] == pytest.approx(-2.0 * math.pi / 3.0)
        assert angles[2] == pytest.approx(2.0 * math.pi / 3.0)
        # DT rating from Source.csv, on the 100 kVA base.
        assert network.i_dt_max == pytest.approx(2.0)

    def test_reactive_follows_power_factor(self, network, demands):
        with (bundled_feeder_dir() / "Loads.csv").open() as fh:
            loads = {
                row["Name"]: (float(row["kW"]), float(row["PF"]))
                for row in csv.DictReader(fh)
            }
        for k, name in enumerate(network.customer_names):
            kw, pf = loads[name]
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

    def test_missing_column_named(self, broken_dir):
        def transform(rows):
            drop = rows[0].index("Length_m")
            return [row[:drop] + row[drop + 1:] for row in rows]

        self._rewrite(broken_dir / "Lines.csv", transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == "Lines.csv record 1: no Length_m value"

    @pytest.mark.parametrize(
        "table, column", [("Loads.csv", "kW"), ("Source.csv", "value"), ("LoadShapes.csv", "minutes")]
    )
    def test_non_numeric_value_named(self, broken_dir, table, column):
        def transform(rows):
            rows[2][rows[0].index(column)] = "abc"
            return rows

        self._rewrite(broken_dir / table, transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"{table} record 2: invalid {column} 'abc'"

    @pytest.mark.parametrize(
        "table, column, record, text",
        [
            ("Source.csv", "value", 4, "nan"),
            ("LineCodes.csv", "X0_ohm_per_km", 2, "inf"),
            ("Lines.csv", "Length_m", 3, "nan"),
            ("Loads.csv", "kW", 5, "-inf"),
            ("LoadShapes.csv", "LOAD1", 3, "nan"),
        ],
    )
    def test_non_finite_value_named(self, broken_dir, table, column, record, text):
        def transform(rows):
            rows[record][rows[0].index(column)] = text
            return rows

        self._rewrite(broken_dir / table, transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"{table} record {record}: invalid {column} {text!r}"

    @pytest.mark.parametrize("text", ["0", "-15"])
    def test_non_positive_minutes_named(self, broken_dir, text):
        # Record 1's period length must be positive.
        def transform(rows):
            rows[1][rows[0].index("minutes")] = text
            return rows

        self._rewrite(broken_dir / "LoadShapes.csv", transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"LoadShapes.csv record 1: invalid minutes {text!r}"

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("30", "minutes 30 differ from record 1's 15"),
            ("", "invalid minutes ''"),
        ],
    )
    def test_later_minutes_named(self, broken_dir, text, reason):
        # A later record's period length must be there and equal record 1's.
        def transform(rows):
            rows[5][rows[0].index("minutes")] = text
            return rows

        self._rewrite(broken_dir / "LoadShapes.csv", transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"LoadShapes.csv record 5: {reason}"

    @pytest.mark.parametrize("quantity, record, text", [("pu", 2, "0"), ("dt_kva", 4, "-200")])
    def test_non_positive_source_quantity_named(self, broken_dir, quantity, record, text):
        # A zero or negative source voltage or transformer rating has no meaning.
        def transform(rows):
            assert rows[record][0] == quantity
            rows[record][1] = text
            return rows

        self._rewrite(broken_dir / "Source.csv", transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"Source.csv record {record}: invalid value {text!r}"

    @pytest.mark.parametrize(
        "table, column, record, text",
        [("Lines.csv", "Length_m", 4, "-55.0"), ("LineCodes.csv", "R1_ohm_per_km", 3, "-0.125")],
    )
    def test_negative_line_quantity_named(self, broken_dir, table, column, record, text):
        # A negative length or impedance turns a line into a source of voltage rise.
        def transform(rows):
            rows[record][rows[0].index(column)] = text
            return rows

        self._rewrite(broken_dir / table, transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"{table} record {record}: invalid {column} {text!r}"

    def test_line_from_a_bus_to_itself_named(self, broken_dir):
        def transform(rows):
            rows[3][rows[0].index("Bus2")] = rows[3][rows[0].index("Bus1")]
            return rows

        self._rewrite(broken_dir / "Lines.csv", transform)
        with pytest.raises(RadialityError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == "line T3 connects bus 3 to itself"

    def test_zero_line_quantity_accepted(self, broken_dir):
        def transform(rows):
            rows[4][rows[0].index("Length_m")] = "0"
            return rows

        self._rewrite(broken_dir / "Lines.csv", transform)
        network, _ = import_european_feeder(broken_dir)
        assert not network.line_z_pu[network.line_names.index("T4")].any()

    def test_repeated_load_name_named(self, broken_dir):
        # Two records named LOAD1 would share one shape column and one kW and PF.
        def transform(rows):
            rows[2][rows[0].index("Name")] = rows[1][rows[0].index("Name")]
            return rows

        self._rewrite(broken_dir / "Loads.csv", transform)
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == "Loads.csv record 2: load name LOAD1 repeats"

    @pytest.mark.parametrize(
        "table, record, message",
        [
            ("LineCodes.csv", ["branch", "3.2", "0.24", "1.0", "0.8"], "record 4: line code branch"),
            ("Source.csv", ["pu", "0.5"], "record 5: quantity pu"),
        ],
    )
    def test_repeated_name_named(self, broken_dir, table, record, message):
        # A later record would silently win: a second branch code would set
        # the impedance of every branch line, a second pu the source voltage.
        self._rewrite(broken_dir / table, lambda rows: rows + [record])
        with pytest.raises(FeederFormatError) as info:
            import_european_feeder(broken_dir)
        assert str(info.value) == f"{table} {message} repeats"

    def test_loads_are_read_per_record(self, network, demands):
        # Each customer's demand is its own record's kW and PF times its shape.
        with (bundled_feeder_dir() / "Loads.csv").open() as fh:
            loads = list(csv.DictReader(fh))
        with (bundled_feeder_dir() / "LoadShapes.csv").open() as fh:
            shapes = list(csv.DictReader(fh))
        assert list(network.customer_names) == [row["Name"] for row in loads]
        for k, row in enumerate(loads):
            mult = np.array([float(shape[row["Name"]]) for shape in shapes])
            p_w = mult * float(row["kW"]) * 1e3
            assert np.array_equal(demands.p_w[:, k], p_w)
            assert np.array_equal(demands.q_var[:, k], p_w * math.tan(math.acos(float(row["PF"]))))

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
                p_w=np.ones((4, 2)),
                q_var=np.ones((4, 3)),
                minutes_per_period=15,
            )
        with pytest.raises(ValueError, match="finite"):
            DemandSeries(
                p_w=np.full((4, 1), np.nan),
                q_var=np.zeros((4, 1)),
                minutes_per_period=15,
            )

    def test_timestamps_and_mid_hour(self):
        series = DemandSeries(
            p_w=np.zeros((4, 1)),
            q_var=np.zeros((4, 1)),
            minutes_per_period=15,
        )
        assert series.period_mid_hour(0) == pytest.approx(0.125)
        assert series.period_mid_hour(3) == pytest.approx(0.875)


class TestRecordsOwnTheirArrays:
    def test_the_callers_arrays_stay_writeable(self, network, demands):
        # Each record freezes a copy, not the array its caller handed in.
        z = symmetric_z(0.01 + 0.03j, 0.003 + 0.01j)[None]
        ends, at, phases = np.array([(0, 1)]), np.array([1]), np.array([2])
        two_bus = replace(two_bus_network(), line_ends=ends, line_z_pu=z, customer_buses=at, initial_phases=phases)
        p, q = np.ones((4, 1)), np.zeros((4, 1))
        series = DemandSeries(p_w=p, q_var=q, minutes_per_period=15)
        snap = build_snapshot(network, demands, 40, pv_q_control=True)
        names = ("p_pu", "q_pu", "q_lo_pu", "q_hi_pu", "switchable", "phases")
        given = {name: np.array(getattr(snap, name)) for name in names}
        copy = replace(snap, **given)
        pairs = [(z, two_bus.line_z_pu), (ends, two_bus.line_ends), (at, two_bus.customer_buses)]
        pairs += [(phases, two_bus.initial_phases), (p, series.p_w), (q, series.q_var)]
        pairs += [(array, getattr(copy, name)) for name, array in given.items()]
        cb, ck, ch = (np.ones(3) + 0j for _ in range(3))
        fit = AffineFit(cb=cb, ck=ck, ch=ch)
        pairs += [(cb, fit.cb), (ck, fit.ck), (ch, fit.ch)]
        # Result records too, given arrays of the dtypes they keep, which np.asarray would not copy.
        v, s_dt, vneg, i_cust, s_cust = (np.ones(shape) + 0j for shape in ((2, 3), 3, 2, 1, 1))
        vm, phase = np.ones((2, 3)), np.zeros(1, dtype=int)
        result = EvaluationResult("fixv", 0.0, {}, False, 0.0, s_dt=s_dt, vm=vm, vneg=vneg, v=v)
        solution = PFSolution(v, i_cust, s_dt, s_cust, cust_phase=phase, iterations=1, mismatch=0.0)
        pairs += [(s_dt, result.s_dt), (vm, result.vm), (vneg, result.vneg), (v, result.v)]
        pairs += [(v, solution.v), (i_cust, solution.i_cust), (s_dt, solution.s_dt)]
        pairs += [(s_cust, solution.s_cust), (phase, solution.cust_phase)]
        chosen = np.array(snap.phases)
        step = Algorithm1Step(1, chosen, 0.0, 0.0)
        outcome = OptimizationOutcome("fixv", "none", chosen, result, result, 1, trace=(step,))
        pairs += [(chosen, step.phases), (chosen, outcome.assignment)]
        for mine, kept in pairs:
            assert mine.flags.writeable and not kept.flags.writeable
            assert np.array_equal(mine, kept)
        assert EvaluationResult("fixv", 0.0, {}, False, 0.0, s_dt=s_dt, vm=vm, vneg=vneg).v is None

    def test_the_shared_tables_refuse_writes(self, network):
        # feeder_geometry's cache and the topology report hand the same
        # tables to every solve, so a write would move every later result.
        geometry = feeder_geometry(network)
        for table in fields(geometry):
            with pytest.raises(ValueError, match="read-only"):
                getattr(geometry, table.name).flat[0] = 0
        for name in ("parent", "parent_line"):
            table = getattr(network.topology, name)
            bus = next(iter(table))
            with pytest.raises(TypeError):
                table[bus] = network.root


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

    def test_demands_must_match_the_network_customers(self, network, demands):
        # Column k of the demands is customer k of the network.
        short = DemandSeries(
            p_w=demands.p_w[:, 1:], q_var=demands.q_var[:, 1:], minutes_per_period=15
        )
        with pytest.raises(ValueError) as info:
            build_snapshot(network, short, 0)
        assert str(info.value) == "demands have 54 customer columns, the network 55 customers"

    def test_unknown_scenario_customer(self, network, demands):
        # Switch customer 53 is beyond a feeder cut to its first 51 loads.
        fields = ("customer_names", "customer_buses", "initial_phases")
        cut = replace(network, **{name: getattr(network, name)[:51] for name in fields})
        short = DemandSeries(
            p_w=demands.p_w[:, :51], q_var=demands.q_var[:, :51], minutes_per_period=15
        )
        with pytest.raises(ValueError) as info:
            build_snapshot(cut, short, 0)
        assert str(info.value) == "the feeder has no customer 53, a case-study PV or switch customer"

    def test_pv_subtracts_at_noon_only(self, network, demands):
        noon = 48  # 12:00-12:15
        night = 4
        hosts = [k for k in range(network.n_customers) if k + 1 in netmodel.PV_CUSTOMERS]
        others = [k for k in range(network.n_customers) if k not in hosts]
        assert len(hosts) == 10
        for period, changed in ((noon, True), (night, False)):
            snap = build_snapshot(network, demands, period)
            bare = demands.p_w[period] / netmodel.PHASE_POWER_BASE_VA
            delta = bare[hosts] - snap.p_pu[hosts]
            if changed:
                assert np.all(delta > 0)
            else:
                assert np.allclose(delta, 0.0)
            assert np.array_equal(bare[others], snap.p_pu[others])
            assert np.array_equal(demands.q_var[period] / netmodel.PHASE_POWER_BASE_VA, snap.q_pu)

    def test_reactive_bounds_only_under_q_control(self, network, demands):
        off = build_snapshot(network, demands, 48)
        on = build_snapshot(network, demands, 48, pv_q_control=True)
        assert np.all(off.q_lo_pu == 0.0) and np.all(off.q_hi_pu == 0.0)
        band = 0.05 * 7e3 / netmodel.PHASE_POWER_BASE_VA
        hosts = [k for k in range(network.n_customers) if k + 1 in netmodel.PV_CUSTOMERS]
        assert np.allclose(on.q_hi_pu[hosts], band)
        assert np.allclose(on.q_lo_pu[hosts], -band)
        others = [k for k in range(network.n_customers) if k not in hosts]
        assert np.all(on.q_lo_pu[others] == 0.0) and np.all(on.q_hi_pu[others] == 0.0)
        assert on.switchable.sum() == off.switchable.sum() == 10

    @pytest.mark.parametrize("name", ["p_pu", "q_pu", "q_lo_pu", "q_hi_pu"])
    @pytest.mark.parametrize("bad", [math.nan, -math.inf, math.inf])
    def test_non_finite_loads_and_bounds_rejected(self, network, demands, name, bad):
        # A NaN load would make every evaluator return NaN, and a NaN or
        # infinite bound on the right side of zero would pass the sign check.
        snap = build_snapshot(network, demands, 40, pv_q_control=True)
        values = np.array(getattr(snap, name))
        values[0] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            replace(snap, **{name: values})

    def test_adjustable_positions_map_switch_ids(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        # A customer's id is its Loads.csv record number, its position + 1.
        cids = np.flatnonzero(snap.switchable) + 1
        assert cids.tolist() == sorted(netmodel.SWITCH_CUSTOMERS)

    def test_snapshot_validation(self, network, demands):
        snap = build_snapshot(network, demands, 0)
        with pytest.raises(ValueError, match="one entry per customer"):
            CaseSnapshot(
                network=network,
                p_pu=snap.p_pu[:-1],
                q_pu=snap.q_pu,
                q_lo_pu=snap.q_lo_pu,
                q_hi_pu=snap.q_hi_pu,
                switchable=snap.switchable,
                phases=snap.phases,
            )
        with pytest.raises(ValueError, match="q_lo <= 0 <= q_hi"):
            CaseSnapshot(
                network=network,
                p_pu=snap.p_pu,
                q_pu=snap.q_pu,
                q_lo_pu=np.full(network.n_customers, 0.1),
                q_hi_pu=snap.q_hi_pu,
                switchable=snap.switchable,
                phases=snap.phases,
            )

    def test_switchable_must_be_one_bool_per_customer(self, network, demands):
        # Positions such as (2, 8) or a 0/1 int column are not taken as a mask.
        snap = build_snapshot(network, demands, 0)
        mask = snap.switchable
        for bad in ((2, 8), np.array([2, 8]), mask.astype(int), mask[:-1], np.append(mask, True), mask[None]):
            with pytest.raises(ValueError) as info:
                replace(snap, switchable=bad)
            assert str(info.value) == "switchable must be one bool per customer"

    def test_phases_start_from_the_feeder(self, network, demands):
        for period in (0, 73):
            snap = build_snapshot(network, demands, period)
            assert np.array_equal(snap.phases, network.initial_phases)
            assert snap.phases.dtype.kind == "i"

    def test_phases_must_be_one_integer_per_customer(self, network, demands):
        # A bool or float column is refused, never cast.
        snap = build_snapshot(network, demands, 0)
        phases = snap.phases
        for bad in (
            phases[:-1], np.append(phases, 0), phases[None], tuple(phases[:2]),
            phases.astype(bool), phases.astype(float), np.array(phases, dtype=object),
        ):
            with pytest.raises(ValueError) as info:
                replace(snap, phases=bad)
            assert str(info.value) == "phases must be one integer per customer"

    @pytest.mark.parametrize("bad", [3, -1, 7])
    def test_phases_outside_0_to_2_name_the_first_faulty_customer(self, network, demands, bad):
        snap = build_snapshot(network, demands, 0)
        phases = np.array(snap.phases)
        phases[[4, 9]] = bad, 5
        with pytest.raises(ValueError) as info:
            replace(snap, phases=phases)
        assert str(info.value) == f"customer {network.customer_names[4]} starts on phase {bad}"

    def test_s_pu_combines_components(self, network, demands):
        snap = build_snapshot(network, demands, 40)
        assert np.array_equal(snap.s_pu, snap.p_pu + 1j * snap.q_pu)

