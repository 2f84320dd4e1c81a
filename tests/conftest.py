"""Shared fixtures: the bundled feeder and its reactive-switch variant, small
hand-built and random feeders."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasebal.netmodel import CaseSnapshot, Network, load_bundled_feeder

V0_ANGLES = np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])


def make_v0(magnitude: float = 1.05) -> np.ndarray:
    return magnitude * np.exp(1j * V0_ANGLES)


def symmetric_z(z_self: complex, z_mutual: complex) -> np.ndarray:
    return np.full((3, 3), z_mutual, dtype=complex) + np.eye(3) * (z_self - z_mutual)


def line_table(*lines) -> dict[str, object]:
    """`Network`'s three line fields from (name, from_bus, to_bus, z_pu) rows."""

    names, from_bus, to_bus, z = zip(*lines)
    return {"line_names": names, "line_ends": np.column_stack((from_bus, to_bus)), "line_z_pu": np.array(z)}


def customer_table(*customers) -> dict[str, object]:
    """`Network`'s three customer fields from (name, bus, initial_phase) rows."""

    names, buses, phases = zip(*customers) if customers else ((), (), ())
    return {
        "customer_names": names,
        "customer_buses": np.array(buses, dtype=int),
        "initial_phases": np.array(phases, dtype=int),
    }


def two_bus_network(
    z_self: complex = 0.01 + 0.03j,
    z_mutual: complex = 0.003 + 0.01j,
    customers: tuple[int, ...] = (0,),
) -> Network:
    """Root 0 -- line -- bus 1, with customers on the given initial phases."""

    return Network(
        buses=(0, 1),
        root=0,
        **line_table(("l1", 0, 1, symmetric_z(z_self, z_mutual))),
        **customer_table(*((f"c{i + 1}", 1, ph) for i, ph in enumerate(customers))),
        v0=make_v0(),
        i_dt_max=2.0,
    )


def random_radial_network(seed: int, n_buses: int = 30, n_customers: int = 24) -> Network:
    """Seeded random radial tree: bus k hangs off a random earlier bus.

    Customers sit on random non-root buses and phases.
    """

    rng = np.random.default_rng(seed)
    lines = line_table(*(
        (
            f"l{k}",
            int(rng.integers(0, k)),
            k,
            symmetric_z(complex(*rng.uniform(0.01, 0.04, 2)), complex(*rng.uniform(0.002, 0.01, 2))),
        )
        for k in range(1, n_buses)
    ))
    customers = customer_table(*(
        (f"c{j + 1}", int(rng.integers(1, n_buses)), int(rng.integers(0, 3))) for j in range(n_customers)
    ))
    return Network(
        buses=tuple(range(n_buses)),
        root=0,
        **lines,
        **customers,
        v0=make_v0(),
        i_dt_max=2.0,
    )


def loaded_snapshot(network, seed, switches, q_band=0.0, idle=0):
    """Loads heavy enough (up to 0.1 pu P, 0.03 pu Q) to put buses into the
    kernels' cap set; the first switches customers are adjustable, the first
    idle of them draw nothing (so candidates tie), and each customer may
    move its reactive power by up to q_band."""

    rng = np.random.default_rng(seed)
    n = network.n_customers
    band = rng.uniform(0.0, q_band, n)
    p, q = rng.uniform(0.0, 0.1, n), rng.uniform(0.0, 0.03, n)
    p[:idle] = q[:idle] = 0.0
    return CaseSnapshot(
        network=network,
        p_pu=p,
        q_pu=q,
        q_lo_pu=-band,
        q_hi_pu=band,
        switchable=np.arange(n) < switches,
        phases=network.initial_phases,
    )


@pytest.fixture(scope="session")
def feeder():
    return load_bundled_feeder()


@pytest.fixture(scope="session")
def network(feeder):
    return feeder[0]


@pytest.fixture(scope="session")
def demands(feeder):
    return feeder[1]



@pytest.fixture(scope="session")
def reactive_switch_scenario(tmp_path_factory):
    """The bundled tables with the switchable customers at power factor 0.95,
    as `tools/gen_feeder.py --pf-movable 0.95` writes them: their phase
    choice then moves the transformer's reactive spread too."""

    out = tmp_path_factory.mktemp("pf095")
    script = Path(__file__).resolve().parents[1] / "tools" / "gen_feeder.py"
    subprocess.run(
        [sys.executable, str(script), "--out", str(out), "--pf-movable", "0.95"],
        check=True, capture_output=True,
    )
    return str(out)
