"""Shared fixtures: the bundled feeder and small hand-built feeders."""

from __future__ import annotations

import numpy as np
import pytest

from phasebal.netmodel import (
    Customer,
    Limits,
    Line,
    Network,
    PerUnitBases,
    Phasor3,
    load_bundled_feeder,
)

V0_ANGLES = np.array([0.0, -2.0 * np.pi / 3.0, 2.0 * np.pi / 3.0])


def make_v0(magnitude: float = 1.05) -> Phasor3:
    return Phasor3.from_polar([magnitude] * 3, V0_ANGLES)


def symmetric_z(z_self: complex, z_mutual: complex) -> np.ndarray:
    return np.full((3, 3), z_mutual, dtype=complex) + np.eye(3) * (z_self - z_mutual)


def two_bus_network(
    z_self: complex = 0.01 + 0.03j,
    z_mutual: complex = 0.003 + 0.01j,
    customers: tuple[tuple[int, bool], ...] = ((0, False),),
) -> Network:
    """Root 0 -- line -- bus 1, with (initial_phase, adjustable) customers."""

    return Network(
        name="two-bus",
        buses=(0, 1),
        root=0,
        lines=(Line(name="l1", from_bus=0, to_bus=1, z_pu=symmetric_z(z_self, z_mutual)),),
        customers=tuple(
            Customer(cid=i + 1, name=f"c{i + 1}", bus=1, initial_phase=ph, adjustable=adj)
            for i, (ph, adj) in enumerate(customers)
        ),
        v0=make_v0(),
        limits=Limits(),
        bases=PerUnitBases(),
    )


@pytest.fixture(scope="session")
def feeder():
    return load_bundled_feeder()


@pytest.fixture(scope="session")
def network(feeder):
    return feeder.network

@pytest.fixture(scope="session")
def demands(feeder):
    return feeder.demands

