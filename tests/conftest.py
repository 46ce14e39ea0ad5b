import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spinquench.evolution import QuenchProtocol
from spinquench.mqc import EstimatorConfig, trajectory
from spinquench.network import (
    SpinGeometry,
    cubic_lattice_geometry,
    dipolar_couplings,
)

settings.register_profile(
    "suite",
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def chain_geometry(n: int, spacing: float = 1.0) -> SpinGeometry:
    """n spins on a line along x, field along z (theta = pi/2 for all pairs)."""
    pos = np.zeros((n, 3))
    pos[:, 0] = spacing * np.arange(n)
    return SpinGeometry(pos, np.array([0.0, 0.0, 1.0]), f"chain{n}", 0)


@pytest.fixture(scope="session")
def chain6():
    return dipolar_couplings(chain_geometry(6))


@pytest.fixture(scope="session")
def lattice8():
    return dipolar_couplings(cubic_lattice_geometry((2, 2, 2)))


@pytest.fixture(scope="session")
def lattice12():
    return dipolar_couplings(cubic_lattice_geometry((3, 2, 2)))


@pytest.fixture(scope="session")
def lattice12_trajectory(lattice12):
    """Exact K(t) on the 12-spin lattice, computed once per p and cached.

    The 12-spin exact path costs 3.6-4.8 s per perturbation strength on
    this 10-point grid (measured on 2 vCPUs), so the saturation tests and
    the perturbation-ordering gate share one cache.
    """
    grid = np.geomspace(0.5, 20.0, 10)
    cache = {}

    def get(p: float):
        if p not in cache:
            protocol = QuenchProtocol.average(p, grid)
            cache[p] = trajectory(lattice12, protocol, EstimatorConfig(kind="exact"))
        return cache[p]

    return get
