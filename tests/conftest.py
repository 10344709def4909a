import numpy as np
import pytest

from chemofluid.geometry import LevelSetDomain, classify_cells
from chemofluid.model import build_derived, linear_model
from chemofluid.solver import LinearSystems


@pytest.fixture(scope="session")
def disk_domain():
    return LevelSetDomain.disk(1.0)


@pytest.fixture(scope="session")
def disk64(disk_domain):
    return classify_cells(disk_domain, 1.0 / 64.0)


@pytest.fixture(scope="session")
def star_domain():
    return LevelSetDomain.star(3, 0.4)


@pytest.fixture(scope="session")
def star64(star_domain):
    return classify_cells(star_domain, 1.0 / 64.0)


@pytest.fixture(scope="session")
def two_disks():
    """Two disjoint disks: the pressure operator has one constant mode per disk."""
    def phi(x, y):
        return np.minimum((x + 0.5) ** 2, (x - 0.5) ** 2) + y ** 2 - 0.35 ** 2

    g = classify_cells(LevelSetDomain(phi, (-1.0, 1.0, -0.5, 0.5)), 1.0 / 48.0)
    assert g.n_components == 2
    return g


@pytest.fixture(scope="session")
def lin_model():
    return linear_model(G=0.5)


@pytest.fixture(scope="session")
def derived_linear(lin_model):
    return build_derived(lin_model, 2.0)


@pytest.fixture(scope="session")
def lin64(disk64):
    return LinearSystems(disk64)


def deep_interior(geom):
    """Interior cells whose 4-neighborhood is interior (exact stencils)."""
    deep = geom.interior.copy()
    deep[1:, :] &= geom.interior[:-1, :]
    deep[:-1, :] &= geom.interior[1:, :]
    deep[:, 1:] &= geom.interior[:, :-1]
    deep[:, :-1] &= geom.interior[:, 1:]
    return deep
