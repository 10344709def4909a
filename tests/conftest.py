import numpy as np
import pytest

from chemofluid import gridio
from chemofluid.diagnostics import entropy_parts
from chemofluid.fields import ScalarField
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
def stacked():
    """Two disks stacked along y: in raster order their interior cells interleave."""
    def phi(x, y):
        return np.minimum((y + 0.5) ** 2, (y - 0.5) ** 2) + x ** 2 - 0.35 ** 2

    g = classify_cells(LevelSetDomain(phi, (-0.5, 0.5, -1.0, 1.0)), 1.0 / 48.0)
    assert g.n_components == 2
    return g


@pytest.fixture(scope="session")
def annulus48():
    return classify_cells(LevelSetDomain.annulus(0.5, 1.0), 1.0 / 48.0)


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


def scalar_from_function(geom, fn):
    """fn(x, y) at the cell centres of the active cells, zero elsewhere."""
    X, Y = geom.cell_centers()
    return ScalarField(geom, np.where(geom.active, fn(X, Y), 0.0))


def entropy_functional(f):
    """int n log n + 1/2 int |grad psi(c)|^2 of a Frame (n clamped away from 0 in the log)."""
    ent_n, grad_psi_sq = entropy_parts(f)
    return ent_n + 0.5 * grad_psi_sq


def write_grid(path, values, bbox):
    """A grid file of values (indexed x-first) over bbox, as read_grid reads it."""
    values = np.asarray(values, dtype=float)
    gridio._write(path, gridio.GRID_MAGIC, values.shape, bbox, [values])
