"""Discrete scalar/vector/tensor fields and spatial operators on the masked grid.

Scalars (cell density, chemoattractant, pressure) live at cell centers of the
active region (interior + boundary band); the velocity is face-staggered (MAC)
with degrees of freedom only on faces strictly between interior cells, all
other faces pinned to zero (no-slip, first order at the embedded boundary).

Operators follow two conventions:

* zero-flux boundary handling is conservative: the Laplacian and the
  advection are divergences of face fluxes that carry the face aperture
  (``_flux_divergence``). They rely on every face that is not open having
  aperture zero, so faces adjacent to exterior cells transport nothing, no
  ghost value is read, and tendencies integrate to zero against the
  cut-cell volumes;
* pointwise derivatives (gradient, Hessian), and only they, use mirror ghost
  values at exterior neighbors, which realizes the homogeneous Neumann
  condition to first order near the boundary and stays second order inside.
  The stencils read the neighbours from shifted slices of the field and then
  overwrite the wall cells, the only ones with a mirror ghost, from
  ``GridGeometry.wall_mirrors``.

All operators are pure: inputs are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chemofluid.geometry import GridGeometry


@dataclass
class ScalarField:
    """Cell-centered values on the grid, zero on exterior cells."""

    geom: GridGeometry
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.geom.nx, self.geom.ny):
            raise ValueError("field shape does not match grid")

    @staticmethod
    def zeros(geom: GridGeometry) -> "ScalarField":
        return ScalarField(geom, np.zeros((geom.nx, geom.ny)))

    @staticmethod
    def full(geom: GridGeometry, value: float) -> "ScalarField":
        return ScalarField(geom, np.where(geom.active, float(value), 0.0))

    def copy(self) -> "ScalarField":
        return ScalarField(self.geom, self.data.copy())

    def max_active(self) -> float:
        return float(self.data[self.geom.active].max())

    def min_active(self) -> float:
        return float(self.data[self.geom.active].min())


@dataclass
class VectorField:
    """MAC-staggered velocity: u on x-faces (nx+1, ny), v on y-faces (nx, ny+1)."""

    geom: GridGeometry
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        g = self.geom
        if self.u.shape != (g.nx + 1, g.ny) or self.v.shape != (g.nx, g.ny + 1):
            raise ValueError("staggered component shapes do not match grid")

    @staticmethod
    def zeros(geom: GridGeometry) -> "VectorField":
        return VectorField(geom, np.zeros((geom.nx + 1, geom.ny)), np.zeros((geom.nx, geom.ny + 1)))

    @staticmethod
    def from_stream(geom: GridGeometry, psi: Callable) -> "VectorField":
        """Exactly divergence-free field from a stream function psi(x, y) at grid nodes.

        psi is zeroed at every node touching a non-interior cell, so the
        resulting field vanishes on and beyond the no-slip staircase while
        the discrete MAC divergence stays identically zero.
        """
        g = geom
        Xn, Yn = np.meshgrid(g.xn, g.yn, indexing="ij")
        pv = np.asarray(psi(Xn, Yn), dtype=float)
        if pv.shape != (g.nx + 1, g.ny + 1):
            raise ValueError("stream function must give one value per grid node")
        interior = g.interior
        pad = np.zeros((g.nx + 2, g.ny + 2), dtype=bool)
        pad[1:-1, 1:-1] = interior
        node_ok = pad[:-1, :-1] & pad[1:, :-1] & pad[:-1, 1:] & pad[1:, 1:]
        pv = np.where(node_ok, pv, 0.0)
        u = (pv[:, 1:] - pv[:, :-1]) / g.h
        v = -(pv[1:, :] - pv[:-1, :]) / g.h
        return VectorField(g, u, v)

    def copy(self) -> "VectorField":
        return VectorField(self.geom, self.u.copy(), self.v.copy())

    def max_speed(self) -> float:
        return float(max(np.abs(self.u).max(), np.abs(self.v).max()))


@dataclass
class TensorField:
    """Cell-centered symmetric 2x2 tensors (xx, xy, yy); symmetric by construction."""

    geom: GridGeometry
    xx: np.ndarray
    xy: np.ndarray
    yy: np.ndarray

    def frobenius_sq(self) -> np.ndarray:
        """|T|^2 with the off-diagonal counted twice."""
        return self.xx ** 2 + 2.0 * self.xy ** 2 + self.yy ** 2

    def trace(self) -> np.ndarray:
        return self.xx + self.yy


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------

# The combinations _mirror_stencil applies, of a cell's next, own and previous
# value along an axis, written into ``out`` when it is given.

def _difference(nxt, own, prev, out=None):
    return np.subtract(nxt, prev, out=out)


def _second_difference(nxt, own, prev, out=None):
    out = np.subtract(nxt, 2.0 * own, out=out)
    out += prev
    return out


def _mirror_stencil(d: np.ndarray, axis: int, wall, combine) -> np.ndarray:
    """combine(next, own, previous) of d along ``axis`` at every cell, with mirror ghosts.

    Read as one raster, the grid has a cell's neighbours along x ny entries
    away and along y one entry away, so shifted slices of the raster serve
    all cells at once. The cells they serve wrongly lie in the outermost
    ring, which the exterior margin keeps inactive: the raster's first and
    last ``step`` entries are left zero, and along y a cell at j = 0 or
    j = ny - 1 reads the end of the neighbouring line. The wall cells, the
    only active cells with a mirror ghost, are then overwritten from
    ``GridGeometry.wall_mirrors``.
    """
    flat = d.reshape(-1)
    step = d.shape[1] if axis == 0 else 1
    out = np.empty(flat.shape, np.result_type(flat, 1.0))
    out[:step] = out[-step:] = 0.0
    combine(flat[2 * step:], flat[step:-step], flat[:-2 * step], out=out[step:-step])
    cells, nxt, prev = wall[0], wall[1 + 2 * axis], wall[2 + 2 * axis]
    out[cells] = combine(flat[nxt], flat[cells], flat[prev])
    return out.reshape(d.shape)


def gradient_neumann(s: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Cell-centered gradient, centered differences with Neumann mirror ghosts."""
    g = s.geom
    gx, gy = (_mirror_stencil(s.data, axis, g.wall_mirrors, _difference) for axis in (0, 1))
    inactive = ~g.active
    for arr in (gx, gy):
        arr /= 2.0 * g.h
        np.copyto(arr, 0.0, where=inactive)
    return ScalarField(g, gx), ScalarField(g, gy)


def _flux_divergence(g: GridGeometry, fx: np.ndarray, fy: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Net outward flux over the wet volume of each active cell, zero elsewhere.

    ``fx`` (nx - 1, ny) and ``fy`` (nx, ny - 1) are the +x and +y fluxes
    through the faces between two cells. The outermost ring of cells, which
    the exterior margin keeps inactive, is not written. The result has the
    shape and dtype of ``like``.
    """
    net = fx[1:, 1:-1] - fx[:-1, 1:-1] + fy[1:-1, 1:] - fy[1:-1, :-1]
    out = np.zeros_like(like)
    np.divide(net, g.cell_vol[1:-1, 1:-1], out=out[1:-1, 1:-1], where=g.active[1:-1, 1:-1])
    return out


def laplacian_neumann(s: ScalarField) -> ScalarField:
    """Conservative zero-flux Laplacian: face fluxes a (s_j - s_i) over wet volumes.

    Every face that is not open has aperture a = 0, so no flux crosses the
    boundary and no mirror ghost is read. Adjoint-consistent: the result
    integrates to zero against the cell volumes exactly (fluxes telescope).
    """
    g = s.geom
    d = s.data
    fx = g.aperture_x[1:-1, :] * (d[1:, :] - d[:-1, :])
    fy = g.aperture_y[:, 1:-1] * (d[:, 1:] - d[:, :-1])
    # a zero aperture times a negative difference is -0: adding +0 keeps a
    # cell whose four fluxes vanish at +0, as for a constant field
    fx += 0.0
    fy += 0.0
    return ScalarField(g, _flux_divergence(g, fx, fy, d))


def hessian(s: ScalarField) -> TensorField:
    """Second derivatives: centered with mirror ghosts, cross term by nested
    first differences (symmetrized)."""
    g = s.geom
    wall = g.wall_mirrors
    xx, yy = (_mirror_stencil(s.data, axis, wall, _second_difference) for axis in (0, 1))
    xx /= g.h * g.h
    yy /= g.h * g.h
    gx, gy = gradient_neumann(s)
    xy = _mirror_stencil(gy.data, 0, wall, _difference)
    xy /= 2.0 * g.h
    dyx = _mirror_stencil(gx.data, 1, wall, _difference)
    dyx /= 2.0 * g.h
    xy += dyx
    xy *= 0.5
    inactive = ~g.active
    for arr in (xx, xy, yy):
        np.copyto(arr, 0.0, where=inactive)
    return TensorField(g, xx, xy, yy)


def advect_conservative(s: ScalarField, vel: VectorField) -> ScalarField:
    """Tendency -div(s w) with first-order upwind face fluxes.

    Fluxes carry the face aperture, so nothing crosses the embedded boundary
    and the tendency integrates to zero over the domain to rounding. With a
    discretely divergence-free face velocity the scheme is monotone under the
    per-cell CFL condition.
    """
    g = s.geom
    d = s.data
    h = g.h
    ux = vel.u[1:-1, :]
    fx = g.aperture_x[1:-1, :] * h * ux * np.where(ux >= 0.0, d[:-1, :], d[1:, :])
    vy = vel.v[:, 1:-1]
    fy = g.aperture_y[:, 1:-1] * h * vy * np.where(vy >= 0.0, d[:, :-1], d[:, 1:])
    out = _flux_divergence(g, fx, fy, d)
    np.negative(out, out=out, where=g.active)
    return ScalarField(g, out)


def divergence(vel: VectorField) -> ScalarField:
    """MAC divergence on interior cells (velocity dofs live between them)."""
    g = vel.geom
    div = (vel.u[1:, :] - vel.u[:-1, :] + vel.v[:, 1:] - vel.v[:, :-1]) / g.h
    div[~g.interior] = 0.0
    return ScalarField(g, div)


def chemotactic_face_velocity(c: ScalarField, chi: Callable) -> VectorField:
    """Drift velocity chi(c) * grad(c) at faces, zero through the boundary.

    The face gradient is the two-cell difference; chi is evaluated at the
    face-averaged concentration. Only open faces (GridGeometry.open_face_x/y)
    carry drift.
    """
    g = c.geom
    d = c.data
    h = g.h
    wx = np.zeros((g.nx + 1, g.ny))
    dcx = (d[1:, :] - d[:-1, :]) / h
    cbx = 0.5 * (d[1:, :] + d[:-1, :])
    wx[1:-1, :] = np.where(g.open_face_x[1:-1, :], chi(cbx) * dcx, 0.0)
    wy = np.zeros((g.nx, g.ny + 1))
    dcy = (d[:, 1:] - d[:, :-1]) / h
    cby = 0.5 * (d[:, 1:] + d[:, :-1])
    wy[:, 1:-1] = np.where(g.open_face_y[:, 1:-1], chi(cby) * dcy, 0.0)
    return VectorField(g, wx, wy)


# ---------------------------------------------------------------------------
# sampling and boundary derivatives
# ---------------------------------------------------------------------------

def normal_derivative_of_gradsq(s: ScalarField, gradsq: np.ndarray | None = None):
    """Outward normal derivative of |grad s|^2 at the boundary segments.

    q = |grad s|^2 is formed at cell centers (or taken from ``gradsq`` when
    the caller already holds it) and probed along the inward normal at
    depths d1 < d2 < d3 below each segment midpoint. Two one-sided
    differences (between probes 1-2 and 2-3) are extrapolated linearly to
    the wall, which removes the O(h) depth bias of a single difference.
    Segments without room for the deepest probe fall back to the plain
    two-probe difference; segments without room for two probes are skipped.
    The probe stencils are the geometry's (GridGeometry.boundary_probes),
    which raises ResolutionError when every segment would be skipped.

    Returns (dq_dnu, q_near, valid) arrays over segments.
    """
    if gradsq is None:
        gx, gy = gradient_neumann(s)
        gradsq = gx.data ** 2 + gy.data ** 2
    (d1, d2, d3), (p1, p2, p3), valid = s.geom.boundary_probes
    q1, q2, q3 = p1.sample(gradsq), p2.sample(gradsq), p3.sample(gradsq)
    ok3 = p3.valid
    est_a = (q1 - q2) / (d2 - d1)
    est_b = np.where(ok3, (q2 - q3) / (d3 - d2), 0.0)
    m_a = 0.5 * (d1 + d2)
    m_b = 0.5 * (d2 + d3)
    wall = est_a + (est_a - est_b) * m_a / (m_b - m_a)
    dq = np.zeros(valid.shape)
    qn = np.zeros(valid.shape)
    dq[valid] = np.where(ok3, wall, est_a)
    qn[valid] = q1
    return dq, qn, valid


# ---------------------------------------------------------------------------
# MAC norms
# ---------------------------------------------------------------------------

def mac_norm_sq(vel: VectorField) -> float:
    """||u||^2: each face value owns one cell volume h^2."""
    h2 = vel.geom.h ** 2
    return float(h2 * (np.sum(vel.u ** 2) + np.sum(vel.v ** 2)))


def mac_grad_norm_sq(vel: VectorField) -> float:
    """||grad u||^2 in the natural MAC face-difference energy norm.

    Sum over all adjacent same-component face pairs of h^2 * (du/dx)^2 etc.;
    differences across the no-slip staircase see the pinned zero values,
    which is the discrete analogue of the boundary contribution.
    """
    g = vel.geom
    u, v = vel.u, vel.v
    dudx = (u[1:, :] - u[:-1, :]) / g.h          # at cell centers
    dudy = (u[:, 1:] - u[:, :-1]) / g.h          # at interior nodes
    dvdy = (v[:, 1:] - v[:, :-1]) / g.h
    dvdx = (v[1:, :] - v[:-1, :]) / g.h
    h2 = g.h ** 2
    return float(h2 * (np.sum(dudx ** 2) + np.sum(dudy ** 2)
                       + np.sum(dvdx ** 2) + np.sum(dvdy ** 2)))


def cell_centered_velocity(vel: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """Average face velocities to cell centers (zero outside the fluid)."""
    uc = 0.5 * (vel.u[1:, :] + vel.u[:-1, :])
    vc = 0.5 * (vel.v[:, 1:] + vel.v[:, :-1])
    return uc, vc
