"""Level-set domains and embedded-boundary grid geometry.

A domain is the sublevel set {phi < 0} of a smooth function on an axis-aligned
bounding box. Cells of a uniform Cartesian grid over that box are classified
from the sign of phi at cell corners:

    interior  : all four corners strictly inside
    band      : the zero level set crosses the cell (or a corner sits on it)
    exterior  : all four corners strictly outside

Only a window of the bounding-box grid is stored: the bounding box of the
active (interior or band) cells, widened by the 2-cell exterior margin that
classification requires. Every per-cell and per-face array, and every field
on the geometry, has the window's shape (nx, ny). ``GridGeometry.origin`` is
the window's first cell in the bounding-box grid, and coordinates are those
of the bounding-box grid: cell (i, j) has centre
bbox[0] + (origin[0] + i + 0.5) h, bbox[2] + (origin[1] + j + 0.5) h. So a
cell's coordinates, volume, apertures and values do not depend on the crop.

The boundary comes from one pass over the cell faces: phi, linear along a
face, crosses zero at t = fa / (fa - fb) from the face's lower or left node.
The same crossings give each face's aperture (its wet fraction), one straight
segment per cut cell (the chord between its two crossings), and the cut
cell's wet fraction by Green's theorem, 1/2 (a_E + a_N + s (u0 v1 - u1 v0))
in units of h from its lower-left corner: the wet parts of its right and top
faces plus the cross product of the segment, run from where the boundary
leaves the wet region to where it enters it. Each segment carries a
midpoint, an outward unit normal from the level-set gradient, an arc-length
weight, and a curvature sample. Quadrature weights:

    volume  : h^2 per interior cell, the wet polygon's fraction in the band
              (floored at VOL_FRAC_FLOOR for time-stepping stability; the same
              floored volumes are used everywhere so conservation is exact)
    surface : segment length per boundary segment

The apertures serve the conservative flux operators in :mod:`chemofluid.fields`.
Only open faces, those between two active cells (``open_face_x/y``), have
nonzero aperture, which makes zero-flux boundary conditions automatic in flux form.

Geometry objects are immutable after construction. Every other fact that
depends on the grid alone (cell masks, fluid faces, the interior's graph and
components, kappa_max, the wall cells and their mirror neighbours, the
stencils below the boundary segments) is a read-only ``cached_property`` of
``GridGeometry``, computed only there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

EXTERIOR = 0
INTERIOR = 1
BAND = 2

# Linear cut-cell fractions below this are floored (explicit fluxes on
# slivers would otherwise force the global step size to collapse).
VOL_FRAC_FLOOR = 0.1

# Faces between two active cells keep at least this aperture so sliver cells
# never decouple from the diffusion operator; faces beside exterior cells
# stay at exactly zero (no flux through the boundary).
APERTURE_FLOOR = 0.1

# |grad phi| threshold near the zero level set.
GRAD_MIN = 1e-6

# Corner values closer to zero than this (times h) classify the cell as band.
TIE_EPS = 1e-12

# kappa_max safety padding over the sampled curvature magnitude.
KAPPA_PAD = 1.1

# Depths, in cells, below each segment midpoint: of the three boundary probes,
# and of the sample that gives a field's value at the segment.
PROBE_DEPTHS = (2.0, 3.5, 5.0)
SEG_SAMPLE_DEPTH = 1.5


class DomainError(ValueError):
    """Degenerate or ill-posed domain (empty interior, missing margin, ...)."""


class ResolutionError(RuntimeError):
    """Grid too coarse to resolve the boundary (ambiguous cut cells, ...)."""


class SingularGradientError(RuntimeError):
    """|grad phi| below threshold where a normal or curvature is needed."""


@dataclass(frozen=True)
class LevelSetDomain:
    """A smooth bounded domain {phi < 0} on a bounding box.

    phi must accept numpy arrays (broadcast over x, y) and be smooth with a
    nonvanishing gradient near its zero level set.
    """

    phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bbox: tuple[float, float, float, float]  # (xlo, xhi, ylo, yhi)

    @staticmethod
    def disk(radius: float = 1.0, margin: float = 0.2) -> "LevelSetDomain":
        r2 = radius * radius

        def phi(x, y):
            return x ** 2 + y ** 2 - r2

        half = radius * (1.0 + margin)
        return LevelSetDomain(phi, (-half, half, -half, half))

    @staticmethod
    def annulus(r_inner: float = 0.5, r_outer: float = 1.0, margin: float = 0.2) -> "LevelSetDomain":
        if not 0.0 < r_inner < r_outer:
            raise DomainError("annulus needs 0 < r_inner < r_outer")
        ri2, ro2 = r_inner * r_inner, r_outer * r_outer

        def phi(x, y):
            r2 = x * x + y * y
            return (r2 - ri2) * (r2 - ro2)

        half = r_outer * (1.0 + margin)
        return LevelSetDomain(phi, (-half, half, -half, half))

    @staticmethod
    def star(k: int = 3, amplitude: float = 0.4, margin: float = 0.2,
             base_radius: float = 1.0) -> "LevelSetDomain":
        """Star-shaped domain r(theta) = base_radius * (1 + amplitude*cos(k*theta)).

        The canonical smooth non-convex test domain for amplitude large
        enough; amplitude must stay below 1 so the boundary is a graph
        over theta.
        """
        if not 0.0 <= amplitude < 1.0:
            raise DomainError("star amplitude must be in [0, 1)")

        def phi(x, y):
            r = np.sqrt(x * x + y * y)
            th = np.arctan2(y, x)
            return r - base_radius * (1.0 + amplitude * np.cos(k * th))

        half = base_radius * (1.0 + amplitude) * (1.0 + margin)
        return LevelSetDomain(phi, (-half, half, -half, half))

    @staticmethod
    def from_sampled(values: np.ndarray, bbox) -> "LevelSetDomain":
        """Domain from phi sampled on a regular node grid covering bbox.

        values[i, j] is phi at (xlo + i*dx, ylo + j*dy) with dx = (xhi-xlo)/(nx-1).
        Evaluation is bilinear; queries outside bbox clamp to the edge.
        """
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 2 or vals.shape[0] < 2 or vals.shape[1] < 2:
            raise DomainError("sampled phi must be a 2D array with at least 2x2 nodes")
        xlo, xhi, ylo, yhi = (float(v) for v in bbox)
        nx, ny = vals.shape
        dx = (xhi - xlo) / (nx - 1)
        dy = (yhi - ylo) / (ny - 1)

        def phi(x, y):
            fx = np.clip((np.asarray(x, dtype=float) - xlo) / dx, 0.0, nx - 1 - 1e-12)
            fy = np.clip((np.asarray(y, dtype=float) - ylo) / dy, 0.0, ny - 1 - 1e-12)
            i0 = fx.astype(int)
            j0 = fy.astype(int)
            return _bilinear(vals[i0, j0], vals[i0 + 1, j0], vals[i0, j0 + 1],
                             vals[i0 + 1, j0 + 1], fx - i0, fy - j0)

        return LevelSetDomain(phi, (xlo, xhi, ylo, yhi))


def _bilinear(v00, v10, v01, v11, tx, ty):
    """The bilinear blend of the corner values v00, v10, v01, v11 at (tx, ty) in the unit square."""
    return (v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty)
            + v01 * (1 - tx) * ty + v11 * tx * ty)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _face_mask(cells: np.ndarray, axis: int) -> np.ndarray:
    """Faces normal to ``axis`` with both neighbour cells in ``cells``; edge faces are False."""
    pair = cells[:-1, :] & cells[1:, :] if axis == 0 else cells[:, :-1] & cells[:, 1:]
    return _read_only(np.pad(pair, [(1 - axis,) * 2, (axis,) * 2]))


def neighbour_graph(mask: np.ndarray, wx=1.0, wy=1.0):
    """Number the entries of ``mask``; their neighbour graph as (n, COO matrix).

    The entries are numbered in raster order, as ``data[mask]`` reads them.
    Each pair of x-neighbours, then each pair of y-neighbours, enters in both
    orders, weighted by ``wx`` or ``wy``: a scalar, or one value per pair
    (arrays shaped like mask[1:, :] and mask[:, 1:]). The operators of
    ``solver.LinearSystems`` and ``GridGeometry.interior_graph`` are built on
    it, so they number the same cells the same way.
    """
    idx = -np.ones(mask.shape, dtype=int)
    n = int(mask.sum())
    idx[mask] = np.arange(n)
    mx = mask[:-1, :] & mask[1:, :]
    my = mask[:, :-1] & mask[:, 1:]
    lo_x, hi_x = idx[:-1, :][mx], idx[1:, :][mx]
    lo_y, hi_y = idx[:, :-1][my], idx[:, 1:][my]
    w_x = np.broadcast_to(wx, mx.shape)[mx]
    w_y = np.broadcast_to(wy, my.shape)[my]
    rows = np.concatenate([lo_x, hi_x, lo_y, hi_y])
    cols = np.concatenate([hi_x, lo_x, hi_y, lo_y])
    vals = np.concatenate([w_x, w_x, w_y, w_y])
    return n, coo_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass(frozen=True)
class BilinearStencil:
    """Bilinear interpolation stencils at sample points.

    corners holds the flat indices of cells (i0, j0), (i0+1, j0), (i0, j0+1)
    and (i0+1, j0+1); a sample is valid only when all four cells are active.
    The arrays are read-only.
    """

    corners: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    tx: np.ndarray
    ty: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        for arr in (*self.corners, self.tx, self.ty, self.valid):
            arr.setflags(write=False)

    def sample(self, data: np.ndarray) -> np.ndarray:
        """Interpolated values of cell-centered data (nx, ny) at the points."""
        return _bilinear(*(data.take(k) for k in self.corners), self.tx, self.ty)


@dataclass(frozen=True)
class GridGeometry:
    """Classified uniform grid plus extracted boundary data. Immutable.

    The arrays cover the stored window, nx by ny cells starting at cell
    ``origin`` of the grid over ``bbox`` (the domain's bounding box, of
    ``bbox_shape`` cells); ``window`` is that slice of the bounding-box
    grid and ``window_box`` the box it covers. Cell indices, ``seg_cell``
    and the flat indices of the stencils count within the window.
    """

    domain: LevelSetDomain
    h: float
    nx: int
    ny: int
    cell_class: np.ndarray          # (nx, ny) int8, EXTERIOR/INTERIOR/BAND
    cell_vol: np.ndarray            # (nx, ny) floored volume, 0 on exterior
    aperture_x: np.ndarray          # (nx+1, ny) wet fraction of x-faces
    aperture_y: np.ndarray          # (nx, ny+1) wet fraction of y-faces
    open_face_x: np.ndarray         # (nx+1, ny) x-faces between two active cells
    open_face_y: np.ndarray         # (nx, ny+1) y-faces between two active cells
    seg_mid: np.ndarray             # (nseg, 2) segment midpoints
    seg_normal: np.ndarray          # (nseg, 2) outward unit normals
    seg_weight: np.ndarray          # (nseg,) arc-length weights
    seg_curvature: np.ndarray       # (nseg,) level-set curvature samples
    seg_cell: np.ndarray            # (nseg, 2) host cell indices
    origin: tuple[int, int]         # first stored cell in the bounding-box grid

    # ---- derived masks and coordinates -------------------------------

    @property
    def bbox(self) -> tuple[float, float, float, float]:   # (xlo, xhi, ylo, yhi)
        return self.domain.bbox

    @cached_property
    def interior(self) -> np.ndarray:
        return _read_only(self.cell_class == INTERIOR)

    @cached_property
    def band(self) -> np.ndarray:
        return _read_only(self.cell_class == BAND)

    @cached_property
    def active(self) -> np.ndarray:
        return _read_only(self.cell_class != EXTERIOR)

    @property
    def xc(self) -> np.ndarray:
        return self.bbox[0] + (self.origin[0] + np.arange(self.nx) + 0.5) * self.h

    @property
    def yc(self) -> np.ndarray:
        return self.bbox[2] + (self.origin[1] + np.arange(self.ny) + 0.5) * self.h

    @property
    def xn(self) -> np.ndarray:
        return self.bbox[0] + (self.origin[0] + np.arange(self.nx + 1)) * self.h

    @property
    def yn(self) -> np.ndarray:
        return self.bbox[2] + (self.origin[1] + np.arange(self.ny + 1)) * self.h

    @property
    def bbox_shape(self) -> tuple[int, int]:
        """Cells of the whole bounding-box grid, of which the stored arrays are a window."""
        xlo, xhi, ylo, yhi = self.bbox
        return int(round((xhi - xlo) / self.h)), int(round((yhi - ylo) / self.h))

    @property
    def window(self) -> tuple[slice, slice]:
        """The stored cells as a slice of the bounding-box grid."""
        (ox, oy), nx, ny = self.origin, self.nx, self.ny
        return slice(ox, ox + nx), slice(oy, oy + ny)

    @property
    def window_box(self) -> tuple[float, float, float, float]:
        """(xlo, xhi, ylo, yhi) of the stored cells: their outermost nodes."""
        xn, yn = self.xn, self.yn
        return float(xn[0]), float(xn[-1]), float(yn[0]), float(yn[-1])

    def cell_centers(self):
        """Meshgrid of cell-center coordinates, shape (nx, ny) each."""
        return np.meshgrid(self.xc, self.yc, indexing="ij")

    @property
    def area(self) -> float:
        return float(self.cell_vol.sum())

    @property
    def perimeter(self) -> float:
        return float(self.seg_weight.sum())

    @cached_property
    def diameter(self) -> float:
        """Diagonal of the bounding box of the segment midpoints."""
        dx = self.seg_mid[:, 0].max() - self.seg_mid[:, 0].min()
        dy = self.seg_mid[:, 1].max() - self.seg_mid[:, 1].min()
        return float(np.hypot(dx, dy))

    @cached_property
    def kappa_max(self) -> float:
        return curvature_bound(self)

    @cached_property
    def is_convex(self) -> bool:
        """All curvature samples nonnegative (up to discretization noise)."""
        tol = 1e-6 + 0.02 * float(np.max(np.abs(self.seg_curvature), initial=0.0))
        return bool(np.all(self.seg_curvature >= -tol))

    @cached_property
    def fluid_face_x(self) -> np.ndarray:
        """x-faces whose both neighbor cells are interior (velocity dofs)."""
        return _face_mask(self.interior, 0)

    @cached_property
    def fluid_face_y(self) -> np.ndarray:
        return _face_mask(self.interior, 1)

    @cached_property
    def interior_graph(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(n, indptr, indices): the CSR structure of ``neighbour_graph(interior)``.

        One edge per fluid face, each of weight 1, so the structure is all
        that is kept; ``interior_adjacency`` rebuilds the matrix from it.
        ``components`` labels the graph and the pressure operator is its
        Laplacian.
        """
        n, adj = neighbour_graph(self.interior)
        adj = adj.tocsr()
        return n, _read_only(adj.indptr), _read_only(adj.indices)

    def interior_adjacency(self) -> csr_matrix:
        """The unit-weight adjacency matrix of ``interior_graph``, new on every call."""
        n, indptr, indices = self.interior_graph
        return csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """Connected parts of the interior (4-connectivity): cell positions in data[interior].

        Labelled on ``interior_graph``, whose nodes are the interior cells in
        raster order; each part is numbered after the parts of lower nodes, so
        the parts come in the raster order of their first cell.
        """
        ncomp, labels = connected_components(self.interior_adjacency(), directed=False)
        return tuple(_read_only(np.nonzero(labels == k)[0]) for k in range(ncomp))

    @property
    def n_components(self) -> int:
        return len(self.components)

    @cached_property
    def stencil_ok(self) -> np.ndarray:
        """Cells whose full 3x3 neighborhood is active.

        Quadratures of squared second derivatives are restricted to these
        cells: cut cells carry grid-scale solution roughness that squared
        difference stencils amplify to O(1/h), while dropping the collar is
        a first-order quadrature error consistent with the scheme.
        """
        act = self.active
        ok = act.copy()
        ok[1:, :] &= act[:-1, :]
        ok[:-1, :] &= act[1:, :]
        ok[:, 1:] &= act[:, :-1]
        ok[:, :-1] &= act[:, 1:]
        ok[1:, 1:] &= act[:-1, :-1]
        ok[:-1, :-1] &= act[1:, 1:]
        ok[1:, :-1] &= act[:-1, 1:]
        ok[:-1, 1:] &= act[1:, :-1]
        return _read_only(ok)

    @cached_property
    def wall_mirrors(self) -> tuple[np.ndarray, ...]:
        """(cells, E, W, N, S): flat indices of the wall cells and of their mirror neighbours.

        A wall cell is an active cell with a neighbour that is not active. Its
        mirror neighbour in a direction is that neighbour where it is active
        and the cell itself otherwise: the mirror ghost that realizes the
        homogeneous Neumann condition. Off-grid neighbours count as inactive.
        Every other active cell has four active neighbours, so the gradient
        and Hessian stencils of :mod:`chemofluid.fields` read them from
        shifted slices and overwrite only the wall cells.
        """
        act = self.active
        pad = np.pad(act, 1)
        # whether each cell's east, west, north and south neighbour is active
        has = (pad[2:, 1:-1], pad[:-2, 1:-1], pad[1:-1, 2:], pad[1:-1, :-2])
        i, j = np.nonzero(act & ~np.logical_and.reduce(has))
        cells = i * self.ny + j
        mirrors = (np.where(ok[i, j], cells + step, cells)
                   for ok, step in zip(has, (self.ny, -self.ny, 1, -1)))
        return tuple(_read_only(a) for a in (cells, *mirrors))

    def bilinear_stencil(self, x, y) -> BilinearStencil:
        """Four-cell interpolation stencils of cell-centered data at points (x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        # positions measured from the window's first node, so the weights do not
        # depend on the bounding box the window sits in
        fx = (x - self.xn[0]) / self.h - 0.5
        fy = (y - self.yn[0]) / self.h - 0.5
        i0 = np.clip(np.floor(fx).astype(int), 0, self.nx - 2)
        j0 = np.clip(np.floor(fy).astype(int), 0, self.ny - 2)
        tx = fx - i0
        ty = fy - j0
        inside = (tx >= -1e-12) & (tx <= 1.0 + 1e-12) & (ty >= -1e-12) & (ty <= 1.0 + 1e-12)
        act = self.active
        valid = inside & act[i0, j0] & act[i0 + 1, j0] & act[i0, j0 + 1] & act[i0 + 1, j0 + 1]
        k00 = i0 * self.ny + j0
        return BilinearStencil((k00, k00 + self.ny, k00 + 1, k00 + self.ny + 1), tx, ty, valid)

    def _stencil_below(self, depth: float, segs=slice(None)) -> BilinearStencil:
        """Stencils at ``depth`` along the inward normal below the midpoints of ``segs``."""
        return self.bilinear_stencil(self.seg_mid[segs, 0] - depth * self.seg_normal[segs, 0],
                                     self.seg_mid[segs, 1] - depth * self.seg_normal[segs, 1])

    @cached_property
    def seg_sample(self) -> BilinearStencil:
        """Stencils SEG_SAMPLE_DEPTH * h below every segment midpoint."""
        return self._stencil_below(SEG_SAMPLE_DEPTH * self.h)

    @cached_property
    def boundary_probes(self):
        """Probe stencils along the inward normal of every boundary segment.

        Probe k of a segment sits PROBE_DEPTHS[k] * h below its midpoint, and
        the segment is resolved when its two shallower probes have full
        stencils. Holds (depths, stencils, valid): the three probe depths,
        their three BilinearStencils at the resolved segments, and valid
        marking those segments. Which probes are valid depends on the
        geometry alone, so a grid where no segment resolves raises
        ResolutionError here, before any field is probed.
        """
        ds = tuple(d * self.h for d in PROBE_DEPTHS)
        valid = self._stencil_below(ds[0]).valid & self._stencil_below(ds[1]).valid
        if not valid.any():
            raise ResolutionError("no boundary segment has room for two probes; refine the grid")
        return ds, tuple(self._stencil_below(d, valid) for d in ds), _read_only(valid)


def _phi_derivatives(domain: LevelSetDomain, x, y, step: float):
    """Centered first and second differences of phi at points (x, y)."""
    p = domain.phi
    d = step
    fxp = p(x + d, y)
    fxm = p(x - d, y)
    fyp = p(x, y + d)
    fym = p(x, y - d)
    f0 = p(x, y)
    gx = (fxp - fxm) / (2 * d)
    gy = (fyp - fym) / (2 * d)
    gxx = (fxp - 2 * f0 + fxm) / (d * d)
    gyy = (fyp - 2 * f0 + fym) / (d * d)
    gxy = (p(x + d, y + d) - p(x + d, y - d) - p(x - d, y + d) + p(x - d, y - d)) / (4 * d * d)
    return gx, gy, gxx, gyy, gxy


def _normals_and_curvatures(domain: LevelSetDomain, x, y, step: float):
    """Unit normals grad phi / |grad phi| and curvatures div(grad phi / |grad phi|)
    at the points of the 1-D arrays x, y, by differences of phi at spacing step."""
    gx, gy, gxx, gyy, gxy = _phi_derivatives(domain, x, y, step)
    gnorm = np.hypot(gx, gy)
    if np.any(gnorm < GRAD_MIN):
        k = int(np.argmin(gnorm))
        raise SingularGradientError(
            f"|grad phi| = {gnorm[k]:.3e} at boundary point ({float(x[k])}, {float(y[k])})")
    curvature = (gxx * gy * gy - 2.0 * gxy * gx * gy + gyy * gx * gx) / gnorm ** 3
    return np.stack([gx / gnorm, gy / gnorm], axis=1), curvature


def boundary_curvature(domain: LevelSetDomain, point, step: float | None = None) -> float:
    """Signed curvature div(grad phi / |grad phi|) at a point near the boundary.

    Positive where the domain is locally convex: a disk of radius R gives
    1/R on its boundary with phi negative inside.
    """
    if step is None:
        xlo, xhi, ylo, yhi = domain.bbox
        step = 1e-3 * max(xhi - xlo, yhi - ylo)
    x, y = (np.array([point[k]], dtype=float) for k in (0, 1))
    _, curvature = _normals_and_curvatures(domain, x, y, step)
    return float(curvature[0])


def _face_crossings(fa, fb):
    """(cross, t, wet) of faces with phi = fa at the lower or left node, fb at the
    other: whether phi changes sign, where (t from fa's node, 0 where it does not)
    and the raw wet fraction."""
    inside = fa < 0
    cross = inside != (fb < 0)
    t = np.divide(fa, fa - fb, out=np.zeros_like(fa), where=cross)
    wet = np.where(cross, np.where(inside, t, 1.0 - t), inside.astype(float))
    return cross, t, wet


def classify_cells(domain: LevelSetDomain, h: float) -> GridGeometry:
    """Build the embedded-boundary grid geometry at spacing h.

    The cells are classified on the grid of the whole bounding box; the
    result stores only the window of the active cells plus the 2-cell
    exterior margin. There one pass finds every face's zero crossing. A band
    cell's edges, counterclockwise from corner (i, j), cross twice (its
    segment, p0 the first crossing, and its wet fraction) or not at all (a
    tie: the sign of phi at its centre makes it wet or dry).

    Raises DomainError for a bounding box that does not tile into square
    cells of side about h, empty interiors or missing bounding-box margin
    (at least 2 exterior cells on every side), ResolutionError when a cut
    cell carries more than two edge crossings, and SingularGradientError
    when |grad phi| degenerates on the boundary band.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    xlo, xhi, ylo, yhi = domain.bbox
    w, ht = xhi - xlo, yhi - ylo
    nx = int(round(w / h))
    ny = int(round(ht / h))
    if nx < 16 or ny < 16:
        raise ResolutionError(f"need at least 16 cells per side, got {nx} x {ny}")
    hx, hy = w / nx, ht / ny
    if abs(hx - hy) > 1e-12 * max(hx, hy):
        raise DomainError(f"bounding box {domain.bbox} does not tile into square cells "
                          f"of side {h:.6g}: {w / h:.6g} x {ht / h:.6g} cells")
    h = hx

    xn = xlo + np.arange(nx + 1) * h
    yn = ylo + np.arange(ny + 1) * h
    Xn, Yn = np.meshgrid(xn, yn, indexing="ij")
    node_phi = np.asarray(domain.phi(Xn, Yn), dtype=float)

    neg = node_phi < 0.0
    tie = np.abs(node_phi) < TIE_EPS * h
    in00, in10, in01, in11 = neg[:-1, :-1], neg[1:, :-1], neg[:-1, 1:], neg[1:, 1:]
    all_in = in00 & in10 & in01 & in11
    all_out = ~(in00 | in10 | in01 | in11)
    cut = ~(all_in | all_out)
    tie_cell = tie[:-1, :-1] | tie[1:, :-1] | tie[:-1, 1:] | tie[1:, 1:]

    cell_class = np.full((nx, ny), EXTERIOR, dtype=np.int8)
    cell_class[all_in] = INTERIOR
    cell_class[cut | tie_cell] = BAND

    if not (cell_class == INTERIOR).any():
        raise DomainError("domain has no interior cells at this resolution")

    ii, jj = np.nonzero(cell_class != EXTERIOR)
    if ii.min() < 2 or jj.min() < 2 or ii.max() > nx - 3 or jj.max() > ny - 3:
        raise DomainError("interior must keep at least a 2-cell exterior margin inside the bounding box")

    # Keep only the window: the active cells' bounding box plus the 2-cell margin.
    ox, oy = int(ii.min()) - 2, int(jj.min()) - 2
    ex, ey = int(ii.max()) + 3, int(jj.max()) + 3
    cell_class = cell_class[ox:ex, oy:ey].copy()
    node_phi = node_phi[ox:ex + 1, oy:ey + 1]
    xn, yn = xn[ox:ex + 1], yn[oy:ey + 1]
    nx, ny = cell_class.shape
    active = cell_class != EXTERIOR

    # One crossing pass over every face gives the apertures and the segments.
    cross_x, t_x, wet_x = _face_crossings(node_phi[:, :-1], node_phi[:, 1:])   # (nx+1, ny)
    cross_y, t_y, wet_y = _face_crossings(node_phi[:-1, :], node_phi[1:, :])   # (nx, ny+1)
    open_x, open_y = _face_mask(active, 0), _face_mask(active, 1)
    aperture_x = np.where(open_x, np.maximum(wet_x, APERTURE_FLOOR), wet_x)
    aperture_y = np.where(open_y, np.maximum(wet_y, APERTURE_FLOOR), wet_y)

    # Each band cell's edges counterclockwise from corner (i, j): bottom,
    # right, top, left. A crossing at t is the point (u, v) in units of h
    # from that corner.
    band = cell_class == BAND
    bi, bj = np.nonzero(band)
    edges = ((cross_y, t_y, bi, bj), (cross_x, t_x, bi + 1, bj),
             (cross_y, t_y, bi, bj + 1), (cross_x, t_x, bi, bj))
    cross = np.stack([c[i, j] for c, _, i, j in edges], axis=1)
    t = np.stack([tt[i, j] for _, tt, i, j in edges], axis=1)
    along_x = np.array([True, False, True, False])
    u = np.where(along_x, t, (0.0, 1.0, 1.0, 0.0))
    v = np.where(along_x, (0.0, 0.0, 1.0, 1.0), t)
    count = cross.sum(axis=1)
    if (count > 2).any():
        k = int(np.argmax(count > 2))
        raise ResolutionError(
            f"cell ({bi[k]}, {bj[k]}) has {count[k]} boundary crossings; refine the grid")

    vol_frac = (cell_class == INTERIOR).astype(float)
    # A band cell without crossings is band by tie-break only: its centre's sign decides.
    ti, tj = bi[count == 0], bj[count == 0]
    vol_frac[ti, tj] = domain.phi(xlo + (ox + ti + 0.5) * h, ylo + (oy + tj + 0.5) * h) < 0.0

    seg = count == 2
    if not seg.any():
        raise DomainError("no boundary segments were extracted; domain degenerate")
    ci, cj = bi[seg], bj[seg]
    seg_cell = np.stack([ci, cj], axis=1)
    # p0 and p1: the first and the second crossed edge in counterclockwise order
    edge = np.argsort(~cross[seg], axis=1, kind="stable")[:, :2]
    u0, u1 = np.take_along_axis(u[seg], edge, axis=1).T
    v0, v1 = np.take_along_axis(v[seg], edge, axis=1).T
    seg_mid = np.stack([xn[ci] + 0.5 * (u0 + u1) * h, yn[cj] + 0.5 * (v0 + v1) * h], axis=1)
    seg_weight = np.hypot(u1 - u0, v1 - v0) * h
    # Green's theorem: the wet parts of the right and top faces, plus the segment
    # run from exit to entry of the wet region, p0 -> p1 when corner (i, j) is wet.
    s = np.where(node_phi[ci, cj] < 0.0, 1.0, -1.0)
    vol_frac[ci, cj] = 0.5 * (wet_x[ci + 1, cj] + wet_y[ci, cj + 1] + s * (u0 * v1 - u1 * v0))

    seg_normal, seg_curvature = _normals_and_curvatures(
        domain, seg_mid[:, 0], seg_mid[:, 1], 0.5 * h)

    cell_vol = np.where(band, np.maximum(vol_frac, VOL_FRAC_FLOOR), vol_frac) * (h * h)

    for arr in (cell_class, cell_vol, aperture_x, aperture_y,
                seg_mid, seg_normal, seg_weight, seg_curvature, seg_cell):
        arr.setflags(write=False)
    return GridGeometry(
        domain=domain, h=h, nx=nx, ny=ny, cell_class=cell_class, cell_vol=cell_vol,
        aperture_x=aperture_x, aperture_y=aperture_y, open_face_x=open_x, open_face_y=open_y,
        seg_mid=seg_mid, seg_normal=seg_normal, seg_weight=seg_weight,
        seg_curvature=seg_curvature, seg_cell=seg_cell, origin=(ox, oy),
    )


def curvature_bound(geom: GridGeometry) -> float:
    """Curvature bound kappa_max for the boundary-gradient inequality.

    The inequality d|grad w|^2/dnu <= 2*kappa*|grad w|^2 for Neumann fields w
    needs kappa to dominate the boundary curvature magnitude wherever the
    domain is non-convex, so the bound is taken over |curvature| and padded
    by 10%. Strictly positive: floored at 1/diameter when every sample
    vanishes.
    """
    kmax = float(np.max(np.abs(geom.seg_curvature), initial=0.0)) * KAPPA_PAD
    if kmax <= 0.0:
        kmax = 1.0 / geom.diameter
    return kmax


def volume_integral(values, geom: GridGeometry) -> float:
    """Integral over the domain: sum of cell values times wet cell volumes."""
    data = values.data if hasattr(values, "data") else np.asarray(values)
    if data.shape != (geom.nx, geom.ny):
        raise ValueError(f"field shape {data.shape} does not match grid ({geom.nx}, {geom.ny})")
    return float(np.sum(data * geom.cell_vol))


def surface_integral(boundary_values, geom: GridGeometry) -> float:
    """Boundary integral: sum of per-segment values times arc-length weights."""
    vals = np.asarray(boundary_values, dtype=float)
    if vals.shape != geom.seg_weight.shape:
        raise ValueError(f"{vals.shape[0] if vals.ndim else 0} values for "
                         f"{geom.seg_weight.shape[0]} boundary segments")
    return float(np.sum(vals * geom.seg_weight))
