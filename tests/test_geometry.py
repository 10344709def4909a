from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import ndimage
from scipy.integrate import quad
from scipy.sparse.csgraph import connected_components

from chemofluid.geometry import (
    BAND,
    EXTERIOR,
    INTERIOR,
    VOL_FRAC_FLOOR,
    BilinearStencil,
    DomainError,
    GridGeometry,
    LevelSetDomain,
    ResolutionError,
    boundary_curvature,
    classify_cells,
    curvature_bound,
    neighbour_graph,
    surface_integral,
    volume_integral,
)
from chemofluid.config import RunConfig, parse_config_text
from chemofluid.diagnostics import random_neumann_field
from chemofluid.solver import LinearSystems, _laplacian

from conftest import write_grid


def star_radius(theta, k=3, a=0.4):
    return 1.0 + a * np.cos(k * theta)


def star_arclength(k=3, a=0.4):
    def integrand(t):
        r = star_radius(t, k, a)
        rp = -a * k * np.sin(k * t)
        return np.sqrt(r * r + rp * rp)
    val, _ = quad(integrand, 0.0, 2 * np.pi, limit=200)
    return val


def star_curvature(theta, k=3, a=0.4):
    r = star_radius(theta, k, a)
    rp = -a * k * np.sin(k * theta)
    rpp = -a * k * k * np.cos(k * theta)
    return (r * r + 2 * rp * rp - r * rpp) / (r * r + rp * rp) ** 1.5


class TestClassification:
    def test_every_cell_has_one_class(self, disk64):
        assert set(np.unique(disk64.cell_class)) <= {EXTERIOR, INTERIOR, BAND}

    def test_disk_interior_count_matches_area(self, disk64):
        count = int((disk64.cell_class == INTERIOR).sum())
        assert abs(count * disk64.h ** 2 - np.pi) / np.pi < 0.02

    def test_margin_violation_rejected(self):
        dom = LevelSetDomain.disk(1.0, margin=0.02)
        with pytest.raises(DomainError):
            classify_cells(dom, 1.0 / 64.0)

    def test_too_coarse_rejected(self, disk_domain):
        with pytest.raises(ResolutionError):
            classify_cells(disk_domain, 0.5)

    def test_thin_gap_underresolved(self):
        # both circles of a thin annulus cross single cells at this h
        dom = LevelSetDomain.annulus(0.93, 1.0)
        with pytest.raises((ResolutionError, DomainError)):
            classify_cells(dom, 1.0 / 16.0)

    def test_saddle_cell_underresolved(self):
        # two touching disks: the cell at their contact point sees four crossings
        a = 0.35

        def phi(x, y):
            return np.minimum((x - a) ** 2 + (y - a) ** 2, (x + a) ** 2 + (y + a) ** 2) - 2 * a * a

        with pytest.raises(ResolutionError, match=r"cell \(14, 18\) has 4 boundary crossings"):
            classify_cells(LevelSetDomain(phi, (-1.2, 1.2, -1.2, 1.2)), 2.4 / 41)

    def test_star_classifies_and_measures_perimeter(self, star64):
        exact = star_arclength()
        assert abs(star64.perimeter - exact) / exact < 0.02

    def test_empty_interior_rejected(self):
        dom = LevelSetDomain(lambda x, y: np.ones_like(x), (-1, 1, -1, 1))
        with pytest.raises(DomainError):
            classify_cells(dom, 1.0 / 32.0)

    def test_degenerate_gradient_rejected(self):
        from chemofluid.geometry import SingularGradientError
        dom = LevelSetDomain(lambda x, y: 1e-8 * (x * x + y * y - 1.0), (-1.2, 1.2, -1.2, 1.2))
        with pytest.raises(SingularGradientError):
            classify_cells(dom, 1.0 / 64.0)


class TestCurvature:
    def test_unit_disk(self, disk_domain):
        k = boundary_curvature(disk_domain, (1.0, 0.0), step=1.0 / 128)
        assert k == pytest.approx(1.0, abs=0.02)

    def test_radius_two_disk(self):
        dom = LevelSetDomain.disk(2.0)
        k = boundary_curvature(dom, (0.0, 2.0), step=1.0 / 128)
        assert k == pytest.approx(0.5, abs=0.01)

    def test_star_dimple_negative(self, star_domain):
        th = np.pi / 3
        r = star_radius(th)
        k = boundary_curvature(star_domain, (r * np.cos(th), r * np.sin(th)), step=1.0 / 256)
        assert k < 0.0
        assert k == pytest.approx(star_curvature(th), rel=0.02)

    def test_kappa_max_disk(self, disk64):
        assert curvature_bound(disk64) == pytest.approx(1.1, rel=0.01)

    def test_kappa_max_annulus_sees_inner_circle(self):
        geom = classify_cells(LevelSetDomain.annulus(0.5, 1.0), 1.0 / 64.0)
        assert geom.kappa_max == pytest.approx(2.2, rel=0.02)

    def test_kappa_max_positive(self, disk64, star64):
        for geom in (disk64, star64):
            assert geom.kappa_max > 0.0

    def test_convexity_flags(self, disk64, star64):
        assert disk64.is_convex
        assert np.all(disk64.seg_curvature > 0.0)
        assert not star64.is_convex
        assert star64.seg_curvature.min() < 0.0


CACHED = [name for name, attr in vars(GridGeometry).items() if isinstance(attr, cached_property)]


def arrays_in(value):
    """The arrays held by a cached value, through tuples, stencils and sparse matrices."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, BilinearStencil):
        value = (*value.corners, value.tx, value.ty, value.valid)
    if sp.issparse(value):
        value = (value.data, value.indices, value.indptr)
    if isinstance(value, tuple):
        return [arr for v in value for arr in arrays_in(v)]
    return []


@pytest.mark.parametrize("geom_name", ["disk64", "star64", "annulus48", "two_disks", "stacked"])
class TestGridCache:
    def test_cached_once_and_read_only(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        assert {"active", "interior_graph", "components", "kappa_max", "seg_sample",
                "boundary_probes"} <= set(CACHED)
        for name in CACHED:
            value = getattr(g, name)
            assert getattr(g, name) is value, name
            for arr in arrays_in(value):
                assert not arr.flags.writeable, name
        assert not g.open_face_x.flags.writeable and not g.open_face_y.flags.writeable

    def test_open_faces_are_positive_apertures(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        assert np.array_equal(g.open_face_x, g.aperture_x > 0.0)
        assert np.array_equal(g.open_face_y, g.aperture_y > 0.0)

    def test_components_match_a_fresh_labelling(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        labels, ncomp = ndimage.label(g.interior)
        assert g.n_components == len(g.components) == ncomp
        for k, cells in enumerate(g.components, start=1):
            assert np.array_equal(cells, np.nonzero(labels[g.interior] == k)[0])

    def test_components_label_the_pressure_graph(self, geom_name, request):
        # one edge per fluid face, in both orders, and none between two parts
        g = request.getfixturevalue(geom_name)
        n, adj = neighbour_graph(g.interior)
        assert n == int(g.interior.sum())
        assert adj.nnz == 2 * int(g.fluid_face_x.sum() + g.fluid_face_y.sum())
        assert abs(adj - adj.T).max() == 0
        label = np.empty(n, dtype=int)
        for k, cells in enumerate(g.components):
            label[cells] = k
        assert np.array_equal(label[adj.row], label[adj.col])

    def test_segment_sample_is_bilinear_sample(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        data = np.random.default_rng(29).standard_normal((g.nx, g.ny))
        px = g.seg_mid[:, 0] - 1.5 * g.h * g.seg_normal[:, 0]
        py = g.seg_mid[:, 1] - 1.5 * g.h * g.seg_normal[:, 1]
        stencil = g.bilinear_stencil(px, py)
        vals, ok = stencil.sample(data), stencil.valid
        assert np.array_equal(g.seg_sample.sample(data), vals)
        assert np.array_equal(g.seg_sample.valid, ok)


class TestOneInteriorGraph:
    def test_a_set_up_assembles_the_interior_graph_once(self, monkeypatch):
        from chemofluid import geometry, solver
        masks = []

        def counted(mask, *args, **kwargs):
            masks.append(mask)
            return neighbour_graph(mask, *args, **kwargs)

        monkeypatch.setattr(geometry, "neighbour_graph", counted)
        monkeypatch.setattr(solver, "neighbour_graph", counted)
        g = classify_cells(LevelSetDomain.star(3, 0.4), 1.0 / 32.0)
        LinearSystems(g)
        assert len(g.components) == 1
        on_interior = [m for m in masks if m.shape == g.interior.shape
                       and np.array_equal(m, g.interior)]
        assert len(on_interior) == 1
        # the other three: the active cells and the two sets of fluid faces
        assert len(masks) == 4

    @pytest.mark.parametrize("geom_name", ["disk64", "star64", "annulus48", "two_disks", "stacked"])
    def test_graph_components_and_pressure_operator_agree(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        n, adj = neighbour_graph(g.interior)
        csr = adj.tocsr()
        n_graph, indptr, indices = g.interior_graph
        assert n_graph == n
        assert np.array_equal(indptr, csr.indptr) and np.array_equal(indices, csr.indices)
        assert g.interior_adjacency().format == "csr"
        assert (g.interior_adjacency() != csr).nnz == 0
        ncomp, labels = connected_components(adj, directed=False)
        assert len(g.components) == ncomp
        for k, cells in enumerate(g.components):
            assert np.array_equal(cells, np.nonzero(labels == k)[0])
        # the pressure operator is the Laplacian of the graph, to the bit
        lin = LinearSystems(g)
        fresh = _laplacian(adj)
        assert lin.n_pressure == n
        for name in ("data", "indices", "indptr"):
            a, b = getattr(lin.L_pressure, name), getattr(fresh, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert np.array_equal(lin.pressure_pins, [cells[0] for cells in g.components])


def exact_wet_fraction(f):
    """Exact area of {phi < 0} in the unit cell, phi linear along its edges.

    f holds phi at the corners (0, 0), (1, 0), (1, 1), (0, 1); the wet
    polygon is the wet corners and the edge crossings in that order, and
    its area is a shoelace sum over rationals.
    """
    corners = ((0, 0), (1, 0), (1, 1), (0, 1))
    f = [Fraction(float(v)) for v in f]
    poly = []
    for k in range(4):
        (xa, ya), (xb, yb) = corners[k], corners[(k + 1) % 4]
        fa, fb = f[k], f[(k + 1) % 4]
        if fa < 0:
            poly.append((xa, ya))
        if (fa < 0) != (fb < 0):
            t = fa / (fa - fb)
            poly.append((xa + t * (xb - xa), ya + t * (yb - ya)))
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(poly, poly[1:] + poly[:1]))) / 2


class TestCutCellVolumes:
    @pytest.mark.parametrize("domain, n", [(LevelSetDomain.disk(), 256),
                                           (LevelSetDomain.star(3, 0.4), 512)],
                             ids=["disk256", "star512"])
    def test_fractions_are_the_exact_polygon_areas(self, domain, n, monkeypatch):
        g = classify_cells(domain, (domain.bbox[1] - domain.bbox[0]) / n)
        # without the floor a cut cell's volume is its raw wet fraction times h^2
        from chemofluid import geometry
        monkeypatch.setattr(geometry, "VOL_FRAC_FLOOR", 0.0)
        raw = classify_cells(domain, (domain.bbox[1] - domain.bbox[0]) / n)
        # phi at the nodes as classify_cells samples it: on the whole box, then the window
        (ox, oy), (fx, fy), h = g.origin, g.bbox_shape, g.h
        X, Y = np.meshgrid(g.bbox[0] + np.arange(fx + 1) * h, g.bbox[2] + np.arange(fy + 1) * h,
                           indexing="ij")
        f = domain.phi(X, Y)[ox:ox + g.nx + 1, oy:oy + g.ny + 1]
        exact = [float(exact_wet_fraction((f[i, j], f[i + 1, j], f[i + 1, j + 1], f[i, j + 1])))
                 for i, j in g.seg_cell[::3]]
        cells = tuple(g.seg_cell[::3].T)
        err = np.abs(np.array(exact) - raw.cell_vol[cells] / (h * h))
        assert err.max() <= 2e-13
        # and the floored volumes are the floored fractions
        err = np.abs(np.maximum(exact, VOL_FRAC_FLOOR) - g.cell_vol[cells] / (h * h))
        assert err.max() <= 2e-13


class TestQuadrature:
    def test_area_one_field(self, disk64):
        ones = np.ones((disk64.nx, disk64.ny))
        assert abs(volume_integral(ones, disk64) - np.pi) / np.pi < 0.01

    def test_zero_field(self, disk64):
        assert volume_integral(np.zeros((disk64.nx, disk64.ny)), disk64) == 0.0

    def test_odd_symmetry(self, disk64):
        X, _ = disk64.cell_centers()
        val = volume_integral(np.where(disk64.active, X, 0.0), disk64)
        assert abs(val) < 5e-3

    def test_perimeter(self, disk64):
        ones = np.ones_like(disk64.seg_weight)
        assert abs(surface_integral(ones, disk64) - 2 * np.pi) / (2 * np.pi) < 0.02

    def test_surface_zero(self, disk64):
        assert surface_integral(np.zeros_like(disk64.seg_weight), disk64) == 0.0

    def test_normal_component_cancels(self, disk64):
        assert abs(surface_integral(disk64.seg_normal[:, 0], disk64)) < 0.05

    def test_shape_mismatch_rejected(self, disk64):
        with pytest.raises(ValueError):
            volume_integral(np.zeros((3, 3)), disk64)
        with pytest.raises(ValueError):
            surface_integral(np.zeros(5), disk64)


class TestRefinement:
    def test_area_perimeter_first_order(self, disk_domain):
        area_err = []
        perim_err = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = classify_cells(disk_domain, h)
            area_err.append(abs(g.area - np.pi) / np.pi)
            perim_err.append(abs(g.perimeter - 2 * np.pi) / (2 * np.pi))
        assert np.log2(area_err[0] / area_err[-1]) / 2 >= 1.0
        assert np.log2(perim_err[0] / perim_err[-1]) / 2 >= 1.0

    def test_normals_outward_and_unit(self, disk64, star64):
        for geom in (disk64, star64):
            norms = np.hypot(geom.seg_normal[:, 0], geom.seg_normal[:, 1])
            assert np.abs(norms - 1.0).max() < 1e-12
            d = 0.25 * geom.h
            phi_out = geom.domain.phi(geom.seg_mid[:, 0] + d * geom.seg_normal[:, 0],
                                      geom.seg_mid[:, 1] + d * geom.seg_normal[:, 1])
            phi_in = geom.domain.phi(geom.seg_mid[:, 0] - d * geom.seg_normal[:, 0],
                                     geom.seg_mid[:, 1] - d * geom.seg_normal[:, 1])
            assert np.all(phi_out > phi_in)


class TestSampledDomain:
    def test_roundtrip_through_grid_file(self, tmp_path, disk_domain):
        from chemofluid.gridio import read_grid
        xs = np.linspace(-1.2, 1.2, 121)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        vals = disk_domain.phi(X, Y)
        path = tmp_path / "phi.txt"
        write_grid(path, vals, (-1.2, 1.2, -1.2, 1.2))
        loaded, bbox = read_grid(path)
        dom = LevelSetDomain.from_sampled(loaded, bbox)
        g = classify_cells(dom, 1.0 / 48.0)
        assert abs(g.area - np.pi) / np.pi < 0.02


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def dyadic_disk(widen=(0, 0, 0, 0)):
    """The r = 5/6 disk on the box [-1, 1]^2 at h = 1/64, its box widened by
    whole cells (left, right, bottom, top): every coordinate stays exact."""
    d = np.array([-1.0, 1.0, -1.0, 1.0]) + np.array(widen) * np.array([-1, 1, -1, 1]) / 64.0
    return LevelSetDomain(LevelSetDomain.disk(5.0 / 6.0).phi, tuple(float(v) for v in d))


class TestStoredWindow:
    @pytest.mark.parametrize("cfg", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")))
    def test_margin_is_exactly_two_cells(self, cfg):
        g = RunConfig.from_file(CONFIG_DIR / cfg).build_geometry()
        for axis in (0, 1):
            occupied = np.nonzero(g.active.any(axis=1 - axis))[0]
            assert occupied[0] == 2 and occupied[-1] == g.active.shape[axis] - 3
        assert g.nx < g.bbox_shape[0] and g.ny < g.bbox_shape[1]

    @pytest.mark.parametrize("geom_name", ["disk64", "star64"])
    def test_coordinates_are_the_bounding_box_grid(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        (ox, oy), h, (xlo, _, ylo, _) = g.origin, g.h, g.bbox
        assert np.array_equal(g.xc, xlo + (ox + np.arange(g.nx) + 0.5) * h)
        assert np.array_equal(g.yc, ylo + (oy + np.arange(g.ny) + 0.5) * h)
        assert np.array_equal(g.xn, xlo + (ox + np.arange(g.nx + 1)) * h)
        assert np.array_equal(g.yn, ylo + (oy + np.arange(g.ny + 1)) * h)
        # the window of the full grid's coordinates, as before the crop
        fx, fy = g.bbox_shape
        assert np.array_equal(g.xc, (xlo + (np.arange(fx) + 0.5) * h)[g.window[0]])
        assert np.array_equal(g.yn, (ylo + np.arange(fy + 1) * h)[oy:oy + g.ny + 1])
        assert g.window_box == (g.xn[0], g.xn[-1], g.yn[0], g.yn[-1])

    def test_widened_box_keeps_geometry_and_trajectory(self, tmp_path, monkeypatch):
        base = classify_cells(dyadic_disk(), 1.0 / 64.0)
        wide = classify_cells(dyadic_disk((3, 0, 1, 3)), 1.0 / 64.0)
        assert base.h == wide.h == 1.0 / 64.0
        assert wide.bbox_shape == (base.bbox_shape[0] + 3, base.bbox_shape[1] + 4)
        assert wide.origin == (base.origin[0] + 3, base.origin[1] + 1)
        for name in ("nx", "ny", "cell_class", "cell_vol", "aperture_x",
                     "aperture_y", "open_face_x", "open_face_y", "seg_mid", "seg_normal",
                     "seg_weight", "seg_curvature", "seg_cell", "xc", "yn"):
            assert np.array_equal(getattr(base, name), getattr(wide, name)), name

        from chemofluid.runner import run_simulation
        text = ("domain.shape = disk\ngrid.n = 128\nmodel.kappa_ns = 1.0\n"
                "solver.end_time = 0.05\nsolver.dt_max = 0.01\noutput.every_time = 0.025\n"
                "output.snapshot_every = 1\n")
        files = ("inequalities.csv", "snap_0000.bin", "snap_0001.bin", "snap_0002.bin")
        outputs = {}
        for name, g in (("base", base), ("wide", wide)):
            monkeypatch.setattr(RunConfig, "build_geometry", lambda self, g=g: g)
            run_simulation(RunConfig(parse_config_text(text)), tmp_path / name)
            outputs[name] = {f: (tmp_path / name / f).read_bytes() for f in files}
            outputs[name]["rows"] = np.genfromtxt(tmp_path / name / "diagnostics.csv",
                                                  delimiter=",", names=True)
        b, w = outputs["base"], outputs["wide"]
        assert b["inequalities.csv"] == w["inequalities.csv"]
        for snap in files[1:]:
            # the trajectory is byte-identical; the header's box is the window's place
            assert b[snap].split(b"\n", 4)[4] == w[snap].split(b"\n", 4)[4]
        # the boundary probes are measured from the window's first node, so
        # every column, boundary_term included, is bit-identical
        for col in b["rows"].dtype.names:
            assert np.array_equal(b["rows"][col], w["rows"][col]), col

    def test_random_field_is_the_window_of_the_full_draw(self, star64):
        class NoSmoothing:
            def helmholtz_solve(self, tau, f):
                return f

        (z,) = random_neumann_field(star64, NoSmoothing(), np.random.default_rng(5),
                                    amplitude=1.0, n_smooth=1)
        noise = np.random.default_rng(5).standard_normal(star64.bbox_shape)[star64.window]
        vals = noise[star64.active] - noise[star64.active].mean()
        assert np.array_equal(z.data[star64.active], vals * (1.0 / np.abs(vals).max()))
        assert not z.data[~star64.active].any()
