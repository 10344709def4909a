import dataclasses

import numpy as np
import pytest

from chemofluid.fields import (
    ScalarField,
    VectorField,
    advect_conservative,
    divergence,
    gradient_neumann,
    hessian,
    laplacian_neumann,
    mac_grad_norm_sq,
    mac_norm_sq,
    normal_derivative_of_gradsq,
)
from chemofluid.geometry import (
    BAND, LevelSetDomain, ResolutionError, classify_cells, volume_integral)

from conftest import deep_interior, scalar_from_function


def radial_neumann(x, y):
    # zero radial derivative on the unit circle
    r2 = x * x + y * y
    return r2 * (2.0 - r2)


def mirror_reference(data, active, dx, dy):
    """Neighbor at (dx, dy) where it is active, else the cell itself (vstack/hstack copies)."""
    nb, ok = data, active
    if dx == 1:
        nb = np.vstack([data[1:], data[-1:]])
        ok = np.vstack([active[1:], np.zeros((1, active.shape[1]), bool)])
    elif dx == -1:
        nb = np.vstack([data[:1], data[:-1]])
        ok = np.vstack([np.zeros((1, active.shape[1]), bool), active[:-1]])
    if dy == 1:
        nb = np.hstack([nb[:, 1:], nb[:, -1:]])
        ok = np.hstack([ok[:, 1:], np.zeros((ok.shape[0], 1), bool)])
    elif dy == -1:
        nb = np.hstack([nb[:, :1], nb[:, :-1]])
        ok = np.hstack([np.zeros((ok.shape[0], 1), bool), ok[:, :-1]])
    return np.where(ok, nb, data)


def mirror_neighbours(data, active):
    """East, west, north and south mirror neighbours of every cell, from mirror_reference."""
    return [mirror_reference(data, active, dx, dy) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))]


def reference_gradient(s):
    g = s.geom
    E, W, N, S = mirror_neighbours(s.data, g.active)
    gx = (E - W) / (2.0 * g.h)
    gy = (N - S) / (2.0 * g.h)
    gx[~g.active] = 0.0
    gy[~g.active] = 0.0
    return gx, gy


def reference_laplacian(s):
    g, d = s.geom, s.data
    E, W, N, S = mirror_neighbours(d, g.active)
    net = (g.aperture_x[1:, :] * (E - d) + g.aperture_x[:-1, :] * (W - d)
           + g.aperture_y[:, 1:] * (N - d) + g.aperture_y[:, :-1] * (S - d))
    out = np.zeros_like(d)
    np.divide(net, g.cell_vol, out=out, where=g.active)
    return out


def reference_hessian(s):
    g, d = s.geom, s.data
    E, W, N, S = mirror_neighbours(d, g.active)
    xx = (E - 2.0 * d + W) / (g.h * g.h)
    yy = (N - 2.0 * d + S) / (g.h * g.h)
    gx, gy = reference_gradient(s)
    _, _, gxN, gxS = mirror_neighbours(gx, g.active)
    gyE, gyW, _, _ = mirror_neighbours(gy, g.active)
    xy = 0.5 * ((gyE - gyW) / (2.0 * g.h) + (gxN - gxS) / (2.0 * g.h))
    for arr in (xx, xy, yy):
        arr[~g.active] = 0.0
    return xx, xy, yy


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def neck(two_disks):
    """The two disks joined by a neck one cell high, with a stub one cell wide on it.

    Neck cells have no neighbour to the north or south, stub cells none to
    the east or west, and the stub's top cell has only its southern one.
    """
    g = two_disks
    cls, vol = g.cell_class.copy(), g.cell_vol.copy()
    j0 = g.ny // 2
    row = np.nonzero(g.active[:, j0])[0]
    gap = np.arange(row.min(), row.max() + 1)
    gap = gap[~g.active[gap, j0]]
    i0 = gap[gap.size // 2]
    cells = [(i, j0) for i in gap] + [(i0, j0 + k) for k in (1, 2, 3)]
    for i, j in cells:
        cls[i, j], vol[i, j] = BAND, g.h * g.h
    out = dataclasses.replace(g, cell_class=cls, cell_vol=vol)
    act = out.active[1:-1, 1:-1]
    assert (act & ~out.active[1:-1, 2:] & ~out.active[1:-1, :-2]).any()
    assert (act & ~out.active[2:, 1:-1] & ~out.active[:-2, 1:-1]).any()
    return out


class TestMirrorGathers:
    """The stencils, read from shifted slices with the wall cells overwritten,
    against the mirror ghosts built from copies, bit for bit."""

    @pytest.mark.parametrize("geom_name", ["disk64", "star64", "annulus48", "two_disks", "neck"])
    def test_equal_to_copies(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        rng = np.random.default_rng(13)
        # values on the exterior cells too, which a missed mirror ghost would
        # read; a constant field, whose stencils sum zeros only, checks their signs
        for data in (rng.standard_normal((g.nx, g.ny)),
                     np.where(g.active, rng.standard_normal((g.nx, g.ny)), 0.0),
                     np.where(g.active, 3.0, 0.0)):
            s = ScalarField(g, data)
            gx, gy = gradient_neumann(s)
            rx, ry = reference_gradient(s)
            assert same_bits(gx.data, rx) and same_bits(gy.data, ry)
            assert same_bits(laplacian_neumann(s).data, reference_laplacian(s))
            H = hessian(s)
            for got, want in zip((H.xx, H.xy, H.yy), reference_hessian(s)):
                assert same_bits(got, want)

    def test_cached_read_only(self, disk64):
        assert disk64.active is disk64.active
        assert disk64.wall_mirrors is disk64.wall_mirrors
        for arr in (disk64.active, disk64.interior) + disk64.wall_mirrors:
            assert not arr.flags.writeable

    @pytest.mark.parametrize("geom_name", ["disk64", "star64", "neck"])
    def test_wall_cells(self, geom_name, request):
        # exactly the active cells with a neighbour that is not active, with
        # the mirror neighbour of mirror_reference in each direction
        g = request.getfixturevalue(geom_name)
        cells, *mirrors = g.wall_mirrors
        own = np.arange(g.nx * g.ny).reshape(g.nx, g.ny).astype(float)
        refs = mirror_neighbours(own, g.active)
        has_all = np.logical_and.reduce([ref != own for ref in refs])
        assert np.array_equal(cells, np.flatnonzero(g.active & ~has_all))
        for mirror, ref in zip(mirrors, refs):
            assert np.array_equal(mirror, ref.reshape(-1)[cells])


class TestGradient:
    def test_constant(self, disk64):
        s = ScalarField.full(disk64, 4.2)
        gx, gy = gradient_neumann(s)
        assert np.abs(gx.data).max() == 0.0
        assert np.abs(gy.data).max() == 0.0

    def test_linear_exact_inside(self, disk64):
        s = scalar_from_function(disk64, lambda x, y: x)
        gx, gy = gradient_neumann(s)
        deep = deep_interior(disk64)
        assert np.abs(gx.data[deep] - 1.0).max() < 1e-13
        assert np.abs(gy.data[deep]).max() == 0.0

    def test_smooth_field_orders(self, disk_domain):
        errs_in = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = classify_cells(disk_domain, h)
            s = scalar_from_function(g, lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
            gx, _ = gradient_neumann(s)
            exact = scalar_from_function(
                g, lambda x, y: -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))
            deep = deep_interior(g)
            errs_in.append(np.abs(gx.data - exact.data)[deep].max())
        # second order in the interior
        assert np.log2(errs_in[0] / errs_in[-1]) / 2 > 1.7


class TestLaplacian:
    def test_constant(self, disk64):
        lap = laplacian_neumann(ScalarField.full(disk64, 3.0))
        assert np.abs(lap.data).max() < 1e-12

    def test_conservation_random(self, disk64):
        rng = np.random.default_rng(3)
        s = ScalarField(disk64, np.where(disk64.active, rng.standard_normal((disk64.nx, disk64.ny)), 0.0))
        lap = laplacian_neumann(s)
        total = volume_integral(lap, disk64)
        scale = volume_integral(np.abs(lap.data), disk64)
        assert abs(total) <= 1e-10 * scale

    def test_radial_mms_first_order(self, disk_domain):
        # lap of r^2(2-r^2) is 8 - 16 r^2; volume-weighted L1 error, order >= 1
        errs = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = classify_cells(disk_domain, h)
            w = scalar_from_function(g, radial_neumann)
            lap = laplacian_neumann(w)
            exact = scalar_from_function(g, lambda x, y: 8.0 - 16.0 * (x * x + y * y))
            err = volume_integral(np.abs(lap.data - exact.data), g) / g.area
            errs.append(err)
        assert np.log2(errs[0] / errs[-1]) / 2 >= 1.0


class TestHessian:
    def test_x_squared(self, disk64):
        H = hessian(scalar_from_function(disk64, lambda x, y: x * x))
        deep = deep_interior(disk64)
        assert np.abs(H.xx[deep] - 2.0).max() < 1e-10
        assert np.abs(H.xy[deep]).max() < 1e-10
        assert np.abs(H.yy[deep]).max() < 1e-10

    def test_trace_matches_laplacian(self, disk64):
        s = scalar_from_function(disk64, lambda x, y: x * x + x * y + 2 * y * y + 0.3 * x)
        H = hessian(s)
        lap = laplacian_neumann(s)
        deep = deep_interior(disk64)
        assert np.abs(H.trace()[deep] - lap.data[deep]).max() / 6.0 < 1e-8

    def test_pointwise_trace_bound(self, disk64):
        rng = np.random.default_rng(11)
        for _ in range(5):
            s = ScalarField(disk64, np.where(disk64.active,
                                             rng.standard_normal((disk64.nx, disk64.ny)), 0.0))
            H = hessian(s)
            viol = (H.trace() ** 2 - 2.0 * H.frobenius_sq())[disk64.active].max()
            assert viol <= 1e-10

    def test_equality_case(self, disk64):
        # s = x^2 + y^2: |tr H|^2 = 16 = 2 |H|^2
        H = hessian(scalar_from_function(disk64, lambda x, y: x * x + y * y))
        deep = deep_interior(disk64)
        assert np.abs(H.trace()[deep] ** 2 - 16.0).max() < 1e-9
        assert np.abs(2.0 * H.frobenius_sq()[deep] - 16.0).max() < 1e-9

    def test_radial_mms_first_order(self, disk_domain):
        # analytic Hessian of w = 2 r^2 - r^4; L1 over full-stencil cells
        def exact(g):
            X, Y = g.cell_centers()
            r2 = X * X + Y * Y
            return 4 - 4 * r2 - 8 * X * X, -8 * X * Y, 4 - 4 * r2 - 8 * Y * Y
        errs = []
        for h in (1 / 32, 1 / 64, 1 / 128):
            g = classify_cells(disk_domain, h)
            H = hessian(scalar_from_function(g, radial_neumann))
            xx, xy, yy = exact(g)
            err = np.abs(H.xx - xx) + np.abs(H.xy - xy) + np.abs(H.yy - yy)
            errs.append(volume_integral(np.where(g.stencil_ok, err, 0.0), g) / g.area)
        assert np.log2(errs[0] / errs[-1]) / 2 >= 1.0


class TestAdvection:
    def test_constant_field_divfree_velocity(self, disk64):
        vel = VectorField.from_stream(disk64, lambda x, y: np.sin(2 * x) * np.cos(1.5 * y))
        tend = advect_conservative(ScalarField.full(disk64, 2.5), vel)
        assert np.abs(tend.data).max() < 1e-10

    def test_conservation(self, disk64):
        rng = np.random.default_rng(5)
        vel = VectorField.from_stream(disk64, lambda x, y: np.cos(3 * x) * np.sin(2 * y))
        s = ScalarField(disk64, np.where(disk64.active, 1.0 + rng.random((disk64.nx, disk64.ny)), 0.0))
        tend = advect_conservative(s, vel)
        total = volume_integral(tend, disk64)
        scale = volume_integral(np.abs(tend.data), disk64)
        assert abs(total) <= 1e-12 * scale

    def test_top_hat_stays_in_range(self, disk64):
        # transported square pulse keeps its range under the per-cell CFL
        X, Y = disk64.cell_centers()
        hat = np.where((np.abs(X + 0.3) < 0.15) & (np.abs(Y) < 0.15), 1.0, 0.0)
        s = ScalarField(disk64, np.where(disk64.active, hat, 0.0))
        vel = VectorField.from_stream(disk64, lambda x, y: -0.5 * y)
        dt = 0.9 * disk64.h / 0.5
        start_center = s.data[disk64.active].copy()
        for _ in range(20):
            tend = advect_conservative(s, vel)
            s = ScalarField(disk64, s.data + dt * tend.data)
        assert s.min_active() >= -1e-13
        assert s.max_active() <= 1.0 + 1e-13
        assert np.abs(s.data[disk64.active] - start_center).max() > 0.1  # it moved

    def test_max_principle_random_stream(self, disk64):
        rng = np.random.default_rng(7)
        for trial in range(5):
            a, b = rng.uniform(1.0, 4.0, size=2)
            vel = VectorField.from_stream(disk64, lambda x, y: 0.3 * np.sin(a * x) * np.cos(b * y))
            s0 = np.where(disk64.active, rng.uniform(1.0, 2.0, (disk64.nx, disk64.ny)), 0.0)
            s = ScalarField(disk64, s0.copy())
            speed = vel.max_speed()
            dt = 0.5 * disk64.h / max(speed, 1e-10)
            for _ in range(10):
                tend = advect_conservative(s, vel)
                s = ScalarField(disk64, s.data + dt * tend.data)
            assert s.data[disk64.active].min() >= s0[disk64.active].min() - 1e-12
            assert s.data[disk64.active].max() <= s0[disk64.active].max() + 1e-12


class TestStreamFunction:
    def test_exactly_divergence_free(self, disk64):
        vel = VectorField.from_stream(disk64, lambda x, y: np.sin(2 * x) * np.cos(y))
        div = divergence(vel)
        assert np.abs(div.data).max() < 1e-11

    def test_zero_off_fluid_faces(self, disk64):
        vel = VectorField.from_stream(disk64, lambda x, y: np.cos(x) * np.cos(y))
        assert np.abs(vel.u[~disk64.fluid_face_x]).max() == 0.0
        assert np.abs(vel.v[~disk64.fluid_face_y]).max() == 0.0

    def test_values_must_have_the_node_shape(self, disk64):
        with pytest.raises(ValueError, match="one value per grid node"):
            VectorField.from_stream(disk64, lambda x, y: 1.0)
        with pytest.raises(ValueError, match="one value per grid node"):
            VectorField.from_stream(disk64, lambda x, y: x[:-1])


def probe_reference(s, geom, depths=(2.0, 3.5, 5.0)):
    """normal_derivative_of_gradsq with every probe located and sampled per call."""
    gx, gy = gradient_neumann(s)
    q = gx.data ** 2 + gy.data ** 2
    h = geom.h
    n = geom.seg_mid.shape[0]
    dq, qn, valid = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)

    def probe(d, mask):
        px = geom.seg_mid[mask, 0] - d * geom.seg_normal[mask, 0]
        py = geom.seg_mid[mask, 1] - d * geom.seg_normal[mask, 1]
        stencil = geom.bilinear_stencil(px, py)
        return stencil.sample(q), stencil.valid

    for extra in (0.0, 0.75, 1.5):
        todo = ~valid
        if not np.any(todo):
            break
        d1, d2, d3 = ((d + extra) * h for d in depths)
        (q1, ok1), (q2, ok2), (q3, ok3) = probe(d1, todo), probe(d2, todo), probe(d3, todo)
        two = ok1 & ok2
        est_a = np.where(two, (q1 - q2) / (d2 - d1), 0.0)
        est_b = np.where(ok2 & ok3, (q2 - q3) / (d3 - d2), 0.0)
        m_a, m_b = 0.5 * (d1 + d2), 0.5 * (d2 + d3)
        wall = est_a + (est_a - est_b) * m_a / (m_b - m_a)
        est = np.where(two & ok3, wall, est_a)
        idx = np.nonzero(todo)[0][two]
        dq[idx], qn[idx], valid[idx] = est[two], q1[two], True
    return dq, qn, valid


@pytest.fixture(scope="module")
def thin_annulus32():
    # segments without room for two probes, and many without a third
    dom = LevelSetDomain.annulus(0.75, 1.0)
    return classify_cells(dom, (dom.bbox[1] - dom.bbox[0]) / 32)


class TestBoundaryDerivative:
    @pytest.mark.parametrize("geom_name", ["disk64", "star64", "thin_annulus32"])
    def test_cached_probes_equal_reference(self, geom_name, request):
        g = request.getfixturevalue(geom_name)
        rng = np.random.default_rng(19)
        s = ScalarField(g, np.where(g.active, rng.standard_normal((g.nx, g.ny)), 0.0))
        for got, ref in zip(normal_derivative_of_gradsq(s), probe_reference(s, g)):
            assert np.array_equal(got, ref)

    def test_unprobeable_geometry_rejected(self):
        dom = LevelSetDomain.annulus(0.8, 1.0)
        g = classify_cells(dom, (dom.bbox[1] - dom.bbox[0]) / 32)
        with pytest.raises(ResolutionError):
            normal_derivative_of_gradsq(ScalarField.full(g, 1.0))

    def test_constant_gives_zero(self, disk64):
        dq, qn, valid = normal_derivative_of_gradsq(ScalarField.full(disk64, 1.0))
        assert valid.all()
        assert np.abs(dq).max() == 0.0
        assert np.abs(qn).max() == 0.0

    def test_radial_profile_converges_to_zero(self, disk_domain):
        # both d|grad w|^2/dnu and |grad w|^2 vanish on the circle for this w
        worst = []
        for h in (1 / 48, 1 / 96, 1 / 192):
            g = classify_cells(disk_domain, h)
            w = scalar_from_function(g, radial_neumann)
            dq, qn, valid = normal_derivative_of_gradsq(w)
            worst.append(np.abs(dq[valid]).max())
        assert worst[0] > worst[1] > worst[2]
        assert np.log2(worst[0] / worst[-1]) / 2 >= 0.8

    def test_star_random_fields_finite(self, star64):
        rng = np.random.default_rng(17)
        s = ScalarField(star64, np.where(star64.active,
                                         rng.standard_normal((star64.nx, star64.ny)), 0.0))
        dq, qn, valid = normal_derivative_of_gradsq(s)
        assert valid.any()
        assert np.all(np.isfinite(dq[valid]))


class TestSamplingAndNorms:
    def test_bilinear_exact_on_linear(self, disk64):
        X, Y = disk64.cell_centers()
        data = np.where(disk64.active, 2.0 * X - 3.0 * Y + 1.0, 0.0)
        xs = np.array([0.1, -0.2, 0.35])
        ys = np.array([0.05, 0.1, -0.3])
        stencil = disk64.bilinear_stencil(xs, ys)
        vals, ok = stencil.sample(data), stencil.valid
        assert ok.all()
        assert np.abs(vals - (2 * xs - 3 * ys + 1)).max() < 1e-12

    def test_mac_norms(self, disk64):
        vel = VectorField.from_stream(disk64, lambda x, y: 0.2 * np.exp(-(x * x + y * y)))
        assert mac_norm_sq(vel) > 0.0
        assert mac_grad_norm_sq(vel) > 0.0
        zero = VectorField.zeros(disk64)
        assert mac_norm_sq(zero) == 0.0
        assert mac_grad_norm_sq(zero) == 0.0
