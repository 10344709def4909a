import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from chemofluid.diagnostics import (
    COLUMNS,
    DiagnosticsRecord,
    Frame,
    boundary_term,
    check_energy_inequality,
    check_inequality_33,
    check_ms_lemma,
    convergence_monitor,
    dissipation_terms,
    entropy_parts,
    hessian_pointwise_violation,
    identity_source_terms,
    random_neumann_field,
)
from chemofluid.fields import ScalarField, VectorField, gradient_neumann, mac_grad_norm_sq, mac_norm_sq
from chemofluid.geometry import LevelSetDomain, classify_cells, volume_integral
from chemofluid.model import build_derived, linear_model
from chemofluid.solver import LinearSystems, SimState, SolverConfig, step

from conftest import entropy_functional, scalar_from_function


def make_state(geom, n, c, u=None):
    if isinstance(n, (int, float)):
        n = ScalarField.full(geom, float(n))
    if isinstance(c, (int, float)):
        c = ScalarField.full(geom, float(c))
    return SimState(n, c, u or VectorField.zeros(geom), ScalarField.zeros(geom), 0.0)


def bump_c(x, y, amp=0.25):
    r2 = x * x + y * y
    return 1.0 + amp * r2 * (2.0 - r2)


class TestEntropyFunctional:
    def test_flat_positive_state(self, disk64, derived_linear):
        n_inf = 1.7
        st = make_state(disk64, n_inf, 0.0)
        val = entropy_functional(Frame(st, derived_linear))
        assert val == pytest.approx(np.pi * n_inf * np.log(n_inf), rel=0.01)

    def test_unit_density_gives_zero(self, disk64, derived_linear):
        st = make_state(disk64, 1.0, 1.0)
        assert entropy_functional(Frame(st, derived_linear)) == pytest.approx(0.0, abs=1e-12)

    def test_jensen_lower_bound(self, disk64, derived_linear):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = ScalarField(disk64, np.where(disk64.active,
                                             rng.uniform(0.2, 3.0, (disk64.nx, disk64.ny)), 0.0))
            st = make_state(disk64, 1.0, 1.0)
            st.n = n
            ent_n, _ = entropy_parts(Frame(st, derived_linear))
            mass = volume_integral(n, disk64)
            area = disk64.area
            assert ent_n >= mass * np.log(mass / area) - 1e-12 * abs(ent_n)


class TestDissipation:
    def test_uniform_state_zero(self, disk64, derived_linear):
        st = make_state(disk64, 2.0, 1.3)
        fisher, hess = dissipation_terms(Frame(st, derived_linear))
        assert fisher == pytest.approx(0.0, abs=1e-20)
        assert hess == pytest.approx(0.0, abs=1e-20)

    def test_fisher_against_quadrature(self, disk64, derived_linear):
        # n = 1 + 0.1 cos(pi x): integrate |grad n|^2 / n over the unit disk
        st = make_state(disk64, 1.0, 1.0)
        st.n = scalar_from_function(disk64, lambda x, y: 1.0 + 0.1 * np.cos(np.pi * x))
        fisher, _ = dissipation_terms(Frame(st, derived_linear))

        def integrand(x):
            gx = -0.1 * np.pi * np.sin(np.pi * x)
            return gx ** 2 / (1.0 + 0.1 * np.cos(np.pi * x)) * 2.0 * np.sqrt(1.0 - x * x)

        exact, _ = quad(integrand, -1.0, 1.0, limit=200)
        assert fisher == pytest.approx(exact, rel=0.03)

    def test_hess_rho_radial_oracle(self, disk64, derived_linear):
        # c(r) = 1 + 0.25 r^2(2-r^2), zeta = log(c): |D^2 zeta|^2 = zeta'' ^2 + (zeta'/r)^2
        st = make_state(disk64, 1.0, 1.0)
        st.c = scalar_from_function(disk64, bump_c)
        _, hess = dissipation_terms(Frame(st, derived_linear))

        def integrand(r):
            c = 1.0 + 0.25 * r * r * (2.0 - r * r)
            cp = 0.25 * (4.0 * r - 4.0 * r ** 3)
            cpp = 0.25 * (4.0 - 12.0 * r * r)
            zp = cp / c
            zpp = cpp / c - (cp / c) ** 2
            return c * (zpp ** 2 + (zp / max(r, 1e-12)) ** 2) * 2.0 * np.pi * r

        exact, _ = quad(integrand, 0.0, 1.0, limit=200)
        assert hess == pytest.approx(exact, rel=0.06)


def annulus_profile(r, r_in=0.5):
    """G(r) with G'(r_in) = G'(1) = 0, so G(r) cos 2 theta is Neumann on r_in < r < 1."""
    return r ** 3 / 3 - (1 + r_in) * r ** 2 / 2 + r_in * r


def circle_boundary_term(radius, kappa, amp):
    """1/2 oint (1/c)(-2 kappa |d_tau c|^2) ds on a circle where c = 1 + 0.2 amp cos 2 theta.

    For a Neumann field, d|grad c|^2/dnu = -2 kappa |d_tau c|^2 on the boundary,
    so this is the exact boundary term of the circle.
    """
    th = np.linspace(0.0, 2.0 * np.pi, 2048, endpoint=False)
    c = 1.0 + 0.2 * amp * np.cos(2.0 * th)
    dtau_c = -0.4 * amp / radius * np.sin(2.0 * th)
    return 0.5 * np.mean(-2.0 * kappa * dtau_c ** 2 / c) * 2.0 * np.pi * radius


def annulus_case(r_in, sign, bounds):
    """The annulus r_in < r < 1 with w = G(r) cos 2 theta; its inner circle has kappa = -1/r_in."""
    return (LevelSetDomain.annulus(r_in, 1.0),
            lambda x, y: annulus_profile(np.hypot(x, y), r_in) * (x * x - y * y) / (x * x + y * y),
            [(1.0, 1.0, annulus_profile(1.0, r_in)), (r_in, -1.0 / r_in, annulus_profile(r_in, r_in))],
            sign, bounds)


# domain, Neumann field w, (radius, curvature, amplitude of w) per boundary
# circle, the sign of the exact term, and bounds on the relative error by
# grid side n (h = 2.4 / n)
EXACT_BOUNDARY_TERMS = {
    "disk": (LevelSetDomain.disk(),
             lambda x, y: (x * x - y * y) * (1.0 - (x * x + y * y) / 2.0),
             [(1.0, 1.0, 0.5)], -1.0, {192: 0.15}),
    "annulus": annulus_case(0.5, 1.0, {192: 0.05}),
    "annulus_r0.25": annulus_case(0.25, 1.0, {384: 0.04}),
    "annulus_r0.15": annulus_case(0.15, -1.0, {384: 0.12}),
}


class TestBoundaryTerm:
    @pytest.mark.parametrize("name", sorted(EXACT_BOUNDARY_TERMS))
    def test_converges_to_the_exact_value(self, name, derived_linear):
        # an annulus's inner circle (kappa = -1/r_in) makes the term positive,
        # a sign no convex domain can give, unless the outer circle's term
        # outweighs it, as at r_in = 0.15
        domain, w, circles, sign, bounds = EXACT_BOUNDARY_TERMS[name]
        exact = sum(circle_boundary_term(*circle) for circle in circles)
        assert np.sign(exact) == sign, exact
        errors = {}
        for n in (96, 192, 384):   # h = 1/40, 1/80, 1/160
            geom = classify_cells(domain, 2.4 / n)
            c = scalar_from_function(geom, lambda x, y: 1.0 + 0.2 * w(x, y))
            errors[n] = abs(boundary_term(Frame(c, derived_linear)) - exact) / abs(exact)
        rel = list(errors.values())
        print(f"{name}: exact {exact:+.3e}, relative errors {', '.join(f'{e:.1%}' for e in rel)}")
        assert np.all(np.log2(np.array(rel[:-1]) / rel[1:]) >= 1.0), errors
        assert all(errors[n] <= bound for n, bound in bounds.items()), errors

    def test_constant_field(self, disk64, derived_linear):
        st = make_state(disk64, 1.0, 1.2)
        assert boundary_term(Frame(st, derived_linear)) == 0.0

    def test_disk_nonpositive_for_smooth_fields(self, disk64, derived_linear, lin64):
        rng = np.random.default_rng(31)
        tol = 0.5 * np.sqrt(disk64.h)
        for _ in range(10):
            (z,) = random_neumann_field(disk64, lin64, rng, amplitude=0.3, smooth_len=0.2, n_smooth=8)
            c = ScalarField(disk64, np.where(disk64.active, 1.0 + z.data, 0.0))
            assert boundary_term(Frame(c, derived_linear)) <= tol

    def test_star_values_finite(self, star64, derived_linear):
        lin = LinearSystems(star64)
        rng = np.random.default_rng(32)
        (z,) = random_neumann_field(star64, lin, rng, amplitude=0.3, smooth_len=0.2, n_smooth=8)
        c = ScalarField(star64, np.where(star64.active, 1.0 + z.data, 0.0))
        assert np.isfinite(boundary_term(Frame(c, derived_linear)))


class TestMsLemma:
    def test_constant_field_zero_residual(self, disk64):
        rep = check_ms_lemma(Frame(ScalarField.full(disk64, 2.0)))
        assert rep.violation == 0.0
        assert rep.passed

    def test_radial_profile_residual_decays(self, disk_domain):
        # dq/dnu and q both vanish at the wall for this profile: the residual
        # tends to zero (from below) under refinement
        worst = []
        for h in (1 / 48, 1 / 96, 1 / 192):
            g = classify_cells(disk_domain, h)
            w = scalar_from_function(g, lambda x, y: (x * x + y * y) * (2 - x * x - y * y))
            worst.append(abs(check_ms_lemma(Frame(w)).violation))
        assert worst[0] > worst[1] > worst[2]

    def test_annulus_validates_curvature_magnitude_bound(self):
        # the inner circle contributes curvature magnitude 2; a bound built
        # from positive-part samples alone (1.1) is empirically violated
        # there, the magnitude bound (2.2) holds with margin
        from chemofluid.fields import normal_derivative_of_gradsq
        g = classify_cells(LevelSetDomain.annulus(0.5, 1.0), 1 / 96)
        lin = LinearSystems(g)
        rng = np.random.default_rng(55)
        worst = -np.inf
        worst_positive_part = -np.inf
        for _ in range(20):
            (z,) = random_neumann_field(g, lin, rng, amplitude=0.3, smooth_len=0.2, n_smooth=8)
            c = ScalarField(g, np.where(g.active, 1.0 + z.data, 0.0))
            rep = check_ms_lemma(Frame(c), c_check=200.0)
            assert rep.passed
            worst = max(worst, rep.violation)
            dq, qn, ok = normal_derivative_of_gradsq(c)
            worst_positive_part = max(worst_positive_part,
                                      float(np.where(ok, dq - 2 * 1.1 * qn, -np.inf).max()))
        assert worst_positive_part > 2.0 * worst

    def test_star_randomized_no_violation(self, star64, derived_linear):
        lin = LinearSystems(star64)
        rng = np.random.default_rng(33)
        c_check = 200.0
        for _ in range(20):
            (z,) = random_neumann_field(star64, lin, rng, amplitude=0.3, smooth_len=0.2, n_smooth=8)
            c = ScalarField(star64, np.where(star64.active, 1.0 + z.data, 0.0))
            rep = check_ms_lemma(Frame(c), c_check=c_check)
            assert rep.passed, rep.violation


class TestInequality33:
    def test_constant_field(self, disk64, derived_linear):
        rep = check_inequality_33(Frame(make_state(disk64, 1.0, 1.1), derived_linear))
        assert rep.lhs == pytest.approx(0.0, abs=1e-18)
        assert rep.passed

    def test_radial_oracle_both_sides(self, disk64, derived_linear):
        # linear model: lhs = int |grad c|^4 / c^3, rhs = (2+sqrt2)^2 int c |D^2 log c|^2
        st = make_state(disk64, 1.0, 1.0)
        st.c = scalar_from_function(disk64, bump_c)
        rep = check_inequality_33(Frame(st, derived_linear))

        def lhs_int(r):
            c = 1.0 + 0.25 * r * r * (2.0 - r * r)
            cp = 0.25 * (4.0 * r - 4.0 * r ** 3)
            return cp ** 4 / c ** 3 * 2 * np.pi * r

        def rhs_int(r):
            c = 1.0 + 0.25 * r * r * (2.0 - r * r)
            cp = 0.25 * (4.0 * r - 4.0 * r ** 3)
            cpp = 0.25 * (4.0 - 12.0 * r * r)
            zp = cp / c
            zpp = cpp / c - zp ** 2
            return c * (zpp ** 2 + (zp / max(r, 1e-12)) ** 2) * 2 * np.pi * r

        lhs_exact, _ = quad(lhs_int, 0, 1, limit=200)
        rhs_exact, _ = quad(rhs_int, 0, 1, limit=200)
        assert rep.lhs == pytest.approx(lhs_exact, rel=0.05)
        assert rep.rhs == pytest.approx((2 + np.sqrt(2)) ** 2 * rhs_exact, rel=0.06)
        assert rep.passed

    def test_randomized_disk_no_violations(self, disk64, derived_linear, lin64):
        rng = np.random.default_rng(34)
        for _ in range(20):
            (z,) = random_neumann_field(disk64, lin64, rng, amplitude=0.3, smooth_len=0.2, n_smooth=8)
            c = ScalarField(disk64, np.where(disk64.active, 1.0 + z.data, 0.0))
            rep = check_inequality_33(Frame(c, derived_linear))
            assert rep.lhs <= rep.rhs + rep.tolerance

    def test_star_reported_not_failed(self, star64, derived_linear):
        c = scalar_from_function(star64, lambda x, y: 1.0 + 0.2 * np.cos(2 * x))
        rep = check_inequality_33(Frame(c, derived_linear))
        assert rep.passed  # non-convex domains report, never fail
        assert rep.extra["convex"] is False


@pytest.fixture(scope="module")
def trajectory(disk64):
    """Five consecutive states of a coupled run: bump in n and c, swirling flow."""
    X, Y = disk64.cell_centers()
    n0 = ScalarField(disk64, np.where(
        disk64.active, 1.0 + 0.4 * np.exp(-((X - 0.2) ** 2 + (Y - 0.1) ** 2) / 0.08), 0.0))
    u0 = VectorField.from_stream(disk64, lambda x, y: 0.15 * np.exp(-(x * x + y * y) / 0.18))
    states = [make_state(disk64, n0, scalar_from_function(disk64, bump_c), u0)]
    cfg = SolverConfig(dt_max=0.01)
    model = linear_model(G=0.5, kappa_ns=1.0)
    lin = LinearSystems(disk64)
    for _ in range(4):
        states.append(step(states[-1], cfg, model, lin, dt=0.01))
    return states


def entropy_identity_residual(states, derived):
    """Oracle: the entropy production balance on three consecutive states.

    dE/dt is the centered difference across the window; the dissipation and
    the transport/boundary sources are evaluated at the middle state. Returns
    (residual, normalized_residual, terms); the normalization is the largest
    term magnitude. DiagnosticsRecord computes the same balance from its rows.
    """
    s0, s1, s2 = states
    if not (s0.t < s1.t < s2.t):
        raise ValueError("window states must be time-ordered")
    e0 = entropy_functional(Frame(s0, derived))
    e2 = entropy_functional(Frame(s2, derived))
    dEdt = (e2 - e0) / (s2.t - s0.t)
    mid = Frame(s1, derived)
    fisher, hess_rho = dissipation_terms(mid)
    t1, t2, t3, t4 = identity_source_terms(mid)
    boundary = boundary_term(mid)
    residual = abs(dEdt + fisher + hess_rho - (t1 + t2 + t3 + t4 + boundary))
    terms = {"dEdt": dEdt, "fisher": fisher, "hess_rho": hess_rho,
             "transport_grad": t1, "transport_lap": t2, "consumption": t3,
             "concavity": t4, "boundary": boundary}
    scale = max(max(abs(v) for v in terms.values()), 1e-30)
    return residual, residual / scale, terms


def standalone_row(st, derived, geom, n_inf):
    """Every diagnostics column from the public single-state functions, each on a fresh frame."""
    ent_n, grad_psi_sq = entropy_parts(Frame(st, derived))
    fisher, hess_rho = dissipation_terms(Frame(st, derived))
    cx, cy = gradient_neumann(st.c)
    n_pos = np.maximum(st.n.data, 0.0)
    return {
        "t": st.t, "mass": volume_integral(st.n, geom), "c_max": st.c.max_active(),
        "entropy_n": ent_n, "grad_psi_sq": grad_psi_sq, "fisher": fisher, "hess_rho": hess_rho,
        "grad_c_4": volume_integral((cx.data ** 2 + cy.data ** 2) ** 2, geom),
        "u_l2": mac_norm_sq(st.u), "grad_u_l2": mac_grad_norm_sq(st.u),
        "psi_l2": volume_integral(np.where(geom.active, derived.psi(st.c.data) ** 2, 0.0), geom),
        "n_l65_sq": volume_integral(np.where(geom.active, n_pos ** 1.2, 0.0), geom) ** (5.0 / 3.0),
        "boundary_term": boundary_term(Frame(st.c, derived)),
        "ms_violation": check_ms_lemma(Frame(st.c)).violation,
        "conv_n": float(np.abs(st.n.data[geom.active] - n_inf).max()),
        "u_sup": st.u.max_speed(),
        "identity_residual": 0.0,
        "clamped_frac": float(np.mean(st.c.data[geom.active] < derived.c_floor)),
    }


class TestIdentityResidual:
    def test_steady_state_vanishes(self, disk64, derived_linear):
        states = []
        for k, t in enumerate((0.0, 0.1, 0.2)):
            st = make_state(disk64, 1.5, 0.0)
            st.t = t
            states.append(st)
        res, _, terms = entropy_identity_residual(tuple(states), derived_linear)
        assert res < 1e-12
        assert abs(terms["dEdt"]) < 1e-12

    def test_shared_frame_matches_standalone(self, disk64, derived_linear, trajectory):
        # one frame per state, as a run uses them, against every standalone
        # function on a fresh frame: same floats, bit for bit; the record
        # fills each interior row's identity residual as the next row arrives
        rec = DiagnosticsRecord(disk64, n_inf=1.0, c0_max=1.25)
        for st in trajectory:
            frame = Frame(st, derived_linear)
            row = rec.append_state(frame)
            assert row == standalone_row(st, derived_linear, disk64, 1.0)
            for shared, alone in ((check_ms_lemma(frame, c_check=3.0, time=st.t),
                                   check_ms_lemma(Frame(st.c), c_check=3.0, time=st.t)),
                                  (check_inequality_33(frame, time=st.t),
                                   check_inequality_33(Frame(st, derived_linear), time=st.t))):
                assert shared.row() == alone.row()
                assert (shared.location, shared.extra) == (alone.location, alone.extra)
        assert sorted(row) == sorted(COLUMNS)
        last = len(trajectory) - 1
        assert rec.rows[0]["identity_residual"] == rec.rows[last]["identity_residual"] == 0.0
        for k in range(1, last):
            window = tuple(trajectory[k - 1:k + 2])
            _, nres, terms = entropy_identity_residual(window, derived_linear)
            assert rec.rows[k]["identity_residual"] == nres
            assert terms["transport_grad"] != 0.0 and terms["boundary"] != 0.0

    def test_model_evaluated_on_active_cells_once_per_frame(self, disk64, trajectory):
        # the six callables log the size of every argument; a frame evaluates
        # the model on the active cells and at the boundary segments only
        sizes = []

        def logged(fn):
            def call(s):
                sizes.append(np.size(s))
                return fn(s)
            return call

        base = linear_model(G=0.5, kappa_ns=1.0)
        model = dataclasses.replace(base, **{name: logged(getattr(base, name)) for name in (
            "chi", "chi_p", "chi_pp", "f", "f_p", "f_pp")})
        derived = build_derived(model, 2.0)
        n_active, n_seg = int(disk64.active.sum()), len(disk64.seg_weight)
        assert n_active != n_seg
        rec = DiagnosticsRecord(disk64, n_inf=1.0, c0_max=1.25)
        for k, st in enumerate(trajectory):
            sizes.clear()
            frame = Frame(st, derived)
            rec.append_state(frame)
            check_inequality_33(frame, time=st.t)
            assert set(sizes) == {n_active, n_seg}, k
            assert sizes.count(n_active) == 6, k

    def test_window_must_be_ordered(self, disk64, derived_linear):
        sts = [make_state(disk64, 1.0, 1.0) for _ in range(3)]
        with pytest.raises(ValueError):
            entropy_identity_residual(tuple(sts), derived_linear)


# the fluid terms of the entropy identity on the unit disk: a Neumann c (grad c
# . (x, y) = 0.3 x (3 - 3 r^2) / 2 vanishes at r = 1) in the strained no-slip
# flow u = grad-perp psi, with psi vanishing to second order at r = 1
FLUID_A, FLUID_AMP = 4.0, 0.3


def fluid_c(x, y):
    return 1.0 + FLUID_AMP * x * (3.0 - x * x - y * y) / 2.0


def fluid_psi(x, y):
    return FLUID_A * (1.0 - x * x - y * y) ** 2 * x * y


def fluid_terms_exact():
    """(t1, t2) = (-1/2 int g'/g^2 |grad c|^2 u.grad c, int lap c / g u.grad c) for g(c) = c.

    Polar quadrature: Gauss-Legendre in r, the periodic trapezoid rule in theta.
    """
    r, wr = np.polynomial.legendre.leggauss(48)
    r, wr = 0.5 * (r + 1.0), 0.5 * wr
    th = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    R, TH = np.meshgrid(r, th, indexing="ij")
    x, y = R * np.cos(TH), R * np.sin(TH)
    q = 1.0 - x * x - y * y
    u = FLUID_A * x * q * (q - 4.0 * y * y)      # d psi / dy
    v = -FLUID_A * y * q * (q - 4.0 * x * x)     # -d psi / dx
    cx, cy = FLUID_AMP * (3.0 - 3.0 * x * x - y * y) / 2.0, -FLUID_AMP * x * y
    c = fluid_c(x, y)
    u_dot_gc = u * cx + v * cy
    w = wr[:, None] * R * (2.0 * np.pi / th.size)
    t1 = -0.5 * np.sum(w * (cx * cx + cy * cy) * u_dot_gc / c ** 2)
    t2 = np.sum(w * (-4.0 * FLUID_AMP * x) * u_dot_gc / c)
    return t1, t2


class TestIdentityFluidTerms:
    def test_transport_terms_against_quadrature(self, disk_domain, derived_linear):
        # linear model: g = c, g' = 1
        exact = np.array(fluid_terms_exact())
        assert np.all(np.abs(exact) > 1e-3)
        errs = []
        for n in (40, 80):
            g = classify_cells(disk_domain, 1.0 / n)
            st = SimState(ScalarField.full(g, 1.0), scalar_from_function(g, fluid_c),
                          VectorField.from_stream(g, fluid_psi), ScalarField.zeros(g), 0.0)
            t1, t2, _, _ = identity_source_terms(Frame(st, derived_linear))
            errs.append(np.abs(np.array([t1, t2]) / exact - 1.0))
        assert np.all(errs[1] < 0.02)
        assert np.all(np.log2(errs[0] / errs[1]) >= 1.0)


class TestPointwiseHessian:
    def test_random_fields(self, disk64):
        rng = np.random.default_rng(41)
        for _ in range(10):
            f = ScalarField(disk64, np.where(disk64.active,
                                             rng.standard_normal((disk64.nx, disk64.ny)), 0.0))
            assert hessian_pointwise_violation(f) <= 1e-10


class TestTrajectoryChecks:
    def _record(self, disk64, rows):
        rec = DiagnosticsRecord(disk64, n_inf=1.0, c0_max=1.0)
        for r in rows:
            base = {k: 0.0 for k in
                    ("t", "mass", "c_max", "entropy_n", "grad_psi_sq", "fisher", "hess_rho",
                     "grad_c_4", "u_l2", "grad_u_l2", "psi_l2", "n_l65_sq", "boundary_term",
                     "ms_violation", "conv_n", "u_sup", "identity_residual", "clamped_frac")}
            base.update(r)
            rec.rows.append(base)
        return rec

    def test_energy_constant_zero_at_steady_state(self, disk64):
        rows = [{"t": float(k), "entropy_n": 1.0, "psi_l2": 0.5} for k in range(5)]
        rec = self._record(disk64, rows)
        rep = check_energy_inequality(rec)
        assert rep.passed
        assert rep.extra["C"] == 0.0

    def test_energy_constant_positive_growth(self, disk64):
        rows = [{"t": float(k), "entropy_n": 0.1 * k, "psi_l2": 1.0} for k in range(5)]
        rec = self._record(disk64, rows)
        rep = check_energy_inequality(rec)
        assert rep.passed
        assert rep.extra["C"] == pytest.approx(0.1)

    def test_convergence_monitor_steady(self, disk64):
        rows = [{"t": float(k), "conv_n": 0.0, "c_max": 0.0, "u_sup": 0.0} for k in range(6)]
        rec = self._record(disk64, rows)
        verdict = convergence_monitor(rec, amplitudes=(1.0, 1.0, 1.0))
        assert verdict.passed
        assert verdict.c_max_monotone

    def test_convergence_monitor_rejects_cmax_growth(self, disk64):
        rows = [{"t": 0.0, "c_max": 1.0}, {"t": 1.0, "c_max": 1.5}, {"t": 2.0, "c_max": 0.0}]
        rec = self._record(disk64, rows)
        verdict = convergence_monitor(rec, amplitudes=(1.0, 1.0, 1.0))
        assert not verdict.passed


class TestRandomFieldGenerator:
    def test_deterministic(self, disk64, lin64):
        (a,) = random_neumann_field(disk64, lin64, np.random.default_rng(77))
        (b,) = random_neumann_field(disk64, lin64, np.random.default_rng(77))
        assert np.array_equal(a.data, b.data)

    @staticmethod
    def chunked_and_single(geom, lin, chunks, **kw):
        """The fields of one seed drawn in ``chunks``, and the same fields drawn one by one."""
        rng = np.random.default_rng(0)
        batched = [f for k in chunks for f in random_neumann_field(geom, lin, rng, count=k, **kw)]
        rng = np.random.default_rng(0)
        single = [f for _ in range(sum(chunks)) for f in random_neumann_field(geom, lin, rng, **kw)]
        assert len(batched) == len(single)
        return batched, single

    @pytest.mark.parametrize("chunks", [(8, 3), (5,), (4, 4, 1)])
    def test_chunk_draws_the_noise_of_single_draws(self, star64, chunks):
        # with identity smoothing, a chunk is its fields drawn in turn, bit for bit
        class NoSmoothing:
            def helmholtz_solve(self, tau, f):
                return f

        for a, b in zip(*self.chunked_and_single(star64, NoSmoothing(), chunks, n_smooth=1)):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("chunks", [(8, 3), (4, 4, 1)])
    def test_chunk_smooths_like_single_draws(self, star64, chunks):
        # a block solve can round a cell's last bit differently (BLAS kernels);
        # at seed 0 some of these fields can differ from their single draws
        amplitude = 0.3
        batched, single = self.chunked_and_single(star64, LinearSystems(star64), chunks,
                                                  amplitude=amplitude, n_smooth=3)
        for a, b in zip(batched, single):
            assert np.abs(a.data - b.data).max() <= 1e-15 * amplitude

    def test_amplitude_and_mean(self, disk64, lin64):
        (f,) = random_neumann_field(disk64, lin64, np.random.default_rng(78), amplitude=0.25)
        vals = f.data[disk64.active]
        assert np.abs(vals).max() == pytest.approx(0.25, rel=1e-12)
        assert abs(vals.mean()) < 0.05
