import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import chemofluid
from chemofluid.fields import ScalarField, gradient_neumann, laplacian_neumann
from chemofluid.model import (
    KineticsModel,
    ModelError,
    _cubic_hermite,
    _horner,
    build_derived,
    buoyancy_force,
    linear_model,
    polynomial_model,
    validate_assumptions,
)

from conftest import scalar_from_function

MODEL_CALLABLES = ("chi", "chi_p", "chi_pp", "f", "f_p", "f_pp", "g")


def quotient_rule(model, s):
    # g, g', g'' of g = f/chi written out term by term, each callable called afresh
    g = model.f(s) / model.chi(s)
    chi, f = model.chi(s), model.f(s)
    g_prime = (model.f_p(s) * chi - f * model.chi_p(s)) / chi ** 2
    chi_p, f_p = model.chi_p(s), model.f_p(s)
    num = (model.f_pp(s) * chi - f * model.chi_pp(s)) * chi - 2.0 * chi_p * (f_p * chi - f * chi_p)
    return g, g_prime, num / chi ** 3


def inverse_chi_model():
    # chi = 1/(1+s), f = s: g = s(1+s) has g'' = 2 > 0
    arr = lambda s: np.asarray(s, dtype=float)
    return KineticsModel(
        chi=lambda s: 1.0 / (1.0 + arr(s)),
        chi_p=lambda s: -1.0 / (1.0 + arr(s)) ** 2,
        chi_pp=lambda s: 2.0 / (1.0 + arr(s)) ** 3,
        f=lambda s: arr(s),
        f_p=lambda s: np.ones_like(arr(s)),
        f_pp=lambda s: np.zeros_like(arr(s)))


def saturating_model(G: float = 1.0, kappa_ns: float = 0.0) -> KineticsModel:
    # chi = 1, f(s) = s/(1+s): saturating consumption, concave f/chi
    arr = lambda s: np.asarray(s, dtype=float)
    return KineticsModel(
        chi=lambda s: np.ones_like(arr(s)),
        chi_p=lambda s: np.zeros_like(arr(s)),
        chi_pp=lambda s: np.zeros_like(arr(s)),
        f=lambda s: arr(s) / (1.0 + arr(s)),
        f_p=lambda s: 1.0 / (1.0 + arr(s)) ** 2,
        f_pp=lambda s: -2.0 / (1.0 + arr(s)) ** 3,
        kappa_ns=kappa_ns, grav=G)


def lambda_linear_model(G: float = 1.0, kappa_ns: float = 0.0) -> KineticsModel:
    # chi = 1, f(s) = s written out as lambdas: the reference for linear_model
    arr = lambda s: np.asarray(s, dtype=float)
    return KineticsModel(
        chi=lambda s: np.ones_like(arr(s)), chi_p=lambda s: np.zeros_like(arr(s)),
        chi_pp=lambda s: np.zeros_like(arr(s)),
        f=lambda s: arr(s), f_p=lambda s: np.ones_like(arr(s)), f_pp=lambda s: np.zeros_like(arr(s)),
        kappa_ns=kappa_ns, grav=G)


class TestPolynomialEvaluator:
    """One Horner evaluator builds every model; it must cost nothing in bits."""

    rng = np.random.default_rng(17)
    INPUTS = {
        "2d": rng.uniform(0.0, 2.0, (257, 256)),
        "1d": np.linspace(0.0, 3.0, 101),
        "0d": np.asarray(0.7),
    }

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    def test_linear_model_equals_lambdas(self, kind):
        s = self.INPUTS[kind]
        mine, ref = linear_model(G=0.5, kappa_ns=1.0), lambda_linear_model(G=0.5, kappa_ns=1.0)
        assert (mine.grav, mine.kappa_ns) == (ref.grav, ref.kappa_ns)
        for name in MODEL_CALLABLES:
            got, want = getattr(mine, name)(s), getattr(ref, name)(s)
            assert type(got) is type(want), name
            assert np.shape(got) == np.shape(want) and got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        for got, want in zip(mine.g_derivatives(mine.values(s)), ref.g_derivatives(ref.values(s))):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", sorted(INPUTS))
    @pytest.mark.parametrize("make", [
        linear_model, lambda: polynomial_model((1.0, 0.25), (0.0, 1.0, -0.195, 0.1)),
        saturating_model, inverse_chi_model,
    ], ids=["linear", "cubic", "saturating", "inverse_chi"])
    def test_g_derivatives_match_quotient_rule(self, make, kind):
        s = self.INPUTS[kind]
        model = make()
        got, want = model.g_derivatives(model.values(s)), quotient_rule(model, s)
        assert len(got) == 3
        for name, a, b in zip(("g", "g'", "g''"), got, want):
            assert np.shape(a) == np.shape(b), name
            assert np.array_equal(a, b), name

    def test_identity_returns_its_input(self):
        s = self.INPUTS["2d"]
        assert linear_model().f(s) is s

    @pytest.mark.parametrize("coeffs", [
        (2.5,), (0.0,), (0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0), (0.0, 1.0),
        (0.5, -2.0, 1.0), (0.0, 1.0, -0.25), (1.0, -0.5, 0.25), (3.0, 0.0, -1.0, 0.125),
    ], ids=["constant", "zero", "all_zero", "trailing_zeros", "identity",
            "leading_one", "zero_constant_term", "quadratic", "cubic"])
    def test_matches_numpy_polynomial(self, coeffs):
        oracle = np.polynomial.Polynomial(coeffs)
        for s in (np.random.default_rng(3).uniform(-1.0, 3.0, (64, 48)), np.linspace(-1.0, 3.0, 41)):
            got = _horner(coeffs)(s)
            assert got.shape == s.shape and got.dtype == np.float64
            assert np.array_equal(got, oracle(s))

    def test_model_derivatives_match_numpy_polynomial(self):
        chi, f = (1.0, -0.5, 0.25), (0.0, 1.0, -0.25)
        model = polynomial_model(chi, f)
        s = np.linspace(0.0, 2.0, 201)
        for coeffs, names in ((chi, ("chi", "chi_p", "chi_pp")), (f, ("f", "f_p", "f_pp"))):
            for k, name in enumerate(names):
                oracle = np.polynomial.Polynomial(coeffs).deriv(k)
                assert np.array_equal(getattr(model, name)(s), oracle(s)), name


class TestValidator:
    def test_linear_passes(self):
        rep = validate_assumptions(linear_model(), 1.0)
        assert rep.passed

    def test_quadratic_consumption_fails_concavity(self):
        rep = validate_assumptions(polynomial_model([1.0], [0.0, 0.0, 1.0]), 1.0)
        assert not rep.passed
        assert any(c.name == "(f/chi)'' <= 0" for c in rep.failures)

    def test_inverse_chi_fails_concavity(self):
        rep = validate_assumptions(inverse_chi_model(), 1.0)
        assert not rep.passed
        assert any(c.name == "(f/chi)'' <= 0" for c in rep.failures)

    def test_saturating_passes(self):
        assert validate_assumptions(saturating_model(), 1.0).passed

    def test_finer_scan_agrees(self):
        # soundness: passing builtins still pass a 10^6-point scan
        for model in (linear_model(), saturating_model()):
            assert validate_assumptions(model, 1.0, n_samples=1_000_000).passed

    def test_report_has_all_six_conditions(self):
        rep = validate_assumptions(linear_model(), 2.0)
        assert len(rep.conditions) == 6

    def test_concavity_checked_on_table_range(self):
        # g'' = -0.39 + 0.6 s changes sign at s = 0.65: outside [0, c_max = 0.6]
        # but inside the psi/rho table range, which runs to just past 1
        rep = validate_assumptions(polynomial_model([1.0], [0.0, 1.0, -0.195, 0.1]), 0.6)
        [failed] = rep.failures
        assert failed.name == "(f/chi)'' <= 0"
        assert 0.6 < failed.worst_point <= 1.0 + 1e-12


class TestDerivedScalars:
    @pytest.mark.parametrize("model, c_max, psi, rho", [
        (linear_model(), 2.0, lambda s: 2 * (np.sqrt(s) - 1), np.log),
        # g = s (1 - s/4): a non-constant integrand in both table variables
        (polynomial_model([1.0], [0.0, 1.0, -0.25]), 1.5,
         lambda s: 2 * (np.arccos(1 - s / 2) - np.pi / 3),
         lambda s: np.log(s) - np.log(1 - s / 4) + np.log(3 / 4)),
    ], ids=["linear", "quadratic"])
    def test_closed_forms(self, model, c_max, psi, rho):
        der = build_derived(model, c_max)
        s = np.geomspace(1e-9, c_max, 2000)
        assert np.abs(der.psi(s) - psi(s)).max() < 1e-8
        assert np.abs(der.rho(s) - rho(s)).max() < 1e-8

    def test_model_calls_independent_of_knot_count(self):
        # the tables evaluate the model once per array, never per knot
        base = polynomial_model([1.0], [0.0, 1.0, -0.25])
        calls = []

        def f(s):
            calls.append(1)
            return base.f(s)

        build_derived(dataclasses.replace(base, f=f), 1.5)
        assert len(calls) <= 16

    def test_anchor(self, derived_linear):
        assert derived_linear.psi(1.0) == 0.0
        assert derived_linear.rho(1.0) == 0.0

    def test_monotone(self, derived_linear):
        s = np.geomspace(derived_linear.c_floor, derived_linear.top * 0.999, 50_000)
        assert np.all(np.diff(derived_linear.psi(s)) >= -1e-15)
        assert np.all(np.diff(derived_linear.rho(s)) >= -1e-15)

    def test_derivative_identity_at_knots(self, derived_linear):
        der = derived_linear
        s_psi, _, s_rho, _ = der.table
        for pts, fn, exact in ((s_psi[1:-1], der.psi, lambda s: 1 / np.sqrt(s)),
                               (s_rho[1:-1], der.rho, lambda s: 1 / s)):
            d = 3e-4 * pts
            lo = np.maximum(pts - d, der.c_floor)
            hi = np.minimum(pts + d, der.top)
            num = (fn(hi) - fn(lo)) / (hi - lo)
            rel = np.abs(num - exact(pts)) / np.abs(exact(pts))
            assert rel.max() < 1e-7

    def test_saturating_against_quadrature(self):
        der = build_derived(saturating_model(), 1.5)
        g = lambda s: s / (1.0 + s)
        for sv in (0.01, 0.3, 1.4):
            psi_q, _ = quad(lambda x: 1 / np.sqrt(g(x)), 1.0, sv, epsrel=1e-12)
            rho_q, _ = quad(lambda x: 1 / g(x), 1.0, sv, epsrel=1e-12)
            assert der.psi(sv) == pytest.approx(psi_q, abs=1e-9)
            assert der.rho(sv) == pytest.approx(rho_q, abs=1e-8)

    def test_clamp_below_floor(self, derived_linear):
        assert derived_linear.psi(0.0) == derived_linear.psi(derived_linear.c_floor)
        assert np.isfinite(derived_linear.rho(0.0))

    def test_invalid_model_rejected(self):
        for model in (inverse_chi_model(),                      # g'' = 2 > 0
                      polynomial_model([1.0], [0.0, -1.0])):    # f < 0
            with pytest.raises(ModelError):
                build_derived(model, 1.0)

    def test_anchor_outside_table_rejected(self):
        # c_max below the floor 1e-10: the table cannot reach down to c_max
        with pytest.raises(ValueError):
            build_derived(linear_model(), 5e-11)


class TestCubicHermite:
    """The NumPy evaluator is bit-identical to scipy's CubicHermiteSpline."""

    @staticmethod
    def assert_matches_scipy(x, y, dydx, rng):
        from scipy.interpolate import CubicHermiteSpline
        oracle = CubicHermiteSpline(x, y, dydx)
        mine = _cubic_hermite(x, y, dydx)
        width = x[-1] - x[0]
        points = np.concatenate([
            x,                                                   # knots
            0.5 * (x[1:] + x[:-1]),                              # midpoints
            np.nextafter(x, -np.inf), np.nextafter(x, np.inf),   # either side of each knot
            rng.uniform(x[0], x[-1], 200_000),
            x[0] - width * rng.random(100), x[-1] + width * rng.random(100),  # off the table
        ])
        assert np.array_equal(mine(points), oracle(points))
        grid = points[:4096].reshape(64, 64)
        assert np.array_equal(mine(grid), oracle(grid))

    @pytest.mark.parametrize("model", [linear_model(), saturating_model()],
                             ids=["linear", "saturating"])
    @pytest.mark.parametrize("c_max", [0.5, 1.0, 2.0])
    def test_tables(self, model, c_max):
        der = build_derived(model, c_max)
        s_psi, psi_tab, s_rho, rho_tab = der.table
        t, ell = np.sqrt(s_psi), np.log(s_rho)
        rng = np.random.default_rng(5)
        self.assert_matches_scipy(t, psi_tab, 2.0 * t / np.sqrt(model.g(t * t)), rng)
        self.assert_matches_scipy(ell, rho_tab, s_rho / model.g(s_rho), rng)

    def test_clustered_knots(self):
        # uneven spacing down to one ulp apart
        rng = np.random.default_rng(6)
        x = np.unique(np.concatenate([rng.random(300) ** 3, [0.5, np.nextafter(0.5, 1.0)]]))
        y, dydx = np.cumsum(rng.random(x.size)), rng.standard_normal(x.size)
        self.assert_matches_scipy(x, y, dydx, rng)

    def test_no_scipy_interpolate_in_a_run(self, tmp_path):
        code = textwrap.dedent("""
            import sys
            from chemofluid.config import RunConfig
            from chemofluid.model import build_derived, linear_model
            from chemofluid.runner import run_simulation
            build_derived(linear_model(), 2.0)
            rc = RunConfig()
            rc.override("grid.n", 32)
            rc.override("solver.end_time", 0.2)
            rc.override("output.every_time", 0.05)
            run_simulation(rc, sys.argv[1])
            assert "scipy.interpolate" not in sys.modules
        """)
        src = str(Path(chemofluid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "summary.json").exists()


class TestTransformFieldIdentity:
    def test_sqrt_g_lap_rho_relation(self, disk64, derived_linear):
        # sqrt(g) lap rho(c) = lap psi(c) - g' |grad c|^2 / (2 g^(3/2))
        c = scalar_from_function(
            disk64, lambda x, y: 1.2 + 0.3 * np.cos(1.5 * x) * np.cos(y))
        der = derived_linear
        rho_c = ScalarField(disk64, np.where(disk64.active, der.rho(c.data), 0.0))
        psi_c = ScalarField(disk64, np.where(disk64.active, der.psi(c.data), 0.0))
        cx, cy = gradient_neumann(c)
        grad_c2 = cx.data ** 2 + cy.data ** 2
        g, g_prime, _ = der.model.g_derivatives(der.model.values(der.clamp(c.data)))
        lhs = np.sqrt(g) * laplacian_neumann(rho_c).data
        rhs = laplacian_neumann(psi_c).data - 0.5 * g_prime * grad_c2 / g ** 1.5
        ok = disk64.stencil_ok
        scale = np.abs(lhs[ok]).max()
        assert np.abs(lhs[ok] - rhs[ok]).max() < 0.02 * scale


class TestBuoyancy:
    def test_zero_density(self, disk64):
        f = buoyancy_force(ScalarField.zeros(disk64), linear_model(G=2.0))
        assert np.abs(f.u).max() == 0.0
        assert np.abs(f.v).max() == 0.0

    def test_uniform_density_vertical_force(self, disk64):
        n0 = 1.7
        G = 0.9
        f = buoyancy_force(ScalarField.full(disk64, n0), linear_model(G=G))
        assert np.abs(f.u).max() == 0.0
        fy = f.v[disk64.fluid_face_y]
        assert np.abs(fy - (-n0 * G)).max() < 1e-13

    def test_nonuniform_density_face_means(self, disk64):
        G = 0.7
        X, Y = disk64.cell_centers()
        n = ScalarField(disk64, np.where(disk64.active, 1.0 + 0.5 * np.sin(3 * X) * np.cos(2 * Y), 0.0))
        f = buoyancy_force(n, linear_model(G=G))
        assert not f.u.any()
        fluid = disk64.fluid_face_y
        expect = 0.5 * (n.data[:, 1:] + n.data[:, :-1]) * -G
        assert np.array_equal(f.v[:, 1:-1][fluid[:, 1:-1]], expect[fluid[:, 1:-1]])
        assert not f.v[~fluid].any()

    def test_zero_gravity(self, disk64):
        f = buoyancy_force(ScalarField.full(disk64, 1.0), linear_model(G=0.0))
        assert np.abs(f.v).max() == 0.0
