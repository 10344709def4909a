import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval2d
import sympy as sym
from sympy import QQ
from sympy.polys.rings import ring

import chemofluid
from chemofluid.cli import main
from chemofluid.mms import (_polynomials, _profiles, _ring, _separable, build_manufactured,
                            convergence_study, run_manufactured)


def reference_manufactured(radius=1.0, kappa_ns=1.0, grav=0.5, amp_n=0.3, amp_c=0.2,
                           amp_u=0.25, tilt=0.0) -> dict:
    """Fields and sources as sympy expression trees, each (x, y, t) -> array.

    The manufactured solution written out with sympy's own diff and lambdify,
    independent of the polynomial ring: the oracle for build_manufactured.
    """
    x, y, t = sym.symbols("x y t")
    r2 = x * x + y * y
    R2 = radius * radius
    w = r2 * (2 * R2 - r2) / R2 ** 2 + tilt * x * (R2 - r2) ** 2 / R2 ** 2
    n_e = 1 + amp_n * sym.cos(sym.pi * t) * w / 2
    c_e = 1 + amp_c * sym.sin(sym.pi * t / 2 + sym.Rational(1, 3)) * w / 2
    psi = amp_u * sym.sin(sym.pi * t / 3 + sym.Rational(1, 2)) * (R2 - r2) ** 3 / R2 ** 3
    u_e = sym.diff(psi, y)
    v_e = -sym.diff(psi, x)
    phi = -grav * y

    def lap(f):
        return sym.diff(f, x, 2) + sym.diff(f, y, 2)

    chem_x = n_e * sym.diff(c_e, x)
    chem_y = n_e * sym.diff(c_e, y)
    s_n = (sym.diff(n_e, t) + u_e * sym.diff(n_e, x) + v_e * sym.diff(n_e, y)
           - lap(n_e) + sym.diff(chem_x, x) + sym.diff(chem_y, y))
    s_c = (sym.diff(c_e, t) + u_e * sym.diff(c_e, x) + v_e * sym.diff(c_e, y)
           - lap(c_e) + n_e * c_e)
    adv_u = u_e * sym.diff(u_e, x) + v_e * sym.diff(u_e, y)
    adv_v = u_e * sym.diff(v_e, x) + v_e * sym.diff(v_e, y)
    s_u = sym.diff(u_e, t) - lap(u_e) - kappa_ns * adv_u - n_e * sym.diff(phi, x)
    s_v = sym.diff(v_e, t) - lap(v_e) - kappa_ns * adv_v - n_e * sym.diff(phi, y)

    def fn(expr):
        f = sym.lambdify((x, y, t), expr, modules="numpy")
        return lambda X, Y, T: np.broadcast_to(np.asarray(f(X, Y, T), dtype=float), np.shape(X))

    exprs = {"n": n_e, "c": c_e, "u": u_e, "v": v_e,
             "s_n": s_n, "s_c": s_c, "s_u": s_u, "s_v": s_v}
    return {name: fn(expr) for name, expr in exprs.items()}


# n and c off the circles the velocity follows, so u.grad n and u.grad c are nonzero
TILTED = {"tilt": 1.0, "amp_u": 1.0}

PARAMETER_SETS = {
    "defaults": {},
    "pure_heat": {"kappa_ns": 0.0, "grav": 0.0, "amp_u": 0.0, "amp_c": 0.0},
    "stokes": {"kappa_ns": 0.0},
    "tilted": TILTED,
}


class CountingSources(dict):
    """ms.sources with each entry wrapped in a call-counting pass-through."""

    def __init__(self, sources):
        self.calls = dict.fromkeys(sources, 0)

        def counted(key, f):
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                return f(*args, **kwargs)
            return wrapper

        super().__init__({k: counted(k, f) for k, f in sources.items()})


class TestManufactured:
    def test_exact_fields_satisfy_boundary_conditions(self):
        ms = build_manufactured()
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        xb, yb = np.cos(th), np.sin(th)
        # u vanishes on the wall
        assert np.abs(ms.u(xb, yb)(0.3)).max() < 1e-12
        assert np.abs(ms.v(xb, yb)(0.3)).max() < 1e-12
        # radial derivative of n and c vanishes on the wall
        eps = 1e-6
        for f in (ms.n, ms.c):
            outer = f((1 + eps) * xb, (1 + eps) * yb)(0.3)
            inner = f((1 - eps) * xb, (1 - eps) * yb)(0.3)
            assert np.abs(outer - inner).max() / (2 * eps) < 1e-4

    def test_single_level_runs(self):
        ms = build_manufactured()
        errs = run_manufactured(ms, 32, end_time=0.1)
        assert errs["n"] < 0.05 and errs["c"] < 0.05 and errs["u"] < 0.05

    def test_two_level_error_drop(self):
        res = convergence_study(resolutions=(32, 64), end_time=0.15, kappa_ns=0.0)
        for var in ("c", "u"):
            assert res["errors"][0][var] / res["errors"][1][var] > 1.5

    def test_pure_heat_subproblem_first_order(self):
        # constant c and no flow leave n with pure sourced diffusion
        ms = build_manufactured(kappa_ns=0.0, grav=0.0, amp_u=0.0, amp_c=0.0)
        errs = [run_manufactured(ms, n, end_time=0.2) for n in (48, 96, 192)]
        order = np.log2(errs[0]["n"] / errs[-1]["n"]) / 2
        assert order >= 0.8, [e["n"] for e in errs]

    def test_tilted_solution_is_transported(self):
        # u is tangential to the circles r = const, so it carries a radial n or c
        # nowhere and a source missing u.grad n or u.grad c would go unseen; the
        # tilt moves n and c off those circles
        x, y, *_ = _ring(8)
        args = {"radius": 1.0, "kappa_ns": 1.0, "grav": 0.5, "amp_n": 0.3, "amp_c": 0.2}
        flat = _polynomials(**args, amp_u=0.25, tilt=0.0)
        tilted = _polynomials(**args, **TILTED)
        for f in ("n", "c"):
            for p, moved in ((flat, False), (tilted, True)):
                transport = p["u"] * p[f].diff(x) + p["v"] * p[f].diff(y)
                assert bool(transport.terms()) is moved, f
        ms = build_manufactured(**TILTED)
        errs = [run_manufactured(ms, n, end_time=0.1) for n in (48, 96)]
        for var in ("n", "c"):
            order = np.log2(errs[0][var] / errs[1][var])
            assert order >= 0.8, (var, [e[var] for e in errs])

    def test_steps_go_through_mms_step(self, monkeypatch):
        # every step of a manufactured run is a call of the name mms.step, so
        # wrapping that name (as a timing probe does) sees the whole run
        import chemofluid.mms as mms
        dts = []
        step = mms.step

        def counting_step(state, *args, **kwargs):
            dts.append(kwargs["dt"])
            return step(state, *args, **kwargs)

        monkeypatch.setattr(mms, "step", counting_step)
        n_side, end_time, dt_ratio = 32, 0.05, 0.1
        mms.run_manufactured(mms.build_manufactured(), n_side, end_time, dt_ratio)
        dt = dt_ratio * 2.4 / n_side   # the disk's bounding box has side 2.4
        assert len(dts) == math.ceil(end_time / dt - 1e-9)
        assert sum(dts) == pytest.approx(end_time, rel=1e-12)

    def test_every_step_is_checked(self, monkeypatch):
        # the runs compared against an exact solution keep the invariant guard
        import chemofluid.solver as solver
        checked = []
        check = solver._check_state

        def counting_check(state, dt):
            checked.append(dt)
            check(state, dt)

        monkeypatch.setattr(solver, "_check_state", counting_check)
        errs = run_manufactured(build_manufactured(), 32, 0.05)
        assert errs["steps"] > 0
        assert len(checked) == errs["steps"]

    @pytest.mark.parametrize("params", list(PARAMETER_SETS))
    def test_polynomials_match_sympy_reference(self, params):
        kwargs = PARAMETER_SETS[params]
        ms = build_manufactured(**kwargs)
        ref = reference_manufactured(**kwargs)
        rng = np.random.default_rng(7)
        X, Y = rng.uniform(-1.2, 1.2, size=(2, 200))   # the disk's bounding box
        times = (0.0, 0.1234, 0.25, 1.7)
        for name in ("n", "c", "u", "v"):
            for bind, ref_fn in ((getattr(ms, name), ref[name]), (ms.sources[name], ref["s_" + name])):
                at = bind(X, Y)
                got = np.array([at(t) for t in times])
                want = np.array([ref_fn(X, Y, t) for t in times])
                # the pure-heat velocity and its sources are all-zero polynomials:
                # they must bind to zeros of the points' shape, not a scalar
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name

    @pytest.mark.parametrize("end_time", [0.05, 0.1])
    def test_each_source_bound_once_per_grid(self, end_time):
        # a benchmark's tracer replaces each entry with a pass-through wrapper,
        # the same as here; every step must reuse the one binding per grid
        plain = run_manufactured(build_manufactured(), 32, end_time)
        ms = build_manufactured()
        ms.sources = counting = CountingSources(ms.sources)
        wrapped = run_manufactured(ms, 32, end_time)
        assert counting.calls == {"n": 1, "c": 1, "u": 1, "v": 1}
        assert wrapped == plain

    def test_level_reports_steps(self, tmp_path, capsys):
        n_side, end_time, dt_ratio = 32, 0.1, 0.1
        dt = dt_ratio * 2.4 / n_side
        errs = run_manufactured(build_manufactured(), n_side, end_time, dt_ratio)
        assert errs["steps"] == math.ceil(end_time / dt)
        cfg = tmp_path / "mms.cfg"
        cfg.write_text(f"mms.resolutions = 32, 40\nmms.end_time = {end_time}\n")
        main(["mms", "--config", str(cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[2] == "steps"
        assert [int(line.split()[2]) for line in lines[1:3]] == [
            math.ceil(end_time / (dt_ratio * 2.4 / n)) for n in (32, 40)]


# The MMS ring in three variables against sympy's, built from the same terms.
OURS = _ring(3)
_, *THEIRS = ring("x y z", QQ)


def random_terms(rng, count=4):
    """(exponents, numerator, denominator) of a few random terms."""
    return [(tuple(int(e) for e in rng.integers(0, 3, size=3)),
             int(rng.integers(-9, 10)), int(rng.integers(1, 8))) for _ in range(count)]


def build(gens, scalar, terms):
    return sum((scalar(num, den) * math.prod(g ** e for g, e in zip(gens, exps))
                for exps, num, den in terms), 0)


def assert_same(ours, theirs):
    """Exactly the same coefficients, as Fractions, in the same term order."""
    assert ours.terms() == [(tuple(m), c) for m, c in theirs.terms()]
    assert all(type(c) is Fraction for _, c in ours.terms())


class TestRing:
    def test_operations_match_sympy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            ta, tb = random_terms(rng), random_terms(rng)
            a, b = build(OURS, Fraction, ta), build(OURS, Fraction, tb)
            A, B = build(THEIRS, QQ, ta), build(THEIRS, QQ, tb)
            k = Fraction(int(rng.choice([-1, 1]) * rng.integers(1, 10)), int(rng.integers(1, 8)))
            K = QQ(k.numerator, k.denominator)
            pairs = [(a + b, A + B), (a - b, A - B), (a * b, A * B), (a ** 3, A ** 3),
                     (-a, -A), (2 - a, 2 - A), (k * a + 1, K * A + 1), (a / k, A / K)]
            pairs += [(a.diff(g), A.diff(G)) for g, G in zip(OURS, THEIRS)]
            for ours, theirs in pairs:
                assert_same(ours, theirs)

    def test_zero_polynomial_has_no_terms(self):
        x, y, z = OURS
        X, Y, Z = THEIRS
        a, A = x ** 2 * y - Fraction(1, 3) * z, X ** 2 * Y - QQ(1, 3) * Z
        for ours, theirs in ((a - a, A - A), (0 * a, 0 * A), (a * (x - x), A * (X - X)),
                             (x.diff(y), X.diff(Y)), (a - a + 1, A - A + 1)):
            assert_same(ours, theirs)
        assert (a - a).terms() == [] and (a - a + 1).terms() == [((0, 0, 0), 1)]


def parent_separable(poly):
    """``mms._separable`` as it was: a fresh product array per term."""
    groups = {}
    for (i, j, *powers), coeff in poly.terms():
        groups.setdefault(tuple(powers), []).append((i, j, float(coeff)))
    tables = []
    for powers, terms in groups.items():
        i, j, coeff = (np.array(column) for column in zip(*terms))
        dense = np.zeros((i.max() + 1, j.max() + 1))
        dense[i, j] = coeff
        tables.append((powers, dense))

    def bind(X, Y):
        X, Y = np.broadcast_arrays(np.asarray(X, dtype=float), np.asarray(Y, dtype=float))
        spatial = [(powers, polyval2d(X, Y, dense)) for powers, dense in tables]

        def at(t):
            prof = _profiles(t)
            out = np.zeros(X.shape)
            for powers, values in spatial:
                out += math.prod(p ** e for p, e in zip(prof, powers)) * values
            return out

        return at

    return bind


class TestSourceAccumulation:
    @pytest.mark.parametrize("name", ["s_n", "s_c", "s_u", "s_v"])
    def test_reused_buffer_keeps_the_bits(self, name):
        poly = _polynomials(1.0, 1.0, 0.5, 0.3, 0.2, 0.25, 0.3)[name]
        X, Y = np.meshgrid(np.linspace(-1.1, 1.1, 61), np.linspace(-1.1, 1.1, 53), indexing="ij")
        got, want = _separable(poly)(X, Y), parent_separable(poly)(X, Y)
        values = [got(t) for t in (0.0, 0.137, 0.25)]
        for t, value in zip((0.0, 0.137, 0.25), values):
            # each call returns its own array, which the next call leaves alone
            assert np.array_equal(value, want(t)), t


class TestRuntimeFootprint:
    def test_runtime_imports_neither_sympy_nor_ndimage(self):
        # sympy is the tests' oracle, and the interior is labelled through scipy.sparse
        code = textwrap.dedent("""
            import sys
            import chemofluid.cli, chemofluid.runner, chemofluid.mms
            from chemofluid.geometry import LevelSetDomain, classify_cells
            chemofluid.mms.build_manufactured(tilt=0.5)
            assert classify_cells(LevelSetDomain.star(), 0.1).n_components == 1
            loaded = [m for m in sys.modules
                      if m == "sympy" or m.startswith(("sympy.", "scipy.ndimage"))]
            assert not loaded, loaded
        """)
        src = str(Path(chemofluid.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
