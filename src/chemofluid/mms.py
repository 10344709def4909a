"""Manufactured-solution verification of the coupled discretization.

A smooth exact solution compatible with every boundary condition on the disk
of radius R (bump profiles with vanishing radial derivative for n and c, a
stream-function velocity with a triple zero at the wall) is substituted into
the equations; the leftover source terms are injected into the time stepper
and the numerical solution is compared against the exact one under grid/step
refinement. First-order IMEX splitting with the first-order embedded boundary
should show L-infinity convergence at order about one for every variable.

The substitution is done in exact arithmetic. Every field and source is a
polynomial with exact rational coefficients (``fractions.Fraction``, so the
standard library alone) in x, y and three time profiles,

    a = cos(pi t),  b = sin(pi t / 2 + 1/3),  q = sin(pi t / 3 + 1/2),

and their t-derivatives da, db, dq (d/dt is the chain rule through the
profiles). So each is separable in time, sum_k T_k(t) P_k(x, y) over a few
monomials T_k in the profiles: a grid evaluates the spatial factors P_k once,
and a step only scales and sums them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import LevelSetDomain, classify_cells
from chemofluid.model import KineticsModel, linear_model
from chemofluid.solver import LinearSystems, SimState, SolverConfig, StepClock, step


@dataclass
class ManufacturedSolution:
    """Exact fields and the matching sources, each a binder to points.

    The exact fields ``n``, ``c``, ``u``, ``v`` and each ``sources`` entry
    ('n', 'c', 'u', 'v') map points to a function of time,
    (X, Y) -> (t -> array of the points' shape): bound to a grid's points
    once, they evaluate their spatial factors there once. Bound sources are
    the form ``solver.step`` takes.
    """

    n: callable
    c: callable
    u: callable
    v: callable
    sources: dict
    model: KineticsModel
    radius: float


class _Poly:
    """A polynomial with exact rational coefficients: {exponent tuple: Fraction}.

    Zero coefficients are dropped, so the zero polynomial has no terms. An int
    or a Fraction on either side of + - * acts as a constant polynomial, and
    is the only divisor / takes.
    """

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs: dict, nvars: int):
        self.coeffs = {e: c for e, c in coeffs.items() if c}
        self.nvars = nvars

    def _lift(self, other) -> _Poly:
        if isinstance(other, _Poly):
            return other
        return _Poly({(0,) * self.nvars: Fraction(other)}, self.nvars)

    def __add__(self, other) -> _Poly:
        out = dict(self.coeffs)
        for e, c in self._lift(other).coeffs.items():
            out[e] = out.get(e, 0) + c
        return _Poly(out, self.nvars)

    __radd__ = __add__

    def __neg__(self) -> _Poly:
        return _Poly({e: -c for e, c in self.coeffs.items()}, self.nvars)

    def __sub__(self, other) -> _Poly:
        return self + -self._lift(other)

    def __rsub__(self, other) -> _Poly:
        return -self + other

    def __mul__(self, other) -> _Poly:
        out = {}
        for e2, c2 in self._lift(other).coeffs.items():
            for e1, c1 in self.coeffs.items():
                e = tuple(i + j for i, j in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return _Poly(out, self.nvars)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> _Poly:
        return self * (1 / Fraction(scalar))

    def __pow__(self, k: int) -> _Poly:
        out = self._lift(1)
        for _ in range(k):
            out = out * self
        return out

    def diff(self, gen: _Poly) -> _Poly:
        """The partial derivative by the generator ``gen``."""
        (unit,) = gen.coeffs
        i = unit.index(1)
        return _Poly({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                      for e, c in self.coeffs.items() if e[i]}, self.nvars)

    def terms(self) -> list:
        """(exponents, coefficient) pairs in descending lexicographic order of the exponents."""
        return sorted(self.coeffs.items(), reverse=True)


def _ring(nvars: int) -> list:
    """The generators of the polynomial ring in ``nvars`` variables."""
    return [_Poly({tuple(int(k == i) for k in range(nvars)): Fraction(1)}, nvars)
            for i in range(nvars)]


def _profiles(t: float) -> tuple:
    """(a, da, b, db, q, dq) at time t, the ring's generators after x, y."""
    pi = math.pi
    return (math.cos(pi * t), -pi * math.sin(pi * t),
            math.sin(pi * t / 2 + 1 / 3), pi / 2 * math.cos(pi * t / 2 + 1 / 3),
            math.sin(pi * t / 3 + 1 / 2), pi / 3 * math.cos(pi * t / 3 + 1 / 2))


def _separable(poly):
    """Binder (X, Y) -> (t -> array) of a polynomial in x, y and the profiles.

    The terms are grouped by their time monomial T_k; binding evaluates each
    spatial factor P_k at the points once (Horner's rule on the float
    coefficients), and the returned closure sums T_k(t) P_k.
    """
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
            term = np.empty(X.shape)   # each T_k(t) P_k in turn
            for powers, values in spatial:
                np.multiply(math.prod(p ** e for p, e in zip(prof, powers)), values, out=term)
                out += term
            return out

        return at

    return bind


def _exact(value: float) -> Fraction:
    """The exact binary value of a float as a rational."""
    return Fraction(float(value))


def _polynomials(radius: float, kappa_ns: float, grav: float, amp_n: float, amp_c: float,
                 amp_u: float, tilt: float) -> dict:
    """The exact fields 'n', 'c', 'u', 'v' and their sources 's_n' ... 's_v'.

    Polynomials in the generators x, y, a, da, b, db, q, dq of ``_ring(8)``;
    the arguments are those of ``build_manufactured``.
    """
    x, y, a, da, b, db, q, dq = _ring(8)
    R2 = _exact(radius) ** 2
    kappa, G = _exact(kappa_ns), _exact(grav)
    r2 = x ** 2 + y ** 2
    # d(bump)/dr = 0 at r = R: w peaks there, and the tilt term has a double zero
    bump = r2 * (2 * R2 - r2) / R2 ** 2 + _exact(tilt) * x * (R2 - r2) ** 2 / R2 ** 2
    n_e = 1 + _exact(amp_n) * a * bump / 2
    c_e = 1 + _exact(amp_c) * b * bump / 2
    psi = _exact(amp_u) * q * (R2 - r2) ** 3 / R2 ** 3
    u_e = psi.diff(y)
    v_e = -psi.diff(x)

    def d_dt(f):
        return f.diff(a) * da + f.diff(b) * db + f.diff(q) * dq

    def lap(f):
        return f.diff(x).diff(x) + f.diff(y).diff(y)

    def adv(f):
        return u_e * f.diff(x) + v_e * f.diff(y)

    # linear model: chi = 1, f(s) = s; potential phi = -G y
    return {
        "n": n_e, "c": c_e, "u": u_e, "v": v_e,
        "s_n": (d_dt(n_e) + adv(n_e) - lap(n_e)
                + (n_e * c_e.diff(x)).diff(x) + (n_e * c_e.diff(y)).diff(y)),
        "s_c": d_dt(c_e) + adv(c_e) - lap(c_e) + n_e * c_e,
        "s_u": d_dt(u_e) - lap(u_e) - kappa * adv(u_e),
        "s_v": d_dt(v_e) - lap(v_e) - kappa * adv(v_e) + G * n_e,
    }


def build_manufactured(radius: float = 1.0, kappa_ns: float = 1.0, grav: float = 0.5,
                       amp_n: float = 0.3, amp_c: float = 0.2, amp_u: float = 0.25,
                       tilt: float = 0.0) -> ManufacturedSolution:
    """Time-periodic manufactured solution on the disk for the linear model.

    n and c ride on the Neumann-compatible radial bump w = r^2 (2 R^2 - r^2)
    plus ``tilt`` x (R^2 - r^2)^2 (both over R^4), u is the curl of
    (R^2 - r^2)^3 scaled to peak speed about amp_u. The velocity is tangential
    to the circles r = const, so it transports n and c only when tilt != 0.
    Sources follow the implemented momentum convention
    u_t = lap u + kappa (u.grad) u + n grad(phi) - grad p  with p = 0.
    """
    p = _polynomials(radius, kappa_ns, grav, amp_n, amp_c, amp_u, tilt)
    return ManufacturedSolution(
        n=_separable(p["n"]), c=_separable(p["c"]), u=_separable(p["u"]), v=_separable(p["v"]),
        sources={k: _separable(p["s_" + k]) for k in ("n", "c", "u", "v")},
        model=linear_model(G=grav, kappa_ns=kappa_ns), radius=radius)


def run_manufactured(ms: ManufacturedSolution, n_side: int, end_time: float,
                     dt_ratio: float = 0.1):
    """Integrate with injected sources.

    Returns the sup-norm errors for n, c and u, the grid spacing ``h`` and the
    number of ``steps`` taken. Each exact field and source is bound to its
    grid points once.
    Not ``runner.trajectory``: the level is fixed, and ``perfbench`` times ``mms.step``.
    """
    dom = LevelSetDomain.disk(ms.radius)
    side = dom.bbox[1] - dom.bbox[0]
    g = classify_cells(dom, side / n_side)
    dt = dt_ratio * g.h
    cfg = SolverConfig(dt_max=dt)
    lin = LinearSystems(g)
    X, Y = g.cell_centers()
    Xu, Yu = np.meshgrid(g.xn, g.yc, indexing="ij")
    Xv, Yv = np.meshgrid(g.xc, g.yn, indexing="ij")
    points = {"n": (X, Y), "c": (X, Y), "u": (Xu, Yu), "v": (Xv, Yv)}
    sources = {k: ms.sources[k](*xy) for k, xy in points.items()}
    exact = {k: getattr(ms, k)(*xy) for k, xy in points.items()}
    n0 = ScalarField(g, np.where(g.active, exact["n"](0.0), 0.0))
    c0 = ScalarField(g, np.where(g.active, exact["c"](0.0), 0.0))
    u0 = VectorField.zeros(g)
    u0.u[:] = np.where(g.fluid_face_x, exact["u"](0.0), 0.0)
    u0.v[:] = np.where(g.fluid_face_y, exact["v"](0.0), 0.0)
    state = SimState(n0, c0, u0, ScalarField.zeros(g), 0.0)
    clock = StepClock(dt, end_time)
    while not clock.done:
        state = step(state, cfg, ms.model, lin, dt=clock.advance(dt), sources=sources, level=dt)
        state.t = clock.t
    T = state.t
    act = g.active
    err_n = float(np.abs(state.n.data - np.where(act, exact["n"](T), 0.0))[act].max())
    err_c = float(np.abs(state.c.data - np.where(act, exact["c"](T), 0.0))[act].max())
    eu = np.abs(state.u.u - np.where(g.fluid_face_x, exact["u"](T), 0.0))[g.fluid_face_x]
    ev = np.abs(state.u.v - np.where(g.fluid_face_y, exact["v"](T), 0.0))[g.fluid_face_y]
    err_u = float(max(eu.max(initial=0.0), ev.max(initial=0.0)))
    return {"n": err_n, "c": err_c, "u": err_u, "h": g.h, "steps": clock.steps}


def convergence_study(resolutions=(32, 64, 128), end_time: float = 0.25,
                      kappa_ns: float = 1.0, dt_ratio: float = 0.1) -> dict:
    """Errors and observed orders across a refinement ladder.

    Returns {"errors": [per-level dict], "orders": {"n": [...], ...}}.
    """
    if len(resolutions) < 2:
        raise ValueError("need at least 2 resolutions for a convergence study")
    ms = build_manufactured(kappa_ns=kappa_ns)
    errors = [run_manufactured(ms, n, end_time, dt_ratio) for n in resolutions]
    orders = {}
    for var in ("n", "c", "u"):
        orders[var] = [float(np.log2(errors[k][var] / errors[k + 1][var]))
                       for k in range(len(errors) - 1)]
    return {"errors": errors, "orders": orders}
