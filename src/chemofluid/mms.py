"""Manufactured-solution verification of the coupled discretization.

A smooth exact solution compatible with every boundary condition on the disk
of radius R (bump profiles with vanishing radial derivative for n and c, a
stream-function velocity with a triple zero at the wall) is substituted into
the equations symbolically; the leftover source terms are injected into the
time stepper and the numerical solution is compared against the exact one
under grid/step refinement. First-order IMEX splitting with the first-order
embedded boundary should show L-infinity convergence at order about one for
every variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sym

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import LevelSetDomain, classify_cells
from chemofluid.model import KineticsModel, linear_model
from chemofluid.solver import LinearSystems, SimState, SolverConfig, StepClock, step


@dataclass
class ManufacturedSolution:
    """Exact fields and matching source callables, all (x, y, t) vectorized."""

    n: callable
    c: callable
    u: callable
    v: callable
    sources: dict
    model: KineticsModel
    radius: float


def build_manufactured(radius: float = 1.0, kappa_ns: float = 1.0, grav: float = 0.5,
                       amp_n: float = 0.3, amp_c: float = 0.2, amp_u: float = 0.25,
                       ) -> ManufacturedSolution:
    """Time-periodic manufactured solution on the disk for the linear model.

    n and c ride on the Neumann-compatible radial bump w = r^2 (2 R^2 - r^2),
    u is the curl of (R^2 - r^2)^3 scaled to peak speed about amp_u. Sources
    follow the implemented momentum convention
    u_t = lap u + kappa (u.grad) u + n grad(phi) - grad p  with p = 0.
    """
    x, y, t = sym.symbols("x y t")
    r2 = x * x + y * y
    R2 = radius * radius
    w = r2 * (2 * R2 - r2) / R2 ** 2              # dw/dr = 0 at r = R
    n_e = 1 + amp_n * sym.cos(sym.pi * t) * w / 2
    c_e = 1 + amp_c * sym.sin(sym.pi * t / 2 + sym.Rational(1, 3)) * w / 2
    psi = amp_u * sym.sin(sym.pi * t / 3 + sym.Rational(1, 2)) * (R2 - r2) ** 3 / R2 ** 3
    u_e = sym.diff(psi, y)
    v_e = -sym.diff(psi, x)
    phi = -grav * y

    def lap(f):
        return sym.diff(f, x, 2) + sym.diff(f, y, 2)

    # linear model: chi = 1, f(s) = s
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

        def wrapped(X, Y, T):
            out = f(X, Y, T)
            return np.broadcast_to(np.asarray(out, dtype=float), np.shape(X)).copy()

        return wrapped

    model = linear_model(G=grav, kappa_ns=kappa_ns)
    return ManufacturedSolution(
        n=fn(n_e), c=fn(c_e), u=fn(u_e), v=fn(v_e),
        sources={"n": fn(s_n), "c": fn(s_c), "u": fn(s_u), "v": fn(s_v)},
        model=model, radius=radius)


def run_manufactured(ms: ManufacturedSolution, n_side: int, end_time: float,
                     dt_ratio: float = 0.1):
    """Integrate with injected sources; returns sup-norm errors for n, c, u."""
    dom = LevelSetDomain.disk(ms.radius)
    side = dom.bbox[1] - dom.bbox[0]
    g = classify_cells(dom, side / n_side)
    dt = dt_ratio * g.h
    cfg = SolverConfig(dt_max=dt, end_time=end_time, check_invariants=False)
    lin = LinearSystems(g)
    X, Y = g.cell_centers()
    n0 = ScalarField(g, np.where(g.active, ms.n(X, Y, 0.0), 0.0))
    c0 = ScalarField(g, np.where(g.active, ms.c(X, Y, 0.0), 0.0))
    u0 = VectorField.zeros(g)
    Xu, Yu = np.meshgrid(g.xn, g.yc, indexing="ij")
    u0.u[:] = np.where(g.fluid_face_x, ms.u(Xu, Yu, 0.0), 0.0)
    Xv, Yv = np.meshgrid(g.xc, g.yn, indexing="ij")
    u0.v[:] = np.where(g.fluid_face_y, ms.v(Xv, Yv, 0.0), 0.0)
    state = SimState(n0, c0, u0, ScalarField.zeros(g), 0.0)
    clock = StepClock(dt, end_time)
    while not clock.done:
        state = step(state, cfg, ms.model, lin, dt=clock.advance(dt), sources=ms.sources)
        state.t = clock.t
    T = state.t
    act = g.active
    err_n = float(np.abs(state.n.data - np.where(act, ms.n(X, Y, T), 0.0))[act].max())
    err_c = float(np.abs(state.c.data - np.where(act, ms.c(X, Y, T), 0.0))[act].max())
    eu = np.abs(state.u.u - np.where(g.fluid_face_x, ms.u(Xu, Yu, T), 0.0))[g.fluid_face_x]
    ev = np.abs(state.u.v - np.where(g.fluid_face_y, ms.v(Xv, Yv, T), 0.0))[g.fluid_face_y]
    err_u = float(max(eu.max(initial=0.0), ev.max(initial=0.0)))
    return {"n": err_n, "c": err_c, "u": err_u, "h": g.h}


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
