"""Time integration of the coupled transport-fluid system.

One step advances (n, c, u, p) with first-order IMEX splitting in the order
c -> n -> u, so the cell drift always sees the freshest chemoattractant:

    c:  explicit upwind advection by u, implicit diffusion, then consumption
        in the ratio form c <- c / (1 + dt n f(c)/max(c, c_floor)) which keeps
        c nonnegative and its sup norm non-increasing;
    n:  explicit conservative upwind fluxes for the combined drift
        u + chi(c) grad c, implicit diffusion; total mass is preserved to
        solver accuracy and n stays nonnegative under the CFL bound;
    u:  explicit advection kappa (u.grad)u (skipped for kappa = 0, the Stokes
        regime), implicit viscosity, buoyancy n grad(phi), then a MAC
        pressure projection with mean-zero gauge.

The step size combines a per-cell outflow CFL bound (exactly the positivity
condition of the upwind fluxes, equal to cfl_safety * h / speed for
unidirectional flow) with dt_max; diffusion is implicit and imposes no bound.
Implicit systems are symmetric positive (semi)definite and solved by cached
sparse LU factorizations: SuperLU in symmetric mode with a
multiple-minimum-degree ordering of A + A^T and no pivoting, which roughly
halves the fill of the unsymmetric default, and with one-column panels,
which take 17-33% less time than SuperLU's default 20 columns at the same fill
on every system at 48^2 to 256^2. Factorizations are reused because
the step size is quantized to dt_max / 2^k and time is kept by StepClock as an
integer count of ticks dt_max / 2^K: a step is exactly one of those levels or
the exact remainder to an output or end time, so no rounding drift creates a
new step size. StepClock also owns the output schedule; two loops drive it,
``runner.trajectory`` (CFL levels) and ``mms.run_manufactured`` (fixed level).
Each passes ``step`` the level next to the step the clock allowed.

Every factored matrix is exactly symmetric, so a factor of A also solves with
A^T: a single right-hand side takes SuperLU's transposed solve, which takes
17-27% less time on every system at 96^2 to 256^2, and a block of right-hand
sides the untransposed one, which is faster for blocks (LinearSystems has the
numbers).

Memory is bounded by design: one slot per system, four systems (Helmholtz,
each viscous component, and the pressure Poisson system, whose factor does
not depend on the step and so is built once), so at most one factor per
system is ever held. A step the clock shortened to dt >= level/4, with one
right-hand side, is solved by conjugate gradients
preconditioned with its level's factor (the preconditioned spectrum lies in
[dt/level, 1]), so the remainder never needs a factor; the Helmholtz solution
then gets the constant that restores its discrete mass to round-off. Every
other solve (a step at its level, a shorter remainder, a CG that misses
PCG_TOL within PCG_MAXITER iterations, a block of right-hand sides) uses the
slot's factor at its step size, which replaces the held one when the step
size changed. The held factor is evicted before its replacement is built, and
the freed heap pages go back to the OS (``_trim_heap``), so the bound also
holds for the resident memory. LinearSystems counts its factorizations,
evictions and CG iterations (``factorizations``, ``evictions``,
``pcg_iterations``); a run reports them in the ``solver`` block of
summary.json.

Every step, manufactured-solution runs included, ends with the invariant check
(finite fields, discrete divergence, pressure gauge), or SolverAbort.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemofluid.fields import (
    ScalarField,
    VectorField,
    advect_conservative,
    chemotactic_face_velocity,
    divergence,
)
from chemofluid.geometry import GridGeometry, neighbour_graph
from chemofluid.model import KineticsModel, buoyancy_force

DT_UNDERFLOW = 1e-12
PROJECTION_TOL = 1e-8   # relative divergence left by the pressure projection
# A clock-shortened step of dt >= level * PCG_MIN_RATIO is solved by CG on its
# level's factor: the preconditioned spectrum lies in [dt/level, 1]. On the
# 256^2 star a factorization costs as much as 27-33 (transposed) solves, and CG
# takes 26-28 solves at 1/4 and 18-19 at 1/2 (random right-hand sides), so
# against one factorization CG breaks even near 1/4. Factoring the step,
# though, evicts the level's factor, so a run that goes on at its level factors
# that again: against those two factorizations CG wins at 1/4. CG stops at a
# relative residual of PCG_TOL; after PCG_MAXITER iterations the step is
# factored instead.
PCG_MIN_RATIO = 0.25
PCG_TOL = 1e-14
PCG_MAXITER = 50

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
except (AttributeError, OSError, TypeError):   # not glibc
    _malloc_trim = None


def _trim_heap():
    """Return the pages of freed heap blocks to the OS; a no-op without glibc.

    After its first large free, glibc serves blocks of that size from the
    heap instead of fresh mappings. When the next factor does not fit the
    hole an evicted one left, the hole would stay resident, and peak memory
    would depend on the heap's layout rather than on the one factor held.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


class SolverAbort(RuntimeError):
    """Unrecoverable state during time stepping (blow-up suspicion, lost invariants).

    ``t`` is always the start time of the step being attempted: ``cfl_dt``
    passes it, and ``step`` attaches it (with ``dt``) to any abort raised
    inside the step. Its text is built when printed, so it names the step the
    loop attaches.
    """

    def __init__(self, message, t=None, dt=None):
        super().__init__(message)
        self.step_index, self.t, self.dt = None, t, dt

    def __str__(self):
        ctx = [fmt % v for fmt, v in (("step %d", self.step_index), ("t = %.6g", self.t),
                                      ("dt = %.3g", self.dt)) if v is not None]
        return self.args[0] + (f" [{', '.join(ctx)}]" if ctx else "")


@dataclass
class SolverConfig:
    dt_max: float = 0.05
    cfl_safety: float = 0.5
    c_floor: float = 1e-10

    def __post_init__(self):
        if min(self.dt_max, self.cfl_safety) <= 0:
            raise ValueError("solver parameters must be positive")
        if self.cfl_safety > 1.0:
            raise ValueError("cfl_safety must be <= 1")


@dataclass
class SimState:
    n: ScalarField
    c: ScalarField
    u: VectorField
    p: ScalarField
    t: float
    # (c, chi, chi(c) grad c) as last given to keep_drift
    _drift: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def chemotactic_drift(self, chi: Callable) -> VectorField:
        """chi(c) grad c at the faces (``chemotactic_face_velocity``), built on first use.

        The state keeps it, and builds it again only when its c or chi is not
        the object it was built from.
        """
        held = self._drift
        if held is None or held[0] is not self.c or held[1] is not chi:
            self.keep_drift(chi, chemotactic_face_velocity(self.c, chi))
        return self._drift[2]

    def keep_drift(self, chi: Callable, drift: VectorField):
        """Hold ``drift``, chi(c) grad c of this state's c, for ``chemotactic_drift``.

        ``step`` builds the drift of its new c once, for ``step_n`` and for the
        new state, whose ``cfl_dt`` reads it.
        """
        self._drift = (self.c, chi, drift)

    def copy(self) -> "SimState":
        return SimState(self.n.copy(), self.c.copy(), self.u.copy(), self.p.copy(), self.t)


def _require_finite(state: SimState, error, prefix: str = ""):
    """Raise ``error`` naming the first of the state's n, c and velocity that holds a NaN or Inf."""
    for name, arrays in (("n", (state.n.data,)), ("c", (state.c.data,)),
                         ("velocity", (state.u.u, state.u.v))):
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise error(f"{prefix}{name} contains NaN/Inf")


def check_initial(state: SimState, tol: float = 1e-10):
    """Raise ValueError unless the first state is finite, its n and c positive on the
    domain, and its velocity discretely solenoidal and zero on and beyond the boundary."""
    g = state.n.geom
    act = g.active
    _require_finite(state, ValueError, "initial ")
    if np.any(state.n.data[act] <= 0.0):
        raise ValueError("n0 must be strictly positive on the domain")
    if np.any(state.c.data[act] <= 0.0):
        raise ValueError("c0 must be strictly positive on the domain")
    div = divergence(state.u)
    if np.abs(div.data).max() > tol * max(1.0, state.u.max_speed() / g.h):
        raise ValueError("u0 is not discretely divergence-free")
    off_x = state.u.u[~g.fluid_face_x]
    off_y = state.u.v[~g.fluid_face_y]
    if (off_x.size and np.abs(off_x).max() > 0) or (off_y.size and np.abs(off_y).max() > 0):
        raise ValueError("u0 must vanish on and beyond the boundary faces")


# ---------------------------------------------------------------------------
# implicit operators
# ---------------------------------------------------------------------------

def _laplacian(adj) -> sp.csr_matrix:
    """The graph Laplacian adj - diag(row sums): sum over neighbours w (x_nb - x).

    The row sums are taken over the graph's entries in their order, x-pairs
    before y-pairs, which fixes their rounding (unit weights sum exactly).
    """
    return (adj - sp.diags(np.asarray(adj.sum(axis=1)).ravel())).tocsr()


def _run_or_cells(cells: np.ndarray):
    """Sorted cell positions as a slice when they are one contiguous run, else as given.

    A slice indexes a view: the component's sums read the same numbers in the
    same order as through the index array, without the gather and scatter.
    """
    if cells[-1] - cells[0] == cells.size - 1:
        return slice(int(cells[0]), int(cells[-1]) + 1)
    return cells


class LinearSystems:
    """Sparse operators of the grid plus a bounded factorization cache.

    All four operators come from one assembler, the masked neighbour graph
    of ``geometry.neighbour_graph``; the pressure operator's is the
    geometry's ``interior_graph``, which its ``components`` label. Scalar
    diffusion acts on active cells in flux form (aperture-weighted faces over
    wet volumes), so the Helmholtz system is
    symmetrized as (V - dt*L) x = V*b with V the wet-volume diagonal. Every
    face between two active cells carries an aperture of at least
    geometry.APERTURE_FLOOR, so the active mask alone decides the graph.
    Viscosity acts per velocity component on the fluid faces with
    homogeneous Dirichlet walls. The pressure Poisson operator on interior
    cells is singular (constants per connected component); one cell per
    component is pinned to zero (its row and column become the identity, so
    the pinned matrix stays symmetric) and the solution is then shifted to
    mean zero per component.

    One slot per system, four systems: "helm", "visc_u", "visc_v" and
    "pressure" each hold one factor, a (dt, LU) pair. ``_solve`` applies the
    module's rule for steps the clock shortened. The pressure matrix does not
    depend on the step, so its slot is keyed by one constant and filled once.

    All four matrices are exactly symmetric (the neighbour graph enters in
    both orders, and the pressure pins keep their rows and columns alike), so
    ``lu.solve(b, trans="T")`` solves A x = b. Every one-column solve takes
    that path. SuperLU's untransposed solve makes two dense triangular solves
    and one dense product per supernode, however many columns; the transposed
    one walks the factor column by column with one small triangular solve per
    supernode. On the 256^2 star a vector takes 1.0-1.1 ms per system
    transposed and 1.2-1.4 ms untransposed. For a block of right-hand sides
    the dense calls pay off: 8 columns take 6.9 ms untransposed and 8.8 ms
    transposed, so blocks (``b.ndim == 2``, a one-column block too) are
    solved untransposed. An operator that is not symmetric would be solved
    wrongly, vector by vector; tests/test_solver.py asserts A == A^T for each
    system.
    """

    def __init__(self, geom: GridGeometry):
        g = self.geom = geom
        self._factors = {"helm": None, "visc_u": None, "visc_v": None, "pressure": None}
        self.factorizations = 0
        self.evictions = 0
        self.pcg_iterations = 0
        self.n_scalar, adj = neighbour_graph(g.active, g.aperture_x[1:-1, :], g.aperture_y[:, 1:-1])
        self.L_scalar = _laplacian(adj)
        self.vol = g.cell_vol[g.active]
        adj = g.interior_adjacency()
        self.n_pressure = adj.shape[0]
        self.L_pressure = _laplacian(adj)
        self.pressure_pins = np.array([cells[0] for cells in g.components], dtype=int)
        self.comp_cells = tuple(_run_or_cells(cells) for cells in g.components)
        self.n_u, adj = neighbour_graph(g.fluid_face_x)
        self.adj_u = adj.tocsr()
        self.n_v, adj = neighbour_graph(g.fluid_face_y)
        self.adj_v = adj.tocsr()

    # -- solves --------------------------------------------------------

    def _splu(self, matrix):
        """LU of the symmetric positive definite matrix, counted.

        One-column panels (SuperLU's default is 20) factor every system 17-33%
        faster at the same fill; CHANGES.md has the table of widths 1 to 20.
        """
        self.factorizations += 1
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         panel_size=1, options={"SymmetricMode": True})

    def _held_dt(self, system: str):
        """The step size of the system's held factor, or None."""
        held = self._factors[system]
        return None if held is None else held[0]

    def _held(self, system: str, dt: float, build):
        """The system's LU at step dt: the held one, or build(dt) factored in its place.

        The held factor is evicted before the new one is built, so the bound
        also holds while it is being built.
        """
        if self._held_dt(system) == dt:
            return self._factors[system][1]
        if self._factors[system] is not None:
            self._factors[system] = None
            self.evictions += 1
            _trim_heap()
        lu = self._splu(build(dt))
        self._factors[system] = (dt, lu)
        return lu

    def _pcg(self, A, b, lu):
        """CG on A x = b preconditioned by ``lu``, from its solve of b; None if it misses PCG_TOL.

        Every preconditioner solve is one column, so it is transposed.
        """
        x = lu.solve(b, trans="T")
        r = b - A @ x
        tol = PCG_TOL * np.linalg.norm(b)
        p = z = lu.solve(r, trans="T")
        rz = r @ z
        for k in range(PCG_MAXITER):
            if np.linalg.norm(r) <= tol:
                self.pcg_iterations += k
                return x
            Ap = A @ p
            alpha = rz / (p @ Ap)
            x = x + alpha * p
            r = r - alpha * Ap
            z = lu.solve(r, trans="T")
            rz, rz_old = r @ z, rz
            p = z + (rz / rz_old) * p
        self.pcg_iterations += PCG_MAXITER
        return x if np.linalg.norm(r) <= tol else None

    def _solve(self, system: str, dt: float, level: float | None, build, b, mass=None):
        """Solve build(dt) x = b with the system's one factor slot; level None means dt.

        ``b`` is one right-hand side, solved transposed, or a matrix with one
        per column, solved untransposed in one ``lu.solve`` that reads the
        factor once (the class docstring says why). A step the clock
        shortened to dt >= PCG_MIN_RATIO * level, with one right-hand side
        and no factor held at dt, is solved by ``_pcg`` on the level's
        factor; ``mass``, the diagonal V of the Helmholtz system, then adds the constant that makes sum(V x) == sum(b). Every other
        solve, and a CG that misses PCG_TOL, uses the slot's factor at dt.
        Only the held step size is read here: a reference to the held factor
        would keep it alive while ``_held`` builds its replacement.
        """
        level = dt if level is None else level
        if (b.ndim == 1 and dt != level and self._held_dt(system) != dt
                and dt >= PCG_MIN_RATIO * level):
            x = self._pcg(build(dt), b, self._held(system, level, build))
            if x is not None:
                if mass is not None:
                    x += (b.sum() - (mass * x).sum()) / mass.sum()
                return x
        return self._held(system, dt, build).solve(b, trans="T" if b.ndim == 1 else "N")

    def helmholtz_solve(self, dt: float, rhs: np.ndarray, level: float | None = None
                        ) -> np.ndarray:
        """(V - dt L) x = V b: backward-Euler diffusion of a scalar on the active cells.

        ``rhs`` is b on the active cells: a vector, or a matrix with one
        column per right-hand side, all solved in one call on the factor. The
        solution comes back in the same form. ``level`` is the CFL level the
        clock shortened to dt (default: dt).
        """
        b = (self.vol if rhs.ndim == 1 else self.vol[:, None]) * rhs

        def build(step):
            return sp.diags(self.vol) - step * self.L_scalar

        return self._solve("helm", dt, level, build, b, mass=self.vol)

    def viscous_solve(self, dt: float, vel: VectorField, level: float | None = None
                      ) -> VectorField:
        """(I - dt Lap) per component with no-slip walls; ``level`` as in helmholtz_solve."""
        g = self.geom
        h2 = g.h * g.h
        out = VectorField.zeros(g)
        for comp, nf, adj, mask, arr, dest in (
                ("u", self.n_u, self.adj_u, g.fluid_face_x, vel.u, out.u),
                ("v", self.n_v, self.adj_v, g.fluid_face_y, vel.v, out.v)):
            if nf == 0:
                continue
            b = arr[mask]

            def build(step, nf=nf, adj=adj):
                return sp.identity(nf) * (1.0 + 4.0 * step / h2) - (step / h2) * adj

            dest[mask] = self._solve("visc_" + comp, dt, level, build, b)
        return out

    def pressure_solve(self, rhs: ScalarField) -> ScalarField:
        """Neumann Poisson Lap(p) = rhs on interior cells, mean-zero gauge.

        Compatibility (zero mean of the rhs per connected component) is
        asserted before solving; a violation signals broken boundary fluxes.
        """
        g = self.geom
        interior = g.interior
        b_cells = rhs.data[interior]
        scale = float(np.abs(b_cells).sum()) + 1e-300
        for comp, cells in enumerate(self.comp_cells):
            resid = abs(float(b_cells[cells].sum()))
            if resid > 1e-6 * scale + 1e-12:
                raise SolverAbort(
                    f"pressure rhs incompatible on component {comp}: residual {resid:.3e}")
            b_cells[cells] -= b_cells[cells].mean()

        def build(_):
            keep = np.ones(self.n_pressure)
            keep[self.pressure_pins] = 0.0
            return (sp.diags(keep) @ (-self.L_pressure) @ sp.diags(keep)
                    + sp.diags(1.0 - keep))

        b = -b_cells * (g.h * g.h)
        b[self.pressure_pins] = 0.0
        # no step size: one constant key, so the slot is filled once
        x = self._solve("pressure", 0.0, None, build, b)
        for cells in self.comp_cells:
            x[cells] -= x[cells].mean()
        out = np.zeros((g.nx, g.ny))
        out[interior] = x
        return ScalarField(g, out)


# ---------------------------------------------------------------------------
# CFL control
# ---------------------------------------------------------------------------

def _outflow_sum(wx: np.ndarray, wy: np.ndarray, geom: GridGeometry) -> np.ndarray:
    """Per-cell aperture-weighted outflow rate Sum_f a_f h max(w_f . nu, 0)."""
    h = geom.h
    oE = np.maximum(wx[1:, :], 0.0) * geom.aperture_x[1:, :]
    oW = np.maximum(-wx[:-1, :], 0.0) * geom.aperture_x[:-1, :]
    oN = np.maximum(wy[:, 1:], 0.0) * geom.aperture_y[:, 1:]
    oS = np.maximum(-wy[:, :-1], 0.0) * geom.aperture_y[:, :-1]
    return (oE + oW + oN + oS) * h


def cfl_dt(state: SimState, config: SolverConfig, model: KineticsModel) -> float:
    """Advective step bound: cfl_safety times the per-cell positivity limit.

    The limit is cell_volume / outflow_rate for the larger of the fluid
    velocity alone (transport of c) and the combined drift u + chi(c) grad c
    (transport of n); for unidirectional uniform flow it reduces to
    cfl_safety * h / max_speed. Diffusion is implicit and contributes no
    bound; the result is capped at dt_max. A collapse below 1e-12 aborts
    with a blow-up report.
    """
    g = state.n.geom
    chem = state.chemotactic_drift(model.chi)
    out_u = _outflow_sum(state.u.u, state.u.v, g)
    out_w = _outflow_sum(state.u.u + chem.u, state.u.v + chem.v, g)
    out = np.maximum(out_u, out_w)[g.active]
    vol = g.cell_vol[g.active]
    with np.errstate(divide="ignore"):
        limits = np.where(out > 0.0, vol / np.maximum(out, 1e-300), np.inf)
    dt = config.cfl_safety * float(limits.min(initial=np.inf))
    dt = min(dt, config.dt_max)
    if dt < DT_UNDERFLOW:
        k = int(np.argmin(limits))
        raise SolverAbort(
            f"dt underflow ({dt:.3e}): advective speeds suggest blow-up "
            f"(worst cell limit {limits[k]:.3e})", t=state.t)
    return dt


def quantize_dt(dt_raw: float, dt_max: float) -> float:
    """Largest dt_max / 2^k not exceeding dt_raw (reuses LU factorizations)."""
    if dt_raw >= dt_max:
        return dt_max
    # a ratio a few ulps above 2^k can round to log2 = k, giving a level above dt_raw
    level = dt_max / 2.0 ** math.ceil(math.log2(dt_max / dt_raw))
    return level / 2.0 if level > dt_raw else level


class StepClock:
    """Exact simulated time and the output schedule, in integer ticks of dt_max / 2^K.

    K is the smallest exponent with tick <= DT_UNDERFLOW, so every level that
    quantize_dt makes of a step bound passing the cfl_dt floor is a whole,
    nonzero number of ticks. The targets are the output times j * every,
    clamped to end_time (without ``every`` the only target is end_time). A
    step is exactly the level it is given, or the exact remainder to the next
    target when that is shorter, and ``t`` is ``ticks * tick`` however many
    steps were taken: float drift can neither shift an output time nor create
    a new step size (and with it new LU factorizations). The loops over it are
    ``runner.trajectory`` (CFL levels) and ``mms.run_manufactured`` (a fixed
    level). Each calls step under its own module's name, so a wrapper on
    runner.step or mms.step sees every step.
    """

    def __init__(self, dt_max: float, end_time: float, every: float | None = None):
        if end_time <= 0:
            raise ValueError("end_time must be positive")
        self.tick = quantize_dt(DT_UNDERFLOW, dt_max)
        self.ticks = 0
        self.steps = 0
        self.shortened = 0   # steps cut short of their level by an output or end time
        self.end = self.ticks_of(end_time)
        self.every = self.end if every is None else max(1, self.ticks_of(every))
        self.target = min(self.every, self.end)
        self.outputs = 0     # output targets reached so far
        self.output = None   # index of the output the last step landed on, if any

    def ticks_of(self, span: float) -> int:
        """The time span as the nearest whole number of ticks."""
        return round(span / self.tick)

    @property
    def t(self) -> float:
        return self.ticks * self.tick

    @property
    def done(self) -> bool:
        return self.ticks >= self.end

    @property
    def targets(self) -> int:
        """The number of output targets, each of which one step lands on."""
        return -(-self.end // self.every)

    def advance(self, dt: float) -> float:
        """Move by the level dt, or to the next target if nearer; return the step."""
        n = min(self.ticks_of(dt), self.target - self.ticks)
        self.ticks += n
        self.steps += 1
        self.shortened += n < self.ticks_of(dt)
        self.output = None
        if self.ticks == self.target:
            self.outputs += 1
            self.output = self.outputs
            self.target = min(self.end, self.target + self.every)
        return n * self.tick


# ---------------------------------------------------------------------------
# substeps
# ---------------------------------------------------------------------------

def _transport_diffuse(s: ScalarField, vel: VectorField, dt: float, lin: LinearSystems,
                       source: np.ndarray | None, level: float | None) -> ScalarField:
    """Explicit upwind transport of s by vel (plus source), then implicit diffusion."""
    g = s.geom
    rhs = s.data + dt * advect_conservative(s, vel).data
    if source is not None:
        rhs += dt * source
    out = np.zeros((g.nx, g.ny))
    out[g.active] = lin.helmholtz_solve(dt, rhs[g.active], level)
    return ScalarField(g, out)


def step_c(state: SimState, dt: float, model: KineticsModel, lin: LinearSystems,
           c_floor: float, source: np.ndarray | None = None,
           level: float | None = None) -> ScalarField:
    """Advect by the fluid, diffuse implicitly, then apply consumption.

    The consumption update c/(1 + dt n f(c)/max(c, c_floor)) is exact for
    f(s) = s and keeps c in [0, max c] for any admissible f with n >= 0.
    ``level`` is the CFL level the clock shortened to dt (default: dt).
    """
    g = state.c.geom
    cs = _transport_diffuse(state.c, state.u, dt, lin, source, level).data
    n_pos = np.maximum(state.n.data, 0.0)
    f_val = model.f(np.maximum(cs, 0.0))
    denom = 1.0 + dt * n_pos * f_val / np.maximum(cs, c_floor)
    out = np.where(g.active, cs / denom, 0.0)
    return ScalarField(g, out)


def step_n(state: SimState, chem: VectorField, dt: float, lin: LinearSystems,
           source: np.ndarray | None = None, level: float | None = None) -> ScalarField:
    """Upwind transport by u + chi(c) grad c, then implicit diffusion; ``level`` as in step_c.

    ``chem`` is chi(c) grad c of the new c at the faces (``chemotactic_face_velocity``).
    """
    g = state.n.geom
    drift = VectorField(g, state.u.u + chem.u, state.u.v + chem.v)
    n_new = _transport_diffuse(state.n, drift, dt, lin, source, level)
    n_max = n_new.max_active()
    n_min = n_new.min_active()
    if n_min < -1e-10 * max(n_max, 1e-300):
        raise SolverAbort(f"cell density went negative: min n = {n_min:.3e}")
    return n_new


def _upwind_diff(f: np.ndarray, a: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Difference of f along axis against the transport a: backward where a > 0,
    forward elsewhere, zero where that neighbour is off the array.

    The differences sit between zero pads along the axis, so the backward one
    of point i is entry i and the forward one entry i + 1.
    """
    lead = (slice(None),) * axis
    lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
    d = np.zeros(f.shape[:axis] + (f.shape[axis] + 1,) + f.shape[axis + 1:])
    inner = d[lead + (slice(1, -1),)]
    np.subtract(f[hi], f[lo], out=inner)
    inner /= h
    return np.where(a > 0.0, d[lo], d[hi])


def _mac_advection(vel: VectorField, kappa: float) -> VectorField:
    """Explicit tendency kappa (u.grad)u, upwinded; only its fluid faces are read."""
    g = vel.geom
    h = g.h
    u, v = vel.u, vel.v

    def tendency(f, a0, a1):
        # -(a0 df/dx + a1 df/dy), formed in place
        out = _upwind_diff(f, a0, 0, h)
        out *= a0
        d1 = _upwind_diff(f, a1, 1, h)
        d1 *= a1
        out += d1
        return np.negative(out, out=out)

    def average(a, b, c, d):
        # -kappa/4 (a + b + c + d), summed left to right
        out = a + b
        out += c
        out += d
        out *= -kappa * 0.25
        return out

    ay = np.zeros_like(u)
    ay[1:-1, :] = average(v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:])
    axv = np.zeros_like(v)
    axv[:, 1:-1] = average(u[:-1, :-1], u[1:, :-1], u[:-1, 1:], u[1:, 1:])
    return VectorField(g, tendency(u, -kappa * u, ay), tendency(v, axv, -kappa * v))


def step_u(state: SimState, n_new: ScalarField, dt: float, model: KineticsModel,
           lin: LinearSystems, source_u: np.ndarray | None = None,
           source_v: np.ndarray | None = None,
           level: float | None = None) -> tuple[VectorField, ScalarField]:
    """Explicit advection + buoyancy, implicit viscosity, MAC projection.

    Solves Lap(p) = div(u*)/dt and corrects u <- u* - dt grad p, leaving the
    discrete divergence at solver accuracy and p with zero mean. ``level`` as
    in step_c.
    """
    g = state.u.geom
    rhs = state.u.copy()
    if model.kappa_ns != 0.0:
        adv = _mac_advection(state.u, model.kappa_ns)
        rhs.u += dt * adv.u
        rhs.v += dt * adv.v
    if source_u is not None:
        rhs.u += dt * source_u
    if source_v is not None:
        rhs.v += dt * source_v

    u_star = lin.viscous_solve(dt, rhs, level)
    # buoyancy joins after the viscous solve: a pure-gradient force (the
    # hydrostatic balance with uniform n) is then removed exactly by the
    # projection instead of leaking through the no-slip viscous operator
    u_star.v += dt * buoyancy_force(n_new, model).v
    div = divergence(u_star)
    p = lin.pressure_solve(ScalarField(g, div.data / dt))
    gpx = (p.data[1:, :] - p.data[:-1, :]) / g.h
    u_star.u[1:-1, :] -= dt * np.where(g.fluid_face_x[1:-1, :], gpx, 0.0)
    gpy = (p.data[:, 1:] - p.data[:, :-1]) / g.h
    u_star.v[:, 1:-1] -= dt * np.where(g.fluid_face_y[:, 1:-1], gpy, 0.0)
    return u_star, p


def step(state: SimState, config: SolverConfig, model: KineticsModel,
         lin: LinearSystems, dt: float, sources=None, level: float | None = None) -> SimState:
    """One full IMEX step c -> n -> u; returns the new state at t + dt.

    ``level`` is the step's level when the clock shortened it to ``dt``
    (default: dt); the implicit solves then work on that level's factors.
    ``sources``, when given, adds manufactured right-hand sides (verification
    runs): a dict with any of the keys 'c', 'n' (on cell centres), 'u' (on
    x-faces) and 'v' (on y-faces), each a callable t -> array already on
    those points. They are evaluated at the step's start time ``state.t``,
    explicitly and to first order, like the advection terms.

    The new state's invariants are checked before it is returned. A
    SolverAbort raised within the step leaves with ``t``, the step's start
    time, and ``dt``.
    """
    t_start = state.t
    src = {k: f(t_start) for k, f in (sources or {}).items()}
    try:
        c_new = step_c(state, dt, model, lin, config.c_floor, source=src.get("c"), level=level)
        chem = chemotactic_face_velocity(c_new, model.chi)
        n_new = step_n(state, chem, dt, lin, source=src.get("n"), level=level)
        u_new, p_new = step_u(state, n_new, dt, model, lin,
                              source_u=src.get("u"), source_v=src.get("v"), level=level)
        new = SimState(n_new, c_new, u_new, p_new, t_start + dt)
        new.keep_drift(model.chi, chem)
        _check_state(new, dt)
    except SolverAbort as exc:
        exc.t, exc.dt = t_start, dt
        raise
    return new


def _check_state(state: SimState, dt: float):
    g = state.n.geom
    _require_finite(state, SolverAbort)
    div = divergence(state.u)
    div_tol = 10.0 * PROJECTION_TOL / dt * max(1.0, state.u.max_speed())
    worst = float(np.abs(div.data).max())
    if worst > max(div_tol, 1e-9):
        raise SolverAbort(f"divergence {worst:.3e} above tolerance after projection")
    interior = g.interior
    pmean = abs(float(state.p.data[interior].mean()))
    pmax = float(np.abs(state.p.data[interior]).max())
    if pmean > 1e-12 * max(pmax, 1e-300):
        raise SolverAbort("pressure gauge lost (nonzero mean)")
