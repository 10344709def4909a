"""Functionals, inequality checks and time-series records over simulation states.

Everything the long-time theory of the coupled system rests on is evaluated
discretely here:

* conserved quantities: total cell mass, sup norm of the chemoattractant;
* the entropy functional  E = int n log n + 1/2 int |grad psi(c)|^2  and its
  dissipation terms  int |grad n|^2 / n  (Fisher information) and
  int g(c) |D^2 rho(c)|^2;
* the boundary term  1/2 oint (1/g(c)) d|grad c|^2/dnu dS, which has no
  definite sign on non-convex domains and is controlled there only through
  the curvature bound  d|grad w|^2/dnu <= 2 kappa |grad w|^2  (checked
  segmentwise by ``check_ms_lemma``);
* the integral inequality  int g'/g^3 |grad c|^4 <= (2+sqrt(2))^2
  int (g/g') |D^2 rho(c)|^2  and the pointwise bound |tr H|^2 <= 2 |H|^2;
* the entropy production identity relating d/dt E to the dissipation and the
  transport/boundary source terms, evaluated as a residual over three
  consecutive outputs by ``DiagnosticsRecord`` itself as rows arrive, from
  the stored rows and the source terms it kept from the middle row's state,
  with no state copied;
* empirical-constant fits for the entropy-energy and kinetic-energy
  inequalities, and the long-time convergence monitor toward the flat state
  (n_inf, 0, 0).

Per-state intermediates are computed once per state in a ``Frame``: grad c
and |grad c|^2, psi(c) and its gradient, grad n, the Hessian of rho(c), the
boundary probes with c at the segments, and c and n on the active cells with
the model values and (g, g', g'') of the clamped c, one call per callable.
Integrands are formed on active-cell vectors and scattered into zeros to be
integrated. Every single-state function takes a frame, and ``Frame(state_or_c,
derived)`` is the one place that accepts a state or a bare c field. Passed
one frame, the row, the curvature-lemma check, the quartic-gradient check
and the boundary term share these intermediates instead of recomputing
them. Each formula is still written once, in the function that owns it.

Integrands with 1/g weights are singular as c -> 0; cells below the model's
c_floor are clamped or masked and their fraction is reported. All checks are
read-only and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from chemofluid.fields import (
    ScalarField,
    cell_centered_velocity,
    gradient_neumann,
    hessian,
    laplacian_neumann,
    mac_grad_norm_sq,
    mac_norm_sq,
    normal_derivative_of_gradsq,
)
from chemofluid.geometry import GridGeometry, surface_integral, volume_integral
from chemofluid.model import DerivedScalars
from chemofluid.solver import LinearSystems, SimState

LOG_CLAMP = 1e-30
HESSIAN_CONST = (2.0 + np.sqrt(2.0)) ** 2   # dimension-2 constant of the integral inequality
I33_TOL_REL = 0.1          # relative tolerance of the quartic-gradient inequality
ENERGY_TOL_SCALE = 1e-6    # slack of the entropy-energy fit, relative to its term scale
TAIL_SLACK_REL = 1e-9      # rise a monotone tail may show, relative to the series peak


@dataclass
class InequalityReport:
    id: str
    time: float
    lhs: float
    rhs: float
    violation: float
    tolerance: float
    passed: bool
    location: tuple | None = None
    extra: dict = field(default_factory=dict)

    def row(self):
        return (self.id, self.time, self.lhs, self.rhs, self.violation, self.tolerance,
                int(self.passed))


# ---------------------------------------------------------------------------
# the per-state frame
# ---------------------------------------------------------------------------

class Frame:
    """Intermediates of one state that several diagnostics share.

    Built over a SimState, or over a chemoattractant field alone for the
    checks that need only c (then grad_n and whatever needs n or u are
    unavailable). Each quantity is computed on first use and kept,
    so every diagnostic that reads it from the same frame sees the same
    array and none is evaluated twice. ``derived`` may be None for the
    boundary-lemma check, which needs no transform of c.
    """

    def __init__(self, state_or_c, derived: DerivedScalars | None = None):
        self.state = state_or_c if isinstance(state_or_c, SimState) else None
        self.c = state_or_c.c if self.state is not None else state_or_c
        self.geom = self.c.geom
        self.derived = derived

    @cached_property
    def grad_c(self) -> tuple[ScalarField, ScalarField]:
        return gradient_neumann(self.c)

    @cached_property
    def grad_c2(self) -> np.ndarray:
        cx, cy = self.grad_c
        return cx.data ** 2 + cy.data ** 2

    @cached_property
    def c_active(self) -> np.ndarray:
        """c gathered on the active cells, in the order of ``geom.active``."""
        return self.c.data[self.geom.active]

    @cached_property
    def n_active(self) -> np.ndarray:
        return self.state.n.data[self.geom.active]

    def _scatter(self, values) -> np.ndarray:
        """Values given on the active cells as a grid array, 0 elsewhere."""
        g = self.geom
        out = np.zeros((g.nx, g.ny))
        out[g.active] = values
        return out

    def _integral(self, values) -> float:
        """Volume integral of values given on the active cells."""
        return volume_integral(self._scatter(values), self.geom)

    @cached_property
    def psi_c(self) -> np.ndarray:
        """psi(c) on the active cells, 0 elsewhere."""
        return self._scatter(self.derived.psi(self.c_active))

    @cached_property
    def grad_psi(self) -> tuple[ScalarField, ScalarField]:
        return gradient_neumann(ScalarField(self.geom, self.psi_c))

    @cached_property
    def grad_n(self) -> tuple[ScalarField, ScalarField]:
        return gradient_neumann(self.state.n)

    @cached_property
    def rho_hessian_sq(self) -> np.ndarray:
        """|D^2 rho(c)|^2 on the active cells."""
        rho_c = ScalarField(self.geom, self._scatter(self.derived.rho(self.c_active)))
        return hessian(rho_c).frobenius_sq()[self.geom.active]

    @cached_property
    def model_values(self) -> tuple[np.ndarray, ...]:
        """(chi, chi', chi'', f, f', f'') of c on the active cells, clamped to the table range."""
        return self.derived.model.values(self.derived.clamp(self.c_active))

    @cached_property
    def g_derivatives(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(g, g', g'') of the clamped c on the active cells."""
        return self.derived.model.g_derivatives(self.model_values)

    @cached_property
    def boundary_probes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(d|grad c|^2/dnu, |grad c|^2 near the wall, valid) per segment."""
        return normal_derivative_of_gradsq(self.c, gradsq=self.grad_c2)

    @cached_property
    def c_seg(self) -> np.ndarray:
        """Chemoattractant sampled just inside each segment (fallback: host cell)."""
        geom = self.geom
        stencil = geom.seg_sample
        host = self.c.data[geom.seg_cell[:, 0], geom.seg_cell[:, 1]]
        return np.where(stencil.valid, stencil.sample(self.c.data), host)

    @cached_property
    def boundary_integrand(self) -> np.ndarray:
        """1/2 (1/g(c)) d|grad c|^2/dnu per segment (meaningless where not valid)."""
        dq, _, _ = self.boundary_probes
        return 0.5 * dq / self.derived.g(self.c_seg)


# ---------------------------------------------------------------------------
# pointwise / single-state functionals
# ---------------------------------------------------------------------------

def entropy_parts(f: Frame) -> tuple[float, float]:
    n = f.n_active
    ent_n = f._integral(n * np.log(np.maximum(n, LOG_CLAMP)))
    px, py = f.grad_psi
    grad_psi_sq = volume_integral(px.data ** 2 + py.data ** 2, f.geom)
    return ent_n, grad_psi_sq


def dissipation_terms(f: Frame) -> tuple[float, float]:
    """(Fisher information of n, weighted squared Hessian of rho(c)).

    The Hessian quadrature runs over cells with full 3x3 stencils only; see
    GridGeometry.stencil_ok.
    """
    g = f.geom
    nx, ny = f.grad_n
    fisher = f._integral(
        (nx.data[g.active] ** 2 + ny.data[g.active] ** 2) / np.maximum(f.n_active, LOG_CLAMP))
    gc, _, _ = f.g_derivatives
    hess_rho = f._integral(np.where(g.stencil_ok[g.active], gc * f.rho_hessian_sq, 0.0))
    return fisher, hess_rho


def hessian_pointwise_violation(field: ScalarField) -> float:
    """max over cells of |tr H|^2 - 2 |H|^2 (nonpositive up to rounding)."""
    H = hessian(field)
    viol = H.trace() ** 2 - 2.0 * H.frobenius_sq()
    return float(viol[field.geom.active].max(initial=0.0))


def boundary_term(f: Frame) -> float:
    """1/2 oint (1/g(c)) d|grad c|^2/dnu dS over the resolvable segments."""
    _, _, valid = f.boundary_probes
    return surface_integral(np.where(valid, f.boundary_integrand, 0.0), f.geom)


def check_ms_lemma(f: Frame, c_check: float = 1.0, time: float = 0.0) -> InequalityReport:
    """Curvature-bound residual d|grad c|^2/dnu - 2 kappa_max |grad c|^2 per segment.

    Passes when the worst residual stays below c_check * sqrt(h) (the
    boundary probes are first order on an O(h) baseline, so sqrt(h) is the
    honest certified rate).
    """
    geom = f.geom
    dq, qn, valid = f.boundary_probes
    resid = dq - 2.0 * geom.kappa_max * qn
    resid = np.where(valid, resid, -np.inf)
    k = int(np.argmax(resid))
    worst = float(resid[k])
    tol = c_check * np.sqrt(geom.h)
    return InequalityReport(
        id="ms_lemma", time=time, lhs=float(dq[k]), rhs=float(2.0 * geom.kappa_max * qn[k]),
        violation=worst, tolerance=tol, passed=worst <= tol,
        location=tuple(geom.seg_mid[k]),
        extra={"skipped_segments": int((~valid).sum()), "kappa_max": geom.kappa_max})


def check_inequality_33(f: Frame, time: float = 0.0) -> InequalityReport:
    """int g'/g^3 |grad c|^4 <= (2+sqrt(2))^2 int (g/g') |D^2 rho(c)|^2.

    Cells with c below the floor are masked out of both quadratures (the
    weights are singular there); their fraction is reported. On non-convex
    domains the inequality is evaluated and reported but a violation is not
    treated as a failure (it rests on a convexity-backed boundary sign).
    """
    g = f.geom
    mask = g.stencil_ok[g.active] & (f.c_active >= f.derived.c_floor)
    gc, gp, _ = f.g_derivatives
    lhs = f._integral(np.where(mask, gp / gc ** 3 * f.grad_c2[g.active] ** 2, 0.0))
    rhs = HESSIAN_CONST * f._integral(np.where(mask, gc / gp * f.rho_hessian_sq, 0.0))
    tol = I33_TOL_REL * rhs + 1e-12
    violation = lhs - rhs
    passed = (lhs <= rhs + tol) or (not g.is_convex)
    masked_frac = 1.0 - float(mask.sum()) / float(mask.size)
    return InequalityReport(
        id="gradient_quartic", time=time, lhs=lhs, rhs=rhs, violation=violation,
        tolerance=tol, passed=passed,
        extra={"masked_fraction": masked_frac, "convex": g.is_convex})


# ---------------------------------------------------------------------------
# entropy production identity
# ---------------------------------------------------------------------------

def identity_source_terms(f: Frame) -> tuple[float, float, float, float]:
    """Transport, consumption and concavity sources of the entropy identity at one state.

    (transport_grad, transport_lap, consumption, concavity), the first four
    right-hand terms of the balance in ``DiagnosticsRecord._identity_residual``.
    """
    act = f.geom.active
    cx, cy = f.grad_c
    grad_c2 = f.grad_c2[act]
    uc, vc = cell_centered_velocity(f.state.u)
    u_dot_gc = (uc * cx.data + vc * cy.data)[act]
    lap_c = laplacian_neumann(f.c).data[act]
    gc, gp, gpp = f.g_derivatives
    _, _, _, f_val, fp_val, _ = f.model_values

    t1 = -0.5 * f._integral(gp / gc ** 2 * grad_c2 * u_dot_gc)
    t2 = f._integral(lap_c / gc * u_dot_gc)
    t3 = f._integral(f.n_active * (f_val * gp / (2.0 * gc ** 2) - fp_val / gc) * grad_c2)
    t4 = 0.5 * f._integral(gpp / gc ** 2 * grad_c2 ** 2)
    return t1, t2, t3, t4


# ---------------------------------------------------------------------------
# time-series record
# ---------------------------------------------------------------------------

COLUMNS = (
    "t", "mass", "c_max", "entropy_n", "grad_psi_sq", "fisher", "hess_rho",
    "grad_c_4", "u_l2", "grad_u_l2", "psi_l2", "n_l65_sq", "boundary_term",
    "ms_violation", "conv_n", "u_sup", "identity_residual", "clamped_frac",
)


class DiagnosticsRecord:
    """Per-output-time rows of every tracked functional, in a fixed column order.

    ``identity_residual`` is a trajectory quantity: the balance of a row
    needs the rows on both sides. Each append fills it for the row before,
    when that row is interior; the endpoints stay 0.
    """

    def __init__(self, geom: GridGeometry, n_inf: float, c0_max: float):
        self.geom = geom
        self.n_inf = n_inf
        self.c0_max = c0_max
        self.rows: list[dict] = []
        self._sources = None   # identity source terms of the last row's state

    def append_state(self, f: Frame) -> dict:
        """Record the row of the frame's state and return it.

        Fills the normalized identity residual of the row before, if it is
        interior, and keeps the new state's identity source terms for the
        next call.
        """
        g = self.geom
        st = f.state
        ent_n, grad_psi_sq = entropy_parts(f)
        fisher, hess_rho = dissipation_terms(f)
        grad_c_4 = volume_integral(f.grad_c2 ** 2, g)
        psi_l2 = volume_integral(f.psi_c ** 2, g)
        n_l65 = f._integral(np.maximum(f.n_active, 0.0) ** 1.2) ** (5.0 / 3.0)
        row = {
            "t": st.t,
            "mass": volume_integral(st.n, g),
            "c_max": st.c.max_active(),
            "entropy_n": ent_n,
            "grad_psi_sq": grad_psi_sq,
            "fisher": fisher,
            "hess_rho": hess_rho,
            "grad_c_4": grad_c_4,
            "u_l2": mac_norm_sq(st.u),
            "grad_u_l2": mac_grad_norm_sq(st.u),
            "psi_l2": psi_l2,
            "n_l65_sq": n_l65,
            "boundary_term": boundary_term(f),
            "ms_violation": check_ms_lemma(f, time=st.t).violation,
            "conv_n": float(np.abs(f.n_active - self.n_inf).max()),
            "u_sup": st.u.max_speed(),
            "identity_residual": 0.0,
            "clamped_frac": float(np.mean(f.c_active < f.derived.c_floor)),
        }
        self.rows.append(row)
        index = len(self.rows) - 1
        if index >= 2:
            self.rows[index - 1]["identity_residual"] = self._identity_residual(
                index - 1, self._sources)
        # row 0 is an endpoint, whose residual stays 0: it needs no sources
        self._sources = identity_source_terms(f) if index else None
        return row

    def _identity_residual(self, index: int, sources: tuple[float, float, float, float]) -> float:
        """The normalized entropy-identity residual of interior row ``index``.

        dE/dt is the centered difference of entropy_n + grad_psi_sq/2 over
        the neighbouring rows; fisher, hess_rho and the boundary term are the
        row's own; ``sources`` are identity_source_terms of the row's state.
        The balance, with every term at the middle row,

            dE/dt + fisher + hess_rho =
                -1/2 int g'/g^2 |grad c|^2 (u . grad c)
                + int (1/g) lap c (u . grad c)
                + int n (f g'/(2 g^2) - f'/g) |grad c|^2
                + 1/2 int (g''/g^2) |grad c|^4
                + boundary term,

        is normalized by its largest term magnitude.
        """
        r0, r1, r2 = self.rows[index - 1:index + 2]
        e0 = r0["entropy_n"] + 0.5 * r0["grad_psi_sq"]
        e2 = r2["entropy_n"] + 0.5 * r2["grad_psi_sq"]
        dEdt = (e2 - e0) / (r2["t"] - r0["t"])
        t1, t2, t3, t4 = sources
        boundary = r1["boundary_term"]
        rhs = t1 + t2 + t3 + t4 + boundary
        residual = abs(dEdt + r1["fisher"] + r1["hess_rho"] - rhs)
        terms = (dEdt, r1["fisher"], r1["hess_rho"], t1, t2, t3, t4, boundary)
        return residual / max(max(abs(v) for v in terms), 1e-30)

    def column(self, name: str) -> np.ndarray:
        return np.array([r[name] for r in self.rows])

    def csv_text(self) -> str:
        lines = [",".join(COLUMNS)]
        for r in self.rows:
            lines.append(",".join("%.17e" % r[k] for k in COLUMNS))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# trajectory-level inequality fits
# ---------------------------------------------------------------------------

def _centered_dt(ts: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Centered time derivative at interior output times."""
    return (ys[2:] - ys[:-2]) / (ts[2:] - ts[:-2])


def check_energy_inequality(record: DiagnosticsRecord) -> InequalityReport:
    """Fit the smallest C >= 0 with dE/dt + fisher + hess_rho/2 <= C (||grad u||^2 + ||psi(c)||^2).

    The fit is the max over interior output times of LHS+/RHS; the remaining
    slack is zero by construction, so the check passes when every positive
    LHS has a positive RHS to absorb it.
    """
    ts = record.column("t")
    if len(ts) < 3:
        raise ValueError("need at least 3 outputs to fit the energy inequality")
    E = record.column("entropy_n") + 0.5 * record.column("grad_psi_sq")
    dEdt = _centered_dt(ts, E)
    lhs = dEdt + record.column("fisher")[1:-1] + 0.5 * record.column("hess_rho")[1:-1]
    rhs = record.column("grad_u_l2")[1:-1] + record.column("psi_l2")[1:-1]
    scale = float(np.abs(lhs).max(initial=0.0) + np.abs(rhs).max(initial=0.0)) + 1e-300
    usable = rhs > 1e-14 * scale
    ratios = np.where(usable, np.maximum(lhs, 0.0) / np.maximum(rhs, 1e-300), 0.0)
    C = float(ratios.max(initial=0.0))
    slack = float(np.maximum(lhs - C * rhs, 0.0).max(initial=0.0))
    stranded = np.any(~usable & (lhs > ENERGY_TOL_SCALE * scale))
    passed = (not stranded) and np.isfinite(C) and slack <= ENERGY_TOL_SCALE * scale
    k = int(np.argmax(ratios))
    return InequalityReport(
        id="entropy_energy", time=float(ts[1:-1][k]),
        lhs=float(lhs[k]), rhs=float(rhs[k]), violation=slack,
        tolerance=ENERGY_TOL_SCALE * scale, passed=bool(passed),
        extra={"C": C})


def check_velocity_energy(record: DiagnosticsRecord, grad_phi_inf: float) -> InequalityReport:
    """Fit C in 1/2 d||u||^2/dt + ||grad u||^2 <= 1/2 ||grad u||^2 + C |grad phi|_inf^2 ||n||_{6/5}^2."""
    ts = record.column("t")
    if len(ts) < 3:
        raise ValueError("need at least 3 outputs")
    K = record.column("u_l2")
    dKdt = _centered_dt(ts, K)
    gu = record.column("grad_u_l2")[1:-1]
    n65 = record.column("n_l65_sq")[1:-1]
    lhs = 0.5 * dKdt + 0.5 * gu
    denom = grad_phi_inf ** 2 * n65
    usable = denom > 1e-300
    ratios = np.where(usable, np.maximum(lhs, 0.0) / np.maximum(denom, 1e-300), 0.0)
    C = float(ratios.max(initial=0.0))
    grad_u_time_integral = float(np.trapezoid(record.column("grad_u_l2"), ts))
    scale = float(np.abs(lhs).max(initial=0.0)) + 1e-300
    stranded = np.any(~usable & (lhs > 1e-9 * scale))
    k = int(np.argmax(ratios))
    return InequalityReport(
        id="velocity_energy", time=float(ts[1:-1][k]),
        lhs=float(lhs[k]), rhs=float(C * denom[k]),
        violation=0.0, tolerance=0.0, passed=bool(np.isfinite(C) and not stranded),
        extra={"C": C, "grad_u_time_integral": grad_u_time_integral,
               "u_l2_final": float(K[-1])})


@dataclass
class ConvergenceVerdict:
    passed: bool
    conv_n_end: float
    c_max_end: float
    u_sup_end: float
    thresholds: tuple[float, float, float]
    c_max_monotone: bool
    tail_monotone: dict


def _tail_monotone(series: np.ndarray) -> bool:
    tail = series[len(series) // 2:]
    if len(tail) < 2:
        return True
    slack = TAIL_SLACK_REL * float(np.abs(series).max(initial=0.0)) + 1e-300
    return bool(np.all(np.diff(tail) <= slack))


def convergence_monitor(record: DiagnosticsRecord, amplitudes: tuple[float, float, float],
                        threshold_rel: float = 1e-2) -> ConvergenceVerdict:
    """Long-time decay toward (n_inf, 0, 0).

    amplitudes are the initial |n - n_inf|, |c|, |u| sup norms; the verdict
    passes when every end value is below threshold_rel times its amplitude
    and the c sup norm never increased along the run. Tail monotonicity of
    each series over the second half is reported alongside.
    """
    conv_n = record.column("conv_n")
    c_max = record.column("c_max")
    u_sup = record.column("u_sup")
    # a component that starts with zero amplitude has nothing to converge
    thr = tuple(threshold_rel * a if a > 1e-300 else np.inf for a in amplitudes)
    c0ref = record.c0_max
    mono = bool(np.all(np.diff(c_max) <= 1e-12 * max(c0ref, 1e-300)))
    tail = {"conv_n": _tail_monotone(conv_n), "c_max": _tail_monotone(c_max),
            "u_sup": _tail_monotone(u_sup)}
    passed = (conv_n[-1] < thr[0]) and (c_max[-1] < thr[1]) and (u_sup[-1] < thr[2]) and mono
    return ConvergenceVerdict(
        passed=bool(passed), conv_n_end=float(conv_n[-1]), c_max_end=float(c_max[-1]),
        u_sup_end=float(u_sup[-1]), thresholds=thr, c_max_monotone=mono, tail_monotone=tail)


# ---------------------------------------------------------------------------
# randomized boundary-compatible fields
# ---------------------------------------------------------------------------

def random_neumann_field(geom: GridGeometry, lin: LinearSystems, rng: np.random.Generator,
                         amplitude: float = 0.3, smooth_len: float = 0.1,
                         n_smooth: int = 2, count: int = 1) -> list[ScalarField]:
    """``count`` band-limited random fields compatible with the discrete Neumann condition.

    White noise on the active cells is smoothed by implicit heat steps of the
    zero-flux operator (total smoothing length fixed in physical units, so
    fields are comparable across resolutions), then centered and scaled to
    the requested sup amplitude. The heat semigroup projects onto the
    operator's own Neumann modes, which is exactly the compatibility the
    boundary inequalities assume.

    The fields are smoothed together: each heat step is one Helmholtz solve
    with a column per field, so the factor is read once per step rather than
    once per field. Each field's noise is drawn in turn, so a seed draws the
    same noise however many fields are smoothed together; a block solve can
    round a cell's last bit differently from a one-column solve (the BLAS
    kernels differ), so the fields agree with one-by-one draws to round-off.
    """
    g = geom
    # each drawn on the whole bounding-box grid, so a seed gives one field however it is stored
    z = np.stack([rng.standard_normal(g.bbox_shape)[g.window][g.active]
                  for _ in range(count)], axis=1)
    tau = smooth_len ** 2 / (4.0 * n_smooth)
    for _ in range(n_smooth):
        z = lin.helmholtz_solve(tau, z)
    fields = []
    for vals in z.T:
        vals = vals - vals.mean()
        peak = np.abs(vals).max()
        if peak > 0:
            vals = vals * (amplitude / peak)
        out = np.zeros((g.nx, g.ny))
        out[g.active] = vals
        fields.append(ScalarField(g, out))
    return fields
