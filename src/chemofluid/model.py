"""Kinetics model: sensitivity chi(c), consumption f(c), gravity phi = -G*y.

A KineticsModel holds chi and f with two derivatives each as callables.
``polynomial_model`` builds all six from the ascending coefficients of chi
and f, each through one Horner closure; the configuration states every model
this way, and ``linear_model`` (chi = 1, f(s) = s) is its simplest case.

The transport coupling is stable only for model functions with a specific
structure, which ``validate_assumptions`` samples before any run or scan:

    chi in C^2, chi > 0
    f in C^2, f(0) = 0, f > 0 on (0, c_max]
    (f/chi)' > 0,   (f/chi)'' <= 0,   (chi*f)' >= 0

on [0, c_max], the two on g = f/chi also on the psi/rho table range below;
``build_derived`` is the one gate that refuses a model. ``KineticsModel.values``
calls each callable once, and g, g', g'' are formed from these values. From
g the diagnostics use two integral transforms anchored at 1,

    psi(s) = int_1^s dsigma / sqrt(g(sigma)),   rho(s) = int_1^s dsigma / g(sigma),

tabulated once by an 8-node Gauss-Legendre rule on every knot interval and
evaluated through cubic Hermite interpolation. Since g(0) = 0 both
transforms blow up as s -> 0+, the regime the decaying chemoattractant enters
at late times, so all evaluations clamp their argument at the floor
c_floor = 1e-10 max(1, c_max).

Models and derived tables are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import GridGeometry

# knots of the psi and rho tables, and the Gauss-Legendre rule on [-1, 1]
# that integrates each knot interval
N_KNOTS = 1600
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class ModelError(ValueError):
    """Model functions violate the structural assumptions."""


@dataclass(frozen=True)
class KineticsModel:
    """chi, f with two derivatives each, gravity strength, fluid regime.

    kappa_ns = 0 selects the Stokes fluid, any other value the Navier-Stokes
    advection with that prefactor. The potential is phi = -G*y (gravity
    pointing down for G > 0), so grad phi is the constant (0, -G).
    """

    chi: Callable
    chi_p: Callable
    chi_pp: Callable
    f: Callable
    f_p: Callable
    f_pp: Callable
    kappa_ns: float = 0.0
    grav: float = 1.0

    # g = f / chi and its derivatives, straight from the user callables
    def g(self, s):
        return self.f(s) / self.chi(s)

    def values(self, s):
        """(chi, chi', chi'', f, f', f'') at s, calling each callable once."""
        return tuple(fn(s) for fn in (self.chi, self.chi_p, self.chi_pp, self.f, self.f_p, self.f_pp))

    @staticmethod
    def g_derivatives(values):
        """(g, g', g'') by the quotient rule from ``values`` at one s."""
        chi, chi_p, chi_pp, f, f_p, f_pp = values
        num_p = f_p * chi - f * chi_p
        num_pp = (f_pp * chi - f * chi_pp) * chi - 2.0 * chi_p * num_p
        return f / chi, num_p / chi ** 2, num_pp / chi ** 3


def _horner(coeffs):
    """The polynomial with ascending coefficients ``coeffs``, as a callable.

    Trailing zero coefficients are dropped; a constant fills the shape of its
    argument. Otherwise Horner's rule runs in the order of NumPy's polyval,
    skipping every product by exactly 1.0 and every sum of exactly 0.0: both
    are exact, so f(s) = s returns its float input itself.
    """
    c = [float(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    if len(c) == 1:
        return lambda s: np.full(np.shape(s), c[0])
    lead, lower = c[-1], c[-2::-1]

    def evaluate(s):
        x = np.asarray(s, dtype=float)
        acc = x if lead == 1.0 else lead * x
        for k, ck in enumerate(lower):
            if k:
                acc = acc * x
            if ck != 0.0:
                acc = acc + ck
        return acc

    return evaluate


def polynomial_model(chi_coeffs, f_coeffs, G: float = 1.0, kappa_ns: float = 0.0) -> KineticsModel:
    """Model from the ascending polynomial coefficients of chi and f."""
    chi = np.asarray(chi_coeffs, dtype=float)
    f = np.asarray(f_coeffs, dtype=float)
    der = np.polynomial.polynomial.polyder
    return KineticsModel(
        chi=_horner(chi), chi_p=_horner(der(chi)), chi_pp=_horner(der(chi, 2)),
        f=_horner(f), f_p=_horner(der(f)), f_pp=_horner(der(f, 2)),
        kappa_ns=kappa_ns, grav=G)


def linear_model(G: float = 1.0, kappa_ns: float = 0.0) -> KineticsModel:
    """chi = 1, f(s) = s: the simplest model satisfying every assumption strictly."""
    return polynomial_model((1.0,), (0.0, 1.0), G=G, kappa_ns=kappa_ns)


# ---------------------------------------------------------------------------
# assumption validator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    worst_value: float
    worst_point: float
    margin: float


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def failures(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.passed]

    def summary_lines(self) -> list[str]:
        out = []
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            out.append(f"{status:4s}  {c.name:18s} worst {c.worst_value: .6e} at s = {c.worst_point:.6g}")
        return out

    def raise_on_failure(self):
        """Raise ModelError naming every failed condition, if any failed."""
        if not self.passed:
            raise ModelError("model assumptions violated: " + ", ".join(
                f"{c.name} (worst {c.worst_value:.3e} at s = {c.worst_point:.6g})" for c in self.failures))


def _table_range(c_max: float) -> tuple[float, float]:
    """(c_floor, top): the psi/rho table range, from the floor to just past max(1, c_max)."""
    span = max(1.0, c_max)
    return 1e-10 * span, span * (1.0 + 1e-12)


def validate_assumptions(model: KineticsModel, c_max: float, n_samples: int = 10_000) -> AssumptionReport:
    """Check the structural assumptions on [0, c_max] by dense sampling.

    c_max should be the sup norm of the initial chemoattractant field (its
    sup norm never grows). The conditions on g are also sampled on the
    geometric grid of the table range [c_floor, max(1, c_max)]. Each
    condition reports its worst sample point and margin; a single failure
    blocks the simulation.
    """
    if c_max <= 0:
        raise ValueError("c_max must be positive")
    c_floor, top = _table_range(c_max)
    s = np.linspace(0.0, c_max, n_samples)
    s_g = np.concatenate([s, np.exp(np.linspace(np.log(c_floor), np.log(top), 4000))])
    values = model.values(s_g)
    _, gp, gpp = model.g_derivatives(values)
    chi, chi_p, _, f, f_p, _ = (v[:n_samples] for v in values)
    chif_p = chi_p * f + chi * f_p

    def cond(name, values, points, low, tol):
        """passes when min(values) > low - tol; margin = worst - low."""
        k = int(np.argmin(values))
        worst = float(values[k])
        return ConditionResult(name, worst > low - tol, worst, float(points[k]), worst - low)

    f0 = float(f[0])
    conditions = (
        cond("chi > 0", chi, s, 0.0, 0.0),
        ConditionResult("f(0) = 0", abs(f0) < 1e-12, f0, 0.0, 1e-12 - abs(f0)),
        cond("f > 0 on (0, c_max]", f[1:], s[1:], 0.0, 0.0),
        cond("(f/chi)' > 0", gp, s_g, 0.0, 0.0),
        cond("(f/chi)'' <= 0", -gpp, s_g, 0.0, 1e-10),
        cond("(chi f)' >= 0", chif_p, s, 0.0, 1e-10),
    )
    return AssumptionReport(conditions=conditions)


# ---------------------------------------------------------------------------
# derived transforms
# ---------------------------------------------------------------------------

def _cubic_hermite(x, y, dydx):
    """The piecewise cubic through (x, y) with slopes dydx at the knots, as a callable.

    Its coefficients, intervals and summation order are those of
    scipy.interpolate.CubicHermiteSpline, so the values are bit-identical to
    it; outside [x[0], x[-1]] the end cubics extend. The interval of a point
    is found without a binary search: ``start`` holds, for each of 4 buckets
    per knot interval, a lower bound on the interval of any point in it
    (robust to the rounding of the bucket index by one), and ``steps``
    comparisons with the upper knots lift it to the interval itself.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]
    last = len(x) - 2
    buckets = 4 * last
    scale = buckets / (x[-1] - x[0])
    edges = x[0] + np.arange(-1, buckets + 2) / scale
    lower = np.clip(np.searchsorted(x, edges, "right") - 1, 0, last)
    start, steps = lower[:-3], int((lower[3:] - lower[:-3]).max())
    upper = np.append(x[1:-1], np.inf)

    def evaluate(xv):
        k = xv - x[0]
        k *= scale
        i = start.take(k.astype(np.intp), mode="clip")
        for _ in range(steps):
            i += xv >= upper.take(i)
        # c3 + c2 s + c1 s^2 + c0 s^3 summed left to right, s^3 = (s s) s; in
        # place, as a fresh grid-sized temporary costs as much as the operation
        s = xv - x.take(i)
        s_pow = s * s
        out = c2.take(i)
        out *= s
        out += c3.take(i)
        term = c1.take(i)
        term *= s_pow
        out += term
        s_pow *= s
        term = c0.take(i)
        term *= s_pow
        out += term
        return out

    return evaluate


class DerivedScalars:
    """Tabulated transforms psi, rho of the model on [c_floor, max(1, c_max)].

    psi and rho are anchored at 1 (psi(1) = rho(1) = 0 exactly). Evaluations
    outside the table clamp to its ends. g is evaluated directly from the
    model with the same argument clamp. ``build_derived`` checks the model first.
    """

    def __init__(self, model: KineticsModel, c_max: float):
        c_floor, top = _table_range(c_max)
        if not c_floor < min(1.0, c_max):
            raise ValueError("need c_floor < min(1, c_max): the anchor 1 must lie in the table")
        g_at_floor = float(model.g(np.asarray(c_floor)))
        if not np.isfinite(g_at_floor) or g_at_floor <= 0.0:
            raise ModelError(f"g({c_floor}) = {g_at_floor}; transforms undefined")

        # psi is tabulated against t = sqrt(s) and rho against l = log(s);
        # in these variables both transforms stay smooth down to c_floor when
        # g vanishes linearly at 0 (psi ~ sqrt, rho ~ log), so a cubic Hermite
        # interpolant with exact analytic knot derivatives is accurate and
        # monotone on a moderate uniform knot grid.
        t = np.unique(np.append(np.linspace(np.sqrt(c_floor), np.sqrt(top), N_KNOTS), 1.0))
        ell = np.unique(np.append(np.linspace(np.log(c_floor), np.log(top), N_KNOTS), 0.0))

        def dpsi_dt(tv):
            return 2.0 * tv / np.sqrt(model.g(tv * tv))

        def drho_dl(lv):
            sv = np.exp(lv)
            return sv / model.g(sv)

        def cumulative(x, fn):
            half = 0.5 * np.diff(x)
            nodes = (0.5 * (x[1:] + x[:-1]))[:, None] + half[:, None] * _GL_NODES
            inc = half * (fn(nodes) * _GL_WEIGHTS).sum(axis=1)
            return np.concatenate([[0.0], np.cumsum(inc)])

        psi_tab = cumulative(t, dpsi_dt)
        psi_tab -= psi_tab[t == 1.0]
        rho_tab = cumulative(ell, drho_dl)
        rho_tab -= rho_tab[ell == 0.0]

        self.model = model
        self.c_floor = float(c_floor)
        self.top = float(top)
        self._psi_t = _cubic_hermite(t, psi_tab, dpsi_dt(t))
        self._rho_l = _cubic_hermite(ell, rho_tab, drho_dl(ell))
        self._t_knots = t
        self._l_knots = ell
        self._psi_tab = psi_tab
        self._rho_tab = rho_tab

    # -- evaluation helpers (all clamp to the table range) ---------------

    def clamp(self, s):
        return np.clip(s, self.c_floor, self.top)

    def psi(self, s):
        return self._psi_t(np.sqrt(self.clamp(s)))

    def rho(self, s):
        return self._rho_l(np.log(self.clamp(s)))

    def g(self, s):
        return self.model.g(self.clamp(s))

    @property
    def table(self):
        """(s-points of the psi table, psi values, s-points of the rho table, rho values)."""
        return self._t_knots ** 2, self._psi_tab, np.exp(self._l_knots), self._rho_tab


def build_derived(model: KineticsModel, c_max: float) -> DerivedScalars:
    """The one admissibility gate: validate the model, then tabulate psi and rho.

    Raises ModelError naming every failed condition before any table is built.
    """
    validate_assumptions(model, c_max).raise_on_failure()
    return DerivedScalars(model, c_max)


# ---------------------------------------------------------------------------
# buoyancy
# ---------------------------------------------------------------------------

def buoyancy_force(n: ScalarField, model: KineticsModel) -> VectorField:
    """Face-staggered force n * grad(phi) = (0, -G n), zero off the fluid y-faces."""
    g: GridGeometry = n.geom
    d = n.data
    fy = np.zeros((g.nx, g.ny + 1))
    nbar_y = 0.5 * (d[:, 1:] + d[:, :-1])
    fy[:, 1:-1] = np.where(g.fluid_face_y[:, 1:-1], nbar_y * -model.grav, 0.0)
    return VectorField(g, np.zeros((g.nx + 1, g.ny)), fy)
