"""Acceptance suite: every exit criterion, one pass/fail line each.

Heavy artifacts (the four-run default matrix, the randomized scan ladder and
the refinement studies) are computed once per session and shared. Tolerances
are fixed here, not tuned at test time; randomized pieces are seed-fixed and
therefore deterministic.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from chemofluid.config import RunConfig
from chemofluid.diagnostics import (
    DiagnosticsRecord,
    Frame,
    check_energy_inequality,
    convergence_monitor,
    hessian_pointwise_violation,
)
from chemofluid.fields import ScalarField, divergence
from chemofluid.geometry import volume_integral
from chemofluid.runner import run_inequality_scan, setup, trajectory
from chemofluid.solver import PROJECTION_TOL, StepClock

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
MATRIX = ("disk_stokes_small", "disk_ns_small", "star_stokes_small", "star_ns_small")
SCAN_SEED = 20240809
STRESS_OVERRIDES = {"grid.n": "64", "init.n0_base": "1e-8", "model.chi_coeffs": "50",
                    "init.c0_amp": "0.95", "init.c0_kx": "8", "init.c0_ky": "8",
                    "solver.end_time": "0.3"}


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def instrumented_run(rc: RunConfig):
    """Full run with per-step probes and cadence diagnostics."""
    run = setup(rc)
    geom, derived = run.geom, run.derived
    state = run.state
    record = DiagnosticsRecord(geom, n_inf=run.n_inf, c0_max=run.c0_max)
    probes = {"c_max": [state.c.max_active()], "n_min": [state.n.min_active()],
              "n_max": [state.n.max_active()], "div_bound_ratio": [], "p_gauge_ratio": [],
              "dt": []}
    hess_worst = 0.0

    def emit(st):
        nonlocal hess_worst
        record.append_state(Frame(st, derived))
        rho_field = ScalarField(geom, np.where(geom.active, derived.rho(st.c.data), 0.0))
        hess_worst = max(hess_worst, hessian_pointwise_violation(rho_field),
                         hessian_pointwise_violation(st.n))

    emit(state)
    clock = StepClock(run.cfg.dt_max, rc["solver.end_time"], rc["output.every_time"])
    for state, dt in trajectory(state, run.cfg, run.model, run.lin, clock):
        probes["dt"].append(dt)
        probes["c_max"].append(state.c.max_active())
        probes["n_min"].append(state.n.min_active())
        probes["n_max"].append(state.n.max_active())
        div = divergence(state.u)
        probes["div_bound_ratio"].append(float(np.abs(div.data).max()) / (10.0 * PROJECTION_TOL / dt))
        pmax = float(np.abs(state.p.data[geom.interior]).max())
        pmean = abs(float(state.p.data[geom.interior].mean()))
        probes["p_gauge_ratio"].append(pmean / max(1e-12 * pmax, 1e-300))
        if clock.output is not None:
            emit(state)
    for k in probes:
        probes[k] = np.asarray(probes[k])
    energy = check_energy_inequality(record)
    conv = convergence_monitor(record, run.amplitudes, rc["conv.threshold_rel"])
    return {"record": record, "probes": probes, "amplitudes": run.amplitudes,
            "energy": energy, "conv": conv, "hess_worst": hess_worst,
            "geom": geom, "c0_max": run.c0_max}


@pytest.fixture(scope="session")
def matrix_runs():
    runs = {}
    for name in MATRIX:
        rc = RunConfig.from_file(CONFIG_DIR / f"{name}.cfg")
        runs[name] = instrumented_run(rc)
    return runs


@pytest.fixture(scope="session")
def invariant_runs(matrix_runs):
    """The matrix runs and a stress case, on which the per-step invariants are checked.

    The stress case is star_ns_small at 64^2 with almost no background
    density, a strong sensitivity and a steep chemoattractant, to t = 0.3:
    min(n)/max(n) falls below 1e-12, and the chemotactic drift sets the
    step. It is built here, not shipped under configs/, so that it runs
    only in this suite.
    """
    rc = RunConfig.from_file(CONFIG_DIR / "star_ns_small.cfg")
    for key, value in STRESS_OVERRIDES.items():
        rc.override(key, value)
    return {**matrix_runs, "stress": instrumented_run(rc)}


@pytest.fixture(scope="session")
def scan_ladder(tmp_path_factory):
    """100-trial scans on unit-bbox disk and star at h = 1/64, 1/128, 1/256."""
    out = tmp_path_factory.mktemp("scans")
    results = {"disk": [], "star": []}
    star_margin = 0.5 / (0.32 * 1.4) - 1.0
    for shape in ("disk", "star"):
        for n in (64, 128, 256):
            rc = RunConfig({
                "domain.shape": shape, "domain.radius": 0.4, "domain.margin": 0.25,
                "grid.n": n, "run.seed": SCAN_SEED,
                "scan.trials": 100, "scan.amplitude": 0.3, "scan.smooth_len": 0.08,
                "check.ms_c": 8000.0,
            })
            if shape == "star":
                rc.override("domain.base_radius", 0.32)
                rc.override("domain.margin", star_margin)
            results[shape].append(run_inequality_scan(rc, out / f"{shape}_{n}"))
    return results


@pytest.fixture(scope="session")
def residual_studies():
    """Entropy-identity residual under simultaneous (h, dt) halving."""
    out = {}
    for label, coupled in (("no_fluid", False), ("coupled", True)):
        normalized = []
        for nside, dt, dt_cad in ((48, 0.004, 0.04), (96, 0.002, 0.02), (192, 0.001, 0.01)):
            rc = RunConfig({
                "domain.shape": "disk", "domain.radius": 1.0, "grid.n": nside,
                "model.G": 0.5 if coupled else 0.0, "model.kappa_ns": 1.0 if coupled else 0.0,
                "init.n0_amp": 0.4, "init.n0_sigma": 0.2,
                "init.u0": "vortex" if coupled else "zero", "init.u0_amp": 0.15,
                "solver.dt_max": dt, "solver.end_time": 0.2,
            })
            run = setup(rc)
            clock = StepClock(run.cfg.dt_max, rc["solver.end_time"], dt_cad)
            # the outputs around t = 0.12; the record fills the middle row's residual
            mid = round(0.12 / dt_cad)
            record = DiagnosticsRecord(run.geom, n_inf=run.n_inf, c0_max=run.c0_max)
            for st, _ in trajectory(run.state, run.cfg, run.model, run.lin, clock):
                if clock.output in (mid - 1, mid, mid + 1):
                    record.append_state(Frame(st, run.derived))
            normalized.append(record.rows[1]["identity_residual"])
        orders = [float(np.log2(normalized[i] / normalized[i + 1])) for i in range(2)]
        out[label] = {"normalized": normalized, "orders": orders}
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

class TestCriterion1Mass:
    def test_mass_conserved_over_2000_steps(self):
        rc = RunConfig.from_file(CONFIG_DIR / "disk_ns_small.cfg")
        rc.override("solver.end_time", 1.0e9)   # never reached; step count bounds the run
        run = setup(rc)
        state = run.state
        mass0 = volume_integral(state.n, run.geom)
        worst = 0.0
        t_start = time.perf_counter()
        # no output times, so no step is clamped short of its CFL level
        for state, _ in itertools.islice(
                trajectory(state, run.cfg, run.model, run.lin,
                           StepClock(run.cfg.dt_max, rc["solver.end_time"])), 2000):
            worst = max(worst, abs(volume_integral(state.n, run.geom) - mass0) / mass0)
        wall = time.perf_counter() - t_start
        report("1 mass conservation",
               worst <= 1e-8 and wall <= 120.0,
               f"max drift {worst:.2e} over 2000 steps at 128^2, wall {wall:.0f}s")


class TestCriterion2SupNorm:
    def test_c_max_nonincreasing_per_step(self, invariant_runs):
        worst = -np.inf
        for name, run in invariant_runs.items():
            c = run["probes"]["c_max"]
            slack = 1e-12 * run["c0_max"]
            worst = max(worst, float((np.diff(c) / max(slack, 1e-300)).max()))
            ok = np.all(np.diff(c) <= slack)
            assert ok, f"{name}: c_max increased beyond tolerance"
        report("2 sup-norm monotonicity", worst <= 1.0,
               f"worst per-step increase {worst:.2e} of the 1e-12*|c0| slack")


class TestCriterion3Positivity:
    def test_n_nonnegative(self, invariant_runs):
        worst = {}
        for name, run in invariant_runs.items():
            ratio = run["probes"]["n_min"] / np.maximum(run["probes"]["n_max"], 1e-300)
            worst[name] = float(ratio.min())
            assert np.all(run["probes"]["n_min"] >= -1e-10 * run["probes"]["n_max"]), name
        stress = invariant_runs["stress"]
        report("3 positivity", True,
               f"worst min(n)/max(n) = {min(worst.values()):.2e}; stress case: "
               f"{worst['stress']:.2e} over {stress['probes']['dt'].size} steps, largest "
               f"clamped_frac {max(stress['record'].column('clamped_frac')):.2e}")


class TestCriterion4Incompressibility:
    def test_divergence_and_gauge(self, invariant_runs):
        worst_div = 0.0
        worst_gauge = 0.0
        for name, run in invariant_runs.items():
            worst_div = max(worst_div, float(run["probes"]["div_bound_ratio"].max()))
            worst_gauge = max(worst_gauge, float(run["probes"]["p_gauge_ratio"].max()))
        report("4 incompressibility and gauge",
               worst_div <= 1.0 and worst_gauge <= 1.0,
               f"max div / (10 tol/dt) = {worst_div:.2e}, max |mean p| / (1e-12 max|p|) = {worst_gauge:.2e}")


class TestCriterion5PointwiseHessian:
    def test_trace_bound_everywhere(self, matrix_runs, scan_ladder):
        worst = max(run["hess_worst"] for run in matrix_runs.values())
        worst = max(worst, max(s["hess_pointwise_max"] for results in scan_ladder.values()
                               for s in results))
        report("5 pointwise Hessian inequality", worst <= 1e-10, f"worst violation {worst:.2e}")


class TestCriterion6CurvatureLemma:
    def test_scan_residuals_bounded_and_decreasing(self, scan_ladder):
        ok = True
        details = []
        for shape, results in scan_ladder.items():
            worsts = [r["ms_worst"] for r in results]
            tols = [r["ms_tolerance"] for r in results]
            ok = ok and all(w <= t for w, t in zip(worsts, tols))
            ok = ok and worsts[0] > worsts[1] > worsts[2]
            details.append(f"{shape}: " + " > ".join(f"{w:.1f}" for w in worsts))
        report("6 curvature-lemma scan", ok, "; ".join(details))


class TestCriterion7BoundarySign:
    def test_disk_nonpositive_star_positive(self, matrix_runs, scan_ladder):
        ok = True
        for name in ("disk_stokes_small", "disk_ns_small"):
            run = matrix_runs[name]
            bt = run["record"].column("boundary_term")
            h = run["geom"].h
            tol = 0.5 * np.sqrt(h)
            ok = ok and bool(np.all(bt[np.isfinite(bt)] <= tol))
        star_fine = scan_ladder["star"][-1]
        positives = star_fine["bt_integral_max"] > 0.0
        report("7 boundary-term sign", ok and positives,
               f"disk outputs nonpositive; star scan max integral {star_fine['bt_integral_max']:.3e} > 0")


class TestCriterion8EntropyIdentity:
    def test_residual_refinement(self, residual_studies):
        nf = residual_studies["no_fluid"]
        cp = residual_studies["coupled"]
        ok = (nf["normalized"][0] > nf["normalized"][1] > nf["normalized"][2]
              and all(o >= 0.8 for o in nf["orders"])
              and cp["normalized"][0] > cp["normalized"][1] > cp["normalized"][2]
              and all(o >= 0.5 for o in cp["orders"]))
        report("8 entropy-identity residual", ok,
               f"orders no-fluid {['%.2f' % o for o in nf['orders']]}, "
               f"coupled {['%.2f' % o for o in cp['orders']]}")


class TestCriterion9EnergyInequality:
    def test_finite_constant_and_stability(self, matrix_runs):
        ok = True
        cs = {}
        for name, run in matrix_runs.items():
            rep = run["energy"]
            ok = ok and rep.passed and np.isfinite(rep.extra["C"])
            cs[name] = rep.extra["C"]
        # refinement stability on one configuration
        rc = RunConfig.from_file(CONFIG_DIR / "disk_ns_small.cfg")
        rc.override("grid.n", 64)
        coarse = instrumented_run(rc)
        c_fine = cs["disk_ns_small"]
        c_coarse = coarse["energy"].extra["C"]
        tiny = 1e-3
        stable = (max(c_fine, c_coarse) <= tiny) or (0.5 <= (c_fine + tiny) / (c_coarse + tiny) <= 2.0)
        report("9 entropy-energy inequality", ok and stable,
               f"C by run {({k: '%.2e' % v for k, v in cs.items()})}, "
               f"refined pair ({c_fine:.2e}, {c_coarse:.2e})")


class TestCriterion10Convergence:
    def test_decay_to_flat_state(self, matrix_runs):
        ok = True
        details = []
        for name, run in matrix_runs.items():
            conv = run["conv"]
            tails = all(conv.tail_monotone.values())
            ok = ok and conv.passed and tails
            details.append(f"{name}: n {conv.conv_n_end / run['amplitudes'][0]:.1e}, "
                           f"c {conv.c_max_end / run['amplitudes'][1]:.1e}, "
                           f"u {conv.u_sup_end / run['amplitudes'][2]:.1e}")
        report("10 convergence to the flat state", ok, "; ".join(details))


class TestCriterion11MMS:
    def test_coupled_orders(self):
        from chemofluid.mms import convergence_study
        res = convergence_study(resolutions=(48, 96, 192), end_time=0.25, kappa_ns=1.0)
        ok = all(o >= 0.8 for var in ("n", "c", "u") for o in res["orders"][var])
        report("11 manufactured-solution verification", ok,
               ", ".join(f"{v}: {['%.2f' % o for o in res['orders'][v]]}" for v in ("n", "c", "u")))


class TestCriterion12Determinism:
    def test_byte_identical_csv(self, tmp_path):
        from chemofluid.runner import run_simulation
        rc = RunConfig({"grid.n": 48, "solver.end_time": 0.6, "output.every_time": 0.1,
                        "run.seed": 11})
        run_simulation(rc, tmp_path / "a")
        run_simulation(rc, tmp_path / "b")
        same = ((tmp_path / "a" / "diagnostics.csv").read_bytes()
                == (tmp_path / "b" / "diagnostics.csv").read_bytes())
        report("12 determinism", same, "diagnostics.csv byte-identical across repeated runs")
