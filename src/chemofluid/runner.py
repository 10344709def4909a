"""Run orchestration: set-up, the time loop with diagnostics, CSV artifacts, summaries.

``setup`` builds each object of a run once, its checked first SimState at
t = 0 included, and ``trajectory``, shared with the acceptance suite, steps
from that state at the quantized CFL level and leaves the schedule to
StepClock (exact output times, no drift). The run emits a row whenever a step
lands on an output. At every output time one diagnostics Frame is built over
the state, and the row and both per-state inequality checks read their shared
intermediates from it. The DiagnosticsRecord fills each interior row's
entropy-identity residual itself when the next row arrives, so no state is
copied or held. Artifacts under the output directory:

    diagnostics.csv    one row per output time (column order in csv_schema.md)
    inequalities.csv   one row per inequality evaluation
    summary.json       RunSummary, written atomically at the end; its solver
                       block counts LU factorizations, factor evictions,
                       clock-shortened steps and their CG iterations, and
                       gives the process's peak resident memory in MB
    config.txt         the fully resolved configuration
    snap_XXXX.bin      optional binary checkpoints (output.snapshot_every),
                       readable with gridio.load_state

Randomized inequality scans share the CSV conventions; with a fixed seed all
artifacts are byte-identical across repeated invocations. A scan smooths its
random fields SCAN_CHUNK trials at a time, in one multi-column solve per heat
step. The seed draws the same noise as trial by trial, and the fields agree
with trial-by-trial ones to round-off (see ``random_neumann_field``).
"""

from __future__ import annotations

import collections
import json
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chemofluid.config import ConfigError, RunConfig
from chemofluid.diagnostics import (
    DiagnosticsRecord,
    Frame,
    InequalityReport,
    boundary_term,
    check_energy_inequality,
    check_inequality_33,
    check_ms_lemma,
    check_velocity_energy,
    convergence_monitor,
    hessian_pointwise_violation,
    random_neumann_field,
)
from chemofluid.fields import ScalarField
from chemofluid.geometry import volume_integral
from chemofluid.gridio import save_state
from chemofluid.model import build_derived
from chemofluid.solver import (
    LinearSystems,
    SimState,
    SolverAbort,
    StepClock,
    cfl_dt,
    check_initial,
    quantize_dt,
    step,
)

INEQ_HEADER = "id,time,lhs,rhs,violation,tolerance,passed"


@dataclass
class RunSummary:
    exit_status: str
    steps: int
    final_row: dict
    inequality_verdicts: dict
    convergence: dict
    wall_time: float
    timings: dict
    solver: dict
    outputs: list = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True, default=float)


def _write_atomic(path: Path, text: str):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _ineq_csv(reports: list[InequalityReport]) -> str:
    lines = [INEQ_HEADER]
    for r in reports:
        lines.append("%s,%.17e,%.17e,%.17e,%.17e,%.17e,%d" % r.row())
    return "\n".join(lines) + "\n"


def initial_data(rc: RunConfig) -> tuple[SimState, float]:
    """The run's checked first state on its geometry, and the maximum of c there.

    That maximum is the c_max on which ``run`` (through ``build_derived``) and
    ``validate-model`` check the kinetics assumptions. A state that
    ``check_initial`` refuses raises ConfigError: the configuration made it.
    """
    state = rc.build_initial(rc.build_geometry())
    try:
        check_initial(state)
    except ValueError as exc:
        raise ConfigError(f"initial state refused: {exc}") from exc
    return state, state.c.max_active()


RunSetup = collections.namedtuple(
    "RunSetup", "geom model derived cfg lin state c0_max n_inf amplitudes")
RunSetup.__doc__ = ("A run before its first step. ``state`` is its checked first state at t = 0, "
                    "which ``trajectory`` steps from: a step returns a new state.")


def setup(rc: RunConfig) -> RunSetup:
    """Everything a run builds before its first step, the first state included.

    Raises ConfigError when ``check_initial`` refuses the first state, and
    ModelError when ``build_derived`` refuses the model.
    """
    state, c0_max = initial_data(rc)
    geom = state.n.geom
    model = rc.build_model()
    derived = build_derived(model, c0_max)
    cfg = rc.solver_config()
    cfg.c_floor = derived.c_floor
    lin = LinearSystems(geom)
    n_inf = volume_integral(state.n, geom) / geom.area
    amplitudes = (float(np.abs(state.n.data[geom.active] - n_inf).max()),
                  c0_max, max(state.u.max_speed(), 1e-300))
    return RunSetup(geom, model, derived, cfg, lin, state, c0_max, n_inf, amplitudes)


def trajectory(state, cfg, model, lin, clock):
    """Step at the quantized CFL level and yield (state, dt) until ``clock`` is done.

    ``step`` gets the level next to the dt the clock allowed, so a step cut
    short by an output time is solved on the level's factors.

    ``clock.output`` is the output the step landed on, if any. A SolverAbort
    leaves with ``step_index``, the 1-based number of the step attempted.
    """
    while not clock.done:
        attempt = clock.steps + 1
        try:
            level = quantize_dt(cfl_dt(state, cfg, model), cfg.dt_max)
            dt = clock.advance(level)
            state = step(state, cfg, model, lin, dt=dt, level=level)
        except SolverAbort as exc:
            exc.step_index = attempt
            raise
        state.t = clock.t
        yield state, dt


def run_simulation(rc: RunConfig, out_dir) -> RunSummary:
    """Execute the full time loop described by the configuration.

    Raises ConfigError first when the run would write fewer than three
    output rows, the least the energy-inequality fit takes, and ConfigError
    or ModelError from ``setup``, before the loop. On a SolverAbort it writes
    the CSVs' rows so far, no summary.json, and lets the abort go on.
    """
    clock = StepClock(rc["solver.dt_max"], rc["solver.end_time"], rc["output.every_time"])
    if clock.targets < 2:   # row 0 is the initial state
        raise ConfigError(
            f"solver.end_time = {rc['solver.end_time']:g} with output.every_time = "
            f"{rc['output.every_time']:g} gives {clock.targets + 1} output rows; "
            "the energy-inequality fit needs at least 3")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t_wall = time.perf_counter()
    run = setup(rc)
    timings = collections.defaultdict(float, setup=time.perf_counter() - t_wall)

    record = DiagnosticsRecord(run.geom, n_inf=run.n_inf, c0_max=run.c0_max)
    ineq_rows: list[InequalityReport] = []
    snap_every = rc["output.snapshot_every"]

    def emit(st, index):
        t_diag = time.perf_counter()
        frame = Frame(st, run.derived)
        record.append_state(frame)
        ineq_rows.append(check_ms_lemma(frame, c_check=rc["check.ms_c"], time=st.t))
        ineq_rows.append(check_inequality_33(frame, time=st.t))
        if snap_every and index % snap_every == 0:
            save_state(out / f"snap_{index:04d}.bin", st)
        timings["diagnostics"] += time.perf_counter() - t_diag

    emit(run.state, 0)
    try:
        t0 = time.perf_counter()
        for state, _ in trajectory(run.state, run.cfg, run.model, run.lin, clock):
            timings["stepping"] += time.perf_counter() - t0
            if clock.output is not None:
                emit(state, clock.output)
            t0 = time.perf_counter()
    except SolverAbort:
        _write_atomic(out / "diagnostics.csv", record.csv_text())
        _write_atomic(out / "inequalities.csv", _ineq_csv(ineq_rows))
        raise

    energy = check_energy_inequality(record)
    velocity = check_velocity_energy(record, abs(run.model.grav))
    ineq_rows.extend([energy, velocity])
    conv = convergence_monitor(record, run.amplitudes, rc["conv.threshold_rel"])

    _write_atomic(out / "diagnostics.csv", record.csv_text())
    _write_atomic(out / "inequalities.csv", _ineq_csv(ineq_rows))
    _write_atomic(out / "config.txt", "\n".join(rc.config_lines()) + "\n")

    summary = RunSummary(
        exit_status="ok",
        steps=clock.steps,
        final_row=record.rows[-1],
        inequality_verdicts={
            "ms_lemma_all_passed": all(r.passed for r in ineq_rows if r.id == "ms_lemma"),
            "gradient_quartic_all_passed": all(r.passed for r in ineq_rows
                                               if r.id == "gradient_quartic"),
            "entropy_energy": {"passed": energy.passed, "C": energy.extra["C"],
                               "slack": energy.violation},
            "velocity_energy": {"passed": velocity.passed, "C": velocity.extra["C"],
                                "grad_u_time_integral": velocity.extra["grad_u_time_integral"]},
        },
        convergence={"passed": conv.passed, "conv_n_end": conv.conv_n_end,
                     "c_max_end": conv.c_max_end, "u_sup_end": conv.u_sup_end,
                     "thresholds": list(conv.thresholds),
                     "c_max_monotone": conv.c_max_monotone,
                     "tail_monotone": conv.tail_monotone,
                     "amplitudes": list(run.amplitudes)},
        wall_time=time.perf_counter() - t_wall,
        timings=dict(timings),
        solver={"lu_factorizations": run.lin.factorizations, "factor_evictions": run.lin.evictions,
                "shortened_steps": clock.shortened, "pcg_iterations": run.lin.pcg_iterations,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0},
        outputs=[str(out / "diagnostics.csv"), str(out / "inequalities.csv")],
    )
    _write_atomic(out / "summary.json", summary.to_json())
    return summary


# ---------------------------------------------------------------------------
# randomized inequality scans
# ---------------------------------------------------------------------------

# Trials whose fields are smoothed together, one solve column each. A solve
# reads the whole factor once per call, so a column costs about half as much
# in a block of 8 as alone; larger blocks cost more per column and memory.
SCAN_CHUNK = 8

SCAN_HEADER = ("trial,ms_violation,ms_tolerance,bt_integral,bt_integrand_max,"
               "i33_lhs,i33_rhs,hess_pointwise_max")


def run_inequality_scan(rc: RunConfig, out_dir) -> dict:
    """Evaluate every inequality on seed-fixed random boundary-compatible fields.

    The fields are drawn and smoothed SCAN_CHUNK trials at a time, then
    checked one by one. Each chunk is one call of this module's
    ``random_neumann_field``, the name a wrapper sees the trials start by.
    Returns a summary dict; writes scan.csv (byte-reproducible for a fixed
    seed) under out_dir. ``build_derived`` raises ModelError before any trial.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    geom = rc.build_geometry()
    c_base = rc["init.c0_base"]
    derived = build_derived(rc.build_model(), c_base + rc["scan.amplitude"])
    lin = LinearSystems(geom)
    rng = np.random.default_rng(rc["run.seed"])
    rows = []
    i33_violations = 0
    trials = rc["scan.trials"]
    for first in range(0, trials, SCAN_CHUNK):
        fields = random_neumann_field(geom, lin, rng, amplitude=rc["scan.amplitude"],
                                      smooth_len=rc["scan.smooth_len"],
                                      n_smooth=rc["scan.n_smooth"],
                                      count=min(SCAN_CHUNK, trials - first))
        for trial in range(first, first + len(fields)):
            z = fields.pop(0)   # freed once checked, so the chunk is not held whole
            c = ScalarField(geom, np.where(geom.active, c_base + z.data, 0.0))
            frame = Frame(c, derived)
            ms = check_ms_lemma(frame, c_check=rc["check.ms_c"])
            bt = boundary_term(frame)
            _, _, ok = frame.boundary_probes
            bt_ptw = float(np.where(ok, frame.boundary_integrand, -np.inf).max())
            i33 = check_inequality_33(frame)
            hv = hessian_pointwise_violation(c)
            rows.append((trial, ms.violation, ms.tolerance, bt, bt_ptw, i33.lhs, i33.rhs, hv))
            # the rows hold no i33 tolerance, so the violations are counted here
            if i33.lhs > i33.rhs + i33.tolerance:
                i33_violations += 1
    column = dict(zip(SCAN_HEADER.split(","), zip(*rows)))
    worst_ms = max(column["ms_violation"])
    lines = [SCAN_HEADER]
    for r in rows:
        lines.append("%d," % r[0] + ",".join("%.17e" % v for v in r[1:]))
    _write_atomic(out / "scan.csv", "\n".join(lines) + "\n")
    result = {
        "trials": rc["scan.trials"],
        "h": geom.h,
        "convex": geom.is_convex,
        "kappa_max": geom.kappa_max,
        "ms_worst": worst_ms,
        "ms_tolerance": ms.tolerance,
        "ms_passed": bool(worst_ms <= ms.tolerance),
        "bt_integral_max": max(column["bt_integral"]),
        "bt_integrand_max": max(column["bt_integrand_max"]),
        "i33_violations": i33_violations,
        "hess_pointwise_max": max(column["hess_pointwise_max"]),
    }
    _write_atomic(out / "scan_summary.json", json.dumps(result, indent=2, sort_keys=True))
    return result
