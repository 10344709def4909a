"""Wrap chemofluid's layers in spans and turn the spans into per-layer metrics.

Every public function of a layer module is wrapped, and the wrapper replaces
the original wherever a chemofluid module holds it: a name brought in with
``from ... import`` is looked up in the importing module, so wrapping only
the defining module would miss those calls. A few methods and callables
that carry the solver's and the MMS layer's work are wrapped by hand.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys

from spans import layer_self_time

LAYERS = ("geometry", "model", "solver", "fields", "diagnostics", "gridio", "mms", "runner")

# (name, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = [
    ("geometry.classify_cells.s", "s"),
    ("geometry.active_cells", "count"),
    ("model.validate_assumptions.s", "s"),
    ("model.build_derived.s", "s"),
    ("solver.linear_systems_init.s", "s"),
    ("solver.lu_factorizations", "count"),
    ("solver.lu_factor.s", "s"),
    ("solver.distinct_dt", "count"),
    ("solver.steps", "count"),
    ("solver.cfl_dt.s", "s"),
    ("solver.step_c.s", "s"),
    ("solver.step_n.s", "s"),
    ("solver.step_u.s", "s"),
    ("solver.helmholtz_solve.calls", "count"),
    ("solver.helmholtz_solve.s", "s"),
    ("solver.viscous_solve.calls", "count"),
    ("solver.viscous_solve.s", "s"),
    ("solver.pressure_solve.calls", "count"),
    ("solver.pressure_solve.s", "s"),
    ("fields.advect_conservative.s", "s"),
    ("fields.chemotactic_face_velocity.calls", "count"),
    ("fields.chemotactic_face_velocity.s", "s"),
    ("fields.gradient_neumann.calls", "count"),
    ("fields.gradient_neumann.s", "s"),
    ("fields.hessian.calls", "count"),
    ("fields.hessian.s", "s"),
    ("fields.normal_derivative_of_gradsq.calls", "count"),
    ("fields.normal_derivative_of_gradsq.s", "s"),
    ("diagnostics.append_state.s", "s"),
    ("diagnostics.check_ms_lemma.calls", "count"),
    ("diagnostics.check_ms_lemma.s", "s"),
    ("diagnostics.check_inequality_33.s", "s"),
    ("diagnostics.boundary_term.calls", "count"),
    ("diagnostics.boundary_term.s", "s"),
    ("diagnostics.entropy_identity_residual.s", "s"),
    ("diagnostics.random_neumann_field.s", "s"),
    ("diagnostics.trajectory_fits.s", "s"),
    ("gridio.save_state.calls", "count"),
    ("gridio.save_state.s", "s"),
    ("gridio.save_state.bytes", "bytes"),
    ("mms.build_manufactured.s", "s"),
    ("mms.source_eval.calls", "count"),
    ("mms.source_eval.s", "s"),
    ("mms.run_manufactured.s", "s"),
    ("runner.output_rows", "count"),
    ("runner.csv_text.s", "s"),
] + [(layer + ".self_s", "s") for layer in LAYERS] + [
    ("trace.spans", "count"),
    ("trace.overhead_frac", "1"),
]

class _ModuleProxy:
    """A module with some attributes replaced, for one importer only."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer) -> dict:
    """Wrap every layer; returns the counters the wrappers fill."""
    mods = {layer: importlib.import_module("chemofluid." + layer) for layer in LAYERS}
    package = [m for name, m in sys.modules.items()
               if name == "chemofluid" or name.startswith("chemofluid.")]
    counters = {"dts": set(), "active_cells": 0, "save_bytes": 0}

    def on_step(args, kwargs, result):
        counters["dts"].add(kwargs["dt"] if "dt" in kwargs else args[4] if len(args) > 4 else None)

    def on_classify(args, kwargs, geom):
        counters["active_cells"] += int(geom.active.sum())

    def on_save(args, kwargs, result):
        counters["save_bytes"] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[0])

    def on_manufactured(args, kwargs, ms):
        ms.sources = {k: tracer.wrap("mms.source_eval", f) for k, f in ms.sources.items()}

    observers = {"solver.step": on_step, "geometry.classify_cells": on_classify,
                 "gridio.save_state": on_save, "mms.build_manufactured": on_manufactured}

    for layer, mod in mods.items():
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, fn, observers.get(name))
            for m in package:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)

    solver = mods["solver"]
    systems = solver.LinearSystems
    systems.__init__ = tracer.wrap("solver.linear_systems_init", systems.__init__)
    for meth in ("helmholtz_solve", "viscous_solve", "pressure_solve"):
        setattr(systems, meth, tracer.wrap("solver." + meth, getattr(systems, meth)))
    solver.spla = _ModuleProxy(solver.spla, splu=tracer.wrap("solver.lu_factor", solver.spla.splu))
    record = mods["diagnostics"].DiagnosticsRecord
    record.append_state = tracer.wrap("diagnostics.append_state", record.append_state)
    record.csv_text = tracer.wrap("runner.csv_text", record.csv_text)
    mods["runner"]._ineq_csv = tracer.wrap("runner.csv_text", mods["runner"]._ineq_csv)
    return counters


def layer_metrics(stats: dict, counters: dict, output_rows: int) -> dict:
    """Every PER_LAYER value except trace.overhead_frac, which needs untraced runs.

    Layers a workload never calls read 0.
    """
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    special = {
        "geometry.active_cells": counters["active_cells"],
        "solver.lu_factorizations": get("solver.lu_factor", "calls"),
        "solver.distinct_dt": len(counters["dts"]),
        "solver.steps": get("solver.step", "calls"),
        "gridio.save_state.bytes": counters["save_bytes"],
        "runner.output_rows": output_rows,
        "diagnostics.trajectory_fits.s": sum(
            get("diagnostics." + fit, "busy_s")
            for fit in ("check_energy_inequality", "check_velocity_energy", "convergence_monitor")),
        "trace.spans": sum(st["calls"] for st in stats.values()),
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name == "trace.overhead_frac":
            continue
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = layer_self_time(stats, name[:-len(".self_s")])
        elif name.endswith(".calls"):
            out[name] = get(name[:-len(".calls")], "calls")
        else:
            out[name] = get(name[:-len(".s")], "busy_s")
    return out
