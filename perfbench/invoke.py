"""One invocation of a workload's public entry point, in its own process.

Reads a spec (see workloads.spec) as JSON on stdin, runs it from the
checkout's ``src`` and prints one JSON line: wall and set-up time and work
per second after set-up, at reference machine speed (calibrate.py) and as
measured, peak RSS and the entry point's return value, plus per-layer metrics
and spans when the spec asks for tracing. A traced invocation is not paused
for calibration, so its timings are as measured. Imports are done before the
clock starts.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, str(Path.cwd() / "src"))
    import numpy
    import scipy

    from chemofluid import runner
    from chemofluid.config import RunConfig, parse_config_text

    from calibrate import Clock, Kernel

    tracer = counters = None
    if spec["trace"]:
        import instrument
        from spans import Tracer

        tracer = Tracer(spec["invocation"])
        counters = instrument.install(tracer)
    kernel = None if tracer else Kernel()

    # The clock ticks before every step or scan trial; the first tick ends set-up.
    def tick_before(module, name):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            clock.tick()
            return fn(*args, **kwargs)

        setattr(module, name, probe)

    out_dir = spec["out_dir"]
    kind = spec["kind"]
    if kind == "mms":
        from chemofluid import mms

        tick_before(mms, "step")
        args = spec["args"]
        clock = Clock(kernel)
        result = mms.convergence_study(resolutions=tuple(args["resolutions"]),
                                       end_time=args["end_time"], kappa_ns=args["kappa_ns"])
        clock.tick(force=True)
        work = len(args["resolutions"]) * args["end_time"]
    else:
        rc = RunConfig(parse_config_text(spec["config_text"]))
        if kind == "run":
            tick_before(runner, "step")
            clock = Clock(kernel)
            summary = runner.run_simulation(rc, out_dir)
            clock.tick(force=True)
            result = {"steps": summary.steps}
            work = rc["solver.end_time"]
        else:
            tick_before(runner, "random_neumann_field")
            clock = Clock(kernel)
            result = runner.run_inequality_scan(rc, out_dir)
            clock.tick(force=True)
            work = rc["scan.trials"]

    wall, setup = clock.scaled()
    measured_wall, measured_setup = clock.measured()
    report = {
        "wall_s": wall,
        "setup_s": setup,
        "work_per_s": work / (wall - setup),
        "measured": {"wall_s": measured_wall, "setup_s": measured_setup,
                     "work_per_s": work / (measured_wall - measured_setup)},
        "kernel_s": clock.kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "result": result,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        from spans import span_stats

        rows = 0
        for csv in ("diagnostics.csv", "scan.csv"):
            path = Path(out_dir) / csv
            if path.exists():
                rows = len(path.read_text().splitlines()) - 1
        report["layers"] = instrument.layer_metrics(span_stats(tracer.spans), counters, rows)
        report["spans"] = [list(s) + [tracer.invocation] for s in tracer.spans]
    print(json.dumps(report, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
