"""Run one workload of the chemofluid benchmark and print its metrics.

    python3 perfbench/run.py --workload star_ns_step --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ./src. One
client runs one invocation at a time (a closed loop) while the next one is
expected to end within --seconds (at least one; two when traced), each
invocation in a fresh process with BLAS/OpenMP limited to one thread,
all on one CPU, and checks every invocation's output (gate.py). Timings
are at reference machine speed (calibrate.py). The last line of standard
output is one JSON object: with --trace 0 the medians of the end-to-end
metrics, with --trace 1 the medians of the per-layer metrics from
traced invocations, which alternate with untraced ones so that the tracing
overhead can be measured. Machine details, the seed and every invocation,
unscaled timings included, go to .bench_out/<workload>-seed<seed>/, spans of
a traced run included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads
from instrument import PER_LAYER

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
DEADLINE_S = 170
# Added to every child's environment: one BLAS/OpenMP thread, one string hash order.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
             "PYTHONHASHSEED": "0"}
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"), ("peak_rss_mb", "MB")]


class InvocationError(RuntimeError):
    """The child process failed or printed no report."""


def machine() -> dict:
    """CPU count and model, cache sizes; read-only."""
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def invoke(spec: dict, trace: bool, index: int, out_dir: Path, timeout: float) -> dict:
    child = dict(spec, trace=trace, invocation=index, out_dir=str(out_dir))
    proc = subprocess.run([sys.executable, str(HERE / "invoke.py")], input=json.dumps(child),
                          capture_output=True, text=True, timeout=timeout,
                          env=dict(os.environ, **CHILD_ENV))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise InvocationError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check(spec: dict, report: dict, out_dir: Path, reference: dict | None) -> list[str]:
    rows = workloads.expected_rows(spec["workload"]) if spec["kind"] == "run" else None
    return gate.check(spec["kind"], out_dir, report["result"], rows, reference)


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "chemofluid" / "__init__.py").is_file():
        print("error: ./src/chemofluid not found; run from the root of a chemofluid checkout",
              file=sys.stderr)
        return 2
    spec = workloads.spec(args.workload, args.seed, root)
    refs = json.loads((HERE / "references.json").read_text())
    reference = refs["workloads"][args.workload] if args.seed == refs["seed"] else None
    base = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)

    # Children inherit the pinning: a child's kernel timings and its program
    # then see the same CPU.
    host = machine()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    untraced, traced, log, spans, durations = [], [], [], [], []
    attempted = failed = 0
    scan_digest = None
    # A traced run needs an untraced and a traced invocation.
    min_invocations = 2 if args.trace else 1
    start = time.perf_counter()
    # Start another invocation only if it is expected to end within --seconds.
    while attempted < min_invocations or (
            time.perf_counter() - start + statistics.median(durations) <= args.seconds):
        began = time.perf_counter()
        with_trace = bool(args.trace) and attempted % 2 == 1
        out_dir = base / f"inv{attempted}"
        attempted += 1
        report = None
        try:
            report = invoke(spec, with_trace, attempted - 1, out_dir,
                            DEADLINE_S - (time.perf_counter() - start))
            problems = check(spec, report, out_dir, reference)
            if spec["kind"] == "scan":
                digest = hashlib.sha256((out_dir / "scan.csv").read_bytes()).hexdigest()
                scan_digest = scan_digest or digest
                if digest != scan_digest:
                    problems.append("scan.csv differs from the first repeat of this seed")
        except (InvocationError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        shutil.rmtree(out_dir, ignore_errors=True)
        durations.append(time.perf_counter() - began)
        if problems:
            failed += 1
            print(f"invocation {attempted - 1} FAILED: " + "; ".join(problems), file=sys.stderr)
        if report is not None:
            spans += report.pop("spans", [])
            (traced if with_trace else untraced).append(report)
            log.append({"traced": with_trace, "problems": problems,
                        **{k: v for k, v in report.items() if k != "layers"}})

    if args.trace:
        # median_low keeps a count a count when the number of samples is even
        metrics = {name: {"value": statistics.median_low(r["layers"][name] for r in traced),
                          "unit": unit}
                   for name, unit in PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = {
            "value": (statistics.median(r["measured"]["wall_s"] for r in traced)
                      / statistics.median(r["measured"]["wall_s"] for r in untraced) - 1.0),
            "unit": "1"}
        (base / "spans.json").write_text(json.dumps(
            {"fields": ["id", "parent", "name", "start", "end", "invocation"], "spans": spans}))
    else:
        metrics = {name: {"value": median_of(untraced, name), "unit": unit}
                   for name, unit in END_TO_END}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "samples": {"untraced": len(untraced), "traced": len(traced)},
            "machine": host, "child_env": CHILD_ENV, "cpu": sorted(os.sched_getaffinity(0)),
            "versions": (untraced or traced)[0]["versions"], "config": spec}
    (base / "result.json").write_text(json.dumps(
        {"info": info, "invocations": log, "metrics": metrics}, indent=1, default=float))
    print("info " + json.dumps(info["samples"] | {"seed": args.seed, "nproc": info["machine"]["nproc"]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
