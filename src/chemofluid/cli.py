"""Command-line interface.

Subcommands:

    run                 integrate the configured system, write CSV + summary
    validate-model      check the kinetics assumptions, print the report
    check-geometry      build the grid geometry and print its measures
    mms                 manufactured-solution convergence study
    scan-inequalities   randomized boundary/inequality scan

Exit codes: 0 success/pass, 2 validation failure, 3 solver abort,
4 configuration error (a usage error too: an unknown flag, or one the
subcommand does not read). ``--seed`` is taken by scan-inequalities alone,
``--resolution`` by every subcommand but mms.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONFIG = 4

# the flags that override a config key, and the key
OVERRIDES = {"seed": "run.seed", "resolution": "grid.n"}


def _load_config(args):
    from chemofluid.config import RunConfig
    if args.config:
        rc = RunConfig.from_file(args.config)
    else:
        rc = RunConfig()
    for flag, key in OVERRIDES.items():
        if getattr(args, flag, None) is not None:
            rc.override(key, getattr(args, flag))
    return rc


def cmd_run(args) -> int:
    from chemofluid.runner import run_simulation
    from chemofluid.solver import SolverAbort
    rc = _load_config(args)
    try:
        summary = run_simulation(rc, args.out)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    conv = summary.convergence
    print(f"run finished: {summary.steps} steps, wall {summary.wall_time:.1f}s")
    print(f"final: mass={summary.final_row['mass']:.8e} c_max={summary.final_row['c_max']:.3e} "
          f"|n-n_inf|={conv['conv_n_end']:.3e} |u|={conv['u_sup_end']:.3e}")
    print(f"convergence verdict: {'PASS' if conv['passed'] else 'FAIL'} "
          f"(c_max monotone: {conv['c_max_monotone']})")
    ee = summary.inequality_verdicts["entropy_energy"]
    print(f"entropy-energy constant C = {ee['C']:.4e} (slack {ee['slack']:.2e})")
    print(f"artifacts: {', '.join(summary.outputs)}")
    return EXIT_OK


def cmd_validate_model(args) -> int:
    from chemofluid.model import validate_assumptions
    from chemofluid.runner import initial_data
    rc = _load_config(args)
    model = rc.build_model()
    _, c0_max = initial_data(rc)
    report = validate_assumptions(model, c0_max)
    for line in report.summary_lines():
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["condition,passed,worst_value,worst_point,margin"]
        for c in report.conditions:
            lines.append(f"{c.name},{int(c.passed)},%.17e,%.17e,%.17e"
                         % (c.worst_value, c.worst_point, c.margin))
        (out / "assumptions.csv").write_text("\n".join(lines) + "\n")
    report.raise_on_failure()
    return EXIT_OK


def cmd_check_geometry(args) -> int:
    rc = _load_config(args)
    geom = rc.build_geometry()
    import numpy as np
    full_x, full_y = geom.bbox_shape
    print(f"grid: {geom.nx} x {geom.ny} stored of {full_x} x {full_y}, "
          f"origin {geom.origin}, h = {geom.h:.6g}")
    print(f"cells: interior {int(geom.interior.sum())}, band {int(geom.band.sum())}, "
          f"active {int(geom.active.sum())}")
    print(f"area = {geom.area:.8g}, perimeter = {geom.perimeter:.8g}")
    print(f"boundary segments: {len(geom.seg_weight)} "
          f"(curvature range [{geom.seg_curvature.min():.4g}, {geom.seg_curvature.max():.4g}])")
    print(f"kappa_max = {geom.kappa_max:.6g}, convex: {geom.is_convex}, "
          f"components: {geom.n_components}")
    nrm = np.abs(np.hypot(geom.seg_normal[:, 0], geom.seg_normal[:, 1]) - 1.0).max()
    print(f"max |1 - |nu|| over segments: {nrm:.3e}")
    return EXIT_OK


def cmd_mms(args) -> int:
    from chemofluid.mms import convergence_study
    rc = _load_config(args)
    res = convergence_study(resolutions=tuple(rc["mms.resolutions"]),
                            end_time=rc["mms.end_time"],
                            kappa_ns=rc["model.kappa_ns"],
                            dt_ratio=rc["mms.dt_ratio"])
    print("level   h        steps  err_n        err_c        err_u")
    for k, e in enumerate(res["errors"]):
        print(f"{k:5d}  {e['h']:.5f}  {e['steps']:5d}  {e['n']:.5e}  {e['c']:.5e}  {e['u']:.5e}")
    ok = True
    for var in ("n", "c", "u"):
        orders = res["orders"][var]
        ok = ok and all(o >= 0.8 for o in orders)
        print(f"observed order {var}: " + ", ".join(f"{o:.3f}" for o in orders))
    print("verdict:", "PASS (all orders >= 0.8)" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_scan(args) -> int:
    from chemofluid.runner import run_inequality_scan
    rc = _load_config(args)
    result = run_inequality_scan(rc, args.out)
    print(f"scan: {result['trials']} trials at h = {result['h']:.5f} "
          f"(convex: {result['convex']}, kappa_max = {result['kappa_max']:.4g})")
    print(f"curvature-lemma worst residual {result['ms_worst']:.4e} "
          f"(tolerance {result['ms_tolerance']:.4e}): "
          f"{'PASS' if result['ms_passed'] else 'FAIL'}")
    print(f"boundary term: max integral {result['bt_integral_max']:.4e}, "
          f"max integrand {result['bt_integrand_max']:.4e}")
    print(f"quartic-gradient inequality violations: {result['i33_violations']}")
    print(f"pointwise Hessian bound worst: {result['hess_pointwise_max']:.3e}")
    return EXIT_OK if result["ms_passed"] else EXIT_VALIDATION


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_CONFIG, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="chemofluid", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, *flags, out=False):
        """A subcommand that reads --config and the OVERRIDES ``flags``; --out defaults to ``out``."""
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--config", type=str, default=None, help="config file path")
        for flag in flags:
            sp.add_argument("--" + flag, type=int, default=None, help=f"override {OVERRIDES[flag]}")
        if out is not False:
            sp.add_argument("--out", type=str, default=out, help="output directory")

    command("run", cmd_run, "run a simulation", "resolution", out="out")
    command("validate-model", cmd_validate_model, "check kinetics assumptions", "resolution",
            out=None)
    command("check-geometry", cmd_check_geometry, "build and report the grid geometry",
            "resolution")
    command("mms", cmd_mms, "manufactured-solution convergence study")
    command("scan-inequalities", cmd_scan, "randomized inequality scan", "seed", "resolution",
            out="out")
    return p


def main(argv=None) -> int:
    """Run one subcommand; a usage error exits EXIT_CONFIG from the parser."""
    args = build_parser().parse_args(argv)
    from chemofluid.config import ConfigError
    from chemofluid.geometry import DomainError, ResolutionError
    from chemofluid.gridio import FormatError
    from chemofluid.model import ModelError
    try:
        return args.func(args)
    except (ConfigError, DomainError, ResolutionError, FormatError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModelError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
