"""Correctness gate: is one invocation's output right?

The invariant bounds are the acceptance suite's (tests/test_acceptance.py and
tests/test_cli.py), none loosened. Key outputs are also compared with the
reference values in references.json, recorded at the default seed; other
seeds get the invariant checks only. REL_TOL absorbs a reordering of floating
point sums (a relative change near 1e-13 after hundreds of steps) and still
catches a wrong answer, which moves these values by far more.

Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import json
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-12
MASS_DRIFT = 1e-8          # acceptance criterion 1
CMAX_SLACK = 1e-12         # criterion 2, times the initial sup of c
MIN_ORDER = 0.8            # criterion 11

RUN_KEYS = ("mass", "c_max", "entropy_n", "grad_psi_sq", "fisher", "hess_rho", "boundary_term")
SCAN_KEYS = ("ms_worst", "bt_integral_max", "bt_integrand_max", "i33_violations")


def read_csv(path) -> list[dict]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def run_values(out_dir) -> dict:
    """Key outputs of a run: the final diagnostics row and the step count."""
    final = read_csv(Path(out_dir) / "diagnostics.csv")[-1]
    values = {k: final[k] for k in RUN_KEYS}
    values["steps"] = json.loads((Path(out_dir) / "summary.json").read_text())["steps"]
    return values


def key_values(kind: str, out_dir, result: dict) -> dict:
    """The outputs compared with references.json."""
    if kind == "run":
        return run_values(out_dir)
    if kind == "scan":
        return {k: result[k] for k in SCAN_KEYS}
    return {f"err_{var}_{level}": err[var]
            for level, err in enumerate(result["errors"]) for var in ("n", "c", "u")}


def compare(values: dict, reference: dict) -> list[str]:
    problems = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None:
            problems.append(f"{key} missing")
        elif abs(got - ref) > REL_TOL * abs(ref) + ABS_TOL:
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    return problems


def run_invariants(out_dir, expected_rows: int) -> list[str]:
    out = Path(out_dir)
    summary = json.loads((out / "summary.json").read_text())
    rows = read_csv(out / "diagnostics.csv")
    problems = []
    if summary["exit_status"] != "ok":
        problems.append(f"exit_status {summary['exit_status']!r}")
    if not summary["inequality_verdicts"]["ms_lemma_all_passed"]:
        problems.append("curvature lemma failed")
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    mass0 = rows[0]["mass"]
    drift = max(abs(r["mass"] - mass0) for r in rows) / mass0
    if drift > MASS_DRIFT:
        problems.append(f"relative mass drift {drift:.3e} > {MASS_DRIFT}")
    slack = CMAX_SLACK * rows[0]["c_max"]
    rise = max((b["c_max"] - a["c_max"] for a, b in zip(rows, rows[1:])), default=0.0)
    if rise > slack:
        problems.append(f"c_max rose by {rise:.3e} > {slack:.3e}")
    return problems


def scan_invariants(result: dict) -> list[str]:
    if result["ms_passed"]:
        return []
    return [f"curvature lemma failed: worst {result['ms_worst']!r}"]


def mms_invariants(result: dict) -> list[str]:
    return [f"order of {var} at level {k} is {order:.3f} < {MIN_ORDER}"
            for var, orders in result["orders"].items()
            for k, order in enumerate(orders) if order < MIN_ORDER]


def check(kind: str, out_dir, result: dict, expected_rows: int | None = None,
          reference: dict | None = None) -> list[str]:
    """Invariants of the workload kind, then the reference values if given."""
    if kind == "run":
        problems = run_invariants(out_dir, expected_rows)
    elif kind == "scan":
        problems = scan_invariants(result)
    else:
        problems = mms_invariants(result)
    if reference is not None:
        problems += compare(key_values(kind, out_dir, result), reference)
    return problems
