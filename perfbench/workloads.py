"""The benchmark's workloads and the inputs each one gets from a seed.

Every workload calls one public entry point of chemofluid. The run and scan
workloads receive a configuration text; the program sees only that text, never
the seed. A workload is chosen because one layer does most of its work while
another workload barely touches that layer (see README.md).
"""

from __future__ import annotations

import random
from pathlib import Path

DEFAULT_SEED = 0

# Bump centre of the initial cell density (the schema defaults of init.n0_x
# and init.n0_y) and the half-width of the square the seed moves it within.
BUMP_CENTRE = (0.2, 0.1)
BUMP_JITTER = 0.02

WORKLOADS = {
    # Stepping-bound: CFL-limited steps on the non-convex star with
    # Navier-Stokes advection, diagnostics only every 0.5 time units.
    "star_ns_step": {
        "kind": "run",
        "config": "configs/star_ns_moderate.cfg",
        "overrides": {"grid.n": 256, "output.every_time": 0.5, "solver.end_time": 1.0},
    },
    # Diagnostics-bound: one output row per step on the convex disk with a
    # Stokes fluid (no MAC advection), checkpoints every 25 rows.
    "disk_stokes_diag": {
        "kind": "run",
        "config": "configs/disk_stokes_small.cfg",
        "overrides": {"grid.n": 128, "output.every_time": 0.02, "solver.end_time": 1.5,
                      "output.snapshot_every": 25},
    },
    # One-shot diagnostics on independent random fields: no trajectory and
    # no stepping, one cached Helmholtz factor.
    "star_scan": {
        "kind": "scan",
        "config": "configs/star_ns_small.cfg",
        "overrides": {"grid.n": 256, "scan.trials": 50},
    },
    # Manufactured-solution refinement ladder of acceptance criterion 11:
    # three geometries and three factor caches at fixed dt. Seed-invariant.
    "mms_ladder": {
        "kind": "mms",
        "args": {"resolutions": [48, 96, 192], "end_time": 0.25, "kappa_ns": 1.0},
    },
}


def bump_centre(seed: int) -> tuple[float, float]:
    """Initial bump centre for a seed, within BUMP_JITTER of BUMP_CENTRE."""
    rng = random.Random(seed)
    return (BUMP_CENTRE[0] + rng.uniform(-BUMP_JITTER, BUMP_JITTER),
            BUMP_CENTRE[1] + rng.uniform(-BUMP_JITTER, BUMP_JITTER))


def config_text(name: str, seed: int, root: Path) -> str:
    """The configuration a run or scan workload hands to the program.

    The shipped config file comes first; the workload's overrides and the
    seed-derived values follow and win, because later lines replace earlier
    ones.
    """
    wl = WORKLOADS[name]
    values = dict(wl["overrides"])
    if wl["kind"] == "run":
        values["init.n0_x"], values["init.n0_y"] = bump_centre(seed)
    else:
        values["run.seed"] = seed
    lines = [(root / wl["config"]).read_text().rstrip("\n"), "# benchmark workload " + name]
    lines += [f"{key} = {value!r}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def spec(name: str, seed: int, root: Path) -> dict:
    """Everything one invocation needs, as plain JSON-able data."""
    wl = WORKLOADS[name]
    out = {"workload": name, "kind": wl["kind"], "seed": seed}
    if wl["kind"] == "mms":
        out["args"] = dict(wl["args"])
    else:
        out["config_text"] = config_text(name, seed, root)
    return out


def expected_rows(name: str) -> int:
    """Output rows of a run workload: one per output time, plus t = 0."""
    ov = WORKLOADS[name]["overrides"]
    return round(ov["solver.end_time"] / ov["output.every_time"]) + 1
