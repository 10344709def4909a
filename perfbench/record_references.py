"""Record the reference outputs the gate compares against, at the default seed.

    python3 perfbench/record_references.py

Run from the root of a checkout. Re-record only when a change is meant to
alter the numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import workloads
from run import HERE, OUT, check, invoke


def main() -> int:
    root = Path.cwd()
    refs = {"seed": workloads.DEFAULT_SEED, "rel_tol": gate.REL_TOL, "workloads": {}}
    for name in workloads.WORKLOADS:
        spec = workloads.spec(name, workloads.DEFAULT_SEED, root)
        out_dir = OUT / "references" / name
        shutil.rmtree(out_dir, ignore_errors=True)
        report = invoke(spec, False, 0, out_dir, timeout=600)
        problems = check(spec, report, out_dir, None)
        if problems:
            print(f"{name}: " + "; ".join(problems), file=sys.stderr)
            return 1
        values = gate.key_values(spec["kind"], out_dir, report["result"])
        refs["workloads"][name] = values
        shutil.rmtree(out_dir, ignore_errors=True)
        print(name, values)
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
