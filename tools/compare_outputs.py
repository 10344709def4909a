"""Run one fixed set of runs on two trees of this repository and byte-compare the outputs.

    python3 tools/compare_outputs.py PARENT_REV [CHANGE_REV]

PARENT_REV (and CHANGE_REV, when given) is extracted with ``git archive``
into a temporary directory; without CHANGE_REV the change is the working
tree this script sits in. No network is needed. Each tree runs the whole set
in one fresh Python process that imports that tree's ``src``:

- every shipped config under ``configs/``, with ``solver.end_time = 2.0``
  appended (``runner.run_simulation``);
- the run and scan workloads of ``perfbench/workloads.py`` at seed 0, from
  their ``config_text``;
- ``mms.convergence_study((48, 96, 192), 0.25, 1.0)``, written as JSON.

Every output file is compared byte for byte, ``summary.json`` without its
timings, peak memory and output paths. For a CSV that differs, each numeric column's
largest move over its largest magnitude is printed. The five solver counters
of each run are printed per tree, and the MMS errors and orders. The exit
code is 0 only when every output is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
END_TIME = "solver.end_time = 2.0"
MMS_ARGS = {"resolutions": (48, 96, 192), "end_time": 0.25, "kappa_ns": 1.0}
COUNTERS = ("steps", "lu_factorizations", "factor_evictions", "shortened_steps", "pcg_iterations")
# summary.json entries that differ between identical runs: timings, memory and
# the output paths, which name the tree's own output directory
VOLATILE = ("wall_time", "timings", "outputs")


def run_tree(tree: Path, out: Path):
    """Every run of the set on ``tree``, its outputs under ``out`` (in the child process)."""
    sys.path.insert(0, str(tree / "src"))
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads
    from chemofluid import mms, runner
    from chemofluid.config import RunConfig, parse_config_text

    for cfg in sorted((tree / "configs").glob("*.cfg")):
        text = cfg.read_text().rstrip("\n") + "\n" + END_TIME + "\n"
        runner.run_simulation(RunConfig(parse_config_text(text)), out / cfg.stem)
    for name, wl in workloads.WORKLOADS.items():
        if wl["kind"] == "mms":
            continue
        rc = RunConfig(parse_config_text(workloads.config_text(name, 0, tree)))
        if wl["kind"] == "run":
            runner.run_simulation(rc, out / name)
        else:
            runner.run_inequality_scan(rc, out / name)
    result = mms.convergence_study(**MMS_ARGS)
    (out / "mms").mkdir(parents=True, exist_ok=True)
    (out / "mms" / "convergence.json").write_text(json.dumps(result, indent=1, sort_keys=True))


def extract(rev: str, dest: Path) -> Path:
    """The files of ``rev`` in ``dest``, from ``git archive``."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **kwargs)
    return dest


def comparable(path: Path) -> bytes:
    """The bytes a file is compared by: summary.json without its VOLATILE entries."""
    if path.name != "summary.json":
        return path.read_bytes()
    data = json.loads(path.read_text())
    for key in VOLATILE:
        data.pop(key, None)
    data.get("solver", {}).pop("peak_rss_mb", None)
    return json.dumps(data, sort_keys=True).encode()


def column_moves(a: Path, b: Path) -> list[str]:
    """Per numeric column of two CSVs of the same shape: largest move / largest magnitude."""
    ra, rb = (list(csv.reader(p.read_text().splitlines())) for p in (a, b))
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        return [f"    rows or header differ ({len(ra)} vs {len(rb)} lines)"]
    lines = []
    for k, name in enumerate(ra[0]):
        try:
            va = [float(r[k]) for r in ra[1:]]
            vb = [float(r[k]) for r in rb[1:]]
        except (ValueError, IndexError):
            continue
        move = max((abs(x - y) for x, y in zip(va, vb)), default=0.0)
        if move > 0.0 or any(x != y for x, y in zip(va, vb)):
            scale = max(max(abs(x) for x in va + vb), 1e-300)
            lines.append(f"    {name}: {move / scale:.2e}")
    return lines


def counters(out: Path) -> dict:
    """The solver counters of each run's summary.json, by run."""
    found = {}
    for path in sorted(out.glob("*/summary.json")):
        summary = json.loads(path.read_text())
        found[path.parent.name] = tuple(summary.get(k, summary["solver"].get(k)) for k in COUNTERS)
    return found


def compare(parent: Path, change: Path) -> bool:
    files = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    same = True
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.exists() and b.exists()):
            print(f"only in {'parent' if a.exists() else 'change'}: {rel}")
            same = False
        elif comparable(a) == comparable(b):
            print(f"identical: {rel}")
        else:
            print(f"DIFFERS:   {rel}")
            same = False
            if rel.suffix == ".csv":
                print("\n".join(column_moves(a, b)))
    print("\nsolver counters (" + ", ".join(COUNTERS) + "):")
    ca, cb = counters(parent), counters(change)
    for run in sorted(set(ca) | set(cb)):
        mark = "" if ca.get(run) == cb.get(run) else "   DIFFER"
        print(f"  {run:20s} parent {ca.get(run)}  change {cb.get(run)}{mark}")
        same &= ca.get(run) == cb.get(run)
    print("\nMMS errors and orders:")
    for label, root in (("parent", parent), ("change", change)):
        path = root / "mms" / "convergence.json"
        if path.exists():
            res = json.loads(path.read_text())
            errs = "; ".join(f"h={e['h']:.4g} n {e['n']:.3e} c {e['c']:.3e} u {e['u']:.3e}"
                             for e in res["errors"])
            print(f"  {label}: {errs}; orders {res['orders']}")
    return same


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="git revision of the parent, e.g. HEAD^")
    ap.add_argument("change", nargs="?",
                    help="git revision of the change (default: the working tree)")
    ap.add_argument("--run-tree", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.run_tree:
        run_tree(Path(args.run_tree[0]), Path(args.run_tree[1]))
        return 0
    if args.parent is None:
        ap.error("the parent revision is required")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        outs = tmp / "out"
        trees = {"parent": extract(args.parent, tmp / "parent"),
                 "change": extract(args.change, tmp / "change") if args.change else REPO}
        for label, tree in trees.items():
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run-tree",
                            str(tree), str(outs / label)], check=True, cwd=tree)
            print(f"{label}: {tree} ran in {time.perf_counter() - t0:.0f} s")
        same = compare(outs / "parent", outs / "change")
    print("\nall outputs identical" if same else "\noutputs DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
