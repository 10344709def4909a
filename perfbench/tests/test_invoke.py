"""A traced invocation of a tiny run reaches every call site it should."""

import json
import subprocess
import sys
from pathlib import Path

from instrument import PER_LAYER

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

TINY = """
domain.shape = disk
grid.n = 32
model.kappa_ns = 1.0
solver.end_time = 0.06
solver.dt_max = 0.02
output.every_time = 0.02
output.snapshot_every = 2
"""


def invoke(spec):
    proc = subprocess.run([sys.executable, str(BENCH / "invoke.py")], input=json.dumps(spec),
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_run_counts_layers(tmp_path):
    rep = invoke({"kind": "run", "config_text": TINY, "trace": True, "invocation": 3,
                  "out_dir": str(tmp_path / "out")})
    layers = rep["layers"]
    assert set(layers) == {name for name, _ in PER_LAYER} - {"trace.overhead_frac"}
    # the runner calls step under its imported name
    assert layers["solver.steps"] == rep["result"]["steps"] >= 3
    # one pressure factor, plus at least one factor per distinct dt
    assert layers["solver.lu_factorizations"] >= 1 + layers["solver.distinct_dt"] >= 2
    assert layers["runner.output_rows"] == 4
    assert layers["gridio.save_state.calls"] == 2
    assert layers["gridio.save_state.bytes"] > 0
    # check_ms_lemma is called from runner (imported name) and from append_state
    assert layers["diagnostics.check_ms_lemma.calls"] == 2 * 4
    assert layers["mms.source_eval.calls"] == 0
    assert 0 < rep["setup_s"] < rep["wall_s"]
    names = {s[2] for s in rep["spans"]}
    assert {"runner.run_simulation", "solver.step", "solver.lu_factor",
            "geometry.classify_cells", "model.build_derived"} <= names
    assert all(s[5] == 3 for s in rep["spans"])
    roots = [s for s in rep["spans"] if s[1] is None]
    assert [s[2] for s in roots] == ["runner.run_simulation"]


def test_untraced_mms_reports_no_layers():
    rep = invoke({"kind": "mms", "args": {"resolutions": [32, 48], "end_time": 0.02,
                                          "kappa_ns": 0.0},
                  "trace": False, "invocation": 0, "out_dir": "unused"})
    assert "layers" not in rep and "spans" not in rep
    assert len(rep["result"]["errors"]) == 2
    assert rep["work_per_s"] > 0 and rep["peak_rss_mb"] > 0


def test_gate_reads_real_output_and_rejects_a_corrupted_one(tmp_path):
    import gate

    out = tmp_path / "out"
    invoke({"kind": "run", "config_text": TINY, "trace": False, "invocation": 0,
            "out_dir": str(out)})
    assert gate.check("run", out, None, 4) == []
    path = out / "diagnostics.csv"
    lines = path.read_text().splitlines()
    k = lines[0].split(",").index("mass")
    cells = lines[-1].split(",")
    cells[k] = repr(float(cells[k]) * (1 + 1e-6))
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("mass drift" in p for p in gate.check("run", out, None, 4))
