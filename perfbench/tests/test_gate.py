import json

import pytest

import gate

COLUMNS = ("t", "mass", "c_max", "entropy_n", "grad_psi_sq", "fisher", "hess_rho",
           "boundary_term")


def write_run(out, rows, exit_status="ok", ms_passed=True, steps=10):
    out.mkdir(parents=True, exist_ok=True)
    lines = [",".join(COLUMNS)] + [",".join("%.17e" % r[k] for k in COLUMNS) for r in rows]
    (out / "diagnostics.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text(json.dumps({
        "exit_status": exit_status, "steps": steps,
        "inequality_verdicts": {"ms_lemma_all_passed": ms_passed}}))


def good_rows(n=4):
    return [{"t": 0.5 * k, "mass": 4.0, "c_max": 0.4 - 0.01 * k, "entropy_n": 1.0 / (1 + k),
             "grad_psi_sq": 1e-3, "fisher": 1e-4, "hess_rho": 1e-3, "boundary_term": 2e-3}
            for k in range(n)]


@pytest.fixture
def reference(tmp_path):
    write_run(tmp_path / "ref", good_rows())
    return gate.run_values(tmp_path / "ref")


def test_clean_run_passes(tmp_path, reference):
    write_run(tmp_path / "a", good_rows())
    assert gate.check("run", tmp_path / "a", None, 4, reference) == []


def test_rounding_level_change_passes(tmp_path, reference):
    rows = good_rows()
    rows[-1]["entropy_n"] *= 1 + 1e-12
    write_run(tmp_path / "a", rows)
    assert gate.check("run", tmp_path / "a", None, 4, reference) == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda rows: rows[2].update(mass=4.0 * (1 + 2e-8)), "mass drift"),
    (lambda rows: rows[2].update(c_max=rows[1]["c_max"] + 1e-9), "c_max rose"),
    (lambda rows: rows.pop(), "rows, expected"),
    (lambda rows: rows[-1].update(fisher=1.001e-4), "fisher"),
])
def test_corrupted_run_is_rejected(tmp_path, reference, corrupt, expected):
    rows = good_rows()
    corrupt(rows)
    write_run(tmp_path / "a", rows)
    problems = gate.check("run", tmp_path / "a", None, 4, reference)
    assert any(expected in p for p in problems), problems


def test_invariants_hold_without_reference(tmp_path):
    rows = good_rows()
    rows[-1]["fisher"] = 5.0          # other seeds are not compared with the reference
    write_run(tmp_path / "a", rows)
    assert gate.check("run", tmp_path / "a", None, 4) == []
    write_run(tmp_path / "b", rows, exit_status="abort", ms_passed=False)
    problems = gate.check("run", tmp_path / "b", None, 4)
    assert any("exit_status" in p for p in problems)
    assert any("curvature lemma" in p for p in problems)


def test_scan_and_mms_gates():
    scan = {"ms_passed": True, "ms_worst": 6.9, "bt_integral_max": -2.7,
            "bt_integrand_max": 35.7, "i33_violations": 0}
    ref = gate.key_values("scan", None, scan)
    assert gate.check("scan", None, scan, reference=ref) == []
    assert gate.check("scan", None, dict(scan, i33_violations=1), reference=ref)
    assert gate.check("scan", None, dict(scan, ms_passed=False))

    mms = {"errors": [{"n": 4e-3, "c": 1e-3, "u": 6e-3}, {"n": 2e-3, "c": 5e-4, "u": 3e-3}],
           "orders": {"n": [1.0], "c": [1.0], "u": [1.0]}}
    ref = gate.key_values("mms", None, mms)
    assert gate.check("mms", None, mms, reference=ref) == []
    assert gate.check("mms", None, dict(mms, orders={"n": [1.0], "c": [0.79], "u": [1.0]}))
    bad = {"errors": [dict(mms["errors"][0], u=7e-3), mms["errors"][1]], "orders": mms["orders"]}
    assert any("err_u_0" in p for p in gate.check("mms", None, bad, reference=ref))
