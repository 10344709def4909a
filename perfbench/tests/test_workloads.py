import json
from pathlib import Path

import pytest

import workloads
from instrument import PER_LAYER
from run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]


def config_values(name, seed):
    text = workloads.config_text(name, seed, ROOT)
    values = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()      # later lines win, as in the program
    return values


@pytest.mark.parametrize("name", ["star_ns_step", "disk_stokes_diag"])
def test_seed_moves_only_the_bump_centre(name):
    a, b = config_values(name, 0), config_values(name, 1)
    assert a == config_values(name, 0)
    changed = {k for k in a if a[k] != b[k]}
    assert changed == {"init.n0_x", "init.n0_y"}
    for seed in range(50):
        x, y = workloads.bump_centre(seed)
        assert abs(x - workloads.BUMP_CENTRE[0]) <= workloads.BUMP_JITTER
        assert abs(y - workloads.BUMP_CENTRE[1]) <= workloads.BUMP_JITTER


def test_scan_seed_is_run_seed():
    assert config_values("star_scan", 17)["run.seed"] == "17"
    a, b = config_values("star_scan", 0), config_values("star_scan", 1)
    assert {k for k in a if a[k] != b[k]} == {"run.seed"}


def test_mms_is_seed_invariant():
    assert workloads.spec("mms_ladder", 0, ROOT) | {"seed": 1} == workloads.spec("mms_ladder", 1, ROOT)


def test_config_parses_in_the_program():
    import sys
    sys.path.insert(0, str(ROOT / "src"))
    from chemofluid.config import RunConfig, parse_config_text

    for name in ("star_ns_step", "disk_stokes_diag", "star_scan"):
        rc = RunConfig(parse_config_text(workloads.config_text(name, 3, ROOT)))
        for key, value in workloads.WORKLOADS[name]["overrides"].items():
            assert rc[key] == value
    rc = RunConfig(parse_config_text(workloads.config_text("star_ns_step", 3, ROOT)))
    assert (rc["init.n0_x"], rc["init.n0_y"]) == workloads.bump_centre(3)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
