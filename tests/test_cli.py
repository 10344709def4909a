import json
from pathlib import Path

import numpy as np
import pytest

from chemofluid.cli import build_parser, main
from chemofluid.config import ConfigError, RunConfig, parse_config_text, schema_description

from conftest import write_grid

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SMALL_RUN = """
domain.shape = disk
grid.n = 48
model.kappa_ns = 1.0
model.G = 0.5
solver.end_time = 1.0
solver.dt_max = 0.02
output.every_time = 0.1
"""


class TestConfigParsing:
    def test_defaults_build(self):
        rc = RunConfig()
        assert rc["grid.n"] == 96

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.m = 12")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n = twelve")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n 12")

    def test_comments_and_blanks(self):
        vals = parse_config_text("# header\n\ngrid.n = 32  # inline\n")
        assert vals["grid.n"] == 32

    def test_cross_validation(self):
        with pytest.raises(ConfigError):
            RunConfig({"init.c0_amp": 2.0, "init.c0_base": 1.0})
        with pytest.raises(ConfigError):
            RunConfig({"domain.shape": "pentagon"})
        with pytest.raises(ConfigError):
            RunConfig({"mms.resolutions": (64,)})
        for bad in ({"scan.trials": 0}, {"scan.n_smooth": 0}, {"mms.dt_ratio": 0.0},
                    {"mms.dt_ratio": -0.1}, {"mms.end_time": -1.0}, {"init.n0_sigma": 0.0},
                    {"init.u0_sigma": 0.0}, {"init.u0_sigma": -0.3}):
            with pytest.raises(ConfigError):
                RunConfig(bad)

    def test_schema_description_lists_all_keys(self):
        text = schema_description()
        assert "grid.n" in text and "solver.end_time" in text

    def test_shipped_configs_parse(self):
        for cfg in CONFIG_DIR.glob("*.cfg"):
            rc = RunConfig.from_file(cfg)
            assert rc["grid.n"] >= 16

    def test_sampled_domain_through_config(self, tmp_path):
        xs = np.linspace(-1.2, 1.2, 97)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        path = tmp_path / "phi.txt"
        write_grid(path, X * X + Y * Y - 1.0, (-1.2, 1.2, -1.2, 1.2))
        rc = RunConfig({"domain.shape": "sampled", "domain.path": str(path), "grid.n": 48})
        geom = rc.build_geometry()
        assert abs(geom.area - np.pi) / np.pi < 0.02

    def test_model_from_coefficients_alone(self):
        from chemofluid.model import linear_model, polynomial_model
        s = np.linspace(0.0, 2.0, 51)
        for values, want in (({}, linear_model(G=0.5)),
                             ({"model.chi_coeffs": (1.0, 0.5), "model.f_coeffs": (0.0, 1.0, -0.25)},
                              polynomial_model((1.0, 0.5), (0.0, 1.0, -0.25), G=0.5))):
            model = RunConfig(values).build_model()
            for name in ("chi", "chi_p", "chi_pp", "f", "f_p", "f_pp"):
                assert np.array_equal(getattr(model, name)(s), getattr(want, name)(s))

    def test_model_selector_keys_rejected(self):
        for key, value in (("model.chi", "one"), ("model.f", "linear"), ("model.f", "poly")):
            with pytest.raises(ConfigError):
                parse_config_text(f"{key} = {value}")
            with pytest.raises(ConfigError):
                RunConfig({key: value})
        for key in ("model.chi_coeffs", "model.f_coeffs"):
            with pytest.raises(ConfigError):
                RunConfig({key: ()})

    def test_sampled_domain_requires_path(self):
        with pytest.raises(ConfigError):
            RunConfig({"domain.shape": "sampled"})


class TestCliExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "nonsense.key = 1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4

    @pytest.mark.parametrize("command", ["run", "validate-model"])
    @pytest.mark.parametrize("line", ["init.u0_sigma = 0", "init.n0_sigma = 0",
                                      "init.n0_sigma = -0.1"])
    def test_nonpositive_width_is_config_error(self, tmp_path, capsys, command, line):
        # a zero vortex width puts grid nodes of the 64^2 disk on its centre, where
        # the stream function is 0/0; a zero bump width drops the bump silently
        cfg = write_cfg(tmp_path, "domain.shape = disk\ngrid.n = 64\n" + line + "\n")
        out = ["--out", str(tmp_path / "o")] if command == "run" else []
        assert main([command, "--config", cfg] + out) == 4
        assert f"{line.split()[0]} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_refused_initial_state_is_config_error(self, tmp_path, monkeypatch, capsys):
        build = RunConfig.build_initial

        def with_nan(self, geom):
            # as the stream function gives where a node sits on a zero-width vortex
            state = build(self, geom)
            state.u.u[tuple(np.argwhere(geom.fluid_face_x)[0])] = np.nan
            return state

        monkeypatch.setattr(RunConfig, "build_initial", with_nan)
        cfg = write_cfg(tmp_path, SMALL_RUN)
        for argv in (["validate-model", "--config", cfg],
                     ["run", "--config", cfg, "--out", str(tmp_path / "o")]):
            assert main(argv) == 4
            err = capsys.readouterr().err
            assert "initial state refused: initial velocity contains NaN/Inf" in err, err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    def test_validate_model_pass(self, tmp_path):
        cfg = write_cfg(tmp_path, "model.f_coeffs = 0,1\n")
        assert main(["validate-model", "--config", cfg]) == 0

    def test_validate_model_quadratic_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "model.f_coeffs = 0,0,1\n")
        code = main(["validate-model", "--config", cfg, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert code == 2
        assert "(f/chi)'' <= 0" in out
        assert (tmp_path / "v" / "assumptions.csv").exists()

    def test_run_refuses_invalid_model(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN + "model.f_coeffs = 0,0,1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    def test_scan_refuses_model_inadmissible_on_table(self, tmp_path, capsys):
        # g = s^2 is convex: build_derived rejects it
        cfg = write_cfg(tmp_path, "grid.n = 32\nscan.trials = 2\nmodel.f_coeffs = 0,0,1\n")
        assert main(["scan-inequalities", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure:") and err.count("\n") == 1
        assert not (tmp_path / "o" / "scan.csv").exists()

    def test_run_refuses_model_inadmissible_beyond_c0_max(self, tmp_path, capsys):
        # g'' = -0.39 + 0.6 s <= 0 on [0, c0_max = 0.6] but not on the table range [c_floor, 1]
        text = ("grid.n = 32\nscan.trials = 2\nmodel.f_coeffs = 0,1,-0.195,0.1\n"
                "init.c0_base = 0.5\ninit.c0_amp = 0.1\n")
        cfg = write_cfg(tmp_path, text)
        assert main(["validate-model", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("validation failure:")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure:") and err.count("\n") == 1
        assert "(f/chi)'' <= 0" in err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate-model", "scan-inequalities"])
    def test_negative_sensitivity_refused_by_every_command(self, tmp_path, capsys, command):
        # chi = -1, f = -s: g = s is admissible, but chi > 0 and f > 0 fail
        text = SMALL_RUN + "scan.trials = 2\nmodel.chi_coeffs = -1\nmodel.f_coeffs = 0,-1\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation failure:") and err.count("\n") == 1
        assert "chi > 0" in err and "f > 0 on (0, c_max]" in err
        assert not (out / "scan.csv").exists() and not (out / "diagnostics.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate-model"])
    @pytest.mark.parametrize("line", ["model.chi = one", "model.f = linear", "model.f = poly"],
                             ids=["chi_one", "f_linear", "f_poly"])
    def test_model_selector_is_config_error(self, tmp_path, capsys, command, line):
        cfg = write_cfg(tmp_path, SMALL_RUN + line + "\n")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "unknown key" in capsys.readouterr().err
        assert not (tmp_path / "o" / "diagnostics.csv").exists()

    def test_check_geometry(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "domain.shape = star\ngrid.n = 64\n")
        assert main(["check-geometry", "--config", cfg]) == 0
        assert "kappa_max" in capsys.readouterr().out

    def test_check_geometry_prints_stored_window(self, capsys):
        cfg = str(CONFIG_DIR / "star_ns_small.cfg")
        assert main(["check-geometry", "--config", cfg, "--resolution", "256"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "grid: 182 x 198 stored of 256 x 256, origin (55, 29), h = 0.013125"

    def test_validate_model_checks_the_c_max_run_checks(self, tmp_path, capsys):
        # f < 0 fails on all of (0, c_max]; the worst point is c_max itself,
        # the maximum of c0 over the cells (1.19828 here, not c0_base + c0_amp = 1.2)
        text = (CONFIG_DIR / "star_ns_small.cfg").read_text()
        cfg = write_cfg(tmp_path, text + "model.chi_coeffs = -1\nmodel.f_coeffs = 0,-1\n")
        errors = []
        for command in ("validate-model", "run"):
            code = main([command, "--config", cfg, "--resolution", "32",
                         "--out", str(tmp_path / command)])
            assert code == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "at s = 1.19828" in errors[0]

    def test_malformed_sampled_domain_is_config_error(self, tmp_path, capsys):
        bodies = ("# chemofluid grid 1\n4 4\n-1 1 -1 1\n1 2 3\n",
                  "hello\n",
                  "# chemofluid grid 1\n2\n-1 1 -1 1\n1 2 3 4\n")
        for k, body in enumerate(bodies):
            grid = tmp_path / f"phi{k}.txt"
            grid.write_text(body)
            cfg = write_cfg(tmp_path, f"domain.shape = sampled\ndomain.path = {grid}\n")
            assert main(["check-geometry", "--config", cfg]) == 4
            assert "configuration error" in capsys.readouterr().err

    def test_non_tiling_sampled_domain_is_config_error(self, tmp_path, capsys):
        # 2.4 / 48 = 0.05 across, but the 2.06-high box holds 41.2 such cells
        X, Y = np.meshgrid(np.linspace(-1.2, 1.2, 49), np.linspace(-1.03, 1.03, 43),
                           indexing="ij")
        grid = tmp_path / "phi.bin"
        write_grid(grid, X * X + Y * Y - 0.64, (-1.2, 1.2, -1.03, 1.03))
        cfg = write_cfg(tmp_path, f"domain.shape = sampled\ndomain.path = {grid}\ngrid.n = 48\n")
        assert main(["check-geometry", "--config", cfg]) == 4
        assert "does not tile into square cells" in capsys.readouterr().err

    def test_unprobeable_boundary_is_config_error(self, tmp_path, capsys):
        # a thin annulus at 32^2: no boundary segment has room for two probes,
        # so every boundary diagnostic would be undefined
        cfg = write_cfg(tmp_path, "domain.shape = annulus\ndomain.r_inner = 0.8\ngrid.n = 32\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 4
        assert "refine the grid" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["mms", "--resolution", "64"], ["run", "--seed", "5"],
                                      ["run", "--bogus"], ["check-geometry", "--resolution", "x"]],
                             ids=["mms-resolution", "run-seed", "run-bogus", "bad-value"])
    def test_usage_error_is_config_error(self, capsys, argv):
        # a flag the subcommand does not read is refused, not ignored; exit 2
        # stays a validation failure
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 4
        assert "error:" in capsys.readouterr().err

    def test_flags_where_the_subcommand_reads_them(self, tmp_path):
        parser = build_parser()
        for command in ("run", "validate-model", "check-geometry", "scan-inequalities"):
            assert parser.parse_args([command, "--resolution", "32"]).resolution == 32
        assert parser.parse_args(["scan-inequalities", "--seed", "5"]).seed == 5
        # an inadmissible model through the flags that remain still exits 2
        cfg = write_cfg(tmp_path, "scan.trials = 2\nmodel.f_coeffs = 0,0,1\n")
        assert main(["scan-inequalities", "--config", cfg, "--seed", "5", "--resolution", "32",
                     "--out", str(tmp_path / "o")]) == 2
        assert main(["validate-model", "--config", cfg, "--resolution", "32"]) == 2

    @pytest.mark.parametrize("command, line", [("mms", "mms.resolutions = 32"),
                                               ("mms", "mms.dt_ratio = 0"),
                                               ("scan-inequalities", "scan.n_smooth = 0")],
                             ids=["mms-resolutions", "mms-dt_ratio", "scan-n_smooth"])
    def test_study_value_out_of_range(self, tmp_path, monkeypatch, command, line):
        monkeypatch.chdir(tmp_path)   # scan-inequalities writes to ./out by default
        cfg = write_cfg(tmp_path, line + "\n")
        assert main([command, "--config", cfg]) == 4

    @pytest.mark.parametrize("ladder, levels_run, message",
                             [("48, 24", [], "mms.resolutions must be strictly increasing"),
                              ("24, 32", [24], "2-cell exterior margin")],
                             ids=["decreasing", "too-coarse"])
    def test_mms_ladder_checked(self, tmp_path, monkeypatch, capsys, ladder, levels_run, message):
        # a ladder out of order is refused before any level runs; an increasing
        # one whose first grid cannot hold the disk fails at that level's geometry
        import chemofluid.mms as mms
        levels = []
        real = mms.run_manufactured

        def recording(ms, n, *args):
            levels.append(n)
            return real(ms, n, *args)

        monkeypatch.setattr(mms, "run_manufactured", recording)
        cfg = write_cfg(tmp_path, f"mms.resolutions = {ladder}\n")
        assert main(["mms", "--config", cfg]) == 4
        assert levels == levels_run
        assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = write_cfg(tmp, SMALL_RUN)
    assert main(["run", "--config", cfg, "--out", str(tmp / "out")]) == 0
    return tmp / "out"


class TestRunArtifacts:
    def test_artifacts_exist(self, run_dir):
        for name in ("diagnostics.csv", "inequalities.csv", "summary.json", "config.txt"):
            assert (run_dir / name).exists()

    def test_monotone_cmax_column(self, run_dir):
        rows = (run_dir / "diagnostics.csv").read_text().strip().split("\n")
        hdr = rows[0].split(",")
        k = hdr.index("c_max")
        c_max = np.array([float(r.split(",")[k]) for r in rows[1:]])
        assert np.all(np.diff(c_max) <= 1e-12 * c_max[0])

    def test_summary_structure(self, run_dir):
        s = json.loads((run_dir / "summary.json").read_text())
        assert s["exit_status"] == "ok"
        assert "entropy_energy" in s["inequality_verdicts"]
        assert s["steps"] > 0
        assert set(s["solver"]) == {"lu_factorizations", "factor_evictions", "shortened_steps",
                                    "pcg_iterations", "peak_rss_mb"}
        assert s["solver"]["lu_factorizations"] >= 4
        # one factor slot per step-dependent system, plus the pressure factor
        assert s["solver"]["lu_factorizations"] - s["solver"]["factor_evictions"] == 4
        # one step is cut from the 0.02 level to 0.01 by an output time and solved by PCG
        assert s["solver"]["shortened_steps"] == 1
        assert s["solver"]["pcg_iterations"] > 0
        assert s["solver"]["peak_rss_mb"] > 0

    def test_inequality_csv_schema(self, run_dir):
        first = (run_dir / "inequalities.csv").read_text().split("\n", 1)[0]
        assert first == "id,time,lhs,rhs,violation,tolerance,passed"


class TestRunBehavior:
    def test_near_steady_state_passes_immediately(self, tmp_path):
        # flat n, tiny c, no flow: the convergence verdict holds by end time
        cfg = write_cfg(tmp_path, """
grid.n = 48
init.n0_amp = 0.0
init.c0_base = 1e-6
init.c0_amp = 0.0
init.u0 = zero
solver.end_time = 6.0
output.every_time = 0.5
""")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        s = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert s["convergence"]["passed"]

    def test_snapshots_written_and_loadable(self, tmp_path):
        from chemofluid.gridio import load_state
        cfg = write_cfg(tmp_path, SMALL_RUN + "output.snapshot_every = 5\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        snaps = sorted((tmp_path / "o").glob("snap_*.bin"))
        assert snaps
        rc = RunConfig.from_file(cfg)
        geom = rc.build_geometry()
        st = load_state(snaps[-1], geom)
        assert st.t > 0.0
        assert np.isfinite(st.n.data).all()

    def test_resolution_flag_overrides_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN + "solver.end_time = 0.2\n", name="r.cfg")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--resolution", "32"]) == 0
        text = (tmp_path / "o" / "config.txt").read_text()
        assert "grid.n = 32" in text

    def test_velocity_energy_constant_finite_across_refinement(self, tmp_path):
        from chemofluid.runner import run_simulation
        cs = []
        for n in (48, 96):
            rc = RunConfig(parse_config_text(SMALL_RUN))
            rc.override("grid.n", n)
            rc.override("solver.end_time", 2.0)
            s = run_simulation(rc, tmp_path / f"v{n}")
            ve = s.inequality_verdicts["velocity_energy"]
            assert ve["passed"]
            cs.append(ve["C"])
        assert all(np.isfinite(c) for c in cs)

    def test_steps_are_levels_or_remainders(self, tmp_path, monkeypatch):
        # float drift in the clock must not turn a dt_max / 2^k level into a
        # nearby new step size (each costs fresh LU factorizations) or shift
        # an output time
        import chemofluid.runner as runner
        dt_out = dt_max = 0.02
        seen = []
        step = runner.step

        def recording_step(state, *args, **kwargs):
            seen.append((state.t, kwargs["dt"]))
            return step(state, *args, **kwargs)

        monkeypatch.setattr(runner, "step", recording_step)
        rc = RunConfig({"grid.n": 48, "solver.dt_max": dt_max, "output.every_time": dt_out,
                        "solver.end_time": 0.3})
        runner.run_simulation(rc, tmp_path)
        levels = {dt_max / 2.0 ** k for k in range(40)}
        out_times = [j * dt_out for j in range(16)]
        for t, dt in seen:
            if dt not in levels:
                t_next = min(s for s in out_times if s > t)
                assert dt == pytest.approx(t_next - t, rel=1e-12), (t, dt)
        dts = sorted({dt for _, dt in seen})
        assert all(b > a * (1.0 + 1e-9) for a, b in zip(dts, dts[1:])), dts
        # row j sits at j * dt_out, a whole number of ticks dt_max / 2^K
        rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
        assert [float(r.split(",", 1)[0]) for r in rows] == out_times

    @pytest.mark.parametrize("end_time, rows", [(0.1, 2), (0.15, 3)])
    def test_three_output_rows_at_least(self, tmp_path, monkeypatch, capsys, end_time, rows):
        # the energy-inequality fit needs three rows: with fewer, the run is
        # refused before its first step; the count is the clock's, in ticks
        import chemofluid.runner as runner
        steps = []
        step = runner.step

        def recording_step(*args, **kwargs):
            steps.append(kwargs["dt"])
            return step(*args, **kwargs)

        monkeypatch.setattr(runner, "step", recording_step)
        cfg = write_cfg(tmp_path, SMALL_RUN + f"solver.end_time = {end_time}\n")
        status = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        if rows < 3:
            assert status == 4 and steps == []
            err = capsys.readouterr().err
            assert "solver.end_time" in err and "output.every_time" in err
            assert not (tmp_path / "out").exists()
        else:
            assert status == 0 and steps
            csv = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
            assert len(csv) == 1 + rows

    @pytest.mark.parametrize("command", ["scan-inequalities", "mms", "check-geometry"])
    def test_two_row_config_serves_the_other_commands(self, tmp_path, monkeypatch, command):
        # the three-row floor belongs to ``run``; the other commands take the same config
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, SMALL_RUN + "solver.end_time = 0.1\nscan.trials = 1\n"
                        "mms.resolutions = 48, 64\nmms.end_time = 0.02\n")
        assert main([command, "--config", cfg]) == 0


    def test_abort_names_the_step_and_keeps_the_rows_before_it(self, tmp_path, monkeypatch,
                                                               capsys):
        import chemofluid.runner as runner
        from chemofluid.solver import SolverAbort
        cfg = write_cfg(tmp_path, """
domain.shape = disk
grid.n = 32
solver.end_time = 0.05
solver.dt_max = 0.01
output.every_time = 0.01
""")
        full, cut = tmp_path / "full", tmp_path / "cut"
        assert main(["run", "--config", cfg, "--out", str(full)]) == 0
        step = runner.step
        dts = []

        def failing_step(state, *args, **kwargs):
            if len(dts) == 2:
                raise SolverAbort("injected")
            dts.append(kwargs["dt"])
            return step(state, *args, **kwargs)

        monkeypatch.setattr(runner, "step", failing_step)
        capsys.readouterr()
        assert main(["run", "--config", cfg, "--out", str(cut)]) == 3
        assert "solver abort: injected [step 3]" in capsys.readouterr().err
        # both steps landed on an output, so rows were emitted at t = 0, 0.01, 0.02
        assert dts == [0.01, 0.01]
        rows = (cut / "diagnostics.csv").read_text().splitlines()
        assert [float(r.split(",", 1)[0]) for r in rows[1:]] == [j * 0.01 for j in range(3)]
        # the last row's entropy-identity residual waits for a row that never came
        assert rows[:-1] == (full / "diagnostics.csv").read_text().splitlines()[:3]
        ineq = (cut / "inequalities.csv").read_text().splitlines()
        assert ineq == (full / "inequalities.csv").read_text().splitlines()[:1 + 2 * 3]
        assert not (cut / "summary.json").exists()

    def test_check_abort_reports_the_start_of_its_step(self, tmp_path, monkeypatch, capsys):
        # the invariant check after step 3 (t = 0.02 -> 0.03) fails: t is the step's start
        from chemofluid import solver
        cfg = write_cfg(tmp_path, """
domain.shape = disk
grid.n = 32
solver.end_time = 0.05
solver.dt_max = 0.01
output.every_time = 0.01
""")
        step_u = solver.step_u
        calls = []

        def unprojected_step_u(*args, **kwargs):
            u, p = step_u(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                u.u[u.geom.fluid_face_x] += 1.0
            return u, p

        monkeypatch.setattr(solver, "step_u", unprojected_step_u)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err.rstrip()
        assert "above tolerance after projection" in err
        assert err.endswith("[step 3, t = 0.02, dt = 0.01]"), err

    def test_non_finite_state_aborts_and_keeps_the_rows(self, tmp_path, monkeypatch, capsys):
        # a NaN velocity after step 3 (t = 0.02 -> 0.03): exit 3, the rows before it written
        from chemofluid import solver
        cfg = write_cfg(tmp_path, """
domain.shape = disk
grid.n = 32
solver.end_time = 0.05
solver.dt_max = 0.01
output.every_time = 0.01
""")
        step_u = solver.step_u
        calls = []

        def nan_step_u(*args, **kwargs):
            u, p = step_u(*args, **kwargs)
            calls.append(None)
            if len(calls) == 3:
                u.v[tuple(np.argwhere(u.geom.fluid_face_y)[0])] = np.nan
            return u, p

        monkeypatch.setattr(solver, "step_u", nan_step_u)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.rstrip()
        assert "solver abort: velocity contains NaN/Inf" in err
        assert err.endswith("[step 3, t = 0.02, dt = 0.01]"), err
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert [float(r.split(",", 1)[0]) for r in rows[1:]] == [j * 0.01 for j in range(3)]
        assert len((out / "inequalities.csv").read_text().splitlines()) == 1 + 2 * 3
        assert not (out / "summary.json").exists()

    def test_cfl_abort_names_the_step_being_attempted(self, tmp_path, capsys):
        # cfl_dt raises before the clock advances; the step is still number 1
        cfg = write_cfg(tmp_path, "grid.n = 32\ninit.u0_amp = 1e12\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "dt underflow" in err and err.rstrip().endswith("[step 1, t = 0]")

class TestDeterminism:
    def test_repeated_run_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_RUN)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert a == b

    def test_scan_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.n = 48\nscan.trials = 10\n")
        assert main(["scan-inequalities", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "s1")]) == 0
        assert main(["scan-inequalities", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "s2")]) == 0
        assert (tmp_path / "s1" / "scan.csv").read_bytes() == (tmp_path / "s2" / "scan.csv").read_bytes()
        # the summary's maxima are those of the written columns
        header, *lines = (tmp_path / "s1" / "scan.csv").read_text().splitlines()
        columns = dict(zip(header.split(","), zip(*(map(float, line.split(",")) for line in lines))))
        summary = json.loads((tmp_path / "s1" / "scan_summary.json").read_text())
        for key, column in (("ms_worst", "ms_violation"), ("bt_integral_max", "bt_integral"),
                            ("bt_integrand_max", "bt_integrand_max"),
                            ("hess_pointwise_max", "hess_pointwise_max")):
            assert summary[key] == max(columns[column]), key

    def test_scan_csv_does_not_depend_on_the_chunk(self, tmp_path, monkeypatch):
        # 10 trials: a full chunk of 8, then a partial one of 2. A block solve can
        # round a cell's last bit differently from a one-column solve; at this
        # size scan.csv is byte-identical all the same
        from chemofluid import runner
        cfg = write_cfg(tmp_path, "grid.n = 48\nscan.trials = 10\n")
        assert main(["scan-inequalities", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "chunked")]) == 0
        monkeypatch.setattr(runner, "SCAN_CHUNK", 1)
        assert main(["scan-inequalities", "--config", cfg, "--seed", "9",
                     "--out", str(tmp_path / "single")]) == 0
        assert ((tmp_path / "chunked" / "scan.csv").read_bytes()
                == (tmp_path / "single" / "scan.csv").read_bytes())

    def test_scan_draws_through_the_module_name_before_each_chunk(self, tmp_path, monkeypatch):
        # a wrapper on runner.random_neumann_field sees the draw before the first
        # trial's diagnostics and one call per chunk
        from chemofluid import runner
        events = []

        def traced(name, fn):
            def wrapper(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runner, "random_neumann_field",
                            traced("draw", runner.random_neumann_field))
        monkeypatch.setattr(runner, "Frame", traced("trial", runner.Frame))
        trials = 10
        rc = RunConfig({"grid.n": 48, "scan.trials": trials})
        runner.run_inequality_scan(rc, tmp_path / "scan")
        assert events[0] == "draw"
        assert events.count("trial") == trials
        assert events.count("draw") >= -(-trials // runner.SCAN_CHUNK)

    def test_different_seed_differs(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.n = 48\nscan.trials = 5\n")
        main(["scan-inequalities", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "s1")])
        main(["scan-inequalities", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "s2")])
        assert (tmp_path / "s1" / "scan.csv").read_bytes() != (tmp_path / "s2" / "scan.csv").read_bytes()
