import math

import numpy as np
import pytest

from chemofluid.mms import build_manufactured, convergence_study, run_manufactured


class TestManufactured:
    def test_exact_fields_satisfy_boundary_conditions(self):
        ms = build_manufactured()
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        xb, yb = np.cos(th), np.sin(th)
        # u vanishes on the wall
        assert np.abs(ms.u(xb, yb, 0.3)).max() < 1e-12
        assert np.abs(ms.v(xb, yb, 0.3)).max() < 1e-12
        # radial derivative of n and c vanishes on the wall
        eps = 1e-6
        for f in (ms.n, ms.c):
            outer = f((1 + eps) * xb, (1 + eps) * yb, 0.3)
            inner = f((1 - eps) * xb, (1 - eps) * yb, 0.3)
            assert np.abs(outer - inner).max() / (2 * eps) < 1e-4

    def test_single_level_runs(self):
        ms = build_manufactured()
        errs = run_manufactured(ms, 32, end_time=0.1)
        assert errs["n"] < 0.05 and errs["c"] < 0.05 and errs["u"] < 0.05

    def test_two_level_error_drop(self):
        res = convergence_study(resolutions=(32, 64), end_time=0.15, kappa_ns=0.0)
        for var in ("c", "u"):
            assert res["errors"][0][var] / res["errors"][1][var] > 1.5

    def test_pure_heat_subproblem_first_order(self):
        # constant c and no flow leave n with pure sourced diffusion
        ms = build_manufactured(kappa_ns=0.0, grav=0.0, amp_u=0.0, amp_c=0.0)
        errs = [run_manufactured(ms, n, end_time=0.2) for n in (48, 96, 192)]
        order = np.log2(errs[0]["n"] / errs[-1]["n"]) / 2
        assert order >= 0.8, [e["n"] for e in errs]

    def test_steps_go_through_mms_step(self, monkeypatch):
        # every step of a manufactured run is a call of the name mms.step, so
        # wrapping that name (as a timing probe does) sees the whole run
        import chemofluid.mms as mms
        dts = []
        step = mms.step

        def counting_step(state, *args, **kwargs):
            dts.append(kwargs["dt"])
            return step(state, *args, **kwargs)

        monkeypatch.setattr(mms, "step", counting_step)
        n_side, end_time, dt_ratio = 32, 0.05, 0.1
        mms.run_manufactured(mms.build_manufactured(), n_side, end_time, dt_ratio)
        dt = dt_ratio * 2.4 / n_side   # the disk's bounding box has side 2.4
        assert len(dts) == math.ceil(end_time / dt - 1e-9)
        assert sum(dts) == pytest.approx(end_time, rel=1e-12)
