import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from chemofluid import solver

from chemofluid.fields import (
    ScalarField,
    VectorField,
    advect_conservative,
    divergence,
    laplacian_neumann,
)
from chemofluid.geometry import LevelSetDomain, classify_cells, volume_integral
from chemofluid.model import linear_model
from chemofluid.solver import (
    DT_UNDERFLOW,
    LinearSystems,
    SimState,
    SolverAbort,
    SolverConfig,
    StepClock,
    _mac_advection,
    cfl_dt,
    check_initial,
    quantize_dt,
    step,
    step_c,
    step_n,
    step_u,
)


@pytest.fixture(scope="module")
def grid96():
    dom = LevelSetDomain.disk(1.0)
    return classify_cells(dom, 2.4 / 96)


@pytest.fixture(scope="module")
def systems96(grid96):
    return LinearSystems(grid96)


def uniform_state(geom, n=1.0, c=1.0):
    return SimState(ScalarField.full(geom, n), ScalarField.full(geom, c),
                    VectorField.zeros(geom), ScalarField.zeros(geom), 0.0)


class TestCfl:
    def test_zero_velocity_gives_dt_max(self, grid96):
        cfg = SolverConfig(dt_max=0.037)
        st = uniform_state(grid96)
        assert cfl_dt(st, cfg, linear_model()) == 0.037

    def test_uniform_speed_arithmetic(self):
        # h = 1/64: max face speed 2 and safety 0.5 give exactly 1/256
        dom = LevelSetDomain.disk(5.0 / 6.0, margin=0.2)   # bbox side 2.0
        g = classify_cells(dom, 1.0 / 64.0)
        assert g.h == pytest.approx(1.0 / 64.0, abs=1e-15)
        st = uniform_state(g)
        st.u.u[g.fluid_face_x] = 2.0
        cfg = SolverConfig(dt_max=1.0, cfl_safety=0.5)
        dt = cfl_dt(st, cfg, linear_model())
        assert dt == pytest.approx(1.0 / 256.0, rel=1e-12)

    def test_sharp_gradient_shrinks_dt(self, grid96):
        cfg = SolverConfig(dt_max=1.0)
        st = uniform_state(grid96)
        X, _ = grid96.cell_centers()
        st.c = ScalarField(grid96, np.where(grid96.active, 50.0 * np.tanh(X / 0.01) + 51, 0.0))
        dt = cfl_dt(st, cfg, linear_model())
        st2 = uniform_state(grid96)
        st2.c = ScalarField(grid96, np.where(grid96.active, 0.5 * np.tanh(X / 0.01) + 1, 0.0))
        assert dt < cfl_dt(st2, cfg, linear_model()) / 20

    def test_underflow_aborts(self, grid96):
        cfg = SolverConfig(dt_max=1.0)
        st = uniform_state(grid96)
        st.u.u[grid96.fluid_face_x] = 1e15
        with pytest.raises(SolverAbort):
            cfl_dt(st, cfg, linear_model())

    def test_quantize(self):
        assert quantize_dt(0.05, 0.05) == 0.05
        assert quantize_dt(0.013, 0.05) == 0.05 / 4
        assert quantize_dt(1.0, 0.05) == 0.05

    @pytest.mark.parametrize("dt_max", [0.01, 0.02, 0.05, 0.1])
    def test_quantize_never_exceeds_bound(self, dt_max):
        # a bound 1-5 ulps below a level dt_max / 2^k gets the level below it
        for k in range(12):
            level = dt_max / 2.0 ** k
            assert quantize_dt(level, dt_max) == level
            bound = level
            for _ in range(5):
                bound = float(np.nextafter(bound, 0.0))
                assert quantize_dt(bound, dt_max) == level / 2.0, (k, bound)

    def test_clock_ticks_cover_every_level(self):
        # the finest level a step bound at the underflow floor quantizes to
        # is still a whole, nonzero number of ticks
        for dt_max in (0.0037, 0.02, 0.05, 1.0):
            clock = StepClock(dt_max, dt_max)
            level = quantize_dt(DT_UNDERFLOW, dt_max)
            assert clock.ticks_of(level) >= 1
            assert clock.ticks_of(level) * clock.tick == level

    @pytest.mark.parametrize("dt_max, end_time, every, levels", [
        (0.02, 0.3, 0.5, (0.02,)),                  # every > end_time: one target, the end
        (0.02, 0.1, 0.03, (0.02,)),                 # every is not a multiple of dt_max
        (0.1 * 2.4 / 48, 0.25, None, (0.1 * 2.4 / 48,)),   # fixed-dt MMS clock, no every
        (0.02, 0.3, 0.02, (0.02, 0.005, 0.01)),     # CFL-like levels, one output per level
    ], ids=["every_beyond_end", "every_off_level", "mms_fixed_dt", "varying_levels"])
    def test_clock_schedule(self, dt_max, end_time, every, levels):
        clock = StepClock(dt_max, end_time, every)
        end = clock.ticks_of(end_time)
        every_ticks = end if every is None else clock.ticks_of(every)
        targets = [min(j * every_ticks, end) for j in range(1, math.ceil(end / every_ticks) + 1)]
        landed = []
        while not clock.done:
            level = levels[clock.steps % len(levels)]
            target = next(x for x in targets if x > clock.ticks)
            before = clock.ticks
            dt = clock.advance(level)
            # a step is the level it was given, or the exact remainder to the next target
            assert clock.ticks - before == min(clock.ticks_of(level), target - before)
            assert dt == (clock.ticks - before) * clock.tick
            if clock.output is not None:
                landed.append((clock.output, clock.ticks))
        assert clock.ticks == end and clock.t == pytest.approx(end_time, rel=1e-15)
        # output indices are consecutive from 1, one per target, the last at end_time
        assert landed == list(enumerate(targets, start=1))

    @pytest.mark.parametrize("end_time", [0.0, -0.3])
    def test_clock_refuses_nonpositive_end_time(self, end_time):
        with pytest.raises(ValueError, match="end_time must be positive"):
            StepClock(0.02, end_time)


class TestStepC:
    def test_pure_heat_monotone_and_conservative(self, grid96, systems96):
        X, Y = grid96.cell_centers()
        c0 = ScalarField(grid96, np.where(grid96.active,
                                          1.0 + 0.3 * np.cos(3 * X) * np.cos(2 * Y), 0.0))
        st = SimState(ScalarField.zeros(grid96), c0.copy(), VectorField.zeros(grid96),
                      ScalarField.zeros(grid96), 0.0)
        mass0 = volume_integral(c0, grid96)
        cmax = c0.max_active()
        for _ in range(60):
            st.c = step_c(st, 0.02, linear_model(), systems96, 1e-10)
            new_max = st.c.max_active()
            assert new_max <= cmax + 1e-12 * c0.max_active()
            cmax = new_max
        assert abs(volume_integral(st.c, grid96) - mass0) / mass0 < 1e-10

    def test_consumption_matches_scalar_recurrence(self, grid96, systems96):
        C0, N0, dt = 0.8, 2.0, 0.02
        st = uniform_state(grid96, n=N0, c=C0)
        ck = C0
        for _ in range(30):
            st.c = step_c(st, dt, linear_model(), systems96, 1e-10)
            ck = ck / (1 + dt * N0)
        assert np.abs(st.c.data[grid96.active] - ck).max() < 1e-13

    def test_zero_stays_zero(self, grid96, systems96):
        st = uniform_state(grid96, n=1.5, c=1.0)
        st.c = ScalarField.zeros(grid96)
        for _ in range(5):
            st.c = step_c(st, 0.02, linear_model(), systems96, 1e-10)
        assert np.abs(st.c.data).max() < 1e-14


class TestStepN:
    def test_pure_heat_mass_and_flattening(self, grid96, systems96):
        X, Y = grid96.cell_centers()
        n0 = ScalarField(grid96, np.where(grid96.active,
                                          1.0 + 0.8 * np.exp(-(X ** 2 + Y ** 2) / 0.05), 0.0))
        st = SimState(n0.copy(), ScalarField.full(grid96, 1.0), VectorField.zeros(grid96),
                      ScalarField.zeros(grid96), 0.0)
        mass0 = volume_integral(n0, grid96)
        spread0 = n0.max_active() - n0.min_active()
        chem = st.chemotactic_drift(linear_model(G=0.0).chi)
        for _ in range(100):
            st.n = step_n(st, chem, 0.02, systems96)
        assert abs(volume_integral(st.n, grid96) - mass0) / mass0 < 1e-10
        assert (st.n.max_active() - st.n.min_active()) < 0.05 * spread0

    def test_negative_density_aborts(self, grid96, systems96):
        # a step far beyond the CFL bound drives the upwind update negative
        X, Y = grid96.cell_centers()
        st = uniform_state(grid96, n=1.0, c=1.0)
        st.n = ScalarField(grid96, np.where(grid96.active,
                                            1.0 + np.exp(-(X ** 2 + Y ** 2) / 0.02), 0.0))
        st.c = ScalarField(grid96, np.where(grid96.active, 70.0 + 50.0 * X, 0.0))
        with pytest.raises(SolverAbort):
            step_n(st, st.chemotactic_drift(linear_model().chi), 1.0, systems96)

    def test_mass_over_thousand_steps(self):
        dom = LevelSetDomain.disk(1.0)
        g = classify_cells(dom, 2.4 / 64)
        cfg = SolverConfig(dt_max=0.01)
        lin = LinearSystems(g)
        model = linear_model(G=0.5, kappa_ns=1.0)
        X, Y = g.cell_centers()
        n0 = ScalarField(g, np.where(g.active, 1 + 0.5 * np.exp(-((X - 0.2) ** 2 + Y ** 2) / 0.05), 0.0))
        c0 = ScalarField(g, np.where(g.active, 1 + 0.2 * np.cos(2 * X) * np.cos(Y), 0.0))
        u0 = VectorField.from_stream(g, lambda x, y: 0.1 * np.exp(-(x * x + y * y) / 0.2))
        st = SimState(n0, c0, u0, ScalarField.zeros(g), 0.0)
        mass0 = volume_integral(n0, g)
        for _ in range(1000):
            st = step(st, cfg, model, lin, dt=0.01)
        assert abs(volume_integral(st.n, g) - mass0) / mass0 <= 1e-8
        assert st.n.min_active() >= -1e-10 * st.n.max_active()


class TestStepU:
    def test_zero_everything_stays_zero(self, grid96, systems96):
        st = uniform_state(grid96, n=0.0, c=1.0)
        u, p = step_u(st, st.n, 0.02, linear_model(G=1.0), systems96)
        assert np.abs(u.u).max() == 0.0
        assert np.abs(p.data).max() == 0.0

    def test_hydrostatic_balance(self, grid96, systems96):
        # uniform density in gravity: velocity stays ~0, p = -n0 G y + const
        n0, G = 1.3, 0.8
        st = uniform_state(grid96, n=n0, c=1.0)
        u, p = step_u(st, st.n, 0.02, linear_model(G=G), systems96)
        assert max(np.abs(u.u).max(), np.abs(u.v).max()) < 1e-10
        _, Y = grid96.cell_centers()
        expect = -n0 * G * Y
        expect -= expect[grid96.interior].mean()
        assert np.abs(p.data[grid96.interior] - expect[grid96.interior]).max() < 1e-8

    def test_unforced_energy_decay(self, grid96, systems96):
        from chemofluid.fields import mac_norm_sq
        st = uniform_state(grid96, n=0.0, c=1.0)
        st.u = VectorField.from_stream(grid96, lambda x, y: 0.3 * np.exp(-(x * x + y * y) / 0.1))
        model = linear_model(G=0.0, kappa_ns=1.0)
        k_prev = mac_norm_sq(st.u)
        for _ in range(20):
            st.u, st.p = step_u(st, st.n, 0.01, model, systems96)
            k = mac_norm_sq(st.u)
            assert k <= k_prev * (1 + 1e-12)
            k_prev = k

    def test_divergence_after_projection(self, grid96, systems96):
        rng = np.random.default_rng(2)
        st = uniform_state(grid96, n=1.0, c=1.0)
        st.n = ScalarField(grid96, np.where(grid96.active, 1 + rng.random((grid96.nx, grid96.ny)), 0.0))
        u, p = step_u(st, st.n, 0.02, linear_model(G=1.0), systems96)
        dv = divergence(VectorField(grid96, u.u, u.v))
        assert np.abs(dv.data).max() < 1e-10
        assert abs(p.data[grid96.interior].mean()) <= 1e-12 * np.abs(p.data).max()


class TestFullStep:
    def test_steady_state_is_fixed_point(self, grid96):
        cfg = SolverConfig(dt_max=0.02)
        lin = LinearSystems(grid96)
        model = linear_model(G=0.7)
        st = uniform_state(grid96, n=1.4, c=0.0)
        new = step(st, cfg, model, lin, dt=0.02)
        assert np.abs(new.n.data - st.n.data).max() < 1e-11
        assert np.abs(new.c.data - st.c.data).max() < 1e-14
        assert new.u.max_speed() < 1e-11

    def test_stokes_vs_navier_stokes_paths(self, grid96):
        cfg = SolverConfig(dt_max=0.01)
        X, Y = grid96.cell_centers()
        n0 = ScalarField(grid96, np.where(grid96.active, 1 + 0.3 * np.exp(-(X ** 2 + Y ** 2) / 0.1), 0.0))
        c0 = ScalarField.full(grid96, 1.0)
        u0 = VectorField.from_stream(grid96, lambda x, y: 0.3 * np.exp(-(x * x + y * y) / 0.15))
        base = SimState(n0, c0, u0, ScalarField.zeros(grid96), 0.0)

        lin = LinearSystems(grid96)
        stokes = step(base.copy(), cfg, linear_model(G=0.5, kappa_ns=0.0), lin, dt=0.01)
        navier = step(base.copy(), cfg, linear_model(G=0.5, kappa_ns=1.0), lin, dt=0.01)
        assert np.abs(stokes.u.u - navier.u.u).max() > 1e-9   # advection path active

        still = base.copy()
        still.u = VectorField.zeros(grid96)
        s0 = step(still.copy(), cfg, linear_model(G=0.0, kappa_ns=0.0), lin, dt=0.01)
        s1 = step(still.copy(), cfg, linear_model(G=0.0, kappa_ns=1.0), lin, dt=0.01)
        assert np.abs(s0.u.u - s1.u.u).max() == 0.0            # no flow: paths agree


def initial_state(geom, n, c, u):
    """The state at t = 0 with zero pressure, as RunConfig.build_initial makes it."""
    return SimState(n, c, u, ScalarField.zeros(geom), 0.0)


class TestInitialData:
    def test_rejects_nonpositive_n(self, grid96):
        bad = initial_state(grid96, ScalarField.zeros(grid96), ScalarField.full(grid96, 1.0),
                            VectorField.zeros(grid96))
        with pytest.raises(ValueError):
            check_initial(bad)

    def test_rejects_divergent_u(self, grid96):
        u = VectorField.zeros(grid96)
        u.u[grid96.fluid_face_x] = 1.0   # pure x-flow with walls is not solenoidal
        bad = initial_state(grid96, ScalarField.full(grid96, 1.0), ScalarField.full(grid96, 1.0), u)
        with pytest.raises(ValueError):
            check_initial(bad)

    def test_accepts_stream_function(self, grid96):
        u = VectorField.from_stream(grid96, lambda x, y: 0.1 * np.exp(-x * x - y * y))
        check_initial(initial_state(grid96, ScalarField.full(grid96, 1.0),
                                    ScalarField.full(grid96, 1.0), u))

    @pytest.mark.parametrize("field, value", [("n", np.nan), ("c", np.inf), ("u", np.nan)])
    def test_rejects_non_finite_fields(self, grid96, field, value):
        # every comparison with NaN is false, so the positivity and divergence
        # checks alone would let a NaN through
        st = initial_state(grid96, ScalarField.full(grid96, 1.0), ScalarField.full(grid96, 1.0),
                           VectorField.zeros(grid96))
        cell = tuple(np.argwhere(grid96.interior)[0])
        if field == "u":
            st.u.u[tuple(np.argwhere(grid96.fluid_face_x)[0])] = value
        else:
            getattr(st, field).data[cell] = value
        name = "velocity" if field == "u" else field
        with pytest.raises(ValueError, match=f"initial {name} contains NaN/Inf"):
            check_initial(st)

    @pytest.mark.parametrize("field", ["n", "c", "u"])
    def test_step_check_aborts_on_non_finite_fields(self, grid96, field):
        st = uniform_state(grid96)
        if field == "u":
            st.u.v[tuple(np.argwhere(grid96.fluid_face_y)[0])] = np.nan
        else:
            getattr(st, field).data[tuple(np.argwhere(grid96.active)[0])] = np.inf
        name = "velocity" if field == "u" else field
        with pytest.raises(SolverAbort, match=f"^{name} contains NaN/Inf"):
            solver._check_state(st, 0.01)


class TestSolveSpd:
    def test_neumann_nullspace(self, grid96):
        # lap p = 0 with the mean-zero gauge gives exactly zero
        p = LinearSystems(grid96).pressure_solve(ScalarField.zeros(grid96))
        assert np.abs(p.data).max() == 0.0


def direct_system(lin, name, dt, rng, level=None):
    """Matrix A, right-hand side b and the solution x of A x = b that ``lin`` gives.

    ``level`` is passed on to the step-dependent solves (default: dt).
    """
    g = lin.geom
    h2 = g.h * g.h
    if name == "helmholtz":
        b = rng.standard_normal(lin.n_scalar)
        x = lin.helmholtz_solve(dt, b, level)
        return sp.diags(lin.vol) - dt * lin.L_scalar, lin.vol * b, x
    if name in ("viscous_u", "viscous_v"):
        vel = VectorField.zeros(g)
        vel.u[g.fluid_face_x] = rng.standard_normal(lin.n_u)
        vel.v[g.fluid_face_y] = rng.standard_normal(lin.n_v)
        out = lin.viscous_solve(dt, vel, level)
        if name == "viscous_u":
            mask, adj, b, x = g.fluid_face_x, lin.adj_u, vel.u, out.u
        else:
            mask, adj, b, x = g.fluid_face_y, lin.adj_v, vel.v, out.v
        A = sp.identity(adj.shape[0]) * (1.0 + 4.0 * dt / h2) - (dt / h2) * adj
        return A, b[mask], x[mask]
    # pressure: a compatible rhs, mean zero on every component
    b = rng.standard_normal(lin.n_pressure)
    for cells in lin.comp_cells:
        b[cells] -= b[cells].mean()
    rhs = np.zeros((g.nx, g.ny))
    rhs[g.interior] = b
    x = lin.pressure_solve(ScalarField(g, rhs)).data[g.interior]
    return lin.L_pressure / h2, b, x


STEP_SYSTEMS = {"helmholtz": "helm", "viscous_u": "visc_u", "viscous_v": "visc_v"}


def held_step_sizes(lin):
    """The step size of each step-dependent system's held factor."""
    return {system: lin._factors[system][0] for system in STEP_SYSTEMS.values()}


class TestFactorCache:
    """One factor slot per system: each step-dependent one holds the factor of one
    step size, the pressure slot its one factor; no solve changes."""

    # a level, a hit on it, level changes and a short remainder of 0.02 (r =
    # 0.1, below PCG_MIN_RATIO), as (dt, level, factorizations, evictions):
    # after each, the counters (pressure factor included) and the step size
    # every system holds
    LEVELS = (
        (0.02, None, 1 + 3, 0),
        (0.02, None, 1 + 3, 0),
        (0.01, None, 1 + 6, 3),
        (0.02, None, 1 + 9, 6),
        (0.002, 0.02, 1 + 12, 9),
        (0.02, None, 1 + 15, 12),
        (0.005, None, 1 + 18, 15),
    )

    def test_bound_counters_and_solves(self, grid96, monkeypatch):
        lin = LinearSystems(grid96)
        assert set(lin._factors) == {*STEP_SYSTEMS.values(), "pressure"}
        held_at_factoring = []

        def splu(*args, **kwargs):
            held_at_factoring.append(sum(f is not None for f in lin._factors.values()))
            return spla.splu(*args, **kwargs)

        monkeypatch.setattr(solver, "spla", SimpleNamespace(splu=splu))
        trims = []
        monkeypatch.setattr(solver, "_trim_heap", lambda: trims.append(lin.evictions))
        pressure_lu = None
        solved = []
        for k, (dt, level, factorizations, evictions) in enumerate(self.LEVELS):
            solves = {name: direct_system(lin, name, dt, np.random.default_rng(k), level)[2]
                      for name in ("helmholtz", "viscous_u", "viscous_v", "pressure")}
            assert held_step_sizes(lin) == dict.fromkeys(STEP_SYSTEMS.values(), dt)
            if pressure_lu is None:
                pressure_lu = lin._factors["pressure"][1]
            assert lin._factors["pressure"][1] is pressure_lu
            assert (lin.factorizations, lin.evictions) == (factorizations, evictions)
            solved.append(solves)
        # evicted before factoring: with the one being built, at most one factor
        # per system (three step-dependent, one pressure) is ever held
        assert len(held_at_factoring) == lin.factorizations
        assert max(held_at_factoring) + 1 <= len(lin._factors) == 4
        assert lin.factorizations - lin.evictions == 4
        # the heap is trimmed once after every eviction
        assert trims == list(range(1, lin.evictions + 1))
        assert lin.pcg_iterations == 0
        monkeypatch.undo()
        for k, ((dt, *_), solves) in enumerate(zip(self.LEVELS, solved)):
            fresh = LinearSystems(grid96)
            for name, x in solves.items():
                want = direct_system(fresh, name, dt, np.random.default_rng(k))[2]
                assert np.array_equal(x, want), (dt, name)


class TestShortenedStep:
    """A step the clock shortened to dt = r * level, solved against the level's factor."""

    LEVEL = 0.02

    @pytest.fixture(scope="class")
    def star128(self):
        # the Helmholtz grid: CG alone leaves its mass 2-4e-14 off (1e-15 on
        # grid96), so only the constant correction passes the mass check here
        return classify_cells(LevelSetDomain.star(3, 0.4), 1.0 / 128.0)

    def warm(self, grid, names=tuple(STEP_SYSTEMS)):
        """Systems whose solves of ``names`` hold the level's factors."""
        lin = LinearSystems(grid)
        for name in names:
            direct_system(lin, name, self.LEVEL, np.random.default_rng(0))
        return lin

    @pytest.mark.parametrize("r", [0.75, 0.47, 0.3])
    @pytest.mark.parametrize("name, grid", [("helmholtz", "star128"), ("viscous_u", "grid96"),
                                            ("viscous_v", "grid96")])
    def test_pcg_matches_direct_without_factoring(self, request, name, grid, r):
        lin = self.warm(request.getfixturevalue(grid), (name,))
        held = dict(lin._factors)   # (dt, LU) pairs; an LU compares by identity
        counts = (lin.factorizations, lin.evictions)
        dt = r * self.LEVEL
        A, b, x = direct_system(lin, name, dt, np.random.default_rng(1), level=self.LEVEL)
        want = spla.splu(A.tocsc()).solve(b)
        assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max(), (name, r)
        if name == "helmholtz":
            assert abs((lin.vol * x).sum() - b.sum()) <= 1e-14 * abs(b.sum())
        assert (lin.factorizations, lin.evictions) == counts
        assert lin._factors == held
        assert lin.pcg_iterations > 0

    def test_short_remainder_is_factored_in_the_slot(self, grid96, monkeypatch):
        # r = 0.1 < 1/4: each system's slot trades the level's factor for one at dt
        lin = self.warm(grid96)
        factorizations, evictions = lin.factorizations, lin.evictions
        trims = []
        monkeypatch.setattr(solver, "_trim_heap", lambda: trims.append(None))
        dt = 0.1 * self.LEVEL
        # viscous_solve does both components
        for name in ("helmholtz", "viscous_u"):
            A, b, x = direct_system(lin, name, dt, np.random.default_rng(2), level=self.LEVEL)
            want = spla.splu(A.tocsc()).solve(b)
            assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()
        assert held_step_sizes(lin) == dict.fromkeys(STEP_SYSTEMS.values(), dt)
        assert (lin.factorizations, lin.evictions, len(trims)) == (
            factorizations + 3, evictions + 3, 3)
        # the step's second Helmholtz solve (n after c) makes no new factor
        A, b, x = direct_system(lin, "helmholtz", dt, np.random.default_rng(3), level=self.LEVEL)
        assert np.abs(A @ x - b).max() <= 1e-12 * np.abs(b).max()
        assert (lin.factorizations, lin.pcg_iterations) == (factorizations + 3, 0)
        # the next solves at the level factor the level again
        for name in ("helmholtz", "viscous_u"):
            direct_system(lin, name, self.LEVEL, np.random.default_rng(0))
        assert held_step_sizes(lin) == dict.fromkeys(STEP_SYSTEMS.values(), self.LEVEL)
        assert (lin.factorizations, lin.evictions, len(trims)) == (
            factorizations + 6, evictions + 6, 6)

    def test_unconverged_cg_falls_back_to_the_slot(self, grid96, monkeypatch):
        lin = self.warm(grid96)
        factorizations, evictions = lin.factorizations, lin.evictions
        monkeypatch.setattr(solver, "PCG_MAXITER", 2)
        dt = 0.47 * self.LEVEL
        for name in ("helmholtz", "viscous_u"):
            A, b, x = direct_system(lin, name, dt, np.random.default_rng(3), level=self.LEVEL)
            assert np.abs(A @ x - b).max() <= 1e-12 * np.abs(b).max()
        assert held_step_sizes(lin) == dict.fromkeys(STEP_SYSTEMS.values(), dt)
        assert (lin.factorizations, lin.evictions) == (factorizations + 3, evictions + 3)
        assert lin.pcg_iterations == 3 * 2
        # the step's second Helmholtz solve finds dt in the slot: no CG, no new factor
        direct_system(lin, "helmholtz", dt, np.random.default_rng(4), level=self.LEVEL)
        assert (lin.factorizations, lin.pcg_iterations) == (factorizations + 3, 3 * 2)

    def test_missing_level_enters_the_slot(self, grid96):
        # the slot holds 0.01; a step shortened from 0.02 factors 0.02 in its place
        lin = LinearSystems(grid96)
        direct_system(lin, "helmholtz", 0.01, np.random.default_rng(0))
        A, b, x = direct_system(lin, "helmholtz", 0.015, np.random.default_rng(4), level=0.02)
        assert np.abs(A @ x - b).max() <= 1e-12 * np.abs(b).max()
        assert lin._factors["helm"][0] == 0.02
        assert (lin.factorizations, lin.evictions) == (2, 1)

    def test_held_step_size_is_solved_directly(self, grid96):
        # a step shortened to exactly the held step size uses that factor as it is
        lin = LinearSystems(grid96)
        x0 = direct_system(lin, "helmholtz", 0.01, np.random.default_rng(5))[2]
        x1 = direct_system(lin, "helmholtz", 0.01, np.random.default_rng(5), level=0.02)[2]
        assert np.array_equal(x0, x1)
        assert (lin.factorizations, lin.pcg_iterations) == (1, 0)


class TestBlockSolve:
    """A matrix right-hand side: one column per system, all solved in one call."""

    def block(self, lin, k, seed):
        return np.random.default_rng(seed).standard_normal((lin.n_scalar, k))

    def test_columns_match_single_solves(self, grid96):
        # the factor's dense blocks go through BLAS kernels that round a column
        # differently in a block than alone, at the last bit of a few cells; a
        # vector takes the transposed solve of the symmetric system, a block
        # (one column too) the untransposed one
        lin = LinearSystems(grid96)
        B = self.block(lin, 5, 6)
        X = lin.helmholtz_solve(0.02, B)
        assert X.shape == B.shape
        lu = lin._factors["helm"][1]
        for j in range(B.shape[1]):
            x = lin.helmholtz_solve(0.02, B[:, j])
            assert np.abs(X[:, j] - x).max() <= 1e-15 * np.abs(x).max()
            assert np.array_equal(x, lu.solve(lin.vol * B[:, j], trans="T"))
            one = lin.helmholtz_solve(0.02, B[:, j:j + 1])
            assert np.abs(one[:, 0] - x).max() <= 1e-15 * np.abs(x).max()
            assert np.array_equal(one, lu.solve(lin.vol[:, None] * B[:, j:j + 1], trans="N"))
        assert lin.factorizations == 1

    def test_shortened_step_factors_a_block(self, grid96):
        # CG takes one right-hand side: a block on a shortened step is factored in the slot
        lin = LinearSystems(grid96)
        direct_system(lin, "helmholtz", 0.02, np.random.default_rng(0))
        dt = 0.47 * 0.02
        B = self.block(lin, 3, 7)
        X = lin.helmholtz_solve(dt, B, level=0.02)
        A = sp.diags(lin.vol) - dt * lin.L_scalar
        want = spla.splu(A.tocsc()).solve(lin.vol[:, None] * B)
        assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()
        assert (lin.factorizations, lin.evictions, lin.pcg_iterations) == (2, 1, 0)
        assert lin._factors["helm"][0] == dt


class TestOperatorConsistency:
    """The assembled matrices are the explicit stencils the steps use."""

    @pytest.fixture(params=["two_disks", "star"])
    def lin(self, request):
        if request.param == "two_disks":
            return LinearSystems(request.getfixturevalue("two_disks"))
        return LinearSystems(classify_cells(LevelSetDomain.star(3, 0.4), 1.0 / 64.0))

    def test_helmholtz_operator_is_the_flux_laplacian(self, lin):
        g = lin.geom
        s = ScalarField(g, np.where(g.active, np.random.default_rng(3).random((g.nx, g.ny)), 0.0))
        want = (laplacian_neumann(s).data * g.cell_vol)[g.active]
        got = lin.L_scalar @ s.data[g.active]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_pressure_operator_is_div_of_the_projection_gradient(self, lin):
        # the fluid-face gradient exactly as step_u subtracts it
        g = lin.geom
        p = np.where(g.interior, np.random.default_rng(4).random((g.nx, g.ny)), 0.0)
        grad = VectorField.zeros(g)
        grad.u[1:-1, :] = np.where(g.fluid_face_x[1:-1, :], (p[1:, :] - p[:-1, :]) / g.h, 0.0)
        grad.v[:, 1:-1] = np.where(g.fluid_face_y[:, 1:-1], (p[:, 1:] - p[:, :-1]) / g.h, 0.0)
        want = divergence(grad).data[g.interior]
        got = lin.L_pressure @ p[g.interior] / (g.h * g.h)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_viscous_faces_have_at_most_four_neighbours(self, lin):
        for adj in (lin.adj_u, lin.adj_v):
            assert adj.sum(axis=1).max() <= 4


class TestDirectSolves:
    @pytest.mark.parametrize("system", ["helmholtz", "viscous_u", "viscous_v", "pressure"])
    def test_residual(self, two_disks, system):
        lin = LinearSystems(two_disks)
        A, b, x = direct_system(lin, system, 0.02, np.random.default_rng(9))
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        if system == "pressure":
            for cells in lin.comp_cells:
                assert abs(x[cells].mean()) <= 1e-12 * np.abs(x).max()


class TestSymmetricSystems:
    """Every factored system is exactly symmetric: its transposed vector solve solves it."""

    @pytest.fixture(scope="class", params=["disk", "star", "annulus", "two_disks"])
    def grid(self, request):
        if request.param == "two_disks":
            return request.getfixturevalue("two_disks")
        return classify_cells(getattr(LevelSetDomain, request.param)(), 1.0 / 48.0)

    @staticmethod
    def factored(lin):
        """Record each matrix ``lin`` factors, in order."""
        matrices = []

        def splu(matrix):
            matrices.append(matrix)
            return LinearSystems._splu(lin, matrix)

        lin._splu = splu
        return matrices

    @staticmethod
    def assert_solves(A, b, x, lu, tol=1e-13):
        """x solves A x = b, which the held factor ``lu`` of A solves untransposed too."""
        assert abs(A - A.T).max() == 0
        want = spla.splu(A.tocsc()).solve(b)
        assert np.abs(x - want).max() <= tol * np.abs(want).max()
        want = lu.solve(b, trans="N")
        assert np.abs(x - want).max() <= 1e-13 * np.abs(want).max()
        assert np.linalg.norm(A @ x - b) <= 1e-13 * np.linalg.norm(b)

    @pytest.mark.parametrize("dt", [0.02, 0.005])
    def test_helmholtz(self, grid, dt):
        lin = LinearSystems(grid)
        matrices = self.factored(lin)
        rhs = np.random.default_rng(21).standard_normal(lin.n_scalar)
        x = lin.helmholtz_solve(dt, rhs)
        (A,) = matrices
        self.assert_solves(A, lin.vol * rhs, x, lin._factors["helm"][1])

    def test_viscous(self, grid):
        lin = LinearSystems(grid)
        matrices = self.factored(lin)
        vel = VectorField.zeros(grid)
        rng = np.random.default_rng(22)
        vel.u[grid.fluid_face_x] = rng.standard_normal(lin.n_u)
        vel.v[grid.fluid_face_y] = rng.standard_normal(lin.n_v)
        out = lin.viscous_solve(0.02, vel)
        for A, b, x, mask, system in zip(matrices, (vel.u, vel.v), (out.u, out.v),
                                         (grid.fluid_face_x, grid.fluid_face_y),
                                         ("visc_u", "visc_v")):
            self.assert_solves(A, b[mask], x[mask], lin._factors[system][1])

    def test_pinned_pressure(self, grid):
        lin = LinearSystems(grid)
        matrices = self.factored(lin)
        b = np.random.default_rng(23).standard_normal(lin.n_pressure)
        for cells in lin.comp_cells:
            b[cells] -= b[cells].mean()
        rhs = np.zeros((grid.nx, grid.ny))
        rhs[grid.interior] = b
        x = lin.pressure_solve(ScalarField(grid, rhs)).data[grid.interior]
        (A,) = matrices
        # the pinned system's right-hand side, and its solution before the gauge shift
        b_pinned = -b * grid.h ** 2
        b_pinned[lin.pressure_pins] = 0.0
        for cells, pin in zip(lin.comp_cells, lin.pressure_pins):
            x[cells] -= x[pin]
        # the pinned Poisson system is the worst conditioned: any two factors'
        # solutions differ by up to 4e-13 here, untransposed solves included
        self.assert_solves(A, b_pinned, x, lin._factors["pressure"][1], tol=1e-12)
        # a second solve finds the factor in its slot
        lin.pressure_solve(ScalarField(grid, rhs))
        assert (len(matrices), lin.factorizations, lin.evictions) == (1, 1, 0)


class TestInterleavedComponents:
    """Two disks stacked along y: in raster order their interior cells alternate."""

    def test_components_are_runs_or_cells(self, stacked, two_disks):
        assert not any(isinstance(cells, slice) for cells in LinearSystems(stacked).comp_cells)
        assert all(isinstance(cells, slice) for cells in LinearSystems(two_disks).comp_cells)

    def test_projection_and_gauge(self, stacked):
        g = stacked
        lin = LinearSystems(g)
        rng = np.random.default_rng(24)
        vel = VectorField.zeros(g)
        vel.u[g.fluid_face_x] = rng.standard_normal(lin.n_u)
        vel.v[g.fluid_face_y] = rng.standard_normal(lin.n_v)
        div = divergence(vel)
        p = lin.pressure_solve(div).data
        vel.u[1:-1, :] -= np.where(g.fluid_face_x[1:-1, :], (p[1:, :] - p[:-1, :]) / g.h, 0.0)
        vel.v[:, 1:-1] -= np.where(g.fluid_face_y[:, 1:-1], (p[:, 1:] - p[:, :-1]) / g.h, 0.0)
        after = np.abs(divergence(vel).data).max()
        assert after <= solver.PROJECTION_TOL * np.abs(div.data).max()
        p_cells = p[g.interior]
        for cells in g.components:
            assert abs(p_cells[cells].mean()) <= 1e-14 * np.abs(p_cells[cells]).max()


class TestFactorOptions:
    """The factor options (ordering, no pivoting, symmetric mode, panel width) cost no accuracy."""

    @pytest.fixture(scope="class")
    def star_n128(self):
        dom = LevelSetDomain.star(3, 0.4)
        return classify_cells(dom, (dom.bbox[1] - dom.bbox[0]) / 128)

    @pytest.mark.parametrize("dt", [0.02, 0.005])
    @pytest.mark.parametrize("system", ["helmholtz", "viscous_u", "viscous_v", "pressure"])
    def test_matches_default_splu(self, star_n128, system, dt):
        lin = LinearSystems(star_n128)
        A, b, x = direct_system(lin, system, dt, np.random.default_rng(11))
        if system == "pressure":
            # the default factor of the same pinned system, shifted to the same gauge
            keep = np.ones(lin.n_pressure)
            keep[lin.pressure_pins] = 0.0
            pinned = sp.diags(keep) @ (-lin.L_pressure) @ sp.diags(keep) + sp.diags(1.0 - keep)
            rhs = -b * star_n128.h ** 2
            rhs[lin.pressure_pins] = 0.0
            want = spla.splu(pinned.tocsc()).solve(rhs)
            for cells in lin.comp_cells:
                want[cells] -= want[cells].mean()
        else:
            want = spla.splu(A.tocsc()).solve(b)
        # the pinned Poisson system is the worst conditioned: on this grid the
        # default factor's own residual reads up to 3e-13, so 1e-13 is out of reach
        tol = 1e-12 if system == "pressure" else 1e-13
        assert np.linalg.norm(x - want) <= tol * np.linalg.norm(want)
        assert np.linalg.norm(A @ x - b) <= tol * np.linalg.norm(b)


def reference_mac_advection(vel, kappa):
    """The MAC tendency written out with both one-sided differences per point."""
    g = vel.geom
    h = g.h
    u, v = vel.u, vel.v
    out = VectorField.zeros(g)

    ax = -kappa * u
    ay = np.zeros_like(u)
    ay[1:-1, :] = -kappa * 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    dm = np.zeros_like(u)
    dp = np.zeros_like(u)
    dm[1:, :] = (u[1:, :] - u[:-1, :]) / h
    dp[:-1, :] = (u[1:, :] - u[:-1, :]) / h
    dudx = np.where(ax > 0.0, dm, dp)
    dm = np.zeros_like(u)
    dp = np.zeros_like(u)
    dm[:, 1:] = (u[:, 1:] - u[:, :-1]) / h
    dp[:, :-1] = (u[:, 1:] - u[:, :-1]) / h
    dudy = np.where(ay > 0.0, dm, dp)
    out.u[:] = np.where(g.fluid_face_x, -(ax * dudx + ay * dudy), 0.0)

    ayv = -kappa * v
    axv = np.zeros_like(v)
    axv[:, 1:-1] = -kappa * 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])
    dm = np.zeros_like(v)
    dp = np.zeros_like(v)
    dm[1:, :] = (v[1:, :] - v[:-1, :]) / h
    dp[:-1, :] = (v[1:, :] - v[:-1, :]) / h
    dvdx = np.where(axv > 0.0, dm, dp)
    dm = np.zeros_like(v)
    dp = np.zeros_like(v)
    dm[:, 1:] = (v[:, 1:] - v[:, :-1]) / h
    dp[:, :-1] = (v[:, 1:] - v[:, :-1]) / h
    dvdy = np.where(ayv > 0.0, dm, dp)
    out.v[:] = np.where(g.fluid_face_y, -(axv * dvdx + ayv * dvdy), 0.0)
    return out


def reference_advect_conservative(s, vel):
    """Upwind fluxes on every face of an edge-padded copy of the scalar."""
    g = s.geom
    d = s.data
    h = g.h
    sWx = np.vstack([d[:1], d])
    sEx = np.vstack([d, d[-1:]])
    fx = g.aperture_x * h * vel.u * np.where(vel.u >= 0.0, sWx, sEx)
    sSy = np.hstack([d[:, :1], d])
    sNy = np.hstack([d, d[:, -1:]])
    fy = g.aperture_y * h * vel.v * np.where(vel.v >= 0.0, sSy, sNy)
    net = fx[1:, :] - fx[:-1, :] + fy[:, 1:] - fy[:, :-1]
    out = np.zeros_like(d)
    np.divide(-net, g.cell_vol, out=out, where=g.active)
    return ScalarField(g, out)


def parent_upwind_diff(f, a, axis, h):
    """``_upwind_diff`` as it was, with moveaxis and two masked copies."""
    f, a = np.moveaxis(f, axis, 0), np.moveaxis(a, axis, 0)
    d = (f[1:] - f[:-1]) / h
    out = np.zeros_like(f)
    np.copyto(out[1:], d, where=a[1:] > 0.0)
    np.copyto(out[:-1], d, where=~(a[:-1] > 0.0))
    return np.moveaxis(out, 0, axis)


def parent_mac_advection(vel, kappa):
    """``_mac_advection`` as it was, on ``parent_upwind_diff``."""
    g = vel.geom
    h = g.h
    u, v = vel.u, vel.v
    ax = -kappa * u
    ay = np.zeros_like(u)
    ay[1:-1, :] = -kappa * 0.25 * (v[:-1, :-1] + v[:-1, 1:] + v[1:, :-1] + v[1:, 1:])
    tend_u = -(ax * parent_upwind_diff(u, ax, 0, h) + ay * parent_upwind_diff(u, ay, 1, h))
    ayv = -kappa * v
    axv = np.zeros_like(v)
    axv[:, 1:-1] = -kappa * 0.25 * (u[:-1, :-1] + u[1:, :-1] + u[:-1, 1:] + u[1:, 1:])
    tend_v = -(axv * parent_upwind_diff(v, axv, 0, h) + ayv * parent_upwind_diff(v, ayv, 1, h))
    return VectorField(g, tend_u, tend_v)


class TestTransportStencils:
    """The sliced stencils give the bits of the written-out references."""

    @staticmethod
    def random_velocity(g, rng):
        vel = VectorField(g, rng.uniform(-1.0, 1.0, (g.nx + 1, g.ny)),
                          rng.uniform(-1.0, 1.0, (g.nx, g.ny + 1)))
        vel.u[rng.random(vel.u.shape) < 0.05] = 0.0   # ties of the upwind choice
        vel.v[rng.random(vel.v.shape) < 0.05] = 0.0
        return vel

    @pytest.mark.parametrize("grid", ["disk64", "star64"])
    @pytest.mark.parametrize("kappa", [1.0, 0.5])
    def test_mac_advection_matches_reference(self, request, grid, kappa):
        g = request.getfixturevalue(grid)
        vel = self.random_velocity(g, np.random.default_rng(11))
        got = _mac_advection(vel, kappa)
        want = reference_mac_advection(vel, kappa)
        assert np.array_equal(got.u[g.fluid_face_x], want.u[g.fluid_face_x])
        assert np.array_equal(got.v[g.fluid_face_y], want.v[g.fluid_face_y])

    @pytest.mark.parametrize("kappa", [1.0, 0.5])
    def test_mac_advection_keeps_the_bits_of_the_masked_copies(self, star64, kappa):
        # every face, fluid or not: the padded difference and one where() are
        # the same arithmetic as the masked copies, in the same order
        for seed in (13, 14):
            vel = self.random_velocity(star64, np.random.default_rng(seed))
            got = _mac_advection(vel, kappa)
            want = parent_mac_advection(vel, kappa)
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)

    @pytest.mark.parametrize("grid", ["disk64", "star64"])
    def test_advect_conservative_matches_reference(self, request, grid):
        g = request.getfixturevalue(grid)
        rng = np.random.default_rng(12)
        s = ScalarField(g, np.where(g.active, rng.random((g.nx, g.ny)), 0.0))
        vel = self.random_velocity(g, rng)
        got = advect_conservative(s, vel).data[g.active]
        want = reference_advect_conservative(s, vel).data[g.active]
        assert np.array_equal(got, want)


class TestTransportDirection:
    """Each transport term moves its field along u, not against it or not at all."""

    A, S = 0.5, 0.3   # counter-clockwise vortex psi = A exp(-r^2 / S)
    X0 = 0.4          # the bump sits at (X0, 0), where u = (0, 2 A X0 / S exp(-X0^2 / S))

    def vortex_and_bump(self, g):
        vortex = VectorField.from_stream(g, lambda x, y: self.A * np.exp(-(x * x + y * y) / self.S))
        X, Y = g.cell_centers()
        bump = np.where(g.active, np.exp(-((X - self.X0) ** 2 + Y ** 2) / 0.01), 0.0)
        return vortex, bump

    def assert_moved_along_u(self, g, before, after, dt):
        X, Y = g.cell_centers()

        def centroid(f):
            w = f * g.cell_vol
            return np.array([(w * X).sum(), (w * Y).sum()]) / w.sum()

        u_bump = np.array([0.0, 2 * self.A * self.X0 / self.S * np.exp(-self.X0 ** 2 / self.S)])
        moved = float((centroid(after) - centroid(before)) @ u_bump)
        assert 0.8 < moved / (dt * float(u_bump @ u_bump)) < 1.2

    def test_c_moves_with_u(self, grid96, systems96):
        vortex, bump = self.vortex_and_bump(grid96)
        st = SimState(ScalarField.zeros(grid96), ScalarField(grid96, bump), vortex,
                      ScalarField.zeros(grid96), 0.0)     # n = 0: no consumption
        c_new = step_c(st, 0.02, linear_model(), systems96, 1e-10)
        self.assert_moved_along_u(grid96, bump, c_new.data, 0.02)

    def test_n_moves_with_u(self, grid96, systems96):
        vortex, bump = self.vortex_and_bump(grid96)
        flat = ScalarField.full(grid96, 1.0)               # flat c: no chemotactic drift
        st = SimState(ScalarField(grid96, flat.data + bump), flat, vortex,
                      ScalarField.zeros(grid96), 0.0)
        n_new = step_n(st, st.chemotactic_drift(linear_model().chi), 0.02, systems96)
        self.assert_moved_along_u(grid96, bump, n_new.data - flat.data, 0.02)

    def test_u_gains_the_mac_advection(self, grid96, systems96):
        # an elliptic vortex: its (u.grad)u is no pure gradient, so part of it
        # survives the projection (for a circular vortex almost none does)
        u0 = VectorField.from_stream(grid96, lambda x, y: 0.5 * np.exp(-(x * x / 0.3 + y * y / 0.1)))
        dt, flat = 0.01, ScalarField.full(grid96, 1.0)
        st = SimState(ScalarField.zeros(grid96), flat, u0, ScalarField.zeros(grid96), 0.0)
        with_adv, _ = step_u(st, st.n, dt, linear_model(G=0.0, kappa_ns=1.0), systems96)
        without, _ = step_u(st, st.n, dt, linear_model(G=0.0, kappa_ns=0.0), systems96)
        adv = _mac_advection(u0, 1.0)
        rest = SimState(st.n, flat, VectorField.zeros(grid96), ScalarField.zeros(grid96), 0.0)
        pushed, _ = step_u(rest, rest.n, dt, linear_model(G=0.0, kappa_ns=0.0), systems96,
                           source_u=adv.u, source_v=adv.v)
        fx, fy = grid96.fluid_face_x, grid96.fluid_face_y

        def inner(a, b):
            return float((a.u[fx] * b.u[fx]).sum() + (a.v[fy] * b.v[fy]).sum())

        change = VectorField(grid96, with_adv.u - without.u, with_adv.v - without.v)
        assert inner(pushed, pushed) > 0.01 * dt * dt * inner(adv, adv)
        assert inner(change, pushed) > 0.5 * inner(pushed, pushed)
