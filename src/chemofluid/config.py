"""Run configuration: flat dotted-key text files, validated against a schema.

Config files are plain text, one ``key = value`` per line, ``#`` comments.
Every key must appear in the schema below; unknown keys and malformed values
are rejected before anything is allocated. A RunConfig can build the domain,
grid, kinetics model and initial state it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from chemofluid.fields import ScalarField, VectorField
from chemofluid.geometry import GridGeometry, LevelSetDomain, classify_cells
from chemofluid.model import KineticsModel, polynomial_model
from chemofluid.solver import SimState, SolverConfig


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent combination."""


def _parse_floats(s: str):
    return tuple(float(v) for v in s.replace(",", " ").split())


def _parse_ints(s: str):
    return tuple(int(v) for v in s.replace(",", " ").split())


# key -> (parser, default, one-line description)
SCHEMA = {
    "domain.shape": (str, "disk", "disk | annulus | star | sampled"),
    "domain.radius": (float, 1.0, "disk radius"),
    "domain.r_inner": (float, 0.5, "annulus inner radius"),
    "domain.r_outer": (float, 1.0, "annulus outer radius"),
    "domain.k": (int, 3, "star lobe count"),
    "domain.amplitude": (float, 0.4, "star amplitude in r(theta)=R0(1+a cos(k theta))"),
    "domain.base_radius": (float, 1.0, "star base radius R0"),
    "domain.margin": (float, 0.2, "relative bounding-box margin"),
    "domain.path": (str, "", "sampled level-set grid file (shape=sampled)"),
    "grid.n": (int, 96, "cells per bounding-box side"),
    "model.chi_coeffs": (_parse_floats, (1.0,), "sensitivity chi, ascending polynomial coefficients"),
    "model.f_coeffs": (_parse_floats, (0.0, 1.0), "consumption f, ascending polynomial coefficients"),
    "model.G": (float, 0.5, "gravity strength, potential = -G*y"),
    "model.kappa_ns": (float, 0.0, "0: Stokes fluid, otherwise Navier-Stokes prefactor"),
    "init.n0_base": (float, 1.0, "background cell density"),
    "init.n0_amp": (float, 0.5, "gaussian bump amplitude"),
    "init.n0_sigma": (float, 0.25, "gaussian bump width"),
    "init.n0_x": (float, 0.2, "bump center x"),
    "init.n0_y": (float, 0.1, "bump center y"),
    "init.c0_base": (float, 1.0, "background chemoattractant"),
    "init.c0_amp": (float, 0.2, "cosine perturbation amplitude"),
    "init.c0_kx": (float, 2.0, "perturbation wavenumber x"),
    "init.c0_ky": (float, 1.5, "perturbation wavenumber y"),
    "init.u0": (str, "vortex", "zero | vortex"),
    "init.u0_amp": (float, 0.2, "vortex stream-function amplitude"),
    "init.u0_sigma": (float, 0.3, "vortex width"),
    "solver.dt_max": (float, 0.02, "cap on the time step"),
    "solver.cfl_safety": (float, 0.5, "fraction of the per-cell CFL limit"),
    "solver.end_time": (float, 12.0, "final simulation time"),
    "output.every_time": (float, 0.1, "diagnostics cadence (simulation time)"),
    "output.snapshot_every": (int, 0, "checkpoint every k-th output row (0: off)"),
    "run.seed": (int, 0, "seed for randomized scans"),
    "conv.threshold_rel": (float, 1e-2, "convergence thresholds vs initial amplitudes"),
    "check.ms_c": (float, 200.0, "C in the curvature-lemma tolerance C*sqrt(h)"),
    "scan.trials": (int, 100, "random fields per inequality scan"),
    "scan.amplitude": (float, 0.3, "random field sup amplitude"),
    "scan.smooth_len": (float, 0.2, "random field smoothing length"),
    "scan.n_smooth": (int, 8, "implicit heat steps in the field generator"),
    "mms.resolutions": (_parse_ints, (48, 96, 192), "refinement ladder"),
    "mms.end_time": (float, 0.25, "manufactured-solution horizon"),
    "mms.dt_ratio": (float, 0.1, "dt = ratio * h in the study"),
}


def parse_config_text(text: str) -> dict:
    """Parse 'key = value' lines against the schema; reject anything unknown."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return values


@dataclass
class RunConfig:
    """Validated configuration with builders for every run ingredient."""

    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: entry[1] for k, entry in SCHEMA.items()}
        for k, v in self.values.items():
            if k not in SCHEMA:
                raise ConfigError(f"unknown key {k!r}")
            merged[k] = v
        self.values = merged
        self._cross_validate()

    @staticmethod
    def from_file(path) -> "RunConfig":
        with open(path) as fh:
            return RunConfig(parse_config_text(fh.read()))

    def __getitem__(self, key: str):
        return self.values[key]

    def override(self, key: str, value):
        if key not in SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        self.values[key] = SCHEMA[key][0](value) if isinstance(value, str) else value
        self._cross_validate()

    def _cross_validate(self):
        v = self.values
        if v["domain.shape"] not in ("disk", "annulus", "star", "sampled"):
            raise ConfigError(f"unknown domain shape {v['domain.shape']!r}")
        if v["domain.shape"] == "sampled" and not v["domain.path"]:
            raise ConfigError("domain.path required for sampled domains")
        if v["grid.n"] < 16:
            raise ConfigError("grid.n must be at least 16")
        if not (v["model.chi_coeffs"] and v["model.f_coeffs"]):
            raise ConfigError("model.chi_coeffs and model.f_coeffs need a coefficient each")
        if v["init.u0"] not in ("zero", "vortex"):
            raise ConfigError(f"unknown u0 builtin {v['init.u0']!r}")
        if not 0.0 <= v["init.c0_amp"] < v["init.c0_base"]:
            raise ConfigError("need 0 <= init.c0_amp < init.c0_base for positive c0")
        if v["init.n0_base"] <= 0 or v["init.n0_amp"] < 0:
            raise ConfigError("n0 must be positive")
        for key in ("init.n0_sigma", "init.u0_sigma", "solver.dt_max", "solver.end_time",
                    "output.every_time", "mms.dt_ratio", "mms.end_time"):
            if v[key] <= 0:
                raise ConfigError(f"{key} must be positive")
        if not 0 < v["solver.cfl_safety"] <= 1:
            raise ConfigError("solver.cfl_safety must be in (0, 1]")
        if len(v["mms.resolutions"]) < 2:
            raise ConfigError("mms needs at least 2 resolutions")
        if any(a >= b for a, b in zip(v["mms.resolutions"], v["mms.resolutions"][1:])):
            raise ConfigError("mms.resolutions must be strictly increasing")
        for key in ("scan.trials", "scan.n_smooth"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be at least 1")

    # -- builders --------------------------------------------------------

    def build_domain(self) -> LevelSetDomain:
        v = self.values
        shape = v["domain.shape"]
        if shape == "disk":
            return LevelSetDomain.disk(v["domain.radius"], margin=v["domain.margin"])
        if shape == "annulus":
            return LevelSetDomain.annulus(v["domain.r_inner"], v["domain.r_outer"],
                                          margin=v["domain.margin"])
        if shape == "star":
            return LevelSetDomain.star(v["domain.k"], v["domain.amplitude"],
                                       margin=v["domain.margin"],
                                       base_radius=v["domain.base_radius"])
        from chemofluid.gridio import read_grid
        vals, bbox = read_grid(v["domain.path"])
        return LevelSetDomain.from_sampled(vals, bbox)

    def build_geometry(self) -> GridGeometry:
        dom = self.build_domain()
        side = dom.bbox[1] - dom.bbox[0]
        return classify_cells(dom, side / self["grid.n"])

    def build_model(self) -> KineticsModel:
        v = self.values
        return polynomial_model(v["model.chi_coeffs"], v["model.f_coeffs"],
                                G=v["model.G"], kappa_ns=v["model.kappa_ns"])

    def build_initial(self, geom: GridGeometry) -> SimState:
        """The state at t = 0 on geom, zero pressure; ``solver.check_initial`` checks it."""
        v = self.values
        X, Y = geom.cell_centers()
        bump = v["init.n0_amp"] * np.exp(
            -((X - v["init.n0_x"]) ** 2 + (Y - v["init.n0_y"]) ** 2) / (2 * v["init.n0_sigma"] ** 2))
        n0 = ScalarField(geom, np.where(geom.active, v["init.n0_base"] + bump, 0.0))
        c0 = ScalarField(geom, np.where(
            geom.active,
            v["init.c0_base"] + v["init.c0_amp"] * np.cos(v["init.c0_kx"] * X) * np.cos(v["init.c0_ky"] * Y),
            0.0))
        if v["init.u0"] == "zero":
            u0 = VectorField.zeros(geom)
        else:
            amp, sig = v["init.u0_amp"], v["init.u0_sigma"]
            u0 = VectorField.from_stream(geom, lambda x, y: amp * np.exp(-(x * x + y * y) / (2 * sig * sig)))
        return SimState(n0, c0, u0, ScalarField.zeros(geom), 0.0)

    def solver_config(self) -> SolverConfig:
        v = self.values
        return SolverConfig(dt_max=v["solver.dt_max"], cfl_safety=v["solver.cfl_safety"])

    def config_lines(self) -> list[str]:
        out = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            out.append(f"{key} = {val}")
        return out


def schema_description() -> str:
    lines = ["known configuration keys (key, default, meaning):"]
    for key, (_, default, desc) in SCHEMA.items():
        lines.append(f"  {key:24s} {default!r:18} {desc}")
    return "\n".join(lines)
