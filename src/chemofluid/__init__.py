"""2D chemotaxis-fluid simulation on embedded-boundary level-set domains.

The package couples a cell-density / chemoattractant transport system to an
incompressible (Navier-)Stokes fluid on general smooth bounded 2D domains,
including non-convex ones, represented as level sets on a Cartesian grid.
A diagnostics harness evaluates the conserved quantities, entropy functionals
and curvature-based boundary inequalities that govern the long-time behavior
of the model.
"""

from chemofluid.geometry import (
    LevelSetDomain,
    GridGeometry,
    classify_cells,
    boundary_curvature,
    curvature_bound,
    volume_integral,
    surface_integral,
)
from chemofluid.fields import ScalarField, VectorField, TensorField
from chemofluid.model import (
    KineticsModel,
    DerivedScalars,
    AssumptionReport,
    validate_assumptions,
    build_derived,
    buoyancy_force,
    linear_model,
)
from chemofluid.solver import SimState, SolverConfig, step, cfl_dt

__version__ = "0.1.0"

__all__ = [
    "LevelSetDomain",
    "GridGeometry",
    "classify_cells",
    "boundary_curvature",
    "curvature_bound",
    "volume_integral",
    "surface_integral",
    "ScalarField",
    "VectorField",
    "TensorField",
    "KineticsModel",
    "DerivedScalars",
    "AssumptionReport",
    "validate_assumptions",
    "build_derived",
    "buoyancy_force",
    "linear_model",
    "SimState",
    "SolverConfig",
    "step",
    "cfl_dt",
]
