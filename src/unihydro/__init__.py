"""1D Lagrangian compressible-flow solver.

Two classical methods, one closure: a staggered-grid scheme (velocity at
nodes) and a cell-centered scheme (all conserved quantities per cell) both
built on the same quadratic pressure-velocity relation and Newton's second
law, with conservation and entropy audits and a six-problem benchmark suite.
"""

from .cli import RunConfig, RunResult, run, run_convergence
from .eos import IdealGas
from .errors import ConfigError, MeshTangled, SolverFailure
from .mesh import CchState, Mesh1D, SghState
from .problems import (PROBLEM_NAMES, BoundaryCondition, ProblemSpec, build_initial,
                       by_name, double_rarefaction, exact_riemann_star, lax,
                       leblanc, sample_reference, sedov, shu_osher, sod)

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "RunResult", "run", "run_convergence",
    "IdealGas", "ConfigError", "MeshTangled", "SolverFailure",
    "Mesh1D", "SghState", "CchState",
    "BoundaryCondition", "ProblemSpec", "PROBLEM_NAMES", "by_name",
    "sod", "lax", "double_rarefaction", "sedov", "shu_osher", "leblanc",
    "build_initial", "exact_riemann_star", "sample_reference",
    "__version__",
]
