"""Adaptive space-time least-squares finite elements for parabolic problems.

The second-order equation du/dt - d/dx(A du/dx) + b du/dx + c u = f with
homogeneous lateral Dirichlet conditions is recast as a first-order system
for the pair (u, -A du/dx) on the space-time rectangle, discretized with
continuous Lagrange elements on bisection meshes, and solved by minimizing
the L2 residual of the system.  The residual doubles as a reliable and
efficient error estimator whose local parts drive an adaptive
solve-estimate-mark-refine loop.
"""

from .assembly import LevelData, SolverReport, assemble, solve_cg
from .driver import (
    MarkingPropertyError,
    RunLog,
    RunRecord,
    SolverFailure,
    StopCriteria,
    rate_table,
    run,
    write_runlog_csv,
)
from .estimator import ErrorReport, Indicators, compute_indicators, u_norm_error
from .marking import MarkingConfig, MarkStrategy, mark, mark_doerfler, mark_maximum
from .mesh import FacetTag, Mesh, bisect, is_conforming, uniform_initial_mesh
from .problem import ExactFields, ParabolicProblem, make_problem
from .spaces import build_dofmap, build_edge_quadrature, build_quadrature, reference_basis
from .system import (ConvectionForm, InvalidDataError, ParabolicSystem, PoissonSystem,
                     parabolic_system, poisson_sine_case)

__version__ = "0.1.0"
