"""Curl-conforming finite elements for time-harmonic Maxwell problems.

The package assembles and solves the PEC-constrained variational problem

    curl (mu^-1 curl E) - omega^2 eps E = -i omega J      on [-1, 1]^3

with edge elements of order 1 or 2 on tetrahedral meshes, using three
independently configurable quadrature rules for the curl-curl, mass and
load terms, plus probes that measure the quadrature consistency error on
straight and curved elements.
"""

from .quadrature import (
    RefQuadratureRule,
    builtin_rule,
    rule_for_degree,
    tensorized_gl,
    conical_rule,
    verify_exactness,
)
from .reference_element import CurlBasis, curl_basis
from .mesh import TetMesh, CurvedMap, QuadGeometry, structured_cube_mesh
from .assembly import Coefficients, EdgeSpace, QuadratureConfig, SparseSystem, SolutionField, assemble, evaluate_forms
from .solver import SolveReport, SolverBreakdown, solve, solve_dense
from .analysis import ErrorRecord, RateFit, hcurl_error, fit_rate, consistency_error, curved_local_error
from .problems import ProblemCatalogEntry, catalog

__all__ = [name for name in dir() if not name.startswith("_")]
