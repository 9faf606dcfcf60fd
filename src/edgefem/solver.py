"""Solvers for the assembled complex systems.

The catalog problems are Hermitian positive definite, so the workhorse is a
Jacobi-preconditioned conjugate gradient.  Indefinite input is detected via
negative curvature and reported as an error rather than silently mis-solved;
a pivoted dense factorization doubles as the test oracle at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .assembly import SolutionField, SparseSystem

__all__ = ["SolveReport", "SolverBreakdown", "solve", "solve_dense"]

DENSE_LIMIT = 2000


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    relative_residual: float
    converged: bool
    method: str


class SolverBreakdown(RuntimeError):
    """Raised when CG meets non-positive curvature (matrix not HPD)."""


def _field_from(system: SparseSystem, reduced: np.ndarray) -> SolutionField:
    return SolutionField(system.space, system.expand(reduced))


def solve(system: SparseSystem, tol: float = 1e-10, max_iter: Optional[int] = None
          ) -> Tuple[Optional[SolutionField], SolveReport]:
    """Jacobi-preconditioned CG on the reduced system.

    Returns the solution field and a report; on non-convergence the field is
    withheld (None) and the report carries the last residual.
    """
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    A = system.matrix
    b = system.rhs
    n = system.n_free
    if max_iter is None:
        max_iter = 20 * n + 200

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return _field_from(system, np.zeros(n, dtype=complex)), SolveReport(0, 0.0, True, "pcg-jacobi")

    diag = A.diagonal()
    if np.abs(diag.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(diag.real).max(initial=0.0)) \
            or np.any(diag.real <= 0.0):
        raise SolverBreakdown("matrix diagonal is not real positive; not HPD -- use solve_dense")
    minv = 1.0 / diag.real

    x = np.zeros(n, dtype=complex)
    r = b.copy()
    z = minv * r
    p = z.copy()
    rz = np.vdot(r, z)
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        q = A @ p
        curvature = np.vdot(p, q)
        if curvature.real <= 0.0 or abs(curvature.imag) > 1e-8 * abs(curvature.real):
            raise SolverBreakdown("negative curvature encountered; matrix is not HPD -- use solve_dense")
        alpha = rz / curvature
        x += alpha * p
        r -= alpha * q
        if np.linalg.norm(r) <= tol * bnorm:
            converged = True
            break
        z = minv * r
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new

    true_rel = float(np.linalg.norm(b - A @ x) / bnorm)
    report = SolveReport(iterations, true_rel, converged and true_rel <= tol, "pcg-jacobi")
    if not report.converged:
        return None, report
    return _field_from(system, x), report


def solve_dense(system: SparseSystem) -> SolutionField:
    """Pivoted direct solve; the oracle for small systems (n_free <= 2000)."""
    if system.n_free > DENSE_LIMIT:
        raise ValueError(f"dense fallback limited to {DENSE_LIMIT} free dofs")
    dense = system.matrix.toarray()
    x = np.linalg.solve(dense, system.rhs)
    return _field_from(system, x)
