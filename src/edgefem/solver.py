"""Solvers for the assembled systems, in the dtype of their matrix and right-hand side.

The catalog problems are real symmetric positive definite, so the workhorse is a
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
    residual_history: Tuple[float, ...] = ()      # |r| / |b| of the recursive residual, per iteration


class SolverBreakdown(RuntimeError):
    """CG met a non-HPD matrix: ``curvature`` is p^H A p at ``iteration``, or the least diagonal entry at 0."""

    def __init__(self, message: str, iteration: int, curvature: float):
        super().__init__(f"{message} at iteration {iteration} (curvature {curvature:.3e}) -- use solve_dense")
        self.iteration, self.curvature = iteration, curvature


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
    A, b, n = system.matrix, system.rhs, system.n_free
    max_iter = 20 * n + 200 if max_iter is None else max_iter
    dtype = np.result_type(A.dtype, b.dtype)

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return _field_from(system, np.zeros(n, dtype=dtype)), SolveReport(0, 0.0, True, "pcg-jacobi")

    diag = A.diagonal()
    if np.abs(diag.imag).max(initial=0.0) > 1e-12 * max(1.0, np.abs(diag.real).max(initial=0.0)) \
            or np.any(diag.real <= 0.0):
        raise SolverBreakdown("matrix diagonal is not real positive; not HPD", 0, float(diag.real.min()))
    minv = 1.0 / diag.real

    x = np.zeros(n, dtype=dtype)
    r = b.astype(dtype)
    z = minv * r
    p = z.copy()
    scratch = np.empty_like(p)        # z and scratch are reused by every iteration
    rz = np.vdot(r, z)
    history = []
    for iterations in range(1, max_iter + 1):
        q = A @ p
        curvature = np.vdot(p, q)
        if curvature.real <= 0.0 or abs(curvature.imag) > 1e-8 * abs(curvature.real):
            raise SolverBreakdown("curvature is not real positive; matrix is not HPD", iterations, float(curvature.real))
        alpha = rz / curvature
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, q, out=scratch)
        history.append(float(np.linalg.norm(r) / bnorm))
        if history[-1] <= tol:
            break
        np.multiply(minv, r, out=z)
        rz_new = np.vdot(r, z)
        # p = z + beta p with beta first, as numpy's complex product does not commute bit for bit;
        # IEEE addition does
        np.multiply(rz_new / rz, p, out=p)
        p += z
        rz = rz_new

    true_rel = float(np.linalg.norm(b - A @ x) / bnorm)
    converged = bool(history) and history[-1] <= tol and true_rel <= tol
    report = SolveReport(len(history), true_rel, converged, "pcg-jacobi", tuple(history))
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
