import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from edgefem.assembly import Coefficients, QuadratureConfig, assemble
from edgefem.mesh import structured_cube_mesh
from edgefem.problems import catalog
from edgefem.quadrature import builtin_rule
from edgefem.solver import DENSE_LIMIT, SolverBreakdown, solve, solve_dense

OFF = builtin_rule("pt1_offcenter")
CEN = builtin_rule("pt1_centroid")


def cube_system(n=1, order=1, problem="cube_poly"):
    prob = catalog(problem)
    return assemble(structured_cube_mesh(n), order, prob.coefficients,
                    QuadratureConfig(OFF, CEN, CEN))


def synthetic_system(A, b):
    """A cube-mesh system with matrix/rhs replaced by synthetic data on its first n dofs."""
    base = cube_system(2)
    n = A.shape[0]
    assert n <= base.space.n_dofs
    return dataclasses.replace(
        base,
        matrix=sp.csr_matrix(A),
        rhs=np.asarray(b, dtype=complex),
        free_index=np.arange(n),
    )


def test_one_by_one_system():
    system = cube_system(1)
    field, report = solve(system, tol=1e-12)
    assert report.iterations == 1
    assert report.converged
    x = system.rhs[0] / system.matrix.toarray()[0, 0]
    assert field.dofs[system.free_index[0]] == pytest.approx(x, rel=1e-15)


def test_cube_single_dof_matches_dense_exactly():
    system = cube_system(1)
    f_cg, _ = solve(system, tol=1e-13)
    f_dense = solve_dense(system)
    assert np.abs(f_cg.dofs - f_dense.dofs).max() == 0.0
    # constrained entries re-inserted as zeros
    assert np.abs(f_cg.dofs[system.space.constrained]).max() == 0.0


def test_diagonal_spd_converges_in_one_preconditioned_step(rng):
    diag = rng.uniform(1.0, 10.0, size=12)
    sys_ = synthetic_system(np.diag(diag), rng.standard_normal(12))
    field, report = solve(sys_, tol=1e-12)
    assert report.converged
    assert report.iterations <= 12


def test_cg_matches_dense_on_random_hpd(rng):
    n = 50
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = B @ B.conj().T + n * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    sys_ = synthetic_system(A, b)
    f_cg, report = solve(sys_, tol=1e-12)
    f_dense = solve_dense(sys_)
    x_cg = f_cg.dofs[sys_.free_index]
    x_dense = f_dense.dofs[sys_.free_index]
    assert report.converged
    assert np.linalg.norm(x_cg - x_dense) <= 1e-9 * np.linalg.norm(x_dense)


def test_reported_residual_is_recomputed(rng):
    system = cube_system(2)
    field, report = solve(system, tol=1e-10)
    x = field.dofs[system.free_index]
    true = np.linalg.norm(system.rhs - system.matrix @ x) / np.linalg.norm(system.rhs)
    assert abs(report.relative_residual - true) <= 1e-13
    assert report.converged and report.relative_residual <= 1e-10
    assert report.method == "pcg-jacobi"


def test_zero_rhs_short_circuits():
    system = cube_system(2)
    system = dataclasses.replace(system, rhs=np.zeros_like(system.rhs))
    field, report = solve(system)
    assert report.iterations == 0
    assert np.abs(field.dofs).max() == 0.0


def test_non_convergence_withholds_field(rng):
    n = 40
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    sys_ = synthetic_system(A, rng.standard_normal(n))
    field, report = solve(sys_, tol=1e-14, max_iter=2)
    assert field is None
    assert not report.converged
    assert report.relative_residual > 1e-14


def test_indefinite_matrix_breaks_down(rng):
    # eps0 = +10 makes the mass contribution negative definite
    coeffs = Coefficients(mu_inv=np.eye(3) / 10.0, eps=10.0 * np.eye(3), omega=1.0,
                          current=catalog("cube_poly").coefficients.current)
    system = assemble(structured_cube_mesh(2), 1, coeffs, QuadratureConfig(OFF, CEN, CEN))
    # its diagonal is already negative: CG stops before its first step, at the least entry
    with pytest.raises(SolverBreakdown) as info:
        solve(system, tol=1e-10)
    assert info.value.iteration == 0
    assert info.value.curvature == system.matrix.diagonal().min() < 0.0


def test_indefinite_matrix_with_positive_diagonal_breaks_down_inside_cg():
    # the one-point curl-curl rule with the negative-weight mass rule: a positive diagonal,
    # but CG meets non-positive curvature p^T A p after some steps
    system = assemble(structured_cube_mesh(2), 2, catalog("cube_poly").coefficients,
                      QuadratureConfig(CEN, builtin_rule("pt5"), builtin_rule("pt15")))
    assert system.matrix.diagonal().min() > 0.0
    with pytest.raises(SolverBreakdown) as info:
        solve(system, tol=1e-10)
    assert info.value.iteration >= 1
    assert info.value.curvature <= 0.0
    assert f"at iteration {info.value.iteration} " in str(info.value)


def test_invalid_tolerance():
    with pytest.raises(ValueError):
        solve(cube_system(1), tol=0.0)


def test_dense_singular_and_size_limit(rng):
    A = np.eye(3)
    A[2] = 0.0
    sys_ = synthetic_system(A, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        solve_dense(sys_)
    big = dataclasses.replace(cube_system(1), free_index=np.arange(DENSE_LIMIT + 1))
    with pytest.raises(ValueError):
        solve_dense(big)


def test_dense_identity():
    sys_ = synthetic_system(np.eye(4), np.array([1.0, 2.0, -1.0, 0.5]))
    field = solve_dense(sys_)
    assert np.allclose(field.dofs[sys_.free_index], [1.0, 2.0, -1.0, 0.5])


@pytest.mark.parametrize("tol", [1e-10, 1e-6])
def test_residual_history_has_one_entry_per_iteration(tol):
    system = cube_system(3, problem="cube_oscillatory(10)")
    field, report = solve(system, tol=tol)
    assert report.converged and len(report.residual_history) == report.iterations
    assert report.residual_history[-1] <= tol < min(report.residual_history[:-1])
    _, cut = solve(system, tol=tol, max_iter=report.iterations - 1)
    assert not cut.converged and cut.residual_history == report.residual_history[:-1]


@pytest.mark.parametrize("problem", ["cube_poly", "cube_oscillatory(10)"])
@pytest.mark.parametrize("order", [1, 2])
def test_catalog_systems_solve_in_float64(problem, order):
    field, report = solve(cube_system(2, order, problem))
    assert report.converged and field.dofs.dtype == np.float64


def test_phase_of_the_current_rotates_the_solution():
    # a current times e^{0.7i}: the rhs turns complex, the matrix stays real, CG takes the
    # same steps and the solution is the real one times e^{0.7i}
    phase = np.exp(0.7j)
    entry = catalog("cube_oscillatory(10)")
    coeffs = dataclasses.replace(entry.coefficients,
                                 current=lambda pts: phase * entry.coefficients.current(pts))
    mesh, config = structured_cube_mesh(3), QuadratureConfig(OFF, CEN, CEN)
    real, rotated = (assemble(mesh, 1, c, config) for c in (entry.coefficients, coeffs))
    assert rotated.matrix.dtype == np.float64 and rotated.rhs.dtype == np.complex128
    (f_real, r_real), (f_rot, r_rot) = solve(real), solve(rotated)
    assert r_rot.iterations == r_real.iterations
    assert np.abs(f_rot.dofs - phase * f_real.dofs).max() <= 1e-12 * np.abs(f_real.dofs).max()


def _allocating_cg(A, b, tol):
    """The Jacobi-preconditioned CG recurrence with a fresh array for every product: the reference
    for the in-place updates of ``solve``."""
    minv = 1.0 / A.diagonal().real
    x, r = np.zeros_like(b), b.copy()
    z = minv * r
    p, rz, history = z.copy(), np.vdot(r, z), []
    while True:
        q = A @ p
        alpha = rz / np.vdot(p, q)
        x = x + alpha * p
        r = r - alpha * q
        history.append(float(np.linalg.norm(r) / np.linalg.norm(b)))
        if history[-1] <= tol:
            return x, history
        z = minv * r
        rz_new = np.vdot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new


def test_in_place_cg_matches_the_allocating_recurrence(rng):
    # bit for bit, on a real catalog system and on a complex HPD one, whose products of complex
    # numbers do not commute bit for bit in numpy
    n = 50
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    complex_ = synthetic_system(B @ B.conj().T + n * np.eye(n), rng.standard_normal(n) + 1j * rng.standard_normal(n))
    for system in (cube_system(3, 2), complex_):
        field, report = solve(system, tol=1e-10)
        x, history = _allocating_cg(system.matrix, system.rhs, 1e-10)
        assert np.array_equal(field.dofs[system.free_index], x)
        assert list(report.residual_history) == history
