import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from edgefem import assembly
from edgefem.assembly import (
    Coefficients,
    EdgeSpace,
    MatrixField,
    QuadratureConfig,
    SolutionField,
    VectorField,
    _blocks,
    _orientation_transforms,
    _term_blocks,
    _terms,
    assemble,
    evaluate_forms,
    reference_config,
)
from edgefem.analysis import (
    hcurl_error,
    interpolate,
    probe_matrix_field,
    probe_vector_field,
    smooth_random_field,
)
from edgefem.mesh import CurvedMap, QuadGeometry, TetMesh, all_affine_data, structured_cube_mesh
from edgefem.problems import catalog
from edgefem.quadrature import builtin_rule, tensorized_gl
from edgefem.reference_element import LOCAL_EDGES, _mono_values, curl_basis, orientation_table
from edgefem.solver import solve

from conftest import free_vectors, random_tet, tet_geometry

OFF = builtin_rule("pt1_offcenter")
CEN = builtin_rule("pt1_centroid")
PT4 = builtin_rule("pt4")
PT5 = builtin_rule("pt5")
PT15 = builtin_rule("pt15")


def unit_coeffs(current=np.zeros(3)):
    return Coefficients(mu_inv=np.eye(3), eps=-np.eye(3), omega=1.0, current=current)


def element_blocks(mesh, basis, coeffs, config):
    """Curl-curl blocks, mass blocks and load vectors of every element, in local dofs."""
    geometry = all_affine_data(mesh)
    return tuple(_term_blocks(mesh, basis, rule, *geometry, kind, coeff, scale)
                 for kind, rule, coeff, scale in _terms(coeffs, config))


def one_tet(verts):
    # random_tet is positively oriented and the ids ascend, so the mesh keeps
    # the vertex order and the orientation transform is the identity
    return TetMesh(verts, np.array([[0, 1, 2, 3]]))


def test_coefficients_reject_asymmetric():
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        Coefficients(mu_inv=bad, eps=np.eye(3), omega=1.0, current=np.zeros(3))
    with pytest.raises(ValueError):
        Coefficients(mu_inv=np.eye(3), eps=np.eye(3), omega=0.0, current=np.zeros(3))


@pytest.mark.parametrize("name, value", [("mu_inv", np.full((3, 3), np.nan)), ("eps", np.nan),
                                         ("current", np.array([1.0, np.inf, 0.0]))])
def test_coefficients_reject_non_finite_constants(name, value):
    given = dict(mu_inv=np.eye(3), eps=-1.0, omega=1.0, current=np.zeros(3))
    given[name] = value
    with pytest.raises(ValueError, match=f"coefficient {name} has a non-finite constant"):
        Coefficients(**given)


def test_coefficients_reject_a_non_finite_omega():
    # inf > 0 holds, so a positivity test alone lets it through
    with pytest.raises(ValueError, match="omega must be positive and finite, got inf"):
        Coefficients(mu_inv=np.eye(3), eps=-1.0, omega=np.inf, current=np.zeros(3))


@pytest.mark.parametrize("name, shape", [("mu_inv", ()), ("eps", (3, 3)), ("current", (3,))])
def test_coefficients_reject_non_finite_fields(name, shape):
    # a callable field is first read at quadrature points, where its NaN would reach every block
    given = dict(mu_inv=np.eye(3), eps=-1.0, omega=1.0, current=np.zeros(3))
    given[name] = lambda pts: np.full((len(pts),) + shape, np.nan)
    with pytest.raises(ValueError, match=f"coefficient {name} is not finite at every sample point"):
        Coefficients(**given)


def test_curlcurl_block_exact_for_k1_any_rule(rng):
    # k=1 curls are constant, so even the degree-0 rule integrates exactly
    basis = curl_basis(1)
    coeffs = unit_coeffs()
    mesh = one_tet(random_tet(rng))
    ref = reference_config(8)
    A0, _, _ = element_blocks(mesh, basis, coeffs, QuadratureConfig(OFF, CEN, CEN))
    A1, _, _ = element_blocks(mesh, basis, coeffs, ref)
    assert np.abs(A0 - A1).max() <= 1e-13 * np.abs(A1).max()


def test_mass_block_rule_gap_shrinks_quadratically(rng):
    # centroid-rule mass differs from the high-order reference; the gap
    # measured against the system scale (the curl-curl block) decays ~h^2.
    # Relative to the mass block itself the gap is scale-free, since every
    # mass entry and its error carry the same power of h.
    basis = curl_basis(1)
    coeffs = unit_coeffs()
    verts = random_tet(rng)
    gaps, rel_gaps = [], []
    scales = (1.0, 0.5, 0.25, 0.125)
    for s in scales:
        mesh = one_tet(verts[0] + s * (verts - verts[0]))
        A0, M0, _ = element_blocks(mesh, basis, coeffs, QuadratureConfig(CEN, CEN, CEN))
        cfg6 = QuadratureConfig(CEN, tensorized_gl(6), CEN)
        _, M1, _ = element_blocks(mesh, basis, coeffs, cfg6)
        assert np.linalg.norm(M0 - M1) > 1e-8 * np.linalg.norm(M1)
        gaps.append(np.linalg.norm(M0 - M1) / np.linalg.norm(A0))
        rel_gaps.append(np.linalg.norm(M0 - M1) / np.linalg.norm(M1))
    slope = np.polyfit(np.log(scales), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) < 0.05
    assert max(rel_gaps) - min(rel_gaps) <= 1e-12 * max(rel_gaps)


def test_zero_current_gives_zero_load(rng):
    basis = curl_basis(2)
    coeffs = unit_coeffs()
    mesh = one_tet(random_tet(rng))
    _, _, f = element_blocks(mesh, basis, coeffs, QuadratureConfig(PT5, PT5, PT15))
    assert np.abs(f).max() == 0.0


def test_assemble_unit_cube_example():
    prob = catalog("cube_poly")
    system = assemble(structured_cube_mesh(1), 1, prob.coefficients,
                      QuadratureConfig(OFF, CEN, CEN))
    assert system.space.n_dofs == 19
    assert system.space.constrained.sum() == 18
    assert system.matrix.shape == (1, 1)
    assert system.n_free == 1


def test_assembled_matrix_hermitian_positive_definite():
    # mu0 = 10, eps0 = -10, omega = 1: real symmetric positive definite
    prob = catalog("cube_poly")
    system = assemble(structured_cube_mesh(2), 1, prob.coefficients,
                      QuadratureConfig(OFF, CEN, CEN))
    dense = system.matrix.toarray()
    assert np.abs(dense.imag).max() == 0.0
    assert np.abs(dense - dense.T.conj()).max() <= 1e-12
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_doubled_mass_weights_double_mass_blocks(rng):
    from edgefem.quadrature import RefQuadratureRule

    basis = curl_basis(1)
    coeffs = unit_coeffs()
    mesh = one_tet(random_tet(rng))
    doubled = RefQuadratureRule(CEN.points, 2.0 * CEN.weights, -1, "doubled")
    A0, M0, _ = element_blocks(mesh, basis, coeffs, QuadratureConfig(CEN, CEN, CEN))
    A1, M1, _ = element_blocks(mesh, basis, coeffs, QuadratureConfig(CEN, doubled, CEN))
    assert np.abs(A1 - A0).max() == 0.0
    assert np.abs(M1 - 2.0 * M0).max() <= 1e-14 * np.abs(M0).max()


def test_evaluate_forms_zero_and_symmetry(rng):
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    cfg = QuadratureConfig(OFF, CEN, CEN)
    n = mesh.n_edges
    zero = np.zeros(n, dtype=complex)
    assert evaluate_forms(mesh, 1, prob.coefficients, cfg, zero, zero) == (0.0, 0.0)

    U = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    V = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi_uv, _ = evaluate_forms(mesh, 1, prob.coefficients, cfg, U, V)
    phi_vu, _ = evaluate_forms(mesh, 1, prob.coefficients, cfg, V, U)
    assert phi_uv == pytest.approx(np.conj(phi_vu), rel=1e-12)

    with pytest.raises(ValueError):
        evaluate_forms(mesh, 1, prob.coefficients, cfg, zero[:-1], zero)


def test_assembled_quadratic_form_matches_forms(rng):
    # for U, V zero on the PEC dofs, V^H K U over the free dofs equals the numeric form
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(3)
    cfg = QuadratureConfig(OFF, CEN, CEN)
    system = assemble(mesh, 1, prob.coefficients, cfg)
    U, V = free_vectors(rng, system)
    phi, load = evaluate_forms(mesh, 1, prob.coefficients, cfg, U, V)
    free = system.free_index
    quad = np.vdot(V[free], system.matrix @ U[free])
    rhs = np.vdot(V[free], system.rhs)
    scale = max(abs(phi), abs(quad), 1.0)
    assert abs(phi - quad) <= 1e-11 * scale
    assert abs(load - rhs) <= 1e-11 * max(abs(load), 1.0)


@pytest.mark.parametrize("order,q1,q2", [(1, CEN, PT4), (2, PT4, builtin_rule("pt15"))])
def test_quadrature_exactness_equivalence(order, q1, q2):
    # constant coefficients with q1 deg >= 2(k-1), q2 deg >= 2k match the
    # high-order reference element blocks
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(1)
    basis = curl_basis(order)
    ref = QuadratureConfig(tensorized_gl(8), tensorized_gl(8), tensorized_gl(8))
    A0, M0, _ = element_blocks(mesh, basis, prob.coefficients, QuadratureConfig(q1, q2, q2))
    A1, M1, _ = element_blocks(mesh, basis, prob.coefficients, ref)
    for e in range(mesh.n_tets):
        assert np.linalg.norm(A0[e] - A1[e]) <= 1e-11 * np.linalg.norm(A1[e])
        assert np.linalg.norm(M0[e] - M1[e]) <= 1e-11 * np.linalg.norm(M1[e])


def test_curlcurl_annihilates_hat_gradients():
    # the hat gradient of an interior vertex has no PEC trace, so it lies in the reduced space
    mesh = structured_cube_mesh(3)
    coeffs = Coefficients(mu_inv=np.eye(3) / 10.0, eps=np.zeros((3, 3)), omega=1.0,
                          current=np.zeros(3))
    system = assemble(mesh, 1, coeffs, QuadratureConfig(OFF, CEN, CEN))
    K = system.matrix
    scale = np.abs(K.data).max()
    interior = sorted(set(range(mesh.n_vertices)) - set(mesh.faces[mesh.boundary_faces].ravel().tolist()))
    assert len(interior) == 8
    for v in interior:
        grad = (mesh.edges[:, 1] == v).astype(float) - (mesh.edges[:, 0] == v)
        assert not grad[system.space.constrained].any() and np.count_nonzero(grad) >= 4
        assert np.abs(K @ grad[system.free_index]).max() <= 1e-10 * scale


def test_pec_tangential_trace(rng):
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    system = assemble(mesh, 1, prob.coefficients, QuadratureConfig(OFF, CEN, CEN))
    field, report = solve(system, tol=1e-12)
    assert report.converged
    tet_of_face = {}
    for e in range(mesh.n_tets):
        for f in mesh.tet2face[e]:
            tet_of_face.setdefault(f, e)
    jac, origin, det, inv = all_affine_data(mesh)
    worst = 0.0
    for f in rng.choice(mesh.boundary_faces, size=8, replace=False):
        a, b, c = mesh.faces[f]
        p0, p1, p2 = mesh.vertices[[a, b, c]]
        nrm = np.cross(p1 - p0, p2 - p0)
        nrm /= np.linalg.norm(nrm)
        uv = rng.random((5, 2))
        uv = np.where(uv.sum(axis=1, keepdims=True) > 1.0, 1.0 - uv, uv)
        pts = p0 + uv[:, :1] * (p1 - p0) + uv[:, 1:] * (p2 - p0)
        tet = tet_of_face[f]
        ref = (pts - origin[tet]) @ inv[tet].T
        vals = _at_points(field, "mass", [tet], ref)[0]
        tang = vals - (vals @ nrm)[:, None] * nrm
        worst = max(worst, np.abs(tang).max())
    assert worst <= 1e-9


def test_sparsity_pattern_symmetric_and_finite():
    prob = catalog("cube_poly")
    system = assemble(structured_cube_mesh(2), 1, prob.coefficients,
                      QuadratureConfig(OFF, CEN, CEN))
    K = system.matrix
    pattern = K.copy()
    pattern.data[:] = 1.0
    assert (pattern != pattern.T).nnz == 0
    assert np.all(np.isfinite(K.data))
    assert np.all(np.isfinite(system.rhs))


def test_scatter_determinism():
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    cfg = QuadratureConfig(OFF, CEN, PT5)
    s1 = assemble(mesh, 1, prob.coefficients, cfg)
    s2 = assemble(mesh, 1, prob.coefficients, cfg)
    assert np.array_equal(s1.matrix.data, s2.matrix.data)
    assert np.array_equal(s1.matrix.indices, s2.matrix.indices)
    assert np.array_equal(s1.rhs, s2.rhs)


def test_order2_dof_layout_and_pec():
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(1)
    system = assemble(mesh, 2, prob.coefficients, QuadratureConfig(PT5, PT5, PT15))
    expected = 2 * mesh.n_edges + 2 * mesh.n_faces
    assert system.space.n_dofs == expected
    # constrained: both moments of all boundary edges and boundary faces
    n_con = 2 * len(mesh.boundary_edges) + 2 * len(mesh.boundary_faces)
    assert system.space.constrained.sum() == n_con
    loop_mask = np.zeros(expected, dtype=bool)
    for e in mesh.boundary_edges:
        loop_mask[2 * e] = loop_mask[2 * e + 1] = True
    for f in mesh.boundary_faces:
        loop_mask[2 * mesh.n_edges + 2 * f] = loop_mask[2 * mesh.n_edges + 2 * f + 1] = True
    assert np.array_equal(system.space.constrained, loop_mask)
    dense = system.matrix.toarray()
    assert np.linalg.eigvalsh(dense).min() > 0.0


def test_one_space_per_mesh_and_order(monkeypatch):
    # assembly, the solve, the error and form evaluation on one (mesh, order) share one
    # space, whose vertex-id rankings are computed once; another mesh or order has its own
    orient, calls = assembly._orientation_transforms, []
    monkeypatch.setattr(assembly, "_orientation_transforms", lambda *a: calls.append(a) or orient(*a))
    entry = catalog("cube_poly")
    config = QuadratureConfig(OFF, CEN, CEN)
    mesh = structured_cube_mesh(2)
    system = assemble(mesh, 1, entry.coefficients, config)
    field, _ = solve(system)
    assert system.space is field.space and system.space.mesh is mesh
    hcurl_error(field, (entry.exact, entry.exact_curl), 8)
    evaluate_forms(mesh, 1, entry.coefficients, config, field.dofs, field.dofs)
    assert EdgeSpace.of(mesh, 1) is system.space
    assert len(calls) == 1
    assert EdgeSpace.of(TetMesh(mesh.vertices, mesh.tets), 1) is not system.space
    assert EdgeSpace.of(mesh, 2) is not system.space


def test_dropping_its_holders_frees_the_space_and_the_mesh():
    # the spaces are looked up weakly and no mesh points back at its space, so with the
    # cycle collector off, dropping the system, the field and the mesh frees both
    gc.disable()
    try:
        mesh = structured_cube_mesh(2)
        system = assemble(mesh, 1, catalog("cube_poly").coefficients, QuadratureConfig(OFF, CEN, CEN))
        field, _ = solve(system)
        assert field.local().shape == (mesh.n_tets, 6)
        refs = weakref.ref(system.space), weakref.ref(mesh)
        del system, field, mesh
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def _at_points(field, kind, tets, ref_pts):
    """The pushed values (kind 'mass') or curls ('curl') of ``field`` at the reference points
    ``ref_pts`` of the elements ``tets``, (E, L, 3), from its monomial coefficients."""
    basis = field.space.basis
    monos = basis.curl_monos if kind == "curl" else basis.value_monos
    return np.einsum("ecm,lm->elc", field.polynomials(tets)[kind == "curl"], _mono_values(monos, ref_pts))


def test_solution_field_eval_consistency(rng):
    # the monomial coefficients evaluated at the rule's points against a per-element, per-point
    # loop over the shape functions: a solved field on the cube to 1e-14, then random complex dofs of
    # orders 1 and 2 on jiggled vertices, so that every Jacobian is a full 3x3 matrix, to 1e-14 of
    # the largest value
    cube = structured_cube_mesh(2)
    system = assemble(cube, 1, catalog("cube_poly").coefficients, QuadratureConfig(OFF, CEN, CEN))
    solved, _ = solve(system, tol=1e-12)
    jiggled = TetMesh(cube.vertices + rng.uniform(-0.1, 0.1, cube.vertices.shape), cube.tets)
    spaces = (EdgeSpace(jiggled, 1), EdgeSpace(jiggled, 2))
    fields = [solved, *(SolutionField(s, rng.standard_normal(s.n_dofs) + 1j * rng.standard_normal(s.n_dofs))
                        for s in spaces)]
    tets = [3, 11, 40]
    for field in fields:
        mesh, basis = field.space.mesh, field.space.basis
        vals_vec, curls_vec = (_at_points(field, kind, tets, PT15.points) for kind in ("mass", "curl"))
        X = orientation_table(basis.order)[_orientation_transforms(mesh)]
        gdof = EdgeSpace(mesh, basis.order).gdof
        scale = 1.0 if field is solved else max(np.abs(vals_vec).max(), np.abs(curls_vec).max())
        for row, tet in enumerate(tets):
            corners = mesh.vertices[mesh.tets[tet]]
            jac = (corners[1:] - corners[0]).T
            local = X[tet] @ field.dofs[gdof[tet]]
            for p, ref in enumerate(PT15.points):
                v = (local @ basis.eval_many(ref[None])[0]) @ np.linalg.inv(jac)
                c = jac @ (local @ basis.curl_many(ref[None])[0]) / np.linalg.det(jac)
                assert np.abs(v - vals_vec[row, p]).max() <= 1e-14 * scale
                assert np.abs(c - curls_vec[row, p]).max() <= 1e-14 * scale
        # a run of elements, or any list of them, reads its rows of the whole mesh's coefficients bit
        # for bit; one element alone only to round-off, as numpy takes a single row's product by gemv
        wholes = field.polynomials()
        for chunk in (slice(5, 29), slice(17, None), tets):
            for part, whole in zip(field.polynomials(chunk), wholes):
                assert np.array_equal(part, whole[chunk])
        for part, whole in zip(field.polynomials([7]), wholes):
            assert np.abs(part - whole[[7]]).max() <= 1e-15 * np.abs(whole[7]).max()


def test_dof_vectors_of_another_length_rejected():
    space = EdgeSpace(structured_cube_mesh(1), 2)
    for n in (space.n_dofs - 1, space.n_dofs + 1):
        with pytest.raises(ValueError, match=f"dof vectors must have the full length {space.n_dofs}"):
            SolutionField(space, np.zeros(n)).local()


def test_matrix_field_vector_field_validation():
    with pytest.raises(ValueError):
        MatrixField(np.ones((2, 2)))
    with pytest.raises(ValueError):
        VectorField(np.ones(4))
    fld = MatrixField(lambda pts: np.ones((len(pts), 3)))
    with pytest.raises(ValueError):
        fld(np.zeros((2, 3)))
    # a scalar per point is a multiple of I for a matrix field, but no vector field
    assert MatrixField(lambda pts: pts[:, 0])(np.ones((2, 3))).shape == (2,)
    fld = VectorField(lambda pts: pts[:, 0])
    with pytest.raises(ValueError):
        fld(np.zeros((2, 3)))


def _profile(pts):
    return 2.0 + np.sin(pts[:, 0] + 2.0 * pts[:, 1]) * np.cos(3.0 * pts[:, 2])


def _diagonal(scalar):
    """The field of a scalar profile as dense (N, 3, 3) multiples of I."""
    return lambda pts: scalar(pts)[:, None, None] * np.eye(3)


@pytest.mark.parametrize("order", [1, 2])
def test_scalar_coefficients_match_dense_diagonal(rng, order):
    # a scalar per point means that multiple of I: the scalar kernel path must
    # reproduce the general 3x3 path fed the same field as diagonal matrices
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets)
    mu_inv = lambda pts: 0.1 * _profile(pts)
    eps = lambda pts: (-1.0 + 0.3j) * _profile(pts[:, ::-1])
    scalar = Coefficients(mu_inv=mu_inv, eps=eps, omega=1.3, current=probe_vector_field)
    dense = Coefficients(mu_inv=_diagonal(mu_inv), eps=_diagonal(eps), omega=1.3, current=probe_vector_field)
    assert scalar.eps(mesh.vertices).shape == (mesh.n_vertices,)
    config = QuadratureConfig(PT4, PT5, PT15)
    n_dofs = EdgeSpace(mesh, order).n_dofs
    U, V = rng.standard_normal((2, n_dofs)) + 1j * rng.standard_normal((2, n_dofs))

    def outputs(coeffs):
        system = assemble(mesh, order, coeffs, config)
        return [*element_blocks(mesh, curl_basis(order), coeffs, config), system.matrix.toarray(), system.rhs] + [
            np.array(evaluate_forms(mesh, order, coeffs, c, U, V)) for c in (config, reference_config())]

    for got, want in zip(outputs(scalar), outputs(dense)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("order", [1, 2])
def test_moment_shortcuts_match_the_general_contraction(rng, order):
    # the scalar moment contraction against the matrix one: scalar fields against the same fields
    # as c I matrices, and real dofs against the same dofs cast to complex
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets)
    mu_inv = lambda pts: 0.1 * _profile(pts)
    eps = lambda pts: -10.0 + _profile(pts[:, ::-1])
    current = lambda pts: probe_vector_field(pts) + 1j * probe_vector_field(pts[:, ::-1])
    scalar = Coefficients(mu_inv=mu_inv, eps=eps, omega=1.3, current=current)
    dense = Coefficients(mu_inv=_diagonal(mu_inv), eps=_diagonal(eps), omega=1.3, current=current)
    n_dofs = EdgeSpace(mesh, order).n_dofs
    real = rng.standard_normal((2, n_dofs))
    complex_ = real + 1j * rng.standard_normal((2, n_dofs))

    def close(got, want):
        return all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want))

    for config in (QuadratureConfig(PT4, PT5, PT15), reference_config()):
        forms = lambda coeffs, U, V: evaluate_forms(mesh, order, coeffs, config, U, V)
        for U, V in (real, complex_):
            assert close(forms(scalar, U, V), forms(dense, U, V))
        assert close(forms(scalar, *real), forms(scalar, *real.astype(complex)))


def _forms_by_blocks(mesh, order, coeffs, config, U_dofs, V_dofs):
    """The forms as the sums over the elements of conj(v) (A + M) u and conj(v) f, from the element
    blocks of assembly and the local coefficients u, v: the reference for the moment contraction."""
    space = EdgeSpace.of(mesh, order)
    u, v = SolutionField(space, U_dofs).local(), SolutionField(space, V_dofs).local()
    A, M, f = element_blocks(mesh, space.basis, coeffs, config)
    return (np.einsum("ei,eij,ej->", v.conj(), A + M, u), np.einsum("ei,ei->", v.conj(), f))


@pytest.mark.parametrize("order", [1, 2])
def test_forms_by_moments_match_the_pointwise_sum(rng, order):
    # constant, scalar-field and matrix-field coefficients, real and complex dofs and currents,
    # each rule in each term, on jiggled vertices so that every Jacobian is a full 3x3 matrix
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets)
    complex_current = lambda pts: probe_vector_field(pts) + 1j * probe_vector_field(pts[:, ::-1])
    coefficient_sets = [
        Coefficients(mu_inv=2.5, eps=-1.0 + 0.3j, omega=1.3, current=probe_vector_field),
        Coefficients(mu_inv=np.diag([1.0, 2.0, 3.0]) + 0.5, eps=-np.eye(3), omega=0.7,
                     current=np.array([1.0, -2.0, 0.5j])),
        Coefficients(mu_inv=lambda pts: 0.1 * _profile(pts), eps=lambda pts: (-1.0 + 0.3j) * _profile(pts[:, ::-1]),
                     omega=1.3, current=complex_current),
        Coefficients(mu_inv=probe_matrix_field, eps=lambda pts: -0.5 * probe_matrix_field(pts[:, ::-1]),
                     omega=1.7, current=complex_current),
    ]
    configs = [QuadratureConfig(OFF, PT4, PT15), QuadratureConfig(PT15, OFF, PT4), reference_config()]
    n_dofs = EdgeSpace(mesh, order).n_dofs
    real = rng.standard_normal((2, n_dofs))
    complex_ = real + 1j * rng.standard_normal((2, n_dofs))
    for coeffs in coefficient_sets:
        for config in configs:
            for U, V in (real, complex_, (real[0], complex_[1])):
                got = evaluate_forms(mesh, order, coeffs, config, U, V)
                want = _forms_by_blocks(mesh, order, coeffs, config, U, V)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * abs(w)


def test_constant_multiple_of_identity_is_a_scalar():
    c = -2.5 + 0.5j
    assert MatrixField(c * np.eye(3)).constant.shape == ()
    mesh = structured_cube_mesh(1)
    basis = curl_basis(2)
    config = QuadratureConfig(PT4, PT5, PT15)
    blocks = [element_blocks(mesh, basis, Coefficients(mu_inv=f, eps=f, omega=1.0, current=np.zeros(3)), config)
              for f in (MatrixField(c * np.eye(3)), MatrixField(c))]
    for a, b in zip(*blocks):
        assert np.array_equal(a, b)


COEFFICIENTS = {
    "scalar": (lambda pts: 1.5 + np.sin(pts[:, 0] - 2.0 * pts[:, 2]), probe_vector_field),
    "matrix": (probe_matrix_field, probe_vector_field),
    "lossy": (lambda pts: probe_matrix_field(pts[:, ::-1]) + 0.5j * probe_matrix_field(pts),
              lambda pts: probe_vector_field(pts) + 1j * probe_vector_field(pts[:, ::-1])),
}


@pytest.mark.parametrize("order", [1, 2])
def test_curved_blocks_match_straight_blocks_on_affine_map(rng, order):
    # mid-edge nodes at the edge midpoints make the quadratic map affine, so the blocks of
    # every term on the curved element must reproduce the straight tet's, entry by entry; the two
    # sides are different contractions: the curved element pushes its shape data at every point,
    # the straight one contracts its push with the rule's product table
    verts = random_tet(rng)
    cmap = CurvedMap(np.vstack([verts] + [(verts[a] + verts[b]) / 2.0 for a, b in LOCAL_EDGES]))
    config = QuadratureConfig(PT4, PT5, PT15)
    basis = curl_basis(order)
    for matrix, vector in COEFFICIENTS.values():
        coeffs = Coefficients(mu_inv=matrix, eps=lambda pts: 0.5 * matrix(pts), omega=1.7, current=vector)
        straight = element_blocks(one_tet(verts), basis, coeffs, config)
        for (kind, rule, coeff, scale), want in zip(_terms(coeffs, config), straight):
            got = _blocks(QuadGeometry.curved(rule, cmap), kind, basis, coeff, scale)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def pointwise_blocks(geo, kind, basis, coeff, scale):
    """The blocks, or load vectors, of straight elements from their shape data pushed at every rule
    point: curls by J / det J and values by J^-T, as column vectors."""
    jac, det, inv = geo.jac[:, 0], geo.det[:, 0], geo.inv[:, 0]
    if kind == "curl":
        phys = np.einsum("ecd,lid->elic", jac, basis.curl_many(geo.rule.points)) / det[:, None, None, None]
    else:
        phys = np.einsum("edc,lid->elic", inv, basis.eval_many(geo.rule.points))
    c = coeff(geo.points.reshape(-1, 3))
    c = c.reshape(geo.weights.shape + c.shape[1:])
    w = scale * geo.weights
    if kind == "load":
        return np.einsum("el,elic,elc->ei", w, phys, c)
    if c.ndim == 2:
        return np.einsum("el,el,elic,eljc->eij", w, c, phys, phys)
    return np.einsum("el,elic,elcd,eljd->eij", w, phys, c, phys)


@pytest.mark.parametrize("rule", [CEN, PT5, PT15, tensorized_gl(2)], ids=lambda r: r.label)
@pytest.mark.parametrize("coefficient", COEFFICIENTS)
@pytest.mark.parametrize("order", [1, 2])
def test_straight_product_table_blocks_match_the_pointwise_contraction(order, coefficient, rule, rng):
    # jiggled vertices give every element a full Jacobian, whose push is not symmetric; a one-element
    # chunk takes numpy's matrix-vector product instead of a GEMM
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.15, 0.15, base.vertices.shape), base.tets)
    matrix, vector = COEFFICIENTS[coefficient]
    coeffs = Coefficients(mu_inv=matrix, eps=lambda pts: 0.5 * matrix(pts[:, [1, 2, 0]]), omega=1.7, current=vector)
    basis = curl_basis(order)
    for kind, _, coeff, scale in _terms(coeffs, QuadratureConfig(rule, rule, rule)):
        for tets in (slice(None), [mesh.n_tets - 1]):
            geo = tet_geometry(mesh, tets, rule)
            got, want = _blocks(geo, kind, basis, coeff, scale), pointwise_blocks(geo, kind, basis, coeff, scale)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("order", [1, 2])
def test_one_element_chunks_match_default_chunking(rng, monkeypatch, order):
    # chunking only splits sums over elements: one element per chunk must agree
    # (on jiggled vertices, so that no two elements share their geometry)
    entry = catalog("cube_oscillatory(10)")
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets)
    config = QuadratureConfig(PT4, PT5, PT15)
    space = EdgeSpace(mesh, order)
    n_dofs = space.n_dofs
    U, V = rng.standard_normal((2, n_dofs)) + 1j * rng.standard_normal((2, n_dofs))

    def outputs():
        system = assemble(mesh, order, entry.coefficients, config)
        error = hcurl_error(SolutionField(space, U), (entry.exact, entry.exact_curl), 2 * order + 4)
        return ([*element_blocks(mesh, space.basis, entry.coefficients, config), system.matrix.toarray(), system.rhs]
                + [np.array(evaluate_forms(mesh, order, entry.coefficients, c, U, V)) for c in (config, reference_config())]
                + [np.array([error.l2_error, error.curl_error])])

    default = outputs()
    monkeypatch.setattr(assembly, "_CHUNK_BUDGET", 1)
    for chunked, whole in zip(outputs(), default):
        assert np.abs(chunked - whole).max() <= 1e-13 * np.abs(whole).max()


@pytest.mark.parametrize("order,n,config", [(1, 8, QuadratureConfig(OFF, CEN, CEN)), (2, 6, QuadratureConfig(PT5, PT5, PT15))])
def test_assembly_holds_only_the_reduced_system(order, n, config, monkeypatch):
    # traced bytes per element-block entry, with the space built beforehand; int64 indices and a
    # kept unconstrained matrix need a peak of 49.7 (k=1) and 45.7 (k=2) and keep 18.0 and 18.7, and
    # separate curl-curl and mass arrays, a cached (nt, nd, nd) orientation array and a COO scatter
    # a peak of 34.4 and 36.6
    csr_matrix, index_dtypes = assembly.sp.csr_matrix, []
    monkeypatch.setattr(assembly.sp, "csr_matrix",
                        lambda arrays, **kw: index_dtypes.append(arrays[1].dtype) or csr_matrix(arrays, **kw))
    mesh = structured_cube_mesh(n)
    space = EdgeSpace.of(mesh, order)
    for name in ("gdof", "ranking", "affine", "constrained"):
        getattr(space, name)
    entries = mesh.n_tets * space.basis.n_dofs ** 2
    tracemalloc.start()
    try:
        system = assemble(mesh, order, catalog("cube_poly").coefficients, config)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # scipy keeps int32 indices without a copy, which an int64 array would cost in the scatter
    assert index_dtypes == [np.int32] and system.matrix.indices.dtype == np.int32
    assert peak / entries <= 30.0
    assert retained / entries <= 8.0
    # the space keeps nothing of one value per pair of local dofs of each element
    cached = [a for value in vars(space).values() for a in (value if isinstance(value, tuple) else (value,))]
    assert max(a.size for a in cached if isinstance(a, np.ndarray)) < entries


@pytest.mark.parametrize("lossy", [False, True])
@pytest.mark.parametrize("order,n", [(1, 7), (2, 4)])
def test_csr_from_the_element_blocks_is_the_coo_scatter_bit_for_bit(order, n, lossy, rng):
    # the reference scatters the oriented blocks as COO triplets, whose tocsr() sums the duplicates;
    # relabelled vertices put the global rows out of element order, and both meshes take several
    # chunks of the in-place orientation
    entry = catalog("cube_oscillatory(10)")
    coeffs = entry.coefficients
    if lossy:
        coeffs = dataclasses.replace(coeffs, eps=lambda pts: entry.eps0(pts[:, 2]) + 0.5j)
    base = structured_cube_mesh(n)
    perm = rng.permutation(base.n_vertices)
    verts = np.empty_like(base.vertices)
    verts[perm] = base.vertices
    mesh, config = TetMesh(verts, perm[base.tets]), QuadratureConfig(PT5, PT5, PT15)
    system = assemble(mesh, order, coeffs, config)

    space = system.space
    nd, gdof = space.basis.n_dofs, space.gdof
    curl, mass, load = (_term_blocks(mesh, space.basis, rule, *space.affine, kind, coeff, scale)
                        for kind, rule, coeff, scale in _terms(coeffs, config))
    X = orientation_table(order)[space.ranking]
    K = np.swapaxes(X, 1, 2) @ (curl + mass) @ X
    rows, cols = np.repeat(gdof, nd, axis=1).ravel(), np.tile(gdof, (1, nd)).ravel()
    free = np.flatnonzero(~space.constrained)
    matrix = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(space.n_dofs,) * 2).tocsr()[free][:, free]
    rhs = np.zeros(space.n_dofs, dtype=complex)
    np.add.at(rhs, gdof.ravel(), (load[:, None] @ X)[:, 0].ravel())
    rhs = rhs if rhs.imag.any() else rhs.real
    assert matrix.dtype == (np.complex128 if lossy else np.float64)
    for got, want in ((system.matrix.data, matrix.data), (system.matrix.indices, matrix.indices),
                      (system.matrix.indptr, matrix.indptr), (system.rhs, rhs[free])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("problem", ["cube_poly", "cube_oscillatory(10)"])
@pytest.mark.parametrize("order", [1, 2])
def test_catalog_systems_assemble_in_float64(problem, order):
    # real coefficients and a real -i omega J: the matrix and load vector are float64
    mesh, coeffs, config = structured_cube_mesh(2), catalog(problem).coefficients, QuadratureConfig(PT5, PT5, PT15)
    curl, mass, load = element_blocks(mesh, curl_basis(order), coeffs, config)
    assert curl.dtype == mass.dtype == np.float64 and not load.imag.any()
    system = assemble(mesh, order, coeffs, config)
    assert system.matrix.dtype == system.rhs.dtype == np.float64


@pytest.mark.parametrize("order", [1, 2])
def test_lossy_permittivity_adds_an_imaginary_part_to_the_lossless_matrix(order):
    entry = catalog("cube_oscillatory(10)")
    lossy = dataclasses.replace(entry.coefficients, eps=lambda pts: entry.eps0(pts[:, 2]) + 0.5j)
    mesh, config = structured_cube_mesh(2), QuadratureConfig(PT5, PT5, PT15)
    real = assemble(mesh, order, entry.coefficients, config).matrix.toarray()
    complex_ = assemble(mesh, order, lossy, config).matrix
    assert complex_.dtype == np.complex128
    dense = complex_.toarray()
    assert np.abs(dense.real - real).max() <= 1e-14 * np.abs(real).max()
    assert np.abs(dense.imag).max() > 0.0


@pytest.mark.parametrize("order", [1, 2])
def test_interpolate_keeps_the_dtype_of_the_field(order):
    space = EdgeSpace(structured_cube_mesh(2), order)
    field = smooth_random_field(3)
    real = interpolate(space, field)
    assert real.dtype == np.float64
    rotated = interpolate(space, lambda pts: np.exp(0.7j) * field(pts))
    assert rotated.dtype == np.complex128
    assert np.abs(rotated - np.exp(0.7j) * real).max() <= 1e-14 * np.abs(real).max()
