import math
from itertools import permutations

import numpy as np
import pytest

from edgefem.analysis import (
    CSV_HEADER,
    _error_integrals,
    _probe_fit,
    ErrorRecord,
    consistency_error,
    consistency_probe,
    curved_local_error,
    curved_probe,
    curved_rule_degree,
    discrete_hcurl_norm,
    fit_rate,
    hcurl_error,
    interpolate,
    probe_field,
    records_to_csv,
    shrunk_quadratic_map,
    smooth_random_field,
)
from edgefem import assembly
from edgefem.assembly import Coefficients, EdgeSpace, MatrixField, QuadratureConfig, SolutionField, _geometries
from edgefem.mesh import TetMesh, all_affine_data, structured_cube_mesh
from edgefem.problems import catalog
from edgefem.quadrature import builtin_rule, rule_for_degree, tensorized_gl
from edgefem.reference_element import _mono_values, orientation_table

from conftest import random_tet

OFF = builtin_rule("pt1_offcenter")
CEN = builtin_rule("pt1_centroid")
PT4 = builtin_rule("pt4")
PT5 = builtin_rule("pt5")


def test_error_record_norm_identity():
    rec = ErrorRecord(n=2, h=0.5, dofs=10, l2_error=3.0, curl_error=4.0)
    assert rec.hcurl_error == pytest.approx(5.0, rel=1e-12)


def test_fit_rate_synthetic():
    hs = np.array([1.0, 0.5, 0.25, 0.125])
    recs = [ErrorRecord(n=i, h=h, dofs=int(8 / h) ** 3, l2_error=h ** 2, curl_error=0.0)
            for i, h in enumerate(hs)]
    assert fit_rate(recs, "h").slope == pytest.approx(2.0, abs=1e-12)

    recs = [ErrorRecord(n=i, h=h, dofs=d, l2_error=d ** (-1.0 / 3.0), curl_error=0.0)
            for i, (h, d) in enumerate(zip(hs, (100, 800, 6400, 51200)))]
    assert fit_rate(recs, "dofs").slope == pytest.approx(-1.0 / 3.0, abs=1e-12)

    rng = np.random.default_rng(5)
    recs = [ErrorRecord(n=i, h=h, dofs=1, l2_error=h * (1 + 0.05 * rng.uniform(-1, 1)),
                        curl_error=0.0) for i, h in enumerate(hs)]
    slope = fit_rate(recs, "h").slope
    assert 0.9 <= slope <= 1.1

    with pytest.raises(ValueError):
        fit_rate(recs[:2], "h")
    with pytest.raises(ValueError):
        fit_rate(recs, "npoints")


def test_probe_fit_exact_and_zero_gaps():
    hs = [1.0, 0.5, 0.25]
    assert _probe_fit(["n=1", "n=2", "n=4"], hs, [1e-10, 0.0, 3e-11]) is None
    assert _probe_fit(["n=1", "n=2", "n=4"], hs, [4.0, 1.0, 0.25]).slope == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError, match="gap at n=2 is 0.0"):
        _probe_fit(["n=1", "n=2", "n=4"], hs, [1e-3, 0.0, 1e-5])


def test_records_to_csv_layout():
    recs = [ErrorRecord(n=2, h=0.5, dofs=10, l2_error=1e-3, curl_error=2e-3, iterations=7)]
    text = records_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "2" and fields[2] == "10" and fields[6] == "7"
    assert float(fields[5]) == pytest.approx(np.hypot(1e-3, 2e-3))


def test_interpolant_of_constant_is_exact():
    # constants lie in the k=1 space, so the interpolant reproduces them
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    const = lambda pts: np.broadcast_to(np.array([1.0, -2.0, 0.5]), (len(pts), 3))
    space = EdgeSpace(mesh, 1)
    sol = SolutionField(space, interpolate(space, const))
    zero_curl = lambda pts: np.zeros((len(pts), 3))
    rec = hcurl_error(sol, (const, zero_curl), quad_degree=6)
    assert rec.l2_error <= 1e-12
    assert rec.curl_error <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
def test_interpolant_of_in_space_linear_field_is_exact(order):
    # order 1 holds a + b x x exactly; order 2 holds all of P1^3
    mesh = structured_cube_mesh(2)
    a = np.array([0.5, -1.0, 0.25])
    b = np.array([0.2, -0.4, 0.7])
    if order == 1:
        def lin(pts):
            return a + np.cross(np.broadcast_to(b, (len(np.atleast_2d(pts)), 3)),
                                np.atleast_2d(pts))

        def lin_curl(pts):
            return np.broadcast_to(2.0 * b, (len(np.atleast_2d(pts)), 3))
    else:
        B = np.array([[0.0, 0.3, -0.2], [0.3, 0.0, 0.1], [-0.2, 0.1, 0.0]])

        def lin(pts):
            return np.atleast_2d(pts) @ B.T + a

        def lin_curl(pts):
            return np.zeros((len(np.atleast_2d(pts)), 3))

    space = EdgeSpace(mesh, order)
    sol = SolutionField(space, interpolate(space, lin))
    rec = hcurl_error(sol, (lin, lin_curl), quad_degree=2 * order + 4)
    assert rec.l2_error <= 1e-12
    assert rec.curl_error <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_interpolant_of_a_global_basis_function_is_its_unit_vector(order, perm, rng):
    # the interpolant and the basis are dual: on one tet whose vertex ids rank as ``perm``,
    # global basis function j, extended as a polynomial beyond the tet, has dofs e_{gdof[j]}
    corners = random_tet(rng)
    ids = np.array(perm)
    verts = np.empty_like(corners)
    verts[ids] = corners
    space = EdgeSpace(TetMesh(verts, ids[None]), order)
    _, origin, _, inv = (a[0] for a in all_affine_data(space.mesh))

    def global_basis(j):
        def field(pts):
            pushed = space.basis.eval_many((pts - origin) @ inv.T) @ inv
            return np.einsum("nmc,m->nc", pushed, orientation_table(order)[space.ranking[0]][:, j])
        return field

    for j in range(space.basis.n_dofs):
        unit = np.zeros(space.n_dofs)
        unit[space.gdof[0, j]] = 1.0
        assert np.abs(interpolate(space, global_basis(j)) - unit).max() <= 1e-12


def test_zero_solution_error_closed_form():
    # ||E||^2 = 512/225 and ||curl E||^2 = 512/45 for the catalog field
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    zero = SolutionField(EdgeSpace(mesh, 1), np.zeros(mesh.n_edges))
    rec = hcurl_error(zero, (prob.exact, prob.exact_curl), quad_degree=8, n=2, dofs=26)
    assert rec.l2_error ** 2 == pytest.approx(512.0 / 225.0, rel=1e-12)
    assert rec.curl_error ** 2 == pytest.approx(512.0 / 45.0, rel=1e-12)
    # cross-check the closed forms with a certified tensor rule over the cube
    ref = tensorized_gl(8)
    from edgefem.mesh import all_affine_data
    jac, origin, det, _ = all_affine_data(mesh)
    total = 0.0
    for e in range(mesh.n_tets):
        pts = origin[e] + ref.points @ jac[e].T
        total += abs(det[e]) * np.dot(ref.weights, np.abs(prob.exact(pts)[:, 0]) ** 2)
    assert total == pytest.approx(512.0 / 225.0, rel=1e-10)


def test_hcurl_error_determinism_and_degree_guard():
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    zero = SolutionField(EdgeSpace(mesh, 1), np.zeros(mesh.n_edges))
    r1 = hcurl_error(zero, (prob.exact, prob.exact_curl), quad_degree=8)
    r2 = hcurl_error(zero, (prob.exact, prob.exact_curl), quad_degree=8)
    assert r1.l2_error == r2.l2_error and r1.curl_error == r2.curl_error
    with pytest.raises(ValueError):
        hcurl_error(zero, (prob.exact, prob.exact_curl), quad_degree=4)


def test_discrete_hcurl_norm_scaling():
    space = EdgeSpace(structured_cube_mesh(2), 1)
    u = probe_field(space, seed=42)
    assert discrete_hcurl_norm(SolutionField(space, u)) == pytest.approx(1.0, rel=1e-12)
    assert discrete_hcurl_norm(SolutionField(space, 2.0 * u)) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_discrete_norm_matches_the_error_against_zero(rng, order):
    # both sides read the same monomial coefficients: the closed-form norm contracts them with
    # the rule's Gram matrix, the squared errors of the field from zero evaluate them at the
    # rule's points and sum the weighted squares; on a jiggled mesh with complex dofs
    base = structured_cube_mesh(2)
    mesh = TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets)
    space = EdgeSpace(mesh, order)
    zero = lambda pts: np.zeros((len(pts), 3))
    for dofs in (rng.standard_normal(space.n_dofs), [1.0, 1j] @ rng.standard_normal((2, space.n_dofs))):
        sol = SolutionField(space, dofs)
        want = math.sqrt(sum(_error_integrals(sol, zero, zero, rule_for_degree(2 * order + 2))))
        assert abs(discrete_hcurl_norm(sol) - want) <= 1e-13 * want


@pytest.mark.parametrize("order", [1, 2])
def test_error_integrals_match_a_per_point_sum(rng, monkeypatch, order):
    # the one-GEMM kernel against w |v - E|^2 summed point by point in the test, from the same monomial
    # coefficients, exact values at geo.points and weights geo.weights, on a jiggled mesh of 162 elements
    # in chunks of 23, whose last holds one, with real and complex dofs
    base = structured_cube_mesh(3)
    space = EdgeSpace(TetMesh(base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape), base.tets), order)
    rule, basis = rule_for_degree(2 * order + 4), space.basis
    monkeypatch.setattr(assembly, "_CHUNK_BUDGET", 20 * rule.npoints * 23)
    assert [c.stop - c.start for c, _ in _geometries(rule, space.affine, 20)][-2:] == [23, 1]
    smooth, curl = smooth_random_field(5), smooth_random_field(6)
    cases = ((rng.standard_normal(space.n_dofs), smooth, curl),
             ([1.0, 1j] @ rng.standard_normal((2, space.n_dofs)), lambda p: (1 - 0.5j) * smooth(p), curl))
    for dofs, exact, exact_curl in cases:
        sol, want = SolutionField(space, dofs), [0.0, 0.0]
        for chunk, geo in _geometries(rule, space.affine, 20):
            flat = geo.points.reshape(-1, 3)
            parts = zip(sol.polynomials(chunk), (basis.value_monos, basis.curl_monos), (exact, exact_curl))
            for i, (a, monos, fn) in enumerate(parts):
                values = np.einsum("ecm,lm->elc", a, _mono_values(monos, rule.points))
                want[i] += np.sum(geo.weights[:, :, None] * np.abs(values - fn(flat).reshape(values.shape)) ** 2)
        for got, ref in zip(_error_integrals(sol, exact, exact_curl, rule), want):
            assert abs(got - ref) <= 1e-13 * ref


def test_consistency_error_exact_for_compliant_constant_coefficients():
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    space = EdgeSpace(mesh, 1)
    U, V = probe_field(space, seed=7), probe_field(space, seed=8)
    cfg = QuadratureConfig(OFF, PT4, PT5)
    dphi, _ = consistency_error(mesh, 1, prob.coefficients, cfg, U, V)
    assert dphi <= 1e-10


def test_consistency_error_zero_field():
    prob = catalog("cube_poly")
    mesh = structured_cube_mesh(2)
    V = probe_field(EdgeSpace(mesh, 1), seed=9)
    zero = np.zeros(mesh.n_edges, dtype=complex)
    dphi, dload = consistency_error(mesh, 1, prob.coefficients,
                                    QuadratureConfig(OFF, OFF, OFF), zero, V)
    assert dphi == 0.0
    assert dload > 0.0


def test_consistency_probe_decays_first_order():
    entry = catalog("cube_oscillatory(1)")
    cfg = QuadratureConfig(CEN, CEN, CEN)
    rows, fit = consistency_probe(1, (2, 4, 8), entry.coefficients, cfg, seed=3)
    assert all(r[2] > 0 for r in rows)
    assert fit.slope >= 0.7


def test_probe_fields_are_deterministic():
    mesh = structured_cube_mesh(2)
    u1 = probe_field(EdgeSpace(mesh, 1), seed=5)
    u2 = probe_field(EdgeSpace(mesh, 1), seed=5)
    assert np.array_equal(u1, u2)
    f = smooth_random_field(5)
    pts = np.array([[0.1, 0.2, 0.3]])
    assert np.array_equal(f(pts), smooth_random_field(5)(pts))


def test_curved_local_error_straight_polynomial_exact():
    from edgefem.reference_element import LOCAL_EDGES, REF_VERTICES

    ctrl = [v * 0.8 for v in REF_VERTICES]
    for a, b in LOCAL_EDGES:
        ctrl.append(0.8 * (REF_VERTICES[a] + REF_VERTICES[b]) / 2.0)
    from edgefem.mesh import CurvedMap
    cmap = CurvedMap(np.array(ctrl))
    const = MatrixField(2.0 * np.eye(3))
    err = curved_local_error(cmap, const, PT4, 1, "mass")
    assert err <= 1e-11


def test_curved_local_error_zero_coefficient():
    cmap = shrunk_quadratic_map(0.5)
    zero = MatrixField(np.zeros((3, 3)))
    assert curved_local_error(cmap, zero, CEN, 1, "mass") == 0.0


def test_curved_local_error_modes_and_validation():
    cmap = shrunk_quadratic_map(0.5)
    const = MatrixField(np.eye(3))
    for mode in ("mass", "curlcurl"):
        val = curved_local_error(cmap, const, CEN, 1, mode)
        assert np.isfinite(val)
    from edgefem.assembly import VectorField
    val = curved_local_error(cmap, VectorField(np.array([1.0, 0.0, 0.0])), CEN, 1, "load")
    assert np.isfinite(val)
    with pytest.raises(ValueError):
        curved_local_error(cmap, const, CEN, 1, "stiffness")


def test_curved_rule_degree_thresholds():
    assert curved_rule_degree("mass", 1, 1) == 3
    assert curved_rule_degree("curlcurl", 1, 1) == 1
    assert curved_rule_degree("mass", 2, 2) == 5
    assert curved_rule_degree("load", 1, 2) == 4


def test_shrunk_family_is_valid_and_scales():
    for s in (1.0, 0.25, 0.0625):
        cmap = shrunk_quadratic_map(s)
        det = cmap.det_at(np.array([[0.25, 0.25, 0.25]]))
        assert det[0] > 0
    big = shrunk_quadratic_map(1.0).control_points
    small = shrunk_quadratic_map(0.5).control_points
    assert np.abs(small[:4] - 0.5 * big[:4]).max() <= 1e-15


def test_curved_probe_sanity():
    rows, fit = curved_probe("mass", 1, 1, svals=(0.5, 0.25, 0.125))
    assert len(rows) == 3
    assert fit.slope > 1.0
