import itertools
import math

import numpy as np
import pytest

from edgefem.mesh import CurvedMap, QuadGeometry, TetMesh, all_affine_data
from edgefem.quadrature import (
    BUILTIN_LABELS,
    GAUSS_MAX_N,
    RefQuadratureRule,
    _certify,
    _gauss01,
    _gauss_table,
    builtin_rule,
    conical_rule,
    dump_rule,
    exact_monomial_integral,
    monomials_of_degree,
    rule_for_degree,
    tensorized_gl,
    verify_exactness,
)
from edgefem.reference_element import LOCAL_EDGES, REF_VERTICES, _face_rule, curl_basis

from conftest import simplex_monomial_integral, random_tet


def affine_geometry(rule, verts):
    """The rule mapped to the tet with corners ``verts`` (positively oriented)."""
    mesh = TetMesh(np.array(verts, dtype=float), np.array([[0, 1, 2, 3]]))
    return QuadGeometry.affine(rule, *all_affine_data(mesh))


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_builtin_certified_and_tight(label):
    rule = builtin_rule(label)
    assert verify_exactness(rule, rule.exactness_degree).ok
    report = verify_exactness(rule, rule.exactness_degree + 1)
    assert not report.ok
    assert report.worst_error > 1e-6          # tight, not borderline
    assert sum(report.worst_monomial) == rule.exactness_degree + 1


@pytest.mark.parametrize("label", BUILTIN_LABELS)
def test_builtin_weight_sum_and_points(label):
    rule = builtin_rule(label)
    assert abs(rule.weights.sum() - 1.0 / 6.0) <= 1e-14
    bary = np.column_stack([1.0 - rule.points.sum(axis=1), rule.points])
    assert bary.min() >= -1e-13 and bary.max() <= 1.0 + 1e-13


def test_centroid_rule_table():
    rule = builtin_rule("pt1_centroid")
    assert rule.npoints == 1
    assert np.allclose(rule.points[0], [0.25, 0.25, 0.25])
    assert rule.weights[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert rule.exactness_degree == 1


def test_offcenter_rule_table():
    rule = builtin_rule("pt1_offcenter")
    assert rule.npoints == 1
    assert np.allclose(rule.points[0], [0.3, 0.3, 0.2])
    assert rule.weights[0] == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert rule.exactness_degree == 0


def test_pt5_has_negative_weight_and_degree_three():
    rule = builtin_rule("pt5")
    assert rule.npoints == 5
    assert (rule.weights < 0).sum() == 1
    assert rule.exactness_degree == 3


def test_unknown_label():
    with pytest.raises(KeyError):
        builtin_rule("pt7")


def test_rule_for_degree_selection():
    assert rule_for_degree(0).label == "pt1_centroid"
    assert rule_for_degree(3).label == "pt5"
    high = rule_for_degree(8)
    assert high.exactness_degree >= 8
    with pytest.raises(ValueError):
        rule_for_degree(-1)


def test_tensorized_certified_degrees():
    # The collapsed-map Jacobian lowers the naive 2n-1 exactness; the
    # certified value is what counts.  n=2 lands at degree 1 (x^2 fails),
    # and n=1 cannot even integrate constants (weight sum 1/8).
    r2 = tensorized_gl(2)
    assert r2.npoints == 8
    assert r2.exactness_degree == 1
    assert not verify_exactness(r2, 2).ok

    r1 = tensorized_gl(1)
    assert r1.npoints == 1
    assert r1.exactness_degree == -1
    assert r1.weights.sum() == pytest.approx(1.0 / 8.0)

    r6 = tensorized_gl(6)
    assert r6.npoints == 216
    assert r6.exactness_degree >= 7


def test_certified_degrees_of_the_gauss_products():
    # from n = 9 or 10 the certified degree runs ahead of 2n - 3 (tensorized) and 2n - 1
    # (conical): the error just above them falls below CERTIFY_RTOL (7e-13 on x^18 for n = 10)
    assert [tensorized_gl(n).exactness_degree for n in range(1, 13)] == [-1, 1, 3, 5, 7, 9, 11, 13, 15, 18, 21, 25]
    assert [conical_rule(n).exactness_degree for n in range(1, 11)] == [1, 3, 5, 7, 9, 11, 13, 15, 18, 21]


def _textbook_product(n, alphas):
    """The collapsed product point by point: x = u, y = v(1-u), z = w(1-u)(1-v) (z only in 3D),
    weighted by the Jacobian (1-u)^2 (1-v) in 3D or (1-u) in 2D over the Jacobi weights' part."""
    (xu, wu), (xv, wv), *third = [_gauss01(n, a) for a in alphas]
    points, weights = [], []
    for i, j, k in itertools.product(range(n), range(n), range(n) if third else [None]):
        u, v = float(xu[i]), float(xv[j])
        if third:
            w = float(third[0][0][k])
            points.append((u, v * (1.0 - u), w * (1.0 - u) * (1.0 - v)))
            jac = (1.0 - u) ** (2 - alphas[0]) * (1.0 - v) ** (1 - alphas[1])
            weights.append(float(wu[i]) * float(wv[j]) * float(third[0][1][k]) * jac)
        else:
            points.append((u, v * (1.0 - u)))
            weights.append(float(wu[i]) * float(wv[j]) * (1.0 - u) ** (1 - alphas[0]))
    return np.array(points), np.array(weights)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("build, alphas", [(tensorized_gl, (0, 0, 0)), (conical_rule, (2, 1, 0))],
                         ids=["tensorized", "conical"])
def test_gauss_products_match_the_textbook_collapsed_map(build, alphas, n):
    rule = build(n)
    points, weights = _textbook_product(n, alphas)
    np.testing.assert_array_max_ulp(rule.points, points, maxulp=2)
    np.testing.assert_array_max_ulp(rule.weights, weights, maxulp=2)
    assert rule.exactness_degree == _certify(points, weights, max_degree=2 * n + 2)


def test_face_rule_matches_the_textbook_collapsed_map():
    # the 6 x 6 triangle rule in barycentric (1 - s - t, s, t), listed once per order of the corners
    st, weights = _textbook_product(6, (0, 0))
    s, t = st.T
    bary = np.column_stack([1.0 - (s + t), s, t])
    points = np.concatenate([bary[:, [a, b]] for _, a, b in itertools.permutations(range(3))])
    got_points, got_weights = _face_rule()
    np.testing.assert_array_max_ulp(got_points, points, maxulp=2)
    np.testing.assert_array_max_ulp(got_weights, np.tile(weights, 6) / 6.0, maxulp=2)


def test_gauss_table_matches_scipy():
    # the recorded rules are scipy's; scipy.special serves only as the oracle here
    from scipy.special import roots_jacobi, roots_legendre

    table = _gauss_table()
    assert sorted(table) == ["0", "1", "2"]
    for alpha, rows in table.items():
        assert len(rows) == GAUSS_MAX_N
        for n, (x, w) in enumerate(rows, 1):
            ref = roots_legendre(n) if alpha == "0" else roots_jacobi(n, float(alpha), 0.0)
            for got, want in zip((x, w), ref):
                assert len(got) == n
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0, err_msg=f"alpha {alpha}, n {n}")


def test_gauss_products_refuse_n_beyond_the_table():
    with pytest.raises(ValueError, match="tensor_gl21: n must be 1..20"):
        tensorized_gl(GAUSS_MAX_N + 1)
    with pytest.raises(ValueError, match="conical21: n must be 1..20"):
        conical_rule(GAUSS_MAX_N + 1)
    with pytest.raises(ValueError, match="tensor_gl0"):
        tensorized_gl(0)
    with pytest.raises(ValueError, match="degree 40 is above 39.*n <= 20"):
        rule_for_degree(40)


def test_conical_rule_reaches_classical_degree():
    for n in (1, 2, 4):
        rule = conical_rule(n)
        assert rule.exactness_degree >= 2 * n - 1
        assert abs(rule.weights.sum() - 1.0 / 6.0) <= 1e-14


def test_verify_exactness_report():
    cen = builtin_rule("pt1_centroid")
    assert verify_exactness(cen, 1).ok
    report = verify_exactness(cen, 2)
    assert not report.ok
    assert sum(report.worst_monomial) == 2 and 2 in report.worst_monomial
    expected_gap = abs(1.0 / 96.0 - 1.0 / 60.0)
    assert report.worst_error == pytest.approx(expected_gap, rel=1e-12)
    assert verify_exactness(builtin_rule("pt1_offcenter"), 0).ok


def test_monomial_oracle_against_reference_tet():
    # the library's closed form and the barycentric-expansion oracle agree
    assert exact_monomial_integral(2, 0, 0) == pytest.approx(1.0 / 60.0)
    for abc in monomials_of_degree(4):
        assert exact_monomial_integral(*abc) == pytest.approx(
            simplex_monomial_integral(REF_VERTICES, abc), rel=1e-13)


def test_map_affine_identity_and_scaling():
    rule = builtin_rule("pt15")
    geo = affine_geometry(rule, REF_VERTICES)
    assert np.allclose(geo.points[0], rule.points)
    assert np.allclose(geo.weights[0], rule.weights)

    geo2 = affine_geometry(rule, 2.0 * REF_VERTICES)
    assert np.allclose(geo2.weights[0], 8.0 * rule.weights)


def test_map_affine_weight_sum_is_volume(rng):
    rule = builtin_rule("pt4")
    for _ in range(5):
        verts = random_tet(rng)
        geo = affine_geometry(rule, verts)
        vol = abs(np.linalg.det((verts[1:] - verts[0]).T)) / 6.0
        assert geo.weights.sum() == pytest.approx(vol, rel=1e-13)


@pytest.mark.parametrize("label", ["pt1_centroid", "pt4", "pt5", "pt15", "high"])
def test_map_affine_preserves_exactness(label, rng):
    # mapped rule integrates physical polynomials up to the certified degree,
    # checked against the independent barycentric-expansion oracle
    rule = builtin_rule(label)
    deg = min(rule.exactness_degree, 5)
    for _ in range(3):
        verts = random_tet(rng)
        geo = affine_geometry(rule, verts)
        pts, wts = geo.points[0], geo.weights[0]
        for d in range(deg + 1):
            for abc in monomials_of_degree(d):
                approx = np.dot(wts, pts[:, 0] ** abc[0] * pts[:, 1] ** abc[1] * pts[:, 2] ** abc[2])
                exact = simplex_monomial_integral(verts, abc)
                assert abs(approx - exact) <= 1e-11 * max(1.0, abs(exact))


def _curved_control(bump=0.15):
    ctrl = [v for v in REF_VERTICES]
    for a, b in LOCAL_EDGES:
        ctrl.append((REF_VERTICES[a] + REF_VERTICES[b]) / 2.0)
    ctrl = np.array(ctrl)
    ctrl[4 + 3] += np.array([0.0, 0.0, bump])      # bulge the (1,2) mid-edge node
    return ctrl


def test_map_curved_matches_affine_for_straight_elements(rng):
    # a curved map with mid-edge control points is the affine map: same
    # points, weights and pushes, from one Jacobian per point instead of one
    rule = builtin_rule("pt15")
    verts = random_tet(rng)
    ctrl = [v for v in verts]
    for a, b in LOCAL_EDGES:
        ctrl.append((verts[a] + verts[b]) / 2.0)
    geo_c = QuadGeometry.curved(rule, CurvedMap(np.array(ctrl)))
    geo_a = affine_geometry(rule, verts)
    assert geo_c.jac.shape == (1, rule.npoints, 3, 3) and geo_a.jac.shape == (1, 1, 3, 3)
    assert np.abs(geo_c.points - geo_a.points).max() <= 1e-13
    assert np.abs(geo_c.weights - geo_a.weights).max() <= 1e-13
    basis = curl_basis(2)
    vals, curls = basis.eval_many(rule.points)[None], basis.curl_many(rule.points)[None]
    assert np.abs(geo_c.covariant(vals) - geo_a.covariant(vals)).max() <= 1e-12
    assert np.abs(geo_c.contravariant(curls) - geo_a.contravariant(curls)).max() <= 1e-12


def test_map_curved_centroid_weight_is_pointwise_det():
    cmap = CurvedMap(_curved_control())
    rule = builtin_rule("pt1_centroid")
    geo = QuadGeometry.curved(rule, cmap)
    det = cmap.det_at(np.array([[0.25, 0.25, 0.25]]))[0]
    assert geo.weights[0, 0] == pytest.approx(det / 6.0, rel=1e-14)


def test_map_curved_volume_against_high_order_oracle():
    # total mapped weight equals the volume integral of det J computed with
    # a high-order certified tensor rule
    cmap = CurvedMap(_curved_control())
    geo = QuadGeometry.curved(builtin_rule("high"), cmap)
    ref = tensorized_gl(8)
    vol = np.dot(ref.weights, cmap.det_at(ref.points))
    assert geo.weights.sum() == pytest.approx(vol, rel=1e-12)


def test_map_curved_rejects_nonpositive_jacobian():
    ctrl = _curved_control()
    ctrl[4] = [2.5, -2.0, 0.0]      # wreck the (0,1) mid-edge node
    with pytest.raises(ValueError):
        CurvedMap(ctrl)


def test_degenerate_exactness_degree_skips_sum_invariant():
    # a doubled-weight rule is representable only with the degenerate marker
    base = builtin_rule("pt4")
    doubled = RefQuadratureRule(base.points, 2.0 * base.weights, -1, "doubled")
    assert doubled.weights.sum() == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        RefQuadratureRule(base.points, 2.0 * base.weights, 2, "bad")


def test_dump_rule_format():
    text = dump_rule(builtin_rule("pt5"))
    lines = text.strip().split("\n")
    assert lines[0] == "pt5 3 5"
    assert len(lines) == 6
    x, y, z, w = (float(t) for t in lines[1].split())
    assert (x, y, z) == (0.25, 0.25, 0.25)
    assert w == pytest.approx(-0.8 / 6.0)


def test_rules_are_immutable():
    rule = builtin_rule("pt4")
    with pytest.raises(ValueError):
        rule.points[0, 0] = 0.0
