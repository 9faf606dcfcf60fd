import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from edgefem.analysis import shrunk_quadratic_map
from edgefem.mesh import (
    CurvedMap,
    QuadGeometry,
    TetMesh,
    _diameters_and_volumes,
    _row_keys,
    all_affine_data,
    piola,
    structured_cube_mesh,
)
from edgefem.quadrature import builtin_rule
from edgefem.reference_element import LOCAL_EDGES, LOCAL_FACES, REF_VERTICES

from conftest import point_rule, random_tet, tet_geometry


def volumes(mesh):
    """Signed tet volumes, from the element maps' determinants."""
    return all_affine_data(mesh)[2] / 6.0


def test_kuhn_split_unit_counts():
    m = structured_cube_mesh(1)
    assert m.n_vertices == 8
    assert m.n_tets == 6
    # 12 cube edges + 6 face diagonals + 1 body diagonal
    assert m.n_edges == 19
    assert len(m.boundary_edges) == 18
    assert len(m.boundary_faces) == 12
    interior = set(range(m.n_edges)) - set(m.boundary_edges.tolist())
    assert len(interior) == 1


def test_lattice_counts_and_volume():
    m = structured_cube_mesh(2)
    assert m.n_vertices == 27
    assert m.n_tets == 48
    for n in (1, 2, 3):
        vols = volumes(structured_cube_mesh(n))
        assert vols.sum() == pytest.approx(8.0, abs=1e-12)
        assert vols.min() > 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_euler_characteristic(n):
    m = structured_cube_mesh(n)
    assert m.n_vertices - m.n_edges + m.n_faces - m.n_tets == 1


def test_face_multiplicity_and_boundary_edges():
    m = structured_cube_mesh(2)
    counts = np.bincount(m.tet2face.ravel(), minlength=m.n_faces)
    assert set(counts.tolist()) == {1, 2}
    assert np.all(counts[m.boundary_faces] == 1)
    # boundary edges == union of the edges of boundary faces
    expected = set()
    for f in m.boundary_faces:
        a, b, c = m.faces[f]
        expected |= {(a, b), (a, c), (b, c)}
    got = {tuple(m.edges[e]) for e in m.boundary_edges}
    assert got == expected


def test_edge_and_face_tables_sorted_unique():
    m = structured_cube_mesh(2)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    assert np.all(np.diff(m.edges[:, 0] * m.n_vertices + m.edges[:, 1]) > 0)
    assert np.all(m.faces[:, 0] < m.faces[:, 1]) and np.all(m.faces[:, 1] < m.faces[:, 2])


def test_structured_mesh_matches_cell_loop():
    # the chains of every cell, cell by cell, as the reference for the vectorized build
    n = 3
    vid = lambda p: (p[0] * (n + 1) + p[1]) * (n + 1) + p[2]
    tets = []
    for cell in np.ndindex(n, n, n):
        for perm in permutations(range(3)):
            corner = np.array(cell)
            chain = [vid(corner)]
            for axis in perm:
                corner = corner + np.eye(3, dtype=int)[axis]
                chain.append(vid(corner))
            tets.append(chain)
    mesh = structured_cube_mesh(n)
    assert np.array_equal(mesh.tets, TetMesh(mesh.vertices, np.array(tets)).tets)


def test_topology_matches_row_unique_on_relabelled_mesh(rng):
    # integer keys must number edges and faces as a lexicographic unique of the rows does
    base = structured_cube_mesh(3)
    perm = rng.permutation(base.n_vertices)
    mesh = TetMesh(base.vertices[perm], np.argsort(perm)[base.tets])
    for local, table, tet2 in ((LOCAL_EDGES, mesh.edges, mesh.tet2edge), (LOCAL_FACES, mesh.faces, mesh.tet2face)):
        rows = np.sort(mesh.tets[:, local], axis=2).reshape(-1, len(local[0]))
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(table, unique)
        assert np.array_equal(tet2.ravel(), inverse.ravel())


def test_non_manifold_mesh_rejected():
    # three tets on the face (0, 1, 2): apexes above, below and off to the side
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.2, 1], [0.2, 0.2, -1], [1.5, 1.5, 0.5]])
    tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    TetMesh(verts, tets[:2])
    with pytest.raises(ValueError, match="non-manifold mesh: a face is shared by more than two tets"):
        TetMesh(verts, tets)


def _jiggled(base, rng):
    """``base`` with its vertices relabelled and moved by up to a fifth of an edge, and each
    tet's corners listed in a random order."""
    perm = rng.permutation(base.n_vertices)
    verts = base.vertices[perm] + rng.uniform(-0.2, 0.2, base.vertices.shape) * base.h / np.sqrt(3.0)
    return TetMesh(verts, rng.permuted(np.argsort(perm)[base.tets], axis=1))


def test_diameter_is_the_largest_corner_distance(rng):
    # bit for bit: the largest of the 16 ordered corner-pair distances, as the longest edge
    longest = set()
    for mesh in (structured_cube_mesh(3), _jiggled(structured_cube_mesh(3), rng), _jiggled(structured_cube_mesh(4), rng)):
        corners = mesh.vertices[mesh.tets]
        distances = np.sqrt(((corners[:, :, None] - corners[:, None]) ** 2).sum(-1))
        diam, vols = _diameters_and_volumes(mesh.vertices, mesh.tets)
        assert np.array_equal(diam, distances.max(axis=(1, 2)))
        assert mesh.h == diam.max()
        assert np.array_equal(vols, volumes(mesh))
        longest |= set(np.argmax([distances[:, a, b] for a, b in LOCAL_EDGES], axis=0).tolist())
    assert longest == set(range(6))     # every local edge is some tet's longest


def _sliver(rng, ratio):
    """A tet of |volume| = ratio diameter^3: a random base triangle in a plane z = const and an
    apex just above it, shifted off the origin."""
    verts = np.zeros((4, 3))
    verts[:3, :2] = rng.uniform(-1.0, 1.0, (3, 2))
    verts[3, :2] = verts[:3, :2].mean(axis=0) + rng.uniform(-0.2, 0.2, 2)
    diam = max(np.linalg.norm(a - b) for a in verts for b in verts)
    twice_area = np.linalg.norm(np.cross(verts[1] - verts[0], verts[2] - verts[0]))
    verts[3, 2] = 6.0 * ratio * diam ** 3 / twice_area
    return verts + rng.uniform(-3.0, 3.0, 3)


def test_closed_form_affine_data_matches_lapack(rng):
    # random tets, and slivers at twice the degeneracy threshold |volume| = 1e-12 diameter^3
    verts = [random_tet(rng) + rng.uniform(-5.0, 5.0, 3) for _ in range(200)]
    verts += [_sliver(rng, 2e-12) for _ in range(50)]
    mesh = TetMesh(np.vstack(verts), np.arange(4 * len(verts)).reshape(-1, 4))
    jac, origin, det, inv = all_affine_data(mesh)
    assert np.array_equal(origin, mesh.vertices[mesh.tets[:, 0]])
    assert np.array_equal(jac, np.swapaxes(mesh.vertices[mesh.tets[:, 1:]] - origin[:, None], 1, 2))
    assert np.all(np.abs(det - np.linalg.det(jac)) <= 1e-13 * np.abs(det))
    scale = np.abs(inv).max(axis=(1, 2))
    assert np.all(np.abs(inv - np.linalg.inv(jac)).max(axis=(1, 2)) <= 1e-13 * scale)
    assert np.abs(inv @ jac - np.eye(3)).max() <= 1e-13


def test_mesh_build_has_no_all_pairs_transient():
    # traced peak bytes per tet while a mesh is built: 358 with the diameter from the 6 edges,
    # 645 with a (nt, 4, 4, 3) array of all corner-pair differences
    base = structured_cube_mesh(12)
    verts, tets = np.array(base.vertices), np.array(base.tets)
    tracemalloc.start()
    try:
        TetMesh(verts, tets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(tets) <= 450.0


def test_row_keys_refuse_int64_overflow():
    columns = np.array([[0, 1, 2]]).T
    assert _row_keys(columns, 2 ** 21)[0] == 2 ** 21 + 2
    with pytest.raises(ValueError, match="too many for int64 keys"):
        _row_keys(columns, 2 ** 21 + 1)


def _pointwise_times(x, mats):
    """x (E or 1, L, m, 3) times mats (E, 1 or L, 3, 3), one vector at a time."""
    out = np.empty((len(mats),) + x.shape[1:], dtype=np.result_type(x, mats))
    for e, l, i in np.ndindex(out.shape[:3]):
        out[e, l, i] = x[min(e, len(x) - 1), l, i] @ mats[e, min(l, mats.shape[1] - 1)]
    return out


def _branch_geometry(branch, rule):
    """``rule`` on the six straight elements of a cube, or on one curved element."""
    if branch == "straight":
        return tet_geometry(structured_cube_mesh(1), np.arange(6), rule)
    return QuadGeometry.curved(rule, shrunk_quadratic_map(0.5))


@pytest.mark.parametrize("branch", ["straight", "curved"])
def test_pushes_match_per_point_loop(rng, branch):
    # x P with P = piola(...), for real and complex x, one or E leading rows
    rule = builtin_rule("pt5")
    geo = _branch_geometry(branch, rule)
    det = geo.det[:, :, None, None]
    for lead, imag in ((1, 0.0), (1, 1.0), (len(geo.det), 0.0), (len(geo.det), 1.0)):
        x = rng.standard_normal((lead, rule.npoints, 4, 3))
        if imag:
            x = x + 1j * rng.standard_normal(x.shape)
        for kind, expected in (("mass", _pointwise_times(x, geo.inv)),
                               ("curl", _pointwise_times(x, np.swapaxes(geo.jac, 2, 3)) / det)):
            pushed = x @ piola(kind, geo.jac, geo.det, geo.inv)
            assert pushed.dtype == expected.dtype
            assert np.abs(pushed - expected).max() <= 1e-14 * np.abs(expected).max()


def test_piola_of_element_data_is_the_straight_geometrys():
    # the (E, 3, 3) arrays of all_affine_data and a geometry's (E, 1, 3, 3) give the same matrices
    mesh = structured_cube_mesh(1)
    jac, _, det, inv = all_affine_data(mesh)
    geo = tet_geometry(mesh, np.arange(6), builtin_rule("pt5"))
    for kind in ("mass", "curl"):
        assert np.array_equal(piola(kind, jac, det, inv), piola(kind, geo.jac, geo.det, geo.inv)[:, 0])


@pytest.mark.parametrize("branch", ["straight", "curved"])
def test_weights_are_abs_det_times_the_rule_weights(branch):
    rule = builtin_rule("pt15")
    geo = _branch_geometry(branch, rule)
    if branch == "straight":
        det = all_affine_data(structured_cube_mesh(1))[2][:, None]
    else:
        det = shrunk_quadratic_map(0.5).det_at(rule.points)[None]
    assert geo.weights.shape == geo.points.shape[:2]
    assert np.array_equal(geo.weights, np.abs(det) * rule.weights)


def test_element_map_reference_tet():
    mesh = TetMesh(REF_VERTICES.copy(), np.array([[0, 1, 2, 3]]))
    # one tet: 4 vertices, 6 edges and 4 faces, every edge and face on the boundary
    assert (mesh.n_vertices, mesh.n_tets, mesh.n_edges, mesh.n_faces) == (4, 1, 6, 4)
    assert np.array_equal(mesh.boundary_edges, np.arange(6))
    assert np.array_equal(mesh.boundary_faces, np.arange(4))
    jac, origin, det, inv = all_affine_data(mesh)
    assert np.allclose(jac[0], np.eye(3))
    assert np.allclose(origin[0], 0.0)
    assert det[0] == pytest.approx(1.0)
    assert np.allclose(inv[0], np.eye(3))


def test_element_map_scaling_and_interpolation(rng):
    verts = 2.0 * REF_VERTICES
    mesh = TetMesh(verts, np.array([[0, 1, 2, 3]]))
    assert all_affine_data(mesh)[2][0] == pytest.approx(8.0)

    mesh = TetMesh(random_tet(rng), np.array([[0, 1, 2, 3]]))
    geo = QuadGeometry.affine(point_rule(REF_VERTICES), *all_affine_data(mesh))
    assert np.abs(geo.points[0] - mesh.vertices[mesh.tets[0]]).max() <= 1e-14


def test_element_map_det_is_six_volumes():
    # against the triple product of the edges from corner 0
    m = structured_cube_mesh(2)
    det = all_affine_data(m)[2]
    for e in (0, 7, 31):
        p0, p1, p2, p3 = m.vertices[m.tets[e]]
        volume = np.dot(p1 - p0, np.cross(p2 - p0, p3 - p0)) / 6.0
        assert abs(det[e]) == pytest.approx(6.0 * abs(volume), rel=1e-13)


def test_degenerate_tet_rejected():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 0.0]])
    with pytest.raises(ValueError):
        TetMesh(verts, np.array([[0, 1, 2, 3]]))


def test_sliver_rejected_relative_to_size():
    # unit-size tet of volume 1.7e-15: far above any absolute cutoff, but
    # |volume| / diameter^3 is 5e-16 (a Kuhn tet has 0.032)
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0.5, 0.5, 1e-14]])
    with pytest.raises(ValueError, match="degenerate"):
        TetMesh(verts, np.array([[0, 1, 2, 3]]))
    TetMesh(1e-6 * REF_VERTICES, np.array([[0, 1, 2, 3]]))   # small is not degenerate


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(value):
    verts = REF_VERTICES.copy()
    verts[2, 1] = value                    # NaN also passes the degeneracy test, being no volume <= 0
    with pytest.raises(ValueError, match=r"mesh vertex 2 is not finite: \[0\.0, (nan|-?inf), 0\.0\]"):
        TetMesh(verts, np.array([[0, 1, 2, 3]]))


def test_negative_vertex_id_rejected():
    # -1 would wrap round to vertex 3 and make the same valid tet
    with pytest.raises(ValueError, match=r"mesh tet 1 has a vertex id outside 0\.\.4: \[0, 1, 2, -1\]"):
        TetMesh(np.vstack([REF_VERTICES, [1.0, 1.0, 1.0]]), np.array([[0, 1, 2, 3], [0, 1, 2, -1]]))


def test_fractional_vertex_id_rejected():
    # a cast to int64 alone would truncate 3.7 to 3 and make the reference tet
    with pytest.raises(ValueError, match=r"mesh tet 0 has a vertex id that is not an integer: \[0\.0, 1\.0, 2\.0, 3\.7\]"):
        TetMesh(REF_VERTICES, [[0, 1, 2, 3.7]])


def test_vertex_id_past_the_last_rejected():
    with pytest.raises(ValueError, match=r"mesh tet 0 has a vertex id outside 0\.\.3: \[0, 1, 2, 4\]"):
        TetMesh(REF_VERTICES, np.array([[0, 1, 2, 4]]))


def test_tet_of_three_ids_rejected():
    with pytest.raises(ValueError, match=r"mesh needs \(nv, 3\) vertices and \(nt, 4\) tets, got \(4, 3\) and \(1, 3\)"):
        TetMesh(REF_VERTICES, np.array([[0, 1, 2]]))


def test_planar_vertices_rejected():
    with pytest.raises(ValueError, match=r"mesh needs \(nv, 3\) vertices and \(nt, 4\) tets, got \(4, 2\) and \(1, 4\)"):
        TetMesh(REF_VERTICES[:, :2], np.array([[0, 1, 2, 3]]))


def test_mesh_leaves_caller_arrays_writeable():
    verts, tets = REF_VERTICES.copy(), np.array([[0, 1, 2, 3]])
    mesh = TetMesh(verts, tets)
    assert verts.flags.writeable and tets.flags.writeable
    assert not mesh.vertices.flags.writeable and not mesh.tets.flags.writeable
    verts[0, 0] = 5.0
    assert mesh.vertices[0, 0] == 0.0


def test_negative_orientation_fixed_on_load():
    verts = REF_VERTICES.copy()
    mesh = TetMesh(verts, np.array([[0, 2, 1, 3]]))   # negatively oriented input
    assert volumes(mesh)[0] > 0


def _affine_controls(verts):
    ctrl = [v for v in verts]
    for a, b in LOCAL_EDGES:
        ctrl.append((verts[a] + verts[b]) / 2.0)
    return np.array(ctrl)


def test_curved_map_midpoints_give_affine():
    ctrl = _affine_controls(REF_VERTICES * 1.3 + 0.2)
    cmap = CurvedMap(ctrl)
    pts = np.array([[0.1, 0.2, 0.3], [0.25, 0.25, 0.25], [0.0, 0.0, 0.0]])
    J = cmap.jacobian(pts)
    assert np.abs(J - J[0]).max() <= 1e-13
    assert np.allclose(J[0], 1.3 * np.eye(3))


def test_curved_map_displaced_node_det_linear_along_edge():
    ctrl = _affine_controls(REF_VERTICES)
    ctrl[4 + 0] = ctrl[4 + 0] + np.array([0.0, 0.0, 0.08])   # displace (0,1) mid-edge
    cmap = CurvedMap(ctrl)
    s = np.linspace(0.05, 0.95, 9)
    pts = np.column_stack([s, np.zeros_like(s), np.zeros_like(s)])
    det = cmap.det_at(pts)
    coeffs = np.polyfit(s, det, 1)
    assert np.abs(np.polyval(coeffs, s) - det).max() <= 1e-12


def test_curved_map_rejects_inverted_configuration():
    ctrl = _affine_controls(REF_VERTICES)
    ctrl[4 + 0] = np.array([3.0, -2.0, 0.0])
    with pytest.raises(ValueError):
        CurvedMap(ctrl)


def test_curved_map_rejects_non_finite_control_net():
    # NaN Jacobians pass the sampled det > 0 test, being no det <= 0
    with pytest.raises(ValueError, match=r"curved map control point 0 is not finite: \[nan, nan, nan\]"):
        CurvedMap(np.full((10, 3), np.nan))
    ctrl = _affine_controls(REF_VERTICES)
    ctrl[7, 2] = np.inf
    with pytest.raises(ValueError, match=r"curved map control point 7 is not finite"):
        CurvedMap(ctrl)


def test_quasi_uniformity_of_structured_family():
    # shape regularity: the largest tet diameter over insphere diameter
    def regularity(mesh):
        corners = mesh.vertices[mesh.tets]
        diam = np.linalg.norm(corners[:, :, None] - corners[:, None], axis=-1).max(axis=(1, 2))
        areas = sum(0.5 * np.linalg.norm(np.cross(corners[:, b] - corners[:, a], corners[:, c] - corners[:, a]), axis=1)
                    for a, b, c in LOCAL_FACES)
        return (diam * areas / (6.0 * np.abs(volumes(mesh)))).max()

    ratios = [regularity(structured_cube_mesh(n)) for n in (1, 2, 3)]
    assert max(ratios) - min(ratios) <= 1e-12


def test_mesh_arrays_immutable():
    m = structured_cube_mesh(1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.edges[0, 0] = 5
