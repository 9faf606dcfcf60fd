import re
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgefem.analysis import shrunk_quadratic_map
from edgefem.mesh import (
    CurvedMap,
    QuadGeometry,
    TetMesh,
    _row_keys,
    all_affine_data,
    read_gmsh,
    structured_cube_mesh,
    write_gmsh,
)
from edgefem.quadrature import builtin_rule
from edgefem.reference_element import LOCAL_EDGES, LOCAL_FACES, REF_VERTICES

from conftest import point_rule, random_tet, tet_geometry


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
        mesh = structured_cube_mesh(n)
        assert mesh.volumes.sum() == pytest.approx(8.0, abs=1e-12)
        assert mesh.volumes.min() > 0


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


def test_row_keys_refuse_int64_overflow():
    rows = np.array([[0, 1, 2]])
    assert _row_keys(rows, 2 ** 21)[0] == 2 ** 21 + 2
    with pytest.raises(ValueError, match="too many for int64 keys"):
        _row_keys(rows, 2 ** 21 + 1)


def _per_point_push(x, mats):
    """x (E or 1, L, m, 3) times mats (E, 1 or L, 3, 3), one vector at a time."""
    out = np.empty((len(mats),) + x.shape[1:], dtype=np.result_type(x, mats))
    for e, l, i in np.ndindex(out.shape[:3]):
        out[e, l, i] = x[min(e, len(x) - 1), l, i] @ mats[e, min(l, mats.shape[1] - 1)]
    return out


@pytest.mark.parametrize("branch", ["straight", "curved"])
def test_pushes_match_per_point_loop(rng, branch):
    rule = builtin_rule("pt5")
    if branch == "straight":
        geo = tet_geometry(structured_cube_mesh(1), np.arange(6), rule)
    else:
        geo = QuadGeometry.curved(rule, shrunk_quadratic_map(0.5))
    det = geo.det[:, :, None, None]
    for lead in (1, len(geo.det)):
        x = rng.standard_normal((lead, rule.npoints, 4, 3)) + 1j * rng.standard_normal((lead, rule.npoints, 4, 3))
        for pushed, expected in ((geo.covariant(x), _per_point_push(x, geo.inv)),
                                 (geo.contravariant(x), _per_point_push(x, np.swapaxes(geo.jac, 2, 3)) / det)):
            assert np.abs(pushed - expected).max() <= 1e-14 * np.abs(expected).max()


def test_element_map_reference_tet():
    mesh = TetMesh(REF_VERTICES.copy(), np.array([[0, 1, 2, 3]]))
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
    m = structured_cube_mesh(2)
    det = all_affine_data(m)[2]
    for e in (0, 7, 31):
        assert abs(det[e]) == pytest.approx(6.0 * abs(m.volumes[e]), rel=1e-13)


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
    assert mesh.volumes[0] > 0


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


def test_quasi_uniformity_of_structured_family():
    # shape regularity: the largest tet diameter over insphere diameter
    def regularity(mesh):
        corners = mesh.vertices[mesh.tets]
        diam = np.linalg.norm(corners[:, :, None] - corners[:, None], axis=-1).max(axis=(1, 2))
        areas = sum(0.5 * np.linalg.norm(np.cross(corners[:, b] - corners[:, a], corners[:, c] - corners[:, a]), axis=1)
                    for a, b, c in LOCAL_FACES)
        return (diam * areas / (6.0 * np.abs(mesh.volumes))).max()

    ratios = [regularity(structured_cube_mesh(n)) for n in (1, 2, 3)]
    assert max(ratios) - min(ratios) <= 1e-12


def test_gmsh_single_reference_tet(tmp_path):
    path = tmp_path / "ref.msh"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n$EndNodes\n"
        "$Elements\n2\n1 15 2 0 1 1\n2 4 2 0 1 1 2 3 4\n$EndElements\n"
    )
    mesh = read_gmsh(path)
    assert mesh.n_vertices == 4
    assert mesh.n_tets == 1
    assert mesh.n_edges == 6
    assert set(mesh.boundary_edges.tolist()) == set(range(6))


def test_gmsh_round_trip(tmp_path):
    m = structured_cube_mesh(2)
    path = tmp_path / "cube.msh"
    write_gmsh(m, path)
    m2 = read_gmsh(path)
    assert np.array_equal(m.tets, m2.tets)
    assert np.abs(m.vertices - m2.vertices).max() <= 1e-15
    assert np.array_equal(m.edges, m2.edges)
    assert np.array_equal(m.boundary_faces, m2.boundary_faces)


@settings(max_examples=12, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_gmsh_round_trip_relabelled_jiggled(tmp_path_factory, n, seed):
    # %.17g writes every float exactly, so the mesh and all its topology come back equal
    rng = np.random.default_rng(seed)
    base = structured_cube_mesh(n)
    perm = rng.permutation(base.n_vertices)
    vertices = np.empty_like(base.vertices)
    vertices[perm] = base.vertices + rng.uniform(-0.1, 0.1, base.vertices.shape) / n
    mesh = TetMesh(vertices, perm[base.tets])
    path = tmp_path_factory.mktemp("gmsh") / "mesh.msh"
    write_gmsh(mesh, path)
    back = read_gmsh(path)
    for name in ("vertices", "tets", "edges", "faces", "tet2edge", "tet2face", "boundary_edges", "boundary_faces"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name


def test_gmsh_malformed_section(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodez\n0\n$EndNodes\n")
    with pytest.raises(ValueError, match=r"\$Nodes"):
        read_gmsh(path)


def test_gmsh_no_tets(tmp_path):
    path = tmp_path / "empty.msh"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n1\n1 0 0 0\n$EndNodes\n"
        "$Elements\n1\n1 15 2 0 1 1\n$EndElements\n"
    )
    with pytest.raises(ValueError, match="no 4-node tetrahedra"):
        read_gmsh(path)


def test_gmsh_undefined_node(tmp_path):
    path = tmp_path / "dangling.msh"
    path.write_text(
        "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n$EndNodes\n"
        "$Elements\n1\n7 4 2 0 1 1 2 3 9\n$EndElements\n"
    )
    with pytest.raises(ValueError, match="line 13: element 7 references undefined node 9"):
        read_gmsh(path)


HEAD = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
NODES = "$Nodes\n4\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n$EndNodes\n"


@pytest.mark.parametrize("text, named", [
    (HEAD + "$Nodes\n4\n1 0 0 0\n2 1 0 0\n$EndNodes\n", "line 8: expected node 3 of 4, found '$EndNodes'"),
    (HEAD + "$Nodes\n4\n1 0 0 0\n2 1 0 0\n", "line 8: expected node 3 of 4, found '<eof>'"),
    (HEAD + "$Nodes\n4\n1 0 0 0\n2 1 0\n", "line 7: a node row has 4 fields (id x y z), found 3"),
    (HEAD + "$Nodes\n5\n1 0 0 0\n2 1 0 0\n3 0 1 0\n4 0 0 1\n2 5 5 5\n$EndNodes\n", "line 10: node 2 is defined twice"),
    (HEAD + NODES + "$Elements\n2\n1 4 2 0 1 1 2 3 4\n2 4 9 0 1\n$EndElements\n",
     "line 14: an element row has an id, a type, a tag count and its tags"),
    (HEAD + NODES + "$Elements\n2\n1 4 2 0 1 1 2 3 4\n", "line 14: expected element 2 of 2, found '<eof>'"),
], ids=["nodes-end-early", "file-ends-in-nodes", "node-row-short", "node-repeated", "element-row-short",
        "file-ends-in-elements"])
def test_gmsh_malformed_rows_name_their_line(tmp_path, text, named):
    path = tmp_path / "bad.msh"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(named)):
        read_gmsh(path)


def test_mesh_arrays_immutable():
    m = structured_cube_mesh(1)
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.edges[0, 0] = 5
