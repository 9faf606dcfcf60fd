from itertools import permutations

import numpy as np
import pytest
from scipy.special import roots_legendre

from edgefem.analysis import shrunk_quadratic_map
from edgefem.assembly import _orientation_transforms
from edgefem.mesh import QuadGeometry, TetMesh, all_affine_data
from edgefem.reference_element import (
    LOCAL_EDGES,
    LOCAL_FACES,
    RANKINGS,
    REF_VERTICES,
    curl_basis,
    dof_values,
    orientation_table,
)

from conftest import fd_curl, point_rule, random_tet, tet_geometry

LAM_GRADS = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def dof_entities(order):
    """(kind, local entity, moment) of each local dof, in the layout of ``dof_values``."""
    edges = [("edge", e, m) for e in range(len(LOCAL_EDGES)) for m in range(order)]
    faces = [("face", f, m) for f in range(len(LOCAL_FACES)) for m in range(2)]
    return edges + faces if order == 2 else edges


def whitney(a, b, p):
    lam = np.array([1.0 - p.sum(), p[0], p[1], p[2]])
    return lam[a] * LAM_GRADS[b] - lam[b] * LAM_GRADS[a]


def edge_moment(vecfun, a, b, npts=12):
    # independent Gauss-Legendre implementation of the tangential edge moment
    x, w = roots_legendre(npts)
    s, w = (x + 1.0) / 2.0, w / 2.0
    d = REF_VERTICES[b] - REF_VERTICES[a]
    pts = REF_VERTICES[a] + np.outer(s, d)
    return float(np.dot(w, np.asarray([vecfun(p) for p in pts]) @ d))


def test_whitney_values_at_vertex_and_interior():
    basis = curl_basis(1)
    assert basis.n_dofs == 6
    for point in (np.zeros(3), np.array([0.17, 0.21, 0.33]), np.array([0.25, 0.25, 0.25])):
        table = basis.eval_many(point[None])[0]
        hand = np.array([whitney(a, b, point) for a, b in LOCAL_EDGES])
        assert np.abs(table - hand).max() <= 1e-12


def test_whitney_edge_duality():
    basis = curl_basis(1)
    for i in range(6):
        for j in range(6):
            a, b = LOCAL_EDGES[i]
            val = edge_moment(lambda p: basis.eval_many(p[None])[0, j], a, b)
            assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_order2_dof_count():
    basis = curl_basis(2)
    assert basis.n_dofs == 20 == 6 * 2 + 4 * 2
    kinds = [ent[0] for ent in dof_entities(2)]
    assert kinds.count("edge") == 12 and kinds.count("face") == 8
    no_faces = np.empty((0, 3), dtype=int)
    assert dof_values(basis.eval_many, 2, REF_VERTICES, LOCAL_EDGES, no_faces).shape == (12, 20)
    assert dof_values(basis.eval_many, 2, REF_VERTICES, LOCAL_EDGES, LOCAL_FACES).shape == (20, 20)


def test_whitney_curls_constant_and_exact():
    basis = curl_basis(1)
    c0 = basis.curl_many(np.zeros((1, 3)))[0]
    c1 = basis.curl_many(np.array([[0.3, 0.1, 0.4]]))[0]
    assert np.abs(c0 - c1).max() == 0.0
    hand = np.array([2.0 * np.cross(LAM_GRADS[a], LAM_GRADS[b]) for a, b in LOCAL_EDGES])
    assert np.abs(c0 - hand).max() <= 1e-12


def test_order2_curls_are_divergence_free():
    basis = curl_basis(2)
    pts = np.array([[0.2, 0.2, 0.2], [0.1, 0.3, 0.25], [0.4, 0.15, 0.2]])
    eps = 1e-5
    for p in pts:
        div = np.zeros(basis.n_dofs)
        for j in range(3):
            step = np.zeros(3)
            step[j] = eps
            div += (basis.curl_many((p + step)[None])[0, :, j]
                    - basis.curl_many((p - step)[None])[0, :, j]) / (2 * eps)
        assert np.abs(div).max() <= 1e-6


def test_piola_identity_and_scaling():
    basis = curl_basis(1)
    p = np.array([[0.2, 0.3, 0.1]])
    vals, curls = basis.eval_many(p)[None], basis.curl_many(p)[None]
    tet = np.array([[0, 1, 2, 3]])

    ident = tet_geometry(TetMesh(REF_VERTICES.copy(), tet), [0], point_rule(p))
    pv, pc = ident.covariant(vals), ident.contravariant(curls)
    assert np.abs(pv - vals).max() == 0.0 and np.abs(pc - curls).max() == 0.0

    s = 3.0
    scale = tet_geometry(TetMesh(s * REF_VERTICES, tet), [0], point_rule(p))
    pv, pc = scale.covariant(vals), scale.contravariant(curls)
    assert np.abs(pv - vals / s).max() <= 1e-14
    assert np.abs(pc - curls / s ** 2).max() <= 1e-14


@pytest.mark.parametrize("order", [1, 2])
def test_piola_curl_commutes_with_fd_oracle(order, rng):
    # the pushed curl must equal the finite-difference curl of the pushed values
    basis = curl_basis(order)
    mesh = TetMesh(random_tet(rng), np.array([[0, 1, 2, 3]]))
    _, origin, _, inv = (a[0] for a in all_affine_data(mesh))

    def pushed_values(phys_pts):
        ref = (np.atleast_2d(phys_pts) - origin) @ inv.T
        vals = basis.eval_many(ref)
        return np.einsum("nmc,cp->nmp", vals, inv)

    ref_pts = np.array([[0.25, 0.25, 0.2], [0.3, 0.2, 0.3]])
    geo = tet_geometry(mesh, [0], point_rule(ref_pts))
    pc = geo.contravariant(basis.curl_many(ref_pts)[None])[0]
    for m in range(basis.n_dofs):
        fd = fd_curl(lambda q, m=m: pushed_values(q)[:, m, :], geo.points[0])
        assert np.abs(fd.real - pc[:, m, :]).max() <= 1e-5


def test_curved_piola_curl_commutes_with_fd_oracle():
    # the same oracle on a curved element, where J varies from point to point
    basis = curl_basis(2)
    cmap = shrunk_quadratic_map(1.0)

    def pushed_values(phys_pts):
        ref = np.full((len(phys_pts), 3), 0.25)
        for _ in range(30):                 # invert the map by Newton's method
            step = np.linalg.solve(cmap.jacobian(ref), (cmap.apply(ref) - phys_pts)[..., None])
            ref = ref - step[..., 0]
        return np.einsum("nmc,ncp->nmp", basis.eval_many(ref), np.linalg.inv(cmap.jacobian(ref)))

    ref_pts = np.array([[0.25, 0.25, 0.2], [0.3, 0.2, 0.3], [0.1, 0.6, 0.2]])
    geo = QuadGeometry.curved(point_rule(ref_pts), cmap)
    pc = geo.contravariant(basis.curl_many(ref_pts)[None])[0]
    for m in range(basis.n_dofs):
        fd = fd_curl(lambda q, m=m: pushed_values(q)[:, m, :], geo.points[0])
        assert np.abs(fd.real - pc[:, m, :]).max() <= 1e-5


def test_orientation_transforms_examples():
    tet = np.array([[0, 1, 2, 3]])
    for order in (1, 2):
        # local order already ascending in the global ids: no change of frame
        ranking = _orientation_transforms(TetMesh(REF_VERTICES, tet))
        assert np.array_equal(orientation_table(order)[ranking[0]], np.eye(curl_basis(order).n_dofs))
    # descending ids reverse every edge; the same corners stay positively oriented
    mesh = TetMesh(REF_VERTICES[::-1], tet[:, ::-1])
    assert np.array_equal(mesh.tets[0], [3, 2, 1, 0])
    assert np.array_equal(orientation_table(1)[_orientation_transforms(mesh)[0]], -np.eye(6))


def test_orientation_lookup_matches_argsort_ranking():
    # one tet per vertex order: tet k's corner i has id 4 k + perm[i], on positively oriented corners
    perms = np.array(RANKINGS)
    tets = 4 * np.arange(len(perms))[:, None] + perms
    verts = np.empty((tets.size, 3))
    verts[tets.ravel()] = np.tile(REF_VERTICES, (len(perms), 1)) + np.repeat(2.0 * np.arange(len(perms)), 4)[:, None]
    mesh = TetMesh(verts, tets)
    assert np.array_equal(mesh.tets, tets)
    ranks = np.argsort(np.argsort(mesh.tets, axis=1), axis=1)
    index = np.triu(ranks[:, :, None] > ranks[:, None, :], 1).sum(axis=2) @ np.array([6, 2, 1, 0])
    assert index.tolist() == [RANKINGS.index(tuple(r)) for r in ranks.tolist()] == list(range(24))
    ranking = _orientation_transforms(mesh)
    assert ranking.dtype == np.uint8 and np.array_equal(ranking, index)


@pytest.mark.parametrize("order", [1, 2])
def test_orientation_table_entries_are_unimodular(order):
    table = orientation_table(order)
    assert table.shape == (24, curl_basis(order).n_dofs, curl_basis(order).n_dofs)
    for X in table:
        assert np.array_equal(X, np.rint(X))
        assert abs(np.linalg.det(X)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2])
def test_orientation_table_inverts_each_rankings_functionals(order):
    # entry r undoes the functionals of the reference entities listed in the ascending order of
    # RANKINGS[r], each ranking's own dof_values call, exactly
    table, basis = orientation_table(order), curl_basis(order)
    for r, rank in enumerate(RANKINGS):
        edges, faces = ([sorted(e, key=rank.__getitem__) for e in ents] for ents in (LOCAL_EDGES, LOCAL_FACES))
        C = np.rint(dof_values(basis.eval_many, order, REF_VERTICES, edges, faces))
        assert np.array_equal(C @ table[r], np.eye(basis.n_dofs))
        assert np.array_equal(table[r], np.linalg.inv(C))


def _pushed_values(mesh, tet, basis, phys_pts):
    _, origin, _, inv = all_affine_data(mesh)
    ref = (phys_pts - origin[tet]) @ inv[tet].T
    geo = tet_geometry(mesh, [tet], point_rule(ref))
    return geo.covariant(basis.eval_many(ref)[None])[0]


def _global_basis_at(mesh, tet, basis, phys_pts):
    X = orientation_table(basis.order)[_orientation_transforms(mesh)[tet]]
    return np.einsum("nmc,md->ndc", _pushed_values(mesh, tet, basis, phys_pts), X)


def _global_entities(mesh, tet, basis):
    gids = mesh.tets[tet]
    ents = []
    for kind, idx, mom in dof_entities(basis.order):
        local = LOCAL_EDGES[idx] if kind == "edge" else LOCAL_FACES[idx]
        ents.append((kind, tuple(sorted(gids[list(local)])), mom))
    return ents


def test_shared_edge_tangential_direction():
    # two tets sharing edge {2, 3}, whose local orders list it as 2 -> 3 and
    # 3 -> 2, assign the shared dof the same 2 -> 3 tangential moment:
    # brute-force continuity along the edge
    verts = np.array([[0.2, 1.0, 0.1], [0.1, 0.2, 1.1], [0.0, 0.0, 0.0],
                      [1.0, 0.1, 0.0], [1.0, 1.0, 1.0]])
    mesh = TetMesh(verts, np.array([[2, 3, 0, 1], [3, 2, 4, 1]]))
    basis = curl_basis(1)
    t = verts[3] - verts[2]
    pts = verts[2] + np.outer(np.linspace(0.1, 0.9, 7), t)

    tangentials = []
    for tet in (0, 1):
        shared = _global_entities(mesh, tet, basis).index(("edge", (2, 3), 0))
        tangentials.append(_global_basis_at(mesh, tet, basis, pts)[:, shared, :] @ t)
    assert np.abs(tangentials[0] - tangentials[1]).max() <= 1e-12


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("perm", list(permutations(range(4))))
def test_conformity_across_shared_face(order, perm, rng):
    # corner i gets id ids[i], so the first tet's ids rank as perm: every entry
    # of the orientation table meets the tangential-jump oracle.  The second
    # tet lists the shared face's corners in another local order.
    corners = np.array([[0.0, 0.0, 0.0], [1.1, 0.0, 0.0], [0.1, 1.2, 0.0],
                        [0.2, 0.1, 1.3], [1.0, 1.0, 1.0]])
    ids = np.array(perm + (4,))
    verts = np.empty_like(corners)
    verts[ids] = corners
    mesh = TetMesh(verts, np.array([ids[:4], ids[[3, 1, 4, 2]]]))
    assert np.array_equal(np.argsort(np.argsort(mesh.tets[0])), perm)
    basis = curl_basis(order)

    shared = set(map(tuple, np.sort(mesh.tets[0][list(LOCAL_FACES)], axis=1).tolist()))
    shared &= set(map(tuple, np.sort(mesh.tets[1][list(LOCAL_FACES)], axis=1).tolist()))
    fverts = list(shared.pop())
    p0, p1, p2 = mesh.vertices[fverts]
    nrm = np.cross(p1 - p0, p2 - p0)
    nrm /= np.linalg.norm(nrm)

    uv = rng.random((10, 2))
    uv = np.where(uv.sum(axis=1, keepdims=True) > 1.0, 1.0 - uv, uv)
    pts = p0 + uv[:, :1] * (p1 - p0) + uv[:, 1:] * (p2 - p0)

    ga = _global_basis_at(mesh, 0, basis, pts)
    gb = _global_basis_at(mesh, 1, basis, pts)
    ents_a = _global_entities(mesh, 0, basis)
    ents_b = _global_entities(mesh, 1, basis)
    pairs = [(i, ents_b.index(e)) for i, e in enumerate(ents_a) if e in ents_b]
    assert pairs
    for ia, ib in pairs:
        jump = ga[:, ia, :] - gb[:, ib, :]
        tang = jump - (jump @ nrm)[:, None] * nrm
        assert np.abs(tang).max() <= 1e-10


def test_unisolvence():
    for order, tol in ((1, 1e-12), (2, 1e-11)):
        basis = curl_basis(order)
        n = basis.n_dofs
        dof_mat = dof_values(basis.eval_many, order, REF_VERTICES, LOCAL_EDGES, LOCAL_FACES)
        assert np.abs(dof_mat - np.eye(n)).max() <= tol
        assert basis.generator_condition < 1e3


def test_gradient_inclusion():
    # gradients of the four hat functions lie in the Whitney span
    basis = curl_basis(1)
    pts = np.random.default_rng(3).random((30, 3)) * 0.3
    table = basis.eval_many(pts)                      # (N, 6, 3)
    A = np.transpose(table, (0, 2, 1)).reshape(-1, 6)
    for v in range(4):
        target = np.tile(LAM_GRADS[v], (len(pts), 1)).reshape(-1)
        coef, res, *_ = np.linalg.lstsq(A, target, rcond=None)
        resid = np.linalg.norm(A @ coef - target)
        assert resid <= 1e-12
