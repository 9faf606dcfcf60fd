"""Tetrahedral meshes, element maps and mesh metrics.

Meshes are immutable after construction: the edge/face tables, boundary sets
and size metrics are derived once.  Vertex order inside each tet is whatever
makes the signed volume positive; all global conventions (edge directions,
face frames) are derived from global vertex ids, never from local order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations

import numpy as np

from .quadrature import RefQuadratureRule
from .reference_element import LOCAL_EDGES, LOCAL_FACES

__all__ = [
    "TetMesh",
    "CurvedMap",
    "QuadGeometry",
    "structured_cube_mesh",
    "read_gmsh",
    "write_gmsh",
]


# 10-node quadratic Lagrange tet: 4 vertices then LOCAL_EDGES midpoints.
_Q2_NODES = 4 + len(LOCAL_EDGES)


def _q2_shape(pts):
    """Quadratic Lagrange shape functions, (N, 10)."""
    pts = np.atleast_2d(pts)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts[:, 0], pts[:, 1], pts[:, 2]])
    cols = [lam[:, i] * (2.0 * lam[:, i] - 1.0) for i in range(4)]
    cols += [4.0 * lam[:, a] * lam[:, b] for a, b in LOCAL_EDGES]
    return np.column_stack(cols)


def _q2_shape_grad(pts):
    """Gradients of the quadratic shape functions, (N, 10, 3)."""
    pts = np.atleast_2d(pts)
    lam = np.column_stack([1.0 - pts.sum(axis=1), pts[:, 0], pts[:, 1], pts[:, 2]])
    glam = np.array([[-1.0, -1.0, -1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    n = len(pts)
    out = np.zeros((n, _Q2_NODES, 3))
    for i in range(4):
        out[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * glam[i]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        out[:, 4 + k, :] = 4.0 * (lam[:, a][:, None] * glam[b] + lam[:, b][:, None] * glam[a])
    return out


def _lattice_points(degree):
    pts = []
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            for k in range(degree + 1 - i - j):
                pts.append((i / degree, j / degree, k / degree))
    return np.array(pts)


@dataclass(frozen=True)
class CurvedMap:
    """Degree-2 Lagrange map from the reference tet (10 control points)."""

    control_points: np.ndarray   # (10, 3)

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        if cp.shape != (_Q2_NODES, 3):
            raise ValueError("curved maps are degree 2 with 10 control points")
        object.__setattr__(self, "control_points", cp)
        sample = np.vstack([_lattice_points(3), [[0.25, 0.25, 0.25]]])
        if np.any(self.det_at(sample) <= 0.0):
            raise ValueError("curved map has non-positive Jacobian on the sampling grid")

    def apply(self, pts):
        return _q2_shape(pts) @ self.control_points

    def jacobian(self, pts):
        g = _q2_shape_grad(pts)                       # (N, 10, 3)
        return np.einsum("nkq,kp->npq", g, self.control_points)

    def det_at(self, pts):
        return np.linalg.det(self.jacobian(pts))


@dataclass(frozen=True)
class TetMesh:
    """An immutable tetrahedral mesh with derived topology."""

    vertices: np.ndarray     # (nv, 3)
    tets: np.ndarray         # (nt, 4) vertex ids, positively oriented

    def __post_init__(self):
        # copies, so freezing them leaves the caller's arrays writeable
        verts = np.array(self.vertices, dtype=float, order="C")
        tets = np.array(self.tets, dtype=np.int64, order="C")
        if len(tets) == 0:
            raise ValueError("mesh contains no tetrahedra")
        corners = verts[tets]
        diam = np.sqrt(((corners[:, :, None] - corners[:, None]) ** 2).sum(-1)).max(axis=(1, 2))
        vols = _signed_volumes(verts, tets)
        if np.any(np.abs(vols) <= 1e-12 * diam ** 3):
            raise ValueError("mesh contains a degenerate tetrahedron (|volume| <= 1e-12 diameter^3)")
        rows = np.flatnonzero(vols < 0.0)
        tets[rows, 2], tets[rows, 3] = tets[rows, 3].copy(), tets[rows, 2].copy()
        verts.flags.writeable = False
        tets.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "tets", tets)
        self._build_topology()
        object.__setattr__(self, "h", float(diam.max()))

    def _build_topology(self):
        tets, nv = self.tets, self.n_vertices
        nt = len(tets)

        edges, tet2edge = _unique_rows(np.sort(tets[:, LOCAL_EDGES], axis=2).reshape(-1, 2), nv)
        tet2edge = tet2edge.reshape(nt, 6)
        faces, tet2face = _unique_rows(np.sort(tets[:, LOCAL_FACES], axis=2).reshape(-1, 3), nv)
        tet2face = tet2face.reshape(nt, 4)

        counts = np.bincount(tet2face.ravel(), minlength=len(faces))
        if counts.max() > 2:
            raise ValueError("non-manifold mesh: a face is shared by more than two tets")
        boundary_faces = np.flatnonzero(counts == 1)

        bf = faces[boundary_faces]
        bedge_rows = np.sort(bf[:, [(0, 1), (0, 2), (1, 2)]], axis=2).reshape(-1, 2)
        boundary_edges = np.searchsorted(_row_keys(edges, nv), np.unique(_row_keys(bedge_rows, nv)))

        for name, value in [
            ("edges", edges), ("faces", faces),
            ("tet2edge", tet2edge), ("tet2face", tet2face),
            ("boundary_faces", boundary_faces), ("boundary_edges", boundary_edges),
        ]:
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_faces(self):
        return len(self.faces)

    @cached_property
    def volumes(self):
        return _signed_volumes(self.vertices, self.tets)


def _row_keys(rows, nv):
    """One int64 per row of vertex ids below ``nv``, increasing in the rows' lexicographic order."""
    if nv ** rows.shape[1] - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many for int64 keys of {rows.shape[1]} vertex ids")
    keys = rows[:, 0]
    for col in rows.T[1:]:
        keys = keys * nv + col
    return keys


def _unique_rows(rows, nv):
    """The distinct rows in lexicographic order, and the index of each row among them."""
    _, first, inverse = np.unique(_row_keys(rows, nv), return_index=True, return_inverse=True)
    return rows[first], inverse


def _signed_volumes(verts, tets):
    d = verts[tets[:, 1:]] - verts[tets[:, :1]]
    return np.linalg.det(d) / 6.0


def all_affine_data(mesh: TetMesh):
    """Vectorized Jacobian data for every element: (J, origin, det, Jinv)."""
    v = mesh.vertices[mesh.tets]
    jac = np.swapaxes(v[:, 1:] - v[:, :1], 1, 2)      # (nt, 3, 3), columns = edges
    det = np.linalg.det(jac)
    inv = np.linalg.inv(jac)
    return jac, v[:, 0], det, inv


@dataclass(frozen=True)
class QuadGeometry:
    """A reference rule mapped to a batch of E elements, and the one place
    that pushes reference shape data to physical elements.

    ``points`` (E, L, 3) and ``weights`` (E, L) = |det J| w are the physical
    rule.  ``jac``, ``inv`` and ``det`` have a point axis of length 1 on
    straight elements (one Jacobian per element, broadcast over the points)
    and of length L on curved ones (one Jacobian per rule point).
    """

    rule: RefQuadratureRule
    points: np.ndarray
    weights: np.ndarray
    jac: np.ndarray       # (E, 1 or L, 3, 3)
    inv: np.ndarray       # (E, 1 or L, 3, 3)
    det: np.ndarray       # (E, 1 or L)

    @classmethod
    def affine(cls, rule: RefQuadratureRule, jac, origin, det, inv) -> "QuadGeometry":
        """Straight elements, from (slices of) the arrays of :func:`all_affine_data`."""
        points = origin[:, None, :] + rule.points @ np.swapaxes(jac, 1, 2)
        weights = np.abs(det)[:, None] * rule.weights[None, :]
        return cls(rule, points, weights, jac[:, None], inv[:, None], det[:, None])

    @classmethod
    def curved(cls, rule: RefQuadratureRule, cmap: CurvedMap) -> "QuadGeometry":
        """One curved element; det J must be positive at every rule point."""
        jac = cmap.jacobian(rule.points)
        det = np.linalg.det(jac)
        if np.any(det <= 0.0) or not np.all(np.isfinite(det)):
            raise ValueError("curved map has non-positive Jacobian determinant at a rule point")
        return cls(rule, cmap.apply(rule.points)[None], (det * rule.weights)[None],
                   jac[None], np.linalg.inv(jac)[None], det[None])

    def covariant(self, x):
        """Push reference values x, any (E or 1, L, ..., 3) array: x J^-1."""
        return self._times(x, self.inv)

    def contravariant(self, x):
        """Push reference curls x, any (E or 1, L, ..., 3) array: x J^T / det J."""
        return self._times(x, np.swapaxes(self.jac, 2, 3) / self.det[:, :, None, None])

    @staticmethod
    def _times(x, mats):
        """x times mats (E, 1 or L, 3, 3): one product per element on straight
        elements, one per point on curved ones."""
        out = x.reshape(x.shape[0], mats.shape[1], -1, 3) @ mats.astype(x.dtype, copy=False)
        return out.reshape(out.shape[:1] + x.shape[1:])


def structured_cube_mesh(n: int) -> TetMesh:
    """Kuhn split of [-1, 1]^3 into 6 n^3 tets with a consistent diagonal.

    Each cell's six tets are the chains from the low corner to the high
    corner along the axis permutations, so neighbouring cells agree on every
    face diagonal and the mesh is conforming.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coords = np.linspace(-1.0, 1.0, n + 1)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    vertices = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])

    # (6, 4, 3) corner offsets of the six chains, then the (n^3, 6, 4, 3) corners of every cell's chains
    unit = np.eye(3, dtype=np.int64)
    steps = np.array([[0 * unit[a], unit[a], unit[a] + unit[b], unit[a] + unit[b] + unit[c]]
                      for a, b, c in permutations((0, 1, 2))])
    cells = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"), axis=-1).reshape(-1, 1, 1, 3)
    tets = (cells + steps) @ np.array([(n + 1) ** 2, n + 1, 1])      # vertex id of corner (i, j, k)
    return TetMesh(vertices, tets.reshape(-1, 4))


# -- Gmsh MSH 2.2 ASCII ---------------------------------------------------------

def write_gmsh(mesh: TetMesh, path):
    """Write the mesh as MSH ASCII v2.2 (4-node tets, 1-based ids)."""
    with open(path, "w") as fh:
        fh.write("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n")
        fh.write(f"$Nodes\n{mesh.n_vertices}\n")
        for i, (x, y, z) in enumerate(mesh.vertices, start=1):
            fh.write(f"{i} {x:.17g} {y:.17g} {z:.17g}\n")
        fh.write("$EndNodes\n")
        fh.write(f"$Elements\n{mesh.n_tets}\n")
        for i, tet in enumerate(mesh.tets, start=1):
            a, b, c, d = (tet + 1).tolist()
            fh.write(f"{i} 4 2 0 1 {a} {b} {c} {d}\n")
        fh.write("$EndElements\n")


def read_gmsh(path) -> TetMesh:
    """Read an MSH ASCII v2.2 file; elements other than 4-node tets are skipped.  Malformed
    input raises a ValueError that names its 1-based line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    pos = 0
    nodes = {}
    tets = []

    def expect(header):
        nonlocal pos
        if pos >= len(lines) or lines[pos] != header:
            found = lines[pos] if pos < len(lines) else "<eof>"
            raise ValueError(f"line {pos + 1}: malformed section header: expected {header!r}, found {found!r}")
        pos += 1

    def take(what):
        """The fields of the next line, which must hold ``what`` and not end the section."""
        nonlocal pos
        if pos >= len(lines) or not lines[pos] or lines[pos].startswith("$"):
            found = lines[pos] if pos < len(lines) else "<eof>"
            raise ValueError(f"line {pos + 1}: expected {what}, found {found!r}")
        pos += 1
        return lines[pos - 1].split()

    expect("$MeshFormat")
    version = take("the MSH version")[0]
    if not version.startswith("2."):
        raise ValueError(f"unsupported MSH version {version!r} (need ASCII v2.x)")
    expect("$EndMeshFormat")

    expect("$Nodes")
    n_nodes = int(take("the node count")[0])
    for i in range(n_nodes):
        parts = take(f"node {i + 1} of {n_nodes}")
        if len(parts) != 4:
            raise ValueError(f"line {pos}: a node row has 4 fields (id x y z), found {len(parts)}")
        if int(parts[0]) in nodes:
            raise ValueError(f"line {pos}: node {parts[0]} is defined twice")
        nodes[int(parts[0])] = [float(p) for p in parts[1:]]
    expect("$EndNodes")

    expect("$Elements")
    n_elems = int(take("the element count")[0])
    for i in range(n_elems):
        parts = take(f"element {i + 1} of {n_elems}")
        if len(parts) < 3 or len(parts) < 3 + int(parts[2]):
            raise ValueError(f"line {pos}: an element row has an id, a type, a tag count and its tags")
        if int(parts[1]) != 4:
            continue
        conn = [int(p) for p in parts[3 + int(parts[2]):]]
        if len(conn) != 4:
            raise ValueError(f"line {pos}: 4-node tetrahedron with wrong connectivity length")
        for v in conn:
            if v not in nodes:
                raise ValueError(f"line {pos}: element {parts[0]} references undefined node {v}")
        tets.append(conn)
    expect("$EndElements")

    if not tets:
        raise ValueError("MSH file contains no 4-node tetrahedra")
    ids = sorted(nodes)
    remap = {gid: i for i, gid in enumerate(ids)}
    vertices = np.array([nodes[g] for g in ids])
    tet_arr = np.array([[remap[v] for v in t] for t in tets], dtype=np.int64)
    return TetMesh(vertices, tet_arr)
