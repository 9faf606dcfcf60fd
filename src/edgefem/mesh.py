"""Tetrahedral meshes, element maps and mesh metrics.

Meshes are immutable after construction: the edge/face tables, boundary sets
and size metrics are derived once.  Vertex order inside each tet is whatever
makes the signed volume positive; all global conventions (edge directions,
face frames) are derived from global vertex ids, never from local order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from .quadrature import RefQuadratureRule
from .reference_element import LOCAL_EDGES, LOCAL_FACES, _monomials_upto

__all__ = [
    "TetMesh",
    "CurvedMap",
    "QuadGeometry",
    "structured_cube_mesh",
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


@dataclass(frozen=True)
class CurvedMap:
    """Degree-2 Lagrange map from the reference tet (10 control points)."""

    control_points: np.ndarray   # (10, 3)

    def __post_init__(self):
        cp = np.asarray(self.control_points, dtype=float)
        if cp.shape != (_Q2_NODES, 3):
            raise ValueError("curved maps are degree 2 with 10 control points")
        bad = np.flatnonzero(~np.isfinite(cp).all(axis=1))
        if len(bad):
            raise ValueError(f"curved map control point {bad[0]} is not finite: {cp[bad[0]].tolist()}")
        object.__setattr__(self, "control_points", cp)
        sample = np.vstack([np.array(_monomials_upto(3)) / 3.0, [[0.25, 0.25, 0.25]]])   # step-1/3 lattice, centroid
        if np.any(self.det_at(sample) <= 0.0):
            raise ValueError("curved map has non-positive Jacobian on the sampling grid")

    def apply(self, pts):
        return _q2_shape(pts) @ self.control_points

    def jacobian(self, pts):
        g = _q2_shape_grad(pts)                       # (N, 10, 3)
        # the gradients sum to zero, so the net's offset drops out; subtracting it first keeps
        # the round-off of a far-translated element at its size, not at its distance from 0
        cp = self.control_points
        return np.einsum("nkq,kp->npq", g, cp - cp[0])

    def det_at(self, pts):
        return np.linalg.det(self.jacobian(pts))


@dataclass(frozen=True)
class TetMesh:
    """An immutable tetrahedral mesh with derived topology."""

    vertices: np.ndarray     # (nv, 3)
    tets: np.ndarray         # (nt, 4) vertex ids, positively oriented

    def __post_init__(self):
        # copies (the tets once their ids are checked), so freezing them leaves the caller's arrays writeable
        verts = np.array(self.vertices, dtype=float, order="C")
        tets = np.asarray(self.tets)
        if len(tets) == 0:
            raise ValueError("mesh contains no tetrahedra")
        if verts.shape[1:] != (3,) or tets.shape[1:] != (4,):
            raise ValueError(f"mesh needs (nv, 3) vertices and (nt, 4) tets, got {verts.shape} and {tets.shape}")
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if len(bad):
            raise ValueError(f"mesh vertex {bad[0]} is not finite: {verts[bad[0]].tolist()}")
        bad = [] if tets.dtype.kind in "biu" else np.flatnonzero((tets != np.floor(tets)).any(axis=1))
        if len(bad):
            raise ValueError(f"mesh tet {bad[0]} has a vertex id that is not an integer: {tets[bad[0]].tolist()}")
        bad = np.flatnonzero(((tets < 0) | (tets >= len(verts))).any(axis=1))
        if len(bad):
            raise ValueError(f"mesh tet {bad[0]} has a vertex id outside 0..{len(verts) - 1}: {tets[bad[0]].tolist()}")
        tets = np.array(tets, dtype=np.int64, order="C")
        diam, vols = _diameters_and_volumes(verts, tets)
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

        edges, tet2edge = _unique_rows(_row_keys(_ordered_columns(tets, LOCAL_EDGES), nv), nv, 2)
        tet2edge = tet2edge.reshape(nt, 6)
        faces, tet2face = _unique_rows(_row_keys(_ordered_columns(tets, LOCAL_FACES), nv), nv, 3)
        tet2face = tet2face.reshape(nt, 4)

        counts = np.bincount(tet2face.ravel(), minlength=len(faces))
        if counts.max() > 2:
            raise ValueError("non-manifold mesh: a face is shared by more than two tets")
        boundary_faces = np.flatnonzero(counts == 1)

        # the rows of faces are ordered, so are the pairs of ids they hold
        lo, mid, hi = faces[boundary_faces].T
        bedge_keys = np.unique(_row_keys((np.concatenate([lo, lo, mid]), np.concatenate([mid, hi, hi])), nv))
        boundary_edges = np.searchsorted(_row_keys(edges.T, nv), bedge_keys)

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


def _ordered_columns(tets, local):
    """The vertex ids of every tet's ``local`` edges or faces, in increasing order within each
    entity: the columns (min, max) or (min, sum - min - max, max), one entry per (tet, entity)."""
    cols = [tets[:, list(c)].ravel() for c in zip(*local)]
    lo, hi = reduce(np.minimum, cols), reduce(np.maximum, cols)
    return (lo, hi) if len(cols) == 2 else (lo, sum(cols) - lo - hi, hi)


def _row_keys(columns, nv):
    """One int64 per row of vertex ids below ``nv``, given as columns, increasing in the rows'
    lexicographic order."""
    if nv ** len(columns) - 1 > np.iinfo(np.int64).max:
        raise ValueError(f"{nv} vertices are too many for int64 keys of {len(columns)} vertex ids")
    keys = columns[0]
    for col in columns[1:]:
        keys = keys * nv + col
    return keys


def _unique_rows(keys, nv, width):
    """The distinct rows of ``width`` ids in lexicographic order, decoded from their keys,
    and the index of each key's row among them."""
    unique, inverse = np.unique(keys, return_inverse=True)
    columns = []
    for _ in range(width - 1):
        unique, col = divmod(unique, nv)
        columns.append(col)
    return np.column_stack([unique, *columns[::-1]]), inverse


def _diameters_and_volumes(verts, tets):
    """Every tet's diameter, its longest edge, and its signed volume, a triple product / 6."""
    corners = verts[tets]                               # (nt, 4, 3)
    tails, heads = (list(ends) for ends in zip(*LOCAL_EDGES))
    squares = sum((x[:, heads] - x[:, tails]) ** 2 for x in np.moveaxis(corners, 2, 0))   # (nt, 6)
    d = corners[:, 1:] - corners[:, :1]                 # the edges from corner 0
    return np.sqrt(squares.max(axis=1)), (d[:, 0] * _cross(d[:, 1], d[:, 2])).sum(axis=1) / 6.0


def _cross(a, b):
    """a x b along the last axis of length 3 (np.cross without its axis handling)."""
    a0, a1, a2 = np.moveaxis(a, -1, 0)
    b0, b1, b2 = np.moveaxis(b, -1, 0)
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def all_affine_data(mesh: TetMesh):
    """Vectorized Jacobian data for every element: (J, origin, det, Jinv).

    With the edges e1, e2, e3 from corner 0 as the columns of J, det J is the triple product
    and the rows of J^-1 are the cofactors e2 x e3, e3 x e1 and e1 x e2 over det J.
    """
    v = mesh.vertices[mesh.tets]
    d = v[:, 1:] - v[:, :1]                             # (nt, 3, 3), rows = edges
    cof = _cross(d[:, [1, 2, 0]], d[:, [2, 0, 1]])
    det = (d[:, 0] * cof[:, 0]).sum(axis=1)
    return np.swapaxes(d, 1, 2), v[:, 0], det, cof / det[:, None, None]


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
        """Straight elements, from slices of the arrays of :func:`all_affine_data`; in the kernels
        its one caller is ``assembly._geometries``, the chunk loop over a space's elements.

        The points origin + J x are one GEMM of the rows [origin | J] (E, 12) with the table
        delta_ij (1, x) (12, 3L) of the rule in homogeneous coordinates."""
        homogeneous = np.column_stack([np.ones(rule.npoints), rule.points])        # (L, 4)
        table = np.einsum("ij,lk->iklj", np.eye(3), homogeneous).reshape(12, -1)
        rows = np.concatenate([origin[:, :, None], jac], axis=2).reshape(len(jac), 12)
        points = (rows @ table).reshape(len(jac), rule.npoints, 3)
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
    ijk = np.indices((n + 1,) * 3).reshape(3, -1).T             # vertex id i (n+1)^2 + j (n+1) + k
    vertices = np.linspace(-1.0, 1.0, n + 1)[ijk]

    # (6, 4, 3) corner offsets of the six chains, then the (n^3, 6, 4, 3) corners of every cell's chains
    unit = np.eye(3, dtype=np.int64)
    steps = np.array([[0 * unit[a], unit[a], unit[a] + unit[b], unit[a] + unit[b] + unit[c]]
                      for a, b, c in permutations((0, 1, 2))])
    cells = np.indices((n,) * 3).reshape(3, -1).T.reshape(-1, 1, 1, 3)
    tets = (cells + steps) @ np.array([(n + 1) ** 2, n + 1, 1])      # vertex id of corner (i, j, k)
    return TetMesh(vertices, tets.reshape(-1, 4))
