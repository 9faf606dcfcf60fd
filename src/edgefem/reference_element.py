"""Curl-conforming reference bases (orders 1 and 2) and their orientation transforms.

Shape functions live on the reference tetrahedron K = conv{0, e1, e2, e3} and
span  P_{k-1}^3  (+)  {p in ~P_k^3 : x . p = 0}   (6 dofs for k=1, 20 for k=2).

Degrees of freedom are tangential moments:

  * edge (a, b), moment 0:  int_0^1 v(x_a + s d) . d ds          with d = x_b - x_a
  * edge (a, b), moment 1:  int_0^1 v(x_a + s d) . d (2s-1) ds   (k=2 only)
  * face (a, b, c), moment i:  int_T v(x_a + s d1 + t d2) . d_i ds dt   (k=2 only)

where T is the unit triangle and d1 = x_b - x_a, d2 = x_c - x_a.  The same
functionals evaluated with globally ascending vertex ids are element
independent, which is what makes the assembled space tangentially continuous;
:func:`orientation_key` captures the per-element change of frame between the
local canonical functionals and the global ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import _gl01

__all__ = [
    "CurlBasis",
    "OrientationKey",
    "LOCAL_EDGES",
    "LOCAL_FACES",
    "REF_VERTICES",
    "curl_basis",
    "orientation_key",
    "dof_transform",
]

REF_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_FACES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


# -- minimal trivariate polynomial engine (dict of exponent triples) ---------

def _p_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _p_diff(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis] > 0:
            f = list(e)
            f[axis] -= 1
            out[tuple(f)] = out.get(tuple(f), 0.0) + c * e[axis]
    return out


def _v_curl(vp):
    # vp is a 3-list of polynomial dicts.
    def sub(p, q):
        out = dict(p)
        for e, c in q.items():
            out[e] = out.get(e, 0.0) - c
        return out

    return [
        sub(_p_diff(vp[2], 1), _p_diff(vp[1], 2)),
        sub(_p_diff(vp[0], 2), _p_diff(vp[2], 0)),
        sub(_p_diff(vp[1], 0), _p_diff(vp[0], 1)),
    ]


def _monomials_upto(d):
    out = []
    for total in range(d + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                out.append((a, b, total - a - b))
    return out


def _coeff_vector(p, mono_index):
    v = np.zeros(len(mono_index))
    for e, c in p.items():
        if c != 0.0:
            v[mono_index[e]] = c
    return v


def _mono_values(monos, points):
    points = np.atleast_2d(points)
    cols = [points[:, 0] ** a * points[:, 1] ** b * points[:, 2] ** c for (a, b, c) in monos]
    return np.column_stack(cols)  # (N, n_mono)


def _generators(order):
    """Explicit spanning set for the order-k curl-conforming space."""
    x = {(1, 0, 0): 1.0}
    y = {(0, 1, 0): 1.0}
    z = {(0, 0, 1): 1.0}
    one = {(0, 0, 0): 1.0}
    zero = {}

    def times(m, vec):
        return [_p_mul(m, comp) for comp in vec]

    # Homogeneous fields with x . p = 0 (kernel of the radial component).
    cross12 = [y, {(1, 0, 0): -1.0}, zero]   # (y, -x, 0)
    cross13 = [z, zero, {(1, 0, 0): -1.0}]   # (z, 0, -x)
    cross23 = [zero, z, {(0, 1, 0): -1.0}]   # (0, z, -y)

    if order == 1:
        gens = [[one, zero, zero], [zero, one, zero], [zero, zero, one],
                cross12, cross13, cross23]
    elif order == 2:
        gens = []
        for m in (one, x, y, z):
            gens.append(times(m, [one, zero, zero]))
            gens.append(times(m, [zero, one, zero]))
            gens.append(times(m, [zero, zero, one]))
        # x*c12 + ... span the 8-dimensional homogeneous part; z*c12 is the
        # dependent member of the triple {x*c23, y*c13, z*c12} and is dropped.
        gens += [times(x, cross12), times(x, cross13), times(x, cross23),
                 times(y, cross12), times(y, cross13), times(y, cross23),
                 times(z, cross13), times(z, cross23)]
    else:
        raise ValueError("order must be 1 or 2")
    return gens


# -- canonical reference functionals ------------------------------------------

@lru_cache(maxsize=None)
def _tri_rule(n):
    # Collapsed tensor rule on the unit triangle, exact well past degree 2.
    xu, wu = _gl01(n)
    xv, wv = _gl01(n)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    WU, WV = np.meshgrid(wu, wv, indexing="ij")
    s = U.ravel()
    t = (V * (1.0 - U)).ravel()
    w = (WU * WV).ravel() * (1.0 - U.ravel())
    return np.column_stack([s, t]), w


def _edge_moment(vecfun, a, b, moment, n=8):
    d = REF_VERTICES[b] - REF_VERTICES[a]
    s, w = _gl01(n)
    pts = REF_VERTICES[a] + np.outer(s, d)
    vals = vecfun(pts) @ d
    if moment == 1:
        vals = vals * (2.0 * s - 1.0)
    return float(np.dot(w, vals))


def _face_moment(vecfun, a, b, c, direction, n=6):
    d1 = REF_VERTICES[b] - REF_VERTICES[a]
    d2 = REF_VERTICES[c] - REF_VERTICES[a]
    st, w = _tri_rule(n)
    pts = REF_VERTICES[a] + st[:, :1] * d1 + st[:, 1:] * d2
    dvec = d1 if direction == 0 else d2
    vals = vecfun(pts) @ dvec
    return float(np.dot(w, vals))


@dataclass(frozen=True)
class CurlBasis:
    """Reference shape functions and curls stored as monomial coefficients."""

    order: int
    n_dofs: int
    dof_entities: tuple                 # per-dof ("edge"|"face", local index, moment)
    value_coeffs: np.ndarray            # (n_dofs, 3, n_mono_value)
    curl_coeffs: np.ndarray             # (n_dofs, 3, n_mono_curl)
    value_monos: tuple
    curl_monos: tuple
    generator_condition: float

    def eval_many(self, points) -> np.ndarray:
        """Shape-function values at (N, 3) points, returned as (N, n_dofs, 3)."""
        m = _mono_values(self.value_monos, points)
        return np.einsum("nm,dcm->ndc", m, self.value_coeffs)

    def curl_many(self, points) -> np.ndarray:
        m = _mono_values(self.curl_monos, points)
        return np.einsum("nm,dcm->ndc", m, self.curl_coeffs)


def _dof_entities(order):
    ents = []
    moments = (0,) if order == 1 else (0, 1)
    for e in range(6):
        for m in moments:
            ents.append(("edge", e, m))
    if order == 2:
        for f in range(4):
            for m in (0, 1):
                ents.append(("face", f, m))
    return tuple(ents)


def _apply_functional(ent, vecfun):
    kind, idx, moment = ent
    if kind == "edge":
        a, b = LOCAL_EDGES[idx]
        return _edge_moment(vecfun, a, b, moment)
    a, b, c = LOCAL_FACES[idx]
    return _face_moment(vecfun, a, b, c, moment)


@lru_cache(maxsize=None)
def curl_basis(order: int) -> CurlBasis:
    """Construct the order-1 (Whitney) or order-2 basis by dualizing generators."""
    gens = _generators(order)
    ents = _dof_entities(order)
    n = len(gens)
    assert n == len(ents)

    value_monos = tuple(_monomials_upto(order))
    curl_monos = tuple(_monomials_upto(order - 1))
    vidx = {m: i for i, m in enumerate(value_monos)}
    cidx = {m: i for i, m in enumerate(curl_monos)}

    gen_vals = np.zeros((n, 3, len(value_monos)))
    gen_curls = np.zeros((n, 3, len(curl_monos)))
    for j, g in enumerate(gens):
        cg = _v_curl(g)
        for comp in range(3):
            gen_vals[j, comp] = _coeff_vector(g[comp], vidx)
            gen_curls[j, comp] = _coeff_vector(cg[comp], cidx)

    def vecfun_for(j):
        def fun(pts):
            m = _mono_values(value_monos, pts)
            return m @ gen_vals[j].T
        return fun

    dof_mat = np.zeros((n, n))
    for i, ent in enumerate(ents):
        for j in range(n):
            dof_mat[i, j] = _apply_functional(ent, vecfun_for(j))

    cond = float(np.linalg.cond(dof_mat))
    coeff = np.linalg.inv(dof_mat)        # column j: generator weights of dual dof j
    value_coeffs = np.einsum("jd,jcm->dcm", coeff, gen_vals)
    curl_coeffs = np.einsum("jd,jcm->dcm", coeff, gen_curls)
    # Scrub inversion noise so k=1 reproduces the exact Whitney coefficients.
    value_coeffs[np.abs(value_coeffs) < 1e-13] = 0.0
    curl_coeffs[np.abs(curl_coeffs) < 1e-13] = 0.0
    return CurlBasis(order, n, ents, value_coeffs, curl_coeffs, value_monos, curl_monos, cond)


# -- orientation ---------------------------------------------------------------

_FACE_CORNER_COORDS = {0: np.array([0, 0]), 1: np.array([1, 0]), 2: np.array([0, 1])}


@dataclass(frozen=True)
class OrientationKey:
    """Per-element frame change from canonical local dofs to global dofs.

    ``edge_signs[e]`` is +1 when local edge (a, b) already runs from the
    smaller to the larger global vertex id.  ``face_maps[f]`` expresses the
    globally ascending face frame in the canonical local frame (rows are the
    global directions); entries are in {-1, 0, 1}.
    """

    edge_signs: np.ndarray     # (6,) ints
    face_maps: np.ndarray      # (4, 2, 2) ints


def orientation_key(tet_vertex_ids) -> OrientationKey:
    gid = np.asarray(tet_vertex_ids)
    if len(set(gid.tolist())) != 4:
        raise ValueError("tet must have 4 distinct vertex ids")
    signs = np.array([1 if gid[a] < gid[b] else -1 for a, b in LOCAL_EDGES], dtype=int)
    face_maps = np.zeros((4, 2, 2), dtype=int)
    for f, (a, b, c) in enumerate(LOCAL_FACES):
        order = sorted(range(3), key=lambda i: gid[(a, b, c)[i]])
        p0, p1, p2 = (_FACE_CORNER_COORDS[i] for i in order)
        face_maps[f, 0] = p1 - p0
        face_maps[f, 1] = p2 - p0
    return OrientationKey(signs, face_maps)


def dof_transform(key: OrientationKey, basis: CurlBasis) -> np.ndarray:
    """Matrix X with  phi_global_j = sum_m phi_local_m X[m, j]  on one element."""
    n = basis.n_dofs
    C = np.zeros((n, n))
    for i, (kind, idx, moment) in enumerate(basis.dof_entities):
        if kind == "edge":
            C[i, i] = key.edge_signs[idx] if moment == 0 else 1.0
        else:
            base = next(k for k, ent in enumerate(basis.dof_entities) if ent == ("face", idx, 0))
            C[base + moment, base] = key.face_maps[idx, moment, 0]
            C[base + moment, base + 1] = key.face_maps[idx, moment, 1]
    return np.linalg.inv(C)
