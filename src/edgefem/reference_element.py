"""Curl-conforming reference bases (orders 1 and 2) and their orientation table.

Shape functions live on the reference tetrahedron K = conv{0, e1, e2, e3} and
span  P_{k-1}^3  (+)  {p in ~P_k^3 : x . p = 0}   (6 dofs for k=1, 20 for k=2).

Degrees of freedom are tangential moments:

  * edge (a, b), moment 0:  int_0^1 v(x_a + s d) . d ds          with d = x_b - x_a
  * edge (a, b), moment 1:  int_0^1 v(x_a + s d) . d (2s-1) ds   (k=2 only)
  * face (a, b, c), moment i:  int_T v(x_a + s d1 + t d2) . d_i ds dt   (k=2 only)

where T is the unit triangle and d1 = x_b - x_a, d2 = x_c - x_a.  The same
functionals evaluated with globally ascending vertex ids are element
independent, which is what makes the assembled space tangentially continuous.
The change from the local canonical functionals to the global ones depends
only on how an element's four vertex ids rank; :func:`orientation_table`
applies the functionals once per ranking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .quadrature import _gl01

__all__ = [
    "CurlBasis",
    "LOCAL_EDGES",
    "LOCAL_FACES",
    "RANKINGS",
    "REF_VERTICES",
    "curl_basis",
    "orientation_table",
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
        vals = (vals.T * (2.0 * s - 1.0)).T
    return np.dot(w, vals)


def _face_moment(vecfun, a, b, c, direction, n=6):
    d1 = REF_VERTICES[b] - REF_VERTICES[a]
    d2 = REF_VERTICES[c] - REF_VERTICES[a]
    st, w = _tri_rule(n)
    pts = REF_VERTICES[a] + st[:, :1] * d1 + st[:, 1:] * d2
    return np.dot(w, vecfun(pts) @ (d1 if direction == 0 else d2))


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


def _apply_functional(ent, vecfun, rank=(0, 1, 2, 3)):
    """Dof functional ``ent`` of ``vecfun`` ((N, 3) points to (N, 3) or (N, m, 3)
    values), the entity's vertices taken in ascending ``rank``."""
    kind, idx, moment = ent
    verts = sorted(LOCAL_EDGES[idx] if kind == "edge" else LOCAL_FACES[idx], key=rank.__getitem__)
    if kind == "edge":
        return _edge_moment(vecfun, *verts, moment)
    return _face_moment(vecfun, *verts, moment)


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

RANKINGS = tuple(permutations(range(4)))   # rank of each local vertex's global id


@lru_cache(maxsize=None)
def orientation_table(order: int) -> np.ndarray:
    """(24, n, n) dof transforms X; entry r serves elements whose vertex ids rank as ``RANKINGS[r]``.

    ``phi_global_j = sum_m phi_local_m X[m, j]`` with ``X = inv(C)``, where ``C[i, j]`` is
    functional i, its entity's vertices in ascending id, of local basis function j.  C holds
    edge signs and unimodular face-frame changes: integers up to round-off.
    """
    basis = curl_basis(order)
    table = np.empty((len(RANKINGS), basis.n_dofs, basis.n_dofs))
    for r, rank in enumerate(RANKINGS):
        C = np.array([_apply_functional(ent, basis.eval_many, rank) for ent in basis.dof_entities])
        table[r] = np.linalg.inv(np.rint(C))
    table.flags.writeable = False
    return table
