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
only on how an element's four vertex ids rank.  :func:`dof_values` is the one
statement of the functionals: it defines the basis by duality, builds the
orientation table once per ranking and interpolates on a mesh.
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
    "dof_values",
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


# -- the degrees of freedom ----------------------------------------------------

@lru_cache(maxsize=None)
def _face_rule():
    """The collapsed 6 x 6 Gauss rule of the unit triangle, averaged over the six orders of
    its corners (216 points), so a face moment does not depend on which corner is listed first."""
    x, w = _gl01(6)
    u, v = np.repeat(x, 6), np.tile(x, 6) * (1.0 - np.repeat(x, 6))
    bary = np.column_stack([1.0 - (u + v), u, v])
    weights = np.repeat(w, 6) * np.tile(w, 6) * (1.0 - u)
    return np.concatenate([bary[:, list(p[1:])] for p in permutations(range(3))]), np.tile(weights, 6) / 6.0


def _moments(field, vertices, entities, params, weights):
    """Moments of ``field`` on entities given as rows (a, b) or (a, b, c) of vertex ids: at the
    points x_a + params @ (x_b - x_a, x_c - x_a), ``field`` dotted with each direction x_b - x_a,
    x_c - x_a and summed with each of ``weights``.  Each entity's moments are consecutive."""
    corners = vertices[np.asarray(entities)]                    # (M, 2 or 3, 3)
    dirs = corners[:, 1:] - corners[:, :1]
    pts = corners[:, :1] + params @ dirs                        # (M, L, 3)
    vals = np.asarray(field(pts.reshape(-1, 3)))
    vals = vals.reshape(*pts.shape[:2], *vals.shape[1:])
    moms = [np.einsum("l,el...c,ec->e...", w, vals, dirs[:, i]) for w in weights for i in range(dirs.shape[1])]
    return np.stack(moms, axis=1).reshape(-1, *vals.shape[2:-1])


def dof_values(field, order: int, vertices, edges, faces) -> np.ndarray:
    """The dofs of ``field`` on the edges (M, 2) and faces (F, 3) given as vertex ids into
    ``vertices``; each entity's moments follow the order in which its vertices are listed.

    ``field`` maps (N, 3) points to (N, ..., 3) values.  Order 1 gives moment 0 of each
    edge; order 2 gives moments 0 and 1 of each edge, then of each face: shape (n, ...).
    """
    s, w = _gl01(8)
    if order == 1:
        return _moments(field, vertices, edges, s[:, None], [w])
    st, tw = _face_rule()
    return np.concatenate([_moments(field, vertices, edges, s[:, None], [w, w * (2.0 * s - 1.0)]),
                           _moments(field, vertices, faces, st, [tw])])


@dataclass(frozen=True)
class CurlBasis:
    """Reference shape functions and curls stored as monomial coefficients."""

    order: int
    n_dofs: int
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


@lru_cache(maxsize=None)
def curl_basis(order: int) -> CurlBasis:
    """Construct the order-1 (Whitney) or order-2 basis by dualizing generators."""
    gens = _generators(order)
    n = len(gens)
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

    generators = lambda pts: np.einsum("nm,jcm->njc", _mono_values(value_monos, pts), gen_vals)
    dof_mat = dof_values(generators, order, REF_VERTICES, LOCAL_EDGES, LOCAL_FACES)
    cond = float(np.linalg.cond(dof_mat))
    coeff = np.linalg.inv(dof_mat)        # column j: generator weights of dual dof j
    value_coeffs = np.einsum("jd,jcm->dcm", coeff, gen_vals)
    curl_coeffs = np.einsum("jd,jcm->dcm", coeff, gen_curls)
    # Scrub inversion noise so k=1 reproduces the exact Whitney coefficients.
    value_coeffs[np.abs(value_coeffs) < 1e-13] = 0.0
    curl_coeffs[np.abs(curl_coeffs) < 1e-13] = 0.0
    return CurlBasis(order, n, value_coeffs, curl_coeffs, value_monos, curl_monos, cond)


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
        edges, faces = ([sorted(e, key=rank.__getitem__) for e in ents] for ents in (LOCAL_EDGES, LOCAL_FACES))
        C = dof_values(basis.eval_many, order, REF_VERTICES, edges, faces)
        table[r] = np.linalg.inv(np.rint(C))
    table.flags.writeable = False
    return table
