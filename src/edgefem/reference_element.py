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
orientation table from the directed reference entities and interpolates on a mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .quadrature import _collapsed, _gauss01, monomials_of_degree

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


def _monomials_upto(d):
    """Exponents of the monomials of total degree <= d, by degree, each degree's in reverse order."""
    return [m for total in range(d + 1) for m in reversed(list(monomials_of_degree(total)))]


def _mono_values(monos, points):
    points = np.atleast_2d(points)
    cols = [points[:, 0] ** a * points[:, 1] ** b * points[:, 2] ** c for (a, b, c) in monos]
    return np.column_stack(cols)  # (N, n_mono)


def _bump(e, a, by):
    """The exponent triple ``e`` with ``e[a]`` changed by ``by``."""
    return e[:a] + (e[a] + by,) + e[a + 1:]


def _generators(order):
    """Explicit spanning set for the order-k curl-conforming space, as (n, 3, n_mono) coefficients
    on ``_monomials_upto(k)``: e_c times each monomial of degree < k, then each monomial of degree
    k - 1 times the fields c12 = (y, -x, 0), c13 = (z, 0, -x), c23 = (0, z, -y), where x . p = 0."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    monos = _monomials_upto(order)
    lower = _monomials_upto(order - 1)
    terms = [[(c, m, 1.0)] for m in lower for c in range(3)]      # (component, monomial, coefficient)
    for m in (e for e in lower if sum(e) == order - 1):
        for a, b in ((0, 1), (0, 2), (1, 2)):                      # m c_ab: m x_b in a, -m x_a in b
            # z*c12 is the dependent member of the triple {x*c23, y*c13, z*c12} and is dropped.
            if (m, a, b) != ((0, 0, 1), 0, 1):
                terms.append([(a, _bump(m, b, 1), 1.0), (b, _bump(m, a, 1), -1.0)])
    index = {m: i for i, m in enumerate(monos)}
    gens = np.zeros((len(terms), 3, len(monos)))
    for j, gen in enumerate(terms):
        for c, m, coeff in gen:
            gens[j, c, index[m]] = coeff
    return gens


def _curls(coeffs, monos, curl_monos):
    """Curls of the (n, 3, len(monos)) coefficient fields ``coeffs``, as coefficients on ``curl_monos``."""
    index = {m: i for i, m in enumerate(curl_monos)}
    diff = np.zeros((3, len(monos), len(curl_monos)))              # d/dx_a takes e to e[a] (e - E_a)
    for i, e in enumerate(monos):
        for a in range(3):
            if e[a]:
                diff[a, i, index[_bump(e, a, -1)]] = e[a]
    d = np.einsum("jcm,amn->jacn", coeffs, diff)                   # d[:, a, c] = d_a g_c
    return np.stack([d[:, 1, 2] - d[:, 2, 1], d[:, 2, 0] - d[:, 0, 2], d[:, 0, 1] - d[:, 1, 0]], axis=1)


# -- the degrees of freedom ----------------------------------------------------

@lru_cache(maxsize=None)
def _face_rule():
    """The collapsed 6 x 6 Gauss rule of the unit triangle, averaged over the six orders of
    its corners (216 points), so a face moment does not depend on which corner is listed first."""
    st, weights = _collapsed(6, (0, 0), "face rule")
    bary = np.column_stack([1.0 - st.sum(axis=1), st])
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
    s, w = _gauss01(8)
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
    value_monos = tuple(_monomials_upto(order))
    curl_monos = tuple(_monomials_upto(order - 1))
    gen_vals = _generators(order)
    gen_curls = _curls(gen_vals, value_monos, curl_monos)
    n = len(gen_vals)

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
    edge signs and unimodular face-frame changes: integers up to round-off.  One :func:`dof_values`
    call gives the functionals of all 12 directed edges and 24 directed faces, and each ranking
    picks its rows from them.
    """
    basis = curl_basis(order)
    edges, faces = ([d for ent in ents for d in permutations(ent)] for ents in (LOCAL_EDGES, LOCAL_FACES))
    C = dof_values(basis.eval_many, order, REF_VERTICES, edges, faces)      # ``order`` rows per entity
    rows = {ent: C[order * i:order * (i + 1)] for i, ent in enumerate(edges + faces)}   # faces: none at order 1
    table = np.empty((len(RANKINGS), basis.n_dofs, basis.n_dofs))
    for r, rank in enumerate(RANKINGS):
        C = np.concatenate([rows[tuple(sorted(e, key=rank.__getitem__))] for e in LOCAL_EDGES + LOCAL_FACES])
        table[r] = np.linalg.inv(np.rint(C))
    table.flags.writeable = False
    return table
