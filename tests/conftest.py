"""Shared test helpers: independent oracles kept separate from library code."""

import math

import numpy as np
import pytest

from edgefem.mesh import QuadGeometry, all_affine_data
from edgefem.quadrature import RefQuadratureRule


def barycentric_monomial_integral(volume, powers):
    """int over a tet of lam0^p0 lam1^p1 lam2^p2 lam3^p3, closed form."""
    p = list(powers)
    num = math.factorial(p[0]) * math.factorial(p[1]) * math.factorial(p[2]) * math.factorial(p[3])
    return 6.0 * volume * num / math.factorial(sum(p) + 3)


def simplex_monomial_integral(verts, abc):
    """Exact integral of x^a y^b z^c over an arbitrary tet, by barycentric expansion.

    Expands each coordinate as sum_i lam_i v_i and multiplies the resulting
    4-variate polynomials, then applies the factorial formula term by term.
    This never touches the library's mapping code, so it can serve as an
    independent oracle for mapped quadrature.
    """
    verts = np.asarray(verts, dtype=float)
    volume = abs(np.linalg.det((verts[1:] - verts[0]).T)) / 6.0

    def axis_poly(c):
        return {tuple(int(i == j) for j in range(4)): verts[i][c] for i in range(4)}

    def pmul(p, q):
        out = {}
        for ea, ca in p.items():
            for eb, cb in q.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0.0) + ca * cb
        return out

    poly = {(0, 0, 0, 0): 1.0}
    for axis, power in enumerate(abc):
        for _ in range(power):
            poly = pmul(poly, axis_poly(axis))
    return sum(c * barycentric_monomial_integral(volume, e) for e, c in poly.items())


def random_tet(rng, scale=1.0):
    """A non-degenerate random tetrahedron with positive orientation."""
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(4, 3)) * scale
        det = np.linalg.det((verts[1:] - verts[0]).T)
        if abs(det) > 0.05 * scale ** 3:
            if det < 0:
                verts[[2, 3]] = verts[[3, 2]]
            return verts


def point_rule(ref_pts):
    """The reference points as a rule, so a geometry can be built on them.

    The weights are placeholders: the degenerate degree -1 marks a rule that
    is not meant to integrate anything.
    """
    ref_pts = np.atleast_2d(ref_pts)
    return RefQuadratureRule(ref_pts, np.full(len(ref_pts), 1.0 / 6.0 / len(ref_pts)), -1, "points")


def tet_geometry(mesh, tets, rule):
    """Geometry of ``rule`` on the elements ``tets`` of ``mesh``."""
    return QuadGeometry.affine(rule, *(a[tets] for a in all_affine_data(mesh)))


def free_vectors(rng, system, count=2):
    """Random complex full dof vectors, zero on the PEC-constrained dofs."""
    out = np.zeros((count, system.space.n_dofs), dtype=complex)
    out[:, system.free_index] = rng.standard_normal((count, system.n_free)) + 1j * rng.standard_normal((count, system.n_free))
    return out


def fd_curl(field, pts, eps=1e-5):
    """Central finite-difference curl of a vector field at (N, 3) points."""
    pts = np.atleast_2d(pts)
    grad = np.zeros((len(pts), 3, 3), dtype=complex)   # grad[n, i, j] = d f_i / d x_j
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        grad[:, :, j] = (np.asarray(field(pts + step)) - np.asarray(field(pts - step))) / (2 * eps)
    curl = np.empty((len(pts), 3), dtype=complex)
    curl[:, 0] = grad[:, 2, 1] - grad[:, 1, 2]
    curl[:, 1] = grad[:, 0, 2] - grad[:, 2, 0]
    curl[:, 2] = grad[:, 1, 0] - grad[:, 0, 1]
    return curl


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)
