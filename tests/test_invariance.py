"""Invariance oracles: no result may depend on the vertex numbering or on where the mesh sits.

Relabelling the vertices flips edge directions and face frames, so it runs
every orientation transform and every element map through a different code
path while the discrete problem stays the same up to a signed permutation of
the dofs.  The oracle is the native numbering itself, independent of how the
geometry and orientation code is written.

A similarity motion x -> s Q x + t (Q a proper rotation, s > 0) with the same
tets and dof vectors, and the coefficients moved with it (mu^-1' = s Q mu^-1 Q^T,
eps' = Q eps Q^T / s and J' = Q J / s^2, each read at the back-mapped point),
leaves both forms and the assembled system unchanged and scales the squared L2
and curl errors by s and 1/s.  Every other test mesh is the Kuhn cube, whose
Jacobians have entries in {0, +-h}; the moved mesh runs full 3x3 Jacobians through
the element geometry and both Piola pushes.

A curved element is a straight one in transformed coordinates (Ward and Pendry, J. Mod.
Opt. 43, 1996): for a global quadratic map F, the quadratic element whose control net is F
of a straight tet's ten nodes is F of that tet, and its element blocks are the straight
tet's with the coefficients pulled back by F, mu^-1 -> DF^T mu^-1 DF / det DF,
eps -> det DF DF^-1 eps DF^-T and J -> det DF DF^-1 J, each read at F(x).  The two sides
agree at every rule point, so for any rule.

The Kuhn meshes are nested: a discrete field on structured_cube_mesh(n) is also one on
structured_cube_mesh(2n), its interpolant there reproduces it, and every integral of it that
the rules compute exactly is the same on both meshes.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edgefem.analysis import (
    consistency_error,
    discrete_hcurl_norm,
    hcurl_error,
    interpolate,
    probe_field,
    probe_matrix_field,
    probe_vector_field,
    shrunk_quadratic_map,
)
from edgefem.assembly import (
    Coefficients,
    EdgeSpace,
    QuadratureConfig,
    SolutionField,
    _blocks,
    assemble,
    evaluate_forms,
    reference_config,
)
from edgefem.mesh import CurvedMap, QuadGeometry, TetMesh, structured_cube_mesh
from edgefem.problems import catalog
from edgefem.quadrature import BUILTIN_LABELS, builtin_rule, tensorized_gl
from edgefem.reference_element import LOCAL_EDGES, _mono_values, curl_basis
from edgefem.solver import solve_dense

from conftest import random_tet, tet_geometry

BASE = structured_cube_mesh(2)
RULES = {
    1: QuadratureConfig(builtin_rule("pt1_offcenter"), builtin_rule("pt1_centroid"),
                        builtin_rule("pt1_centroid")),
    2: QuadratureConfig(builtin_rule("pt5"), builtin_rule("pt5"), builtin_rule("pt15")),
}


def relabelled(mesh, perm):
    """The same mesh with vertex i renamed perm[i]."""
    perm = np.asarray(perm)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return TetMesh(vertices, perm[mesh.tets])


def measures(mesh, order):
    entry = catalog("cube_oscillatory(1)")
    system = assemble(mesh, order, entry.coefficients, RULES[order])
    field = solve_dense(system)
    rec = hcurl_error(field, (entry.exact, entry.exact_curl), 2 * order + 6)
    U = probe_field(system.space, 11)
    V = probe_field(system.space, 23)
    gaps = consistency_error(mesh, order, entry.coefficients, RULES[order], U, V)
    eigs = np.linalg.eigvalsh(system.matrix.toarray()) if order == 1 else None
    return np.array([rec.l2_error, rec.curl_error, *gaps]), eigs


@lru_cache(maxsize=None)
def native(order):
    return measures(BASE, order)


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=6, deadline=None)
@given(perm=st.permutations(range(BASE.n_vertices)))
def test_relabelling_invariance(order, perm):
    values0, eigs0 = native(order)
    values, eigs = measures(relabelled(BASE, perm), order)
    assert np.all(values0 > 0.0)
    assert np.all(np.abs(values - values0) <= 1e-10 * np.abs(values0))
    if order == 1:
        assert np.abs(eigs - eigs0).max() <= 1e-12 * np.abs(eigs0).max()


@pytest.mark.parametrize("order", [1, 2])
def test_forms_rotate_with_the_phase_of_the_trial_field(order):
    # Phi is linear in U: a real U times e^{0.7i} rotates Phi by the same phase; F reads only V
    coeffs = catalog("cube_oscillatory(1)").coefficients
    space = EdgeSpace.of(BASE, order)
    U, V = probe_field(space, 11), probe_field(space, 23)
    assert U.dtype == V.dtype == np.float64
    phi, load = evaluate_forms(BASE, order, coeffs, RULES[order], U, V)
    phi_rot, load_rot = evaluate_forms(BASE, order, coeffs, RULES[order], np.exp(0.7j) * U, V)
    assert abs(phi_rot - np.exp(0.7j) * phi) <= 1e-13 * abs(phi)
    assert load_rot == load


# -- similarity motions ------------------------------------------------------------

MOVED_BASE = structured_cube_mesh(3)
MOTION_RULES = {
    1: QuadratureConfig(builtin_rule("pt1_offcenter"), builtin_rule("pt1_centroid"), builtin_rule("pt4")),
    2: QuadratureConfig(builtin_rule("pt5"), builtin_rule("pt5"), builtin_rule("pt15")),
}
COEFFICIENTS = {
    # full symmetric matrices and a complex current: the general contractions
    "matrix": Coefficients(probe_matrix_field, probe_matrix_field, 1.3, lambda pts: 1j * probe_vector_field(pts)),
    # the catalog's scalar mu^-1 and eps and its imaginary current: the scalar shortcuts
    "catalog": catalog("cube_oscillatory(1)").coefficients,
}


def rotation(a, b, c):
    """Rz(a) Ry(b) Rz(c), a proper rotation."""
    def rz(x):
        return np.array([[np.cos(x), -np.sin(x), 0.0], [np.sin(x), np.cos(x), 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]])
    return rz(a) @ ry @ rz(c)


@dataclass(frozen=True)
class Motion:
    """x -> s Q x + t on (N, 3) points."""

    Q: np.ndarray
    s: float
    t: np.ndarray

    def __call__(self, x):
        return self.s * x @ self.Q.T + self.t

    def back(self, y):
        return (y - self.t) @ self.Q / self.s

    def vectors(self, fn, power):
        """The vector field y -> Q fn(back(y)) / s^power."""
        return lambda y: fn(self.back(y)) @ self.Q.T / self.s ** power

    def coefficients(self, coeffs):
        """The coefficients moved with the mesh, each read at the back-mapped point."""
        def matrices(fld, factor):
            def moved(y):
                c = fld(self.back(y))
                if c.ndim == 1:                 # a multiple of I stays one
                    return factor * c
                c = factor * self.Q @ c @ self.Q.T
                return (c + np.swapaxes(c, 1, 2)) / 2.0
            return moved
        return Coefficients(matrices(coeffs.mu_inv, self.s), matrices(coeffs.eps, 1.0 / self.s),
                            coeffs.omega, self.vectors(coeffs.current, 2))


ANGLE = st.floats(0.0, 2.0 * np.pi)
MOTIONS = st.builds(Motion, st.tuples(ANGLE, ANGLE, ANGLE).map(lambda a: rotation(*a)), st.floats(0.25, 4.0),
                    st.tuples(*[st.floats(-3.0, 3.0)] * 3).map(np.array))


def close(a, b, scale):
    return np.abs(np.asarray(a) - np.asarray(b)).max() <= 1e-13 * np.abs(scale).max()


@lru_cache(maxsize=None)
def unmoved(order, name):
    """The dof vectors, forms, reduced system and errors on the unmoved mesh."""
    coeffs = COEFFICIENTS[name]
    system = assemble(MOVED_BASE, order, coeffs, MOTION_RULES[order])
    U, V = probe_field(system.space, 11), probe_field(system.space, 23)
    forms = evaluate_forms(MOVED_BASE, order, coeffs, MOTION_RULES[order], U, V)
    entry = catalog("cube_oscillatory(1)")
    rec = hcurl_error(SolutionField(system.space, U), (entry.exact, entry.exact_curl), 2 * order + 4)
    return U, V, forms, system, rec


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=8, deadline=None)
@given(motion=MOTIONS)
def test_similarity_motion_invariance(order, name, motion):
    U, V, forms, system, rec = unmoved(order, name)
    mesh = TetMesh(motion(MOVED_BASE.vertices), MOVED_BASE.tets)
    coeffs = motion.coefficients(COEFFICIENTS[name])

    moved_forms = evaluate_forms(mesh, order, coeffs, MOTION_RULES[order], U, V)
    for value, moved_value in zip(forms, moved_forms):
        assert abs(value) > 0.0 and close(moved_value, value, value)

    moved_system = assemble(mesh, order, coeffs, MOTION_RULES[order])
    A, B = system.matrix, moved_system.matrix
    assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
    assert close(B.data, A.data, A.data)
    assert close(moved_system.rhs, system.rhs, system.rhs)

    entry = catalog("cube_oscillatory(1)")
    pair = (motion.vectors(entry.exact, 1), motion.vectors(entry.exact_curl, 2))
    moved_rec = hcurl_error(SolutionField(moved_system.space, U), pair, 2 * order + 4)
    assert close(moved_rec.l2_error ** 2, motion.s * rec.l2_error ** 2, motion.s * rec.l2_error ** 2)
    assert close(moved_rec.curl_error ** 2, rec.curl_error ** 2 / motion.s, rec.curl_error ** 2 / motion.s)


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=10, deadline=None)
@given(motion=MOTIONS)
# a small element far from the origin: the control net's offset must not reach J's round-off
@example(motion=Motion(rotation(1.0, 2.5, 3.0), 0.25, np.array([-3.0, 3.0, 3.0])))
def test_similarity_motion_leaves_the_curved_blocks_unchanged(order, motion):
    # the same motion of a quadratic element's control net moves its map, J' = s Q J at every point.
    # The moved net is rounded at its distance from the origin, which alone moves the order-1 curl
    # term (its pushed curls are nearly orthogonal) by ~1e-13, so the unmoved side is that same
    # net moved back: both sides see one geometry and only the program's round-off is compared.
    moved_map = CurvedMap(motion(shrunk_quadratic_map(0.5).control_points))
    cmap = CurvedMap(motion.back(moved_map.control_points))
    coeffs = COEFFICIENTS["matrix"]
    moved = motion.coefficients(coeffs)
    basis, rule = curl_basis(order), builtin_rule("pt15")
    u = np.cos(1.0 + np.arange(basis.n_dofs)) + 0.5j * np.sin(np.arange(basis.n_dofs))
    v = np.sin(2.0 + 0.7 * np.arange(basis.n_dofs))

    def value(cm, kind, coeff):
        block = _blocks(QuadGeometry.curved(rule, cm), kind, basis, coeff, 1.0)[0]
        return v @ (block if kind == "load" else block @ u)

    for kind, fld, moved_fld in (("curl", coeffs.mu_inv, moved.mu_inv), ("mass", coeffs.eps, moved.eps),
                                 ("load", coeffs.current, moved.current)):
        before, after = value(cmap, kind, fld), value(moved_map, kind, moved_fld)
        assert abs(before) > 0.0 and close(after, before, before)


# -- transformation optics ------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticMap:
    """F(y) = t + B y + Q(y, y) on (N, 3) points, Q (3, 3, 3) symmetric in its last two axes."""

    t: np.ndarray
    B: np.ndarray
    Q: np.ndarray

    def __call__(self, y):
        return self.t + y @ self.B.T + np.einsum("ijk,nj,nk->ni", self.Q, y, y)

    def pulled_back(self, mu_inv, eps, current):
        """The three coefficients on the straight side, each read at F(x)."""
        def at(fn):
            def pulled(x):
                jac = self.B + 2.0 * np.einsum("ijk,nk->nij", self.Q, x)
                return fn(self(x), jac, np.linalg.det(jac)[:, None, None], np.linalg.inv(jac))
            return pulled
        return (at(lambda y, D, det, Dinv: np.swapaxes(D, 1, 2) @ mu_inv(y) @ D / det),
                at(lambda y, D, det, Dinv: det * Dinv @ eps(y) @ np.swapaxes(Dinv, 1, 2)),
                at(lambda y, D, det, Dinv: (det * Dinv @ current(y)[:, :, None])[:, :, 0]))


def quadratic_map(seed):
    """A random F with |DF - I| < 1 on [-1, 1]^3, so det DF > 0 on every random_tet, and a
    translation that puts the element up to 3 units from the origin."""
    rng = np.random.default_rng(seed)
    Q = rng.uniform(-0.025, 0.025, (3, 3, 3))
    return QuadraticMap(rng.uniform(-3.0, 3.0, 3), np.eye(3) + rng.uniform(-0.15, 0.15, (3, 3)),
                        (Q + np.swapaxes(Q, 1, 2)) / 2.0)


RULES_ANY = st.one_of(st.sampled_from(BUILTIN_LABELS).map(builtin_rule), st.integers(1, 4).map(tensorized_gl))


@pytest.mark.parametrize("order", [1, 2])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rule=RULES_ANY)
def test_curved_blocks_are_straight_blocks_with_transformed_coefficients(order, seed, rule):
    # the two sides are different contractions of the same integrand: the curved block pushes the
    # shape data at every rule point, the straight one contracts its one push with the rule's
    # product table
    F = quadratic_map(seed)
    verts = random_tet(np.random.default_rng(seed))
    straight = TetMesh(verts, np.array([[0, 1, 2, 3]]))       # positively oriented: order kept
    curved = CurvedMap(F(np.vstack([verts] + [(verts[a] + verts[b]) / 2.0 for a, b in LOCAL_EDGES])))
    fields = (probe_matrix_field, lambda y: 0.5 * probe_matrix_field(y[:, ::-1]),
              lambda y: probe_vector_field(y) + 1j * probe_vector_field(y[:, ::-1]))
    basis = curl_basis(order)
    for kind, fld, pulled in zip(("curl", "mass", "load"), fields, F.pulled_back(*fields)):
        got = _blocks(QuadGeometry.curved(rule, curved), kind, basis, fld, 1.0)
        want = _blocks(tet_geometry(straight, [0], rule), kind, basis, pulled, 1.0)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


# -- nested refinement ----------------------------------------------------------------

CHAINS = {chain: i for i, chain in enumerate(permutations(range(3)))}   # structured_cube_mesh's order


def kuhn_tets(n, pts):
    """The tet of structured_cube_mesh(n) that holds each point (N, 3): the cell from floor, then
    the chain 0, e_a, e_a + e_b, e_a + e_b + e_c whose axes a, b, c sort the coordinates in the
    cell in descending order."""
    local = (pts + 1.0) * (n / 2.0)
    cell = np.clip(np.floor(local), 0, n - 1)
    chain = [CHAINS[tuple(axes)] for axes in np.argsort(cell - local, axis=1, kind="stable")]
    return 6 * (cell @ [n * n, n, 1]).astype(int) + np.array(chain)


def kuhn_field(sol, n):
    """The values of the discrete field ``sol`` on structured_cube_mesh(n) at any points of the cube."""
    _, origin, _, inv = sol.space.affine
    coeffs, monos = sol.polynomials()[0], sol.space.basis.value_monos

    def field(pts):
        tet = kuhn_tets(n, pts)
        ref = (inv[tet] @ (pts - origin[tet])[:, :, None])[:, :, 0]
        return (coeffs[tet] @ _mono_values(monos, ref)[:, :, None])[:, :, 0]
    return field


@pytest.mark.parametrize("order", [1, 2])
def test_nested_refinement_keeps_the_field_and_its_integrals(order):
    # cube_poly's constant coefficients and quartic current and exact field: the degree-10
    # rules integrate the forms and the squared errors exactly on both meshes
    entry = catalog("cube_poly")
    exact = (entry.exact, entry.exact_curl)
    coarse, fine = (EdgeSpace.of(structured_cube_mesh(n), order) for n in (2, 4))
    U, V = probe_field(coarse, 11), probe_field(coarse, 23)
    PU, PV = (interpolate(fine, kuhn_field(SolutionField(coarse, X), 2)) for X in (U, V))
    assert np.abs(PU[fine.constrained]).max() <= 1e-14 and np.abs(PV[fine.constrained]).max() <= 1e-14

    forms = evaluate_forms(coarse.mesh, order, entry.coefficients, reference_config(), U, V)
    fine_forms = evaluate_forms(fine.mesh, order, entry.coefficients, reference_config(), PU, PV)
    for value, fine_value in zip(forms, fine_forms):
        assert abs(value) > 0.0 and abs(fine_value - value) <= 1e-13 * abs(value)

    for X, PX in ((U, PU), (V, PV)):
        before, after = SolutionField(coarse, X), SolutionField(fine, PX)
        assert abs(discrete_hcurl_norm(after) - discrete_hcurl_norm(before)) <= 1e-13
        rec, fine_rec = hcurl_error(before, exact, 10), hcurl_error(after, exact, 10)
        assert close([fine_rec.l2_error, fine_rec.curl_error], [rec.l2_error, rec.curl_error], rec.hcurl_error)
