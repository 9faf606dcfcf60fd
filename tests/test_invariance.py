"""Relabelling invariance: no result may depend on the global vertex numbering.

Relabelling the vertices flips edge directions and face frames, so it runs
every orientation transform and every element map through a different code
path while the discrete problem stays the same up to a signed permutation of
the dofs.  The oracle is the native numbering itself, independent of how the
geometry and orientation code is written.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edgefem.analysis import consistency_error, hcurl_error, probe_field
from edgefem.assembly import EdgeSpace, QuadratureConfig, assemble, evaluate_forms
from edgefem.mesh import TetMesh, structured_cube_mesh
from edgefem.problems import catalog
from edgefem.quadrature import builtin_rule
from edgefem.solver import solve_dense

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
