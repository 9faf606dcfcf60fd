"""Numeric sesquilinear/antilinear forms, global assembly and PEC elimination.

Three independent reference rules drive the three terms:

    q1 :  curl-curl      sum_K Q1_K( mu^-1 curl u . conj curl v )
    q2 :  mass           sum_K Q2_K( -omega^2 eps u . conj v )
    q3 :  load           sum_K Q3_K( -i omega J . conj v )

Coefficients are evaluated at the physical quadrature points (no coefficient
interpolation).  Assembly is complex throughout, scatters element blocks with
the per-element orientation transform applied, and then eliminates every DOF
sitting on a boundary edge or boundary face (PEC: vanishing tangential trace).
Element blocks are accumulated in a fixed element order, so repeated
assemblies of the same inputs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import QuadGeometry, TetMesh, all_affine_data
from .quadrature import RefQuadratureRule, rule_for_degree
from .reference_element import CurlBasis, curl_basis, orientation_table

__all__ = [
    "MatrixField",
    "VectorField",
    "Coefficients",
    "QuadratureConfig",
    "SparseSystem",
    "SolutionField",
    "assemble",
    "evaluate_forms",
    "reference_config",
    "dump_matrix",
]

_CHUNK_BUDGET = 3_000_000   # floats per pushed-basis scratch block


class MatrixField:
    """A (possibly constant) field of complex symmetric 3x3 matrices."""

    def __init__(self, value):
        if callable(value):
            self.constant = None
            self._fn = value
        else:
            mat = np.asarray(value, dtype=complex)
            if mat.shape == ():
                mat = mat * np.eye(3)
            if mat.shape != (3, 3):
                raise ValueError("constant coefficient must be scalar or 3x3")
            self.constant = mat
            self._fn = None

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(pts), 3, 3))
        out = np.asarray(self._fn(pts), dtype=complex)
        if out.shape != (len(pts), 3, 3):
            raise ValueError("matrix field must return (N, 3, 3)")
        return out


class VectorField:
    """A (possibly constant) field of complex 3-vectors."""

    def __init__(self, value):
        if callable(value):
            self.constant = None
            self._fn = value
        else:
            vec = np.asarray(value, dtype=complex)
            if vec.shape != (3,):
                raise ValueError("constant current must be a 3-vector")
            self.constant = vec
            self._fn = None

    def __call__(self, pts):
        pts = np.atleast_2d(pts)
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(pts), 3))
        out = np.asarray(self._fn(pts), dtype=complex)
        if out.shape != (len(pts), 3):
            raise ValueError("vector field must return (N, 3)")
        return out


@dataclass(frozen=True)
class Coefficients:
    """PDE data: inverse permeability, permittivity, frequency and current."""

    mu_inv: MatrixField
    eps: MatrixField
    omega: float
    current: VectorField

    def __post_init__(self):
        object.__setattr__(self, "mu_inv", self.mu_inv if isinstance(self.mu_inv, MatrixField) else MatrixField(self.mu_inv))
        object.__setattr__(self, "eps", self.eps if isinstance(self.eps, MatrixField) else MatrixField(self.eps))
        object.__setattr__(self, "current", self.current if isinstance(self.current, VectorField) else VectorField(self.current))
        if not (self.omega > 0):
            raise ValueError("omega must be positive")
        sample = np.array([[-0.9, 0.4, 0.7], [0.0, 0.0, 0.0], [0.8, -0.5, -1.0], [0.3, 0.9, -0.2]])
        for fld in (self.mu_inv, self.eps):
            mats = fld(sample)
            if np.abs(mats - np.swapaxes(mats, 1, 2)).max() > 1e-14:
                raise ValueError("coefficient matrices must be symmetric")


@dataclass(frozen=True)
class QuadratureConfig:
    """The three reference rules: q1 curl-curl, q2 mass, q3 load."""

    q1: RefQuadratureRule
    q2: RefQuadratureRule
    q3: RefQuadratureRule


def reference_config(degree: int = 10) -> QuadratureConfig:
    """High-degree configuration used as the 'exact integration' stand-in."""
    rule = rule_for_degree(degree)
    return QuadratureConfig(rule, rule, rule)


# -- dof numbering -------------------------------------------------------------

def _dof_layout(mesh: TetMesh, order: int):
    """Global dof count, per-element dof map and the PEC-constrained mask.

    Order 1 has one dof per edge; order 2 has two per edge, then two per face.
    """
    ne = mesh.n_edges
    on_boundary = np.zeros(ne + mesh.n_faces, dtype=bool)       # edges, then faces
    on_boundary[mesh.boundary_edges] = True
    on_boundary[ne + mesh.boundary_faces] = True
    if order == 1:
        return ne, mesh.tet2edge.copy(), on_boundary[:ne]
    if order == 2:
        entity = np.concatenate([mesh.tet2edge, ne + mesh.tet2face], axis=1)
        gdof = (2 * entity[:, :, None] + np.arange(2)).reshape(mesh.n_tets, 20)
        return 2 * len(on_boundary), gdof, np.repeat(on_boundary, 2)
    raise ValueError("order must be 1 or 2")


def _orientation_transforms(mesh: TetMesh, basis: CurlBasis) -> np.ndarray:
    """Per-element dof transforms X (nt, nd, nd), looked up by vertex-id ranking."""
    rank = np.argsort(np.argsort(mesh.tets, axis=1), axis=1)
    # position of each ranking in the lexicographic RANKINGS: its Lehmer code
    lehmer = np.triu(rank[:, :, None] > rank[:, None, :], 1).sum(axis=2)
    return orientation_table(basis.order)[lehmer @ np.array([6, 2, 1, 0])]


def _local_coefficients(mesh: TetMesh, order: int, *dof_vectors):
    """For each full dof vector, its (nt, nd) coefficients in the elements' local bases."""
    n_dofs, gdof, _ = _dof_layout(mesh, order)
    if any(len(dofs) != n_dofs for dofs in dof_vectors):
        raise ValueError(f"dof vectors must have the full length {n_dofs}")
    X = _orientation_transforms(mesh, curl_basis(order))
    return [np.einsum("emd,ed->em", X, np.asarray(dofs, dtype=complex)[gdof]) for dofs in dof_vectors]


@dataclass
class SparseSystem:
    """Assembled complex system after PEC elimination.

    ``matrix``/``rhs`` are the reduced (free-dof) objects; ``full_matrix`` and
    ``full_rhs`` keep the unconstrained scatter for cross-checks and form
    evaluation.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    constrained: np.ndarray
    n_free: int
    full_matrix: sp.csr_matrix
    full_rhs: np.ndarray
    mesh: TetMesh
    order: int
    free_index: np.ndarray

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Insert the constrained zeros back into a reduced vector."""
        full = np.zeros(len(self.constrained), dtype=complex)
        full[self.free_index] = reduced
        return full


@dataclass
class SolutionField:
    """Discrete field: full dof vector plus per-element evaluation."""

    mesh: TetMesh
    order: int
    dofs: np.ndarray              # full layout, constrained entries zero

    def __post_init__(self):
        self.basis = curl_basis(self.order)

    @cached_property
    def local(self) -> np.ndarray:
        """Local coefficients of the physical per-element expansion, (nt, nd)."""
        return _local_coefficients(self.mesh, self.order, self.dofs)[0]

    def eval_elements(self, geo: QuadGeometry, tet_indices):
        """(values, curls) at the points of ``geo``, as (E, L, 3) arrays.

        ``geo`` maps its rule to the elements ``tet_indices`` (indices or a slice).
        """
        w = self.local[tet_indices]                   # (E, nd)
        v = np.einsum("lmc,em->elc", self.basis.eval_many(geo.rule.points), w)
        c = np.einsum("lmc,em->elc", self.basis.curl_many(geo.rule.points), w)
        return geo.covariant(v), geo.contravariant(c)


# -- element blocks and forms -------------------------------------------------

def _chunks(n_items, per_item_cost):
    step = max(1, _CHUNK_BUDGET // max(per_item_cost, 1))
    for start in range(0, n_items, step):
        yield start, min(start + step, n_items)


def _term_blocks(mesh, basis, rule, jac, origin, det, inv, kind, coeff_field, omega):
    """Element blocks of one form term for all elements, orientation not applied.

    kind is 'curl', 'mass' or 'load'.
    """
    L, nd = rule.npoints, basis.n_dofs
    nt = mesh.n_tets
    table = (basis.curl_many(rule.points) if kind == "curl" else basis.eval_many(rule.points))[None]

    out = np.zeros((nt, nd, nd), dtype=complex) if kind != "load" else np.zeros((nt, nd), dtype=complex)
    for lo, hi in _chunks(nt, L * nd * 3):
        geo = QuadGeometry.affine(rule, jac[lo:hi], origin[lo:hi], det[lo:hi], inv[lo:hi])
        phys = geo.contravariant(table) if kind == "curl" else geo.covariant(table)
        coeff = coeff_field(geo.points.reshape(-1, 3))
        if kind == "load":
            cur = coeff.reshape(hi - lo, L, 3)
            out[lo:hi] = -1j * omega * np.einsum("el,elp,elip->ei", geo.weights, cur, phys)
        else:
            mat = coeff.reshape(hi - lo, L, 3, 3)
            block = np.einsum("el,elip,elpq,eljq->eij", geo.weights, phys, mat, phys)
            out[lo:hi] = block if kind == "curl" else -omega ** 2 * block
    return out


def assemble(mesh: TetMesh, order: int, coeffs: Coefficients, config: QuadratureConfig) -> SparseSystem:
    """Assemble the numeric forms into a PEC-constrained sparse system."""
    basis = curl_basis(order)
    n_dofs, gdof, constrained = _dof_layout(mesh, order)
    jac, origin, det, inv = all_affine_data(mesh)
    if np.any(det <= 0):
        raise ValueError("mesh must be positively oriented")

    A = _term_blocks(mesh, basis, config.q1, jac, origin, det, inv, "curl", coeffs.mu_inv, coeffs.omega)
    M = _term_blocks(mesh, basis, config.q2, jac, origin, det, inv, "mass", coeffs.eps, coeffs.omega)
    f = _term_blocks(mesh, basis, config.q3, jac, origin, det, inv, "load", coeffs.current, coeffs.omega)

    X = _orientation_transforms(mesh, basis)
    K = np.einsum("emi,emn,enj->eij", X, A + M, X)
    fo = np.einsum("emi,em->ei", X, f)

    nd = basis.n_dofs
    rows = np.repeat(gdof, nd, axis=1).ravel()
    cols = np.tile(gdof, (1, nd)).ravel()
    full = sp.coo_matrix((K.ravel(), (rows, cols)), shape=(n_dofs, n_dofs)).tocsr()
    full_rhs = np.zeros(n_dofs, dtype=complex)
    np.add.at(full_rhs, gdof.ravel(), fo.ravel())

    free = np.flatnonzero(~constrained)
    reduced = full[free][:, free].tocsr()
    reduced.sum_duplicates()
    return SparseSystem(
        matrix=reduced,
        rhs=full_rhs[free],
        constrained=constrained,
        n_free=len(free),
        full_matrix=full,
        full_rhs=full_rhs,
        mesh=mesh,
        order=order,
        free_index=free,
    )


def evaluate_forms(mesh: TetMesh, order: int, coeffs: Coefficients, config: QuadratureConfig,
                   U_dofs: np.ndarray, V_dofs: np.ndarray):
    """Numeric forms evaluated directly by quadrature from full dof vectors.

    Returns (Phi(U, V), F(V)); sesquilinear in (U, conj V).  Passing
    :func:`reference_config` gives the high-degree 'exact' reference values.
    """
    basis = curl_basis(order)
    u_loc, v_loc = _local_coefficients(mesh, order, U_dofs, V_dofs)
    affine = all_affine_data(mesh)

    phi = 0.0 + 0.0j
    load = 0.0 + 0.0j
    nt = mesh.n_tets

    for kind, rule in (("curl", config.q1), ("mass", config.q2), ("load", config.q3)):
        L = rule.npoints
        table = basis.curl_many(rule.points) if kind == "curl" else basis.eval_many(rule.points)
        for lo, hi in _chunks(nt, L * 4):
            geo = QuadGeometry.affine(rule, *(a[lo:hi] for a in affine))
            push = geo.contravariant if kind == "curl" else geo.covariant
            pts = geo.points.reshape(-1, 3)
            v = push(np.einsum("lnc,en->elc", table, v_loc[lo:hi]))
            if kind == "load":
                cur = coeffs.current(pts).reshape(hi - lo, L, 3)
                load += -1j * coeffs.omega * np.einsum("el,elp,elp->", geo.weights, cur, v.conj())
                continue
            u = push(np.einsum("lnc,en->elc", table, u_loc[lo:hi]))
            field, scale = (coeffs.mu_inv, 1.0) if kind == "curl" else (coeffs.eps, -coeffs.omega ** 2)
            mat = field(pts).reshape(hi - lo, L, 3, 3)
            phi += scale * np.einsum("el,elpq,elq,elp->", geo.weights, mat, u, v.conj())
    return complex(phi), complex(load)


def dump_matrix(system: SparseSystem, full: bool = False) -> str:
    """Coordinate text dump `i j re im` (0-based) of the assembled matrix."""
    mat = (system.full_matrix if full else system.matrix).tocoo()
    lines = [f"{i} {j} {v.real:.17g} {v.imag:.17g}" for i, j, v in zip(mat.row, mat.col, mat.data)]
    return "\n".join(lines) + "\n"
