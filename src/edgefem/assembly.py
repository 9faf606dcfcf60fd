"""Numeric sesquilinear/antilinear forms, global assembly and PEC elimination.

Three independent reference rules drive the three terms:

    q1 :  curl-curl      sum_K Q1_K( mu^-1 curl u . conj curl v )
    q2 :  mass           sum_K Q2_K( -omega^2 eps u . conj v )
    q3 :  load           sum_K Q3_K( -i omega J . conj v )

Coefficients are evaluated at the physical quadrature points (no coefficient
interpolation).  Arrays keep the dtype of their data, so real coefficients give a
float64 matrix, and a load vector whose imaginary parts are all exactly 0 is stored
as float64.  Assembly scatters element blocks with the orientation transform applied,
then eliminates every DOF on a boundary edge or face (PEC: vanishing tangential trace).
Element blocks are accumulated in a fixed element order, so repeated
assemblies of the same inputs are bit-identical.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import QuadGeometry, TetMesh, all_affine_data
from .quadrature import RefQuadratureRule, rule_for_degree
from .reference_element import LOCAL_EDGES, CurlBasis, _mono_values, curl_basis, orientation_table

__all__ = [
    "MatrixField",
    "VectorField",
    "Coefficients",
    "QuadratureConfig",
    "EdgeSpace",
    "SparseSystem",
    "SolutionField",
    "assemble",
    "evaluate_forms",
    "reference_config",
]

_CHUNK_BUDGET = 1_500_000   # values (real or complex) of scratch held by one chunk of a per-element kernel


class _Field:
    """A (possibly constant) field of values per point, real or complex as given, each of one of
    the shapes ``shapes``; a matrix field of scalars means those multiples of I."""

    def __init__(self, value):
        self.constant, self._fn = None, value
        if not callable(value):
            val = np.asarray(value)
            if () in self.shapes and val.shape == (3, 3) and np.array_equal(val, val[0, 0] * np.eye(3)):
                val = val[0, 0]
            if val.shape not in self.shapes:
                raise ValueError(f"constant {type(self).__name__} must have shape {self.shapes[0]}")
            self.constant, self._fn = val, None

    def __call__(self, pts):
        """Values at the points (N, 3), of shape (N,) + one of ``shapes``."""
        pts = np.atleast_2d(pts)
        if self.constant is not None:
            return np.broadcast_to(self.constant, (len(pts),) + self.constant.shape)
        out = np.asarray(self._fn(pts))
        if out.shape[:1] != (len(pts),) or out.shape[1:] not in self.shapes:
            expected = " or ".join(str((len(pts),) + shape) for shape in self.shapes)
            raise ValueError(f"{type(self).__name__} must return {expected}, got {out.shape}")
        return out


class MatrixField(_Field):
    """A field of symmetric 3x3 matrices; a scalar, a scalar per point or an exact
    multiple of I is held as a scalar field, that multiple of I."""

    shapes = ((3, 3), ())


class VectorField(_Field):
    """A field of 3-vectors."""

    shapes = ((3,),)


@dataclass(frozen=True)
class Coefficients:
    """PDE data: inverse permeability, permittivity, frequency and current.

    A constant field must be finite everywhere; a callable one is checked, for finite values and
    symmetric matrices, only at four sample points."""

    mu_inv: MatrixField
    eps: MatrixField
    omega: float
    current: VectorField

    def __post_init__(self):
        for name, kind in (("mu_inv", MatrixField), ("eps", MatrixField), ("current", VectorField)):
            fld = getattr(self, name)
            fld = fld if isinstance(fld, kind) else kind(fld)
            object.__setattr__(self, name, fld)
            if fld.constant is not None and not np.isfinite(fld.constant).all():
                raise ValueError(f"coefficient {name} has a non-finite constant: {fld.constant.tolist()}")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        sample = np.array([[-0.9, 0.4, 0.7], [0.0, 0.0, 0.0], [0.8, -0.5, -1.0], [0.3, 0.9, -0.2]])
        for name in ("mu_inv", "eps", "current"):
            values = getattr(self, name)(sample)
            if not np.isfinite(values).all():
                raise ValueError(f"coefficient {name} is not finite at every sample point")
            if values.ndim == 3 and np.abs(values - np.swapaxes(values, 1, 2)).max() > 1e-14:
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


# -- the discrete space ---------------------------------------------------------

_SPACES = weakref.WeakValueDictionary()   # (id(mesh), order) -> a space some caller holds


def _orientation_transforms(mesh: TetMesh) -> np.ndarray:
    """The ranking (nt,) uint8 of every element's vertex ids, as its index in ``RANKINGS``: the
    element's dof transform is ``orientation_table(order)[ranking]``, one byte per element.  Named
    for the transforms it picks, the name under which ``perfbench/spans.py`` times it."""
    # position of each ranking in the lexicographic RANKINGS: its Lehmer code, which weighs
    # each corner pair a < b whose ids are out of order by (3 - a)!
    ids = mesh.tets.T
    return sum((6, 2, 1)[a] * (ids[a] > ids[b]) for a, b in LOCAL_EDGES).astype(np.uint8)


@dataclass(frozen=True, eq=False)
class EdgeSpace:
    """The edge-element space of ``order`` on ``mesh``, compared by identity.

    Order 1 has one dof per edge; order 2 has two per edge, then two per face.  The
    dof map, PEC mask, vertex-id rankings and element Jacobians are each computed once,
    when first read; no array of one value per pair of local dofs is kept.
    """

    mesh: TetMesh
    order: int
    basis: CurlBasis = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", curl_basis(self.order))

    @classmethod
    def of(cls, mesh: TetMesh, order: int) -> "EdgeSpace":
        """The space of (mesh, order) that some caller still holds, else a new one."""
        return _SPACES.get((id(mesh), order)) or _SPACES.setdefault((id(mesh), order), cls(mesh, order))

    @cached_property
    def constrained(self) -> np.ndarray:
        """The PEC mask: the global dofs on a boundary edge or boundary face."""
        ne = self.mesh.n_edges
        on_boundary = np.zeros(ne + self.mesh.n_faces, dtype=bool)       # edges, then faces
        on_boundary[self.mesh.boundary_edges] = True
        on_boundary[ne + self.mesh.boundary_faces] = True
        return on_boundary[:ne] if self.order == 1 else np.repeat(on_boundary, 2)

    @property
    def n_dofs(self) -> int:
        return len(self.constrained)

    @cached_property
    def gdof(self) -> np.ndarray:
        """The global dof of every local dof, (nt, nd)."""
        if self.order == 1:
            return self.mesh.tet2edge
        entity = np.concatenate([self.mesh.tet2edge, self.mesh.n_edges + self.mesh.tet2face], axis=1)
        return (2 * entity[:, :, None] + np.arange(2)).reshape(self.mesh.n_tets, 20)

    @cached_property
    def ranking(self) -> np.ndarray:
        """The vertex-id ranking of every element, (nt,), which picks its dof transform from
        ``orientation_table(order)``."""
        return _orientation_transforms(self.mesh)

    @cached_property
    def affine(self):
        """(J, origin, det, Jinv) of every element, as :func:`all_affine_data`."""
        return all_affine_data(self.mesh)


@dataclass
class SparseSystem:
    """The assembled system after PEC elimination.

    ``matrix`` and ``rhs`` hold only the free dofs, numbered as in ``free_index``; no
    unconstrained matrix is kept.  ``expand`` puts the constrained zeros back.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_free: int
    space: EdgeSpace
    free_index: np.ndarray

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """Insert the constrained zeros back into a reduced vector."""
        full = np.zeros(self.space.n_dofs, dtype=reduced.dtype)
        full[self.free_index] = reduced
        return full


@dataclass
class SolutionField:
    """Discrete field: full dof vector plus per-element evaluation."""

    space: EdgeSpace
    dofs: np.ndarray              # full layout, constrained entries zero

    def local(self, tets=slice(None)) -> np.ndarray:
        """The (E, nd) coefficients of the dof vector in the local bases of the elements ``tets``, all
        by default; computed when read, so they follow the dofs and a field kept alive holds no copy."""
        if len(self.dofs) != self.space.n_dofs:
            raise ValueError(f"dof vectors must have the full length {self.space.n_dofs}")
        X = orientation_table(self.space.order)[self.space.ranking[tets]]
        return (X @ np.asarray(self.dofs)[self.space.gdof[tets]][:, :, None])[:, :, 0]

    def polynomial(self, kind: str, tets=slice(None)) -> np.ndarray:
        """The pushed curls (kind 'curl') or values (otherwise) on the elements ``tets``, all by default,
        as (E, 3, n_mono) coefficients of the basis's monomials in the reference coordinates: a straight
        element pushes by one matrix, J / det J for curls and J^-T for values.  The one reader of a
        discrete field: form evaluation, the discrete norm and the H(curl) error read only these."""
        jac, _, det, inv = (a[tets] for a in self.space.affine)
        basis = self.space.basis
        ref = basis.curl_coeffs if kind == "curl" else basis.value_coeffs             # (nd, 3, n_mono)
        push = jac / det[:, None, None] if kind == "curl" else np.swapaxes(inv, 1, 2)
        return push @ (self.local(tets) @ ref.reshape(basis.n_dofs, -1)).reshape(len(push), 3, -1)


# -- the form terms -------------------------------------------------------------

def _terms(coeffs: Coefficients, config: QuadratureConfig):
    """(kind, rule, coefficient, scale) of the curl-curl, mass and load terms."""
    return (("curl", config.q1, coeffs.mu_inv, 1.0),
            ("mass", config.q2, coeffs.eps, -coeffs.omega ** 2),
            ("load", config.q3, coeffs.current, -1j * coeffs.omega))


def _real_times(a, b):
    """a @ b for real a; a complex b as one real product on its interleaved real and imaginary parts."""
    return a @ b if not np.iscomplexobj(b) else (a @ np.ascontiguousarray(b).view(float)).view(complex)


def _coefficient_times(c, u):
    """c u at every point, for u (..., 3) vectors: c (...) are scalars, multiples of I, and
    c (..., 3, 3) matrices are applied column by column."""
    if c.ndim < u.ndim:
        return c[..., None] * u
    return c[..., 0] * u[..., :1] + c[..., 1] * u[..., 1:2] + c[..., 2] * u[..., 2:]


def _geometries(rule, affine, per_point, per_element=0):
    """(chunk, geometry of ``rule`` on it) for consecutive runs of the elements whose (J, origin,
    det, Jinv) are ``affine``, each at most _CHUNK_BUDGET // (per_point * npoints + per_element)
    long: the one chunk loop of the straight-element kernels, per_point and per_element being a
    kernel's scratch values per point and per element."""
    nt, step = len(affine[0]), max(1, _CHUNK_BUDGET // (per_point * rule.npoints + per_element))
    for lo in range(0, nt, step):
        chunk = slice(lo, min(lo + step, nt))
        yield chunk, QuadGeometry.affine(rule, *(a[chunk] for a in affine))


def _blocks(geo: QuadGeometry, kind: str, basis: CurlBasis, coeff, scale):
    """One term's element blocks B (E, nd, nd), or load vectors f (E, nd), on any ``geo``, straight or
    curved, times ``scale`` in the dtype the coefficient and scale give, orientation not applied: over the
    shape data phi, curls pushed contravariantly for 'curl' and values covariantly otherwise, B_ij sums
    w (c phi_j) . phi_i and f_i sums w c . phi_i."""
    tabulate, push = (basis.curl_many, geo.contravariant) if kind == "curl" else (basis.eval_many, geo.covariant)
    phys = push(tabulate(geo.rule.points)[None])                        # (E, L, nd, 3)
    ne, npts, nd, _ = phys.shape
    c = coeff(geo.points.reshape(-1, 3))                                # (N,), (N, 3) or (N, 3, 3)
    w = (scale * geo.weights).reshape((ne, npts) + (1,) * (c.ndim - 1))
    wc = w * c.reshape((ne, npts) + c.shape[1:])
    rows = phys.transpose(0, 2, 1, 3).reshape(ne, nd, 3 * npts)
    if kind == "load":
        return _real_times(rows, wc.reshape(ne, 3 * npts, 1))[:, :, 0]
    cu = _coefficient_times(wc[:, :, None], phys)                       # (E, L, nd, 3)
    del phys                            # freed first: the transposed copy of cu below has its size
    return _real_times(rows, cu.transpose(0, 1, 3, 2).reshape(ne, 3 * npts, nd))


def _term_blocks(mesh, basis, rule, jac, origin, det, inv, kind, coeff_field, scale, *, into=None):
    """:func:`_blocks` of one term for all elements of ``mesh``, whose (J, origin, det, Jinv) are given;
    with ``into``, blocks of another term, they are added to it chunk by chunk, in the wider dtype of
    the two, and the sum is returned."""
    dtype = np.result_type(coeff_field(origin[:1]), scale, np.float64)
    if into is None:
        # allocated before the first chunk frees its scratch, whose heap space glibc's malloc would
        # otherwise give it: that left 6 MiB more resident through an order-2 scatter at n=8
        out = np.empty((mesh.n_tets, basis.n_dofs) + ((basis.n_dofs,) if kind != "load" else ()), dtype)
    else:
        out = into.astype(np.result_type(dtype, into), copy=False)
    # per point and pushed table entry: the table and its transpose (half each, being real),
    # c u with the temporaries that form it, and its transpose
    for chunk, geo in _geometries(rule, (jac, origin, det, inv), 5 * basis.n_dofs * 3):
        if into is None:
            out[chunk] = _blocks(geo, kind, basis, coeff_field, scale)
        else:
            out[chunk] += _blocks(geo, kind, basis, coeff_field, scale)
    return out


def _orient(K, f, table, ranking):
    """X^T K X and f X in place for the blocks K (E, nd, nd) and loads f (E, nd), X = table[ranking], over
    chunks of at most 65,536 block values that reuse two workspaces."""
    nd = K.shape[-1]
    step = max(1, 65_536 // nd ** 2)
    X, XtK = np.empty((step, nd, nd)), np.empty((step, nd, nd), K.dtype)
    for lo in range(0, len(K), step):
        hi = min(lo + step, len(K))
        x = np.take(table, ranking[lo:hi], axis=0, out=X[:hi - lo], mode="clip")
        np.matmul(np.matmul(np.swapaxes(x, 1, 2), K[lo:hi], out=XtK[:hi - lo]), x, out=K[lo:hi])
        f[lo:hi] = _real_times(np.swapaxes(x, 1, 2), f[lo:hi, :, None])[:, :, 0]


def assemble(mesh: TetMesh, order: int, coeffs: Coefficients, config: QuadratureConfig) -> SparseSystem:
    """Assemble the numeric forms into a PEC-constrained sparse system."""
    space = EdgeSpace.of(mesh, order)
    nd, n = space.basis.n_dofs, space.n_dofs
    curl, mass, load = ((space.basis, rule, *space.affine, kind, coeff, scale)
                        for kind, rule, coeff, scale in _terms(coeffs, config))
    # only the sum of the curl-curl and mass blocks is used, so one array holds it
    K = _term_blocks(mesh, *mass, into=_term_blocks(mesh, *curl))
    f = _term_blocks(mesh, *load)
    _orient(K, f, orientation_table(order), space.ranking)

    # scipy stores these indices as int32 whenever they fit: build them so, and it keeps them
    index = space.gdof.astype(np.int64 if n > np.iinfo(np.int32).max else np.int32)
    rhs = np.zeros(n, dtype=f.dtype)
    np.add.at(rhs, index.ravel(), f.ravel())
    del f
    if not rhs.imag.any():            # -i omega J is real: keep the load vector in float64
        rhs = rhs.real

    # the CSR that coo_matrix((K, (rows, cols))).tocsr() builds before it sums duplicates: every
    # global row lists its (element, local row) pairs in element order, each with the element's columns
    pairs = np.argsort(index.ravel(), kind="stable")
    data = K.reshape(-1, nd)[pairs].ravel()
    del K
    indices = index[pairs // nd].ravel()
    del pairs
    indptr = np.concatenate([[0], np.cumsum(nd * np.bincount(index.ravel(), minlength=n))])
    full = sp.csr_matrix((data, indices, indptr), shape=(n, n))
    del data, indices
    full.sum_duplicates()

    free = np.flatnonzero(~space.constrained)
    rows = full[free]
    del full
    return SparseSystem(matrix=rows[:, free], rhs=rhs[free], n_free=len(free), space=space, free_index=free)


def _moment_table(rule, basis, kind):
    """The rule's weighted monomials of the reference coordinates, over the basis's monomials of
    its curls for 'curl' and of its values otherwise: w_l x_l^m (L, n) for 'load', else the
    products w_l x_l^m x_l^n (L, n n), whose sum over the points is the rule's Gram matrix."""
    p = _mono_values(basis.curl_monos if kind == "curl" else basis.value_monos, rule.points)
    if kind != "load":
        p = (p[:, :, None] * p[:, None, :]).reshape(len(p), -1)
    return rule.weights[:, None] * p


def _moment_term(kind, moments, a, b, absdet):
    """Unscaled value of one term on E straight elements from the monomial coefficients a of u
    (unused for 'load') and b of v, (E, 3, n), and |det J| (E,): the sum over the elements of
    |det J| conj(b) . y, where y (E, 3, n) is the coefficient's ``moments`` applied to a.

    ``moments`` (E, J, K), or (1, J, K) for a constant, holds the integrals of each of the
    coefficient's K entries against the columns of :func:`_moment_table`: the K = 3 components
    of the load are y themselves, a scalar (K = 1) gives y = a Q with Q the (n, n) moments, and
    the 9 entries (c, d) of a matrix give y_c = sum_d a_d Q_cd."""
    n, lead = b.shape[-1], moments.shape[:-2]
    if kind == "load":
        y = np.swapaxes(moments, -1, -2)
    elif moments.shape[-1] == 1:
        y = a @ moments.reshape(lead + (n, n))
    else:
        q = np.moveaxis(moments.reshape(lead + (n, n, 3, 3)), (-2, -1), (-4, -3))     # (..., c, d, m, n)
        y = (a.reshape(len(a), 1, 1, 3 * n) @ q.reshape(lead + (3, 3 * n, n))).reshape(a.shape)
    # an einsum, not a BLAS dot, whose threads can take milliseconds to wake on a busy host
    return np.einsum("e,ecm,ecm->", absdet, b.conj(), y)


def evaluate_forms(mesh: TetMesh, order: int, coeffs: Coefficients, config: QuadratureConfig,
                   U_dofs: np.ndarray, V_dofs: np.ndarray):
    """Numeric forms evaluated directly by quadrature from full dof vectors.

    Returns (Phi(U, V), F(V)); sesquilinear in (U, conj V).  Passing
    :func:`reference_config` gives the high-degree 'exact' reference values.

    On a straight element the pushed fields are polynomials of the reference coordinates
    (:meth:`SolutionField.polynomial`), so every term contracts their coefficients with the
    moments of its coefficient against the rule's monomials: the coefficient is read at every
    rule point, the fields at none.
    """
    space = EdgeSpace.of(mesh, order)
    U, V = (SolutionField(space, dofs) for dofs in (U_dofs, V_dofs))
    fields = {curl: (U.polynomial(kind), V.polynomial(kind)) for curl, kind in ((True, "curl"), (False, "mass"))}
    absdet = np.abs(space.affine[2])
    terms = _terms(coeffs, config)

    forms = [0j, 0j]                  # Phi, F
    for rule in {id(rule): rule for _, rule, _, _ in terms}.values():
        on_rule = []
        for kind, _, coeff, scale in (t for t in terms if t[1] is rule):
            table = _moment_table(rule, space.basis, kind)
            const = None if coeff.constant is None else (table.sum(axis=0)[:, None] * coeff.constant.reshape(-1))[None]
            on_rule.append((kind, coeff, scale, table, const, fields[kind == "curl"]))
        # per point: the physical point and weight (4), a matrix coefficient and the temporaries
        # of its evaluation (14); per element: the moments of a matrix coefficient and their
        # reordered copy (2 x 9 n^2)
        for chunk, geo in _geometries(rule, space.affine, 18, 18 * len(space.basis.value_monos) ** 2):
            for kind, coeff, scale, table, moments, (a, b) in on_rule:
                if moments is None:
                    c = coeff(geo.points.reshape(-1, 3)).reshape(len(geo.points), rule.npoints, -1)
                    moments = _real_times(table.T, c)                                    # (E, J, K)
                forms[kind == "load"] += scale * _moment_term(kind, moments, a[chunk], b[chunk], absdet[chunk])
    return complex(forms[0]), complex(forms[1])
