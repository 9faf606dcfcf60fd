"""Error norms, convergence-rate fits and quadrature consistency probes.

Errors against a manufactured field use per-element integration with a
certified high-degree rule.  The consistency probes measure the gap between
the configured numeric forms and a high-degree reference ('exact') evaluation;
the curved probe measures the same gap on a single quadratic element family
that shrinks with its curvature scaling like the square of its size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    Coefficients,
    EdgeSpace,
    QuadratureConfig,
    SolutionField,
    _chunks,
    _integrand,
    _push,
    evaluate_forms,
    reference_config,
)
from .mesh import CurvedMap, QuadGeometry, TetMesh, structured_cube_mesh
from .quadrature import RefQuadratureRule, builtin_rule, rule_for_degree, tensorized_gl
from .reference_element import LOCAL_EDGES, REF_VERTICES, curl_basis, dof_values

__all__ = [
    "ErrorRecord",
    "RateFit",
    "hcurl_error",
    "fit_rate",
    "records_to_csv",
    "discrete_hcurl_norm",
    "interpolate",
    "smooth_random_field",
    "probe_field",
    "consistency_error",
    "consistency_probe",
    "curved_local_error",
    "curved_probe",
    "shrunk_quadratic_map",
    "CSV_HEADER",
]

DEFAULT_SEED = 1318

CSV_HEADER = "n,h,dofs,l2_error,curl_error,hcurl_error,iters"


@dataclass(frozen=True)
class ErrorRecord:
    """One mesh's error entry of a convergence study."""

    n: int
    h: float
    dofs: int
    l2_error: float
    curl_error: float
    iterations: int = 0
    hcurl_error: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hcurl_error", math.hypot(self.l2_error, self.curl_error))


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    n_points: int
    residual: float


def fit_rate(records, x_axis: str = "dofs", window: int = 0) -> RateFit:
    """Least-squares slope of log(error) against log(h) or log(dofs).

    ``window`` keeps only the last that many records (0 = all); at least
    three points are required.
    """
    if x_axis not in ("h", "dofs"):
        raise ValueError("x_axis must be 'h' or 'dofs'")
    xs = [getattr(r, x_axis) for r in records]
    ys = [r.hcurl_error for r in records]
    if window:
        xs, ys = xs[-window:], ys[-window:]
    if len(xs) < 3:
        raise ValueError("rate fit needs at least 3 points")
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), len(xs), resid)


def _check_mesh_ns(mesh_ns, rate: bool):
    """Raise before any level is computed unless ``mesh_ns`` strictly increases from n >= 1 and,
    for a rate fit, lists at least 3 meshes."""
    if any(b <= a for a, b in zip([0, *mesh_ns], mesh_ns)):
        raise ValueError(f"mesh_ns must be strictly increasing with every n >= 1, got {list(mesh_ns)}")
    if rate and len(mesh_ns) < 3:
        raise ValueError(f"mesh_ns must list at least 3 meshes to fit a rate, got {list(mesh_ns)}")


def records_to_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
        f"{r.n},{r.h:.17g},{r.dofs},{r.l2_error:.17g},{r.curl_error:.17g},{r.hcurl_error:.17g},{r.iterations}"
        )
    return "\n".join(lines) + "\n"


def _error_integrals(sol: SolutionField, exact, exact_curl, rule: RefQuadratureRule):
    space = sol.space
    squares = [0.0, 0.0]
    # per point: values and curls (6) and the products they are pushed from (6), one exact
    # field, its difference and the weighted difference (6), the physical point and weight (2)
    for lo, hi in _chunks(space.mesh.n_tets, 20 * rule.npoints):
        geo = QuadGeometry.affine(rule, *(a[lo:hi] for a in space.affine))
        flat = geo.points.reshape(-1, 3)
        for i, (discrete, fn) in enumerate(zip(sol.eval_elements(geo, slice(lo, hi)), (exact, exact_curl))):
            diff = discrete - np.asarray(fn(flat)).reshape(discrete.shape)
            squares[i] += np.vdot(diff, geo.weights[..., None] * diff).real
    return tuple(squares)


def hcurl_error(sol: SolutionField, exact_pair, quad_degree: int,
                n: int = 0, dofs: int = 0, iterations: int = 0) -> ErrorRecord:
    """H(curl) error of a discrete field against a manufactured pair.

    ``exact_pair`` is (E, curl E), both callables mapping (N, 3) points to
    (N, 3) values.  The integration rule is certified to ``quad_degree``.
    """
    if quad_degree < 2 * sol.space.order + 4:
        raise ValueError("quad_degree must be at least 2k+4")
    rule = rule_for_degree(quad_degree)
    l2_sq, curl_sq = _error_integrals(sol, exact_pair[0], exact_pair[1], rule)
    return ErrorRecord(n=n, h=sol.space.mesh.h, dofs=dofs,
                       l2_error=math.sqrt(l2_sq), curl_error=math.sqrt(curl_sq),
                       iterations=iterations)


def discrete_hcurl_norm(sol: SolutionField) -> float:
    """sqrt(||u||^2 + ||curl u||^2) of a discrete field."""
    rule = rule_for_degree(2 * sol.space.order + 2)
    zero = lambda pts: np.zeros((len(pts), 3))
    l2_sq, curl_sq = _error_integrals(sol, zero, zero, rule)
    return math.sqrt(l2_sq + curl_sq)


def interpolate(space: EdgeSpace, field) -> np.ndarray:
    """Tangential-moment interpolant of a smooth vector field, full dof layout.

    Applies the dof functionals of :func:`dof_values` to the mesh's edges and faces, whose
    vertex ids ascend, so a field already in the discrete space is reproduced exactly, in the
    dtype of its values.
    """
    return dof_values(field, space.order, space.mesh.vertices, space.mesh.edges, space.mesh.faces)


def smooth_random_field(seed: int, n_modes: int = 4):
    """A fixed random smooth vector field (finite low-frequency spectrum)."""
    rng = np.random.default_rng(seed)
    kvecs = rng.integers(1, 3, size=(n_modes, 3)).astype(float) * (np.pi / 2.0)
    amps = rng.standard_normal((n_modes, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_modes, 3))

    def field(pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((len(pts), 3))
        for k, a, p in zip(kvecs, amps, phases):
            out += a[None, :] * np.sin((pts @ k)[:, None] + p[None, :])
        return out

    return field


def probe_field(space: EdgeSpace, seed: int) -> np.ndarray:
    """Interpolated fixed random smooth field, PEC-zeroed, H(curl)-normalized."""
    u = interpolate(space, smooth_random_field(seed))
    u[space.constrained] = 0.0
    return u / discrete_hcurl_norm(SolutionField(space, u))


def consistency_error(mesh: TetMesh, order: int, coeffs: Coefficients, config: QuadratureConfig,
                      U_dofs, V_dofs):
    """|Phi - Phi_h| and |F - F_h| between the configured and reference rules."""
    phi_h, load_h = evaluate_forms(mesh, order, coeffs, config, U_dofs, V_dofs)
    phi, load = evaluate_forms(mesh, order, coeffs, reference_config(), U_dofs, V_dofs)
    return abs(phi - phi_h), abs(load - load_h)


def consistency_probe(order: int, mesh_ns, coeffs: Coefficients, config: QuadratureConfig,
                      seed: int = DEFAULT_SEED, builder=None):
    """Refinement sweep of the form-consistency gap with normalized probe fields.

    Returns (rows, fit) where each row is (n, h, |Phi - Phi_h|, |F - F_h|) and
    the fit is the log-log slope of the sesquilinear gap against h.
    """
    _check_mesh_ns(mesh_ns, rate=True)
    builder = builder or structured_cube_mesh
    rows = []
    for n in mesh_ns:
        # the probe fields and both form evaluations share this one space
        space = EdgeSpace.of(builder(n), order)
        U, V = probe_field(space, seed + 11), probe_field(space, seed + 23)
        dphi, dload = consistency_error(space.mesh, order, coeffs, config, U, V)
        rows.append((n, space.mesh.h, dphi, dload))
    records = [ErrorRecord(n=n, h=h, dofs=1, l2_error=max(dphi, 1e-300), curl_error=0.0)
               for n, h, dphi, _ in rows]
    return rows, fit_rate(records, "h")


# -- curved single-element probe -------------------------------------------------

# mid-edge bumps of the shrunk family: local edge -> offset, scaled by s^2
_BUMPS = {0: np.array([0.0, 0.12, 0.10]), 5: np.array([0.14, 0.0, -0.08])}

# the curved probe's modes and the form terms they measure
_CURVED_KINDS = {"mass": "mass", "curlcurl": "curl", "load": "load"}


def _curved_kind(mode: str) -> str:
    """The term kind a curved-probe mode measures; ValueError naming an unknown mode."""
    if mode not in _CURVED_KINDS:
        raise ValueError(f"curved probe mode must be one of {sorted(_CURVED_KINDS)}, got {mode!r}")
    return _CURVED_KINDS[mode]


def shrunk_quadratic_map(s: float) -> CurvedMap:
    """A quadratic element of size s whose mid-edge bumps scale like s^2.

    The s^2 scaling keeps the family regular in the mapping sense (second
    derivatives of the map decay like the squared element size, as for meshes
    of a fixed smooth boundary).
    """
    ctrl = [s * v for v in REF_VERTICES]
    for k, (a, b) in enumerate(LOCAL_EDGES):
        mid = s * (REF_VERTICES[a] + REF_VERTICES[b]) / 2.0
        if k in _BUMPS:
            mid = mid + s * s * _BUMPS[k]
        ctrl.append(mid)
    return CurvedMap(np.array(ctrl))


def curved_local_error(cmap: CurvedMap, coeff, rule: RefQuadratureRule, order: int, mode: str) -> float:
    """Quadrature error of one form term on a single curved element.

    ``coeff`` is a matrix field for modes 'mass' and 'curlcurl', a vector field
    for 'load'.  The integrand is the consistency probe's, for fixed reference
    dof vectors; the reference value integrates it with a high-degree
    certified tensor rule through the same map.
    """
    kind = _curved_kind(mode)
    basis = curl_basis(order)
    u = np.cos(1.0 + np.arange(basis.n_dofs))[None]
    v = np.sin(2.0 + 0.7 * np.arange(basis.n_dofs))[None]

    def value(r):
        geo = QuadGeometry.curved(r, cmap)
        return _integrand(geo, kind, coeff, _push(geo, kind, basis, u), _push(geo, kind, basis, v))

    return float(abs(value(tensorized_gl(10)) - value(rule)))


def probe_matrix_field(pts):
    """Smooth non-polynomial symmetric matrix coefficient for the curved probe."""
    pts = np.atleast_2d(pts)
    out = np.zeros((len(pts), 3, 3))
    base = 2.0 + 0.7 * np.sin(pts[:, 0] + 2.0 * pts[:, 1] - pts[:, 2])
    out[:, 0, 0] = out[:, 1, 1] = out[:, 2, 2] = base
    off = 0.4 * np.cos(2.0 * pts[:, 0] - pts[:, 1])
    out[:, 0, 1] = out[:, 1, 0] = off
    return out


def probe_vector_field(pts):
    pts = np.atleast_2d(pts)
    return np.column_stack([
        np.sin(pts[:, 0] + pts[:, 1]),
        np.cos(2.0 * pts[:, 1] + pts[:, 2]),
        np.sin(pts[:, 0]) * np.cos(pts[:, 2]),
    ])


def curved_rule_degree(mode: str, order: int, m: int) -> int:
    """Exactness threshold of the curved local error lemma for one form term
    (map degree r = 2: k + r + m - 3 for curl-curl, k + 2r + m - 3 otherwise)."""
    if _curved_kind(mode) == "curl":
        return order + m - 1
    return order + m + 1


def curved_probe_degree(mode: str, order: int, m: int, below: bool = False) -> int:
    """Degree of the rule the curved probe uses: the threshold, minus 1 when ``below``."""
    degree = curved_rule_degree(mode, order, m) - (1 if below else 0)
    if degree < 0:
        raise ValueError(f"curved probe rule degree {degree} is below zero; nothing to probe")
    return degree


def curved_probe(mode: str, order: int, m: int, below: bool = False,
                 svals=(0.5, 0.25, 0.125, 0.0625)):
    """Shrinking-family sweep of the curved local quadrature error.

    Returns (rows, fit): rows are (s, error); the fit is the log-log slope of
    the error against the shrink factor s.
    """
    degree = curved_probe_degree(mode, order, m, below)
    rule = builtin_rule("pt1_offcenter") if degree == 0 else rule_for_degree(degree)
    coeff = probe_vector_field if mode == "load" else probe_matrix_field
    rows = []
    for s in svals:
        err = curved_local_error(shrunk_quadratic_map(s), coeff, rule, order, mode)
        rows.append((s, err))
    records = [ErrorRecord(n=0, h=s, dofs=1, l2_error=max(e, 1e-300), curl_error=0.0) for s, e in rows]
    return rows, fit_rate(records, "h")
