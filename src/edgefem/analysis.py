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
    _blocks,
    _geometries,
    _moment_table,
    _moment_term,
    evaluate_forms,
    reference_config,
)
from .mesh import CurvedMap, QuadGeometry, TetMesh, structured_cube_mesh
from .quadrature import RefQuadratureRule, builtin_rule, rule_for_degree, tensorized_gl
from .reference_element import LOCAL_EDGES, REF_VERTICES, _mono_values, curl_basis, dof_values

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

EXACT_GAP = 1e-10       # a probe whose every gap is at most this is exact


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


def _log_fit(xs, ys) -> RateFit:
    """Least-squares line through (log x, log y); at least three points are required."""
    if len(xs) < 3:
        raise ValueError("rate fit needs at least 3 points")
    lx, ly = np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float))
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return RateFit(float(slope), float(intercept), len(xs), resid)


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
    return _log_fit(xs, ys)


def _probe_fit(levels, xs, gaps) -> RateFit | None:
    """The log-log slope of a probe's gaps against its sizes ``xs``, or None when every gap is
    at most EXACT_GAP: an exact probe has no rate.  A gap of 0 among larger ones is a
    ValueError naming its level."""
    if all(gap <= EXACT_GAP for gap in gaps):
        return None
    for level, gap in zip(levels, gaps):
        if gap <= 0.0:
            raise ValueError(f"probe gap at {level} is {gap!r} while others exceed {EXACT_GAP}: "
                             "no rate can be fitted through it")
    return _log_fit(xs, gaps)


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
    """The squared L2 errors of the field's values and curls against ``exact`` and ``exact_curl``: per
    chunk the field is one GEMM of its (E, 3n) monomial rows with T[(c, m), (l, d)] = delta_cd x_l^m
    (3n, 3L), in the exact values' (E, L, 3) layout, and the weights |det J| w_l are factored."""
    tables = [np.einsum("cd,lm->cmld", np.eye(3), _mono_values(monos, rule.points)).reshape(3 * len(monos), -1)
              for monos in (sol.space.basis.value_monos, sol.space.basis.curl_monos)]
    squares = [0.0, 0.0]
    # per point: the physical point and weight (4), the field or its difference (3) and the exact values
    # (3), but the chunks keep their length of 20 per point: an order-2 sweep's peak RSS moves with the
    # chunk length through glibc's heap, and sized for 26 it rose by 10 MiB
    for chunk, geo in _geometries(rule, sol.space.affine, 20):
        flat = geo.points.reshape(-1, 3)
        for i, (a, fn) in enumerate(zip(sol.polynomials(chunk), (exact, exact_curl))):
            diff = a.reshape(len(a), -1) @ tables[i]                                  # (E, 3L)
            diff -= np.asarray(fn(flat)).reshape(len(a), -1)
            sq = diff.view(float) if np.iscomplexobj(diff) else diff                  # |z|^2 = re^2 + im^2
            np.square(sq, out=sq)
            squares[i] += (sq @ np.repeat(rule.weights, sq.shape[1] // rule.npoints)) @ np.abs(geo.det[:, 0])
            del diff, sq          # before the next GEMM: an order-2 sweep's peak RSS rose 1 MiB without
    return tuple(squares)


def hcurl_error(sol: SolutionField, exact_pair, quad_degree: int,
                n: int = 0, dofs: int = 0, iterations: int = 0) -> ErrorRecord:
    """H(curl) error of a discrete field against a manufactured pair.

    ``exact_pair`` is (E, curl E), both callables mapping (N, 3) points to (N, 3) values, real
    unless the field's dofs are complex.  The integration rule is certified to ``quad_degree``.
    """
    if quad_degree < 2 * sol.space.order + 4:
        raise ValueError("quad_degree must be at least 2k+4")
    rule = rule_for_degree(quad_degree)
    l2_sq, curl_sq = _error_integrals(sol, exact_pair[0], exact_pair[1], rule)
    return ErrorRecord(n=n, h=sol.space.mesh.h, dofs=dofs,
                       l2_error=math.sqrt(l2_sq), curl_error=math.sqrt(curl_sq),
                       iterations=iterations)


def discrete_hcurl_norm(sol: SolutionField) -> float:
    """sqrt(||u||^2 + ||curl u||^2) of a discrete field, in closed form on straight elements: the
    sum over the elements of |det J| a^H G a, with a the monomial coefficients of the field's
    values and of its curls and G the Gram matrix of a rule exact to their squares' degree."""
    rule = rule_for_degree(2 * sol.space.order + 2)
    absdet = np.abs(sol.space.affine[2])
    squares = 0.0
    for kind, a in zip(("mass", "curl"), sol.polynomials()):
        gram = _moment_table(rule, sol.space.basis, kind).sum(axis=0)[None, :, None]
        squares += _moment_term(kind, gram, a, a, absdet).real
    return math.sqrt(squares)


def interpolate(space: EdgeSpace, field) -> np.ndarray:
    """Tangential-moment interpolant of a smooth vector field, full dof layout.

    Applies the dof functionals of :func:`dof_values` to the mesh's edges and faces, whose
    vertex ids ascend, so a field already in the discrete space is reproduced exactly, in the
    dtype of its values.
    """
    return dof_values(field, space.order, space.mesh.vertices, space.mesh.edges, space.mesh.faces)


def smooth_random_field(seed: int):
    """A fixed random smooth vector field: a sum of 4 low-frequency sine modes."""
    rng = np.random.default_rng(seed)
    kvecs = rng.integers(1, 3, size=(4, 3)).astype(float) * (np.pi / 2.0)
    amps = rng.standard_normal((4, 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(4, 3))

    def field(pts):
        pts = np.atleast_2d(pts)
        out, t = np.zeros((len(pts), 3)), np.empty((len(pts), 3))
        for k, a, p in zip(kvecs, amps, phases):
            np.add((pts @ k)[:, None], p, out=t)
            np.sin(t, out=t)
            t *= a
            out += t
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
    the fit is the log-log slope of the sesquilinear gap against h, None when
    every gap is at most EXACT_GAP.
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
    ns, hs, gaps, _ = zip(*rows)
    return rows, _probe_fit([f"n={n}" for n in ns], hs, gaps)


# -- curved single-element probe -------------------------------------------------

# mid-edge bumps of the shrunk family: local edge -> offset, scaled by s^2
_BUMPS = {0: np.array([0.0, 0.12, 0.10]), 5: np.array([0.14, 0.0, -0.08])}

# the shrink factors s of the curved probe's sweep
CURVED_SVALS = (0.5, 0.25, 0.125, 0.0625)

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
    for 'load'.  The term's value v . (B u), or v . f, contracts assembly's element
    block (:func:`_blocks`) with fixed real dof vectors; the reference block comes
    from a high-degree certified tensor rule through the same map.
    """
    kind = _curved_kind(mode)
    basis = curl_basis(order)
    u = np.cos(1.0 + np.arange(basis.n_dofs))
    v = np.sin(2.0 + 0.7 * np.arange(basis.n_dofs))

    def value(r):
        block = _blocks(QuadGeometry.curved(r, cmap), kind, basis, coeff, 1.0)[0]
        return v @ (block if kind == "load" else block @ u)

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


def curved_probe(mode: str, order: int, m: int, below: bool = False):
    """Shrinking-family sweep of the curved local quadrature error.

    Returns (rows, fit): rows are (s, error); the fit is the log-log slope of
    the error against the shrink factor s, None when every error is at most
    EXACT_GAP.
    """
    degree = curved_probe_degree(mode, order, m, below)
    rule = builtin_rule("pt1_offcenter") if degree == 0 else rule_for_degree(degree)
    coeff = probe_vector_field if mode == "load" else probe_matrix_field
    rows = [(s, curved_local_error(shrunk_quadratic_map(s), coeff, rule, order, mode)) for s in CURVED_SVALS]
    return rows, _probe_fit([f"s={s}" for s in CURVED_SVALS], CURVED_SVALS, [e for _, e in rows])
