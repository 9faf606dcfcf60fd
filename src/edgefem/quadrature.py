"""Quadrature rules on the reference tetrahedron.

The reference tetrahedron is ``K = conv{0, e1, e2, e3}`` (volume 1/6).  Every
rule carries a *certified* exactness degree: the largest total polynomial
degree up to which every monomial passes CERTIFY_RTOL, checked at construction
time against the closed-form simplex integrals

    int_K x^a y^b z^c dV = a! b! c! / (a+b+c+3)!

The tabulated rules live in one ordered table of declared degrees, cheapest
first; a rule whose certification disagrees with its declared degree refuses
to construct.  The Gauss products are built by one collapsed product, which
also gives the face rule of the reference element, and are certified by
increasing the probe degree until a monomial fails.  :func:`dump_rule` writes
the plain-text rule dump and :func:`parse_rule_dump` reads it.

The one-dimensional Gauss rules behind the collapsed products are read from
``gauss_rules.json``: scipy 1.17.1's ``roots_legendre(n)`` and
``roots_jacobi(n, alpha, 0)`` for alpha = 1, 2 and n <= GAUSS_MAX_N, recorded
bit for bit, so the rules stay those of scipy without importing
``scipy.special`` at run time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "RefQuadratureRule",
    "VerifyReport",
    "BUILTIN_LABELS",
    "builtin_rule",
    "rule_for_degree",
    "tensorized_gl",
    "conical_rule",
    "verify_exactness",
    "dump_rule",
    "parse_rule_dump",
]

#: Certification tolerance on the error over max(1, |exact|): absolute, as every |exact| <= 1/6.
CERTIFY_RTOL = 1e-12

#: Largest number of points of a recorded one-dimensional Gauss rule.
GAUSS_MAX_N = 20

#: Labels accepted by :func:`builtin_rule`.
BUILTIN_LABELS = ("pt1_offcenter", "pt1_centroid", "pt4", "pt5", "pt15", "high")


@dataclass(frozen=True)
class RefQuadratureRule:
    """Points and weights on the reference tetrahedron.

    ``exactness_degree`` is certified: every monomial up to it passes CERTIFY_RTOL.  For rules of
    many points that is not exactness: ``tensorized_gl(10)`` is certified at 18 and
    ``conical_rule(10)`` at 21, degrees at which they are not exact.  The degenerate
    value -1 marks a rule that does not even integrate constants (the sum of
    its weights differs from 1/6); such rules can arise from the raw
    tensorized construction and are kept for inspection but rejected by
    :func:`rule_for_degree`.
    """

    points: np.ndarray        # (L, 3)
    weights: np.ndarray       # (L,)
    exactness_degree: int
    label: str

    def __post_init__(self):
        pts = np.ascontiguousarray(np.atleast_2d(self.points), dtype=float)
        wts = np.ascontiguousarray(np.atleast_1d(self.weights), dtype=float)
        if pts.shape != (len(wts), 3):
            raise ValueError("points/weights shape mismatch")
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise ValueError(f"rule '{self.label}' has a point or weight that is not a finite number")
        bary = np.column_stack([1.0 - pts.sum(axis=1), pts])
        if bary.min() < -1e-13 or bary.max() > 1.0 + 1e-13:
            raise ValueError(f"rule '{self.label}' has points outside the closed reference tetrahedron")
        pts.flags.writeable = False
        wts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if self.exactness_degree >= 0 and abs(wts.sum() - 1.0 / 6.0) > 1e-14:
            raise ValueError(f"rule '{self.label}': weights sum {wts.sum()!r} != 1/6")

    @property
    def npoints(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    worst_monomial: tuple
    worst_error: float


def exact_monomial_integral(a: int, b: int, c: int) -> float:
    """Closed-form integral of x^a y^b z^c over the reference tetrahedron."""
    return math.factorial(a) * math.factorial(b) * math.factorial(c) / math.factorial(a + b + c + 3)


def monomials_of_degree(d: int):
    for a in range(d + 1):
        for b in range(d + 1 - a):
            yield (a, b, d - a - b)


@lru_cache(maxsize=None)
def _monomials(d):
    """Exponents (M, 3) of the monomials of total degree ``d``, in the order of
    :func:`monomials_of_degree`, and their exact integrals (M,)."""
    abc = np.array(list(monomials_of_degree(d)))
    return abc, np.array([exact_monomial_integral(*m) for m in abc.tolist()])


def _degree_errors(powers, weights, d):
    """Exponents and errors, relative to max(1, |exact|), of the rule on every monomial of
    total degree ``d``; ``powers[k]`` holds the k-th powers of the coordinates, shape (3, L).

    The monomial table is formed in row blocks of at most 2**20 values (one block up to
    n = 12 of the Gauss products), so no transient array exceeds 8 MiB for any rule.
    """
    abc, exact = _monomials(d)
    blocks = np.array_split(abc, -(-len(abc) * len(weights) // 2 ** 20))
    approx = np.concatenate([(powers[m[:, 0], 0] * powers[m[:, 1], 1] * powers[m[:, 2], 2]) @ weights
                             for m in blocks])
    return abc, np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))


def _powers(points, d):
    """Powers 0..d of the coordinates by repeated multiplication, shape (d + 1, 3, L)."""
    powers = np.empty((d + 1, *points.T.shape))
    powers[0] = 1.0
    for k in range(1, d + 1):
        powers[k] = powers[k - 1] * points.T
    return powers


def verify_exactness(rule: RefQuadratureRule, d: int) -> VerifyReport:
    """Check all monomials of total degree <= d against the closed form.

    Returns a report carrying the worst offending monomial (by relative
    error against max(1, |exact|)).
    """
    powers = _powers(rule.points, d)
    worst_err = 0.0
    worst = (0, 0, 0)
    for deg in range(d + 1):
        abc, err = _degree_errors(powers, rule.weights, deg)
        i = int(np.argmax(err))
        if err[i] > worst_err:
            worst_err = float(err[i])
            worst = tuple(abc[i].tolist())
    return VerifyReport(ok=worst_err <= CERTIFY_RTOL, worst_monomial=worst, worst_error=worst_err)


def _certify(points, weights, max_degree: int = 40) -> int:
    """Largest degree at which every monomial passes; -1 if constants fail."""
    powers = _powers(points, max_degree)
    degree = -1
    for d in range(max_degree + 1):
        if not np.all(_degree_errors(powers, weights, d)[1] <= CERTIFY_RTOL):
            break
        degree = d
    return degree


# ----------------------------------------------------------------------------
# Tabulated symmetric rules.  Barycentric orbits are written out explicitly in
# Cartesian coordinates (x, y, z) = (lam1, lam2, lam3).  The 4/5/14/15/24-point
# tables are the published Keast-family rules.
# ----------------------------------------------------------------------------

def _pt4_table():
    a = (5.0 + 3.0 * math.sqrt(5.0)) / 20.0
    b = (5.0 - math.sqrt(5.0)) / 20.0
    pts = [[a, b, b], [b, a, b], [b, b, a], [b, b, b]]
    wts = [1.0 / 24.0] * 4
    return pts, wts


def _pt5_table():
    q = 1.0 / 4.0
    a, b = 1.0 / 2.0, 1.0 / 6.0
    pts = [[q, q, q], [a, b, b], [b, a, b], [b, b, a], [b, b, b]]
    wts = [-0.8 / 6.0] + [0.45 / 6.0] * 4
    return pts, wts


def _keast14_table():
    # 14 points, degree 4; mid-edge orbit plus two (a,b,b,b) orbits.
    pts = [
        [0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0],
        [0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5],
        [0.6984197043243866, 0.1005267652252045, 0.1005267652252045],
        [0.1005267652252045, 0.1005267652252045, 0.1005267652252045],
        [0.1005267652252045, 0.1005267652252045, 0.6984197043243866],
        [0.1005267652252045, 0.6984197043243866, 0.1005267652252045],
        [0.0568813795204234, 0.3143728734931922, 0.3143728734931922],
        [0.3143728734931922, 0.3143728734931922, 0.3143728734931922],
        [0.3143728734931922, 0.3143728734931922, 0.0568813795204234],
        [0.3143728734931922, 0.0568813795204234, 0.3143728734931922],
    ]
    wts = [0.0190476190476190 / 6.0] * 6 + [0.0885898247429807 / 6.0] * 4 + [0.1328387466855907 / 6.0] * 4
    return pts, wts


def _pt15_table():
    # 15 points, degree 5.
    t = 1.0 / 3.0
    a, b = 8.0 / 11.0, 1.0 / 11.0
    c, d = 0.4334498464263357, 0.0665501535736643
    pts = [
        [0.25, 0.25, 0.25],
        [0.0, t, t], [t, t, t], [t, t, 0.0], [t, 0.0, t],
        [a, b, b], [b, b, b], [b, b, a], [b, a, b],
        [c, d, d], [d, c, d], [d, d, c], [d, c, c], [c, d, c], [c, c, d],
    ]
    wts = (
        [0.1817020685825351 / 6.0]
        + [0.0361607142857143 / 6.0] * 4
        + [0.0698714945161738 / 6.0] * 4
        + [0.0656948493683187 / 6.0] * 6
    )
    return pts, wts


def _keast24_table():
    # 24 points, degree 6.
    a1, b1 = 0.3561913862225449, 0.2146028712591517
    a2, b2 = 0.8779781243961660, 0.0406739585346113
    a3, b3 = 0.0329863295731731, 0.3223378901422757
    p, q, r = 0.0636610018750175, 0.2696723314583159, 0.6030056647916491
    pts = [
        [a1, b1, b1], [b1, b1, b1], [b1, b1, a1], [b1, a1, b1],
        [a2, b2, b2], [b2, b2, b2], [b2, b2, a2], [b2, a2, b2],
        [a3, b3, b3], [b3, b3, b3], [b3, b3, a3], [b3, a3, b3],
        [q, p, p], [p, q, p], [p, p, q],
        [r, p, p], [p, r, p], [p, p, r],
        [p, q, r], [q, r, p], [r, p, q], [p, r, q], [q, p, r], [r, q, p],
    ]
    wts = (
        [0.0399227502581679 / 6.0] * 4
        + [0.0100772110553207 / 6.0] * 4
        + [0.0553571815436544 / 6.0] * 4
        + [0.0482142857142857 / 6.0] * 12
    )
    return pts, wts


#: The tabulated rules, cheapest first: label -> (table, declared degree), where the table is a
#: function returning the points and weights.  keast14 and keast24 serve only :func:`rule_for_degree`;
#: "high" is the 64-point conical product, relabelled.
_RULES = {
    "pt1_offcenter": (lambda: ([[0.3, 0.3, 0.2]], [1.0 / 6.0]), 0),   # off the centroid, for degraded rates
    "pt1_centroid": (lambda: ([[0.25, 0.25, 0.25]], [1.0 / 6.0]), 1),
    "pt4": (_pt4_table, 2),
    "pt5": (_pt5_table, 3),
    "keast14": (_keast14_table, 4),
    "pt15": (_pt15_table, 5),
    "keast24": (_keast24_table, 6),
    "high": (lambda: (conical_rule(4).points, conical_rule(4).weights), 7),
}


@lru_cache(maxsize=None)
def _tabulated(label: str) -> RefQuadratureRule:
    """The rule ``label`` of the table, refused unless it certifies at exactly its declared degree."""
    table, declared = _RULES[label]
    points, weights = (np.asarray(a, dtype=float) for a in table())
    actual = _certify(points, weights, max_degree=declared + 1)
    if actual != declared:
        raise RuntimeError(
            f"rule '{label}' certified at degree {actual}, declared {declared}; table rejected"
        )
    return RefQuadratureRule(points, weights, declared, label)


def builtin_rule(label: str) -> RefQuadratureRule:
    """Return a named built-in rule with its certified exactness degree."""
    if label not in BUILTIN_LABELS:
        raise KeyError(f"unknown quadrature label {label!r}; known: {BUILTIN_LABELS}")
    return _tabulated(label)


def rule_for_degree(d: int) -> RefQuadratureRule:
    """Cheapest table rule certified to degree >= d, else the conical product that reaches d.
    pt1_offcenter is never chosen: its point is off the centroid on purpose."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d > 2 * GAUSS_MAX_N - 1:
        raise ValueError(f"degree {d} is above {2 * GAUSS_MAX_N - 1}, the highest that conical rules "
                         f"of n <= {GAUSS_MAX_N} Gauss points reach")
    for label, (_, declared) in _RULES.items():
        if label != "pt1_offcenter" and declared >= d:
            return _tabulated(label)
    return conical_rule((d + 2) // 2)


@lru_cache(maxsize=None)
def _gauss_table():
    return json.loads(Path(__file__).with_name("gauss_rules.json").read_text())["rules"]


@lru_cache(maxsize=None)
def _gauss01(n, alpha=0):
    """n-point Gauss-Jacobi rule on [0, 1] with weight (1-u)^alpha (Gauss-Legendre for alpha 0)."""
    x, w = (np.array(a) for a in _gauss_table()[str(alpha)][n - 1])
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def _collapsed(n, alphas, label):
    """The collapsed Gauss product of n^d points on the unit d-simplex, d = len(alphas): points
    (n^d, d) and weights (n^d,).

    Axis i carries the n-point Gauss-Jacobi rule of weight (1 - u_i)^alphas[i] on [0, 1].  The
    collapsed map x_i = u_i (1 - u_0) ... (1 - u_{i-1}) from the unit cube has the Jacobian
    prod_i (1 - u_i)^(d-1-i); the weights carry the part the Jacobi weights do not absorb.
    """
    if not 1 <= n <= GAUSS_MAX_N:
        raise ValueError(f"{label}: n must be 1..{GAUSS_MAX_N}, the Gauss rules recorded in gauss_rules.json")
    d = len(alphas)
    rules = [_gauss01(n, a) for a in alphas]
    u = [g.ravel() for g in np.meshgrid(*(x for x, _ in rules), indexing="ij")]
    points = [math.prod((1.0 - v for v in u[:i]), start=ui) for i, ui in enumerate(u)]
    jac = math.prod((1.0 - ui) ** (d - 1 - i - a) for i, (ui, a) in enumerate(zip(u, alphas)))
    weights = math.prod(np.meshgrid(*(w for _, w in rules), indexing="ij")).ravel()
    return np.column_stack(points), weights * jac


@lru_cache(maxsize=None)
def tensorized_gl(n: int) -> RefQuadratureRule:
    """n^3 Gauss-Legendre rule on the unit cube pushed through the collapsed map.

    The weights carry the pointwise Jacobian (1-u)^2 (1-v) of the map; the
    exactness degree is certified empirically, never assumed from the 1D
    order.  The collapsed-map Jacobian raises the per-axis degree of the
    pulled-back integrand, so the certified degree is 2n-3 in practice
    (and -1 for n=1, whose single weight is 1/8 rather than 1/6).
    """
    points, weights = _collapsed(n, (0, 0, 0), f"tensor_gl{n}")
    return RefQuadratureRule(points, weights, _certify(points, weights, max_degree=2 * n + 2), f"tensor_gl{n}")


@lru_cache(maxsize=None)
def conical_rule(n: int) -> RefQuadratureRule:
    """Conical-product Gauss-Jacobi rule (n^3 points, degree 2n-1, certified).

    The collapsed-map Jacobian is absorbed into Gauss-Jacobi weights on the
    first two axes, so the classical 2n-1 exactness survives the map.
    """
    points, weights = _collapsed(n, (2, 1, 0), f"conical{n}")
    degree = _certify(points, weights, max_degree=2 * n + 1)
    if degree < 2 * n - 1:
        raise RuntimeError(f"conical rule n={n} certified below 2n-1")
    return RefQuadratureRule(points, weights, degree, f"conical{n}")


def dump_rule(rule: RefQuadratureRule) -> str:
    """Plain-text table: header, then one `x y z w` row per point."""
    lines = [f"{rule.label} {rule.exactness_degree} {rule.npoints}"]
    for (x, y, z), w in zip(rule.points, rule.weights):
        lines.append(f"{x:.17g} {y:.17g} {z:.17g} {w:.17g}")
    return "\n".join(lines) + "\n"


def _dump_fields(no, parts, kinds, expected):
    """The fields of one rules-file line, converted by ``kinds``; ValueError naming the line."""
    try:
        if len(parts) != len(kinds):
            raise ValueError
        return [kind(t) for kind, t in zip(kinds, parts)]
    except ValueError:
        raise ValueError(f"rules file line {no}: expected '{expected}', got {' '.join(parts)!r}") from None


def parse_rule_dump(text: str):
    """Rules of a dump, as :func:`dump_rule` writes them: a line ``label degree npoints``, then
    ``npoints`` lines ``x y z w``.  Returns (label, degree, points, weights) per rule.

    Raises ValueError naming the line of a malformed header or point row, of a degree below 0,
    or of a rule whose points the file ends before.
    """
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    rules = []
    pos = 0
    while pos < len(lines):
        no, parts = lines[pos]
        label, degree, npts = _dump_fields(no, parts, (str, int, int), "label degree npoints")
        if degree < 0:
            raise ValueError(f"rules file line {no}: rule {label!r} declares degree {degree}, below 0")
        rows = lines[pos + 1: pos + 1 + npts]
        if npts < 1 or len(rows) < npts:
            raise ValueError(f"rules file line {no}: rule {label!r} has {npts} points, {len(rows)} follow")
        values = np.array([_dump_fields(row_no, row, (float,) * 4, "x y z w") for row_no, row in rows])
        rules.append((label, degree, values[:, :3], values[:, 3]))
        pos += 1 + npts
    return rules
