"""Manufactured-solution problem catalog on the cube [-1, 1]^3.

Every entry carries closed forms for the exact field E, its curl, and the
forcing.  The forcing is *derived* from the manufactured field,

    J := (i / omega) * (curl mu^-1 curl E - omega^2 eps E),

hand-expanded per entry, which makes -i omega J real and the discrete systems
real symmetric positive definite.  A residual self-check at random points
guards the hand expansion.

Catalog ids:  ``cube_poly``  (constant eps0 = -10) and
``cube_oscillatory(m)``  (eps0 = -10 - 9 sin(m pi x3), integer m >= 0; the
shipped configs use m = 1 and 10).
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import Coefficients, MatrixField, VectorField, _coefficient_times

__all__ = ["ProblemCatalogEntry", "catalog", "residual_check", "MU0", "OMEGA"]

MU0 = 10.0
EPS0_CONST = -10.0
OMEGA = 1.0


@dataclass(frozen=True)
class ProblemCatalogEntry:
    name: str
    coefficients: Coefficients
    exact: Callable          # (N, 3) -> (N, 3) float64
    exact_curl: Callable
    curl_mu_inv_curl: Callable
    eps0: Callable           # scalar profile eps0(x3)


def _exact(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros((len(pts), 3))
    out[:, 0] = (pts[:, 1] ** 2 - 1.0) * (pts[:, 2] ** 2 - 1.0)
    return out


def _exact_curl(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros((len(pts), 3))
    out[:, 1] = 2.0 * pts[:, 2] * (pts[:, 1] ** 2 - 1.0)
    out[:, 2] = -2.0 * pts[:, 1] * (pts[:, 2] ** 2 - 1.0)
    return out


def _curl_mu_inv_curl(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros((len(pts), 3))
    out[:, 0] = (4.0 - 2.0 * pts[:, 1] ** 2 - 2.0 * pts[:, 2] ** 2) / MU0
    return out


def _entry(name, eps0_profile):
    def current(pts):
        pts = np.atleast_2d(pts)
        e0 = eps0_profile(pts[:, 2])
        poly = (pts[:, 1] ** 2 - 1.0) * (pts[:, 2] ** 2 - 1.0)
        out = np.zeros((len(pts), 3), dtype=complex)
        out[:, 0].imag = (1.0 / OMEGA) * (       # J is purely imaginary: write only that part
            (4.0 - 2.0 * pts[:, 1] ** 2 - 2.0 * pts[:, 2] ** 2) / MU0 - OMEGA ** 2 * e0 * poly
        )
        return out

    coeffs = Coefficients(
        mu_inv=MatrixField(np.eye(3) / MU0),
        eps=MatrixField(lambda pts: eps0_profile(pts[:, 2])),
        omega=OMEGA,
        current=VectorField(current),
    )
    return ProblemCatalogEntry(name, coeffs, _exact, _exact_curl, _curl_mu_inv_curl, eps0_profile)


_OSC = _re.compile(r"^cube_oscillatory\((\d+)\)$")


def catalog(problem_id: str) -> ProblemCatalogEntry:
    """Look up a catalog entry; the entry's residual self-check must pass."""
    if problem_id == "cube_poly":
        entry = _entry("cube_poly", lambda z: np.full_like(z, EPS0_CONST))
    else:
        m = _OSC.match(problem_id)
        if not m:
            raise KeyError(f"unknown problem id {problem_id!r}")
        mode = int(m.group(1))
        entry = _entry(problem_id, lambda z, _m=mode: EPS0_CONST - 9.0 * np.sin(_m * np.pi * z))
    worst = residual_check(entry)
    if worst > 1e-10:
        raise RuntimeError(f"catalog self-check failed for {problem_id}: residual {worst:.3e}")
    return entry


def residual_check(entry: ProblemCatalogEntry) -> float:
    """Max |curl mu^-1 curl E - omega^2 eps E + i omega J| at 50 random points of a fixed seed."""
    rng = np.random.default_rng(20240901)
    pts = rng.uniform(-1.0, 1.0, size=(50, 3))
    omega = entry.coefficients.omega
    eps = entry.coefficients.eps(pts)
    res = (
        entry.curl_mu_inv_curl(pts)
        - omega ** 2 * _coefficient_times(eps, entry.exact(pts))
        + 1j * omega * entry.coefficients.current(pts)
    )
    return float(np.abs(res).max())
