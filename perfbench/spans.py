"""In-memory spans and the timing wrappers of the traced benchmark run.

The wrappers are installed from outside the program: they replace module
attributes of ``edgefem`` (and every binding another ``edgefem`` module
imported under the same name) for the life of one study process.  No file
of the package is edited.  Spans are kept in memory and returned to the
caller, which writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Tracer:
    """Records spans (name, start, end, parent) that share one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        """Time the body as a child of the innermost open span.

        Yields the span's ``counts`` dict, so the body can attach sizes.
        """
        rec = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield counts
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()


def no_span(name: str, **counts):
    """Stand-in for ``Tracer.span`` when tracing is off."""
    return contextlib.nullcontext(counts)


def _timed(tracer, fn, name, counts):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label) as c:
            out = fn(*args, **kwargs)
            if counts is not None:
                c.update(counts(args, kwargs, out))
            return out
    return wrapper


def _patch(tracer, module, attr, name=None, counts=None):
    """Replace ``module.attr`` and every edgefem binding of the same object."""
    orig = getattr(module, attr)
    timed = _timed(tracer, orig, name or attr, counts)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name == "edgefem" or mod_name.startswith("edgefem.")) \
                and getattr(mod, attr, None) is orig:
            setattr(mod, attr, timed)


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer):
    """Wrap the public calls and the per-term internals of ``edgefem``."""
    from edgefem import analysis, assembly, cli, mesh, problems, reference_element, solver

    _patch(tracer, mesh, "structured_cube_mesh")
    _patch(tracer, mesh, "all_affine_data")
    mesh.TetMesh.__post_init__ = _timed(
        tracer, mesh.TetMesh.__post_init__, "TetMesh",
        lambda a, k, out: {"tets": a[0].n_tets})

    _patch(tracer, reference_element, "curl_basis")
    _patch(tracer, cli, "resolve_rule")
    _patch(tracer, problems, "catalog")

    # Keyed by the 'kind' argument: _term_blocks(mesh, basis, rule, jac,
    # origin, det, inv, kind, coeff_field, omega).
    _patch(tracer, assembly, "_term_blocks",
           name=lambda a, k: "_term_blocks:" + _arg(a, k, 7, "kind"),
           counts=lambda a, k, out: {
               "quad_points": _arg(a, k, 0, "mesh").n_tets * _arg(a, k, 2, "rule").npoints})
    _patch(tracer, assembly, "_orientation_transforms")
    _patch(tracer, assembly, "assemble",
           counts=lambda a, k, out: {"nnz": int(out.matrix.nnz), "free_dofs": int(out.n_free)})

    def form_points(a, k, out):
        config = _arg(a, k, 3, "config")
        npts = config.q1.npoints + config.q2.npoints + config.q3.npoints
        return {"quad_points": _arg(a, k, 0, "mesh").n_tets * npts}

    _patch(tracer, assembly, "evaluate_forms", counts=form_points)
    _patch(tracer, solver, "solve", counts=lambda a, k, out: {"iterations": out[1].iterations})

    for attr in ("hcurl_error", "discrete_hcurl_norm", "interpolate",
                 "consistency_probe", "curved_probe"):
        _patch(tracer, analysis, attr)
    _patch(tracer, cli, "run_quadcheck")
