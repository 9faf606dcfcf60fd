"""One edgefem refinement study in a fresh interpreter.

    python3 perfbench/study.py --workload k1_sweep --seed 3 --mode study

``--mode setup`` stops after set-up, ``study`` runs the whole study and
``traced`` runs it with the timing wrappers of ``spans.py`` installed.  The
process prints one JSON line: set-up and wall time, peak RSS, the operations
attempted and failed with the reason of each failure, the values the study
computed and, when traced, its spans.  ``run.py`` starts one of these per
study, so every study pays a fresh interpreter's set-up.
"""

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

# Importing the package is part of the timed set-up.
import numpy as np  # noqa: E402
from edgefem import analysis, assembly, cli, mesh, problems, reference_element, solver  # noqa: E402

import spans as tracing  # noqa: E402

# Relative tolerance of every value checked against reference.json.  The
# values are invariant under relabelling the vertices up to the CG tolerance
# (1e-10), so one tolerance covers every seed.
REL_TOL = 1e-8
SOLVER_TOL = 1e-10

# The rules, meshes and slope gates of configs/convergence_k1.json,
# configs/convergence_k2.json and the two probe configs, on a shorter mesh
# range so a study takes about ten seconds on two cores.
SWEEPS = {
    "k1_sweep": dict(problem="cube_poly", order=1, mesh_ns=[8, 12, 16],
                     rules=("pt1_offcenter", "pt1_centroid", "pt1_centroid"),
                     slope=-0.3333, slope_tol=0.05),
    "k2_sweep": dict(problem="cube_poly", order=2, mesh_ns=[4, 6, 8],
                     rules=("pt5", "pt5", "pt15"),
                     slope=-0.6667, slope_tol=0.08),
}
PROBE = dict(problem="cube_oscillatory(1)", order=1, m=1, mesh_ns=[2, 4, 8, 12],
             ref_degree=10, min_slope=0.7,
             curved_mode="mass", curved_min_slope=0.65)
WORKLOADS = (*SWEEPS, "probes")


class Checks:
    """Counts operations and records why each failed one failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, name, problem=None):
        self.attempted += 1
        if problem:
            self.failures.append(f"{name}: {problem}")

    def call(self, names, fn, *args, **kwargs):
        """Run ``fn``; an exception fails every operation in ``names``.

        Returns None after an exception, so the caller skips the checks.
        """
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is reported, not fatal
            for name in names:
                self.op(name, f"{type(exc).__name__}: {exc}")
            return None


def mismatch(got: dict, ref, keys) -> str | None:
    """Why ``got`` differs from the reference row, or None when it agrees."""
    if ref is None:
        return "no reference value"
    for key in keys:
        a, b = got[key], ref[key]
        if isinstance(b, int):
            if a != b:
                return f"{key} {a} != reference {b}"
        elif not abs(a - b) <= REL_TOL * abs(b):
            return f"{key} {a!r} differs from reference {b!r} by more than {REL_TOL:g} relative"
    return None


def seeded_builder(seed: int, span):
    """Structured cube meshes with the global vertex ids relabelled by ``seed``.

    Seed 0 keeps the native numbering; every seed rebuilds the ``TetMesh``
    from the relabelled arrays, so all seeds pay the same mesh cost.
    """
    def build(n):
        with span("build_mesh") as counts:
            base = mesh.structured_cube_mesh(n)
            nv = base.n_vertices
            perm = np.arange(nv) if seed == 0 else np.random.default_rng([seed, n]).permutation(nv)
            vertices = np.empty_like(base.vertices)
            vertices[perm] = base.vertices
            out = mesh.TetMesh(vertices, perm[base.tets])
            counts["tets"] = out.n_tets
        return out
    return build


def rule_specs(workload):
    """The rule specs set-up resolves and certifies, one operation each."""
    if workload == "probes":
        order, m = PROBE["order"], PROBE["m"]
        return ["pt1_centroid", order + m - 1, PROBE["ref_degree"],
                analysis.curved_rule_degree(PROBE["curved_mode"], order, m), "tensorized:10"]
    spec = SWEEPS[workload]
    return list(dict.fromkeys(spec["rules"])) + [2 * spec["order"] + 6]


def setup(workload, checks, span):
    """Resolve and certify the rules, build the basis, load the problem."""
    spec = PROBE if workload == "probes" else SWEEPS[workload]
    with span("setup"):
        rules = {}
        for rs in rule_specs(workload):
            rules[rs] = checks.call([f"rule {rs}"], cli.resolve_rule, rs)
            if rules[rs] is not None:
                checks.op(f"rule {rs}")
        reference_element.curl_basis(spec["order"])
        entry = problems.catalog(spec["problem"])
    return rules, entry


def run_sweep(workload, build, rules, entry, checks, span, reference):
    spec = SWEEPS[workload]
    order = spec["order"]
    config = assembly.QuadratureConfig(*(rules[r] for r in spec["rules"]))
    ref_rows = {row["n"]: row for row in reference["levels"]}
    records, levels = [], []
    for n in spec["mesh_ns"]:
        name = f"n={n}"
        try:
            with span("level", n=n):
                m = build(n)
                system = assembly.assemble(m, order, entry.coefficients, config)
                fld, report = solver.solve(system, tol=SOLVER_TOL)
                if fld is None:
                    checks.op(name, f"CG did not converge (residual {report.relative_residual:.3e})")
                    continue
                rec = analysis.hcurl_error(fld, (entry.exact, entry.exact_curl), 2 * order + 6,
                                           n=n, dofs=system.n_free, iterations=report.iterations)
        except Exception as exc:  # exception, breakdown: one failed level
            checks.op(name, f"{type(exc).__name__}: {exc}")
            continue
        row = dict(n=n, dofs=rec.dofs, l2_error=rec.l2_error, curl_error=rec.curl_error,
                   hcurl_error=rec.hcurl_error, iterations=rec.iterations,
                   tets=m.n_tets, nnz=int(system.matrix.nnz))
        levels.append(row)
        records.append(rec)
        checks.op(name, mismatch(row, ref_rows.get(n),
                                 ("dofs", "l2_error", "curl_error", "hcurl_error")))
    slope = None
    if len(records) == len(spec["mesh_ns"]):
        slope = analysis.fit_rate(records, "dofs", window=4).slope
        off = abs(slope - spec["slope"])
        checks.op("slope", None if off <= spec["slope_tol"] else
                  f"{slope:.4f} outside {spec['slope']}+-{spec['slope_tol']}")
    else:
        checks.op("slope", "missing levels")
    return {"levels": levels, "slope": slope}


def run_probes(build, rules, entry, checks, span, reference):
    order, m = PROBE["order"], PROBE["m"]
    values = {}

    config = assembly.QuadratureConfig(rules["pt1_centroid"], rules[order + m - 1], rules[order + m - 1])
    ops = [f"consistency n={n}" for n in PROBE["mesh_ns"]] + ["consistency slope"]
    out = checks.call(ops, analysis.consistency_probe, order, PROBE["mesh_ns"],
                      entry.coefficients, config, seed=analysis.DEFAULT_SEED, builder=build)
    if out is not None:
        rows, fit = out
        ref_rows = {row["n"]: row for row in reference["consistency"]}
        values["consistency"] = [dict(n=n, h=h, dphi=dphi, dF=dF) for n, h, dphi, dF in rows]
        for row in values["consistency"]:
            checks.op(f"consistency n={row['n']}", mismatch(row, ref_rows.get(row["n"]), ("dphi", "dF")))
        values["consistency_slope"] = fit.slope
        checks.op("consistency slope", None if fit.slope >= PROBE["min_slope"] else
                  f"{fit.slope:.4f} below {PROBE['min_slope']}")

    ops = [f"curved level {i}" for i in range(4)] + ["curved slope"]
    out = checks.call(ops, analysis.curved_probe, PROBE["curved_mode"], order, m)
    if out is not None:
        rows, fit = out
        ref_rows = reference["curved"]
        values["curved"] = [dict(s=s, error=e) for s, e in rows]
        for i, row in enumerate(values["curved"]):
            ref = ref_rows[i] if i < len(ref_rows) else None
            checks.op(f"curved level {i}", mismatch(row, ref, ("s", "error")))
        values["curved_slope"] = fit.slope
        checks.op("curved slope", None if fit.slope >= PROBE["curved_min_slope"] else
                  f"{fit.slope:.4f} below {PROBE['curved_min_slope']}")

    try:
        report = cli.run_quadcheck()
    except RuntimeError as exc:   # certification failed; the report is in the message
        report = str(exc)
    lines = [ln for ln in report.splitlines() if " pass=" in ln]
    for ln in lines:
        good = "pass=True" in ln and "tight=True" in ln
        checks.op(f"quadcheck {ln.split(':')[0]}", None if good else ln)
    if not lines:
        checks.op("quadcheck", "no rule was certified")
    values["quadcheck_rules"] = len(lines)
    return values


def openblas_threads():
    """Threads of the OpenBLAS numpy loaded, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "study", "traced"), required=True)
    args = parser.parse_args(argv)

    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-{os.getpid()}") \
        if args.mode == "traced" else None
    if tracer is not None:
        tracing.install(tracer)
    span = tracer.span if tracer is not None else tracing.no_span
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    checks = Checks()
    rules, entry = setup(args.workload, checks, span)
    t_setup = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "setup_s": t_setup - _T0}
    if args.mode != "setup":
        build = seeded_builder(args.seed, span)
        with span("study"):
            if args.workload == "probes":
                values = run_probes(build, rules, entry, checks, span, reference)
            else:
                values = run_sweep(args.workload, build, rules, entry, checks, span, reference)
        result["wall_s"] = time.perf_counter() - t_setup
        result["values"] = values
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = checks.attempted
    result["failures"] = checks.failures
    result["env"] = environment()
    if tracer is not None:
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
