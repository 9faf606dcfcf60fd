"""Mutation check: every mutant below must make its selected tests fail.

Run from anywhere, with the repository's Python environment:

    python tests/mutants.py

Each entry is (name, file, old text, new text, test selection).  For each, the tree (``src``,
``tests``, ``configs``, ``perfbench`` and ``pyproject.toml``) is copied to a temporary directory,
the one occurrence of the old text in the file is replaced by the new text, and the selection runs
there with ``pytest -x``.  A mutant is caught when pytest reports a failing test.  The exit status
is 1 when a mutant survives, when pytest ends any other way, or when an old text does not occur
exactly once, so a refactor that moves an invariant restates its mutant here.

Only mutants that change the space, the forms, the geometry or a stated property belong here.  An
equivalent mutant passes every test and is left out, for example:
  * flipping the edge moment-1 weight 2s - 1 to 1 - 2s, which negates one basis function;
  * dropping x*c23 instead of z*c12 from the order-2 generators: x*c23 - y*c13 + z*c12 = 0,
    so the generators span the same space.

The file is not collected by pytest (its name does not start with ``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")

REF = "src/edgefem/reference_element.py"
MESH = "src/edgefem/mesh.py"
ASM = "src/edgefem/assembly.py"
QUAD = "src/edgefem/quadrature.py"
BASIS_TESTS = ["tests/test_reference_element.py", "tests/test_assembly.py"]

MUTANTS = [
    # -- the quadrature rules
    ("declared degree off by one", QUAD,
     '"pt15": (_pt15_table, 5)', '"pt15": (_pt15_table, 4)', ["tests/test_quadrature.py"]),
    ("collapsed Jacobian exponent off by one", QUAD,
     "(1.0 - ui) ** (d - 1 - i - a)", "(1.0 - ui) ** (d - i - a)", ["tests/test_quadrature.py"]),
    ("rule_for_degree considers pt1_offcenter", QUAD,
     'if label != "pt1_offcenter" and declared >= d:', "if declared >= d:",
     ["tests/test_quadrature.py", "-k", "rule_for_degree"]),
    # -- the basis: generators, curls, dofs and orientation
    ("curl sign flipped", REF,
     "d[:, 1, 2] - d[:, 2, 1]", "d[:, 2, 1] - d[:, 1, 2]", BASIS_TESTS),
    ("derivative factor e[a] replaced by 1", REF,
     "diff[a, i, index[_bump(e, a, -1)]] = e[a]", "diff[a, i, index[_bump(e, a, -1)]] = 1.0", BASIS_TESTS),
    ("face rule not averaged over corner orders", REF,
     "np.concatenate([bary[:, list(p[1:])] for p in permutations(range(3))]), np.tile(weights, 6) / 6.0",
     "bary[:, 1:], weights", ["tests/test_invariance.py", "-k", "relabelling_invariance"]),
    ("orientation table transposed", REF,
     "table[r] = np.linalg.inv(np.rint(C))", "table[r] = np.linalg.inv(np.rint(C)).T", BASIS_TESTS),
    ("face frames not oriented", REF,
     "rows[tuple(sorted(e, key=rank.__getitem__))] for e in LOCAL_EDGES + LOCAL_FACES]",
     "rows[tuple(sorted(e, key=rank.__getitem__))] for e in LOCAL_EDGES] + [rows[f] for f in LOCAL_FACES]",
     BASIS_TESTS),
    ("wrong Lehmer weights", ASM,
     "sum((6, 2, 1)[a] * (ids[a] > ids[b])", "sum((6, 1, 2)[a] * (ids[a] > ids[b])", ["tests/test_assembly.py"]),
    # -- the geometry
    ("contravariant push without 1/det J", MESH,
     "np.swapaxes(self.jac, 2, 3) / self.det[:, :, None, None]", "np.swapaxes(self.jac, 2, 3)",
     ["tests/test_mesh.py"]),
    ("covariant push by J^-T", MESH,
     "return self._times(x, self.inv)", "return self._times(x, np.swapaxes(self.inv, 2, 3))",
     ["tests/test_invariance.py", "-k", "similarity"]),
    ("curved J^-1 transposed", MESH,
     "jac[None], np.linalg.inv(jac)[None], det[None]", "jac[None], np.linalg.inv(jac).swapaxes(1, 2)[None], det[None]",
     ["tests/test_quadrature.py", "tests/test_assembly.py", "-k", "curved"]),
    ("curved J from the untranslated control net", MESH,
     'np.einsum("nkq,kp->npq", g, cp - cp[0])', 'np.einsum("nkq,kp->npq", g, cp)',
     ["tests/test_invariance.py", "-k", "curved"]),
    ("curved weight without det J", MESH,
     "(det * rule.weights)[None]", "rule.weights[None]", ["tests/test_assembly.py", "tests/test_analysis.py"]),
    ("cofactor rows out of order", MESH,
     "_cross(d[:, [1, 2, 0]], d[:, [2, 0, 1]])", "_cross(d[:, [1, 0, 2]], d[:, [2, 1, 0]])", ["tests/test_mesh.py"]),
    ("diameter over 5 edges", MESH,
     "zip(*LOCAL_EDGES))\n    squares", "zip(*LOCAL_EDGES[:5]))\n    squares", ["tests/test_mesh.py"]),
    # -- the topology
    ("face middle id taken as listed", MESH,
     "(lo, sum(cols) - lo - hi, hi)", "(lo, cols[1], hi)", ["tests/test_mesh.py"]),
    ("keys decoded in reverse", MESH,
     "np.column_stack([unique, *columns[::-1]])", "np.column_stack([unique, *columns])", ["tests/test_mesh.py"]),
    ("error table with its component and point axes swapped", "src/edgefem/analysis.py",
     'np.einsum("cd,lm->cmld"', 'np.einsum("cd,lm->cmdl"', ["tests/test_analysis.py"]),
    ("error weights tiled instead of repeated", "src/edgefem/analysis.py",
     "np.repeat(rule.weights, sq.shape[1]", "np.tile(rule.weights, sq.shape[1]", ["tests/test_analysis.py"]),
    ("chunk reads another chunk's Jacobians", ASM,
     "(a[chunk] for a in affine)", "(a[:chunk.stop - chunk.start] for a in affine)", ["tests/test_assembly.py"]),
    # -- the form terms
    ("scalar coefficient branch returns u", ASM,
     "return c[..., None] * u", "return u", ["tests/test_assembly.py", "-k", "curved_blocks_match_straight"]),
    ("c*I stored as 1", ASM,
     "val = val[0, 0]", "val = np.float64(1.0)", ["tests/test_assembly.py"]),
    ("sign of the mass scale", ASM,
     "coeffs.eps, -coeffs.omega ** 2)", "coeffs.eps, coeffs.omega ** 2)", ["tests/test_assembly.py"]),
    ("load term reads the curl push", ASM,
     'fields[kind == "curl"]', 'fields[kind != "mass"]', ["tests/test_assembly.py"]),
    ("curl coefficients pushed by J^T / det J", ASM,
     "(basis.curl_coeffs, jac / det[:, None, None])", "(basis.curl_coeffs, np.swapaxes(jac, 1, 2) / det[:, None, None])",
     ["tests/test_assembly.py"]),
    ("curls pushed like values", ASM,
     "(basis.curl_coeffs, jac / det[:, None, None])", "(basis.curl_coeffs, np.swapaxes(inv, 1, 2))",
     ["tests/test_analysis.py", "tests/test_assembly.py"]),
    ("moment table without the rule weights", ASM,
     "return rule.weights[:, None] * p", "return p", ["tests/test_assembly.py"]),
    ("|det J| dropped from the moment contraction", ASM,
     '"e,ecm,ecm->", absdet, b.conj(), y', '"ecm,ecm->", b.conj(), y', ["tests/test_assembly.py"]),
    ("product table built from values for curl", ASM,
     'np.einsum("lic,ljd->lcdij", ref, ref)', 'np.einsum("lic,ljd->lcdij", *[basis.eval_many(geo.rule.points)] * 2)',
     ["tests/test_assembly.py", "-k", "product_table"]),
    ("P transposed in the load pullback", ASM,
     "_real_times(P, np.swapaxes(wc, 1, 2))", "_real_times(np.swapaxes(P, 1, 2), np.swapaxes(wc, 1, 2))",
     ["tests/test_assembly.py", "-k", "product_table"]),
    ("|det J| dropped from the left rows", ASM,
     "w = (scale * geo.weights)", "w = (scale * geo.weights / np.abs(geo.det))",
     ["tests/test_assembly.py", "-k", "product_table"]),
    ("element kernel reads the coefficient at the reference points", ASM,
     "c = coeff(geo.points.reshape(-1, 3))                                # (N,)",
     "c = coeff(np.tile(geo.rule.points, (len(geo.points), 1)))          # (N,)",
     ["tests/test_analysis.py", "tests/test_assembly.py", "tests/test_invariance.py", "-k", "curved"]),
    # -- global assembly
    ("orientation dropped from K", ASM,
     "np.matmul(np.matmul(np.swapaxes(x, 1, 2), K[lo:hi], out=XtK[:hi - lo]), x, out=K[lo:hi])", "pass",
     ["tests/test_assembly.py"]),
    ("load transform left out", ASM,
     "f[lo:hi] = _real_times(np.swapaxes(x, 1, 2), f[lo:hi, :, None])[:, :, 0]", "pass", ["tests/test_assembly.py"]),
    ("mass term not added", ASM,
     "out[chunk] += _blocks(geo, kind, basis, coeff_field, scale)", "_blocks(geo, kind, basis, coeff_field, scale)",
     ["tests/test_assembly.py"]),
    ("load assigned instead of accumulated", ASM,
     "np.add.at(rhs, index.ravel(), f.ravel())", "rhs[index.ravel()] = f.ravel()", ["tests/test_assembly.py"]),
    ("row grouping takes its columns from the wrong element", ASM,
     "indices = index[pairs // nd].ravel()", "indices = index[np.sort(pairs) // nd].ravel()",
     ["tests/test_assembly.py"]),
    ("row pairs not in element order", ASM,
     'np.argsort(dofs[kept], kind="stable")', "np.argsort(dofs[kept])",
     ["tests/test_assembly.py", "-k", "coo_scatter"]),
    ("scatter keeps the constrained rows", ASM,
     "kept = np.flatnonzero(~space.constrained[dofs])", "kept = np.arange(len(dofs))",
     ["tests/test_assembly.py", "-k", "coo_scatter"]),
    ("int64 scatter indices", ASM,
     "space.gdof.astype(np.int64 if n > np.iinfo(np.int32).max else np.int32)", "space.gdof.astype(np.int64)",
     ["tests/test_assembly.py", "-k", "holds_only_the_reduced_system"]),
    # -- the solver
    ("CG direction product taken p first", "src/edgefem/solver.py",
     "np.multiply(rz_new / rz, p, out=p)", "np.multiply(p, rz_new / rz, out=p)",
     ["tests/test_solver.py", "-k", "in_place"]),
    # -- the one space per (mesh, order), and its release
    ("space lookup always builds", ASM,
     "return _SPACES.get((id(mesh), order)) or _SPACES.setdefault((id(mesh), order), cls(mesh, order))",
     "return cls(mesh, order)", ["tests/test_assembly.py", "-k", "space"]),
    ("plain-dict space cache", ASM,
     "_SPACES = weakref.WeakValueDictionary()", "_SPACES = {}", ["tests/test_assembly.py", "-k", "space"]),
    ("sweep keeps the previous level", "src/edgefem/cli.py",
     "        del mesh, system, fld", "        pass", ["tests/test_cli.py", "-k", "sweep_frees"]),
    # -- input checks
    ("mesh accepts a NaN vertex", MESH,
     "~np.isfinite(verts).all(axis=1)", "np.isinf(verts).any(axis=1)", ["tests/test_mesh.py", "-k", "finite_vertex"]),
    ("mesh accepts a negative vertex id", MESH,
     "(tets < 0) | (tets >= len(verts))", "(tets >= len(verts))", ["tests/test_mesh.py", "-k", "negative_vertex_id"]),
    ("mesh accepts the id one past the last vertex", MESH,
     "(tets >= len(verts))", "(tets > len(verts))", ["tests/test_mesh.py", "-k", "past_the_last"]),
    ("mesh accepts 2-D vertices", MESH,
     "verts.shape[1:] != (3,) or ", "", ["tests/test_mesh.py", "-k", "planar_vertices"]),
    ("mesh accepts tets of 3 ids", MESH,
     " or tets.shape[1:] != (4,)", "", ["tests/test_mesh.py", "-k", "three_ids"]),
    ("curved map accepts a NaN control net", MESH,
     "~np.isfinite(cp).all(axis=1)", "np.isinf(cp).any(axis=1)", ["tests/test_mesh.py", "-k", "non_finite_control_net"]),
    ("coefficients accept a NaN constant", ASM,
     "not np.isfinite(fld.constant).all()", "np.isinf(fld.constant).any()",
     ["tests/test_assembly.py", "-k", "non_finite_constants"]),
    ("mesh truncates a fractional vertex id", MESH,
     "(tets != np.floor(tets))", "(tets != tets)", ["tests/test_mesh.py", "-k", "fractional_vertex_id"]),
    ("coefficients accept an infinite omega", ASM,
     "np.isfinite(self.omega) and self.omega > 0", "self.omega > 0",
     ["tests/test_assembly.py", "-k", "non_finite_omega"]),
    ("coefficients accept a NaN field", ASM,
     "if not np.isfinite(values).all():", "if np.isinf(values).any():",
     ["tests/test_assembly.py", "-k", "non_finite_fields"]),
    ("dof vectors one short accepted", ASM,
     "if len(self.dofs) != self.space.n_dofs:", "if len(self.dofs) > self.space.n_dofs:",
     ["tests/test_assembly.py", "-k", "another_length"]),
    ("mesh_ns accepts n < 1", "src/edgefem/analysis.py",
     "zip([0, *mesh_ns], mesh_ns)", "zip(mesh_ns, mesh_ns[1:])", ["tests/test_cli.py"]),
]


def run(path, old, new, selection) -> str:
    """'caught', 'SURVIVED' or an error, for one mutant on a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="edgefem-mutant-") as tmp:
        for part in COPIED:
            src, dst = ROOT / part, Path(tmp) / part
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, dst)
        target = Path(tmp) / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"ERROR: the old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp) / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 1:
        return "caught"
    if proc.returncode == 0:
        return "SURVIVED"
    return f"ERROR: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}"


def main() -> int:
    bad, start = 0, time.perf_counter()
    for name, *mutant in MUTANTS:
        t = time.perf_counter()
        verdict = run(*mutant)
        bad += verdict != "caught"
        print(f"{verdict.splitlines()[0]:>9}  {time.perf_counter() - t:5.1f} s  {name}", flush=True)
        if "\n" in verdict:
            print(verdict.split("\n", 1)[1])
    print(f"{bad} of {len(MUTANTS)} mutants not caught, {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
