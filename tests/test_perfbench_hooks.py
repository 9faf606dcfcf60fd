"""The traced benchmark run (``perfbench/run.py --trace 1``) still finds what it wraps.

``perfbench/spans.py`` rebinds ``edgefem`` module attributes by name, so a
renamed or bypassed function silently drops out of the per-layer report.
``install`` rebinds them for the life of the process, hence the subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import spans
tracer = spans.Tracer("smoke")
spans.install(tracer)
from edgefem import analysis, assembly, mesh, problems, quadrature, solver

assembly._CHUNK_BUDGET = 2000     # several chunks per kernel call on these meshes
entry = problems.catalog("cube_poly")
rule = quadrature.builtin_rule("pt1_centroid")
config = assembly.QuadratureConfig(quadrature.builtin_rule("pt1_offcenter"), rule, rule)
system = assembly.assemble(mesh.structured_cube_mesh(2), 1, entry.coefficients, config)
field, _ = solver.solve(system)
analysis.hcurl_error(field, (entry.exact, entry.exact_curl), 8)
analysis.consistency_probe(1, [1, 2, 3], entry.coefficients, config)
print(json.dumps([s["name"] for s in tracer.spans]))
"""


def test_benchmark_spans_are_recorded():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("_term_blocks:curl", "_term_blocks:mass", "_term_blocks:load",
                 "_orientation_transforms", "all_affine_data", "evaluate_forms", "hcurl_error"):
        assert name in names, name
    # one span per term and assembly, although each term runs in several chunks: a span per chunk
    # would count the term's quadrature points again for each chunk
    split = names.index("consistency_probe")
    for kind in ("curl", "mass", "load"):
        assert names[:split].count("_term_blocks:" + kind) == 1, kind
    # one Jacobian computation and one orientation lookup per mesh: assembly, the solve and
    # the error share one space, and so do each probed mesh's fields and form evaluations
    for name in ("all_affine_data", "_orientation_transforms"):
        assert names[:split].count(name) == 1, name
        assert names[split:].count(name) == 3, name
