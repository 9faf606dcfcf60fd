"""edgefem benchmark: refinement studies timed end to end and layer by layer.

    python3 perfbench/run.py --workload k2_sweep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seconds 36      # every workload, one after another

Load shape: one closed-loop client runs one study at a time, each in a fresh
interpreter (``study.py``), for about ``--seconds`` (at least one study).
Then a few more interpreters only set up, so ``setup_s`` is a median of
several samples.  The seed relabels the mesh vertices (seed 0
keeps the native numbering); every study's values are checked against
``reference.json``, recorded at seed 0, and its slopes against the gates of
the shipped configs.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates untraced
and traced studies and prints the per-layer metrics of the traced ones, and
writes their spans to ``.perfbench_out/``.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("k1_sweep", "k2_sweep", "probes")
SETUP_ONLY_RUNS = 4          # extra set-up samples per run, besides one per study
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class StudyError(RuntimeError):
    """A study process crashed or printed no result."""


def run_child(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(HERE / "study.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise StudyError(f"{workload} {mode} exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise StudyError(f"{workload} {mode} exited with {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def span_sums(spans):
    """Per span name: inclusive seconds, self seconds, calls and counts.

    A span's self time is its duration minus the durations of its children.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    total, own, calls, counts = defaultdict(float), defaultdict(float), Counter(), Counter()
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] += d
        own[s["name"]] += d - covered[s["id"]]
        calls[s["name"]] += 1
        for key, value in s["counts"].items():
            counts[s["name"], key] += value
    return total, own, calls, counts


def layer_metrics(result: dict) -> dict:
    """Per-layer numbers of one traced study, from its spans."""
    total, own, calls, counts = span_sums(result["spans"])
    terms = ("_term_blocks:curl", "_term_blocks:mass", "_term_blocks:load", "evaluate_forms")
    iterations = counts["solve", "iterations"]
    return {
        "mesh.build_s": total["build_mesh"],
        "mesh.tets": counts["build_mesh", "tets"],
        "mesh.affine_data_s": total["all_affine_data"],
        "mesh.affine_data_calls": calls["all_affine_data"],
        "reference_element.orient_s": total["_orientation_transforms"],
        "reference_element.orient_calls": calls["_orientation_transforms"],
        "reference_element.basis_s": total["curl_basis"],
        "quadrature.resolve_s": total["resolve_rule"],
        "assembly.quad_points": sum(counts[t, "quad_points"] for t in terms),
        "assembly.assemble_s": total["assemble"],
        "assembly.term_curl_s": total["_term_blocks:curl"],
        "assembly.term_mass_s": total["_term_blocks:mass"],
        "assembly.term_load_s": total["_term_blocks:load"],
        "assembly.assemble_self_s": own["assemble"],
        "assembly.evaluate_forms_s": total["evaluate_forms"],
        "assembly.nnz": counts["assemble", "nnz"],
        "assembly.free_dofs": counts["assemble", "free_dofs"],
        "solver.solve_s": total["solve"],
        "solver.iterations": iterations,
        "solver.s_per_iter": total["solve"] / iterations if iterations else 0.0,
        "analysis.hcurl_error_s": total["hcurl_error"],
        "analysis.hcurl_norm_s": total["discrete_hcurl_norm"],
        "analysis.interpolate_s": total["interpolate"],
        "analysis.curved_probe_s": total["curved_probe"],
        "problems.catalog_s": total["catalog"],
        "cli.quadcheck_s": total["run_quadcheck"],
        "trace.wall_s": result["wall_s"],
        # Study time no span below the study root accounts for.
        "trace.unattributed_s": own["study"],
    }


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    return "s" if name.endswith("_s") or name.endswith("_per_iter") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Run studies for about ``seconds``.

    Returns the result object, the report lines and the environment record.
    """
    start = time.perf_counter()
    plain, traced, rounds = [], [], []
    # Start another study only if a median one still ends within ``seconds``,
    # so a run lasts about ``seconds`` however long one study takes.
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        t = time.perf_counter()
        plain.append(run_child(workload, seed, "study"))
        if trace:
            traced.append(run_child(workload, seed, "traced"))
        rounds.append(time.perf_counter() - t)
    setups = [] if trace else [run_child(workload, seed, "setup") for _ in range(SETUP_ONLY_RUNS)]
    children = plain + traced + setups

    failures = [f for c in children for f in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    samples = {
        "wall_s": [c["wall_s"] for c in plain],
        "setup_s": [c["setup_s"] for c in plain + setups],
        "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
    }
    if trace:
        per_study = [layer_metrics(c) for c in traced]
        samples = {name: [m[name] for m in per_study] for name in per_study[0]}
        samples["trace_overhead_s"] = [statistics.median(samples["trace.wall_s"])
                                       - statistics.median(c["wall_s"] for c in plain)]
        self_times = [span_sums(c["spans"])[1] for c in traced]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(
            {"workload": workload, "seed": seed, "env": traced[0]["env"],
             "studies": [{"wall_s": c["wall_s"], "setup_s": c["setup_s"],
                          "peak_rss_mb": c["peak_rss_mb"], "self_s": own, "spans": c["spans"]}
                         for c, own in zip(traced, self_times)]}))

    metrics = {name: {"value": statistics.median(vals), "unit": unit_of(name)}
               for name, vals in samples.items()}
    lines = [f"{workload} seed {seed}: {len(plain)} studies"
             + (f", {len(traced)} traced" if trace else f", {len(setups)} set-up only")
             + f", {attempted} operations"]
    for name, vals in samples.items():
        lines.append(f"  {name:28s} {statistics.median(vals):.6g} {unit_of(name)}"
                     f"  (median of {len(vals)}, min {min(vals):.6g}, max {max(vals):.6g})")
    lines.append(f"  {'fail_ratio':28s} {len(failures) / attempted:.6g} 1"
                 f"  ({len(failures)} of {attempted} operations failed)")
    if trace:
        lines.append("  self time by span (median over traced studies):")
        medians = {name: statistics.median(own[name] for own in self_times)
                   for name in self_times[0]}
        lines += [f"    {name:28s} {t:.6g} s" for name, t in
                  sorted(medians.items(), key=lambda item: -item[1])]
    lines += [f"  FAILED {f}" for f in failures]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, lines, children[0]["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps the study.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "edgefem" / "__init__.py").is_file():
        print(f"edgefem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = {}
    for workload in (WORKLOADS if args.workload == "all" else (args.workload,)):
        try:
            result, lines, env = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except StudyError as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        env = {"cpu": cpu_model(), **env}
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        print("\n".join(lines), flush=True)
        results[workload] = result
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
