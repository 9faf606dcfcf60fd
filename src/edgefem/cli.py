"""Experiment driver: convergence studies, preasymptotic runs and probes.

A config is a JSON file whose keys are the fields of one config class, read by
:func:`load_config`.  Every command writes its table (CSV and a gnuplot-ready
``.dat`` twin, or ``.dat`` only for probes) and a text summary into ``--out``;
re-running a command with the same config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import types
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .analysis import (
    _check_mesh_ns,
    consistency_probe,
    curved_probe,
    curved_probe_degree,
    fit_rate,
    hcurl_error,
    records_to_csv,
)
from .assembly import QuadratureConfig, assemble
from .mesh import structured_cube_mesh
from .problems import ProblemCatalogEntry, catalog
from .quadrature import (
    BUILTIN_LABELS,
    RefQuadratureRule,
    builtin_rule,
    rule_for_degree,
    tensorized_gl,
    verify_exactness,
)
from .solver import SolverBreakdown, solve

__all__ = ["ExperimentConfig", "ConsistencyProbe", "CurvedProbe", "load_config",
           "run_convergence", "run_preasymptotic", "run_quadcheck", "main"]

DEFAULT_MESH_NS = {1: [2, 4, 6, 8, 12, 16, 24], 2: [2, 4, 6, 8, 12]}


def _lookup(fn, what: str, spec):
    """``fn(spec)``, with an unknown or unusable ``spec`` raised as a ValueError that names it."""
    try:
        return fn(spec)
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {spec!r}") from None
    except ValueError as err:
        raise ValueError(f"{what} {spec!r}: {err}") from None


def _check_order(order):
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")


def _check_label(label):
    """A label names the output files inside ``--out``: not empty, no path separator."""
    if not label or "/" in label or os.sep in label:
        raise ValueError(f"label must be a non-empty file name without a path separator, got {label!r}")


def _resolve(problem, *specs):
    """(catalog entry, QuadratureConfig) of a config; ValueError naming an unknown one."""
    entry = _lookup(catalog, "problem", problem)
    return entry, QuadratureConfig(*(_lookup(resolve_rule, f"q{i} rule", q) for i, q in enumerate(specs, 1)))


@dataclass
class ExperimentConfig:
    """A ``convergence`` or ``preasymptotic`` run: one problem solved on a mesh sweep."""

    problem: str = "cube_poly"
    order: int = 1
    mesh_ns: list[int] = field(default_factory=list)      # empty: DEFAULT_MESH_NS[order]
    q1: str | int = "pt1_offcenter"
    q2: str | int = "pt1_centroid"
    q3: str | int = "pt1_centroid"
    label: str = ""                                       # empty: <problem>_k<order>
    fit_window: int = 4                                   # fit the last that many meshes, 0 = all
    expect_slope: float | None = None                     # convergence --assert gate
    slope_tol: float = 0.1
    entry: ProblemCatalogEntry = field(init=False, repr=False, compare=False)
    rules: QuadratureConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_order(self.order)
        self.mesh_ns = self.mesh_ns or list(DEFAULT_MESH_NS[self.order])
        _check_mesh_ns(self.mesh_ns, rate=False)
        if self.fit_window != 0 and self.fit_window < 3:
            raise ValueError(f"fit_window must be 0 (all meshes) or at least 3, got {self.fit_window}")
        self.entry, self.rules = _resolve(self.problem, self.q1, self.q2, self.q3)
        self.label = self.label or f"{self.problem.replace('(', '_').rstrip(')')}_k{self.order}"
        _check_label(self.label)


@dataclass
class ConsistencyProbe:
    """``probe`` of kind "consistency": the form-consistency gap over a refinement sweep."""

    problem: str = "cube_oscillatory(1)"
    order: int = 1
    m: int = 1
    mesh_ns: list[int] = field(default_factory=lambda: [2, 4, 8, 12])
    q1: str | int = "pt1_centroid"
    q2: str | int | None = None                           # None: rule degree order + m - 1
    q3: str | int | None = None                           # None: rule degree order + m - 1
    label: str = "probe_consistency"
    expect_min_slope: float | None = None                 # --assert gate
    entry: ProblemCatalogEntry = field(init=False, repr=False, compare=False)
    rules: QuadratureConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_order(self.order)
        _check_label(self.label)
        _check_mesh_ns(self.mesh_ns, rate=True)
        degree = self.order + self.m - 1
        self.entry, self.rules = _resolve(self.problem, self.q1, degree if self.q2 is None else self.q2,
                                          degree if self.q3 is None else self.q3)

    def run(self, out_dir):
        rows, fit = consistency_probe(self.order, self.mesh_ns, self.entry.coefficients, self.rules)
        body = "".join(f"{n} {h:.17g} {dphi:.17g} {dF:.17g}\n" for n, h, dphi, dF in rows)
        _write(out_dir, f"{self.label}.dat", "n h dphi dF\n" + body)
        exact = all(r[2] <= 1e-10 for r in rows)
        _write(out_dir, f"{self.label}_summary.txt", "slope: exact\n" if exact else f"slope: {fit.slope:.17g}\n")
        return rows, fit


@dataclass
class CurvedProbe:
    """``probe`` of kind "curved": one form term's quadrature error on a shrinking curved element."""

    mode: str = "mass"
    order: int = 1
    m: int = 1
    below: bool = False                                   # probe one degree below the threshold
    label: str = "probe_curved"
    expect_min_slope: float | None = None                 # --assert gate
    degree: int = field(init=False)

    def __post_init__(self):
        _check_order(self.order)
        _check_label(self.label)
        self.degree = curved_probe_degree(self.mode, self.order, self.m, self.below)

    def run(self, out_dir):
        rows, fit = curved_probe(self.mode, self.order, self.m, below=self.below)
        _write(out_dir, f"{self.label}.dat", "s error\n" + "".join(f"{s:.17g} {e:.17g}\n" for s, e in rows))
        _write(out_dir, f"{self.label}_summary.txt", f"mode {self.mode} order {self.order} m {self.m} "
                                                     f"rule degree {self.degree}\nslope: {fit.slope:.17g}\n")
        return rows, fit


_PROBES = {"consistency": ConsistencyProbe, "curved": CurvedProbe}


def _has_type(value, tp) -> bool:
    """Whether a JSON value has the declared type; a bool is no int, an int is a float."""
    if isinstance(tp, types.UnionType):
        return any(_has_type(value, t) for t in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        return isinstance(value, list) and all(_has_type(v, typing.get_args(tp)[0]) for v in value)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


def load_config(command: str, path):
    """The config of ``command`` from a JSON file; a probe's ``"kind"`` (default "consistency")
    picks its class.  Unknown keys and values whose JSON type is not the field's are rejected
    with a ValueError naming the key; the class then checks the values themselves."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError("a config must be a JSON object")
    cls = _lookup(_PROBES.__getitem__, "probe kind", data.pop("kind", "consistency")) \
        if command == "probe" else ExperimentConfig
    unknown = set(data) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, tp in typing.get_type_hints(cls).items():
        if key in data and not _has_type(data[key], tp):
            raise ValueError(f"{key} must be {tp.__name__ if isinstance(tp, type) else tp}, got {data[key]!r}")
    config = cls(**data)
    if command == "convergence":
        _check_mesh_ns(config.mesh_ns, rate=True)
    return config


def resolve_rule(spec) -> RefQuadratureRule:
    """A rule from a label, a 'tensorized:n' string, or a required degree; a ValueError for a
    rule that does not integrate constants (certified degree -1)."""
    if isinstance(spec, int):
        return rule_for_degree(spec)
    if not isinstance(spec, str):
        raise TypeError(f"cannot interpret quadrature spec {spec!r}")
    rule = tensorized_gl(int(spec.split(":", 1)[1])) if spec.startswith("tensorized:") else builtin_rule(spec)
    if rule.exactness_degree < 0:
        raise ValueError(f"rule {rule.label} is certified to degree {rule.exactness_degree}: "
                         "it does not integrate constants")
    return rule


def _write(out_dir, name, text):
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / name).write_text(text)


def _emit_records(records, config, out_dir, extra_lines):
    csv_text = records_to_csv(records)
    _write(out_dir, f"{config.label}.csv", csv_text)
    _write(out_dir, f"{config.label}.dat", csv_text.replace(",", " "))
    _write(out_dir, f"{config.label}_summary.txt", "\n".join(extra_lines) + "\n")


def _sweep(config: ExperimentConfig, out_dir):
    """Mesh sweep: assemble, solve and measure the H(curl) error on every mesh; a mesh whose system
    CG cannot solve ends it with a RuntimeError, after the records so far are written."""
    entry, rules = config.entry, config.rules
    records = []
    for n in config.mesh_ns:
        mesh = structured_cube_mesh(n)
        system = assemble(mesh, config.order, entry.coefficients, rules)
        try:
            fld, report = solve(system)
            why = None if fld is not None else f"did not converge at n={n} (residual {report.relative_residual:.3e})"
        except SolverBreakdown as exc:
            why = f"broke down at n={n} (iteration {exc.iteration}, curvature {exc.curvature:.3e})"
        if why:
            _emit_records(records, config, out_dir, [f"ABORTED: solver {why}"])
            raise RuntimeError(f"solver {why}")
        records.append(hcurl_error(fld, (entry.exact, entry.exact_curl), 2 * config.order + 6,
                                   n=n, dofs=system.n_free, iterations=report.iterations))
    return records, [f"problem {config.problem} order {config.order}",
                     f"rules q1={rules.q1.label} q2={rules.q2.label} q3={rules.q3.label}"]


def run_convergence(config: ExperimentConfig, out_dir):
    """Mesh sweep with the fitted convergence rate against the dof count."""
    records, lines = _sweep(config, out_dir)
    fit = fit_rate(records, "dofs", window=config.fit_window)
    lines += [f"fitted slope vs dofs (last {fit.n_points}): {fit.slope:.17g}",
              f"fit residual: {fit.residual:.17g}"]
    _emit_records(records, config, out_dir, lines)
    return records, fit


def plateau_exit_index(errors) -> int | None:
    """First index whose error is at least 20% below the previous mesh's."""
    for i in range(1, len(errors)):
        if errors[i] <= 0.8 * errors[i - 1]:
            return i
    return None


def run_preasymptotic(config: ExperimentConfig, out_dir):
    """Mesh sweep with the plateau-exit report for oscillatory problems."""
    records, lines = _sweep(config, out_dir)
    exit_idx = plateau_exit_index([r.hcurl_error for r in records])
    lines += [f"plateau exit index: {exit_idx if exit_idx is not None else 'none'}",
              f"plateau exit dofs: {records[exit_idx].dofs if exit_idx is not None else 'none'}"]
    _emit_records(records, config, out_dir, lines)
    return records, exit_idx


def _dump_fields(no, parts, kinds, expected):
    """The fields of one rules-file line, converted by ``kinds``; ValueError naming the line."""
    try:
        if len(parts) != len(kinds):
            raise ValueError
        return [kind(t) for kind, t in zip(kinds, parts)]
    except ValueError:
        raise ValueError(f"rules file line {no}: expected '{expected}', got {' '.join(parts)!r}") from None


def _parse_rule_dump(text: str):
    """Rules of a dump: a line ``label degree npoints``, then ``npoints`` lines ``x y z w``.

    Raises ValueError naming the line of a malformed header or point row, or of a rule
    whose points the file ends before.
    """
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    rules = []
    pos = 0
    while pos < len(lines):
        no, parts = lines[pos]
        label, degree, npts = _dump_fields(no, parts, (str, int, int), "label degree npoints")
        rows = lines[pos + 1: pos + 1 + npts]
        if npts < 1 or len(rows) < npts:
            raise ValueError(f"rules file line {no}: rule {label!r} has {npts} points, {len(rows)} follow")
        values = np.array([_dump_fields(row_no, row, (float,) * 4, "x y z w") for row_no, row in rows])
        rules.append((label, degree, values[:, :3], values[:, 3]))
        pos += 1 + npts
    return rules


def run_quadcheck(out_dir=None, custom_rules_path=None):
    """Certify every built-in rule at its declared degree and declared+1.

    Tensorized rules keep whatever degree their construction certified, so
    only tightness is re-checked for them.  Any failure is fatal.
    """
    lines = []
    ok = True
    to_check = [builtin_rule(lbl) for lbl in BUILTIN_LABELS]
    to_check += [tensorized_gl(n) for n in (2, 3, 4)]
    for rule in to_check:
        if rule.exactness_degree < 0:
            lines.append(f"{rule.label}: degenerate (degree {rule.exactness_degree}), skipped")
            continue
        at = verify_exactness(rule, rule.exactness_degree)
        above = verify_exactness(rule, rule.exactness_degree + 1)
        good = at.ok and not above.ok
        ok = ok and good
        lines.append(
            f"{rule.label}: degree {rule.exactness_degree} "
            f"pass={at.ok} tight={not above.ok} "
            f"worst_above={above.worst_monomial} err={above.worst_error:.3e}"
        )
    if custom_rules_path is not None:
        text = Path(custom_rules_path).read_text()
        customs = _parse_rule_dump(text)
        if not customs:
            lines.append("builtin only")
        for label, degree, pts, wts in customs:
            try:
                rule = RefQuadratureRule(pts, wts, degree, label)
                passed = verify_exactness(rule, degree).ok
                note = ""
            except ValueError as exc:
                passed = False
                note = f" ({exc})"
            ok = ok and passed
            lines.append(f"{label} (custom): degree {degree} pass={passed}{note}")
    else:
        lines.append("builtin only")
    report = "\n".join(lines) + "\n"
    if out_dir is not None:
        _write(out_dir, "quadcheck.txt", report)
    if not ok:
        raise RuntimeError("quadrature certification failed:\n" + report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="edgefem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("quad-check", "convergence", "preasymptotic", "probe"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None)
        p.add_argument("--out", type=Path, default=Path("out"))
        if name in ("convergence", "probe"):
            p.add_argument("--assert", dest="check", action="store_true",
                           help="exit 2 when the configured expectation is violated")
    args = parser.parse_args(argv)

    if args.command == "quad-check":
        try:
            report = run_quadcheck(args.out, custom_rules_path=args.config)
        except (OSError, ValueError) as exc:
            print(exc, file=sys.stderr)
            return 1
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(report, end="")
        return 0

    if args.config is None:
        print("--config is required for this command", file=sys.stderr)
        return 1
    try:
        config = load_config(args.command, args.config)
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.command == "probe":
        _, fit = config.run(args.out)
        failed = config.expect_min_slope is not None and fit.slope < config.expect_min_slope
        return 2 if args.check and failed else 0
    try:
        if args.command == "preasymptotic":
            _, exit_idx = run_preasymptotic(config, args.out)
            print(f"plateau exit index: {exit_idx}")
            return 0
        _, fit = run_convergence(config, args.out)
    except RuntimeError as exc:       # a sweep aborted by the solver; its records so far are written
        print(f"ABORTED: {exc}", file=sys.stderr)
        return 1
    print(f"slope vs dofs: {fit.slope:.6f}")
    failed = config.expect_slope is not None and abs(fit.slope - config.expect_slope) > config.slope_tol
    return 2 if args.check and failed else 0


if __name__ == "__main__":
    sys.exit(main())
