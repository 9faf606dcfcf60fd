"""Experiment driver: convergence studies, preasymptotic runs and probes.

Configurations are JSON files with the fields of :class:`ExperimentConfig`;
unknown keys are rejected so runs stay reproducible.  Every command writes a
CSV table, a gnuplot-ready ``.dat`` twin and a text summary into ``--out``;
re-running a command with the same config produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_SEED,
    _check_rate_meshes,
    _curved_kind,
    consistency_probe,
    curved_probe,
    curved_rule_degree,
    fit_rate,
    hcurl_error,
    records_to_csv,
)
from .assembly import QuadratureConfig, assemble
from .mesh import structured_cube_mesh
from .problems import catalog
from .quadrature import (
    BUILTIN_LABELS,
    RefQuadratureRule,
    builtin_rule,
    rule_for_degree,
    tensorized_gl,
    verify_exactness,
)
from .solver import solve

__all__ = ["ExperimentConfig", "run_convergence", "run_preasymptotic", "run_probe", "run_quadcheck", "main"]

DEFAULT_MESH_NS = {1: [2, 4, 6, 8, 12, 16, 24], 2: [2, 4, 6, 8, 12]}
DEFAULT_PROBE_MESH_NS = [2, 4, 8, 12]

_CONFIG_KEYS = {"problem", "order", "mesh_ns", "q1", "q2", "q3", "solver_tol", "label",
                "fit_window", "expect_slope", "slope_tol", "expect_exit_index"}
_PROBE_KEYS = {
    "consistency": {"expect_min_slope", "label", "order", "m", "mesh_ns", "problem",
                    "q1", "q2", "q3", "seed"},
    "curved": {"expect_min_slope", "label", "mode", "order", "m", "below"},
}


def _check_keys(data: dict, allowed) -> dict:
    """Return ``data`` unchanged; raise ValueError naming every key not in ``allowed``."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _lookup(fn, what: str, spec):
    """``fn(spec)``, with an unknown ``spec`` raised as a ValueError that names it."""
    try:
        return fn(spec)
    except (KeyError, TypeError):
        raise ValueError(f"unknown {what} {spec!r}") from None


@dataclass
class ExperimentConfig:
    problem: str = "cube_poly"
    order: int = 1
    mesh_ns: list = field(default_factory=list)
    q1: object = "pt1_offcenter"
    q2: object = "pt1_centroid"
    q3: object = "pt1_centroid"
    solver_tol: float = 1e-10
    label: str = ""
    fit_window: int = 4
    expect_slope: float = None        # asserted by the CLI --assert gate when set
    slope_tol: float = 0.1
    expect_exit_index: int = None     # preasymptotic --assert gate

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")
        if not self.mesh_ns:
            self.mesh_ns = list(DEFAULT_MESH_NS[self.order])
        ns = list(self.mesh_ns)
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("mesh_ns must be strictly increasing")
        if self.fit_window != 0 and self.fit_window < 3:
            raise ValueError(f"fit_window must be 0 (all meshes) or at least 3, got {self.fit_window}")
        _lookup(catalog, "problem", self.problem)
        self.rules()                  # an unknown rule fails here, at load
        if not self.label:
            self.label = f"{self.problem.replace('(', '_').rstrip(')')}_k{self.order}"

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return cls(**_check_keys(json.loads(Path(path).read_text()), _CONFIG_KEYS))

    def rules(self) -> QuadratureConfig:
        return QuadratureConfig(*(_lookup(resolve_rule, f"{q} rule", getattr(self, q)) for q in ("q1", "q2", "q3")))


def resolve_rule(spec) -> RefQuadratureRule:
    """A rule from a label, a 'tensorized:n' string, or a required degree."""
    if isinstance(spec, RefQuadratureRule):
        return spec
    if isinstance(spec, int):
        return rule_for_degree(spec)
    if isinstance(spec, str):
        if spec.startswith("tensorized:"):
            return tensorized_gl(int(spec.split(":", 1)[1]))
        if spec.startswith("degree:"):
            return rule_for_degree(int(spec.split(":", 1)[1]))
        return builtin_rule(spec)
    raise TypeError(f"cannot interpret quadrature spec {spec!r}")


def _write(out_dir, name, text) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(text)
    return path


def _emit_records(records, config, out_dir, extra_lines):
    csv_text = records_to_csv(records)
    dat_text = csv_text.replace(",", " ")
    _write(out_dir, f"{config.label}.csv", csv_text)
    _write(out_dir, f"{config.label}.dat", dat_text)
    _write(out_dir, f"{config.label}_summary.txt", "\n".join(extra_lines) + "\n")


def _sweep(config: ExperimentConfig, out_dir):
    """Mesh sweep: assemble, solve and measure the H(curl) error on every mesh."""
    entry = catalog(config.problem)
    rules = config.rules()
    records = []
    for n in config.mesh_ns:
        mesh = structured_cube_mesh(n)
        system = assemble(mesh, config.order, entry.coefficients, rules)
        fld, report = solve(system, tol=config.solver_tol)
        if fld is None:
            _emit_records(records, config, out_dir,
                          [f"ABORTED: solver did not converge at n={n} "
                           f"(residual {report.relative_residual:.3e})"])
            raise RuntimeError(f"solver did not converge at n={n}")
        records.append(hcurl_error(fld, (entry.exact, entry.exact_curl), 2 * config.order + 6,
                                   n=n, dofs=system.n_free, iterations=report.iterations))
    header = [
        f"problem {config.problem} order {config.order}",
        f"rules q1={rules.q1.label} q2={rules.q2.label} q3={rules.q3.label}",
    ]
    return records, header


def run_convergence(config: ExperimentConfig, out_dir):
    """Mesh sweep with the fitted convergence rate against the dof count."""
    records, lines = _sweep(config, out_dir)
    fit = fit_rate(records, "dofs", window=config.fit_window)
    lines += [
        f"fitted slope vs dofs (last {fit.n_points}): {fit.slope:.17g}",
        f"fit residual: {fit.residual:.17g}",
    ]
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
    lines += [
        f"plateau exit index: {exit_idx if exit_idx is not None else 'none'}",
        f"plateau exit dofs: {records[exit_idx].dofs if exit_idx is not None else 'none'}",
    ]
    _emit_records(records, config, out_dir, lines)
    return records, exit_idx


def _consistency_inputs(params: dict):
    """(order, mesh_ns, coefficients, rules) of a consistency probe, defaults filled in."""
    order, m = params.get("order", 1), params.get("m", 1)
    entry = _lookup(catalog, "problem", params.get("problem", "cube_oscillatory(1)"))
    rules = (_lookup(resolve_rule, f"{q} rule", params.get(q, default))
             for q, default in (("q1", "pt1_centroid"), ("q2", order + m - 1), ("q3", order + m - 1)))
    return order, params.get("mesh_ns", DEFAULT_PROBE_MESH_NS), entry.coefficients, QuadratureConfig(*rules)


def run_probe(kind: str, params: dict, out_dir):
    """Drive the consistency or curved probe and emit data plus fitted slope."""
    out_label = params.get("label", f"probe_{kind}")
    if kind == "consistency":
        rows, fit = consistency_probe(*_consistency_inputs(params), seed=params.get("seed", DEFAULT_SEED))
        header = "n h dphi dF"
        body = "\n".join(f"{n} {h:.17g} {dphi:.17g} {dF:.17g}" for n, h, dphi, dF in rows)
        exact = all(r[2] <= 1e-10 for r in rows)
        slope_line = "slope: exact" if exact else f"slope: {fit.slope:.17g}"
        _write(out_dir, f"{out_label}.dat", header + "\n" + body + "\n")
        _write(out_dir, f"{out_label}_summary.txt", slope_line + "\n")
        return rows, fit
    if kind == "curved":
        mode = params.get("mode", "mass")
        order = params.get("order", 1)
        m = params.get("m", 1)
        below = params.get("below", False)
        rows, fit = curved_probe(mode, order, m, below=below)
        degree = curved_rule_degree(mode, order, m) - (1 if below else 0)
        header = "s error"
        body = "\n".join(f"{s:.17g} {e:.17g}" for s, e in rows)
        _write(out_dir, f"{out_label}.dat", header + "\n" + body + "\n")
        _write(out_dir, f"{out_label}_summary.txt",
               f"mode {mode} order {order} m {m} rule degree {degree}\nslope: {fit.slope:.17g}\n")
        return rows, fit
    raise ValueError("probe kind must be 'consistency' or 'curved'")


def _load_probe(path):
    """(kind, expect_min_slope, params) of a probe config.  Unknown keys, orders, modes,
    problems and rules, and a consistency ``mesh_ns`` too short for a rate fit are rejected."""
    params = json.loads(Path(path).read_text())
    kind = params.pop("kind", "consistency")
    if kind not in _PROBE_KEYS:
        raise ValueError(f"unknown probe kind {kind!r}")
    _check_keys(params, _PROBE_KEYS[kind])
    if params.get("order", 1) not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {params['order']!r}")
    if kind == "consistency":
        _check_rate_meshes(_consistency_inputs(params)[1])   # resolves the problem and rules too
    else:
        _curved_kind(params.get("mode", "mass"))
    return kind, params.pop("expect_min_slope", None), params


def _parse_rule_dump(text: str):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    rules = []
    pos = 0
    while pos < len(lines):
        parts = lines[pos].split()
        label, degree, npts = parts[0], int(parts[1]), int(parts[2])
        pts, wts = [], []
        for row in lines[pos + 1: pos + 1 + npts]:
            x, y, z, w = (float(t) for t in row.split())
            pts.append([x, y, z])
            wts.append(w)
        rules.append((label, degree, np.array(pts), np.array(wts)))
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
        p.add_argument("--assert", dest="check", action="store_true",
                       help="exit 2 when the configured expectation is violated")
    args = parser.parse_args(argv)

    if args.command == "quad-check":
        try:
            report = run_quadcheck(args.out, custom_rules_path=args.config)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 2
        print(report, end="")
        return 0

    if args.config is None:
        print("--config is required for this command", file=sys.stderr)
        return 1
    try:
        if args.command == "probe":
            kind, expect, params = _load_probe(args.config)
        else:
            config = ExperimentConfig.from_json(args.config)
            if args.command == "convergence":
                _check_rate_meshes(config.mesh_ns)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.command == "probe":
        _, fit = run_probe(kind, params, args.out)
        if args.check and expect is not None and fit.slope < expect:
            return 2
        return 0

    if args.command == "convergence":
        _, fit = run_convergence(config, args.out)
        print(f"slope vs dofs: {fit.slope:.6f}")
        if args.check and config.expect_slope is not None \
                and abs(fit.slope - config.expect_slope) > config.slope_tol:
            return 2
        return 0

    records, exit_idx = run_preasymptotic(config, args.out)
    print(f"plateau exit index: {exit_idx}")
    if args.check and config.expect_exit_index is not None \
            and exit_idx != config.expect_exit_index:
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
