import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from edgefem import assembly, cli
from edgefem.analysis import consistency_probe
from edgefem.assembly import QuadratureConfig, assemble
from edgefem.cli import (
    ConsistencyProbe,
    CurvedProbe,
    ExperimentConfig,
    load_config,
    main,
    plateau_exit_index,
    resolve_rule,
    run_convergence,
    run_preasymptotic,
    run_quadcheck,
)
from edgefem.problems import catalog, residual_check
from edgefem.quadrature import builtin_rule, dump_rule, rule_for_degree
from edgefem.solver import solve

from conftest import fd_curl

ROOT = Path(__file__).resolve().parents[1]


def test_config_validation(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "cube_poly", "order": 1, "mesh_ns": [2, 4], "junk": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config("convergence", path)

    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(mesh_ns=[4, 4])
    with pytest.raises(ValueError, match="order"):
        ExperimentConfig(order=3)

    cfg = ExperimentConfig(order=2)
    assert cfg.mesh_ns == [2, 4, 6, 8, 12]
    assert cfg.label == "cube_poly_k2"


def test_resolve_rule_specs():
    assert resolve_rule("pt5").label == "pt5"
    assert resolve_rule(3).label == "pt5"
    assert resolve_rule("tensorized:2").label == "tensor_gl2"
    with pytest.raises(KeyError):
        resolve_rule("degree:5")          # a degree is written as the plain integer
    with pytest.raises(TypeError):
        resolve_rule(3.5)
    with pytest.raises(TypeError):
        resolve_rule(builtin_rule("pt5"))
    with pytest.raises(ValueError, match="does not integrate constants"):
        resolve_rule("tensorized:1")      # its one weight is 1/8


def test_set_up_imports_neither_scipy_special_nor_linalg():
    # the Gauss rules come from gauss_rules.json, so loading every shipped config, the error and
    # probe rules, both bases and quad-check leave these two modules unloaded
    code = f"""
import sys
from pathlib import Path
from edgefem import cli
from edgefem.reference_element import curl_basis
for path in sorted(Path({str(ROOT / "configs")!r}).glob("*.json")):
    config = cli.load_config(path.stem.split("_")[0], path)
    if isinstance(config, cli.CurvedProbe):
        cli.resolve_rule(config.degree)
for spec in (8, 10, "tensorized:10"):
    cli.resolve_rule(spec)
curl_basis(1), curl_basis(2)
cli.run_quadcheck()
print(sorted(name for name in ("scipy.special", "scipy.linalg") if name in sys.modules))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("problem", ["cube_poly", "cube_oscillatory(10)", "cube_oscillatory(20)"])
def test_catalog_residual_self_check(problem):
    entry = catalog(problem)
    assert residual_check(entry, n_points=50) <= 1e-10


def test_catalog_unknown_problem():
    with pytest.raises(KeyError):
        catalog("sphere_poly")


def test_catalog_exact_curl_matches_fd(rng):
    # the stored closed-form curl is checked against a finite-difference oracle
    entry = catalog("cube_poly")
    pts = rng.uniform(-0.8, 0.8, size=(20, 3))
    fd = fd_curl(entry.exact, pts)
    assert np.abs(fd - entry.exact_curl(pts)).max() <= 1e-6
    # and curl (mu^-1 curl E) against a second differentiation
    fd2 = fd_curl(lambda q: entry.exact_curl(q) / 10.0, pts)
    assert np.abs(fd2 - entry.curl_mu_inv_curl(pts)).max() <= 1e-5


@pytest.mark.parametrize("problem", ["cube_poly", "cube_oscillatory(10)"])
def test_catalog_current_bits_match_its_closed_form(problem):
    # J = (i / omega) (curl mu^-1 curl E - omega^2 eps0 E) in its first column, formed as a
    # complex product, equals the stored current bit for bit in both parts
    entry = catalog(problem)
    omega = entry.coefficients.omega
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(100_000, 3))
    want = np.zeros((len(pts), 3), dtype=complex)
    want[:, 0] = (1j / omega) * (entry.curl_mu_inv_curl(pts)[:, 0]
                                 - omega ** 2 * entry.eps0(pts[:, 2]) * entry.exact(pts)[:, 0])
    got = entry.coefficients.current(pts)
    assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)


def test_run_convergence_outputs_and_determinism(tmp_path):
    cfg = ExperimentConfig(problem="cube_poly", order=1, mesh_ns=[1, 2, 3],
                           q1="pt1_offcenter", q2="pt1_centroid", q3="pt1_centroid",
                           fit_window=3, label="tiny")
    recs, fit = run_convergence(cfg, tmp_path / "a")
    assert len(recs) == 3
    assert (tmp_path / "a" / "tiny.csv").exists()
    assert (tmp_path / "a" / "tiny.dat").exists()
    assert "fitted slope" in (tmp_path / "a" / "tiny_summary.txt").read_text()

    run_convergence(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "tiny.csv").read_bytes() == (tmp_path / "b" / "tiny.csv").read_bytes()
    dat = (tmp_path / "a" / "tiny.dat").read_text()
    assert "," not in dat


def test_sweep_frees_each_level_before_the_next(tmp_path, monkeypatch):
    # no earlier level's EdgeSpace is alive while a level assembles
    live = []

    def counting_assemble(*args):
        live.append(len(assembly._SPACES))
        return assemble(*args)

    monkeypatch.setattr(cli, "assemble", counting_assemble)
    cfg = ExperimentConfig(problem="cube_poly", order=1, mesh_ns=[1, 2, 3], fit_window=3, label="tiny")
    run_convergence(cfg, tmp_path)
    assert live == [0, 0, 0]


def test_run_preasymptotic_reports_plateau(tmp_path):
    cfg = ExperimentConfig(problem="cube_oscillatory(10)", order=1, mesh_ns=[2, 3, 4],
                           q1="pt1_offcenter", q2="pt1_centroid", q3="high", label="pre")
    recs, exit_idx = run_preasymptotic(cfg, tmp_path)
    summary = (tmp_path / "pre_summary.txt").read_text()
    assert "plateau exit index" in summary
    assert len(recs) == 3


def test_plateau_exit_index_synthetic():
    assert plateau_exit_index([1.0, 0.9, 0.7]) == 2
    assert plateau_exit_index([1.0, 0.85, 0.67]) == 2
    assert plateau_exit_index([1.0, 0.81, 0.79]) is None
    assert plateau_exit_index([1.0, 1.2, 1.1]) is None
    assert plateau_exit_index([1.0, 0.1]) == 1


def test_run_probe_consistency_and_curved(tmp_path):
    rows, fit = ConsistencyProbe(order=1, m=1, mesh_ns=[2, 3, 4], problem="cube_oscillatory(1)").run(tmp_path)
    assert len(rows) == 3
    assert (tmp_path / "probe_consistency.dat").exists()

    probe = CurvedProbe(mode="curlcurl", order=1, m=1)
    rows, fit = probe.run(tmp_path)
    assert (tmp_path / "probe_curved_summary.txt").read_text().startswith(
        "mode curlcurl order 1 m 1 rule degree 1\n")
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "spectral"}))
    with pytest.raises(ValueError, match="unknown probe kind 'spectral'"):
        load_config("probe", path)


def test_consistency_probe_rule_defaults():
    # unset q2 and q3 take rule degree order + m - 1; an explicit degree 0 stays 0
    probe = ConsistencyProbe(order=2, m=1)
    assert probe.rules.q2.label == probe.rules.q3.label == rule_for_degree(2).label
    zero = ConsistencyProbe(order=2, m=1, q2=0).rules
    assert zero.q2.label == rule_for_degree(0).label != zero.q3.label
    assert probe.entry.name == "cube_oscillatory(1)"


def test_run_quadcheck_speed_and_content(tmp_path):
    t0 = time.time()
    report = run_quadcheck(tmp_path)
    assert time.time() - t0 < 1.0
    assert "builtin only" in report
    for label in ("pt1_offcenter", "pt1_centroid", "pt4", "pt5", "pt15", "high"):
        assert label in report
    assert (tmp_path / "quadcheck.txt").exists()


def test_run_quadcheck_custom_rules(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text(dump_rule(builtin_rule("pt5")) + dump_rule(builtin_rule("pt4")))
    report = run_quadcheck(tmp_path, custom_rules_path=rules)
    assert "pt5 (custom): degree 3 pass=True" in report
    assert "pt4 (custom): degree 2 pass=True" in report

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert "builtin only" in run_quadcheck(tmp_path, custom_rules_path=empty)

    bad = tmp_path / "bad.txt"
    bad.write_text("fake 3 1\n0.25 0.25 0.25 0.1666\n")
    with pytest.raises(RuntimeError, match="certification failed"):
        run_quadcheck(tmp_path, custom_rules_path=bad)

    nan = tmp_path / "nan.txt"      # a NaN compares false with every bound and error tolerance
    nan.write_text("nanrule 1 1\nnan 0.25 0.25 0.16666666666666666\n")
    with pytest.raises(RuntimeError, match="nanrule .*pass=False .*not a finite number"):
        run_quadcheck(tmp_path, custom_rules_path=nan)


def test_main_quadcheck_exit_code(tmp_path, capsys):
    assert main(["quad-check", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "pt15" in out
    missing = tmp_path / "missing_rules.txt"
    assert main(["quad-check", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert str(missing) in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    ("garbage\n", "line 1: expected 'label degree npoints', got 'garbage'"),
    ("r 3 2\n\n0.1 0.2\n0.1 0.2 0.3 0.4\n", "line 3: expected 'x y z w', got '0.1 0.2'"),
    ("r 3 2\n0.1 0.2 0.3 0.4\n", "line 1: rule 'r' has 2 points, 1 follow"),
    ("r 3 0\n", "line 1: rule 'r' has 0 points, 0 follow"),
    ("r -1 1\n0.25 0.25 0.25 0.16666666666666666\n", "line 1: rule 'r' declares degree -1, below 0"),
    ("pt4 2 1\n0.25 0.25 0.25 0.16666666666666666\n\nr -5 1\n0.25 0.25 0.25 0.16666666666666666\n",
     "line 4: rule 'r' declares degree -5, below 0"),
], ids=["header", "point-row", "cut-short", "no-points", "degree-minus-1", "degree-minus-5"])
def test_main_quadcheck_malformed_rules_file(tmp_path, capsys, text, named):
    rules = tmp_path / "rules.txt"
    rules.write_text(text)
    assert main(["quad-check", "--config", str(rules), "--out", str(tmp_path)]) == 1
    assert named in capsys.readouterr().err


def test_main_convergence_assert_gate(tmp_path):
    cfg = {"problem": "cube_poly", "order": 1, "mesh_ns": [1, 2, 3],
           "q1": "pt1_offcenter", "q2": "pt1_centroid", "q3": "pt1_centroid",
           "fit_window": 3, "expect_slope": -5.0, "slope_tol": 0.01}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path), "--assert"]) == 2
    cfg["expect_slope"] = None
    path.write_text(json.dumps(cfg))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_main_probe_assert_passes_an_exact_probe(tmp_path):
    # the same rule on every term: every gap is 0, the summary says exact and --assert passes
    cfg = {"kind": "consistency", "order": 1, "m": 1, "mesh_ns": [1, 2, 3], "problem": "cube_oscillatory(1)",
           "q1": 10, "q2": 10, "q3": 10, "expect_min_slope": 0.7}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["probe", "--config", str(path), "--out", str(tmp_path), "--assert"]) == 0
    assert (tmp_path / "probe_consistency_summary.txt").read_text() == "slope: exact\n"
    assert all(line.split()[2:] == ["0", "0"]
               for line in (tmp_path / "probe_consistency.dat").read_text().splitlines()[1:])


def test_main_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"problem": "cube_poly", "wrong": 1}))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path)]) == 1
    # a probe typo must not silently fall back to the default order
    path.write_text(json.dumps({"kind": "consistency", "ordr": 2, "mesh_ns": [1, 2, 3]}))
    assert main(["probe", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "ordr" in capsys.readouterr().err
    path.write_text(json.dumps({"kind": "curved", "mesh_ns": [1, 2, 3]}))
    assert main(["probe", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "mesh_ns" in capsys.readouterr().err
    # keys that no config set are gone
    for command, config in (("convergence", {"solver_tol": 1e-8}),
                            ("preasymptotic", {"expect_exit_index": 2}),
                            ("probe", {"kind": "consistency", "seed": 3})):
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
        assert f"unknown config keys: {list(config.keys() - {'kind'})}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.dat"))


def test_assert_gate_only_on_gated_commands(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [1, 2]}))
    with pytest.raises(SystemExit) as exc:
        main(["preasymptotic", "--config", str(path), "--out", str(tmp_path), "--assert"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["quad-check", "--out", str(tmp_path), "--assert"])
    assert not list(tmp_path.glob("*.csv"))


def test_rate_studies_reject_two_meshes_up_front(tmp_path, capsys):
    # a rate fit needs three meshes: fail before the first level, not after all of them
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"kind": "consistency", "mesh_ns": [2, 4]}))
    assert main(["probe", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "mesh_ns" in capsys.readouterr().err
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [2, 3]}))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "mesh_ns" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.dat"))

    config = QuadratureConfig(*(builtin_rule("pt1_centroid"),) * 3)
    for mesh_ns in ([2, 4], [2, 4, 0], [2, 2, 2]):
        with pytest.raises(ValueError, match="mesh_ns"):
            consistency_probe(1, mesh_ns, catalog("cube_poly").coefficients, config,
                              builder=lambda n: pytest.fail("a level was computed"))

    # no rate is fitted in a preasymptotic run, so two meshes are enough
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [1, 2]}))
    assert main(["preasymptotic", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_convergence_fit_window_checked_at_load(tmp_path, capsys, monkeypatch):
    # a window of one or two points cannot be fitted, and a negative one fits
    # the wrong points: both fail before the first level
    path = tmp_path / "c.json"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "structured_cube_mesh", lambda n: pytest.fail("a level was computed"))
        for mesh_ns, window in (([1, 2, 3], 2), ([1, 2, 3, 4], -1)):
            path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": mesh_ns, "fit_window": window}))
            assert main(["convergence", "--config", str(path), "--out", str(tmp_path)]) == 1
            assert f"fit_window must be 0 (all meshes) or at least 3, got {window}" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))

    # 0 fits every mesh, and the summary counts the points actually fitted
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [1, 2, 3], "fit_window": 0, "label": "all"}))
    assert main(["convergence", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "fitted slope vs dofs (last 3)" in (tmp_path / "all_summary.txt").read_text()


@pytest.mark.parametrize("command, config, named", [
    ("convergence", {"problem": "cube_poly", "q2": "pt7"}, "'pt7'"),
    ("convergence", {"problem": "cube_foo"}, "'cube_foo'"),
    ("probe", {"kind": "consistency", "q2": "pt7"}, "'pt7'"),
    ("probe", {"kind": "consistency", "problem": "cube_foo"}, "'cube_foo'"),
    ("probe", {"kind": "consistency", "order": 3}, "order must be 1 or 2, got 3"),
    ("probe", {"kind": "curved", "mode": "curl"}, "'curl'"),
    ("probe", {"kind": "curved", "mode": "curlcurl", "m": 0, "below": True}, "degree -1"),
    ("convergence", {"problem": "cube_poly", "fit_window": "3"}, "fit_window must be int, got '3'"),
    ("probe", {"kind": "consistency", "m": "1"}, "m must be int, got '1'"),
    ("convergence", {"problem": "cube_poly", "mesh_ns": [2, "4", 8]}, "mesh_ns must be list[int]"),
    ("probe", {"kind": "curved", "below": "yes"}, "below must be bool, got 'yes'"),
    ("probe", {"kind": "curved", "order": True}, "order must be int, got True"),
    ("convergence", {"problem": "cube_poly", "mesh_ns": [1, 2, 3], "label": "a/b"}, "label"),
    ("probe", {"kind": "consistency", "mesh_ns": [1, 2, 3], "label": ""}, "label"),
    ("probe", {"kind": "curved", "label": "x/y"}, "label"),
    ("probe", {"kind": "consistency", "mesh_ns": [2, 4, 0]}, "mesh_ns must be strictly increasing"),
    ("probe", {"kind": "consistency", "mesh_ns": [2, 2, 2]}, "mesh_ns must be strictly increasing"),
    ("convergence", {"problem": "cube_poly", "mesh_ns": [0, 2, 4]}, "mesh_ns must be strictly increasing"),
    ("preasymptotic", {"problem": "cube_poly", "mesh_ns": [0, 2, 4]}, "mesh_ns must be strictly increasing"),
    ("convergence", {"problem": "cube_poly", "q1": "degree:5"}, "unknown q1 rule 'degree:5'"),
    ("convergence", {"problem": "cube_poly", "mesh_ns": [1, 2, 3], "q1": "tensorized:1"},
     "q1 rule 'tensorized:1': rule tensor_gl1 is certified to degree -1"),
    ("convergence", {"problem": "cube_poly", "q1": "tensorized:x"}, "q1 rule 'tensorized:x': invalid literal"),
    ("convergence", {"problem": "cube_poly", "q2": -2}, "q2 rule -2: degree must be >= 0"),
    ("convergence", {"problem": "cube_poly", "q1": "tensorized:21"},
     "q1 rule 'tensorized:21': tensor_gl21: n must be 1..20"),
    ("convergence", {"problem": "cube_poly", "q2": 40}, "q2 rule 40: degree 40 is above 39"),
    ("probe", {"kind": "consistency", "m": -3}, "q2 rule -3: degree must be >= 0"),
], ids=["convergence-rule", "convergence-problem", "consistency-rule", "consistency-problem",
        "consistency-order", "curved-mode", "curved-degree-below-zero", "fit_window-string",
        "consistency-m-string", "mesh_ns-element-string", "curved-below-string", "curved-order-bool",
        "convergence-label-path", "consistency-label-empty", "curved-label-path",
        "consistency-mesh_ns-zero", "consistency-mesh_ns-repeated", "convergence-mesh_ns-zero",
        "preasymptotic-mesh_ns-zero", "convergence-degree-spelling", "convergence-rule-degree-below-zero",
        "convergence-tensorized-not-int", "convergence-degree-negative", "convergence-tensorized-past-table",
        "convergence-degree-past-table", "consistency-m-negative"])
def test_main_rejects_bad_values_at_load(tmp_path, capsys, command, config, named):
    # exit 1 with a message naming the value, not a traceback after some levels
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_requires_config(tmp_path, capsys):
    assert main(["convergence", "--out", str(tmp_path)]) == 1
    missing = tmp_path / "nonexistent.json"
    assert main(["convergence", "--config", str(missing), "--out", str(tmp_path)]) == 1
    assert str(missing) in capsys.readouterr().err


def test_config_types_null_where_default_is_none(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [1, 2, 3], "expect_slope": None,
                                "slope_tol": 1}))
    cfg = load_config("convergence", path)
    assert cfg.expect_slope is None and cfg.slope_tol == 1
    path.write_text(json.dumps({"kind": "consistency", "q2": None, "q3": 2, "expect_min_slope": None}))
    assert isinstance(load_config("probe", path), ConsistencyProbe)
    path.write_text(json.dumps({"problem": "cube_poly", "slope_tol": None}))
    with pytest.raises(ValueError, match="slope_tol must be float, got None"):
        load_config("convergence", path)


def test_shipped_configs_parse():
    import pathlib

    paths = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    assert len(paths) == 7
    for path in paths:
        command = path.name.split("_")[0]
        cfg = load_config(command, path)
        expected = {"consistency": ConsistencyProbe, "curved": CurvedProbe}.get(
            json.loads(path.read_text()).get("kind"), ExperimentConfig)
        assert type(cfg) is expected, path.name


BREAKDOWN = {"problem": "cube_poly", "order": 2, "mesh_ns": [2, 3, 4],
             "q1": "pt1_centroid", "q2": "pt5", "q3": "pt15", "label": "bd"}


@pytest.mark.parametrize("command", ["convergence", "preasymptotic"])
def test_solver_breakdown_ends_the_sweep_cleanly(tmp_path, capsys, command):
    # the one-point curl-curl rule with the negative-weight mass rule is indefinite at n=2
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(BREAKDOWN))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "broke down at n=2 (iteration" in err and "curvature -" in err
    assert (tmp_path / "out" / "bd.csv").read_text() == "n,h,dofs,l2_error,curl_error,hcurl_error,iters\n"
    summary = (tmp_path / "out" / "bd_summary.txt").read_text()
    assert summary.startswith("ABORTED: solver broke down at n=2 (iteration ") and summary.count("\n") == 1


@pytest.mark.parametrize("command", ["convergence", "preasymptotic"])
def test_non_convergence_ends_the_sweep_cleanly(tmp_path, capsys, monkeypatch, command):
    calls = []

    def first_mesh_only(system):       # every mesh after the first reports non-convergence
        calls.append(system)
        fld, report = solve(system)
        return (fld if len(calls) == 1 else None), report

    monkeypatch.setattr(cli, "solve", first_mesh_only)
    path = tmp_path / "nc.json"
    path.write_text(json.dumps({"problem": "cube_poly", "mesh_ns": [1, 2, 3], "label": "nc"}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "did not converge at n=2" in err
    assert len((tmp_path / "out" / "nc.csv").read_text().splitlines()) == 2     # header and n=1
    summary = (tmp_path / "out" / "nc_summary.txt").read_text()
    assert summary.startswith("ABORTED: solver did not converge at n=2 (residual ")
