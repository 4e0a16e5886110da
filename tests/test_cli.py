"""Command-line interface: subcommands, formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import curvlab as cl
from curvlab import cli
from curvlab.cli import RunReport, _random_directions, _threshold_exit, main
from curvlab.errors import ReachExceededError

from conftest import (circle_r3_file, clifford_torus_file, clifford_torus_r6_file, elliptic_torus_file,
                      unit_circle_file)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _graph_file(tmp_path):
    doc = {
        "name": "bumpy_graph",
        "m": 2,
        "k": 4,
        "domain": [{"lo": -1.0, "hi": 1.0}, {"lo": -1.0, "hi": 1.0}],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 1}]}],
            [{"coeff": 1.0, "factors": [{"axis": 1, "kind": "pow", "exponent": 1}]}],
            [
                {"coeff": 0.3, "factors": [{"axis": 0, "kind": "pow", "exponent": 2}]},
                {
                    "coeff": 0.2,
                    "factors": [
                        {"axis": 0, "kind": "pow", "exponent": 1},
                        {"axis": 1, "kind": "pow", "exponent": 1},
                    ],
                },
            ],
            [
                {"coeff": -0.25, "factors": [{"axis": 1, "kind": "pow", "exponent": 2}]},
                {"coeff": 0.15, "factors": [{"axis": 0, "kind": "pow", "exponent": 2}]},
            ],
        ],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- catalog ----------------------------------------------------------------


def test_catalog_human_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "sphere2_r4 m=2 k=4 chi=2" in out
    assert "graph_poly" in out and "chi=?" in out


def test_catalog_json_is_parseable_array(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    entries = json.loads(out)
    assert isinstance(entries, list)
    names = [e["name"] for e in entries]
    assert "sphere2_r4" in names and "product_s2s2_r6" in names


def test_catalog_csv_has_one_row_per_entry(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "m", "k", "n", "chi"]
    by_name = {row[0]: row[1:] for row in rows[1:]}
    assert by_name["product_s2s2_r6"] == ["4", "6", "2", "4"]
    assert by_name["graph_poly"][-1] == ""  # no declared Euler characteristic


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "catalog", "--bogus")
    assert code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# -- curvature --------------------------------------------------------------


def test_curvature_sphere2_r4(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--surface", "sphere2_r4", "--point", "1.0,1.0",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["k_moments"] == pytest.approx(0.5, abs=1e-12)
    assert rep["results"]["egregium_residual"] < 1e-10
    imm = cl.catalog_get("sphere2_r4")
    assert rep["results"] == asdict(cl.egregium_report(imm, np.array([1.0, 1.0])))


CURVATURE_KEYS = ["k_moments", "k_quadrature", "route_residual",
                  "pfaffian_density", "egregium_lhs", "egregium_residual"]


def test_curvature_odd_m_reports_zero(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--surface", "circle_r3", "--point", "0.3",
        "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["k_moments"] == 0.0
    # the report's keys, with the Pfaffian fields undefined for odd m
    assert sorted(results) == sorted(CURVATURE_KEYS)
    assert [results[k] for k in CURVATURE_KEYS[3:]] == [None, None, None]


@pytest.mark.parametrize("surface, point", [("sphere2_r4", "1.0,1.0"), ("circle_r3", "0.3")])
def test_curvature_csv_rows_follow_the_report_fields(capsys, surface, point):
    _, out, _ = run_cli(capsys, "curvature", "--surface", surface, "--point", point, "--format", "csv")
    keys = [row[0] for row in csv.reader(io.StringIO(out))]
    assert [k.removeprefix("results.") for k in keys if k.startswith("results.")] == CURVATURE_KEYS


def test_curvature_clifford_near_zero(capsys):
    code, out, _ = run_cli(
        capsys, "curvature", "--surface", "clifford_torus_r4", "--point", "0.2,1.1",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["results"]["k_moments"]) < 1e-10
    assert rep["results"]["egregium_residual"] < 1e-10


def test_curvature_unknown_surface_exit_2(capsys):
    code, _, err = run_cli(capsys, "curvature", "--surface", "nope", "--point", "0")
    assert code == 2
    assert "unknown surface" in err


def test_curvature_surface_flags_are_exclusive(capsys, tmp_path):
    path = _graph_file(tmp_path)
    code, _, err = run_cli(
        capsys, "curvature", "--surface", "sphere2_r3", "--surface-file", path,
        "--point", "1,1",
    )
    assert code == 2 and "not both" in err
    code, _, err = run_cli(capsys, "curvature", "--point", "1,1")
    assert code == 2 and "required" in err


def test_curvature_bad_point_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "curvature", "--surface", "sphere2_r3", "--point", "1.0,abc"
    )
    assert code == 2
    code, out, err = run_cli(capsys, "curvature", "--surface", "sphere2_r3", "--point", "1.0,2.0,3.0")
    assert code == 2 and out == ""
    assert "has 3 coordinates, surface needs 2" in err


@pytest.mark.parametrize("point", ["nan,0", "inf,0"])
def test_curvature_non_finite_point_exit_2(capsys, point):
    # axis 0 of the torus is periodic, where wrapping would turn it into NaN
    code, out, err = run_cli(capsys, "curvature", "--surface", "torus_rev_r3", "--point", point)
    assert code == 2 and out == ""
    assert "is not finite" in err and point.split(",")[0] in err


# -- gauss-bonnet -----------------------------------------------------------


def test_gauss_bonnet_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "sphere2_r3", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["residual"] < 1e-8
    assert rep["results"]["estimated_chi"] == 2
    assert rep["results"]["converged"] is True
    assert 0.0 <= rep["results"]["error_estimate"] <= 1e-12 * 2 * np.pi
    assert rep["options"]["grid_shape"] == [13, 13]


def test_gauss_bonnet_results_are_the_library_report(capsys):
    _, out, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "sphere2_r4", "--resolution", "12", "--format", "json",
    )
    imm = cl.catalog_get("sphere2_r4")
    want = asdict(cl.gauss_bonnet_check(imm, cl.default_grid(imm, 12)))
    rep = json.loads(out)
    assert rep["options"] == {"route": want.pop("route"), "resolution": 12,
                              "grid_shape": list(want.pop("grid_shape"))}
    assert rep["results"] == want


def test_gauss_bonnet_product_default_resolution(capsys):
    # m = 4 run on the refined default grid
    code, out, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "product_s2s2_r6", "--format", "json"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["residual"] < 1e-6 * rep["results"]["expected"]


def test_gauss_bonnet_threshold_failure_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "sphere2_r3",
        "--resolution", "4", "--fail-threshold", "1e-14",
    )
    assert code == 1


def test_unconverged_refinement_fails_the_gate(capsys, tmp_path):
    # A thin ellipse profile (axes 0.5 and 0.05): K dA is the v-derivative of a
    # function with only odd harmonics, so an even node count integrates it
    # exactly, while on an odd count the error falls only like (0.45 / 0.55)^N.
    # The ladder alternates parity, so no two levels agree before the 128-node
    # cap, which is exact.
    path = elliptic_torus_file(tmp_path)
    code, out, _ = run_cli(capsys, "gauss-bonnet", "--surface-file", path, "--format", "json")
    assert code == 0  # without --fail-threshold nothing is gated
    rep = json.loads(out)
    assert rep["results"]["converged"] is False
    assert rep["results"]["error_estimate"] > 1e-3
    assert rep["options"]["grid_shape"] == [128, 128]  # the cap: today's default grid
    assert rep["results"]["residual"] < 1e-6  # small, so only convergence can fail the gate
    code, _, err = run_cli(capsys, "gauss-bonnet", "--surface-file", path, "--fail-threshold", "1")
    assert code == 1
    assert "converged" in err
    # a grid the caller fixed has no estimate, so it passes on its residual alone
    code, out, _ = run_cli(capsys, "gauss-bonnet", "--surface-file", path, "--resolution", "128",
                           "--fail-threshold", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["converged"] is None
    args = argparse.Namespace(fail_threshold=1.0)
    assert _threshold_exit(args, {"total_residual": 0.0}, converged=False) == 1
    assert _threshold_exit(args, {"total_residual": 0.0}, converged=True) == 0


def test_gauss_bonnet_threshold_pass_exit_0(capsys):
    code, _, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "sphere2_r3", "--fail-threshold", "1e-6"
    )
    assert code == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_metric_fails_the_gate(capsys, bad):
    args = argparse.Namespace(fail_threshold=1.0)
    assert _threshold_exit(args, {"residual": 1e-12, "max_spectrum_residual": bad}) == 1
    assert "max_spectrum_residual" in capsys.readouterr().err
    assert _threshold_exit(args, {"residual": 1e-12}) == 0


# counts below one, and seeds below zero
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("egregium", "--surface", "sphere2_r3", "--samples", "0"), "--samples"),
        (("tube", "--surface", "sphere2_r3", "--eps", "0.1", "--samples", "0"), "--samples"),
        (("tube", "--surface", "sphere2_r3", "--eps", "0.1", "--total", "--resolution", "-3"),
         "--resolution"),
        (("gauss-bonnet", "--surface", "sphere2_r3", "--resolution", "0"), "--resolution"),
        (("gauss-bonnet", "--surface", "sphere2_r3", "--resolution", "ten"), "--resolution"),
        (("egregium", "--surface", "sphere2_r3", "--seed", "-1"), "--seed"),
        (("tube", "--surface", "sphere2_r3", "--eps", "0.1", "--seed", "-3"), "--seed"),
    ],
)
def test_counts_below_one_are_usage_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}" in err


# -- tube -------------------------------------------------------------------


def test_tube_total_sphere(capsys):
    code, out, _ = run_cli(
        capsys, "tube", "--surface", "sphere2_r3", "--eps", "0.1", "--total",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["total_integral"] == pytest.approx(8 * np.pi, rel=1e-3)
    assert rep["results"]["total_converged"] is True
    assert rep["results"]["total_error_estimate"] <= 1e-12 * 4 * np.pi
    assert rep["results"]["total_grid_shapes"] == [[13, 13], [13, 13]]


def test_tube_identity_sphere2_r4(capsys):
    code, out, _ = run_cli(
        capsys, "tube", "--surface", "sphere2_r4", "--eps", "0.05", "--identity",
        "--samples", "20", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["max_identity_residual"] < 1e-6


def test_tube_spectrum_sphere2_r4(capsys):
    code, out, _ = run_cli(
        capsys, "tube", "--surface", "sphere2_r4", "--eps", "0.05", "--spectrum",
        "--samples", "20", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["max_spectrum_residual"] < 1e-6
    assert results["spectrum_samples"] == 20
    assert not any("identity" in key for key in results)


def test_tube_checks_evaluate_each_sample_once(capsys, monkeypatch):
    # one batch of 20 points serves both checks: one base 2-jet, and no frame of its own
    calls = []
    jet_map = cl.Immersion.jet_map

    def recording_jet_map(imm, U, order):
        calls.append((imm.name, order, len(U)))
        return jet_map(imm, U, order)

    monkeypatch.setattr(cl.Immersion, "jet_map", recording_jet_map)
    code, _, _ = run_cli(
        capsys, "tube", "--surface", "sphere2_r4", "--eps", "0.05", "--identity", "--spectrum",
        "--samples", "20",
    )
    assert code == 0
    assert calls == [("sphere2_r4", 2, 20)]


def test_tube_eps_above_reach_exit_2(capsys):
    code, _, err = run_cli(capsys, "tube", "--surface", "sphere2_r3", "--eps", "0.7")
    assert code == 2
    assert "reach" in err


@pytest.mark.parametrize("surface_file, grids", [
    (circle_r3_file, [[13, 3]]), (clifford_torus_file, [[13, 13, 4]]), (unit_circle_file, [[13], [13]]),
    (clifford_torus_r6_file, [[13, 13, 3, 3, 4]]),
])
def test_tube_total_on_a_closed_surface_file_of_any_codimension(capsys, tmp_path, surface_file, grids):
    # the normal frame comes from the tangents at each base point, so nothing in it can turn
    # tangent on a closed base, in codimension 2 as in codimension 1 and 4
    code, out, _ = run_cli(
        capsys, "tube", "--surface-file", surface_file(tmp_path), "--eps", "0.1", "--total",
        "--fail-threshold", "1e-12", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["total_converged"] is True
    assert results["total_grid_shapes"] == grids
    assert abs(results["total_integral"]) <= 1e-12


def test_tube_singular_normal_jacobian_exit_2_names_the_point(capsys, tmp_path):
    # a declared reach of 2.0 lets eps = 1.0 through, but the unit circle's inner sheet
    # collapses to its center: the first sample with an inward direction is named
    path = unit_circle_file(tmp_path, reach=2.0)
    code, out, err = run_cli(capsys, "tube", "--surface-file", path, "--eps", "1.0", "--identity")
    assert code == 2 and out == ""
    cfg = cl.TubeConfig(cl.load_immersion(path), 1.0)
    rng = np.random.default_rng(0)
    points = cl.sample_domain(cfg.base, 20, rng)

    def singular(u, nu):
        try:
            cl.normal_jacobian(cfg, u, nu)
        except ReachExceededError:
            return True
        return False

    first = next(u for u, nu in zip(points, _random_directions(rng, 20, 1)) if singular(u, nu))
    assert (f"unit_circle: 1 - eps*shape operator is singular at parameter point "
            f"{cfg.base.wrap(first).tolist()}") in err


def test_tube_total_on_a_closed_codim1_surface_file(capsys, tmp_path):
    # a torus of revolution (R = 2, r = 0.5) declares no normal seeds
    code, out, _ = run_cli(
        capsys, "tube", "--surface-file", elliptic_torus_file(tmp_path, p=0.5, q=0.5), "--eps", "0.1",
        "--total", "--identity", "--spectrum", "--fail-threshold", "1e-12", "--format", "json",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["total_converged"] is True
    assert results["total_grid_shapes"] == [[13, 13], [13, 13]]


@pytest.mark.parametrize(
    "argv, name",
    [
        (("--surface", "sphere2_r3", "--eps", "nan", "--identity"), "tube radius"),
        (("--surface", "sphere2_r3", "--eps", "0.1", "--fail-threshold", "nan"), "--fail-threshold"),
        (("--surface-file", {"m": float("inf")}, "--eps", "0.1"), "m:"),
        (("--surface-file", {"reach": float("nan")}, "--eps", "5"), "reach:"),
    ],
)
def test_non_finite_inputs_exit_2(capsys, tmp_path, argv, name):
    argv = [unit_circle_file(tmp_path, **a) if isinstance(a, dict) else a for a in argv]
    code, out, err = run_cli(capsys, "tube", *argv)
    assert code == 2 and out == ""
    assert name in err


def test_tube_resolution_without_total_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "tube", "--surface", "sphere2_r3", "--eps", "0.1", "--resolution", "20"
    )
    assert code == 2 and out == ""
    assert "--resolution" in err and "--total" in err


@pytest.mark.parametrize("flag, value", [("--samples", "5"), ("--seed", "3")])
def test_tube_samples_or_seed_with_only_total_exit_2(capsys, flag, value):
    # only --identity and --spectrum sample points; --total alone would drop the flag
    code, out, err = run_cli(
        capsys, "tube", "--surface", "sphere2_r3", "--eps", "0.1", "--total", flag, value
    )
    assert code == 2 and out == ""
    assert flag in err and "--identity" in err and "--spectrum" in err


def test_tube_default_runs_identity(capsys):
    code, out, _ = run_cli(
        capsys, "tube", "--surface", "circle_r3", "--eps", "0.1", "--samples", "5",
        "--format", "json",
    )
    assert code == 0
    assert "max_identity_residual" in json.loads(out)["results"]


# -- egregium ---------------------------------------------------------------


def test_egregium_sphere4(capsys):
    code, out, _ = run_cli(
        capsys, "egregium", "--surface", "sphere4_r5", "--samples", "10",
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["max_egregium_residual"] < 1e-9


def test_egregium_graph_from_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "egregium", "--surface-file", _graph_file(tmp_path),
        "--samples", "50", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["max_egregium_residual"] < 1e-9
    assert rep["surface"].startswith("file:")


def test_egregium_odd_m_exit_2(capsys, monkeypatch):
    # refused by name before any point is sampled or evaluated
    monkeypatch.setattr(cli, "sample_domain", None)
    monkeypatch.setattr(cl.Immersion, "jet_map", None)
    code, _, err = run_cli(capsys, "egregium", "--surface", "circle_r3")
    assert code == 2
    assert "circle_r3: Pfaffian undefined for odd dimension m = 1" in err


@pytest.mark.parametrize("command", [["curvature", "--point", "0,0,0,0,0,0"], ["egregium"]])
def test_m_6_is_refused_with_exit_2(capsys, monkeypatch, command):
    graph = replace(cl.random_graph_poly(np.random.default_rng(0), m=6, n=1, degree=2), name="graph6")
    monkeypatch.setattr(cli, "catalog_get", lambda name: graph)
    code, out, err = run_cli(capsys, command[0], "--surface", "graph6", *command[1:])
    assert code == 2
    assert out == ""
    assert "graph6: Pfaffian density implemented for m in {2, 4}, got m = 6" in err


def test_egregium_evaluates_its_samples_in_one_batch(capsys, monkeypatch):
    calls = []
    jet_map = cl.Immersion.jet_map

    def recording_jet_map(imm, U, order):
        calls.append((imm.name, order, len(U)))
        return jet_map(imm, U, order)

    monkeypatch.setattr(cl.Immersion, "jet_map", recording_jet_map)
    code, _, _ = run_cli(capsys, "egregium", "--surface", "sphere2_r4", "--samples", "20")
    assert code == 0
    assert calls == [("sphere2_r4", 2, 20)]


# -- report serialization ---------------------------------------------------


def test_run_report_json_round_trip(capsys):
    _, out, _ = run_cli(
        capsys, "curvature", "--surface", "sphere2_r3", "--point", "1.0,0.5",
        "--format", "json",
    )
    rep = RunReport.from_json(out)
    assert RunReport.from_json(rep.to_json()) == rep
    assert rep.command == "curvature"


def test_run_report_csv_keys_match_flat_items(capsys):
    _, out, _ = run_cli(
        capsys, "gauss-bonnet", "--surface", "torus_rev_r3", "--resolution", "16",
        "--format", "csv",
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["key", "value"]
    keys = [r[0] for r in rows[1:]]
    assert "results.integral" in keys and "wall_time_s" in keys
    _, out, _ = run_cli(
        capsys, "tube", "--surface", "sphere2_r3", "--eps", "0.1", "--total", "--format", "csv",
    )
    values = dict(csv.reader(io.StringIO(out)))
    assert values["results.total_grid_shapes"] == "13;13;13;13"  # two sheets' shapes, flattened
    assert values["results.total_converged"] == "True"


def test_machine_output_deterministic_modulo_wall_time(capsys):
    args = (
        "tube", "--surface", "sphere2_r4", "--eps", "0.05", "--identity",
        "--samples", "5", "--seed", "7", "--format", "json",
    )
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_seed_changes_samples(capsys):
    # residuals on the torus vary pointwise, so a new seed moves the max
    base = (
        "tube", "--surface", "torus_rev_r3", "--eps", "0.05", "--identity",
        "--samples", "4", "--format", "json",
    )
    _, out1, _ = run_cli(capsys, *base, "--seed", "1")
    _, out2, _ = run_cli(capsys, *base, "--seed", "2")
    r1 = json.loads(out1)["results"]["max_identity_residual"]
    r2 = json.loads(out2)["results"]["max_identity_residual"]
    assert r1 != r2


# -- installed entry point --------------------------------------------------


SRC = Path(__file__).resolve().parent.parent / "src"


def run_module(*args):
    """`python -m curvlab.cli ARGS` in a child process importing curvlab from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "curvlab.cli", *args],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_invocation_end_to_end():
    proc = run_module("catalog", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["name", "m", "k", "n", "chi"] and len(rows) == 1 + 9
    assert ["sphere2_r4", "2", "4", "2", "2"] in rows


def test_module_invocation_error_path():
    for argv in (("tube", "--surface", "sphere2_r3", "--eps", "0.9"),
                 ("curvature", "--surface", "nope", "--point", "0")):
        proc = run_module(*argv)
        assert proc.returncode == 2
        assert proc.stdout == "" and "error:" in proc.stderr
