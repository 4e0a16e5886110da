"""Quadrature rules, Riemannian areas, normal-sphere rules, and Gauss-Bonnet."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.errors import DegenerateImmersionError
from curvlab.integrate import (
    GridAxis,
    QuadratureGrid,
    _make_axis,
    _refinement_ladder,
    reduce_over_grid,
    reduce_until_converged,
)

from conftest import ALL_NAMES, CHI_NAMES, get, wiggly_torus_file


# -- axis rules -------------------------------------------------------------


def test_gauss_legendre_axis_exact_on_polynomials():
    ax = _make_axis(-1.5, 2.0, False, 12)
    assert ax.kind == "gauss-legendre"
    assert_allclose(np.sum(ax.weights), 3.5, rtol=1e-14)  # interval length
    for deg in range(0, 24):  # exact through degree 2*12 - 1
        val = float(np.sum(ax.weights * ax.nodes**deg))
        exact = (2.0 ** (deg + 1) - (-1.5) ** (deg + 1)) / (deg + 1)
        assert abs(val - exact) < 1e-13 * max(1.0, abs(exact))


def test_trapezoid_axis_exact_below_nyquist():
    ax = _make_axis(0.0, 2 * np.pi, True, 16)
    assert ax.kind == "trapezoid"
    assert_allclose(np.sum(ax.weights), 2 * np.pi, rtol=1e-14)  # the period
    for freq in range(1, 8):
        for f in (np.sin, np.cos):
            val = float(np.sum(ax.weights * f(freq * ax.nodes)))
            assert abs(val) < 1e-13
    val = float(np.sum(ax.weights * np.cos(3 * ax.nodes) ** 2))
    assert_allclose(val, np.pi, rtol=1e-13)


def test_grid_mesh_shape_and_weights():
    grid = cl.default_grid(get("sphere2_r3"))
    assert grid.shape == (96, 128)  # m = 2 policy: 96 interval, 128 periodic
    U, W = grid.mesh()
    assert U.shape == (96 * 128, 2) and W.shape == (96 * 128,)
    assert np.all(W > 0)
    assert_allclose(np.sum(W), np.pi * 2 * np.pi, rtol=1e-13)
    assert cl.default_grid(get("sphere4_r5")).shape == (32, 32, 32, 48)
    assert cl.default_grid(get("sphere2_r3"), resolution=10).shape == (10, 10)


@pytest.mark.parametrize("resolution", [0, -1])
def test_resolution_below_one_is_rejected_by_name(resolution):
    imm = get("sphere2_r3")
    with pytest.raises(ValueError, match=f"resolution {resolution} must be >= 1"):
        cl.default_grid(imm, resolution)
    with pytest.raises(ValueError, match=f"resolution {resolution} must be >= 1"):
        cl.tube_total_curvature(cl.TubeConfig(imm, 0.1), resolution=resolution)


# -- areas ------------------------------------------------------------------


def _area(imm, grid=None):
    return cl.integrate_scalar(
        imm, lambda U: np.ones(len(U)), grid or cl.default_grid(imm)
    )


def test_sphere_area_at_64x128():
    imm = get("sphere2_r3")
    grid = QuadratureGrid(
        (
            _make_axis(imm.domain[0].lo, imm.domain[0].hi, False, 64),
            _make_axis(imm.domain[1].lo, imm.domain[1].hi, True, 128),
        )
    )
    assert abs(_area(imm, grid) - 4 * np.pi) < 1e-8


def test_clifford_and_torus_areas():
    assert abs(_area(get("clifford_torus_r4")) - 2 * np.pi**2) < 1e-10
    assert abs(_area(cl.catalog_get("torus_rev_r3(R=2,r=0.5)")) - 4 * np.pi**2) < 1e-10


def test_integrate_scalar_field():
    # first ambient coordinate squared over the unit sphere: 4 pi / 3
    imm = get("sphere2_r3")
    val = cl.integrate_scalar(
        imm, lambda U: imm.points(U)[:, 0] ** 2, cl.default_grid(imm)
    )
    assert_allclose(val, 4 * np.pi / 3, rtol=1e-10)


def test_grid_axis_mismatch_error():
    grid = cl.default_grid(get("sphere2_r3"))
    with pytest.raises(ValueError):
        cl.integrate_scalar(get("circle_r2"), lambda U: np.ones(len(U)), grid)


# -- normal-sphere rules ----------------------------------------------------


def test_normal_sphere_rule_n1():
    rule = cl.normal_sphere_rule(1)
    assert_allclose(np.sort(rule.nodes[:, 0]), [-1.0, 1.0], rtol=0, atol=0)
    assert_allclose(rule.weights, [1.0, 1.0], rtol=0, atol=0)


def test_normal_sphere_rule_n2():
    rule = cl.normal_sphere_rule(2)
    assert rule.nodes.shape == (64, 2)
    assert_allclose(np.sum(rule.weights), 2 * np.pi, rtol=1e-14)
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=1e-14)


def test_normal_sphere_rule_n3():
    rule = cl.normal_sphere_rule(3)
    assert_allclose(np.sum(rule.weights), 4 * np.pi, rtol=1e-14)
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=1e-13)
    for axis in range(3):
        val = float(rule.weights @ rule.nodes[:, axis] ** 2)
        assert_allclose(val, 4 * np.pi / 3, rtol=1e-12)  # symmetry: omega_2 / 3
        assert abs(rule.weights @ rule.nodes[:, axis]) < 1e-13


def test_normal_sphere_rule_n4_monte_carlo_deterministic():
    a = cl.normal_sphere_rule(4)
    b = cl.normal_sphere_rule(4)
    assert_allclose(a.nodes, b.nodes, rtol=0, atol=0)  # fixed seed
    assert_allclose(np.sum(a.weights), cl.sphere_volume(3), rtol=1e-12)
    assert_allclose(np.linalg.norm(a.nodes, axis=1), 1.0, rtol=1e-12)


def test_normal_sphere_rule_is_built_once_per_n_and_read_only():
    for n in (1, 2, 3, 4):
        rule = cl.normal_sphere_rule(n)
        assert cl.normal_sphere_rule(n) is rule
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 0.0
    # the n = 4 nodes are the seeded Monte Carlo draw, bit for bit
    raw = np.random.default_rng(20260823).standard_normal((4096, 4))
    np.testing.assert_array_equal(cl.normal_sphere_rule(4).nodes,
                                  raw / np.linalg.norm(raw, axis=1, keepdims=True))


# -- Gauss-Bonnet pipeline --------------------------------------------------


def test_gauss_bonnet_sphere():
    rep = cl.gauss_bonnet_check(get("sphere2_r3"))
    assert_allclose(rep.expected, 4 * np.pi, rtol=1e-15)
    assert rep.residual < 1e-8
    assert rep.estimated_chi == 2
    assert_allclose(rep.residual, abs(rep.integral - rep.expected), rtol=0, atol=1e-16)


def test_gauss_bonnet_chi_estimation_with_chi_withheld():
    rep = cl.gauss_bonnet_check(get("sphere2_r4").without_euler_char(),
                                cl.default_grid(get("sphere2_r4"), 48))
    assert rep.expected is None and rep.residual is None
    assert rep.estimated_chi == 2
    assert rep.chi_distance < 1e-3


def test_gauss_bonnet_routes_agree():
    imm = get("sphere2_r4")
    grid = cl.default_grid(imm, 32)
    a = cl.gauss_bonnet_check(imm, grid, route="moments")
    b = cl.gauss_bonnet_check(imm, grid, route="quadrature")
    assert abs(a.integral - b.integral) < 1e-8
    assert a.route == "moments" and b.route == "quadrature"


def test_gauss_bonnet_deterministic():
    imm = get("torus_rev_r3")
    a = cl.gauss_bonnet_check(imm)
    b = cl.gauss_bonnet_check(imm)
    assert a.integral == b.integral  # bit-identical accumulation
    assert a == b  # and the same grid, error estimate and convergence flag


@pytest.mark.parametrize("name", CHI_NAMES)
def test_grid_refinement_converges(name):
    imm = get(name)
    errors = []
    for resolution in (6, 12, 24):
        rep = cl.gauss_bonnet_check(imm, cl.default_grid(imm, resolution))
        errors.append(rep.residual)
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse / 4.0 or fine < 1e-10


# -- refinement of the default grid ----------------------------------------

REFINE_TOL = 1e-12  # agreement between levels, as a fraction of the quantum
M2_CHI_NAMES = [n for n in CHI_NAMES if get(n).m <= 2]


def _quantum(imm):
    return cl.sphere_volume(imm.k - 1) / cl.sphere_volume(imm.n - 1)


def test_refinement_ladder_grows_by_half_up_to_the_default_grid():
    assert _refinement_ladder(get("product_s2s2_r6")) == [8, 13, 20, 31, None]
    assert _refinement_ladder(get("sphere2_r3")) == [8, 13, 20, 31, 47, 71, None]
    assert _refinement_ladder(get("circle_r2")) == [8, 13, 20, 31, 47, 71, 107, None]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_neighbouring_ladder_levels_share_no_factor(name):
    imm = get(name)
    *levels, _ = _refinement_ladder(imm)
    for coarse, fine in zip(levels, levels[1:]):
        assert math.gcd(coarse, fine) == 1
    for count in cl.default_grid(imm).shape:  # the last level and the cap
        assert math.gcd(levels[-1], count) == 1


@pytest.mark.parametrize("freq", [24, 36, 120])
def test_refinement_is_not_fooled_by_a_symmetric_integrand(tmp_path, freq):
    # every harmonic in u is a multiple of freq; two levels whose node counts
    # both divide freq sample the same u-values and would agree on a wrong value
    imm = cl.load_immersion(wiggly_torus_file(tmp_path, freq))
    refined = cl.gauss_bonnet_check(imm)
    capped = cl.gauss_bonnet_check(imm, cl.default_grid(imm))
    assert refined.converged is True
    assert abs(refined.integral - capped.integral) <= REFINE_TOL * _quantum(imm)
    assert refined.residual <= REFINE_TOL * _quantum(imm)  # chi = 0


@pytest.mark.parametrize("route", ["moments", "quadrature"])
@pytest.mark.parametrize("name", M2_CHI_NAMES)
def test_refined_integral_matches_the_default_grid(name, route):
    imm = get(name)
    refined = cl.gauss_bonnet_check(imm, route=route)
    capped = cl.gauss_bonnet_check(imm, cl.default_grid(imm), route=route)
    assert refined.converged is True
    assert refined.error_estimate <= REFINE_TOL * _quantum(imm)
    assert abs(refined.integral - capped.integral) <= REFINE_TOL * _quantum(imm)


@pytest.mark.parametrize("route", ["moments", "quadrature"])
@pytest.mark.parametrize("name", ["sphere4_r5", "product_s2s2_r6"])
def test_refined_m4_integral_matches_euler_characteristic(name, route):
    # their default grids cost 10-60 s each, so these check against chi instead
    imm = get(name)
    rep = cl.gauss_bonnet_check(imm, route=route)
    assert rep.converged is True
    assert rep.error_estimate <= REFINE_TOL * _quantum(imm)
    assert rep.residual <= REFINE_TOL * _quantum(imm)


def test_refinement_that_cannot_converge_ends_on_the_default_grid():
    imm = get("circle_r2")  # |sin u| has kinks: the trapezoid error falls only as 1/N^2
    value, grid_shape, error_estimate, converged = reduce_until_converged(
        imm, lambda U: np.abs(np.sin(U[:, 0])), 1.0)
    assert grid_shape == cl.default_grid(imm).shape
    assert converged is False
    assert error_estimate > REFINE_TOL
    assert abs(value - 4.0) < 1e-3


def test_a_fixed_grid_runs_one_reduction_on_exactly_that_grid():
    imm = get("sphere2_r4")

    def integrand(U):
        metric = cl.frames_at(imm, U)[0]
        return cl.batched_curvature(imm, U) * np.sqrt(np.linalg.det(metric))

    for grid in (cl.default_grid(imm, 16), cl.default_grid(imm)):
        rep = cl.gauss_bonnet_check(imm, grid)
        assert rep.integral == reduce_over_grid(imm, grid, integrand)
        assert rep.grid_shape == grid.shape
        assert rep.error_estimate is None and rep.converged is None
    refined = cl.gauss_bonnet_check(imm)
    fixed = cl.gauss_bonnet_check(imm, cl.default_grid(imm, refined.grid_shape[0]))
    assert refined.integral == fixed.integral  # the refinement reports its finer level


def test_unknown_route_is_rejected_before_the_mesh(monkeypatch):
    def no_mesh(self):
        raise AssertionError("mesh built for an unknown route")

    monkeypatch.setattr(QuadratureGrid, "mesh", no_mesh)
    with pytest.raises(ValueError, match="unknown curvature route 'x'"):
        cl.gauss_bonnet_check(get("sphere2_r4"), route="x")
    with pytest.raises(ValueError, match="unknown curvature route"):
        cl.batched_curvature(get("sphere2_r4"), np.array([[1.0, 2.0]]), route="x")


# -- non-finite integrands --------------------------------------------------


def _overflowing_line(tmp_path):
    # y = 1e308 x^4 - 1e308 x^4: zero where finite, NaN once x^4 overflows
    doc = {
        "name": "overflowing_line",
        "m": 1,
        "k": 2,
        "euler_char": 0,
        "reach": 1.0,
        "domain": [{"lo": -2.0, "hi": 2.0}],
        "coordinates": [
            [{"coeff": 1.0, "factors": [{"axis": 0, "kind": "pow", "exponent": 1}]}],
            [
                {"coeff": 1e308, "factors": [{"axis": 0, "kind": "pow", "exponent": 4}]},
                {"coeff": -1e308, "factors": [{"axis": 0, "kind": "pow", "exponent": 4}]},
            ],
        ],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return cl.load_immersion(str(path))


def test_non_finite_integrand_names_the_first_bad_point(tmp_path):
    imm = _overflowing_line(tmp_path)
    grid = cl.default_grid(imm, 8)
    first = grid.mesh()[0][0]  # the node nearest -2 comes first, and overflows
    with np.errstate(all="ignore"):
        assert np.isnan(imm.points(first[None])[0, 1])
        with pytest.raises(DegenerateImmersionError) as err:
            cl.integrate_scalar(imm, lambda U: np.ones(len(U)), grid)
        assert "overflowing_line" in str(err.value)
        assert str(first.tolist()) in str(err.value)
        with pytest.raises(DegenerateImmersionError, match="overflowing_line"):
            cl.gauss_bonnet_check(imm, grid)
        with pytest.raises(DegenerateImmersionError, match="overflowing_line_tube"):
            cl.tube_total_curvature(cl.TubeConfig(imm, 0.1), resolution=8)
