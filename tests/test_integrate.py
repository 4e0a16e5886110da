"""Quadrature rules, Riemannian areas, normal-sphere rules, and Gauss-Bonnet."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab import integrate
from curvlab.curvature import _det
from curvlab.errors import DegenerateImmersionError
from curvlab.immersion import _stacked_jets
from curvlab.jets import cos, sin
from curvlab.integrate import (
    GridAxis,
    QuadratureGrid,
    _gauss_legendre,
    _make_axis,
    _polar_axis,
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


def test_gauss_legendre_nodes_are_built_once_per_count_and_read_only():
    x, w = np.polynomial.legendre.leggauss(13)
    cached = _gauss_legendre(13)
    assert cached is _gauss_legendre(13)
    assert cached[0].tobytes() == x.tobytes() and cached[1].tobytes() == w.tobytes()
    assert not cached[0].flags.writeable and not cached[1].flags.writeable
    ax = _make_axis(-1.5, 2.0, False, 13)  # the axis is its own array, scaled from the shared one
    assert ax.nodes.tobytes() == (-1.5 + 1.75 * (x + 1.0)).tobytes() and ax.nodes.flags.writeable


def test_polar_axis_is_gauss_legendre_in_cos_psi():
    ax = _polar_axis(5)
    assert ax.kind == "gauss-legendre-cos"
    assert np.all(np.diff(ax.nodes) > 0) and 0.0 < ax.nodes[0] and ax.nodes[-1] < np.pi
    for deg in range(0, 10):  # sin(psi) cos(psi)^deg, exact through degree 2*5 - 1
        val = float(np.sum(ax.weights * np.sin(ax.nodes) * np.cos(ax.nodes) ** deg))
        assert abs(val - (1.0 + (-1.0) ** deg) / (deg + 1)) < 1e-14
    assert abs(float(np.sum(ax.weights * np.sin(ax.nodes) * np.cos(ax.nodes) ** 10)) - 2.0 / 11) > 1e-6


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
    for grid in (cl.default_grid(get("sphere4_r5"), 5), cl.default_grid(get("circle_r2"), 7)):
        # the bytes of a meshgrid, with the weights multiplied in axis order
        nodes = np.meshgrid(*[ax.nodes for ax in grid.axes], indexing="ij")
        W = np.ones(math.prod(grid.shape))
        for w in np.meshgrid(*[ax.weights for ax in grid.axes], indexing="ij"):
            W *= w.ravel()
        want = (np.stack([g.ravel() for g in nodes], axis=1), W)
        assert [(a.shape, a.tobytes()) for a in grid.mesh()] == [(a.shape, a.tobytes()) for a in want]
    assert cl.default_grid(get("sphere4_r5")).shape == (32, 32, 32, 48)
    assert cl.default_grid(get("sphere2_r3"), resolution=10).shape == (10, 10)


@pytest.mark.parametrize("resolution", [0, -1])
def test_resolution_below_one_is_rejected_by_name(resolution):
    imm = get("sphere2_r3")
    with pytest.raises(ValueError, match=f"resolution {resolution} must be >= 1"):
        cl.default_grid(imm, resolution)
    with pytest.raises(ValueError, match=f"resolution {resolution} must be >= 1"):
        cl.tube_total_curvature(cl.TubeConfig(imm, 0.1), resolution=resolution)


@pytest.mark.parametrize("resolution", [8.0, 2.5, True, np.float64(8.0), "8"])
def test_a_resolution_that_is_not_an_integer_is_rejected_by_name(resolution):
    imm = get("sphere2_r3")
    message = re.escape(f"resolution must be an integer number of nodes per axis, got {resolution!r}")
    with pytest.raises(TypeError, match=message):
        cl.default_grid(imm, resolution)
    with pytest.raises(TypeError, match=message):
        cl.tube_total_curvature(cl.TubeConfig(imm, 0.1), resolution=resolution)


def test_a_numpy_integer_resolution_is_an_integer():
    imm = get("sphere2_r3")
    grid, expected = cl.default_grid(imm, np.int64(8)), cl.default_grid(imm, 8)
    assert grid.shape == (8, 8)
    assert all(a.nodes.tobytes() == b.nodes.tobytes() and a.weights.tobytes() == b.weights.tobytes()
               for a, b in zip(grid.axes, expected.axes))


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


def test_an_integrand_of_the_wrong_shape_is_refused_and_named():
    # (B, 1) values broadcast against the (B,) weights to (B, B), and were summed: 64 * 4 pi
    imm = get("sphere2_r3")
    with pytest.raises(ValueError, match=r"sphere2_r3: .*\(64, 64\), expected \(64,\)"):
        cl.integrate_scalar(imm, lambda U: np.ones((len(U), 1)), cl.default_grid(imm, 8))


def test_grid_axis_mismatch_error():
    grid = cl.default_grid(get("sphere2_r3"))
    with pytest.raises(ValueError):
        cl.integrate_scalar(get("circle_r2"), lambda U: np.ones(len(U)), grid)
    # an axis that cannot be integrated, or that leaves the chart's domain, is refused by name.  Unchecked,
    # Gauss-Bonnet gave 0.0 (chi 0) on an empty theta axis and 1.52 for 2 pi on 5 nodes with 13 weights,
    # 13 nodes with 5 weights raised IndexError, and theta nodes on [0, 2 pi] gave an area of 25.47 for 4 pi
    imm = get("sphere2_r4")
    theta, phi = cl.default_grid(imm, 13).axes
    x, w = np.polynomial.legendre.leggauss(12)
    refused = {
        "of shape (0,) and weights of shape (0,)": GridAxis(theta.nodes[:0], theta.weights[:0], theta.kind),
        "of shape (5,) and weights of shape (13,)": GridAxis(theta.nodes[:5], theta.weights, theta.kind),
        "of shape (13,) and weights of shape (5,)": GridAxis(theta.nodes, theta.weights[:5], theta.kind),
        "of shape (13, 1) and weights of shape (13, 1)":
            GridAxis(theta.nodes[:, None], theta.weights[:, None], theta.kind),
        f"in [{np.pi * (x[0] + 1)}, {np.pi * (x[-1] + 1)}], outside its domain [0.0, {np.pi}]":
            GridAxis(np.pi * (x + 1), np.pi * w, "gauss-legendre"),
    }
    for message, axis in refused.items():
        for run in (lambda: cl.gauss_bonnet_check(imm, QuadratureGrid((axis, phi))),
                    lambda: cl.integrate_scalar(imm, lambda U: np.ones(len(U)), QuadratureGrid((axis, phi)))):
            with pytest.raises(ValueError, match=re.escape(f"sphere2_r4: grid axis 0 has nodes {message}")):
                run()
    ahead = GridAxis(phi.nodes + 1.0, phi.weights, phi.kind)  # a periodic axis is not wrapped either
    with pytest.raises(ValueError, match=re.escape("sphere2_r4: grid axis 1 has nodes in [1.0, ")):
        cl.integrate_scalar(imm, lambda U: np.ones(len(U)), QuadratureGrid((theta, ahead)))


# -- normal-sphere rules ----------------------------------------------------


def test_normal_sphere_rule_n1():
    rule = cl.normal_sphere_rule(2, 1)
    assert_allclose(np.sort(rule.nodes[:, 0]), [-1.0, 1.0], rtol=0, atol=0)
    assert_allclose(rule.weights, [1.0, 1.0], rtol=0, atol=0)


def test_normal_sphere_rule_n2():
    # a trapezoid in theta, exact to degree d = 2 on d + 1 nodes (and 5 at m = 4)
    rule = cl.normal_sphere_rule(2, 2)
    assert rule.nodes.shape == (3, 2)
    assert cl.normal_sphere_rule(4, 2).nodes.shape == (5, 2)
    assert_allclose(np.sum(rule.weights), 2 * np.pi, rtol=1e-14)
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=1e-14)


def test_normal_sphere_rule_n3():
    # 2 polar by 3 azimuth nodes at m = 2, and 3 by 5 at m = 4
    rule = cl.normal_sphere_rule(2, 3)
    assert rule.nodes.shape == (6, 3)
    assert cl.normal_sphere_rule(4, 3).nodes.shape == (15, 3)
    assert_allclose(np.sum(rule.weights), 4 * np.pi, rtol=1e-14)
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=1e-13)
    for axis in range(3):
        val = float(rule.weights @ rule.nodes[:, axis] ** 2)
        assert_allclose(val, 4 * np.pi / 3, rtol=1e-12)  # symmetry: omega_2 / 3
        assert abs(rule.weights @ rule.nodes[:, axis]) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_normal_sphere_rule_is_exact_to_degree_m_rounded_up_to_even(m, n):
    rule = cl.normal_sphere_rule(m, n)
    d = m + m % 2
    for alpha in itertools.product(range(d + 1), repeat=n):
        if sum(alpha) > d:
            continue
        a = np.array(alpha)
        got = rule.weights @ np.prod(rule.nodes ** a, axis=1)
        want = 0.0 if np.any(a % 2) else cl.sphere_moment(a // 2)
        assert abs(got - want) <= 1e-13, alpha
    assert_allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, rtol=0, atol=1e-15)
    assert_allclose(np.sum(rule.weights), cl.sphere_volume(n - 1), rtol=1e-14)


def test_normal_sphere_rule_n4_monte_carlo_deterministic():
    a = cl.normal_sphere_rule(2, 4)
    b = cl.normal_sphere_rule(2, 4)
    assert_allclose(a.nodes, b.nodes, rtol=0, atol=0)  # fixed seed
    assert_allclose(np.sum(a.weights), cl.sphere_volume(3), rtol=1e-12)
    assert_allclose(np.linalg.norm(a.nodes, axis=1), 1.0, rtol=1e-12)


def test_normal_sphere_rule_is_built_once_per_n_and_read_only():
    raw = np.random.default_rng(20260823).standard_normal((4096, 4))
    for m in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            rule = cl.normal_sphere_rule(m, n)
            assert cl.normal_sphere_rule(m, n) is rule
            assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable
            with pytest.raises(ValueError):
                rule.nodes[0, 0] = 0.0
        # the n = 4 nodes are the seeded Monte Carlo draw, bit for bit
        np.testing.assert_array_equal(cl.normal_sphere_rule(m, 4).nodes,
                                      raw / np.linalg.norm(raw, axis=1, keepdims=True))
    for m, n in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="must be >= 1"):
            cl.normal_sphere_rule(m, n)


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
        imm, lambda U: np.abs(np.sin(U[:, 0])), 1.0, (cl.default_grid(imm, r) for r in _refinement_ladder(imm)))
    assert grid_shape == cl.default_grid(imm).shape
    assert converged is False
    assert error_estimate > REFINE_TOL
    assert abs(value - 4.0) < 1e-3


def test_a_fixed_grid_runs_one_reduction_on_exactly_that_grid():
    imm = get("sphere2_r4")

    def integrand(U):
        metric = cl.frames_at(imm, U)[0]
        return cl.batched_curvature(imm, U) * np.sqrt(_det(np.moveaxis(metric, 0, -1)))

    for grid in (cl.default_grid(imm, 16), cl.default_grid(imm)):
        rep = cl.gauss_bonnet_check(imm, grid)
        assert rep.integral == reduce_over_grid(imm, grid, integrand)
        assert rep.grid_shape == grid.shape
        assert rep.error_estimate is None and rep.converged is None
        assert reduce_until_converged(imm, integrand, 1.0, (grid,)) == (
            reduce_over_grid(imm, grid, integrand), grid.shape, None, None)
    with pytest.raises(ValueError, match="levels is empty"):  # no level: refused by name, not UnboundLocalError
        reduce_until_converged(imm, integrand, 1.0, ())
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


# -- grid windows -----------------------------------------------------------


def _constant_coordinate_file(tmp_path):
    """A flat torus in R^5 as a surface file whose last coordinate, the empty sum, is a constant."""
    def wave(axis, kind):
        return [{"coeff": 1.0, "factors": [{"axis": axis, "kind": kind, "freq": 1}]}]

    doc = {"name": "flat_torus_r5", "m": 2, "k": 5, "domain": [{"lo": 0.0, "hi": 2 * math.pi, "periodic": True}] * 2,
           "coordinates": [wave(0, "cos"), wave(0, "sin"), wave(1, "cos"), wave(1, "sin"), []], "reach": 0.5}
    path = tmp_path / "flat_torus_r5.json"
    path.write_text(json.dumps(doc))
    return cl.load_immersion(str(path))


def _windowed(name, tmp_path):
    if name.startswith("graph_m"):
        return cl.random_graph_poly(np.random.default_rng(11), m=int(name[-1]), n=2)
    if name == "constant_coordinate_file":
        return _constant_coordinate_file(tmp_path)
    if name.endswith("_tube"):  # a tube sheet: base factors broadcast over the fiber axes, y(theta) over the base
        base = get(name.removesuffix("_tube"))
        return cl.tube_boundary_immersion(cl.TubeConfig(base, 0.5 * base.reach)).sheets[-1]
    return get(name)


@pytest.mark.parametrize("name", [*ALL_NAMES, "graph_m2", "graph_m4", "constant_coordinate_file",
                                  "sphere2_r4_tube", "sphere2_r3_tube", "circle_r3_tube"])
def test_window_jets_equal_the_jets_of_the_flat_chunk_byte_for_byte(name, tmp_path, monkeypatch):
    # each chunk's jets, evaluated over its grid window and stacked in its C order, are those of its (B, m)
    # points as a flat batch, shape and bytes (so the sign of zero counts), at orders 0-3; the chunk sizes
    # give windows whose leading batch axis is one grid axis or several merged.  A chunk is one whole window,
    # of at most a chunk of points, and the chunks in order are the grid's mesh
    imm = _windowed(name, tmp_path)
    grid = cl.default_grid(imm, {1: 11, 2: 11, 3: 6}.get(imm.m, 5))

    def integrand(U):
        for order in range(4):
            window, flat = _stacked_jets(imm, U, order), _stacked_jets(imm, U.points, order)
            assert [(t.shape, t.tobytes()) for t in window] == [(t.shape, t.tobytes()) for t in flat], (
                U.window, order)
        assert len(U) == math.prod(U.window) <= integrate._CHUNK
        chunks.append(U.points)
        return np.zeros(len(U))

    for chunk in (50, 151, 509):
        chunks = []
        monkeypatch.setattr(integrate, "_CHUNK", chunk)
        assert reduce_over_grid(imm, grid, integrand) == 0.0
        points = np.concatenate(chunks)
        assert (points.shape, points.tobytes()) == (grid.mesh()[0].shape, grid.mesh()[0].tobytes())


def test_the_reduction_meshes_no_grid(monkeypatch):
    def refuse(grid):
        raise AssertionError("the reduction meshed a grid")

    monkeypatch.setattr(QuadratureGrid, "mesh", refuse)
    imm = get("sphere2_r4")
    assert abs(cl.gauss_bonnet_check(imm).residual) < 1e-12
    assert_allclose(cl.integrate_scalar(imm, lambda U: np.ones(len(U)), cl.default_grid(imm, 13)), 4 * np.pi,
                    rtol=1e-12, atol=0)
    assert cl.tube_total_curvature(cl.TubeConfig(get("circle_r3"), 0.1), resolution=8).residual < 1e-10


@pytest.mark.parametrize("call, bound_mib", [
    (lambda imm: cl.gauss_bonnet_check(imm, cl.default_grid(imm, 13)), 9),  # 28,561 points, 4 chunks
    (lambda imm: cl.tube_total_curvature(cl.TubeConfig(imm, 0.25), resolution=8), 28),  # 32,768 sheet points
], ids=["gauss_bonnet_13", "tube_8"])
def test_a_multi_chunk_reduction_holds_one_small_chunk_at_a_time(call, bound_mib):
    # the traced peak of one call on product_s2s2_r6 is set by its chunk's stage arrays: 6.6 and 19.3 MiB
    # with chunks of 8,192 points, 12.3 and 38.2 MiB with chunks of 16,384
    imm = get("product_s2s2_r6")
    call(imm)  # built-once rules and caches are not the reduction's
    tracemalloc.start()
    try:
        call(imm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mib * 2**20, peak / 2**20


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


def _refusal(run) -> tuple[str, str]:
    """The kind of refusal and the parameter point it names (its count of bad points is the chunk's)."""
    with pytest.raises(DegenerateImmersionError) as err:
        run()
    return str(err.value).split(" at ")[0], str(err.value).split("parameter point ")[1]


def _stalled_circle(stall: float):
    """The unit circle (cos g, sin g) with g = u - c - sin(2(u - c))/2: g' = 1 - cos 2(u - c) is exactly 0
    at u = c, so the tangent is lost there (and at c + pi, where roundoff allows)."""
    def chart(xs):
        g = xs[0] - stall - 0.5 * sin(2.0 * (xs[0] - stall))
        return [cos(g), sin(g)]

    return cl.TubeConfig(dataclasses.replace(get("circle_r2"), name="stalled_circle", chart=chart), 0.1)


@pytest.mark.parametrize("chunk", [1, 3, 5])
def test_the_first_bad_point_is_named_across_chunk_boundaries(chunk, tmp_path, monkeypatch):
    # chunk sizes that share no factor with the node counts put chunk boundaries inside the grid; every
    # refusal, non-finite integrand or lost rank, names the point it names with the default chunk
    line = _overflowing_line(tmp_path)
    grid = cl.default_grid(line, 8)
    third = float(cl.default_grid(get("circle_r2"), 8).axes[0].nodes[3])  # stalled at nodes 3 and 7
    runs = [
        lambda: cl.integrate_scalar(line, lambda U: np.ones(len(U)), grid),
        lambda: cl.gauss_bonnet_check(line, grid),
        lambda: cl.tube_total_curvature(cl.TubeConfig(line, 0.1), resolution=8),
        lambda: cl.tube_total_curvature(_stalled_circle(0.0), resolution=2),
        lambda: cl.tube_total_curvature(_stalled_circle(third), resolution=8),
    ]
    with np.errstate(all="ignore"):
        default = [_refusal(run) for run in runs]
        monkeypatch.setattr(integrate, "_CHUNK", chunk)
        assert [_refusal(run) for run in runs] == default
        # the count is of the failing chunk: the first 1, 3 or 5 of the 8 nodes hold 1, 3 and 3 of its 6 bad ones
        with pytest.raises(DegenerateImmersionError, match=re.escape(
                f"integrand is not finite at {min(chunk, 3)} point(s) of its chunk, first at parameter point ")):
            runs[0]()
    assert default[-1] == ("stalled_circle: first-derivative matrix is rank deficient", str([third]))
