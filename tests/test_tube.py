"""Tube-boundary geometry: sheets, curvature rescaling, spectrum, totals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.errors import CurvlabError, ReachExceededError, UnsupportedDimensionError

from conftest import ALL_NAMES, get


def _outward_direction(imm, u):
    """nu_hat coefficients of the outward radial direction (sphere-like bases)."""
    fd = cl.frame_data_at(imm, u)
    amb = imm.points(np.asarray(u, dtype=float)[None, :])[0]
    c = fd.normal_frame.T @ amb
    return cl.NormalDirection(c / np.linalg.norm(c))


def _random_direction(rng, n):
    if n == 1:
        return cl.NormalDirection(np.array([rng.choice([-1.0, 1.0])]))
    return cl.NormalDirection.unit(rng.normal(size=n))


# -- configuration guards ---------------------------------------------------


def test_config_guards():
    with pytest.raises(ReachExceededError):
        cl.TubeConfig(get("sphere2_r3"), 0.6)  # above declared reach 0.5
    with pytest.raises(ReachExceededError):
        cl.TubeConfig(get("sphere2_r3"), -0.1)
    no_reach = cl.Immersion(
        name="bare",
        m=1,
        k=2,
        domain=get("circle_r2").domain,
        chart=get("circle_r2").chart,
    )
    with pytest.raises(ReachExceededError):
        cl.TubeConfig(no_reach, 0.1)
    with pytest.raises(UnsupportedDimensionError):
        cl.TubeConfig(cl.random_graph_poly(np.random.default_rng(0), m=2, n=4), 0.01)


# -- sheet geometry ---------------------------------------------------------


def test_sphere_tube_sheets_are_concentric_spheres(rng):
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    assert len(boundary.sheets) == 2
    assert [s.m for s in boundary.sheets] == [2, 2]
    U = cl.sample_domain(get("sphere2_r3"), 20, rng)
    r_plus = np.linalg.norm(boundary.sheets[0].points(U), axis=1)
    r_minus = np.linalg.norm(boundary.sheets[1].points(U), axis=1)
    assert_allclose(r_plus, 1.1, rtol=1e-13)
    assert_allclose(r_minus, 0.9, rtol=1e-13)


def test_circle_tube_is_a_torus(rng):
    cfg = cl.TubeConfig(get("circle_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    assert len(boundary.sheets) == 1
    sheet = boundary.sheets[0]
    assert sheet.m == 2 and sheet.k == 3
    U = cl.sample_domain(sheet, 200, rng)
    p = sheet.points(U)
    # distance from the unit circle in the xy-plane is exactly eps
    d = np.sqrt((np.sqrt(p[:, 0] ** 2 + p[:, 1] ** 2) - 1.0) ** 2 + p[:, 2] ** 2)
    assert_allclose(d, 0.1, rtol=1e-12)


def test_codim2_sheet_dimension():
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    assert len(boundary.sheets) == 1
    assert boundary.sheets[0].m == 3 and boundary.sheets[0].k == 4


def test_tube_point_invariants(rng):
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    base = cfg.base
    for _ in range(5):
        u = cl.sample_domain(base, 1, rng)[0]
        nu = _random_direction(rng, base.n)
        tp = cl.tube_point(cfg, u, nu, boundary=boundary)
        base_point = base.points(u[None, :])[0]
        fd = cl.frame_data_at(base, u)
        amb = fd.normal_frame @ nu.coeffs
        assert_allclose(tp.point, base_point + cfg.eps * amb, atol=1e-12)
        assert_allclose(np.linalg.norm(tp.gauss_normal), 1.0, rtol=1e-12)


# -- classical curvature and normal Jacobian -------------------------------


def test_classical_curvature_outer_inner_sphere():
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    u = np.array([1.1, 0.7])
    nu_out = _outward_direction(cfg.base, u)
    nu_in = cl.NormalDirection(-nu_out.coeffs)
    tp_out = cl.tube_point(cfg, u, nu_out, boundary=boundary)
    tp_in = cl.tube_point(cfg, u, nu_in, boundary=boundary)
    assert_allclose(tp_out.classical_k, 1.0 / 1.1**2, rtol=1e-12)
    assert_allclose(tp_in.classical_k, 1.0 / 0.9**2, rtol=1e-12)
    assert tp_out.sheet_index != tp_in.sheet_index


def test_classical_curvature_circle_tube_outermost():
    # outermost point of the torus around the unit circle: closed form
    # cos(v)/(r (R + r cos v)) with (R, r) = (1, 0.1), v = 0
    cfg = cl.TubeConfig(get("circle_r3"), 0.1)
    u = np.array([0.6])
    nu = _outward_direction(cfg.base, u)
    tp = cl.tube_point(cfg, u, nu)
    assert_allclose(tp.classical_k, 1.0 / (0.1 * 1.1), rtol=1e-12)


def test_classical_curvature_vanishing_direction_clifford():
    # nu = first frame vector kills one principal direction: K^nu = 0 and the
    # rescaling identity forces the tube curvature to vanish too
    cfg = cl.TubeConfig(get("clifford_torus_r4"), 0.2)
    u = np.array([0.8, 1.9])
    nu = cl.NormalDirection(np.array([1.0, 0.0]))
    fd = cl.frame_data_at(cfg.base, u)
    assert abs(cl.directional_curvature(fd, nu)) < 1e-13
    tp = cl.tube_point(cfg, u, nu)
    assert abs(tp.classical_k) < 1e-10


def test_normal_jacobian_pinned_values():
    base = get("sphere2_r3")
    u = np.array([1.3, 0.4])
    nu_out = _outward_direction(base, u)
    nu_in = cl.NormalDirection(-nu_out.coeffs)
    cfg = cl.TubeConfig(base, 0.1)
    assert_allclose(cl.normal_jacobian(cfg, u, nu_out), 1.0 / 1.21, rtol=1e-13)
    assert_allclose(cl.normal_jacobian(cfg, u, nu_in), 1.0 / 0.81, rtol=1e-13)
    # eps -> 0 limit is the identity factor
    for eps, tol in [(1e-3, 3e-3), (1e-6, 3e-6)]:
        nj = cl.normal_jacobian(cl.TubeConfig(base, eps), u, nu_out)
        assert abs(nj - 1.0) < tol


def test_normal_jacobian_singular_raises():
    # declare an inflated reach bound, then push eps to the focal distance
    base = get("sphere2_r3")
    inflated = cl.Immersion(
        name="sphere_overreach",
        m=2,
        k=3,
        domain=base.domain,
        chart=base.chart,
        euler_char=2,
        reach=10.0,
        normal_seeds=base.normal_seeds,
    )
    u = np.array([1.0, 1.0])
    nu_in = cl.NormalDirection(-_outward_direction(base, u).coeffs)
    with pytest.raises(ReachExceededError):
        cl.normal_jacobian(cl.TubeConfig(inflated, 1.0), u, nu_in)


# -- rescaling identity -----------------------------------------------------


def test_identity_sphere_hypersurface(rng):
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(5):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        nu = _random_direction(rng, 1)
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        assert res.residual < 1e-10  # n = 1: K^g/NJ = K^nu exactly
        assert_allclose(res.lhs, res.rhs, atol=1e-10)


def test_identity_sphere2_r4_random_points(rng):
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(20):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        nu = _random_direction(rng, 2)
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        assert res.residual < 1e-6 * max(1.0, abs(res.rhs))
        assert res.relative < 1e-6


def test_identity_circle_r3(rng):
    cfg = cl.TubeConfig(get("circle_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    u = np.array([0.6])
    nu = _outward_direction(cfg.base, u)
    res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
    # K^nu = -1 outward, n = 2: both sides equal +1/eps = 10
    assert_allclose(res.lhs, 10.0, rtol=1e-10)
    assert_allclose(res.rhs, 10.0, rtol=1e-12)
    for _ in range(5):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        res = cl.tube_identity_check(cfg, u, _random_direction(rng, 2), boundary=boundary)
        assert res.residual < 1e-8 * max(1.0, abs(res.rhs))


# -- shape-operator spectrum ------------------------------------------------


def test_spectrum_sphere2_r4_contains_normal_eigenvalue(rng):
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(5):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        nu = _random_direction(rng, 2)
        res = cl.tube_spectrum_check(cfg, u, nu, boundary=boundary)
        assert res.residual < 1e-6
        assert np.min(np.abs(res.computed - (-20.0))) < 1e-6  # the -1/eps block


def test_spectrum_sphere_outer_sheet():
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    u = np.array([1.2, 0.5])
    res = cl.tube_spectrum_check(cfg, u, _outward_direction(cfg.base, u))
    assert_allclose(res.computed, [-1.0 / 1.1, -1.0 / 1.1], rtol=1e-10)


def test_spectrum_eps_sequence_clifford(rng):
    # tangential eigenvalues approach the base eigenvalues at rate O(eps)
    base = get("clifford_torus_r4")
    u = np.array([0.7, 2.4])
    nu = cl.NormalDirection.unit(np.array([0.6, 0.8]))
    fd = cl.frame_data_at(base, u)
    pi_orth, _ = cl.whiten_second_form(fd.metric, fd.second_form)
    lam = np.sort(np.linalg.eigvalsh(np.einsum("s,sij->ij", nu.coeffs, pi_orth)))
    errors = []
    for eps in (0.1, 0.05, 0.025):
        res = cl.tube_spectrum_check(cl.TubeConfig(base, eps), u, nu)
        keep = np.sort(res.computed[np.argsort(np.abs(res.computed + 1.0 / eps))[1:]])
        errors.append(np.max(np.abs(keep - lam)))
    assert errors[0] < 0.5
    assert errors[1] < 0.7 * errors[0]
    assert errors[2] < 0.7 * errors[1]


# -- determinant consistency ------------------------------------------------


def test_tube_metric_determinant_closed_form_sphere2_r4():
    eps = 0.05
    cfg = cl.TubeConfig(get("sphere2_r4"), eps)
    boundary = cl.tube_boundary_immersion(cfg)
    sheet = boundary.sheets[0]
    for th, ph, ps in [(1.0, 0.5, 0.9), (0.7, 2.2, 4.0), (2.0, 5.5, 2.4)]:
        fd_tube = cl.frame_data_at(sheet, [th, ph, ps])
        got = np.linalg.det(fd_tube.metric)
        # eps^2 (1 + eps cos psi)^4 sin^2 theta: fiber angle psi measures the
        # tilt of nu against the inward radial in the smooth tube frame
        closed = eps**2 * (1 + eps * math.cos(ps)) ** 4 * math.sin(th) ** 2
        assert_allclose(got, closed, rtol=1e-11)


def test_tube_metric_determinant_factored_form(rng):
    # det I_tube = eps^(2(n-1)) det(1 - eps Pi^nu)^2 det(I_base) for the
    # unit-speed circle fiber chart (J_chart = 1)
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    base = cfg.base
    for _ in range(5):
        u = cl.sample_domain(base, 1, rng)[0]
        nu = _random_direction(rng, 2)
        tp = cl.tube_point(cfg, u, nu, boundary=boundary)
        fd_tube = cl.frame_data_at(boundary.sheets[tp.sheet_index], tp.sheet_param)
        fd_base = cl.frame_data_at(base, u)
        det_shape = 1.0 / tp.normal_jacobian
        predicted = (
            cfg.eps ** (2 * (base.n - 1))
            * det_shape**2
            * np.linalg.det(fd_base.metric)
        )
        assert_allclose(np.linalg.det(fd_tube.metric), predicted, rtol=1e-10)


# -- total curvature --------------------------------------------------------


def test_total_curvature_sphere_two_sheets():
    res = cl.tube_total_curvature(cl.TubeConfig(get("sphere2_r3"), 0.1))
    assert_allclose(res.expected, 8 * np.pi, rtol=1e-15)
    assert res.residual < 1e-3 * abs(res.expected)
    assert len(res.per_sheet) == 2
    assert_allclose(res.per_sheet, [4 * np.pi, 4 * np.pi], rtol=1e-10)


def test_total_curvature_circle_tube():
    res = cl.tube_total_curvature(cl.TubeConfig(get("circle_r3"), 0.1))
    assert res.expected == 0.0
    assert abs(res.integral) < 1e-6


def test_total_curvature_sphere2_r4():
    res = cl.tube_total_curvature(cl.TubeConfig(get("sphere2_r4"), 0.05))
    assert_allclose(res.expected, -4 * np.pi**2, rtol=1e-15)
    assert abs(res.integral - res.expected) < 1e-3 * abs(res.expected)


def test_total_curvature_requires_euler_char():
    with pytest.raises(CurvlabError):
        cl.tube_total_curvature(cl.TubeConfig(get("graph_poly"), 0.05))


# -- identity and spectrum across the whole catalog ------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_identity_and_spectrum_all_bases(name, rng):
    base = get(name)
    if base.n > 3:
        pytest.skip("codimension above tube support")
    eps = 0.5 * base.reach if np.isfinite(base.reach) else 0.1
    cfg = cl.TubeConfig(base, eps)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(20):
        u = cl.sample_domain(base, 1, rng)[0]
        nu = _random_direction(rng, base.n)
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        assert res.relative < 1e-6
        spec = cl.tube_spectrum_check(cfg, u, nu, boundary=boundary)
        assert spec.residual < 1e-6


def test_identity_and_spectrum_codim3_graph(rng):
    base = cl.random_graph_poly(rng, m=2, n=3, degree=2, scale=0.2)
    eps = min(0.1, 0.5 * base.reach)
    cfg = cl.TubeConfig(base, eps)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(20):
        u = cl.sample_domain(base, 1, rng)[0]
        nu = _random_direction(rng, 3)
        assert cl.tube_identity_check(cfg, u, nu, boundary=boundary).relative < 1e-6
        assert cl.tube_spectrum_check(cfg, u, nu, boundary=boundary).residual < 1e-6
