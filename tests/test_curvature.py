"""Directional/generalized curvature, Gauss equation, Pfaffian, and the
extrinsic-intrinsic identity, against closed forms and independent oracles."""

import itertools
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import curvlab as cl
from curvlab import curvature
from curvlab.curvature import _FD_OFFSETS, _det, _five_point
from curvlab.immersion import _stacked_jets, induced_metric
from curvlab.errors import DomainError, UnsupportedDimensionError
from curvlab.jets import cos as jcos, sin as jsin

from conftest import ALL_NAMES, EVEN_M_NAMES, ODD_M_NAMES, get


# -- sphere volumes and moments --------------------------------------------


def test_sphere_volume_values():
    assert cl.sphere_volume(0) == 2.0
    assert_allclose(cl.sphere_volume(1), 2 * np.pi, rtol=1e-15)
    assert_allclose(cl.sphere_volume(2), 4 * np.pi, rtol=1e-15)
    assert_allclose(cl.sphere_volume(3), 2 * np.pi**2, rtol=1e-15)
    assert_allclose(cl.sphere_volume(4), 8 * np.pi**2 / 3, rtol=1e-14)
    with pytest.raises(ValueError):
        cl.sphere_volume(-1)


def test_sphere_moment_pinned_values():
    assert_allclose(cl.sphere_moment([0, 0, 0]), 4 * np.pi, rtol=1e-14)
    assert_allclose(cl.sphere_moment([1, 0]), np.pi, rtol=1e-14)
    assert_allclose(cl.sphere_moment([1, 1]), np.pi / 4, rtol=1e-14)
    assert_allclose(cl.sphere_moment([2]), 2.0, rtol=1e-15)  # S^0: two points
    with pytest.raises(ValueError):
        cl.sphere_moment([-1, 0])
    with pytest.raises(ValueError):
        cl.sphere_moment([0.5, 0])


def _brute_moment(a):
    """Independent quadrature oracle for the even-monomial sphere integral."""
    n = len(a)
    if n == 1:
        return 2.0  # nu = +-1, any even power is 1
    if n == 2:
        th = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        integrand = np.cos(th) ** (2 * a[0]) * np.sin(th) ** (2 * a[1])
        return float(np.sum(integrand) * (2 * np.pi / th.size))
    x, w = np.polynomial.legendre.leggauss(128)  # x = cos(polar)
    th = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
    s = np.sqrt(1.0 - x**2)
    f = (
        x[:, None] ** (2 * a[0])
        * (s[:, None] * np.cos(th)[None, :]) ** (2 * a[1])
        * (s[:, None] * np.sin(th)[None, :]) ** (2 * a[2])
    )
    return float(np.einsum("p,pt->", w, f) * (2 * np.pi / th.size))


def test_sphere_moment_against_brute_force():
    for n in (1, 2, 3):
        for a in itertools.product(range(4), repeat=n):
            if sum(a) > 3:
                continue
            ref = _brute_moment(a)
            assert abs(cl.sphere_moment(a) - ref) < 1e-10 * ref


# -- batched determinants ---------------------------------------------------


def test_det_matches_lapack_for_m_1_to_5(rng):
    for m in range(1, 6):
        a = rng.normal(size=(m, m, 4096))
        scale = np.prod(np.linalg.norm(a, axis=1), axis=0)  # Hadamard's bound on |det|
        # measured at most 6.6e-16
        assert_allclose(_det(a) / scale, np.linalg.det(np.moveaxis(a, -1, 0)) / scale,
                        rtol=0, atol=1e-14, err_msg=f"m = {m}")
        assert_allclose(_det(a[..., 0]), np.linalg.det(a[..., 0]), rtol=0, atol=1e-14 * scale[0])


def test_det_of_the_sphere4_r5_metrics_on_the_20_node_grid():
    # det g falls to 2.5e-24 at the polar corners; measured at most 7.4e-15 relative
    imm = get("sphere4_r5")
    U = cl.default_grid(imm, 20).mesh()[0]
    metric = induced_metric(_stacked_jets(imm, U, order=1)[1])
    want = np.linalg.det(np.moveaxis(metric, -1, 0))
    assert_allclose(_det(metric) / want, 1.0, rtol=0, atol=1e-13)


def test_det_of_a_matrix_with_a_nan_entry_is_nan(rng):
    # the reduction's finite-value gate reads this
    for m in range(1, 6):
        for i, j in itertools.product(range(m), repeat=2):
            a = rng.normal(size=(m, m, 3))
            a[i, j, 1] = np.nan
            det = _det(a)
            assert np.isnan(det[1]) and np.isfinite(det[[0, 2]]).all(), (m, i, j)


# -- directional curvature --------------------------------------------------


def _direction_from_ambient(fd, amb):
    c = fd.normal_frame.T @ np.asarray(amb, dtype=float)
    return cl.NormalDirection(c / np.linalg.norm(c))


def test_normal_direction_validation():
    cl.NormalDirection(np.array([0.6, 0.8]))
    with pytest.raises(ValueError):
        cl.NormalDirection(np.array([0.6, 0.7]))
    with pytest.raises(ValueError, match="norm nan"):
        cl.NormalDirection(np.array([np.nan, 0.0]))
    # unit Frobenius norm, but not a vector: refused, naming the shape, before any curvature reads it
    for coeffs, shape in ((np.full((2, 2), 0.5), "(2, 2)"), (1.0, "()"), ([], "(0,)")):
        with pytest.raises(ValueError, match=re.escape(f"coefficients of shape {shape}, norm")):
            cl.NormalDirection(coeffs)
    assert_allclose(cl.NormalDirection.unit([3.0, 4.0]).coeffs, [0.6, 0.8], rtol=1e-15)


def test_directional_pinned_values():
    imm = get("sphere2_r3")
    u = [1.1, 0.4]
    fd = cl.frame_data_at(imm, u)
    outward = imm.points(np.array([u]))[0]
    nu = _direction_from_ambient(fd, outward)
    assert_allclose(cl.directional_curvature(fd, nu), 1.0, rtol=1e-12)
    neg = cl.NormalDirection(-nu.coeffs)
    assert_allclose(cl.directional_curvature(fd, neg), 1.0, rtol=1e-12)  # m even

    imm4 = get("sphere2_r4")
    fd4 = cl.frame_data_at(imm4, u)
    e4 = _direction_from_ambient(fd4, [0.0, 0.0, 0.0, 1.0])
    assert abs(cl.directional_curvature(fd4, e4)) < 1e-14
    radial = np.append(imm4.points(np.array([u]))[0][:3], 0.0)
    c_rad = fd4.normal_frame.T @ radial
    c_e4 = fd4.normal_frame.T @ np.array([0.0, 0.0, 0.0, 1.0])
    for alpha in (0.0, 0.3, 1.1, np.pi / 2):
        coeffs = np.cos(alpha) * c_rad + np.sin(alpha) * c_e4
        nu_a = cl.NormalDirection(coeffs / np.linalg.norm(coeffs))
        assert_allclose(
            cl.directional_curvature(fd4, nu_a), np.cos(alpha) ** 2, rtol=0, atol=1e-12
        )


def test_sign_symmetry_under_normal_flip(rng):
    # K(-nu) = (-1)^m K(nu)
    for name, parity in [("sphere2_r4", 1.0), ("circle_r3", -1.0)]:
        imm = get(name)
        fd = cl.frame_data_at(imm, cl.sample_domain(imm, 1, rng)[0])
        v = rng.normal(size=imm.n)
        nu = cl.NormalDirection.unit(v)
        neg = cl.NormalDirection(-nu.coeffs)
        k1 = cl.directional_curvature(fd, nu)
        k2 = cl.directional_curvature(fd, neg)
        assert_allclose(k2, parity * k1, rtol=1e-12, atol=1e-15)


# -- generalized curvature routes ------------------------------------------


def test_generalized_curvature_pinned_values(rng):
    # every catalog entry that declares a closed-form K_M is checked against it
    checked = []
    for name in ALL_NAMES:
        imm = get(name)
        if imm.reference_curvature is None:
            continue
        checked.append(imm.name)
        U = cl.sample_domain(imm, 3, rng)
        for u, expected in zip(U, imm.reference_curvature(U)):
            fd = cl.frame_data_at(imm, u)
            assert_allclose(cl.generalized_curvature_moments(fd), expected, rtol=0, atol=1e-12)
            assert_allclose(cl.generalized_curvature_quadrature(fd), expected, rtol=0, atol=1e-10)
    assert len(checked) == 8 and "torus_rev_r3" in checked


def _moments_oracle(fd):
    """Literal sum over permutations and normal-index words, m! * n^m terms."""
    pi_orth = cl.whiten_second_form(fd.metric, fd.second_form)
    m, n = fd.m, fd.n
    total = 0.0
    for sigma in itertools.permutations(range(m)):
        sign = _perm_sign(sigma)
        for alpha in itertools.product(range(n), repeat=m):
            counts = [0] * n
            for a in alpha:
                counts[a] += 1
            if any(c % 2 for c in counts):
                continue
            prod = 1.0
            for t in range(m):
                prod *= pi_orth[alpha[t], t, sigma[t]]
            total += sign * prod * cl.sphere_moment([c // 2 for c in counts])
    return total / cl.sphere_volume(n - 1)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_moments_route_matches_permutation_sum_oracle(rng):
    for m, n in [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2)]:
        imm = cl.random_graph_poly(rng, m=m, n=n, degree=2, scale=0.4)
        for u in cl.sample_domain(imm, 3, rng):
            fd = cl.frame_data_at(imm, u)
            got = cl.generalized_curvature_moments(fd)
            ref = _moments_oracle(fd)
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_route_agreement_on_catalog(rng):
    for name in ALL_NAMES:
        imm = get(name)
        U = cl.sample_domain(imm, 50, rng)
        km = cl.batched_curvature(imm, U, route="moments")
        kq = cl.batched_curvature(imm, U, route="quadrature")
        assert np.max(np.abs(km - kq)) < 1e-8


def test_batched_routes_take_the_metric_or_its_determinants(rng):
    # Gauss-Bonnet passes det g, which it also needs for the density; K must not move
    for name in ("sphere2_r4", "product_s2s2_r6"):
        imm = get(name)
        metric, second, _ = cl.frames_at(imm, cl.sample_domain(imm, 30, rng))
        det_g = _det(np.moveaxis(metric, 0, -1))
        assert np.array_equal(cl.batched_curvature_moments(det_g, second),
                              cl.batched_curvature_moments(metric, second))
        assert np.array_equal(cl.batched_curvature_quadrature(det_g, second),
                              cl.batched_curvature_quadrature(metric, second))


def test_batch_last_storage_and_its_batch_first_view_give_identical_k(rng):
    for name in ("sphere2_r4", "sphere4_r5", "product_s2s2_r6"):
        imm = get(name)
        metric, second, _ = cl.frames_at(imm, cl.sample_domain(imm, 30, rng))
        assert np.moveaxis(second, 0, -1).flags.c_contiguous  # a view of batch-last storage
        flat_metric, flat_second = np.ascontiguousarray(metric), np.ascontiguousarray(second)
        assert_array_equal(cl.batched_curvature_moments(metric, second),
                           cl.batched_curvature_moments(flat_metric, flat_second))
        assert_array_equal(cl.batched_curvature_quadrature(metric, second),
                           cl.batched_curvature_quadrature(flat_metric, flat_second))


def test_odd_dimension_vanishing(rng):
    for name in ODD_M_NAMES:
        imm = get(name)
        for u in cl.sample_domain(imm, 10, rng):
            fd = cl.frame_data_at(imm, u)
            assert cl.generalized_curvature_moments(fd) == 0.0  # parity short-circuit
            assert abs(cl.generalized_curvature_quadrature(fd)) < 1e-10


# -- frame and coordinate invariance ---------------------------------------


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def test_invariance_under_normal_frame_rotation(rng):
    imm = cl.random_graph_poly(rng, m=2, n=3, degree=2, scale=0.4)
    u = cl.sample_domain(imm, 1, rng)[0]
    fd = cl.frame_data_at(imm, u)
    q = _random_orthogonal(rng, imm.n)
    fd_rot = cl.FrameData(
        metric=fd.metric,
        second_form=np.einsum("st,tij->sij", q, fd.second_form),
        normal_frame=fd.normal_frame @ q.T,
    )
    assert_allclose(
        cl.generalized_curvature_moments(fd_rot),
        cl.generalized_curvature_moments(fd),
        rtol=0, atol=1e-10,
    )
    assert_allclose(
        cl.generalized_curvature_quadrature(fd_rot),
        cl.generalized_curvature_quadrature(fd),
        rtol=0, atol=1e-10,
    )
    v = rng.normal(size=imm.n)
    nu = cl.NormalDirection.unit(v)
    nu_rot = cl.NormalDirection.unit(q @ nu.coeffs)  # same ambient vector
    assert_allclose(
        cl.directional_curvature(fd_rot, nu_rot),
        cl.directional_curvature(fd, nu),
        rtol=0, atol=1e-12,
    )


def test_invariance_under_tangent_coordinate_change(rng):
    imm = cl.random_graph_poly(rng, m=2, n=2, degree=3, scale=0.3)
    u = cl.sample_domain(imm, 1, rng)[0]
    fd = cl.frame_data_at(imm, u)
    a = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)  # well-conditioned GL(2)
    fd_new = cl.FrameData(
        metric=a.T @ fd.metric @ a,
        second_form=np.einsum("ia,sij,jb->sab", a, fd.second_form, a),
        normal_frame=fd.normal_frame,
    )
    assert_allclose(
        cl.generalized_curvature_moments(fd_new),
        cl.generalized_curvature_moments(fd),
        rtol=0, atol=1e-10,
    )
    assert_allclose(
        cl.pfaffian_density(cl.gauss_equation_tensor(fd_new)),
        cl.pfaffian_density(cl.gauss_equation_tensor(fd)),
        rtol=0, atol=1e-10,
    )


def test_reparametrization_invariance_sphere_two_charts():
    imm = get("sphere2_r3")
    angle = 0.77
    rot = np.array(
        [
            [np.cos(angle), -np.sin(angle), 0.0],
            [np.sin(angle), np.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    ) @ np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])

    def chart2(xs):
        p = imm.chart(xs)
        return [sum(rot[a][b] * p[b] for b in range(3)) for a in range(3)]

    imm2 = cl.Immersion(name="sphere_rot", k=3, domain=imm.domain, chart=chart2)
    u1 = np.array([1.2, 0.8])
    p_target = rot.T @ imm.points(u1[None, :])[0]  # same geometric point, chart 2
    u2 = np.array([math.acos(p_target[2]), math.atan2(p_target[1], p_target[0])])
    k1 = cl.generalized_curvature_moments(cl.frame_data_at(imm, u1))
    k2 = cl.generalized_curvature_moments(cl.frame_data_at(imm2, u2))
    assert abs(k1 - k2) < 1e-9


def test_reparametrization_invariance_torus_nonlinear():
    imm = get("torus_rev_r3")

    def phi(xs):
        return [xs[0] + 0.3 * jsin(xs[1]), xs[1] + 0.25 * jcos(xs[0])]

    imm2 = cl.Immersion(
        name="torus_reparam",
        k=3,
        domain=imm.domain,
        chart=lambda xs: imm.chart(phi(xs)),
    )
    v = np.array([0.9, 2.2])
    u = np.array([0.9 + 0.3 * np.sin(2.2), 2.2 + 0.25 * np.cos(0.9)])
    k1 = cl.generalized_curvature_moments(cl.frame_data_at(imm, u))
    k2 = cl.generalized_curvature_moments(cl.frame_data_at(imm2, v))
    assert abs(k1 - k2) < 1e-9


# -- Gauss equation and intrinsic cross-check ------------------------------


def test_gauss_equation_pinned_values():
    fd = cl.frame_data_at(get("sphere2_r3"), [1.0, 0.5])
    t = cl.gauss_equation_tensor(fd)
    assert_allclose(t.R[0, 1, 1, 0], 1.0, rtol=1e-12)
    assert t.symmetry_residual() < 1e-12

    fd_c = cl.frame_data_at(get("clifford_torus_r4"), [0.7, 1.9])
    assert np.max(np.abs(cl.gauss_equation_tensor(fd_c).R)) < 1e-12

    graph = cl.graph_poly(2, 1, [[(1.0, (2, 0)), (1.0, (0, 2))]])
    fd_g = cl.frame_data_at(graph, [0.0, 0.0])
    assert_allclose(cl.gauss_equation_tensor(fd_g).R[0, 1, 1, 0], 4.0, rtol=1e-13)


def test_curvature_tensor_symmetries_on_random_graphs(rng):
    for _ in range(5):
        imm = cl.random_graph_poly(rng, m=3, n=2, degree=2, scale=0.4)
        fd = cl.frame_data_at(imm, cl.sample_domain(imm, 1, rng)[0])
        assert cl.gauss_equation_tensor(fd).symmetry_residual() < 1e-10


def test_five_point_rule_is_exact_on_quartics(rng):
    # a (B, 2, 2)-valued quartic in m = 3 variables, with a different step per axis
    exps = np.array([e for e in np.ndindex(5, 5, 5) if sum(e) <= 4])
    coeffs = rng.uniform(-1.0, 1.0, (len(exps), 2, 2))
    U = rng.uniform(-1.0, 1.0, (5, 3))
    h = np.array([0.3, 0.05, 0.12])
    calls = []

    def quartic(P):
        calls.append(P)
        return np.einsum("pe,eab->pab", np.prod(P[:, None, :] ** exps, axis=2), coeffs)

    value, partials = _five_point(quartic, U, h)
    assert len(calls) == 1 and calls[0].shape == (5 * 13, 3)
    assert_array_equal(value, quartic(U))
    points = calls[0].reshape(13, 5, 3)
    assert_array_equal(points[0], U)
    for i in range(3):
        for j, off in enumerate(_FD_OFFSETS):
            shifted = U.copy()
            shifted[:, i] += off * h[i]
            assert_array_equal(points[1 + 4 * i + j], shifted)
    assert partials.shape == (5, 3, 2, 2)
    for i in range(3):
        lowered = np.maximum(exps - np.eye(3, dtype=int)[i], 0)
        monomials = exps[:, i] * np.prod(U[:, None, :] ** lowered, axis=2)
        want = np.einsum("pe,eab->pab", monomials, coeffs)
        # roundoff only: at most 3.7e-14 over 200 seeds
        assert_allclose(partials[:, i], want, rtol=0, atol=1e-12, err_msg=f"axis {i}")


def test_intrinsic_fd_reads_the_metric_at_u_off_its_stencil(monkeypatch, rng):
    # G0 is the first row of the outer stencil's metrics, bit-identical to a 1-point evaluation
    seen = []

    def recording(imm, V, h):
        gamma, G = christoffel(imm, V, h)
        seen.append((V, G))
        return gamma, G

    christoffel = curvature._christoffel
    monkeypatch.setattr(curvature, "_christoffel", recording)
    for name in ("sphere2_r3", "torus_rev_r3", "sphere4_r5", "product_s2s2_r6"):
        imm = get(name)
        for u in cl.sample_domain(imm, 2, rng, margin=0.1):
            seen.clear()
            cl.intrinsic_curvature_fd(imm, u)
            (V, G), = seen
            assert_array_equal(V[0], imm.wrap(u))
            one_point = induced_metric(_stacked_jets(imm, imm.wrap(u)[None, :], order=1)[1])[..., 0]
            assert_array_equal(G[0], one_point)


def test_intrinsic_fd_matches_gauss_equation(rng):
    # measured at most 2.7e-9
    for name, tol in [("sphere2_r3", 1e-7), ("torus_rev_r3", 1e-7)]:
        imm = get(name)
        for u in cl.sample_domain(imm, 3, rng):
            extrinsic = cl.gauss_equation_tensor(cl.frame_data_at(imm, u)).R
            intrinsic = cl.intrinsic_curvature_fd(imm, u).R
            assert np.max(np.abs(extrinsic - intrinsic)) < tol
    # intrinsically flat: every component vanishes
    imm = get("clifford_torus_r4")
    for u in cl.sample_domain(imm, 3, rng):
        assert np.max(np.abs(cl.intrinsic_curvature_fd(imm, u).R)) < 1e-7


def test_intrinsic_fd_stencil_domain_error():
    graph = get("graph_poly")
    with pytest.raises(DomainError):
        cl.intrinsic_curvature_fd(graph, [1.0 - 1e-5, 0.0])


# -- Pfaffian density -------------------------------------------------------


def test_pfaffian_pinned_values():
    fd = cl.frame_data_at(get("sphere2_r3"), [1.3, 0.2])
    t = cl.gauss_equation_tensor(fd)
    assert_allclose(cl.pfaffian_density(t), 1.0 / (2 * np.pi), rtol=1e-12)

    fd_c = cl.frame_data_at(get("clifford_torus_r4"), [0.4, 0.9])
    assert abs(cl.pfaffian_density(cl.gauss_equation_tensor(fd_c))) < 1e-13

    fd4 = cl.frame_data_at(get("sphere4_r5"), [1.0, 1.2, 0.8, 2.0])
    val = cl.pfaffian_density(cl.gauss_equation_tensor(fd4))
    assert_allclose(val, 3.0 / (4 * np.pi**2), rtol=1e-11)


def test_pfaffian_unsupported_dimensions():
    with pytest.raises(UnsupportedDimensionError, match="odd dimension"):
        cl.pfaffian_density(cl.CurvatureTensor(np.zeros((3, 3, 3, 3))))
    with pytest.raises(UnsupportedDimensionError):
        cl.pfaffian_density(cl.CurvatureTensor(np.zeros((6, 6, 6, 6))))


# -- Theorema Egregium reports ---------------------------------------------


def test_egregium_report_sphere():
    rep = cl.egregium_report(get("sphere2_r3"), [1.0, 2.0])
    assert rep.egregium_residual < 1e-10
    assert_allclose(rep.egregium_lhs, 1.0 / (2 * np.pi), rtol=1e-12)
    assert_allclose(rep.route_residual, abs(rep.k_moments - rep.k_quadrature), rtol=0, atol=1e-16)
    assert_allclose(
        rep.egregium_residual, abs(rep.egregium_lhs - rep.pfaffian_density), rtol=0, atol=1e-16
    )


def test_egregium_report_product():
    rep = cl.egregium_report(get("product_s2s2_r6"), [1.0, 0.5, 2.0, 1.5])
    assert rep.egregium_residual < 1e-10
    assert_allclose(rep.egregium_lhs, 1.0 / (4 * np.pi**2), rtol=1e-11)
    assert_allclose(rep.pfaffian_density, rep.egregium_lhs, rtol=0, atol=1e-12)


def test_egregium_random_graphs_at_origin(rng):
    for _ in range(10):
        imm = cl.random_graph_poly(rng, m=2, n=2, degree=3, scale=0.25)
        rep = cl.egregium_report(imm, [0.0, 0.0])
        assert rep.egregium_residual < 1e-9


def test_egregium_rejects_odd_dimension():
    message = "circle_r3: Pfaffian undefined for odd dimension m = 1"
    with pytest.raises(UnsupportedDimensionError, match=message):
        cl.egregium_report(get("circle_r3"), [0.5])


def test_egregium_refuses_m_6_rather_than_apply_the_m_4_formula():
    imm = cl.random_graph_poly(np.random.default_rng(0), m=6, n=1, degree=2)
    with pytest.raises(UnsupportedDimensionError, match="implemented for m in {2, 4}, got m = 6"):
        cl.egregium_report(imm, np.zeros(6))
    with pytest.raises(UnsupportedDimensionError, match="got m = 6"):
        cl.pfaffian_density(cl.gauss_equation_tensor(cl.frame_data_at(imm, np.zeros(6))))


@pytest.mark.parametrize("spec", EVEN_M_NAMES + [(2, 1), (2, 2), (2, 3), (2, 4), (4, 2)], ids=str)
def test_a_curvature_batch_equals_its_points_one_at_a_time(spec):
    rng = np.random.default_rng(11)
    if isinstance(spec, str):
        imm = get(spec)
    else:
        imm = cl.random_graph_poly(rng, m=spec[0], n=spec[1], degree=3)
    U = cl.sample_domain(imm, 50, rng)
    batch = cl.egregium_report(imm, U)
    for i, u in enumerate(U):
        single = cl.egregium_report(imm, u)
        for f in fields(single):
            assert np.array_equal(getattr(batch, f.name)[i], getattr(single, f.name)), (i, f.name)


# At m = 1 the quadrature route's product with the rule's nodes has one row per point; a batch of
# one takes another BLAS kernel than a larger batch, and from n = 3 on the two round differently (~1e-17).
_M1_BATCH_DEFECT = pytest.mark.xfail(strict=True, reason="m = 1, n >= 3: k_quadrature depends on the batch")


@pytest.mark.parametrize("spec", ODD_M_NAMES + [(1, 1), (1, 2), pytest.param((1, 3), marks=_M1_BATCH_DEFECT),
                                                (3, 1), (3, 2), (3, 3)], ids=str)
def test_an_odd_m_curvature_batch_is_zero_without_pfaffian_fields(spec):
    rng = np.random.default_rng(5)
    imm = get(spec) if isinstance(spec, str) else cl.random_graph_poly(rng, m=spec[0], n=spec[1], degree=3)
    U = cl.sample_domain(imm, 20, rng)
    batch = cl.curvature_report(imm, U)
    assert_array_equal(batch.k_moments, np.zeros(20))  # exactly 0.0, by parity
    assert batch.pfaffian_density is batch.egregium_lhs is batch.egregium_residual is None
    for i, u in enumerate(U):
        single = cl.curvature_report(imm, u)
        for f in fields(single):
            want = getattr(single, f.name)
            assert want is None or np.array_equal(getattr(batch, f.name)[i], want), (i, f.name)
