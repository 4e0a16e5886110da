"""Exact 2-jets, fundamental forms, and normal frames of parametrized surfaces."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.errors import DegenerateImmersionError, DomainError

from conftest import ALL_NAMES, get

# 5-point central stencil, O(h^4)
_OFF = np.array([-2, -1, 1, 2])
_WTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


# -- pinned jet values ------------------------------------------------------


def _jet2(imm, u):
    """Point, first and second derivatives at one wrapped point: a batch of one."""
    point, d1, d2 = cl.jets_at(imm, imm.wrap(u)[None], order=2)
    return point[0], d1[0], d2[0]


def test_circle_r2_jet_at_zero():
    point, d1, d2 = _jet2(get("circle_r2"), [0.0])
    assert_allclose(point, [1.0, 0.0], rtol=0, atol=1e-15)
    assert_allclose(d1[:, 0], [0.0, 1.0], rtol=0, atol=1e-15)
    assert_allclose(d2[:, 0, 0], [-1.0, 0.0], rtol=0, atol=1e-15)


def test_sphere2_r3_jet_at_equator():
    point, d1, _ = _jet2(get("sphere2_r3"), [np.pi / 2, 0.0])
    assert_allclose(point, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)
    t1, t2 = d1[:, 0], d1[:, 1]
    assert abs(t1 @ t2) < 1e-15
    assert_allclose(np.linalg.norm(t1), 1.0, rtol=1e-15)
    assert_allclose(np.linalg.norm(t2), 1.0, rtol=1e-15)  # sin(pi/2)


def test_quadratic_graph_jet_at_origin():
    # X(x1, x2) = (x1, x2, x1^2 + x2^2)
    imm = cl.graph_poly(2, 1, [[(1.0, (2, 0)), (1.0, (0, 2))]])
    point, d1, d2 = _jet2(imm, [0.0, 0.0])
    assert_allclose(point, np.zeros(3), rtol=0, atol=1e-15)
    assert_allclose(d1[:2, :], np.eye(2), rtol=0, atol=1e-15)
    assert_allclose(d1[2, :], np.zeros(2), rtol=0, atol=1e-15)
    assert_allclose(d2[2], 2.0 * np.eye(2), rtol=0, atol=1e-15)


# -- pinned fundamental forms ----------------------------------------------


def test_graph_origin_metric_is_identity():
    imm = cl.graph_poly(2, 1, [[(1.0, (2, 0)), (1.0, (0, 2))]])
    fd = cl.frame_data_at(imm, [0.0, 0.0])
    assert_allclose(fd.metric, np.eye(2), rtol=0, atol=1e-15)


def test_sphere_second_form_is_minus_identity_outward():
    imm = get("sphere2_r3")
    u = [np.pi / 2, 0.0]
    fd = cl.frame_data_at(imm, u)
    outward = imm.points(np.array([u]))[0]  # radial direction on the unit sphere
    sign = np.sign(fd.normal_frame[:, 0] @ outward)
    assert_allclose(fd.metric, np.eye(2), rtol=0, atol=1e-15)
    assert_allclose(sign * fd.second_form[0], -np.eye(2), rtol=0, atol=1e-14)


def test_clifford_metric_is_half_identity():
    fd = cl.frame_data_at(get("clifford_torus_r4"), [0.8, 2.5])
    assert_allclose(fd.metric, 0.5 * np.eye(2), rtol=0, atol=1e-15)


# -- frame and metric properties at random points --------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_metric_spd_and_frame_orthonormal(name, rng):
    imm = get(name)
    U = cl.sample_domain(imm, 100, rng)
    metric, second, frame = cl.frames_at(imm, U)
    assert np.all(np.linalg.eigvalsh(metric) > 0)
    # orthonormal columns
    gram = np.einsum("bks,bkt->bst", frame, frame)
    assert np.max(np.abs(gram - np.eye(imm.n))) < 1e-12
    # orthogonal to every tangent vector
    _, d1 = cl.jets_at(imm, U, order=1)
    assert np.max(np.abs(np.einsum("bks,bki->bsi", frame, d1))) < 1e-12
    # second form symmetric in its two tangent slots
    assert np.max(np.abs(second - np.swapaxes(second, 2, 3))) < 1e-13


@pytest.mark.parametrize("name", ALL_NAMES)
def test_jets_match_finite_differences(name, rng):
    imm = get(name)
    U = cl.sample_domain(imm, 5, rng)
    point, d1, d2 = cl.jets_at(imm, U, order=2)
    scale = max(1.0, np.max(np.abs(d1)))
    for i in range(imm.m):
        h = 1e-3 * imm.domain[i].length
        fd1 = np.zeros_like(point)
        fdd = np.zeros_like(d1)
        for off, w in zip(_OFF, _WTS):
            shifted = U.copy()
            shifted[:, i] += off * h
            p_s, d1_s = cl.jets_at(imm, shifted, order=1)
            fd1 += w * p_s
            fdd += w * d1_s
        assert np.max(np.abs(fd1 / h - d1[:, :, i])) < 1e-6 * scale
        assert np.max(np.abs(fdd / h - d2[:, :, i, :])) < 1e-5 * max(1.0, np.max(np.abs(d2)))


def test_wrap_periodic_and_domain_error():
    imm = get("torus_rev_r3")
    wrapped = imm.wrap([2 * np.pi + 0.3, -0.1])
    assert_allclose(wrapped, [0.3, 2 * np.pi - 0.1], rtol=0, atol=1e-12)
    graph = get("graph_poly")
    with pytest.raises(DomainError):
        graph.wrap([2.0, 0.0])  # box is [-1, 1]^2
    with pytest.raises(DomainError):
        _jet2(graph, [0.0, 5.0])
    with pytest.raises(DomainError):
        graph.wrap([0.0])  # wrong arity


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wrap_refuses_a_non_finite_point_on_any_axis(bad):
    # on a periodic axis the modulo would turn the coordinate into NaN
    for name, u in (("torus_rev_r3", [bad, 0.0]), ("graph_poly", [0.0, bad])):
        with pytest.raises(DomainError, match="not finite") as err:
            get(name).wrap(u)
        assert str(u) in str(err.value)


def test_wrapped_jets_agree_across_periods():
    imm = get("sphere2_r3")
    a, _, _ = _jet2(imm, [1.0, 0.5])
    b, _, _ = _jet2(imm, [1.0, 0.5 + 2 * np.pi])
    assert_allclose(a, b, rtol=0, atol=1e-12)


def test_sample_domain_margins(rng):
    imm = get("sphere2_r3")  # polar axis [0, pi] non-periodic, azimuth periodic
    U = cl.sample_domain(imm, 500, rng, margin=0.05)
    assert np.all(U[:, 0] >= 0.05 * np.pi) and np.all(U[:, 0] <= 0.95 * np.pi)
    assert np.all(U[:, 1] >= 0.0) and np.all(U[:, 1] <= 2 * np.pi)


def test_degenerate_immersion_raises():
    # rank-deficient chart: both parameters move the same ambient direction
    bad = cl.Immersion(
        name="pinched",
        m=2,
        k=3,
        domain=(cl.Axis(-1.0, 1.0), cl.Axis(-1.0, 1.0)),
        chart=lambda xs: [xs[0] + xs[1], xs[0] + xs[1], 0.0 * xs[0]],
    )
    with pytest.raises(DegenerateImmersionError, match="pinched") as err:
        cl.frame_data_at(bad, [0.1, 0.2])
    assert "[0.1, 0.2]" in str(err.value)


@pytest.mark.parametrize("cube", [0, 1])
def test_rank_loss_inside_a_batch_names_its_own_point(cube):
    # tangent `cube` vanishes where its coordinate is 0, at the third point
    # only: a zero column there, before or after the other one
    def chart(xs):
        ys = list(xs)
        ys[cube] = xs[cube] ** 3
        return [*ys, 0.0 * xs[0]]

    cusp = cl.Immersion(name="cusp", m=2, k=3, domain=(cl.Axis(-1.0, 1.0), cl.Axis(-1.0, 1.0)), chart=chart)
    U = np.array([[0.1, 0.5], [0.2, -0.4], [0.3, 0.3], [0.4, 0.7]])
    U[2, cube] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DegenerateImmersionError, match="cusp") as err:
            cl.frames_at(cusp, U)
    assert str(U[2].tolist()) in str(err.value)


def test_rank_threshold_clears_the_polar_corner_node():
    # a worst-conditioned node of the catalog cap grids: the first node on
    # each axis of sphere4_r5, a polar angle of ~0.0043, where the smallest
    # |R_ii| is 7.9e-8 of the largest.  A frame that keeps the tangential
    # roundoff of its QR puts K_M off by 1.2e-9 here.
    imm = get("sphere4_r5")
    corner = np.array([[ax.nodes[0] for ax in cl.default_grid(imm).axes]])
    assert corner[0, 0] < 0.005
    cl.frames_at(imm, corner)
    for route in ("moments", "quadrature"):
        assert_allclose(cl.batched_curvature(imm, corner, route), 1.0, rtol=0, atol=1e-12)


def test_immersion_validation():
    with pytest.raises(ValueError):
        cl.Immersion(name="flat", m=2, k=2, domain=(cl.Axis(0, 1), cl.Axis(0, 1)))
    with pytest.raises(ValueError):
        cl.Immersion(name="arity", m=2, k=4, domain=(cl.Axis(0, 1),))


def test_jets_of_any_order_truncate_and_a_negative_order_raises():
    imm = get("sphere2_r3")
    U = np.array([[1.0, 1.0], [0.3, 4.0]])
    four, three = cl.jets_at(imm, U, order=4), cl.jets_at(imm, U, order=3)
    assert len(four) == 5
    assert all(np.array_equal(a, b) for a, b in zip(four, three))
    with pytest.raises(ValueError, match="jet order -1"):
        imm.jet_map(U, order=-1)
