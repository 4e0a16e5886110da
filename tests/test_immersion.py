"""Exact 2-jets, fundamental forms, and normal frames of parametrized surfaces."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import curvlab as cl
from curvlab.errors import DegenerateImmersionError, DomainError
from curvlab.immersion import _stacked_jets
from curvlab.jets import Jet

from conftest import ALL_NAMES, circle_r3_file, get, wiggly_torus_file

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

    cusp = cl.Immersion(name="cusp", k=3, domain=(cl.Axis(-1.0, 1.0), cl.Axis(-1.0, 1.0)), chart=chart)
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
    square = (cl.Axis(0, 1), cl.Axis(0, 1))
    with pytest.raises(ValueError, match="flat: codimension"):
        cl.Immersion(name="flat", k=2, domain=square, chart=lambda xs: list(xs))
    assert cl.Immersion(name="plane", k=3, domain=square, chart=lambda xs: [*xs, 0.0]).m == 2


def test_an_immersion_takes_exactly_one_of_chart_and_override():
    # neither failed on first use with a TypeError; with both the chart was ignored
    sphere = get("sphere2_r3")
    for chart, override in [(None, None), (sphere.chart, sphere.jet_map)]:
        with pytest.raises(ValueError, match="blank: give exactly one of chart and jet_map_override"):
            cl.Immersion(name="blank", k=3, domain=sphere.domain, chart=chart, jet_map_override=override)


@pytest.mark.parametrize("name, k", [("sphere2_r3", 4), ("sphere2_r4", 3)])
def test_a_chart_with_other_than_k_coordinates_is_refused(name, k):
    # sphere2_r3's three coordinates declared as k = 4 gave gauss_bonnet_check
    # 4 pi against an expected 2 pi, reported as converged
    imm = dataclasses.replace(get(name), k=k)
    coords = get(name).k
    with pytest.raises(ValueError, match=f"{name}: chart returned {coords} coordinates, expected k = {k}"):
        cl.gauss_bonnet_check(imm)
    with pytest.raises(ValueError, match=f"{name}: chart returned {coords} coordinates"):
        cl.egregium_report(imm, [1.0, 0.5])


@pytest.mark.parametrize("name, U", [
    ("graph_poly", np.zeros((2, 3))),  # blamed the chart: "returned 5 coordinates, expected k = 4"
    ("sphere2_r3", np.ones((2, 3))),  # "too many values to unpack"
    ("sphere2_r3", np.ones((2, 1))),  # "not enough values to unpack"
    ("circle_r3", np.ones(2)),  # "all input arrays must have the same shape"
])
def test_parameter_points_of_the_wrong_shape_are_refused(name, U):
    imm = get(name)
    message = f"{name}: parameter points of shape {U.shape}, expected (batch, m = {imm.m})"
    with pytest.raises(ValueError, match=re.escape(message)):
        cl.frames_at(imm, U)
    # a tube sheet's jet_map_override gets the same check on its own m
    sheet = cl.tube_boundary_immersion(cl.TubeConfig(imm, 0.05)).sheets[0]
    V = np.ones((2, sheet.m + 1))
    with pytest.raises(ValueError, match=re.escape(f"{sheet.name}: parameter points of shape {V.shape}")):
        sheet.jet_map(V, 2)


def test_jets_of_any_order_truncate_and_a_negative_order_raises():
    imm = get("sphere2_r3")
    U = np.array([[1.0, 1.0], [0.3, 4.0]])
    four, three = cl.jets_at(imm, U, order=4), cl.jets_at(imm, U, order=3)
    assert len(four) == 5
    assert all(np.array_equal(a, b) for a, b in zip(four, three))
    with pytest.raises(ValueError, match="jet order -1"):
        imm.jet_map(U, order=-1)


# -- sparse chart jets against dense ones -------------------------------------


def _chart_under_test(name, tmp_path):
    if name.startswith("graph_n"):
        return cl.random_graph_poly(np.random.default_rng(7), m=2, n=int(name[-1]))
    if name == "wiggly_torus_file":
        return cl.load_immersion(wiggly_torus_file(tmp_path, 3))
    if name == "circle_r3_file":  # its third coordinate is the empty sum, a constant
        return cl.load_immersion(circle_r3_file(tmp_path))
    return get(name)


@pytest.mark.parametrize("name", [*ALL_NAMES, "graph_n1", "graph_n2", "graph_n3",
                                  "wiggly_torus_file", "circle_r3_file"])
def test_chart_jets_equal_the_chart_on_dense_seeded_variables(name, tmp_path, rng):
    # each coordinate carries only the variables it depends on; its partials are the dense ones, bit for bit
    imm = _chart_under_test(name, tmp_path)
    U = cl.sample_domain(imm, 50, rng)
    seeds = Jet.variables(U, 3)
    every = tuple(range(imm.m))
    dense = [c if isinstance(c, Jet) else Jet.constant(c, 3, 1)  # a constant coordinate broadcasts over the batch
             for c in imm.chart([Jet(v.dense(imm.m), every) for v in seeds])]
    for j, want in zip(imm.jet_map(U, 3), dense, strict=True):
        assert j.order == 3 and set(j.support) <= set(every)
        for x, y in zip(j.dense(imm.m), want.dense(imm.m), strict=True):
            assert_array_equal(x, y)
    for rank, stacked in enumerate(cl.jets_at(imm, U, 3)):  # scattered straight from the sparse tensors
        want = np.stack(np.broadcast_arrays(*(np.moveaxis(j.dense(imm.m)[rank], -1, 0) for j in dense)), axis=1)
        assert_array_equal(stacked, want)
    imm.chart(seeds)  # no jet operation writes into the seeds' arrays
    for i, v in enumerate(seeds):
        assert v.support == (i,)
        assert_array_equal(v.val, U[:, i])
        assert np.all(v.tensors[1] == 1.0) and all(np.all(t == 0.0) for t in v.tensors[2:])


def test_product_chart_coordinates_carry_only_their_own_factor_variables(rng):
    imm = get("product_s2s2_r6")
    U = cl.sample_domain(imm, 5, rng)
    supports = [j.support for j in imm.jet_map(U, 2)]
    assert supports == [(0, 1), (0, 1), (0,), (2, 3), (2, 3), (2,)]
    assert [t.shape[:-1] for t in imm.jet_map(U, 2)[0].tensors] == [(), (2,), (2, 2)]


# -- the second form, contracted from the jets ------------------------------


def _stacked_second_form_bytes(imm, U):
    """The bytes of the second form as one contraction of the stacked (k, m, m, B) 2-jets with the frame
    `frames_at` gives, batch axis last: the dense reference the jet contraction must equal bit for bit."""
    frame = np.moveaxis(cl.frames_at(imm, U)[2], 0, -1)  # the batch-last storage itself
    return np.einsum("asb,aijb->sijb", frame, _stacked_jets(imm, U, 2)[2]).tobytes()


def _second_form_bytes(imm, U):
    return np.ascontiguousarray(np.moveaxis(cl.frames_at(imm, U)[1], 0, -1)).tobytes()


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_second_form_is_the_stacked_contraction_bit_for_bit(name, rng):
    # over a multi-axis grid window, whose jets broadcast, and over sampled points; circle_r3 and
    # sphere2_r4 each have a constant coordinate, whose empty support adds nothing
    imm = get(name)
    for U in (cl.default_grid(imm, 8)._window(0, 0, 8)[0], cl.sample_domain(imm, 50, rng)):
        assert _second_form_bytes(imm, U) == _stacked_second_form_bytes(imm, U)


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (1, 3), (2, 3), (2, 4)])
def test_the_second_form_of_a_random_graph_is_the_stacked_contraction_bit_for_bit(m, n, rng):
    imm = cl.random_graph_poly(rng, m=m, n=n)
    for U in (cl.default_grid(imm, 8)._window(0, 0, 8)[0], cl.sample_domain(imm, 50, rng)):
        assert _second_form_bytes(imm, U) == _stacked_second_form_bytes(imm, U)


@pytest.mark.parametrize("n", [2, 3])
def test_a_curve_gets_the_same_forms_in_a_batch_of_one(n):
    # at m = 1 the metric is one sum over k >= 3 coordinates, read off the jets coordinate by coordinate:
    # every point sums them in one order, where an einsum over a batch of one takes another; slopes of
    # order one make the squares alike in size, so that the order shows in the last bit
    imm = cl.random_graph_poly(np.random.default_rng(0), m=1, n=n, scale=3.0)
    U = cl.sample_domain(imm, 20, np.random.default_rng(0))
    batch = cl.frames_at(imm, U)
    for i in range(len(U)):
        for got, want in zip(batch, cl.frames_at(imm, U[i:i + 1]), strict=True):
            assert np.array_equal(got[i], want[0]), i


def test_frames_at_stacks_no_second_derivatives():
    # seven 13^3 rows of product_s2s2_r6's 13^4 grid, 15,379 points, nearly twice a reduction chunk: the
    # transient memory of frames_at (its peak less what it returns) stays below one (k, m, m, B) float64
    # stack of the 2-jets
    imm = get("product_s2s2_r6")
    U = cl.default_grid(imm, 13)._window(0, 0, 7)[0]
    assert len(U) == 15379
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        forms = cl.frames_at(imm, U)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forms[1].shape == (len(U), imm.n, imm.m, imm.m)
    assert peak - retained < imm.k * imm.m * imm.m * len(U) * 8, (peak - before, retained - before)
