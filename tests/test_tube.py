"""Tube-boundary geometry: sheets, curvature rescaling, spectrum, totals."""

import dataclasses
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import curvlab as cl
from curvlab import tube
from curvlab.curvature import _minors
from curvlab.errors import (
    CurvlabError,
    DegenerateImmersionError,
    ReachExceededError,
    UnsupportedDimensionError,
)

from curvlab.immersion import _batch, _stack
from curvlab.integrate import reduce_over_grid, reduce_until_converged
from curvlab.jets import Jet, cos, dot, sin, sqrt

from conftest import ALL_NAMES, circle_r3_file, clifford_torus_file, get


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
    with pytest.raises(ReachExceededError):
        cl.TubeConfig(get("sphere2_r3"), float("nan"))
    no_reach = cl.Immersion(
        name="bare",
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
        assert_allclose(tp.point, base_point + cfg.eps * amb, rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(tp.gauss_normal), 1.0, rtol=1e-12)
        for name in ("metric", "second_form", "normal_frame"):
            assert_allclose(getattr(tp.base_frame, name), getattr(fd, name), rtol=0, atol=0)
        assert_array_equal(tp.sheet_frame.normal_frame[:, 0], tp.gauss_normal)  # the normal is g itself
        # the second form along g against the QR route's, its normal turned to g
        _, second, frame = cl.frames_at(boundary.sheets[tp.sheet_index], tp.sheet_param[None, :])
        sign = np.sign(frame[0, :, 0] @ tp.gauss_normal)
        assert_allclose(tp.sheet_frame.second_form, sign * second[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", ["sphere2_r4", "sphere2_r3", "graph_poly"])
def test_a_tube_point_evaluates_its_base_once(name, monkeypatch):
    # one base 2-jet gives the base forms, the fiber frame and the sheet's 1-jets; no sheet
    # jet_map runs (a closed base in codimension 2, two sheets in codimension 1, a graph)
    base = get(name)
    cfg = cl.TubeConfig(base, 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    calls = []
    jet_map = cl.Immersion.jet_map

    def recording_jet_map(imm, U, order):
        calls.append((imm.name, order))
        return jet_map(imm, U, order)

    monkeypatch.setattr(cl.Immersion, "jet_map", recording_jet_map)
    nu = cl.NormalDirection.unit(np.linspace(0.6, 0.8, base.n))
    for u in (np.array([0.7, 0.4]), np.array([0.3, 0.9])):
        for check in (cl.tube_point, cl.tube_identity_check, cl.tube_spectrum_check):
            calls.clear()
            check(cfg, u, nu, boundary=boundary)
            assert calls == [(name, 2)], check.__name__


@pytest.mark.parametrize("name, u", [
    ("sphere2_r3", (0.0, 0.3)), ("sphere2_r4", (0.0, 0.3)), ("sphere2_r3", (math.pi, 1.0)),
])
def test_base_rank_loss_at_a_tube_point_is_named(name, u):
    # the base forms' rank check runs before the fiber frame divides by the lost tangent
    base = get(name)
    cfg = cl.TubeConfig(base, 0.25)
    nu = cl.NormalDirection.unit(np.ones(base.n))
    message = f"{name}: first-derivative matrix is rank deficient at parameter point {list(u)}"
    for check in (cl.tube_point, cl.tube_identity_check):
        with pytest.raises(DegenerateImmersionError, match=re.escape(message)):
            check(cfg, u, nu)
    # inside a batch, between two good points
    with pytest.raises(DegenerateImmersionError, match=re.escape(message)):
        cl.tube_point(cfg, [(1.0, 0.5), u, (2.0, 1.5)], [nu] * 3)


def _tube_case(name, eps):
    """A `TubeConfig` at most at half its base's reach.  The base is from the catalog, or a seeded graph of degree
    2 named "graph_n<n>" (m = 2) or "graph_m<m>_n<n>"."""
    if name.startswith(("graph_n", "graph_m")):
        m = int(name[7]) if name.startswith("graph_m") else 2
        base = cl.random_graph_poly(np.random.default_rng(3), m=m, n=int(name[-1]), degree=2, scale=0.2)
    else:
        base = get(name)
    return cl.TubeConfig(base, min(eps, 0.5 * base.reach))


def _unit(v):
    return [c * (1.0 / sqrt(dot(v, v))) for c in v]


def _all_variable_sheet_jets(cfg, sign, U, order):
    """Sheet jets from one seeding of all p sheet variables, the base chart run on the first m."""
    base, b = cfg.base, len(U)
    xs = Jet.variables(U, order + 1)
    X = [c if isinstance(c, Jet) else Jet.constant(c, order + 1, b)
         for c in base.chart(xs[: base.m])]
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    if base.n == 1:  # the generalized cross product: (-1)^a times the unit tangents' minor without coordinate a
        minors = _minors([_unit(t) for t in tangents])
        frame = [_unit([(-1.0) ** a * minors[(*range(a), *range(a + 1, base.k))] for a in range(base.k)])]
    else:
        frame, _, _ = tube._householder_frame(tangents, base.k)
    y = [sign] if base.n == 1 else tube._sphere_values(
        base.n, [x.truncate(order) for x in xs[base.m:]])
    return [X[a].truncate(order) + cfg.eps * dot(y, [frame[s][a] for s in range(base.n)])
            for a in range(base.k)]


@pytest.mark.parametrize("name, eps", [
    ("sphere2_r3", 0.1), ("circle_r3", 0.1), ("sphere2_r4", 0.05), ("graph_n3", 0.1),
    ("graph_m1_n1", 0.1), ("graph_m3_n1", 0.1),
])
def test_sheet_jets_match_the_all_variable_construction(name, eps, rng):
    # in codimension 1 against the generalized cross product, whose sign det[nu, tangents] > 0 fixes the sheets
    cfg = _tube_case(name, eps)
    base = cfg.base
    boundary = cl.tube_boundary_immersion(cfg)
    signs = (1.0, -1.0) if base.n == 1 else (1.0,)
    for sheet, sign in zip(boundary.sheets, signs, strict=True):
        U = cl.sample_domain(sheet, 40, rng)
        ref = _all_variable_sheet_jets(cfg, sign, U, 2)
        want = [np.stack([np.moveaxis(j.dense(sheet.m)[r], -1, 0) for j in ref], axis=1) for r in range(3)]
        for got, expected in zip(cl.jets_at(sheet, U, 2), want, strict=True):
            assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_base_pieces_are_evaluated_in_base_variables_at_the_sheet_order(monkeypatch):
    # the frame gets the tangents at the sheet's order (the chart runs at order + 1), in the m base variables
    base = get("sphere2_r4")
    seen = []
    householder_frame = tube._householder_frame

    def recording_frame(tangents, k):
        seen.extend((c.order, set(c.support) <= set(range(base.m))) for t in tangents for c in t)
        return householder_frame(tangents, k)

    monkeypatch.setattr(tube, "_householder_frame", recording_frame)
    sheet = cl.tube_boundary_immersion(cl.TubeConfig(base, 0.05)).sheets[0]
    for order in (1, 2):
        seen.clear()
        sheet.jet_map(np.array([[1.1, 0.7, 0.3], [0.4, 2.0, 5.0]]), order)
        assert seen == [(order, True)] * (base.m * base.k)


@pytest.mark.parametrize("name", ["sphere2_r4", "graph_poly"])
def test_sheet_jets_evaluate_the_base_once_through_its_jet_map(name, monkeypatch):
    # a closed base and a graph: one base Immersion.jet_map call, at order + 1
    base = get(name)
    boundary = cl.tube_boundary_immersion(cl.TubeConfig(base, 0.05))
    orders = []
    jet_map = cl.Immersion.jet_map

    def recording_jet_map(imm, U, order):
        if imm is base:
            orders.append(order)
        return jet_map(imm, U, order)

    monkeypatch.setattr(cl.Immersion, "jet_map", recording_jet_map)
    sheet = boundary.sheets[0]
    U = cl.sample_domain(sheet, 3, np.random.default_rng(0))
    for order in (0, 2):
        orders.clear()
        sheet.jet_map(U, order)
        assert orders == [order + 1]


def test_a_tube_total_evaluates_the_base_once_per_distinct_point(monkeypatch):
    # the 13^3 sheet grid has 2,197 points over 169 base points: the base 2-jets, which give the sheet's
    # 1-jets and its Gauss map's, are evaluated at those 169 only, for a batch of 2,197 rows; no sheet
    # jet_map runs, and no order-0 call orients the sheet
    calls = []
    jet_map = cl.Immersion.jet_map

    def recording_jet_map(imm, U, order):
        jets = jet_map(imm, U, order)
        calls.append((imm.name, order, len(U), max(j.val.size for j in jets)))  # rows, points evaluated
        return jets

    monkeypatch.setattr(cl.Immersion, "jet_map", recording_jet_map)
    cl.tube_total_curvature(cl.TubeConfig(get("sphere2_r4"), 0.05), resolution=13)
    assert calls == [("sphere2_r4", 2, 2197, 169)]


def _sheet_tensor_bytes(jets, i):
    """Support and the bytes of every tensor of each jet at batch entry i."""
    return [(j.support, [t[..., i].tobytes() for t in j.tensors]) for j in jets]


@pytest.mark.parametrize("name", ["circle_r3", "sphere2_r4", "sphere2_r3"])
def test_sheet_jets_over_repeated_base_points_equal_each_point_alone(name):
    # shuffled sheet points over six base points, two of them apart only in the sign of a zero
    # angle: batched, they must give each point's jets bit for bit, so -0.0 is not merged with +0.0;
    # where the two signs give different jets (not on sphere2_r4, whose frame is the same at both)
    base = get(name)
    sheet = cl.tube_boundary_immersion(cl.TubeConfig(base, 0.5 * base.reach)).sheets[0]
    rng = np.random.default_rng(5)
    rows = cl.sample_domain(base, 4, rng)
    signed = np.repeat(rows[:1], 2, axis=0)
    signed[:, -1] = [-0.0, 0.0]  # the last base axis is periodic on all three
    rows = np.concatenate([rows, signed])
    at = rng.permutation(np.repeat(np.arange(len(rows)), 3))
    fiber = cl.sample_domain(sheet, len(at), rng)[:, base.m:]
    fiber[at >= 4] = 5.5  # the same fiber angles for both signs, with cos > 0 > sin, so the sign shows
    U = np.concatenate([rows[at], fiber], axis=1)
    batch = sheet.jet_map(U, 2)
    for i in range(len(U)):
        assert _sheet_tensor_bytes(batch, i) == _sheet_tensor_bytes(sheet.jet_map(U[i:i + 1], 2), 0), i
    minus, plus = np.flatnonzero(at == 4)[0], np.flatnonzero(at == 5)[0]
    if name != "sphere2_r4":
        assert _sheet_tensor_bytes(batch, minus) != _sheet_tensor_bytes(batch, plus)


def _tube_points(cfg, rng, count):
    """`tube_point` over a batch of `count` random base points and directions."""
    U = cl.sample_domain(cfg.base, count, rng)
    return cl.tube_point(cfg, U, [cl.NormalDirection.unit(rng.standard_normal(cfg.base.n)) for _ in U])


@pytest.mark.parametrize("name, eps", [
    ("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1), ("graph_n3", 0.1),
])
def test_sheet_second_form_is_the_stacked_contraction_bit_for_bit(name, eps, rng):
    # the sheet's second form along its Gauss map g, against -<d F, d g> on the stacked 1-jets of the sheet
    # chart F and of g at each point's own sheet (criterion-8 cases, and a codimension-3 base)
    cfg = _tube_case(name, eps)
    tp = _tube_points(cfg, rng, 30)
    for index, sheet in enumerate(cl.tube_boundary_immersion(cfg).sheets):
        on = tp.sheet_index == index
        V = _batch(sheet, tp.sheet_param[on])
        F, g = tube._sheet_jets(cfg, 1.0 - 2.0 * index, V, 1)
        dF, (normal, dg) = _stack(F, 1, sheet.m, V)[1], _stack(g, 1, sheet.m, V)
        want = -np.einsum("aib,ajb->ijb", dF, dg)
        assert np.moveaxis(tp.sheet_frame.second_form[on, 0], 0, -1).tobytes() == want.tobytes()
        assert tp.gauss_normal[on].T.tobytes() == normal.tobytes()
    assert cfg.base.n > 1 or 0 < tp.sheet_index.sum() < len(tp.u)  # codimension 1: both sheets are read


@pytest.mark.parametrize("name, eps", [
    ("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1), ("graph_n3", 0.1),
    ("sphere4_r5", 0.125), ("product_s2s2_r6", 0.25),
])
def test_sheet_second_form_agrees_with_the_contraction_of_the_sheet_2_jets(name, eps, rng):
    # Weingarten's -<d F, d g> against <g, d2 F> on the sheet's public 2-jets; they differ by roundoff only
    cfg = _tube_case(name, eps)
    tp = _tube_points(cfg, rng, 30)
    for index, sheet in enumerate(cl.tube_boundary_immersion(cfg).sheets):
        on = tp.sheet_index == index
        want = np.einsum("ba,baij->bij", tp.gauss_normal[on], cl.jets_at(sheet, tp.sheet_param[on], 2)[2])
        got = tp.sheet_frame.second_form[on, 0]
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_a_sheet_batch_names_its_first_bad_base_point():
    # (cos g, sin g, 0) with g = u - sin(2u)/2: g' = 1 - cos 2u is exactly 0 at u = 0 and at u = pi;
    # the batch repeats both across theta and reaches pi first, so the refusal names pi, not 0
    def chart(xs):
        g = xs[0] - 0.5 * sin(2.0 * xs[0])
        return [cos(g), sin(g), 0.0]

    base = dataclasses.replace(get("circle_r3"), name="stalled_circle", chart=chart)
    sheet = cl.tube_boundary_immersion(cl.TubeConfig(base, 0.1)).sheets[0]
    U = np.array([[u, theta] for theta in (0.5, 2.0, 4.0) for u in (1.0, np.pi, 0.0)])
    message = f"stalled_circle: first-derivative matrix is rank deficient at parameter point {[np.pi]}"
    with pytest.raises(DegenerateImmersionError, match=re.escape(message)):
        sheet.jet_map(U, 2)
    with pytest.raises(DegenerateImmersionError, match=re.escape(f"parameter point {[0.0]}")):
        sheet.jet_map(U[2:], 2)


def test_a_codimension_1_sheet_batch_names_its_first_bad_base_point():
    # the stalled circle above in codimension 1: the frame's QR names the lost tangent before the
    # frame is used, on both sheets and in the total
    def chart(xs):
        g = xs[0] - 0.5 * sin(2.0 * xs[0])
        return [cos(g), sin(g)]

    base = dataclasses.replace(get("circle_r2"), name="stalled_circle", chart=chart)
    cfg = cl.TubeConfig(base, 0.1)
    U = np.array([[1.0], [np.pi], [0.0]])
    message = f"stalled_circle: first-derivative matrix is rank deficient at parameter point {[np.pi]}"
    for sheet in cl.tube_boundary_immersion(cfg).sheets:
        for evaluate in (lambda V: sheet.jet_map(V, 2), lambda V: cl.frames_at(sheet, V)):
            with pytest.raises(DegenerateImmersionError, match=re.escape(message)):
                evaluate(U)
            with pytest.raises(DegenerateImmersionError, match=re.escape(f"parameter point {[0.0]}")):
                evaluate(U[2:])
    with pytest.raises(DegenerateImmersionError, match="stalled_circle: first-derivative matrix is rank"):
        cl.tube_total_curvature(cfg, resolution=2)


@pytest.mark.parametrize("surface_file, grid", [(circle_r3_file, (13, 3)), (clifford_torus_file, (13, 13, 4))])
def test_closed_surface_files_in_codimension_2_run_a_tube_total(surface_file, grid, tmp_path):
    # the frame comes from the tangents at each base point, so nothing in it can turn tangent on a
    # closed base; u = pi/2 is where the circle's tangent is the x axis
    cfg = cl.TubeConfig(cl.load_immersion(surface_file(tmp_path)), 0.1)
    res = cl.tube_total_curvature(cfg)
    assert res.converged is True and res.grid_shapes == (grid,)
    assert abs(res.integral) <= 1e-12
    nu = cl.NormalDirection.unit(np.array([0.6, 0.8]))
    assert cl.tube_identity_check(cfg, [math.pi / 2] * cfg.base.m, nu).relative < 1e-12


@pytest.mark.parametrize("u", [(0.1, -0.2), (0.3, 0.4), (-0.5, 0.2)])
def test_codim3_tube_point_on_the_fiber_pole_is_refused(u):
    # The fiber chart (cos psi, sin psi cos theta, sin psi sin theta) has its
    # pole at psi = 0, the direction of the first frame vector; there
    # d/dtheta vanishes and the sheet point is rank deficient.  Within ~1e-8
    # of the pole, roundoff in acos puts psi at 0 (refused, as at the first two u) or
    # at ~1.5e-8 (evaluated, at the third: relative residual 3.2e-9); 1e-7 away the identity holds.
    refused = u != (-0.5, 0.2)
    base = cl.random_graph_poly(np.random.default_rng(3), m=2, n=3, degree=2, scale=0.2)
    cfg = cl.TubeConfig(base, 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    u = np.array(u)
    pole = (boundary.sheets[0].points([[*u, 0.0, 0.0]]) - base.points(u[None]))[0] / cfg.eps
    coeffs = cl.frame_data_at(base, u).normal_frame.T @ pole
    on_pole = cl.NormalDirection.unit(coeffs)
    near = cl.NormalDirection.unit(coeffs + [0.0, 1e-7, 0.0])
    assert cl.tube_identity_check(cfg, u, near, boundary=boundary).relative < 1e-9
    if not refused:
        assert cl.tube_identity_check(cfg, u, on_pole, boundary=boundary).relative < 1e-6  # criterion 7
        return
    with pytest.raises(DegenerateImmersionError, match="graph_poly_tube: first-derivative") as err:
        cl.tube_point(cfg, u, on_pole, boundary=boundary)
    assert f"parameter point [{u[0]}, {u[1]}, 0.0, " in str(err.value)
    # after a good point in one batch, the pole point is the one named
    good = cl.NormalDirection.unit([0.3, 0.5, 0.8])
    with pytest.raises(DegenerateImmersionError, match="graph_poly_tube: first-derivative") as err:
        cl.tube_point(cfg, [(0.2, 0.1), u], [good, on_pole], boundary)
    assert f"parameter point [{u[0]}, {u[1]}, 0.0, " in str(err.value)


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
    # nu = the radial direction of the first circle factor kills one principal
    # direction: K^nu = 0 and the rescaling identity forces the tube curvature
    # to vanish too
    cfg = cl.TubeConfig(get("clifford_torus_r4"), 0.2)
    u = np.array([0.8, 1.9])
    fd = cl.frame_data_at(cfg.base, u)
    c = fd.normal_frame.T @ np.array([np.cos(u[0]), np.sin(u[0]), 0.0, 0.0])
    nu = cl.NormalDirection(c / np.linalg.norm(c))
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
        k=3,
        domain=base.domain,
        chart=base.chart,
        euler_char=2,
        reach=10.0,
    )
    u = np.array([1.0, 1.0])
    nu_in = cl.NormalDirection(-_outward_direction(base, u).coeffs)
    message = "sphere_overreach: 1 - eps*shape operator is singular at parameter point [1.0, 1.0]"
    for check in (cl.normal_jacobian, cl.tube_point):
        with pytest.raises(ReachExceededError, match=re.escape(message)):
            check(cl.TubeConfig(inflated, 1.0), u, nu_in)


def test_a_direction_of_the_wrong_length_is_named():
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    u, nu = np.array([1.0, 1.0]), cl.NormalDirection.unit([1.0, 1.0, 1.0])
    for check in (cl.normal_jacobian, cl.tube_point, cl.tube_identity_check, cl.tube_spectrum_check):
        with pytest.raises(ValueError, match="direction has 3 coefficients, codimension is 2"):
            check(cfg, u, nu)


def test_a_boundary_built_for_another_config_is_refused():
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    other = cl.tube_boundary_immersion(cl.TubeConfig(cfg.base, 0.2))
    u, nu = np.array([1.0, 1.0]), cl.NormalDirection.unit([0.6, 0.8])
    for check in (cl.tube_point, cl.tube_identity_check, cl.tube_spectrum_check):
        with pytest.raises(ValueError, match=r"boundary was built for another config: "
                                             r"sphere2_r4 at eps = 0\.2, not sphere2_r4 at eps = 0\.05"):
            check(cfg, u, nu, boundary=other)


@pytest.mark.parametrize("name", [*ALL_NAMES, "graph_n1", "graph_n3", "graph_m1_n3"])
def test_a_batch_equals_its_points_one_at_a_time(name):
    # every contraction over the batch is elementwise, so no value depends on the batch (a curve's
    # metric too, one sum over 4 coordinates); in codimension 1 the directions alternate in sign,
    # so both sheets share the batch
    cfg = _tube_case(name, 0.1)
    base = cfg.base
    boundary = cl.tube_boundary_immersion(cfg)
    rng = np.random.default_rng(0)
    U = cl.sample_domain(base, 50, rng)
    directions = [cl.NormalDirection(np.array([(-1.0) ** i])) if base.n == 1
                  else cl.NormalDirection.unit(rng.normal(size=base.n)) for i in range(len(U))]
    tp = cl.tube_point(cfg, U, directions, boundary)
    if base.n == 1:
        assert set(tp.sheet_index) == {0, 1}
    batches = (tp, tp.identity, tp.spectrum)
    for i, (u, nu) in enumerate(zip(U, directions)):
        for batch, check in zip(batches, (cl.tube_point, cl.tube_identity_check, cl.tube_spectrum_check)):
            _assert_point_of_batch(batch, i, check(cfg, u, nu, boundary=boundary))


def _assert_point_of_batch(batch, i, single):
    for field in dataclasses.fields(single):
        got, want = getattr(batch, field.name), getattr(single, field.name)
        if dataclasses.is_dataclass(want) and not isinstance(want, cl.NormalDirection):  # a nested result
            _assert_point_of_batch(got, i, want)
        else:
            got, want = (x.coeffs if isinstance(x, cl.NormalDirection) else x for x in (got[i], want))
            assert np.array_equal(got, want), (field.name, i)


@pytest.mark.parametrize("directions, given", [(3, "3"), (1, "1"), (None, "one bare NormalDirection")])
def test_a_batch_with_other_than_one_direction_per_point_is_refused(monkeypatch, directions, given):
    # refused before any evaluation: no direction is broadcast over the batch
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    U = cl.sample_domain(cfg.base, 5, np.random.default_rng(0))
    nu = cl.NormalDirection.unit([0.6, 0.8])
    monkeypatch.setattr(cl.Immersion, "jet_map", None)
    message = f"a batch of 5 base points takes 5 normal directions, got {given}"
    for check in (cl.tube_point, cl.tube_identity_check, cl.tube_spectrum_check):
        with pytest.raises(ValueError, match=message):
            check(cfg, U, nu if directions is None else [nu] * directions)


# -- rescaling identity -----------------------------------------------------


def test_identity_sphere_hypersurface(rng):
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(5):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        nu = _random_direction(rng, 1)
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        assert res.residual < 1e-10  # n = 1: K^g/NJ = K^nu exactly
        assert_allclose(res.lhs, res.rhs, rtol=0, atol=1e-10)


def test_identity_sphere2_r4_random_points(rng):
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(20):
        u = cl.sample_domain(cfg.base, 1, rng)[0]
        nu = _random_direction(rng, 2)
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        assert res.residual < 1e-12 * max(1.0, abs(res.rhs))
        assert res.relative < 1e-12


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
    pi_orth = cl.whiten_second_form(fd.metric, fd.second_form)
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
        # eps^2 (1 + eps <nu, X>)^4 sin^2 theta, with nu = (P - X)/eps read off the sheet point P:
        # <nu, X> is the cosine of the tilt of nu against the outward radial X
        X = cfg.base.points(np.array([[th, ph]]))[0]
        nu = (sheet.points(np.array([[th, ph, ps]]))[0] - X) / eps
        closed = eps**2 * (1 + eps * (nu @ X)) ** 4 * math.sin(th) ** 2
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


CRITERION_8_TUBES = [("sphere2_r4", 0.05), ("sphere2_r3", 0.1), ("circle_r3", 0.1)]
# 13 nodes on each base axis; a fiber axis holds m + 2 trapezoid nodes at the second level
CRITERION_8_SHAPES = {"sphere2_r4": ((13, 13, 4),), "sphere2_r3": ((13, 13), (13, 13)), "circle_r3": ((13, 3),)}


@pytest.mark.parametrize("name, eps", CRITERION_8_TUBES)
def test_refined_total_matches_the_default_grids(name, eps):
    cfg = cl.TubeConfig(get(name), eps)
    quantum = cl.sphere_volume(cfg.base.k - 1)
    res = cl.tube_total_curvature(cfg)
    assert res.converged is True
    assert res.error_estimate <= 1e-12 * quantum
    for index, (sheet, value) in enumerate(zip(cl.tube_boundary_immersion(cfg).sheets, res.per_sheet)):
        capped = reduce_over_grid(sheet, cl.default_grid(sheet), tube._sheet_integrand(cfg, sheet, 1.0 - 2.0 * index))
        assert abs(value - capped) <= 1e-12 * quantum
    # every sheet stops on the same level, and reports that level's value
    assert res.grid_shapes == CRITERION_8_SHAPES[name]
    for index, (sheet, value, shape) in enumerate(zip(cl.tube_boundary_immersion(cfg).sheets, res.per_sheet,
                                                      res.grid_shapes)):
        grid = next(grid for grid in tube._sheet_levels(cfg.base) if grid.shape == shape)
        assert value == reduce_over_grid(sheet, grid, tube._sheet_integrand(cfg, sheet, 1.0 - 2.0 * index))
    assert res == cl.tube_total_curvature(cfg)  # bit-identical on a second call


def test_refined_total_of_a_four_dimensional_base_on_the_default_path():
    # m = 4, codimension 2: S^2 x S^2 in R^6 converges on its 13^4 base with 6 theta nodes; chi = 4
    cfg = cl.TubeConfig(get("product_s2s2_r6"), 0.25)
    res = cl.tube_total_curvature(cfg)
    assert res.converged is True
    assert res.grid_shapes == ((13, 13, 13, 13, 6),)
    assert res.residual <= 1e-12 * cl.sphere_volume(5)


def _sphere2_r5():
    """The unit sphere in the first three axes of R^5: codimension 3, chi = 2 and vol(S^4) = 8 pi^2 / 3."""
    sphere = get("sphere2_r3")
    return cl.Immersion(
        name="sphere2_r5", k=5, domain=sphere.domain,
        chart=lambda xs: [*sphere.chart(xs), 0.0, 0.0], euler_char=2, reach=0.5,
    )


def test_refined_total_in_codimension_3_holds_the_fiber_at_its_exact_counts():
    # m = 2: two Gauss-Legendre nodes in cos(psi) and three in theta are exact; the second level has one more each
    res = cl.tube_total_curvature(cl.TubeConfig(_sphere2_r5(), 0.25))
    assert res.converged is True and res.grid_shapes == ((13, 13, 3, 4),)
    assert_allclose(res.integral, 2 * cl.sphere_volume(4), rtol=1e-12, atol=0)


@pytest.mark.parametrize("base, eps, counts, missed", [
    (get("sphere2_r4"), 0.05, (3,), 1.0),  # two theta nodes alias K^nu's second harmonic: twice the total
    (get("circle_r3"), 0.1, (2,), None),
    # one node in cos(psi), at psi = pi/2, where nu is normal to the radial first frame vector and K^nu = 0
    (_sphere2_r5(), 0.25, (2, 3), -1.0),
], ids=["sphere2_r4", "circle_r3", "sphere2_r5"])
def test_one_fiber_node_fewer_than_exact_misses_the_total(base, eps, counts, missed):
    # level -1 holds one node fewer on each fiber axis than the exact counts of level 0
    cfg = cl.TubeConfig(base, eps)
    sheet = cl.tube_boundary_immersion(cfg).sheets[0]
    quantum = cl.sphere_volume(base.k - 1)
    expected = (-1.0) ** (base.k - 1) * quantum * base.euler_char
    integrand = tube._sheet_integrand(cfg, sheet, 1.0)
    exact = cl.QuadratureGrid(cl.default_grid(base, 13).axes + tube._fiber_axes(base, 0))
    assert exact.shape[base.m:] == counts
    assert abs(reduce_over_grid(sheet, exact, integrand) - expected) <= 1e-12 * quantum
    fewer = cl.QuadratureGrid(cl.default_grid(base, 13).axes + tube._fiber_axes(base, -1))
    value = reduce_over_grid(sheet, fewer, integrand)
    assert abs(value - expected) > 1e-3 * quantum
    if missed is not None:
        assert_allclose((value - expected) / expected, missed, rtol=1e-12)


def test_a_sheet_integrand_off_the_promised_polynomial_stops_on_no_wrong_level():
    # times 1 + cos((m + 2) theta) / 2 the integrand has harmonics up to 2m + 2 in theta, but the same
    # fiber integrals; the first two levels' m + 1 and m + 2 theta nodes each alias one of them, and differ
    cfg = cl.TubeConfig(get("sphere2_r4"), 0.05)
    sheet = cl.tube_boundary_immersion(cfg).sheets[0]
    integrand = tube._sheet_integrand(cfg, sheet, 1.0)
    quantum = cl.sphere_volume(cfg.base.k - 1)
    value, shape, _, converged = reduce_until_converged(
        sheet, lambda U: integrand(U) * (1.0 + 0.5 * np.cos(4.0 * U[:, -1])), quantum,
        levels=tube._sheet_levels(cfg.base))
    assert shape != (13, 13, 4)
    assert converged is True
    assert abs(value - (-4.0 * np.pi**2)) <= 1e-12 * quantum


def test_fixed_resolution_runs_one_reduction_per_sheet():
    cfg = cl.TubeConfig(get("sphere2_r3"), 0.1)
    res = cl.tube_total_curvature(cfg, resolution=16)
    sheets = cl.tube_boundary_immersion(cfg).sheets
    assert res.per_sheet == tuple(
        reduce_over_grid(sheet, cl.default_grid(sheet, 16), tube._sheet_integrand(cfg, sheet, sign))
        for sheet, sign in zip(sheets, (1.0, -1.0), strict=True)
    )
    assert res.grid_shapes == ((16, 16), (16, 16))
    assert res.error_estimate is None and res.converged is None


@pytest.mark.parametrize("name, eps, resolution, sheet_m", [
    ("sphere4_r5", 0.25, 13, (4, 4)), ("product_s2s2_r6", 0.25, 8, (5,)),
])
def test_fixed_resolution_totals_on_four_dimensional_bases(name, eps, resolution, sheet_m):
    base = get(name)
    res = cl.tube_total_curvature(cl.TubeConfig(base, eps), resolution=resolution)
    assert res.grid_shapes == tuple((resolution,) * m for m in sheet_m)
    expected = (-1.0) ** (base.k - 1) * cl.sphere_volume(base.k - 1) * base.euler_char
    assert_allclose(res.expected, expected, rtol=1e-15)
    assert_allclose(res.integral, expected, rtol=1e-12, atol=0)


def test_fixed_resolution_total_in_codimension_3():
    res = cl.tube_total_curvature(cl.TubeConfig(_sphere2_r5(), 0.25), resolution=13)  # 8 nodes: 5.7e-8
    assert res.grid_shapes == ((13, 13, 13, 13),)
    assert_allclose(res.expected, 2 * cl.sphere_volume(4), rtol=1e-15)
    assert_allclose(res.integral, res.expected, rtol=1e-12, atol=0)


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
        assert res.relative < 1e-12
        spec = cl.tube_spectrum_check(cfg, u, nu, boundary=boundary)
        assert spec.residual < 1e-12


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_identity_and_spectrum_near_a_polar_axis_of_sphere4_r5(sign):
    # near a polar axis the tangents differ widely in length; the frame's QR keeps the identity
    # within 4e-15 and the spectrum within 3e-14 here
    cfg = cl.TubeConfig(get("sphere4_r5"), 0.25)
    u, nu = np.array([0.2, 0.2, 0.2, 1.0]), cl.NormalDirection(np.array([sign]))
    assert cl.tube_identity_check(cfg, u, nu).relative < 1e-12
    assert cl.tube_spectrum_check(cfg, u, nu).residual < 1e-12


@pytest.mark.parametrize("m", [2, 4])
def test_identity_and_spectrum_codim1_graphs(m, rng):
    for _ in range(3):
        base = cl.random_graph_poly(rng, m=m, n=1)
        cfg = cl.TubeConfig(base, min(0.1, 0.5 * base.reach))
        boundary = cl.tube_boundary_immersion(cfg)
        for u in cl.sample_domain(base, 3, rng):
            for sign in (1.0, -1.0):
                nu = cl.NormalDirection(np.array([sign]))
                assert cl.tube_identity_check(cfg, u, nu, boundary=boundary).relative < 1e-12
                assert cl.tube_spectrum_check(cfg, u, nu, boundary=boundary).residual < 1e-12


def test_identity_and_spectrum_codim3_graph(rng):
    base = cl.random_graph_poly(rng, m=2, n=3, degree=2, scale=0.2)
    eps = min(0.1, 0.5 * base.reach)
    cfg = cl.TubeConfig(base, eps)
    boundary = cl.tube_boundary_immersion(cfg)
    for _ in range(20):
        u = cl.sample_domain(base, 1, rng)[0]
        nu = _random_direction(rng, 3)
        assert cl.tube_identity_check(cfg, u, nu, boundary=boundary).relative < 1e-12
        assert cl.tube_spectrum_check(cfg, u, nu, boundary=boundary).residual < 1e-12
