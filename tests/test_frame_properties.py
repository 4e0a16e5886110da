"""Property tests of the one Householder frame routine: on arrays, with the semi-normal step, it spans the
normal space of a complete QR, up to roundoff, also where structural zeros move its pivots; on jets it is
orthonormal and normal to the tangents in every derivative it carries, and its values are bit for bit its
frame and R of the tangents' values."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab import immersion
from curvlab.curvature import batched_curvature_moments
from curvlab.immersion import Immersion, _batch, _householder_frame, _normal_frames, induced_metric
from curvlab.jets import dot

from conftest import get

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Frames, projectors and curvatures here are O(1); rounding moves them by ~1e-15.
ATOL = 1e-13


def _qr_frames(d1):
    """The reference frame: the normal block of np.linalg.qr, with the same corrected semi-normal step."""
    m = d1.shape[2]
    q, r = np.linalg.qr(d1, mode="complete")
    frame, r = q[:, :, m:], r[:, :m]
    y = np.linalg.solve(np.swapaxes(r, 1, 2), np.swapaxes(d1, 1, 2) @ frame)
    return frame - d1 @ np.linalg.solve(r, y)


def _moments_K(d1, d2, frame):
    b, k, m, _ = d2.shape
    second = (np.swapaxes(frame, 1, 2) @ d2.reshape(b, k, m * m)).reshape(b, -1, m, m)
    return batched_curvature_moments(np.moveaxis(induced_metric(np.moveaxis(d1, 0, -1)), -1, 0), second)


def _check_frame(imm, U):
    # the tangents on the jets' own shapes, as the forms build them: 0.0 off each coordinate's support
    _, d1, d2 = cl.jets_at(imm, U, order=2)
    V = _batch(imm, U)
    js = imm.jet_map(V, 1)
    tangents = [[j.tensors[1][j.support.index(i)] if i in j.support else 0.0 for j in js] for i in range(imm.m)]
    columns, lost = _normal_frames(tangents, imm.name, V)
    frame = np.array([[np.broadcast_to(c, lost.shape) for c in col] for col in columns]).transpose(2, 1, 0)
    reference = _qr_frames(d1)
    assert not lost.any()
    assert_allclose(np.swapaxes(frame, 1, 2) @ frame, np.broadcast_to(np.eye(imm.n), (len(U), imm.n, imm.n)),
                    rtol=0, atol=ATOL, err_msg="orthonormal")
    assert_allclose(np.swapaxes(d1, 1, 2) @ frame, 0.0, rtol=0, atol=ATOL, err_msg="normal to d1")
    assert_allclose(frame @ np.swapaxes(frame, 1, 2), reference @ np.swapaxes(reference, 1, 2),
                    rtol=0, atol=ATOL, err_msg="projector")
    assert_allclose(_moments_K(d1, d2, frame), _moments_K(d1, d2, reference), rtol=0, atol=ATOL, err_msg="K_M")


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(m=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_householder_frame_matches_the_qr_reference_on_random_graphs(m, n, seed):
    rng = np.random.default_rng(seed)
    imm = cl.random_graph_poly(rng, m=m, n=n, degree=3, scale=1.0)
    _check_frame(imm, cl.sample_domain(imm, 16, rng))


def test_householder_frame_matches_the_qr_reference_at_the_polar_corners():
    # every corner of the sphere4_r5 cap grid on its polar axes, where the
    # smallest |R_ii| falls to ~1e-7 of the largest
    imm = get("sphere4_r5")
    axes = cl.default_grid(imm).axes
    ends = [(ax.nodes[0], ax.nodes[-1]) if ax.kind == "gauss-legendre" else (ax.nodes[0],) for ax in axes]
    _check_frame(imm, np.array(list(itertools.product(*ends))))


def test_householder_frame_matches_the_qr_reference_on_product_s2s2_r6():
    imm = get("product_s2s2_r6")
    U = cl.default_grid(imm, 13).mesh()[0]
    _check_frame(imm, U)


def _block_product(rng, m1, m2):
    """The product of two random graphs, of dimension m1 and m2 and codimension 1 to 3 each, with its ambient
    coordinates interleaved by a seeded permutation: each factor's tangents are 0.0 in the other's rows, which
    lie between its own, so the frame's QR moves its pivot at the steps that reach them."""
    a = cl.random_graph_poly(rng, m=m1, n=int(rng.integers(1, 4)), degree=3, scale=1.0)
    b = cl.random_graph_poly(rng, m=m2, n=int(rng.integers(1, 4)), degree=3, scale=1.0)
    order = rng.permutation(a.k + b.k)

    def chart(xs):
        X = [*a.chart(xs[:m1]), *b.chart(xs[m1:])]
        return [X[i] for i in order]

    return Immersion(name="graph_product", k=a.k + b.k, domain=a.domain + b.domain, chart=chart)


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(m1=st.integers(1, 2), m2=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_householder_frame_matches_the_qr_reference_on_block_structured_charts(m1, m2, seed):
    rng = np.random.default_rng(seed)
    imm = _block_product(rng, m1, m2)
    _check_frame(imm, cl.sample_domain(imm, 16, rng))


def test_a_block_structured_chart_moves_its_pivots():
    # the property above runs on moved pivots: over 40 seeds, some steps pivot past a structural zero
    moved = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        imm = _block_product(rng, 2, 2)
        js = imm.jet_map(_batch(imm, cl.sample_domain(imm, 4, rng)), 1)
        tangents = [[j.tensors[1][j.support.index(i)] if i in j.support else 0.0 for j in js] for i in range(imm.m)]
        moved += sum(p > 0 for *_, p in immersion._householder_qr(tangents)[0])
    assert moved >= 40


def _assert_vanishes(jet, what):
    for r, tensor in enumerate(jet.tensors):
        assert_allclose(tensor, 0.0, rtol=0, atol=ATOL, err_msg=f"{what}, derivative order {r}")


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
@hypothesis.given(m=st.integers(1, 2), n=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
def test_householder_jet_frame_is_exact_to_order_2_on_random_graphs(m, n, seed):
    # the worst tensor entry seen over 200 plain seeds was 4.4e-15
    rng = np.random.default_rng(seed)
    imm = cl.random_graph_poly(rng, m=m, n=n, degree=3, scale=1.0)
    X = imm.jet_map(cl.sample_domain(imm, 16, rng), 3)
    tangents = [[x.partial(i) for x in X] for i in range(m)]
    frame, lost, R = _householder_frame(tangents, imm.k)
    assert not lost.any()
    # one construction for both scalar types: the jets' values are the frame and R of the plain values
    plain, _, plain_R = _householder_frame([[c.val for c in t] for t in tangents], imm.k)
    assert [[c.val.tobytes() for c in v] for v in frame + R] == [[c.tobytes() for c in v] for v in plain + plain_R]
    for s, nu in enumerate(frame):
        for t, mu in enumerate(frame):
            _assert_vanishes(dot(nu, mu) - float(s == t), f"<nu_{s}, nu_{t}> - delta")
        for i, tangent in enumerate(tangents):
            _assert_vanishes(dot(nu, tangent), f"<nu_{s}, d_{i} X>")
