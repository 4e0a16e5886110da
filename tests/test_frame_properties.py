"""Property tests of the one Householder frame routine: on arrays, with the semi-normal step, it is the
frame of a complete QR, up to roundoff; on jets it is orthonormal and normal to the tangents in every
derivative it carries, and its values are bit for bit its frame and R of the tangents' values."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.curvature import batched_curvature_moments
from curvlab.immersion import _householder_frame, _normal_frames, induced_metric
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
    _, d1, d2 = cl.jets_at(imm, U, order=2)
    columns, lost = _normal_frames([list(d1[:, :, i].T) for i in range(imm.m)])
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
