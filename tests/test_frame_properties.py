"""Property test: the Householder normal frame is the frame of a complete QR, up to roundoff."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.curvature import batched_curvature_moments
from curvlab.immersion import _normal_frames, induced_metric

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
    return batched_curvature_moments(induced_metric(d1), second)


def _check_frame(imm, U):
    _, d1, d2 = cl.jets_at(imm, U, order=2)
    frame, lost = _normal_frames(d1)
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
