"""Property tests: the geometry of an immersion sees neither rigid motions of the
ambient space nor a change of chart."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.immersion import Axis
from curvlab.jets import dot, sin

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Metrics and curvatures of these graphs are O(1); rounding moves them by ~1e-15.
ATOL = 1e-13
# Under a change of chart, the worst change of K_M (either route) or of the Pfaffian
# density seen over 300 examples and 200 plain seeds was 9.7e-17; the intrinsic
# finite-difference route missed the Gauss-equation Pfaffian density by 5.6e-9.
CHART_ATOL = 1e-15
FD_ATOL = 5e-8


def _moved(imm, Q, t):
    """The immersion Q X + t, written in generic scalars like any catalog chart."""
    def chart(xs):
        X = imm.chart(xs)
        return [dot(X, Q[i].tolist()) + float(t[i]) for i in range(imm.k)]

    return dataclasses.replace(imm, name=f"moved {imm.name}", chart=chart)


def _geometry(imm, U):
    metric, _, _ = cl.frames_at(imm, U)
    k_moments = cl.batched_curvature(imm, U, "moments")
    return {
        "metric": metric,
        "K_M moments": k_moments,
        "K_M quadrature": cl.batched_curvature(imm, U, "quadrature"),
        "Gauss-Bonnet density": k_moments * np.sqrt(np.linalg.det(metric)),
    }


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
@hypothesis.given(n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_metric_curvature_and_density_are_invariant_under_rigid_motions(n, seed):
    rng = np.random.default_rng(seed)
    imm = cl.random_graph_poly(rng, m=2, n=n, degree=3, scale=1.0)
    Q, _ = np.linalg.qr(rng.standard_normal((imm.k, imm.k)))  # orthogonal, reflections included
    t = rng.uniform(-10.0, 10.0, imm.k)
    U = cl.sample_domain(imm, 16, rng)
    want, got = _geometry(imm, U), _geometry(_moved(imm, Q, t), U)
    for key in want:
        assert_allclose(got[key], want[key], rtol=0, atol=ATOL, err_msg=key)


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
@hypothesis.given(m=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_quadrature_route_meets_the_moments_route_to_roundoff(m, n, seed):
    # the normal-sphere rule is exact for K^nu when n <= 3, so the routes differ by rounding only
    rng = np.random.default_rng(seed)
    imm = cl.random_graph_poly(rng, m=m, n=n, degree=3, scale=1.0)
    U = cl.sample_domain(imm, 16, rng)
    k_moments = cl.batched_curvature(imm, U, "moments")
    k_quadrature = cl.batched_curvature(imm, U, "quadrature")
    assert np.all(np.abs(k_quadrature - k_moments) <= 1e-13 * np.maximum(1.0, np.abs(k_moments)))


def _pulled_back(imm, a):
    """imm in the chart (x, y) -> phi(x, y) = (x + a0 y^2 + a1 sin y, y + a2 x^2 + a3 x y)
    on [-0.5, 0.5]^2, a diffeomorphism onto its image for |a_i| <= 0.15; also returns phi."""
    def phi(xs):
        x, y = xs
        return [x + a[0] * y * y + a[1] * sin(y), y + a[2] * x * x + a[3] * x * y]

    def chart(xs):
        return imm.chart(phi(xs))

    box = (Axis(-0.5, 0.5), Axis(-0.5, 0.5))
    return dataclasses.replace(imm, name=f"pulled-back {imm.name}", domain=box, chart=chart), phi


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
@hypothesis.given(
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    a=st.lists(st.floats(-0.15, 0.15), min_size=4, max_size=4),
)
def test_curvature_and_pfaffian_density_are_invariant_under_a_change_of_chart(n, seed, a):
    rng = np.random.default_rng(seed)
    imm = cl.random_graph_poly(rng, m=2, n=n, degree=3, scale=1.0)
    pulled, phi = _pulled_back(imm, a)
    V = cl.sample_domain(pulled, 4, rng)
    U = np.stack(phi([V[:, 0], V[:, 1]]), axis=1)
    for route in ("moments", "quadrature"):
        assert_allclose(cl.batched_curvature(pulled, V, route), cl.batched_curvature(imm, U, route),
                        rtol=0, atol=CHART_ATOL, err_msg=route)
    for u, v in zip(U, V):
        want = cl.pfaffian_density(cl.gauss_equation_tensor(cl.frame_data_at(imm, u)))
        got = cl.pfaffian_density(cl.gauss_equation_tensor(cl.frame_data_at(pulled, v)))
        assert_allclose(got, want, rtol=0, atol=CHART_ATOL, err_msg="Pfaffian density")
        got_fd = cl.pfaffian_density(cl.intrinsic_curvature_fd(pulled, v))
        assert_allclose(got_fd, want, rtol=0, atol=FD_ATOL, err_msg="intrinsic Pfaffian density")
