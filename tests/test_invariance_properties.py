"""Property test: the geometry of an immersion does not see rigid motions of the ambient space."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import curvlab as cl
from curvlab.jets import dot

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Metrics and curvatures of these graphs are O(1); rounding moves them by ~1e-15.
ATOL = 1e-13


def _moved(imm, Q, t):
    """The immersion Q X + t, written in generic scalars like any catalog chart."""
    def chart(xs):
        X = imm.chart(xs)
        return [dot(X, Q[i].tolist()) + float(t[i]) for i in range(imm.k)]

    return dataclasses.replace(imm, name=f"moved {imm.name}", chart=chart, normal_seeds=None)


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
