"""Property tests of jet widening: it commutes with jet arithmetic."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from curvlab.jets import Jet, cos, sin, sqrt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")


@st.composite
def jet_pairs(draw):
    """Two jets of one order and variable count, the second with values >= 0.25, and a wider count."""
    order = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)

    def jet(lo):
        val = draw(hnp.arrays(float, batch, elements=st.floats(lo, 2.0, allow_subnormal=False)))
        derivs = [draw(hnp.arrays(float, (batch,) + (nvars,) * rank, elements=entries))
                  for rank in range(1, order + 1)]
        return Jet(order, nvars, val, *derivs)

    return jet(-2.0), jet(0.25), nvars + draw(st.integers(0, 2))


def _assert_same(a, b):
    assert (a.order, a.nvars) == (b.order, b.nvars)
    for name in ("val", "d1", "d2", "d3"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None:
            assert y is None
        else:
            assert_array_equal(x, y)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(jet_pairs())
def test_widening_commutes_with_products_and_analytic_functions(pair):
    f, g, p = pair
    _assert_same((f * g).widen(p), f.widen(p) * g.widen(p))
    for op, arg in ((sin, f), (cos, f), (sqrt, g)):
        _assert_same(op(arg).widen(p), op(arg.widen(p)))
