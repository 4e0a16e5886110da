"""Property tests of the jet kernel: widening commutes with jet arithmetic, jets over a
support equal their dense copies, and the order-generic Leibniz and Faa di Bruno rules
equal the hand-written order <= 3 formulas."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curvlab.jets import Jet, cos, sin, sqrt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

_EPS = np.finfo(float).eps


@st.composite
def jet_pairs(draw):
    """Two jets of one order and variable count, the second with values >= 0.25, and a wider count.

    The derivative tensors are drawn entry by entry, so they are not symmetric:
    a rule that lays a tensor on the wrong axes gives a different answer.
    """
    order = draw(st.integers(1, 3))
    nvars = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 4))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)

    def jet(lo):
        val = draw(hnp.arrays(float, batch, elements=st.floats(lo, 2.0, allow_subnormal=False)))
        derivs = [draw(hnp.arrays(float, (nvars,) * rank + (batch,), elements=entries))
                  for rank in range(1, order + 1)]
        return Jet(nvars, (val, *derivs))

    return jet(-2.0), jet(0.25), nvars + draw(st.integers(0, 2))


def _assert_same(a, b):
    assert (a.order, a.nvars) == (b.order, b.nvars)
    for x, y in zip(a.d, b.d, strict=True):
        assert_array_equal(x, y)


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(jet_pairs())
def test_widening_commutes_with_products_and_analytic_functions(pair):
    f, g, p = pair
    _assert_same((f * g).widen(p), f.widen(p) * g.widen(p))
    for op, arg in ((sin, f), (cos, f), (sqrt, g)):
        _assert_same(op(arg).widen(p), op(arg.widen(p)))


@st.composite
def sparse_jet_pairs(draw):
    """Two jets of one order and variable count, each over its own random support (empty,
    disjoint and overlapping ones included), the second with values >= 0.25."""
    order = draw(st.integers(0, 3))
    nvars = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)

    def jet(lo):
        support = tuple(sorted(draw(st.sets(st.integers(0, nvars - 1)))))
        val = draw(hnp.arrays(float, batch, elements=st.floats(lo, 2.0, allow_subnormal=False)))
        tensors = [draw(hnp.arrays(float, (len(support),) * rank + (batch,), elements=entries))
                   for rank in range(1, order + 1)]
        return Jet(nvars, (val, *tensors), support)

    return jet(-2.0), jet(0.25)


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(sparse_jet_pairs())
def test_jets_over_a_support_equal_their_dense_copies(pair):
    f, g = pair
    saved = [[t.copy() for t in j.tensors] for j in pair]
    F, G = (Jet(j.nvars, j.d) for j in pair)
    cases = [(f + g, F + G), (f - g, F - G), (f * g, F * G), (f / g, F / G), (g * f, G * F),
             (sin(f), sin(F)), (cos(f), cos(F)), (sqrt(g), sqrt(G)), (1.5 / g, 1.5 / G), (2.5 - f, 2.5 - F),
             *((f**n, F**n) for n in range(5)), (f.widen(f.nvars + 2), F.widen(F.nvars + 2)),
             *((f.truncate(q), F.truncate(q)) for q in range(f.order + 1))]
    if f.order > 0:
        cases += [(f.partial(i), F.partial(i)) for i in range(f.nvars)]
    for got, want in cases:
        assert (got.order, got.nvars) == (want.order, want.nvars)
        for x, y in zip(got.d, want.d, strict=True):
            assert_array_equal(x, y)
    for j, tensors in zip(pair, saved):  # no operation writes into its operands
        for t, kept in zip(j.tensors, tensors, strict=True):
            assert_array_equal(t, kept)


# -- the hand-written order <= 3 rules, batch axis first ----------------------


def _outer2(a, b):
    # (B,p) x (B,p) -> (B,p,p)
    return a[:, :, None] * b[:, None, :]


def _sym3(h, g):
    # (B,p,p) x (B,p) -> (B,p,p,p): H_ab g_c + H_ac g_b + H_bc g_a
    return (
        h[:, :, :, None] * g[:, None, None, :]
        + h[:, :, None, :] * g[:, None, :, None]
        + h[:, None, :, :] * g[:, :, None, None]
    )


def _reference_product(f, g):
    """Derivative tensors (val, d1, d2, d3) of f g, each (B,) + (p,)*r."""
    out = [f[0] * g[0], f[0][:, None] * g[1] + g[0][:, None] * f[1]]
    if len(f) > 2:
        out.append(f[0][:, None, None] * g[2] + g[0][:, None, None] * f[2]
                   + _outer2(f[1], g[1]) + _outer2(g[1], f[1]))
    if len(f) > 3:
        out.append(f[0][:, None, None, None] * g[3] + g[0][:, None, None, None] * f[3]
                   + _sym3(f[2], g[1]) + _sym3(g[2], f[1]))
    return out


def _reference_compose(f, c):
    """Derivative tensors of h(f), where c[r] = h^(r)(f[0]), each (B,) + (p,)*r."""
    out = [c[0], c[1][:, None] * f[1]]
    if len(f) > 2:
        out.append(c[1][:, None, None] * f[2] + c[2][:, None, None] * _outer2(f[1], f[1]))
    if len(f) > 3:
        out.append(c[1][:, None, None, None] * f[3] + c[2][:, None, None, None] * _sym3(f[2], f[1])
                   + c[3][:, None, None, None]
                   * f[1][:, :, None, None] * f[1][:, None, :, None] * f[1][:, None, None, :])
    return out


def _derivatives(name, v):
    """h^(r)(v), r = 0..3, for the analytic functions a chart may use."""
    if name == "sin":
        return [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
    if name == "cos":
        return [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
    if name == "sqrt":
        r = np.sqrt(v)
        return [r, 0.5 / r, -0.25 / r**3, 0.375 / r**5]
    return [1 / v, -1 / v**2, 2 / v**3, -6 / v**4]


def _batch_first(jet):
    return [np.moveaxis(t, -1, 0) for t in jet.d]


def _assert_matches_reference(jet, reference, magnitude):
    """Agreement to a few ulps of the scale of the terms; `magnitude` is the reference rule
    evaluated on the absolute values of its operands, which bounds every partial sum."""
    for got, want, size in zip(_batch_first(jet), reference, magnitude, strict=True):
        assert_allclose(got, want, rtol=0, atol=8 * _EPS * np.max(size))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(jet_pairs())
def test_generic_rules_equal_the_order_3_formulas_on_unsymmetric_tensors(pair):
    f, g, _ = pair
    fb, gb = _batch_first(f), _batch_first(g)
    _assert_matches_reference(f * g, _reference_product(fb, gb),
                              _reference_product([abs(t) for t in fb], [abs(t) for t in gb]))
    for name, op, x, xb in (("sin", sin, f, fb), ("cos", cos, f, fb),
                            ("sqrt", sqrt, g, gb), ("reciprocal", lambda y: 1 / y, g, gb)):
        c = _derivatives(name, x.val)[: x.order + 1]
        _assert_matches_reference(op(x), _reference_compose(xb, c),
                                  _reference_compose([abs(t) for t in xb], [abs(t) for t in c]))
