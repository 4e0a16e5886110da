"""Property tests of the jet kernel: jets over a support equal their dense copies, whatever
the relation of two supports, and the order-generic Leibniz and Faa di Bruno rules equal the
hand-written order <= 3 formulas."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curvlab.jets import Jet, cos, sin, sqrt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

_EPS = np.finfo(float).eps
_ENTRIES = st.floats(-2.0, 2.0, allow_subnormal=False)


def _draw_jet(draw, support, order, batch, lo):
    """A jet over `support` with values in [lo, 2].  The derivative tensors are drawn entry by
    entry, so they are not symmetric: a rule that lays a tensor on the wrong axes gives a
    different answer."""
    val = draw(hnp.arrays(float, batch, elements=st.floats(lo, 2.0, allow_subnormal=False)))
    tensors = [draw(hnp.arrays(float, (len(support),) * rank + (batch,), elements=_ENTRIES))
               for rank in range(1, order + 1)]
    return Jet((val, *tensors), support)


@st.composite
def jet_pairs(draw):
    """Two jets of one order over all of their 1-3 variables, the second with values >= 0.25."""
    order = draw(st.integers(1, 3))
    support = tuple(range(draw(st.integers(1, 3))))
    batch = draw(st.integers(1, 4))
    return _draw_jet(draw, support, order, batch, -2.0), _draw_jet(draw, support, order, batch, 0.25)


def _dense_copy(jet, p):
    """`jet.dense(p)` as a jet over all p variables, checked against a scatter written here."""
    dense = jet.dense(p)
    for r, (got, t) in enumerate(zip(dense, jet.tensors, strict=True)):
        want = np.zeros((p,) * r + t.shape[-1:])
        want[np.ix_(*[jet.support] * r) + (Ellipsis,)] = t
        assert_array_equal(got, want)
    return Jet(dense, tuple(range(p)))


def _assert_same_dense(pairs, p):
    for got, want in pairs:
        assert got.order == want.order
        for x, y in zip(got.dense(p), want.dense(p), strict=True):
            assert_array_equal(x, y)


@st.composite
def sparse_jet_pairs(draw):
    """Two jets of one order in p variables, each over its own random support (empty,
    disjoint and overlapping ones included), the second with values >= 0.25, and p."""
    order = draw(st.integers(0, 3))
    p = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3))
    f, g = (_draw_jet(draw, tuple(sorted(draw(st.sets(st.integers(0, p - 1))))), order, batch, lo)
            for lo in (-2.0, 0.25))
    return f, g, p


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(sparse_jet_pairs())
def test_jets_over_a_support_equal_their_dense_copies(triple):
    f, g, p = triple
    saved = [[t.copy() for t in j.tensors] for j in (f, g)]
    F, G = _dense_copy(f, p), _dense_copy(g, p)
    cases = [(f + g, F + G), (f - g, F - G), (f * g, F * G), (f / g, F / G), (g * f, G * F),
             (sin(f), sin(F)), (cos(f), cos(F)), (sqrt(g), sqrt(G)), (1.5 / g, 1.5 / G), (2.5 - f, 2.5 - F),
             *((f**n, F**n) for n in range(5)), *((f.truncate(q), F.truncate(q)) for q in range(f.order + 1))]
    if f.order > 0:
        cases += [(f.partial(i), F.partial(i)) for i in range(p)]
    _assert_same_dense(cases, p)
    for j, tensors in zip((f, g), saved):  # no operation writes into its operands
        for t, kept in zip(j.tensors, tensors, strict=True):
            assert_array_equal(t, kept)


# each relation: the roles some variable must take ("a": in the first support only, "b": in the
# second only, "ab": in both), then the roles every other variable may take ("": in neither)
_RELATIONS = {
    "disjoint": (("a", "b"), ("", "a", "b")),
    "nested": (("ab",), ("", "a", "ab")),
    "overlapping": (("ab", "a", "b"), ("", "a", "b", "ab")),
}


@st.composite
def related_jet_pairs(draw):
    """Two jets of order 1-3 in p variables whose nonempty supports are disjoint, nested or
    overlapping, or the second lies wholly past the first (as a tube sheet's fiber angles lie past
    its base variables), in either order; the second has values >= 0.25.  Also p and the relation."""
    relation = draw(st.sampled_from(("disjoint", "nested", "overlapping", "past")))
    p = draw(st.integers(3, 5))
    if relation == "past":
        cut = draw(st.integers(1, p - 1))
        a = draw(st.sets(st.integers(0, cut - 1), min_size=1))
        b = draw(st.sets(st.integers(cut, p - 1), min_size=1))
    else:
        required, optional = _RELATIONS[relation]
        variables = draw(st.permutations(range(p)))
        roles = [*required, *(draw(st.sampled_from(optional)) for _ in variables[len(required):])]
        a, b = ({v for v, role in zip(variables, roles) if side in role} for side in "ab")
    if draw(st.booleans()):
        a, b = b, a
    order, batch = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    f, g = (_draw_jet(draw, tuple(sorted(s)), order, batch, lo) for s, lo in ((a, -2.0), (b, 0.25)))
    return f, g, p, relation


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(related_jet_pairs())
def test_jets_over_related_supports_combine_as_their_dense_copies(case):
    f, g, p, relation = case
    a, b = set(f.support), set(g.support)
    assert {"disjoint": not a & b, "nested": a <= b or b <= a, "past": max(a) < min(b) or max(b) < min(a),
            "overlapping": bool(a & b) and not (a <= b or b <= a)}[relation]
    F, G = _dense_copy(f, p), _dense_copy(g, p)
    fg, FG = f * g, F * G
    assert fg.support == tuple(sorted(a | b))
    cases = [(fg, FG), (g * f, G * F), (f + g, F + G), (f - g, F - G), (g - f, G - F), (f / g, F / G),
             *((f**n, F**n) for n in range(4)), ((f + g) ** 2, (F + G) ** 2),
             (sin(f), sin(F)), (cos(g), cos(G)), (sqrt(g), sqrt(G)), (sin(fg) * sqrt(g), sin(FG) * sqrt(G)),
             *((fg.partial(i), FG.partial(i)) for i in range(p)),
             *(((f - g).partial(i), (F - G).partial(i)) for i in range(p))]
    _assert_same_dense(cases, p)


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


def _batch_first(jet):  # a jet of full support, whose tensors are its dense ones
    return [np.moveaxis(t, -1, 0) for t in jet.tensors]


def _assert_matches_reference(jet, reference, magnitude):
    """Agreement to a few ulps of the scale of the terms; `magnitude` is the reference rule
    evaluated on the absolute values of its operands, which bounds every partial sum."""
    for got, want, size in zip(_batch_first(jet), reference, magnitude, strict=True):
        assert_allclose(got, want, rtol=0, atol=8 * _EPS * np.max(size))


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
@hypothesis.given(jet_pairs())
def test_generic_rules_equal_the_order_3_formulas_on_unsymmetric_tensors(pair):
    f, g = pair
    fb, gb = _batch_first(f), _batch_first(g)
    _assert_matches_reference(f * g, _reference_product(fb, gb),
                              _reference_product([abs(t) for t in fb], [abs(t) for t in gb]))
    for name, op, x, xb in (("sin", sin, f, fb), ("cos", cos, f, fb),
                            ("sqrt", sqrt, g, gb), ("reciprocal", lambda y: 1 / y, g, gb)):
        c = _derivatives(name, x.val)[: x.order + 1]
        _assert_matches_reference(op(x), _reference_compose(xb, c),
                                  _reference_compose([abs(t) for t in xb], [abs(t) for t in c]))
