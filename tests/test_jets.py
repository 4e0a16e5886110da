"""Truncated Taylor arithmetic against hand-derived closed-form derivatives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from curvlab.jets import Jet, cos, dot, sin, sqrt


def _f_jet(x, y):
    # sin(x)cos(2y) + x^3 y^2 + sqrt(1 + x^2 + y^2) + x/(1 + y^2)
    return sin(x) * cos(2.0 * y) + x**3 * y**2 + sqrt(1.0 + x**2 + y**2) + x / (1.0 + y**2)


def _f_closed(x, y):
    """All partials of _f_jet up to third order, derived by hand."""
    sx, cx = np.sin(x), np.cos(x)
    s2, c2 = np.sin(2 * y), np.cos(2 * y)
    r = np.sqrt(1 + x**2 + y**2)
    s = 1.0 / (1 + y**2)
    sp = -2 * y * s**2
    spp = -2 * s**2 + 8 * y**2 * s**3
    sppp = 24 * y * s**3 - 48 * y**3 * s**4
    val = sx * c2 + x**3 * y**2 + r + x * s
    d = {
        "x": cx * c2 + 3 * x**2 * y**2 + x / r + s,
        "y": -2 * sx * s2 + 2 * x**3 * y + y / r + x * sp,
        "xx": -sx * c2 + 6 * x * y**2 + (1 + y**2) / r**3,
        "xy": -2 * cx * s2 + 6 * x**2 * y - x * y / r**3 + sp,
        "yy": -4 * sx * c2 + 2 * x**3 + (1 + x**2) / r**3 + x * spp,
        "xxx": -cx * c2 + 6 * y**2 - 3 * (1 + y**2) * x / r**5,
        "xxy": 2 * sx * s2 + 12 * x * y + 2 * y / r**3 - 3 * y * (1 + y**2) / r**5,
        "xyy": -4 * cx * c2 + 6 * x**2 - x / r**3 + 3 * x * y**2 / r**5 + spp,
        "yyy": 8 * sx * s2 - 3 * y * (1 + x**2) / r**5 + x * sppp,
    }
    return val, d


def test_jet_derivatives_match_closed_form():
    U = np.array([[0.3, -0.7], [1.1, 0.4], [-0.5, 0.9], [2.0, -1.3]])
    x, y = Jet.variables(U, order=3)
    f = _f_jet(x, y)
    val, d = _f_closed(U[:, 0], U[:, 1])
    assert_allclose(f.val, val, rtol=1e-14)
    assert_allclose(f.dense(2)[1][0], d["x"], rtol=1e-13)
    assert_allclose(f.dense(2)[1][1], d["y"], rtol=1e-13)
    assert_allclose(f.dense(2)[2][0, 0], d["xx"], rtol=1e-13)
    assert_allclose(f.dense(2)[2][0, 1], d["xy"], rtol=1e-13, atol=1e-14)
    assert_allclose(f.dense(2)[2][1, 1], d["yy"], rtol=1e-13)
    assert_allclose(f.dense(2)[3][0, 0, 0], d["xxx"], rtol=1e-12, atol=1e-13)
    assert_allclose(f.dense(2)[3][0, 0, 1], d["xxy"], rtol=1e-12, atol=1e-13)
    assert_allclose(f.dense(2)[3][0, 1, 1], d["xyy"], rtol=1e-12, atol=1e-13)
    assert_allclose(f.dense(2)[3][1, 1, 1], d["yyy"], rtol=1e-12, atol=1e-13)
    # full symmetry of the stored tensors
    assert_allclose(f.dense(2)[2], np.swapaxes(f.dense(2)[2], 0, 1), rtol=0, atol=0)
    for perm in [(1, 0, 2, 3), (2, 1, 0, 3), (0, 2, 1, 3)]:
        assert_allclose(f.dense(2)[3], np.transpose(f.dense(2)[3], perm), rtol=1e-12, atol=1e-13)


def test_partial_drops_one_order_and_matches_derivative():
    U = np.array([[0.4, 0.8], [-1.2, 0.1]])
    x, y = Jet.variables(U, order=3)
    f = _f_jet(x, y)
    fx = f.partial(0)
    assert fx.order == 2
    _, d = _f_closed(U[:, 0], U[:, 1])
    assert_allclose(fx.val, d["x"], rtol=1e-13)
    assert_allclose(fx.dense(2)[1][0], d["xx"], rtol=1e-13)
    assert_allclose(fx.dense(2)[1][1], d["xy"], rtol=1e-13, atol=1e-14)
    assert_allclose(fx.dense(2)[2][0, 1], d["xxy"], rtol=1e-12, atol=1e-13)


def test_pow_zero_base_and_zero_exponent():
    U = np.array([[0.0, 2.0]])
    x, _ = Jet.variables(U, order=2)
    cube = x**3
    # x^3 at x=0: value, gradient, Hessian (6x) all vanish, no NaN from 0/0
    assert cube.val[0] == 0.0
    assert np.all(cube.dense(2)[1] == 0.0)
    assert np.all(cube.dense(2)[2] == 0.0)
    one = x**0
    assert one.val[0] == 1.0
    assert np.all(one.dense(2)[1] == 0.0)
    with pytest.raises(ValueError):
        x ** (-1)
    with pytest.raises(ValueError):
        x**0.5


def test_reflected_and_scalar_operations():
    # a number, or a per-batch array, on either side of +, -, * and /, against
    # closed-form derivatives in x up to order 3; y's partials stay zero
    U = np.array([[0.7, 0.2], [1.9, -0.5]])
    x, _ = Jet.variables(U, order=3)
    v, zero = U[:, 0], np.zeros(2)
    for c in (2.5, np.array([2.5, -0.4])):
        cases = [
            (x - c, [v - c, 1.0 + zero, zero, zero]),
            (c - x, [c - v, -1.0 + zero, zero, zero]),
            (x / c, [v / c, 1.0 / c + zero, zero, zero]),
            (c / x, [c / v, -c / v**2, 2 * c / v**3, -6 * c / v**4]),
            (1 + x, [1 + v, 1.0 + zero, zero, zero]),  # __radd__
            (x * c, [v * c, c + zero, zero, zero]),
            (c * x, [c * v, c + zero, zero, zero]),
        ]
        for f, want in cases:
            assert isinstance(f, Jet)  # an array on the left once broadcast over the jet
            assert_allclose(f.val, want[0], rtol=0, atol=1e-15)
            for r in (1, 2, 3):
                assert_allclose(f.dense(2)[r][(0,) * r], want[r], rtol=0, atol=1e-13)
                assert np.all(np.delete(f.dense(2)[r].reshape(2**r, 2), 0, axis=0) == 0.0)
    for bad in (lambda: x + "a", lambda: "a" + x, lambda: x - "a", lambda: x * "a", lambda: x / "a",
                lambda: "a" / x):
        with pytest.raises(TypeError):
            bad()


def test_constant_and_truncate():
    c = Jet.constant(4.5, order=2, batch=5)
    assert c.val.shape == (5,) and c.support == ()
    assert np.all(c.val == 4.5)
    dense = c.dense(3)
    assert np.all(dense[1] == 0) and np.all(dense[2] == 0) and dense[2].shape == (3, 3, 5)
    t = c.truncate(1)
    assert t.order == 1 and len(t.tensors) == 2
    with pytest.raises(ValueError):
        t.truncate(2)
    with pytest.raises(ValueError):
        Jet.constant(1.0, 0, 1).partial(0)
    with pytest.raises(ValueError, match="expected a \\(batch, nvars\\) array"):
        Jet.variables(np.zeros((2, 2, 2)), 1)


def test_generic_dispatchers_pass_through_plain_values():
    assert sin(0.5) == np.sin(0.5)
    assert cos(np.array([0.1, 0.2]))[1] == np.cos(0.2)
    assert sqrt(4.0) == 2.0
    assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0
    U = np.array([[0.3, 0.9]])
    x, y = Jet.variables(U, order=1)
    d = dot([x, y], [y, x])  # 2xy
    assert_allclose(d.val, 2 * 0.3 * 0.9)
    assert_allclose(d.dense(2)[1][:, 0], [2 * 0.9, 2 * 0.3])


def test_dot_leaves_out_the_terms_with_a_structural_zero():
    # a structural zero is a plain number equal to 0; an array of zeros is not one, nor is a jet of zeros
    x = Jet.variables(np.array([[0.3]]), order=1)[0]
    assert dot([0.0, 2.0], [np.inf, 3.0]) == 6.0  # 0 * inf is left out, not NaN
    assert dot([x, 0], [0.0, x]) == 0.0 and type(dot([x, 0], [0.0, x])) is float
    assert dot([], []) == 0.0
    kept = dot([np.zeros(2), 1.5], [np.ones(2), 0.0])
    assert isinstance(kept, np.ndarray) and kept.shape == (2,) and not kept.any()
    assert isinstance(dot([Jet.constant(0.0, 1, 1)], [x]), Jet)
    assert dot([2.0, 0.0, 3.0], [5.0, x, 7.0]) == 31.0


def test_batched_evaluation_matches_pointwise():
    U = np.array([[0.3, -0.7], [1.1, 0.4], [-0.5, 0.9]])
    x, y = Jet.variables(U, order=3)
    batched = _f_jet(x, y)
    for b in range(U.shape[0]):
        xs = Jet.variables(U[b : b + 1], order=3)
        single = _f_jet(*xs)
        assert_allclose(single.val[0], batched.val[b], rtol=0, atol=0)
        assert_allclose(single.dense(2)[2][..., 0], batched.dense(2)[2][..., b], rtol=0, atol=0)
        assert_allclose(single.dense(2)[3][..., 0], batched.dense(2)[3][..., b], rtol=0, atol=0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_widened_jet_equals_the_expression_in_more_variables(order):
    # a jet seeded from the first two of three columns is the same jet: it counts no variables,
    # so it lays densely on three, and adds to a jet in the third, as the tube sheet's base jets do
    U = np.array([[0.3, -0.7, 1.2], [1.1, 0.4, -0.3], [-0.5, 0.9, 2.0]])
    widened = _f_jet(*Jet.variables(U[:, :2], order))
    x, y, z = Jet.variables(U, order)
    direct = _f_jet(x, y)
    assert (widened.order, widened.support) == (order, (0, 1))
    for w, d in zip(widened.dense(3), direct.dense(3), strict=True):
        assert_array_equal(w, d)
    # every block that involves the new variable is exactly zero
    for rank, t in enumerate(widened.dense(3)):
        for axis in range(rank):
            assert np.all(np.take(t, [2], axis=axis) == 0.0)
    for w, d in zip((widened + sin(z)).dense(3), (direct + sin(z)).dense(3), strict=True):
        assert_array_equal(w, d)


def test_jets_of_different_order_do_not_combine():
    U = np.array([[0.4, 1.3], [1.1, -0.2]])
    x3, y3 = Jet.variables(U, order=3)
    x2, _ = Jet.variables(U, order=2)
    (x1,) = Jet.variables(U[:, :1], order=3)
    for a, b in ((x3, x2), (x2, x3), (x2, y3)):
        for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g, lambda f, g: f / g):
            with pytest.raises(ValueError, match="cannot combine jets of order"):
                op(a, b)
    # jets seeded from different arrays combine by their supports alone
    assert (x1 * y3).support == (0, 1)
