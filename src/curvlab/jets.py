"""Truncated multivariate Taylor arithmetic (jets) of any order.

Every chart in the catalog is written as an ordinary Python function of its
parameters using the `sin`/`cos`/`sqrt` wrappers below.  Running that function
on `Jet` inputs produces exact derivatives of the chart to machine precision;
running it on plain floats or numpy arrays evaluates values only.

A jet of order q in p variables carries its support: the sorted tuple of the
s variables it depends on (Griewank & Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 7).  It stores the partials in those variables only, as the
tuple `tensors` of fully symmetric tensors: `tensors[r]` holds the r-th
partials of a whole batch, shape (s,)*r + (B,), and every other partial is
zero.  A seeded variable has support (i,) and a constant the empty support,
so a chart built from functions of single coordinates runs its costliest
compositions on one-variable jets.  `d[r]`, shape (p,)*r + (B,), is the dense
view.  The batch axis is last so that every broadcast product runs its inner
loop over the batch, not over the variables.  Two jets of different supports
are first laid on the sorted union of both, zeros elsewhere; then two rules
carry every operation to any order (ibid., ch. 13).  Leibniz: d_k(fg) sums,
over the subsets S of the k axes, d_|S| f laid on S times d_(k-|S|) g on the
other axes.  Faa di Bruno: d_k h(f) sums, over the set partitions of the k
axes, h^(r)(f) for r blocks times the product of d_|b| f laid on each block
b.  Subsets and blocks are sorted, so laying a tensor on them only inserts
singleton axes, by an index that depends on k alone; each rule reads its terms
and their indices from a plan cached per k.  Every partial inside a support is
thus formed by the same products in the same order as in dense storage.  Order
3 makes tangents order-2 jets, for moving frames.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from math import factorial
from operator import mul

import numpy as np

__all__ = ["Jet", "sin", "cos", "sqrt", "dot"]

_COEFF_TYPES = (int, float, np.floating, np.integer, np.ndarray)


def _laying(axes: tuple, k: int) -> tuple:
    """Index that lays a tensor of shape (s,)*len(axes) + (B,) on the sorted positions `axes` of rank k:
    a view, shape (s or 1,)*k + (B,), with a singleton axis at every other position.  It holds for
    every s, 0 included, and every B."""
    return tuple(slice(None) if a in axes else None for a in range(k))


@cache
def _splits(k: int):
    """The Leibniz plan of rank k: per subset S of range(k), in a fixed order, the rank |S| of the f
    factor and its index laying it on S, then those of the g factor on the other axes."""
    return tuple((size, _laying(s, k), k - size, _laying([a for a in range(k) if a not in s], k))
                 for size in range(k + 1) for s in combinations(range(k), size))


@cache
def _partitions(k: int):
    """The Faa di Bruno plan of rank k: the set partitions of range(k) into sorted blocks, grouped by
    block count (index r - 1), each block given as its size and its index laying a tensor on it."""
    parts = [[]]
    for a in range(k):
        parts = [p[:i] + [p[i] + [a]] + p[i + 1:] for p in parts for i in range(len(p))] + [
            p + [[a]] for p in parts]
    return tuple(tuple(tuple((len(b), _laying(b, k)) for b in p) for p in parts if len(p) == r)
                 for r in range(1, k + 1))


@cache
def _cells(positions: tuple, r: int) -> tuple:
    """Index of the cells at the sorted `positions` on each of the first r axes, whatever follows them;
    cached, so its index arrays are shared and only ever read."""
    return np.ix_(*[positions] * r) + (Ellipsis,)


def _sum(terms):
    """Sum of same-shape arrays, in place into the first: a fresh array, unless it is the only term."""
    terms = iter(terms)
    acc = next(terms)
    for t in terms:
        acc += t
    return acc


class Jet:
    """Batched truncated Taylor expansion in `nvars` variables that depends only on those in `support`.

    `tensors[r]`, shape (s,)*r + (B,), holds the r-th partials in the s = len(support) variables of
    the support; every other partial is zero.  `d[r]`, shape (nvars,)*r + (B,), is the dense view.
    """

    __slots__ = ("nvars", "support", "tensors")
    __array_ufunc__ = None  # so an array on the left defers to the reflected operators, not broadcasts

    def __init__(self, nvars: int, tensors, support: tuple | None = None):
        """`tensors` over `support`, a sorted tuple of variables: by default all `nvars`, so that they are `d`."""
        self.nvars = nvars
        self.support = tuple(range(nvars)) if support is None else support
        self.tensors = tuple(tensors)

    @property
    def order(self) -> int:
        return len(self.tensors) - 1

    @property
    def val(self) -> np.ndarray:
        return self.tensors[0]

    @property
    def d(self) -> tuple:
        """The dense derivative tensors, (nvars,)*r + (B,): `tensors` itself at full support, else fresh arrays."""
        return self._laid(tuple(range(self.nvars)))

    def _laid(self, union: tuple) -> tuple:
        """`tensors` laid on the sorted variables `union`, a superset of the support, with zeros elsewhere."""
        if union == self.support:
            return self.tensors
        at = tuple(union.index(v) for v in self.support)
        out = [self.val]
        for r, t in enumerate(self.tensors[1:], start=1):
            out.append(np.zeros((len(union),) * r + t.shape[-1:]))
            out[-1][_cells(at, r)] = t
        return tuple(out)

    # -- construction -----------------------------------------------------

    @staticmethod
    def variables(values: np.ndarray, order: int) -> list["Jet"]:
        """Seed one jet per column of `values` (shape (B, p)), variable i of support (i,); they share
        their derivative arrays, which no operation writes into."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected a (batch, nvars) array of parameter values")
        b, p = values.shape
        seed = [np.ones((1, b))] + [np.zeros((1,) * r + (b,)) for r in range(2, order + 1)]
        return [Jet(p, [values[:, i].copy(), *seed][: order + 1], (i,)) for i in range(p)]

    @staticmethod
    def constant(value, nvars: int, order: int, batch: int) -> "Jet":
        """A jet of empty support: its derivative tensors are empty, shape (0,)*r + (batch,)."""
        val = np.broadcast_to(np.asarray(value, dtype=float), (batch,)).copy()
        return Jet(nvars, [val] + [np.empty((0,) * r + (batch,)) for r in range(1, order + 1)], ())

    def _pair(self, other: "Jet"):
        """The union of two supports, and both jets' tensors on it side by side; jets of different
        order or variable count do not combine."""
        if (other.order, other.nvars) != (self.order, self.nvars):
            raise ValueError(f"cannot combine jets of (order, nvars) {(self.order, self.nvars)} "
                             f"and {(other.order, other.nvars)}")
        union = self.support if other.support == self.support else tuple(sorted({*self.support, *other.support}))
        return union, zip(self._laid(union), other._laid(union))

    # -- structural ops ---------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """Formal derivative with respect to variable i; drops one order, and is zero off the support."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if i not in self.support:
            return Jet.constant(0.0, self.nvars, self.order - 1, len(self.val))
        at = self.support.index(i)
        return Jet(self.nvars, [t[at] for t in self.tensors[1:]], self.support)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(self.nvars, self.tensors[: order + 1], self.support)

    def take(self, at: np.ndarray) -> "Jet":
        """The jet at the batch entries `at`, an integer index array: every tensor gathered on its batch axis."""
        return Jet(self.nvars, [t.take(at, axis=-1) for t in self.tensors], self.support)

    def widen(self, nvars: int) -> "Jet":
        """The same jet in `nvars` variables, the new ones last: only a relabelling, as it does not depend on them."""
        if nvars < self.nvars:
            raise ValueError("cannot drop jet variables by widening")
        if nvars == self.nvars:
            return self
        return Jet(nvars, self.tensors, self.support)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            return Jet(self.nvars, [a + b for a, b in pairs], support)
        if isinstance(other, _COEFF_TYPES):
            return Jet(self.nvars, (self.val + other,) + self.tensors[1:], self.support)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.nvars, [-t for t in self.tensors], self.support)

    def __sub__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            return Jet(self.nvars, [a - b for a, b in pairs], support)
        if isinstance(other, _COEFF_TYPES):
            return Jet(self.nvars, (self.val - other,) + self.tensors[1:], self.support)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            f, g = zip(*pairs)
            return Jet(self.nvars, [
                _sum(f[i][at_f] * g[j][at_g] for i, at_f, j, at_g in _splits(k))
                for k in range(self.order + 1)], support)
        if isinstance(other, _COEFF_TYPES):
            c = np.asarray(other, dtype=float)
            return Jet(self.nvars, [t * c for t in self.tensors], self.support)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _COEFF_TYPES):
            return self * (1.0 / np.asarray(other, dtype=float))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _COEFF_TYPES):
            return self._reciprocal() * other
        return NotImplemented

    # -- analytic functions -----------------------------------------------

    def _compose(self, c) -> "Jet":
        """h(self) for a scalar function h with derivative values c[r] = h^(r)(val), r = 0..order."""
        return Jet(self.nvars, [c[0]] + [
            _sum(c[r] * _sum(reduce(mul, (self.tensors[size][at] for size, at in blocks)) for blocks in parts)
                 for r, parts in enumerate(_partitions(k), start=1))
            for k in range(1, self.order + 1)], self.support)

    def __pow__(self, n):
        # integer powers only: d^r/dv^r v^n = n!/(n-r)! v^(n-r), exactly zero past r = n
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        v, n = self.val, int(n)
        return self._compose([factorial(n) // factorial(n - r) * v ** (n - r) if r <= n else np.zeros_like(v)
                              for r in range(self.order + 1)])

    def _reciprocal(self) -> "Jet":
        v = self.val
        return self._compose([(-1) ** r * factorial(r) / v ** (r + 1) for r in range(self.order + 1)])

    def sin(self) -> "Jet":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose([(s, c, -s, -c)[r % 4] for r in range(self.order + 1)])

    def cos(self) -> "Jet":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose([(c, -s, -c, s)[r % 4] for r in range(self.order + 1)])

    def sqrt(self) -> "Jet":
        # d^r/dv^r sqrt(v) = (1/2)(1/2 - 1)...(1/2 - r + 1) / sqrt(v)^(2r - 1)
        root = np.sqrt(self.val)
        coeffs = np.cumprod([0.5 - j for j in range(self.order)])
        return self._compose([root] + [a / root ** (2 * r - 1) for r, a in enumerate(coeffs, start=1)])

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, support={self.support}, batch={self.val.shape[0]})"


# -- generic scalar functions: work on jets, floats, and numpy arrays ------


def sin(x):
    return x.sin() if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else np.cos(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


def dot(xs, ys):
    """Inner product of two lists of generic scalars (jets or numbers)."""
    acc = xs[0] * ys[0]
    for a, b in zip(xs[1:], ys[1:]):
        acc = acc + a * b
    return acc
