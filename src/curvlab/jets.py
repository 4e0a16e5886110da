"""Truncated multivariate Taylor arithmetic (jets) of any order.

Every chart in the catalog is written as an ordinary Python function of its
parameters using the `sin`/`cos`/`sqrt` wrappers below.  Running that function
on `Jet` inputs produces exact derivatives of the chart to machine precision;
running it on plain floats or numpy arrays evaluates values only.

A jet of order q is its support, the sorted tuple of the s variables it depends
on (Griewank & Walther, *Evaluating Derivatives*, 2nd ed., 2008, ch. 7), and
the partials in those variables only, as the tuple `tensors` of fully symmetric
tensors: `tensors[r]` holds the r-th partials of a whole batch, shape
(s,)*r + batch, and every other partial is zero.  A seeded variable has support
(i,) and a constant the empty support, so a chart built from functions of
single coordinates runs its costliest compositions on one-variable jets.  A jet
counts no other variables; `dense(p)` lays it on variables 0..p-1, shape
(p,)*r + batch.  The batch axes are last, so that every broadcast product runs
its inner loop over the batch, and they broadcast: over a grid window a variable
seeded with its axis's nodes has length 1 on every other axis, so sin(t) is
formed once per node of t, not once per point.  The tensors of a jet share its
batch shape, so the terms of each rule below share one shape.  Two jets of different
supports are first laid on the sorted union of both, zeros elsewhere; then two
rules carry every operation to any order (ibid., ch. 13).  Leibniz: d_k(fg)
sums, over the subsets S of the k axes, d_|S| f laid on S times d_(k-|S|) g on
the other axes.  Faa di Bruno: d_k h(f) sums, over the set partitions of the k
axes, h^(r)(f) for r blocks times the product of d_|b| f laid on each block b.
Subsets and blocks are sorted, so laying a tensor on them only inserts
singleton axes, by an index that depends on k alone; each rule reads its terms
and their indices from a plan cached per k.  Every partial inside a support is
thus formed by the same products in the same order as in dense storage, and
each point as in a batch of one.  Order 3 makes tangents order-2 jets.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations
from math import factorial
from operator import iadd, isub, mul

import numpy as np

__all__ = ["Jet", "sin", "cos", "sqrt", "dot"]

_COEFF_TYPES = (int, float, np.floating, np.integer, np.ndarray)


def _laying(axes: tuple, k: int) -> tuple:
    """Index that lays a tensor of shape (s,)*len(axes) + batch on the sorted positions `axes` of rank k:
    a view, shape (s or 1,)*k + batch, with a singleton axis at every other position.  It holds for
    every s, 0 included, and every batch."""
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
    """Batched truncated Taylor expansion that depends only on the variables in `support`.

    `tensors[r]`, shape (s,)*r + batch, holds the r-th partials in the s = len(support) variables of
    the support, a sorted tuple; every other partial is zero.
    """

    __slots__ = ("support", "tensors")
    __array_ufunc__ = None  # so an array on the left defers to the reflected operators, not broadcasts

    def __init__(self, tensors, support: tuple):
        self.tensors = tuple(tensors)
        self.support = support

    @property
    def order(self) -> int:
        return len(self.tensors) - 1

    @property
    def val(self) -> np.ndarray:
        return self.tensors[0]

    def dense(self, nvars: int) -> tuple:
        """The derivative tensors in variables 0..nvars-1, (nvars,)*r + batch: `tensors` itself at that
        support, else fresh arrays."""
        return self._laid(tuple(range(nvars)))

    def _laid(self, union: tuple) -> tuple:
        """`tensors` laid on the sorted variables `union`, a superset of the support, with zeros elsewhere."""
        if union == self.support:
            return self.tensors
        at = tuple(union.index(v) for v in self.support)
        out = [self.val]
        for r, t in enumerate(self.tensors[1:], start=1):
            out.append(np.zeros((len(union),) * r + t.shape[r:]))
            out[-1][_cells(at, r)] = t
        return tuple(out)

    # -- construction -----------------------------------------------------

    @staticmethod
    def variables(values, order: int) -> list["Jet"]:
        """Seed variable i, support (i,), with a copy of values[i] (p arrays that broadcast) or column i (B, p)."""
        if isinstance(values, np.ndarray) and values.ndim != 2:
            raise ValueError("expected a (batch, nvars) array of parameter values")
        seeds = [np.array(v, dtype=float) for v in (values.T if isinstance(values, np.ndarray) else values)]
        return [Jet([v, np.ones((1,) + v.shape), *(np.zeros((1,) * r + v.shape) for r in range(2, order + 1))]
                    [: order + 1], (i,)) for i, v in enumerate(seeds)]

    @staticmethod
    def constant(value, order: int, batch) -> "Jet":
        """A jet of empty support over `batch`, a length or a shape; its derivative tensors are empty."""
        val = np.full(batch, value, dtype=float)
        return Jet([val] + [np.empty((0,) * r + val.shape) for r in range(1, order + 1)], ())

    def _pair(self, other: "Jet"):
        """The union of two supports, and both jets' tensors on it side by side; jets of different
        order do not combine."""
        if other.order != self.order:
            raise ValueError(f"cannot combine jets of order {self.order} and {other.order}")
        union = self.support if other.support == self.support else tuple(sorted({*self.support, *other.support}))
        return union, zip(self._laid(union), other._laid(union))

    # -- structural ops ---------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """Formal derivative with respect to variable i; drops one order, and is zero off the support."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        if i not in self.support:
            return Jet.constant(0.0, self.order - 1, self.val.shape)
        at = self.support.index(i)
        return Jet([t[at] for t in self.tensors[1:]], self.support)

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(self.tensors[: order + 1], self.support)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            return Jet([a + b for a, b in pairs], support)
        if isinstance(other, _COEFF_TYPES):
            return Jet((self.val + other,) + self.tensors[1:], self.support)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet([-t for t in self.tensors], self.support)

    def __sub__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            return Jet([a - b for a, b in pairs], support)
        if isinstance(other, _COEFF_TYPES):
            return Jet((self.val - other,) + self.tensors[1:], self.support)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            support, pairs = self._pair(other)
            f, g = zip(*pairs)
            return Jet([
                _sum(f[i][at_f] * g[j][at_g] for i, at_f, j, at_g in _splits(k))
                for k in range(self.order + 1)], support)
        if isinstance(other, _COEFF_TYPES):
            c = np.asarray(other, dtype=float)
            return Jet([t * c for t in self.tensors], self.support)
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
        return Jet([c[0]] + [
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
        return f"Jet(order={self.order}, support={self.support}, batch={self.val.shape})"


# -- generic scalar functions: work on jets, floats, and numpy arrays ------


def sin(x):
    return x.sin() if isinstance(x, Jet) else np.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else np.cos(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


def _structural_zero(x) -> bool:
    """Whether x is a structural zero: a plain number equal to 0.  An array or a jet never is, whatever it holds."""
    return isinstance(x, (int, float)) and x == 0


def _accumulate(acc, a, b, negate=False):
    """acc + a * b, or acc - a * b if `negate`, for generic scalars; left out where a or b is a structural zero.
    A structural zero acc starts the sum at +-a * b, its own array, into which later terms add in place."""
    if _structural_zero(a) or _structural_zero(b):
        return acc
    term = a * b
    if _structural_zero(acc):
        return -term if negate else term
    if getattr(acc, "shape", None) != getattr(term, "shape", None):  # a broadcast may grow the sum
        return acc - term if negate else acc + term
    return isub(acc, term) if negate else iadd(acc, term)


def dot(xs, ys):
    """Inner product of two lists of generic scalars (jets or numbers), summed in order.  A term with a
    structural zero, a +-0 product, is left out, so only an exact zero's sign can differ; 0.0 if all are."""
    acc = None
    for a, b in zip(xs, ys):
        if not (_structural_zero(a) or _structural_zero(b)):
            acc = a * b if acc is None else acc + a * b
    return 0.0 if acc is None else acc
