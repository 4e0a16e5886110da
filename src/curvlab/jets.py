"""Truncated multivariate Taylor arithmetic (jets) up to third order.

Every chart in the catalog is written as an ordinary Python function of its
parameters using the `sin`/`cos`/`sqrt` wrappers below.  Running that function
on `Jet` inputs produces exact derivatives of the chart to machine precision;
running it on plain floats or numpy arrays evaluates values only.  All jet
data is batched over a leading axis so whole quadrature grids are pushed
through a chart in a handful of vectorized operations.

A jet of order q in p variables stores the value and all partial derivative
tensors up to order q (dense, fully symmetric).  Order 3 exists so that first
derivatives of a chart (tangent vectors) can themselves be carried as
order-2 jets, which is what differentiating a moving normal frame requires.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Jet", "sin", "cos", "sqrt", "dot"]

_COEFF_TYPES = (int, float, np.floating, np.integer, np.ndarray)


def _outer2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (B,p) x (B,p) -> (B,p,p)
    return a[:, :, None] * b[:, None, :]


def _sym3(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    # symmetrized (B,p,p) x (B,p) -> (B,p,p,p): H_ab g_c + H_ac g_b + H_bc g_a
    return (
        h[:, :, :, None] * g[:, None, None, :]
        + h[:, :, None, :] * g[:, None, :, None]
        + h[:, None, :, :] * g[:, :, None, None]
    )


class Jet:
    """Batched truncated Taylor expansion in `nvars` variables."""

    __slots__ = ("order", "nvars", "val", "d1", "d2", "d3")

    def __init__(self, order, nvars, val, d1=None, d2=None, d3=None):
        self.order = order
        self.nvars = nvars
        self.val = val
        self.d1 = d1
        self.d2 = d2
        self.d3 = d3

    # -- construction -----------------------------------------------------

    @staticmethod
    def variables(values: np.ndarray, order: int) -> list["Jet"]:
        """Seed one jet per column of `values` (shape (B, p))."""
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("expected a (batch, nvars) array of parameter values")
        b, p = values.shape
        out = []
        for i in range(p):
            d1 = np.zeros((b, p))
            d1[:, i] = 1.0
            d2 = np.zeros((b, p, p)) if order >= 2 else None
            d3 = np.zeros((b, p, p, p)) if order >= 3 else None
            out.append(Jet(order, p, values[:, i].copy(), d1, d2, d3))
        return out

    @staticmethod
    def constant(value, nvars: int, order: int, batch: int) -> "Jet":
        val = np.broadcast_to(np.asarray(value, dtype=float), (batch,)).copy()
        d1 = np.zeros((batch, nvars))
        d2 = np.zeros((batch, nvars, nvars)) if order >= 2 else None
        d3 = np.zeros((batch, nvars, nvars, nvars)) if order >= 3 else None
        return Jet(order, nvars, val, d1, d2, d3)

    def _lift(self, value) -> "Jet":
        return Jet.constant(value, self.nvars, self.order, self.val.shape[0])

    # -- structural ops ---------------------------------------------------

    def partial(self, i: int) -> "Jet":
        """Formal derivative with respect to variable i; drops one order."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 jet")
        return Jet(
            self.order - 1,
            self.nvars,
            self.d1[:, i].copy(),
            self.d2[:, i, :].copy() if self.order >= 2 else None,
            self.d3[:, i, :, :].copy() if self.order >= 3 else None,
        )

    def truncate(self, order: int) -> "Jet":
        if order > self.order:
            raise ValueError("cannot raise jet order by truncation")
        return Jet(
            order,
            self.nvars,
            self.val,
            self.d1 if order >= 1 else None,
            self.d2 if order >= 2 else None,
            self.d3 if order >= 3 else None,
        )

    def widen(self, nvars: int) -> "Jet":
        """The same jet in `nvars` variables: the new ones go last and it does not depend on them."""
        extra = nvars - self.nvars
        if extra < 0:
            raise ValueError("cannot drop jet variables by widening")
        if extra == 0:
            return self

        def pad(d, rank):
            return None if d is None else np.pad(d, [(0, 0)] + [(0, extra)] * rank)

        return Jet(self.order, nvars, self.val, pad(self.d1, 1), pad(self.d2, 2), pad(self.d3, 3))

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.order,
                self.nvars,
                self.val + other.val,
                self.d1 + other.d1,
                self.d2 + other.d2 if self.order >= 2 else None,
                self.d3 + other.d3 if self.order >= 3 else None,
            )
        if isinstance(other, _COEFF_TYPES):
            return Jet(self.order, self.nvars, self.val + other, self.d1, self.d2, self.d3)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.order,
            self.nvars,
            -self.val,
            -self.d1,
            -self.d2 if self.order >= 2 else None,
            -self.d3 if self.order >= 3 else None,
        )

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.order,
                self.nvars,
                self.val - other.val,
                self.d1 - other.d1,
                self.d2 - other.d2 if self.order >= 2 else None,
                self.d3 - other.d3 if self.order >= 3 else None,
            )
        if isinstance(other, _COEFF_TYPES):
            return Jet(self.order, self.nvars, self.val - other, self.d1, self.d2, self.d3)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            fv, gv = self.val, other.val
            val = fv * gv
            d1 = fv[:, None] * other.d1 + gv[:, None] * self.d1
            d2 = d3 = None
            if self.order >= 2:
                d2 = (
                    fv[:, None, None] * other.d2
                    + gv[:, None, None] * self.d2
                    + _outer2(self.d1, other.d1)
                    + _outer2(other.d1, self.d1)
                )
            if self.order >= 3:
                d3 = (
                    fv[:, None, None, None] * other.d3
                    + gv[:, None, None, None] * self.d3
                    + _sym3(self.d2, other.d1)
                    + _sym3(other.d2, self.d1)
                )
            return Jet(self.order, self.nvars, val, d1, d2, d3)
        if isinstance(other, _COEFF_TYPES):
            c = np.asarray(other, dtype=float)
            cg = c if c.ndim == 0 else c[:, None]
            ch = c if c.ndim == 0 else c[:, None, None]
            ct = c if c.ndim == 0 else c[:, None, None, None]
            return Jet(
                self.order,
                self.nvars,
                self.val * c,
                self.d1 * cg,
                self.d2 * ch if self.order >= 2 else None,
                self.d3 * ct if self.order >= 3 else None,
            )
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

    def __pow__(self, n):
        # integer powers only, by repeated squaring: exact and safe at val=0
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        result = self._lift(1.0)
        base = self
        n = int(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- analytic functions -----------------------------------------------

    def _compose(self, c0, c1, c2=None, c3=None) -> "Jet":
        """Chain rule for a scalar function with derivative values c0..c3 at val."""
        d1 = c1[:, None] * self.d1
        d2 = d3 = None
        if self.order >= 2:
            d2 = c1[:, None, None] * self.d2 + c2[:, None, None] * _outer2(self.d1, self.d1)
        if self.order >= 3:
            d3 = (
                c1[:, None, None, None] * self.d3
                + c2[:, None, None, None] * _sym3(self.d2, self.d1)
                + c3[:, None, None, None]
                * self.d1[:, :, None, None]
                * self.d1[:, None, :, None]
                * self.d1[:, None, None, :]
            )
        return Jet(self.order, self.nvars, c0, d1, d2, d3)

    def _reciprocal(self) -> "Jet":
        v = self.val
        return self._compose(1.0 / v, -1.0 / v**2, 2.0 / v**3, -6.0 / v**4)

    def sin(self) -> "Jet":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose(s, c, -s, -c)

    def cos(self) -> "Jet":
        s, c = np.sin(self.val), np.cos(self.val)
        return self._compose(c, -s, -c, s)

    def sqrt(self) -> "Jet":
        r = np.sqrt(self.val)
        return self._compose(r, 0.5 / r, -0.25 / r**3, 0.375 / r**5)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, batch={self.val.shape[0]})"


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
