"""Parametrized closed submanifolds of R^k and their exact 2-jets.

An `Immersion` couples a chart domain with an evaluator written in jet arithmetic, so point
values and first/second derivatives come out exact to roundoff (finite differences appear only
in consistency tests).  From the 2-jet we derive the induced metric, an orthonormal normal frame
(Householder reflections of the tangents, in generic scalars: arrays here, jets for the tube
frame) and the vector-valued second fundamental form.  Only the 1-jets are stacked into batch
arrays, for the frame; both forms are read off each coordinate's partials on its support.

Sign convention: `second_form[s, i, j]` is the inner product of the ambient
second derivative of the chart with normal frame vector s, i.e. the normal
component of D_i d_j.  On the unit sphere with the outward radial normal
this gives minus the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateImmersionError, DomainError
from .jets import Jet, _cells, dot, sqrt

__all__ = [
    "Axis",
    "Immersion",
    "FrameData",
    "jets_at",
    "induced_metric",
    "frames_at",
    "frame_data_at",
    "sample_domain",
]

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Axis:
    """One parameter interval [lo, hi] with a periodicity flag."""

    lo: float
    hi: float
    periodic: bool = False

    @property
    def length(self) -> float:
        return self.hi - self.lo


class GridBatch:
    """The points of a grid window, in C order: one array of values per variable, `columns`, each
    broadcasting to the shape `window`.  It reads as its (B, m) `points` by `len` and indexing."""

    __slots__ = ("columns", "window")

    def __init__(self, columns: tuple, window: tuple):
        self.columns, self.window = columns, window

    def __len__(self):
        return math.prod(self.window)

    def __getitem__(self, key):
        return self.points[key]

    @property
    def points(self) -> np.ndarray:  # (B, m), built when a point is named
        return np.stack([self.rows(c) for c in self.columns], axis=1)

    def head(self, m: int) -> "GridBatch":  # the first m variables, over the same window
        return GridBatch(self.columns[:m], self.window)

    def rows(self, a: np.ndarray) -> np.ndarray:
        """The batch's rows of `a`, whose last axes broadcast to the window: shape (..., B)."""
        lead = a.shape[: a.ndim - len(self.window)]
        return np.broadcast_to(a, lead + self.window).reshape(lead + (-1,))


@dataclass
class Immersion:
    """A parametrized submanifold of R^k; m is its number of domain axes, n = k - m.

    `chart` maps a list of m generic scalars (floats, arrays, or jets) to k of them; a
    tube's normal frame is built from its tangents.  Derived immersions (tube boundaries)
    give `jet_map_override` in place of `chart`: exactly one of the two, else `ValueError` at
    construction.  A chart that returns other than k coordinates raises `ValueError` when evaluated.
    """

    name: str
    k: int
    domain: tuple[Axis, ...]
    chart: Optional[Callable] = None
    euler_char: Optional[int] = None
    reach: Optional[float] = None
    reference_curvature: Optional[Callable] = None
    jet_map_override: Optional[Callable] = None

    def __post_init__(self):
        if self.k - self.m < 1:
            raise ValueError(f"{self.name}: codimension k - m = {self.k - self.m} must be >= 1")
        if (self.chart is None) == (self.jet_map_override is None):
            raise ValueError(f"{self.name}: give exactly one of chart and jet_map_override")

    @property
    def m(self) -> int:
        return len(self.domain)

    @property
    def n(self) -> int:
        return self.k - self.m

    def wrap(self, u: Sequence[float]) -> np.ndarray:
        """Wrap periodic coordinates into the fundamental interval; validate the rest."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.m,):
            raise DomainError(f"{self.name}: expected a point with {self.m} coordinates, got shape {u.shape}")
        if not np.isfinite(u).all():
            raise DomainError(f"{self.name}: parameter point {u.tolist()} is not finite")
        out = u.copy()
        for i, ax in enumerate(self.domain):
            if ax.periodic:
                out[i] = ax.lo + (out[i] - ax.lo) % ax.length
            elif not (ax.lo - 1e-12 <= out[i] <= ax.hi + 1e-12):
                raise DomainError(
                    f"{self.name}: coordinate {i} = {out[i]} outside [{ax.lo}, {ax.hi}] on a non-periodic axis"
                )
        return out

    def jet_map(self, U, order: int) -> list[Jet]:
        """Evaluate the chart as jets of `order` over the window of a `GridBatch` or (batch, m) points."""
        U = _batch(self, U)
        if order < 0:
            raise ValueError(f"{self.name}: jet order {order} must be >= 0")
        if self.jet_map_override is not None:
            return self.jet_map_override(U, order)
        out = self.chart(Jet.variables(U.columns, order))
        if len(out) != self.k:
            raise ValueError(f"{self.name}: chart returned {len(out)} coordinates, expected k = {self.k}")
        return [o if isinstance(o, Jet) else Jet.constant(o, order, (1,) * len(U.window)) for o in out]

    def points(self, U) -> np.ndarray:
        """Ambient positions only, shape (batch, k)."""
        return _stacked_jets(self, U, 0)[0].T

    def without_euler_char(self) -> "Immersion":
        return replace(self, euler_char=None)


@dataclass
class FrameData:
    """Orthonormal tangent-adapted data at a point."""

    metric: np.ndarray  # (m, m) first fundamental form
    second_form: np.ndarray  # (n, m, m) normal components of D_i d_j
    normal_frame: np.ndarray  # (k, n) orthonormal columns spanning the normal space

    @property
    def m(self) -> int:
        return self.metric.shape[0]

    @property
    def n(self) -> int:
        return self.second_form.shape[0]


def _batch(imm: Immersion, U) -> GridBatch:
    """U as a `GridBatch`: itself, or a (batch, m) array of points as a window with one batch axis."""
    if isinstance(U, GridBatch):
        return U
    shape, U = np.shape(U), np.atleast_2d(np.asarray(U, dtype=float))
    if U.ndim != 2 or U.shape[1] != imm.m:
        raise ValueError(f"{imm.name}: parameter points of shape {shape}, expected (batch, m = {imm.m})")
    return GridBatch(tuple(U.T), (len(U),))


def _stack(js: list[Jet], order: int, m: int, U: GridBatch):
    """Jet derivatives in m variables up to `order` at batch U, batch axis last: (k,B), (k,m,B), ...; the
    rows of U in each coordinate's tensors are written straight into the cells of its support, zeros elsewhere."""
    out = tuple(np.zeros((len(js),) + (m,) * r + (len(U),)) for r in range(order + 1))
    for a, j in enumerate(js):
        for r in range(order + 1 if j.support else 1):  # a constant has no derivative cells
            out[r][a][_cells(j.support, r)] = U.rows(j.tensors[r])
    return out


def _stacked_jets(imm: Immersion, U, order: int):
    """`_stack` of the chart's jets of `order` at the batch U."""
    U = _batch(imm, U)
    return _stack(imm.jet_map(U, order), order, imm.m, U)


def jets_at(imm: Immersion, U: np.ndarray, order: int = 2):
    """Batched chart derivatives up to `order`: arrays (B,k), (B,k,m), (B,k,m,m), ...,
    each a view of batch-last storage with the batch axis moved first."""
    return tuple(np.moveaxis(t, -1, 0) for t in _stacked_jets(imm, U, order))


def induced_metric(d1: np.ndarray) -> np.ndarray:
    """First fundamental forms (m, m, B) of a batch of 1-jets (k, m, B), batch axis last."""
    return np.einsum("aib,ajb->ijb", d1, d1)


def _value(c):  # the values of a generic scalar
    return c.val if isinstance(c, Jet) else c


def _reflect(v, beta, y):
    """(I - beta v v^T) y for ambient vectors v and y of generic scalars, of one length."""
    w = beta * dot(v, y)
    return [c - w * e for c, e in zip(y, v)]


@np.errstate(divide="ignore", invalid="ignore")  # a lost tangent gives inf or NaN, refused by the caller
def _householder_qr(tangents):
    """Householder QR of m tangents, all a rank check needs: reflections (v, beta), rank-loss mask, R.

    Every vector is a list of k generic scalars (jets or arrays); the QR differentiates wherever
    the tangents do and keep full rank.  Reflection j takes x, column j of the tangents on rows j..,
    to alpha e_j with alpha = s|x| and s = -copysign(1, x_0), the sign taken from the point's value;
    2/|v|^2 is written beta = 1/(|x|(|x| - s x_0)), so that it differentiates.  R comes as rows
    R[j] = [R_jj, R_j,j+1, ...].  The tangents lose rank where the smallest |R_jj| = |x| is at most
    `_RANK_TOL` times the largest.
    """
    rest, reflections, R = tangents, [], []
    for _ in tangents:
        x = rest[0]
        norm = sqrt(dot(x, x))
        s = -np.copysign(1.0, _value(x[0]))
        alpha = s * norm
        v = [x[0] - alpha, *x[1:]]
        beta = 1.0 / (norm * (norm - s * x[0]))
        rest = [_reflect(v, beta, col) for col in rest[1:]]
        R.append([alpha] + [col[0] for col in rest])
        rest = [col[1:] for col in rest]
        reflections.append((v, beta))
    return reflections, _rank_lost(np.abs(np.broadcast_arrays(*(_value(row[0]) for row in R)))), R


@np.errstate(divide="ignore", invalid="ignore")
def _householder_frame(tangents, k):
    """A normal frame of m tangents in R^k, its `_householder_qr` reflections run back over e_m...e_(k-1); mask, R."""
    reflections, lost, R = _householder_qr(tangents)
    frame = [[float(a == b) for a in range(k)] for b in range(len(tangents), k)]
    for j, (v, beta) in reversed(list(enumerate(reflections))):
        frame = [y[:j] + _reflect(v, beta, y[j:]) for y in frame]
    return frame, lost, R


def _normal_frames(d1: np.ndarray):
    """Orthonormal normal frames (k, n, B) for a batch of 1-jets (k, m, B), and a rank-loss mask (B,).

    `_householder_frame` of the m tangent columns of d1, stacked batch axis last.  Any
    orthonormal frame will do, since K_M averages over the whole normal sphere.  The
    reflections leave tangential roundoff of the frame's own size in it, which swamps the
    normal part of d2 where a coordinate vector nearly vanishes (near a polar axis).  So one
    corrected semi-normal step F - d1 R^-1 R^-T d1^T F (a forward substitution with R^T, then
    a back substitution with R) removes the tangential part measured against d1 itself.  A
    point that loses rank solves with the identity in place of R.  A zero column divides by
    zero within its own point only, and that point has lost rank.  NaN jets pass, for the
    reduction's finite-value check.
    """
    m = d1.shape[1]
    frame, lost, R = _householder_frame([list(d1[:, i]) for i in range(m)], d1.shape[0])
    frame = np.stack([np.stack(v) for v in frame], axis=1)
    R = [[np.where(lost, float(i == 0), r) for i, r in enumerate(row)] for row in R]  # the identity where lost
    c = [(d1[:, i, None] * frame).sum(axis=0) for i in range(m)]  # d1^T F, m of (n, B)
    y = []
    for i in range(m):  # R^T y = d1^T F
        y.append((c[i] - sum(R[j][i - j] * y[j] for j in range(i))) / R[i][0])
    z = [None] * m
    for i in reversed(range(m)):  # R z = y
        z[i] = (y[i] - sum(R[i][j - i] * z[j] for j in range(i + 1, m))) / R[i][0]
    for i in range(m):
        frame -= d1[:, i, None] * z[i]
    return frame, lost


def _rank_lost(size) -> np.ndarray:
    """Per point, whether the smallest |R_jj| of sizes (m, B) is at most `_RANK_TOL` times the largest."""
    return np.fmin.reduce(size, axis=0) <= _RANK_TOL * np.fmax.reduce(size, axis=0)


def _refuse_rank_loss(name, U: np.ndarray, lost: np.ndarray):
    """Raise `DegenerateImmersionError` at the first point of U (B, m) where `lost`, naming it and its
    immersion `name` (or one name per point)."""
    if lost.any():
        i = np.argmax(lost)
        raise DegenerateImmersionError(
            f"{name if isinstance(name, str) else name[i]}: first-derivative matrix is rank deficient "
            f"at parameter point {U[i].tolist()}")


def _forms(name, js, V: GridBatch):
    """Metric (m,m,B), second form (n,m,m,B) and frame (k,n,B), batch axis last, from the 2-jets js of
    immersion `name` (or one name per point) over V; names the first point of rank loss.  Only d1 is stacked,
    for the frame: coordinate a adds the products of its first partials, and frame row a times its second
    partials, into the cells of its support, so every point sums over the coordinates in one order."""
    m = len(V.columns)
    frame, lost = _normal_frames(_stack(js, 1, m, V)[1])
    _refuse_rank_loss(name, V, lost)
    metric, second = np.zeros((m, m) + V.window), np.zeros((frame.shape[1], m, m) + V.window)
    for f, j in zip(frame.reshape(*frame.shape[:2], *V.window), js):
        for p, q in np.ndindex(*j.tensors[2].shape[:2]):
            metric[j.support[p], j.support[q]] += j.tensors[1][p] * j.tensors[1][q]
            second[:, j.support[p], j.support[q]] += f * j.tensors[2][p, q]
    return metric.reshape(m, m, -1), second.reshape(*second.shape[:3], -1), frame


def frames_at(imm: Immersion, U: np.ndarray):
    """Batched fundamental forms: metric (B,m,m), second form (B,n,m,m), frame (B,k,n), views of
    batch-last storage with the batch axis moved first; the second form is read off the jets, not a stack."""
    V = _batch(imm, U)
    return tuple(np.moveaxis(t, -1, 0) for t in _forms(imm.name, imm.jet_map(V, 2), V))


def frame_data_at(imm: Immersion, u: Sequence[float]) -> FrameData:
    """Fundamental forms at a single (wrapped) parameter point: a batch of one."""
    metric, second, frame = frames_at(imm, imm.wrap(u)[None, :])
    return FrameData(metric=metric[0], second_form=second[0], normal_frame=frame[0])


def sample_domain(imm: Immersion, count: int, rng: np.random.Generator,
                  margin: float = 0.05) -> np.ndarray:
    """Uniform random parameter points, keeping a margin off non-periodic ends.

    The margin avoids chart singularities (polar axes) and leaves room for
    finite-difference stencils near interval endpoints.
    """
    cols = []
    for ax in imm.domain:
        if ax.periodic:
            cols.append(rng.uniform(ax.lo, ax.hi, size=count))
        else:
            pad = margin * ax.length
            cols.append(rng.uniform(ax.lo + pad, ax.hi - pad, size=count))
    return np.stack(cols, axis=1)
