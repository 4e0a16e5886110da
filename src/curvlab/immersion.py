"""Parametrized closed submanifolds of R^k and their exact 2-jets.

An `Immersion` couples a chart domain with an evaluator written in jet arithmetic, so point
values and first/second derivatives come out exact to roundoff (finite differences appear only
in consistency tests).  From the 2-jet we derive the induced metric, an orthonormal normal frame
(Householder reflections of the tangents, in generic scalars: arrays here, jets for the tube
frame) and the vector-valued second fundamental form, all read off each coordinate's partials
in the jet's own window-broadcast shape; a partial off its support, and a cell of the forms that no
term covers, is a structural zero, the plain number 0.0, whose terms the reflections and the
determinants skip, and on which the QR never pivots, so a product chart's frame and forms keep its
factors' blocks.  Nothing is laid out over the batch but what `frames_at` returns, at the end.

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
from .jets import Jet, _accumulate, _cells, _structural_zero, dot, sqrt

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
    """Orthonormal tangent-adapted data at a point.  The normal frame is the Householder frame of the tangents
    with structural pivoting (`_householder_qr`): on a product chart, such as `product_s2s2_r6`, each column is
    one factor's normal, 0.0 in the other factor's coordinates, and Pi_s is zero outside factor s's block."""

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
    """(I - beta v v^T) y for ambient vectors v and y of generic scalars, of one length: y itself where
    <v, y> is a structural zero (`jets._structural_zero`), and y's entry wherever v's entry is one."""
    d = dot(v, y)
    if _structural_zero(d):
        return y
    w = beta * d
    return [c if _structural_zero(e) else c - w * e for c, e in zip(y, v)]


def _pivot(x) -> int:
    """The offset of the first entry of x that is not a structural zero, 0 if every entry is one: it depends on
    the entries' supports alone, never on their values, so every point of a batch pivots alike."""
    return next((p for p, c in enumerate(x) if not _structural_zero(c)), 0)


def _move(y, p):
    """y with entry p moved to the front and the p entries before it one down: a cycle of sign (-1)^p."""
    return [y[p], *y[:p], *y[p + 1:]] if p else y


def _move_back(y, p):
    """The inverse of `_move(y, p)`: y's front entry back to p."""
    return [*y[1:p + 1], y[0], *y[p + 1:]] if p else y


@np.errstate(divide="ignore", invalid="ignore")  # a lost tangent gives inf or NaN, refused by the caller
def _householder_qr(tangents):
    """Householder QR of m tangents, all a rank check needs: reflections (v, beta, p), rank-loss mask, R.

    Every vector is a list of k generic scalars (jets, arrays or structural zeros); the QR differentiates wherever
    the tangents do and keep full rank.  Step j takes x, column j of the tangents on rows j.., moves its entry p,
    its `_pivot`, to the front (`_move`, every column alike), and reflects x to alpha e_j with alpha = s|x| and
    s = -copysign(1, x_0), the sign taken from the point's value; 2/|v|^2 is written beta = 1/(|x|(|x| - s x_0)),
    so that it differentiates.  So the pivot is never a structural zero the reflection would fill in, and on a
    product chart each factor's reflections keep to that factor's rows; dense tangents pivot at p = 0.  R comes
    as rows R[j] = [R_jj, R_j,j+1, ...].  The tangents lose rank where the smallest |R_jj| = |x| is at most
    `_RANK_TOL` times the largest.
    """
    rest, reflections, R = tangents, [], []
    for _ in tangents:
        p = _pivot(rest[0])
        rest = [_move(col, p) for col in rest]
        x = rest[0]
        norm = sqrt(dot(x, x))
        s = -np.copysign(1.0, _value(x[0]))
        alpha = s * norm
        v = [x[0] - alpha, *x[1:]]
        beta = 1.0 / (norm * (norm - s * x[0]))
        rest = [_reflect(v, beta, col) for col in rest[1:]]
        R.append([alpha] + [col[0] for col in rest])
        rest = [col[1:] for col in rest]
        reflections.append((v, beta, p))
    return reflections, _rank_lost(np.abs(np.broadcast_arrays(*(_value(row[0]) for row in R)))), R


def _reflect_back(reflections, y):
    """Q y for Q = P_0^T H_0 ... P_(m-1)^T H_(m-1), the product of `_householder_qr`'s reflections H_j and row
    moves P_j, both acting on entries j.. of y."""
    for j, (v, beta, p) in reversed(list(enumerate(reflections))):
        y = y[:j] + _move_back(_reflect(v, beta, y[j:]), p)
    return y


@np.errstate(divide="ignore", invalid="ignore")
def _householder_frame(tangents, k):
    """A normal frame of m tangents in R^k, `_reflect_back` of e_m...e_(k-1); mask, R."""
    reflections, lost, R = _householder_qr(tangents)
    frame = [_reflect_back(reflections, [float(a == b) for a in range(k)]) for b in range(len(tangents), k)]
    return frame, lost, R


def _substitute(b, terms, d):
    """(b - sum of the products r * x of `terms`, in their order) / d, one step of a triangular solve in generic
    scalars.  A product with a structural zero is left out, and so the result is a structural zero where b and
    every product are."""
    total = None
    for r, x in terms:
        if not (_structural_zero(r) or _structural_zero(x)):
            total = r * x if total is None else total + r * x
    if total is None:
        return b if _structural_zero(b) else b / d
    return (b - total) / d


def _normal_frames(tangents, name, V: GridBatch):
    """Orthonormal normal frames of m tangents of immersion `name` (or one name per point) over V, each a list of
    k arrays that broadcast or structural zeros: n columns of k such entries, and the rank-loss mask in the
    broadcast shape of the batch, after naming the first point of V where it is set.

    `_householder_frame` of the tangents, which keeps their shapes and skips their structural zeros: the
    Householder frame with structural pivoting, so on a product chart each column is one factor's normal, 0.0
    in the other factor's rows.  Any orthonormal frame will do, since K_M averages over the whole normal sphere.
    The reflections leave tangential roundoff of the frame's own size in it, which swamps the normal part of d2
    where a coordinate vector nearly vanishes (near a polar axis).  So one corrected semi-normal step
    F - d1 R^-1 R^-T d1^T F (a forward substitution with R^T, then a back substitution with R), one column of F
    at a time, removes the tangential part measured against the tangents d1 themselves.  It runs once rank loss
    is refused, so no R_jj is zero; `_substitute` leaves out each term with a structural zero, so a column keeps
    its 0.0 entries.  NaN jets pass, for the reduction's finite-value check.
    """
    m = len(tangents)
    frame, lost, R = _householder_frame(tangents, len(tangents[0]))
    _refuse_rank_loss(name, V, V.rows(lost))
    for s, col in enumerate(frame):
        y = []
        for i in range(m):  # R^T y = d1^T F
            y.append(_substitute(dot(tangents[i], col), [(R[j][i - j], y[j]) for j in range(i)], R[i][0]))
        z = [None] * m
        for i in reversed(range(m)):  # R z = y
            z[i] = _substitute(y[i], [(R[i][j - i], z[j]) for j in range(i + 1, m)], R[i][0])
        for t, zi in zip(tangents, z):
            col = [c if _structural_zero(e) or _structural_zero(zi) else c - e * zi for c, e in zip(col, t)]
        frame[s] = col
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
    """Metric (m, m), second form (n, m, m) and frame (n, k) from the 2-jets js of immersion `name` (or one
    name per point) over V; names the first point of rank loss.  Nothing is stacked: tangent i, coordinate a,
    is the jet's partial in variable i in its own shape, or 0.0 off its support, and coordinate a adds the
    products of its first partials, and entry a of each frame column s times its second partials, into the cells
    of its support and of Pi_s, so every point sums over the coordinates in one order.  The forms are lists of
    cells in their terms' shape, or 0.0 where no term is left: where no support holds both variables, and in
    Pi_s where frame column s is 0.0 in every coordinate whose support does, as on a product chart outside
    factor s's block.  The frame comes as `_normal_frames` gives it, n columns of k entries; `_dense_forms`
    lays all three out, batch last."""
    m = len(V.columns)
    tangents = [[j.tensors[1][j.support.index(i)] if i in j.support else 0.0 for j in js] for i in range(m)]
    frame, _ = _normal_frames(tangents, name, V)
    metric = [[0.0] * m for _ in range(m)]
    second = [[[0.0] * m for _ in range(m)] for _ in frame]
    for a, j in enumerate(js):
        for p, q in np.ndindex(*j.tensors[2].shape[:2]):
            i, l = j.support[p], j.support[q]
            metric[i][l] = _accumulate(metric[i][l], j.tensors[1][p], j.tensors[1][q])
            for s, col in enumerate(frame):
                second[s][i][l] = _accumulate(second[s][i][l], col[a], j.tensors[2][p, q])
    return metric, second, frame


def _dense_forms(name, js, V: GridBatch):
    """`_forms` laid out: metric (m,m,B), second form (n,m,m,B) and frame (k,n,B), batch axis last.  Each cell
    is written as 0 + cell, the bits of its terms summed into zeros: a structural zero or a -0 reads +0; each
    frame entry is copied as it is."""
    metric, second, columns = _forms(name, js, V)
    out = np.empty((1 + len(second), len(metric), len(metric)) + V.window)  # the metric, then each Pi_s
    for s, i, j in np.ndindex(*out.shape[:3]):
        np.add(0.0, (metric, *second)[s][i][j], out=out[s, i, j])
    frame = np.empty((len(columns[0]), len(columns)) + V.window)
    for s, col in enumerate(columns):
        for a, c in enumerate(col):
            frame[a, s] = c
    out = out.reshape(*out.shape[:3], -1)
    return out[0], out[1:], frame.reshape(*frame.shape[:2], -1)


def frames_at(imm: Immersion, U: np.ndarray):
    """Batched fundamental forms: metric (B,m,m), second form (B,n,m,m), frame (B,k,n), views of
    batch-last storage with the batch axis moved first; the second form is read off the jets, not a stack.
    The frame is `FrameData`'s: the Householder frame with structural pivoting, on a product chart the
    factors' own normals, and the second form is taken along its columns."""
    V = _batch(imm, U)
    return tuple(np.moveaxis(t, -1, 0) for t in _dense_forms(imm.name, imm.jet_map(V, 2), V))


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
