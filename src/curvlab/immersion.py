"""Parametrized closed submanifolds of R^k and their exact 2-jets.

An `Immersion` couples a chart domain with an evaluator written in jet
arithmetic, so point values and first/second derivatives come out exact to
roundoff (finite differences appear only in consistency tests).  From the
2-jet we derive the induced metric, an orthonormal normal frame (Householder
reflections of the tangents, applied with the batch axis last) and the
vector-valued second fundamental form.

Sign convention: `second_form[s, i, j]` is the inner product of the ambient
second derivative of the chart with normal frame vector s, i.e. the normal
component of D_i d_j.  On the unit sphere with the outward radial normal
this gives minus the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateImmersionError, DomainError
from .jets import Jet

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


@dataclass
class Immersion:
    """A parametrized m-dimensional submanifold of R^k.

    `chart` maps a list of m generic scalars (floats, arrays, or jets) to a
    list of k generic scalars.  `normal_seeds`, when given, maps the same
    inputs to n ambient vectors spanning the normal space smoothly across
    the chart; the tube construction differentiates through it.
    `jet_map_override` replaces the default chart evaluation for derived
    immersions (tube boundaries) that need custom seeding.
    """

    name: str
    m: int
    k: int
    domain: tuple[Axis, ...]
    chart: Optional[Callable] = None
    euler_char: Optional[int] = None
    reach: Optional[float] = None
    normal_seeds: Optional[Callable] = None
    reference_curvature: Optional[Callable] = None
    jet_map_override: Optional[Callable] = None

    def __post_init__(self):
        if self.k - self.m < 1:
            raise ValueError(f"{self.name}: codimension k - m = {self.k - self.m} must be >= 1")
        if len(self.domain) != self.m:
            raise ValueError(f"{self.name}: domain has {len(self.domain)} axes, expected m = {self.m}")

    @property
    def n(self) -> int:
        return self.k - self.m

    def chart_center(self) -> np.ndarray:
        return np.array([0.5 * (ax.lo + ax.hi) for ax in self.domain])

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

    def jet_map(self, U: np.ndarray, order: int) -> list[Jet]:
        """Evaluate the chart on a (batch, m) array of points as jets of `order`."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if order < 0:
            raise ValueError(f"{self.name}: jet order {order} must be >= 0")
        if self.jet_map_override is not None:
            return self.jet_map_override(U, order)
        xs = Jet.variables(U, order)
        out = self.chart(xs)
        b = U.shape[0]
        return [o if isinstance(o, Jet) else Jet.constant(o, self.m, order, b) for o in out]

    def points(self, U: np.ndarray) -> np.ndarray:
        """Ambient positions only, shape (batch, k)."""
        return np.stack([j.val for j in self.jet_map(U, 0)], axis=1)

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


def jets_at(imm: Immersion, U: np.ndarray, order: int = 2):
    """Batched chart derivatives up to `order`: arrays (B,k), (B,k,m), (B,k,m,m), ...; rank r
    stacks views of the coordinates' d[r] with the batch axis moved first, so it is copied once."""
    js = imm.jet_map(U, order)
    return tuple(np.stack([np.moveaxis(j.d[r], -1, 0) for j in js], axis=1) for r in range(order + 1))


def induced_metric(d1: np.ndarray) -> np.ndarray:
    """First fundamental forms (B, m, m) of a batch of 1-jets (B, k, m)."""
    return np.swapaxes(d1, -1, -2) @ d1


def _reflect(v, beta, x):
    """(I - beta v v^T) x for reflection vectors v (r, B) and columns x (r, c, B)."""
    return x - v[:, None] * (beta * (v[:, None] * x).sum(axis=0))


def _normal_frames(d1: np.ndarray):
    """Orthonormal normal frames (B, k, n) for a batch of 1-jets (B, k, m), and a rank-loss mask (B,).

    A Householder QR of d1 with the batch axis last, so that every step is
    one vector operation over the whole batch.  m reflections with
    alpha = -copysign(|x|, x_0) reduce d1 to R, and applying them in reverse
    to e_m ... e_(k-1) gives the frame, the normal block of Q.  Any
    orthonormal frame will do, since K_M averages over the whole normal
    sphere.  The reflections leave tangential roundoff of the frame's own
    size in it, which swamps the normal part of d2 where a coordinate
    vector nearly vanishes (near a polar axis).  So one corrected
    semi-normal step F - d1 R^-1 R^-T d1^T F (a forward substitution with
    R^T, then a back substitution with R) removes the tangential part
    measured against d1 itself.  A point loses rank when its smallest
    |R_ii| is at most `_RANK_TOL` times its largest; it solves with the
    identity in place of R.  A zero column divides by zero within its own
    point only, and that point has lost rank.  NaN jets pass, for the
    reduction's finite-value check.
    """
    b, k, m = d1.shape
    a = np.moveaxis(d1, 0, -1).copy()  # (k, m, B)
    rest, vs, betas, diag, rows = a, [], [], [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(m):
            x = rest[:, 0]
            norm = np.sqrt((x * x).sum(axis=0))
            alpha = -np.copysign(norm, x[0])
            v = x.copy()
            v[0] -= alpha
            beta = 1.0 / (norm * (norm + np.abs(x[0])))  # 2 / |v|^2
            rest = _reflect(v, beta, rest[:, 1:])
            vs.append(v)
            betas.append(beta)
            diag.append(alpha)
            rows.append(rest[0])  # R_(j, j+1:)
            rest = rest[1:]
        frame = np.zeros((k, k - m, b))
        frame[m:] = np.eye(k - m)[:, :, None]
        for j in reversed(range(m)):
            frame[j:] = _reflect(vs[j], betas[j], frame[j:])
    size = np.abs(diag)
    lost = np.fmin.reduce(size, axis=0) <= _RANK_TOL * np.fmax.reduce(size, axis=0)
    diag = np.where(lost, 1.0, diag)
    rows = [np.where(lost, 0.0, row) for row in rows]
    c = [(a[:, i, None] * frame).sum(axis=0) for i in range(m)]  # d1^T F, m of (n, B)
    y = []
    for i in range(m):  # R^T y = d1^T F
        y.append((c[i] - sum(rows[j][i - j - 1] * y[j] for j in range(i))) / diag[i])
    z = [None] * m
    for i in reversed(range(m)):  # R z = y
        z[i] = (y[i] - sum(rows[i][j - i - 1] * z[j] for j in range(i + 1, m))) / diag[i]
    for i in range(m):
        frame -= a[:, i, None] * z[i]
    return np.moveaxis(frame, -1, 0), lost


def _forms_at(imm: Immersion, U: np.ndarray):
    """Points (B,k) and the fundamental forms of `frames_at`; names the first point of rank loss."""
    point, d1, d2 = jets_at(imm, U, order=2)
    frame, lost = _normal_frames(d1)
    if lost.any():
        raise DegenerateImmersionError(
            f"{imm.name}: first-derivative matrix is rank deficient at parameter point "
            f"{U[np.argmax(lost)].tolist()}")
    b, k, m, _ = d2.shape
    second = (np.swapaxes(frame, 1, 2) @ d2.reshape(b, k, m * m)).reshape(b, -1, m, m)
    return point, induced_metric(d1), second, frame


def frames_at(imm: Immersion, U: np.ndarray):
    """Batched fundamental forms: metric (B,m,m), second form (B,n,m,m), frame (B,k,n)."""
    return _forms_at(imm, U)[1:]


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
