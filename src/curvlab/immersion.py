"""Parametrized closed submanifolds of R^k and their exact 2-jets.

An `Immersion` couples a chart domain with an evaluator written in jet
arithmetic, so point values and first/second derivatives come out exact to
roundoff (finite differences appear only in consistency tests).  From the
2-jet we derive the induced metric, a deterministic orthonormal normal
frame, and the vector-valued second fundamental form.

Sign convention: `second_form[s, i, j]` is the inner product of the ambient
second derivative of the chart with normal frame vector s, i.e. the normal
component of D_i d_j.  On the unit sphere with the outward radial normal
this gives minus the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    "normal_projection",
    "forms_from_jets",
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
    params: dict = field(default_factory=dict)
    jet_map_override: Optional[Callable] = None
    max_jet_order: int = 3

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
        if order > self.max_jet_order:
            raise ValueError(f"{self.name}: jets of order {order} not available (max {self.max_jet_order})")
        if self.jet_map_override is not None:
            return self.jet_map_override(U, order)
        xs = Jet.variables(U, order)
        out = self.chart(xs)
        b = U.shape[0]
        return [o if isinstance(o, Jet) else Jet.constant(o, self.m, order, b) for o in out]

    def points(self, U: np.ndarray) -> np.ndarray:
        """Ambient positions only, shape (batch, k)."""
        return np.stack([j.val for j in self.jet_map(U, 1)], axis=1)

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
    """Batched chart derivatives: arrays (B,k), (B,k,m), and for order 2 (B,k,m,m)."""
    js = imm.jet_map(U, order)
    point = np.stack([j.val for j in js], axis=1)
    d1 = np.stack([j.d1 for j in js], axis=1)
    if order < 2:
        return point, d1
    d2 = np.stack([j.d2 for j in js], axis=1)
    return point, d1, d2


def induced_metric(d1: np.ndarray) -> np.ndarray:
    """First fundamental forms (B, m, m) of a batch of 1-jets (B, k, m)."""
    return np.einsum("bki,bkj->bij", d1, d1)


def normal_projection(d1: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Normal parts of the k ambient basis vectors, as columns of (B, k, k); checks rank."""
    try:
        np.linalg.cholesky(metric)
        sol = np.linalg.solve(metric, np.transpose(d1, (0, 2, 1)))  # (B, m, k)
    except np.linalg.LinAlgError:
        raise DegenerateImmersionError("first-derivative matrix is rank deficient at a sampled point")
    return np.eye(d1.shape[1])[None, :, :] - np.einsum("bkm,bmj->bkj", d1, sol)


def _normal_frames(d1: np.ndarray, metric: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal normal frames for a batch of 1-jets.

    Greedy column-pivoted Gram-Schmidt on the normal projections of the k
    ambient basis vectors: repeatedly take the candidate with the largest
    remaining residual (ties toward lower index), normalize, deflate.  Fails
    only when the normal projector loses rank.
    """
    b, k, m = d1.shape
    n = k - m
    cand = normal_projection(d1, metric)
    frame = np.empty((b, k, n))
    for s in range(n):
        norms = np.linalg.norm(cand, axis=1)  # (B, k)
        pick = np.argmax(norms, axis=1)
        v = np.take_along_axis(cand, pick[:, None, None], axis=2)[:, :, 0]
        nrm = np.linalg.norm(v, axis=1)
        if np.any(nrm < _RANK_TOL):
            raise DegenerateImmersionError("normal frame construction degenerated (near rank-deficient jet)")
        v = v / nrm[:, None]
        frame[:, :, s] = v
        cand -= v[:, :, None] * np.sum(v[:, :, None] * cand, axis=1, keepdims=True)
    return frame


def forms_from_jets(d1: np.ndarray, d2: np.ndarray):
    """Metric (B,m,m), second form (B,n,m,m) and normal frame (B,k,n) from batched jets."""
    metric = induced_metric(d1)
    frame = _normal_frames(d1, metric)
    second = np.einsum("bks,bkij->bsij", frame, d2)
    return metric, second, frame


def frames_at(imm: Immersion, U: np.ndarray):
    """Batched fundamental forms: metric (B,m,m), second form (B,n,m,m), frame (B,k,n)."""
    _, d1, d2 = jets_at(imm, U, order=2)
    return forms_from_jets(d1, d2)


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
