"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * sum_s y_s(theta) nu_s(u)

where (nu_s) is a smooth orthonormal normal frame along the chart and y
is a unit-sphere chart of the normal fiber (codimension 1: two sheets
with y = +-1; codimension 2: one angle; codimension 3: polar/azimuth).
The frame is differentiated exactly, in truncated-Taylor arithmetic: in codimension 1
the unit cross product of the unit tangents, else one modified Gram-Schmidt pass over
the tangents, then the seed vectors.  Where a seed keeps less than 1e-3 of its length
off the tangents, or vanishes, the frame raises `DegenerateImmersionError` naming the
base point, rather than turning abruptly.

X and the frame depend on u alone, so they are jets in the m base variables, evaluated
once per distinct base point of a batch of sheet points and relabelled (`Jet.widen`,
which copies nothing) as jets in the sheet's p = m + n - 1 variables, theta last; only
y(theta) is seeded in the theta variables.

Checks provided: the curvature rescaling identity
K^g / NJ = (-1)^(n-1) eps^-(n-1) K^nu, the shape-operator spectrum
{lambda_i/(1 - eps lambda_i)} plus an eigenvalue -1/eps of multiplicity
n-1, and the total curvature (-1)^(k-1) * vol(S^(k-1)) * chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .curvature import (NormalDirection, _check_direction, _combine, _det, _directional_curvatures, _first,
                        _minors, sphere_volume, whiten_second_form)
from .errors import CurvlabError, DegenerateImmersionError, ReachExceededError, UnsupportedDimensionError
from .immersion import Axis, FrameData, Immersion, _forms, _forms_at, _stack, frame_data_at
from .integrate import default_grid, reduce_until_converged
from .jets import Jet, cos, dot, sin, sqrt

__all__ = [
    "TubeConfig",
    "TubePoint",
    "TubeBoundary",
    "tube_boundary_immersion",
    "tube_point",
    "normal_jacobian",
    "tube_identity_check",
    "tube_spectrum_check",
    "tube_total_curvature",
    "TubeIdentityResult",
    "TubeSpectrumResult",
    "TubeTotalResult",
]

@dataclass(frozen=True)
class TubeConfig:
    """A base immersion with a tube radius below its declared reach bound, and normal seeds only if n > 1."""

    base: Immersion
    eps: float

    def __post_init__(self):
        if self.base.n not in (1, 2, 3):
            raise UnsupportedDimensionError(
                f"tube construction supports codimension 1-3, got {self.base.n}"
            )
        if self.base.n == 1 and self.base.normal_seeds is not None:
            raise ValueError(f"{self.base.name}: normal_seeds are for codimension 2 and 3, not 1")
        if not self.eps > 0:
            raise ReachExceededError(f"tube radius {self.eps} must be positive")
        if self.base.reach is None:
            raise ReachExceededError(f"{self.base.name} declares no reach bound")
        if not self.eps < self.base.reach:
            raise ReachExceededError(
                f"tube radius {self.eps} is not below the reach bound {self.base.reach} "
                f"of {self.base.name}"
            )


@dataclass
class TubePoint:
    """One boundary point p + eps*nu with its derived scalars.  Batched, every array (those of
    both `FrameData` too) leads with a batch axis, and nu_hat is a tuple of one direction per point."""

    u: np.ndarray
    nu_hat: NormalDirection
    point: np.ndarray
    gauss_normal: np.ndarray
    classical_k: float
    normal_jacobian: float
    sheet_index: int
    sheet_param: np.ndarray
    base_frame: FrameData  # base forms at u; nu_hat is read in its normal frame
    sheet_frame: FrameData  # sheet forms at sheet_param, normal 0 turned to gauss_normal
    shape_operator: np.ndarray  # Pi^nu at u in an orthonormal tangent basis, (m, m)


@dataclass
class TubeBoundary:
    """The tube boundary as one or two sheet immersions (two iff codimension 1)."""

    config: TubeConfig
    sheets: tuple[Immersion, ...]
    # The frame's seed function, m base-variable jets -> n ambient vectors: base.normal_seeds,
    # or else constant pivots; None in codimension 1, where the frame comes from the tangents.
    seeds: Optional[Callable]


# -- generic-scalar frame construction ------------------------------------


_SEED_RANK_TOL = 1e-3


def _orthonormal_frame(tangents, seeds, k):
    """Modified Gram-Schmidt over tangents + seeds, in order; returns the seed part.

    Every argument is a list of ambient vectors whose components are generic
    scalars (jets or arrays); the result differentiates wherever the inputs do.
    Also returns, per point, the smallest ratio |normal part| / |seed|, NaN where a seed vanishes.
    """
    basis, kept = [], []
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero seed gives NaN, refused by the caller
        for v in [*tangents, *seeds]:
            length = np.sqrt(sum(np.square(c.val if isinstance(c, Jet) else c) for c in v))
            for e in basis:
                proj = dot(e, v)
                v = [v[a] - proj * e[a] for a in range(k)]
            norm = sqrt(dot(v, v))
            kept.append(norm.val / length)
            inv_norm = 1.0 / norm
            basis.append([v[a] * inv_norm for a in range(k)])
    m = len(tangents)
    return basis[m:], np.min(kept[m:], axis=0)


def _unit(v):  # v / |v| for an ambient vector of generic scalars
    inv_norm = 1.0 / sqrt(dot(v, v))
    return [c * inv_norm for c in v]


def _sphere_values(n, thetas):
    """Unit-sphere chart values y(theta) in generic scalars; len(thetas) = n - 1 >= 1."""
    if n == 2:
        return [cos(thetas[0]), sin(thetas[0])]
    ps, th = thetas
    return [cos(ps), sin(ps) * cos(th), sin(ps) * sin(th)]


def _sphere_coords(n, y):
    """Inverse of `_sphere_values` for unit vectors y (B, n): their angles, (B, n - 1)."""
    th = np.arctan2(y[:, -1], y[:, -2]) % (2.0 * np.pi)
    if n == 2:
        return th[:, None]
    return np.stack([np.arccos(np.clip(y[:, 0], -1.0, 1.0)), th], axis=1)


def _pivot_seeds(base: Immersion) -> Callable:
    """A seed function returning constant ambient basis directions, those most normal at
    the chart center, whatever the base point; for a base of codimension 2 or 3 without seeds."""
    frame = frame_data_at(base, base.chart_center()).normal_frame
    order = np.argsort(-np.linalg.norm(frame, axis=1), kind="stable")[: base.n]
    pivots = [[1.0 if a == piv else 0.0 for a in range(base.k)] for piv in order]
    return lambda xs: pivots


def _base_frame_pieces(base: Immersion, seeds: Optional[Callable], U, X):
    """Jets of X and of the smooth normal frame at `order`, all in the m base variables.

    `U` holds base parameters, shape (B, m), and `X` is `base.jet_map(U, order + 1)`,
    evaluated by the caller, so its tangents are m-variable jets at `order`.  In codimension 1
    the frame is their unit cross product: component a is (-1)^a times the minor without
    coordinate a of the unit tangents.  Else `seeds` runs on the base variables at `order` and
    must return n vectors of k components; a seed losing rank raises, naming the base point.
    """
    order = X[0].order - 1
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    X = [x.truncate(order) for x in X]
    if base.n == 1:
        minors = _minors([_unit(t) for t in tangents])
        return X, [_unit([(-1.0) ** a * minors[(*range(a), *range(a + 1, base.k))] for a in range(base.k)])]
    vecs = seeds(Jet.variables(U, order))
    if len(vecs) != base.n or any(len(v) != base.k for v in vecs):
        raise ValueError(f"{base.name}: normal seeds returned vectors of lengths {[len(v) for v in vecs]}, "
                         f"expected n = {base.n} vectors of k = {base.k}")
    frame, kept = _orthonormal_frame(tangents, vecs, base.k)
    bad = ~(kept >= _SEED_RANK_TOL)  # NaN counts as lost rank
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateImmersionError(
            f"{base.name}: normal seeds lose rank at parameter point {U[i].tolist()}: "
            f"a seed keeps {kept[i]:.1e} of its length off the tangents")
    return X, frame


def _sheet_chart(cfg: TubeConfig, X, frame, U, sheet_sign):
    """The sheet chart X + eps * sum_s y_s nu_s as jets in the p variables of sheet points U (B, p),
    from `_base_frame_pieces` at their base parameters; y is `sheet_sign` (one, or one per point) at n = 1."""
    base, p = cfg.base, U.shape[1]
    y = [sheet_sign] if base.n == 1 else _sphere_values(base.n, Jet.variables(U, X[0].order)[base.m:])
    return [X[a].widen(p) + cfg.eps * dot(y, [frame[s][a].widen(p) for s in range(base.n)])
            for a in range(base.k)]


def _distinct_rows(V: np.ndarray):
    """The distinct rows of V (B, m), told apart by their bits (-0.0 is not +0.0), in order of first
    occurrence, and the index of each row of V among them; V itself and None if no row repeats."""
    keys = np.ascontiguousarray(V).view(np.dtype((np.void, V.itemsize * V.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(V):
        return V, None
    order = np.argsort(first)
    return V[first[order]], np.argsort(order)[inverse]


def _sheet_jet_map(cfg: TubeConfig, seeds: Optional[Callable], sheet_sign: float, U, order):
    """The sheet chart's jets at sheet points U (B, p).  X and the frame depend on the base point
    alone, so they are evaluated once per distinct base point (row of U[:, :m]) and gathered onto
    the sheet points; in order of first occurrence, so a refusal names the first bad row of U."""
    V, at = _distinct_rows(U[:, : cfg.base.m])
    X, frame = _base_frame_pieces(cfg.base, seeds, V, cfg.base.jet_map(V, order + 1))
    if at is not None:
        X, frame = [x.take(at) for x in X], [[c.take(at) for c in v] for v in frame]
    return _sheet_chart(cfg, X, frame, U, sheet_sign)


def _sheet_domain(base: Immersion) -> tuple[Axis, ...]:
    extra: tuple[Axis, ...] = ()
    if base.n == 2:
        extra = (Axis(0.0, 2.0 * np.pi, periodic=True),)
    elif base.n == 3:
        extra = (Axis(0.0, np.pi, periodic=False), Axis(0.0, 2.0 * np.pi, periodic=True))
    return base.domain + extra


def tube_boundary_immersion(cfg: TubeConfig) -> TubeBoundary:
    """Chart the boundary of the eps-neighborhood of the base immersion.

    Codimension 1 yields two sheets (normal sign +-1); codimension 2 and 3
    yield one sheet with the normal-sphere angles appended to the base
    parameters.  Sheet jets go through the exact frame construction above.
    """
    base = cfg.base
    seeds = None if base.n == 1 else base.normal_seeds or _pivot_seeds(base)
    domain = _sheet_domain(base)
    signs, suffixes = ((1.0, -1.0), ("_tube_plus", "_tube_minus")) if base.n == 1 else ((1.0,), ("_tube",))
    sheets = tuple(Immersion(name=base.name + suffix, k=base.k, domain=domain,
                             jet_map_override=partial(_sheet_jet_map, cfg, seeds, sign))
                   for sign, suffix in zip(signs, suffixes))
    return TubeBoundary(config=cfg, sheets=sheets, seeds=seeds)


def _oriented(cfg: TubeConfig, point, metric, second, frame, x: np.ndarray):
    """Sheet forms from `_forms` over base points x (k, B), batch axis last: point, outward
    normal g = (point - x)/eps, metric, and the second form and frame with normal 0 turned to g."""
    g = (point - x) / cfg.eps
    sign = np.sign((frame[:, 0] * g).sum(axis=0))
    second[0] *= sign
    frame[:, 0] *= sign
    return point, g, metric, second, frame


# -- pointwise operations, over a batch --------------------------------------


def _shape_and_jacobian(cfg: TubeConfig, metric, second, C, U):
    """Pi^nu in an orthonormal tangent basis, (m, m, B), and NJ = 1/det(1 - eps * Pi^nu), (B,), from the
    base forms metric (B, m, m) and second (B, n, m, m) and the direction coefficients C (n, B) at the
    base points U (B, m); names the first point where 1 - eps * Pi^nu is singular."""
    pi_nu = _combine(C, np.moveaxis(whiten_second_form(metric, second), 0, -1))
    det = _det(np.eye(cfg.base.m)[..., None] - cfg.eps * pi_nu)
    singular = np.abs(det) < 1e-12
    if singular.any():
        raise ReachExceededError(
            f"{cfg.base.name}: 1 - eps*shape operator is singular at parameter point "
            f"{U[np.argmax(singular)].tolist()} (eps = {cfg.eps}); radius exceeds the reach")
    return pi_nu, 1.0 / det


def normal_jacobian(cfg: TubeConfig, u, nu_hat: NormalDirection) -> float:
    """NJ = 1/det(1 - eps * Pi^nu) with Pi^nu in an orthonormal tangent basis."""
    _check_direction(nu_hat, cfg.base.n)
    fd = frame_data_at(cfg.base, u)
    return _shape_and_jacobian(cfg, fd.metric[None], fd.second_form[None], nu_hat.coeffs[:, None],
                               cfg.base.wrap(u)[None])[1].item()


def _tube_points(cfg: TubeConfig, U, directions, boundary: Optional[TubeBoundary]) -> TubePoint:
    """`tube_point` at base parameters U (B, m), one `NormalDirection` per point, as one batched
    `TubePoint`.  Every contraction over the batch is an elementwise sum in a fixed order, so a
    point's values do not depend on its batch.  An error names the first failing point."""
    base = cfg.base
    if boundary is None:
        boundary = tube_boundary_immersion(cfg)
    elif boundary.config != cfg:
        raise ValueError(
            f"boundary was built for another config: {boundary.config.base.name} at "
            f"eps = {boundary.config.eps}, not {base.name} at eps = {cfg.eps}")
    for nu in directions:
        _check_direction(nu, base.n)
    U = np.array([base.wrap(u) for u in U])
    C = np.array([nu.coeffs for nu in directions]).T
    X = base.jet_map(U, 3)
    base_frame = FrameData(*(np.moveaxis(f, -1, 0) for f in _forms(base.name, U, *_stack(X, 2))[1:]))
    pi_nu, nj = _shape_and_jacobian(cfg, base_frame.metric, base_frame.second_form, C, U)
    X, nus = _base_frame_pieces(base, boundary.seeds, U, X)
    amb = _combine(C, base_frame.normal_frame.T)  # nu_hat in the ambient space, (k, B)
    y = _combine(amb, np.array([[c.val for c in v] for v in nus]).swapaxes(0, 1))  # in the fiber frame
    if base.n == 1:
        index, P = np.where(y[0] > 0, 0, 1), U.copy()
    else:
        index, P = np.zeros(len(U), dtype=int), np.concatenate([U, _sphere_coords(base.n, y.T)], axis=1)
    names = np.array([sheet.name for sheet in boundary.sheets])[index]
    point, g, metric, second, frame = _oriented(
        cfg, *_forms(names, P, *_stack(_sheet_chart(cfg, X, nus, P, 1.0 - 2.0 * index), 2)),
        np.stack([x.val for x in X]))
    return TubePoint(u=U, nu_hat=tuple(directions), point=point.T, gauss_normal=g.T,
                     classical_k=_det(second[0]) / _det(metric), normal_jacobian=nj, sheet_index=index,
                     sheet_param=P, base_frame=base_frame, shape_operator=np.moveaxis(pi_nu, -1, 0),
                     sheet_frame=FrameData(*(np.moveaxis(f, -1, 0) for f in (metric, second, frame))))


def tube_point(cfg: TubeConfig, u, nu_hat: NormalDirection,
               boundary: Optional[TubeBoundary] = None) -> TubePoint:
    """Evaluate the tube boundary at (u, nu_hat) and derive its scalars: `_tube_points` on a batch of one.

    One evaluation of the base chart, its 3-jet at u, serves three ends: its 2-jet gives
    the base forms, in whose normal frame nu_hat is read; it builds the smooth normal frame
    that locates the fiber point; and the two give the sheet chart's 2-jet there, as the
    sheet's `jet_map` would.  The classical curvature comes from those jets, oriented by the
    outward normal g = (point - base point)/eps.  The base and sheet forms are kept on the
    result for the checks below.  A `boundary` built for another config is refused.
    """
    return _first(_tube_points(cfg, [u], [nu_hat], boundary))


@dataclass
class TubeIdentityResult:
    """Both sides of K^g/NJ = (-1)^(n-1) eps^-(n-1) K^nu at one tube point; over a batch, (B,) arrays."""

    lhs: float
    rhs: float
    residual: float
    relative: float


def _identities(cfg: TubeConfig, tp: TubePoint) -> TubeIdentityResult:
    """`tube_identity_check` at every point of a batched `TubePoint`."""
    n, fd = cfg.base.n, tp.base_frame
    C = np.array([nu.coeffs for nu in tp.nu_hat]).T
    k_nu = _directional_curvatures(fd.metric, fd.second_form, C)
    lhs = tp.classical_k / tp.normal_jacobian
    rhs = (-1.0) ** (n - 1) * cfg.eps ** (-(n - 1)) * k_nu
    residual = np.abs(lhs - rhs)
    relative = residual / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    return TubeIdentityResult(lhs, rhs, residual, relative)


def tube_identity_check(cfg: TubeConfig, u, nu_hat: NormalDirection,
                        boundary: Optional[TubeBoundary] = None) -> TubeIdentityResult:
    """Compare the tube-jet curvature route against the rescaled base curvature."""
    return _first(_identities(cfg, _tube_points(cfg, [u], [nu_hat], boundary)))


@dataclass
class TubeSpectrumResult:
    """Shape-operator spectrum of the tube against its predicted multiset; over a batch, computed and
    predicted are (B, m + n - 1) and residual is (B,)."""

    computed: np.ndarray
    predicted: np.ndarray
    residual: float


def _spectra(cfg: TubeConfig, tp: TubePoint) -> TubeSpectrumResult:
    """`tube_spectrum_check` at every point of a batched `TubePoint`."""
    computed = np.sort(np.linalg.eigvalsh(
        whiten_second_form(tp.sheet_frame.metric, tp.sheet_frame.second_form)[:, 0]))
    lam = np.linalg.eigvalsh(tp.shape_operator)
    fiber = np.full((len(lam), cfg.base.n - 1), -1.0 / cfg.eps)
    predicted = np.sort(np.concatenate([lam / (1.0 - cfg.eps * lam), fiber], axis=1))
    return TubeSpectrumResult(computed=computed, predicted=predicted,
                              residual=np.max(np.abs(computed - predicted), axis=1))


def tube_spectrum_check(cfg: TubeConfig, u, nu_hat: NormalDirection,
                        boundary: Optional[TubeBoundary] = None) -> TubeSpectrumResult:
    """Predicted spectrum: {lambda_i/(1 - eps lambda_i)} plus -1/eps (n-1 times)."""
    return _first(_spectra(cfg, _tube_points(cfg, [u], [nu_hat], boundary)))


@dataclass
class TubeTotalResult:
    """Total curvature of the tube boundary against its topological value."""

    integral: float
    expected: float
    residual: float
    per_sheet: tuple[float, ...]
    grid_shapes: tuple[tuple[int, ...], ...]  # per sheet, the grid each integral was taken on
    error_estimate: Optional[float]  # summed over sheets; None on a resolution the caller fixed
    converged: Optional[bool]  # every sheet converged


def _sheet_integrand(cfg: TubeConfig, sheet: Immersion):
    """Gaussian curvature times area density of one sheet, (B, m) -> (B,)."""
    def integrand(U):
        _, _, metric, second, _ = _oriented(cfg, *_forms_at(sheet, U), cfg.base.points(U[:, : cfg.base.m]).T)
        det_g = _det(metric)
        return _det(second[0]) / det_g * np.sqrt(det_g)

    return integrand


def tube_total_curvature(cfg: TubeConfig, resolution: Optional[int] = None) -> TubeTotalResult:
    """Integrate the tube's Gaussian curvature; expect (-1)^(k-1) vol(S^(k-1)) chi.

    Without a `resolution` each sheet's default grid is refined until
    converged, with vol(S^(k-1)) as the quantum.
    """
    base = cfg.base
    if base.euler_char is None:
        raise CurvlabError(
            f"{base.name}: total tube curvature needs a known Euler characteristic"
        )
    boundary = tube_boundary_immersion(cfg)
    quantum = sphere_volume(base.k - 1)
    per_sheet, grid_shapes, errors, flags = zip(*(
        reduce_until_converged(
            sheet, _sheet_integrand(cfg, sheet), quantum,
            None if resolution is None else default_grid(sheet, resolution),
        )
        for sheet in boundary.sheets
    ))
    integral = math.fsum(per_sheet)
    expected = (-1.0) ** (base.k - 1) * quantum * base.euler_char
    error_estimate = converged = None
    if resolution is None:
        error_estimate = math.fsum(errors)
        converged = all(flags)
    return TubeTotalResult(
        integral=integral,
        expected=expected,
        residual=abs(integral - expected),
        per_sheet=per_sheet,
        grid_shapes=grid_shapes,
        error_estimate=error_estimate,
        converged=converged,
    )
