"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * sum_s y_s(theta) nu_s(u)

where (nu_s) is a smooth orthonormal normal frame along the chart and y
is a unit-sphere chart of the normal fiber (codimension 1: two sheets
with y = +-1; codimension 2: one angle; codimension 3: polar/azimuth).
The frame is differentiated exactly: one modified Gram-Schmidt pass over the
tangents, then the seed vectors, runs in truncated-Taylor arithmetic, so the
tube's fundamental forms carry no finite-difference error.  Where a seed keeps
less than 1e-3 of its length off the tangents, the frame raises
`DegenerateImmersionError` naming the base point, rather than turning abruptly.

X and the frame depend on u alone, so they are jets in the m base variables,
widened once into the sheet's p = m + n - 1 variables (theta last, with zero
derivative blocks); only y(theta) is seeded in all p.

Checks provided: the curvature rescaling identity
K^g / NJ = (-1)^(n-1) eps^-(n-1) K^nu, the shape-operator spectrum
{lambda_i/(1 - eps lambda_i)} plus an eigenvalue -1/eps of multiplicity
n-1, and the total curvature (-1)^(k-1) * vol(S^(k-1)) * chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (NormalDirection, _check_direction, directional_curvature, sphere_volume,
                        whiten_second_form)
from .errors import CurvlabError, DegenerateImmersionError, ReachExceededError, UnsupportedDimensionError
from .immersion import (
    Axis,
    FrameData,
    Immersion,
    _forms_at,
    frame_data_at,
)
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
    """A base immersion with a tube radius below its declared reach bound."""

    base: Immersion
    eps: float

    def __post_init__(self):
        if self.base.n not in (1, 2, 3):
            raise UnsupportedDimensionError(
                f"tube construction supports codimension 1-3, got {self.base.n}"
            )
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
    """One boundary point p + eps*nu with its derived scalars."""

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
    pivots: Optional[list] = None  # constant seeds, for a base without normal_seeds


# -- generic-scalar frame construction ------------------------------------


_SEED_RANK_TOL = 1e-3


def _orthonormal_frame(tangents, seeds, k):
    """Modified Gram-Schmidt over tangents + seeds, in order; returns the seed part.

    Every argument is a list of ambient vectors whose components are generic
    scalars (jets or arrays); the result differentiates wherever the inputs do.
    Also returns, per point, the smallest ratio |normal part| / |seed|.
    """
    basis, kept = [], []
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


def _sphere_values(n, thetas):
    """Unit-sphere chart values y(theta) in generic scalars; len(thetas) = n - 1 >= 1."""
    if n == 2:
        return [cos(thetas[0]), sin(thetas[0])]
    ps, th = thetas
    return [cos(ps), sin(ps) * cos(th), sin(ps) * sin(th)]


def _sphere_coords(n, y):
    """Inverse of `_sphere_values` for a concrete unit vector y."""
    if n == 2:
        return np.array([math.atan2(y[1], y[0]) % (2.0 * math.pi)])
    ps = math.acos(min(1.0, max(-1.0, y[0])))
    th = math.atan2(y[2], y[1]) % (2.0 * math.pi)
    return np.array([ps, th])


def _default_pivots(base: Immersion) -> list[list[float]]:
    """Constant seed vectors: ambient basis directions most normal at chart center."""
    frame = frame_data_at(base, base.chart_center()).normal_frame
    order = np.argsort(-np.linalg.norm(frame, axis=1), kind="stable")[: base.n]
    return [[1.0 if a == piv else 0.0 for a in range(base.k)] for piv in order]


def _base_frame_pieces(base: Immersion, pivots, U, order):
    """Jets of X and of the smooth normal frame at `order`, all in the m base variables.

    `U` holds base parameters, shape (B, m).  The chart runs at order + 1,
    so its tangents are m-variable jets at `order`; the seeds run on the
    base variables truncated to `order`.  Raises where a seed loses rank
    against the tangents, naming the base parameter point.
    """
    b = U.shape[0]
    xs = Jet.variables(U, order + 1)
    X = [c if isinstance(c, Jet) else Jet.constant(c, base.m, order + 1, b)
         for c in base.chart(xs)]
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    seeds = pivots
    if base.normal_seeds is not None:
        seeds = base.normal_seeds([x.truncate(order) for x in xs])
    frame, kept = _orthonormal_frame(tangents, seeds, base.k)
    bad = kept < _SEED_RANK_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise DegenerateImmersionError(
            f"{base.name}: normal seeds lose rank at parameter point {U[i].tolist()}: "
            f"a seed keeps {kept[i]:.1e} of its length off the tangents")
    return [x.truncate(order) for x in X], frame


def _tube_jet_map(cfg: TubeConfig, pivots, sheet_sign: float):
    base, eps = cfg.base, cfg.eps

    def jet_map(U, order):
        p = U.shape[1]
        X, frame = _base_frame_pieces(base, pivots, U[:, : base.m], order)
        if base.n == 1:
            y = [sheet_sign]
        else:
            y = _sphere_values(base.n, Jet.variables(U, order)[base.m:])
        out = []
        for a in range(base.k):
            shift = dot(y, [frame[s][a].widen(p) for s in range(base.n)])
            out.append(X[a].widen(p) + eps * shift)
        return out

    return jet_map


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
    pivots = None if base.normal_seeds is not None else _default_pivots(base)
    domain = _sheet_domain(base)
    signs = (1.0, -1.0) if base.n == 1 else (1.0,)
    suffixes = ("_tube_plus", "_tube_minus") if base.n == 1 else ("_tube",)
    sheets = []
    for sign, suffix in zip(signs, suffixes):
        sheets.append(
            Immersion(
                name=base.name + suffix,
                m=len(domain),
                k=base.k,
                domain=domain,
                jet_map_override=_tube_jet_map(cfg, pivots, sign),
            )
        )
    return TubeBoundary(config=cfg, sheets=tuple(sheets), pivots=pivots)


def _oriented_sheet_forms(cfg: TubeConfig, sheet: Immersion, U: np.ndarray):
    """Sheet point, outward normal g = (point - base point)/eps, metric, and the
    second form and frame with normal 0 turned to g, for a batch of sheet parameters."""
    base = cfg.base
    point, metric, second, frame = _forms_at(sheet, U)
    g = (point - base.points(U[:, : base.m])) / cfg.eps
    sign = np.sign(np.einsum("bk,bk->b", frame[:, :, 0], g))
    second[:, 0] *= sign[:, None, None]
    frame[:, :, 0] *= sign[:, None]
    return point, g, metric, second, frame


# -- pointwise operations --------------------------------------------------


def _locate(boundary: TubeBoundary, u: np.ndarray, nu_amb: np.ndarray):
    """Map a base point and ambient unit normal to (sheet index, sheet parameter)."""
    base = boundary.config.base
    _, frame = _base_frame_pieces(base, boundary.pivots, u[None, :], 0)
    y = np.array([[c.val[0] for c in vec] for vec in frame]) @ nu_amb
    if base.n == 1:
        return (0 if y[0] > 0 else 1), u.copy()
    return 0, np.concatenate([u, _sphere_coords(base.n, y)])


def _shape_and_jacobian(cfg: TubeConfig, fd: FrameData, nu_hat: NormalDirection):
    """Pi^nu in an orthonormal tangent basis, and NJ = 1/det(1 - eps * Pi^nu)."""
    _check_direction(nu_hat, fd.n)
    pi_orth = whiten_second_form(fd.metric, fd.second_form)
    pi_nu = np.einsum("s,sij->ij", nu_hat.coeffs, pi_orth)
    det = float(np.linalg.det(np.eye(cfg.base.m) - cfg.eps * pi_nu))
    if abs(det) < 1e-12:
        raise ReachExceededError(
            f"1 - eps*shape operator is singular at eps = {cfg.eps}; radius exceeds the reach"
        )
    return pi_nu, 1.0 / det


def normal_jacobian(cfg: TubeConfig, u, nu_hat: NormalDirection) -> float:
    """NJ = 1/det(1 - eps * Pi^nu) with Pi^nu in an orthonormal tangent basis."""
    return _shape_and_jacobian(cfg, frame_data_at(cfg.base, u), nu_hat)[1]


def tube_point(cfg: TubeConfig, u, nu_hat: NormalDirection,
               boundary: Optional[TubeBoundary] = None) -> TubePoint:
    """Evaluate the tube boundary at (u, nu_hat) and derive its scalars.

    nu_hat is read in the normal frame of `frame_data_at(base, u)`; the
    classical curvature comes from the sheet's own jets, oriented by the
    outward normal g = (point - base point)/eps.  The base and sheet forms
    built here are kept on the result for the checks below.
    """
    base = cfg.base
    u = base.wrap(u)
    if boundary is None:
        boundary = tube_boundary_immersion(cfg)
    fd = frame_data_at(base, u)
    pi_nu, nj = _shape_and_jacobian(cfg, fd, nu_hat)
    sheet_index, param = _locate(boundary, u, fd.normal_frame @ nu_hat.coeffs)
    point, g, metric, second, frame = _oriented_sheet_forms(
        cfg, boundary.sheets[sheet_index], param[None, :]
    )
    sheet_fd = FrameData(metric=metric[0], second_form=second[0], normal_frame=frame[0])
    return TubePoint(
        u=u,
        nu_hat=nu_hat,
        point=point[0],
        gauss_normal=g[0],
        classical_k=directional_curvature(sheet_fd, NormalDirection(np.ones(1))),
        normal_jacobian=nj,
        sheet_index=sheet_index,
        sheet_param=param,
        base_frame=fd,
        sheet_frame=sheet_fd,
        shape_operator=pi_nu,
    )


@dataclass
class TubeIdentityResult:
    """Both sides of K^g/NJ = (-1)^(n-1) eps^-(n-1) K^nu at one tube point."""

    lhs: float
    rhs: float
    residual: float
    relative: float


def tube_identity_check(cfg: TubeConfig, u, nu_hat: NormalDirection,
                        boundary: Optional[TubeBoundary] = None) -> TubeIdentityResult:
    """Compare the tube-jet curvature route against the rescaled base curvature."""
    tp = tube_point(cfg, u, nu_hat, boundary=boundary)
    k_nu = directional_curvature(tp.base_frame, nu_hat)
    n = cfg.base.n
    lhs = tp.classical_k / tp.normal_jacobian
    rhs = (-1.0) ** (n - 1) * cfg.eps ** (-(n - 1)) * k_nu
    residual = abs(lhs - rhs)
    return TubeIdentityResult(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        relative=residual / max(1.0, abs(lhs), abs(rhs)),
    )


@dataclass
class TubeSpectrumResult:
    """Shape-operator spectrum of the tube against its predicted multiset."""

    computed: np.ndarray
    predicted: np.ndarray
    residual: float


def tube_spectrum_check(cfg: TubeConfig, u, nu_hat: NormalDirection,
                        boundary: Optional[TubeBoundary] = None) -> TubeSpectrumResult:
    """Predicted spectrum: {lambda_i/(1 - eps lambda_i)} plus -1/eps (n-1 times)."""
    tp = tube_point(cfg, u, nu_hat, boundary=boundary)
    pi_orth_t = whiten_second_form(tp.sheet_frame.metric, tp.sheet_frame.second_form)
    computed = np.sort(np.linalg.eigvalsh(pi_orth_t[0]))
    lam = np.linalg.eigvalsh(tp.shape_operator)
    predicted = np.sort(
        np.concatenate([lam / (1.0 - cfg.eps * lam), np.full(cfg.base.n - 1, -1.0 / cfg.eps)])
    )
    residual = float(np.max(np.abs(computed - predicted)))
    return TubeSpectrumResult(computed=computed, predicted=predicted, residual=residual)


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
        _, _, metric, second, _ = _oriented_sheet_forms(cfg, sheet, U)
        det_g = np.linalg.det(metric)
        return np.linalg.det(second[:, 0]) / det_g * np.sqrt(det_g)

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
