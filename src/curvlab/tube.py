"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * sum_s y_s(theta) nu_s(u)

where (nu_s) is a smooth orthonormal normal frame along the chart and y
is a unit-sphere chart of the normal fiber (codimension 1: two sheets
with y = +-1; codimension 2: one angle; codimension 3: polar/azimuth).
The frame is differentiated exactly: seed vectors are projected onto the
normal complement and orthonormalized in truncated-Taylor arithmetic, so
the tube's fundamental forms carry no finite-difference error.

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

from .curvature import NormalDirection, directional_curvature, sphere_volume, whiten_second_form
from .errors import CurvlabError, ReachExceededError, UnsupportedDimensionError
from .immersion import (
    Axis,
    Immersion,
    forms_from_jets,
    frame_data_at,
    induced_metric,
    jets_at,
    normal_projection,
)
from .integrate import QuadratureGrid, default_grid, reduce_over_grid
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
        if self.eps <= 0:
            raise ReachExceededError(f"tube radius {self.eps} must be positive")
        if self.base.reach is None:
            raise ReachExceededError(f"{self.base.name} declares no reach bound")
        if self.eps >= self.base.reach:
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


@dataclass
class TubeBoundary:
    """The tube boundary as one or two sheet immersions (two iff codimension 1)."""

    config: TubeConfig
    sheets: tuple[Immersion, ...]


# -- generic-scalar frame construction ------------------------------------


def _cholesky_generic(G, m):
    L = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            s = G[i][j]
            for t in range(j):
                s = s - L[i][t] * L[j][t]
            L[i][j] = sqrt(s) if i == j else s / L[j][j]
    return L


def _solve_spd_generic(L, c, m):
    y = [None] * m
    for i in range(m):
        s = c[i]
        for t in range(i):
            s = s - L[i][t] * y[t]
        y[i] = s / L[i][i]
    w = [None] * m
    for i in reversed(range(m)):
        s = y[i]
        for t in range(i + 1, m):
            s = s - L[t][i] * w[t]
        w[i] = s / L[i][i]
    return w


def _orthonormal_frame(tangents, seeds, k):
    """Project seeds onto the normal complement of the tangents, then orthonormalize.

    Every argument is a list of ambient vectors whose components are generic
    scalars (jets or arrays); the result differentiates wherever the inputs do.
    """
    m = len(tangents)
    G = [[dot(tangents[i], tangents[j]) for j in range(m)] for i in range(m)]
    L = _cholesky_generic(G, m)
    frame = []
    for v in seeds:
        c = [dot(tangents[i], v) for i in range(m)]
        w = _solve_spd_generic(L, c, m)
        perp = [v[a] - dot([tangents[i][a] for i in range(m)], w) for a in range(k)]
        for prev in frame:
            proj = dot(prev, perp)
            perp = [perp[a] - proj * prev[a] for a in range(k)]
        inv_norm = 1.0 / sqrt(dot(perp, perp))
        frame.append([perp[a] * inv_norm for a in range(k)])
    return frame


def _sphere_values(n, thetas):
    """Unit-sphere chart values y(theta) in generic scalars; len(thetas) = n - 1."""
    if n == 1:
        return None  # handled by a per-sheet constant sign
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
    _, d1 = jets_at(base, base.chart_center()[None, :], order=1)
    proj = normal_projection(d1, induced_metric(d1))[0]
    order = np.argsort(-np.linalg.norm(proj, axis=0), kind="stable")[: base.n]
    return [[1.0 if a == piv else 0.0 for a in range(base.k)] for piv in order]


def _base_frame_pieces(base: Immersion, seeds_const, U, order):
    """Jets of X, its tangents, and the smooth normal frame, at `order`."""
    p = U.shape[1]
    xs = Jet.variables(U, order + 1)
    b = U.shape[0]
    raw = base.chart(xs[: base.m])
    X = [
        c if isinstance(c, Jet) else Jet.constant(c, p, order + 1, b) for c in raw
    ]
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    if base.normal_seeds is not None:
        seeds = []
        for vec in base.normal_seeds(xs[: base.m]):
            seeds.append(
                [c.truncate(order) if isinstance(c, Jet) else float(c) for c in vec]
            )
    else:
        seeds = seeds_const
    frame = _orthonormal_frame(tangents, seeds, base.k)
    X_trunc = [X[a].truncate(order) for a in range(base.k)]
    return xs, X_trunc, frame


def _tube_jet_map(cfg: TubeConfig, seeds_const, sheet_sign: float):
    base, eps = cfg.base, cfg.eps

    def jet_map(U, order):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        xs, X, frame = _base_frame_pieces(base, seeds_const, U, order)
        if base.n == 1:
            y = [sheet_sign]
        else:
            thetas = [xs[base.m + j].truncate(order) for j in range(base.n - 1)]
            y = _sphere_values(base.n, thetas)
        out = []
        for a in range(base.k):
            shift = dot(y, [frame[s][a] for s in range(base.n)])
            out.append(X[a] + eps * shift)
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
    seeds_const = None if base.normal_seeds is not None else _default_pivots(base)
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
                jet_map_override=_tube_jet_map(cfg, seeds_const, sign),
                max_jet_order=2,
            )
        )
    return TubeBoundary(config=cfg, sheets=tuple(sheets))


def _frame_values(base: Immersion, seeds_const, U: np.ndarray) -> np.ndarray:
    """Pointwise smooth-frame values (B, k, n) without jet overhead."""
    _, d1 = jets_at(base, U, order=1)
    tangents = [[d1[:, a, i] for a in range(base.k)] for i in range(base.m)]
    if base.normal_seeds is not None:
        seeds = base.normal_seeds([U[:, i] for i in range(base.m)])
    else:
        seeds = seeds_const
    frame = _orthonormal_frame(tangents, seeds, base.k)
    b = U.shape[0]
    out = np.empty((b, base.k, base.n))
    for s in range(base.n):
        for a in range(base.k):
            out[:, a, s] = frame[s][a]
    return out


# -- pointwise operations --------------------------------------------------


def _locate(boundary: TubeBoundary, u: np.ndarray, nu_amb: np.ndarray):
    """Map a base point and ambient unit normal to (sheet index, sheet parameter)."""
    base = boundary.config.base
    seeds_const = None if base.normal_seeds is not None else _default_pivots(base)
    frame = _frame_values(base, seeds_const, u[None, :])[0]
    y = frame.T @ nu_amb
    if base.n == 1:
        return (0 if y[0] > 0 else 1), u.copy()
    return 0, np.concatenate([u, _sphere_coords(base.n, y)])


def normal_jacobian(cfg: TubeConfig, u, nu_hat: NormalDirection) -> float:
    """NJ = 1/det(1 - eps * Pi^nu) with Pi^nu in an orthonormal tangent basis."""
    fd = frame_data_at(cfg.base, u)
    pi_orth, _ = whiten_second_form(fd.metric, fd.second_form)
    pi_nu = np.einsum("s,sij->ij", nu_hat.coeffs, pi_orth)
    det = float(np.linalg.det(np.eye(cfg.base.m) - cfg.eps * pi_nu))
    if abs(det) < 1e-12:
        raise ReachExceededError(
            f"1 - eps*shape operator is singular at eps = {cfg.eps}; radius exceeds the reach"
        )
    return 1.0 / det


def tube_point(cfg: TubeConfig, u, nu_hat: NormalDirection,
               boundary: Optional[TubeBoundary] = None) -> TubePoint:
    """Evaluate the tube boundary at (u, nu_hat) and derive its scalars.

    nu_hat is read in the normal frame of `frame_data_at(base, u)`; the
    classical curvature comes from the sheet's own jets, oriented by the
    outward normal g = (point - base point)/eps.
    """
    base = cfg.base
    u = base.wrap(u)
    if boundary is None:
        boundary = tube_boundary_immersion(cfg)
    fd = frame_data_at(base, u)
    nu_amb = fd.normal_frame @ nu_hat.coeffs
    sheet_index, param = _locate(boundary, u, nu_amb)
    sheet = boundary.sheets[sheet_index]
    point = sheet.points(param[None, :])[0]
    base_point = base.points(u[None, :])[0]
    g = (point - base_point) / cfg.eps
    fd_tube = frame_data_at(sheet, param)
    coeff = math.copysign(1.0, float(fd_tube.normal_frame[:, 0] @ g))
    classical = directional_curvature(fd_tube, NormalDirection(np.array([coeff])))
    return TubePoint(
        u=u,
        nu_hat=nu_hat,
        point=point,
        gauss_normal=g,
        classical_k=classical,
        normal_jacobian=normal_jacobian(cfg, u, nu_hat),
        sheet_index=sheet_index,
        sheet_param=param,
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
    fd = frame_data_at(cfg.base, tp.u)
    k_nu = directional_curvature(fd, nu_hat)
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
    if boundary is None:
        boundary = tube_boundary_immersion(cfg)
    tp = tube_point(cfg, u, nu_hat, boundary=boundary)
    sheet = boundary.sheets[tp.sheet_index]
    fd_tube = frame_data_at(sheet, tp.sheet_param)
    coeff = math.copysign(1.0, float(fd_tube.normal_frame[:, 0] @ tp.gauss_normal))
    pi_orth_t, _ = whiten_second_form(fd_tube.metric, fd_tube.second_form)
    computed = np.sort(np.linalg.eigvalsh(coeff * pi_orth_t[0]))

    fd = frame_data_at(cfg.base, tp.u)
    pi_orth, _ = whiten_second_form(fd.metric, fd.second_form)
    lam = np.linalg.eigvalsh(np.einsum("s,sij->ij", nu_hat.coeffs, pi_orth))
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


def _sheet_total(cfg: TubeConfig, sheet: Immersion, grid: QuadratureGrid) -> float:
    base = cfg.base

    def integrand(U):
        # the sheet point orients the Gauss map, so the jets are taken here
        point, d1, d2 = jets_at(sheet, U, order=2)
        metric, second, frame = forms_from_jets(d1, d2)
        g = (point - base.points(U[:, : base.m])) / cfg.eps
        coeff = np.einsum("bk,bk->b", frame[:, :, 0], g)
        det_g = np.linalg.det(metric)
        K = np.sign(coeff) ** sheet.m * np.linalg.det(second[:, 0]) / det_g
        return K * np.sqrt(det_g)

    return reduce_over_grid(sheet, grid, integrand)


def tube_total_curvature(cfg: TubeConfig, resolution: Optional[int] = None) -> TubeTotalResult:
    """Integrate the tube's Gaussian curvature; expect (-1)^(k-1) vol(S^(k-1)) chi."""
    base = cfg.base
    if base.euler_char is None:
        raise CurvlabError(
            f"{base.name}: total tube curvature needs a known Euler characteristic"
        )
    boundary = tube_boundary_immersion(cfg)
    per_sheet = []
    for sheet in boundary.sheets:
        grid = default_grid(sheet, resolution)
        per_sheet.append(_sheet_total(cfg, sheet, grid))
    integral = math.fsum(per_sheet)
    expected = (-1.0) ** (base.k - 1) * sphere_volume(base.k - 1) * base.euler_char
    return TubeTotalResult(
        integral=integral,
        expected=expected,
        residual=abs(integral - expected),
        per_sheet=tuple(per_sheet),
    )
