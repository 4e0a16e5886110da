"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * sum_s y_s(theta) nu_s(u)

where (nu_s) is an orthonormal normal frame, smooth near each base point, and y
is a unit-sphere chart of the normal fiber (codimension 1: two sheets
with y = +-1; codimension 2: one angle; codimension 3: polar/azimuth).
The frame is built from the tangents alone and differentiated exactly, in
truncated-Taylor arithmetic: in codimension 1 the unit cross product of the unit
tangents, whose sign tells the sheets apart; else the normal block of a Householder QR
of the tangents, by the `immersion._householder_frame` that also builds the base forms'
frame.  Two base points may get frames that differ by an orthogonal map, but
each fiber is still the whole normal sphere, so no fiber integral depends on the choice.
Where the tangents lose rank the frame raises `DegenerateImmersionError` naming the
base point.

X and the frame depend on u alone, so they are jets in the m base variables, evaluated
once per distinct base point of a batch of sheet points.  The sheet's p = m + n - 1
variables put theta last, so those jets add as they are to the jets of y(theta), which
are seeded in the theta variables alone.

Checks provided: at a point (u, nu) or a batch of them, evaluated once by `tube_point`, the
curvature rescaling identity K^g / NJ = (-1)^(n-1) eps^-(n-1) K^nu and the shape-operator
spectrum {lambda_i/(1 - eps lambda_i)} plus an eigenvalue -1/eps of multiplicity n-1; and
the total curvature (-1)^(k-1) * vol(S^(k-1)) * chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .curvature import (NormalDirection, _check_direction, _combine, _det, _directional_curvatures, _first,
                        _minors, sphere_volume, whiten_second_form)
from .errors import CurvlabError, ReachExceededError, UnsupportedDimensionError
from .immersion import (Axis, FrameData, Immersion, _forms, _forms_at, _householder_frame, _refuse_rank_loss,
                        _stack, frame_data_at)
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
    """A base immersion of codimension 1-3 with a tube radius below its declared reach bound."""

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
    """One boundary point p + eps*nu with its derived scalars and both checks.  Batched, every array (those
    of the nested results too) leads with a batch axis, and nu_hat is a tuple of one direction per point."""

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
    identity: TubeIdentityResult
    spectrum: TubeSpectrumResult


@dataclass
class TubeBoundary:
    """The tube boundary as one or two sheet immersions (two iff codimension 1)."""

    config: TubeConfig
    sheets: tuple[Immersion, ...]


# -- generic-scalar frame construction ------------------------------------


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


def _base_frame_pieces(base: Immersion, U, X):
    """Jets of X and of a normal frame at `order`, all in the m base variables.

    `U` holds base parameters, shape (B, m), and `X` is `base.jet_map(U, order + 1)`,
    evaluated by the caller, so its tangents are m-variable jets at `order`.  In codimension 1
    the frame is their unit cross product: component a is (-1)^a times the minor without
    coordinate a of the unit tangents; its sign tells the two sheets apart over the whole base.
    Else it is `immersion._householder_frame` of the tangent jets, the QR that gives the base
    forms' frame from their values: smooth near each point, which is all a fiber integral
    needs.  In every codimension the first base point where the tangents lose rank is named
    before any frame divides by them; in codimension 1 by the QR of the tangent values.
    """
    order = X[0].order - 1
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    X = [x.truncate(order) for x in X]
    qr_input = [[c.val for c in t] for t in tangents] if base.n == 1 else tangents
    frame, lost, _ = _householder_frame(qr_input, base.k)
    _refuse_rank_loss(base.name, U, lost)
    if base.n == 1:
        minors = _minors([_unit(t) for t in tangents])
        frame = [_unit([(-1.0) ** a * minors[(*range(a), *range(a + 1, base.k))] for a in range(base.k)])]
    return X, frame


def _sheet_chart(cfg: TubeConfig, X, frame, U, sheet_sign):
    """The sheet chart X + eps * sum_s y_s nu_s as jets in the variables of sheet points U (B, p),
    from `_base_frame_pieces` at their base parameters, which are the first m of those variables;
    y is `sheet_sign` (one, or one per point) at n = 1."""
    base = cfg.base
    y = [sheet_sign] if base.n == 1 else _sphere_values(base.n, Jet.variables(U, X[0].order)[base.m:])
    return [X[a] + cfg.eps * dot(y, [frame[s][a] for s in range(base.n)]) for a in range(base.k)]


def _distinct_rows(V: np.ndarray):
    """The distinct rows of V (B, m), told apart by their bits (-0.0 is not +0.0), in order of first
    occurrence, and the index of each row of V among them; V itself and None if no row repeats."""
    keys = np.ascontiguousarray(V).view(np.dtype((np.void, V.itemsize * V.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if len(first) == len(V):
        return V, None
    order = np.argsort(first)
    return V[first[order]], np.argsort(order)[inverse]


def _sheet_jet_map(cfg: TubeConfig, sheet_sign: float, U, order):
    """The sheet chart's jets at sheet points U (B, p).  X and the frame depend on the base point
    alone, so they are evaluated once per distinct base point (row of U[:, :m]) and gathered onto
    the sheet points; in order of first occurrence, so a refusal names the first bad row of U."""
    V, at = _distinct_rows(U[:, : cfg.base.m])
    X, frame = _base_frame_pieces(cfg.base, V, cfg.base.jet_map(V, order + 1))
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
    domain = _sheet_domain(base)
    signs, suffixes = ((1.0, -1.0), ("_tube_plus", "_tube_minus")) if base.n == 1 else ((1.0,), ("_tube",))
    sheets = tuple(Immersion(name=base.name + suffix, k=base.k, domain=domain,
                             jet_map_override=partial(_sheet_jet_map, cfg, sign))
                   for sign, suffix in zip(signs, suffixes))
    return TubeBoundary(config=cfg, sheets=sheets)


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


def tube_point(cfg: TubeConfig, u, nu_hat, boundary: Optional[TubeBoundary] = None) -> TubePoint:
    """Evaluate the tube boundary at (u, nu_hat), derive its scalars and run both checks on them.

    u is a base parameter point (m,) with one `NormalDirection`, or a batch U (B, m) with a sequence
    of B of them; a batch gives a `TubePoint` whose arrays lead with a batch axis, and a point that
    batch of one read at its point.  One evaluation of the base chart, its 3-jet at U, serves three
    ends: its 2-jet gives the base forms, in whose normal frame nu_hat is read; it builds the smooth
    normal frame that locates the fiber point; and the two give the sheet chart's 2-jet there, as the
    sheet's `jet_map` would.  The classical curvature comes from those jets, oriented by the outward
    normal g = (point - base point)/eps.  The base and sheet forms are kept on the result, and the
    checks read them.  Every contraction over the batch is an elementwise sum in a fixed order, so a
    point's values do not depend on its batch.  An error names the first failing point; a `boundary`
    built for another config is refused.
    """
    base, batch = cfg.base, np.ndim(u) == 2
    if boundary is None:
        boundary = tube_boundary_immersion(cfg)
    elif boundary.config != cfg:
        raise ValueError(
            f"boundary was built for another config: {boundary.config.base.name} at "
            f"eps = {boundary.config.eps}, not {base.name} at eps = {cfg.eps}")
    U = np.array([base.wrap(v) for v in (u if batch else [u])])
    directions = nu_hat if batch else [nu_hat]
    if isinstance(directions, NormalDirection) or len(directions) != len(U):
        given = "one bare NormalDirection" if isinstance(directions, NormalDirection) else len(directions)
        raise ValueError(f"a batch of {len(U)} base points takes {len(U)} normal directions, got {given}")
    for nu in directions:
        _check_direction(nu, base.n)
    C = np.array([nu.coeffs for nu in directions]).T
    X = base.jet_map(U, 3)
    base_frame = FrameData(*(np.moveaxis(f, -1, 0) for f in _forms(base.name, U, *_stack(X, 2, base.m))[1:]))
    pi_nu, nj = _shape_and_jacobian(cfg, base_frame.metric, base_frame.second_form, C, U)
    X, nus = _base_frame_pieces(base, U, X)
    amb = _combine(C, base_frame.normal_frame.T)  # nu_hat in the ambient space, (k, B)
    y = _combine(amb, np.array([[c.val for c in v] for v in nus]).swapaxes(0, 1))  # in the fiber frame
    if base.n == 1:
        index, P = np.where(y[0] > 0, 0, 1), U.copy()
    else:
        index, P = np.zeros(len(U), dtype=int), np.concatenate([U, _sphere_coords(base.n, y.T)], axis=1)
    names = np.array([sheet.name for sheet in boundary.sheets])[index]
    point, g, metric, second, frame = _oriented(
        cfg, *_forms(names, P, *_stack(_sheet_chart(cfg, X, nus, P, 1.0 - 2.0 * index), 2, P.shape[1])),
        np.stack([x.val for x in X]))
    sheet_frame = FrameData(*(np.moveaxis(f, -1, 0) for f in (metric, second, frame)))
    classical_k, shape_operator = _det(second[0]) / _det(metric), np.moveaxis(pi_nu, -1, 0)
    # the identity: K^g / NJ against (-1)^(n-1) eps^-(n-1) K^nu
    lhs = classical_k / nj
    rhs = (-1.0) ** (base.n - 1) * cfg.eps ** (-(base.n - 1)) * _directional_curvatures(
        base_frame.metric, base_frame.second_form, C)
    residual = np.abs(lhs - rhs)
    relative = residual / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    # the spectrum: the sheet's shape operator against {lambda_i/(1 - eps lambda_i)} and -1/eps (n-1 times)
    computed = np.sort(np.linalg.eigvalsh(whiten_second_form(sheet_frame.metric, sheet_frame.second_form)[:, 0]))
    lam = np.linalg.eigvalsh(shape_operator)
    fiber = np.full((len(lam), base.n - 1), -1.0 / cfg.eps)
    predicted = np.sort(np.concatenate([lam / (1.0 - cfg.eps * lam), fiber], axis=1))
    tp = TubePoint(u=U, nu_hat=tuple(directions), point=point.T, gauss_normal=g.T, classical_k=classical_k,
                   normal_jacobian=nj, sheet_index=index, sheet_param=P, base_frame=base_frame,
                   sheet_frame=sheet_frame, shape_operator=shape_operator,
                   identity=TubeIdentityResult(lhs, rhs, residual, relative),
                   spectrum=TubeSpectrumResult(computed, predicted, np.max(np.abs(computed - predicted), axis=1)))
    return tp if batch else _first(tp)


@dataclass
class TubeIdentityResult:
    """Both sides of K^g/NJ = (-1)^(n-1) eps^-(n-1) K^nu at one tube point; over a batch, (B,) arrays."""

    lhs: float
    rhs: float
    residual: float
    relative: float


def tube_identity_check(cfg: TubeConfig, u, nu_hat, boundary: Optional[TubeBoundary] = None) -> TubeIdentityResult:
    """Compare the tube-jet curvature route against the rescaled base curvature: `tube_point(...).identity`."""
    return tube_point(cfg, u, nu_hat, boundary).identity


@dataclass
class TubeSpectrumResult:
    """Shape-operator spectrum of the tube against its predicted multiset; over a batch, computed and
    predicted are (B, m + n - 1) and residual is (B,)."""

    computed: np.ndarray
    predicted: np.ndarray
    residual: float


def tube_spectrum_check(cfg: TubeConfig, u, nu_hat, boundary: Optional[TubeBoundary] = None) -> TubeSpectrumResult:
    """Predicted spectrum {lambda_i/(1 - eps lambda_i)} plus -1/eps (n-1 times): `tube_point(...).spectrum`."""
    return tube_point(cfg, u, nu_hat, boundary).spectrum


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
