"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * g(u, theta),    g = Q(u) (0, ..., 0, y(theta))

where Q = P_0^T H_0 ... P_(m-1)^T H_(m-1) is the product of the Householder reflections H_j and row moves P_j
of a QR of the tangents that pivots on structure (`immersion._householder_qr`), so that g = sum_s y_s nu_s over
the normal frame nu_s = Q e_(m+s), smooth near each base point, and y is the
unit-sphere chart of the normal fiber, `integrate._sphere_values` (codimension 1: two sheets with y =
+-sigma; codimension n >= 2: one sheet, whose fiber S^(n-1) is charted by n - 2 polar angles and an
azimuth).  The reflections are built from the tangents alone and differentiated exactly, in
truncated-Taylor arithmetic, by the `immersion._householder_qr` that also gives the base forms' frame,
and run in reverse on the one vector (0_m, y), so no frame column is formed.  In codimension 1, sigma =
(-1)^(p_0 + ... + p_(m-1)) prod_j sign(R_jj), p_j the pivot offset of step j, so det P_j = (-1)^p_j, turns
the normal so that det[sigma Q e_m, tangents] > 0, which tells the sheets apart.
Two base points may get frames that differ by an orthogonal map, but each fiber is still the whole normal
sphere, so no fiber integral depends on the choice.  Where the tangents lose rank the sheet raises
`DegenerateImmersionError` naming the base point.

X and the reflections depend on u alone, so they are jets in the m base variables, evaluated
on the base axes of a batch's window, so once per base point of a grid.  The sheet's
p = m + n - 1 variables put theta last, so those jets add as they are to the jets of
y(theta), which are seeded in the theta variables alone.  In codimension 1 the two sheets lie over
the same base points, so a total reduces them as two rows: each chunk's base once, one stopping level.

The Gauss map g is formed on the way to F, and it is the sheet's unit normal: <d_i X, g> = 0 since
g is normal to the base, and <d_i g, g> = 0 since |g| = 1.  So Weingarten's equation gives the
sheet's second form along g from the 1-jets of F and g alone, h_ij = <d_ij F, g> = -<d_i F, d_j g>,
and every tube path runs the base chart at order 2 and its reflections at order 1.

Checks provided: at a point (u, nu) or a batch of them, evaluated once by `tube_point`, the
curvature rescaling identity K^g / NJ = (-1)^(n-1) eps^-(n-1) K^nu and the shape-operator
spectrum {lambda_i/(1 - eps lambda_i)} plus an eigenvalue -1/eps of multiplicity n-1; and
the total curvature (-1)^(k-1) * vol(S^(k-1)) * chi.

By that identity the sheet's K^g dA over one fiber is (-1)^(n-1) K^nu sqrt(det g) times the
fiber's area element, and K^nu is a homogeneous polynomial of degree m in nu (Weyl 1939; Gray,
*Tubes*, 2004).  So a few fiber nodes integrate a fiber exactly, on `integrate._sphere_axes` at degree
m: a trapezoid in theta with m + 1 nodes, and on each polar angle psi_j, of area factor sin(psi_j)^(n-1-j),
ceil((n - 1 - j + m)/2) nodes of Gauss-Legendre or Gauss-Chebyshev in cos(psi_j).  A refined total runs
the base's ladder of levels on the base axes only, and each level adds one node per fiber axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (NormalDirection, _check_direction, _combine, _det, _directional_curvatures, _first,
                        sphere_volume, whiten_second_form)
from .errors import CurvlabError, ReachExceededError
from .immersion import (FrameData, GridBatch, Immersion, _batch, _dense_forms, _householder_qr, _move,
                        _reflect, _reflect_back, _refuse_rank_loss, _stack, _value, frame_data_at, induced_metric)
from .integrate import (QuadratureGrid, _refinement_ladder, _sphere_axes, _sphere_coords, _sphere_domain,
                        _sphere_values, default_grid, reduce_until_converged)
from .jets import Jet, dot

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
    """A base immersion of any codimension with a tube radius below its declared reach bound."""

    base: Immersion
    eps: float

    def __post_init__(self):
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
    sheet_frame: FrameData  # sheet forms at sheet_param, with normal frame gauss_normal
    shape_operator: np.ndarray  # Pi^nu at u in an orthonormal tangent basis, (m, m)
    identity: TubeIdentityResult
    spectrum: TubeSpectrumResult


@dataclass
class TubeBoundary:
    """The tube boundary as one or two sheet immersions (two iff codimension 1)."""

    config: TubeConfig
    sheets: tuple[Immersion, ...]


# -- generic-scalar frame construction ------------------------------------


def _base_frame_pieces(base: Immersion, U, X):
    """Jets of X and the Householder reflections of its tangents at `order`, all in the m base variables.

    `U` is a `GridBatch` of base parameters, and `X` is `base.jet_map(U, order + 1)`, evaluated
    by the caller over U's window, so its tangents are m-variable jets at `order`, and the structural
    zero 0.0 off each coordinate's support, which the QR and the reflect-back skip.  Their
    `immersion._householder_qr`, the QR that gives the base forms' frame from their values, gives
    Q = P_0^T H_0 ... P_(m-1)^T H_(m-1), whose last n columns are a normal frame smooth near each point:
    all a fiber integral needs.  In codimension 1, sigma = (-1)^(p_0 + ... + p_(m-1)) prod_j sign(R_jj),
    the sign of the QR's row moves P_j, each a cycle of its pivot offset p_j, times the signs of the QR
    diagonal's values, turns that one column so that det[sigma Q e_m, tangents] = |prod_j R_jj| > 0:
    its sign tells the two sheets apart over the whole base (None in higher codimension).  The
    first base point where the tangents lose rank is named before the reflections are used.
    """
    order = X[0].order - 1
    tangents = [[X[a].partial(i) if i in X[a].support else 0.0 for a in range(base.k)] for i in range(base.m)]
    reflections, lost, R = _householder_qr(tangents)
    _refuse_rank_loss(base.name, U, U.rows(lost))
    parity = (-1.0) ** sum(p for *_, p in reflections)  # det of the QR's row moves
    sigma = parity * math.prod(np.sign(row[0].val) for row in R) if base.n == 1 else None
    return [x.truncate(order) for x in X], reflections, sigma


def _sheet_chart(cfg: TubeConfig, X, reflections, sigma, U: GridBatch, sheet_sign):
    """The sheet chart F = X + eps * g and its Gauss map g = Q (0, ..., 0, y), as jets over the window of the
    sheet batch U, from `_base_frame_pieces` at its first m variables: the reflections run in reverse on the one
    vector (0_m, y), so no frame column is formed.  y is sigma times `sheet_sign` (one, or one per point) at n = 1."""
    base = cfg.base
    y = [sigma * sheet_sign] if base.n == 1 else _sphere_values(Jet.variables(U.columns, X[0].order)[base.m:])
    g = _reflect_back(reflections, [0.0] * base.m + y)
    return [X[a] + cfg.eps * g[a] for a in range(base.k)], g


def _sheet_jets(cfg: TubeConfig, sheet_sign: float, U: GridBatch, order):
    """`_sheet_chart` at `order` over the sheet batch U, with X and the reflections over its base variables only."""
    V = U.head(cfg.base.m)
    return _sheet_chart(cfg, *_base_frame_pieces(cfg.base, V, cfg.base.jet_map(V, order + 1)), U, sheet_sign)


def tube_boundary_immersion(cfg: TubeConfig) -> TubeBoundary:
    """Chart the boundary of the eps-neighborhood of the base immersion.

    Codimension 1 yields two sheets (normal sign +-1); every higher
    codimension yields one sheet with the normal-sphere angles appended to
    the base parameters.  Sheet jets go through the exact frame construction above.
    """
    base = cfg.base
    signs, suffixes = ((1.0, -1.0), ("_tube_plus", "_tube_minus")) if base.n == 1 else ((1.0,), ("_tube",))
    sheets = tuple(Immersion(name=base.name + suffix, k=base.k, domain=base.domain + _sphere_domain(base.n),
                             jet_map_override=lambda U, order, sign=sign: _sheet_jets(cfg, sign, U, order)[0])
                   for sign, suffix in zip(signs, suffixes))
    return TubeBoundary(config=cfg, sheets=sheets)


def _sheet_forms(names, F, g, V: GridBatch):
    """Sheet forms from the 1-jets F of sheet `names` (or one name per point) and g of its Gauss map over V,
    batch axis last: points (k, B), metric (p, p, B), and the second form (1, p, p, B) along the frame (k, 1, B),
    g itself, normal to the sheet by construction.  Since <d_i F, g> = 0, Weingarten's equation gives the
    second form from first derivatives alone: h_ij = <d_ij F, g> = -<d_i F, d_j g>.  The QR of the tangents
    names the first point where they lose rank, as a pole of the fiber chart does."""
    p = len(V.columns)
    point, d1 = _stack(F, 1, p, V)
    _refuse_rank_loss(names, V, _householder_qr([list(d1[:, i]) for i in range(p)])[1])
    normal, dg = _stack(g, 1, p, V)
    return point, induced_metric(d1), -np.einsum("aib,ajb->ijb", d1, dg)[None], normal[:, None]


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
    batch of one read at its point.  One evaluation of the base chart, its 2-jet at U, serves three
    ends: it gives the base forms, in whose normal frame nu_hat is read; it gives the Householder
    reflections of the tangents, to order 1, whose product Q locates the fiber point: nu_hat's fiber
    coordinates are (Q^T a)[m:], a being nu_hat in the ambient space; and the two give the 1-jets of
    the sheet chart and of its Gauss map g there.  The sheet's forms are read along its outward normal
    g, the second form by Weingarten's equation.  The base and sheet forms are kept on the result, and
    the checks read them.  Every contraction over the batch is an elementwise sum in a fixed order, so a
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
    C, V = np.array([nu.coeffs for nu in directions]).T, _batch(base, U)
    X = base.jet_map(V, 2)
    base_frame = FrameData(*(np.moveaxis(f, -1, 0) for f in _dense_forms(base.name, X, V)))
    pi_nu, nj = _shape_and_jacobian(cfg, base_frame.metric, base_frame.second_form, C, U)
    X, reflections, sigma = _base_frame_pieces(base, V, X)
    y = list(_combine(C, base_frame.normal_frame.T))  # nu_hat in the ambient space, k of (B,)
    for j, (v, beta, p) in enumerate(reflections):  # Q^T, each row move then its reflection, on the values
        y = y[:j] + _reflect([_value(c) for c in v], _value(beta), _move(y[j:], p))
    y = np.array(y[base.m:])  # in the fiber frame, (n, B)
    if base.n == 1:
        index, P = np.where(sigma * y[0] > 0, 0, 1), U.copy()
    else:
        index, P = np.zeros(len(U), dtype=int), np.concatenate([U, _sphere_coords(y.T)], axis=1)
    names, W = np.array([sheet.name for sheet in boundary.sheets])[index], _batch(boundary.sheets[0], P)
    point, metric, second, frame = _sheet_forms(
        names, *_sheet_chart(cfg, X, reflections, sigma, W, 1.0 - 2.0 * index), W)
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
    tp = TubePoint(u=U, nu_hat=tuple(directions), point=point.T, gauss_normal=frame[:, 0].T, classical_k=classical_k,
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
    grid_shapes: tuple[tuple[int, ...], ...]  # per sheet, the grid each integral was taken on: one grid for all
    error_estimate: Optional[float]  # summed over sheets; None on a resolution the caller fixed
    converged: Optional[bool]  # every sheet agreed with the level before on the one level they stop on


def _sheet_density(name, F, g, U):
    """Gaussian curvature times area density, (B,), of sheet `name` from its 1-jets F and g over U."""
    _, metric, second, _ = _sheet_forms(name, F, g, U)
    det_g = _det(metric)
    return _det(second[0]) / det_g * np.sqrt(det_g)


def _sheet_integrand(boundary: TubeBoundary):
    """Gaussian curvature times area density of each sheet of `boundary`, a row (B,) per sheet, over a `GridBatch`
    of sheet points: one `_base_frame_pieces` per chunk, from its base 2-jets, gives each sheet its chart and Gauss
    map, whose 1-jets give its forms.  A point's values do not depend on its chunk or on the other sheet's."""
    cfg = boundary.config

    def integrand(U):
        V = U.head(cfg.base.m)
        pieces = _base_frame_pieces(cfg.base, V, cfg.base.jet_map(V, 2))
        return tuple(_sheet_density(sheet.name, *_sheet_chart(cfg, *pieces, U, sign), U)
                     for sheet, sign in zip(boundary.sheets, (1.0, -1.0)))  # the signs of `tube_boundary_immersion`

    return integrand


def _sheet_levels(base: Immersion):
    """A sheet's refinement levels, each built when reached: the base's own levels `default_grid(base, r)`, times the
    fiber axes exact for K^nu (module docstring) plus one node per level, so two levels compare two fiber rules too."""
    return (QuadratureGrid(default_grid(base, resolution).axes + _sphere_axes(base.n, base.m, level))
            for level, resolution in enumerate(_refinement_ladder(base)))


def tube_total_curvature(cfg: TubeConfig, resolution: Optional[int] = None) -> TubeTotalResult:
    """Integrate the tube's Gaussian curvature; expect (-1)^(k-1) vol(S^(k-1)) chi.

    The sheets are the rows of one reduction, on `resolution` nodes per axis
    or, without one, refined together along `_sheet_levels` until every sheet
    has converged, with vol(S^(k-1)) as the quantum.
    """
    base = cfg.base
    if base.euler_char is None:
        raise CurvlabError(
            f"{base.name}: total tube curvature needs a known Euler characteristic"
        )
    boundary = tube_boundary_immersion(cfg)
    quantum = sphere_volume(base.k - 1)
    sheet = boundary.sheets[0]  # the sheets share one domain, so each level is one grid for all
    per_sheet, grid_shape, errors, converged = reduce_until_converged(
        sheet, _sheet_integrand(boundary), quantum,
        _sheet_levels(base) if resolution is None else (default_grid(sheet, resolution),))
    integral = math.fsum(per_sheet)
    expected = (-1.0) ** (base.k - 1) * quantum * base.euler_char
    return TubeTotalResult(
        integral=integral,
        expected=expected,
        residual=abs(integral - expected),
        per_sheet=per_sheet,
        grid_shapes=(grid_shape,) * len(per_sheet),
        error_estimate=None if errors is None else math.fsum(errors),
        converged=converged,
    )
