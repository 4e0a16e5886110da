"""Boundaries of eps-neighborhoods as derived hypersurface immersions.

The boundary of the eps-neighborhood of a base immersion X is charted as

    F(u, theta) = X(u) + eps * sum_s y_s(theta) nu_s(u)

where (nu_s) is an orthonormal normal frame, smooth near each base point, and y
is the unit-sphere chart of the normal fiber that the normal-sphere rule is built on,
`integrate._sphere_values` (codimension 1: two sheets with y = +-1; codimension 2: one
angle; codimension 3: polar/azimuth).  The frame is built from the tangents alone and
differentiated exactly, in truncated-Taylor arithmetic: the normal block of a Householder
QR of the tangents, by the `immersion._householder_frame` that also builds the base forms'
frame, in codimension 1 turned so that det[nu, tangents] > 0, which tells the sheets apart.
Two base points may get frames that differ by an orthogonal map, but
each fiber is still the whole normal sphere, so no fiber integral depends on the choice.
Where the tangents lose rank the frame raises `DegenerateImmersionError` naming the
base point.

X and the frame depend on u alone, so they are jets in the m base variables, evaluated
on the base axes of a batch's window, so once per base point of a grid.  The sheet's
p = m + n - 1 variables put theta last, so those jets add as they are to the jets of
y(theta), which are seeded in the theta variables alone.

The sheet's Gauss map g = sum_s y_s nu_s is formed on the way to F = X + eps * g, and it is
the sheet's unit normal: <d_i X, g> = 0 since g is normal to the base, and <d_i g, g> = 0
since |g| = 1.  So Weingarten's equation gives the sheet's second form along g from the
1-jets of F and g alone, h_ij = <d_ij F, g> = -<d_i F, d_j g>, and every tube path runs the
base chart at order 2 and its frame at order 1.

Checks provided: at a point (u, nu) or a batch of them, evaluated once by `tube_point`, the
curvature rescaling identity K^g / NJ = (-1)^(n-1) eps^-(n-1) K^nu and the shape-operator
spectrum {lambda_i/(1 - eps lambda_i)} plus an eigenvalue -1/eps of multiplicity n-1; and
the total curvature (-1)^(k-1) * vol(S^(k-1)) * chi.

By that identity the sheet's K^g dA over one fiber is (-1)^(n-1) K^nu sqrt(det g) times the
fiber's area element, and K^nu is a homogeneous polynomial of degree m in nu (Weyl 1939; Gray,
*Tubes*, 2004).  So a few fiber nodes integrate a fiber exactly, on the axes `normal_sphere_rule` is
built from, `integrate._sphere_axes` at degree m: a trapezoid in theta with m + 1 nodes, and in
codimension 3 Gauss-Legendre in cos(psi) with ceil((m + 1)/2).  A refined total runs the base's
ladder of levels on the base axes only, and each level adds one node per fiber axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .curvature import (NormalDirection, _check_direction, _combine, _det, _directional_curvatures, _first,
                        sphere_volume, whiten_second_form)
from .errors import CurvlabError, ReachExceededError, UnsupportedDimensionError
from .immersion import (FrameData, GridBatch, Immersion, _batch, _forms, _householder_frame, _householder_qr,
                        _refuse_rank_loss, _stack, frame_data_at, induced_metric)
from .integrate import (GridAxis, QuadratureGrid, _refinement_ladder, _sphere_axes, _sphere_coords, _sphere_domain,
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
    """Jets of X and of a normal frame at `order`, all in the m base variables.

    `U` is a `GridBatch` of base parameters, and `X` is `base.jet_map(U, order + 1)`, evaluated
    by the caller over U's window, so its tangents are m-variable jets at `order`.  The frame is
    `immersion._householder_frame` of the tangent jets, the QR that gives the base forms' frame
    from their values: smooth near each point, which is all a fiber integral needs.  In
    codimension 1 its one vector is turned by sigma = prod_j sign(R_jj), the signs of the QR
    diagonal's values, so that det[nu, tangents] = |prod_j R_jj| > 0: its sign tells the two
    sheets apart over the whole base.  The first base point where the tangents lose rank is
    named before the frame is used.
    """
    order = X[0].order - 1
    tangents = [[X[a].partial(i) for a in range(base.k)] for i in range(base.m)]
    X = [x.truncate(order) for x in X]
    frame, lost, R = _householder_frame(tangents, base.k)
    _refuse_rank_loss(base.name, U, U.rows(lost))
    if base.n == 1:
        sigma = math.prod(np.sign(row[0].val) for row in R)
        frame = [[sigma * c for c in frame[0]]]
    return X, frame


def _sheet_chart(cfg: TubeConfig, X, frame, U: GridBatch, sheet_sign):
    """The sheet chart F = X + eps * g and its Gauss map g = sum_s y_s nu_s, as jets over the window of the
    sheet batch U, from `_base_frame_pieces` at its first m variables; y is `sheet_sign` (one, or one per
    point) at n = 1."""
    base = cfg.base
    y = [sheet_sign] if base.n == 1 else _sphere_values(base.n, Jet.variables(U.columns, X[0].order)[base.m:])
    g = [dot(y, [frame[s][a] for s in range(base.n)]) for a in range(base.k)]
    return [X[a] + cfg.eps * g[a] for a in range(base.k)], g


def _sheet_jets(cfg: TubeConfig, sheet_sign: float, U: GridBatch, order):
    """`_sheet_chart` at `order` over the sheet batch U, with X and the frame over its base variables only."""
    V = U.head(cfg.base.m)
    X, frame = _base_frame_pieces(cfg.base, V, cfg.base.jet_map(V, order + 1))
    return _sheet_chart(cfg, X, frame, U, sheet_sign)


def tube_boundary_immersion(cfg: TubeConfig) -> TubeBoundary:
    """Chart the boundary of the eps-neighborhood of the base immersion.

    Codimension 1 yields two sheets (normal sign +-1); codimension 2 and 3
    yield one sheet with the normal-sphere angles appended to the base
    parameters.  Sheet jets go through the exact frame construction above.
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
    names the first point where they lose rank, as the codimension-3 pole does."""
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
    ends: it gives the base forms, in whose normal frame nu_hat is read; it builds the smooth normal
    frame, to order 1, that locates the fiber point; and the two give the 1-jets of the sheet chart
    and of its Gauss map g there.  The sheet's forms are read along its outward normal g, the second
    form by Weingarten's equation.  The base and sheet forms are kept on the result, and the checks
    read them.  Every contraction over the batch is an elementwise sum in a fixed order, so a
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
    base_frame = FrameData(*(np.moveaxis(f, -1, 0) for f in _forms(base.name, X, V)))
    pi_nu, nj = _shape_and_jacobian(cfg, base_frame.metric, base_frame.second_form, C, U)
    X, nus = _base_frame_pieces(base, V, X)
    amb = _combine(C, base_frame.normal_frame.T)  # nu_hat in the ambient space, (k, B)
    y = _combine(amb, np.array([[c.val for c in v] for v in nus]).swapaxes(0, 1))  # in the fiber frame
    if base.n == 1:
        index, P = np.where(y[0] > 0, 0, 1), U.copy()
    else:
        index, P = np.zeros(len(U), dtype=int), np.concatenate([U, _sphere_coords(base.n, y.T)], axis=1)
    names, Q = np.array([sheet.name for sheet in boundary.sheets])[index], _batch(boundary.sheets[0], P)
    point, metric, second, frame = _sheet_forms(names, *_sheet_chart(cfg, X, nus, Q, 1.0 - 2.0 * index), Q)
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
    grid_shapes: tuple[tuple[int, ...], ...]  # per sheet, the grid each integral was taken on
    error_estimate: Optional[float]  # summed over sheets; None on a resolution the caller fixed
    converged: Optional[bool]  # every sheet converged


def _sheet_integrand(cfg: TubeConfig, sheet: Immersion, sheet_sign: float):
    """Gaussian curvature times area density of one sheet, of sign `sheet_sign`, over a `GridBatch` of sheet
    points -> (B,): its forms from the 1-jets of the sheet and of its Gauss map, on base 2-jets."""
    def integrand(U):
        _, metric, second, _ = _sheet_forms(sheet.name, *_sheet_jets(cfg, sheet_sign, U, 1), U)
        det_g = _det(metric)
        return _det(second[0]) / det_g * np.sqrt(det_g)

    return integrand


def _fiber_axes(base: Immersion, level: int) -> tuple[GridAxis, ...]:
    """The fiber axes at refinement level `level`: the counts exact for K^nu (module docstring), plus
    `level` on each axis, so that two levels compare two fiber rules as well as two base grids."""
    return _sphere_axes(base.n, base.m, level)


def _sheet_levels(base: Immersion):
    """A sheet's refinement levels, each built when reached: the base's own levels
    `default_grid(base, r)`, times the fiber axes of the level."""
    return (QuadratureGrid(default_grid(base, resolution).axes + _fiber_axes(base, level))
            for level, resolution in enumerate(_refinement_ladder(base)))


def tube_total_curvature(cfg: TubeConfig, resolution: Optional[int] = None) -> TubeTotalResult:
    """Integrate the tube's Gaussian curvature; expect (-1)^(k-1) vol(S^(k-1)) chi.

    With a `resolution`, each sheet is integrated on `resolution` nodes per
    axis.  Without one, each sheet is refined along `_sheet_levels` until
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
        reduce_until_converged(sheet, _sheet_integrand(cfg, sheet, 1.0 - 2.0 * index), quantum,
                               _sheet_levels(base) if resolution is None else (default_grid(sheet, resolution),))
        for index, sheet in enumerate(boundary.sheets)  # sheet signs +1, -1 as in `tube_boundary_immersion`
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
