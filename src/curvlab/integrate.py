"""Quadrature over chart domains and the total-curvature pipeline.

Product grids pair Gauss-Legendre nodes on non-periodic axes (interior
nodes, so polar chart edges are never evaluated) with equispaced
trapezoid nodes on periodic axes (spectrally accurate there).  Surface
integrals weight the integrand by the Riemannian density sqrt(det I).

Every integral goes through `reduce_over_grid`, which meshes no grid: each
chunk is one grid window of at most 8,192 points, and reaches the integrand
as a `GridBatch`, so the chart's jets broadcast along the grid axes.  The
integrand's cost per point is flat from ~8,800 points up and a chunk has
~1.1 ms of fixed cost, so larger chunks only hold more transient memory.  Fixed
chunks, pairwise sums inside each and compensated sums across them give
bit-identical integrals on every run.  A non-finite integrand value fails the
integral and names its parameter point.

Every total goes through `reduce_until_converged`, which reduces over a
sequence of levels until two successive integrals agree within 1e-12 of the
integral's topological quantum.  When the caller fixes no grid, the levels are
uniform grids of 8, 13, 20, 31, ... nodes per axis (coprime neighbours),
capped by `default_grid`; a fixed grid is the one level `(grid,)`, compared
with none.  For analytic charts both rules converge exponentially, so the last
difference between levels is the reported error estimate: the error of the
coarser level, which the finer one improves on.  A tube sheet runs that ladder
on its base axes only, with fiber axes on rules exact for them (`tube.py`).

The unit sphere S^(n-1), n <= 3, is charted here once, by its angles, and
`_sphere_axes` gives product axes on them that are exact for polynomials of a
given degree: the normal-sphere rule of the quadrature route is built from
them, and so are a tube sheet's fiber axes, whose fiber is that sphere.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .curvature import _det, batched_curvature_moments, batched_curvature_quadrature, sphere_volume
from .errors import DegenerateImmersionError
from .immersion import Axis, GridBatch, Immersion, _stacked_jets, frames_at, induced_metric
from .jets import cos, sin

__all__ = [
    "GridAxis",
    "QuadratureGrid",
    "NormalSphereRule",
    "default_grid",
    "reduce_over_grid",
    "reduce_until_converged",
    "integrate_scalar",
    "normal_sphere_rule",
    "batched_curvature",
    "gauss_bonnet_check",
    "GaussBonnetReport",
]

_CHUNK = 8192
_MC_SEED = 20260823
_REFINE_START = 8  # nodes per axis on the first refinement level; each next has ~3/2 as many
_REFINE_TOL = 1e-12  # two levels agree within this fraction of the topological quantum


@dataclass(frozen=True)
class GridAxis:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str  # "gauss-legendre", "trapezoid", or "gauss-legendre-cos": Gauss-Legendre in cos(psi) on [0, pi]


@dataclass(frozen=True)
class QuadratureGrid:
    axes: tuple[GridAxis, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax.nodes) for ax in self.axes)

    def mesh(self):
        """All grid points (B, m) and their product weights (B,), in C order."""
        U, W = self._window(0, 0, self.shape[0])
        return U.points, W

    def _window(self, d: int, lo: int, hi: int):
        """Rows lo..hi of the leading axes 0..d merged, times every later axis whole: a `GridBatch` and
        its product weights (B,), multiplied in axis order as ((1 * w0) * w1) * ..."""
        window = (hi - lo, *self.shape[d + 1:])
        at = (*np.unravel_index(np.arange(lo, hi), self.shape[:d + 1]), *[slice(None)] * (len(window) - 1))
        shapes = [[-1 if a == max(0, i - d) else 1 for a in range(len(window))] for i in range(len(at))]
        W = math.prod(ax.weights[i].reshape(s) for ax, i, s in zip(self.axes, at, shapes))
        return GridBatch(tuple(ax.nodes[i].reshape(s) for ax, i, s in zip(self.axes, at, shapes)), window), W.ravel()


@dataclass(frozen=True)
class NormalSphereRule:
    """Nodes on the unit sphere of the normal space; weights sum to its volume."""

    nodes: np.ndarray  # (Q, n)
    weights: np.ndarray  # (Q,)


def _axis_counts(imm: Immersion) -> list[int]:
    """Default node count per axis, gauss-legendre/trapezoid 96/128 (m <= 2),
    48/64 (m = 3), 32/48 (m >= 4), keeping cost ~ count^m bounded."""
    gl, tr = (96, 128) if imm.m <= 2 else (48, 64) if imm.m == 3 else (32, 48)
    return [tr if ax.periodic else gl for ax in imm.domain]


@functools.lru_cache(maxsize=None)
def _gauss_legendre(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count and shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _make_axis(lo: float, hi: float, periodic: bool, count: int) -> GridAxis:
    if periodic:
        length = hi - lo
        nodes = lo + length * np.arange(count) / count
        weights = np.full(count, length / count)
        return GridAxis(nodes, weights, "trapezoid")
    x, w = _gauss_legendre(count)
    half = 0.5 * (hi - lo)
    return GridAxis(lo + half * (x + 1.0), half * w, "gauss-legendre")


def _polar_axis(count: int) -> GridAxis:
    """Gauss-Legendre in t = cos(psi) on the polar axis [0, pi]: nodes psi_i = arccos(t_i), in
    ascending order, and weights w_i / sin(psi_i).  Its sum of f is that of f / sin(psi) over t, so
    it is exact when f is sin(psi) times a polynomial in cos(psi) of degree <= 2 * count - 1."""
    t, w = (a[::-1] for a in _gauss_legendre(count))
    return GridAxis(np.arccos(t), w / np.sqrt((1.0 - t) * (1.0 + t)), "gauss-legendre-cos")


def default_grid(imm: Immersion, resolution: Optional[int] = None) -> QuadratureGrid:
    """Product grid at uniform `resolution` nodes per axis, or at the default counts.

    The default counts are the cap of `reduce_until_converged`'s refinement.
    """
    if resolution is not None and (isinstance(resolution, bool) or not isinstance(resolution, numbers.Integral)):
        raise TypeError(f"resolution must be an integer number of nodes per axis, got {resolution!r}")
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution {resolution} must be >= 1 node per axis")
    counts = _axis_counts(imm) if resolution is None else [resolution] * imm.m
    return QuadratureGrid(tuple(
        _make_axis(ax.lo, ax.hi, ax.periodic, count) for ax, count in zip(imm.domain, counts)
    ))


def reduce_over_grid(imm: Immersion, grid: QuadratureGrid,
                     integrand: Callable[[GridBatch], np.ndarray]) -> float:
    """Weighted grid sum of `integrand`: a `GridBatch` of B points (B, m) -> (B,) density-weighted
    values; any other shape of values is refused, as numpy would broadcast it against the weights."""
    if len(grid.axes) != imm.m:
        raise ValueError(f"grid has {len(grid.axes)} axes, immersion has {imm.m}")
    for i, (ax, dom) in enumerate(zip(grid.axes, imm.domain)):
        nodes, weights = np.asarray(ax.nodes), np.asarray(ax.weights)
        if nodes.ndim != 1 or weights.shape != nodes.shape or not len(nodes):
            raise ValueError(f"{imm.name}: grid axis {i} has nodes of shape {nodes.shape} and weights of shape "
                             f"{weights.shape}; expected 1-D arrays of one nonzero length")
        if not (dom.lo - 1e-12 <= nodes.min() and nodes.max() <= dom.hi + 1e-12):  # Immersion.wrap's slack
            raise ValueError(f"{imm.name}: grid axis {i} has nodes in [{nodes.min()}, {nodes.max()}], "
                             f"outside its domain [{dom.lo}, {dom.hi}]")
    # a chunk is whole rows of the leading axes 0..d merged, d the first axis with at most a quarter chunk of
    # points per node, so each but the last holds 3/4 of a chunk to a whole one; each later axis keeps all its nodes
    shape, m = grid.shape, imm.m
    d = next(i for i in range(m) if i == m - 1 or 4 * math.prod(shape[i + 1:]) <= _CHUNK)
    lead, step = math.prod(shape[:d + 1]), _CHUNK // math.prod(shape[d + 1:])
    partials = []
    for lo in range(0, lead, step):
        Uc, W = grid._window(d, lo, min(lo + step, lead))
        values = integrand(Uc)
        if np.shape(values) != (len(Uc),):
            raise ValueError(f"{imm.name}: integrand maps {len(Uc)} points to values of shape "
                             f"{np.shape(values)}, expected ({len(Uc)},)")
        bad = ~np.isfinite(values)
        if bad.any():
            raise DegenerateImmersionError(
                f"{imm.name}: integrand is not finite at {int(bad.sum())} point(s) of its chunk, "
                f"first at parameter point {Uc[np.argmax(bad)].tolist()}"
            )
        partials.append(float(np.sum(values * W)))
    return math.fsum(partials)


def _refinement_ladder(imm: Immersion) -> list[Optional[int]]:
    """Resolutions 8, 13, 20, 31, 47, 71, 107 below every default axis count, then None: the cap.

    A trapezoid sum on N nodes is exact for every harmonic but the multiples
    of N, so two levels err alike on an integrand whose harmonics are all
    multiples of both counts.  Neighbouring counts here are coprime (as are
    the last one and the cap's 128, 96, 64, 48 and 32), so that takes a
    symmetry of order at least 8 * 13 = 104, where counts 8 and 12 would be
    fooled by a 24-fold one.
    """
    cap = min(_axis_counts(imm))
    ladder = []
    resolution = _REFINE_START
    while resolution < cap:
        ladder.append(resolution)
        resolution = resolution * 3 // 2 + 1
    return ladder + [None]


def reduce_until_converged(
    imm: Immersion, integrand: Callable[[GridBatch], np.ndarray], quantum: float,
    levels: Iterable[QuadratureGrid],
) -> tuple[float, tuple[int, ...], Optional[float], Optional[bool]]:
    """(integral, grid shape, error estimate, converged) of `reduce_over_grid` along `levels`.

    Each grid of `levels` is built when the loop reaches it.  Refinement stops
    at the first level within 1e-12 * `quantum` of the level before and reports
    that finer value; the estimate is the last difference between levels, and
    converged is False when the last level was reached before two levels
    agreed.  One level is compared with none: its estimate and flag are None; no level raises `ValueError`.
    """
    previous = error = converged = grid = None
    for grid in levels:
        value = reduce_over_grid(imm, grid, integrand)
        if previous is not None:
            error = abs(value - previous)
            converged = error <= _REFINE_TOL * quantum
            if converged:
                break
        previous = value
    if grid is None:
        raise ValueError(f"{imm.name}: levels is empty; give at least one grid")
    return value, grid.shape, error, converged


def integrate_scalar(imm: Immersion, f: Callable[[GridBatch], np.ndarray],
                     grid: QuadratureGrid) -> float:
    """Integral of f, a `GridBatch` of B points (B, m) -> (B,) values, against the Riemannian measure."""
    def integrand(U):
        _, d1 = _stacked_jets(imm, U, order=1)
        return f(U) * np.sqrt(_det(induced_metric(d1)))

    return reduce_over_grid(imm, grid, integrand)


def _sphere_domain(n: int) -> tuple[Axis, ...]:
    """The angles of the unit sphere S^(n-1), n <= 3, charted by `_sphere_values`: none for S^0 = {+-1},
    the azimuth theta on S^1, and the polar angle psi, then theta, on S^2."""
    theta = (Axis(0.0, 2.0 * np.pi, periodic=True),)
    return () if n == 1 else theta if n == 2 else (Axis(0.0, np.pi),) + theta


def _sphere_values(n, thetas):
    """Unit-sphere chart values y(theta) in generic scalars; len(thetas) = n - 1 >= 1."""
    if n == 2:
        return [cos(thetas[0]), sin(thetas[0])]
    ps, th = thetas
    return [cos(ps), sin(ps) * cos(th), sin(ps) * sin(th)]


def _sphere_coords(n, y):
    """Inverse of `_sphere_values` for unit vectors y (B, n): their angles, (B, n - 1)."""
    th = np.arctan2(y[:, -1], y[:, -2]) % (2.0 * np.pi)
    return th[:, None] if n == 2 else np.stack([np.arccos(np.clip(y[:, 0], -1.0, 1.0)), th], axis=1)


def _sphere_axes(n: int, degree: int, level: int = 0) -> tuple[GridAxis, ...]:
    """Axes on `_sphere_domain(n)` exact for every polynomial of `degree` on S^(n-1), plus `level` nodes on each:
    a trapezoid in theta with degree + 1 nodes, exact for its harmonics up to `degree`, and `_polar_axis` in psi
    with (degree + 2) // 2, exact for what summing theta out leaves, sin(psi) times a polynomial of degree <=
    `degree` in cos(psi).  The psi axis weights f dpsi, so the area element's sin(psi) is the integrand's."""
    return tuple(_make_axis(ax.lo, ax.hi, True, degree + 1 + level) if ax.periodic
                 else _polar_axis((degree + 2) // 2 + level) for ax in _sphere_domain(n))


@functools.lru_cache(maxsize=None)
def normal_sphere_rule(m: int, n: int) -> NormalSphereRule:
    """Quadrature on the unit sphere S^(n-1) of the normal space of an m-dimensional immersion.

    n <= 3: the product of `_sphere_axes(n, d)`, d = m rounded up to even, in
    `_sphere_values`, weighted by the area element (sin(psi) on S^2); S^0 is
    {-1, +1}, weight 1 each.  It is exact for every polynomial of degree <= d,
    so for K^nu, of degree m: 2, 3 and 6 nodes for n = 1, 2, 3 at m <= 2, and
    2, 5 and 15 at m = 3, 4.  n > 3: 4096 Monte Carlo nodes with a fixed seed,
    not exact.  Built once per (m, n) and shared by every caller, so read-only.
    """
    rule = _build_sphere_rule(m, n)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _build_sphere_rule(m: int, n: int) -> NormalSphereRule:
    if m < 1 or n < 1:
        raise ValueError(f"dimension {m} and codimension {n} must be >= 1")
    if n > 3:
        rng = np.random.default_rng(_MC_SEED)
        raw = rng.standard_normal((4096, n))
        nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        return NormalSphereRule(nodes, np.full(4096, sphere_volume(n - 1) / 4096))
    if n == 1:
        return NormalSphereRule(np.array([[-1.0], [1.0]]), np.ones(2))
    axes = _sphere_axes(n, m + m % 2)
    angles = np.meshgrid(*(ax.nodes for ax in axes), indexing="ij")
    weights = math.prod(np.meshgrid(*(ax.weights for ax in axes), indexing="ij"))
    if n == 3:
        weights = weights * np.sin(angles[0])
    return NormalSphereRule(np.stack(_sphere_values(n, angles), axis=-1).reshape(-1, n), weights.ravel())


def _curvature_route(route: str):
    """The batched K_M kernel (metric or det(metric), second form) -> (B,) of a named route."""
    if route == "moments":
        return batched_curvature_moments
    if route == "quadrature":
        return batched_curvature_quadrature
    raise ValueError(f"unknown curvature route {route!r}")


def batched_curvature(imm: Immersion, U: np.ndarray, route: str = "moments") -> np.ndarray:
    """Generalized curvature K_M at a batch of parameter points."""
    curvature = _curvature_route(route)
    metric, second, _ = frames_at(imm, U)
    return curvature(metric, second)


@dataclass
class GaussBonnetReport:
    """Total curvature of a closed immersion against its topological value."""

    integral: float
    expected: Optional[float]
    residual: Optional[float]
    estimated_chi: int
    chi_distance: float
    route: str
    grid_shape: tuple[int, ...]
    error_estimate: Optional[float]  # None on a grid the caller fixed
    converged: Optional[bool]


def gauss_bonnet_check(imm: Immersion, grid: Optional[QuadratureGrid] = None,
                       route: str = "moments") -> GaussBonnetReport:
    """Integrate K_M over the immersion and compare with its Euler characteristic.

    expected = chi * (volume of S^(k-1)) / (volume of S^(n-1)); when chi is
    unknown the report still carries the rounded estimate and the rounding
    distance.  Without a `grid` the default grid is refined until converged,
    with the volume ratio (one unit of chi) as the quantum.
    """
    curvature = _curvature_route(route)
    ratio = sphere_volume(imm.k - 1) / sphere_volume(imm.n - 1)

    def integrand(U):
        metric, second, _ = frames_at(imm, U)
        det_g = _det(np.moveaxis(metric, 0, -1))
        return curvature(det_g, second) * np.sqrt(det_g)

    levels = (grid,) if grid is not None else (default_grid(imm, r) for r in _refinement_ladder(imm))
    integral, grid_shape, error_estimate, converged = reduce_until_converged(imm, integrand, ratio, levels)
    raw_chi = integral / ratio
    estimated_chi = int(np.rint(raw_chi))
    chi_distance = abs(raw_chi - estimated_chi)
    expected = residual = None
    if imm.euler_char is not None:
        expected = ratio * imm.euler_char
        residual = abs(integral - expected)
    return GaussBonnetReport(
        integral=integral,
        expected=expected,
        residual=residual,
        estimated_chi=estimated_chi,
        chi_distance=chi_distance,
        route=route,
        grid_shape=grid_shape,
        error_estimate=error_estimate,
        converged=converged,
    )
