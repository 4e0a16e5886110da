"""Quadrature over chart domains and the total-curvature pipeline.

Product grids pair Gauss-Legendre nodes on non-periodic axes (interior
nodes, so polar chart edges are never evaluated) with equispaced
trapezoid nodes on periodic axes (spectrally accurate there).  Surface
integrals weight the integrand by the Riemannian density sqrt(det I).

Every integral goes through `reduce_over_grid`.  Accumulation is
deterministic: fixed chunking, pairwise summation inside each chunk,
compensated summation across chunks — repeated runs give bit-identical
integrals.  A non-finite integrand value fails the integral and names its
parameter point.

When the caller fixes no grid, `reduce_until_converged` refines: uniform
grids of 8, 13, 20, 31, ... nodes per axis (coprime neighbours), capped by
`default_grid`, until two successive integrals agree within 1e-12 of the
integral's topological quantum.  For analytic charts both rules converge
exponentially, so the last difference between levels is the reported error
estimate: the error of the coarser level, which the finer one improves on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .curvature import batched_curvature_moments, batched_curvature_quadrature, sphere_volume
from .errors import DegenerateImmersionError
from .immersion import Immersion, frames_at, induced_metric, jets_at

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

_CHUNK = 16384
_MC_SEED = 20260823
_REFINE_START = 8  # nodes per axis on the first refinement level; each next has ~3/2 as many
_REFINE_TOL = 1e-12  # two levels agree within this fraction of the topological quantum


@dataclass(frozen=True)
class GridAxis:
    nodes: np.ndarray
    weights: np.ndarray
    kind: str  # "gauss-legendre" or "trapezoid"


@dataclass(frozen=True)
class QuadratureGrid:
    axes: tuple[GridAxis, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(ax.nodes) for ax in self.axes)

    def mesh(self):
        """All grid points (B, m) and their product weights (B,), in C order."""
        node_mesh = np.meshgrid(*[ax.nodes for ax in self.axes], indexing="ij")
        weight_mesh = np.meshgrid(*[ax.weights for ax in self.axes], indexing="ij")
        U = np.stack([g.ravel() for g in node_mesh], axis=1)
        W = np.ones(U.shape[0])
        for w in weight_mesh:
            W *= w.ravel()
        return U, W


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


def _make_axis(lo: float, hi: float, periodic: bool, count: int) -> GridAxis:
    if periodic:
        length = hi - lo
        nodes = lo + length * np.arange(count) / count
        weights = np.full(count, length / count)
        return GridAxis(nodes, weights, "trapezoid")
    x, w = np.polynomial.legendre.leggauss(count)
    half = 0.5 * (hi - lo)
    return GridAxis(lo + half * (x + 1.0), half * w, "gauss-legendre")


def default_grid(imm: Immersion, resolution: Optional[int] = None) -> QuadratureGrid:
    """Product grid at uniform `resolution` nodes per axis, or at the default counts.

    The default counts are the cap of `reduce_until_converged`'s refinement.
    """
    if resolution is not None and resolution < 1:
        raise ValueError(f"resolution {resolution} must be >= 1 node per axis")
    counts = _axis_counts(imm) if resolution is None else [resolution] * imm.m
    return QuadratureGrid(tuple(
        _make_axis(ax.lo, ax.hi, ax.periodic, count) for ax, count in zip(imm.domain, counts)
    ))


def reduce_over_grid(imm: Immersion, grid: QuadratureGrid,
                     integrand: Callable[[np.ndarray], np.ndarray]) -> float:
    """Weighted grid sum of `integrand`: (B, m) points -> (B,) density-weighted values."""
    if len(grid.axes) != imm.m:
        raise ValueError(f"grid has {len(grid.axes)} axes, immersion has {imm.m}")
    U, W = grid.mesh()
    partials = []
    for start in range(0, U.shape[0], _CHUNK):
        Uc = U[start:start + _CHUNK]
        values = integrand(Uc)
        bad = ~np.isfinite(values)
        if bad.any():
            raise DegenerateImmersionError(
                f"{imm.name}: integrand is not finite at {int(bad.sum())} grid point(s), "
                f"first at parameter point {Uc[np.argmax(bad)].tolist()}"
            )
        partials.append(float(np.sum(values * W[start:start + _CHUNK])))
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
    imm: Immersion, integrand: Callable[[np.ndarray], np.ndarray], quantum: float,
    grid: Optional[QuadratureGrid] = None,
) -> tuple[float, tuple[int, ...], Optional[float], Optional[bool]]:
    """(integral, grid shape, error estimate, converged) of `reduce_over_grid`.

    On a `grid` the caller fixed: one reduction, with no estimate or flag
    (None).  Otherwise the levels are `default_grid(imm, r)` along
    `_refinement_ladder`, ending on `default_grid(imm)`.  Refinement stops at
    the first level within 1e-12 * `quantum` of the level before and reports
    that finer value; the estimate is the last difference between levels, and
    converged is False when the cap was reached before two levels agreed.
    """
    if grid is not None:
        return reduce_over_grid(imm, grid, integrand), grid.shape, None, None
    previous = error = None
    for resolution in _refinement_ladder(imm):
        grid = default_grid(imm, resolution)
        value = reduce_over_grid(imm, grid, integrand)
        if previous is not None:
            error = abs(value - previous)
            if error <= _REFINE_TOL * quantum:
                return value, grid.shape, error, True
        previous = value
    return value, grid.shape, error, False


def integrate_scalar(imm: Immersion, f: Callable[[np.ndarray], np.ndarray],
                     grid: QuadratureGrid) -> float:
    """Integral of f against the Riemannian surface measure.

    `f` maps a (B, m) batch of parameter points to (B,) values.
    """
    def integrand(U):
        _, d1 = jets_at(imm, U, order=1)
        return f(U) * np.sqrt(np.linalg.det(induced_metric(d1)))

    return reduce_over_grid(imm, grid, integrand)


@functools.lru_cache(maxsize=None)
def normal_sphere_rule(n: int) -> NormalSphereRule:
    """Quadrature on the unit sphere S^(n-1) of an n-dimensional normal space.

    n=1: the two points +-1, weight 1 each.  n=2: 64 equispaced angles.
    n=3: 32 Gauss-Legendre polar cosines times 64 equispaced azimuths.
    n>3: 4096 Monte Carlo nodes with a fixed seed.  Built once per n and
    shared by every caller, so its nodes and weights are read-only.
    """
    rule = _build_sphere_rule(n)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule


def _build_sphere_rule(n: int) -> NormalSphereRule:
    if n < 1:
        raise ValueError(f"codimension {n} must be >= 1")
    if n == 1:
        return NormalSphereRule(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if n == 2:
        theta = 2.0 * np.pi * np.arange(64) / 64
        nodes = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return NormalSphereRule(nodes, np.full(64, 2.0 * np.pi / 64))
    if n == 3:
        x, w = np.polynomial.legendre.leggauss(32)  # x = cos(polar angle)
        phi = 2.0 * np.pi * np.arange(64) / 64
        sin_pol = np.sqrt(1.0 - x**2)
        nodes = np.stack(
            [
                np.outer(sin_pol, np.cos(phi)).ravel(),
                np.outer(sin_pol, np.sin(phi)).ravel(),
                np.outer(x, np.ones(64)).ravel(),
            ],
            axis=1,
        )
        weights = np.outer(w, np.full(64, 2.0 * np.pi / 64)).ravel()
        return NormalSphereRule(nodes, weights)
    rng = np.random.default_rng(_MC_SEED)
    raw = rng.standard_normal((4096, n))
    nodes = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    return NormalSphereRule(nodes, np.full(4096, sphere_volume(n - 1) / 4096))


def _curvature_route(route: str, n: int):
    """The batched K_M kernel (metric or det(metric), second form) -> (B,) of a named route."""
    if route == "moments":
        return batched_curvature_moments
    if route == "quadrature":
        rule = normal_sphere_rule(n)
        return lambda metric, second: batched_curvature_quadrature(metric, second, rule)
    raise ValueError(f"unknown curvature route {route!r}")


def batched_curvature(imm: Immersion, U: np.ndarray, route: str = "moments") -> np.ndarray:
    """Generalized curvature K_M at a batch of parameter points."""
    curvature = _curvature_route(route, imm.n)
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
    curvature = _curvature_route(route, imm.n)
    ratio = sphere_volume(imm.k - 1) / sphere_volume(imm.n - 1)

    def integrand(U):
        metric, second, _ = frames_at(imm, U)
        det_g = np.linalg.det(metric)
        return curvature(det_g, second) * np.sqrt(det_g)

    integral, grid_shape, error_estimate, converged = reduce_until_converged(
        imm, integrand, ratio, grid)
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
