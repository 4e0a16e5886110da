"""Seeded op lists for the three benchmark workloads, and the op gate.

A workload is built by a set-up function from a seed.  Set-up makes every
input the library sees (parameter points, normal directions, polynomial
graph coefficients) with the benchmark's own generator, and builds the
catalog entries, graphs and tube boundaries the ops need.  Each op then
makes one checked call into curvlab's public API.

Ops look curvlab functions up through the package namespace at call time
(``cl.egregium_report(...)``), never through a name bound at set-up, so the
wrappers that ``tracing`` installs there see every call.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import curvlab as cl

TWO_PI = 2.0 * math.pi

# Acceptance tolerances, by criterion number of tests/test_acceptance.py.
TOL_CODIM2_GB = 1e-7  # 2: sphere2_r4 total curvature, absolute
TOL_M4_GB_REL = 1e-4  # 3: product_s2s2_r6 total curvature, relative
TOL_EGREGIUM = 1e-9  # 4: |egregium lhs - Pfaffian density|
TOL_ROUTE = 1e-8  # 5: |K moments - K quadrature|
TOL_TUBE_IDENTITY = 1e-6  # 7: relative residual of the tube rescaling identity
TOL_INTRINSIC = 1e-4  # 10: max |Gauss-equation R - finite-difference R|
TOL_CHI_DISTANCE = 1e-3  # 11: distance of the raw chi estimate from an integer

# Failures the benchmark counts but does not treat as a wrong result.  For
# n >= 4, normal_sphere_rule is a 4096-node Monte Carlo rule, so the
# quadrature route misses route agreement by about 1e-5 there.  The
# acceptance sweep samples n <= 3 only; this workload keeps the n = 4 graphs
# so the defect shows in `failed` until the rule is replaced.
KNOWN_DEFECTS = {("egregium.graph_n4", "route_residual")}


@dataclass(frozen=True)
class Check:
    """One comparison of an error against its tolerance."""

    name: str
    err: float
    tol: float

    def passed(self) -> bool:
        # `err < tol` is False for NaN, so a NaN error fails.
        return bool(self.err < self.tol)


@dataclass(frozen=True)
class Outcome:
    """What one op returned: the values it computed and the checks on them."""

    values: tuple[float, ...]
    checks: tuple[Check, ...]


def failed_checks(outcome: Outcome) -> list[str]:
    """Names of the checks an op failed; non-finite values fail as `non_finite`."""
    bad = [c.name for c in outcome.checks if not c.passed()]
    if not all(math.isfinite(v) for v in outcome.values):
        bad.append("non_finite")
    return bad


@dataclass(frozen=True)
class Op:
    cls: str  # op class, the unit of failure accounting
    call: Callable[[], Outcome]


@dataclass
class Workload:
    ops: list[Op]
    digest: str  # sha256 of every generated input, to show a seed fixes them


class _Inputs:
    """Seeded generator of the inputs; hashes everything it hands out."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._hash = hashlib.sha256()

    def note(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._hash.update(np.ascontiguousarray(item, dtype=float).tobytes())
            else:
                self._hash.update(repr(item).encode())

    def points(self, imm, count: int, margin: float) -> np.ndarray:
        """Uniform parameter points; non-periodic axes keep `margin` of their length free."""
        cols = []
        for ax in imm.domain:
            pad = 0.0 if ax.periodic else margin * (ax.hi - ax.lo)
            hi = ax.hi if ax.periodic else ax.hi - pad
            cols.append(self.rng.uniform(ax.lo + pad, hi, size=count))
        U = np.stack(cols, axis=1)
        self.note(imm.name, U)
        return U

    def direction(self, n: int) -> np.ndarray:
        if n == 1:
            v = np.array([self.rng.choice([-1.0, 1.0])])
        else:
            v = self.rng.standard_normal(n)
            v = v / np.linalg.norm(v)
        self.note(v)
        return v

    def graph_terms(self, n: int, degree: int = 3, scale: float = 0.3):
        """Coefficients of a random m = 2 polynomial graph into R^n, as random_graph_poly draws them."""
        exps = [e for e in np.ndindex(degree + 1, degree + 1) if 1 <= sum(e) <= degree]
        terms = []
        for _ in range(n):
            coeffs = self.rng.uniform(-scale, scale, size=len(exps)) / len(exps)
            self.note(coeffs)
            terms.append([(float(c), e) for c, e in zip(coeffs, exps)])
        return terms

    def digest(self) -> str:
        return self._hash.hexdigest()


# -- op constructors --------------------------------------------------------


def _gauss_bonnet_op(cls, imm, route, expected, tol, relative):
    def call():
        rep = cl.gauss_bonnet_check(imm, route=route)
        err = abs(rep.integral - expected)
        if relative:
            err /= abs(expected)
        return Outcome(
            values=(rep.integral, float(rep.estimated_chi), rep.chi_distance),
            checks=(
                Check("integral", err, tol),
                Check("chi", abs(rep.estimated_chi - imm.euler_char), 0.5),
                Check("chi_distance", rep.chi_distance, TOL_CHI_DISTANCE),
            ),
        )

    return Op(cls, call)


def _tube_total_op(cls, cfg, expected, tol):
    def call():
        res = cl.tube_total_curvature(cfg)
        return Outcome(
            values=(res.integral,) + tuple(res.per_sheet),
            checks=(Check("integral", abs(res.integral - expected), tol),),
        )

    return Op(cls, call)


def _egregium_op(cls, imm, u):
    def call():
        rep = cl.egregium_report(imm, u)
        return Outcome(
            values=(rep.k_moments, rep.k_quadrature, rep.pfaffian_density, rep.egregium_lhs),
            checks=(
                Check("egregium_residual", rep.egregium_residual, TOL_EGREGIUM),
                Check("route_residual", rep.route_residual, TOL_ROUTE),
            ),
        )

    return Op(cls, call)


def _intrinsic_op(cls, imm, u):
    def call():
        gauss = cl.gauss_equation_tensor(cl.frame_data_at(imm, u)).R
        fd = cl.intrinsic_curvature_fd(imm, u).R
        return Outcome(
            values=tuple(gauss.ravel().tolist()) + tuple(fd.ravel().tolist()),
            checks=(Check("max_abs_diff", float(np.max(np.abs(gauss - fd))), TOL_INTRINSIC),),
        )

    return Op(cls, call)


def _tube_identity_op(cls, cfg, u, nu, boundary):
    def call():
        res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
        return Outcome(
            values=(res.lhs, res.rhs),
            checks=(Check("relative", res.relative, TOL_TUBE_IDENTITY),),
        )

    return Op(cls, call)


# -- workloads --------------------------------------------------------------


def gauss_bonnet(seed: int) -> Workload:
    """The heaviest user call, on the default grid, plus the quadrature route.

    Nothing here is random: the grid is the library's default policy.  The
    seed is only recorded.
    """
    gen = _Inputs(seed)
    product = cl.catalog_get("product_s2s2_r6")
    sphere = cl.catalog_get("sphere2_r4")
    gen.note("product_s2s2_r6:moments", "sphere2_r4:quadrature")
    ops = [
        _gauss_bonnet_op("gauss_bonnet.product_s2s2_r6", product, "moments",
                         2.0 * math.pi**2, TOL_M4_GB_REL, relative=True),
        _gauss_bonnet_op("gauss_bonnet.sphere2_r4_quadrature", sphere, "quadrature",
                         TWO_PI, TOL_CODIM2_GB, relative=False),
    ]
    return Workload(ops, gen.digest())


TUBE_TOTAL_CASES = (
    # (surface, eps, expected total, tolerance): the three cases of criterion 8
    ("sphere2_r4", 0.05, -4.0 * math.pi**2, 1e-3 * 4.0 * math.pi**2),
    ("sphere2_r3", 0.1, 8.0 * math.pi, 1e-3 * 8.0 * math.pi),
    ("circle_r3", 0.1, 0.0, 1e-6),
)


def tube_total(seed: int) -> Workload:
    """Total curvature of three tube boundaries; fixed radii, so the seed is only recorded."""
    gen = _Inputs(seed)
    ops = []
    for name, eps, expected, tol in TUBE_TOTAL_CASES:
        cfg = cl.TubeConfig(cl.catalog_get(name), eps)
        gen.note(name, eps)
        ops.append(_tube_total_op(f"tube_total.{name}", cfg, expected, tol))
    return Workload(ops, gen.digest())


# Per pass: twice the acceptance sweep of criteria 4/5, 7 and 10, so that
# at least 1000 ops run and at least 10 lie beyond the reported p99.
CATALOG_POINTS = 100  # egregium_report per even-m catalog entry
GRAPHS_PER_N = 10  # random m = 2 graphs for each n in GRAPH_CODIMS
GRAPH_POINTS = 5
GRAPH_CODIMS = (1, 2, 3, 4)
INTRINSIC_SURFACES = ("sphere2_r3", "torus_rev_r3", "clifford_torus_r4")
INTRINSIC_POINTS = 10
TUBE_SURFACES = ("sphere2_r4", "sphere2_r3", "circle_r3")
TUBE_POINTS = 27


def pointwise(seed: int) -> Workload:
    """A seeded, shuffled mix of single-point checks: batches of one through every layer."""
    gen = _Inputs(seed)
    ops = []
    for name in cl.catalog_names():
        imm = cl.catalog_get(name)
        if imm.m % 2:
            continue
        for u in gen.points(imm, CATALOG_POINTS, margin=0.05):
            ops.append(_egregium_op("egregium.catalog", imm, u))
    for n in GRAPH_CODIMS:
        for _ in range(GRAPHS_PER_N):
            imm = cl.graph_poly(2, n, gen.graph_terms(n))
            for u in gen.points(imm, GRAPH_POINTS, margin=0.05):
                ops.append(_egregium_op(f"egregium.graph_n{n}", imm, u))
    for name in INTRINSIC_SURFACES:
        imm = cl.catalog_get(name)
        for u in gen.points(imm, INTRINSIC_POINTS, margin=0.1):
            ops.append(_intrinsic_op("intrinsic_fd", imm, u))
    for name in TUBE_SURFACES:
        imm = cl.catalog_get(name)
        cfg = cl.TubeConfig(imm, imm.reach / 2.0)
        boundary = cl.tube_boundary_immersion(cfg)
        for u in gen.points(imm, TUBE_POINTS, margin=0.05):
            nu = cl.NormalDirection(gen.direction(imm.n))
            ops.append(_tube_identity_op(f"tube_identity.{name}", cfg, u, nu, boundary))
    order = gen.rng.permutation(len(ops))
    gen.note(order)
    return Workload([ops[i] for i in order], gen.digest())


BUILDERS = {"gauss_bonnet": gauss_bonnet, "tube_total": tube_total, "pointwise": pointwise}
