"""Directional and generalized Gaussian curvature, by independent routes.

The generalized curvature K_M at a point is the normalized average of the
directional curvature K^nu = det(Pi^nu)/det(I) over the unit normal
sphere.  Two batched routes compute it from the chart-coordinate second
form, dividing by det(I) once:

  * `batched_curvature_moments` — closed-form normal-sphere moments
    (Gamma quotients) contracted against determinants of row-mixed
    second-form matrices; exact up to roundoff, and exactly zero in odd
    dimension by parity.
  * `batched_curvature_quadrature` — direct averaging over a normal-sphere
    rule, exact in codimension n <= 3 and Monte Carlo above.

A third, intrinsic route goes through the Gauss equation (or finite
differences of the metric alone) to the Riemann tensor and its Pfaffian
density.  `curvature_report` compares all routes at a point u (m,) or over a
batch U (B, m); a point is a batch of one, and no point's values depend on its
batch.  Riemann tensors are expressed in the orthonormal tangent basis
obtained by Cholesky whitening, so they compare across routes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, UnsupportedDimensionError
from .immersion import FrameData, Immersion, _stacked_jets, frames_at, induced_metric
from .immersion import frame_data_at  # unused here: perfbench/tracing.py wraps this binding

__all__ = [
    "NormalDirection",
    "CurvatureTensor",
    "CurvatureReport",
    "sphere_volume",
    "sphere_moment",
    "directional_curvature",
    "generalized_curvature_moments",
    "generalized_curvature_quadrature",
    "batched_curvature_moments",
    "batched_curvature_quadrature",
    "whiten_second_form",
    "gauss_equation_tensor",
    "intrinsic_curvature_fd",
    "pfaffian_density",
    "curvature_report",
    "egregium_report",
]


@dataclass(frozen=True)
class NormalDirection:
    """Unit vector in the normal space, as coefficients in a normal frame."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        nrm = np.linalg.norm(self.coeffs)
        if self.coeffs.ndim != 1 or not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(
                f"normal direction coefficients of shape {self.coeffs.shape}, norm {nrm}: expected a unit vector")

    @staticmethod
    def unit(vec) -> "NormalDirection":
        vec = np.asarray(vec, dtype=float)
        return NormalDirection(vec / np.linalg.norm(vec))


@dataclass
class CurvatureTensor:
    """Riemann coefficients R[i,j,k,l] in an orthonormal tangent basis.

    Index convention: R[i,j,k,l] = <Pi(e_i,e_l), Pi(e_j,e_k)> -
    <Pi(e_i,e_k), Pi(e_j,e_l)>, so the unit round sphere has R[0,1,1,0] = 1.
    """

    R: np.ndarray

    def symmetry_residual(self) -> float:
        """Worst violation of antisymmetry, pair symmetry, and first Bianchi."""
        R = self.R
        res = max(
            np.abs(R + np.transpose(R, (1, 0, 2, 3))).max(),
            np.abs(R + np.transpose(R, (0, 1, 3, 2))).max(),
            np.abs(R - np.transpose(R, (2, 3, 0, 1))).max(),
        )
        bianchi = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
        return float(max(res, np.abs(bianchi).max()))


@dataclass
class CurvatureReport:
    """K_M by every route at one point, with pairwise residuals; over a batch, (B,) arrays.

    Field order is the row order of the `curvature` command's report: the two K_M
    routes and their residual, then the Pfaffian side of the egregium check (None at odd m).
    """

    k_moments: float
    k_quadrature: float
    route_residual: float
    pfaffian_density: Optional[float]
    egregium_lhs: Optional[float]
    egregium_residual: Optional[float]


def _first(batch):
    """A batch of one read at its point, nested results too: (1,) arrays become scalars, others drop axis 0."""
    def at(v):
        if is_dataclass(v):
            return _first(v)
        return v if v is None else v[0].item() if getattr(v, "ndim", 0) == 1 else v[0]
    return replace(batch, **{f.name: at(getattr(batch, f.name)) for f in fields(batch)})


def _combine(c, a):
    """sum_s c[s] * a[s] for c (r, B) and a (r, ..., B), batch axis last: elementwise, in the order of s."""
    return sum(c[s] * a[s] for s in range(len(c)))


# -- sphere volumes and moments -------------------------------------------


def sphere_volume(d: int) -> float:
    """Volume of the unit d-sphere, 2 pi^((d+1)/2) / Gamma((d+1)/2); d=0 gives 2."""
    if d < 0:
        raise ValueError(f"sphere dimension {d} must be >= 0")
    h = 0.5 * (d + 1)
    return 2.0 * math.pi**h / math.gamma(h)


def sphere_moment(a) -> float:
    """Integral of prod_i nu_i^(2 a_i) over the unit sphere in R^n (n = len(a)).

    Closed form 2 prod Gamma(a_i + 1/2) / Gamma(n/2 + sum a_i), evaluated in
    log space.  Monomials with any odd exponent integrate to zero by parity;
    callers short-circuit those.
    """
    a = np.asarray(a)
    if a.ndim != 1 or len(a) < 1:
        raise ValueError("expected a nonempty vector of exponents")
    if np.any(a < 0) or not np.issubdtype(a.dtype, np.integer):
        raise ValueError("exponents must be nonnegative integers")
    n = len(a)
    log_num = sum(math.lgamma(ai + 0.5) for ai in a)
    return 2.0 * math.exp(log_num - math.lgamma(0.5 * n + int(a.sum())))


# -- directional and generalized curvature --------------------------------


def _check_direction(nu: NormalDirection, n: int) -> None:
    if len(nu.coeffs) != n:
        raise ValueError(f"direction has {len(nu.coeffs)} coefficients, codimension is {n}")


def _directional_curvatures(metric: np.ndarray, second: np.ndarray, C: np.ndarray) -> np.ndarray:
    """K^nu for a batch: metric (B,m,m), second form (B,n,m,m), direction coefficients C (n, B)."""
    return _det(_combine(C, np.moveaxis(second, 0, -1))) / _det(np.moveaxis(metric, 0, -1))


def directional_curvature(fd: FrameData, nu: NormalDirection) -> float:
    """K^nu = det(sum_s nu_s Pi_s) / det(metric)."""
    _check_direction(nu, fd.n)
    return _directional_curvatures(fd.metric[None], fd.second_form[None], nu.coeffs[:, None]).item()


def whiten_second_form(metric: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Second form in the orthonormal tangent basis e_a = sum_i W[i,a] d_i.

    W = inverse transpose of the Cholesky factor of the metric.  Accepts
    single points or batches.
    """
    Linv = np.linalg.inv(np.linalg.cholesky(metric))
    return np.einsum("...ij,...sjk,...lk->...sil", Linv, second, Linv)


@lru_cache(maxsize=None)
def _even_index_table(m: int, n: int):
    """All alpha in {0..n-1}^m whose value counts are even, with their moments."""
    counts = {alpha: np.bincount(alpha, minlength=n) for alpha in itertools.product(range(n), repeat=m)}
    alphas = tuple(alpha for alpha, c in counts.items() if not np.any(c % 2))
    return alphas, tuple(sphere_moment(counts[alpha] // 2) for alpha in alphas)


def _add_row(minors: dict, row) -> dict:
    """Laplace step: from the minors of some bottom rows, keyed by their column sets,
    to those of the same rows with `row` (m, ...) on top."""
    size = len(next(iter(minors))) + 1
    out = {}
    for cols in itertools.combinations(range(len(row)), size):
        acc = row[cols[0]] * minors[cols[1:]]
        for t in range(1, size):
            term = row[cols[t]] * minors[cols[:t] + cols[t + 1:]]
            if t % 2:
                acc -= term
            else:
                acc += term
        out[cols] = acc
    return out


def _minors(rows) -> dict:
    """Maximal minors of r rows (r, k, ...), batch axes last, keyed by column set, by bottom-up Laplace
    expansion: those of the last row, the last two, ..., all r.  Elementwise only (arrays or jets)."""
    minors = {(): 1.0}
    for row in rows[::-1]:
        minors = _add_row(minors, row)
    return minors


def _det(a) -> np.ndarray:
    """Determinants of square matrices a (m, m, ...), batch axes last; a NaN entry gives a NaN."""
    return _minors(a)[tuple(range(len(a)))]


def batched_curvature_moments(metric: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Moments-route K_M for a batch: metric (B,m,m), second form (B,n,m,m).

    Row-mixed determinants of the chart-coordinate form, divided by det(I)
    once: whitening scales their moment-weighted sum by exactly 1/det(I).
    A caller that needs det(I) itself may pass it, shape (B,), as `metric`.
    The kernel works on (n,m,m,B) batch-last storage: a view when `second` is
    itself a view of such storage, as from `frames_at`, and one copy otherwise.
    Row i of the determinant for alpha is second[alpha_i, i], so the minors
    over rows i..m-1 depend on alpha[i:] only; for i >= 2, where alphas share
    them, they are built once per suffix.
    """
    b, n, m, _ = second.shape
    if m % 2:
        return np.zeros(b)
    second = np.ascontiguousarray(np.moveaxis(second, 0, -1))
    det_g = metric if metric.ndim == 1 else _det(np.moveaxis(metric, 0, -1))
    alphas, moments = _even_index_table(m, n)
    memo = {(): {(): 1.0}}
    acc = np.zeros(b)
    for alpha, moment in zip(alphas, moments):
        for i in range(m - 1, 1, -1):
            if alpha[i:] not in memo:
                memo[alpha[i:]] = _add_row(memo[alpha[i + 1:]], second[alpha[i], i])
        minors = _add_row(memo[alpha[2:]], second[alpha[1], 1])
        acc += moment * _add_row(minors, second[alpha[0], 0])[tuple(range(m))]
    return acc / det_g / sphere_volume(n - 1)


_QUADRATURE_BLOCK = 2048


def batched_curvature_quadrature(metric: np.ndarray, second: np.ndarray) -> np.ndarray:
    """K^nu averaged by `normal_sphere_rule(m, n)` over a batch, blocked to bound the (m,m,B,Q) buffer.

    `metric` is (B,m,m), or its determinants (B,) as in `batched_curvature_moments`.
    """
    from .integrate import normal_sphere_rule  # read at call time: no cycle, and it may be wrapped

    b, n, m = second.shape[:3]
    rule = normal_sphere_rule(m, n)
    det_g = metric if metric.ndim == 1 else _det(np.moveaxis(metric, 0, -1))
    second = np.moveaxis(second, 0, -1)  # (n, m, m, B)
    out = np.empty(b)
    for start in range(0, b, _QUADRATURE_BLOCK):
        stop = start + _QUADRATURE_BLOCK
        pi_nu = np.tensordot(second[..., start:stop], rule.nodes, axes=(0, 1))  # (m, m, b, Q)
        out[start:stop] = np.einsum("bq,q->b", _det(pi_nu), rule.weights)  # per row, unlike a BLAS gemv
    return out / det_g / sphere_volume(n - 1)


def generalized_curvature_moments(fd: FrameData) -> float:
    """K_M via closed-form normal-sphere moments; exactly 0 for odd m."""
    return float(batched_curvature_moments(fd.metric[None], fd.second_form[None])[0])


def generalized_curvature_quadrature(fd: FrameData) -> float:
    """K_M as the `normal_sphere_rule` average of K^nu over the unit normal sphere."""
    return float(batched_curvature_quadrature(fd.metric[None], fd.second_form[None])[0])


# -- Riemann tensor and Pfaffian ------------------------------------------


def _gauss_equation(metric: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Riemann coefficients R (m, m, m, m, B), batch axis last, of metric (B,m,m) and second (B,n,m,m):
    R[i,j,k,l] = sum_s pi[s,i,l] pi[s,j,k] - sum_s pi[s,i,k] pi[s,j,l], pi the whitened form,
    summed in the order of s."""
    pi = np.moveaxis(whiten_second_form(metric, second), 0, -1)
    return sum(p[:, None, None, :] * p[None, :, :, None] for p in pi) - sum(
        p[:, None, :, None] * p[None, :, None, :] for p in pi)


def gauss_equation_tensor(fd: FrameData) -> CurvatureTensor:
    """Riemann tensor of the induced metric from the second fundamental form."""
    return CurvatureTensor(R=_gauss_equation(fd.metric[None], fd.second_form[None])[..., 0])


_FD_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FD_OFFSETS = np.array([-2, -1, 1, 2])


def _five_point(f, U, h):
    """f (P, m) -> (P, ...) at the points U (B, m), and its partials (B, m, ...) by
    the 5-point rule: one call of f on U and its 4m copies shifted by _FD_OFFSETS * h[i]."""
    b, m = U.shape
    stencil = [U]
    for i in range(m):
        for off in _FD_OFFSETS:
            shifted = U.copy()
            shifted[:, i] += off * h[i]
            stencil.append(shifted)
    F = f(np.concatenate(stencil, axis=0))
    blocks = F[b:].reshape(m, 4, b, *F.shape[1:])
    partials = [np.einsum("f,fb...->b...", _FD_WEIGHTS, blocks[i]) / h[i] for i in range(m)]
    return F[:b], np.stack(partials, axis=1)


def _christoffel(imm: Immersion, U: np.ndarray, h: np.ndarray):
    """Christoffel symbols Gamma^r_{ns} (B, m, m, m), by 5-point differences of the
    metric, and the metric (B, m, m) at U."""
    def metric(V):
        return np.moveaxis(induced_metric(_stacked_jets(imm, V, order=1)[1]), -1, 0)

    G, dG = _five_point(metric, U, h)
    # Gamma^r_{ns} = 1/2 g^{rl} (d_n g_{ls} + d_s g_{ln} - d_l g_{ns})
    sym = np.einsum("bnls->blns", dG) + np.einsum("bsln->blns", dG) - dG
    return 0.5 * np.einsum("brl,blns->brns", np.linalg.inv(G), sym), G


def intrinsic_curvature_fd(imm: Immersion, u) -> CurvatureTensor:
    """Riemann tensor from the metric alone, by nested finite differences.

    Uses no second derivatives of the chart: the metric comes from 1-jets,
    Christoffels from 5-point differences of the metric, and the curvature
    from 5-point differences of the Christoffels.  Agreement with
    `gauss_equation_tensor` is finite-difference limited (1e-10 to 4e-8 on the catalog).
    """
    u = imm.wrap(u)
    h = np.array([1e-4 * ax.length for ax in imm.domain])
    for i, ax in enumerate(imm.domain):
        if not ax.periodic and not (ax.lo <= u[i] - 4 * h[i] and u[i] + 4 * h[i] <= ax.hi):
            raise DomainError(
                f"{imm.name}: difference stencil at coordinate {i} = {u[i]} leaves [{ax.lo}, {ax.hi}]"
            )
    metrics = []

    def christoffel(V):
        gamma, G = _christoffel(imm, V, h)
        metrics.append(G)
        return gamma

    gamma, dgamma = _five_point(christoffel, u[None, :], h)
    gamma0, dgamma = gamma[0], dgamma[0]  # dgamma[mu, r, n, s] = d_mu Gamma^r_{ns}
    G0 = metrics[0][0]  # the stencil's first point is u
    # R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s} + Gamma Gamma terms
    upper = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma0, gamma0)
        - np.einsum("rnl,lms->rsmn", gamma0, gamma0)
    )
    low = np.einsum("rl,lsmn->rsmn", G0, upper)
    # match the Gauss-equation index order: R[i,j,k,l] = low[l,k,i,j]
    R_coord = np.transpose(low, (2, 3, 1, 0))
    W = np.linalg.inv(np.linalg.cholesky(G0)).T
    R_on = np.einsum("ia,jb,kc,ld,ijkl->abcd", W, W, W, W, R_coord)
    return CurvatureTensor(R=R_on)


def _check_pfaffian_dimension(m: int, name: str = "") -> None:
    """Refuse m outside {2, 4}, naming the immersion if given: the Pfaffian density is written for those."""
    if m not in (2, 4):
        reason = "undefined for odd dimension" if m % 2 else "density implemented for m in {2, 4}, got"
        raise UnsupportedDimensionError(f"{name + ': ' if name else ''}Pfaffian {reason} m = {m}")


def _pfaffian_densities(R: np.ndarray) -> np.ndarray:
    """`pfaffian_density` for Riemann coefficients R (m, m, m, m, B), batch axis last: sums over
    indices are elementwise, in a fixed order."""
    m = len(R)
    _check_pfaffian_dimension(m)
    if m == 2:
        return R[0, 1, 1, 0] / (2.0 * math.pi)
    ric = sum(R[i, :, :, i] for i in range(m))
    scal = sum(ric[i, i] for i in range(m))
    rm2, ric2 = (sum(r * r for r in t.reshape(-1, t.shape[-1])) for t in (R, ric))
    return (rm2 - 4.0 * ric2 + scal * scal) / (32.0 * math.pi**2)


def pfaffian_density(tensor: CurvatureTensor) -> float:
    """Density of the Pfaffian of the curvature forms against the volume form.

    Supported for m in {2, 4}, in closed form: R[0,1,1,0] / (2 pi) at m = 2,
    and Chern's integrand (|Rm|^2 - 4 |Ric|^2 + Scal^2) / (32 pi^2) at m = 4
    (Chern, Ann. of Math. 45, 1944), with Ric[j,k] = sum_i R[i,j,k,i] and
    Scal its trace.  Integrates to the Euler characteristic over a closed
    manifold.
    """
    return _pfaffian_densities(tensor.R[..., None]).item()


def curvature_report(imm: Immersion, u) -> CurvatureReport:
    """Every curvature route at a parameter point u (m,), or over a batch U (B, m) as a report of (B,)
    arrays.  At odd m the Pfaffian fields are None; m = 6 and up are refused, named."""
    if imm.m % 2 == 0:
        _check_pfaffian_dimension(imm.m, imm.name)
    batch = np.ndim(u) == 2
    metric, second, _ = frames_at(imm, np.array([imm.wrap(v) for v in (u if batch else [u])]))
    det_g = _det(np.moveaxis(metric, 0, -1))
    k_m = batched_curvature_moments(det_g, second)
    k_q = batched_curvature_quadrature(det_g, second)
    pff = lhs = residual = None
    if imm.m % 2 == 0:
        pff = _pfaffian_densities(_gauss_equation(metric, second))
        lhs = sphere_volume(imm.n - 1) / sphere_volume(imm.k - 1) * k_m
        residual = np.abs(lhs - pff)
    rep = CurvatureReport(k_m, k_q, np.abs(k_m - k_q), pff, lhs, residual)
    return rep if batch else _first(rep)


def egregium_report(imm: Immersion, u) -> CurvatureReport:
    """`curvature_report` at a point or over a batch, for m in {2, 4} only: other m are refused, named."""
    _check_pfaffian_dimension(imm.m, imm.name)
    return curvature_report(imm, u)
