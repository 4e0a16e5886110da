"""Directional and generalized Gaussian curvature, by independent routes.

The generalized curvature K_M at a point is the normalized average of the
directional curvature K^nu = det(Pi^nu)/det(I) over the unit normal
sphere.  Two batched routes compute it from the chart-coordinate second
form, dividing by det(I) once:

  * `batched_curvature_moments` — closed-form normal-sphere moments
    (Gamma quotients) contracted against determinants of row-mixed
    second-form matrices; exact up to roundoff, and exactly zero in odd
    dimension by parity.
  * `batched_curvature_quadrature` — direct numerical averaging over a
    normal-sphere rule.

A third, intrinsic route goes through the Gauss equation (or finite
differences of the metric alone) to the Riemann tensor and its Pfaffian
density; `egregium_report` compares all routes at a point.  Riemann
tensors are expressed in the orthonormal tangent basis obtained by
Cholesky whitening of the metric, so they compare across routes and charts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedDimensionError
from .immersion import FrameData, Immersion, frame_data_at, induced_metric, jets_at

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
    "egregium_report",
]


@dataclass(frozen=True)
class NormalDirection:
    """Unit vector in the normal space, as coefficients in a normal frame."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        nrm = np.linalg.norm(self.coeffs)
        if not abs(nrm - 1.0) <= 1e-10:
            raise ValueError(f"normal direction coefficients have norm {nrm}, expected 1")

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

    @property
    def m(self) -> int:
        return self.R.shape[0]

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
    """K_M by every route at one point, with pairwise residuals."""

    k_moments: float
    k_quadrature: float
    pfaffian_density: float
    egregium_lhs: float
    route_residual: float
    egregium_residual: float


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


def directional_curvature(fd: FrameData, nu: NormalDirection) -> float:
    """K^nu = det(sum_s nu_s Pi_s) / det(metric)."""
    _check_direction(nu, fd.n)
    pi_nu = np.einsum("s,sij->ij", nu.coeffs, fd.second_form)
    return float(np.linalg.det(pi_nu) / np.linalg.det(fd.metric))


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
    alphas = []
    moments = []
    for alpha in itertools.product(range(n), repeat=m):
        counts = np.bincount(alpha, minlength=n)
        if np.any(counts % 2):
            continue
        alphas.append(alpha)
        moments.append(sphere_moment(counts // 2))
    return np.array(alphas, dtype=int), np.array(moments)


def _metric_det(metric: np.ndarray) -> np.ndarray:
    """det(I) of a batch of metrics (B,m,m); a (B,) array is taken as those determinants."""
    return metric if metric.ndim == 1 else np.linalg.det(metric)


def batched_curvature_moments(metric: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Moments-route K_M for a batch: metric (B,m,m), second form (B,n,m,m).

    Row-mixed determinants of the chart-coordinate form, divided by det(I)
    once: whitening scales their moment-weighted sum by exactly 1/det(I).
    A caller that needs det(I) itself may pass it, shape (B,), as `metric`.
    """
    b, n, m, _ = second.shape
    if m % 2:
        return np.zeros(b)
    alphas, moments = _even_index_table(m, n)
    acc = np.zeros(b)
    for alpha, moment in zip(alphas, moments):
        acc += moment * np.linalg.det(second[:, alpha, np.arange(m), :])
    return acc / _metric_det(metric) / sphere_volume(n - 1)


_QUADRATURE_BLOCK = 2048


def batched_curvature_quadrature(metric: np.ndarray, second: np.ndarray, rule) -> np.ndarray:
    """Rule-averaged K^nu for a batch; blocked to bound the (B, Q, m, m) buffer.

    `metric` is (B,m,m), or its determinants (B,) as in `batched_curvature_moments`.
    """
    b = metric.shape[0]
    out = np.empty(b)
    for start in range(0, b, _QUADRATURE_BLOCK):
        stop = start + _QUADRATURE_BLOCK
        pi_nu = np.einsum("qs,bsij->bqij", rule.nodes, second[start:stop])
        out[start:stop] = np.linalg.det(pi_nu) @ rule.weights
    return out / _metric_det(metric) / sphere_volume(second.shape[1] - 1)


def generalized_curvature_moments(fd: FrameData) -> float:
    """K_M via closed-form normal-sphere moments; exactly 0 for odd m."""
    return float(batched_curvature_moments(fd.metric[None], fd.second_form[None])[0])


def generalized_curvature_quadrature(fd: FrameData, rule) -> float:
    """K_M as the rule-weighted average of K^nu over the unit normal sphere."""
    if rule.nodes.shape[1] != fd.n:
        raise ValueError(f"rule is on S^{rule.nodes.shape[1] - 1}, codimension is {fd.n}")
    return float(batched_curvature_quadrature(fd.metric[None], fd.second_form[None], rule)[0])


# -- Riemann tensor and Pfaffian ------------------------------------------


def gauss_equation_tensor(fd: FrameData) -> CurvatureTensor:
    """Riemann tensor of the induced metric from the second fundamental form."""
    pi_orth = whiten_second_form(fd.metric, fd.second_form)
    R = np.einsum("sil,sjk->ijkl", pi_orth, pi_orth) - np.einsum(
        "sik,sjl->ijkl", pi_orth, pi_orth
    )
    return CurvatureTensor(R=R)


_FD_WEIGHTS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
_FD_OFFSETS = np.array([-2, -1, 1, 2])


def _christoffel_batch(imm: Immersion, centers: np.ndarray, h: np.ndarray):
    """Christoffel symbols at each center by 5-point differencing of the metric."""
    b = centers.shape[0]
    m = imm.m
    stencil = [centers]
    for i in range(m):
        for off in _FD_OFFSETS:
            shifted = centers.copy()
            shifted[:, i] += off * h[i]
            stencil.append(shifted)
    G_all = induced_metric(jets_at(imm, np.concatenate(stencil, axis=0), order=1)[1])
    G0 = G_all[:b]
    dG = np.empty((b, m, m, m))
    for i in range(m):
        block = G_all[b * (1 + 4 * i): b * (1 + 4 * (i + 1))].reshape(4, b, m, m)
        dG[:, i] = np.einsum("f,fbjk->bjk", _FD_WEIGHTS, block) / h[i]
    Ginv = np.linalg.inv(G0)
    # Gamma^r_{ns} = 1/2 g^{rl} (d_n g_{ls} + d_s g_{ln} - d_l g_{ns})
    sym = np.einsum("bnls->blns", dG) + np.einsum("bsln->blns", dG) - dG
    gamma = 0.5 * np.einsum("brl,blns->brns", Ginv, sym)
    return gamma, G0


def intrinsic_curvature_fd(imm: Immersion, u) -> CurvatureTensor:
    """Riemann tensor from the metric alone, by nested finite differences.

    Uses no second derivatives of the chart: the metric comes from 1-jets,
    Christoffels from 5-point differences of the metric, and the curvature
    from 5-point differences of the Christoffels.  Agreement with
    `gauss_equation_tensor` is finite-difference limited (~1e-5).
    """
    u = imm.wrap(u)
    m = imm.m
    h = np.array([1e-4 * ax.length for ax in imm.domain])
    for i, ax in enumerate(imm.domain):
        if not ax.periodic and not (ax.lo <= u[i] - 4 * h[i] and u[i] + 4 * h[i] <= ax.hi):
            raise DomainError(
                f"{imm.name}: difference stencil at coordinate {i} = {u[i]} leaves [{ax.lo}, {ax.hi}]"
            )
    centers = [u[None, :]]
    for mu in range(m):
        for off in _FD_OFFSETS:
            shifted = u.copy()
            shifted[mu] += off * h[mu]
            centers.append(shifted[None, :])
    gamma_all, G_all = _christoffel_batch(imm, np.concatenate(centers, axis=0), h)
    gamma0 = gamma_all[0]
    dgamma = np.empty((m, m, m, m))  # dgamma[mu, r, n, s] = d_mu Gamma^r_{ns}
    for mu in range(m):
        block = gamma_all[1 + 4 * mu: 1 + 4 * (mu + 1)]
        dgamma[mu] = np.einsum("f,frns->rns", _FD_WEIGHTS, block) / h[mu]
    # R^r_{s mu nu} = d_mu Gamma^r_{nu s} - d_nu Gamma^r_{mu s} + Gamma Gamma terms
    upper = (
        np.einsum("mrns->rsmn", dgamma)
        - np.einsum("nrms->rsmn", dgamma)
        + np.einsum("rml,lns->rsmn", gamma0, gamma0)
        - np.einsum("rnl,lms->rsmn", gamma0, gamma0)
    )
    low = np.einsum("rl,lsmn->rsmn", G_all[0], upper)
    # match the Gauss-equation index order: R[i,j,k,l] = low[l,k,i,j]
    R_coord = np.transpose(low, (2, 3, 1, 0))
    W = np.linalg.inv(np.linalg.cholesky(G_all[0])).T
    R_on = np.einsum("ia,jb,kc,ld,ijkl->abcd", W, W, W, W, R_coord)
    return CurvatureTensor(R=R_on)


@lru_cache(maxsize=None)
def _perm_table(m: int):
    perms = list(itertools.permutations(range(m)))
    signs = []
    for p in perms:
        inversions = sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m))
        signs.append(-1.0 if inversions % 2 else 1.0)
    return np.array(perms, dtype=int), np.array(signs)


def pfaffian_density(tensor: CurvatureTensor) -> float:
    """Density of the Pfaffian of the curvature forms against the volume form.

    Double permutation sum with coefficient (-1)^r / (2^(m+r) pi^r r!),
    r = m/2; supported for m in {2, 4}.  Integrates to the Euler
    characteristic over a closed surface.
    """
    m = tensor.m
    if m % 2:
        raise UnsupportedDimensionError("Pfaffian undefined for odd dimension")
    if m not in (2, 4):
        raise UnsupportedDimensionError(f"Pfaffian density implemented for m in {{2, 4}}, got {m}")
    r = m // 2
    perms, signs = _perm_table(m)
    R = tensor.R
    prod = np.ones((len(perms), len(perms)))
    for t in range(r):
        i, j = perms[:, 2 * t], perms[:, 2 * t + 1]
        prod *= R[i[:, None], j[:, None], perms[None, :, 2 * t], perms[None, :, 2 * t + 1]]
    total = float(np.einsum("e,t,et->", signs, signs, prod))
    coeff = (-1.0) ** r / (2.0 ** (m + r) * math.pi**r * math.factorial(r))
    return coeff * total


def egregium_report(imm: Immersion, u) -> CurvatureReport:
    """Compare every curvature route at one parameter point (even m only)."""
    from .integrate import normal_sphere_rule

    fd = frame_data_at(imm, u)
    if fd.m % 2:
        raise UnsupportedDimensionError("Pfaffian undefined for odd dimension")
    k_m = generalized_curvature_moments(fd)
    k_q = generalized_curvature_quadrature(fd, normal_sphere_rule(fd.n))
    pff = pfaffian_density(gauss_equation_tensor(fd))
    lhs = sphere_volume(fd.n - 1) / sphere_volume(imm.k - 1) * k_m
    return CurvatureReport(
        k_moments=k_m,
        k_quadrature=k_q,
        pfaffian_density=pff,
        egregium_lhs=lhs,
        route_residual=abs(k_m - k_q),
        egregium_residual=abs(lhs - pff),
    )
