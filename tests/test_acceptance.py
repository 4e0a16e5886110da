"""Acceptance gate: eleven numbered criteria at fixed tolerances.

Each test prints one `criterion N: PASS/FAIL (...)` line on the real stdout
so the gate is readable straight off the pytest run. Expensive default
resolution Gauss-Bonnet runs are shared across criteria 2, 3 and 11 via a
module-scoped cache; everything else recomputes from scratch.
"""

import itertools
import math
import time

import numpy as np
import pytest

import curvlab as cl

TWO_PI = 2.0 * math.pi


@pytest.fixture
def announce(capfd):
    def _announce(num, ok, detail):
        with capfd.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")

    return _announce


def _timed_gauss_bonnet(name):
    imm = cl.catalog_get(name).without_euler_char()
    start = time.perf_counter()
    rep = cl.gauss_bonnet_check(imm)
    return rep, time.perf_counter() - start


@pytest.fixture(scope="module")
def gb_default():
    # chi withheld so the same runs also exercise the estimator (criterion 11)
    return {name: _timed_gauss_bonnet(name) for name in ("sphere2_r4", "product_s2s2_r6")}


@pytest.fixture(scope="module")
def egregium_sweep():
    """Worst egregium and route residuals over the shared sample set.

    Criteria 4 and 5 are defined over the same points: every even-m catalog
    entry at 50 random parameters plus 20 random polynomial graphs.
    """
    rng = np.random.default_rng(20260823)
    worst_egregium = 0.0
    worst_route = 0.0
    for name in cl.catalog_names():
        imm = cl.catalog_get(name)
        if imm.m % 2:
            continue
        for u in cl.sample_domain(imm, 50, rng):
            rep = cl.egregium_report(imm, u)
            worst_egregium = max(worst_egregium, rep.egregium_residual)
            worst_route = max(worst_route, rep.route_residual)
    for _ in range(20):
        imm = cl.random_graph_poly(rng, m=2, n=rng.integers(1, 4))
        for u in cl.sample_domain(imm, 5, rng):
            rep = cl.egregium_report(imm, u)
            worst_egregium = max(worst_egregium, rep.egregium_residual)
            worst_route = max(worst_route, rep.route_residual)
    return {"egregium": worst_egregium, "route": worst_route}


def test_criterion_1_classical_gauss_bonnet(announce):
    results = []
    for name, expected in (("sphere2_r3", 4.0 * math.pi), ("torus_rev_r3", 0.0)):
        start = time.perf_counter()
        rep = cl.gauss_bonnet_check(cl.catalog_get(name))
        elapsed = time.perf_counter() - start
        results.append((name, abs(rep.integral - expected), elapsed))
    ok = all(err < 1e-8 and t < 5.0 for _, err, t in results)
    detail = ", ".join(f"{n} err={e:.2e} {t:.1f}s" for n, e, t in results)
    announce(1, ok, detail)
    for name, err, elapsed in results:
        assert err < 1e-8, f"{name} residual {err}"
        assert elapsed < 5.0, f"{name} took {elapsed:.1f}s"


def test_criterion_2_codim2_gauss_bonnet(announce, gb_default):
    rep4, t4 = gb_default["sphere2_r4"]
    err4 = abs(rep4.integral - TWO_PI)
    start = time.perf_counter()
    repc = cl.gauss_bonnet_check(cl.catalog_get("clifford_torus_r4"))
    tc = time.perf_counter() - start
    errc = abs(repc.integral)
    ok = err4 < 1e-7 and errc < 1e-9 and t4 < 10.0 and tc < 10.0
    announce(2, ok, f"sphere2_r4 err={err4:.2e} {t4:.1f}s, clifford err={errc:.2e} {tc:.1f}s")
    assert err4 < 1e-7
    assert errc < 1e-9
    assert t4 < 10.0 and tc < 10.0


def test_criterion_3_m4_gauss_bonnet(announce, gb_default):
    start = time.perf_counter()
    rep5 = cl.gauss_bonnet_check(cl.catalog_get("sphere4_r5"))
    t5 = time.perf_counter() - start
    expected5 = 8.0 * math.pi**2 / 3.0
    rel5 = abs(rep5.integral - expected5) / expected5
    repp, tp = gb_default["product_s2s2_r6"]
    expectedp = 2.0 * math.pi**2
    relp = abs(repp.integral - expectedp) / expectedp
    ok = rel5 < 1e-4 and relp < 1e-4 and t5 < 60.0 and tp < 60.0
    announce(3, ok, f"sphere4_r5 rel={rel5:.2e} {t5:.1f}s, product rel={relp:.2e} {tp:.1f}s")
    assert rel5 < 1e-4
    assert relp < 1e-4
    assert t5 < 60.0 and tp < 60.0


def test_criterion_4_egregium_residual(announce, egregium_sweep):
    worst = egregium_sweep["egregium"]
    ok = worst < 1e-9
    announce(4, ok, f"max residual {worst:.2e} over catalog + 20 random graphs")
    assert worst < 1e-9


def test_criterion_5_route_agreement(announce, egregium_sweep):
    worst = egregium_sweep["route"]
    ok = worst < 1e-8
    announce(5, ok, f"max |k_moments - k_quadrature| = {worst:.2e}")
    assert worst < 1e-8


def test_criterion_6_odd_dimension_vanishing(announce):
    rng = np.random.default_rng(6)
    worst_quad = 0.0
    moments_exact = True
    for name in ("circle_r2", "circle_r3"):
        imm = cl.catalog_get(name)
        for u in cl.sample_domain(imm, 10, rng):
            fd = cl.frame_data_at(imm, u)
            if cl.generalized_curvature_moments(fd) != 0.0:
                moments_exact = False
            worst_quad = max(worst_quad, abs(cl.generalized_curvature_quadrature(fd)))
    ok = moments_exact and worst_quad < 1e-10
    announce(6, ok, f"moments exact zero: {moments_exact}, max |quadrature| = {worst_quad:.2e}")
    assert moments_exact
    assert worst_quad < 1e-10


def test_criterion_7_tube_rescaling_identity(announce):
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in ("sphere2_r4", "circle_r3"):
        imm = cl.catalog_get(name)
        cfg = cl.TubeConfig(imm, imm.reach / 2.0)
        boundary = cl.tube_boundary_immersion(cfg)
        for u in cl.sample_domain(imm, 20, rng):
            if imm.n == 1:
                nu = cl.NormalDirection(np.array([rng.choice([-1.0, 1.0])]))
            else:
                nu = cl.NormalDirection.unit(rng.standard_normal(imm.n))
            res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
            worst = max(worst, res.relative)
    ok = worst < 1e-6
    announce(7, ok, f"max relative residual {worst:.2e} at eps = reach/2")
    assert worst < 1e-6


def test_criterion_8_tube_total_curvature(announce):
    cases = (
        ("sphere2_r3", 0.1, 8.0 * math.pi, 1e-3 * 8.0 * math.pi),
        ("sphere2_r4", 0.05, -4.0 * math.pi**2, 1e-3 * 4.0 * math.pi**2),
        ("circle_r3", 0.1, 0.0, 1e-6),
    )
    results = []
    for name, eps, expected, tol in cases:
        cfg = cl.TubeConfig(cl.catalog_get(name), eps)
        total = cl.tube_total_curvature(cfg)
        results.append((name, abs(total.integral - expected), tol))
    ok = all(err < tol for _, err, tol in results)
    announce(8, ok, ", ".join(f"{n} err={e:.2e}" for n, e, _ in results))
    for name, err, tol in results:
        assert err < tol, f"{name} total off by {err}"


def _brute_sphere_moment(a):
    # independent S^{n-1} quadrature of prod nu_i^(2 a_i)
    n = len(a)
    if n == 1:
        return 2.0
    if n == 2:
        theta = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        vals = np.cos(theta) ** (2 * a[0]) * np.sin(theta) ** (2 * a[1])
        return float(np.sum(vals) * (TWO_PI / 4096))
    nodes, weights = np.polynomial.legendre.leggauss(128)
    phi = np.linspace(0.0, TWO_PI, 1024, endpoint=False)
    ct = nodes[:, None]
    st = np.sqrt(1.0 - ct**2)
    vals = (
        (st * np.cos(phi)[None, :]) ** (2 * a[0])
        * (st * np.sin(phi)[None, :]) ** (2 * a[1])
        * ct ** (2 * a[2])
    )
    return float(np.sum(vals * weights[:, None]) * (TWO_PI / 1024))


def test_criterion_9_sphere_moments(announce):
    worst = 0.0
    for n in (1, 2, 3):
        for a in itertools.product(range(4), repeat=n):
            if sum(a) > 3:
                continue
            brute = _brute_sphere_moment(a)
            worst = max(worst, abs(cl.sphere_moment(a) - brute) / brute)
    ok = worst < 1e-10
    announce(9, ok, f"max relative error {worst:.2e} over n <= 3, sum(a) <= 3")
    assert worst < 1e-10


def test_criterion_10_intrinsic_cross_check(announce):
    rng = np.random.default_rng(10)
    results = []
    for name in ("sphere2_r3", "torus_rev_r3", "clifford_torus_r4"):
        imm = cl.catalog_get(name)
        worst = 0.0
        for u in cl.sample_domain(imm, 5, rng, margin=0.1):
            gauss = cl.gauss_equation_tensor(cl.frame_data_at(imm, u)).R
            fd = cl.intrinsic_curvature_fd(imm, u).R
            worst = max(worst, float(np.max(np.abs(gauss - fd))))
        results.append((name, worst))
    ok = all(w < 1e-4 for _, w in results)
    announce(10, ok, ", ".join(f"{n} max={w:.2e}" for n, w in results))
    for name, worst in results:
        assert worst < 1e-4, f"{name} disagreement {worst}"


def test_criterion_11_chi_estimation(announce, gb_default):
    rep4, _ = gb_default["sphere2_r4"]
    repp, _ = gb_default["product_s2s2_r6"]
    ok = (
        rep4.estimated_chi == 2
        and repp.estimated_chi == 4
        and rep4.chi_distance < 1e-3
        and repp.chi_distance < 1e-3
    )
    announce(
        11,
        ok,
        f"sphere2_r4 chi={rep4.estimated_chi} dist={rep4.chi_distance:.2e}, "
        f"product chi={repp.estimated_chi} dist={repp.chi_distance:.2e}",
    )
    assert rep4.estimated_chi == 2 and rep4.chi_distance < 1e-3
    assert repp.estimated_chi == 4 and repp.chi_distance < 1e-3
