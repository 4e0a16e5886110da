"""The generalized curvature is intrinsic: pointwise identity checks.

K_M is defined extrinsically, by averaging directional determinants over
the normal sphere. Yet (omega_{n-1}/omega_{k-1}) K_M equals the Pfaffian
density of the intrinsic curvature tensor, so it can be recomputed from
the metric alone. This script shows the identity holding pointwise, on a
catalog surface and on a random polynomial graph, and cross-checks the
Gauss-equation curvature tensor against plain finite differences of the
metric.
"""

import numpy as np

import curvlab as cl

# -- two routes to K_M, then the intrinsic value ----------------------------

imm = cl.catalog_get("sphere2_r4")
u = np.array([1.0, 1.0])
rep = cl.egregium_report(imm, u)

print("unit 2-sphere in R^4 at a generic point")
print(f"  K_M via closed-form moments     = {rep.k_moments:.15f}")
print(f"  K_M via normal-sphere quadrature = {rep.k_quadrature:.15f}")
print(f"  route residual                   = {rep.route_residual:.2e}")
print(f"  (omega_1/omega_3) K_M            = {rep.egregium_lhs:.15f}")
print(f"  Pfaffian density of R            = {rep.pfaffian_density:.15f}")
print(f"  egregium residual                = {rep.egregium_residual:.2e}")

# -- a surface nobody hand-picked -------------------------------------------

print()
rng = np.random.default_rng(42)
graph = cl.random_graph_poly(rng, m=2, n=3)
print("random degree-3 polynomial graph, m = 2, codimension 3")
for u in cl.sample_domain(graph, 3, rng):
    rep = cl.egregium_report(graph, u)
    print(
        f"  u = ({u[0]:+.3f}, {u[1]:+.3f})  K_M = {rep.k_moments:+.6f}  "
        f"egregium residual = {rep.egregium_residual:.2e}"
    )

# -- the m = 4 density ------------------------------------------------------

print()
imm = cl.catalog_get("product_s2s2_r6")
u = cl.sample_domain(imm, 1, rng)[0]
rep = cl.egregium_report(imm, u)
print("S^2 x S^2 in R^6 (m = 4): the density needs the full tensor")
print(f"  (omega_1/omega_5) K_M = {rep.egregium_lhs:.12f}")
print(f"  Pfaffian density      = {rep.pfaffian_density:.12f}")
print(f"  1/(4 pi^2)            = {1 / (4 * np.pi**2):.12f}")

# -- Gauss equation vs finite differences -----------------------------------

print()
print("curvature tensor from the Gauss equation vs metric finite differences")
for name in ("sphere2_r3", "torus_rev_r3", "clifford_torus_r4"):
    imm = cl.catalog_get(name)
    worst = 0.0
    for u in cl.sample_domain(imm, 5, rng, margin=0.1):
        gauss = cl.gauss_equation_tensor(cl.frame_data_at(imm, u)).R
        fd = cl.intrinsic_curvature_fd(imm, u).R
        worst = max(worst, float(np.max(np.abs(gauss - fd))))
    print(f"  {name:<20} max disagreement over 5 points = {worst:.2e}")

# -- odd dimension: K_M vanishes identically --------------------------------

print()
imm = cl.catalog_get("circle_r3")
fd = cl.frame_data_at(imm, np.array([0.3]))
k_m = cl.generalized_curvature_moments(fd)
k_q = cl.generalized_curvature_quadrature(fd)
print(f"circle in R^3: K_M by moments = {k_m} (exact), by quadrature = {k_q:.2e}")
