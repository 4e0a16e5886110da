"""Generalized Gauss-Bonnet across dimensions and codimensions.

For a closed oriented M^m in R^k the total generalized curvature satisfies
int_M K_M dV = (omega_{k-1} / omega_{n-1}) chi(M), independent of how M
sits in the ambient space. The constant changes with the codimension, so
the same chi = 2 sphere totals 4 pi in R^3 but only 2 pi in R^4.
This script verifies the identity on every closed catalog surface and then
re-estimates chi from the integral alone.  Each integral refines its grid
until two levels agree and prints the grid it stopped on, with the
difference between the last two levels as its error estimate.
"""

import time

import numpy as np

import curvlab as cl

print(
    f"{'surface':<20} {'integral':>14} {'expected':>14} {'residual':>10} "
    f"{'grid':>16} {'error est.':>10} {'time':>6}"
)

for name in cl.catalog_names():
    imm = cl.catalog_get(name)
    if imm.euler_char is None:
        continue  # graph patch: not closed, no Gauss-Bonnet statement
    start = time.perf_counter()
    rep = cl.gauss_bonnet_check(imm)
    elapsed = time.perf_counter() - start
    grid = "x".join(map(str, rep.grid_shape))
    print(
        f"{name:<20} {rep.integral:>14.9f} {rep.expected:>14.9f} "
        f"{rep.residual:>10.2e} {grid:>16} {rep.error_estimate:>10.2e} {elapsed:>5.1f}s"
    )

# -- chi from geometry alone ------------------------------------------------

print()
print("withholding chi and recovering it from the curvature integral")
for name in ("sphere2_r4", "torus_rev_r3", "sphere4_r5"):
    imm = cl.catalog_get(name).without_euler_char()
    rep = cl.gauss_bonnet_check(imm)
    print(
        f"{name:<20} estimated chi = {rep.estimated_chi} "
        f"(pre-rounding distance {rep.chi_distance:.2e})"
    )

# -- both curvature routes feed the same integral ---------------------------

print()
imm = cl.catalog_get("sphere2_r3")
for route in ("moments", "quadrature"):
    rep = cl.gauss_bonnet_check(imm, route=route)
    print(f"sphere2_r3 via {route:<10} integral = {rep.integral:.12f}")
print(f"4 pi                        = {4 * np.pi:.12f}")
