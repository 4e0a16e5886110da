"""Tube boundaries: where the curvature identities come from.

Thicken M to its epsilon-tube and look at the boundary hypersurface. The
classical Gauss curvature K^g of that boundary, divided by the normal
Jacobian of the projection back to M, recovers the directional curvature
K^nu of M up to an explicit epsilon power. Summed over the boundary this
becomes Gauss-Bonnet; pointwise it is a family of identities this script
checks one by one.
"""

import numpy as np

import curvlab as cl


def direction(imm, u, ambient):
    """The unit normal direction along an ambient vector, in the frame nu_hat is read in."""
    return cl.NormalDirection.unit(cl.frame_data_at(imm, u).normal_frame.T @ ambient)


# -- a tube around a circle in R^3 ------------------------------------------

imm = cl.catalog_get("circle_r3")
cfg = cl.TubeConfig(imm, 0.1)
boundary = cl.tube_boundary_immersion(cfg)
print(f"circle_r3, eps = 0.1: boundary is a torus, m = {boundary.sheets[0].m}")

u = np.array([0.8])
base = imm.points(u[None, :])[0]
nu = direction(imm, u, 0.6 * np.array([0.0, 0.0, 1.0]) - 0.8 * base)  # up and toward the center
tp = cl.tube_point(cfg, u, nu, boundary=boundary)
print(f"  base point distance from tube point = {np.linalg.norm(tp.point - base):.6f}")

res = cl.tube_identity_check(cfg, u, nu, boundary=boundary)
print(f"  K^g / NJ          = {res.lhs:.10f}")
print(f"  eps^-(n-1) K^nu   = {res.rhs:.10f}  (relative residual {res.relative:.2e})")

# -- concentric spheres: every quantity in closed form ----------------------

print()
imm = cl.catalog_get("sphere2_r3")
cfg = cl.TubeConfig(imm, 0.1)
boundary = cl.tube_boundary_immersion(cfg)
u = np.array([1.1, 0.4])
outward = direction(imm, u, imm.points(u[None, :])[0])
tp = cl.tube_point(cfg, u, outward, boundary=boundary)
print("sphere2_r3, eps = 0.1: the tube boundary is two concentric spheres")
print(f"  outer sheet K^g  = {tp.classical_k:.10f}  (1/1.1^2 = {1 / 1.21:.10f})")
print(f"  normal Jacobian  = {cl.normal_jacobian(cfg, u, outward):.10f}  (1/1.21  = {1 / 1.21:.10f})")

spec = cl.tube_spectrum_check(cfg, u, outward, boundary=boundary)
print(f"  shape operator spectrum residual = {spec.residual:.2e}")

# -- totals recover the Euler characteristic --------------------------------

print()
total = cl.tube_total_curvature(cfg)
print("total curvature of the tube boundary (both sheets)")
print(f"  integral  = {total.integral:.10f}")
print(f"  expected  = {total.expected:.10f}  (8 pi = {8 * np.pi:.10f})")
print(f"  per sheet = {[f'{s:.6f}' for s in total.per_sheet]}")

# codimension 2: a single connected boundary, and a sign from the parity
print()
cfg = cl.TubeConfig(cl.catalog_get("sphere2_r4"), 0.05)
total = cl.tube_total_curvature(cfg)
print("sphere2_r4, eps = 0.05: boundary is a single S^2 x S^1 bundle")
print(f"  integral = {total.integral:.8f}  (-4 pi^2 = {-4 * np.pi**2:.8f})")

# -- the reach guard --------------------------------------------------------

print()
try:
    cl.TubeConfig(cl.catalog_get("sphere2_r3"), 0.6)
except cl.ReachExceededError as exc:
    print(f"guard: {exc}")
