"""From local control to a genuine geodesic ray, in the hyperbolic plane.

Two constructive steps.  First, a curve that is quasi-geodesic only at
scales up to k is globally quasi-geodesic with explicit worse constants,
provided k beats the triangle slimness.  Second, a quasi-geodesic ray in
a Gromov-hyperbolic space yields an honest geodesic ray: follow the
geodesics toward geometrically spaced points on the curve and take limits
at each distance.
"""

import math

import numpy as np

import lionman as lm

disk = lm.HyperbolicPlane()
SQRT2 = math.sqrt(2.0)

# calibrate the slimness constant for sqrt(2) distortion empirically
M = float(lm.estimate_quasi_slim_M(disk, SQRT2, lm.PointSampler(disk, 4.0, seed=11),
                                   trials=6, grid=16))
print(f"empirical slimness for lambda=sqrt(2): M = {M:.3f}")
k = math.ceil(8 * SQRT2 * M) + 2.0
lam_star, eps = lm.promote_constants(SQRT2, M, k)
print(f"promotion at locality k = {k}: global constants lambda* = {lam_star:.3f},"
      f" eps = {eps:.3f}")

# a zigzag certified k-locally, then verified against the promoted bounds
rng = np.random.default_rng(9)
a = disk.point_toward(lm.hpoint(0, 0), complex(-1, 0), 17.0)
b = disk.point_toward(lm.hpoint(0, 0), complex(1, 0), 17.0)
zigzag = lm.zigzag_quasi_geodesic(disk, a, b, SQRT2, segments=16, rng=rng)
local = lm.check_quasi_geodesic(zigzag, SQRT2, 0.0, grid=150, k=k)
print("\nzigzag of length", round(float(zigzag.t_max), 1),
      "is k-locally sqrt(2)-quasi-geodesic:", local.passed)
promoted = lm.verify_promotion(disk, zigzag, SQRT2, M, k, grid=120)
print("promoted global bounds hold:", promoted.passed,
      f"(every point within {promoted.max_chord_dist:.3f} <= 2M = {promoted.chord_bound}"
      " of the endpoint chord)")

# ray extraction from a wobbling tube around a known axis
tube = lm.hyperbolic_tube_curve(length=33.0, step=1.0, amplitude=0.15, seed=5)
print("\ntube curve certified sqrt(2):",
      lm.check_quasi_geodesic(tube, SQRT2, 0.0, grid=200).passed)
ray = lm.extract_ray_from_quasi_geodesic(disk, tube, lam=SQRT2, alpha=2,
                                         k_max=10)
print("extracted ray points vs the true axis:")
for kk, star in zip(ray.ks, ray.stars):
    axis = lm.hpoint(math.tanh(0.5 * kk), 0.0)
    hist = ray.residuals[kk]
    print(f"  k={kk:2d}  axis error {float(disk.distance(star, axis)):.2e}"
          f"  residuals {['%.1e' % r for r in hist]}  ({ray.stopped[kk]})")

# on a tree the same construction is exact
tree = lm.ray_tree()
exact = lm.extract_ray_from_quasi_geodesic(tree, lm.tree_ray_curve(tree), lam=1.0,
                                           alpha=2, k_max=5)
print("\ntree ray extraction residuals are identically zero:",
      all(r == 0.0 for h in exact.residuals.values() for r in h))
