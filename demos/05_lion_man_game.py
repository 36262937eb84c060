"""The pursuit game, and what winning reveals about the playing field.

On a bounded tree the lion corners any man in finitely many moves, and an
exact audit certifies that until capture the lion's path was laying out a
geodesic at full speed.  Give the tree one infinite ray and the man
escapes along it forever; the lion's own trail then turns at angle pi
forever, which certifies a locally quasi-geodesic ray inside the domain.
In flat geometry neither dichotomy is promised: a greedy man in a disk
loses only in the limit.
"""

import math
from fractions import Fraction

import lionman as lm

# bounded tree: capture is forced, and exactly on schedule
tree = lm.tripod()
cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=Fraction(1, 2), n_steps=30,
                    tol=1e-9, lion_start=lm.vertex_point("a"),
                    man_start=lm.vertex_point("b"))
tr = lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace(), directions=6))
print("tripod vs greedy man:", lm.classify_outcome(tr).classification,
      "at step", tr.capture_step)
audit = lm.rtree_capture_audit(tree, tr)
print("  exact audit up to capture:", "pass" if audit.passed else "fail")

# unbounded ray: the directional man wins and the lion lays out a ray
ray_space = lm.ray_tree()
D = Fraction(1)
strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_space), D)
cfg = lm.GameConfig(space=ray_space, domain=lm.WholeSpace(), D=D, n_steps=500,
                    tol=1e-9, lion_start=lm.vertex_point("r"), man_start=strat.start())
tr = lm.run_game(cfg, strat)
out = lm.classify_outcome(tr)
print("\nray tree vs directional man:", out.classification,
      f"(gap stays at {out.tail_min})")
audit = lm.rtree_capture_audit(ray_space, tr)
print("  lion walked", float(audit.final_distance), "=", len(tr.records), "x D, exactly:",
      audit.final_distance == len(tr.records) * D)

bs = lm.beta_angles(ray_space, tr)
print("  every lion turning angle equals pi:", all(b == math.pi for b in bs.beta))
n_k, curve = lm.curve_from_transcript(ray_space, tr, 12 * D)
cert = lm.verify_mans_win_curve(curve, 12 * D, grid=200)
print(f"  win-curve certificate from index {n_k}:",
      "pass" if cert.passed else "fail", f"(worst ratio {cert.min_ratio:.4f})")

# flat disk: the lion still wins, but only in the limit
plane = lm.EuclideanSpace(2)
ball = lm.Ball(lm.epoint(0, 0), 3.0)
cfg = lm.GameConfig(space=plane, domain=ball, D=0.5, n_steps=450, tol=1e-12,
                    lion_start=lm.epoint(-2.5, 0), man_start=lm.epoint(2.5, 0))
tr = lm.run_game(cfg, lm.GreedyStrategy(ball, directions=16))
out = lm.classify_outcome(tr, tol=1e-3)
print("\nflat disk vs greedy man:", out.classification,
      f"(final gaps {out.tail_min - 0.5:.2e} .. {out.tail_max - 0.5:.2e} above D)")

# the three-way summary on one unbounded domain
report = lm.equivalence_report(ray_space, lm.WholeSpace(), D=D, n_steps=80, tol=1e-9,
                               lion_start=lm.vertex_point("r"),
                               man_start=lm.vertex_point("q"),
                               curve=lm.tree_ray_curve(ray_space))
print("\nstrategy battery on the ray tree:")
for run in report.runs:
    print(f"  {run['strategy']:12s} -> {run['outcome']}")
print("  certificates:", report.certificates.get("directional"))
