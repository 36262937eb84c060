"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm


def report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def in_domain_draw(space, domain, sampler):
    for _ in range(64):
        p = sampler.draw()
        if lm.domain_contains(space, domain, p):
            return p
    raise AssertionError("sampler cannot hit the domain")


# -- 1: explicit box curve ----------------------------------------------------------


def test_criterion_1_box_curve_reproduction():
    t0 = time.perf_counter()
    curve = lm.l2_example_curve(6, 10.0)
    lam = math.sqrt(11.0 / 3.0)
    good = lm.check_quasi_geodesic(curve, lam, 0.0, grid=500, tol=1e-9)
    bad = lm.check_quasi_geodesic(curve, 1.0, 0.0, grid=500, tol=1e-9)
    elapsed = time.perf_counter() - t0

    witness_ok = False
    if bad.first_lower_violation is not None:
        s, t, dist = bad.first_lower_violation
        witness_ok = (float(s) == 0.0 and float(t) == 110.0
                      and abs(dist - math.sqrt(10100)) <= 1e-9 * 110)
    ok = good.passed and not bad.passed and witness_ok and elapsed < 1.0
    assert report(1, ok,
                  f"sqrt(11/3) pass={good.passed} (min ratio {good.min_ratio:.6f}), "
                  f"lambda=1 fail with witness (0, 110, sqrt(10100))={witness_ok}, "
                  f"runtime {elapsed:.3f}s < 1s")


# -- 2: promotion formula -----------------------------------------------------------


def test_criterion_2_promotion_formula():
    lam_star, eps = lm.promote_constants(math.sqrt(2.0), 1.0, 12.0)
    hand = 5.966498312203888  # (1/sqrt2 - 4/(6+sqrt2))^-1 at 40-digit precision
    value_ok = abs(lam_star - hand) <= 1e-9 * hand and eps == 2.0
    raised = False
    try:
        lm.promote_constants(math.sqrt(2.0), 1.0, 11.0)
    except lm.PromotionPreconditionError:
        raised = True
    ok = value_ok and raised
    assert report(2, ok,
                  f"lambda*={lam_star!r} vs hand {hand} (eps={eps}), "
                  f"k=11 precondition error raised={raised}")


# -- 3: game-rule invariants over a 200-run sweep -------------------------------------


def sweep_configs():
    euclid = lm.EuclideanSpace(2)
    ball_e = lm.Ball(lm.epoint(0, 0), 6.0)
    hyper = lm.HyperbolicPlane()
    ball_h = lm.Ball(lm.hpoint(0, 0), 4.0)
    box = lm.L2BoxSpace(6, 10.0)

    jobs = []
    for i in range(50):
        jobs.append((euclid, ball_e, 0.5, 100, 3.0, 100 + i))
    for i in range(50):
        jobs.append((hyper, ball_h, 0.25, 80, 3.0, 200 + i))
    for i in range(50):
        rng = np.random.default_rng(300 + i)
        tree = lm.random_tree(rng, n_vertices=6)
        jobs.append((tree, lm.WholeSpace(), Fraction(1, 3), 40, 2, 300 + i))
    for i in range(50):
        jobs.append((box, lm.WholeSpace(), 25.0, 80, 1.0, 400 + i))
    return jobs


def test_criterion_3_game_rule_invariants():
    t0 = time.perf_counter()
    failures = []
    n_runs = 0
    n_captures = 0
    for space, domain, D, n_steps, scale, seed in sweep_configs():
        sampler = lm.PointSampler(space, scale=scale, seed=seed)
        lion = in_domain_draw(space, domain, sampler)
        man = in_domain_draw(space, domain, sampler)
        strategies = [lm.GreedyStrategy(domain, directions=6),
                      lm.StationaryStrategy(),
                      lm.RandomStrategy(domain, seed=seed)]
        strat = strategies[seed % 3]
        cfg = lm.GameConfig(space=space, domain=domain, D=D, n_steps=n_steps,
                            tol=1e-9, lion_start=lion, man_start=man, seed=seed,
                            stop_on_capture=(seed % 2 == 0))
        tr = lm.run_game(cfg, strat)
        n_runs += 1
        n_captures += tr.capture_step is not None

        lions = [r.lion for r in tr.records] + [tr.final_lion]
        for r, l0, l1 in zip(tr.records, lions, lions[1:]):
            want = min(float(D), float(r.dist))
            if abs(float(space.distance(l0, l1)) - want) > 1e-9 * max(1.0, want):
                failures.append((space.kind, seed, "lion-exactness", r.n))
        men = [r.man for r in tr.records]
        for i, (m0, m1) in enumerate(zip(men, men[1:])):
            if float(space.distance(m0, m1)) > float(D) * (1 + 1e-9) + 1e-12:
                failures.append((space.kind, seed, "man-speed", i))
        ds = [float(r.dist) for r in tr.records]
        for i in range(len(ds) - 1):
            if ds[i] > float(D) and ds[i + 1] > ds[i] + 1e-9 * max(1.0, ds[i]):
                failures.append((space.kind, seed, "monotonicity", i))
        if isinstance(domain, lm.Ball):
            for r in tr.records:
                for p in (r.lion, r.man):
                    if float(space.distance(domain.center, p)) > domain.radius + 1e-9:
                        failures.append((space.kind, seed, "domain", r.n))
        if tr.capture_step is not None:
            for r in tr.records:
                if r.n > tr.capture_step and float(r.gap) > cfg.tol:
                    failures.append((space.kind, seed, "absorption", r.n))
    elapsed = time.perf_counter() - t0
    ok = not failures and n_runs == 200 and elapsed < 30.0
    assert report(3, ok,
                  f"{n_runs} runs ({n_captures} captures), violations={failures[:3]}, "
                  f"runtime {elapsed:.1f}s < 30s")


# -- 4: tree dichotomy -----------------------------------------------------------------


def test_criterion_4_tree_dichotomy():
    D = Fraction(1, 2)
    capture_ok, audit_ok = True, True
    for i in range(10):
        rng = np.random.default_rng(1000 + i)
        tree = lm.random_tree(rng, n_vertices=6)
        n_steps = math.ceil(tree.diameter() / D) + 3
        lion = tree.random_point(rng)
        man = tree.random_point(rng)
        for strat in (lm.GreedyStrategy(lm.WholeSpace(), directions=6),
                      lm.StationaryStrategy()):
            cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D,
                                n_steps=n_steps, tol=1e-9, lion_start=lion,
                                man_start=man, seed=i)
            tr = lm.run_game(cfg, strat)
            if tr.stop_reason != "physical-capture":
                capture_ok = False
            audit = lm.rtree_capture_audit(tree, tr)
            if not audit.passed:
                audit_ok = False

    ray_space = lm.ray_tree()
    D1 = Fraction(1)
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_space), D1)
    cfg = lm.GameConfig(space=ray_space, domain=lm.WholeSpace(), D=D1, n_steps=500,
                        tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    tr = lm.run_game(cfg, strat)
    sustained = all(r.dist >= D1 + 1 for r in tr.records) and len(tr.records) == 500
    audit = lm.rtree_capture_audit(ray_space, tr)
    ray_ok = sustained and audit.passed and audit.final_distance == 500 * D1

    ok = capture_ok and audit_ok and ray_ok
    assert report(4, ok,
                  f"10 bounded trees x 2 men all captured={capture_ok} with exact "
                  f"audits={audit_ok}; unbounded ray: D_n >= D+1 for 500 steps and "
                  f"d(L0, L_500) == 500 D exactly={ray_ok}")


# -- 5: winning-man pipeline --------------------------------------------------------------


def ray_pursuit(n_steps=500):
    space = lm.ray_tree()
    D = Fraction(1)
    strat = lm.man_directional_strategy(lm.tree_ray_curve(space), D)
    cfg = lm.GameConfig(space=space, domain=lm.WholeSpace(), D=D, n_steps=n_steps,
                        tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    return space, lm.run_game(cfg, strat), D


def test_criterion_5_mans_win_pipeline():
    ray_space, tr, D1 = ray_pursuit(500)
    bs = lm.beta_angles(ray_space, tr)
    beta_ok = all(b == math.pi for n, b in zip(bs.steps, bs.beta) if n >= 2)
    n_k, curve = lm.curve_from_transcript(ray_space, tr, 12 * D1)
    qg = lm.verify_mans_win_curve(curve, 12 * D1, grid=300)
    ok = beta_ok and n_k <= 2 and qg.passed
    assert report(5, ok,
                  f"beta_n == pi exactly for n >= 2: {beta_ok}; n_k={n_k} <= 2; "
                  f"300-grid sqrt(2) local check passed={qg.passed} "
                  f"(min ratio {qg.min_ratio:.6f})")


# -- 6: ray extraction ----------------------------------------------------------------------


def test_criterion_6_ray_extraction():
    hyper = lm.HyperbolicPlane()
    tube = lm.hyperbolic_tube_curve(length=33.0, step=1.0, amplitude=0.15, seed=5)
    certified = lm.check_quasi_geodesic(tube, math.sqrt(2.0), 0.0, grid=200).passed
    approx = lm.extract_ray_from_quasi_geodesic(hyper, tube, lam=math.sqrt(2.0),
                                                alpha=2, k_max=10)
    axis_ok = all(
        float(hyper.distance(star, lm.hpoint(math.tanh(0.5 * k), 0.0))) <= 0.05
        for k, star in zip(approx.ks, approx.stars))
    decay_ok = True
    for hist in approx.residuals.values():
        tail = hist[max(0, len(hist) // 2 - 1):]
        for r0, r1 in zip(tail, tail[1:]):
            if r0 > 1e-12 and r1 / r0 > 0.6:
                decay_ok = False

    tree = lm.ray_tree()
    exact = lm.extract_ray_from_quasi_geodesic(tree, lm.tree_ray_curve(tree),
                                               lam=1.0, alpha=2, k_max=10)
    zeros_ok = all(r == 0.0 for hist in exact.residuals.values() for r in hist)

    ok = certified and axis_ok and decay_ok and zeros_ok
    assert report(6, ok,
                  f"tube certified sqrt(2)={certified}; x*_k within 0.05 of axis for "
                  f"k=1..10: {axis_ok}; tail decay factor <= 0.6: {decay_ok}; "
                  f"tree residuals identically 0: {zeros_ok}")


# -- 7: directional construction --------------------------------------------------------------


def test_criterion_7_directional_construction():
    euclid = lm.EuclideanSpace(2)
    b = 1.0
    pts = [lm.epoint(0, 0)]
    for n in range(1, 61):
        jitter = (b / 4.0) * math.cos(1.7 * n) / (1 + 0.5 * n)
        pts.append(lm.epoint(float(n), jitter))
    assert lm.check_directional_sequence(euclid, pts, b).passed

    bound_ok = True
    for m in range(1, len(pts)):
        for n in range(m + 1, len(pts)):
            dm = float(euclid.distance(pts[0], pts[m]))
            dn = float(euclid.distance(pts[0], pts[n]))
            ang = lm.comparison_angle(euclid, pts[0], pts[m], pts[n])
            lhs = math.sin(ang / 2.0) ** 2
            rhs = (b / (2 * dm)) * (b / (2 * dn) + 1.0)
            if lhs > rhs + 1e-9:
                bound_ok = False

    approx = lm.extract_ray_from_directional_sequence(euclid, pts, b, k_max=10)
    angle_ok = all(
        abs(math.atan2(star.coords[1], star.coords[0])) <= 0.01
        for star in approx.stars)
    ok = bound_ok and angle_ok
    assert report(7, ok,
                  f"sin^2 comparison-angle bound holds for all m < n: {bound_ok}; "
                  f"extracted direction within 0.01 of the ray axis: {angle_ok}")


# -- 8: hyperbolicity suite ---------------------------------------------------------------------


def test_criterion_8_hyperbolicity_suite():
    tree = lm.tripod()
    delta_tree = lm.estimate_delta(tree, lm.PointSampler(tree, scale=2, seed=3),
                                   trials=50, grid=12)
    delta_ok = delta_tree == 0

    spaces_ = {
        "euclidean": (lm.EuclideanSpace(2), 3.0),
        "hyperbolic": (lm.HyperbolicPlane(), 3.0),
        "l2box": (lm.L2BoxSpace(6, 10.0), 1.0),
        "rtree": (tree, 2),
    }
    cat_ok = True
    cat_worst = -math.inf
    for kind, (space, scale) in spaces_.items():
        sampler = lm.PointSampler(space, scale=scale, seed=81)
        for _ in range(100):
            x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
            v = lm.cat_defect(space, x, y, z, grid=6)
            cat_worst = max(cat_worst, v)
            if v > 1e-7:
                cat_ok = False

    rng = np.random.default_rng(17)
    triples = [tuple(tree.random_point(rng) for _ in range(3)) for _ in range(12)]
    tree_crit = lm.check_gromov_criterion(tree, triples, 0)
    far = (lm.epoint(0, 0), lm.epoint(100, 1), lm.epoint(100, -1))
    far_crit = lm.check_gromov_criterion(lm.EuclideanSpace(2), [far], 1.0)
    crit_ok = (tree_crit.passed and tree_crit.sup == 0
               and not far_crit.passed and far_crit.witness is not None)

    ok = delta_ok and cat_ok and crit_ok
    assert report(8, ok,
                  f"tree delta == 0 exactly: {delta_ok}; flat-comparison defect <= 1e-7 "
                  f"on 100 triangles x 4 spaces (worst {cat_worst:.2e}): {cat_ok}; "
                  f"equidistant criterion: tree sup 0 pass and far-triple fail with "
                  f"witness: {crit_ok}")
