import math
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.errors import (
    InsufficientCurveError,
    InsufficientDataError,
    InvalidAlphaError,
    InvalidInputError,
    InvalidPointError,
    PromotionPreconditionError,
    SpaceMismatchError,
    UnsupportedSpaceError,
)

from conftest import sampler_for
from test_protocol import SPACES

SQRT2 = math.sqrt(2.0)
LAM_BOX = math.sqrt(11.0 / 3.0)


# -- curve basics ----------------------------------------------------------------


def test_curve_requires_increasing_params(euclid2):
    with pytest.raises(InvalidInputError):
        lm.Curve(euclid2, (0.0, 0.0), (lm.epoint(0, 0), lm.epoint(1, 0)))


def test_curve_interpolates_geodesically(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(4, 0))
    assert c.at(1.0).coords == (1.0, 0.0)


def test_curve_extension_rule(ray_tree):
    ray = lm.tree_ray_curve(ray_tree)
    p = ray.at(Fraction(7))
    assert ray_tree.distance(p, lm.vertex_point("r")) == 7


def test_curve_without_rule_raises_beyond_samples(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(1, 0))
    with pytest.raises(InsufficientCurveError):
        c.at(2.0)


# -- quasi-geodesic checks ----------------------------------------------------------


@pytest.mark.parametrize("lam", [1.0, SQRT2, 3.0])
def test_geodesics_pass_every_lambda(all_spaces, lam):
    for space in all_spaces.values():
        sampler = sampler_for(space, seed=2)
        a, b = sampler.draw(), sampler.draw()
        if space.distance(a, b) == 0:
            continue
        c = lm.geodesic_segment_curve(space, a, b, n_samples=5)
        rep = lm.check_quasi_geodesic(c, lam, 0.0, grid=40)
        assert rep.passed


def test_l2_example_passes_sqrt_11_3():
    c = lm.l2_example_curve(6, 10.0)
    rep = lm.check_quasi_geodesic(c, LAM_BOX, 0.0, grid=500)
    assert rep.passed
    assert rep.min_ratio >= 1.0 / LAM_BOX - 1e-9


def test_l2_example_fails_lambda_one_with_corner_witness():
    c = lm.l2_example_curve(6, 10.0)
    rep = lm.check_quasi_geodesic(c, 1.0, 0.0, grid=500)
    assert not rep.passed
    s, t, dist = rep.first_lower_violation
    assert (float(s), float(t)) == (0.0, 110.0)
    assert dist == pytest.approx(math.sqrt(10100), rel=1e-12)
    assert dist < 110.0


def test_qg_report_verdict_matches_slacks(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(5, 0), n_samples=4)
    rep = lm.check_quasi_geodesic(c, 1.0, 0.0, grid=30)
    assert rep.passed == (rep.worst_lower_slack >= -1e-9 and rep.worst_upper_excess <= 1e-9)
    assert rep.n_pairs > 0


@pytest.mark.parametrize("lam, eps, k", [(1.0, 0.0, 0.0), (1.0, 0.0, -2.0), (1.0, 0.0, math.nan),
                                         (math.nan, 0.0, None), (1.0, math.nan, None)])
def test_qg_check_rejects_vacuous_bounds(euclid2, lam, eps, k):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(5, 0))
    with pytest.raises(InvalidInputError):
        lm.check_quasi_geodesic(c, lam, eps, grid=30, k=k)


def test_directional_curve_rejects_nan_b(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(5, 0))
    with pytest.raises(InvalidInputError):
        lm.check_directional_curve(c, math.nan, grid=30)


@pytest.mark.parametrize("b", [math.nan, -1.0])
def test_directional_sequence_functions_reject_a_bad_b(euclid2, b):
    pts = [lm.epoint(k, 0) for k in range(6)]
    with pytest.raises(InvalidInputError, match="b must be >= 0"):
        lm.check_directional_sequence(euclid2, pts, b)
    with pytest.raises(InvalidInputError, match="b must be >= 0"):
        lm.extract_ray_from_directional_sequence(euclid2, pts, b, k_max=2)


def test_qg_local_restriction_changes_pair_count(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(10, 0), n_samples=11)
    full = lm.check_quasi_geodesic(c, 1.0, 0.0, grid=11)
    local = lm.check_quasi_geodesic(c, 1.0, 0.0, grid=11, k=2.0)
    assert local.n_pairs < full.n_pairs
    assert local.passed


def test_tree_geodesic_min_ratio_skips_grid_values_a_rounding_from_a_sample():
    # grid value 1.6111111111111112 used to sit one ulp from the sample
    # 1.611111111111111 and pair with it at ratio 0
    tree = lm.RTreeSpace(["v0", "v1", "v2", "v7", "v9"],
                         [("v7", "v9", 1), ("v0", "v7", 3), ("v0", "v1", Fraction(3, 2)),
                          ("v1", "v2", 1)], ray_at="v2")
    end = lm.tree_ray_curve(tree).at(8)
    c = lm.geodesic_segment_curve(tree, lm.vertex_point("v9"), end, n_samples=64)
    rep = lm.check_quasi_geodesic(c, 1, 0, 1000)
    assert rep.passed
    assert rep.min_ratio == pytest.approx(1.0, abs=1e-9)
    s, t = rep.min_ratio_pair
    assert float(t) - float(s) > 1e-6


# -- directionality --------------------------------------------------------------------


def test_directional_geodesic_ray_passes(ray_tree):
    ray = lm.tree_ray_curve(ray_tree)
    samples = tuple(Fraction(i) for i in range(12))
    c = lm.Curve(ray_tree, samples, tuple(ray.at(t) for t in samples))
    rep = lm.check_directional_curve(c, 0.0, grid=24)
    assert rep.passed


def test_l2_example_is_not_directional_with_small_b():
    c = lm.l2_example_curve(6, 10.0)
    rep = lm.check_directional_curve(c, 5.0, grid=400)
    assert not rep.passed
    s, t = rep.worst_lower_witness
    assert float(t) - float(s) - 5.0 > float(
        c.space.distance(c.at(s), c.at(t)))


def test_parameter_compressed_curve_fails_upper_bound(euclid2):
    c = lm.Curve(euclid2, (0.0, 1.0), (lm.epoint(0, 0), lm.epoint(2, 0)))
    rep = lm.check_directional_curve(c, 0.0, grid=10)
    assert not rep.passed
    assert rep.worst_upper_slack < 0


def test_directional_curve_implies_quasi_geodesic(euclid2):
    b = 1.0
    rule = lambda t: lm.epoint(t - b * (1 - math.exp(-t)), 0.0)
    params = tuple(float(i) for i in range(20))
    c = lm.Curve(euclid2, params, tuple(rule(t) for t in params), rule=rule)
    assert lm.check_directional_curve(c, b, grid=60).passed
    assert lm.check_quasi_geodesic(c, 1.0, b, grid=60).passed


def test_directional_sequence_tree_ray(ray_tree):
    pts = [lm.edge_point(lm.RAY_EDGE, Fraction(i)) for i in range(10)]
    rep = lm.check_directional_sequence(ray_tree, pts, 0.0)
    assert rep.passed


def test_directional_sequence_alternating_legs_fails(tripod):
    pts = [lm.vertex_point(v) for v in "ababa"]
    rep = lm.check_directional_sequence(tripod, pts, 3.0)
    assert not rep.passed
    assert rep.worst_lower_slack < 0


def test_directional_sequence_rejects_points_outside_the_space(euclid2):
    with pytest.raises(SpaceMismatchError, match=r"points\[0\]"):
        lm.check_directional_sequence(euclid2, [lm.hpoint(0, 0), lm.hpoint(0.5, 0)], 0.0)
    box = lm.L2BoxSpace(n=2, base=4.0)
    with pytest.raises(InvalidPointError, match=r"points\[1\]"):
        lm.check_directional_sequence(box, [lm.boxpoint(0, 0), lm.boxpoint(100, 0)], 0.0)
    rep = lm.check_directional_sequence(box, [lm.boxpoint(0, 0), lm.boxpoint(1, 0)], 0.0)
    assert rep.passed is True


def test_directional_sequence_two_points(tripod):
    pts = [lm.vertex_point("a"), lm.vertex_point("b")]
    rep = lm.check_directional_sequence(tripod, pts, 1.5)
    assert rep.passed
    assert rep.worst_lower_slack == pytest.approx(1.5)


# -- promotion ---------------------------------------------------------------------------


def test_promote_constants_collapse():
    assert lm.promote_constants(1.0, 0.0, 1.0) == (1.0, 0.0)


def test_promote_constants_worked_example():
    lam_star, eps = lm.promote_constants(SQRT2, 1.0, 12.0)
    # hand evaluation, 40-digit arithmetic: (1/sqrt2 - 4/(6+sqrt2))^-1
    assert lam_star == pytest.approx(5.966498312203888, rel=1e-9)
    assert abs(lam_star - 5.966) < 1e-3
    assert eps == 2.0


def test_promote_constants_precondition():
    with pytest.raises(PromotionPreconditionError):
        lm.promote_constants(SQRT2, 1.0, 11.0)


def test_promote_constants_monotone_limit():
    lam, M = SQRT2, 1.0
    prev = None
    for k in (12.0, 20.0, 50.0, 200.0, 2000.0):
        lam_star, _ = lm.promote_constants(lam, M, k)
        assert lam_star >= lam
        if prev is not None:
            assert lam_star <= prev
        prev = lam_star
    assert prev == pytest.approx(lam, rel=1e-2)


@pytest.mark.parametrize("lam, M, k, name", [(math.nan, 0.0, 10.0, "lambda"),
                                              (1.0, math.nan, 10.0, "M"),
                                              (1.0, 0.1, math.nan, r"\bk\b")])
def test_promote_constants_rejects_nan(lam, M, k, name):
    with pytest.raises(InvalidInputError, match=name):
        lm.promote_constants(lam, M, k)


def test_verify_promotion_evaluates_each_grid_value_once(monkeypatch, hyper):
    # the zigzag of demo 04: at grid 120 its 118 interior grid values are
    # placed once, for the pair check and the chord distances alike
    rng = np.random.default_rng(9)
    a = hyper.point_toward(lm.hpoint(0, 0), complex(-1, 0), 17.0)
    b = hyper.point_toward(lm.hpoint(0, 0), complex(1, 0), 17.0)
    zz = lm.zigzag_quasi_geodesic(hyper, a, b, SQRT2, segments=16, rng=rng)
    calls = []
    between = lm.Curve._between
    monkeypatch.setattr(lm.Curve, "_between",
                        lambda self, i, ts: calls.extend(ts) or between(self, i, ts))
    rep = lm.verify_promotion(hyper, zz, SQRT2, 0.892, 13.0, grid=120)
    assert len(calls) == len(set(calls)) == 118
    assert rep.passed
    chord = lm.Segment(zz.points[0], zz.points[-1])
    want = max(float(hyper.project_to_segment(p, chord)[1])
               for p in lm.curves._merged_params(zz, 120)[1])
    assert rep.max_chord_dist == pytest.approx(want, rel=hyper.rel_tol)


def test_verify_promotion_trivial_geodesic(ray_tree):
    ray = lm.tree_ray_curve(ray_tree)
    samples = tuple(Fraction(i) for i in range(0, 30, 2))
    c = lm.Curve(ray_tree, samples, tuple(ray.at(t) for t in samples))
    rep = lm.verify_promotion(ray_tree, c, 1.0, 0.0, 10.0, grid=30)
    assert rep.passed
    assert rep.max_chord_dist <= 1e-9


def test_verify_promotion_hyperbolic_zigzag(hyper):
    rng = np.random.default_rng(9)
    a = hyper.point_toward(lm.hpoint(0, 0), complex(-1, 0), 17.0)
    b = hyper.point_toward(lm.hpoint(0, 0), complex(1, 0), 17.0)
    zz = lm.zigzag_quasi_geodesic(hyper, a, b, SQRT2, segments=16, rng=rng)
    assert lm.check_quasi_geodesic(zz, SQRT2, 0.0, grid=120).passed
    M = 1.2
    rep = lm.verify_promotion(hyper, zz, SQRT2, M, 14.0, grid=100)
    assert rep.passed
    assert rep.max_chord_dist <= 2 * M


def test_verify_promotion_understated_M_fails_with_witness(hyper):
    rng = np.random.default_rng(9)
    a = hyper.point_toward(lm.hpoint(0, 0), complex(-1, 0), 10.0)
    b = hyper.point_toward(lm.hpoint(0, 0), complex(1, 0), 10.0)
    zz = lm.zigzag_quasi_geodesic(hyper, a, b, SQRT2, segments=10, rng=rng)
    worst_amp = max(
        float(hyper.project_to_segment(p, lm.Segment(zz.points[0], zz.points[-1]))[1])
        for p in zz.points)
    M = worst_amp / 4.0
    rep = lm.verify_promotion(hyper, zz, SQRT2, M, 8 * SQRT2 * M * 1.05, grid=60)
    assert not rep.passed
    assert not rep.chord_ok
    assert rep.max_chord_dist > rep.chord_bound


# -- ray extraction ------------------------------------------------------------------------


def test_extract_ray_tree_exact(ray_tree):
    ray = lm.tree_ray_curve(ray_tree)
    approx = lm.extract_ray_from_quasi_geodesic(ray_tree, ray, lam=1.0, alpha=2,
                                                k_max=6)
    for k, star in zip(approx.ks, approx.stars):
        assert ray_tree.distance(approx.base, star) == k
    assert all(r == 0.0 for hist in approx.residuals.values() for r in hist)
    assert all(res == 0.0 for _, res in approx.distance_residuals)
    assert all(res == 0.0 for _, _, res in approx.nesting_residuals)


def test_extract_ray_hyperbolic_tube(hyper):
    tube = lm.hyperbolic_tube_curve(length=33.0, step=1.0, amplitude=0.15, seed=5)
    assert lm.check_quasi_geodesic(tube, SQRT2, 0.0, grid=150).passed
    approx = lm.extract_ray_from_quasi_geodesic(hyper, tube, lam=SQRT2, alpha=2,
                                                k_max=10)
    for k, star in zip(approx.ks, approx.stars):
        axis_point = lm.hpoint(math.tanh(0.5 * k), 0.0)
        assert float(hyper.distance(star, axis_point)) <= 0.05
    for hist in approx.residuals.values():
        for r0, r1 in zip(hist, hist[1:]):
            if r0 > 1e-12:
                assert r1 / r0 <= 1.0 / 2.0 + 0.1


def test_ray_approx_internal_consistency(hyper):
    tube = lm.hyperbolic_tube_curve(length=33.0, step=1.0, amplitude=0.1, seed=8)
    approx = lm.extract_ray_from_quasi_geodesic(hyper, tube, lam=SQRT2, alpha=2,
                                                k_max=8)
    assert all(res <= 1e-6 for _, res in approx.distance_residuals)
    assert all(res <= 1e-5 for _, _, res in approx.nesting_residuals)


def test_extract_ray_invalid_alpha(hyper):
    tube = lm.hyperbolic_tube_curve(length=20.0, step=1.0, amplitude=0.1, seed=1)
    with pytest.raises(InvalidAlphaError):
        lm.extract_ray_from_quasi_geodesic(hyper, tube, lam=SQRT2, alpha=4.0,
                                           k_max=3)


def test_extract_ray_unsupported_space(box):
    c = lm.l2_example_curve(6, 10.0)
    with pytest.raises(UnsupportedSpaceError):
        lm.extract_ray_from_quasi_geodesic(box, c, lam=LAM_BOX, alpha=2.0,
                                           k_max=3)


def test_extract_directional_euclidean_ray_exact(euclid2):
    pts = [lm.epoint(float(n), 0.0) for n in range(15)]
    approx = lm.extract_ray_from_directional_sequence(euclid2, pts, 0.0, k_max=5)
    for k, star in zip(approx.ks, approx.stars):
        assert star.coords == pytest.approx((float(k), 0.0), abs=1e-12)
    assert all(r <= 1e-12 for hist in approx.residuals.values() for r in hist)


def jittered_ray_points(b=1.0, n=60):
    pts = [lm.epoint(0, 0)]
    for i in range(1, n + 1):
        jitter = (b / 4.0) * math.cos(1.7 * i) / (1 + 0.5 * i)
        pts.append(lm.epoint(float(i), jitter))
    return pts


def test_extract_directional_jittered_ray(euclid2):
    b = 1.0
    pts = jittered_ray_points(b)
    assert lm.check_directional_sequence(euclid2, pts, b).passed
    approx = lm.extract_ray_from_directional_sequence(euclid2, pts, b, k_max=10)
    for star in approx.stars:
        angle = abs(math.atan2(star.coords[1], star.coords[0]))
        assert angle <= 0.01


def test_directional_angle_bound(euclid2):
    pts = jittered_ray_points(1.0)
    approx = lm.extract_ray_from_directional_sequence(euclid2, pts, 1.0, k_max=3)
    assert approx.angle_checks
    for _, _, lhs, rhs in approx.angle_checks:
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("k_max", [0, -1, math.nan])
def test_extractors_reject_k_max_below_one(ray_tree, euclid2, k_max):
    with pytest.raises(InvalidInputError):
        lm.extract_ray_from_quasi_geodesic(ray_tree, lm.tree_ray_curve(ray_tree), lam=1.0,
                                           alpha=2, k_max=k_max)
    pts = [lm.epoint(float(n), 0.0) for n in range(5)]
    with pytest.raises(InvalidInputError):
        lm.extract_ray_from_directional_sequence(euclid2, pts, 0.0, k_max=k_max)


def test_extract_ray_rejects_nan_alpha(ray_tree):
    with pytest.raises(InvalidAlphaError):
        lm.extract_ray_from_quasi_geodesic(ray_tree, lm.tree_ray_curve(ray_tree), lam=1.0,
                                           alpha=math.nan, k_max=3)


def test_extract_directional_insufficient_data(euclid2):
    pts = [lm.epoint(0, 0), lm.epoint(0.5, 0)]
    with pytest.raises(InsufficientDataError):
        lm.extract_ray_from_directional_sequence(euclid2, pts, 0.0, k_max=2)


# -- explicit box curve -----------------------------------------------------------------------


def test_l2_curve_breakpoints():
    c = lm.l2_example_curve(6, 10.0)
    assert c.at(0.0).coords == (0.0,) * 6
    assert c.at(10.0).coords == (10.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert c.params[2] == 110.0
    assert c.at(110.0).coords == (10.0, 100.0, 0.0, 0.0, 0.0, 0.0)


def test_l2_curve_stays_in_box_exactly():
    c = lm.l2_example_curve(6, 10.0, samples_per_leg=3)
    space = c.space
    for t in np.linspace(0.0, float(c.t_max), 300):
        p = c.at(float(t))
        assert all(0.0 <= v <= bound for v, bound in zip(p.coords, space.bounds))


def test_l2_curve_is_one_lipschitz():
    c = lm.l2_example_curve(6, 10.0)
    rep = lm.check_directional_curve(c, float(c.t_max), grid=300)
    assert rep.worst_upper_slack >= -1e-9


def test_l2_curve_other_base():
    c = lm.l2_example_curve(4, 3.0)
    assert c.params[-1] == pytest.approx(3 + 9 + 27 + 81)
    rep = lm.check_quasi_geodesic(c, 2.5, 0.0, grid=200)
    assert rep.passed


# -- generators and files ------------------------------------------------------------------------


def test_zigzag_certified_by_construction(hyper, euclid2):
    rng = np.random.default_rng(4)
    for space, (a, b) in ((hyper, (lm.hpoint(-0.9, 0), lm.hpoint(0.9, 0))),
                          (euclid2, (lm.epoint(0, 0), lm.epoint(9, 0)))):
        zz = lm.zigzag_quasi_geodesic(space, a, b, SQRT2, segments=8, rng=rng)
        assert lm.check_quasi_geodesic(zz, SQRT2, 0.0, grid=50).passed


def test_tree_zigzag_is_the_certified_geodesic_without_a_check():
    # a tree has no sideways room: each side is the geodesic through the
    # nodes, with the curve and the rng stream the grid check would pass on
    rng = np.random.default_rng(21)
    for tree in (lm.random_tree(rng, n_vertices=40), lm.ray_tree(), lm.tripod()):
        sampler = sampler_for(tree, int(rng.integers(2**31)), scale=4)
        for lam, segments in ((1.5, 6), (SQRT2, 8), (3.0, 3)):
            x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
            if tree.distance(x, y) == 0:
                continue
            seed = int(rng.integers(2**31))
            for away_from in (None, z):
                stream = np.random.default_rng(seed)
                zz = lm.zigzag_quasi_geodesic(tree, x, y, lam, segments, stream,
                                              away_from=away_from)
                nodes = [tree.geodesic_point(x, y, float(t))
                         for t in np.linspace(0.0, 1.0, segments + 1)]
                want = lm.Curve(tree, tuple(lm.curves._chord_params(tree, nodes)), tuple(nodes),
                                meta={"generator": "zigzag", "lam": lam})
                assert lm.check_quasi_geodesic(want, lam, 0.0, 4 * segments).passed
                assert zz == want
                assert [repr(p) for p in zz.points] == [repr(p) for p in nodes]
                assert [type(p.offset) for p in zz.points] == [type(p.offset) for p in nodes]
                again = np.random.default_rng(seed)
                again.choice([-1.0, 1.0])
                again.uniform(0.6, 1.0, segments + 1)
                assert stream.random() == again.random()


def test_only_zigzags_with_sideways_room_are_checked(monkeypatch, hyper, euclid2, tripod):
    calls = []
    check = lm.curves.check_quasi_geodesic
    monkeypatch.setattr(lm.curves, "check_quasi_geodesic",
                        lambda curve, *args: calls.append(curve.space.kind) or check(curve, *args))
    rng = np.random.default_rng(8)
    lm.zigzag_quasi_geodesic(tripod, lm.vertex_point("a"), lm.vertex_point("b"), 1.5, 6, rng,
                             away_from=lm.vertex_point("d"))
    lm.zigzag_quasi_geodesic(tripod, lm.vertex_point("a"), lm.vertex_point("d"), 1.5, 6, rng)
    assert calls == []
    for space, (a, b) in ((hyper, (lm.hpoint(-0.9, 0), lm.hpoint(0.9, 0))),
                          (euclid2, (lm.epoint(0, 0), lm.epoint(9, 0)))):
        zz = lm.zigzag_quasi_geodesic(space, a, b, 1.5, 6, rng, away_from=space.origin())
        assert calls and calls[-1] == space.kind and "fallback" not in zz.meta
        assert zz.points != tuple(space.geodesic_points(a, b, np.linspace(0, 1, 7).tolist()))
        assert check(zz, 1.5, 0.0, 24).passed


def exact(curve):
    """A curve's params, points and meta, every number at full precision and with its type."""
    pts = [(p.kind, repr(p.coords), p.edge, repr(p.offset), type(p.offset), p.vertex)
           for p in curve.points]
    return repr(curve.params), pts, repr(curve.meta)


def zigzag_by_displace(space, a, b, lam, segments, rng, away_from):
    """The zigzag built with one `displace` call per node and sign, each placing its node."""
    ts = np.linspace(0.0, 1.0, segments + 1).tolist()
    geodesic = space.geodesic_points(a, b, ts)
    gap = float(space.distance(a, b)) / segments
    amp = 0.45 * gap * (lam - 1.0) / lam
    signs = rng.choice([-1.0, 1.0])
    mags = rng.uniform(0.6, 1.0, segments + 1)
    for _ in range(lm.curves._ZIGZAG_TRIES):
        pts = [a]
        for i in range(1, segments):
            if away_from is None:
                s = signs if i % 2 == 0 else -signs
                pts.append(space.displace(a, b, ts[i], amp * mags[i] * s))
                continue
            plus = space.displace(a, b, ts[i], amp * mags[i])
            minus = space.displace(a, b, ts[i], -amp * mags[i])
            far = plus
            if plus != minus:
                d_plus, d_minus = space.distance(plus, away_from), space.distance(minus, away_from)
                far = plus if d_plus >= d_minus else minus
            pts.append(far)
        pts.append(b)
        params = lm.curves._chord_params(space, pts)
        if all(q > p for p, q in zip(params, params[1:])):
            curve = lm.Curve(space, tuple(params), tuple(pts),
                             meta={"generator": "zigzag", "lam": lam})
            if pts == geodesic or lm.check_quasi_geodesic(curve, lam, 0.0, 4 * segments).passed:
                return curve
        amp *= 0.5
    return lm.Curve(space, tuple(lm.curves._chord_params(space, geodesic)), tuple(geodesic),
                    meta={"generator": "zigzag", "lam": lam, "fallback": True})


@pytest.mark.parametrize("kind", list(SPACES))
def test_zigzag_pushes_its_nodes_as_displace_places_and_pushes_them(kind):
    space = SPACES[kind]
    sampler = lm.PointSampler(space, scale=1.0 if kind == "l2box" else 3.0, seed=77)
    for trial in range(3):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        if space.distance(x, y) == 0:
            continue
        for lam in (1.2, 1.5, 2.0):
            for away_from in (None, z):
                seed = (trial, int(10 * lam))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = lm.zigzag_quasi_geodesic(space, x, y, lam, 3 + 2 * trial, got_rng,
                                               away_from=away_from)
                want = zigzag_by_displace(space, x, y, lam, 3 + 2 * trial, want_rng, away_from)
                assert exact(got) == exact(want)
                assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize("kind", ["hyperbolic", "rtree", "caterpillar"])
def test_zigzags_away_from_a_point_place_no_single_point(monkeypatch, kind):
    # every node comes from the one geodesic_points call; a push places nothing
    space = SPACES[kind]
    calls = []
    place = lm.spaces.Space.geodesic_point
    monkeypatch.setattr(lm.spaces.Space, "geodesic_point",
                        lambda self, *args: calls.append(args) or place(self, *args))
    sampler = lm.PointSampler(space, scale=3.0, seed=5)
    for lam in (1.2, 2.0):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        if space.distance(x, y) != 0:
            lm.zigzag_quasi_geodesic(space, x, y, lam, 6, np.random.default_rng(3), away_from=z)
    assert calls == []


def tube_by_hand(length, step, amplitude, seed):
    """The tube nodes with the sideways push written out as tangent times i."""
    space = lm.HyperbolicPlane()
    rng = np.random.default_rng(seed)
    pts = []
    for i in range(int(round(length / step)) + 1):
        s = i * step
        axis = lm.hpoint(math.tanh(0.5 * s), 0.0)
        if i == 0:
            pts.append(axis)
            continue
        off = amplitude * float(rng.uniform(-1.0, 1.0))
        direction = space.tangent_direction(axis, lm.hpoint(math.tanh(0.5 * (s + 1.0)), 0.0))
        pts.append(space.point_toward(axis, direction * 1j, off))
    return pts


@pytest.mark.parametrize("seed", [0, 3, 11, 40])
def test_tube_curve_pushes_as_the_hand_written_push_did(seed):
    args = {"length": 6.0 + seed % 7, "step": (1.0, 0.5)[seed % 2], "amplitude": 0.1 + seed / 100,
            "seed": seed}
    tube = lm.hyperbolic_tube_curve(**args)
    pts = tube_by_hand(**args)
    want = lm.Curve(tube.space, tuple(lm.curves._chord_params(tube.space, pts)), tuple(pts),
                    meta={"generator": "hyperbolic_tube", "args": args})
    assert exact(tube) == exact(want)


def test_zigzag_lambda_one_is_geodesic(euclid2):
    zz = lm.zigzag_quasi_geodesic(euclid2, lm.epoint(0, 0), lm.epoint(4, 0), 1.0, segments=4)
    for p in zz.points:
        assert p.coords[1] == 0.0


def test_curve_file_round_trip(tmp_path, euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 1), lm.epoint(3, 5), n_samples=4)
    path = tmp_path / "curve.json"
    lm.save_curve(c, path)
    loaded = lm.load_curve(path)
    assert loaded.params == c.params
    assert all(euclid2.distance(p, q) == 0 for p, q in zip(loaded.points, c.points))


def test_curve_file_generator_reconstruction(tmp_path):
    c = lm.l2_example_curve(6, 10.0)
    path = tmp_path / "l2.json"
    lm.save_curve(c, path)
    loaded = lm.load_curve(path)
    assert loaded.meta["generator"] == "l2_example"
    assert loaded.params == c.params

    ray = lm.tree_ray_curve(lm.ray_tree())
    path2 = tmp_path / "ray.json"
    lm.save_curve(ray, path2)
    loaded2 = lm.load_curve(path2)
    assert loaded2.rule is not None
    assert loaded2.space.distance(loaded2.at(Fraction(9)), lm.vertex_point("r")) == 9


# -- grid placement ---------------------------------------------------------------------------
#
# `_merged_params` places every kept grid value among the samples in one
# exact walk; the reference is one sort of the samples and the kept values,
# with the points evaluated one by one through `Curve.at`.


def merged_reference(curve, grid):
    lo, hi = float(curve.t_min), float(curve.t_max)
    ts = np.asarray([float(t) for t in curve.params])
    inner = np.linspace(lo, hi, max(2, grid))[1:-1]
    n = np.searchsorted(ts, inner).clip(1, len(ts) - 1)
    far = np.minimum(inner - ts[n - 1], ts[n] - inner) > 1e-9 * (hi - lo) / max(1, grid - 1)
    return sorted([*curve.params, *(float(t) for t in inner[far])])


def exactly(values):
    """Values with their types, so that Fraction 1/2 and float 0.5 differ."""
    return [(v, type(v), type(getattr(v, "offset", None))) for v in values]


def lion_path(D):
    tree = lm.ray_tree()
    man = lm.man_directional_strategy(lm.tree_ray_curve(tree), D)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=60, tol=1e-9,
                        lion_start=lm.vertex_point("q"), man_start=man.start())
    return lm.curve_from_transcript(tree, lm.run_game(cfg, man), 12 * D)[1]


def placement_curves():
    line = lm.EuclideanSpace(1)
    far = tuple(10**8 + Fraction(k, 3) for k in range(31))
    # samples one float step above, at, and a rational hair from grid values
    # of a range whose float steps are wider than the rounding filter
    g = np.linspace(1e8, 1e8 + 10.0, 1000)
    near = (Fraction(10**8), Fraction(math.nextafter(g[10], math.inf)), Fraction(g[20]),
            Fraction(g[30]) + Fraction(1, 10**12), Fraction(g[40]) - Fraction(1, 10**12),
            Fraction(math.nextafter(g[50], 0.0)), Fraction(10**8 + 10))
    return {
        "fractions-far-from-0": lm.Curve(line, far, tuple(lm.epoint(float(t - 10**8)) for t in far)),
        "lion-path-2/3": lion_path(Fraction(2, 3)),
        "lion-path-1/7": lion_path(Fraction(1, 7)),
        "one-sample": lm.Curve(lm.EuclideanSpace(2), (Fraction(1, 3),), (lm.epoint(1, 2),)),
        "near-grid-values": lm.Curve(line, near, tuple(lm.epoint(float(t - 10**8)) for t in near)),
        "box": lm.l2_example_curve(4, 5.0, samples_per_leg=1),
    }


@pytest.mark.parametrize("grid", [2, 7, 60, 1000])
@pytest.mark.parametrize("name", sorted(placement_curves()))
def test_merged_params_place_grid_values_as_the_sorted_merge(name, grid):
    curve = placement_curves()[name]
    params, points = lm.curves._merged_params(curve, grid)
    assert exactly(params) == exactly(merged_reference(curve, grid))
    assert exactly(points) == exactly([curve.at(t) for t in params])


def test_grid_checks_evaluate_no_curve_point_one_by_one(monkeypatch):
    path = lion_path(Fraction(2, 3))
    calls = []
    at = lm.Curve.at
    monkeypatch.setattr(lm.Curve, "at", lambda self, t: calls.append(t) or at(self, t))
    lm.check_quasi_geodesic(path, SQRT2, 0.0, 300, k=8)
    lm.check_directional_curve(path, 0.0, 300)
    lm.verify_promotion(path.space, path, 1.0, 0.0, 10.0, grid=300)
    assert calls == []


# -- reference pair loops --------------------------------------------------------------------
#
# Pure-Python loops over the pairs i < j with the checkers' own float
# expressions and a strict "<" first minimum: the vectorised checks must
# return the same reports, field by field.


def qg_reference(curve, lam, lower_eps, upper_eps, grid, k=None):
    tol = curve.space.rel_tol
    params = lm.curves._merged_params(curve, grid)[0]
    dmat = curve.space.pairwise_distances([curve.at(t) for t in params])
    ts = [float(t) for t in params]
    n_pairs = 0
    worst = {"ratio": None, "lower": None, "upper": None}  # (scaled, i, j, raw, d)
    first = {"lower": None, "upper": None}
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            gap = abs(ts[i] - ts[j])
            if k is not None and not gap <= float(k) * (1.0 + 1e-12):
                continue
            n_pairs += 1
            d = float(dmat[i, j])
            scale = max(1.0, gap)
            lower = d - (gap / lam - lower_eps)
            upper = (lam * gap + upper_eps) - d
            ratio = d / gap if gap > 0 else math.inf
            for key, value, raw in (("ratio", ratio, ratio), ("lower", lower / scale, lower),
                                    ("upper", upper / scale, upper)):
                if value < (math.inf if worst[key] is None else worst[key][0]):
                    worst[key] = (value, i, j, raw, d)
            for key, slack in (("lower", lower), ("upper", upper)):
                if first[key] is None and slack < -tol * scale:
                    first[key] = (params[i], params[j], d)

    def pair(w):
        return None if w is None else (params[w[1]], params[w[2]])

    lo, up, ratio = worst["lower"], worst["upper"], worst["ratio"]
    return lm.QGReport(
        lam=float(lam), eps=float(lower_eps), k=None if k is None else float(k),
        n_pairs=n_pairs, passed=not any(w is not None and w[0] < -tol for w in (lo, up)),
        min_ratio=math.inf if ratio is None else ratio[0], min_ratio_pair=pair(ratio),
        worst_lower_slack=math.inf if lo is None else lo[3], worst_lower_pair=pair(lo),
        worst_lower_dist=None if lo is None else lo[4],
        worst_upper_excess=-math.inf if up is None else -up[3], worst_upper_pair=pair(up),
        first_lower_violation=first["lower"], first_upper_violation=first["upper"])


def sequence_reference(space, points, b):
    dmat = space.pairwise_distances(points)
    n = len(points)
    prefix = [0.0]
    for i in range(n - 1):
        prefix.append(prefix[-1] + dmat[i, i + 1])
    worst, witness, checked = math.inf, None, 0
    for i in range(n - 1):
        for j in range(i + 1, n):
            slack = dmat[i, j] - (prefix[j] - prefix[i] - b)
            checked += 1
            if slack < worst:
                worst, witness = slack, (i, j)
    return lm.DirectionalityReport(
        b=float(b), n_checked=checked, passed=bool(worst >= -space.rel_tol),
        worst_lower_slack=float(worst), worst_lower_witness=witness,
        growth=(float(dmat[0, 1]), float(dmat[0, -1])))


def reference_curves():
    """name: (curve, locality k, lambdas); each family has a passing and a failing lambda."""
    tree = lm.RTreeSpace(["v0", "v1", "v2", "v7", "v9"],
                         [("v7", "v9", 1), ("v0", "v7", 3), ("v0", "v1", Fraction(3, 2)),
                          ("v1", "v2", 1)], ray_at="v2")
    ray = lm.tree_ray_curve(tree)
    steps = tuple(Fraction(i, 2) for i in range(14))
    plane, disk = lm.EuclideanSpace(2), lm.HyperbolicPlane()
    zigzag = lm.zigzag_quasi_geodesic(plane, lm.epoint(0, 0), lm.epoint(9, 2), 1.6, 6,
                                      np.random.default_rng(3))
    return {
        "box": (lm.l2_example_curve(4, 5.0, samples_per_leg=1), 40.0, (LAM_BOX, 1.0)),
        "tube": (lm.hyperbolic_tube_curve(length=12.0, amplitude=0.25, seed=5), 3.0,
                 (1.0, 1.5)),
        "disk-geodesic": (lm.geodesic_segment_curve(disk, lm.hpoint(-0.4, 0.1),
                                                    lm.hpoint(0.7, 0.3), 9), 1.5, (1.0, 1.3)),
        "plane-zigzag": (zigzag, 2.0, (1.0, 1.6)),
        "tree-geodesic": (lm.geodesic_segment_curve(tree, lm.vertex_point("v9"), ray.at(8),
                                                    n_samples=13), 2.5, (1.0, 1.2)),
        "tree-ray-fractions": (lm.Curve(tree, steps, tuple(ray.at(t) for t in steps)), 2.0,
                               (1.0,)),
        # two parameters that round to one float: the only pair has gap 0
        "rounding-twins": (lm.Curve(plane, (Fraction(1), 1 + Fraction(1, 10**30)),
                                    (lm.epoint(0, 0), lm.epoint(1e-30, 0))), 1.0, (1.0,)),
        "compressed": (lm.Curve(plane, (0.0, 1.0, 2.0),
                                (lm.epoint(0, 0), lm.epoint(2, 0), lm.epoint(3, 0))), 1.0,
                       (1.0, 2.5)),
    }


REFERENCE_CURVES = sorted(reference_curves())


@pytest.mark.parametrize("grid", [2, 7, 60])
@pytest.mark.parametrize("name", REFERENCE_CURVES)
def test_grid_checks_match_the_reference_pair_loop(name, grid):
    curve, k, lams = reference_curves()[name]
    for lam in lams:
        for eps in (0.0, 0.3):
            for kk in (None, k):
                rep = lm.check_quasi_geodesic(curve, lam, eps, grid, k=kk)
                ref = qg_reference(curve, lam, eps, eps, grid, kk)
                assert astuple(rep) == astuple(ref), (lam, eps, kk)
    for b in (0.0, 0.5):
        ref = qg_reference(curve, 1.0, b, 0.0, grid)
        want = lm.DirectionalityReport(
            b=b, n_checked=ref.n_pairs, passed=ref.passed,
            worst_lower_slack=ref.worst_lower_slack, worst_lower_witness=ref.worst_lower_pair,
            worst_upper_slack=-ref.worst_upper_excess, worst_upper_witness=ref.worst_upper_pair)
        assert astuple(lm.check_directional_curve(curve, b, grid)) == astuple(want), b


def test_reference_curves_pass_and_fail():
    # the cases above cover passing and failing verdicts and both bounds
    for name in ("box", "tube", "compressed"):
        curve, _, lams = reference_curves()[name]
        reports = [lm.check_quasi_geodesic(curve, lam, 0.0, 60) for lam in lams]
        assert [r.passed for r in reports] == [name == "box", name != "box"]
    curve = reference_curves()["compressed"][0]
    assert lm.check_quasi_geodesic(curve, 1.0, 0.0, 60).first_upper_violation is not None


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic", "l2box", "rtree"])
def test_directional_sequence_matches_the_reference_loop(all_spaces, ray_tree, kind):
    space = ray_tree if kind == "rtree" else all_spaces[kind]
    sampler = sampler_for(space, seed=8)
    for n in range(2, 21):
        pts = [sampler.draw() for _ in range(n)]
        if n % 3 == 0:  # points along one geodesic: a directional sequence
            pts = [space.geodesic_point(pts[0], pts[-1], Fraction(i, n - 1)) for i in range(n)]
        for b in (0.0, 1.0):
            rep = lm.check_directional_sequence(space, pts, b)
            assert astuple(rep) == astuple(sequence_reference(space, pts, b))


@pytest.mark.parametrize("kind", ["euclidean", "hyperbolic", "l2box", "rtree"])
def test_windows_decide_every_subsequence(all_spaces, ray_tree, kind):
    # a subsequence's gap sum is at most that of the window with the same
    # ends, so no sparse subsequence has less slack than the checked windows
    space = ray_tree if kind == "rtree" else all_spaces[kind]
    sampler = sampler_for(space, seed=11)
    rng = np.random.default_rng(11)
    for n in range(3, 25):
        pts = [sampler.draw() for _ in range(n)]
        if n % 3 == 0:
            pts = [space.geodesic_point(pts[0], pts[-1], Fraction(i, n - 1)) for i in range(n)]
        dmat = space.pairwise_distances(pts)
        prefix = np.concatenate([[0.0], np.cumsum(np.diagonal(dmat, 1))])
        for b in (0.0, 1.0):
            rep = lm.check_directional_sequence(space, pts, b)
            assert rep.n_checked == n * (n - 1) // 2
            for _ in range(20):
                idx = np.sort(rng.choice(n, size=int(rng.integers(3, n + 1)), replace=False))
                first, last = idx[0], idx[-1]
                span = prefix[last] - prefix[first]
                sparse = dmat[first, last] - (sum(dmat[a, c] for a, c in zip(idx, idx[1:])) - b)
                window = dmat[first, last] - (span - b)
                assert sparse >= window - 1e-12 * max(1.0, span)
                assert sparse >= rep.worst_lower_slack - 1e-12 * max(1.0, span)


def angle_pairs_reference(dists, angle_pairs):
    """The pairs m < n behind the angle checks: every stride-th pair of a
    double loop over the indices at positive distance from x_0."""
    pos = [i for i in range(1, len(dists)) if dists[i] > 0]
    stride = max(1, len(pos) * (len(pos) - 1) // (2 * angle_pairs))
    pairs, count = [], 0
    for ai in range(len(pos)):
        for bi in range(ai + 1, len(pos)):
            count += 1
            if count % stride == 0:
                pairs.append((pos[ai], pos[bi]))
    return pairs


@pytest.mark.parametrize("angle_pairs", [1, 7, 100])
def test_angle_checks_follow_the_reference_pair_loop(euclid2, angle_pairs):
    for n in [*range(2, 61), 2000]:
        # every fifth point sits on x_0, so only the others take part
        pts = [lm.epoint(0, 0) if i % 5 == 0 else lm.epoint(float(i), 0.1 * math.sin(i))
               for i in range(n)]
        pts[-1] = lm.epoint(float(n), 0.0)
        ray = lm.extract_ray_from_directional_sequence(euclid2, pts, 1.0, k_max=1,
                                                       angle_pairs=angle_pairs)
        dists = [euclid2.distance(pts[0], p) for p in pts]
        assert [(m, k) for m, k, _, _ in ray.angle_checks] == angle_pairs_reference(dists, angle_pairs)
