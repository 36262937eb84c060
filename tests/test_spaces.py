import json
import math
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.errors import (
    DegenerateInputError,
    InvalidInputError,
    InvalidPointError,
    SpaceMismatchError,
)

from conftest import (
    distance_table,
    parent_length,
    poincare_distance_oracle,
    projection_oracle,
    sampler_for,
    tree_distance_oracle,
)

SPACE_KINDS = ["euclidean", "hyperbolic", "l2box", "rtree"]


# -- distance ----------------------------------------------------------------


def test_euclidean_pythagoras(euclid2):
    assert euclid2.distance(lm.epoint(0, 0), lm.epoint(3, 4)) == 5.0


def test_tripod_leaf_distance(tripod):
    a, b = lm.vertex_point("a"), lm.vertex_point("b")
    assert tripod.distance(a, b) == 2
    assert tree_distance_oracle(tripod, a, b) == pytest.approx(2, abs=1e-12)


def test_poincare_distance_closed_form(hyper):
    u, v = lm.hpoint(0, 0), lm.hpoint(0.5, 0)
    d = hyper.distance(u, v)
    assert d == pytest.approx(math.log(3), rel=1e-12)
    assert d == pytest.approx(poincare_distance_oracle(u, v), rel=1e-12)


def test_tree_distance_against_dense_oracle(tripod):
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = tripod.random_point(rng)
        q = tripod.random_point(rng)
        assert float(tripod.distance(p, q)) == pytest.approx(
            tree_distance_oracle(tripod, p, q), abs=1e-9)


def test_ray_tree_distances(ray_tree):
    far = lm.edge_point(lm.RAY_EDGE, Fraction(5))
    q = lm.vertex_point("q")
    assert ray_tree.distance(far, q) == 7
    assert ray_tree.distance(far, lm.edge_point(lm.RAY_EDGE, Fraction(1, 2))) == Fraction(9, 2)


def test_distance_kind_mismatch(euclid2):
    with pytest.raises(SpaceMismatchError):
        euclid2.distance(lm.epoint(0, 0), lm.hpoint(0, 0))


def test_hyperbolic_membership(hyper):
    with pytest.raises(InvalidPointError):
        hyper.distance(lm.hpoint(0, 0), lm.hpoint(1.0, 0))


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_metric_axioms_random_triples(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=101)
    for _ in range(40):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        dxy, dyx = space.distance(x, y), space.distance(y, x)
        assert dxy == dyx  # symmetry is exact
        assert dxy >= 0
        assert space.distance(x, x) == 0
        dxz, dzy = space.distance(x, z), space.distance(z, y)
        scale = max(1.0, float(dxz), float(dzy))
        assert float(dxy) <= float(dxz) + float(dzy) + 1e-9 * scale


# -- geodesic interpolation ---------------------------------------------------


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_geodesic_point_endpoints(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=5)
    x, y = sampler.draw(), sampler.draw()
    assert space.geodesic_point(x, y, 0) == x
    assert space.geodesic_point(x, y, 1) == y


def test_euclidean_midpoint(euclid2):
    mid = euclid2.geodesic_point(lm.epoint(0, 0), lm.epoint(2, 0), 0.5)
    assert mid.coords == (1.0, 0.0)


def test_tripod_midpoint_is_center(tripod):
    mid = tripod.geodesic_point(lm.vertex_point("a"), lm.vertex_point("b"), Fraction(1, 2))
    assert tripod.distance(mid, lm.vertex_point("c")) == 0


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_geodesic_point_distance_split(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=23)
    rng = np.random.default_rng(23)
    rel = space.rel_tol
    for _ in range(100):
        x, y = sampler.draw(), sampler.draw()
        t = float(rng.uniform())
        z = space.geodesic_point(x, y, t)
        d = float(space.distance(x, y))
        scale = max(1.0, d)
        assert abs(float(space.distance(x, z)) - t * d) <= rel * scale
        assert abs(float(space.distance(z, y)) - (1 - t) * d) <= rel * scale


def test_geodesic_point_rejects_bad_parameter(euclid2):
    with pytest.raises(InvalidInputError):
        euclid2.geodesic_point(lm.epoint(0, 0), lm.epoint(1, 0), 1.5)
    with pytest.raises(InvalidInputError):
        euclid2.geodesic_point(lm.epoint(0, 0), lm.epoint(1, 0), -0.1)


def test_l2box_convexity_exact(box):
    rng = np.random.default_rng(31)
    for _ in range(100):
        x = box.random_point(rng)
        y = box.random_point(rng)
        z = box.geodesic_point(x, y, float(rng.uniform()))
        assert all(0.0 <= c <= b for c, b in zip(z.coords, box.bounds))


def test_rtree_four_point_condition(tripod):
    rng = np.random.default_rng(13)
    for _ in range(60):
        pts = [tripod.random_point(rng) for _ in range(4)]
        d = lambda i, j: tripod.distance(pts[i], pts[j])
        sums = sorted([d(0, 1) + d(2, 3), d(0, 2) + d(1, 3), d(0, 3) + d(1, 2)])
        assert sums[1] == sums[2]  # exact rational equality


def test_rtree_exact_walk_keeps_fractions(tripod):
    z = tripod.geodesic_point(lm.vertex_point("a"), lm.vertex_point("d"), Fraction(3, 4))
    assert isinstance(tripod.distance(lm.vertex_point("a"), z), Fraction)
    assert tripod.distance(lm.vertex_point("a"), z) == Fraction(3, 2)


def held_reference(legs, s):
    """The legs an exact walk of s reads, as the greedy tree step once found them."""
    end = None
    for k, leg in enumerate(legs):
        end = leg[0] if end is None else end + leg[0]
        if s <= end:
            return tuple(legs[:k + 1])
    return tuple(legs)


@pytest.mark.parametrize("seed", range(4))
def test_reach_finds_the_legs_of_the_held_loop(seed):
    # seeded trees with and without a ray, between vertices and seeded edge
    # points; a path that ends above its meet, as every path out along the
    # ray does, ends in a leg with no end.  Each exact s in (0, d] is reached
    # fresh and, as walks do, from the last leg reached, in ascending and
    # then in descending order
    rng = np.random.default_rng(seed)
    base = lm.random_tree(rng, n_vertices=9)
    for tree in (base, lm.RTreeSpace(base.vertices, base.edges, ray_at=base.vertices[-1])):
        points = [lm.vertex_point(v) for v in tree.vertices]
        points += [tree.random_point(rng) for _ in range(6)]
        if tree.ray_at is not None:
            points.append(lm.edge_point(lm.RAY_EDGE, Fraction(5, 2)))
        endless = 0
        for x in points:
            for y in points:
                d = tree.distance(x, y)
                if d == 0:
                    continue
                # on a scale that counts every s in whole units
                twelfths = {d * Fraction(j, 12) for j in range(1, 13)}
                scale = tree._scale([x.offset, y.offset, *twelfths])
                legs = tree._legs(tree._form(x, scale), tree._form(y, scale), scale)
                endless += legs[-1][0] == math.inf
                ends, k, d = [], 0, int(d * tree._q * scale)
                ss = sorted(s for s in {int(s * tree._q * scale) for s in twelfths} | {legs[0][0]}
                            if s <= d)
                for s in ss + ss[::-1]:
                    fresh = tree._reach(legs, [], s, 0)
                    assert tuple(legs[:fresh + 1]) == held_reference(legs, s)
                    k = tree._reach(legs, ends, s, k)
                    assert k == fresh
        assert endless



def test_exact_walks_never_round_a_distance_to_float(ray_tree):
    # past 1e308 no float holds the distance, yet exact points and
    # parameters still place exactly
    far = lm.edge_point(lm.RAY_EDGE, Fraction(10**400))
    z = ray_tree.geodesic_point(lm.vertex_point("q"), far, Fraction(1, 2))
    assert z == lm.edge_point(lm.RAY_EDGE, (10**400 - 2) / Fraction(2))
    curve = lm.Curve(ray_tree, (Fraction(0), Fraction(10**400) + 2), (lm.vertex_point("q"), far))
    assert curve.at(Fraction(10**400)) == lm.edge_point(lm.RAY_EDGE, Fraction(10**400) - 2)


# -- projection ----------------------------------------------------------------


@pytest.mark.parametrize("space, p", [(lm.EuclideanSpace(2), lm.epoint(1, 2)),
                                      (lm.L2BoxSpace(n=3, base=4.0), lm.boxpoint(1, 2, 3)),
                                      (lm.HyperbolicPlane(), lm.hpoint(0.1, 0.2))])
def test_displace_on_a_zero_length_segment_has_no_sideways_direction(space, p):
    assert space.displace(p, p, 0.5, 0.0) == p
    with pytest.raises(DegenerateInputError):
        space.displace(p, p, 0.5, 0.3)


def test_projection_orthogonal_foot(euclid2):
    q, d = euclid2.project_to_segment(lm.epoint(1, 1),
                                      lm.Segment(lm.epoint(0, 0), lm.epoint(2, 0)))
    assert q.coords == (1.0, 0.0)
    assert d == 1.0


def test_projection_endpoint_clamp(euclid2):
    q, d = euclid2.project_to_segment(lm.epoint(3, 1),
                                      lm.Segment(lm.epoint(0, 0), lm.epoint(2, 0)))
    assert q.coords == (2.0, 0.0)
    assert d == pytest.approx(math.sqrt(2), rel=1e-12)


def test_projection_tripod_leaf_to_opposite_side(tripod):
    q, d = tripod.project_to_segment(
        lm.vertex_point("d"), lm.Segment(lm.vertex_point("a"), lm.vertex_point("b")))
    assert d == 1
    assert tripod.distance(q, lm.vertex_point("c")) == 0
    oracle = projection_oracle(tripod, lm.vertex_point("d"),
                               lm.Segment(lm.vertex_point("a"), lm.vertex_point("b")))
    assert d == oracle


def test_projection_degenerate_segment(euclid2):
    q, d = euclid2.project_to_segment(lm.epoint(3, 4),
                                      lm.Segment(lm.epoint(0, 0), lm.epoint(0, 0)))
    assert q.coords == (0.0, 0.0)
    assert d == 5.0


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_projection_optimality_dense_oracle(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=47)
    for _ in range(8):
        p, a, b = sampler.draw(), sampler.draw(), sampler.draw()
        seg = lm.Segment(a, b)
        _, d = space.project_to_segment(p, seg)
        assert float(d) <= float(projection_oracle(space, p, seg)) + 1e-6


# -- domains -------------------------------------------------------------------


def test_whole_space_domain(all_spaces):
    for space in all_spaces.values():
        p = sampler_for(space, seed=3).draw()
        assert lm.domain_contains(space, lm.WholeSpace(), p)


def test_box_domain_bounds(box):
    assert lm.domain_contains(box, lm.WholeSpace(), lm.boxpoint(5, 50, 500, 0, 0, 0))
    assert not lm.domain_contains(box, lm.WholeSpace(), lm.boxpoint(11, 0, 0, 0, 0, 0))


def test_ball_domain(euclid2):
    ball = lm.Ball(lm.epoint(0, 0), 2.0)
    assert lm.domain_contains(euclid2, ball, lm.epoint(1, 1))
    assert not lm.domain_contains(euclid2, ball, lm.epoint(2, 2))


def test_subtree_domain(tripod):
    dom = lm.SubtreeDomain({"c", "a"})
    assert lm.domain_contains(tripod, dom, lm.edge_point(0, Fraction(1, 2)))
    assert not lm.domain_contains(tripod, dom, lm.vertex_point("b"))
    assert not lm.domain_contains(tripod, dom, lm.edge_point(1, Fraction(1, 2)))


def test_subtree_domain_config_round_trip_and_ray(ray_tree):
    on_ray, at_anchor = lm.edge_point(lm.RAY_EDGE, Fraction(3, 2)), lm.edge_point(lm.RAY_EDGE, 0)
    for include_ray in (False, True):
        dom = lm.SubtreeDomain({"r", "p"}, include_ray)
        cfg = dom.to_config()
        assert cfg == {"kind": "subtree", "vertices": ["p", "r"], "include_ray": include_ray}
        assert lm.spaces.domain_from_config(ray_tree, cfg) == dom
        assert lm.domain_contains(ray_tree, dom, on_ray) is include_ray
        assert lm.domain_contains(ray_tree, dom, at_anchor)
    # without the ray's anchor a subtree holds no ray point, its include_ray notwithstanding
    away = lm.SubtreeDomain({"p", "q"}, include_ray=True)
    assert not lm.domain_contains(ray_tree, away, on_ray)
    assert not lm.domain_contains(ray_tree, away, at_anchor)
    with pytest.raises(lm.ConfigError, match="vertices"):
        lm.spaces.domain_from_config(ray_tree, {"kind": "subtree", "include_ray": True})


def test_domain_kind_mismatch(euclid2, tripod):
    with pytest.raises(SpaceMismatchError):
        lm.domain_contains(euclid2, lm.WholeSpace(), lm.vertex_point("a"))
    with pytest.raises(SpaceMismatchError):
        lm.domain_contains(tripod, lm.SubtreeDomain({"a"}), lm.epoint(0, 0))


# -- construction validation ----------------------------------------------------


def test_rtree_rejects_cycles_and_disconnection():
    with pytest.raises(InvalidInputError):
        lm.RTreeSpace(["a", "b", "c"],
                      [("a", "b", 1), ("b", "c", 1), ("c", "a", 1)])
    with pytest.raises(InvalidInputError):
        lm.RTreeSpace(["a", "b", "c", "d"], [("a", "b", 1), ("c", "d", 1)])
    with pytest.raises(InvalidInputError):
        lm.RTreeSpace(["a", "b"], [("a", "b", 0)])


def test_l2box_parameter_validation():
    with pytest.raises(InvalidInputError):
        lm.L2BoxSpace(n=0)
    with pytest.raises(InvalidInputError):
        lm.L2BoxSpace(n=3, base=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, Fraction(-1, 2),
                                 "nan", "inf", "-3/2", "1/0", np.float64("nan"), np.int64(0)])
def test_rtree_rejects_lengths_that_are_not_finite_and_positive(bad):
    message = r"edge \('b', 'c'\) length must be a finite number > 0"
    with pytest.raises(InvalidInputError, match=message):
        lm.RTreeSpace(["a", "b", "c"], [("a", "b", 1), ("b", "c", bad)])


def test_float_tree_lengths_read_as_the_decimals_they_print_as():
    tree = lm.RTreeSpace(["a", "b", "c"], [("a", "b", 0.1), ("b", "c", 0.7)])
    assert [length for _, _, length in tree.edges] == [Fraction(1, 10), Fraction(7, 10)]
    d = tree.distance(lm.vertex_point("a"), lm.vertex_point("c"))
    assert d == Fraction(4, 5) and type(d) is Fraction
    assert tree.to_config()["edges"] == [["a", "b", "1/10"], ["b", "c", "7/10"]]
    for fixture in (lm.tripod(0.1), lm.ray_tree(0.1)):
        assert {length for _, _, length in fixture.edges} == {Fraction(1, 10)}
    assert lm.tripod(Fraction(1, 3)).edges == lm.tripod("1/3").edges


@pytest.mark.parametrize("lengths, want", [
    ((np.int64(2), np.int64(3)), (Fraction(2), Fraction(3))),
    ((np.float64(0.1), np.float64(2.5)), (Fraction(1, 10), Fraction(5, 2))),
])
def test_numpy_lengths_build_exact_trees(lengths, want):
    tree = lm.RTreeSpace(["a", "b", "c"], [("a", "b", lengths[0]), ("b", "c", lengths[1])],
                         ray_at="a")
    assert tuple(length for _, _, length in tree.edges) == want
    assert all(type(length) is Fraction for _, _, length in tree.edges)
    far = lm.edge_point(lm.RAY_EDGE, Fraction(1, 2))
    d = tree.distance(far, lm.vertex_point("c"))
    assert d == sum(want) + Fraction(1, 2) and type(d) is Fraction


def test_a_float_length_tree_round_trips_through_its_files(tmp_path):
    # config, curve file and transcript all hold the exact lengths, so each
    # reloads to the same tree, and the audit accepts the reloaded transcript
    tree = lm.RTreeSpace(["r", "a", "b"], [("r", "a", 0.1), ("a", "b", 0.7)], ray_at="r")
    config = tmp_path / "space.json"
    config.write_text(json.dumps({"space": tree.to_config()}))
    assert lm.load_space_config(config)[0].to_config() == tree.to_config()

    b, a, r = (lm.vertex_point(v) for v in "bar")
    curve = lm.Curve(tree, (Fraction(0), Fraction(7, 10), Fraction(4, 5)), (b, a, r))
    lm.save_curve(curve, tmp_path / "curve.json")
    loaded = lm.load_curve(tmp_path / "curve.json")
    assert loaded.space.to_config() == tree.to_config()
    assert loaded.params == curve.params and loaded.points == curve.points

    D = Fraction(1, 10)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=40, tol=1e-9,
                        lion_start=b, man_start=lm.edge_point(lm.RAY_EDGE, Fraction(1, 2)))
    transcript = lm.run_game(cfg, lm.StationaryStrategy())
    lm.save_transcript(transcript, tmp_path / "run.json")
    again = lm.load_transcript(tmp_path / "run.json")
    assert again.space.to_config() == tree.to_config()
    audit = lm.rtree_capture_audit(tree, again)
    assert audit.passed
    assert repr(audit) == repr(lm.rtree_capture_audit(tree, transcript))


NAN_GUARDS = {  # each guard's call with a NaN, and its message
    "estimate_quasi_slim_M lambda": (lambda: lm.estimate_quasi_slim_M(
        lm.tripod(), math.nan, lm.PointSampler(lm.tripod(), 2, seed=1), 3),
        "lambda must be >= 1"),
    "check_gromov_criterion delta_prime": (lambda: lm.check_gromov_criterion(
        lm.tripod(), [tuple(map(lm.vertex_point, "abd"))], math.nan),
        "delta_prime must be >= 0"),
    "L2BoxSpace base": (lambda: lm.L2BoxSpace(3, math.nan), "base must be > 1"),
    "EuclideanSpace dim": (lambda: lm.EuclideanSpace(math.nan), "dimension must be >= 1"),
    "zigzag lambda": (lambda: lm.zigzag_quasi_geodesic(
        lm.tripod(), lm.vertex_point("a"), lm.vertex_point("b"), math.nan),
        "lambda must be >= 1"),
    "Ball radius": (lambda: lm.Ball(lm.epoint(0, 0), math.nan), "ball radius must be >= 0"),
    "PointSampler scale": (lambda: lm.PointSampler(lm.EuclideanSpace(2), math.nan),
                           "sampler scale must be finite and > 0"),
}


@pytest.mark.parametrize("name", list(NAN_GUARDS))
def test_every_range_guard_fails_nan(name):
    call, message = NAN_GUARDS[name]
    with pytest.raises(InvalidInputError, match=message):
        call()


@pytest.mark.parametrize("scale", [math.inf, 0, 0.0, -1.0])
def test_sampler_scale_must_be_finite_and_positive(scale):
    with pytest.raises(InvalidInputError, match="sampler scale must be finite and > 0"):
        lm.PointSampler(lm.HyperbolicPlane(), scale)


def test_ball_radius_and_zigzag_lambda_below_their_bounds_raise():
    with pytest.raises(InvalidInputError, match="ball radius must be >= 0"):
        lm.Ball(lm.epoint(0, 0), -1.0)
    with pytest.raises(InvalidInputError, match="lambda must be >= 1"):
        lm.zigzag_quasi_geodesic(lm.EuclideanSpace(2), lm.epoint(0, 0), lm.epoint(3, 1), 0.5)


# -- config round-trip -----------------------------------------------------------


def test_space_config_round_trip(tmp_path, ray_tree, box):
    import json

    from lionman.spaces import space_from_config, space_to_config

    for space in (ray_tree, box, lm.EuclideanSpace(3), lm.HyperbolicPlane()):
        cfg = space_to_config(space)
        again = space_to_config(space_from_config(json.loads(json.dumps(cfg))))
        assert cfg == again

    path = tmp_path / "space.json"
    path.write_text(json.dumps({"space": space_to_config(ray_tree),
                                "domain": {"kind": "whole"}}))
    loaded, dom = lm.load_space_config(path)
    assert space_to_config(loaded) == space_to_config(ray_tree)
    assert isinstance(dom, lm.WholeSpace)


def test_malformed_config_reports_field(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"kind": "rtree", "vertices": ["a"]}}')
    with pytest.raises(lm.ConfigError):
        lm.load_space_config(bad)
    bad.write_text("{not json")
    with pytest.raises(lm.ConfigError, match="line"):
        lm.load_space_config(bad)


def test_pairwise_distances_match_scalar(all_spaces):
    for space in all_spaces.values():
        sampler = sampler_for(space, seed=77)
        pts = [sampler.draw() for _ in range(12)]
        mat = distance_table(space, pts)
        for i in range(12):
            for j in range(12):
                assert mat[i, j] == pytest.approx(
                    float(space.distance(pts[i], pts[j])), abs=1e-9)


# -- deeper trees ----------------------------------------------------------------


def test_random_tree_distances_and_walks():
    rng = np.random.default_rng(991)
    for trial in range(6):
        tree = lm.random_tree(np.random.default_rng(500 + trial), n_vertices=8)
        for _ in range(12):
            p, q = tree.random_point(rng), tree.random_point(rng)
            d = tree.distance(p, q)
            assert float(d) == pytest.approx(tree_distance_oracle(tree, p, q), abs=1e-9)
            t = Fraction(int(rng.integers(0, 17)), 16)
            z = tree.geodesic_point(p, q, t)
            assert tree.distance(p, z) == t * d
            assert tree.distance(z, q) == (1 - t) * d


def test_random_tree_four_point_condition():
    for trial in range(4):
        tree = lm.random_tree(np.random.default_rng(600 + trial), n_vertices=7)
        rng = np.random.default_rng(trial)
        for _ in range(25):
            pts = [tree.random_point(rng) for _ in range(4)]
            d = lambda i, j: tree.distance(pts[i], pts[j])
            sums = sorted([d(0, 1) + d(2, 3), d(0, 2) + d(1, 3), d(0, 3) + d(1, 2)])
            assert sums[1] == sums[2]


def test_ray_tree_pairwise_matches_scalar(ray_tree):
    rng = np.random.default_rng(17)
    pts = [ray_tree.random_point(rng) for _ in range(14)]
    pts += [lm.edge_point(lm.RAY_EDGE, Fraction(k, 2)) for k in range(6)]
    mat = distance_table(ray_tree, pts)
    for i in range(len(pts)):
        for j in range(len(pts)):
            assert mat[i, j] == pytest.approx(
                float(ray_tree.distance(pts[i], pts[j])), abs=1e-9)


def test_geodesic_walk_crosses_many_edges():
    tree = lm.RTreeSpace(
        ["v0", "v1", "v2", "v3", "v4"],
        [("v0", "v1", Fraction(1)), ("v1", "v2", Fraction(2)),
         ("v2", "v3", Fraction(1, 2)), ("v2", "v4", Fraction(3))])
    p = lm.edge_point(0, Fraction(1, 4))       # near v0
    q = lm.edge_point(3, Fraction(5, 2))       # deep into the v2-v4 edge
    assert tree.distance(p, q) == Fraction(3, 4) + Fraction(2) + Fraction(5, 2)
    # walk to a point inside each traversed edge
    total = tree.distance(p, q)
    for num, den in ((1, 8), (1, 3), (2, 3), (7, 8)):
        t = Fraction(num, den)
        z = tree.geodesic_point(p, q, t)
        assert tree.distance(p, z) == t * total
        assert tree.distance(p, z) + tree.distance(z, q) == total


def test_ray_edge_walk_crosses_finite_tree(ray_tree):
    far = lm.edge_point(lm.RAY_EDGE, Fraction(10))
    q = lm.vertex_point("q")
    z = ray_tree.geodesic_point(q, far, Fraction(1, 4))  # 3 of 12, past p and r
    assert ray_tree.distance(q, z) == 3
    assert ray_tree.distance(z, far) == 9


def test_float_walk_rounding_past_a_vertex_lands_on_it():
    # the midpoint sits 7/24 + 1/24 = 1/3 along a-b, and that float sum
    # rounds past 1/3: the walk must land on vertex b
    tree = lm.RTreeSpace(["a", "b", "c"],
                         [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(1, 3))])
    x, y = lm.edge_point(0, Fraction(7, 24)), lm.edge_point(1, Fraction(1, 24))
    z = tree.geodesic_point(x, y, 0.5)
    assert z == lm.vertex_point("b")
    assert tree.distance(x, z) == Fraction(1, 24)


def test_float_walk_past_a_rayless_root_returns_the_root():
    # the float climb from d overshoots the root r by ~4e-16; with no ray
    # edge above r the walk must stop on r
    tree = lm.RTreeSpace(["r", "a", "b", "d", "c"],
                         [("r", "a", Fraction(1, 7)), ("a", "b", Fraction(13, 3)),
                          ("b", "d", Fraction(15, 13)), ("r", "c", Fraction(1))])
    z = tree.geodesic_point(lm.vertex_point("d"), lm.vertex_point("r"), 0.9999999999999998)
    assert z == lm.vertex_point("r")


def test_ray_point_projects_to_segment_endpoint(ray_tree):
    far = lm.edge_point(lm.RAY_EDGE, Fraction(10))
    seg = lm.Segment(lm.vertex_point("p"), lm.vertex_point("q"))
    proj, d = ray_tree.project_to_segment(far, seg)
    assert d == 11
    assert ray_tree.distance(proj, lm.vertex_point("p")) == 0


def test_hyperbolic_midpoint_accuracy_near_rim(hyper):
    a = hyper.point_toward(lm.hpoint(0, 0), complex(1, 0), 12.0)
    b = hyper.point_toward(lm.hpoint(0, 0), complex(0, 1), 12.0)
    m = hyper.geodesic_point(a, b, 0.5)
    half = float(hyper.distance(a, b)) / 2
    assert abs(float(hyper.distance(a, m)) - half) <= 1e-8


# -- tree tables from one pass over the meets


def recursive_tables(tree):
    """rise, below and span as the recursion over parent rows built them, in Fractions."""
    n, zero = len(tree.vertices), Fraction(0)
    ancestors = []
    for j in range(n):
        chain = {j}
        while j != tree._root:
            j = tree._parent[j]
            chain.add(j)
        ancestors.append(chain)
    rise = [None] * n
    for i in sorted(range(n), key=lambda i: len(ancestors[i])):  # parents first
        p = tree._parent[i]
        rise[i] = [zero if i in ancestors[j] else parent_length(tree, i) + rise[p][j]
                   for j in range(n)]
    below = np.array([[r > 0 for r in row] for row in rise])
    span = np.array([[float(rise[i][j] + rise[j][i]) for j in range(n)] for i in range(n)])
    return rise, below, span


def table_trees():
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    rng = np.random.default_rng(17)
    big = lm.random_tree(rng, n_vertices=40)
    # the 40-vertex shape again, over edges of thirds and sevenths
    odd = [(u, v, Fraction(int(rng.integers(1, 12)), int(rng.choice([3, 7]))))
           for u, v, _ in big.edges]
    return {
        "lone-vertex": lm.RTreeSpace(["v"], []),
        "lone-vertex-ray": lm.RTreeSpace(["v"], [], ray_at="v"),
        "ray-tree": lm.ray_tree(),
        "ray-tree-thirds": lm.ray_tree(third),
        "thirds-sevenths": lm.RTreeSpace(
            ["a", "b", "c", "d", "e", "f"],
            [("a", "b", third), ("c", "b", 2 * seventh), ("b", "d", 5 * third),
             ("e", "d", seventh), ("d", "f", third + seventh)], ray_at="d"),
        "float-lengths": lm.RTreeSpace(
            ["a", "b", "c", "d", "e"],
            [("a", "b", 0.1), ("b", "c", 0.7), ("b", "d", 1 / 3), ("d", "e", 0.2)]),
        "mixed-lengths": lm.RTreeSpace(
            ["a", "b", "c", "d"], [("a", "b", 0.1), ("b", "c", third), ("c", "d", 0.3)],
            ray_at="c"),
        "tree40": big,
        "tree40-ray": lm.RTreeSpace(big.vertices, big.edges, ray_at="v23"),
        "tree40-thirds-sevenths": lm.RTreeSpace(big.vertices, odd, ray_at="v7"),
    }


@pytest.mark.parametrize("name", list(table_trees()))
def test_tree_tables_equal_the_recursion_over_parent_rows(name):
    tree = table_trees()[name]
    rise, below, span = recursive_tables(tree)
    # the int tables count 1/q, q the lcm of the edge lengths' denominators
    q = tree._q
    assert q == math.lcm(*(length.denominator for _, _, length in tree.edges))
    for row, ref_row in zip(tree._rise, rise):
        assert {type(r) for r in row} == {int}
        assert row == [r * q for r in ref_row]
    assert tree._len == [parent_length(tree, i) * q for i in range(len(tree.vertices))]
    assert tree._flen == [float(parent_length(tree, i)) for i in range(len(tree.vertices))]
    assert tree._climbs == below.tolist()
    assert tree._below.dtype == below.dtype and (tree._below == below).all()
    assert tree._span.dtype == span.dtype and tree._span.shape == span.shape
    assert tree._span.tobytes() == span.tobytes()


@pytest.mark.parametrize("kind", ["euclidean", "l2box", "hyperbolic"])
def test_moves_hold_python_floats(kind):
    space = {"euclidean": lm.EuclideanSpace(2), "l2box": lm.L2BoxSpace(3, 4.0),
             "hyperbolic": lm.HyperbolicPlane()}[kind]
    rng = np.random.default_rng(3)
    man = space.random_point(rng, 0.5)
    moves = space.move_candidates(man, 0.25, 8)
    moves += [space.random_move(rng, man, Fraction(1, 4)) for _ in range(20)]
    moves = [p for p in moves if p is not None]
    assert len(moves) > 8
    assert {type(c) for p in moves for c in p.coords} == {float}
