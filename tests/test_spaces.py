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
        mat = space.pairwise_distances(pts)
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
    mat = ray_tree.pairwise_distances(pts)
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
