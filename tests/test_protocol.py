"""Property tests of the Space protocol, across all four families."""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lionman as lm
from conftest import projection_oracle
from test_tree_golden import caterpillar

KINDS = ("euclidean", "l2box", "hyperbolic", "rtree", "caterpillar")
SMOOTH = ("euclidean", "l2box", "hyperbolic")
TREES = ("rtree", "caterpillar")
# few, reproducible examples: the suite stays fast and never flakes
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

SPACES = {
    "euclidean": lm.EuclideanSpace(2),
    "l2box": lm.L2BoxSpace(n=3, base=4.0),
    "hyperbolic": lm.HyperbolicPlane(),
    # a star: three legs and the ray leave the center c
    "rtree": lm.RTreeSpace(["c", "a", "b", "d"],
                           [("c", "a", Fraction(1)), ("c", "b", Fraction(3, 2)),
                            ("c", "d", Fraction(2))], ray_at="c"),
    "caterpillar": caterpillar(),
}


LEGS = (0, 1, 2, lm.RAY_EDGE)


def leg_point(leg, k):
    """Tree point k/16 of the way out along a leg of the star (the ray: k/4)."""
    if leg == lm.RAY_EDGE:
        return lm.edge_point(leg, Fraction(k, 4))
    return lm.edge_point(leg, SPACES["rtree"].edges[leg][2] * Fraction(k, 16))


def points(kind):
    """Points of SPACES[kind]: hyperbolic ones within distance 6 of the origin."""
    space = SPACES[kind]
    if kind == "euclidean":
        return st.builds(lm.epoint, st.floats(-8, 8), st.floats(-8, 8))
    if kind == "l2box":
        return st.lists(st.floats(0, 1), min_size=3, max_size=3).map(
            lambda us: lm.boxpoint(*(u * b for u, b in zip(us, space.bounds))))
    if kind == "hyperbolic":
        return st.builds(lambda s, th: lm.hpoint(math.tanh(s / 2) * math.cos(th),
                                                 math.tanh(s / 2) * math.sin(th)),
                         st.floats(0, 6), st.floats(0, 2 * math.pi))
    if kind == "rtree":
        return st.builds(leg_point, st.sampled_from(LEGS), st.integers(0, 16))
    return st.one_of(
        st.builds(lm.vertex_point, st.sampled_from(space.vertices)),
        st.builds(lambda e, k: lm.edge_point(e, space.edges[e][2] * Fraction(k, 16)),
                  st.integers(0, len(space.edges) - 1), st.integers(0, 16)),
        st.builds(lambda k: lm.edge_point(lm.RAY_EDGE, Fraction(k, 4)), st.integers(0, 16)))


def steps(kind):
    if kind in TREES:
        return st.builds(Fraction, st.integers(1, 8), st.just(4))
    return st.floats(0.05, 2.0)


def params(kind):
    if kind in TREES:
        return st.builds(Fraction, st.integers(0, 64), st.just(64))
    return st.floats(0, 1)


def exact(p):
    """The tree point with its float offset read as the exact rational it is."""
    return lm.edge_point(p.edge, Fraction(p.offset)) if p.vertex is None else p


def close_to(space, value, target):
    return abs(float(value) - float(target)) <= space.rel_tol * max(1.0, float(target))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_moves_are_members_within_D(kind, data):
    space = SPACES[kind]
    man = data.draw(points(kind))
    D = data.draw(steps(kind))
    directions = data.draw(st.integers(2, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    moves = space.move_candidates(man, D, directions)
    moves += [m for m in (space.random_move(rng, man, D) for _ in range(6)) if m is not None]
    for m in moves:
        assert space.contains_point(m)
        assert float(space.distance(man, m)) <= float(D) + space.rel_tol * max(1.0, float(D))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_displace_stays_within_amp_of_the_geodesic(kind, data):
    space = SPACES[kind]
    a, b = data.draw(points(kind)), data.draw(points(kind))
    t = data.draw(params(kind))
    p = space.geodesic_point(a, b, t)
    assert space.displace(a, b, t, 0.0) == p
    assume(space.distance(a, b) > 1e-6)
    amp = data.draw(st.floats(-1.0, 1.0))
    q = space.displace(a, b, t, amp)
    assert space.contains_point(q)
    assert float(space.distance(p, q)) <= abs(amp) + space.rel_tol


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t", [0, 1])
@PROPERTY
@given(data=st.data())
def test_displace_at_a_segment_end_pushes_that_end(kind, t, data):
    # sideways is perpendicular to the segment at its ends too
    space = SPACES[kind]
    a, b = data.draw(points(kind)), data.draw(points(kind))
    assume(float(space.distance(a, b)) > 1e-3)
    end, other = (a, b) if t == 0 else (b, a)
    amp = data.draw(st.floats(0.05, 1.0))
    q = space.displace(a, b, t, amp)
    assert space.contains_point(q)
    if kind in TREES:
        assert q == end
        return
    assert float(space.distance(end, q)) <= amp + space.rel_tol
    if kind != "l2box":  # the box may clip the push back in
        assert close_to(space, space.distance(end, q), amp)
        assert abs(space.angle(end, other, q) - math.pi / 2) < 1e-6


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_geodesic_points_are_members_splitting_the_distance(kind, data):
    # d(x, g(t)) = t d(x, y): exact on trees at rational t, and every walk,
    # at a float t too, returns a member of the space
    space = SPACES[kind]
    x, y = data.draw(points(kind)), data.draw(points(kind))
    d = space.distance(x, y)
    for t in (data.draw(params(kind)), data.draw(st.floats(0, 1))):
        z = space.geodesic_point(x, y, t)
        assert space.contains_point(z)
        if kind in TREES and isinstance(t, Fraction):
            assert space.distance(x, z) == t * d
            assert space.distance(z, y) == (1 - t) * d
        else:
            assert close_to(space, space.distance(x, z), t * float(d))


def far_points(kind):
    """points(kind), with hyperbolic ones out to distance 10 from the origin."""
    if kind != "hyperbolic":
        return points(kind)
    return st.builds(lambda s, th: lm.hpoint(math.tanh(s / 2) * math.cos(th),
                                             math.tanh(s / 2) * math.sin(th)),
                     st.floats(0, 10), st.floats(0, 2 * math.pi))


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_to_chain_is_the_nearest_segment_distance(kind, data):
    # the kernel against the smallest project_to_segment distance, on a chain
    # with a repeated node whose end nodes lie on [x, ...] and [..., y], so
    # that the probes x and y sit beyond its ends
    # (on trees a float parameter gives float offsets, compared as floats)
    space = SPACES[kind]
    ts = st.one_of(params(kind), st.floats(0, 1))
    x, y = data.draw(far_points(kind)), data.draw(far_points(kind))
    chain = data.draw(st.lists(far_points(kind), min_size=2, max_size=4))
    chain[0] = space.geodesic_point(x, chain[1], data.draw(ts))
    chain[-1] = space.geodesic_point(y, chain[-2], data.draw(ts))
    k = data.draw(st.integers(0, len(chain) - 1))
    chain.insert(k, chain[k])
    probes = [x, y] + data.draw(st.lists(far_points(kind), max_size=3))
    probes += [space.geodesic_point(a, b, data.draw(ts)) for a, b in zip(chain, chain[1:])]
    got = space._to_chain(probes, chain)
    assert len(got) == len(probes)
    for p, d in zip(probes, got):
        want = min((space.project_to_segment(p, lm.Segment(a, b))[1]
                    for a, b in zip(chain, chain[1:])), key=float)
        assert type(d) in (float, Fraction) and d >= 0
        if kind in TREES and all(isinstance(z.offset, Fraction) or z.vertex is not None
                                 for z in chain + [p]):
            assert d == want and type(d) is type(want)
            continue
        if kind in SMOOTH:
            assert type(d) is type(want)
        # in the disk both computations round in the chart, and the error in
        # hyperbolic terms grows with the square of the conformal factor
        # 1 / (1 - |z|^2) of the points involved (about 3e7 at distance 10)
        rim = 1.0
        if kind == "hyperbolic":
            rim = max(1.0 / (1.0 - (z.coords[0] ** 2 + z.coords[1] ** 2)) for z in chain + [p])
        assert abs(d - want) <= 1e-12 * max(1.0, want) * rim ** 2


def test_tree_kernel_clamps_rounding_at_zero():
    # a float point of [v0, v30] whose rounded d(p, a) + d(p, b) - d(a, b) is -2^-52
    tree = lm.random_tree(np.random.default_rng(5), n_vertices=40)
    a, b = lm.vertex_point("v0"), lm.vertex_point("v30")
    p = tree.geodesic_point(a, b, 0.12340232816315366)
    assert tree._dist(p, a) + tree._dist(p, b) - tree._dist(a, b) < 0
    assert tree._to_chain([p], [a, b]) == [0.0]


def same_point(p, q):
    """p and q are equal and print alike, their numbers of one type."""
    types = [type(c) for c in p.coords] + [type(p.offset)]
    return p == q and repr(p) == repr(q) and types == [type(c) for c in q.coords] + [type(q.offset)]


def sequential_walk(space, x, y, t):
    """Tree point at 0 < t < 1 on [x, y] by one walk along the edges.

    The distance s = t d(x, y) loses each edge as the walk passes it, up from
    x to the meet and then down to y, comparing exactly with the edge.
    """
    s = t * space.distance(x, y)
    i, h, rest = space._form(x)
    j, hy, _ = space._form(y)
    while space._rise[i][j] and s >= rest:
        s -= rest
        i = space._parent[i]
        h, rest = Fraction(0), space._len[i]
    if space._rise[i][j] or (i == j and hy > h):
        return space._on_edge(i, h, rest, s)
    below = [j]
    while below[-1] != i:
        below.append(space._parent[below[-1]])
    for c in reversed(below):
        if c != i:
            h, rest = space._len[c], Fraction(0)
        if s <= h:
            return space._on_edge(c, h, rest, -s)
        s -= h
    return lm.vertex_point(space.vertices[j])


def landing_params(space, x, y):
    """ts whose point on [x, y] is a vertex: exact ones, and float ones whose
    s = t d(x, y) rounds to exactly float(d(x, v))."""
    d = space.distance(x, y)
    out = []
    for v in map(lm.vertex_point, space.vertices):
        dv = space.distance(x, v)
        if 0 < dv < d and dv + space.distance(v, y) == d:
            out.append(dv / d)
            t = float(dv) / float(d)
            for _ in range(4):
                if t * d == float(dv):
                    out.append(t)
                    break
                t = math.nextafter(t, math.inf if t * d < float(dv) else -math.inf)
    return out


@pytest.mark.parametrize("kind", KINDS)
@PROPERTY
@given(data=st.data())
def test_geodesic_points_place_each_t_as_geodesic_point_does(kind, data):
    # one call for many ts against one call per t, by value, repr and type:
    # Fraction and float ts in any order, repeated, with the ends 0 and 1, and
    # on trees ts that land on a vertex of [x, y]; a tree point also equals
    # the edge-by-edge walk
    space = SPACES[kind]
    x = data.draw(far_points(kind))
    y = data.draw(st.one_of(st.just(x), far_points(kind)))
    ends = st.sampled_from([0, 1, 0.0, 1.0, Fraction(0), Fraction(1)])
    ts = data.draw(st.lists(st.one_of(params(kind), st.floats(0, 1), ends,
                                      st.fractions(0, 1, max_denominator=48)),
                            min_size=1, max_size=10))
    if kind in TREES:
        ts += landing_params(space, x, y)
    ts = list(data.draw(st.permutations(ts)))
    ts += ts[:data.draw(st.integers(0, len(ts)))]
    got = space.geodesic_points(x, y, ts)
    assert len(got) == len(ts)
    for t, p in zip(ts, got):
        assert same_point(p, space.geodesic_point(x, y, t))
        if kind in TREES and 0 < t < 1 and space.distance(x, y) > 0:
            assert same_point(p, sequential_walk(space, x, y, t))


def test_geodesic_points_break_float_ties_exactly():
    # on the caterpillar's 1/3 and 5/7 edges a float s can equal float(r) for a
    # remainder r that float(r) only approximates; the exact r decides, as in
    # the edge-by-edge walk
    space = caterpillar()
    pts = [lm.vertex_point(v) for v in space.vertices]
    pts += [lm.edge_point(e, length * Fraction(k, 3)) for e, (_, _, length) in
            enumerate(space.edges) for k in (1, 2)]
    pts.append(lm.edge_point(lm.RAY_EDGE, Fraction(2, 3)))
    ties = 0
    for x in pts:
        for y in pts:
            ts = landing_params(space, x, y)
            d, dists = space.distance(x, y), {space.distance(x, v) for v in pts}
            ties += sum(isinstance(t, float) and Fraction(t * d) not in dists for t in ts)
            for t, p in zip(ts, space.geodesic_points(x, y, ts)):
                assert same_point(p, sequential_walk(space, x, y, t))
                assert same_point(p, space.geodesic_point(x, y, t))
    assert ties > 100


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [-0.25, 1.5, Fraction(5, 4), -1e-300, math.nan])
def test_geodesic_points_reject_a_parameter_outside_the_unit_interval(kind, bad):
    space = SPACES[kind]
    x, y = space.origin(), space.random_point(np.random.default_rng(3))
    with pytest.raises(lm.InvalidInputError, match=f"parameter {re.escape(str(bad))} outside"):
        space.geodesic_points(x, y, [Fraction(1, 2), 0, bad, 1])


@pytest.mark.parametrize("kind", TREES)
@PROPERTY
@given(data=st.data())
def test_tree_four_point_condition(kind, data):
    space = SPACES[kind]
    p = [data.draw(points(kind)) for _ in range(4)]
    d = space.distance
    sums = sorted([d(p[0], p[1]) + d(p[2], p[3]), d(p[0], p[2]) + d(p[1], p[3]),
                   d(p[0], p[3]) + d(p[1], p[2])])
    assert sums[1] == sums[2]  # exact: a tree is 0-hyperbolic


@pytest.mark.parametrize("kind", TREES)
@PROPERTY
@given(data=st.data())
def test_tree_pairwise_distances_match_exact_distances(kind, data):
    # float-offset points from float walks, compared with exact distances
    space = SPACES[kind]
    ends = [data.draw(points(kind)) for _ in range(6)]
    pts = ends + [space.geodesic_point(a, b, data.draw(st.floats(0, 1)))
                  for a, b in zip(ends, ends[1:])]
    mat = space.pairwise_distances(pts)
    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            d = float(space.distance(exact(x), exact(y)))
            assert abs(mat[i, j] - d) <= 1e-12 * max(1.0, d)


@pytest.mark.parametrize("kind", TREES)
def test_tree_diameter_is_the_largest_vertex_distance(kind):
    space = SPACES[kind]
    vs = [lm.vertex_point(v) for v in space.vertices]
    assert space.diameter() == max(space.distance(a, b) for a in vs for b in vs)


@PROPERTY
@given(p=points("hyperbolic"), a=points("hyperbolic"), b=points("hyperbolic"))
def test_disk_projection_beats_dense_oracle(p, a, b):
    space = SPACES["hyperbolic"]
    seg = lm.Segment(a, b)
    q, d = space.project_to_segment(p, seg)
    assert d <= projection_oracle(space, p, seg) + 1e-9
    assert close_to(space, space.distance(p, q), d)
    assert close_to(space, space.distance(a, q) + space.distance(q, b), space.distance(a, b))


@pytest.mark.parametrize("kind", SMOOTH)
@PROPERTY
@given(data=st.data())
def test_interior_foot_is_perpendicular(kind, data):
    space = SPACES[kind]
    p, a, b = (data.draw(points(kind)) for _ in range(3))
    q, d = space.project_to_segment(p, lm.Segment(a, b))
    assume(min(float(d), float(space.distance(a, q)), float(space.distance(q, b))) > 1e-2)
    assert lm.alexandrov_angle(space, q, p, a) == pytest.approx(math.pi / 2, abs=1e-7)


@PROPERTY
@given(legs=st.permutations(LEGS), ks=st.lists(st.integers(1, 16), min_size=3, max_size=3))
def test_tree_foot_is_the_branch_point(legs, ks):
    # p, a and b on three distinct legs: the foot is the center, where all
    # three directions are distinct, so every angle there is pi
    space = SPACES["rtree"]
    p, a, b = (leg_point(leg, k) for leg, k in zip(legs, ks))
    q, _ = space.project_to_segment(p, lm.Segment(a, b))
    assert space.distance(q, lm.vertex_point("c")) == 0
    for y, z in ((p, a), (p, b), (a, b)):
        assert lm.alexandrov_angle(space, q, y, z) == math.pi


def test_every_family_implements_each_member_the_base_leaves_open():
    base = lm.spaces.Space
    open_members = [name for name, member in vars(base).items()
                    if inspect.isfunction(member) and "raise NotImplementedError" in inspect.getsource(member)]
    assert "_push" in open_members and "displace" not in open_members
    families = {type(lm.spaces.space_from_config(SPACES[kind].to_config())) for kind in KINDS}
    assert families == {lm.EuclideanSpace, lm.L2BoxSpace, lm.HyperbolicPlane, lm.RTreeSpace}
    for family in families:
        assert "displace" not in vars(family)
        for name in open_members:
            assert getattr(family, name) is not getattr(base, name), (family.__name__, name)


@pytest.mark.parametrize("kind", KINDS)
def test_origin_scalar_and_config(kind):
    space = SPACES[kind]
    assert space.contains_point(space.origin())
    assert space.scalar is (Fraction if kind in TREES else float)
    again = lm.spaces.space_from_config(space.to_config())
    assert type(again) is type(space)
    assert again.to_config() == space.to_config()
    assert space.gromov_hyperbolic == (kind in ("hyperbolic",) + TREES)
