"""Property tests of the Space protocol, across all four families."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lionman as lm
from conftest import projection_oracle

KINDS = ("euclidean", "l2box", "hyperbolic", "rtree")
SMOOTH = ("euclidean", "l2box", "hyperbolic")
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
    return st.builds(leg_point, st.sampled_from(LEGS), st.integers(0, 16))


def steps(kind):
    if kind == "rtree":
        return st.builds(Fraction, st.integers(1, 8), st.just(4))
    return st.floats(0.05, 2.0)


def params(kind):
    if kind == "rtree":
        return st.builds(Fraction, st.integers(0, 64), st.just(64))
    return st.floats(0, 1)


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


@pytest.mark.parametrize("kind", KINDS)
def test_origin_scalar_and_config(kind):
    space = SPACES[kind]
    assert space.contains_point(space.origin())
    assert space.scalar is (Fraction if kind == "rtree" else float)
    again = lm.spaces.space_from_config(space.to_config())
    assert type(again) is type(space)
    assert again.to_config() == space.to_config()
    assert space.gromov_hyperbolic == (kind in ("hyperbolic", "rtree"))
