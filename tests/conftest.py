import math
from fractions import Fraction

import pytest

import lionman as lm


@pytest.fixture
def euclid2():
    return lm.EuclideanSpace(2)


@pytest.fixture
def hyper():
    return lm.HyperbolicPlane()


@pytest.fixture
def box():
    return lm.L2BoxSpace(n=6, base=10.0)


@pytest.fixture
def tripod():
    return lm.tripod()


@pytest.fixture
def ray_tree():
    return lm.ray_tree()


@pytest.fixture
def all_spaces(euclid2, hyper, box, tripod):
    return {"euclidean": euclid2, "hyperbolic": hyper, "l2box": box, "rtree": tripod}


def sampler_for(space, seed, scale=None):
    defaults = {"euclidean": 3.0, "hyperbolic": 3.0, "l2box": 1.0, "rtree": 2}
    return lm.PointSampler(space, scale=scale or defaults[space.kind], seed=seed)


def distance_table(space, points):
    """Float table of the distances between the points: one `_table` over one `_arrays`."""
    arrays = space._arrays(points)
    return space._table(arrays, arrays)


def parent_length(tree, i):
    """The exact length of tree vertex i's parent edge, from the edge list (the root: inf)."""
    e = tree._edge[i]
    return math.inf if e is None or e == lm.RAY_EDGE else tree.edges[e][2]


def exact_form(space, p):
    """The tree point's rooted form (i, h, rest) in `Fraction` arithmetic.

    A float offset meets the exact edge length through Fraction's own
    mixed-type operators.
    """
    if p.vertex is not None:
        i = space._index[p.vertex]
        return i, Fraction(0), parent_length(space, i)
    if p.edge == lm.RAY_EDGE:
        return space._root, p.offset, math.inf
    u, v, length = space.edges[p.edge]
    if p.offset == 0 or p.offset == length:
        return exact_form(space, lm.vertex_point(u if p.offset == 0 else v))
    if space._edge[space._index[u]] == p.edge:
        return space._index[u], p.offset, length - p.offset
    return space._index[v], length - p.offset, p.offset


# -- independent oracles -----------------------------------------------------


def tree_distance_oracle(space, p, q, resolution=48):
    """Brute-force tree distance, independent of the space's path logic.

    Subdivides every finite edge into `resolution` pieces (plus a long stub
    for the ray edge) and runs Dijkstra on the resulting graph.  Points are
    located by snapping to the subdivision, so offsets on a 1/16 grid are
    represented exactly when 16 divides `resolution`.
    """
    import heapq

    adj = {}

    def link(u, v, w):
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))

    for i, (u, v, length) in enumerate(space.edges):
        prev = ("v", u)
        for j in range(1, resolution + 1):
            cur = ("v", v) if j == resolution else ("e", i, j)
            link(prev, cur, float(length) / resolution)
            prev = cur

    def locate(pt):
        if pt.vertex is not None:
            return ("v", pt.vertex), 0.0
        if pt.edge == lm.RAY_EDGE:
            return ("v", space.ray_at), float(pt.offset)  # ray exits via anchor
        length = space.edges[pt.edge][2]
        j = round(float(pt.offset) / float(length) * resolution)
        extra = abs(float(pt.offset) - j * float(length) / resolution)
        if j == 0:
            return ("v", space.edges[pt.edge][0]), extra
        if j == resolution:
            return ("v", space.edges[pt.edge][1]), extra
        return ("e", pt.edge, j), extra

    if (p.edge is not None and p.edge == q.edge):
        return abs(float(p.offset) - float(q.offset))
    src, extra_p = locate(p)
    dst, extra_q = locate(q)
    dist = {src: 0.0}
    heap = [(0.0, 0, src)]
    counter = 1
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == dst:
            return d + extra_p + extra_q
        if d > dist[u]:
            continue
        for v, w in adj.get(u, []):
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    raise AssertionError("oracle graph disconnected")


def poincare_distance_oracle(u, v):
    """Closed-form disk distance: arccosh(1 + 2|u-v|^2 / ((1-|u|^2)(1-|v|^2)))."""
    uu = u.coords[0] ** 2 + u.coords[1] ** 2
    vv = v.coords[0] ** 2 + v.coords[1] ** 2
    duv = (u.coords[0] - v.coords[0]) ** 2 + (u.coords[1] - v.coords[1]) ** 2
    return math.acosh(1.0 + 2.0 * duv / ((1.0 - uu) * (1.0 - vv)))


def projection_oracle(space, p, seg, samples=200):
    """Best of dense samples along the segment."""
    best = None
    for j in range(samples + 1):
        t = Fraction(j, samples)
        q = space.geodesic_point(seg.a, seg.b, t)
        d = space.distance(p, q)
        if best is None or d < best:
            best = d
    return best
