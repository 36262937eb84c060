"""The tree's integer kernels against their `Fraction` forms, and what they build.

`RTreeSpace` keeps every exact quantity as a Python int on one integer
scale and builds a `Fraction` only for a value that leaves the space.
`FractionTree` below is the earlier form of the same kernels, every exact
length, height and offset a `Fraction` and every mixed sum left to
`Fraction`'s own float fallbacks; it serves as the reference.  Values must
agree by repr and type, so floats agree bit for bit and exact values stay
exact.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from test_tree_golden import caterpillar

_ZERO = Fraction(0)


def _float_sign(x, f, length) -> int:
    """-1, 0 or 1 as the float x lies below, at or above length, with f = float(length)."""
    if x != f:
        return 1 if x > f else -1
    return (x > length) - (x < length)


class FractionTree:
    """The kernels of an `RTreeSpace` in `Fraction` arithmetic.

    The rooted structure (parents, edges, climbs) and the float tables come
    from the tree itself; the heights above meets and the parent edge
    lengths are rebuilt as `Fraction`s.
    """

    kind = "rtree"

    def __init__(self, tree):
        self.tree = tree
        self.vertices, self.edges, self.ray_at = tree.vertices, tree.edges, tree.ray_at
        self._index, self._root, self._parent = tree._index, tree._root, tree._parent
        self._edge, self._child, self._climbs = tree._edge, tree._child, tree._climbs
        self._span, self._flen = tree._span, tree._flen
        n = len(self.vertices)
        self._len = [math.inf if e is None or e == lm.RAY_EDGE else self.edges[e][2]
                     for e in self._edge]
        above = [None] * n  # heights above each ancestor, parents first
        for i in sorted(range(n), key=lambda i: self._depth(i)):
            above[i] = {i: _ZERO} if i == self._root else \
                {a: self._len[i] + h for a, h in above[self._parent[i]].items()} | {i: _ZERO}
        self._rise = [[_ZERO if i in above[j] else above[i][self._meet(i, j, above)]
                       for j in range(n)] for i in range(n)]

    def _depth(self, i):
        d = 0
        while i != self._root:
            i, d = self._parent[i], d + 1
        return d

    def _meet(self, i, j, above):
        while i not in above[j]:
            i = self._parent[i]
        return i

    # -- the kernels, each in its Fraction form

    def _form(self, p):
        if p.vertex is not None:
            i = self._index[p.vertex]
            return i, _ZERO, self._len[i]
        off = p.offset
        if p.edge == lm.RAY_EDGE:
            return self._root, off, math.inf
        u, v, length = self.edges[p.edge]
        c = self._child[p.edge]
        if type(off) is float:
            at_end = _float_sign(off, self._flen[c], length) == 0
            length = self._flen[c]
        else:
            at_end = off == length
        if off == 0 or at_end:
            i = self._index[u if off == 0 else v]
            return i, _ZERO, self._len[i]
        if self.vertices[c] == u:
            return c, off, length - off
        return c, length - off, off

    def _exit(self, i, h, rest, j):
        if h and self._climbs[i][j]:
            return self._parent[i], rest
        return i, h

    def _on_edge(self, i, h, rest, up):
        e = self._edge[i]
        if e is None:
            return lm.vertex_point(self.vertices[i])
        u, v, length = self.edges[e] if e != lm.RAY_EDGE else (self.vertices[i], None, math.inf)
        up = up or _ZERO
        offset = h + up if u == self.vertices[i] else rest - up
        if 0 < offset and (_float_sign(offset, self._flen[i], length) < 0
                           if type(offset) is float else offset < length):
            return lm.Point(self.kind, edge=e, offset=offset)
        return lm.Point(self.kind, vertex=u if offset <= 0 else v)

    def _dist(self, x, y):
        return self._gap(x, self._form(x), y, self._form(y))

    def _gap(self, x, form_x, y, form_y):
        (i, hx, rest_x), (j, hy, rest_y) = form_x, form_y
        if i == j and hx and hy:
            if type(x.offset) is float or type(y.offset) is float:
                return abs(float(x.offset) - float(y.offset))
            return abs(x.offset - y.offset)
        ex, cx = self._exit(i, hx, rest_x, j)
        ey, cy = self._exit(j, hy, rest_y, i)
        if type(cx) is float or (cx is _ZERO and type(cy) is float):
            span = self._span.item(ex, ey)
            d = span if cx is _ZERO else cx + span
            return d if cy is _ZERO else d + float(cy)
        up, down = self._rise[ex][ey], self._rise[ey][ex]
        d = down if up is _ZERO else up if down is _ZERO else up + down
        if cx is not _ZERO:
            d = cx + d
        return d if cy is _ZERO else d + cy

    def geodesic_points(self, x, y, ts):
        inner = [t for t in ts if 0 < t < 1]
        placed = iter(self._along(x, y, inner) if inner else ())
        return [x if t == 0 else y if t == 1 else next(placed) for t in ts]

    def _along(self, x, y, ts):
        form_x, form_y = self._form(x), self._form(y)
        return self._placed(x, form_x, form_y, self._gap(x, form_x, y, form_y), ts)

    def _placed(self, x, form_x, form_y, total, ts):
        if total == 0:
            return [x] * len(ts)
        total_f = float(total) if any(type(t) is float for t in ts) else total
        return self._walk(form_x, form_y, [t * total_f if type(t) is float else t * total
                                           for t in ts])

    def _legs(self, form_x, form_y):
        (i, h, rest), (j, hy, _) = form_x, form_y
        legs = []
        while self._climbs[i][j]:
            legs.append((rest, i, h, rest, True))
            i = self._parent[i]
            h, rest = _ZERO, self._len[i]
        if i == j and hy > h:
            legs.append((math.inf, i, h, rest, True))
            return legs
        below = [j]
        while below[-1] != i:
            below.append(self._parent[below[-1]])
        for c in reversed(below):
            if c != i:
                h, rest = self._len[c], _ZERO
            legs.append((h, c, h, rest, False))
        return legs

    @staticmethod
    def _reach(legs, ends, s, k):
        if k and s <= ends[k - 1]:
            k = 0
        while True:
            if k == len(ends):
                ends.append(ends[-1] + legs[k][0] if k else legs[0][0])
            if s <= ends[k]:
                return k
            k += 1

    def _walk(self, form_x, form_y, ss):
        legs = self._legs(form_x, form_y)
        ends, shadows, out, k = [], None, [], 0
        for s in ss:
            if isinstance(s, Fraction):
                k = self._reach(legs, ends, s, k)
                _, i, h, rest, up = legs[k]
                if k:
                    s = s - ends[k - 1]
                out.append(self._on_edge(i, h, rest, s if up else -s))
                continue
            if shadows is None:
                shadows = [(float(length), float(h), float(rest))
                           for length, _, h, rest, _ in legs]
            for (length, i, h, rest, up), (f, fh, frest) in zip(legs, shadows):
                past = _float_sign(s, f, length)
                if past < 0 or (past == 0 and not up):
                    if s and type(s) is float:
                        h, rest = fh, frest
                    out.append(self._on_edge(i, h, rest, s if up else -s))
                    break
                s -= f
            else:
                out.append(lm.Point(self.kind, vertex=self.vertices[form_y[0]]))
        return out

    def project_to_segment(self, p, seg):
        if self._dist(seg.a, seg.b) == 0:
            return seg.a, self._dist(p, seg.a)
        a, b = seg.a, seg.b
        dab = self._dist(a, b)
        r = (self._dist(a, p) + dab - self._dist(p, b)) / 2
        q, = self._walk(self._form(a), self._form(b), [min(max(r, 0), dab)])
        return q, self._dist(p, q)

    def _to_chain(self, points, chain):
        nodes = [(c, self._form(c)) for c in chain]
        links = [self._gap(*a, *b) for a, b in zip(nodes, nodes[1:])]
        out = []
        for p in points:
            form = self._form(p)
            to = [self._gap(p, form, *c) for c in nodes]
            d = min((u + v - w) / 2 for u, v, w in zip(to, to[1:], links))
            out.append(max(d, 0.0))
        return out

    def diameter(self):
        rise, n = self._rise, len(self.vertices)
        far = max(range(n), key=lambda j: rise[0][j] + rise[j][0])
        return max(rise[far][j] + rise[j][far] for j in range(n))

    def move_candidates(self, man, D):
        targets = [lm.vertex_point(v) for v in self.vertices]
        if self.ray_at is not None:
            base = man.offset if man.edge == lm.RAY_EDGE else Fraction(0)
            targets.append(lm.Point(self.kind, edge=lm.RAY_EDGE, offset=base + 2 * D))
        form = self._form(man)
        out, placed = [], {}
        for tgt, to in zip(targets, map(self._form, targets)):
            gap = self._gap(man, form, tgt, to)
            if gap == 0:
                continue
            t = D / gap
            if t > 1 or t == 1 and type(t) is float:  # an exact t = 1 walks to the target
                out.append(tgt)
                continue
            key = tgt
            if isinstance(t, Fraction):
                legs = self._legs(form, to)
                key = tuple(legs[:self._reach(legs, [], D, 0) + 1])
            if key not in placed:  # targets that share the walked prefix: one entry
                placed[key] = self._placed(man, form, to, gap, (t,))[0]
                out.append(placed[key])
        return out

    def random_move(self, rng, man, D):
        tgt = lm.vertex_point(self.vertices[int(rng.integers(0, len(self.vertices)))])
        form, to = self._form(man), self._form(tgt)
        gap = self._gap(man, form, tgt, to)
        if gap == 0:
            return None
        t = min(D * Fraction(int(rng.integers(0, 17)), 16) / gap, Fraction(1))
        return man if t == 0 else tgt if t == 1 else self._placed(man, form, to, gap, (t,))[0]


# -- seeded trees and points


THIRD, ELEVENTH, TINY = Fraction(1, 3), Fraction(1, 11), Fraction(1, 2**60)


def scale_trees():
    """Seeded trees with and without a ray; their lengths' denominators are 1 and 2
    (the caterpillar's: 3 and 7), so thirds, elevenths and 2^-60 do not divide q."""
    base = lm.random_tree(np.random.default_rng(41), n_vertices=12)
    return {"random": base,
            "random-ray": lm.RTreeSpace(base.vertices, base.edges, ray_at="v7"),
            "caterpillar": caterpillar(),
            "lone-ray": lm.RTreeSpace(["v"], [], ray_at="v")}


def scale_points(tree, seed):
    """Vertex, edge and ray points: exact offsets of every denominator, floats, and
    points that float and exact walks place."""
    rnd = random.Random(seed)
    pts = [lm.vertex_point(v) for v in tree.vertices]
    for e, (_, _, length) in enumerate(tree.edges):
        for frac in (THIRD, 2 * ELEVENTH, TINY, 1 - TINY, Fraction(5, 16)):
            pts.append(lm.edge_point(e, length * frac))
        pts.append(lm.edge_point(e, float(length) * rnd.random()))
        if float(length) <= length:  # float(length) itself, a tie the exact length breaks
            pts.append(lm.edge_point(e, float(length)))
    if tree.ray_at is not None:
        pts += [lm.edge_point(lm.RAY_EDGE, off) for off in
                (Fraction(0), THIRD, Fraction(7, 2), TINY, 0.0, 0.1, 2.75)]
    for _ in range(8):
        a, b = rnd.choice(pts), rnd.choice(pts)
        pts += tree.geodesic_points(a, b, [rnd.random(), Fraction(rnd.randrange(1, 11), 11)])
    return pts


def typed(values):
    return [(repr(v), type(v)) for v in values]


def typed_points(points):
    return [(repr(p), type(p.offset)) for p in points]


@pytest.mark.parametrize("name", sorted(scale_trees()))
def test_distances_and_chains_equal_the_fraction_kernels(name):
    tree = scale_trees()[name]
    ref = FractionTree(tree)
    pts = scale_points(tree, 1)
    offsets = {type(p.offset) for p in pts if p.vertex is None}
    assert offsets == {Fraction, float}
    assert typed(tree._dist(x, y) for x in pts for y in pts) == \
        typed(ref._dist(x, y) for x in pts for y in pts)
    assert typed([tree.diameter()]) == typed([ref.diameter()])
    rnd = random.Random(2)
    for size in (2, 3, 5):
        for _ in range(6):
            chain = [rnd.choice(pts) for _ in range(size)]
            exact = [p for p in pts if not isinstance(p.offset, float)]
            for probes in (pts, exact):
                assert typed(tree._to_chain(probes, chain)) == typed(ref._to_chain(probes, chain))


@pytest.mark.parametrize("name", sorted(scale_trees()))
def test_walks_and_projections_equal_the_fraction_kernels(name):
    tree = scale_trees()[name]
    ref = FractionTree(tree)
    pts = scale_points(tree, 3)
    rnd = random.Random(4)
    ts = [THIRD, ELEVENTH, TINY, 1 - TINY, Fraction(5, 7), 0.5, 0.1, 1 / 3, 0, 1]
    triples = [(rnd.choice(pts), rnd.choice(pts), rnd.choice(pts)) for _ in range(120)]
    # medians off the vertices: p between a and b on one edge, and a or b
    # inside an edge with p beyond it, at offsets of denominator 3 and 11
    edges = [(e, lm.vertex_point(u), lm.vertex_point(v), length)
             for e, (u, v, length) in enumerate(tree.edges)]
    if tree.ray_at is not None:
        edges.append((lm.RAY_EDGE, lm.vertex_point(tree.ray_at), lm.edge_point(lm.RAY_EDGE, 1), 1))
    for e, u, v, length in edges:
        at = [lm.edge_point(e, length * frac) for frac in (2 * ELEVENTH, THIRD, 1 - THIRD)]
        triples += [(at[0], at[2], at[1]), (at[1], v, u), (u, at[0], v), (at[2], at[0], u)]
    for x, y, p in triples:
        assert typed_points(tree.geodesic_points(x, y, ts)) == \
            typed_points(ref.geodesic_points(x, y, ts))
        got, want = tree.project_to_segment(p, lm.Segment(x, y)), \
            ref.project_to_segment(p, lm.Segment(x, y))
        assert typed_points([got[0]]) == typed_points([want[0]])
        assert typed([got[1]]) == typed([want[1]])


@pytest.mark.parametrize("name", sorted(scale_trees()))
def test_moves_equal_the_fraction_kernels(name):
    tree = scale_trees()[name]
    ref = FractionTree(tree)
    pts = scale_points(tree, 5)
    for D in (Fraction(1, 2), THIRD, ELEVENTH, TINY, 0.3, Fraction(7, 3)):
        for man in pts[::3]:
            assert typed_points(tree.move_candidates(man, D, 8)) == \
                typed_points(ref.move_candidates(man, D))
            rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
            for _ in range(6):
                got, want = tree.random_move(rng, man, D), ref.random_move(ref_rng, man, D)
                assert (got is None) == (want is None)
                if got is not None:
                    assert typed_points([got]) == typed_points([want])


# -- what the kernels build: a guard that keeps the gain without timing


@pytest.fixture
def fraction_counts():
    """Counts of the Fractions built and hashed while the fixture is live."""
    counts = {"built": 0, "hashed": 0}
    saved = {name: Fraction.__dict__[name] for name in ("__new__", "__hash__")}
    new, hash_ = Fraction.__new__, Fraction.__hash__

    def counting_new(cls, *args, **kwargs):
        counts["built"] += 1
        return new(cls, *args, **kwargs)

    def counting_hash(self):
        counts["hashed"] += 1
        return hash_(self)

    Fraction.__new__, Fraction.__hash__ = staticmethod(counting_new), counting_hash
    try:
        yield counts
    finally:
        for name, value in saved.items():
            setattr(Fraction, name, value)


def exact_points(tree):
    pts = [lm.vertex_point(v) for v in tree.vertices]
    pts += [lm.edge_point(e, length * frac) for e, (_, _, length) in enumerate(tree.edges)
            for frac in (THIRD, Fraction(3, 16), TINY)]
    if tree.ray_at is not None:
        pts.append(lm.edge_point(lm.RAY_EDGE, Fraction(5, 3)))
    return pts


@pytest.mark.parametrize("name", ["random", "random-ray", "caterpillar"])
def test_a_distance_builds_one_fraction_and_a_chain_one_per_point(name, fraction_counts):
    tree = scale_trees()[name]
    pts = exact_points(tree)
    for x in pts:
        for y in pts:
            fraction_counts["built"] = 0
            tree._dist(x, y)
            assert fraction_counts["built"] <= 1
    chain = pts[1::5]
    fraction_counts["built"] = 0
    tree._to_chain(pts, chain)
    assert fraction_counts["built"] <= len(pts)


@pytest.mark.parametrize("name", ["random", "random-ray", "caterpillar"])
def test_a_greedy_step_hashes_no_fraction(name, fraction_counts):
    tree = scale_trees()[name]
    pts = exact_points(tree)
    for D in (Fraction(1, 2), THIRD):
        for man in pts:
            fraction_counts["hashed"] = 0
            assert tree.move_candidates(man, D, 8)
            assert fraction_counts["hashed"] == 0


@pytest.mark.parametrize("name", ["random-ray", "caterpillar"])
def test_numpy_floats_walk_as_python_floats(name):
    # a numpy float64 parameter, step or offset gives the points and the
    # distances that the same Python float gives
    tree = scale_trees()[name]
    pts = scale_points(tree, 7)
    rnd = random.Random(8)
    for _ in range(40):
        x, y = rnd.choice(pts), rnd.choice(pts)
        ts = [rnd.random() for _ in range(3)]
        assert typed_points(tree.geodesic_points(x, y, [np.float64(t) for t in ts])) == \
            typed_points(tree.geodesic_points(x, y, ts))
        if isinstance(x.offset, float):
            moved = lm.edge_point(x.edge, np.float64(x.offset))
            assert typed([tree.distance(moved, y)]) == typed([tree.distance(x, y)])
    for man in pts[::5]:
        assert typed_points(tree.move_candidates(man, np.float64(0.3), 8)) == \
            typed_points(tree.move_candidates(man, 0.3, 8))
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = [tree.random_move(rng, man, np.float64(0.7)) for _ in range(4)]
        want = [tree.random_move(ref_rng, man, 0.7) for _ in range(4)]
        assert [p if p is None else typed_points([p]) for p in got] == \
            [p if p is None else typed_points([p]) for p in want]
