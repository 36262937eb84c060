"""Concrete geodesic metric spaces behind one `Space` protocol.

Four families are implemented: Euclidean n-space, the Poincare-disk model
of the hyperbolic plane, metric trees (with an optional half-infinite ray
edge), and an axis-aligned box in l2 whose side lengths grow geometrically.
Everything that differs between families -- the metric, angles, sideways
displacement, the man's moves, the default origin and the config round
trip -- lives on the family's class (see `Space`), so triangle
diagnostics, curve checks, the pursuit game and the CLI never ask which
family they hold.

All operations are pure functions of immutable values.  Tree arithmetic is
exact whenever edge lengths and offsets are `fractions.Fraction`; the other
families work in float64.  Hyperbolic computations degrade near the disk
rim; keep points within hyperbolic distance ~30 of the origin.

Tree points are written as (edge, offset) or as a vertex, but `RTreeSpace`
reads them in one rooted form: the tree hangs from its ray anchor (else its
first vertex), and a point is the pair (i, h) of a vertex and the height
above it on the edge toward its parent.  That form and the table of heights
above meets stay private to the class.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    DegenerateInputError,
    InvalidInputError,
    InvalidPointError,
    SpaceMismatchError,
    _bad_input,
)


# ---------------------------------------------------------------------------
# points and segments


@dataclass(frozen=True)
class Point:
    """A location tagged with the space family it lives in.

    Coordinate spaces use ``coords``; tree points use either
    ``(edge, offset)`` with the offset measured from the edge's first
    endpoint, or ``vertex`` alone.  The ray edge has index ``RAY_EDGE``.
    """

    kind: str
    coords: tuple = ()
    edge: int | None = None
    offset: object = None
    vertex: object = None

    def __repr__(self):
        if self.kind == "rtree":
            if self.vertex is not None:
                return f"Point(rtree, vertex={self.vertex!r})"
            return f"Point(rtree, edge={self.edge}, offset={self.offset})"
        return f"Point({self.kind}, {tuple(round(c, 12) for c in self.coords)})"


RAY_EDGE = -1
_ZERO = Fraction(0)


def epoint(*coords) -> Point:
    """Euclidean point from coordinates."""
    return Point("euclidean", tuple(float(c) for c in coords))


def hpoint(x, y) -> Point:
    """Poincare-disk point; must satisfy x^2 + y^2 < 1."""
    return Point("hyperbolic", (float(x), float(y)))


def boxpoint(*coords) -> Point:
    """Point of the l2 box space."""
    return Point("l2box", tuple(float(c) for c in coords))


def edge_point(edge, offset) -> Point:
    """Tree point on ``edge`` at ``offset`` from the edge's first endpoint."""
    if isinstance(offset, int):
        offset = Fraction(offset)
    return Point("rtree", edge=int(edge), offset=offset)


def vertex_point(v) -> Point:
    """Tree point sitting on the vertex ``v``."""
    return Point("rtree", vertex=v)


@dataclass(frozen=True)
class Segment:
    """Geodesic segment between two points of one space."""

    a: Point
    b: Point


def point_to_json(p: Point) -> dict:
    if p.kind == "rtree":
        if p.vertex is not None:
            return {"kind": "rtree", "vertex": p.vertex}
        off = str(p.offset) if isinstance(p.offset, Fraction) else p.offset
        return {"kind": "rtree", "edge": p.edge, "offset": off}
    return {"kind": p.kind, "coords": list(p.coords)}


def point_from_json(data: dict) -> Point:
    kind = data["kind"]
    if kind == "rtree":
        if "vertex" in data:
            return vertex_point(data["vertex"])
        off = data["offset"]
        if isinstance(off, str):
            off = Fraction(off)
        return edge_point(data["edge"], off)
    return Point(kind, tuple(float(c) for c in data["coords"]))


# ---------------------------------------------------------------------------
# space interface


class Space:
    """Common surface of every space family.

    A family sets ``kind``, ``rel_tol``, ``gromov_hyperbolic`` (ray
    extraction applies) and ``scalar`` (what step sizes parse to), and
    implements every method here that raises NotImplementedError.
    """

    kind = "abstract"
    rel_tol = 1e-9
    gromov_hyperbolic = False
    scalar = float

    # -- membership ---------------------------------------------------------

    def contains_point(self, p: Point) -> bool:
        raise NotImplementedError

    def check_point(self, p: Point, name: str = "point") -> None:
        if not isinstance(p, Point) or p.kind != self.kind:
            got = getattr(p, "kind", type(p).__name__)
            raise SpaceMismatchError(f"{name}: expected a {self.kind} point, got {got}")
        if not self.contains_point(p):
            raise InvalidPointError(f"{name}: {p!r} is not a member of this space")

    # -- metric structure ---------------------------------------------------

    def distance(self, x: Point, y: Point):
        self.check_point(x, "x")
        self.check_point(y, "y")
        return self._dist(x, y)

    def geodesic_point(self, x: Point, y: Point, t) -> Point:
        """Point z on [x, y] with d(x, z) = t * d(x, y), for t in [0, 1]."""
        return self.geodesic_points(x, y, (t,))[0]

    def geodesic_points(self, x: Point, y: Point, ts) -> list:
        """The point of [x, y] at each parameter of the sequence ts, in its order.

        Each point is the one `geodesic_point` gives for that t: x at t = 0,
        y at t = 1, and every other t placed by one `_along` call, which
        reads the segment once.
        """
        self.check_point(x, "x")
        self.check_point(y, "y")
        for t in ts:
            if not 0 < t < 1:
                break
        else:
            return self._along(x, y, ts)
        for t in ts:
            if not 0 <= t <= 1:  # NaN fails too
                raise InvalidInputError(f"interpolation parameter {t} outside [0, 1]")
        inner = [t for t in ts if 0 < t < 1]
        placed = iter(self._along(x, y, inner) if inner else ())
        return [x if t == 0 else y if t == 1 else next(placed) for t in ts]

    def project_to_segment(self, p: Point, seg: Segment):
        """Nearest point of the segment, returned as (point, distance)."""
        self.check_point(p, "p")
        self.check_point(seg.a, "seg.a")
        self.check_point(seg.b, "seg.b")
        if self._dist(seg.a, seg.b) == 0:
            return seg.a, self._dist(p, seg.a)
        return self._project(p, seg)

    def _dist(self, x, y):
        raise NotImplementedError

    def _along(self, x, y, ts) -> list:
        """The points of [x, y] at the parameters ts, each strictly inside (0, 1).

        Reads the segment's fixed data once, then places each t.
        """
        raise NotImplementedError

    def _project(self, p, seg):
        raise NotImplementedError

    # -- bulk helpers -------------------------------------------------------

    def _to_chain(self, points, chain) -> list:
        """Distance from each point to the union of the chain's segments.

        The chain lists two or more nodes, and a repeated node is a
        degenerate segment.  One value per point, a float or, from exact
        tree data, a `Fraction`, as `project_to_segment` would give it.
        """
        raise NotImplementedError

    def pairwise_distances(self, points) -> np.ndarray:
        """Float table of the distances between the points."""
        arrays = self._arrays(points)
        return self._table(arrays, arrays)

    def _arrays(self, points) -> np.ndarray:
        """Float array with one row per point, built once for `_table`."""
        raise NotImplementedError

    def _table(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances from the points of `rows` to those of `cols`.

        Both are slices of one `_arrays` result; the table is computed
        elementwise, so a block equals that block of the square table.
        """
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator, scale=1.0) -> Point:
        raise NotImplementedError

    # -- family behaviour ---------------------------------------------------

    def angle(self, apex: Point, y: Point, z: Point) -> float:
        """Alexandrov angle at the apex, in closed form; sides nondegenerate."""
        raise NotImplementedError

    def displace(self, a: Point, b: Point, t, amp) -> Point:
        """Point of [a, b] at parameter t, pushed sideways by amp where possible."""
        return self._push(a, b, self.geodesic_point(a, b, t), amp)

    def _push(self, a, b, p, amp) -> Point:
        """The point p, already placed on [a, b], pushed sideways by amp where possible."""
        raise NotImplementedError

    def move_candidates(self, man: Point, D, directions: int) -> list:
        """The greedy man's member points within D, in a fixed order."""
        raise NotImplementedError

    def random_move(self, rng: np.random.Generator, man: Point, D) -> Point | None:
        """One seeded member point within D of the man, or None to draw again."""
        raise NotImplementedError

    def origin(self) -> Point:
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_config(cls, data: dict) -> Space:
        return cls()


def _flat_angle(a, b, c) -> float:
    """Angle between the sides a and b of the flat triangle whose third side is c."""
    cosv = (a * a + b * b - c * c) / (2.0 * a * b)
    return math.acos(min(1.0, max(-1.0, cosv)))


def _squared_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of squared l2 distances from the rows of a to the rows of b.

    Coordinate columns are added one at a time, in the order numpy's pairwise
    sum takes a short last axis: term by term below 8 terms, in 8 lanes up to
    128, in halves above.  The table thus has the bits of
    ``((a[:, None] - b[None]) ** 2).sum(-1)`` without its rows x cols x dim
    difference tensor.
    """
    def square(c):
        diff = a[:, c, None] - b[None, :, c]
        return diff * diff

    def total(lo, n):
        if n < 8:
            out = square(lo)
            for c in range(lo + 1, lo + n):
                out += square(c)
            return out
        if n <= 128:
            lanes = [square(c) for c in range(lo, lo + 8)]
            for c in range(lo + 8, lo + n - n % 8):
                lanes[(c - lo) % 8] += square(c)
            pairs = [lanes[c] + lanes[c + 1] for c in (0, 2, 4, 6)]
            out = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
            for c in range(lo + n - n % 8, lo + n):
                out += square(c)
            return out
        half = n // 2 - n // 2 % 8
        return total(lo, half) + total(lo + half, n - half)

    return total(0, a.shape[1])


class EuclideanSpace(Space):
    """Flat n-space with the l2 metric."""

    kind = "euclidean"

    def __init__(self, dim=2):
        if dim < 1:
            raise InvalidInputError("dimension must be >= 1")
        self.dim = dim

    def __repr__(self):
        return f"EuclideanSpace(dim={self.dim})"

    def contains_point(self, p):
        return len(p.coords) == self.dim and all(map(math.isfinite, p.coords))

    def _dist(self, x, y):
        return math.dist(x.coords, y.coords)

    def _along(self, x, y, ts):
        # a + t*(b - a) keeps each coordinate inside [min, max] in float64
        xs, ys = x.coords, y.coords
        out = []
        for t in ts:
            t = float(t)
            out.append(Point(self.kind, tuple([a + t * (b - a) for a, b in zip(xs, ys)])))
        return out

    @staticmethod
    def _feet(rows, a, b):
        """Table t[n, k] of the feet a[k] + t (b[k] - a[k]) of the rows, t clamped to [0, 1]."""
        v = b - a
        vv = (v * v).sum(-1)
        t = ((rows[:, None] - a) * v).sum(-1) / np.where(vv > 0, vv, 1.0)
        return t.clip(0.0, 1.0)

    def _project(self, p, seg):
        rows = self._arrays([p, seg.a, seg.b])
        t = float(self._feet(rows[:1], rows[1:2], rows[2:])[0, 0])
        q = self.geodesic_point(seg.a, seg.b, t)
        return q, self._dist(p, q)

    def _to_chain(self, points, chain):
        nodes = self._arrays(chain)
        rows, a, b = self._arrays(points), nodes[:-1], nodes[1:]
        t = self._feet(rows, a, b)[..., None]
        # the foot as _along places it, and b itself at t = 1
        gap = rows[:, None] - np.where(t < 1.0, a + t * (b - a), b)
        return np.sqrt((gap * gap).sum(-1)).min(1).tolist()

    def _arrays(self, points):
        return np.asarray([p.coords for p in points], dtype=float)

    def _table(self, rows, cols):
        return np.sqrt(_squared_gaps(rows, cols))

    def random_point(self, rng, scale=1.0):
        return Point(self.kind, tuple(float(c) for c in rng.normal(0.0, scale, self.dim)))

    def angle(self, apex, y, z):
        u = np.asarray(y.coords) - np.asarray(apex.coords)
        v = np.asarray(z.coords) - np.asarray(apex.coords)
        cosv = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
        return math.acos(min(1.0, max(-1.0, cosv)))

    def _push(self, a, b, p, amp):
        if amp == 0.0 or self.dim == 1:
            return p
        u = np.asarray(b.coords, dtype=float) - np.asarray(a.coords, dtype=float)
        norm = np.linalg.norm(u)
        if norm == 0.0:
            raise DegenerateInputError("sideways direction undefined on a zero-length segment")
        u = u / norm
        probe = np.zeros_like(u)
        probe[int(np.argmin(np.abs(u)))] = 1.0
        w = probe - np.dot(probe, u) * u
        w = w / np.linalg.norm(w)
        return Point(self.kind, tuple((np.asarray(p.coords, dtype=float) + amp * w).tolist()))

    def move_candidates(self, man, D, directions):
        # evenly spread directions in the plane, a fixed seeded basis otherwise
        if self.dim == 2:
            dirs = [np.array([math.cos(2 * math.pi * i / directions),
                              math.sin(2 * math.pi * i / directions)])
                    for i in range(directions)]
        else:
            raw = np.random.default_rng(20_000 + self.dim).normal(size=(directions, self.dim))
            dirs = [v / np.linalg.norm(v) for v in raw]
        base = np.asarray(man.coords, dtype=float)
        return [Point(self.kind, tuple(base + float(D) * v)) for v in dirs]

    def random_move(self, rng, man, D):
        u = rng.normal(size=self.dim)
        u = u / np.linalg.norm(u)
        return Point(self.kind, tuple(np.asarray(man.coords) + float(D) * rng.uniform() * u))

    def origin(self):
        return Point(self.kind, (0.0,) * self.dim)

    def to_config(self):
        return {"kind": "euclidean", "dim": self.dim}

    @classmethod
    def from_config(cls, data):
        return cls(dim=int(data.get("dim", 2)))


class L2BoxSpace(EuclideanSpace):
    """Axis-aligned box {x : 0 <= x_i <= base**(i+1)} with the l2 metric.

    A convex subset of n-space, so geodesics are straight segments and the
    whole Euclidean machinery applies; membership additionally enforces the
    box bounds.
    """

    kind = "l2box"

    def __init__(self, n=6, base=10.0):
        if n < 1:
            raise InvalidInputError("n must be >= 1")
        if base <= 1:
            raise InvalidInputError("base must be > 1")
        super().__init__(dim=n)
        self.n = n
        self.base = float(base)
        self.bounds = tuple(float(base) ** (i + 1) for i in range(n))

    def __repr__(self):
        return f"L2BoxSpace(n={self.n}, base={self.base})"

    def contains_point(self, p):
        if len(p.coords) != self.n:
            return False
        # a NaN fails the first test, so min sees numbers only
        return all(map(operator.le, p.coords, self.bounds)) and min(p.coords) >= 0.0

    def random_point(self, rng, scale=1.0):
        cs = rng.uniform(0.0, 1.0, self.n) * np.asarray(self.bounds) * min(1.0, scale)
        return Point(self.kind, tuple(float(c) for c in cs))

    # the flat moves, restricted to the box; a sideways push is clipped back in

    def _push(self, a, b, p, amp):
        p = super()._push(a, b, p, amp)
        if self.contains_point(p):
            return p
        return Point(self.kind, tuple(float(c) for c in np.clip(p.coords, 0.0, self.bounds)))

    def move_candidates(self, man, D, directions):
        return [p for p in super().move_candidates(man, D, directions) if self.contains_point(p)]

    def random_move(self, rng, man, D):
        p = super().random_move(rng, man, D)
        return p if self.contains_point(p) else None

    def to_config(self):
        return {"kind": "l2box", "n": self.n, "base": self.base}

    @classmethod
    def from_config(cls, data):
        return cls(n=int(data.get("n", 6)), base=float(data.get("base", 10.0)))


class HyperbolicPlane(Space):
    """Poincare disk: the open unit disk with curvature -1.

    Distances use the cancellation-safe arcsinh form; geodesic interpolation
    and tangent directions go through the Moebius translation that carries a
    base point to the origin, where geodesics are diameters.
    """

    kind = "hyperbolic"
    rel_tol = 1e-7
    gromov_hyperbolic = True
    dim = 2

    def __repr__(self):
        return "HyperbolicPlane()"

    @staticmethod
    def _c(p: Point) -> complex:
        return complex(*p.coords)

    @staticmethod
    def _pt(z: complex) -> Point:
        return Point("hyperbolic", (z.real, z.imag))

    def contains_point(self, p):
        if len(p.coords) != 2:
            return False
        x, y = p.coords
        return x * x + y * y < 1.0

    def _dist(self, x, y):
        u, v = self._c(x), self._c(y)
        du = 1.0 - abs(u) ** 2
        dv = 1.0 - abs(v) ** 2
        q = abs(u - v) ** 2 / (du * dv)
        return 2.0 * math.asinh(math.sqrt(q))

    def _to_origin(self, a: complex, z: complex) -> complex:
        # disk automorphism sending a to 0
        return (z - a) / (1.0 - a.conjugate() * z)

    def _from_origin(self, a: complex, w: complex) -> complex:
        return (w + a) / (1.0 + a.conjugate() * w)

    def _along(self, x, y, ts):
        # point_toward from x, with the tangent direction and d(x, y) read once
        a = self._c(x)
        w = self._to_origin(a, self._c(y))
        r = abs(w)
        if r == 0.0:  # coincident points
            return [x] * len(ts)
        direction, d = w / r, self._dist(x, y)
        out = []
        for t in ts:
            z = math.tanh(0.5 * (float(t) * d)) * direction
            out.append(self._pt(self._from_origin(a, z)))
        return out

    def tangent_direction(self, x: Point, y: Point) -> complex:
        """Unit tangent at x of the geodesic toward y, in the chart at x."""
        w = self._to_origin(self._c(x), self._c(y))
        r = abs(w)
        if r == 0.0:
            raise DegenerateInputError("tangent direction undefined for coincident points")
        return w / r

    def point_toward(self, x: Point, direction: complex, s: float) -> Point:
        """Travel hyperbolic distance s from x along a unit chart direction."""
        z = math.tanh(0.5 * s) * direction
        return self._pt(self._from_origin(self._c(x), z))

    def _foot(self, a, b, p):
        """Where p's foot sits on the line through a and b, for complex arrays.

        Returns the signed distance s of the foot from a and the line's unit
        chart direction e at a (0 when a == b, whose foot is a).
        """
        # Recentre at a and turn b onto the positive real axis.  In the Klein
        # model the perpendiculars to that diameter are vertical chords, so the
        # foot of p's chart point w sits at Klein abscissa Re 2w/(1 + |w|^2),
        # i.e. at distance atanh of it = log(|1 + w| / |1 - w|) from a.
        u = self._to_origin(a, b)
        r = np.where(u != 0, np.abs(u), 1.0)
        e = u.real / r + 1j * (u.imag / r)  # by parts, as a complex / float divides
        w = self._to_origin(a, p) * e.conjugate()
        return np.log(np.abs(1.0 + w) / np.abs(1.0 - w)), e

    def _project(self, p, seg):
        s, _ = self._foot(self._c(seg.a), self._c(seg.b), self._c(p))
        t = min(1.0, max(0.0, float(s) / self._dist(seg.a, seg.b)))
        q = self.geodesic_point(seg.a, seg.b, t)
        return q, self._dist(p, q)

    def _to_chain(self, points, chain):
        rows, nodes = self._arrays(points), self._arrays(chain)
        z = (rows[:, 0] + 1j * rows[:, 1])[:, None]
        c = nodes[:, 0] + 1j * nodes[:, 1]
        a, b = c[:-1], c[1:]
        s, e = self._foot(a, b, z)
        # the foot clamped to the segment, whose ends are a and b themselves
        length = np.diagonal(self._table(nodes, nodes), 1)
        inner = self._from_origin(a, np.tanh(0.5 * s) * e)
        q = np.where(s <= 0.0, a, np.where(s >= length, b, inner))
        x, y = q.real, q.imag
        gaps = (rows[:, 0, None] - x) ** 2 + (rows[:, 1, None] - y) ** 2
        return self._from_gaps(gaps, rows[:, 2, None] * (1.0 - (x * x + y * y))).min(1).tolist()

    def _arrays(self, points):
        # the chart coordinates and 1 - |z|^2
        arr = np.asarray([p.coords for p in points], dtype=float)
        return np.column_stack([arr, 1.0 - (arr * arr).sum(axis=1)])

    @staticmethod
    def _from_gaps(gaps, den):
        """Distances from squared chart gaps and products of the points' 1 - |z|^2."""
        return 2.0 * np.arcsinh(np.sqrt(gaps / den))

    def _table(self, rows, cols):
        den = rows[:, 2, None] * cols[None, :, 2]
        return self._from_gaps(_squared_gaps(rows[:, :2], cols[:, :2]), den)

    def random_point(self, rng, scale=1.0):
        # uniform hyperbolic radius in [0, scale], uniform direction
        s = rng.uniform(0.0, scale)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.tanh(0.5 * s)
        return Point(self.kind, (r * math.cos(theta), r * math.sin(theta)))

    def angle(self, apex, y, z):
        wy = self.tangent_direction(apex, y)
        wz = self.tangent_direction(apex, z)
        return math.acos(min(1.0, max(-1.0, wy.real * wz.real + wy.imag * wz.imag)))

    def _push(self, a, b, p, amp):
        if amp == 0.0:
            return p
        # the direction of travel at p, read back from a at b itself
        ahead = -self.tangent_direction(b, a) if p == b else self.tangent_direction(p, b)
        return self.point_toward(p, ahead * 1j, amp)

    def move_candidates(self, man, D, directions):
        # evenly spread chart directions
        thetas = (2.0 * math.pi * i / directions for i in range(directions))
        return [self.point_toward(man, complex(math.cos(th), math.sin(th)), float(D))
                for th in thetas]

    def random_move(self, rng, man, D):
        th = rng.uniform(0.0, 2.0 * math.pi)
        return self.point_toward(man, complex(math.cos(th), math.sin(th)), float(D) * rng.uniform())

    def origin(self):
        return Point(self.kind, (0.0, 0.0))

    def to_config(self):
        return {"kind": "hyperbolic"}


class RTreeSpace(Space):
    """Metric tree: vertices joined by edges of positive length.

    Points live on edges as (edge index, offset from the first endpoint) or
    on vertices.  At most one half-infinite "ray" edge may hang off a
    designated anchor vertex; its points use edge index ``RAY_EDGE`` and any
    offset >= 0.  With `Fraction` edge lengths and offsets every operation
    is exact.

    Internally the tree hangs from a root, the ray anchor or else the first
    vertex, and a point is read as (i, h): height h above vertex i on the
    edge toward i's parent, the ray being the root's endless parent edge.
    One table, ``rise[i][j]`` = height of vertex i above the meet of i and
    j, says whether a point leaves toward another point up through its
    parent or down through i; a distance is then one sum, and a walk or a
    projection climbs parent links from x to the meet and descends to y.
    """

    kind = "rtree"
    gromov_hyperbolic = True
    scalar = Fraction

    def __init__(self, vertices, edges, ray_at=None):
        self.vertices = list(vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise InvalidInputError("duplicate vertex ids")
        self.edges = []
        for u, v, length in edges:
            if u not in vset or v not in vset:
                raise InvalidInputError(f"edge ({u!r}, {v!r}) references unknown vertex")
            length = Fraction(length) if isinstance(length, (int, str, Fraction)) else float(length)
            if length <= 0:
                raise InvalidInputError(f"edge ({u!r}, {v!r}) has non-positive length")
            self.edges.append((u, v, length))
        if ray_at is not None and ray_at not in vset:
            raise InvalidInputError(f"ray anchor {ray_at!r} is not a vertex")
        self.ray_at = ray_at
        if len(self.edges) != len(self.vertices) - 1:
            raise InvalidInputError("edge count must be vertex count - 1 for a tree")

        # one breadth-first pass from the root gives every vertex its parent
        # edge; reaching all V vertices over V - 1 edges proves a tree
        self._index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        adj = [[] for _ in range(n)]
        for e, (u, v, _) in enumerate(self.edges):
            adj[self._index[u]].append((e, self._index[v]))
            adj[self._index[v]].append((e, self._index[u]))
        self._root = root = self._index[self.vertices[0] if ray_at is None else ray_at]
        self._parent = [root] * n
        self._edge = [None if ray_at is None else RAY_EDGE] * n  # kept by the root only
        self._len = [math.inf] * n
        ancestors = {root: {root}}
        order = [root]
        for v in order:
            for e, w in adj[v]:
                if w not in ancestors:
                    ancestors[w] = ancestors[v] | {w}
                    self._parent[w], self._edge[w], self._len[w] = v, e, self.edges[e][2]
                    order.append(w)
        if len(order) != n:
            raise InvalidInputError("edge graph is not connected")

        # rise[i][j] is 0 when i is an ancestor of j, else one edge more than
        # its parent's; _table reads numpy copies of where it is positive
        # and of the vertex distances rise[i][j] + rise[j][i], each rounded
        # once
        self._rise = [None] * n
        for i in order:
            p = self._parent[i]
            self._rise[i] = [_ZERO if i in ancestors[j] else self._len[i] + self._rise[p][j]
                             for j in range(n)]
        self._below = np.array([[r > 0 for r in row] for row in self._rise])
        self._span = np.array([[float(self._rise[i][j] + self._rise[j][i]) for j in range(n)]
                               for i in range(n)])

    def __repr__(self):
        ray = f", ray_at={self.ray_at!r}" if self.ray_at is not None else ""
        return f"RTreeSpace({len(self.vertices)} vertices, {len(self.edges)} edges{ray})"

    def contains_point(self, p):
        if p.vertex is not None:
            return p.vertex in self._index
        if p.edge is None or p.offset is None:
            return False
        if p.edge == RAY_EDGE:
            return self.ray_at is not None and p.offset >= 0
        if not 0 <= p.edge < len(self.edges):
            return False
        return 0 <= p.offset <= self.edges[p.edge][2]

    # -- rooted form (i, h, rest): h above vertex i, rest below i's parent

    def _form(self, p: Point):
        if p.vertex is not None:
            i = self._index[p.vertex]
            return i, _ZERO, self._len[i]
        if p.edge == RAY_EDGE:
            return self._root, p.offset, math.inf
        u, v, length = self.edges[p.edge]
        if p.offset == 0 or p.offset == length:
            return self._form(Point(self.kind, vertex=u if p.offset == 0 else v))
        if self._edge[self._index[u]] == p.edge:
            return self._index[u], p.offset, length - p.offset
        return self._index[v], length - p.offset, p.offset

    def _exit(self, i, h, rest, j):
        """Vertex where the point (i, h, rest) leaves toward vertex j, and its cost."""
        # inside an edge below the meet it leaves up through i's parent; a
        # vertex leaves through itself at cost 0, so a float distance from a
        # vertex is one table entry plus the other point's cost
        if h and self._rise[i][j]:
            return self._parent[i], rest
        return i, h

    def _on_edge(self, i, h, rest, up) -> Point:
        """The point `up` above the point (i, h, rest), on the parent edge of i."""
        # the offset is h + up or rest - up, whichever the edge counts, and a
        # float offset that reaches an end of the edge gives that vertex
        e = self._edge[i]
        if e is None:  # the root of a tree without a ray
            return Point(self.kind, vertex=self.vertices[i])
        u, v, length = self.edges[e] if e != RAY_EDGE else (self.vertices[i], None, math.inf)
        up = up or _ZERO  # a float zero would round an exact offset
        offset = h + up if u == self.vertices[i] else rest - up
        if 0 < offset < length:
            return Point(self.kind, edge=e, offset=offset)
        return Point(self.kind, vertex=u if offset <= 0 else v)

    def _dist(self, x, y):
        return self._gap(x, self._form(x), y, self._form(y))

    def _gap(self, x, form_x, y, form_y):
        """d(x, y) from the points and their rooted forms."""
        (i, hx, rest_x), (j, hy, rest_y) = form_x, form_y
        if i == j and hx and hy:  # inside one edge
            return abs(x.offset - y.offset)
        ex, cx = self._exit(i, hx, rest_x, j)
        ey, cy = self._exit(j, hy, rest_y, i)
        # cx + (up + down) + cy, where an exact zero (a vertex's cost, an
        # ancestor's rise) is left out: adding it would change neither the
        # value nor the type of the sum
        up, down = self._rise[ex][ey], self._rise[ey][ex]
        d = down if up is _ZERO else up if down is _ZERO else up + down
        if cx is not _ZERO:
            d = cx + d
        return d if cy is _ZERO else d + cy

    def _along(self, x, y, ts):
        form_x, form_y = self._form(x), self._form(y)
        total = self._gap(x, form_x, y, form_y)
        if total == 0:
            return [x] * len(ts)
        return self._walk(form_x, form_y, [t * total for t in ts])

    def _legs(self, form_x, form_y):
        """The path from x to y as legs (length, i, h, rest, up), in path order.

        A point s into a leg is `_on_edge(i, h, rest, s)` going up and
        `_on_edge(i, h, rest, -s)` going down; a walk moves past an up leg
        when s >= length and past a down leg when s > length.  The last up
        leg toward a y above its meet has no end.
        """
        # first up from x to the meet, then down through the vertices above j
        (i, h, rest), (j, hy, _) = form_x, form_y
        legs = []
        while self._rise[i][j]:
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

    def _walk(self, form_x, form_y, ss) -> list:
        """Points at the distances ss from x on [x, y]; assumes 0 <= s <= d(x, y).

        A `Fraction` s is placed exactly against the sums of the leg lengths,
        each sum formed once for all of ss; any other s loses the legs one by
        one, as a walk along the edges does.
        """
        legs = self._legs(form_x, form_y)
        n = len(legs)
        ends = []    # exact distance from x to the far end of each leg reached so far
        floats = []  # float(length) of each leg reached so far
        out, k, last = [], 0, None
        for s in ss:
            if isinstance(s, Fraction):
                # exact: merge s into the leg ends, from the last s when ts
                # ascend; an s at a leg's end is the same vertex on either leg
                if last is None or s < last:
                    k = 0
                last = s
                while k < n:
                    if k == len(ends):
                        ends.append(ends[-1] + legs[k][0] if k else legs[0][0])
                    if s <= ends[k]:
                        break
                    k += 1
                if k == n:
                    out.append(Point(self.kind, vertex=self.vertices[form_y[0]]))
                    continue
                _, i, h, rest, up = legs[k]
                if k:
                    s = s - ends[k - 1]
                out.append(self._on_edge(i, h, rest, s if up else -s))
                continue
            # a float s loses the exact leg lengths in path order, as a walk
            # along the edges does; float(length) decides every comparison but
            # a tie with it, which the exact length breaks
            for m, (length, i, h, rest, up) in enumerate(legs):
                if m == len(floats):
                    floats.append(float(length))
                f = floats[m]
                if s != f:
                    on = s > f
                else:
                    on = s >= length if up else s > length
                if not on:
                    out.append(self._on_edge(i, h, rest, s if up else -s))
                    break
                s -= f
            else:
                out.append(Point(self.kind, vertex=self.vertices[form_y[0]]))
        return out

    def _project(self, p, seg):
        # nearest point of [a, b] is the tree median m(a, b, p); its distance
        # from a along the segment equals the Gromov product (p|b)_a
        a, b = seg.a, seg.b
        dab = self._dist(a, b)
        r = (self._dist(a, p) + dab - self._dist(p, b)) / 2
        q, = self._walk(self._form(a), self._form(b), [min(max(r, 0), dab)])
        return q, self._dist(p, q)

    def _to_chain(self, points, chain):
        # d(p, [a, b]) = (d(p, a) + d(p, b) - d(a, b)) / 2 in a tree, so the
        # exact distances from p to the nodes suffice, each point read in its
        # rooted form once; float rounding is clamped, a distance being never
        # negative
        nodes = [(c, self._form(c)) for c in chain]
        links = [self._gap(*a, *b) for a, b in zip(nodes, nodes[1:])]
        out = []
        for p in points:
            form = self._form(p)
            to = [self._gap(p, form, *c) for c in nodes]
            d = min((u + v - w) / 2 for u, v, w in zip(to, to[1:], links))
            out.append(max(d, 0.0))
        return out

    def _arrays(self, points):
        # float copies of the forms (i, h, rest) and of the edge offsets
        rows = []
        for p in points:
            i, h, rest = self._form(p)
            rows.append((i, float(h), float(rest), float(p.offset) if h else 0.0))
        return np.array(rows, dtype=float).reshape(-1, 4)

    def _table(self, rows, cols):
        # _dist on the float forms and the float vertex distances
        parent = np.array(self._parent)
        i, j = rows[:, 0].astype(int)[:, None], cols[:, 0].astype(int)[None, :]

        def leave(i, h, rest, j):
            # exits toward j of the points (i, h, rest), and their costs
            up = self._below[i, j] & (h > 0)
            return np.where(up, parent[i], i), np.where(up, rest, h)

        ex, cx = leave(i, rows[:, 1, None], rows[:, 2, None], j)
        ey, cy = leave(j, cols[None, :, 1], cols[None, :, 2], i)
        out = cx + self._span[ex, ey] + cy
        inside = (i == j) & (rows[:, 1, None] > 0) & (cols[None, :, 1] > 0)
        return np.where(inside, np.abs(rows[:, 3, None] - cols[None, :, 3]), out)

    def random_point(self, rng, scale=4):
        """Seeded rational point: uniform edge, offset on a 1/16 grid."""
        n_edges = len(self.edges) + (1 if self.ray_at is not None else 0)
        if n_edges == 0:  # a lone vertex is the whole space
            return vertex_point(self.vertices[0])
        idx = int(rng.integers(0, n_edges))
        k = int(rng.integers(0, 17))
        if idx == len(self.edges):
            span = Fraction(scale) if not isinstance(scale, float) else Fraction(str(scale))
            return Point(self.kind, edge=RAY_EDGE, offset=Fraction(k, 16) * span)
        length = self.edges[idx][2]
        return Point(self.kind, edge=idx, offset=Fraction(k, 16) * length)

    def diameter(self):
        """Largest distance between finite-tree points (ray edge excluded)."""
        # in a tree the vertex farthest from any vertex ends a longest path
        rise, n = self._rise, len(self.vertices)
        far = max(range(n), key=lambda j: rise[0][j] + rise[j][0])
        return max(rise[far][j] + rise[j][far] for j in range(n))

    def angle(self, apex, y, z):
        # the segments toward y and z share an initial piece exactly when the
        # Gromov product (y|z)_apex is positive; otherwise they branch apart
        shared = (self.distance(apex, y) + self.distance(apex, z) - self.distance(y, z)) / 2
        return 0.0 if shared > 0 else math.pi

    def _push(self, a, b, p, amp):
        return p  # no transverse directions in a tree

    def move_candidates(self, man, D, directions):
        # walks toward every vertex, plus outward along the ray edge
        targets = [vertex_point(v) for v in self.vertices]
        if self.ray_at is not None:
            base = man.offset if man.edge == RAY_EDGE else Fraction(0)
            targets.append(Point(self.kind, edge=RAY_EDGE, offset=base + 2 * D))
        gaps = [(tgt, self.distance(man, tgt)) for tgt in targets]
        return [self.geodesic_point(man, tgt, D / gap if D < gap else 1)
                for tgt, gap in gaps if gap != 0]

    def random_move(self, rng, man, D):
        tgt = vertex_point(self.vertices[int(rng.integers(0, len(self.vertices)))])
        gap = self.distance(man, tgt)
        if gap == 0:
            return None
        step = D * Fraction(int(rng.integers(0, 17)), 16)
        return self.geodesic_point(man, tgt, min(step / gap, Fraction(1)))

    def origin(self):
        return vertex_point(self.vertices[0])

    def to_config(self):
        cfg = {
            "kind": "rtree",
            "vertices": list(self.vertices),
            "edges": [[u, v, str(length)] for u, v, length in self.edges],
        }
        if self.ray_at is not None:
            cfg["ray_at"] = self.ray_at
        return cfg

    @classmethod
    def from_config(cls, data):
        try:
            vertices = data["vertices"]
            edges = [(u, v, Fraction(str(length))) for u, v, length in data["edges"]]
        except (KeyError, ValueError, TypeError) as exc:
            raise ConfigError(f"rtree config: {exc}") from None
        return cls(vertices, edges, ray_at=data.get("ray_at"))


# ---------------------------------------------------------------------------
# convex domains


@dataclass(frozen=True)
class WholeSpace:
    """The entire space (for the box space this is the box itself)."""

    kind = "whole"

    def contains(self, space: Space, p: Point) -> bool:
        return space.contains_point(p)

    def to_config(self) -> dict:
        return {"kind": "whole"}


@dataclass(frozen=True)
class Ball:
    """Closed metric ball; convex in every provided space."""

    center: Point
    radius: float
    kind = "ball"

    def contains(self, space: Space, p: Point) -> bool:
        return space.contains_point(p) and space.distance(self.center, p) <= self.radius

    def to_config(self) -> dict:
        center = point_to_json(self.center)
        center.pop("kind")
        return {"kind": "ball", "center": center, "radius": self.radius}


@dataclass(frozen=True)
class SubtreeDomain:
    """Subtree induced by a vertex subset; optionally includes the ray edge."""

    vertices: frozenset
    include_ray: bool = False
    kind = "subtree"

    def __init__(self, vertices, include_ray=False):
        object.__setattr__(self, "vertices", frozenset(vertices))
        object.__setattr__(self, "include_ray", include_ray)

    def contains(self, space: Space, p: Point) -> bool:
        if not isinstance(space, RTreeSpace):
            raise SpaceMismatchError("subtree domain requires a tree space")
        if not space.contains_point(p):
            return False
        if p.vertex is not None:
            return p.vertex in self.vertices
        if p.edge == RAY_EDGE:
            return space.ray_at in self.vertices and (self.include_ray or p.offset == 0)
        u, v, length = space.edges[p.edge]
        ends = {u} if p.offset == 0 else {v} if p.offset == length else {u, v}
        return ends <= self.vertices

    def to_config(self) -> dict:
        return {"kind": "subtree", "vertices": sorted(self.vertices, key=str),
                "include_ray": self.include_ray}


def domain_contains(space: Space, domain, p: Point) -> bool:
    """Exact membership predicate of a convex domain.

    Only the point's space kind is validated, not its membership, so the
    predicate can answer False for points outside the space itself (e.g.
    a vector violating the box bounds).
    """
    if not isinstance(p, Point) or p.kind != space.kind:
        raise SpaceMismatchError(f"domain test: expected a {space.kind} point")
    if not hasattr(domain, "contains"):
        raise SpaceMismatchError(f"unknown domain spec {domain!r}")
    return domain.contains(space, p)


# ---------------------------------------------------------------------------
# seeded sampling


class PointSampler:
    """Deterministic point stream for a space, fixed by (seed, scale)."""

    def __init__(self, space: Space, scale=1.0, seed=0):
        self.space = space
        self.scale = scale
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def draw(self) -> Point:
        return self.space.random_point(self._rng, self.scale)


# ---------------------------------------------------------------------------
# configuration files


def space_from_config(data: dict) -> Space:
    if "kind" not in data:
        raise ConfigError("space config: missing 'kind'")
    for family in (EuclideanSpace, L2BoxSpace, HyperbolicPlane, RTreeSpace):
        if family.kind == data["kind"]:
            return family.from_config(data)
    raise ConfigError(f"space config: unknown kind {data['kind']!r}")


def domain_from_config(space: Space, data: dict | None):
    if data is None:
        return WholeSpace()
    kind = data.get("kind", "whole")
    if kind == "whole":
        return WholeSpace()
    if kind == "ball":
        try:
            center = point_from_json({"kind": space.kind, **data["center"]}
                                     if isinstance(data["center"], dict)
                                     else {"kind": space.kind, "coords": data["center"]})
            return Ball(center, float(data["radius"]))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"ball domain config: {exc}") from None
    if kind == "subtree":
        try:
            return SubtreeDomain(data["vertices"], bool(data.get("include_ray", False)))
        except KeyError as exc:
            raise ConfigError(f"subtree domain config: missing {exc}") from None
    raise ConfigError(f"domain config: unknown kind {kind!r}")


def space_to_config(space: Space) -> dict:
    return space.to_config()


def domain_to_config(domain) -> dict:
    if not hasattr(domain, "to_config"):
        raise ConfigError(f"cannot serialize domain {domain!r}")
    return domain.to_config()


def load_space_config(path):
    """Read a JSON space/domain file, returning (space, domain)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    with _bad_input(f"{path}: malformed config", ConfigError):
        if "space" not in data:
            raise ConfigError(f"{path}: missing 'space' section")
        space = space_from_config(data["space"])
        domain = domain_from_config(space, data.get("domain"))
    return space, domain


# ---------------------------------------------------------------------------
# ready-made fixtures


def tripod(leg=1):
    """Tree with center c and three unit legs to a, b, d."""
    return RTreeSpace(
        ["c", "a", "b", "d"],
        [("c", "a", Fraction(leg)), ("c", "b", Fraction(leg)), ("c", "d", Fraction(leg))],
    )


def ray_tree(trunk=1):
    """Small finite tree plus a half-infinite ray hanging off vertex 'r'."""
    return RTreeSpace(
        ["r", "p", "q"],
        [("r", "p", Fraction(trunk)), ("p", "q", Fraction(trunk))],
        ray_at="r",
    )


def random_tree(rng: np.random.Generator, n_vertices=6, max_num=4):
    """Seeded random tree with rational edge lengths (no ray edge)."""
    names = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = Fraction(int(rng.integers(1, max_num + 1)), int(rng.integers(1, 3)))
        edges.append((names[parent], names[i], length))
    return RTreeSpace(names, edges)
