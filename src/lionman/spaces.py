"""Concrete geodesic metric spaces behind one `Space` protocol.

Four families are implemented: Euclidean n-space, the Poincare-disk model
of the hyperbolic plane, metric trees (with an optional half-infinite ray
edge), and an axis-aligned box in l2 whose side lengths grow geometrically.
Everything that differs between families -- the metric, angles, sideways
displacement, the man's moves, the default origin and the config round
trip -- lives on the family's class (see `Space`), so triangle
diagnostics, curve checks, the pursuit game and the CLI never ask which
family they hold.

All operations are pure functions of immutable values.  Tree edge lengths
are exact `Fraction`s, so tree arithmetic is exact when offsets are (inside
the tree it runs on Python ints at one integer scale); the other families
work in float64.  Hyperbolic computations degrade near the
disk rim: measured (ROADMAP item 5), `_dist` holds to 1e-7 out to
hyperbolic radius about 25 of the origin, and distances to segments only
out to about 10.

Tree points are written as (edge, offset) or as a vertex, but `RTreeSpace`
reads them in one rooted form: the tree hangs from its ray anchor (else its
first vertex), and a point is the pair (i, h) of a vertex and the height
above it on the edge toward its parent.  That form and the table of heights
above meets stay private to the class.
"""

from __future__ import annotations

import itertools
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
)
from . import files


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


def _exact(x, what) -> Fraction:
    """x > 0 as a Fraction: x itself, else read from str(x) as config text is (0.1 is 1/10)."""
    try:
        value = x if isinstance(x, Fraction) else files.read_fraction(str(x))
    except (ValueError, ZeroDivisionError):  # NaN, an infinity or no number
        value = _ZERO
    if not value > 0:
        raise InvalidInputError(f"{what} must be a finite number > 0, got {x!r}")
    return value


def _float_sign(x, f, n, scale) -> int:
    """-1, 0 or 1 as the float x lies below, at or above n / scale, with f = float(n / scale).

    The one tie rule of tree floats: f decides every comparison but a tie,
    which the exact value breaks.  A float below (above) f lies below
    (above) every number that rounds to f, so this is the sign of the exact
    comparison, found by float comparisons alone off a tie.  n is an int
    count of 1/scale, or a float that f equals (a float length, the ray's
    infinity).  A NaN reads as below.
    """
    if x != f:
        return 1 if x > f else -1
    if type(n) is float:
        return 0
    a, b = x.as_integer_ratio()
    return (a * scale > n * b) - (a * scale < n * b)


def _inside(t) -> bool:
    """0 < t < 1, a Fraction read by its numerator and denominator (comparing it is slow)."""
    if type(t) is Fraction:
        n, d = t.as_integer_ratio()
        return 0 < n < d
    return 0 < t < 1


# Tree numbers inside `RTreeSpace`: an exact value is an int count of 1/scale
# for the scale of the call, anything else a float.  These three helpers
# combine the two kinds as `Fraction`'s operators combine a Fraction with a
# float: exactly when both are exact, else in floats, each exact value
# rounded once (int / int is correctly rounded, as float(Fraction) is).


def _float(v, scale) -> float:
    """v as a float: an int count of 1/scale rounded once, a float as it is."""
    return v / scale if type(v) is int else v


def _plus(a, b, scale):
    """a + b, exact when both are ints, else the sum of their floats."""
    if type(a) is int:
        return a + b if type(b) is int else a / scale + b
    return a + (b / scale if type(b) is int else b)


def _below(a, b, scale) -> bool:
    """a < b, compared exactly; False when either is a NaN."""
    if type(a) is type(b):
        return a < b
    if type(a) is int:
        return _float_sign(b, a / scale, a, scale) > 0
    return a == a and _float_sign(a, b / scale, b, scale) < 0


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
    elif isinstance(offset, float):  # a numpy float64 too: the tree reads a float by its type
        offset = float(offset)
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
            off = files.read_fraction(off)
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
        return self._geodesic_points(x, y, ts)

    def _geodesic_points(self, x, y, ts) -> list:
        """`geodesic_points` on the member points x and y, which it does not check."""
        inner = []
        for t in ts:
            if _inside(t):
                inner.append(t)
            elif not 0 <= t <= 1:  # NaN fails too
                raise InvalidInputError(f"interpolation parameter {t} outside [0, 1]")
        if len(inner) == len(ts):
            return self._along(x, y, ts)
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

    def _arrays(self, points) -> np.ndarray:
        """Float array with one row per point, built once for `_table`."""
        raise NotImplementedError

    def _rows_along(self, points, sample_rows, slots, us) -> np.ndarray:
        """The `_arrays` rows of the points at us[m] on [points[q - 1], points[q]], q = slots[m].

        sample_rows is `_arrays(points)`; slots (an int array) ascend, as do
        the floats us within one slot, each strictly inside (0, 1).  Each
        row has the bits `_arrays` gives the point `_along` places.  This
        default places the points, one `_along` call per sample interval; a
        family computes the same rows in arrays, with no `Point` per value.
        """
        placed = []
        for q, run in itertools.groupby(zip(slots.tolist(), us.tolist()),
                                        key=operator.itemgetter(0)):
            placed += self._along(points[q - 1], points[q], [u for _, u in run])
        return self._arrays(placed)

    def _table(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances from the points of `rows` to those of `cols`.

        Both are slices of one `_arrays` result; the table is computed
        elementwise, so a block equals that block of the square table.
        """
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator, scale=1.0) -> Point:
        raise NotImplementedError

    # -- family behaviour ---------------------------------------------------

    def _angle(self, apex, y, z, ay, az) -> float:
        """`alexandrov_angle` of member points, given ay = d(apex, y) and az = d(apex, z)."""
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


def _c_prod(ar, ai, br, bi):
    """CPython's complex product a * b on real arrays, a and b given by parts."""
    return ar * br - ai * bi, ar * bi + ai * br


def _c_quot(ar, ai, br, bi):
    """CPython's complex quotient a / b (`_Py_c_quot`) on real arrays, for b != 0.

    Each element takes the branch that divides through by the larger part of b.
    """
    first = np.abs(br) >= np.abs(bi)
    # the branch an element does not take may overflow or divide by zero
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(first, bi / br, br / bi)
        den = np.where(first, br + bi * ratio, br * ratio + bi)
        re = np.where(first, ar + ai * ratio, ar * ratio + ai) / den
        im = np.where(first, ai - ar * ratio, ai * ratio - ar) / den
    return re, im


def _squared_gaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Table of squared l2 distances from the rows of a to the rows of b.

    The table has the bits of ``((a[:, None] - b[None]) ** 2).sum(-1)``.
    Below 8 coordinates numpy sums that short last axis term by term, so
    the columns are added one at a time, each column's square written into
    one scratch table, without the rows x cols x dim difference tensor;
    from 8 on the tensor is summed as written.
    """
    if a.shape[1] >= 8:
        return ((a[:, None] - b[None]) ** 2).sum(-1)
    out = np.subtract(a[:, 0, None], b[None, :, 0])
    out *= out
    scratch = np.empty_like(out)
    for c in range(1, a.shape[1]):
        np.subtract(a[:, c, None], b[None, :, c], out=scratch)
        scratch *= scratch
        out += scratch
    return out


class EuclideanSpace(Space):
    """Flat n-space with the l2 metric."""

    kind = "euclidean"

    def __init__(self, dim=2):
        if not dim >= 1:
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

    def _rows_along(self, points, sample_rows, slots, us):
        # _along's a + t*(b - a), coordinate by coordinate on the sample rows
        a = sample_rows[slots - 1]
        return a + us[:, None] * (sample_rows[slots] - a)

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
        table = _squared_gaps(rows, cols)
        return np.sqrt(table, out=table)

    def random_point(self, rng, scale=1.0):
        return Point(self.kind, tuple(float(c) for c in rng.normal(0.0, scale, self.dim)))

    def _angle(self, apex, y, z, ay, az):
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
        # evenly spread directions in the plane, a fixed seeded basis
        # otherwise; the coordinates are Python floats either way
        D = float(D)
        if self.dim == 2:
            x, y = man.coords
            thetas = (2 * math.pi * i / directions for i in range(directions))
            return [Point(self.kind, (x + D * math.cos(th), y + D * math.sin(th))) for th in thetas]
        raw = np.random.default_rng(20_000 + self.dim).normal(size=(directions, self.dim))
        base = np.asarray(man.coords, dtype=float)
        return [Point(self.kind, tuple((base + D * (v / np.linalg.norm(v))).tolist())) for v in raw]

    def random_move(self, rng, man, D):
        u = rng.normal(size=self.dim)
        u = u / np.linalg.norm(u)
        return Point(self.kind, tuple((np.asarray(man.coords) + float(D) * rng.uniform() * u).tolist()))

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
        if not base > 1:
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

    def _unit(self, x: Point, y: Point) -> complex | None:
        """Unit chart direction at x of the geodesic toward y; None for coincident points."""
        w = self._to_origin(self._c(x), self._c(y))
        r = abs(w)
        return None if r == 0.0 else w / r

    def _along(self, x, y, ts):
        # point_toward from x, with the tangent direction and d(x, y) read once
        direction = self._unit(x, y)
        if direction is None:  # coincident points
            return [x] * len(ts)
        d = self._dist(x, y)
        return [self.point_toward(x, direction, float(t) * d) for t in ts]

    def _rows_along(self, points, sample_rows, slots, us):
        # _along on every sample interval at once: a, the direction and
        # d(x, y) read once per interval, tanh taken by math.tanh (numpy's
        # may differ in the last bit), and the Moebius step in real arrays
        # with CPython's complex operations, term for term, a float operand
        # met as complex(x, 0.0) as before 3.14.  Keeping it real, as 3.14
        # does, drops only zero terms, and 1 + p has a positive real part, so
        # x and y could differ only in the signs of zeros, which `_with_den`
        # and `_table` square away
        lo = slots - 1
        a_re, a_im, w_re, w_im, d = np.zeros((5, len(points)))
        same = np.zeros(len(points), dtype=bool)
        for q in sorted(set(lo.tolist())):  # (np.unique would import numpy.ma)
            x, y = points[q], points[q + 1]
            w = self._unit(x, y)
            if w is None:  # coincident points: x itself
                same[q] = True
                continue
            a = self._c(x)
            a_re[q], a_im[q], w_re[q], w_im[q] = a.real, a.imag, w.real, w.imag
            d[q] = self._dist(x, y)
        th = np.fromiter(map(math.tanh, (0.5 * (us * d[lo])).tolist()), float, len(us))
        ar, ai, dr, di = a_re[lo], a_im[lo], w_re[lo], w_im[lo]
        zr, zi = _c_prod(th, 0.0, dr, di)  # z = th * direction
        pr, pi = _c_prod(ar, -ai, zr, zi)  # p = a.conjugate() * z
        x, y = _c_quot(zr + ar, zi + ai, 1.0 + pr, 0.0 + pi)  # (z + a) / (1.0 + p)
        rows = self._with_den(np.column_stack([x, y]))
        same = same[lo]
        rows[same] = sample_rows[lo[same]]
        return rows

    def tangent_direction(self, x: Point, y: Point) -> complex:
        """Unit tangent at x of the geodesic toward y, in the chart at x."""
        direction = self._unit(x, y)
        if direction is None:
            raise DegenerateInputError("tangent direction undefined for coincident points")
        return direction

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
        return self._with_den(np.asarray([p.coords for p in points], dtype=float))

    @staticmethod
    def _with_den(arr):
        """The rows of `_arrays` from the chart coordinates: x, y and 1 - |z|^2."""
        return np.column_stack([arr, 1.0 - (arr * arr).sum(axis=1)])

    @staticmethod
    def _from_gaps(gaps, den):
        """Distances from squared chart gaps and products of the points' 1 - |z|^2.

        The distances overwrite the float array gaps.
        """
        np.divide(gaps, den, out=gaps)
        np.sqrt(gaps, out=gaps)
        np.arcsinh(gaps, out=gaps)
        gaps *= 2.0
        return gaps

    def _table(self, rows, cols):
        den = rows[:, 2, None] * cols[None, :, 2]
        return self._from_gaps(_squared_gaps(rows[:, :2], cols[:, :2]), den)

    def random_point(self, rng, scale=1.0):
        # uniform hyperbolic radius in [0, scale], uniform direction
        s = rng.uniform(0.0, scale)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.tanh(0.5 * s)
        return Point(self.kind, (r * math.cos(theta), r * math.sin(theta)))

    def _angle(self, apex, y, z, ay, az):
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
    offset >= 0.  Edge lengths are always exact, a float read as the decimal
    it prints as (0.1 is 1/10), and every operation is exact when the
    offsets and parameters are `Fraction`s.

    Internally the tree hangs from a root, the ray anchor or else the first
    vertex, and a point is read as (i, h, rest): height h above vertex i on
    the edge toward i's parent, and rest the way left up to that parent, the
    ray being the root's endless parent edge.  Tables ``rise[i][j]`` (height
    of vertex i above the meet of i and j) and ``climbs[i][j]`` (rise > 0: a
    point leaves toward j up through i's parent, not down through i) make a
    distance one sum; a walk or a projection climbs parent links from x to
    the meet and descends to y.

    Every exact quantity inside is a Python int on one integer scale.  The
    tables ``rise`` and ``len`` (each vertex's parent edge) count 1/q, where
    q is the lcm of the edge lengths' denominators.  A call whose exact
    inputs (offsets, parameters, a step D) need a finer scale counts
    1/(q k) for the least k that holds them all, and multiplies the table
    entries it reads by k; `random_move` counts 1/(16 q k), so that its
    step D r / 16 is a whole count.  A `Fraction` is built only where a value
    leaves the space: a returned distance or a placed point's offset.  A
    float offset keeps float arithmetic, and where it meets an exact value
    that value is rounded once, int / int, as float(Fraction) rounds it.
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
            self.edges.append((u, v, _exact(length, f"edge ({u!r}, {v!r}) length")))
        if ray_at is not None and ray_at not in vset:
            raise InvalidInputError(f"ray anchor {ray_at!r} is not a vertex")
        self.ray_at = ray_at
        if len(self.edges) != len(self.vertices) - 1:
            raise InvalidInputError("edge count must be vertex count - 1 for a tree")
        self._q = q = math.lcm(*(length.denominator for _, _, length in self.edges))
        counts = [length.numerator * (q // length.denominator) for _, _, length in self.edges]

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
        self._len = [math.inf] * n  # parent edge lengths, in 1/q
        self._child = [None] * len(self.edges)  # each edge's child vertex
        above = {root: {root: 0}}  # each vertex's heights above its ancestors, in 1/q
        order = [root]
        for v in order:
            for e, w in adj[v]:
                if w not in above:
                    self._parent[w], self._edge[w], self._len[w] = v, e, counts[e]
                    self._child[e] = w
                    above[w] = {a: counts[e] + h for a, h in above[v].items()} | {w: 0}
                    order.append(w)
        if len(order) != n:
            raise InvalidInputError("edge graph is not connected")

        # rise[i][j], i's height above meet(i, j) in 1/q, is 0 where i is an
        # ancestor of j (climbs[i][j] false).  _table reads numpy copies of
        # climbs and of rise[i][j] + rise[j][i], each rounded once by one int
        # division by q
        meets = {root: [root] * n}
        for i in order[1:]:
            meets[i] = [i if i in above[j] else m for j, m in enumerate(meets[self._parent[i]])]
        self._rise = [[above[i][m] for m in meets[i]] for i in range(n)]
        self._climbs = [[m != i for m in meets[i]] for i in range(n)]
        self._below = np.array(self._climbs)
        depth = [above[i][root] for i in range(n)]  # q times the root distance
        self._span = np.array([[(depth[i] + depth[j] - 2 * depth[m]) / q
                                for j, m in enumerate(meets[i])] for i in range(n)])

        # float shadows, read when an offset or a t is a float: float(length)
        # of each vertex's parent edge
        self._flen = [length / q for length in self._len]
        # numpy copies of the parent links and of the vertex range, for _table
        self._parents = np.array(self._parent)
        self._vertex_range = np.arange(n)

    def __repr__(self):
        ray = f", ray_at={self.ray_at!r}" if self.ray_at is not None else ""
        return f"RTreeSpace({len(self.vertices)} vertices, {len(self.edges)} edges{ray})"

    def contains_point(self, p):
        if p.vertex is not None:
            return p.vertex in self._index
        off = p.offset
        # the kernels read a float by its type: an offset is a Python float, a Fraction or an int
        if p.edge is None or not (type(off) is float or isinstance(off, (Fraction, int))):
            return False
        if p.edge == RAY_EDGE:
            return self.ray_at is not None and off >= 0
        if not 0 <= p.edge < len(self.edges):
            return False
        c = self._child[p.edge]
        if type(off) is float:
            return 0 <= off and _float_sign(off, self._flen[c], self._len[c], self._q) <= 0
        if type(off) is Fraction:  # 0 <= off <= len / q, in ints
            n, d = off.as_integer_ratio()
            return n >= 0 and n * self._q <= self._len[c] * d
        return 0 <= off <= self.edges[p.edge][2]

    # -- the scale of a call and the rooted form (i, h, rest) on it

    def _scale(self, numbers, k=1) -> int:
        """The least multiple k' of k at which each exact number is a whole count of 1/(q k').

        Floats and Nones (a vertex's offset) are passed over.
        """
        q = self._q
        for x in numbers:
            if x is not None and type(x) is not float:
                d = x.denominator
                if q * k % d:
                    k *= d // math.gcd(q * k, d)
        return k

    def _form(self, p: Point, k):
        """The rooted form of p; its exact numbers count 1/(q k), and a vertex has h = int 0."""
        if p.vertex is not None:
            i = self._index[p.vertex]
            return i, 0, self._len[i] * k
        off = p.offset
        if p.edge == RAY_EDGE:
            if type(off) is not float:
                n, d = off.as_integer_ratio()
                off = n * (self._q * k // d)
            return self._root, off, math.inf
        u, v, _ = self.edges[p.edge]
        c = self._child[p.edge]
        if type(off) is float:
            # a float offset meets float(length) in arithmetic
            at_end = _float_sign(off, self._flen[c], self._len[c], self._q) == 0
            length = self._flen[c]
        else:
            n, d = off.as_integer_ratio()
            off = n * (self._q * k // d)
            length = self._len[c] * k
            at_end = off == length
        if off == 0 or at_end:
            i = self._index[u if off == 0 else v]
            return i, 0, self._len[i] * k
        if self.vertices[c] == u:
            return c, off, length - off
        return c, length - off, off

    def _on_edge(self, i, h, rest, up, k) -> Point:
        """The point `up` above the point (i, h, rest), on the parent edge of i."""
        # the offset is h + up or rest - up, whichever the edge counts, and a
        # float offset that reaches an end of the edge gives that vertex
        e = self._edge[i]
        if e is None:  # the root of a tree without a ray
            return Point(self.kind, vertex=self.vertices[i])
        u, v = (self.vertices[i], None) if e == RAY_EDGE else self.edges[e][:2]
        up = up or 0  # a float zero would round an exact offset
        offset = h + up if u == self.vertices[i] else rest - up
        if type(offset) is float:
            if 0 < offset and _float_sign(offset, self._flen[i], self._len[i], self._q) < 0:
                return Point(self.kind, edge=e, offset=offset)
        elif 0 < offset < self._len[i] * k:
            return Point(self.kind, edge=e, offset=Fraction(offset, self._q * k))
        return Point(self.kind, vertex=u if offset <= 0 else v)

    def _dist(self, x, y):
        k = self._scale((x.offset, y.offset))
        d = self._gap(x, self._form(x, k), y, self._form(y, k), k)
        return d if type(d) is float else Fraction(d, self._q * k)  # the one Fraction built

    def _gap(self, x, form_x, y, form_y, k):
        """d(x, y) from the points and their rooted forms: an int count of 1/(q k), or a float."""
        (i, hx, rest_x), (j, hy, rest_y) = form_x, form_y
        if i == j and hx and hy:  # inside one edge
            if type(hx) is float or type(hy) is float:
                return abs(float(x.offset) - float(y.offset))
            return abs(hx - hy)
        # the vertex where each point leaves toward the other, and its cost:
        # inside an edge below the meet it leaves up through its parent; a
        # vertex leaves through itself at cost 0
        ex, cx, ey, cy = i, hx, j, hy
        if hx and self._climbs[i][j]:
            ex, cx = self._parent[i], rest_x
        if hy and self._climbs[j][i]:
            ey, cy = self._parent[j], rest_y
        rise = self._rise[ex][ey] + self._rise[ey][ex]
        if type(cx) is float:
            # cx + span + float(cy), the span being float(rise) in 1/q
            d = cx + rise / self._q
            return d + cy if type(cy) is float else d + cy / (self._q * k) if cy else d
        d = cx + rise * k
        if type(cy) is float:
            # the exact part rounded once, then the float cost added
            return d / (self._q * k) + cy
        return d + cy

    def _along(self, x, y, ts):
        k = self._scale((x.offset, y.offset))
        form_x, form_y = self._form(x, k), self._form(y, k)
        total = self._gap(x, form_x, y, form_y, k)
        if total == 0:
            return [x] * len(ts)
        if type(total) is float:
            return self._walk(form_x, form_y, [float(t) * total for t in ts], k)
        # an exact t places s = t total exactly: the scale widens until it
        # counts every such s in whole units (an int total has exact forms);
        # a float t meets float(total)
        m, total_f = 1, None
        for t in ts:
            if isinstance(t, float):
                total_f = total / (self._q * k)
            else:
                m *= t.denominator // math.gcd(t.denominator, total * m)
        if m > 1:
            k, total = k * m, total * m
            form_x, form_y = [(i, h * m, rest * m) for i, h, rest in (form_x, form_y)]
        ss = [float(t) * total_f if isinstance(t, float) else t.numerator * total // t.denominator
              for t in ts]
        return self._walk(form_x, form_y, ss, k)

    def _legs(self, form_x, form_y, k):
        """The path from x to y as legs (length, i, h, rest, up), in path order.

        A point s into a leg is `_on_edge(i, h, rest, s, k)` going up and
        `_on_edge(i, h, rest, -s, k)` going down; a walk moves past an up leg
        when s >= length and past a down leg when s > length.  The last up
        leg toward a y above its meet has no end.
        """
        # first up from x to the meet, then down through the vertices above j
        (i, h, rest), (j, hy, _) = form_x, form_y
        legs = []
        while self._climbs[i][j]:
            legs.append((rest, i, h, rest, True))
            i = self._parent[i]
            h, rest = 0, self._len[i] * k
        if i == j and _below(h, hy, self._q * k):
            legs.append((math.inf, i, h, rest, True))
            return legs
        below = [j]
        while below[-1] != i:
            below.append(self._parent[below[-1]])
        for c in reversed(below):
            if c != i:
                h, rest = self._len[c] * k, 0
            legs.append((h, c, h, rest, False))
        return legs

    @staticmethod
    def _reach(legs, ends, s, at):
        """The first leg that ends at or past the exact distance s, searched from leg at.

        ends holds the sums of the leg lengths from x, in path order, as far
        as a walk has read them; it grows here, each sum formed once.  s must
        not exceed the sum of all the legs.
        """
        if at and s <= ends[at - 1]:  # s lies before leg at: search from the first leg
            at = 0
        while True:
            if at == len(ends):
                ends.append(ends[-1] + legs[at][0] if at else legs[0][0])
            if s <= ends[at]:
                return at
            at += 1

    def _walk(self, form_x, form_y, ss, k) -> list:
        """Points at the distances ss from x on [x, y]; assumes 0 <= s <= d(x, y).

        An int s, a count of 1/(q k), is placed exactly against the sums of
        the leg lengths, each sum formed once for all of ss; a float s loses
        the legs one by one, as a walk along the edges does.
        """
        legs = self._legs(form_x, form_y, k)
        scale = self._q * k
        ends = []        # exact distance from x to the far end of each leg reached so far
        shadows = None   # float(length), float(h) and float(rest) of each leg
        out, at = [], 0
        for s in ss:
            if type(s) is int:
                # exact: merge s into the leg ends, from the last leg reached
                # when ts ascend; an s at a leg's end is the same vertex on
                # either leg.  s <= d(x, y), the sum of the legs (`_along`
                # passes t < 1, `_project` the median's distance from a), so
                # some leg ends at or past s
                at = self._reach(legs, ends, s, at)
                _, i, h, rest, up = legs[at]
                if at:
                    s -= ends[at - 1]
                out.append(self._on_edge(i, h, rest, s if up else -s, k))
                continue
            # a float s loses the exact leg lengths in path order, as a walk
            # along the edges does, each compared by `_float_sign`; a nonzero
            # float s meets the leg's float h and rest, as Fraction's fallback
            # would
            if shadows is None:
                shadows = [(_float(length, scale), _float(h, scale), _float(rest, scale))
                           for length, _, h, rest, _ in legs]
            for (length, i, h, rest, up), (f, fh, frest) in zip(legs, shadows):
                past = _float_sign(s, f, length, scale)
                if past < 0 or (past == 0 and not up):
                    if s:
                        h, rest = fh, frest
                    out.append(self._on_edge(i, h, rest, s if up else -s, k))
                    break
                s -= f
            else:
                out.append(Point(self.kind, vertex=self.vertices[form_y[0]]))
        return out

    def _rows_along(self, points, sample_rows, slots, us):
        # _walk's float path for every value at once.  Each sample interval's
        # legs are padded into a table of float shadows, one row per leg (see
        # _shadowed); a pad leg has length 0.0, as has the leg at the root of
        # a tree without a ray, and every s > 0 passes it.  The values that
        # tie with a leg's float length, pass every leg, start at s = 0, land
        # outside the open edge or lie on a segment of length 0 go through
        # `_along` itself
        lo = slots - 1
        qs = sorted(set(lo.tolist()))  # (np.unique would import numpy.ma)
        totals, tables = [], []
        for q in qs:
            x, y = points[q], points[q + 1]
            k = self._scale((x.offset, y.offset))
            fx, fy = self._form(x, k), self._form(y, k)
            total = self._gap(x, fx, y, fy, k)
            scale = self._q * k
            totals.append(_float(total, scale) if total else 0.0)
            tables.append([self._shadowed(leg, scale) for leg in self._legs(fx, fy, k)]
                          if total else [])
        tab = np.zeros((len(qs), max([1, *map(len, tables)]), 6))
        for m, legs in enumerate(tables):
            if legs:
                tab[m, :len(legs)] = legs
        g = np.searchsorted(qs, lo)
        s = us * np.array(totals)[g]
        fs = tab[g, :, 0]
        leg = np.zeros(len(us), dtype=int)
        live = np.ones(len(us), dtype=bool)
        rare = s == 0.0
        for k in range(tab.shape[1]):
            f = fs[:, k]
            rare |= live & (s == f)
            on = live & (s > f)
            leg[live & ~on] = k
            s = np.where(on, s - f, s)
            live = on
        rare |= live
        _, i, base, add, flen, first = tab[g, leg].T
        off = np.where(add > 0, base + s, base - s)
        rare |= ~((0.0 < off) & (off < flen))
        # _form of the point at offset off: (i, off, flen - off) counted from
        # i, else (i, flen - off, off)
        other = flen - off
        first = first > 0
        rows = np.column_stack([i, np.where(first, off, other), np.where(first, other, off), off])
        if rare.any():
            rows[rare] = super()._rows_along(points, sample_rows, slots[rare], us[rare])
        return rows

    def _shadowed(self, leg, scale):
        """The row of `_rows_along`'s leg table for one leg of `_legs`, whose ints count 1/scale.

        float(length), the vertex i, the offset base (float h where the
        parent edge of i counts from i, else float rest), whether s adds to
        the base (that orientation on an up leg, the other on a down one),
        float(length) of the parent edge of i, and that orientation.
        """
        length, i, h, rest, up = leg
        e = self._edge[i]
        first = e == RAY_EDGE or (e is not None and self.edges[e][0] == self.vertices[i])
        return (_float(length, scale), i, _float(h if first else rest, scale), first == up,
                self._flen[i], first)

    def _project(self, p, seg):
        # nearest point of [a, b] is the tree median m(a, b, p); its distance
        # from a along the segment is the Gromov product (p|b)_a, summed
        # exactly while its terms are
        a, b = seg.a, seg.b
        k = self._scale((a.offset, b.offset, p.offset))
        form_a, form_b, form_p = self._form(a, k), self._form(b, k), self._form(p, k)
        scale = self._q * k
        dab = self._gap(a, form_a, b, form_b, k)
        r = _plus(_plus(self._gap(a, form_a, p, form_p, k), dab, scale),
                  -self._gap(p, form_p, b, form_b, k), scale)
        if type(r) is float:
            s = max(r / 2, 0.0)  # a float s: a rounded r < 0 walks from a as a float 0
            if _below(dab, s, scale):
                s = dab
        else:
            # r = 2 d(a, m), m a vertex or one of a, b and p: even on the call's scale
            s = r // 2
        q, = self._walk(form_a, form_b, [s], k)
        return q, self._dist(p, q)

    def _to_chain(self, points, chain):
        # d(p, [a, b]) = (d(p, a) + d(p, b) - d(a, b)) / 2 in a tree, so the
        # distances from p to the nodes suffice, each point read in its
        # rooted form once and all on one scale.  An exact term stays doubled,
        # an int count of 1/(2 q k), until the least one is found; float
        # rounding is clamped, a distance being never negative
        k = self._scale(p.offset for p in itertools.chain(chain, points))
        scale = self._q * k
        gap = self._gap
        nodes = [(c, self._form(c, k)) for c in chain]
        links = [gap(a, fa, b, fb, k) for (a, fa), (b, fb) in zip(nodes, nodes[1:])]
        out = []
        for p in points:
            form = self._form(p, k)
            to = [gap(p, form, c, fc, k) for c, fc in nodes]
            terms = [u + v - w if type(u) is type(v) is type(w) else
                     _plus(_plus(u, v, scale), -w, scale) for u, v, w in zip(to, to[1:], links)]
            kinds = {type(d) for d in terms}
            if kinds == {int}:
                out.append(Fraction(min(terms), 2 * scale))
                continue
            # the least term, an exact one meeting a float one exactly
            terms = [d / 2 if type(d) is float else d for d in terms]
            best = terms[0]
            for d in terms[1:]:
                if _below(d, best, 2 * scale):
                    best = d
            out.append(max(best, 0.0) if type(best) is float else Fraction(best, 2 * scale))
        return out

    def _arrays(self, points):
        # float copies of the forms (i, h, rest) and of the edge offsets
        rows = []
        for p in points:
            k = self._scale((p.offset,))
            i, h, rest = self._form(p, k)
            if type(h) is int and not h:  # a vertex
                rows.append((i, 0.0, self._flen[i], 0.0))
            else:
                scale = self._q * k
                rows.append((i, _float(h, scale), _float(rest, scale),
                             float(p.offset) if h else 0.0))
        return np.array(rows, dtype=float).reshape(-1, 4)

    def _table(self, rows, cols):
        # _dist on the float forms and the float vertex distances.  A row
        # point x leaves toward a column point y as toward y's exit vertex
        # ey, so with exits[x, k] = cx + span[ex, k] over the vertices k,
        # where (ex, cx) is x's exit toward k, d(x, y) = exits[x, ey] + cy:
        # _dist's cx + span[ex, ey] + cy, term for term.  y's exit (ey, cy)
        # toward x depends on x only through its vertex, so it is read once
        # for all the rows at one vertex
        parent = self._parents
        i, h, rest = rows[:, 0].astype(int), rows[:, 1, None], rows[:, 2, None]
        j, hy, rest_y = cols[:, 0].astype(int), cols[:, 1], cols[:, 2]
        up = self._below[i] & (h > 0)
        ex = np.where(up, parent[i, None], i[:, None])
        exits = np.where(up, rest, h) + self._span[ex, self._vertex_range]
        inner = hy > 0
        out = np.empty((len(rows), len(cols)))
        for v in set(i.tolist()):
            at = np.flatnonzero(i == v)
            # y leaves up through j's parent when j lies below its meet with v
            up_y = self._below[j, v] & inner
            near = np.take(exits[at], np.where(up_y, parent[j], j), axis=1)
            near += np.where(up_y, rest_y, hy)
            out[at] = near
            # two points inside one edge: the gap of their offsets
            r, c = at[h[at, 0] > 0], np.flatnonzero((j == v) & inner)
            out[np.ix_(r, c)] = np.abs(rows[r, 3, None] - cols[c, 3])
        return out

    def random_point(self, rng, scale=4):
        """Seeded rational point: uniform edge, offset on a 1/16 grid."""
        n_edges = len(self.edges) + (1 if self.ray_at is not None else 0)
        if n_edges == 0:  # a lone vertex is the whole space
            return vertex_point(self.vertices[0])
        idx = int(rng.integers(0, n_edges))
        k = int(rng.integers(0, 17))
        if idx == len(self.edges):
            return Point(self.kind, edge=RAY_EDGE, offset=Fraction(k, 16) * _exact(scale, "scale"))
        length = self.edges[idx][2]
        return Point(self.kind, edge=idx, offset=Fraction(k, 16) * length)

    def diameter(self):
        """Largest distance between finite-tree points (ray edge excluded)."""
        # in a tree the vertex farthest from any vertex ends a longest path
        rise, n = self._rise, len(self.vertices)
        far = max(range(n), key=lambda j: rise[0][j] + rise[j][0])
        return Fraction(max(rise[far][j] + rise[j][far] for j in range(n)), self._q)

    def _angle(self, apex, y, z, ay, az):
        # the segments toward y and z share an initial piece exactly when the
        # Gromov product (y|z)_apex is positive; otherwise they branch apart
        shared = ay + az - self._dist(y, z)
        return 0.0 if shared / 2 > 0 else math.pi

    def _push(self, a, b, p, amp):
        return p  # no transverse directions in a tree

    def move_candidates(self, man, D, directions):
        # walks toward every vertex, plus outward along the ray edge
        self.check_point(man, "man")
        if isinstance(D, float):  # a numpy float64 too
            D = float(D)
        targets = [vertex_point(v) for v in self.vertices]
        if self.ray_at is not None:
            base = man.offset if man.edge == RAY_EDGE else _ZERO
            targets.append(Point(self.kind, edge=RAY_EDGE, offset=base + 2 * D))
        # one scale holds the man, D and the ray target, whose offset base + 2 D
        # needs no finer one
        k = self._scale((man.offset, D))
        scale = self._q * k
        exact = not isinstance(D, float)
        if exact:
            d = D.numerator * (scale // D.denominator)
        form = self._form(man, k)
        # an exact walk of D reads its path's legs only up to the one that
        # holds D, so the targets that share those legs share one placed
        # point, listed once; a float walk is placed per target
        out, placed = [], set()
        for tgt in targets:
            to = self._form(tgt, k)
            gap = self._gap(man, form, tgt, to, k)
            if gap == 0:
                continue
            if exact and type(gap) is int:
                # t = D / gap <= 1, and t gap is D itself: a target at D is
                # walked too, as the end of the prefix it shares with those behind it
                if d > gap:
                    out.append(tgt)
                    continue
                legs = self._legs(form, to, k)
                key, s = tuple(legs[:self._reach(legs, [], d, 0) + 1]), d
            else:
                total = _float(gap, scale)
                t = float(D) / total
                if not t < 1:
                    out.append(tgt)
                    continue
                key, s = tgt, t * total
            if key not in placed:
                placed.add(key)
                out.append(self._walk(form, to, [s], k)[0])
        return out

    def random_move(self, rng, man, D):
        self.check_point(man, "man")
        if isinstance(D, float):  # a numpy float64 too
            D = float(D)
        tgt = vertex_point(self.vertices[int(rng.integers(0, len(self.vertices)))])
        k = 16 * self._scale((man.offset, D))  # D r / 16 is a whole count of 1/(q k)
        form, to = self._form(man, k), self._form(tgt, k)
        gap = self._gap(man, form, tgt, to, k)
        if gap == 0:
            return None
        r = int(rng.integers(0, 17))
        if isinstance(D, float) or type(gap) is float:
            # t = D (r / 16) / gap, as Fraction's float fallback forms it, and
            # s = t float(gap)
            total = _float(gap, self._q * k)
            part = D * (r / 16) if isinstance(D, float) else D.numerator * r / (16 * D.denominator)
            t = part / total
            return man if t == 0 else tgt if t >= 1 else self._walk(form, to, [t * total], k)[0]
        # exact: s = D r / 16; t = s / gap
        s = D.numerator * (self._q * k // (16 * D.denominator)) * r
        if s == 0:
            return man
        if s >= gap:
            return tgt
        return self._walk(form, to, [s], k)[0]

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
            edges = [(u, v, length) for u, v, length in data["edges"]]
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
    """Closed metric ball; convex in every provided space.

    The radius is a float, or an exact `Fraction`, which a config holds as
    "p/q" text, as a transcript holds D.
    """

    center: Point
    radius: object
    kind = "ball"

    def __post_init__(self):
        if not self.radius >= 0:  # NaN fails too
            raise InvalidInputError(f"ball radius must be >= 0, got {self.radius}")

    def contains(self, space: Space, p: Point) -> bool:
        if not space.contains_point(p):
            return False
        space.check_point(self.center, "ball center")
        return space._dist(self.center, p) <= self.radius

    def to_config(self) -> dict:
        center = point_to_json(self.center)
        center.pop("kind")
        # D's rule: an exact radius as "p/q" text, any other as a float
        radius = str(self.radius) if isinstance(self.radius, Fraction) else float(self.radius)
        return {"kind": "ball", "center": center, "radius": radius}


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
        if space.kind != "rtree":
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
        if not 0 < scale < math.inf:  # NaN fails too
            raise InvalidInputError(f"sampler scale must be finite and > 0, got {scale}")
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
            radius = data["radius"]
            if not isinstance(radius, str):
                return Ball(center, float(radius))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"ball domain config: {exc}") from None
        try:
            radius = files.read_fraction(radius)
        except (ValueError, ZeroDivisionError):
            raise InvalidInputError(f"ball radius must be >= 0, got {radius!r}") from None
        return Ball(center, radius)
    if kind == "subtree":
        try:
            return SubtreeDomain(data["vertices"], bool(data.get("include_ray", False)))
        except KeyError as exc:
            raise ConfigError(f"subtree domain config: missing {exc}") from None
    raise ConfigError(f"domain config: unknown kind {kind!r}")


def space_to_config(space: Space) -> dict:
    return space.to_config()


def load_space_config(path):
    """Read a JSON space/domain file, returning (space, domain)."""
    def build(data):
        if "space" not in data:
            raise ConfigError(f"{path}: missing 'space' section")
        space = space_from_config(data["space"])
        return space, domain_from_config(space, data.get("domain"))
    return files.read_json(path, "config", build, ConfigError)


# ---------------------------------------------------------------------------
# ready-made fixtures


def tripod(leg=1):
    """Tree with center c and three legs of length leg to a, b, d."""
    return RTreeSpace(["c", "a", "b", "d"], [("c", "a", leg), ("c", "b", leg), ("c", "d", leg)])


def ray_tree(trunk=1):
    """Small finite tree plus a half-infinite ray hanging off vertex 'r'."""
    return RTreeSpace(["r", "p", "q"], [("r", "p", trunk), ("p", "q", trunk)], ray_at="r")


def random_tree(rng: np.random.Generator, n_vertices=6, max_num=4):
    """Seeded random tree with rational edge lengths (no ray edge)."""
    names = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = Fraction(int(rng.integers(1, max_num + 1)), int(rng.integers(1, 3)))
        edges.append((names[parent], names[i], length))
    return RTreeSpace(names, edges)
