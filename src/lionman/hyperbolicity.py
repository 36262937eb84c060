"""Triangle diagnostics: Gromov products, slimness, angles, flat comparison.

Everything here quantifies how far a space is from a tree.  Slimness of
sampled triangles estimates the hyperbolicity constant, the planted flat
comparison triangle measures the nonpositive-curvature defect, and the
equidistant-pair criterion gives an alternative hyperbolicity certificate
with explicit witnesses.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import _tiles, _worse, zigzag_quasi_geodesic
from .errors import DegenerateInputError, InvalidInputError
from .spaces import EuclideanSpace, Point, PointSampler, Space, _flat_angle, epoint

_QUASI_SEGMENTS = 6  # zigzag segments per side of a quasi-geodesic triangle
_CRITERION_LEVELS = 16  # equidistant levels r = (y|z)_x j / 16 tested per triple


def gromov_product(space: Space, x: Point, y: Point, z: Point):
    """(y|z)_x = (d(x,y) + d(x,z) - d(y,z)) / 2.

    Measures how long geodesics from x toward y and z travel together;
    always in [0, min(d(x,y), d(x,z))].  Exact on trees with rational data.
    """
    return _gromov(space.distance(x, y), space.distance(x, z), space.distance(y, z))


def _gromov(dxy, dxz, dyz):
    """(dxy + dxz - dyz) / 2, a float rounding just below 0 clamped to 0."""
    value = (dxy + dxz - dyz) / 2
    if isinstance(value, float) and -1e-12 < value < 0.0:
        return 0.0
    return value


def comparison_angle(space: Space, apex: Point, y: Point, z: Point) -> float:
    """Angle at the apex of the flat triangle with the same side lengths."""
    a = float(space.distance(apex, y))
    b = float(space.distance(apex, z))
    if a == 0.0 or b == 0.0:
        raise DegenerateInputError("comparison angle needs both sides nondegenerate")
    return _flat_angle(a, b, float(space.distance(y, z)))


@dataclass(frozen=True)
class ComparisonTriangle:
    """Flat triangle with prescribed side lengths, planted in the plane.

    Vertices: v0 at the origin, v1 on the positive x-axis, v2 in the upper
    half plane.  ``side(i, j, s)`` returns the planar point at distance s
    from vertex i along the side toward vertex j.
    """

    d01: float
    d02: float
    d12: float
    coords: tuple

    @classmethod
    def from_points(cls, space: Space, x: Point, y: Point, z: Point):
        return cls.from_sides(float(space.distance(x, y)),
                              float(space.distance(x, z)),
                              float(space.distance(y, z)))

    @classmethod
    def from_sides(cls, d01: float, d02: float, d12: float):
        if d01 < 0 or d02 < 0 or d12 < 0:
            raise InvalidInputError("side lengths must be nonnegative")
        if d12 > d01 + d02 + 1e-9 or abs(d01 - d02) > d12 + 1e-9:
            raise InvalidInputError("side lengths violate the triangle inequality")
        v0 = (0.0, 0.0)
        v1 = (d01, 0.0)
        if d01 == 0.0 or d02 == 0.0:
            v2 = (d02, 0.0)
        else:
            ang = _flat_angle(d01, d02, d12)
            v2 = (d02 * math.cos(ang), d02 * math.sin(ang))
        return cls(d01, d02, d12, (v0, v1, v2))

    def side(self, i: int, j: int, s: float):
        a = np.asarray(self.coords[i])
        b = np.asarray(self.coords[j])
        gap = float(np.linalg.norm(b - a))
        if gap == 0.0:
            return a
        return a + (s / gap) * (b - a)

    def planted_residual(self) -> float:
        """Largest gap between prescribed and planted side lengths."""
        c = [np.asarray(v) for v in self.coords]
        out = 0.0
        for (i, j, d) in ((0, 1, self.d01), (0, 2, self.d02), (1, 2, self.d12)):
            out = max(out, abs(float(np.linalg.norm(c[j] - c[i])) - d))
        return out


def alexandrov_angle(space: Space, apex: Point, y: Point, z: Point) -> float:
    """Upper angle between the geodesics from the apex toward y and z.

    Comparison angles shrink monotonically with scale in nonpositive
    curvature, so the limit exists; each family gives it in closed form
    (``Space._angle``): vector angles in the flat families, chart tangent
    angles in the disk, and 0 or pi in a tree depending on whether the two
    segments share an initial subsegment.
    """
    ay = space.distance(apex, y)
    if ay == 0 or (az := space.distance(apex, z)) == 0:
        raise DegenerateInputError("angle undefined when the apex equals an endpoint")
    return space._angle(apex, y, z, ay, az)


# ---------------------------------------------------------------------------
# slimness


@dataclass
class SlimnessReport:
    """Largest sampled distance from one side to the union of the others."""

    value: object
    witness_side: int
    witness_param: float
    witness_point: Point
    grid: int


def _chain_slimness(space: Space, chains, sample_sets, grid: int) -> SlimnessReport:
    # side i ends where chain i + 1 starts, so the other two sides are one
    # chain, joined at the start of chain i + 2.  A NaN distance is the
    # sample's distance, and the first NaN sample the witness
    worst = None
    for i, samples in enumerate(sample_sets):
        others = chains[(i + 1) % 3] + chains[(i + 2) % 3][1:]
        near = space._to_chain([p for _, p in samples], others)
        for (t, p), d in zip(samples, near):
            if worst is None or _worse(d, worst[0], operator.gt):
                worst = (d, i, t, p)
    value, side, t, p = worst
    return SlimnessReport(value=value, witness_side=side, witness_param=float(t),
                          witness_point=p, grid=grid)


def slim_defect(space: Space, x: Point, y: Point, z: Point, grid: int) -> SlimnessReport:
    """Empirical slimness of the geodesic triangle xyz.

    Each side is sampled on a uniform parameter grid and measured against
    the union of the other two sides; the result underestimates the true
    slimness by at most the sampling resolution.  A NaN distance makes the
    slimness NaN, its first sample the witness.
    """
    if not grid >= 2:
        raise InvalidInputError("grid must be >= 2")
    verts = [(x, y), (y, z), (z, x)]
    chains = [[a, b] for a, b in verts]
    ts = [Fraction(j, grid - 1) for j in range(grid)]  # rational: exact on trees
    sample_sets = []
    for a, b in verts:
        sample_sets.append(list(zip(ts, space.geodesic_points(a, b, ts))))
    return _chain_slimness(space, chains, sample_sets, grid)


def estimate_delta(space: Space, sampler: PointSampler, trials: int, grid=24):
    """Largest slimness over seeded random geodesic triangles."""
    return estimate_quasi_slim_M(space, 1, sampler, trials, grid)


def estimate_quasi_slim_M(space: Space, lam: float, sampler: PointSampler,
                          trials: int, grid=24):
    """Largest slimness over seeded random lambda-quasi-geodesic triangles.

    Sides are seeded zigzags certified to satisfy the (lambda, 0) bounds
    before use; with lambda = 1 the triangles are geodesic and the result
    matches estimate_delta on the same seed.  A NaN slimness is worse than
    any number: the first one met is the result.
    """
    if not lam >= 1:
        raise InvalidInputError("lambda must be >= 1")
    if not trials >= 1:
        raise InvalidInputError("trials must be >= 1")
    best = 0
    for trial in range(trials):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        if lam == 1:
            value = slim_defect(space, x, y, z, grid).value
        else:
            if any(space.distance(a, b) == 0 for a, b in ((x, y), (y, z), (z, x))):
                continue
            rng = np.random.default_rng((sampler.seed, 1000 + trial))
            sides = [zigzag_quasi_geodesic(space, a, b, lam, _QUASI_SEGMENTS, rng, away_from=c)
                     for a, b, c in ((x, y, z), (y, z, x), (z, x, y))]
            chains = [list(c.points) for c in sides]
            sample_sets = []
            for c in sides:
                ts = np.linspace(float(c.t_min), float(c.t_max), grid).tolist()
                sample_sets.append(list(zip(ts, c._at_sorted(ts))))
            value = _chain_slimness(space, chains, sample_sets, grid).value
        if _worse(value, best, operator.gt):
            best = value
    return best


# ---------------------------------------------------------------------------
# equidistant-pair hyperbolicity criterion


@dataclass
class GromovCriterionReport:
    """Supremum of d(y', z') over tested equidistant pairs on [x,y], [x,z]."""

    delta_prime: float
    sup: object
    witness: tuple | None
    per_triple: list
    levels: int
    passed: bool


def check_gromov_criterion(space: Space, triples, delta_prime, *,
                           tol=None) -> GromovCriterionReport:
    """Test d(y', z') <= delta_prime for equidistant pairs below the product.

    For each triple (x, y, z) and each level r <= (y|z)_x, takes the points
    at distance r from x on [x, y] and [x, z] and records their distance.
    On a tree the pairs coincide and the supremum is exactly zero.  A NaN
    distance is the supremum, the first one the witness, and fails the test.
    """
    if not delta_prime >= 0:
        raise InvalidInputError("delta_prime must be >= 0")
    tol = space.rel_tol if tol is None else tol
    sup = 0
    witness = None
    per_triple = []
    for idx, (x, y, z) in enumerate(triples):
        dxy = space.distance(x, y)
        dxz = space.distance(x, z)
        g = _gromov(dxy, dxz, space.distance(y, z))
        local = 0
        local_witness = None
        if g != g:  # a NaN among the three distances: the triple's measurement
            local, local_witness = g, (idx, g, g)
        elif g > 0 and dxy > 0 and dxz > 0:
            levels = [g * j / _CRITERION_LEVELS for j in range(1, _CRITERION_LEVELS + 1)]
            ys = space.geodesic_points(x, y, [r / dxy for r in levels])
            zs = space.geodesic_points(x, z, [r / dxz for r in levels])
            for r, yp, zp in zip(levels, ys, zs):
                d = space.distance(yp, zp)
                if _worse(d, local, operator.gt):
                    local = d
                    local_witness = (idx, r, d)
        per_triple.append((idx, local))
        if _worse(local, sup, operator.gt):
            sup = local
            witness = local_witness
    passed = sup <= delta_prime + tol * max(1.0, float(sup))
    return GromovCriterionReport(delta_prime=delta_prime, sup=sup, witness=witness,
                                 per_triple=per_triple, levels=_CRITERION_LEVELS,
                                 passed=passed)


# ---------------------------------------------------------------------------
# flat-comparison defect


def cat_defect(space: Space, x: Point, y: Point, z: Point, grid: int):
    """Largest d(p, q) - |comparison(p) - comparison(q)| over cross-side pairs.

    Nonpositive (up to tolerance) exactly when the triangle is at least as
    thin as its flat comparison triangle; strictly negative on trees.
    Samples are interior to the sides so shared vertices do not mask
    strictness.
    """
    if not grid >= 2:
        raise InvalidInputError("grid must be >= 2")
    tri = ComparisonTriangle.from_points(space, x, y, z)
    verts = [x, y, z]
    ts = [(j + 1) / (grid + 1) for j in range(grid)]

    pts, flat = [], []
    for (i, j), dij in zip(((0, 1), (0, 2), (1, 2)), (tri.d01, tri.d02, tri.d12)):
        pts += space.geodesic_points(verts[i], verts[j], ts)
        flat += [epoint(*tri.side(i, j, t * dij)) for t in ts]

    plane = EuclideanSpace(2)
    arrays, flats = space._arrays(pts), plane._arrays(flat)
    # each side's rows against the sides after it, in tiles: every cross-side pair once
    maxima = []
    for s in (0, grid):
        for lo, hi, c0, c1 in _tiles(np.full(grid, s + grid), np.full(grid, 3 * grid)):
            rows = slice(s + lo, s + hi)
            maxima.append((space._table(arrays[rows], arrays[c0:c1])
                           - plane._table(flats[rows], flats[c0:c1])).max())
    # np.max, not max: a NaN of any pair is the result
    return float(np.max(maxima))
