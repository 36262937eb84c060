"""Curves, quasi-geodesic verification, and geodesic-ray extraction.

A curve is a finite list of (parameter, point) samples in one space,
interpolated geodesically between consecutive samples, optionally extended
beyond the last sample by a closed-form rule.  The checkers are
falsification-oriented: every "for all s, t" condition is tested on a
parameter grid and the report carries numeric witnesses for the worst and
the first violated pair.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateInputError,
    InsufficientCurveError,
    InsufficientDataError,
    InvalidAlphaError,
    InvalidInputError,
    PromotionPreconditionError,
    UnsupportedSpaceError,
)
from . import files, spaces
from .spaces import (HyperbolicPlane, L2BoxSpace, Point, RAY_EDGE, RTreeSpace, Space,
                     _flat_angle)


# ---------------------------------------------------------------------------
# curve type


@dataclass(frozen=True)
class Curve:
    """Piecewise-geodesic path through ordered (parameter, point) samples.

    ``rule`` evaluates parameters beyond the last sample (used for rays);
    within the sampled range evaluation always interpolates between the
    recorded samples.
    """

    space: Space
    params: tuple
    points: tuple
    rule: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.params) != len(self.points) or len(self.params) < 1:
            raise InvalidInputError("curve needs matching, nonempty params and points")
        for a, b in zip(self.params, self.params[1:]):
            if not b > a:
                raise InvalidInputError("curve parameters must be strictly increasing")
        for p in self.points:
            self.space.check_point(p, "curve sample")

    @property
    def t_min(self):
        return self.params[0]

    @property
    def t_max(self):
        return self.params[-1]

    def at(self, t) -> Point:
        """Evaluate the curve at parameter t."""
        i = bisect.bisect_left(self.params, t)
        if i < len(self.params) and self.params[i] == t:
            return self.points[i]
        if t > self.params[-1]:
            if self.rule is not None:
                return self.rule(t)
            raise InsufficientCurveError(
                f"parameter {t} beyond last sample {self.params[-1]} and no extension rule")
        if t < self.params[0]:
            raise InsufficientCurveError(f"parameter {t} precedes first sample {self.params[0]}")
        return self._between(i, [t])[0]

    def _between(self, i, ts) -> list:
        """The points at the parameters ts, which lie between samples i - 1 and i."""
        lo, hi = self.params[i - 1], self.params[i]
        span = hi - lo
        # Fraction's fallbacks meet a float t with float(lo) and float(span);
        # exact ts never float them
        floats = any(type(t) is float for t in ts)
        lo_f, span_f = (float(lo), float(span)) if floats else (lo, span)
        us = [(t - lo_f) / span_f if type(t) is float else (t - lo) / span for t in ts]
        # the samples were checked when the curve was made
        return self.space._geodesic_points(self.points[i - 1], self.points[i], us)

    def _at_sorted(self, ts, slots=None) -> list:
        """The points at the ascending parameters ts, as `at` gives them.

        slots[m] is the number of samples at or below ts[m] (found by
        bisection when not given).  The parameters inside one sample
        interval are placed by one `geodesic_points` call, a sample's own
        parameter at u = 0; the others go to `at`.
        """
        if slots is None:
            slots = [bisect.bisect_right(self.params, t) for t in ts]
        out = []
        for i, run in itertools.groupby(zip(slots, ts), key=operator.itemgetter(0)):
            run = [t for _, t in run]
            if 0 < i < len(self.params):
                out += self._between(i, run)
            else:
                out += [self.at(t) for t in run]
        return out


def geodesic_segment_curve(space: Space, a: Point, b: Point, n_samples=2) -> Curve:
    """Unit-speed geodesic from a to b, sampled at n_samples parameters."""
    d = float(space.distance(a, b))
    ts = np.linspace(0.0, 1.0, max(2, n_samples)).tolist()
    params = tuple(t * d for t in ts)
    points = tuple(space.geodesic_points(a, b, ts))
    return Curve(space, params, points, meta={"generator": "geodesic"})


def tree_ray_curve(space: RTreeSpace) -> Curve:
    """Geodesic ray along the tree's half-infinite edge, from its anchor."""
    if space.ray_at is None:
        raise UnsupportedSpaceError("tree has no designated ray edge")

    def rule(t):
        return spaces.edge_point(RAY_EDGE, t if isinstance(t, (int, Fraction)) else float(t))

    params = (Fraction(0), Fraction(1))
    points = (spaces.vertex_point(space.ray_at), rule(Fraction(1)))
    return Curve(space, params, points, rule=rule, meta={"generator": "tree_ray"})


# ---------------------------------------------------------------------------
# reports


@dataclass
class QGReport:
    """Outcome of a (lambda, epsilon) quasi-geodesic grid check.

    Slacks are signed distances to the violated inequality (negative means
    violated); pairs are (s, t) parameters.  ``first_lower_violation`` and
    ``first_upper_violation`` record the lexicographically first violating
    pair as (s, t, distance), or None.
    """

    lam: float
    eps: float
    k: float | None
    n_pairs: int
    passed: bool
    min_ratio: float
    min_ratio_pair: tuple | None
    worst_lower_slack: float
    worst_lower_pair: tuple | None
    worst_lower_dist: float | None
    worst_upper_excess: float
    worst_upper_pair: tuple | None
    first_lower_violation: tuple | None
    first_upper_violation: tuple | None
    max_chord_dist: float | None = None
    chord_bound: float | None = None
    chord_ok: bool | None = None


@dataclass
class DirectionalityReport:
    """Outcome of a directionality check on a curve or a point sequence."""

    b: float
    n_checked: int
    passed: bool
    worst_lower_slack: float
    worst_lower_witness: tuple | None
    worst_upper_slack: float | None = None
    worst_upper_witness: tuple | None = None
    growth: tuple | None = None


@dataclass
class RayApprox:
    """Geodesic-ray approximation extracted from a curve or sequence.

    ``stars[i]`` approximates the ray point at distance ``ks[i]`` from
    ``base``; ``residuals[k]`` is the Cauchy residual history of the
    iteration for that k, and ``stopped[k]`` records why it ended.
    """

    base: Point
    ks: list
    stars: list
    residuals: dict
    stopped: dict
    distance_residuals: list
    nesting_residuals: list
    angle_checks: list | None = None


# ---------------------------------------------------------------------------
# grid machinery


def _grid_values(curve: Curve, grid: int):
    """The ``grid`` evenly spaced values kept among the curve's samples.

    Returns three arrays: the kept values, their slots (the number of
    samples at or below each) and their parameters u in their sample
    intervals, as `Curve._between` computes them.  The curve's own params
    supply both ends: float() of a Fraction end can round outside the
    sampled range.  A grid value within rounding of a sample is left out,
    since it would pair with it at a gap near zero.
    """
    if not grid >= 2:
        raise InvalidInputError("grid must be >= 2")
    params = curve.params
    lo, hi = float(curve.t_min), float(curve.t_max)
    ts = np.asarray([float(t) for t in params])
    inner = np.linspace(lo, hi, grid)[1:-1]
    n = np.searchsorted(ts, inner).clip(1, len(ts) - 1)
    far = np.minimum(inner - ts[n - 1], ts[n] - inner) > 1e-9 * (hi - lo) / (grid - 1)
    # a kept value t lies strictly between float(params[n - 1]) and
    # float(params[n]), and rounding to float keeps order, so exactly n
    # samples are at or below it
    kept, slots = inner[far], n[far]
    # (t - float(lo)) / float(hi - lo), with the span taken exactly
    spans = np.array([float(b - a) for a, b in zip(params, params[1:])])
    return kept, slots, (kept - ts[slots - 1]) / spans[slots - 1]


def _merge(samples, values, slots) -> list:
    """The samples with values[m] inserted after the first slots[m] of them."""
    merged, i = [], 0
    for v, slot in zip(values, slots):
        merged += samples[i:slot]
        merged.append(v)
        i = slot
    return merged + list(samples[i:])


def _merged_params(curve: Curve, grid: int):
    """The curve's samples merged with the kept grid values, and the `_arrays` rows of their points.

    The samples' rows come from one `_arrays` call and the values' rows from
    one `_rows_along` call over every sample interval, with no `Point` per
    value; both are the rows of the points `Curve.at` gives: the end sample
    where u rounds to 0 or 1, an error where float rounding makes u > 1.
    """
    kept, slots, us = _grid_values(curve, grid)
    space, points = curve.space, curve.points
    rows = space._arrays(points)
    if (us > 1.0).any():
        raise InvalidInputError(f"interpolation parameter {us[us > 1.0][0]} outside [0, 1]")
    inner = (0.0 < us) & (us < 1.0)
    placed = rows[slots - (us < 1.0)]
    placed[inner] = space._rows_along(points, rows, slots[inner], us[inner])
    at = slots + np.arange(len(slots))  # each value's row in the merge
    merged = np.empty((len(rows) + len(at), rows.shape[1]))
    sample = np.ones(len(merged), dtype=bool)
    sample[at] = False
    merged[at], merged[sample] = placed, rows
    return _merge(curve.params, kept.tolist(), slots.tolist()), merged


def _first_min(values):
    """Index of the first smallest value, or None when none is below inf.

    np.argmin follows `_worse`: the first NaN is the smallest value.
    """
    n = int(np.argmin(values)) if len(values) else None
    return None if n is None or values[n] == np.inf else n


def _worse(v, held, than=operator.lt) -> bool:
    """Whether v replaces held as the running worst value, `than` saying which is worse.

    The one NaN rule of every certificate: a NaN measurement is worse than
    any number and the first NaN met is kept, so it is the witness, and a
    check that compares its worst value with a bound fails on it.  Only a
    float can be NaN, so an exact tree value costs no further comparison.
    """
    return than(v, held) or (isinstance(v, float) and v != v and held == held)


_BLOCK = 64  # most rows of a tile: a k-local tile's staircase of unchecked pairs stays this short
_TILE = 16_384  # most pairs of a tile, so that a check's working set does not grow with the grid


def _tiles(starts, ends):
    """The tiles of a pair table whose row r reads the columns [starts[r], ends[r]).

    Yields (lo, hi, c0, c1), the rows [lo, hi) against the columns [c0, c1),
    in row-major order; starts and ends must not decrease.  A tile takes as
    many whole rows, at most ``_BLOCK``, as keep rows x columns within
    ``_TILE``, and reads the columns [starts[lo], ends[hi - 1]), so where
    later rows are shorter later tiles take more of them.  A row wider than
    ``_TILE`` is cut into column pieces of at most ``_TILE``.
    """
    lo, n = 0, len(starts)
    while lo < n:
        c0 = int(starts[lo])
        widths = ends[lo:lo + _BLOCK] - c0
        rows = int(np.count_nonzero(widths * np.arange(1, len(widths) + 1) <= _TILE))
        if rows:
            yield lo, lo + rows, c0, int(ends[lo + rows - 1])
        else:
            end = int(ends[lo])
            for c in range(c0, end, _TILE):
                yield lo, lo + 1, c, min(c + _TILE, end)
            rows = 1
        lo += rows


def _check_grid(curve: Curve, lam, lower_eps, upper_eps, grid: int, k, tol) -> QGReport:
    """Grid check of |s-t|/lam - lower_eps <= d(c(s), c(t)) <= lam|s-t| + upper_eps."""
    return _check_pairs(curve.space, *_merged_params(curve, grid),
                        lam, lower_eps, upper_eps, k, tol)


def _check_pairs(space: Space, params, arrays, lam, lower_eps, upper_eps, k, tol) -> QGReport:
    """The bounds of `_check_grid` on the pairs of the merged params.

    arrays holds the `_arrays` rows of their points, one per param.

    Row i reads the pairs (i, j) with i < j, up to the end of the |s-t| <= k
    band in a k-local check, and the rows are walked in the tiles of
    `_tiles`; each tile of distances is one rectangular `_table` call.  A
    tile is held whole, in views of four buffers of ``_TILE`` pairs made
    once per check: its pairs outside the check (j <= i, and past the band)
    read inf in every statistic, so the row-major first minimum of a tile is
    that of its checked pairs.  A worst pair gives way only to a strictly
    smaller value of a later tile and the first violation found is kept, so
    every witness is the first in row-major order.  A NaN distance follows
    `_worse`: it is worse than any number in every statistic and violates
    both bounds, so the first NaN pair is every witness and fails the check.
    """
    tol = space.rel_tol if tol is None else tol
    lam, lower_eps, upper_eps = float(lam), float(lower_eps), float(upper_eps)
    tarr = np.asarray([float(t) for t in params])
    n = len(params)
    reach = None if k is None else float(k) * (1.0 + 1e-12)
    if k is None:
        ends = np.full(n - 1, n)
    else:
        # past the reach of each row, widened so that rounding in this sum
        # never drops a column the exact mask below keeps; a tile reads up to
        # the end of its last row, so no row may end past a later one
        ts = tarr[:-1]
        ends = np.maximum.accumulate(
            np.searchsorted(tarr, ts + reach + 1e-9 * (abs(ts) + reach), "right"))
    gaps_buf, scale_buf, slack_buf, value_buf = np.empty((4, min(_TILE, (n - 1) ** 2)))
    head = np.tri(_BLOCK, _BLOCK, -1, dtype=bool)  # column c < row r: the pair j <= i
    tied = np.diff(tarr) == 0  # a pair i < j has gap 0 only if tarr[i] == tarr[i + 1]
    # a tile whose least scaled slack exceeds bar has no pair with
    # slack < -tol * scale, since scale >= 1: it is not scanned for one
    bar = 0.5 * abs(tol) - tol
    n_pairs = 0
    worst = {}  # statistic -> (value, pair, ratio or slack, distance)
    first = {}  # bound -> (s, t, distance)

    # the statistics of the current tile: rows lo.. against columns c0..
    def pair(m):
        r, c = divmod(m, cols)
        return params[lo + r], params[c0 + c]

    def least(name, raw):
        # the first minimum of the statistic in value, raw its unscaled form
        np.copyto(value[:, :skip.shape[1]], np.inf, where=skip)
        m = _first_min(flat_value)
        if m is not None and _worse(flat_value[m], worst.get(name, (math.inf,))[0]):
            worst[name] = (flat_value[m], pair(m), float(raw.flat[m]), float(flat_dist[m]))
        return m

    def scan(name, m):
        if name in first or m is None or flat_value[m] > bar:
            return
        bad = slack < -tol * scale
        np.copyto(bad[:, :skip.shape[1]], False, where=skip)
        hits = np.flatnonzero(bad)
        if len(hits):
            first[name] = (*pair(int(hits[0])), float(flat_dist[hits[0]]))

    for lo, hi, c0, c1 in _tiles(np.arange(1, n), ends):
        rows, cols = hi - lo, c1 - c0
        size = rows * cols
        if size == 0:
            continue
        gaps, scale, slack, value = (buf[:size].reshape(rows, cols)
                                     for buf in (gaps_buf, scale_buf, slack_buf, value_buf))
        np.subtract(tarr[c0:c1], tarr[lo:hi, None], out=gaps)  # params are sorted: |s - t|
        np.maximum(gaps, 1.0, out=scale)
        # a row cut into pieces is one row whose columns all follow it
        h = min(rows, cols)
        skip = head[:rows, :h]
        if k is not None:
            skip = gaps > reach
            skip[:, :h] |= head[:rows, :h]
        n_pairs += size - int(np.count_nonzero(skip))
        dist = space._table(arrays[lo:hi], arrays[c0:c1])
        flat_value, flat_dist = value.ravel(), dist.ravel()

        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dist, gaps, out=value)
        if tied[lo:hi].any():
            np.copyto(value, np.inf, where=gaps == 0)
        least("ratio", value)
        # an epsilon of 0.0 or -0.0 changes no bit of the slack: x - 0.0 is
        # x, and gaps / lam and gaps * lam are never -0.0
        np.divide(gaps, lam, out=slack)  # dist - (gaps / lam - lower_eps)
        if lower_eps:
            slack -= lower_eps
        np.subtract(dist, slack, out=slack)
        np.divide(slack, scale, out=value)
        scan("lower", least("lower", slack))
        np.multiply(gaps, lam, out=slack)  # (lam * gaps + upper_eps) - dist
        if upper_eps:
            slack += upper_eps
        slack -= dist
        np.divide(slack, scale, out=value)
        scan("upper", least("upper", slack))

    ratio, lower, upper = (worst.get(name) for name in ("ratio", "lower", "upper"))
    for name, w in (("lower", lower), ("upper", upper)):
        if w is not None and math.isnan(w[0]):  # the first NaN pair, by `_worse`
            first[name] = (*w[1], w[3])
    return QGReport(
        lam=float(lam), eps=float(lower_eps), k=None if k is None else float(k),
        n_pairs=n_pairs, passed=all(w is None or w[0] >= -tol for w in (lower, upper)),
        min_ratio=math.inf if ratio is None else ratio[2],
        min_ratio_pair=None if ratio is None else ratio[1],
        worst_lower_slack=math.inf if lower is None else lower[2],
        worst_lower_pair=None if lower is None else lower[1],
        worst_lower_dist=None if lower is None else lower[3],
        worst_upper_excess=-math.inf if upper is None else -upper[2],
        worst_upper_pair=None if upper is None else upper[1],
        first_lower_violation=first.get("lower"),
        first_upper_violation=first.get("upper"),
    )


def check_quasi_geodesic(curve: Curve, lam: float, eps: float, grid: int,
                         k=None, tol=None) -> QGReport:
    """Grid check of (1/lam)|s-t| - eps <= d(c(s), c(t)) <= lam|s-t| + eps.

    Tested parameters are the curve's own samples merged with ``grid``
    evenly spaced values; with ``k`` given, only pairs with |s-t| <= k are
    checked.  Violations are judged against a relative tolerance, default
    the space's ``rel_tol``.
    """
    # written so that NaN fails each guard: a NaN bound makes every pair pass
    if not lam >= 1:
        raise InvalidInputError("lambda must be >= 1")
    if not eps >= 0:
        raise InvalidInputError("epsilon must be >= 0")
    if k is not None and not k > 0:
        raise InvalidInputError("k must be > 0")
    return _check_grid(curve, lam, eps, eps, grid, k, tol)


def check_directional_curve(curve: Curve, b: float, grid: int, tol=None) -> DirectionalityReport:
    """Grid check of |s-t| - b <= d(c(s), c(t)) <= |s-t|."""
    if not b >= 0:
        raise InvalidInputError("b must be >= 0")
    # the (1, b) lower and (1, 0) upper quasi-geodesic bounds
    rep = _check_grid(curve, 1.0, b, 0.0, grid, None, tol)
    return DirectionalityReport(
        b=float(b), n_checked=rep.n_pairs, passed=rep.passed,
        worst_lower_slack=rep.worst_lower_slack, worst_lower_witness=rep.worst_lower_pair,
        worst_upper_slack=-rep.worst_upper_excess, worst_upper_witness=rep.worst_upper_pair)


def check_directional_sequence(space: Space, points, b: float, *, tol=None) -> DirectionalityReport:
    """Check d(x_{n_1}, x_{n_l}) >= sum of consecutive gaps - b.

    Every contiguous window is tested exactly, which decides every
    subsequence: by the triangle inequality a subsequence's gap sum is at
    most that of the window with the same ends.  Divergence of d(x_0, x_n)
    is reported as a growth trend, not asserted.  The windows are walked in
    the tiles of `_check_pairs`, and the witness is the first pair of least
    slack in lexicographic order.
    """
    if not b >= 0:  # NaN fails too
        raise InvalidInputError("b must be >= 0")
    if len(points) < 2:
        raise InvalidInputError("need at least two points")
    for m, p in enumerate(points):
        space.check_point(p, f"points[{m}]")
    tol = space.rel_tol if tol is None else tol
    arrays = space._arrays(points)
    n = len(points)
    # the consecutive distances d(x_i, x_i+1): the diagonals of square tables
    # of _BLOCK rows, each copied out so that its table is freed
    blocks = [(lo, min(lo + _BLOCK, n - 1)) for lo in range(0, n - 1, _BLOCK)]
    steps = [np.diagonal(space._table(arrays[lo:hi], arrays[lo + 1:hi + 1])).copy()
             for lo, hi in blocks]
    prefix = np.concatenate([[0.0], np.cumsum(np.concatenate(steps))])
    head = np.tri(_BLOCK, _BLOCK, -1, dtype=bool)  # column c < row r: the pair j <= i
    worst, witness = math.inf, None
    for lo, hi, c0, c1 in _tiles(np.arange(1, n), np.full(n - 1, n)):
        dist = space._table(arrays[lo:hi], arrays[c0:c1])
        if lo == 0 and c1 == n:
            far = float(dist[0, -1])
        slack = prefix[c0:c1] - prefix[lo:hi, None]  # dist - (prefix[j] - prefix[i] - b)
        slack -= float(b)
        np.subtract(dist, slack, out=slack)
        # a row cut into pieces is one row whose columns all follow it
        np.copyto(slack[:, :hi - lo], np.inf, where=head[:hi - lo, :hi - lo])
        m = _first_min(slack.ravel())
        if m is None:
            continue
        v = slack.flat[m]
        if _worse(v, worst):
            r, c = divmod(m, c1 - c0)
            worst, witness = v, (lo + r, c0 + c)
    return DirectionalityReport(
        b=float(b), n_checked=n * (n - 1) // 2, passed=bool(worst >= -tol),
        worst_lower_slack=float(worst), worst_lower_witness=witness,
        growth=(float(steps[0][0]), far),
    )


# ---------------------------------------------------------------------------
# local-to-global promotion


def promote_constants(lam: float, M: float, k: float):
    """Global quasi-geodesic constants earned by a k-local one.

    Given a k-local lambda-quasi-geodesic in a space whose
    lambda-quasi-geodesic triangles are M-slim, the curve is globally a
    (lambda*, 2M)-quasi-geodesic with
    lambda* = (1/lambda - 4M/(k/2 + lambda*M))^-1, provided k > 8*lambda*M.
    """
    # written so that NaN fails each guard
    if not lam >= 1 or not M >= 0:
        raise InvalidInputError("need lambda >= 1 and M >= 0")
    if math.isnan(k):
        raise InvalidInputError("k must be a number, got nan")
    if k <= 8 * lam * M:
        raise PromotionPreconditionError(
            f"locality scale k={k} must exceed 8*lambda*M={8 * lam * M}")
    lam_star = 1.0 / (1.0 / lam - 4.0 * M / (k / 2.0 + lam * M))
    return lam_star, 2.0 * M


def verify_promotion(space: Space, curve: Curve, lam: float, M: float,
                     k: float, grid: int) -> QGReport:
    """Check the promoted global bounds plus the 2M-chord-neighborhood claim.

    The caller is responsible for having certified the curve k-locally
    first.  The returned report carries the global (lambda*, 2M) check and,
    in the chord fields, the largest distance from a tested curve point to
    the geodesic segment joining the curve's endpoints.
    """
    lam_star, eps = promote_constants(lam, M, k)
    chord = [curve.points[0], curve.points[-1]]
    for end in chord:
        space.check_point(end, "chord end")
    # the chord distances need the points themselves
    kept, slots, _ = _grid_values(curve, grid)
    kept, slots = kept.tolist(), slots.tolist()
    params = _merge(curve.params, kept, slots)
    points = _merge(curve.points, curve._at_sorted(kept, slots), slots)
    report = _check_pairs(curve.space, params, curve.space._arrays(points),
                          lam_star, eps, eps, None, None)
    worst = 0.0
    for d in map(float, space._to_chain(points, chord)):
        if _worse(d, worst, operator.gt):
            worst = d
    report.max_chord_dist = worst
    report.chord_bound = 2.0 * M
    report.chord_ok = worst <= 2.0 * M + space.rel_tol * max(1.0, worst)
    report.passed = report.passed and report.chord_ok
    return report


# ---------------------------------------------------------------------------
# ray extraction


_RAY_RESIDUAL_TOL = 1e-6  # Cauchy residual at which a ray point's iteration stops
_RAY_N_CAP = 60           # largest n of the parameters alpha^n of a quasi-geodesic ray


def _geometric_index_points(curve: Curve, alpha: float):
    """x_0 = c(t0) and x_n = c(t0 + alpha^n) while the curve covers them."""
    t0 = curve.t_min
    xs = [curve.at(t0)]
    n = 1
    while n <= _RAY_N_CAP:
        t = t0 + alpha ** n
        try:
            xs.append(curve.at(t))
        except InsufficientCurveError:
            break
        n += 1
    return xs


def _ray_from_points(space: Space, points, dists, k_max: int, missing: str) -> RayApprox:
    """Ray points at distance k = 1..k_max from x_0 = points[0].

    For each k, follows the points at distance k on [x_0, x_i] over the x_i
    with dists[i] = d(x_0, x_i) >= k, until two successive ones agree to
    ``_RAY_RESIDUAL_TOL``.
    """
    if not k_max >= 1:
        raise InvalidInputError("k_max must be >= 1")
    x0 = points[0]
    ks = list(range(1, int(k_max) + 1))
    stars, residuals, stopped = [], {}, {}
    for k in ks:
        usable = [i for i in range(1, len(points)) if dists[i] >= k]
        if not usable:
            raise InsufficientDataError(missing.format(k=k))
        history, prev, star = [], None, None
        stop = "exhausted"
        for i in usable:
            t = k / dists[i]
            cur = space.geodesic_point(x0, points[i], t)
            if prev is not None:
                history.append(float(space.distance(prev, cur)))
            star, prev = cur, cur
            if history and history[-1] < _RAY_RESIDUAL_TOL:
                stop = "converged"
                break
        stars.append(star)
        residuals[k] = history
        stopped[k] = stop

    dist_resid = [(k, abs(float(space.distance(x0, s)) - k)) for k, s in zip(ks, stars)]
    refs = {b: space.geodesic_points(x0, stars[b], [Fraction(kk, ks[b]) for kk in ks[:b]])
            for b in range(1, len(ks))}  # refs[b][a] is at distance ks[a] on [x_0, stars[b]]
    nest = [(ks[a], ks[b], float(space.distance(stars[a], refs[b][a])))
            for a in range(len(ks)) for b in range(a + 1, len(ks))]
    return RayApprox(base=x0, ks=ks, stars=stars, residuals=residuals,
                     stopped=stopped, distance_residuals=dist_resid,
                     nesting_residuals=nest)


def extract_ray_from_quasi_geodesic(space: Space, curve: Curve, lam: float,
                                    alpha: float, k_max: int) -> RayApprox:
    """Extract geodesic-ray points from a quasi-geodesic ray.

    Sets x_n at geometrically growing parameters alpha^n, takes the point
    at distance k on each segment [x_0, x_n], and iterates in n until the
    successive residual drops below ``_RAY_RESIDUAL_TOL``, the growth cap
    ``_RAY_N_CAP`` is hit, or the curve is exhausted.  Works in the Gromov-hyperbolic
    families (trees and the hyperbolic plane), where the residuals decay
    geometrically like k / alpha^n.
    """
    if not space.gromov_hyperbolic:
        raise UnsupportedSpaceError(
            f"ray extraction needs a tree or hyperbolic space, got {space.kind}")
    if not lam >= 1:
        raise InvalidInputError("lambda must be >= 1")
    beta = 1.0 / lam + lam + alpha * (1.0 / lam - lam)
    if not alpha > 1 or not beta > 0:
        raise InvalidAlphaError(
            f"alpha={alpha} gives beta={beta:.6g}; need alpha > 1 and beta > 0")

    xs = _geometric_index_points(curve, alpha)
    return _ray_from_points(space, xs, [space.distance(xs[0], x) for x in xs], k_max,
                            "curve never reaches distance {k} from its base")


def extract_ray_from_directional_sequence(space: Space, points, b: float,
                                          k_max: int, *, angle_pairs=100) -> RayApprox:
    """Extract geodesic-ray points from a directional sequence.

    For each k, follows the points at distance k on the segments
    [x_0, x_n]; directionality forces the comparison angles at x_0 to
    collapse, so the sequence is Cauchy in any CAT(0) family.  Also
    records, for sampled index pairs m < n, the comparison-angle bound
    sin^2(angle/2) <= (b/2d_m)(b/(2d_n) + 1).
    """
    if not b >= 0:  # NaN fails too
        raise InvalidInputError("b must be >= 0")
    if len(points) < 2:
        raise InvalidInputError("need at least two points")
    x0 = points[0]
    dists = [space.distance(x0, p) for p in points]
    ray = _ray_from_points(space, points, dists, k_max,
                           "sequence never reaches distance {k} from x_0")

    # every stride-th pair of pos in upper-triangle order, located by row starts
    pos = [i for i in range(1, len(points)) if dists[i] > 0]
    starts = np.concatenate([[0], np.cumsum(np.arange(len(pos) - 1, 0, -1))])
    n_pairs = len(pos) * (len(pos) - 1) // 2
    stride = max(1, n_pairs // angle_pairs)
    flat = np.arange(stride - 1, n_pairs, stride)
    rows = np.searchsorted(starts, flat, side="right") - 1
    cols = rows + 1 + flat - starts[rows]
    checks = []
    for r, c in zip(rows, cols):
        m, n = pos[r], pos[c]
        dm, dn = float(dists[m]), float(dists[n])
        dmn = float(space.distance(points[m], points[n]))
        lhs = math.sin(_flat_angle(dm, dn, dmn) / 2.0) ** 2
        rhs = (b / (2.0 * dm)) * (b / (2.0 * dn) + 1.0)
        checks.append((m, n, lhs, rhs))
    ray.angle_checks = checks
    return ray


# ---------------------------------------------------------------------------
# explicit curves and generators


def l2_example_curve(n_dims=6, base=10.0, samples_per_leg=0) -> Curve:
    """Corner-to-corner polyline through the exponentially growing box.

    The k-th corner fills coordinates 1..k with base^1, ..., base^k; leg k
    has length base^(k+1) and the breakpoints sit at a_k = sum of the first
    k powers.  The polyline is 1-Lipschitz but not a geodesic ray, while
    remaining a quasi-geodesic: with base 10 it satisfies the global bounds
    with lambda = sqrt(11/3).
    """
    if not n_dims >= 1:
        raise InvalidInputError("n_dims must be >= 1")
    space = L2BoxSpace(n=n_dims, base=base)
    corners = []
    for k in range(n_dims + 1):
        coords = tuple(base ** (i + 1) if i < k else 0.0 for i in range(n_dims))
        corners.append(Point("l2box", coords))
    breaks = [0.0]
    for k in range(1, n_dims + 1):
        breaks.append(breaks[-1] + base ** k)

    params, points = [], []
    for k in range(n_dims):
        leg = breaks[k + 1] - breaks[k]
        ts = [breaks[k] + leg * j / (samples_per_leg + 1) for j in range(1, samples_per_leg + 1)]
        params += [breaks[k], *ts]
        us = [(t - breaks[k]) / leg for t in ts]
        points += [corners[k], *space.geodesic_points(corners[k], corners[k + 1], us)]
    params.append(breaks[-1])
    points.append(corners[-1])
    return Curve(space, tuple(params), tuple(points),
                 meta={"generator": "l2_example",
                       "args": {"n_dims": n_dims, "base": base,
                                "samples_per_leg": samples_per_leg}})


_ZIGZAG_TRIES = 6  # amplitude halvings a zigzag may try before it falls back to the geodesic


def zigzag_quasi_geodesic(space: Space, a: Point, b: Point, lam: float,
                          segments=8, rng=None, *, away_from=None) -> Curve:
    """Seeded zigzag joining a and b within the (lambda, 0) bounds.

    Interior nodes are pushed off the geodesic by a bounded transverse
    amplitude and the result is re-parameterized by cumulative chord
    length; candidate amplitudes are halved until the quasi-geodesic check
    certifies the bounds, so the construction cannot silently violate
    them.  With lambda = 1 the geodesic itself is returned.  When
    ``away_from`` is given each node is displaced toward whichever side
    increases the distance to that point (used for triangle sides, where
    consistent outward bulging keeps slimness monotone in lambda).
    """
    if not lam >= 1:
        raise InvalidInputError("lambda must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    total = float(space.distance(a, b))
    if total == 0.0:
        raise InvalidInputError("zigzag endpoints must be distinct")
    ts = np.linspace(0.0, 1.0, segments + 1).tolist()
    geodesic = space.geodesic_points(a, b, ts)
    if lam == 1:
        return _geodesic_zigzag(space, geodesic, {"generator": "zigzag", "lam": lam})

    gap = total / segments
    amp = 0.45 * gap * (lam - 1.0) / lam
    signs = rng.choice([-1.0, 1.0])
    mags = rng.uniform(0.6, 1.0, segments + 1)
    for _ in range(_ZIGZAG_TRIES):
        pts = [a]
        for i in range(1, segments):
            p, push = geodesic[i], amp * mags[i]
            if away_from is None:
                pts.append(space._push(a, b, p, push * (signs if i % 2 == 0 else -signs)))
                continue
            plus, minus = space._push(a, b, p, push), space._push(a, b, p, -push)
            far = plus  # the side farther from away_from; plus == minus is the geodesic point
            if plus != minus and space.distance(plus, away_from) < space.distance(minus, away_from):
                far = minus
            pts.append(far)
        pts.append(b)
        params = _chord_params(space, pts)
        if any(q <= p for p, q in zip(params, params[1:])):
            amp *= 0.5
            continue
        curve = Curve(space, tuple(params), tuple(pts),
                      meta={"generator": "zigzag", "lam": lam})
        # where _push found no sideways room (on a tree, everywhere) the
        # zigzag is the geodesic, which meets every (lambda >= 1, 0) bound
        if pts == geodesic or check_quasi_geodesic(curve, lam, 0.0, 4 * segments).passed:
            return curve
        amp *= 0.5
    return _geodesic_zigzag(space, geodesic, {"generator": "zigzag", "lam": lam, "fallback": True})


def _geodesic_zigzag(space: Space, geodesic, meta) -> Curve:
    """The zigzag through the geodesic nodes, refused where float distances cannot part them."""
    params = _chord_params(space, geodesic)
    if any(q <= p for p, q in zip(params, params[1:])):
        raise DegenerateInputError(
            "zigzag endpoints are closer than float64 chord distances resolve: "
            "neighbouring geodesic nodes read distance 0")
    return Curve(space, tuple(params), tuple(geodesic), meta=meta)


def _chord_params(space: Space, pts):
    params = [0.0]
    for p, q in zip(pts, pts[1:]):
        params.append(params[-1] + float(space.distance(p, q)))
    return params


_TUBE_REACH = 36.0  # farthest axis node of a tube, in hyperbolic distance from the origin


def hyperbolic_tube_curve(length=32.0, step=1.0, amplitude=0.15, seed=0) -> Curve:
    """Quasi-geodesic ray wobbling inside a tube around a hyperbolic axis.

    The axis is the geodesic ray from the origin along +x; nodes at
    arclength i*step are displaced perpendicular to it by a seeded bounded
    amount (zero at the base), then re-parameterized by cumulative chord
    length.  The true axis point at distance k from the origin is
    (tanh(k/2), 0), which extraction results can be compared against.
    The last node may lie at most ``_TUBE_REACH`` from the origin: in
    float64 tanh(s/2) rounds to the rim 1.0 from s = 55 ln 2 = 38.12 on,
    each node reads the axis one unit ahead of it, and a node pushed
    sideways at s = 37 already rounds onto the rim now and then.
    """
    # written so that NaN fails each guard
    if not step > 0:
        raise InvalidInputError(f"tube step must be > 0, got {step}")
    if not 0 <= length <= _TUBE_REACH or not round(length / step) * step <= _TUBE_REACH:
        raise InvalidInputError(
            f"tube length {length} (step {step}) must stay within [0, {_TUBE_REACH}]: "
            f"farther out its axis rounds onto the disk rim")
    space = HyperbolicPlane()
    rng = np.random.default_rng(seed)
    n = int(round(length / step))
    pts = []
    for i in range(n + 1):
        s = i * step
        axis = Point("hyperbolic", (math.tanh(0.5 * s), 0.0))
        ahead = Point("hyperbolic", (math.tanh(0.5 * (s + 1.0)), 0.0))
        off = amplitude * float(rng.uniform(-1.0, 1.0)) if i else 0.0
        pts.append(space._push(axis, ahead, axis, off))
    params = _chord_params(space, pts)
    return Curve(space, tuple(params), tuple(pts),
                 meta={"generator": "hyperbolic_tube",
                       "args": {"length": length, "step": step,
                                "amplitude": amplitude, "seed": seed}})


# ---------------------------------------------------------------------------
# curve files

_GENERATORS = {
    "l2_example": lambda args: l2_example_curve(**args),
    "hyperbolic_tube": lambda args: hyperbolic_tube_curve(**args),
}


def save_curve(curve: Curve, path) -> None:
    data = {
        "space": spaces.space_to_config(curve.space),
        "samples": [[str(t) if isinstance(t, Fraction) else t,
                     spaces.point_to_json(p)]
                    for t, p in zip(curve.params, curve.points)],
    }
    gen = curve.meta.get("generator")
    if gen in _GENERATORS:
        data["generator"] = {"name": gen, "args": curve.meta.get("args", {})}
    elif gen == "tree_ray":
        data["generator"] = {"name": "tree_ray"}
    files.write_json(path, data)


def load_curve(path) -> Curve:
    return files.read_json(path, "curve", _curve_from_json)


def _curve_from_json(data) -> Curve:
    space = spaces.space_from_config(data["space"])
    gen = data.get("generator")
    if gen is not None:
        name = gen["name"]
        if name == "tree_ray":
            return tree_ray_curve(space)
        if name in _GENERATORS:
            return _GENERATORS[name](gen.get("args", {}))
        raise InvalidInputError(f"unknown curve generator {name!r}")
    params, points = [], []
    for t, pj in data["samples"]:
        params.append(files.read_fraction(t) if isinstance(t, str) else float(t))
        points.append(spaces.point_from_json(pj))
    return Curve(space, tuple(params), tuple(points))
