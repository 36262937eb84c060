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
import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (
    InsufficientCurveError,
    InsufficientDataError,
    InvalidAlphaError,
    InvalidInputError,
    PromotionPreconditionError,
    UnsupportedSpaceError,
    _bad_input,
)
from . import spaces
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
        us = [(t - lo) / (hi - lo) for t in ts]
        return self.space.geodesic_points(self.points[i - 1], self.points[i], us)

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
    ts = np.linspace(0.0, 1.0, max(2, n_samples))
    params = tuple(t * d for t in ts)
    points = tuple(space.geodesic_points(a, b, ts.tolist()))
    return Curve(space, params, points, meta={"generator": "geodesic"})


def tree_ray_curve(space: RTreeSpace) -> Curve:
    """Geodesic ray along the tree's half-infinite edge, from its anchor."""
    if space.ray_at is None:
        raise UnsupportedSpaceError("tree has no designated ray edge")

    def rule(t):
        off = t if isinstance(t, Fraction) else (Fraction(t) if isinstance(t, int) else float(t))
        return Point("rtree", edge=RAY_EDGE, offset=off)

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


def _merged_params(curve: Curve, grid: int):
    """The curve's samples merged with ``grid`` evenly spaced values, and their points.

    The curve's own params supply both ends: float() of a Fraction end can
    round outside the sampled range.  A grid value within rounding of a
    sample is left out, since it would pair with it at a gap near zero.  The
    kept values and the samples are then merged in one exact walk, so each
    grid value is placed by one comparison and each sample passed by one,
    and the values inside one sample interval get their points from one
    `geodesic_points` call.
    """
    if grid < 2:
        raise InvalidInputError("grid must be >= 2")
    params, points = curve.params, curve.points
    lo, hi = float(curve.t_min), float(curve.t_max)
    ts = np.asarray([float(t) for t in params])
    inner = np.linspace(lo, hi, grid)[1:-1]
    n = np.searchsorted(ts, inner).clip(1, len(ts) - 1)
    far = np.minimum(inner - ts[n - 1], ts[n] - inner) > 1e-9 * (hi - lo) / (grid - 1)
    kept = inner[far].tolist()
    slots, i = [], 0  # the number of samples at or below each kept value
    for t in kept:
        while i < len(params) and params[i] <= t:
            i += 1
        slots.append(i)
    # the filter keeps only values strictly inside the sampled range; one past
    # either end goes to curve.at, whose error or extension rule decides
    merged, at = [], []
    i = 0
    for t, slot, p in zip(kept, slots, curve._at_sorted(kept, slots)):
        merged += params[i:slot]
        at += points[i:slot]
        merged.append(t)
        at.append(p)
        i = slot
    return merged + list(params[i:]), at + list(points[i:])


def _first_min(values):
    """Index of the first smallest value, or None when none is below inf."""
    n = int(np.argmin(values)) if len(values) else None
    return None if n is None or values[n] == np.inf else n


_BLOCK = 64  # rows of the pair table held at once by _check_pairs


def _check_grid(curve: Curve, lam, lower_eps, upper_eps, grid: int, k, tol) -> QGReport:
    """Grid check of |s-t|/lam - lower_eps <= d(c(s), c(t)) <= lam|s-t| + upper_eps."""
    return _check_pairs(curve.space, *_merged_params(curve, grid),
                        lam, lower_eps, upper_eps, k, tol)


def _check_pairs(space: Space, params, points, lam, lower_eps, upper_eps, k, tol) -> QGReport:
    """The bounds of `_check_grid` on the pairs of the merged (params, points).

    The pairs i < j are visited in lexicographic order, ``_BLOCK`` rows at a
    time; each block of distances is one rectangular `_table` call, and a
    k-local check reads only the columns of the |s-t| <= k band.  A worst
    pair gives way only to a strictly smaller value of a later block and the
    first violation found is kept, so every witness is the first in that
    order.
    """
    tol = space.rel_tol if tol is None else tol
    arrays = space._arrays(points)
    tarr = np.asarray([float(t) for t in params])
    n = len(params)
    reach = None if k is None else float(k) * (1.0 + 1e-12)
    n_pairs = 0
    worst = {}  # statistic -> (value, pair, ratio or slack, distance)
    first = {}  # bound -> (s, t, distance)
    for lo in range(0, n - 1, _BLOCK):
        hi = min(lo + _BLOCK, n - 1)
        end = n
        if k is not None:
            # past the reach of the block's last row, widened so that rounding
            # in this sum never drops a column the exact mask below keeps
            last = tarr[hi - 1]
            end = int(np.searchsorted(tarr, last + reach + 1e-9 * (abs(last) + reach), "right"))
        gaps = tarr[lo + 1:end] - tarr[lo:hi, None]  # params are sorted, so this is |s - t|
        keep = np.arange(lo + 1, end) > np.arange(lo, hi)[:, None]
        if k is not None:
            keep &= gaps <= reach
        flat = np.flatnonzero(keep)
        n_pairs += len(flat)
        gaps = gaps.ravel()[flat]
        dist = space._table(arrays[lo:hi], arrays[lo + 1:end]).ravel()[flat]
        scale = np.maximum(1.0, gaps)

        def pair(m):
            r, c = divmod(int(flat[m]), end - lo - 1)
            return params[lo + r], params[lo + 1 + c]

        lower_slack = dist - (gaps / lam - lower_eps)
        upper_slack = (lam * gaps + upper_eps) - dist
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(gaps > 0, dist / np.where(gaps > 0, gaps, 1.0), np.inf)
        for name, value, raw in (("ratio", ratios, ratios),
                                 ("lower", lower_slack / scale, lower_slack),
                                 ("upper", upper_slack / scale, upper_slack)):
            m = _first_min(value)
            if m is not None and value[m] < worst.get(name, (math.inf,))[0]:
                worst[name] = (value[m], pair(m), float(raw[m]), float(dist[m]))
        for name, slack in (("lower", lower_slack), ("upper", upper_slack)):
            if name not in first:
                hits = np.flatnonzero(slack < -tol * scale)
                if len(hits):
                    first[name] = (*pair(hits[0]), float(dist[hits[0]]))

    ratio, lower, upper = (worst.get(name) for name in ("ratio", "lower", "upper"))
    return QGReport(
        lam=float(lam), eps=float(lower_eps), k=None if k is None else float(k),
        n_pairs=n_pairs, passed=not any(w is not None and w[0] < -tol for w in (lower, upper)),
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
    is reported as a growth trend, not asserted.
    """
    if not b >= 0:  # NaN fails too
        raise InvalidInputError("b must be >= 0")
    if len(points) < 2:
        raise InvalidInputError("need at least two points")
    for m, p in enumerate(points):
        space.check_point(p, f"points[{m}]")
    tol = space.rel_tol if tol is None else tol
    dmat = space.pairwise_distances(points)
    prefix = np.concatenate([[0.0], np.cumsum(np.diagonal(dmat, 1))])

    i, j = np.triu_indices(len(points), 1)
    slack = dmat[i, j] - (prefix[j] - prefix[i] - b)
    w = _first_min(slack)
    worst, witness = (math.inf, None) if w is None else (slack[w], (int(i[w]), int(j[w])))
    return DirectionalityReport(
        b=float(b), n_checked=len(slack), passed=bool(worst >= -tol),
        worst_lower_slack=float(worst), worst_lower_witness=witness,
        growth=(float(dmat[0, 1]), float(dmat[0, -1])),
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
    params, points = _merged_params(curve, grid)
    report = _check_pairs(curve.space, params, points, lam_star, eps, eps, None, None)
    worst = max([0.0] + [float(d) for d in space._to_chain(points, chord)])
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
    if n_dims < 1:
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
    rng = np.random.default_rng(0) if rng is None else rng
    total = float(space.distance(a, b))
    if total == 0.0:
        raise InvalidInputError("zigzag endpoints must be distinct")
    ts = np.linspace(0.0, 1.0, segments + 1).tolist()
    geodesic = space.geodesic_points(a, b, ts)
    if lam <= 1.0:
        params = _chord_params(space, geodesic)
        return Curve(space, tuple(params), tuple(geodesic),
                     meta={"generator": "zigzag", "lam": lam})

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
    return Curve(space, tuple(_chord_params(space, geodesic)), tuple(geodesic),
                 meta={"generator": "zigzag", "lam": lam, "fallback": True})


def _chord_params(space: Space, pts):
    params = [0.0]
    for p, q in zip(pts, pts[1:]):
        params.append(params[-1] + float(space.distance(p, q)))
    return params


def hyperbolic_tube_curve(length=32.0, step=1.0, amplitude=0.15, seed=0) -> Curve:
    """Quasi-geodesic ray wobbling inside a tube around a hyperbolic axis.

    The axis is the geodesic ray from the origin along +x; nodes at
    arclength i*step are displaced perpendicular to it by a seeded bounded
    amount (zero at the base), then re-parameterized by cumulative chord
    length.  The true axis point at distance k from the origin is
    (tanh(k/2), 0), which extraction results can be compared against.
    """
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
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_curve(path) -> Curve:
    with open(path) as fh:
        data = json.load(fh)
    with _bad_input(f"{path}: malformed curve"):
        return _curve_from_json(data)


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
        params.append(Fraction(t) if isinstance(t, str) else float(t))
        points.append(spaces.point_from_json(pj))
    return Curve(space, tuple(params), tuple(points))
