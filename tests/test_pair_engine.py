"""The tiled pair engine of the grid checks and the distance tiles it reads.

Two earlier engines stay here as oracles that the engine must reproduce:
`dense_check_grid`, the one-shot `_check_grid` that built every pair array
at full size from the square distance table (compared field by field), and
`compacting_check_pairs`, the engine of 64-row blocks that gathered each
block's checked pairs into fresh arrays before taking its statistics
(compared by repr, so types and the sign of zero count too).  The engine
walks tiles of at most `curves._TILE` pairs; the edges that the tests place
their cases around are read from `curves._tiles` as a check walks them, and
a budget of a few dozen pairs cuts rows into column pieces.
"""

import bisect
import fractions
import math
import sys
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lionman as lm
from lionman import curves, spaces
from lionman.curves import _first_min, _merged_params
from conftest import distance_table, exact_form
from test_tree_golden import caterpillar

B = curves._BLOCK
ROOT2 = math.sqrt(2.0)
SMALL_TILE = 40  # a budget that cuts every row wider than 40 pairs into pieces


def dense_check_grid(curve, lam, lower_eps, upper_eps, grid, k, tol):
    tol = curve.space.rel_tol if tol is None else tol
    params = _merged_params(curve, grid)[0]
    dmat = distance_table(curve.space, [curve.at(t) for t in params])
    tarr = np.asarray([float(t) for t in params])
    i, j = np.triu_indices(len(params), 1)
    gaps = tarr[j] - tarr[i]
    if k is not None:
        near = gaps <= float(k) * (1.0 + 1e-12)
        i, j, gaps = i[near], j[near], gaps[near]
    dist = dmat[i, j]
    scale = np.maximum(1.0, gaps)

    lower_slack = dist - (gaps / lam - lower_eps)
    upper_slack = (lam * gaps + upper_eps) - dist
    lower_scaled, upper_scaled = lower_slack / scale, upper_slack / scale

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(gaps > 0, dist / np.where(gaps > 0, gaps, 1.0), np.inf)
    worst_ratio = _first_min(ratios)
    worst_lower = _first_min(lower_scaled)
    worst_upper = _first_min(upper_scaled)

    def pair(n):
        return None if n is None else (params[i[n]], params[j[n]])

    def violation(slack):
        hits = np.flatnonzero(slack < -tol * scale)
        return (*pair(hits[0]), float(dist[hits[0]])) if len(hits) else None

    passed = not any(n is not None and v[n] < -tol
                     for n, v in ((worst_lower, lower_scaled), (worst_upper, upper_scaled)))

    return lm.QGReport(
        lam=float(lam), eps=float(lower_eps), k=None if k is None else float(k),
        n_pairs=len(gaps), passed=passed,
        min_ratio=math.inf if worst_ratio is None else float(ratios[worst_ratio]),
        min_ratio_pair=pair(worst_ratio),
        worst_lower_slack=math.inf if worst_lower is None else float(lower_slack[worst_lower]),
        worst_lower_pair=pair(worst_lower),
        worst_lower_dist=None if worst_lower is None else float(dist[worst_lower]),
        worst_upper_excess=-math.inf if worst_upper is None else float(-upper_slack[worst_upper]),
        worst_upper_pair=pair(worst_upper),
        first_lower_violation=violation(lower_slack),
        first_upper_violation=violation(upper_slack),
    )


def compacting_check_pairs(space, params, arrays, lam, lower_eps, upper_eps, k, tol):
    tol = space.rel_tol if tol is None else tol
    tarr = np.asarray([float(t) for t in params])
    n = len(params)
    reach = None if k is None else float(k) * (1.0 + 1e-12)
    n_pairs = 0
    worst = {}  # statistic -> (value, pair, ratio or slack, distance)
    first = {}  # bound -> (s, t, distance)
    for lo in range(0, n - 1, B):
        hi = min(lo + B, n - 1)
        end = n
        if k is not None:
            last = tarr[hi - 1]
            end = int(np.searchsorted(tarr, last + reach + 1e-9 * (abs(last) + reach), "right"))
        gaps = tarr[lo + 1:end] - tarr[lo:hi, None]
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
    return lm.QGReport(
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


def assert_engine_matches(curve, lam, grid, k=None, eps=0.0, upper_eps=None, tol=None):
    upper_eps = eps if upper_eps is None else upper_eps
    got = curves._check_grid(curve, lam, eps, upper_eps, grid, k, tol)
    want = dense_check_grid(curve, lam, eps, upper_eps, grid, k, tol)
    assert astuple(got) == astuple(want), (lam, grid, k, eps, upper_eps)
    merged = _merged_params(curve, grid)
    want = compacting_check_pairs(curve.space, *merged, lam, eps, upper_eps, k, tol)
    assert repr(got) == repr(want), (lam, grid, k, eps, upper_eps, tol)
    return got


def check_tiles(curve, grid, k=None):
    """The tiles (lo, hi, c0, c1) that one grid check walks, as `_tiles` yields them."""
    seen = []
    tiles = curves._tiles

    def spy(starts, ends):
        for tile in tiles(starts, ends):
            seen.append(tile)
            yield tile

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(curves, "_tiles", spy)
        curves._check_grid(curve, 1.0, 0.0, 0.0, grid, k, None)
    return seen


def tile_edges(curve, grid, k=None):
    """The first row of each tile of one grid check."""
    return sorted({lo for lo, _, _, _ in check_tiles(curve, grid, k)})


# -- the tiling


def reference_tiles(starts, ends, budget):
    # the rule written out row by row
    out, lo, n = [], 0, len(starts)
    while lo < n:
        hi = lo + 1
        while hi < min(n, lo + B) and (hi + 1 - lo) * (ends[hi] - starts[lo]) <= budget:
            hi += 1
        if ends[lo] - starts[lo] > budget:
            out += [(lo, lo + 1, c, min(c + budget, ends[lo]))
                    for c in range(starts[lo], ends[lo], budget)]
        else:
            out.append((lo, hi, starts[lo], ends[hi - 1]))
        lo = hi
    return out


@pytest.mark.parametrize("budget", [1, 7, SMALL_TILE, 500, curves._TILE])
def test_tiles_follow_the_rule_written_out_row_by_row(budget, monkeypatch):
    monkeypatch.setattr(curves, "_TILE", budget)
    rng = np.random.default_rng(budget)
    n = 700
    rows = np.arange(1, n)
    band = np.maximum.accumulate(np.minimum(n, rows + rng.integers(0, 90, n - 1)))
    for starts, ends in ((rows, np.full(n - 1, n)),  # a global check, a sequence
                         (rows, band),  # a k-local check
                         (rows, rows),  # a band that holds no pair
                         (np.full(n, n), np.full(n, 3 * n))):  # a side of `cat_defect`
        got = list(curves._tiles(starts, ends))
        assert got == reference_tiles(starts.tolist(), ends.tolist(), budget)
        assert all(1 <= hi - lo <= B and (hi - lo) * (c1 - c0) <= budget
                   for lo, hi, c0, c1 in got)


# -- one segment per family, merged lengths around multiples of the block size


def segments():
    plane, disk, box = lm.EuclideanSpace(2), lm.HyperbolicPlane(), lm.L2BoxSpace(3, 4.0)
    tree = lm.random_tree(np.random.default_rng(5), n_vertices=12)
    ray = lm.tree_ray_curve(lm.ray_tree())
    return {
        "euclidean": lm.geodesic_segment_curve(plane, lm.epoint(-1, 2), lm.epoint(7, -3)),
        "l2box": lm.geodesic_segment_curve(box, lm.boxpoint(0, 1, 2), lm.boxpoint(4, 0, 60)),
        "hyperbolic": lm.geodesic_segment_curve(disk, lm.hpoint(-0.6, 0.2), lm.hpoint(0.7, 0.3)),
        "rtree": lm.geodesic_segment_curve(tree, lm.vertex_point("v3"), lm.vertex_point("v9")),
        "rtree-ray": lm.geodesic_segment_curve(ray.space, lm.vertex_point("q"), ray.at(12)),
    }


@pytest.mark.parametrize("name", sorted(segments()))
@pytest.mark.parametrize("n", [B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 2])
def test_blocks_around_multiples_of_the_block_size(name, n):
    curve = segments()[name]
    assert len(_merged_params(curve, n)[0]) == n  # two samples: the merged list is the grid
    # rows this short fit B to a tile: its edges fall on the multiples of B
    assert tile_edges(curve, n) == list(range(0, n - 1, B))
    length = float(curve.t_max - curve.t_min)
    step = length / (n - 1)
    for lam in (1.0, 1.3):
        assert_engine_matches(curve, lam, n)
        assert_engine_matches(curve, lam, n, eps=0.3, upper_eps=0.0)
        # bands narrower than a block, about one block, and wider than one
        for width in (3, B - 1, B, B + 5, 3 * B // 2):
            assert_engine_matches(curve, lam, n, k=width * step)


def test_bands_cross_block_edges_on_curved_paths():
    tube = lm.hyperbolic_tube_curve(length=20.0, amplitude=0.25, seed=4)
    box = lm.l2_example_curve()
    tree = lm.RTreeSpace(["v0", "v1", "v2", "v7", "v9"],
                         [("v7", "v9", 1), ("v0", "v7", 3), ("v0", "v1", Fraction(3, 2)),
                          ("v1", "v2", 1)], ray_at="v2")
    zig = lm.Curve(tree, (Fraction(0), Fraction(5), Fraction(17, 2), Fraction(12)),
                   (lm.vertex_point("v9"), lm.vertex_point("v2"), lm.vertex_point("v0"),
                    lm.edge_point(lm.RAY_EDGE, Fraction(3))))
    for curve, ks, lams in ((tube, (0.5, 3.0, 9.0), (1.0, ROOT2)),
                            (box, (1.0, 40.0, 700.0), (1.0, math.sqrt(11.0 / 3.0))),
                            (zig, (0.7, 2.0, 6.0, Fraction(5, 2)), (1.0, 3.0, Fraction(3, 2)))):
        for grid in (3 * B - 7, 4 * B + 3):
            for lam in lams:
                for k in ks:
                    assert_engine_matches(curve, lam, grid, k=k)
                assert_engine_matches(curve, lam, grid)
    # exact constants meet the float gaps as their float values
    assert_engine_matches(zig, Fraction(3, 2), 3 * B, eps=Fraction(1, 10), upper_eps=0)


def integer_line(space, n):
    # samples at every integer: each distance equals its gap exactly, so
    # every pair ties on every statistic
    if space.kind == "rtree":
        pts = [lm.vertex_point(space.ray_at)] + [lm.edge_point(lm.RAY_EDGE, Fraction(i))
                                                  for i in range(1, n)]
        return lm.Curve(space, tuple(Fraction(i) for i in range(n)), tuple(pts))
    return lm.Curve(space, tuple(float(i) for i in range(n)),
                    tuple(lm.epoint(float(i), 0.0) for i in range(n)))


@pytest.mark.parametrize("kind", ["euclidean", "rtree"])
def test_ties_between_blocks_keep_the_earlier_pair(kind):
    space = lm.ray_tree() if kind == "rtree" else lm.EuclideanSpace(2)
    n = 3 * B + 5
    curve = integer_line(space, n)
    for k in (None, 2.0, B + 3.0):
        assert len(tile_edges(curve, n, k)) > 3
        rep = assert_engine_matches(curve, 1.0, n, k=k)
        assert rep.min_ratio == 1.0 and rep.worst_lower_slack == 0.0
        first = (curve.params[0], curve.params[1])
        assert rep.min_ratio_pair == rep.worst_lower_pair == rep.worst_upper_pair == first


def test_first_violations_in_a_later_block():
    plane = lm.EuclideanSpace(2)
    # a long leg and a short turn: only rows near the corner see a lower
    # violation at lambda 1.2
    corner = lm.Curve(plane, (0.0, 100.0, 110.0),
                      (lm.epoint(0, 0), lm.epoint(100, 0), lm.epoint(100, 10)))
    # a slow leg and a fast one: only rows near the speed-up see an upper
    # violation at lambda 3
    speedup = lm.Curve(plane, (0.0, 100.0, 101.0),
                       (lm.epoint(0, 0), lm.epoint(100, 0), lm.epoint(130, 0)))
    grid = 3 * B
    rows = {float(t): r for r, t in enumerate(_merged_params(corner, grid)[0])}
    rep = assert_engine_matches(corner, 1.2, grid)
    assert rows[rep.first_lower_violation[0]] >= tile_edges(corner, grid)[1]
    assert rep.first_upper_violation is None
    rows = {float(t): r for r, t in enumerate(_merged_params(speedup, grid)[0])}
    rep = assert_engine_matches(speedup, 3.0, grid)
    assert rows[rep.first_upper_violation[0]] >= tile_edges(speedup, grid)[2]
    for k in (5.0, 30.0):
        assert_engine_matches(corner, 1.2, grid, k=k)
        assert_engine_matches(speedup, 3.0, grid, k=k)


@pytest.mark.parametrize("name", sorted(segments()))
def test_zero_tolerance_counts_every_rounding_as_a_violation(name):
    curve = segments()[name]
    n = 2 * B + 11
    step = float(curve.t_max - curve.t_min) / (n - 1)
    for lam in (1.0, 1.3):
        for k in (None, 5 * step, (B + 7) * step):
            assert_engine_matches(curve, lam, n, k=k, tol=0.0)
            assert_engine_matches(curve, lam, n, k=k, eps=0.2, upper_eps=0.0, tol=0.0)


def test_fraction_params_that_round_to_one_float_have_a_zero_gap():
    tree = lm.ray_tree()
    ray = lm.tree_ray_curve(tree)
    tiny = Fraction(1, 10**30)
    # one tied pair in the first tile, one in the third; the second pair
    # repeats its point, so its distance is zero too
    params = (Fraction(0), Fraction(1, 3), Fraction(1, 3) + tiny, Fraction(5), Fraction(5) + tiny,
              Fraction(7))
    points = [ray.at(t) for t in params]
    points[4] = points[3]
    curve = lm.Curve(tree, params, tuple(points))
    merged = _merged_params(curve, 3 * B)[0]
    tarr = [float(t) for t in merged]
    ties = [r for r in range(len(tarr) - 1) if tarr[r] == tarr[r + 1]]
    edges = tile_edges(curve, 3 * B)
    assert len(ties) == 2 and ties[0] < edges[1] and ties[1] >= edges[2]
    for lam in (1.0, 2.0):
        for k in (None, 0.5, 3.0):
            rep = assert_engine_matches(curve, lam, 3 * B, k=k)
            assert rep.min_ratio < math.inf


def test_slack_exactly_at_the_tolerance_is_no_violation():
    # dyadic params and points, unit speed and then speed 3/4: a pair inside
    # the slow leg has lower slack -gap/4 exactly, which equals -tol * scale
    # for every gap >= 1 when tol = 1/4.  The slow leg starts at row 2B of
    # the grid, the first row of the third tile
    line = lm.EuclideanSpace(1)
    curve = lm.Curve(line, (0.0, 4.0, 6.0), (lm.epoint(0.0), lm.epoint(4.0), lm.epoint(5.5)))
    grid = 3 * B + 1
    assert _merged_params(curve, grid)[0][2 * B] == 4.0
    assert tile_edges(curve, grid)[2] == 2 * B
    for k in (None, 1.5):
        rep = assert_engine_matches(curve, 1.0, grid, k=k, tol=0.25)
        assert rep.passed and rep.first_lower_violation is None
        assert (rep.worst_lower_slack, rep.worst_lower_pair) == (-0.25, (4.0, 5.0))
        rep = assert_engine_matches(curve, 1.0, grid, k=k, tol=math.nextafter(0.25, 0.0))
        assert not rep.passed and rep.first_lower_violation == (4.0, 5.0, 0.75)


def test_band_keeps_pairs_that_round_into_it():
    # from -0.9 the next sample sits a few ulps past fl(-0.9 + k(1 + 1e-12)),
    # yet its gap rounds to k(1 + 1e-12) and the pair belongs to the band
    reach = 1.0 + 1e-12
    x = math.nextafter(-0.9 + reach, 2.0)
    assert x - (-0.9) <= reach
    params = (*(float(t) for t in np.linspace(-3.0, -1.0, B)), -0.9, x)
    curve = lm.Curve(lm.EuclideanSpace(1), params, tuple(lm.epoint(t) for t in params))
    rep = assert_engine_matches(curve, 1.0, 2, k=1.0)
    assert rep.n_pairs == dense_check_grid(curve, 1.0, 0.0, 0.0, 2, 1.0, None).n_pairs


@pytest.mark.parametrize("name", sorted(segments()))
def test_rows_cut_into_pieces_match_both_oracles(name, monkeypatch):
    monkeypatch.setattr(curves, "_TILE", SMALL_TILE)
    curve = segments()[name]
    n = 2 * B + 11
    step = float(curve.t_max - curve.t_min) / (n - 1)
    tiles = check_tiles(curve, n)
    assert any(c0 > lo + 1 for lo, _, c0, _ in tiles)  # pieces past a row's first
    for lam in (1.0, 1.3):
        assert_engine_matches(curve, lam, n)
        assert_engine_matches(curve, lam, n, eps=0.3, upper_eps=0.0)
        assert_engine_matches(curve, lam, n, tol=0.0)
        # bands of whole rows, about one budget wide, and of cut rows
        for width in (3, SMALL_TILE - 1, SMALL_TILE, SMALL_TILE + 1, B + 7):
            assert_engine_matches(curve, lam, n, k=width * step)
        assert_engine_matches(curve, lam, n, k=(B + 7) * step, eps=0.2, upper_eps=0.0, tol=0.0)


def test_cut_rows_on_curved_paths_match_both_oracles(monkeypatch):
    monkeypatch.setattr(curves, "_TILE", SMALL_TILE)
    tube = lm.hyperbolic_tube_curve(length=20.0, amplitude=0.25, seed=4)
    for curve, ks, lam in ((tube, (0.5, 3.0), ROOT2),
                           (lm.l2_example_curve(), (40.0, 700.0), math.sqrt(11.0 / 3.0))):
        for k in (None, *ks):
            assert_engine_matches(curve, lam, 2 * B + 9, k=k)
    # the public checks, a promotion among them, equal those of the default budget
    grid = 2 * B + 9
    cut = (lm.check_directional_curve(tube, 0.5, grid), lm.verify_promotion(
        tube.space, tube, 1.1, 0.2, 8.0, grid))
    monkeypatch.undo()
    assert repr(cut) == repr((lm.check_directional_curve(tube, 0.5, grid), lm.verify_promotion(
        tube.space, tube, 1.1, 0.2, 8.0, grid)))


def test_public_checks_go_through_the_engine():
    tube = lm.hyperbolic_tube_curve(length=20.0, amplitude=0.25, seed=4)
    grid = 2 * B + 9
    want = dense_check_grid(tube, ROOT2, 0.0, 0.0, grid, 3.0, None)
    assert astuple(lm.check_quasi_geodesic(tube, ROOT2, 0.0, grid, k=3.0)) == astuple(want)
    want = dense_check_grid(tube, 1.0, 0.5, 0.0, grid, None, None)
    rep = lm.check_directional_curve(tube, 0.5, grid)
    assert (rep.n_checked, rep.passed, rep.worst_lower_slack, rep.worst_lower_witness,
            rep.worst_upper_witness) == (want.n_pairs, want.passed, want.worst_lower_slack,
                                         want.worst_lower_pair, want.worst_upper_pair)


# -- directional sequences and comparison defects in the same tiles


def dense_directional_sequence(space, points, b):
    # the square table and every upper-triangle pair at once
    dmat = distance_table(space, points)
    prefix = np.concatenate([[0.0], np.cumsum(np.diagonal(dmat, 1))])
    i, j = np.triu_indices(len(points), 1)
    slack = dmat[i, j] - (prefix[j] - prefix[i] - b)
    w = _first_min(slack)
    worst, witness = (math.inf, None) if w is None else (slack[w], (int(i[w]), int(j[w])))
    return lm.DirectionalityReport(
        b=float(b), n_checked=len(slack), passed=bool(worst >= -space.rel_tol),
        worst_lower_slack=float(worst), worst_lower_witness=witness,
        growth=(float(dmat[0, 1]), float(dmat[0, -1])))


@pytest.mark.parametrize("name", sorted(segments()))
def test_directional_sequences_match_the_square_table(name):
    curve = segments()[name]
    space = curve.space
    rng = np.random.default_rng(12)
    for n in (2, B, B + 1, 2 * B + 1, 3 * B + 5):
        # points along the segment, ahead and back: windows of every slack
        ts = np.sort(rng.uniform(0.0, 1.0, n))
        ts[rng.integers(n, size=n // 5)] *= 0.5
        pts = [curve.at(float(t) * float(curve.t_max)) for t in ts]
        for b in (0.0, 0.5, Fraction(3, 2)):
            want = dense_directional_sequence(space, pts, b)
            assert repr(lm.check_directional_sequence(space, pts, b)) == repr(want), (n, b)


@pytest.mark.parametrize("name", sorted(segments()))
def test_sequences_and_defects_in_cut_rows_match(name, monkeypatch):
    curve = segments()[name]
    space = curve.space
    rng = np.random.default_rng(13)
    pts = [curve.at(float(t) * float(curve.t_max)) for t in np.sort(rng.uniform(0.0, 1.0, 90))]
    x, y, z = pts[0], pts[-1], space.random_point(rng, 2.0)
    # at grid 20 each side of the defect is one tile of the default budget
    want = [repr(lm.check_directional_sequence(space, pts[:n], 0.5)) for n in (2, 41, 90)]
    defect = lm.cat_defect(space, x, y, z, 20)
    monkeypatch.setattr(curves, "_TILE", SMALL_TILE)
    assert [repr(lm.check_directional_sequence(space, pts[:n], 0.5)) for n in (2, 41, 90)] == want
    assert want[-1] == repr(dense_directional_sequence(space, pts, 0.5))
    assert repr(lm.cat_defect(space, x, y, z, 20)) == repr(defect)


def test_a_sequence_with_inf_steps_keeps_the_first_nan_slack():
    # finite points whose gaps overflow: the prefix sums meet inf - inf
    line = lm.EuclideanSpace(1)
    pts = [lm.epoint(x) for x in [0.0] * B + [1e308, -1e308, 1e308] + [0.0] * B]
    with np.errstate(over="ignore", invalid="ignore"):
        want = dense_directional_sequence(line, pts, 1.0)
        got = lm.check_directional_sequence(line, pts, 1.0)
    assert math.isnan(want.worst_lower_slack) and not want.passed
    assert repr(got) == repr(want)


# -- the NaN rule: a NaN distance is worse than any number, the first one
# is the witness, and the certificate fails


def rim_curve():
    """Two-sample disk geodesic whose last grid points round out of the disk.

    From radius 11.7 to radius 29.98: at grid 100 six grid points land at
    x*x + y*y >= 1, and their distances to the points inside are NaN.
    """
    disk = lm.HyperbolicPlane()
    return lm.geodesic_segment_curve(disk, lm.hpoint(0.0, math.tanh(5.85)),
                                     lm.hpoint(-math.tanh(14.99), 0.0))


def first_nan_pair(curve, grid, k=None):
    # the row-major first checked pair whose distance is NaN, from the square table
    params = _merged_params(curve, grid)[0]
    with np.errstate(invalid="ignore"):
        dmat = distance_table(curve.space, [curve.at(t) for t in params])
    tarr = np.asarray([float(t) for t in params])
    i, j = np.triu_indices(len(params), 1)
    if k is not None:
        near = tarr[j] - tarr[i] <= float(k) * (1.0 + 1e-12)
        i, j = i[near], j[near]
    hits = np.flatnonzero(np.isnan(dmat[i, j]))
    assert len(hits)
    return params[i[hits[0]]], params[j[hits[0]]]


def assert_fails_on_the_first_nan(rep, pair):
    assert not rep.passed
    assert math.isnan(rep.min_ratio) and rep.min_ratio_pair == pair
    assert math.isnan(rep.worst_lower_slack) and rep.worst_lower_pair == pair
    assert math.isnan(rep.worst_lower_dist)
    assert math.isnan(rep.worst_upper_excess) and rep.worst_upper_pair == pair
    for first in (rep.first_lower_violation, rep.first_upper_violation):
        assert first[:2] == pair and math.isnan(first[2])


@pytest.mark.parametrize("k", [None, 5.0, 1.5])
@pytest.mark.parametrize("tile", [curves._TILE, SMALL_TILE])
def test_a_nan_distance_fails_the_grid_check_with_the_first_nan_pair(k, tile, monkeypatch):
    curve = rim_curve()
    monkeypatch.setattr(curves, "_TILE", tile)
    with np.errstate(invalid="ignore"):
        rep = lm.check_quasi_geodesic(curve, 1.0, 0.0, 100, k=k)
    assert_fails_on_the_first_nan(rep, first_nan_pair(curve, 100, k))


def test_a_nan_pair_replaces_an_earlier_finite_violation():
    # the first finite lower violation, at (0, 26.9), comes before the first
    # NaN pair in row-major order; the NaN pair is the witness
    curve = rim_curve()
    with np.errstate(invalid="ignore"):
        want = dense_check_grid(curve, 1.0, 0.0, 0.0, 100, None, None)
        rep = lm.check_quasi_geodesic(curve, 1.0, 0.0, 100)
    finite = want.first_lower_violation
    assert finite is not None and not math.isnan(finite[2])
    assert finite[:2] < rep.first_lower_violation[:2] == first_nan_pair(curve, 100)


def test_a_nan_distance_fails_directionality_and_promotion():
    curve = rim_curve()
    pair = first_nan_pair(curve, 100)
    with np.errstate(invalid="ignore"):
        rep = lm.check_directional_curve(curve, 0.5, 100)
        promoted = lm.verify_promotion(curve.space, curve, 1.0, 0.1, 5.0, 100)
    assert not rep.passed and math.isnan(rep.worst_lower_slack)
    assert rep.worst_lower_witness == pair
    # the promoted check meets the same pair, and the chord distances of
    # the points outside the disk are NaN as well
    assert_fails_on_the_first_nan(promoted, pair)
    assert math.isnan(promoted.max_chord_dist) and promoted.chord_ok is False


def test_a_nan_chord_distance_fails_promotion(monkeypatch):
    plane = lm.EuclideanSpace(2)
    curve = lm.geodesic_segment_curve(plane, lm.epoint(0, 0), lm.epoint(10, 0))
    assert lm.verify_promotion(plane, curve, 1.0, 0.1, 5.0, 20).passed
    to_chain = plane._to_chain
    # one NaN among the chord distances, followed by a larger finite one
    monkeypatch.setattr(plane, "_to_chain", lambda points, chain: [
        math.nan if m == 3 else 5.0 if m == 4 else d
        for m, d in enumerate(to_chain(points, chain))])
    rep = lm.verify_promotion(plane, curve, 1.0, 0.1, 5.0, 20)
    assert math.isnan(rep.max_chord_dist) and rep.chord_ok is False and not rep.passed


# -- distance tiles


def old_euclidean_table(a):
    return np.sqrt(((a[:, None] - a[None]) ** 2).sum(-1))


@pytest.mark.parametrize("dim", [*range(1, 41), 127, 128, 129, 136, 300])
def test_euclidean_table_keeps_the_bits_of_the_summed_tensor(dim):
    rng = np.random.default_rng(dim)
    coords = rng.normal(size=(23, dim)) * rng.uniform(0.01, 100.0, size=dim)
    pts = [lm.Point("euclidean", tuple(float(c) for c in row)) for row in coords]
    got = distance_table(lm.EuclideanSpace(dim), pts)
    assert got.tobytes() == old_euclidean_table(coords).tobytes()


def test_disk_table_keeps_the_bits_of_the_square_form():
    disk = lm.HyperbolicPlane()
    pts = [disk.random_point(np.random.default_rng(7), scale=6.0) for _ in range(50)]
    arr = np.asarray([p.coords for p in pts])
    sq = (arr * arr).sum(axis=1)
    den = (1.0 - sq)[:, None] * (1.0 - sq)[None, :]
    gaps = ((arr[:, None] - arr[None]) ** 2).sum(-1)
    want = 2.0 * np.arcsinh(np.sqrt(gaps / den))
    assert distance_table(disk, pts).tobytes() == want.tobytes()


def tile_inputs():
    rng = np.random.default_rng(3)
    tree = lm.random_tree(rng, n_vertices=15)
    ray = lm.ray_tree()
    out = {}
    for name, space in (("euclidean", lm.EuclideanSpace(3)), ("l2box", lm.L2BoxSpace(4, 3.0)),
                        ("hyperbolic", lm.HyperbolicPlane()), ("rtree", tree),
                        ("rtree-ray", ray)):
        sampler = lm.PointSampler(space, scale=2.0, seed=11)
        pts = [sampler.draw() for _ in range(40)]
        if space.kind == "rtree":  # vertices, float offsets and repeats too
            pts += [lm.vertex_point(v) for v in space.vertices[:4]]
            pts += [space.geodesic_point(pts[0], pts[1], 0.37), pts[2], pts[2]]
        out[name] = (space, pts)
    return out


@pytest.mark.parametrize("name", sorted(tile_inputs()))
def test_rectangular_tiles_are_slices_of_the_square_table(name):
    space, pts = tile_inputs()[name]
    arrays = space._arrays(pts)
    square = space._table(arrays, arrays)
    assert square.tobytes() == distance_table(space, pts).tobytes()
    exact = np.array([[float(space.distance(p, q)) for q in pts] for p in pts])
    assert np.allclose(square, exact, rtol=1e-12, atol=1e-12)
    n = len(pts)
    for r0, r1, c0, c1 in ((0, 1, 0, n), (3, 17, 5, 6), (10, n, 0, 9), (7, 7, 0, n),
                           (0, n, n - 1, n), (20, 31, 11, 40)):
        tile = space._table(arrays[r0:r1], arrays[c0:c1])
        assert tile.shape == (r1 - r0, c1 - c0)
        assert tile.tobytes() == square[r0:r1, c0:c1].tobytes()


# -- the tree tiles, against the exit formula written out pair by pair


def reference_arrays(space, points):
    rows = []
    for p in points:
        i, h, rest = exact_form(space, p)
        rows.append((i, float(h), float(rest), float(p.offset) if h else 0.0))
    return np.array(rows, dtype=float).reshape(-1, 4)


def reference_table(space, rows, cols):
    # d = cx + span[ex, ey] + cy, where a point (i, h, rest) leaves toward
    # vertex j up through i's parent at cost rest when it sits inside an
    # edge below their meet, else through i at cost h
    def leave(i, h, rest, j):
        return (space._parent[i], rest) if h > 0 and space._below[i, j] else (i, h)

    out = np.empty((len(rows), len(cols)))
    for r, (i, h, rest, off) in enumerate(rows.tolist()):
        for c, (j, hy, rest_y, off_y) in enumerate(cols.tolist()):
            i, j = int(i), int(j)
            if i == j and h > 0 and hy > 0:
                out[r, c] = abs(off - off_y)
                continue
            ex, cx = leave(i, h, rest, j)
            ey, cy = leave(j, hy, rest_y, i)
            out[r, c] = cx + space._span[ex, ey] + cy
    return out


def tree_points():
    rng = np.random.default_rng(29)
    thirds = lm.RTreeSpace(["a", "b", "c", "d", "e"],
                           [("a", "b", Fraction(1, 3)), ("c", "b", Fraction(1, 10)),
                            ("c", "d", Fraction(5, 7)), ("e", "a", Fraction(3, 2))], ray_at="c")
    base = lm.random_tree(rng, n_vertices=14)
    trees = {"lone": lm.RTreeSpace(["a"], []), "ray": lm.ray_tree(), "thirds": thirds,
             "random": base, "random-ray": lm.RTreeSpace(base.vertices, base.edges, ray_at="v5")}
    out = {}
    for name, tree in trees.items():
        pts = [lm.vertex_point(v) for v in tree.vertices]
        sampler = lm.PointSampler(tree, scale=3, seed=4)
        pts += [sampler.draw() for _ in range(12)]  # Fraction offsets on a 1/16 grid
        for e, (_, _, length) in enumerate(tree.edges):
            f = float(length)
            # float offsets: the float length itself (a tie with the exact
            # length unless it is dyadic), its neighbours and inside, those
            # that the exact length admits
            for x in (f, math.nextafter(f, 0.0), math.nextafter(f, 2.0 * f), f / 3, 0.0):
                if x <= length:
                    pts.append(lm.edge_point(e, x))
        if tree.ray_at is not None:
            pts += [lm.edge_point(lm.RAY_EDGE, x) for x in (0.0, 0.1, 2.75)]
            pts.append(lm.edge_point(lm.RAY_EDGE, Fraction(7, 3)))
        if len(pts) > 1:
            for k in range(12):  # float ts walk to float offsets on every edge kind
                a, b = pts[int(rng.integers(len(pts)))], pts[int(rng.integers(len(pts)))]
                pts += tree.geodesic_points(a, b, sorted(rng.uniform(0.0, 1.0, 2).tolist()))
        out[name] = (tree, pts)
    return out


@pytest.mark.parametrize("name", sorted(tree_points()))
def test_tree_tiles_keep_the_bits_of_the_exit_formula(name):
    tree, pts = tree_points()[name]
    assert all(tree.contains_point(p) for p in pts)
    offsets = {type(p.offset) for p in pts if p.vertex is None}
    assert name == "lone" or offsets == {Fraction, float}
    arrays = tree._arrays(pts)
    want = reference_arrays(tree, pts)
    assert arrays.tobytes() == want.tobytes()
    n = len(pts)
    for r0, r1, c0, c1 in ((0, n, 0, n), (0, 1, 0, n), (3, 17, 5, 6), (n // 2, n, 1, n - 2)):
        tile = tree._table(arrays[r0:r1], arrays[c0:c1])
        assert tile.tobytes() == reference_table(tree, want[r0:r1], want[c0:c1]).tobytes()


def reference_gap(space, x, y):
    # _dist as one exact sum, whose mixed terms go through Fraction's operators
    (i, hx, rest_x), (j, hy, rest_y) = exact_form(space, x), exact_form(space, y)
    if i == j and hx and hy:
        return abs(x.offset - y.offset)

    def leave(i, h, rest, j):
        return (space._parent[i], rest) if h and space._climbs[i][j] else (i, h)

    (ex, cx), (ey, cy) = leave(i, hx, rest_x, j), leave(j, hy, rest_y, i)
    span = space.distance(*(lm.vertex_point(space.vertices[v]) for v in (ex, ey)))
    return cx + span + cy


def typed(values):
    return [(repr(v), type(v)) for v in values]


@pytest.mark.parametrize("name", sorted(tree_points()))
def test_tree_distances_keep_the_value_and_type_of_the_exact_sum(name):
    tree, pts = tree_points()[name]
    pts = pts[::2]
    assert typed(tree.distance(p, q) for p in pts for q in pts) == \
        typed(reference_gap(tree, p, q) for p in pts for q in pts)
    if len(pts) > 7:
        chain = pts[1::7]
        want = [max(min((reference_gap(tree, p, a) + reference_gap(tree, p, b)
                         - reference_gap(tree, a, b)) / 2 for a, b in zip(chain, chain[1:])), 0.0)
                for p in pts]
        assert typed(tree._to_chain(pts, chain)) == typed(want)


def test_float_offsets_at_a_float_length_tie_as_the_exact_length_says():
    tree = lm.RTreeSpace(["a", "b", "c"], [("a", "b", Fraction(1, 3)), ("b", "c", Fraction(1, 10))])
    third, tenth = float(Fraction(1, 3)), float(Fraction(1, 10))
    assert third < Fraction(1, 3) and tenth > Fraction(1, 10)
    a, b, c = (lm.vertex_point(v) for v in "abc")
    on_third = lm.edge_point(0, third)
    # a float offset of float(1/3) sits a hair short of b; float(1/10) is past c
    assert tree.contains_point(on_third) and not tree.contains_point(lm.edge_point(1, tenth))
    assert tree._form(on_third, 1) == exact_form(tree, on_third)
    assert typed(tree._form(on_third, 1)) == typed(exact_form(tree, on_third))
    # a float walk that ends its s on the float length lands where the
    # exact length puts it: inside [a, b], and on c itself
    assert typed(tree._walk(tree._form(a, 1), tree._form(c, 1), [third], 1)) == typed([on_third])
    assert tree._walk(tree._form(b, 1), tree._form(c, 1), [tenth], 1) == [c]
    assert tree._walk(tree._form(c, 1), tree._form(a, 1), [tenth], 1) == [b]


# The four spellings the tie rule of tree floats once had, one per place:
# float(length) f decides, the exact length breaks a tie.  exact is
# whether f == length.


def old_contains(x, f, exact, length):  # RTreeSpace.contains_point
    return 0 <= x <= f and (x < f or exact or x <= length)


def old_at_end(x, f, exact):  # RTreeSpace._form
    return x == f and exact


def old_inside(x, f, exact, length):  # RTreeSpace._on_edge, a float offset
    return 0 < x < f or (not exact and x == f and x < length)


def old_passes(x, f, length, up):  # RTreeSpace._walk, a float s against one leg
    return x > f if x != f else (x >= length if up else x > length)


TIE_LENGTHS = [Fraction(1, 3), Fraction(1, 10), Fraction(3, 2), Fraction(2)]


def near_float(length, steps):
    """The float ``steps`` ulps from float(length)."""
    x = float(length)
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(length=st.sampled_from(TIE_LENGTHS + [float(v) for v in TIE_LENGTHS]),
       steps=st.integers(-3, 3))
def test_the_tie_helper_matches_the_four_old_spellings(length, steps):
    f = float(length)
    exact = f == length
    x = near_float(length, steps)
    # the helper reads an exact length as an int count of 1/scale
    counts = (length.numerator, length.denominator) if isinstance(length, Fraction) else (length, 1)
    sign = spaces._float_sign(x, f, *counts)
    assert sign == (x > length) - (x < length)  # the exact comparison
    assert (0 <= x and sign <= 0) == old_contains(x, f, exact, length)
    assert (sign == 0) == old_at_end(x, f, exact)
    assert (0 < x and sign < 0) == old_inside(x, f, exact, length)
    for up in (True, False):
        assert (sign > 0 or (up and sign == 0)) == old_passes(x, f, length, up)


@pytest.mark.parametrize("length", TIE_LENGTHS + [float(v) for v in TIE_LENGTHS])
def test_tree_floats_next_to_an_edge_length_follow_the_old_spellings(length):
    # edge 0 runs from b up to the root a, whose offset from b is the height
    # above b; edge 1 hangs c below a.  A float length is read as the decimal
    # it prints as, so float(1/10) gives the edge 1/10, and the spellings
    # meet the length the tree holds
    tree = lm.RTreeSpace(["a", "b", "c"], [("b", "a", length), ("a", "c", 5)])
    length = tree.edges[0][2]
    f, b = float(length), tree._index["b"]
    exact = f == length
    for steps in range(-3, 4):
        x = near_float(length, steps)
        p = lm.edge_point(0, x)
        assert tree.contains_point(p) == old_contains(x, f, exact, length)
        if tree.contains_point(p):
            # a float offset at the end is read as the vertex, whose h is an int 0
            assert (type(tree._form(p, 1)[1]) is int) == old_at_end(x, f, exact)
        placed = tree._on_edge(b, 0, tree._len[b], x, 1)
        assert (placed.edge == 0) == old_inside(x, f, exact, length)
        if placed.edge == 0:
            assert placed.offset == x
        # a float walk of x from b toward c stays on its first leg, b up to a,
        # exactly when it does not pass that leg
        walked, = tree._walk(tree._form(lm.vertex_point("b"), 1),
                             tree._form(lm.vertex_point("c"), 1), [x], 1)
        assert (walked.edge == 0) == (not old_passes(x, f, length, True))


# -- grid rows without points
#
# A grid check reads the `_arrays` rows of its merged points; each family's
# `_rows_along` computes the rows of the grid values in arrays.  The oracle
# is the point path: `_arrays` of the points `Curve._at_sorted` places, bit
# for bit, and `Space._rows_along`, which places them by `_along`.


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert (got.view(np.int64) == want.view(np.int64)).all()


def point_merge(curve, grid):
    # the merged params and the rows of the merged points
    kept, slots, _ = curves._grid_values(curve, grid)
    kept, slots = kept.tolist(), slots.tolist()
    points = curves._merge(curve.points, curve._at_sorted(kept, slots), slots)
    return curves._merge(curve.params, kept, slots), curve.space._arrays(points)


def assert_rows_match(curve, grid, k=None):
    space = curve.space
    kept, slots, us = curves._grid_values(curve, grid)
    want = space._arrays(curve._at_sorted(kept.tolist(), slots.tolist()))
    assert_same_bits(space._rows_along(curve.points, space._arrays(curve.points), slots, us), want)
    params, rows = _merged_params(curve, grid)
    want_params, want_rows = point_merge(curve, grid)
    assert typed(params) == typed(want_params)
    assert_same_bits(rows, want_rows)
    for lam in (1.0, ROOT2):
        got = curves._check_grid(curve, lam, 0.0, 0.0, grid, k, None)
        assert repr(got) == repr(curves._check_pairs(space, want_params, want_rows,
                                                     lam, 0.0, 0.0, k, None))


def directional_lion_path(tree, start, D, n_steps):
    man = lm.man_directional_strategy(lm.tree_ray_curve(tree), D)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=n_steps, tol=1e-9,
                        lion_start=lm.vertex_point(start), man_start=man.start())
    return lm.curve_from_transcript(tree, lm.run_game(cfg, man), 12 * D)[1]


def ray_tree40(seed):
    base = lm.random_tree(np.random.default_rng(seed), n_vertices=40)
    return lm.RTreeSpace(base.vertices, base.edges, ray_at=base.vertices[seed % 40])


def float_tree():
    # lengths given as floats, non-dyadic most of them, which the tree reads
    # as the exact decimals they print as, and a ray
    base = lm.random_tree(np.random.default_rng(8), n_vertices=25)
    return lm.RTreeSpace(base.vertices, [(u, v, float(length) * 1.1) for u, v, length in base.edges],
                         ray_at="v4")


def row_curves():
    plane = lm.EuclideanSpace(3)
    zigzag = lm.zigzag_quasi_geodesic(plane, lm.epoint(-2, 1, 0.5), lm.epoint(9, -4, 3), 1.4,
                                      segments=12, rng=np.random.default_rng(4))
    out = {"plane-zigzag": (zigzag, 1000), "box": (lm.l2_example_curve(), 1000),
           "box-sampled": (lm.l2_example_curve(4, 5.0, samples_per_leg=2), 333)}
    for seed in range(3):
        out[f"tube-{seed}"] = (lm.hyperbolic_tube_curve(length=20.0, amplitude=0.25, seed=seed),
                               1000)
    for seed in (1, 2):
        tree = ray_tree40(seed)
        far = max(tree.vertices, key=lambda v: tree.distance(lm.vertex_point(v),
                                                             lm.vertex_point(tree.ray_at)))
        ray = lm.tree_ray_curve(tree)
        out[f"tree40-{seed}-segment"] = (lm.geodesic_segment_curve(
            tree, lm.vertex_point(far), ray.at(Fraction(17)), n_samples=64), 1000)
        out[f"tree40-{seed}-lion-path"] = (directional_lion_path(tree, far, Fraction(3, 4), 60),
                                           1000)
    tree = float_tree()
    pts = [lm.vertex_point("v17"), lm.edge_point(5, tree.edges[5][2] * 0.37), lm.vertex_point("v9"),
           lm.edge_point(11, tree.edges[11][2] / 3), lm.edge_point(lm.RAY_EDGE, 2.5)]
    # float params: the samples' float offsets meet the float shadows of
    # the decimal lengths
    tour = lm.Curve(tree, tuple(lm.curves._chord_params(tree, pts)), tuple(pts))
    out["float-lengths-tour"] = (tour, 700)
    out["float-lengths-segment"] = (lm.geodesic_segment_curve(
        tree, lm.vertex_point("v20"), lm.edge_point(lm.RAY_EDGE, 3.0), n_samples=9), 500)
    ray_tree = lm.ray_tree()
    out["ray-edge"] = (lm.Curve(ray_tree, (Fraction(0), Fraction(1, 3), Fraction(5), Fraction(9)),
                                tuple(lm.edge_point(lm.RAY_EDGE, t) for t in
                                      (Fraction(0), Fraction(1, 3), Fraction(5), Fraction(9)))),
                       400)
    out["ray-lion-path"] = (directional_lion_path(ray_tree, "q", Fraction(2, 3), 60), 1000)
    # intervals of length 0: repeated points at increasing params
    for name, space, p, q in (
            ("plane", lm.EuclideanSpace(2), lm.epoint(1, 2), lm.epoint(-3, 0.5)),
            ("box", lm.L2BoxSpace(3, 4.0), lm.boxpoint(0, 1, 2), lm.boxpoint(4, 0, 60)),
            ("disk", lm.HyperbolicPlane(), lm.hpoint(0.3, -0.2), lm.hpoint(-0.5, 0.6)),
            ("tree", ray_tree, lm.edge_point(0, Fraction(1, 3)), lm.edge_point(lm.RAY_EDGE, 2.0))):
        out[f"zero-length-{name}"] = (lm.Curve(space, (0.0, 1.0, 2.0, 3.0), (p, p, q, q)), 50)
    return out


@pytest.mark.parametrize("name", sorted(row_curves()))
def test_grid_rows_equal_the_rows_of_the_placed_points(name):
    curve, grid = row_curves()[name]
    assert_rows_match(curve, grid)
    assert_rows_match(curve, grid // 3 + 2, k=float(curve.t_max - curve.t_min) / 7)


def chain_values(points, rng, per_interval):
    # sorted us strictly inside (0, 1) on every interval of the chain, the
    # least float above 0 and the greatest below 1 among them
    slots = np.repeat(np.arange(1, len(points)), per_interval)
    us = rng.uniform(0.0, 1.0, (len(points) - 1, per_interval))
    us[:, 0], us[:, 1] = 5e-324, 1.0 - 2.0**-53
    return slots, np.sort(np.where(us == 0.0, 0.5, us), axis=1).ravel()


def chain_rows(space, points, rng, per_interval):
    slots, us = chain_values(points, rng, per_interval)
    rows = space._arrays(points)
    placed = lm.spaces.Space._rows_along(space, points, rows, slots, us)
    return space._rows_along(points, rows, slots, us), placed


def test_disk_rows_keep_the_bits_of_complex_arithmetic():
    # far points, points on the axes with either sign of zero, and repeats
    disk = lm.HyperbolicPlane()
    rng = np.random.default_rng(21)
    points = [disk.random_point(rng, scale=float(rng.uniform(0.1, 25.0))) for _ in range(300)]
    for x in (0.0, -0.0, 0.3, -0.7):
        for y in (0.0, -0.0, 0.45, -0.2):
            points += [lm.hpoint(x, y), lm.hpoint(y, x)]
    points += points[:3] + points[:3]
    rng.shuffle(points)
    got, want = chain_rows(disk, points, rng, 60)
    assert len(got) > 20_000
    assert_same_bits(got, want)


# The disk kernel meets the float operands th and 1.0 of its complex
# arithmetic as complex(x, 0.0), as CPython before 3.14 does.  From 3.14 a
# float operand stays real; the emulation below follows those rules term by
# term in Python floats.  The two may differ only in the signs of zeros,
# which the distance tiles square away.


def c_quot(ar, ai, br, bi):
    # CPython's _Py_c_quot for b != 0
    if abs(br) >= abs(bi):
        ratio = bi / br
        den = br + bi * ratio
        return (ar + ai * ratio) / den, (ai - ar * ratio) / den
    ratio = br / bi
    den = br * ratio + bi
    return (ar * ratio + ai) / den, (ai * ratio - ar) / den


def real_operand_rows(disk, points, slots, us):
    """The disk's `_rows_along` under the rules that keep a float operand real."""
    out = []
    for q, u in zip(slots.tolist(), us.tolist()):
        x, y = points[q - 1], points[q]
        a = disk._c(x)
        w = disk._to_origin(a, disk._c(y))
        if abs(w) == 0.0:
            out.append(x.coords)
            continue
        e = w / abs(w)
        th = math.tanh(0.5 * (u * disk._dist(x, y)))
        zr, zi = th * e.real, th * e.imag  # th * direction, th real
        cr, ci = a.real, -a.imag
        pr, pi = cr * zr - ci * zi, cr * zi + ci * zr  # a.conjugate() * z
        out.append(c_quot(zr + a.real, zi + a.imag, 1.0 + pr, pi))  # (z + a) / (1.0 + p), 1.0 real
    return disk._with_den(np.asarray(out, dtype=float))


def test_disk_rows_differ_from_real_operand_rules_only_in_signs_of_zeros():
    disk = lm.HyperbolicPlane()
    rng = np.random.default_rng(2114)
    points = [disk.random_point(rng, scale=30.0) for _ in range(250)]
    far = math.tanh(15.0)  # hyperbolic radius 30
    for x in (0.0, -0.0, 0.3, -0.7, far, -far):
        for y in (0.0, -0.0, 0.45, -far):
            if x * x + y * y < 1.0:
                points += [lm.hpoint(x, y), lm.hpoint(y, x)]
    rng.shuffle(points)
    # a start on the imaginary axis with either sign of zero, toward points
    # whose direction has a zero or negative part: at u = 5e-324 th is 0.0
    # and the two rule sets give zeros of opposite signs
    for ay in (-0.3, 0.3, -0.0, 0.0):
        for b in ((-0.2, -0.5), (-0.1, 0.2), (0.0, -0.4), (-0.0, 0.4), (0.3, -0.2)):
            points += [lm.hpoint(-0.0, ay), lm.hpoint(*b), lm.hpoint(0.0, ay), lm.hpoint(*b)]
    slots, us = chain_values(points, rng, 80)
    rows = disk._arrays(points)
    got = disk._rows_along(points, rows, slots, us)
    want = real_operand_rows(disk, points, slots, us)
    assert len(got) > 20_000
    assert (got == want).all()
    assert (np.signbit(got) != np.signbit(want)).any()
    # a placement that rounds out of the disk near radius 30 has no distance
    inside = got[:, 2] > 0.0
    got, want = got[inside], want[inside]
    cols = np.concatenate([rows, got[::997], want[::991]])
    assert_same_bits(disk._table(got, cols), disk._table(want, cols))
    assert_same_bits(disk._table(cols, got), disk._table(cols, want))


@pytest.mark.parametrize("name", ["tree40", "float-lengths", "caterpillar", "ray"])
def test_tree_rows_keep_the_bits_of_the_walk(name):
    tree = {"tree40": ray_tree40(5), "float-lengths": float_tree(), "caterpillar": caterpillar(),
            "ray": lm.ray_tree()}[name]
    rng = np.random.default_rng(17)
    sampler = lm.PointSampler(tree, scale=3, seed=2)
    points = [sampler.draw() for _ in range(60)] + [lm.vertex_point(v) for v in tree.vertices]
    # float offsets, inside edges and on the ray
    points += tree.geodesic_points(points[0], points[1], sorted(rng.uniform(0, 1, 20).tolist()))
    points += [lm.edge_point(lm.RAY_EDGE, float(x)) for x in rng.uniform(0.0, 5.0, 10)]
    points += points[:4]
    rng.shuffle(points)
    got, want = chain_rows(tree, points, rng, 30)
    assert_same_bits(got, want)


def test_tree_rows_at_float_ties_go_through_the_walk(monkeypatch):
    # on the caterpillar's 1/3 and 5/7 edges a float s can equal a leg's
    # float length, which the exact length only approximates; the values
    # aimed at such ties, and at the vertices between legs, take `_along`.
    # From a float offset off on an edge of float length f, the walk to
    # its end ties at s = f - off, and off + (f - off) can round below f:
    # there only the tie keeps the value off the open edge
    tree = caterpillar()
    ends = [lm.vertex_point(v) for v in tree.vertices]
    ends += [lm.edge_point(e, length * Fraction(k, 3)) for e, (_, _, length) in
             enumerate(tree.edges) for k in (1, 2)]
    ends.append(lm.edge_point(lm.RAY_EDGE, Fraction(2, 3)))
    floats = [lm.edge_point(e, float(length) * k / 17) for e, (_, _, length) in
              enumerate(tree.edges) for k in range(1, 17)]
    assert any(p.offset + (float(tree.edges[p.edge][2]) - p.offset) < float(tree.edges[p.edge][2])
               for p in floats)
    walked = []
    along = lm.spaces.Space._rows_along
    monkeypatch.setattr(lm.spaces.Space, "_rows_along",
                        lambda self, *args: walked.append(len(args[2])) or along(self, *args))
    aimed = 0
    for x in ends + floats:
        for y in ends:
            d = tree.distance(x, y)
            us = []
            for v in map(lm.vertex_point, tree.vertices):
                dv = tree.distance(x, v)
                if 0 < dv < d and dv + tree.distance(v, y) == d:
                    t = float(dv) / float(d)
                    us += [math.nextafter(t, 0.0), t, math.nextafter(t, 1.0)]
            us = np.array(sorted(set(u for u in us if 0.0 < u < 1.0)))
            if not len(us):
                continue
            slots = np.ones(len(us), dtype=int)
            rows = tree._arrays([x, y])
            assert_same_bits(tree._rows_along([x, y], rows, slots, us),
                             tree._arrays(tree._along(x, y, us.tolist())))
            aimed += len(us)
    assert aimed > 3000 and 300 < sum(walked) < aimed


def test_grid_checks_place_tree_values_without_a_point_each(monkeypatch):
    # one grid-1000 k-local check of a lion path: one `_on_edge` call per
    # grid value when every value was placed as a point, now a few at most
    tree = ray_tree40(3)
    path = directional_lion_path(tree, "v11", Fraction(3, 4), 100)
    calls = []
    on_edge = lm.RTreeSpace._on_edge
    monkeypatch.setattr(lm.RTreeSpace, "_on_edge",
                        lambda self, *args: calls.append(args) or on_edge(self, *args))
    rep = lm.check_quasi_geodesic(path, ROOT2, 0.0, 1000, k=9)
    assert rep.passed and rep.n_pairs > 10_000
    assert len(calls) <= 5


# -- the float path never reaches fractions.py once per grid value


def fraction_calls(run):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_filename == fractions.__file__

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_tree_grid_checks_touch_fractions_once_per_sample_not_per_grid_value():
    rng = np.random.default_rng(6)
    base = lm.random_tree(rng, n_vertices=20)
    tree = lm.RTreeSpace(base.vertices, base.edges, ray_at="v3")
    ray = lm.tree_ray_curve(tree)
    # float offsets at every sample but the two ends
    segment = lm.geodesic_segment_curve(tree, lm.vertex_point("v17"), ray.at(Fraction(9)),
                                        n_samples=12)
    D = Fraction(3, 4)
    man = lm.man_directional_strategy(ray, D)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=30, tol=1e-9,
                        lion_start=lm.vertex_point("v17"), man_start=man.start())
    path = lm.curve_from_transcript(tree, lm.run_game(cfg, man), 12 * D)[1]
    assert {type(t) for t in path.params} == {Fraction}
    for curve, lam, k in ((segment, 1.0, None), (segment, 1.0, 2.5), (path, 1.0, None),
                          (path, ROOT2, 12 * D)):
        # at grid 100 every sample interval already holds grid values
        samples = set(curve.params)
        slots = {bisect.bisect(curve.params, t) for t in _merged_params(curve, 100)[0]
                 if t not in samples}
        assert len(slots) == len(curve.params) - 1 < 40
        counts = [fraction_calls(lambda: lm.check_quasi_geodesic(curve, lam, 0.0, grid, k=k))
                  for grid in (100, 400)]
        assert counts[0] == counts[1] > 0, (curve.meta, k, counts)


# -- memory


def traced_peak_mib(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_grid_checks_hold_no_square_pair_arrays():
    # the dense pair arrays took 399.5 MiB (box, grid 2000) and 187.0 MiB
    # (tube); whole 64-row blocks took 7.1, 1.7 and, at grid 5000, 17.5 MiB,
    # where tiles of at most _TILE pairs take 1.2, 1.3 and 1.5 MiB
    box = lm.l2_example_curve()
    tube = lm.hyperbolic_tube_curve(length=20.0, step=1.0, amplitude=0.2, seed=1)
    lam = math.sqrt(11.0 / 3.0)
    box_2000 = traced_peak_mib(lambda: lm.check_quasi_geodesic(box, lam, 0.0, 2000))
    assert box_2000 < 2.5
    assert traced_peak_mib(lambda: lm.check_quasi_geodesic(tube, ROOT2, 0.0, 2000, k=3)) < 2.5
    box_5000 = traced_peak_mib(lambda: lm.check_quasi_geodesic(box, lam, 0.0, 5000))
    assert box_5000 < 2.5 and box_5000 - box_2000 < 1.0


def test_sequences_and_defects_hold_no_square_tables():
    # with the square tables: 427.3 MiB for the sequence, 99.6 MiB for the
    # 3g x 3g defect tables; with whole 64-row blocks and whole sides 9.8 and
    # 17.4 MiB; in tiles 0.8 and 1.3 MiB
    plane = lm.EuclideanSpace(2)
    rng = np.random.default_rng(0)
    pts = [lm.epoint(float(i), float(rng.uniform(-0.3, 0.3))) for i in range(4000)]
    assert traced_peak_mib(lambda: lm.check_directional_sequence(plane, pts, 1.0)) < 2.5
    x, y, z = lm.epoint(0, 0), lm.epoint(5, 0), lm.epoint(1, 4)
    assert traced_peak_mib(lambda: lm.cat_defect(plane, x, y, z, 600)) < 2.5
