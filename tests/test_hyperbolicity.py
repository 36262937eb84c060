import math
import operator
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.curves import _worse
from lionman.errors import DegenerateInputError, GeometryError

from conftest import distance_table, sampler_for

SPACE_KINDS = ["euclidean", "hyperbolic", "l2box", "rtree"]


# -- Gromov product ------------------------------------------------------------


def test_gromov_product_collapses_when_equal(euclid2):
    x, y = lm.epoint(0, 0), lm.epoint(3, 4)
    assert lm.gromov_product(euclid2, x, y, y) == 5.0


def test_gromov_product_collinear():
    line = lm.EuclideanSpace(1)
    x, y, z = lm.epoint(0), lm.epoint(3), lm.epoint(5)
    assert lm.gromov_product(line, x, y, z) == 3.0


def test_gromov_product_tripod_median(tripod):
    d, a, b = lm.vertex_point("d"), lm.vertex_point("a"), lm.vertex_point("b")
    g = lm.gromov_product(tripod, d, a, b)
    assert g == 1
    # brute-force median: the sampled point minimizing the summed distances
    best, best_pt = None, None
    for e in range(3):
        for j in range(33):
            p = lm.edge_point(e, Fraction(j, 32))
            s = sum(tripod.distance(p, q) for q in (d, a, b))
            if best is None or s < best:
                best, best_pt = s, p
    assert g == tripod.distance(d, best_pt)


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_gromov_product_bounds(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=19)
    for _ in range(40):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        g = lm.gromov_product(space, x, y, z)
        assert float(g) >= -1e-12
        assert float(g) <= float(min(space.distance(x, y), space.distance(x, z))) + 1e-12


# -- comparison angles -----------------------------------------------------------


def test_comparison_angle_equilateral(euclid2):
    apex, y, z = lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(0.5, math.sqrt(3) / 2)
    assert lm.comparison_angle(euclid2, apex, y, z) == pytest.approx(math.pi / 3, abs=1e-12)


def test_comparison_angle_coincident_targets(euclid2):
    apex, y = lm.epoint(0, 0), lm.epoint(2, 1)
    assert lm.comparison_angle(euclid2, apex, y, y) == 0.0


def test_comparison_angle_right(euclid2):
    apex, y, z = lm.epoint(0, 0), lm.epoint(3, 0), lm.epoint(0, 4)
    assert lm.comparison_angle(euclid2, apex, y, z) == pytest.approx(math.pi / 2, abs=1e-12)


def test_comparison_angle_degenerate_raises(euclid2):
    with pytest.raises(DegenerateInputError):
        lm.comparison_angle(euclid2, lm.epoint(0, 0), lm.epoint(0, 0), lm.epoint(1, 0))


def test_comparison_angle_symmetry_and_continuity(euclid2):
    apex, y, z = lm.epoint(0, 0), lm.epoint(2, 0.3), lm.epoint(0.4, 1.7)
    a1 = lm.comparison_angle(euclid2, apex, y, z)
    assert a1 == lm.comparison_angle(euclid2, apex, z, y)
    for eta in (1e-3, 1e-4, 1e-5):
        y2 = lm.epoint(2 + eta, 0.3)
        a2 = lm.comparison_angle(euclid2, apex, y2, z)
        assert abs(a2 - a1) <= 10 * eta


def test_comparison_triangle_planting():
    tri = lm.ComparisonTriangle.from_sides(3.0, 4.0, 5.0)
    assert tri.planted_residual() <= 1e-12
    tri2 = lm.ComparisonTriangle.from_sides(2.0, 11.0, 10.5)
    assert tri2.planted_residual() <= 1e-12


# -- Alexandrov angles -------------------------------------------------------------


def test_alexandrov_euclidean_right_angle(euclid2):
    ang = lm.alexandrov_angle(euclid2, lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(0, 1))
    assert ang == pytest.approx(math.pi / 2, abs=1e-12)


def test_alexandrov_tripod_branching(tripod):
    c, a, b = lm.vertex_point("c"), lm.vertex_point("a"), lm.vertex_point("b")
    assert lm.alexandrov_angle(tripod, c, a, b) == math.pi
    mid = tripod.geodesic_point(c, a, Fraction(1, 2))
    assert lm.alexandrov_angle(tripod, c, a, mid) == 0.0


def test_alexandrov_degenerate(tripod):
    c = lm.vertex_point("c")
    with pytest.raises(DegenerateInputError):
        lm.alexandrov_angle(tripod, c, c, lm.vertex_point("a"))


def alexandrov_angle_by_halving(space, apex, y, z, tol=1e-6, max_halvings=40):
    """Comparison angles at scales h, h/2, h/4, ..., until two differ by less than tol.

    A reference for the closed forms that works in any family.
    """
    ty, tz = 0.5, 0.5
    prev = None
    for _ in range(max_halvings):
        py = space.geodesic_point(apex, y, ty)
        pz = space.geodesic_point(apex, z, tz)
        ang = lm.comparison_angle(space, apex, py, pz)
        if prev is not None and abs(ang - prev) < tol:
            return ang
        prev = ang
        ty /= 2.0
        tz /= 2.0
    return prev


def test_alexandrov_halving_fallback_matches_exact(euclid2, hyper):
    apex, y, z = lm.epoint(0.1, 0.2), lm.epoint(1.5, 0.4), lm.epoint(0.3, 1.1)
    exact = lm.alexandrov_angle(euclid2, apex, y, z)
    assert alexandrov_angle_by_halving(euclid2, apex, y, z) == pytest.approx(exact, abs=1e-5)
    apex, y, z = lm.hpoint(0.05, 0.0), lm.hpoint(0.5, 0.1), lm.hpoint(0.1, 0.6)
    exact = lm.alexandrov_angle(hyper, apex, y, z)
    assert alexandrov_angle_by_halving(hyper, apex, y, z) == pytest.approx(exact, abs=1e-4)


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_alexandrov_below_comparison_angle(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=59)
    checked = 0
    while checked < 100:
        apex, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        if space.distance(apex, y) == 0 or space.distance(apex, z) == 0:
            continue
        alex = lm.alexandrov_angle(space, apex, y, z)
        comp = lm.comparison_angle(space, apex, y, z)
        assert alex <= comp + 1e-9
        checked += 1


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_angle_triangle_inequality(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=61)
    checked = 0
    while checked < 60:
        apex, p, q, r = (sampler.draw() for _ in range(4))
        if any(space.distance(apex, w) == 0 for w in (p, q, r)):
            continue
        a12 = lm.alexandrov_angle(space, apex, p, q)
        a13 = lm.alexandrov_angle(space, apex, p, r)
        a32 = lm.alexandrov_angle(space, apex, r, q)
        assert a12 <= a13 + a32 + 1e-6
        checked += 1


# -- slimness -----------------------------------------------------------------------


def test_slim_defect_tripod_exactly_zero(tripod):
    rep = lm.slim_defect(tripod, lm.vertex_point("a"), lm.vertex_point("b"),
                         lm.vertex_point("d"), grid=16)
    assert rep.value == 0


def test_slim_defect_collinear_euclidean(euclid2):
    rep = lm.slim_defect(euclid2, lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(2, 0), grid=32)
    assert rep.value <= 1e-12


def test_slim_defect_against_double_grid_oracle(euclid2):
    x, y, z = lm.epoint(0, 0), lm.epoint(2, 0), lm.epoint(1, 1)
    rep = lm.slim_defect(euclid2, x, y, z, grid=200)

    def seg_dist(p, a, b):
        a, b, p = (np.asarray(v, dtype=float) for v in (a, b, p))
        t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
        return float(np.linalg.norm(p - (a + t * (b - a))))

    verts = [(0, 0), (2, 0), (1, 1)]
    sides = [(0, 1), (1, 2), (2, 0)]
    worst = 0.0
    for i, (s0, s1) in enumerate(sides):
        a, b = np.asarray(verts[s0], dtype=float), np.asarray(verts[s1], dtype=float)
        for j in range(400):
            p = a + (b - a) * j / 399
            others = [sides[m] for m in range(3) if m != i]
            d = min(seg_dist(p, verts[o0], verts[o1]) for o0, o1 in others)
            worst = max(worst, d)
    assert abs(float(rep.value) - worst) <= 0.01
    assert rep.value >= 0
    assert rep.grid == 200


def test_slimness_witness_consistency(hyper):
    sampler = sampler_for(hyper, seed=3)
    x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
    rep = lm.slim_defect(hyper, x, y, z, grid=24)
    sides = {0: (x, y), 1: (y, z), 2: (z, x)}
    a, b = sides[rep.witness_side]
    p = hyper.geodesic_point(a, b, rep.witness_param)
    assert hyper.distance(p, rep.witness_point) <= 1e-9


def test_estimate_delta_rtree_zero(tripod):
    sampler = lm.PointSampler(tripod, scale=2, seed=9)
    assert lm.estimate_delta(tripod, sampler, trials=30, grid=12) == 0


def test_estimate_delta_euclidean_grows_with_scale(euclid2):
    d1 = lm.estimate_delta(euclid2, lm.PointSampler(euclid2, 2.0, seed=15), 20, grid=20)
    d2 = lm.estimate_delta(euclid2, lm.PointSampler(euclid2, 4.0, seed=15), 20, grid=20)
    assert 1.5 <= d2 / d1 <= 2.5


def test_estimate_delta_hyperbolic_bounded_in_scale(hyper):
    vals = [float(lm.estimate_delta(hyper, lm.PointSampler(hyper, s, seed=15), 12, grid=20))
            for s in (1.0, 5.0, 10.0, 15.0)]
    assert vals[0] < vals[-1]
    assert all(v < 1.0 for v in vals)
    assert vals[-1] - vals[-2] < 0.1  # flattening, unlike the flat plane


# -- equidistant-pair criterion --------------------------------------------------------


def test_gromov_criterion_tree_passes_at_zero(tripod):
    rng = np.random.default_rng(8)
    triples = [tuple(tripod.random_point(rng) for _ in range(3)) for _ in range(10)]
    rep = lm.check_gromov_criterion(tripod, triples, 0)
    assert rep.passed
    assert rep.sup == 0


def test_gromov_criterion_euclidean_far_triple_fails(euclid2):
    triple = (lm.epoint(0, 0), lm.epoint(100, 1), lm.epoint(100, -1))
    rep = lm.check_gromov_criterion(euclid2, [triple], 1.0)
    assert not rep.passed
    assert float(rep.sup) > 1.0
    product = lm.gromov_product(euclid2, *triple)
    _, r, _ = rep.witness
    assert abs(float(r) - float(product)) <= float(product) * 0.1


def test_gromov_criterion_vacuous_when_y_equals_x(euclid2):
    x = lm.epoint(0, 0)
    rep = lm.check_gromov_criterion(euclid2, [(x, x, lm.epoint(1, 0))], 0.0)
    assert rep.passed
    assert rep.sup == 0


# -- flat comparison defect ---------------------------------------------------------------


def test_cat_defect_euclidean_zero(euclid2):
    v = lm.cat_defect(euclid2, lm.epoint(0, 0), lm.epoint(2, 0), lm.epoint(1, 1), grid=16)
    assert abs(v) <= 1e-9


def test_cat_defect_tripod_strictly_negative(tripod):
    v = lm.cat_defect(tripod, lm.vertex_point("a"), lm.vertex_point("b"),
                      lm.vertex_point("d"), grid=16)
    assert v < -1e-3


def test_cat_defect_degenerate_triangle(euclid2):
    v = lm.cat_defect(euclid2, lm.epoint(0, 0), lm.epoint(2, 0), lm.epoint(1, 0), grid=12)
    assert abs(v) <= 1e-9


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_cat_defect_nonpositive_everywhere(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=71)
    for _ in range(25):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        assert lm.cat_defect(space, x, y, z, grid=8) <= 1e-7


# -- quasi-geodesic slimness -----------------------------------------------------------------


def test_quasi_slim_lambda_one_matches_delta(hyper, tripod):
    for space, scale in ((hyper, 4.0), (tripod, 2)):
        d = lm.estimate_delta(space, lm.PointSampler(space, scale, seed=33), 6, grid=16)
        m = lm.estimate_quasi_slim_M(space, 1, lm.PointSampler(space, scale, seed=33), 6, grid=16)
        assert m == d


def test_quasi_slim_monotone_in_lambda(hyper):
    vals = []
    for lam in (1.0, 1.2, math.sqrt(2)):
        sampler = lm.PointSampler(hyper, 4.0, seed=11)
        vals.append(float(lm.estimate_quasi_slim_M(hyper, lam, sampler, 6, grid=16)))
    assert vals[0] <= vals[1] + 1e-12
    assert vals[1] <= vals[2] + 1e-12


def test_quasi_slim_sqrt2_hyperbolic_finite(hyper):
    sampler = lm.PointSampler(hyper, 4.0, seed=11)
    m = float(lm.estimate_quasi_slim_M(hyper, math.sqrt(2), sampler, 6, grid=16))
    d = float(lm.estimate_delta(hyper, lm.PointSampler(hyper, 4.0, seed=11), 6, grid=16))
    assert m >= d
    assert m < 5.0


# -- slimness against the per-point projection loop ------------------------------------------


def dist_to_chain(space, p, chain):
    """Reference: the smallest project_to_segment distance over the chain's segments."""
    best = None
    for a, b in zip(chain, chain[1:]):
        _, d = space.project_to_segment(p, lm.Segment(a, b))
        if best is None or d < best:
            best = d
    return best


def slimness_by_projection(space, chains, sample_sets):
    """Reference: each sample's distance to the other two sides, and the first largest."""
    near, worst = {}, None
    for i, samples in enumerate(sample_sets):
        others = [c for j, c in enumerate(chains) if j != i]
        for t, p in samples:
            d = min(dist_to_chain(space, p, others[0]), dist_to_chain(space, p, others[1]))
            near[i, float(t)] = d
            if worst is None or d > worst[0]:
                worst = (d, (i, float(t)))
    return near, worst


SLIM_SPACES = {
    "disk": (lm.HyperbolicPlane(), 3.0),
    "plane": (lm.EuclideanSpace(2), 3.0),
    "tripod": (lm.tripod(), 2),
    "tree40": (lm.random_tree(np.random.default_rng(5), n_vertices=40), 4),
    "one-vertex": (lm.RTreeSpace(["v"], []), 1),
}


@pytest.mark.parametrize("name", sorted(SLIM_SPACES))
@pytest.mark.parametrize("lam", [1, 1.5, math.sqrt(2)])
def test_slimness_matches_the_projection_loop(monkeypatch, name, lam):
    # every slimness report of slim_defect (lambda = 1) and of the quasi
    # triangles against the loop it replaced: exact trees agree exactly, in
    # value, type and witness; elsewhere the values agree to 1e-12 and a
    # witness may move only to a sample whose reference value ties the largest
    space, scale = SLIM_SPACES[name]
    chain_slimness = lm.hyperbolicity._chain_slimness
    reports = []

    def checked(space, chains, sample_sets, grid):
        rep = chain_slimness(space, chains, sample_sets, grid)
        near, (value, witness) = slimness_by_projection(space, chains, sample_sets)
        got = rep.value
        assert type(got) in (float, Fraction) and got >= 0
        if isinstance(value, Fraction):
            assert got == value and type(got) is Fraction
            assert (rep.witness_side, rep.witness_param) == witness
        else:
            tol = 1e-12 * max(1.0, value)
            assert abs(got - value) <= tol
            assert abs(near[rep.witness_side, rep.witness_param] - value) <= tol
        reports.append(value)
        return rep

    monkeypatch.setattr(lm.hyperbolicity, "_chain_slimness", checked)
    for seed in (3, 8):
        got = lm.estimate_quasi_slim_M(space, lam, lm.PointSampler(space, scale, seed=seed),
                                       trials=3, grid=10)
        want = max([0] + reports)
        if isinstance(want, Fraction):
            assert got == want and type(got) is Fraction
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, want)
        reports.clear()


def cat_defect_by_blocks(space, x, y, z, grid):
    """Reference: one distance block per pair of sides, as three separate calls."""
    tri = lm.ComparisonTriangle.from_points(space, x, y, z)
    verts, sides = [x, y, z], [(0, 1), (0, 2), (1, 2)]
    ts = [(j + 1) / (grid + 1) for j in range(grid)]
    pts, flat = {}, {}
    for i, j in sides:
        dij = float(space.distance(verts[i], verts[j]))
        pts[i, j] = [space.geodesic_point(verts[i], verts[j], t) for t in ts]
        flat[i, j] = [tri.side(i, j, t * dij) for t in ts]
    worst = -math.inf
    for s1 in range(3):
        for s2 in range(s1 + 1, 3):
            ps, qs = pts[sides[s1]], pts[sides[s2]]
            dmat = distance_table(space, ps + qs)[:grid, grid:]
            fp, fq = np.asarray(flat[sides[s1]]), np.asarray(flat[sides[s2]])
            fmat = np.linalg.norm(fp[:, None, :] - fq[None, :, :], axis=-1)
            worst = max(worst, float((dmat - fmat).max()))
    return worst


@pytest.mark.parametrize("kind", SPACE_KINDS)
def test_cat_defect_matches_the_three_block_loop(all_spaces, kind):
    space = all_spaces[kind]
    sampler = sampler_for(space, seed=19)
    for trial in range(12):
        x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
        for grid in (2, 5, 11):
            assert lm.cat_defect(space, x, y, z, grid) == cat_defect_by_blocks(space, x, y, z, grid)


# -- the NaN rule: a NaN distance is worse than any number, the first one
# is the witness, and the certificate fails


def far_disk_triangles(n, seed=0):
    """Seeded disk triangles with vertices at hyperbolic radius 10 to 29.5.

    Their sides pass so close to the rim that some sample points round out
    of the disk, and the distances from those to the other sides are NaN.
    """
    rng = np.random.default_rng(seed)

    def far():
        s, theta = rng.uniform(10.0, 29.5), rng.uniform(0.0, 2.0 * math.pi)
        r = math.tanh(s / 2.0)
        return lm.hpoint(r * math.cos(theta), r * math.sin(theta))
    return [(far(), far(), far()) for _ in range(n)]


def first_nan_sample(space, tri, grid):
    # (side, t, point) of the first sample whose distance to either other side is NaN
    ts = [Fraction(j, grid - 1) for j in range(grid)]
    sides = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
    for i, (a, b) in enumerate(sides):
        pts = space.geodesic_points(a, b, ts)
        others = [list(sides[j]) for j in range(3) if j != i]
        with np.errstate(invalid="ignore"):
            near = zip(*(space._to_chain(pts, chain) for chain in others))
        for t, p, ds in zip(ts, pts, near):
            if any(math.isnan(d) for d in ds):
                return i, float(t), p
    return None


def test_far_disk_triangles_that_meet_a_nan_report_nan_slimness(hyper):
    met = 0
    for tri in far_disk_triangles(40):
        with np.errstate(invalid="ignore"):
            rep = lm.slim_defect(hyper, *tri, 24)
        first = first_nan_sample(hyper, tri, 24)
        if first is None:
            assert not math.isnan(rep.value)
            continue
        met += 1
        assert math.isnan(rep.value)
        assert (rep.witness_side, rep.witness_param, rep.witness_point) == first
    assert met >= 10


def test_a_nan_slimness_is_the_estimate(hyper):
    # seed 0 at scale 29.5: some of the eight triangles meet a NaN
    sampler = lm.PointSampler(hyper, scale=29.5, seed=0)
    values = []
    with np.errstate(invalid="ignore"):
        for _ in range(8):
            values.append(lm.slim_defect(hyper, sampler.draw(), sampler.draw(),
                                         sampler.draw(), 24).value)
        got = [lm.estimate_delta(hyper, lm.PointSampler(hyper, scale=29.5, seed=0), 8, 24),
               lm.estimate_quasi_slim_M(hyper, 1, lm.PointSampler(hyper, scale=29.5, seed=0),
                                        8, 24)]
    assert any(math.isnan(v) for v in values) and not math.isnan(values[0])
    assert all(math.isnan(v) for v in got)


def test_a_nan_quasi_slimness_stays_the_estimate(monkeypatch, euclid2):
    # a NaN chain distance in the first trial only; the later trials'
    # finite values do not replace it
    sampler = lambda: lm.PointSampler(euclid2, scale=3.0, seed=6)
    assert not math.isnan(lm.estimate_quasi_slim_M(euclid2, 1.5, sampler(), 4, 8))
    calls = []
    to_chain = euclid2._to_chain

    def poisoned(points, chain):
        calls.append(1)
        out = to_chain(points, chain)
        return [math.nan] + out[1:] if len(calls) == 2 else out
    monkeypatch.setattr(euclid2, "_to_chain", poisoned)
    assert math.isnan(lm.estimate_quasi_slim_M(euclid2, 1.5, sampler(), 4, 8))
    assert len(calls) == 4 * 3  # one call per side of each trial


def chain_slimness_by_two_chains(space, chains, sample_sets, grid):
    """Reference: each side against the other two in two calls, merged by hand."""
    worst = None
    for i, samples in enumerate(sample_sets):
        others = [c for j, c in enumerate(chains) if j != i]
        points = [p for _, p in samples]
        near = [b if _worse(b, a) else a for a, b in zip(space._to_chain(points, others[0]),
                                                          space._to_chain(points, others[1]))]
        for (t, p), d in zip(samples, near):
            if worst is None or _worse(d, worst[0], operator.gt):
                worst = (d, i, t, p)
    value, side, t, p = worst
    return lm.SlimnessReport(value=value, witness_side=side, witness_param=float(t),
                             witness_point=p, grid=grid)


def slimness_reports(space, scale, seed):
    """slim_defect on seeded triangles, then both estimates on the same seed, or their errors."""
    sampler = lm.PointSampler(space, scale, seed=seed)
    reports = [lm.slim_defect(space, sampler.draw(), sampler.draw(), sampler.draw(), 12)
               for _ in range(4)]
    for estimate in (lambda s: lm.estimate_delta(space, s, 4, 12),
                     lambda s: lm.estimate_quasi_slim_M(space, 1.5, s, 4, 12)):
        try:
            reports.append(estimate(lm.PointSampler(space, scale, seed=seed)))
        except GeometryError as exc:  # a far disk zigzag node off the disk
            reports.append(exc)
    return reports


JOINED_CHAIN_CASES = {**SLIM_SPACES, "box": (lm.L2BoxSpace(n=3, base=4.0), 2.0),
                      "far-disk": (lm.HyperbolicPlane(), 29.5),
                      "plane-nan": (lm.EuclideanSpace(2), 3.0)}


@pytest.mark.parametrize("name", sorted(JOINED_CHAIN_CASES))
def test_slimness_on_one_joined_chain_is_the_two_chain_merge(monkeypatch, name):
    # every report equals, by repr, the one from measuring each side against
    # the other two sides in two calls.  The far disk meets NaN distances;
    # in plane-nan every distance of a point with x > 1 reads NaN, so the
    # quasi triangles meet them too
    space, scale = JOINED_CHAIN_CASES[name]
    triangles = far_disk_triangles(12) if name == "far-disk" else []
    if name == "plane-nan":
        to_chain = space._to_chain
        monkeypatch.setattr(space, "_to_chain", lambda points, chain: [
            math.nan if p.coords[0] > 1 else d for p, d in zip(points, to_chain(points, chain))])
    runs = []
    with np.errstate(invalid="ignore"):
        for chain_slimness in (lm.hyperbolicity._chain_slimness, chain_slimness_by_two_chains):
            monkeypatch.setattr(lm.hyperbolicity, "_chain_slimness", chain_slimness)
            runs.append([slimness_reports(space, scale, seed) for seed in (0, 4, 9)]
                        + [lm.slim_defect(space, *tri, 24) for tri in triangles])
    assert repr(runs[0]) == repr(runs[1])
    assert ("nan" in repr(runs[0])) == (name in ("far-disk", "plane-nan"))


def nan_at(space, monkeypatch, call):
    """Make the space's distance return NaN on its call number ``call`` (from 0)."""
    calls = []
    distance = space.distance

    def poisoned(x, y):
        calls.append(1)
        return math.nan if len(calls) == call + 1 else distance(x, y)
    monkeypatch.setattr(space, "distance", poisoned)


def test_a_nan_distance_is_the_gromov_criterion_sup(monkeypatch, euclid2):
    # two far triples, each with 3 vertex distances and 16 level distances;
    # the second triple's sixth level reads NaN, and its later levels are larger
    triples = [(lm.epoint(0, 0), lm.epoint(10, 0), lm.epoint(0, 10)),
               (lm.epoint(0, 0), lm.epoint(20, 0), lm.epoint(0, 20))]
    assert not lm.check_gromov_criterion(euclid2, triples, 0.5).passed
    g = lm.gromov_product(euclid2, *triples[1])
    nan_at(euclid2, monkeypatch, 19 + 3 + 5)
    rep = lm.check_gromov_criterion(euclid2, triples, 0.5)
    assert math.isnan(rep.sup) and not rep.passed
    idx, r, d = rep.witness
    assert (idx, r) == (1, g * 6 / 16) and math.isnan(d)
    assert not math.isnan(rep.per_triple[0][1]) and math.isnan(rep.per_triple[1][1])


def test_a_nan_vertex_distance_is_its_triples_measurement(monkeypatch, euclid2):
    triples = [(lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(0, 1)),
               (lm.epoint(0, 0), lm.epoint(20, 0), lm.epoint(0, 20))]
    nan_at(euclid2, monkeypatch, 0)  # d(x, y) of the first triple
    rep = lm.check_gromov_criterion(euclid2, triples, 0.5)
    assert math.isnan(rep.sup) and not rep.passed
    assert rep.witness[0] == 0 and all(math.isnan(v) for v in rep.witness[1:])
