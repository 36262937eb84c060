import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman import analysis
from lionman.errors import InvalidInputError, ThresholdNotMetError


def ray_pursuit_transcript(ray_tree, n_steps=500, D=Fraction(1)):
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_tree), D)
    cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=D, n_steps=n_steps,
                        tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    return lm.run_game(cfg, strat)


def synthetic_lion_transcript(space, lions, men, D=1.0):
    records = []
    for n, (l, m) in enumerate(zip(lions, men)):
        dist = space.distance(l, m)
        records.append(lm.StepRecord(n=n, lion=l, man=m, dist=dist,
                                     gap=max(float(dist) - D, 0.0)))
    return lm.Transcript(space=space, domain=lm.WholeSpace(), D=D, tol=1e-9,
                         n_steps=len(records), seed=None, stop_on_capture=True,
                         records=records, final_lion=lions[len(records)],
                         stop_reason="step-budget", capture_step=None)


# -- turning angles -----------------------------------------------------------------


def test_beta_collinear_tree_chase_is_pi(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=40)
    bs = lm.beta_angles(ray_tree, tr)
    assert bs.gaps == []
    assert all(b == math.pi for b in bs.beta)


def test_beta_euclidean_corner_matches_vector_oracle(euclid2):
    lions = [lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(2, 0), lm.epoint(2, 1)]
    men = [lm.epoint(5, 0), lm.epoint(5, 0), lm.epoint(2, 5), lm.epoint(2, 5)]
    tr = synthetic_lion_transcript(euclid2, lions + [lm.epoint(2, 2)], men)
    bs = lm.beta_angles(euclid2, tr)
    by_step = dict(zip(bs.steps, bs.beta))
    # angle at (2,0) between directions to (1,0) and to (2,5)
    assert by_step[2] == pytest.approx(math.pi / 2, abs=1e-9)
    assert by_step[1] == pytest.approx(math.pi, abs=1e-9)


def test_beta_tail_in_long_ray_game(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=500)
    bs = lm.beta_angles(ray_tree, tr)
    later = [b for n, b in zip(bs.steps, bs.beta) if n >= 10]
    assert min(later) == math.pi
    tail_min, tail_mean = bs.tail_stats()
    assert tail_min == math.pi


def test_beta_plus_alpha_at_least_pi(euclid2, hyper):
    for space, dom, lion, man, D in (
            (euclid2, lm.Ball(lm.epoint(0, 0), 6.0), lm.epoint(-4, 0.3), lm.epoint(4, -0.2), 0.5),
            (hyper, lm.Ball(lm.hpoint(0, 0), 4.0), lm.hpoint(-0.5, 0.1), lm.hpoint(0.5, -0.1), 0.25)):
        cfg = lm.GameConfig(space=space, domain=dom, D=D, n_steps=60, tol=1e-9,
                            lion_start=lion, man_start=man)
        tr = lm.run_game(cfg, lm.GreedyStrategy(dom, directions=10))
        bs = lm.beta_angles(space, tr)
        for b, a in zip(bs.beta, bs.alpha):
            if a is not None:
                assert math.pi <= b + a + 1e-6


def test_beta_skips_degenerate_steps(euclid2):
    lions = [lm.epoint(0, 0), lm.epoint(1, 0), lm.epoint(1, 0), lm.epoint(2, 0)]
    men = [lm.epoint(1, 0), lm.epoint(1, 0), lm.epoint(3, 0), lm.epoint(3, 0)]
    tr = synthetic_lion_transcript(euclid2, lions + [lm.epoint(3, 0)], men)
    bs = lm.beta_angles(euclid2, tr)
    assert 1 in bs.gaps or 2 in bs.gaps


# -- threshold and win curve -----------------------------------------------------------


def test_beta_threshold_values():
    assert lm.beta_threshold(1.0, 1.0) == pytest.approx(math.pi - math.pi / 4)
    assert lm.beta_threshold(12, 1) == pytest.approx(math.pi - math.pi / 48)
    prev = 0.0
    for k in (1, 2, 5, 12, 40):
        th = lm.beta_threshold(k, 1.0)
        assert th > prev
        prev = th
    assert lm.beta_threshold(Fraction(3), Fraction(2)) == math.pi - math.pi / 8


def test_curve_from_transcript_ray_game(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=60)
    n_k, curve = lm.curve_from_transcript(ray_tree, tr, Fraction(12))
    assert n_k == 1
    assert curve.params[0] == 0
    assert curve.params[1] == 1
    for i, p in enumerate(curve.points):
        assert ray_tree.distance(curve.points[0], p) == i


def test_curve_from_transcript_threshold_not_met(euclid2):
    # straight run whose very last measurable angle turns by pi/2
    lions = [lm.epoint(float(i), 0) for i in range(10)] + [lm.epoint(9, 1)]
    men = [lm.epoint(20, 0)] * 9 + [lm.epoint(9, 20), lm.epoint(20, 1)]
    tr = synthetic_lion_transcript(euclid2, lions + [lm.epoint(10, 1)], men)
    with pytest.raises(ThresholdNotMetError) as info:
        lm.curve_from_transcript(euclid2, tr, 12.0)
    assert info.value.best_tail == pytest.approx(math.pi / 2, abs=1e-9)


def test_curve_from_transcript_needs_a_full_speed_move_after_the_threshold(euclid2):
    # the lion runs 1 and then 1/2 onto a man standing 3/2 away: its one
    # angle is straight, but the move after it is short
    cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=1.0, n_steps=10, tol=1e-9,
                        lion_start=lm.epoint(0, 0), man_start=lm.epoint(1.5, 0))
    tr = lm.run_game(cfg, lm.StationaryStrategy())
    assert tr.capture_step == 1 and lm.beta_angles(euclid2, tr).beta == [math.pi]
    with pytest.raises(InvalidInputError, match="no full-speed lion moves"):
        lm.curve_from_transcript(euclid2, tr, 2.0)


def test_verify_mans_win_curve_straight_path(euclid2):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(30, 0), n_samples=31)
    rep = lm.verify_mans_win_curve(c, 6.0, grid=64)
    assert rep.passed
    assert rep.min_ratio >= 1.0 - 1e-9


def test_verify_mans_win_curve_from_game(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=120)
    _, curve = lm.curve_from_transcript(ray_tree, tr, Fraction(12))
    rep = lm.verify_mans_win_curve(curve, Fraction(12), grid=128)
    assert rep.passed


def test_verify_mans_win_curve_non_dyadic_step(ray_tree):
    # the last sample sits at 118/3, whose float rounds above it; the grid
    # must stay inside the sampled range
    D = Fraction(2, 3)
    tr = ray_pursuit_transcript(ray_tree, n_steps=60, D=D)
    _, curve = lm.curve_from_transcript(ray_tree, tr, 12 * D)
    rep = lm.verify_mans_win_curve(curve, 12 * D, 300)
    assert rep.passed
    assert rep.n_pairs > 0


@pytest.mark.parametrize("k", [0, -2, math.nan])
def test_verify_mans_win_curve_rejects_k_that_admits_no_pair(euclid2, k):
    c = lm.geodesic_segment_curve(euclid2, lm.epoint(0, 0), lm.epoint(30, 0), n_samples=31)
    with pytest.raises(InvalidInputError):
        lm.verify_mans_win_curve(c, k, grid=64)


def test_verify_mans_win_curve_sharp_zigzag_fails(euclid2):
    # unit-speed corner with interior angle pi/4: chord shrinks below sqrt(2)/2
    p0 = lm.epoint(0, 0)
    p1 = lm.epoint(1, 0)
    back = math.pi - math.pi / 4
    p2 = lm.epoint(1 + math.cos(back), math.sin(back))
    c = lm.Curve(euclid2, (0.0, 1.0, 2.0), (p0, p1, p2))
    rep = lm.verify_mans_win_curve(c, 2.0, grid=40)
    assert not rep.passed
    assert rep.worst_lower_slack < 0


# -- exact tree audit ---------------------------------------------------------------------


def test_audit_tripod_capture(tripod):
    cfg = lm.GameConfig(space=tripod, domain=lm.WholeSpace(), D=Fraction(1, 2),
                        n_steps=20, tol=1e-9, lion_start=lm.vertex_point("a"),
                        man_start=lm.vertex_point("b"))
    tr = lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace(), directions=4))
    assert tr.stop_reason == "physical-capture"
    audit = lm.rtree_capture_audit(tripod, tr)
    assert audit.passed
    assert all(r == 0 for _, r in audit.colinearity)
    assert all(r == 0 for _, r in audit.dist_residuals)


def test_audit_unbounded_ray_exact(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=500)
    audit = lm.rtree_capture_audit(ray_tree, tr)
    assert audit.passed
    assert audit.final_distance == 500
    assert len(audit.steps) == 500


def test_audit_tampered_transcript_fails(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=20)
    bad = lm.StepRecord(n=7, lion=lm.vertex_point("q"), man=tr.records[7].man,
                        dist=tr.records[7].dist, gap=tr.records[7].gap)
    tr.records[7] = bad
    audit = lm.rtree_capture_audit(ray_tree, tr)
    assert not audit.passed
    assert audit.first_failure == 6


def test_audit_space_mismatch(tripod, ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=10)
    with pytest.raises(InvalidInputError):
        lm.rtree_capture_audit(tripod, tr)


def test_audit_extraction_agreement(ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=60)
    audit = lm.rtree_capture_audit(ray_tree, tr)
    assert audit.passed and tr.capture_step is None
    lions = [r.lion for r in tr.records] + [tr.final_lion]
    ray = lm.extract_ray_from_directional_sequence(ray_tree, lions, 0, k_max=5)
    assert all(r == 0.0 for hist in ray.residuals.values() for r in hist)
    for k, star in zip(ray.ks, ray.stars):
        assert ray_tree.distance(lions[0], star) == k


# -- one certificate pass ----------------------------------------------------------------


def analyze_reference(space, tr, k, grid=256):
    """The certificate logic `lionman analyze` ran inline before `analyze_transcript`."""
    bs = lm.beta_angles(space, tr)
    report = {"beta_tail_min": bs.tail_stats()[0], "beta_tail_mean": bs.tail_stats()[1],
              "angle_gaps": bs.gaps}
    ok = True
    if tr.capture_step is not None:
        report["capture_step"] = tr.capture_step
    else:
        try:
            n_k, curve = lm.curve_from_transcript(space, tr, k)
            qg = lm.verify_mans_win_curve(curve, k, grid=grid)
            report["n_k"] = n_k
            report["local_qg_passed"] = qg.passed
            report["min_ratio"] = qg.min_ratio
            ok = ok and qg.passed
        except ThresholdNotMetError as exc:
            report["threshold_not_met"] = True
            report["best_tail"] = exc.best_tail
            ok = False
    if isinstance(space, lm.RTreeSpace):
        audit = lm.rtree_capture_audit(space, tr)
        report["audit_passed"] = audit.passed
        if audit.final_distance is not None:
            report["final_distance"] = float(audit.final_distance)
        ok = ok and audit.passed
    return report, ok


def greedy_transcript(space, domain, lion, man, D, n_steps):
    cfg = lm.GameConfig(space=space, domain=domain, D=D, n_steps=n_steps, tol=1e-9,
                        lion_start=lion, man_start=man)
    return lm.run_game(cfg, lm.GreedyStrategy(domain, directions=8))


def certificate_games():
    """(name, space, transcript, k) over all four families and every report branch."""
    plane, disk, box = lm.EuclideanSpace(2), lm.HyperbolicPlane(), lm.L2BoxSpace(n=3, base=10.0)
    space3 = lm.EuclideanSpace(3)
    tripod, rays = lm.tripod(), lm.ray_tree()
    tree40 = lm.random_tree(np.random.default_rng(5), 40)
    v = tree40.vertices
    plane_ball = lm.Ball(lm.epoint(0, 0), 6.0)
    disk_ball = lm.Ball(lm.hpoint(0, 0), 4.0)
    turn = synthetic_lion_transcript(
        plane, [lm.epoint(float(i), 0) for i in range(10)] + [lm.epoint(9, 1), lm.epoint(10, 1)],
        [lm.epoint(20, 0)] * 9 + [lm.epoint(9, 20), lm.epoint(20, 1)])
    tampered = ray_pursuit_transcript(rays, n_steps=40)
    rec = tampered.records[7]
    tampered.records[7] = lm.StepRecord(n=7, lion=lm.vertex_point("q"), man=rec.man,
                                        dist=rec.dist, gap=rec.gap)
    return [
        ("tripod-captured", tripod, greedy_transcript(
            tripod, lm.WholeSpace(), lm.vertex_point("a"), lm.vertex_point("b"),
            Fraction(1, 2), 30), Fraction(2)),
        ("tree40-captured", tree40, greedy_transcript(
            tree40, lm.WholeSpace(), lm.vertex_point(v[0]), lm.vertex_point(v[-1]),
            Fraction(1, 3), 80), Fraction(4)),
        ("ray-tree-man-wins", rays, ray_pursuit_transcript(rays, n_steps=80), Fraction(12)),
        ("ray-tree-tampered", rays, tampered, Fraction(12)),
        ("plane-ball", plane, greedy_transcript(
            plane, plane_ball, lm.epoint(0, 0), lm.epoint(3, 1), 0.5, 60), 6.0),
        ("disk-ball", disk, greedy_transcript(
            disk, disk_ball, lm.hpoint(0, 0), lm.hpoint(0.7, 0.3), 0.5, 60), 6.0),
        ("plane-turn-threshold-not-met", plane, turn, 12.0),
        ("space3-whole", space3, greedy_transcript(
            space3, lm.WholeSpace(), lm.epoint(0, 0, 0), lm.epoint(2, 1, -1), 0.5, 40), 6.0),
        ("box-whole", box, greedy_transcript(
            box, lm.WholeSpace(), lm.boxpoint(0, 0, 0), lm.boxpoint(5, 50, 500), 10.0, 30), 120.0),
    ]


CERTIFICATE_GAMES = certificate_games()


@pytest.mark.parametrize("name, space, tr, k", CERTIFICATE_GAMES,
                         ids=[g[0] for g in CERTIFICATE_GAMES])
def test_analyze_transcript_matches_the_inline_reference(name, space, tr, k):
    report, angles, audit, passed = lm.analyze_transcript(space, tr, k)
    ref_report, ref_passed = analyze_reference(space, tr, k)
    assert list(report.items()) == list(ref_report.items())
    assert passed == ref_passed
    assert angles == lm.beta_angles(space, tr)
    if isinstance(space, lm.RTreeSpace):
        assert audit == lm.rtree_capture_audit(space, tr)
    else:
        assert audit is None


def test_analyze_transcript_covers_every_report_branch():
    runs = {name: lm.analyze_transcript(space, tr, k) for name, space, tr, k in CERTIFICATE_GAMES}
    keys = {name: set(run[0]) for name, run in runs.items()}
    assert "capture_step" in keys["tripod-captured"] & keys["tree40-captured"]
    assert {"n_k", "final_distance"} <= keys["ray-tree-man-wins"]
    assert "threshold_not_met" in keys["disk-ball"] & keys["plane-turn-threshold-not-met"]
    assert "min_ratio" in keys["plane-ball"]
    tampered, _, _, passed = runs["ray-tree-tampered"]
    assert tampered["local_qg_passed"] and not tampered["audit_passed"] and not passed


@pytest.mark.parametrize("name, space, tr, k", CERTIFICATE_GAMES,
                         ids=[g[0] for g in CERTIFICATE_GAMES])
def test_analyze_transcript_measures_each_angle_once(name, space, tr, k, monkeypatch):
    # each angle is measured once, from the two sides at the apex that the
    # pass has measured already, and equals `alexandrov_angle` of its points
    calls = []
    angle = space._angle

    def counting(apex, y, z, ay, az):
        calls.append((ay, az) == (space.distance(apex, y), space.distance(apex, z)))
        return angle(apex, y, z, ay, az)

    monkeypatch.setattr(space, "_angle", counting)
    _, angles, _, _ = lm.analyze_transcript(space, tr, k)
    measured = len(angles.beta) + sum(a is not None for a in angles.alpha)
    assert measured > 0
    assert len(calls) == measured and all(calls)
    monkeypatch.undo()
    records = tr.records
    assert angles.beta == [
        lm.alexandrov_angle(space, records[n].lion, records[n - 1].lion, records[n].man)
        for n in angles.steps]
    assert angles.alpha == [
        None if a is None
        else lm.alexandrov_angle(space, records[n].lion, records[n - 1].man, records[n].man)
        for n, a in zip(angles.steps, angles.alpha)]


def win_curve_or_error(run):
    try:
        return repr(run())
    except (ThresholdNotMetError, InvalidInputError) as exc:
        return repr(exc), getattr(exc, "best_tail", None)


@pytest.mark.parametrize("name, space, tr, k", CERTIFICATE_GAMES,
                         ids=[g[0] for g in CERTIFICATE_GAMES])
def test_curve_from_transcript_measures_only_the_betas(name, space, tr, k, monkeypatch):
    # the win curve reads the steps and the betas: d(L_n, M_{n-1}) and the
    # alpha angle go unmeasured, and the result is that of the full angles
    theta = lm.beta_threshold(k, tr.D)
    angles, dists = [], []
    angle, dist = space._angle, space._dist
    monkeypatch.setattr(space, "_angle", lambda *args: angles.append(1) or angle(*args))
    monkeypatch.setattr(space, "_dist", lambda x, y: dists.append(1) or dist(x, y))
    full = analysis._angles(space, tr)
    want = win_curve_or_error(lambda: analysis._win_curve(space, tr, full, theta))
    measured = len(angles), len(dists)
    angles.clear()
    dists.clear()
    assert win_curve_or_error(lambda: lm.curve_from_transcript(space, tr, k)) == want
    alphas = sum(a is not None for a in full.alpha)
    assert len(angles) == len(full.beta) == measured[0] - alphas
    # a tree angle measures d(y, z) as well
    tree = isinstance(space, lm.RTreeSpace)
    assert len(dists) == measured[1] - len(full.steps) - (alphas if tree else 0)


def audit_reference(space, tr):
    """The capture audit as it once measured: three distances at every step."""
    D, lions = tr.D, tr.lion_path()
    steps, colin, dist_res, first_failure, final_distance = [], [], [], None, None
    for n, rec in enumerate(tr.records):
        if not rec.dist > D:
            break
        d0n = space.distance(lions[0], lions[n])
        resid_c = (d0n + space.distance(lions[n], lions[n + 1])
                   - space.distance(lions[0], lions[n + 1]))
        resid_d = abs(d0n - n * D)
        steps.append(n)
        colin.append((n, resid_c))
        dist_res.append((n, resid_d))
        if (resid_c > 0 or resid_d > 0) and first_failure is None:
            first_failure = n
    else:
        n = len(tr.records)
        final_distance = space.distance(lions[0], lions[n])
        if abs(final_distance - n * D) > 0 and first_failure is None:
            first_failure = n
    return lm.CaptureAudit(passed=first_failure is None, steps=steps, colinearity=colin,
                           dist_residuals=dist_res, first_failure=first_failure,
                           final_distance=final_distance)


@pytest.mark.parametrize("name, space, tr, k",
                         [g for g in CERTIFICATE_GAMES if isinstance(g[1], lm.RTreeSpace)],
                         ids=[g[0] for g in CERTIFICATE_GAMES if isinstance(g[1], lm.RTreeSpace)])
def test_audit_carries_each_distance_from_the_start(name, space, tr, k, monkeypatch):
    # d(L_0, L_{n+1}) of one step is d(L_0, L_n) of the next and, at the
    # record end, the final distance: one distance for L_0, two per step
    # the game as played, and its path read at twice its step
    for played in (tr, dataclasses.replace(tr, D=2 * tr.D)):
        want = audit_reference(space, played)
        calls = []
        dist = space._dist
        monkeypatch.setattr(space, "_dist", lambda x, y: calls.append(1) or dist(x, y))
        got = analysis._audit(space, played)
        monkeypatch.undo()
        assert repr(got) == repr(want)
        assert len(calls) == 1 + 2 * len(got.steps)


# -- harness --------------------------------------------------------------------------------


def test_equivalence_report_bounded_tree(tripod):
    rep = lm.equivalence_report(tripod, lm.WholeSpace(), D=Fraction(1, 2), n_steps=30,
                                tol=1e-9, lion_start=lm.vertex_point("a"),
                                man_start=lm.vertex_point("b"))
    assert not rep.exploratory
    assert all(r["outcome"] == "lion-wins-physical" for r in rep.runs)
    assert all(cert.get("audit_passed") for cert in rep.certificates.values())


def test_equivalence_report_unbounded_tree(ray_tree):
    curve = lm.tree_ray_curve(ray_tree)
    rep = lm.equivalence_report(ray_tree, lm.WholeSpace(), D=Fraction(1), n_steps=80,
                                tol=1e-9, lion_start=lm.vertex_point("r"),
                                man_start=lm.vertex_point("q"), curve=curve)
    outcomes = {r["strategy"]: r["outcome"] for r in rep.runs}
    assert outcomes["directional"] == "man-wins-observed"
    cert = rep.certificates["directional"]
    assert cert["local_qg_passed"]
    assert cert["audit_passed"]
    assert cert["ray_residual_max"] == 0.0


def test_equivalence_report_short_lion_path_has_no_ray_certificate(ray_tree):
    # the lion covers 3/4 < 1, so no ray point at distance 1 can be extracted
    rep = lm.equivalence_report(ray_tree, lm.WholeSpace(), D=Fraction(1, 4), n_steps=3,
                                tol=1e-9, lion_start=lm.vertex_point("r"),
                                man_start=lm.vertex_point("r"), curve=lm.tree_ray_curve(ray_tree))
    cert = rep.certificates["directional"]
    assert cert["audit_passed"]
    assert "ray_residual_max" not in cert


def test_equivalence_certificate_is_the_analyze_report(ray_tree):
    rep = lm.equivalence_report(ray_tree, lm.WholeSpace(), D=Fraction(1), n_steps=80,
                                tol=1e-9, lion_start=lm.vertex_point("r"),
                                man_start=lm.vertex_point("q"),
                                curve=lm.tree_ray_curve(ray_tree))
    cert = dict(rep.certificates["directional"])
    assert cert.pop("ray_residual_max") == 0.0
    tr = ray_pursuit_transcript(ray_tree, n_steps=80)
    assert cert == lm.analyze_transcript(ray_tree, tr, Fraction(12), 128)[0]


def test_equivalence_report_box_is_exploratory(box):
    rep = lm.equivalence_report(box, lm.WholeSpace(), D=10.0, n_steps=40, tol=1e-9,
                                lion_start=lm.boxpoint(0, 0, 0, 0, 0, 0),
                                man_start=lm.boxpoint(5, 50, 500, 10, 10, 10))
    assert rep.exploratory
    assert rep.notes


# -- CSV ------------------------------------------------------------------------------------


def test_beta_and_audit_csv(tmp_path, ray_tree):
    tr = ray_pursuit_transcript(ray_tree, n_steps=30)
    bs = lm.beta_angles(ray_tree, tr)
    bpath = tmp_path / "beta.csv"
    lm.write_beta_csv(bs, bpath)
    lines = bpath.read_text().strip().splitlines()
    assert lines[0] == "n,beta_n,alpha_n"
    assert len(lines) == len(bs.beta) + 1

    audit = lm.rtree_capture_audit(ray_tree, tr)
    apath = tmp_path / "audit.csv"
    lm.write_audit_csv(audit, apath)
    lines = apath.read_text().strip().splitlines()
    assert lines[0] == "n,colinearity_residual,distance_residual"
    assert lines[1] == "0,0.0,0.0"
