import json
import math
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.errors import InvalidInputError, StrategyFaultError
from lionman.game import transcript_to_json


def segment_domain():
    line = lm.EuclideanSpace(1)
    return line, lm.Ball(lm.epoint(5), 5.0)


# -- lion rule -------------------------------------------------------------------


def test_lion_step_forced(euclid2):
    nxt = lm.lion_step(euclid2, lm.epoint(0, 0), lm.epoint(5, 0), 1.0)
    assert nxt.coords == (1.0, 0.0)


def test_lion_step_reaches_close_man(euclid2):
    nxt = lm.lion_step(euclid2, lm.epoint(0, 0), lm.epoint(0.5, 0), 1.0)
    assert nxt.coords == (0.5, 0.0)


def test_lion_step_through_tripod_center(tripod):
    nxt = lm.lion_step(tripod, lm.vertex_point("a"), lm.vertex_point("b"), Fraction(1))
    assert tripod.distance(nxt, lm.vertex_point("c")) == 0


# -- full runs --------------------------------------------------------------------


def test_stationary_man_on_segment_hand_simulation():
    space, dom = segment_domain()
    cfg = lm.GameConfig(space=space, domain=dom, D=1.0, n_steps=50, tol=1e-9,
                        lion_start=lm.epoint(0), man_start=lm.epoint(10))
    tr = lm.run_game(cfg, lm.StationaryStrategy())
    assert tr.stop_reason == "physical-capture"
    assert tr.capture_step == 9
    assert len(tr.records) == tr.capture_step + 1
    assert [float(r.dist) for r in tr.records] == [10.0 - n for n in range(10)]
    assert tr.final_lion.coords == (10.0,)
    out = lm.classify_outcome(tr)
    assert out.classification == "lion-wins-physical"
    assert out.n0 == 9


def test_directional_man_on_ray_tree_never_caught(ray_tree):
    D = Fraction(1)
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_tree), D)
    cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=D, n_steps=500,
                        tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    tr = lm.run_game(cfg, strat)
    assert tr.stop_reason == "step-budget"
    assert tr.capture_step is None
    assert all(r.dist >= D + 1 for r in tr.records)
    assert lm.classify_outcome(tr).classification == "man-wins-observed"


def test_directional_strategy_move_lengths(ray_tree):
    D = Fraction(2)
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_tree), D)
    cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=D, n_steps=40,
                        tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    tr = lm.run_game(cfg, strat)
    men = [r.man for r in tr.records]
    for m0, m1 in zip(men, men[1:]):
        assert ray_tree.distance(m0, m1) == 2
    # man at the curve parameter (n+2)D + 1 at every step
    for r in tr.records:
        assert ray_tree.distance(r.man, lm.vertex_point("r")) == (r.n + 2) * D + 1


def test_directional_guarantee_with_b_equal_D(euclid2):
    b = 1.0
    rule = lambda t: lm.epoint(t - b * (1 - math.exp(-t)), 0.0)
    curve = lm.Curve(euclid2, (0.0, 1.0), (rule(0.0), rule(1.0)), rule=rule)
    assert lm.check_directional_curve(curve, b, grid=50).passed
    strat = lm.man_directional_strategy(curve, b)
    cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=b, n_steps=120,
                        tol=1e-9, lion_start=rule(0.0), man_start=strat.start())
    tr = lm.run_game(cfg, strat)
    assert lm.classify_outcome(tr).classification == "man-wins-observed"
    assert all(float(r.dist) >= b + 1 - 1e-6 for r in tr.records)


def test_greedy_disk_run_is_limit_capture(euclid2):
    ball = lm.Ball(lm.epoint(0, 0), 3.0)
    cfg = lm.GameConfig(space=euclid2, domain=ball, D=0.5, n_steps=450, tol=1e-12,
                        lion_start=lm.epoint(-2.5, 0), man_start=lm.epoint(2.5, 0))
    tr = lm.run_game(cfg, lm.GreedyStrategy(ball, directions=16))
    ds = tr.dist_series()
    while_above = [i for i in range(len(ds) - 1) if ds[i] > 0.5]
    assert all(ds[i + 1] <= ds[i] + 1e-9 for i in while_above)
    out = lm.classify_outcome(tr, tol=1e-3)
    assert out.classification == "lion-wins-limit"


def test_greedy_flees_directly_when_far(euclid2):
    dom = lm.WholeSpace()
    strat = lm.man_greedy_strategy(dom, directions=16)
    man = lm.epoint(0, 0)
    lion = lm.epoint(-10, 0)
    prop = strat.propose(euclid2, 1, lion, man, 1.0)
    assert prop.coords[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(prop.coords[1]) <= 1e-12


def test_greedy_tree_step_places_one_point_per_walked_prefix(monkeypatch):
    # most of the 40 targets share the first D of their paths: one point is
    # placed per distinct prefix, and the candidates list each point once
    base = lm.random_tree(np.random.default_rng(7), n_vertices=40)
    tree = lm.RTreeSpace(base.vertices, base.edges, ray_at="v12")
    man, lion, D = lm.vertex_point("v5"), lm.vertex_point("v30"), Fraction(1, 2)
    targets = [lm.vertex_point(v) for v in tree.vertices]
    targets.append(lm.edge_point(lm.RAY_EDGE, 2 * D))
    want, placed = [], []
    for tgt in targets:
        gap = tree.distance(man, tgt)
        if gap and D < gap:
            placed.append(tree.geodesic_point(man, tgt, D / gap))
        move = placed[-1] if D < gap else tgt
        if gap and move not in want:
            want.append(move)
    calls = []
    walk = lm.RTreeSpace._walk  # one walk places one point
    monkeypatch.setattr(lm.RTreeSpace, "_walk",
                        lambda self, *args: calls.append(args) or walk(self, *args))
    got = tree.move_candidates(man, D, 8)
    assert [(repr(p), type(p.offset)) for p in got] == [(repr(p), type(p.offset)) for p in want]
    assert len(calls) == len(set(placed)) < len(placed) // 4
    calls.clear()
    best = lm.GreedyStrategy(lm.WholeSpace()).propose(tree, 1, lion, man, D)
    assert best in got and len(calls) == len(set(placed))


def test_greedy_cornered_man_is_caught():
    space, dom = segment_domain()
    cfg = lm.GameConfig(space=space, domain=dom, D=1.0, n_steps=60, tol=1e-9,
                        lion_start=lm.epoint(0), man_start=lm.epoint(9.5))
    tr = lm.run_game(cfg, lm.GreedyStrategy(dom, directions=4))
    assert tr.stop_reason == "physical-capture"
    assert float(tr.records[-1].man.coords[0]) <= 10.0


def test_immediate_capture_when_starts_coincide(euclid2):
    cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=1.0, n_steps=10,
                        tol=1e-9, lion_start=lm.epoint(1, 1), man_start=lm.epoint(1, 1))
    tr = lm.run_game(cfg, lm.StationaryStrategy())
    assert tr.capture_step == 0
    assert lm.classify_outcome(tr).classification == "lion-wins-physical"


# -- rule invariants -------------------------------------------------------------------


class _Teleporter:
    """Proposes a move of length 3D, to exercise clamping."""

    def propose(self, space, n, lion, man, D):
        return lm.Point(space.kind, (man.coords[0] + 3.0 * float(D),) + man.coords[1:])


class _Escaper:
    """Proposes a point outside the domain."""

    def propose(self, space, n, lion, man, D):
        return lm.epoint(100.0)


def test_speed_violations_are_clamped(euclid2):
    cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=1.0, n_steps=5,
                        tol=1e-9, lion_start=lm.epoint(-50, 0), man_start=lm.epoint(0, 0))
    tr = lm.run_game(cfg, _Teleporter())
    assert all(r.note == "clamped" for r in tr.records)
    men = [r.man for r in tr.records]
    for m0, m1 in zip(men, men[1:]):
        assert euclid2.distance(m0, m1) == pytest.approx(1.0, abs=1e-9)


def test_a_lion_step_that_rounds_out_of_the_space_ends_the_run(euclid2):
    # the gap overflows to inf, so the step's t = D / gap is 0 and its point
    # 0 * (b - a) = 0 * inf is NaN: the run stops before using it
    cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=1.0, n_steps=5, tol=1e-9,
                        lion_start=lm.epoint(-1.7e308, 0), man_start=lm.epoint(1.7e308, 0))
    tr = lm.run_game(cfg, lm.StationaryStrategy())
    assert tr.stop_reason == "numeric-horizon" and tr.records == []
    assert tr.final_lion == cfg.lion_start


def test_out_of_domain_proposal_faults_with_step():
    space, dom = segment_domain()
    cfg = lm.GameConfig(space=space, domain=dom, D=1.0, n_steps=5, tol=1e-9,
                        lion_start=lm.epoint(0), man_start=lm.epoint(8))
    with pytest.raises(StrategyFaultError) as info:
        lm.run_game(cfg, _Escaper())
    assert info.value.step == 0


def test_lion_move_exactness_and_monotonicity(all_spaces):
    for kind, space in all_spaces.items():
        if kind == "rtree":
            D = Fraction(1, 2)
            lion, man = lm.vertex_point("a"), lm.vertex_point("b")
            dom = lm.WholeSpace()
        elif kind == "hyperbolic":
            D, dom = 0.3, lm.Ball(lm.hpoint(0, 0), 4.0)
            lion, man = lm.hpoint(-0.5, 0.1), lm.hpoint(0.6, 0)
        elif kind == "l2box":
            D, dom = 20.0, lm.WholeSpace()
            lion, man = lm.boxpoint(0, 0, 0, 0, 0, 0), lm.boxpoint(9, 90, 900, 10, 10, 10)
        else:
            D, dom = 0.5, lm.Ball(lm.epoint(0, 0), 6.0)
            lion, man = lm.epoint(-4, 0), lm.epoint(4, 1)
        cfg = lm.GameConfig(space=space, domain=dom, D=D, n_steps=60, tol=1e-9,
                            lion_start=lion, man_start=man)
        tr = lm.run_game(cfg, lm.GreedyStrategy(dom, directions=8))
        lions = [r.lion for r in tr.records] + [tr.final_lion]
        for r, l0, l1 in zip(tr.records, lions, lions[1:]):
            want = min(float(D), float(r.dist))
            scale = max(1.0, want)
            assert abs(float(space.distance(l0, l1)) - want) <= 1e-9 * scale
        ds = tr.dist_series()
        for i in range(len(ds) - 1):
            if ds[i] > float(D):
                assert ds[i + 1] <= ds[i] + 1e-9 * max(1.0, ds[i])


def test_absorption_after_capture():
    space, dom = segment_domain()
    cfg = lm.GameConfig(space=space, domain=dom, D=1.0, n_steps=30, tol=1e-9,
                        lion_start=lm.epoint(0), man_start=lm.epoint(6),
                        stop_on_capture=False)
    tr = lm.run_game(cfg, lm.GreedyStrategy(dom, directions=4))
    assert tr.capture_step is not None
    for r in tr.records:
        if r.n > tr.capture_step:
            assert float(r.gap) <= 1e-9


def test_replay_determinism(ray_tree):
    def play():
        strat = lm.RandomStrategy(lm.WholeSpace(), seed=99)
        cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=Fraction(1, 2),
                            n_steps=40, tol=1e-9, lion_start=lm.vertex_point("r"),
                            man_start=lm.vertex_point("q"), seed=99)
        return lm.run_game(cfg, strat)

    a = json.dumps(transcript_to_json(play()), sort_keys=True)
    b = json.dumps(transcript_to_json(play()), sort_keys=True)
    assert a == b


# -- classification ---------------------------------------------------------------------


def synthetic_transcript(dists, D=1.0):
    eu = lm.EuclideanSpace(1)
    records = []
    x = 0.0
    for n, d in enumerate(dists):
        records.append(lm.StepRecord(n=n, lion=lm.epoint(x), man=lm.epoint(x + d),
                                     dist=d, gap=max(d - D, 0.0)))
        x += min(D, d)
    return lm.Transcript(space=eu, domain=lm.WholeSpace(), D=D, tol=1e-9,
                         n_steps=len(dists), seed=None, stop_on_capture=True,
                         records=records, final_lion=lm.epoint(x),
                         stop_reason="step-budget", capture_step=None)


def test_classify_physical_via_dist_rule():
    tr = synthetic_transcript([5.0, 4.0, 3.0, 2.0, 1.5, 0.9, 0.9])
    out = lm.classify_outcome(tr)
    assert out.classification == "lion-wins-physical"
    assert out.n0 == 5


def test_classify_man_wins_constant_gap():
    tr = synthetic_transcript([3.0] * 50)
    out = lm.classify_outcome(tr)
    assert out.classification == "man-wins-observed"


def test_classify_limit_capture():
    n = 200
    tr = synthetic_transcript([1.0 + 1.0 / (i + 1) for i in range(n)])
    out = lm.classify_outcome(tr, tol=1.0 / n * 1.2)
    assert out.classification == "lion-wins-limit"


def test_classify_undecided_mixed_tail():
    # tail oscillates between within-tol and far-above-tol excesses
    dists = [1.0 + (2.0 if i % 2 else 1e-10) for i in range(40)]
    out = lm.classify_outcome(synthetic_transcript(dists))
    assert out.classification == "undecided"


def test_classify_empty_transcript_rejected():
    tr = synthetic_transcript([2.0])
    tr.records = []
    with pytest.raises(InvalidInputError):
        lm.classify_outcome(tr)


# -- config validation and files ---------------------------------------------------------


def test_config_rejects_bad_values(euclid2):
    with pytest.raises(InvalidInputError):
        lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=0.0, n_steps=5,
                      tol=1e-9, lion_start=lm.epoint(0, 0), man_start=lm.epoint(1, 0))
    with pytest.raises(InvalidInputError):
        lm.GameConfig(space=euclid2, domain=lm.Ball(lm.epoint(0, 0), 1.0), D=1.0,
                      n_steps=5, tol=1e-9, lion_start=lm.epoint(5, 5),
                      man_start=lm.epoint(0, 0))


def test_transcript_round_trip(tmp_path, ray_tree):
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_tree), Fraction(1))
    cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=Fraction(1),
                        n_steps=25, tol=1e-9, lion_start=lm.vertex_point("r"),
                        man_start=strat.start())
    tr = lm.run_game(cfg, strat)
    path = tmp_path / "t.json"
    lm.save_transcript(tr, path)
    loaded = lm.load_transcript(path)
    assert transcript_to_json(loaded) == transcript_to_json(tr)
    assert loaded.records[3].dist == tr.records[3].dist  # exact fractions survive

    path2 = tmp_path / "t2.json"
    lm.save_transcript(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_an_exact_tree_ball_survives_the_transcript_round_trip(tmp_path, ray_tree):
    # the radius writes as "3/2" text and reloads exact; a float radius keeps its bytes
    ball = lm.Ball(lm.vertex_point("r"), Fraction(3, 2))
    cfg = lm.GameConfig(space=ray_tree, domain=ball, D=Fraction(1, 2), n_steps=10, tol=1e-9,
                        lion_start=lm.vertex_point("r"), man_start=lm.vertex_point("p"))
    tr = lm.run_game(cfg, lm.GreedyStrategy(ball))
    path, again = tmp_path / "t.json", tmp_path / "t2.json"
    lm.save_transcript(tr, path)
    assert json.loads(path.read_text())["header"]["domain"]["radius"] == "3/2"
    loaded = lm.load_transcript(path)
    assert loaded.domain == ball and type(loaded.domain.radius) is Fraction
    lm.save_transcript(loaded, again)
    assert again.read_bytes() == path.read_bytes()
    # an int radius writes as the float it reloads as, so a plane game saves
    # the same bytes again after a reload
    for radius in (6, 6.0):
        assert repr(lm.Ball(lm.epoint(0, 0), radius).to_config()["radius"]) == "6.0"
    plane_ball = lm.Ball(lm.epoint(0, 0), 6)
    cfg = lm.GameConfig(space=lm.EuclideanSpace(2), domain=plane_ball, D=1.0, n_steps=5,
                        tol=1e-9, lion_start=lm.epoint(-1, 0), man_start=lm.epoint(3, 0))
    lm.save_transcript(lm.run_game(cfg, lm.GreedyStrategy(plane_ball)), path)
    lm.save_transcript(lm.load_transcript(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_int_D_takes_the_space_number_type(tmp_path, ray_tree, euclid2):
    # an int D reloads exact on a tree, and writes the bytes of D=1.0 on the plane
    strat = lm.man_directional_strategy(lm.tree_ray_curve(ray_tree), 1)
    cfg = lm.GameConfig(space=ray_tree, domain=lm.WholeSpace(), D=1, n_steps=12,
                        tol=1e-9, lion_start=lm.vertex_point("r"), man_start=strat.start())
    assert type(cfg.D) is Fraction
    path = tmp_path / "tree.json"
    lm.save_transcript(lm.run_game(cfg, strat), path)
    loaded = lm.load_transcript(path)
    assert type(loaded.D) is Fraction
    _, curve = lm.curve_from_transcript(ray_tree, loaded, 4)
    assert all(type(t) is Fraction for t in curve.params)

    plane = []
    for D in (1, 1.0):
        cfg = lm.GameConfig(space=euclid2, domain=lm.WholeSpace(), D=D, n_steps=20,
                            tol=1e-9, lion_start=lm.epoint(0, 0), man_start=lm.epoint(3, 1))
        path = tmp_path / f"plane-{D!r}.json"
        lm.save_transcript(lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace())), path)
        plane.append(path.read_bytes())
    assert plane[0] == plane[1]


def test_dist_csv(tmp_path):
    tr = synthetic_transcript([3.0, 2.0, 1.5])
    out = tmp_path / "d.csv"
    lm.write_dist_csv(tr, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,D_n"
    assert lines[1] == "0,3.0"
