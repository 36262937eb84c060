"""Each point is checked once: at the public entry points, not inside the passes.

The game checks its starts and each proposal as domain members, and the
analysis checks each transcript point once per call; the loops then
measure and place through the family's unchecked `_dist` and `_along`.
Every public entry point still rejects a wrong-kind or non-member point
with the error type it always raised.
"""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.errors import InvalidPointError, SpaceMismatchError

D = Fraction(1, 2)


def ray_game(n_steps=200):
    tree = lm.ray_tree()
    man = lm.man_directional_strategy(lm.tree_ray_curve(tree), D)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=n_steps, tol=1e-9,
                        lion_start=lm.vertex_point("r"), man_start=man.start())
    return cfg, man


def check_calls(monkeypatch, run):
    """The number of `Space.check_point` calls run() makes, and its result."""
    calls = []
    check = lm.spaces.Space.check_point

    def counting(self, p, name="point"):
        calls.append(p)
        return check(self, p, name)

    monkeypatch.setattr(lm.spaces.Space, "check_point", counting)
    out = run()
    monkeypatch.undo()
    return len(calls), out


# -- count guards


def test_a_game_checks_no_more_points_than_enter_from_outside(monkeypatch):
    cfg, man = ray_game()
    checks, tr = check_calls(monkeypatch, lambda: lm.run_game(cfg, man))
    assert len(tr.records) == cfg.n_steps and tr.stop_reason == "step-budget"
    # the two starts and one proposal per step; a loop that checks the
    # points it makes itself checks 2,000 here
    assert checks <= 2 + cfg.n_steps


def test_analyze_checks_each_point_once_per_pass(monkeypatch):
    cfg, man = ray_game()
    tr = lm.run_game(cfg, man)
    _, curve = lm.curve_from_transcript(cfg.space, tr, 12 * D)
    checks, (report, angles, audit, passed) = check_calls(
        monkeypatch, lambda: lm.analyze_transcript(cfg.space, tr, 12 * D))
    assert passed and audit.passed and report["n_k"] == 1
    points = 2 * len(tr.records) + 1
    measured = len(angles.beta) + sum(a is not None for a in angles.alpha)
    # the entry check of every record point; each public tree angle checks
    # its apex and both ends; the win curve checks its samples when built,
    # not again when it places grid values between them (with those checks,
    # 2,193 here).  The audit and the distance tests of the angle pass check
    # nothing (with them, 5,780 checks here)
    assert checks <= points + 3 * measured + len(curve.points)


def test_greedy_tree_game_checks_two_points_a_step(monkeypatch):
    tree = lm.random_tree(np.random.default_rng(5), 40)
    cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=10, tol=1e-9,
                        lion_start=lm.vertex_point("v0"), man_start=lm.vertex_point("v39"))
    checks, tr = check_calls(monkeypatch,
                             lambda: lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace())))
    # each proposal checks the lion once and the man once, not once per vertex
    assert checks <= 2 * len(tr.records)


# -- the disk rim still ends a run


def test_whole_disk_greedy_run_stops_at_the_numeric_horizon():
    disk = lm.HyperbolicPlane()
    cfg = lm.GameConfig(space=disk, domain=lm.WholeSpace(), D=1.0, n_steps=60, tol=1e-9,
                        lion_start=disk.origin(), man_start=lm.hpoint(0.5, 0))
    tr = lm.run_game(cfg, lm.GreedyStrategy(lm.WholeSpace()))
    assert tr.stop_reason == "numeric-horizon"
    assert len(tr.records) == 40
    # the last man move was clamped onto the float rim, out of the space
    assert tr.records[-1].note == "clamped"


# -- public entry points keep their error types


WRONG_KIND = lm.epoint(0.0, 0.0)
NOT_IN_TREE = lm.edge_point(0, Fraction(5))  # ray_tree() edges have length 1
# the tree reads an offset only as a Python float, a Fraction or an int
NUMPY_OFFSETS = [lm.Point("rtree", edge=0, offset=x)
                 for x in (np.float64(0.5), np.float32(0.5), np.int64(0))]
BAD = [(WRONG_KIND, SpaceMismatchError), (NOT_IN_TREE, InvalidPointError),
       (lm.vertex_point("nowhere"), InvalidPointError),
       *((p, InvalidPointError) for p in NUMPY_OFFSETS)]


def tampered(field, point):
    cfg, man = ray_game(n_steps=30)
    tr = lm.run_game(cfg, man)
    tr.records[5] = dataclasses.replace(tr.records[5], **{field: point})
    return cfg.space, tr


ANALYSES = {
    "beta_angles": lambda space, tr: lm.beta_angles(space, tr),
    "curve_from_transcript": lambda space, tr: lm.curve_from_transcript(space, tr, 12 * D),
    "rtree_capture_audit": lambda space, tr: lm.rtree_capture_audit(space, tr),
    "analyze_transcript": lambda space, tr: lm.analyze_transcript(space, tr, 12 * D),
}


@pytest.mark.parametrize("point, error", BAD)
@pytest.mark.parametrize("call, field", [(call, field) for call in ANALYSES
                                         for field in ("lion", "man")
                                         # the audit reads the lion path only
                                         if (call, field) != ("rtree_capture_audit", "man")])
def test_analyses_reject_bad_transcript_points(call, field, point, error):
    space, tr = tampered(field, point)
    with pytest.raises(error):
        ANALYSES[call](space, tr)


@pytest.mark.parametrize("point, error", BAD)
def test_tree_entry_points_reject_bad_points(point, error):
    tree, good, rng = lm.ray_tree(), lm.vertex_point("q"), np.random.default_rng(0)
    calls = [
        lambda: lm.lion_step(tree, point, good, D),
        lambda: lm.lion_step(tree, good, point, D),
        lambda: lm.GreedyStrategy(lm.WholeSpace()).propose(tree, 1, point, good, D),
        lambda: lm.GreedyStrategy(lm.WholeSpace()).propose(tree, 1, good, point, D),
        lambda: lm.alexandrov_angle(tree, point, good, lm.vertex_point("r")),
        lambda: lm.alexandrov_angle(tree, lm.vertex_point("p"), point, good),
        lambda: lm.alexandrov_angle(tree, lm.vertex_point("p"), good, point),
        lambda: tree.move_candidates(point, D, 8),
        lambda: tree.random_move(rng, point, D),
        lambda: tree.distance(good, point),
        lambda: tree.geodesic_point(point, good, D),
        lambda: tree.project_to_segment(point, lm.Segment(good, lm.vertex_point("r"))),
        lambda: tree.project_to_segment(good, lm.Segment(point, lm.vertex_point("r"))),
    ]
    named = re.escape(repr(point)) if error is InvalidPointError else None
    for call in calls:
        with pytest.raises(error, match=named):
            call()


@pytest.mark.parametrize("space, good, bad", [
    (lm.EuclideanSpace(2), lm.epoint(1, 2), [(lm.vertex_point("a"), SpaceMismatchError),
                                            (lm.epoint(float("nan"), 0), InvalidPointError)]),
    (lm.HyperbolicPlane(), lm.hpoint(0.1, 0.2), [(lm.epoint(0, 0), SpaceMismatchError),
                                                 (lm.hpoint(0.8, 0.8), InvalidPointError)]),
], ids=["plane", "disk"])
def test_lion_step_and_greedy_lion_reject_bad_points(space, good, bad):
    for point, error in bad:
        with pytest.raises(error):
            lm.lion_step(space, point, good, 0.5)
        with pytest.raises(error):
            lm.lion_step(space, good, point, 0.5)
        with pytest.raises(error):
            lm.GreedyStrategy(lm.WholeSpace()).propose(space, 1, point, good, 0.5)
