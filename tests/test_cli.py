import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import lionman as lm
from lionman.cli import main


@pytest.fixture
def tripod_cfg(tmp_path):
    path = tmp_path / "tripod.json"
    path.write_text(json.dumps({
        "space": {"kind": "rtree",
                  "vertices": ["c", "a", "b", "d"],
                  "edges": [["c", "a", "1"], ["c", "b", "1"], ["c", "d", "1"]]},
        "domain": {"kind": "whole"},
    }))
    return str(path)


@pytest.fixture
def lone_cfg(tmp_path):
    """A one-vertex tree: the vertex is the whole space."""
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({"space": {"kind": "rtree", "vertices": ["a"], "edges": []}}))
    return str(path)


@pytest.fixture
def ray_cfg(tmp_path):
    path = tmp_path / "raytree.json"
    path.write_text(json.dumps({
        "space": {"kind": "rtree",
                  "vertices": ["r", "p", "q"],
                  "edges": [["r", "p", "1"], ["p", "q", "1"]],
                  "ray_at": "r"},
        "domain": {"kind": "whole"},
    }))
    return str(path)


@pytest.fixture
def ray_curve_file(tmp_path, ray_cfg):
    path = tmp_path / "ray_curve.json"
    path.write_text(json.dumps({
        "space": json.loads(open(ray_cfg).read())["space"],
        "generator": {"name": "tree_ray"},
    }))
    return str(path)


def test_simulate_tripod_greedy_capture(tripod_cfg, tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(["simulate", "--space", tripod_cfg, "--man", "greedy", "--D", "1",
                 "--N", "100", "--seed", "7", "--lion", '{"vertex": "a"}',
                 "--man-start", '{"vertex": "b"}', "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "lion-wins-physical" in printed
    assert out.exists()


def test_simulate_row_count_matches_capture(tmp_path, capsys):
    cfg = tmp_path / "seg.json"
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 1},
                               "domain": {"kind": "ball", "center": [5], "radius": 5}}))
    out = tmp_path / "t.json"
    code = main(["simulate", "--space", str(cfg), "--man", "stationary", "--D", "1",
                 "--N", "50", "--lion", "[0]", "--man-start", "[10]", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["capture_step"] == 9
    assert len(data["steps"]) == data["capture_step"] + 1


def test_simulate_directional_and_analyze(ray_cfg, ray_curve_file, tmp_path, capsys):
    tr_path = tmp_path / "ray_run.json"
    code = main(["simulate", "--space", ray_cfg, "--man", "directional",
                 "--curve", ray_curve_file, "--D", "1", "--N", "120",
                 "--lion", '{"vertex": "r"}', "--out", str(tr_path)])
    assert code == 0
    assert "man-wins-observed" in capsys.readouterr().out

    report = tmp_path / "report.json"
    beta = tmp_path / "beta.csv"
    audit = tmp_path / "audit.csv"
    code = main(["analyze", "--space", ray_cfg, "--transcript", str(tr_path),
                 "--k", "12", "--out", str(report), "--beta-csv", str(beta),
                 "--audit-csv", str(audit)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["n_k"] == 1
    assert rep["local_qg_passed"] is True
    assert rep["audit_passed"] is True
    assert rep["final_distance"] == 120.0
    assert beta.read_text().startswith("n,beta_n")


def test_analyze_captured_transcript_reports_step(tripod_cfg, tmp_path, capsys):
    tr_path = tmp_path / "cap.json"
    main(["simulate", "--space", tripod_cfg, "--man", "stationary", "--D", "1/2",
          "--N", "30", "--lion", '{"vertex": "a"}', "--man-start", '{"vertex": "b"}',
          "--out", str(tr_path)])
    report = tmp_path / "rep.json"
    code = main(["analyze", "--space", tripod_cfg, "--transcript", str(tr_path),
                 "--k", "2", "--out", str(report)])
    assert code == 0
    rep = json.loads(report.read_text())
    assert "capture_step" in rep
    assert rep["audit_passed"] is True


def test_analyze_capture_at_the_first_lion_step(tripod_cfg, tmp_path, capsys):
    # lion and man start exactly D apart: the lion lands on the man at once,
    # and the one-record transcript is a decided game, not bad input
    tr_path = tmp_path / "first.json"
    assert main(["simulate", "--space", tripod_cfg, "--man", "greedy", "--D", "1",
                 "--N", "10", "--lion", '{"vertex": "c"}', "--man-start", '{"vertex": "a"}',
                 "--out", str(tr_path)]) == 0
    assert len(json.loads(tr_path.read_text())["steps"]) == 1
    capsys.readouterr()
    report = tmp_path / "rep.json"
    code = main(["analyze", "--space", tripod_cfg, "--transcript", str(tr_path),
                 "--k", "2", "--out", str(report)])
    assert code == 0
    assert json.loads(report.read_text()) == {"angle_gaps": [], "audit_passed": True,
                                              "capture_step": 0}
    assert capsys.readouterr().out == "angle_gaps=[]\naudit_passed=True\ncapture_step=0\n"


def test_analyze_threshold_not_met_nonzero_exit(tmp_path, capsys):
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 2}}))
    eu = lm.EuclideanSpace(2)
    records = []
    lions = [lm.epoint(float(i), 0) for i in range(6)] + [lm.epoint(5, 1)]
    men = [lm.epoint(20, 0)] * 5 + [lm.epoint(5, 20), lm.epoint(20, 1)]
    for n, (l, m) in enumerate(zip(lions, men)):
        d = eu.distance(l, m)
        records.append(lm.StepRecord(n=n, lion=l, man=m, dist=d, gap=d - 1.0))
    tr = lm.Transcript(space=eu, domain=lm.WholeSpace(), D=1.0, tol=1e-9,
                       n_steps=len(records), seed=None, stop_on_capture=True,
                       records=records, final_lion=lm.epoint(6, 1),
                       stop_reason="step-budget", capture_step=None)
    tr_path = tmp_path / "turn.json"
    lm.save_transcript(tr, tr_path)
    code = main(["analyze", "--space", str(cfg), "--transcript", str(tr_path), "--k", "12"])
    assert code == 4
    assert "threshold_not_met" in capsys.readouterr().out


def test_verify_curve_pass_and_fail(ray_curve_file, tmp_path, capsys):
    code = main(["verify-curve", "--curve", ray_curve_file, "--lambda", "1",
                 "--epsilon", "0", "--grid", "64"])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS")

    l2 = tmp_path / "l2.json"
    lm.save_curve(lm.l2_example_curve(6, 10.0), l2)
    wit = tmp_path / "wit.csv"
    code = main(["verify-curve", "--curve", str(l2), "--lambda", "1",
                 "--grid", "200", "--witness-csv", str(wit)])
    assert code == 4
    assert "first lower violation" in capsys.readouterr().out
    assert "first_lower_violation" in wit.read_text()


def test_verify_curve_rejects_a_tube_reaching_the_rim(tmp_path, capsys):
    # the file rebuilds its tube from the stored args, which once ended in
    # a ZeroDivisionError traceback
    path = tmp_path / "tube.json"
    lm.save_curve(lm.hyperbolic_tube_curve(length=8.0), path)
    data = json.loads(path.read_text())
    data["generator"]["args"]["length"] = 40.0
    path.write_text(json.dumps(data))
    assert main(["verify-curve", "--curve", str(path), "--lambda", "1.5", "--grid", "32"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("error: tube length 40.0 (step 1.0) must stay within [0, 36.0]: "
                       "farther out its axis rounds onto the disk rim\n")


def test_verify_curve_fails_a_curve_whose_grid_leaves_the_disk(tmp_path, capsys):
    # six grid points of this rim segment round out of the disk and their
    # distances are NaN: the check once printed PASS with min_ratio=inf
    path = tmp_path / "rim.json"
    disk = lm.HyperbolicPlane()
    lm.save_curve(lm.geodesic_segment_curve(disk, lm.hpoint(0.0, math.tanh(5.85)),
                                            lm.hpoint(-math.tanh(14.99), 0.0)), path)
    with np.errstate(invalid="ignore"):
        code = main(["verify-curve", "--curve", str(path), "--lambda", "1", "--grid", "100"])
    assert code == 4
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "FAIL lambda=1 eps=0 pairs=4950 min_ratio=nan"
    assert lines[1].startswith("first lower violation: s=0 ") and lines[1].endswith(" dist=nan")


@pytest.mark.parametrize("option", [["--k", "0"], ["--k", "-2"], ["--k", "nan"],
                                    ["--lambda", "nan"], ["--epsilon", "nan"]])
def test_verify_curve_rejects_vacuous_bounds(option, ray_curve_file, capsys):
    # a k that admits no pair, or a NaN bound that every pair meets, once
    # printed PASS
    argv = ["verify-curve", "--curve", ray_curve_file, "--lambda", "1", "--grid", "64"]
    assert main(argv + option) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")


@pytest.mark.parametrize("option, message", [(["--k-max", "0"], "k_max must be >= 1"),
                                             (["--k-max", "-1"], "k_max must be >= 1"),
                                             (["--alpha", "nan"], "alpha=nan")])
def test_extract_ray_rejects_bad_options(option, message, ray_curve_file, capsys):
    argv = ["extract-ray", "--curve", ray_curve_file, "--lambda", "1"]
    assert main(argv + option) == 2
    assert message in capsys.readouterr().err


def test_extract_ray_cli(ray_curve_file, tmp_path, capsys):
    out = tmp_path / "res.csv"
    code = main(["extract-ray", "--curve", ray_curve_file, "--lambda", "1",
                 "--alpha", "2", "--k-max", "4",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,distance_residual,last_cauchy_residual,stopped"
    assert len(lines) == 5


def test_estimate_delta_tree_line(tripod_cfg, lone_cfg, capsys):
    for cfg in (tripod_cfg, lone_cfg):
        code = main(["estimate-delta", "--space", cfg, "--trials", "50", "--seed", "3"])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line == "space=rtree trials=50 seed=3 delta=0"


def test_sweep_on_a_one_vertex_tree(lone_cfg, capsys):
    code = main(["sweep", "--space", lone_cfg, "--runs", "2", "--D", "1/2", "--seed", "1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "lion-wins-physical=2"


def test_demo_l2(capsys):
    code = main(["demo-l2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS lambda=sqrt(11/3)" in out
    assert "(s,t)=(0,110)" in out


def test_sweep_deterministic_outputs(tripod_cfg, tmp_path, capsys):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for out in (out1, out2):
        code = main(["sweep", "--space", tripod_cfg, "--man", "greedy", "--runs", "8",
                     "--D", "1/2", "--N", "40", "--seed", "11", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "lion-wins-physical=8" in capsys.readouterr().out


def test_sweep_draws_starts_inside_a_ball_domain(tmp_path, capsys):
    cfg = tmp_path / "ball.json"
    ball = {"kind": "ball", "center": [0, 0], "radius": 6}
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 2}, "domain": ball}))
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--space", str(cfg), "--D", "1", "--N", "20", "--seed", "2",
            "--runs", "3", "--out", str(out)]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + 3
    # a domain the sampler (almost) never hits gives up with the bad-input code
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 2},
                               "domain": {**ball, "radius": 1e-9}}))
    assert main(argv) == 2
    assert "no start pair inside the domain" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("simulate", "--D"), ("sweep", "--D"),
                                           ("analyze", "--D"), ("analyze", "--k")])
def test_malformed_step_option_exits_2_naming_the_flag(command, flag, tmp_path, capsys):
    # a rational step on a float space is malformed input, not a crash
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 2}}))
    run = tmp_path / "run.json"
    assert main(["simulate", "--space", str(cfg), "--man", "stationary", "--D", "1",
                 "--N", "5", "--man-start", "[3, 0]", "--out", str(run)]) == 0
    argv = {"simulate": ["--man", "stationary", "--man-start", "[3, 0]", "--D", "1"],
            "sweep": ["--seed", "1", "--runs", "1", "--D", "1"],
            "analyze": ["--transcript", str(run), "--k", "1"]}[command]
    argv = [command, "--space", str(cfg)] + argv + [flag, "1/2"]
    capsys.readouterr()
    if (command, flag) == ("analyze", "--D"):
        # analyze reads D from the transcript and has no --D
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments: --D 1/2" in capsys.readouterr().err
        return
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}:")
    assert "Traceback" not in err


@pytest.mark.parametrize("space, argv", [
    ("euclidean", ["sweep", "--D", "1", "--N", "5", "--seed", "1", "--scale=-1"]),
    ("hyperbolic", ["estimate-delta", "--seed", "1", "--scale", "nan"]),
    ("hyperbolic", ["estimate-delta", "--seed", "1", "--scale=-2"]),
])
def test_an_out_of_range_scale_exits_2_naming_the_flag(space, argv, tmp_path, capsys):
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps({"space": {"kind": space}}))
    assert main(argv[:1] + ["--space", str(cfg)] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --scale:")
    assert "Traceback" not in err


@pytest.mark.parametrize("space, argv", [
    ({"kind": "hyperbolic"}, ["estimate-delta", "--seed", "-1"]),
    ({"kind": "euclidean", "dim": 2}, ["sweep", "--D", "1", "--seed", "-3"]),
    (lm.tripod().to_config(), ["simulate", "--man", "random", "--D", "1/2",
                               "--man-start", '{"vertex": "b"}', "--seed", "-1"]),
], ids=["estimate-delta", "sweep", "simulate"])
def test_a_negative_seed_exits_2_naming_the_flag(space, argv, tmp_path, capsys):
    cfg = tmp_path / "space.json"
    cfg.write_text(json.dumps({"space": space}))
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--space", str(cfg)] + argv[1:])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "Traceback" not in err


def test_simulate_byte_identical_reruns(tripod_cfg, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        main(["simulate", "--space", tripod_cfg, "--man", "random", "--D", "1/2",
              "--N", "40", "--seed", "5", "--lion", '{"vertex": "a"}',
              "--man-start", '{"vertex": "b"}', "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("domain, code", [
    ({"kind": "subtree", "vertices": ["r", "p"], "include_ray": True}, 0),
    ({"kind": "subtree", "include_ray": True}, 2),
], ids=["subtree-with-ray", "subtree-without-vertices"])
def test_simulate_in_a_subtree_domain(domain, code, tmp_path, capsys):
    # the greedy man flees along the ray the domain includes; the transcript
    # reloads with its domain and saves again byte for byte
    cfg = tmp_path / "subtree.json"
    cfg.write_text(json.dumps({"space": lm.ray_tree().to_config(), "domain": domain}))
    out, again = tmp_path / "tr.json", tmp_path / "again.json"
    assert main(["simulate", "--space", str(cfg), "--man", "greedy", "--D", "1/2", "--N", "12",
                 "--lion", '{"vertex": "p"}', "--man-start", '{"edge": -1, "offset": "1"}',
                 "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == "error: subtree domain config: missing 'vertices'\n"
        return
    tr = lm.load_transcript(str(out))
    assert tr.domain == lm.SubtreeDomain({"r", "p"}, include_ray=True)
    assert any(r.man.edge == lm.RAY_EDGE and r.man.offset > 1 for r in tr.records)
    lm.save_transcript(tr, str(again))
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("radius", ["7/3", "1/3"])
def test_simulate_in_an_exact_tree_ball(radius, tmp_path, capsys):
    # a "p/q" radius reads as an exact Fraction, the transcript writes it back
    # as the same text, and it reloads and saves again byte for byte
    cfg = tmp_path / "ball.json"
    cfg.write_text(json.dumps({"space": lm.ray_tree().to_config(),
                               "domain": {"kind": "ball", "center": {"vertex": "r"},
                                          "radius": radius}}))
    out, again = tmp_path / "tr.json", tmp_path / "again.json"
    man = '{"vertex": "q"}' if radius == "7/3" else '{"edge": -1, "offset": "1/4"}'
    assert main(["simulate", "--space", str(cfg), "--man", "greedy", "--D", "1/2", "--N", "12",
                 "--lion", '{"vertex": "r"}', "--man-start", man, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["header"]["domain"]["radius"] == radius
    tr = lm.load_transcript(str(out))
    assert tr.domain == lm.Ball(lm.vertex_point("r"), Fraction(radius))
    assert type(tr.domain.radius) is Fraction
    lm.save_transcript(tr, str(again))
    assert again.read_bytes() == out.read_bytes()


@pytest.mark.parametrize("radius", ["nan", "-1/3", "1/0", "x", math.nan, -1])
def test_a_bad_ball_radius_exits_2_naming_the_radius(radius, tmp_path, capsys):
    cfg = tmp_path / "ball.json"
    cfg.write_text(json.dumps({"space": lm.ray_tree().to_config(),
                               "domain": {"kind": "ball", "center": {"vertex": "r"},
                                          "radius": radius}}))
    assert main(["simulate", "--space", str(cfg), *STATIONARY, '{"vertex": "r"}']) == 2
    assert capsys.readouterr().err.startswith("error: ball radius must be >= 0, got ")


def test_random_strategy_requires_seed(tripod_cfg):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--space", tripod_cfg, "--man", "random", "--D", "1",
              "--man-start", '{"vertex": "b"}'])
    assert info.value.code == 2


def test_malformed_config_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"space": {"kind": "nosuch"}}')
    code = main(["simulate", "--space", str(bad), "--man", "stationary", "--D", "1",
                 "--man-start", "[0]"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


PLANE = {"space": {"kind": "euclidean", "dim": 2}}
SEGMENT_TREE = {"space": {"kind": "rtree", "vertices": ["c", "a"], "edges": [["c", "a", "1"]]}}
STATIONARY = ["--man", "stationary", "--D", "1", "--man-start"]
BROKEN = '{"space":\n'  # JSON that ends before a value: line 2, column 1


@pytest.mark.parametrize("config, argv", [
    (PLANE, ["simulate", *STATIONARY, "[3, 0]", "--lion", "5"]),
    (PLANE, ["simulate", *STATIONARY, "[3, 0]", "--lion", '[1, "a"]']),
    (PLANE, ["simulate", *STATIONARY, "[3, 0]", "--lion", '{"coords": 3}']),
    (SEGMENT_TREE, ["simulate", *STATIONARY, '{"vertex": "a"}', "--lion", '{"edge": 0}']),
    ({"space": {"kind": "euclidean", "dim": "x"}}, ["simulate", *STATIONARY, "[3, 0]"]),
    ({**PLANE, "domain": {"kind": "ball", "center": [0, 0], "radius": "x"}},
     ["simulate", *STATIONARY, "[3, 0]"]),
    (5, ["simulate", *STATIONARY, "[3, 0]"]),
    (PLANE, ["analyze", "--transcript", "{}", "--k", "12"]),
    (PLANE, ["verify-curve", "--curve", "{}", "--lambda", "1"]),
    (BROKEN, ["simulate", *STATIONARY, "[3, 0]"]),
    (PLANE, ["analyze", "--transcript", "broken", "--k", "12"]),
    (PLANE, ["verify-curve", "--curve", "broken", "--lambda", "1"]),
    (PLANE, ["simulate", *STATIONARY, "[3, 0]", "--lion", BROKEN]),
    (PLANE, ["simulate", *STATIONARY, BROKEN]),
    (PLANE, ["analyze", "--transcript", "latin1", "--k", "12"]),
], ids=["lion-number", "lion-word-coord", "lion-number-coords", "tree-lion-no-offset",
        "dim-word", "radius-word", "config-number", "transcript-empty", "curve-empty",
        "config-broken", "transcript-broken", "curve-broken", "lion-broken",
        "man-start-broken", "transcript-not-utf8"])
def test_malformed_outside_json_exits_2(config, argv, tmp_path, capsys):
    # every reader of outside JSON reports a wrong shape or value as bad input,
    # and JSON that does not decode as <source>: line L, column C: <msg>
    cfg = tmp_path / "space.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    files = {"{}": b"{}", "broken": BROKEN.encode(), "latin1": '{"\xe9"'.encode("latin-1")}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_bytes(data)
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
    if argv[0] != "verify-curve":
        argv[1:1] = ["--space", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    source = next((flag if a == BROKEN else a for flag, a in zip(argv, argv[1:])
                   if a == BROKEN or a.endswith(("broken.json", "latin1.json"))),
                  str(cfg) if config == BROKEN else None)
    if source:
        assert err.startswith(f"error: {source}: ")
    if source and "latin1" not in source:
        assert err.endswith(": line 2, column 1: Expecting value\n")


def test_analyze_without_measurable_angles_exits_2(tmp_path, capsys):
    # the lion sits on the man from the first step, so every angle is a gap
    cfg = tmp_path / "plane.json"
    cfg.write_text(json.dumps(PLANE))
    tr = tmp_path / "tr.json"
    assert main(["simulate", "--space", str(cfg), *STATIONARY, "[0.5, 0]", "--N", "3",
                 "--lion", "[0, 0]", "--continue-after-capture", "--out", str(tr)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--space", str(cfg), "--transcript", str(tr), "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no measurable angles" in err
    assert "Traceback" not in err


def test_simulate_stops_at_the_disk_numeric_horizon(tmp_path, capsys):
    # a greedy man fleeing across the whole disk is clamped onto the float rim
    # at the end of step 39; the run stops there instead of exiting as bad input
    cfg = tmp_path / "disk.json"
    cfg.write_text(json.dumps({"space": {"kind": "hyperbolic"}}))
    runs = {}
    for n, code in ((40, 0), (60, 5)):
        out = tmp_path / f"tr{n}.json"
        assert main(["simulate", "--space", str(cfg), "--man", "greedy", "--D", "1",
                     "--N", str(n), "--man-start", "[0.5, 0]", "--out", str(out)]) == code
        runs[n] = out
    err = capsys.readouterr().err
    assert "numeric horizon after 40 steps" in err
    assert hashlib.sha256(runs[40].read_bytes()).hexdigest() == (
        "8550af4e3a38ef00b11b544d3a8164f0790b7e54239e950f7505d35fdeb9fe20")
    short, cut = (json.loads(runs[n].read_text()) for n in (40, 60))
    assert (short["stop_reason"], cut["stop_reason"]) == ("step-budget", "numeric-horizon")
    assert cut["steps"] == short["steps"]
    assert cut["final_lion"] == short["final_lion"]


def test_strategy_fault_exit_code(tmp_path, capsys):
    cfg = tmp_path / "seg.json"
    cfg.write_text(json.dumps({"space": {"kind": "euclidean", "dim": 1},
                               "domain": {"kind": "ball", "center": [5], "radius": 5}}))
    curve = tmp_path / "line.json"
    eu = lm.EuclideanSpace(1)
    lm.save_curve(lm.Curve(eu, tuple(float(t) for t in range(0, 200, 5)),
                           tuple(lm.epoint(float(t)) for t in range(0, 200, 5))), curve)
    code = main(["simulate", "--space", str(cfg), "--man", "directional",
                 "--curve", str(curve), "--D", "1", "--N", "50", "--lion", "[0]"])
    assert code == 3
    assert "strategy fault" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "lionman.cli", "demo-l2", "--grid", "120"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency; a fresh interpreter shows it
    code = ("import sys, lionman, lionman.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(lm.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
