"""Command-line front door: run games, analyses, and curve certificates.

Outputs are structured JSON plus plot-ready CSV; every stochastic component
takes an explicit seed, and identical invocations produce byte-identical
files.  Space and domain definitions come from a JSON config file:

    {"space": {"kind": "rtree",
               "vertices": ["c", "a", "b", "d"],
               "edges": [["c", "a", "1"], ["c", "b", "1"], ["c", "d", "1"]],
               "ray_at": "a"},
     "domain": {"kind": "whole"}}

    {"space": {"kind": "euclidean", "dim": 2},
     "domain": {"kind": "ball", "center": [0, 0], "radius": 5}}

    {"space": {"kind": "l2box", "n": 6, "base": 10}}
    {"space": {"kind": "hyperbolic"}}

Tree edge lengths (and --D for tree games) parse as exact rationals, e.g.
"3/2".  Points on the command line are JSON: coordinates as a list, tree
points as {"vertex": "a"} or {"edge": 0, "offset": "1/2"}.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import analysis, curves, files, game, hyperbolicity, spaces
from .errors import GeometryError, InvalidInputError, StrategyFaultError

_SWEEP_DRAWS = 1000  # start pairs a sweep run may draw before giving up


def _parse_point(text, space, flag):
    def build(data):
        if isinstance(data, list):
            data = {"coords": data}
        return spaces.point_from_json({"kind": space.kind, **data})
    return files.parse_json(text, flag, "point", build)


def _scalar(space, text, flag):
    """Parse a step or scale option, naming the flag when it is malformed."""
    try:
        return space.scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"{flag}: {exc}") from None


def _sampler(space, args, seed):
    """The command's seeded point sampler, naming --scale when the scale is out of range."""
    try:
        return spaces.PointSampler(space, scale=args.scale, seed=seed)
    except InvalidInputError as exc:
        raise InvalidInputError(f"--scale: {exc}") from None


def _make_strategy(args, domain, D, seed):
    if args.man == "stationary":
        return game.StationaryStrategy()
    if args.man == "greedy":
        return game.GreedyStrategy(domain, directions=args.directions)
    if args.man == "random":
        return game.RandomStrategy(domain, seed=seed)
    if args.man == "directional":
        if not args.curve:
            raise GeometryError("directional strategy needs --curve")
        return game.DirectionalStrategy(curves.load_curve(args.curve), D)
    raise GeometryError(f"unknown strategy {args.man!r}")


def cmd_simulate(args):
    space, domain = spaces.load_space_config(args.space)
    D = _scalar(space, args.D, "--D")
    strategy = _make_strategy(args, domain, D, args.seed)
    lion = _parse_point(args.lion, space, "--lion") if args.lion else space.origin()
    if args.man_start:
        man = _parse_point(args.man_start, space, "--man-start")
    elif isinstance(strategy, game.DirectionalStrategy):
        man = strategy.start()
    else:
        raise GeometryError(f"--man-start is required for the {args.man} strategy")
    config = game.GameConfig(space=space, domain=domain, D=D, n_steps=args.N,
                             tol=args.tol, lion_start=lion, man_start=man,
                             seed=args.seed,
                             stop_on_capture=not args.continue_after_capture)
    try:
        tr = game.run_game(config, strategy)
    except StrategyFaultError as exc:
        print(f"strategy fault at step {exc.step}: {exc}", file=sys.stderr)
        return 3
    if args.out:
        game.save_transcript(tr, args.out)
    if args.csv:
        game.write_dist_csv(tr, args.csv)
    outcome = game.classify_outcome(tr)
    n0 = "" if outcome.n0 is None else f" n0={outcome.n0}"
    print(f"outcome={outcome.classification}{n0} steps={len(tr.records)} "
          f"stop={tr.stop_reason} tail_min={outcome.tail_min:.6g}")
    if tr.stop_reason == "numeric-horizon":
        print(f"numeric horizon after {len(tr.records)} steps: a placed point "
              f"rounded out of the space", file=sys.stderr)
        return 5
    return 0


def cmd_analyze(args):
    space, _ = spaces.load_space_config(args.space)
    tr = game.load_transcript(args.transcript)
    k = _scalar(space, args.k, "--k")

    report, bs, audit, ok = analysis.analyze_transcript(space, tr, k, args.grid)
    if args.beta_csv:
        analysis.write_beta_csv(bs, args.beta_csv)
    if args.audit_csv and audit is not None:
        analysis.write_audit_csv(audit, args.audit_csv)
    if args.out:
        files.write_json(args.out, report)
    for key in sorted(report):
        print(f"{key}={report[key]}")
    return 0 if ok else 4


def cmd_verify_curve(args):
    curve = curves.load_curve(args.curve)
    report = curves.check_quasi_geodesic(curve, args.lam, args.epsilon,
                                         grid=args.grid, k=args.k)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} lambda={report.lam:.6g} eps={report.eps:.6g} "
          f"pairs={report.n_pairs} min_ratio={report.min_ratio:.9g}")
    if report.first_lower_violation:
        s, t, d = report.first_lower_violation
        print(f"first lower violation: s={float(s):.6g} t={float(t):.6g} dist={d:.9g}")
    if args.witness_csv:
        pair = report.min_ratio_pair
        witnesses = [("min_ratio", pair and (*pair, report.min_ratio)),
                     ("first_lower_violation", report.first_lower_violation),
                     ("first_upper_violation", report.first_upper_violation)]
        files.write_csv(args.witness_csv, ["which", "s", "t", "value"],
                        ([which, float(w[0]), float(w[1]), w[2]] for which, w in witnesses if w))
    return 0 if report.passed else 4


def cmd_extract_ray(args):
    curve = curves.load_curve(args.curve)
    ray = curves.extract_ray_from_quasi_geodesic(
        curve.space, curve, lam=args.lam, alpha=args.alpha, k_max=args.k_max)
    if args.out:
        files.write_csv(args.out, ["k", "distance_residual", "last_cauchy_residual", "stopped"],
                        ([k, dres, ray.residuals[k][-1] if ray.residuals[k] else 0.0,
                          ray.stopped[k]]
                         for k, (_, dres) in zip(ray.ks, ray.distance_residuals)))
    worst = max(r for _, r in ray.distance_residuals)
    print(f"extracted k=1..{args.k_max} worst |d(x0,x*_k)-k|={worst:.3g}")
    return 0


def cmd_estimate_delta(args):
    space, _ = spaces.load_space_config(args.space)
    sampler = _sampler(space, args, args.seed)
    delta = hyperbolicity.estimate_delta(space, sampler, args.trials, grid=args.grid)
    print(f"space={space.kind} trials={args.trials} seed={args.seed} delta={float(delta):.9g}")
    return 0


def cmd_demo_l2(args):
    curve = curves.l2_example_curve(n_dims=6, base=10.0)
    lam = math.sqrt(11.0 / 3.0)
    good = curves.check_quasi_geodesic(curve, lam, 0.0, grid=args.grid)
    print(f"{'PASS' if good.passed else 'FAIL'} lambda=sqrt(11/3) "
          f"pairs={good.n_pairs} min_ratio={good.min_ratio:.9f} "
          f"(bound {1.0 / lam:.9f})")
    bad = curves.check_quasi_geodesic(curve, 1.0, 0.0, grid=args.grid)
    witness = bad.first_lower_violation
    if witness:
        s, t, d = witness
        print(f"{'FAIL' if not bad.passed else 'PASS'} lambda=1 "
              f"first violation (s,t)=({float(s):g},{float(t):g}) dist={d:.9f}")
    expected = (good.passed and not bad.passed and witness is not None
                and float(witness[0]) == 0.0 and float(witness[1]) == 110.0)
    return 0 if expected else 4


def cmd_sweep(args):
    space, domain = spaces.load_space_config(args.space)
    D = _scalar(space, args.D, "--D")
    rows = []
    for i in range(args.runs):
        sampler = _sampler(space, args, args.seed + i)
        # redraw start pairs until both lie in the domain (on the whole space
        # the first pair always does)
        for _ in range(_SWEEP_DRAWS):
            lion, man = sampler.draw(), sampler.draw()
            if all(spaces.domain_contains(space, domain, p) for p in (lion, man)):
                break
        else:
            raise InvalidInputError(f"sweep run {i}: no start pair inside the domain "
                                    f"in {_SWEEP_DRAWS} draws")
        strategy = _make_strategy(args, domain, D, args.seed + i)
        config = game.GameConfig(space=space, domain=domain, D=D, n_steps=args.N,
                                 tol=args.tol, lion_start=lion, man_start=man,
                                 seed=args.seed + i)
        tr = game.run_game(config, strategy)
        outcome = game.classify_outcome(tr)
        rows.append([i, outcome.classification,
                     "" if outcome.n0 is None else outcome.n0, len(tr.records)])
    if args.out:
        files.write_csv(args.out, ["run", "outcome", "n0", "steps"], rows)
    counts = {}
    for row in rows:
        counts[row[1]] = counts.get(row[1], 0) + 1
    print(" ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lionman",
                                     description="pursuit games and ray certificates "
                                                 "on geodesic spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one pursuit and classify the outcome")
    p.add_argument("--space", required=True, help="space/domain config file")
    p.add_argument("--man", required=True,
                   choices=["stationary", "greedy", "directional", "random"])
    p.add_argument("--curve", help="curve file for the directional strategy")
    p.add_argument("--D", required=True, help="step size (rational on trees)")
    p.add_argument("--N", type=int, default=200, help="step budget")
    p.add_argument("--tol", type=float, default=1e-9, help="capture tolerance")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--lion", help="lion start point (JSON)")
    p.add_argument("--man-start", help="man start point (JSON)")
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--continue-after-capture", action="store_true")
    p.add_argument("--out", help="transcript JSON path")
    p.add_argument("--csv", help="(n, D_n) CSV path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="angles, win-curve certificate, tree audit")
    p.add_argument("--space", required=True)
    p.add_argument("--transcript", required=True)
    p.add_argument("--k", required=True, help="locality scale")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--beta-csv")
    p.add_argument("--audit-csv")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify-curve", help="quasi-geodesic bounds on a grid")
    p.add_argument("--curve", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--k", type=float, default=None, help="restrict to |s-t| <= k")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--witness-csv")
    p.set_defaults(func=cmd_verify_curve)

    p = sub.add_parser("extract-ray", help="geodesic-ray points from a quasi-geodesic")
    p.add_argument("--curve", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--out", help="residual CSV path")
    p.set_defaults(func=cmd_extract_ray)

    p = sub.add_parser("estimate-delta", help="slimness of seeded random triangles")
    p.add_argument("--space", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=4.0)
    p.add_argument("--grid", type=int, default=24)
    p.set_defaults(func=cmd_estimate_delta)

    p = sub.add_parser("demo-l2", help="box-curve demonstration: quasi-geodesic "
                                       "with lambda=sqrt(11/3), not with lambda=1")
    p.add_argument("--grid", type=int, default=500)
    p.set_defaults(func=cmd_demo_l2)

    p = sub.add_parser("sweep", help="seeded batch of runs with random starts in the domain")
    p.add_argument("--space", required=True)
    p.add_argument("--man", default="greedy",
                   choices=["stationary", "greedy", "random"])
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--D", required=True)
    p.add_argument("--N", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scale", type=float, default=2.0)
    p.add_argument("--directions", type=int, default=8)
    p.add_argument("--out", help="summary CSV path")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = getattr(args, "seed", None)
    if getattr(args, "man", None) == "random" and seed is None:
        parser.error("--seed is required with the random strategy")
    if seed is not None and seed < 0:  # numpy's seeded generators take none
        parser.error(f"argument --seed: must be >= 0, got {seed}")
    try:
        return args.func(args)
    except (GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
