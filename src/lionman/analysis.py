"""Post-hoc transcript analysis: turning angles, win curves, capture audits.

A winning man forces the lion's turning angles toward pi; once they clear
an explicit threshold the lion's own path becomes a locally quasi-geodesic
ray, which is the bridge from game outcomes to the existence of geodesic
rays.  On trees the lion's path admits an exact audit: while the gap
exceeds D the path is laying out a geodesic at speed exactly D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curves import Curve, QGReport, check_quasi_geodesic, extract_ray_from_directional_sequence
from .errors import InvalidInputError, ThresholdNotMetError
from .game import (DirectionalStrategy, GameConfig, GreedyStrategy, StationaryStrategy,
                   Transcript, classify_outcome, run_game)
from . import files, spaces
from .spaces import RTreeSpace, Space


_TAIL_FRAC = 0.2  # share of the measured angles that makes up the tail


@dataclass
class BetaSequence:
    """Lion turning angles beta_n and man-direction angles alpha_n.

    beta_n is the angle at L_n between the directions of L_{n-1} and M_n
    (the latter also being the direction of L_{n+1}); alpha_n is the angle
    at L_n between M_{n-1} and M_n.  Steps where an angle is undefined
    (coincident points, typically after capture) are listed in ``gaps``.
    """

    steps: list
    beta: list
    alpha: list
    gaps: list

    def tail_stats(self):
        if not self.beta:  # every step is an angle gap
            raise InvalidInputError("transcript has no measurable angles")
        take = max(1, math.ceil(len(self.beta) * _TAIL_FRAC))
        tail = self.beta[-take:]
        return min(tail), sum(tail) / len(tail)


def _check_records(space: Space, transcript: Transcript) -> None:
    """Check each point of the transcript once; the passes then call `_dist` directly."""
    for r in transcript.records:
        space.check_point(r.lion, f"step {r.n} lion")
        space.check_point(r.man, f"step {r.n} man")
    space.check_point(transcript.final_lion, "final lion")


def beta_angles(space: Space, transcript: Transcript) -> BetaSequence:
    """Angle sequences of a transcript, computed with the exact per-space angles.

    A game captured at its first lion step has one record and no angle.
    """
    _check_records(space, transcript)
    return _angles(space, transcript)


def _angles(space: Space, transcript: Transcript, with_alpha=True) -> BetaSequence:
    """`beta_angles` of a transcript whose points are checked members.

    Without ``with_alpha`` every alpha is None, d(L_n, M_{n-1}) and the
    alpha angle left unmeasured.
    """
    records = transcript.records
    if len(records) < 2 and transcript.capture_step is None:
        raise InvalidInputError("need at least two recorded steps")
    steps, betas, alphas, gaps = [], [], [], []
    for n in range(1, len(records)):
        prev, cur = records[n - 1], records[n]
        lion = cur.lion
        back = space._dist(lion, prev.lion)
        if back == 0 or (ahead := space._dist(lion, cur.man)) == 0:
            gaps.append(n)
            continue
        # both sides of each angle are nonzero, as the closed forms require;
        # each angle reuses the sides measured here
        beta = space._angle(lion, prev.lion, cur.man, back, ahead)
        alpha = None
        if with_alpha and (man_back := space._dist(lion, prev.man)) > 0:
            alpha = space._angle(lion, prev.man, cur.man, man_back, ahead)
        steps.append(n)
        betas.append(beta)
        alphas.append(alpha)
    return BetaSequence(steps=steps, beta=betas, alpha=alphas, gaps=gaps)


def beta_threshold(k, D) -> float:
    """Angle bound pi - pi/(4 ceil(k/D)) that certifies k-local straightness."""
    if not k > 0 or not D > 0:
        raise InvalidInputError("k and D must be positive")
    return math.pi - math.pi / (4 * math.ceil(k / D))


def curve_from_transcript(space: Space, transcript: Transcript, k):
    """Lion path re-read as a curve once the turning angles clear the threshold.

    Returns (n_k, curve) for the smallest index n_k >= 1 such that every
    recorded angle beta_n with n >= n_k stays above the threshold; the
    curve passes through L_{n_k}, L_{n_k + 1}, ... at parameter speed D, the
    transcript's step.
    Raises ThresholdNotMetError, carrying the best achievable tail bound,
    when no index works through the end of the record.
    """
    theta = beta_threshold(k, transcript.D)
    _check_records(space, transcript)
    # the win curve reads the steps and the betas only
    return _win_curve(space, transcript, _angles(space, transcript, with_alpha=False), theta)


def _win_curve(space: Space, transcript: Transcript, bs: BetaSequence, theta):
    """``curve_from_transcript`` on the checked transcript's measured angles ``bs``."""
    if not bs.steps:
        raise InvalidInputError("transcript has no measurable angles")

    guard = 1e-12
    n_k = None
    suffix_ok = True
    for i in range(len(bs.steps) - 1, -1, -1):
        suffix_ok = suffix_ok and bs.beta[i] >= theta - guard
        if suffix_ok:
            n_k = bs.steps[i]
        else:
            break
    if n_k is None:
        best = -math.inf
        running = math.inf
        for b in reversed(bs.beta):
            running = min(running, b)
            best = max(best, running)
        raise ThresholdNotMetError(
            f"no index keeps beta above {theta:.6f} through the record end",
            best_tail=best)

    D, lions = transcript.D, transcript.lion_path()
    pts = [lions[n_k]]
    for p, q in zip(lions[n_k:], lions[n_k + 1:]):
        hop = space._dist(p, q)
        if abs(float(hop) - float(D)) > 1e-9 * max(1.0, float(D)):
            break
        pts.append(q)
    if len(pts) < 2:
        raise InvalidInputError("no full-speed lion moves after the threshold index")
    params = tuple(i * D for i in range(len(pts)))
    curve = Curve(space, params, tuple(pts), meta={"generator": "lion_path", "n_k": n_k})
    return n_k, curve


def verify_mans_win_curve(curve: Curve, k, grid: int) -> QGReport:
    """Certify the k-local sqrt(2)-quasi-geodesic property on a grid."""
    return check_quasi_geodesic(curve, math.sqrt(2.0), 0.0, grid, k=k)


@dataclass
class CaptureAudit:
    """Exact audit of the lion path on a tree while the gap exceeds D.

    For each audited step: L_n must lie on [L_0, L_{n+1}] (colinearity
    residual d(L_0,L_n) + d(L_n,L_{n+1}) - d(L_0,L_{n+1})) and the lion
    must be exactly n*D from its start.  A full pass on a capture-free
    transcript certifies the path is laying out a geodesic ray.
    """

    passed: bool
    steps: list
    colinearity: list
    dist_residuals: list
    first_failure: int | None
    final_distance: object | None


def rtree_capture_audit(space: RTreeSpace, transcript: Transcript) -> CaptureAudit:
    _check_tree(space, transcript)
    _check_records(space, transcript)
    return _audit(space, transcript)


def _check_tree(space: Space, transcript: Transcript) -> None:
    """Raise unless the transcript was played on the tree ``space``."""
    if not isinstance(space, RTreeSpace) or transcript.space.kind != "rtree":
        raise InvalidInputError("capture audit requires a tree-space transcript")
    if spaces.space_to_config(space) != spaces.space_to_config(transcript.space):
        raise InvalidInputError("transcript was produced on a different tree")


def _audit(space: RTreeSpace, transcript: Transcript) -> CaptureAudit:
    """`rtree_capture_audit` of a checked transcript played on that tree."""
    D, lions = transcript.D, transcript.lion_path()
    L0 = lions[0]
    steps, colin, dist_res = [], [], []
    first_failure = None
    final_distance = None
    d0n = space._dist(L0, L0)  # then each step's d(L_0, L_{n+1}), carried to the next
    for n, rec in enumerate(transcript.records):
        if not rec.dist > D:
            break
        d0_next = space._dist(L0, lions[n + 1])
        resid_c = d0n + space._dist(lions[n], lions[n + 1]) - d0_next
        resid_d = abs(d0n - n * D)
        steps.append(n)
        colin.append((n, resid_c))
        dist_res.append((n, resid_d))
        if (resid_c > 0 or resid_d > 0) and first_failure is None:
            first_failure = n
        d0n = d0_next
    else:
        # no capture inside the record: the final lion position closes the ray
        n = len(transcript.records)
        final_distance = d0n
        if abs(final_distance - n * D) > 0 and first_failure is None:
            first_failure = n
    return CaptureAudit(passed=first_failure is None, steps=steps, colinearity=colin,
                        dist_residuals=dist_res, first_failure=first_failure,
                        final_distance=final_distance)


def analyze_transcript(space: Space, transcript: Transcript, k, grid=256):
    """Every certificate of one transcript, from one check of its points.

    Returns (report, angles, audit, passed): the report `lionman analyze`
    writes, the BetaSequence, the tree CaptureAudit (None off trees), and
    whether every certificate that applies holds.
    """
    _check_records(space, transcript)
    bs = _angles(space, transcript)
    report = {}
    if len(transcript.records) > 1:  # else a capture at the first lion step decided it
        tail_min, tail_mean = bs.tail_stats()
        report.update(beta_tail_min=tail_min, beta_tail_mean=tail_mean)
    report["angle_gaps"] = bs.gaps
    passed, audit = True, None
    if transcript.capture_step is not None:
        report["capture_step"] = transcript.capture_step
    else:
        try:
            n_k, curve = _win_curve(space, transcript, bs, beta_threshold(k, transcript.D))
            qg = verify_mans_win_curve(curve, k, grid=grid)
            report.update(n_k=n_k, local_qg_passed=qg.passed, min_ratio=qg.min_ratio)
            passed = qg.passed
        except ThresholdNotMetError as exc:
            report.update(threshold_not_met=True, best_tail=exc.best_tail)
            passed = False
    if isinstance(space, RTreeSpace):
        _check_tree(space, transcript)
        audit = _audit(space, transcript)
        report["audit_passed"] = audit.passed
        if audit.final_distance is not None:
            report["final_distance"] = float(audit.final_distance)
        passed = passed and audit.passed
    return report, bs, audit, passed


# ---------------------------------------------------------------------------
# experiment harness


@dataclass
class EquivalenceReport:
    """Desk-scale alignment of boundedness, win/loss, and ray certificates.

    Collates a strategy battery on one domain: per-strategy outcomes, the
    win-curve certificate and exact audit where they apply, and a ray
    extracted from the lion path of a winning man.  ``exploratory`` flags
    families that are not Gromov hyperbolic, where no equivalence is
    claimed.
    """

    space_kind: str
    domain: object
    D: object
    n_steps: int
    runs: list
    certificates: dict
    exploratory: bool
    notes: list


def equivalence_report(space: Space, domain, D, n_steps, tol, lion_start,
                       man_start, seed=0, curve=None, k=None) -> EquivalenceReport:
    strategies = [StationaryStrategy(), GreedyStrategy(domain)]
    if curve is not None:
        strategies.append(DirectionalStrategy(curve, D))
    exploratory = not space.gromov_hyperbolic
    notes = []
    if exploratory:
        notes.append("space is not Gromov hyperbolic; outcomes are exploratory only")

    runs = []
    certificates = {}
    for strat in strategies:
        start = strat.start() if isinstance(strat, DirectionalStrategy) else man_start
        config = GameConfig(space=space, domain=domain, D=D, n_steps=n_steps,
                            tol=tol, lion_start=lion_start, man_start=start, seed=seed)
        tr = run_game(config, strat)
        outcome = classify_outcome(tr)
        runs.append({"strategy": strat.name, "outcome": outcome.classification,
                     "n0": outcome.n0, "tail_min": outcome.tail_min})
        if outcome.classification == "man-wins-observed":
            cert, _, audit, _ = analyze_transcript(space, tr, 12 * D if k is None else k, 128)
            k_max = min(5, int(float(D) * n_steps))
            if audit is not None and k_max >= 1:  # else the path never reaches distance 1
                ray = extract_ray_from_directional_sequence(space, tr.lion_path(), 0.0,
                                                            k_max=k_max)
                cert["ray_residual_max"] = max(
                    (max(h) for h in ray.residuals.values() if h), default=0.0)
            certificates[strat.name] = cert
        if isinstance(space, RTreeSpace) and outcome.classification == "lion-wins-physical":
            audit = rtree_capture_audit(space, tr)
            certificates[strat.name] = {"audit_passed": audit.passed,
                                        "capture_step": tr.capture_step}
    return EquivalenceReport(space_kind=space.kind, domain=domain, D=D,
                             n_steps=n_steps, runs=runs, certificates=certificates,
                             exploratory=exploratory, notes=notes)


# ---------------------------------------------------------------------------
# CSV emitters


def write_beta_csv(bs: BetaSequence, path) -> None:
    files.write_csv(path, ["n", "beta_n", "alpha_n"],
                    ([n, b, "" if a is None else a]
                     for n, b, a in zip(bs.steps, bs.beta, bs.alpha)))


def write_audit_csv(audit: CaptureAudit, path) -> None:
    files.write_csv(path, ["n", "colinearity_residual", "distance_residual"],
                    ([n, float(rc), float(rd)]
                     for (n, rc), (_, rd) in zip(audit.colinearity, audit.dist_residuals)))
