"""Discrete equal-speed pursuit on a convex domain of a geodesic space.

Each round the lion steps distance min(D, gap) along the geodesic toward
the man's current position, then the man moves anywhere in the domain at
most D away.  The lion wins by physical capture (landing on the man's
spot) or in the limit (the gap decreasing to D); transcripts record every
position so the win condition and all rule invariants can be audited after
the fact.  On trees with rational data the whole run is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curves import Curve
from .errors import InvalidInputError, StrategyFaultError
from . import files, spaces
from .spaces import Point, Space, domain_contains


def _num_to_json(x):
    return str(x) if isinstance(x, Fraction) else float(x)


def _num_from_json(x):
    return files.read_fraction(x) if isinstance(x, str) else float(x)


@dataclass(frozen=True)
class GameConfig:
    """Rules and starting data of one pursuit.

    ``tol`` is the physical-capture tolerance: the run counts a capture as
    soon as the post-move gap d(L_{n+1}, M_n) falls to tol or below.  With
    ``stop_on_capture`` false the run continues to the step budget, which
    makes the absorption behavior (lion pinned to the man's previous spot)
    observable.
    """

    space: Space
    domain: object
    D: object
    n_steps: int
    tol: float
    lion_start: Point
    man_start: Point
    seed: int | None = None
    stop_on_capture: bool = True

    def __post_init__(self):
        if isinstance(self.D, int):
            # the space's number type, so that a saved tree game reloads exact
            object.__setattr__(self, "D", self.space.scalar(self.D))
        if not self.D > 0:
            raise InvalidInputError("step size D must be positive")
        if not self.tol > 0:
            raise InvalidInputError("capture tolerance must be positive")
        if not self.n_steps >= 1:
            raise InvalidInputError("need at least one step")
        for name, p in (("lion_start", self.lion_start), ("man_start", self.man_start)):
            if not domain_contains(self.space, self.domain, p):
                raise InvalidInputError(f"{name} {p!r} lies outside the domain")


@dataclass(frozen=True)
class StepRecord:
    """One round: positions before the moves, the gap after the lion's move.

    ``dist`` is d(L_n, M_n); ``gap`` is d(L_{n+1}, M_n).  ``note`` flags a
    clamped man move ("clamped").
    """

    n: int
    lion: Point
    man: Point
    dist: object
    gap: object
    note: str = ""


@dataclass
class Transcript:
    """Complete record of a run; immutable once produced."""

    space: Space
    domain: object
    D: object
    tol: float
    n_steps: int
    seed: int | None
    stop_on_capture: bool
    records: list
    final_lion: Point
    stop_reason: str
    capture_step: int | None

    def dist_series(self) -> np.ndarray:
        return np.asarray([float(r.dist) for r in self.records])

    def lion_path(self):
        return [r.lion for r in self.records] + [self.final_lion]


def lion_step(space: Space, lion: Point, man: Point, D) -> Point:
    """Lion's forced move: distance min(D, gap) along the geodesic to the man."""
    if not D > 0:
        raise InvalidInputError("step size D must be positive")
    space.check_point(lion, "lion")
    space.check_point(man, "man")
    return _lion_move(space, lion, man, D, space._dist(lion, man))


def _lion_move(space: Space, lion: Point, man: Point, D, gap) -> Point:
    """`lion_step` between checked members gap = d(lion, man) apart."""
    # the lion lands on the man when gap <= D, or when a float D / gap rounds up to 1
    t = D / gap if D < gap else 1
    return space._along(lion, man, (t,))[0] if t < 1 else man


def run_game(config: GameConfig, strategy) -> Transcript:
    """Alternate lion and man moves until capture or the step budget.

    Man proposals outside the domain raise StrategyFaultError with the step
    index; proposals faster than D are clamped back to the geodesic point
    at distance exactly D and flagged in the record.  A lion step or clamp
    whose point rounds out of the space (the disk rim in floats) ends the
    run with stop reason "numeric-horizon" before that point is used.

    The starts and the proposals are checked once, as domain members; every
    other point is the space's own, so the loop measures and places through
    the family's `_dist` and `_along`.
    """
    space, domain, D = config.space, config.domain, config.D
    speed_guard = 1e-9 * max(1.0, float(D))
    lion, man = config.lion_start, config.man_start
    records = []
    capture_step = None
    stop_reason = "step-budget"

    for n in range(config.n_steps):
        # only a clamped man or a lion step can round out of the space
        if not space.contains_point(man):
            stop_reason = "numeric-horizon"
            break
        dist = space._dist(lion, man)
        lion_next = _lion_move(space, lion, man, D, dist)
        if not space.contains_point(lion_next):
            stop_reason = "numeric-horizon"
            break
        gap = space._dist(lion_next, man)
        captured = gap <= config.tol
        if captured and capture_step is None:
            capture_step = n

        if captured and config.stop_on_capture:
            records.append(StepRecord(n, lion, man, dist, gap))
            lion = lion_next
            stop_reason = "physical-capture"
            break

        proposal = strategy.propose(space, n + 1, lion_next, man, D)
        note = ""
        if proposal is not man and not domain_contains(space, domain, proposal):
            raise StrategyFaultError(
                f"strategy proposed {proposal!r} outside the domain at step {n}", step=n)
        man_next = proposal
        move = space._dist(man, proposal)
        if move > D and float(move - D) > speed_guard:
            man_next = space._along(man, proposal, (D / move,))[0]
            note = "clamped"
        records.append(StepRecord(n, lion, man, dist, gap, note))
        lion, man = lion_next, man_next

    return Transcript(space=space, domain=domain, D=D, tol=config.tol,
                      n_steps=config.n_steps, seed=config.seed,
                      stop_on_capture=config.stop_on_capture, records=records,
                      final_lion=lion, stop_reason=stop_reason,
                      capture_step=capture_step)


@dataclass(frozen=True)
class Outcome:
    """Finite-horizon classification of a transcript.

    physical capture requires some D_n <= D; limit capture requires the
    final tenth of the run to sit within ``tol`` above D; a sustained
    margin above tol is scored for the man.  Anything else is undecided —
    no finite run proves a limit.
    """

    classification: str
    n0: int | None
    tail_min: float | None
    tail_max: float | None
    tail_mean: float | None
    n_recorded: int


def classify_outcome(transcript: Transcript, tol=None) -> Outcome:
    if not transcript.records:
        raise InvalidInputError("empty transcript")
    D = transcript.D
    tol = transcript.tol if tol is None else tol
    guard = 1e-12 * max(1.0, float(D))

    n0 = transcript.capture_step
    if n0 is None:
        for r in transcript.records:
            if float(r.dist) <= float(D) + guard:
                n0 = r.n
                break
    dists = transcript.dist_series()
    tail = dists[-max(1, math.ceil(len(dists) / 10)):]
    stats = (float(tail.min()), float(tail.max()), float(tail.mean()))

    if n0 is not None:
        return Outcome("lion-wins-physical", n0, *stats, n_recorded=len(dists))
    excess = tail - float(D)
    if excess.max() <= tol:
        return Outcome("lion-wins-limit", None, *stats, n_recorded=len(dists))
    if excess.min() > tol:
        return Outcome("man-wins-observed", None, *stats, n_recorded=len(dists))
    return Outcome("undecided", None, *stats, n_recorded=len(dists))


# ---------------------------------------------------------------------------
# man strategies


class StationaryStrategy:
    """Man never moves."""

    name = "stationary"

    def propose(self, space, n, lion, man, D):
        return man


class DirectionalStrategy:
    """Man runs along a directional curve: M_n = curve((n + 2) D + 1).

    Consecutive targets are D apart in parameter, so with a 1-Lipschitz
    curve every move respects the speed bound; against a curve with
    directionality constant b <= D the man keeps the lion at least D + 1
    behind forever.
    """

    name = "directional"

    def __init__(self, curve: Curve, D):
        self.curve = curve
        self.D = D

    def start(self) -> Point:
        return self.curve.at(2 * self.D + 1)

    def propose(self, space, n, lion, man, D):
        return self.curve.at((n + 2) * self.D + 1)


class GreedyStrategy:
    """Man steps distance D maximizing the new gap over spread candidates.

    Candidate moves come from the space (``Space.move_candidates``): evenly
    spread directions in the flat families, evenly spread chart directions
    in the disk, and walks toward every vertex (plus outward along the ray
    edge) in a tree.  Ties break on candidate index; with no candidate
    inside the domain the man stays put.
    """

    name = "greedy"

    def __init__(self, domain, directions=8):
        if not directions >= 2:
            raise InvalidInputError("need at least two candidate directions")
        self.domain = domain
        self.directions = directions

    def propose(self, space, n, lion, man, D):
        space.check_point(lion, "lion")
        best = None
        best_gap = None
        for cand in space.move_candidates(man, D, self.directions):
            if not domain_contains(space, self.domain, cand):
                continue
            gap = space._dist(cand, lion)
            if best_gap is None or gap > best_gap:
                best, best_gap = cand, gap
        return man if best is None else best


class RandomStrategy:
    """Seeded random in-domain moves of length at most D."""

    name = "random"

    def __init__(self, domain, seed):
        self.domain = domain
        self.rng = np.random.default_rng(seed)

    def propose(self, space, n, lion, man, D):
        for _ in range(8):
            cand = space.random_move(self.rng, man, D)
            if cand is not None and domain_contains(space, self.domain, cand):
                return cand
        return man


def man_directional_strategy(curve: Curve, D) -> DirectionalStrategy:
    """Strategy following a directional curve at speed D."""
    return DirectionalStrategy(curve, D)


def man_greedy_strategy(domain, directions=8) -> GreedyStrategy:
    """Adversarial baseline maximizing the gap after each lion move."""
    return GreedyStrategy(domain, directions)


# ---------------------------------------------------------------------------
# transcript files


def transcript_to_json(tr: Transcript) -> dict:
    return {
        "header": {
            "space": spaces.space_to_config(tr.space),
            "domain": tr.domain.to_config(),
            "D": _num_to_json(tr.D),
            "tol": tr.tol,
            "n_steps": tr.n_steps,
            "seed": tr.seed,
            "stop_on_capture": tr.stop_on_capture,
        },
        "steps": [
            {
                "n": r.n,
                "lion": spaces.point_to_json(r.lion),
                "man": spaces.point_to_json(r.man),
                "dist": _num_to_json(r.dist),
                "gap": _num_to_json(r.gap),
                "note": r.note,
            }
            for r in tr.records
        ],
        "final_lion": spaces.point_to_json(tr.final_lion),
        "stop_reason": tr.stop_reason,
        "capture_step": tr.capture_step,
    }


def transcript_from_json(data: dict) -> Transcript:
    head = data["header"]
    space = spaces.space_from_config(head["space"])
    domain = spaces.domain_from_config(space, head["domain"])
    records = [
        StepRecord(
            n=s["n"],
            lion=spaces.point_from_json(s["lion"]),
            man=spaces.point_from_json(s["man"]),
            dist=_num_from_json(s["dist"]),
            gap=_num_from_json(s["gap"]),
            note=s.get("note", ""),
        )
        for s in data["steps"]
    ]
    return Transcript(
        space=space, domain=domain, D=_num_from_json(head["D"]), tol=head["tol"],
        n_steps=head["n_steps"], seed=head["seed"],
        stop_on_capture=head["stop_on_capture"], records=records,
        final_lion=spaces.point_from_json(data["final_lion"]),
        stop_reason=data["stop_reason"], capture_step=data["capture_step"],
    )


def save_transcript(tr: Transcript, path) -> None:
    files.write_json(path, transcript_to_json(tr))


def load_transcript(path) -> Transcript:
    return files.read_json(path, "transcript", transcript_from_json)


def write_dist_csv(tr: Transcript, path) -> None:
    """Plot-ready projection with columns n, D_n."""
    files.write_csv(path, ["n", "D_n"], ([r.n, float(r.dist)] for r in tr.records))
