"""Instrumentation for the traced benchmark run, applied from outside lionman.

`Tracer.install()` wraps public entry points of the lionman modules from
the outside (no library file is touched).  High-level entry points of
`curves`, `hyperbolicity`, `game` and `analysis` get spans (name, start,
end, parent, op id); hot primitives (space methods, `Curve.at`, angles,
lion steps, strategy proposals) are aggregated as counters so the trace
stays bounded.  Self time of every instrumented call is its duration minus
the time spent in instrumented calls nested inside it.  Everything is kept
in memory and written once by `write_spans`.

`catalogue()` is the complete list of per-layer metrics, in the order and
with the units `BENCHMARK.json` declares them.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from fractions import Fraction

FAMILIES = ("euclidean", "l2box", "hyperbolic", "rtree")
PRIMITIVES = ("distance", "geodesic_point", "project_to_segment", "pairwise_distances")
STRATEGIES = {"GreedyStrategy": "greedy", "DirectionalStrategy": "directional",
              "RandomStrategy": "random"}
CLI_COMMANDS = ("simulate", "analyze", "verify-curve", "estimate-delta", "demo-l2",
                "extract-ray", "sweep")

# (module attribute, metric name, kind); kind "span" records spans,
# "count" aggregates calls and self time only
FUNCTIONS = (
    ("curves", "check_quasi_geodesic", "span"),
    ("curves", "zigzag_quasi_geodesic", "span"),
    ("curves", "extract_ray_from_quasi_geodesic", "span"),
    ("curves", "extract_ray_from_directional_sequence", "span"),
    ("hyperbolicity", "slim_defect", "span"),
    ("hyperbolicity", "cat_defect", "span"),
    ("hyperbolicity", "check_gromov_criterion", "span"),
    ("hyperbolicity", "estimate_quasi_slim_M", "span"),
    ("hyperbolicity", "alexandrov_angle", "count"),
    ("game", "run_game", "span"),
    ("game", "lion_step", "count"),
    ("game", "save_transcript", "span"),
    ("game", "load_transcript", "span"),
    ("analysis", "beta_angles", "span"),
    ("analysis", "curve_from_transcript", "span"),
    ("analysis", "verify_mans_win_curve", "span"),
    ("analysis", "rtree_capture_audit", "span"),
)
MEMORY = {"curves.check_quasi_geodesic", "analysis.verify_mans_win_curve"}


def catalogue():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for fam in FAMILIES:
        for prim in PRIMITIVES:
            out.append((f"spaces.{fam}.{prim}.calls", "count", "lower"))
            out.append((f"spaces.{fam}.{prim}.self_s", "s", "lower"))
    out.append(("spaces.rtree.construct.calls", "count", "lower"))
    out.append(("spaces.rtree.construct.self_s", "s", "lower"))
    out.append(("curves.Curve.at.calls", "count", "lower"))
    out.append(("curves.Curve.at.self_s", "s", "lower"))
    for module, func, _ in FUNCTIONS:
        name = f"{module}.{func}"
        if func in ("save_transcript", "load_transcript"):
            out.append((f"{name}.self_s", "s", "lower"))
            continue
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
        if func == "check_quasi_geodesic":
            out.append((f"{name}.pairs", "count", "lower"))
        if name in MEMORY:
            out.append((f"{name}.peak_mib", "MiB", "lower"))
        if func == "zigzag_quasi_geodesic":
            out.append((f"{name}.accept_ratio", "ratio", "higher"))
        if func == "run_game":
            out.append((f"{name}.steps", "count", "lower"))
    for strat in STRATEGIES.values():
        out.append((f"game.{strat}.propose.calls", "count", "lower"))
        out.append((f"game.{strat}.propose.self_s", "s", "lower"))
    out.append(("game.transcript_bytes", "B", "lower"))
    out.append(("game.clamped_moves", "count", "lower"))
    out.append(("game.max_denominator", "int", "lower"))
    out.append(("game.hyperbolic_max_radius", "hyp", "lower"))
    out.append(("cli.import_s", "s", "lower"))
    for cmd in CLI_COMMANDS:
        out.append((f"cli.{cmd}.wall_s", "s", "lower"))
    out.append(("cli.bytes_written", "B", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


class Tracer:
    """Spans and counters for one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.calls = {}
        self.self_s = {}
        self.peak = {}
        self.extra = {"pairs": 0, "zigzags": 0, "zigzag_accepted": 0, "steps": 0,
                      "transcript_bytes": 0, "clamped_moves": 0, "max_denominator": 1,
                      "hyperbolic_max_radius": 0.0}
        self.op = None
        self._stack = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self, lm):
        """Wrap the instrumented entry points of an imported lionman package."""
        import sys

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lionman" or n.startswith("lionman."))]
        for module, func, kind in FUNCTIONS:
            orig = getattr(getattr(lm, module), func)
            name = f"{module}.{func}"
            wrapped = self._wrap(orig, lambda args, n=name: n, kind == "span",
                                 name in MEMORY, self._after.get(func))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, wrapped)

        def by_kind(prim):
            return lambda args: f"spaces.{args[0].kind}.{prim}"

        for cls in (lm.spaces.Space, lm.EuclideanSpace, lm.HyperbolicPlane, lm.RTreeSpace):
            for prim in PRIMITIVES:
                if prim in cls.__dict__:
                    self._set(cls, prim, self._wrap(cls.__dict__[prim], by_kind(prim),
                                                    False, False, None))
        self._set(lm.RTreeSpace, "__init__",
                  self._wrap(lm.RTreeSpace.__init__, lambda args: "spaces.rtree.construct",
                             False, False, None))
        self._set(lm.Curve, "at", self._wrap(lm.Curve.at, lambda args: "curves.Curve.at",
                                             False, False, None))
        for cls_name, strat in STRATEGIES.items():
            cls = getattr(lm, cls_name)
            self._set(cls, "propose", self._wrap(cls.propose,
                                                 lambda args, s=strat: f"game.{s}.propose",
                                                 False, False, None))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- the wrapper ------------------------------------------------------

    def _wrap(self, fn, name_of, span, memory, after):
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of(args)
            frame = {"child": 0.0, "id": None, "peak": 0.0, "base": 0.0}
            if span:
                frame["id"] = len(tracer.spans)
                parent = next((f["id"] for f in reversed(tracer._stack)
                               if f["id"] is not None), None)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.op])
            if memory:
                # tracemalloc runs only inside memory-tracked calls, so its
                # cost does not land on the rest of the traced run
                frame["owner"] = not tracemalloc.is_tracing()
                if frame["owner"]:
                    tracemalloc.start()
                current, peak = tracemalloc.get_traced_memory()
                for f in tracer._stack:
                    f["peak"] = max(f["peak"], peak)
                tracemalloc.reset_peak()
                frame["base"] = current
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                elapsed = end - start
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + elapsed - frame["child"]
                if tracer._stack:
                    tracer._stack[-1]["child"] += elapsed
                if span:
                    tracer.spans[frame["id"]][1:3] = [start, end]
                if memory:
                    peak = max(frame["peak"], tracemalloc.get_traced_memory()[1])
                    mib = (peak - frame["base"]) / 2**20
                    tracer.peak[name] = max(tracer.peak.get(name, 0.0), mib)
                    for f in tracer._stack:
                        f["peak"] = max(f["peak"], peak)
                    if frame["owner"]:
                        tracemalloc.stop()
            if after is not None:
                after(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_check(self, report):
        self.extra["pairs"] += report.n_pairs

    def _after_zigzag(self, curve):
        self.extra["zigzags"] += 1
        self.extra["zigzag_accepted"] += not curve.meta.get("fallback", False)

    def _after_game(self, transcript):
        self.extra["steps"] += len(transcript.records)

    _after = {"check_quasi_geodesic": _after_check,
              "zigzag_quasi_geodesic": _after_zigzag,
              "run_game": _after_game}

    # -- observations made by the workloads -------------------------------

    def observe_transcript(self, transcript, n_bytes):
        """Size, clamped moves, largest denominator and disk radius of a run."""
        self.extra["transcript_bytes"] += n_bytes
        self.extra["clamped_moves"] += sum(r.note == "clamped" for r in transcript.records)
        values = [transcript.D]
        points = [transcript.final_lion]
        for r in transcript.records:
            values += (r.dist, r.gap)
            points += (r.lion, r.man)
        values += [p.offset for p in points]
        den = max((v.denominator for v in values if isinstance(v, Fraction)), default=1)
        self.extra["max_denominator"] = max(self.extra["max_denominator"], den)
        if transcript.space.kind == "hyperbolic":
            rim = max(math.hypot(*p.coords) for p in points)
            self.extra["hyperbolic_max_radius"] = max(self.extra["hyperbolic_max_radius"],
                                                      2.0 * math.atanh(rim))

    # -- results ------------------------------------------------------------

    def metrics(self):
        """Per-layer values measured so far, keyed by catalogue name."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self.self_s[name]
        for name, mib in self.peak.items():
            out[f"{name}.peak_mib"] = mib
        ex = self.extra
        out["curves.check_quasi_geodesic.pairs"] = ex["pairs"]
        if ex["zigzags"]:
            out["curves.zigzag_quasi_geodesic.accept_ratio"] = ex["zigzag_accepted"] / ex["zigzags"]
        out["game.run_game.steps"] = ex["steps"]
        for key in ("transcript_bytes", "clamped_moves", "max_denominator",
                    "hyperbolic_max_radius"):
            out[f"game.{key}"] = ex[key]
        return out

    def merge(self, data):
        """Add the counters of a traced child process (see `dump`)."""
        for name, calls in data["calls"].items():
            self.calls[name] = self.calls.get(name, 0) + calls
            self.self_s[name] = self.self_s.get(name, 0.0) + data["self_s"][name]
        for name, mib in data["peak"].items():
            self.peak[name] = max(self.peak.get(name, 0.0), mib)
        for key, value in data["extra"].items():
            if key in ("max_denominator", "hyperbolic_max_radius"):
                self.extra[key] = max(self.extra[key], value)
            else:
                self.extra[key] += value

    def dump(self):
        return {"calls": self.calls, "self_s": self.self_s, "peak": self.peak,
                "extra": self.extra}

    def write_spans(self, path):
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
