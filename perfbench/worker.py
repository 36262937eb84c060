"""One workload in one fresh process; started by run.py, never by hand.

    worker.py WORKLOAD SEED SECONDS TRACE T0 WORKDIR OUT [--setup-only]

T0 is the CLOCK_MONOTONIC reading taken just before this process was
started, so `setup_s` covers interpreter start, `import lionman` and
input generation.  The result is written as JSON to OUT.
"""

import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench-out")


def import_lionman():
    sys.path.insert(0, SRC)
    import lionman

    if not os.path.abspath(lionman.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"lionman imported from {lionman.__file__}, not from {SRC}")
    return lionman


def run_cycles(workload, n_cycles=None, deadline=None, on_op=None):
    """Run whole cycles; returns (latencies, kinds, cycle walls, failed)."""
    from workloads import CheckFailed

    latencies, kinds, cycles, failed = [], [], [], 0
    i = 0
    while (n_cycles is None or i < n_cycles):
        first = len(latencies)
        for kind, run, check in workload.cycle(i):
            if on_op is not None:
                on_op(f"{i}:{kind}")
            start = time.perf_counter()
            try:
                result = run()
                ok = True
            except Exception:  # a library error is a failed op, not a crash
                ok = False
                report_failure(kind, traceback.format_exc(limit=3))
            latency = time.perf_counter() - start
            if ok:
                try:
                    check(result)
                except CheckFailed as exc:
                    ok = False
                    report_failure(kind, str(exc))
            failed += not ok
            latencies.append(latency)
            kinds.append(kind)
        cycles.append(sum(latencies[first:]))
        i += 1
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return latencies, kinds, cycles, failed


_reported = []


def report_failure(kind, message):
    if len(_reported) < 5:
        print(f"op {kind} failed: {message}", file=sys.stderr)
    _reported.append(kind)


def main(argv):
    name, seed, seconds, trace, t0, workdir, out = argv[:7]
    seed, seconds, trace, t0 = int(seed), float(seconds), int(trace), float(t0)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    lm = import_lionman()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(lm, seed, workdir)
    result = {"setup_s": time.monotonic() - t0}
    if "--setup-only" in argv:
        pass
    elif trace:
        result.update(traced(lm, WORKLOADS[name], seed, workdir, workload))
    else:
        lat, kinds, cycles, failed = run_cycles(workload, deadline=time.perf_counter() + seconds)
        usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        result.update(latencies=lat, cycles=cycles, failed=failed, attempted=len(lat),
                      peak_rss_mib=resource.getrusage(usage).ru_maxrss / 1024.0)
    result["versions"] = versions()
    with open(out, "w") as fh:
        json.dump(result, fh)


def traced(lm, cls, seed, workdir, plain):
    """Untraced cycles, then the same cycles traced; per-layer metrics."""
    from tracer import Tracer

    n = cls.trace_cycles
    lat, kinds, cycles0, failed0 = run_cycles(plain, n_cycles=n)
    tracer = Tracer()
    tracer.install(lm)
    try:
        workload = cls()
        workload.setup(lm, seed, workdir)
        if cls.name == "cli":
            workload.trace_dir = os.path.join(workdir, "trace")
            os.makedirs(workload.trace_dir, exist_ok=True)
        workload.observe = tracer.observe_transcript

        def on_op(op):
            tracer.op = op
        lat1, _, cycles1, failed1 = run_cycles(workload, n_cycles=n, on_op=on_op)
    finally:
        tracer.uninstall()
    if cls.name == "cli":
        for entry in sorted(os.listdir(workload.trace_dir)):
            with open(os.path.join(workload.trace_dir, entry)) as fh:
                tracer.merge(json.load(fh))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = sum(cycles1) / sum(cycles0)
    if cls.name == "cli":
        metrics.update(cli_probes(plain, lat, kinds))
    os.makedirs(SPANS_DIR, exist_ok=True)
    tracer.write_spans(os.path.join(SPANS_DIR, f"spans-{cls.name}-seed{seed}.jsonl"))
    return {"per_layer": metrics, "failed": failed0 + failed1,
            "attempted": len(lat) + len(lat1)}


def cli_probes(workload, latencies, kinds):
    """Import cost of lionman.cli and the median wall time of each subcommand."""
    import subprocess

    def wall(code):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True,
                           timeout=60)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples)

    out = {"cli.import_s": wall("import lionman.cli") - wall("pass"),
           "cli.bytes_written": workload.bytes_per_round()}
    for kind in set(kinds):
        out[f"cli.{kind}.wall_s"] = statistics.median(
            t for t, k in zip(latencies, kinds) if k == kind)
    return out


def versions():
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


if __name__ == "__main__":
    main(sys.argv[1:])
