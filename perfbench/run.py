"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of BENCHMARK.json in a fresh worker process against the
lionman sources in `src/` of this checkout.  With `--trace 0` it reports
the end-to-end metrics (tracing and tracemalloc off); with `--trace 1` it
reports the per-layer metrics of a separate traced run.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the lines before it give every metric with its unit and op
count, and the environment.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2        # extra set-up-only processes; setup_s is the median of 3
WORKER_TIMEOUT = 150    # seconds, for the measuring worker
PROBE_TIMEOUT = 30


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def load_benchmark(workload):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        fail(f"unknown workload {workload!r}; choose from {', '.join(names)}")
    sys.path.insert(0, HERE)
    from tracer import catalogue

    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    if declared != catalogue():
        fail("per_layer in BENCHMARK.json does not match tracer.catalogue()")
    return bench


def spawn(argv, env, timeout):
    """Run a worker in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"worker exceeded {timeout} s", 1)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def run_worker(args, env, workdir, setup_only=False):
    out = os.path.join(workdir, "result.json")
    if os.path.exists(out):
        os.remove(out)
    argv = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), repr(time.monotonic()), workdir, out]
    if setup_only:
        argv.append("--setup-only")
    code = spawn(argv, env, PROBE_TIMEOUT if setup_only else WORKER_TIMEOUT)
    if code != 0:
        fail(f"worker exited with code {code}", 1)
    with open(out) as fh:
        return json.load(fh)


def environment(nproc, versions):
    """Interpreter, library versions and the CPU this run measured."""
    env = dict(versions, nproc=nproc)
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        try:
            with open(f"{base}/index{index}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/index{index}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/index{index}/size") as fh:
                size = fh.read().strip()
        except OSError:
            break
        if kind != "Instruction":
            env[f"L{level}"] = size
    return env


def end_to_end(main, setups, cli):
    lat, cycles = main["latencies"], main["cycles"]
    ok = main["attempted"] - main["failed"]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    cycle = statistics.median(cycles)
    values = {
        # passed ops per cycle over the median cycle time, so that a burst
        # of load from outside the benchmark moves the figure less
        "ops_per_s": ok / len(cycles) / cycle,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mib": main["peak_rss_mib"],
        "setup_s": statistics.median(setups),
    }
    notes = {
        "ops_per_s": f"ops={ok} in {len(cycles)} cycles, median cycle {cycle:.3f} s",
        "op_p50_ms": f"ops={len(lat)}",
        "op_p90_ms": f"ops={len(lat)}, {sum(t > p90 for t in lat)} above",
        "peak_rss_mib": "largest child" if cli else "workload process",
        "setup_s": f"median of {len(setups)} processes",
    }
    return values, notes


def main():
    args = parse_args()
    bench = load_benchmark(args.workload)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lionman", "__init__.py")):
        fail(f"no lionman sources under {src}")
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, env, workdir, setup_only=True)["setup_s"])
        result = run_worker(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    if args.trace:
        measured = result["per_layer"]
        metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                   for m in bench["per_layer"]}
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    else:
        setups.append(result["setup_s"])
        values, notes = end_to_end(result, setups, args.workload == "cli")
        metrics = {}
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"  {m['name']:<14} {values[m['name']]:>12.4f} {m['unit']:<6} "
                  f"({notes[m['name']]})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  fail_ratio     {failed / attempted:>12.4f}        ({failed}/{attempted} ops)")
    print("env: " + json.dumps(environment(nproc, result["versions"]), sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
