"""The four benchmark workloads.

Each workload builds all of its inputs from the seed in `setup` and then
hands out operations cycle by cycle.  An operation is a triple
`(kind, run, check)`: `run()` is the timed call sequence into lionman and
returns its result; `check(result)` validates that result outside the
timed region and raises `CheckFailed` when it is wrong.  A cycle holds a
fixed mix of kinds, so every run measures the same mix whatever its
length.  The in-process cycles hold five equally common kinds (or eight
of one cost), which keeps the median and the 90th percentile away from
the edges between kinds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np

POOL = 64           # inputs per kind; cycle i uses entry i % pool
QG_GRID = 1000      # grid of every qg-grid check
TOL = 1e-9          # relative tolerance of float invariants
CAT_TOL = 1e-7      # flat-comparison defect tolerance (acceptance criterion 8)
DISK_DELTA = math.log(1.0 + math.sqrt(2.0))   # slimness of the hyperbolic plane
TREES = 4           # seeded 40-vertex trees of the pursuit games; more trees
                    # average out how much one tree's shape sets the cost


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol=TOL):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# qg-grid


class QGGrid:
    """Dense grid checks of seeded curves; the g x g pair arrays dominate."""

    name = "qg-grid"
    trace_cycles = 3
    pool = 16           # a 25 s run completes about 16 cycles

    def setup(self, lm, seed, workdir):
        self.lm = lm
        rng = np.random.default_rng([seed, 1])
        self.box = lm.l2_example_curve(6, 10.0)
        self.tubes = [(lm.hyperbolic_tube_curve(length=20.0, step=1.0,
                                                amplitude=float(rng.uniform(0.1, 0.3)),
                                                seed=int(rng.integers(2**31))),
                       float(rng.uniform(2.0, 6.0)))
                      for _ in range(self.pool)]
        tree = ray_tree_of(lm, rng)
        ray = lm.tree_ray_curve(tree)
        self.rays, self.lion_paths = [], []
        anchor = lm.vertex_point(tree.ray_at)
        far = [v for v in tree.vertices
               if tree.distance(lm.vertex_point(v), anchor) >= 4]
        for _ in range(self.pool):
            start = lm.vertex_point(far[int(rng.integers(len(far)))])
            end = ray.at(Fraction(int(rng.integers(8, 24))))
            self.rays.append((lm.geodesic_segment_curve(tree, start, end, n_samples=64),
                              float(rng.uniform(2.0, 6.0))))
            D = Fraction(int(rng.integers(2, 6)), 4)
            man = lm.man_directional_strategy(ray, D)
            cfg = lm.GameConfig(space=tree, domain=lm.WholeSpace(), D=D, n_steps=100,
                                tol=1e-9, lion_start=start, man_start=man.start())
            _, path = lm.curve_from_transcript(tree, lm.run_game(cfg, man), 12 * D)
            self.lion_paths.append((path, 12 * D))

    def cycle(self, i):
        lm = self.lm
        tube, tube_k = self.tubes[i % self.pool]
        ray, ray_k = self.rays[i % self.pool]
        path, path_k = self.lion_paths[i % self.pool]
        box_lam = math.sqrt(11.0 / 3.0)
        root2 = math.sqrt(2.0)

        def check(curve, lam, k=None):
            return lambda: lm.check_quasi_geodesic(curve, lam, 0.0, QG_GRID, k=k)

        return [
            ("box-pass", check(self.box, box_lam), check_box_pass),
            ("box-fail", check(self.box, 1.0), check_box_fail),
            ("tube-global", check(tube, root2), check_pass),
            ("tube-local", check(tube, root2, tube_k), check_pass),
            ("ray-global", check(ray, 1.0), check_pass),
            ("ray-local", check(ray, 1.0, ray_k), check_pass),
            ("lion-path-global", check(path, 1.0), check_pass),
            ("lion-path-local", check(path, root2, path_k), check_pass),
        ]


def ray_tree_of(lm, rng, n_vertices=40):
    """Seeded 40-vertex Fraction tree with a ray hanging off a seeded vertex."""
    base = lm.random_tree(rng, n_vertices=n_vertices)
    anchor = base.vertices[int(rng.integers(n_vertices))]
    return lm.RTreeSpace(base.vertices, base.edges, ray_at=anchor)


def check_box_pass(report):
    require(report.passed, f"box curve fails at sqrt(11/3): min ratio {report.min_ratio}")


def check_box_fail(report):
    require(not report.passed, "box curve passes at lambda=1")
    w = report.first_lower_violation
    require(w is not None and float(w[0]) == 0.0 and float(w[1]) == 110.0
            and close(w[2], math.sqrt(10100.0)),
            f"box curve lambda=1 first violation {w}, expected (0, 110, sqrt(10100))")


def check_pass(report):
    # tree geodesics and lion paths at lambda=1, tubes and k-local lion paths
    # at sqrt(2); the ratio itself is not compared, because the merged grid
    # can hold two parameters a rounding error apart
    require(report.passed and report.n_pairs > 0,
            f"curve fails at lambda={report.lam}: worst lower slack "
            f"{report.worst_lower_slack} at {report.worst_lower_pair}")


# ---------------------------------------------------------------------------
# triangles


class Triangles:
    """Slimness, flat-comparison defect and Gromov criterion of seeded triangles."""

    name = "triangles"
    trace_cycles = 20
    SLIM_GRID = 12
    CAT_GRID = 6
    QUASI_LAM = 1.5
    QUASI_GRID = 8

    def setup(self, lm, seed, workdir):
        self.lm = lm
        rng = np.random.default_rng([seed, 2])
        self.disk = lm.HyperbolicPlane()
        self.tree = lm.random_tree(rng, n_vertices=40)
        self.plane = lm.EuclideanSpace(2)
        self.scales = {"hyperbolic": 3.0, "rtree": 4, "euclidean": 3.0}
        self.triangles = {}
        for space in (self.disk, self.tree, self.plane):
            sampler = lm.PointSampler(space, scale=self.scales[space.kind],
                                      seed=int(rng.integers(2**31)))
            self.triangles[space.kind] = [triangle(space, sampler) for _ in range(POOL)]
        self.quasi_seeds = [int(s) for s in rng.integers(2**31, size=POOL)]

    def cycle(self, i):
        ops = []
        for space in (self.disk, self.tree, self.plane):
            tri = self.triangles[space.kind][i % POOL]
            ops.append((f"triangle-{space.kind}", self._triangle_op(space, tri),
                        self._triangle_check(space, tri)))
        for space in (self.disk, self.tree):
            seed = self.quasi_seeds[i % POOL]
            ops.append((f"quasi-slim-{space.kind}", self._quasi_op(space, seed),
                        self._quasi_check(space, seed)))
        return ops

    def _triangle_op(self, space, tri):
        lm = self.lm

        def run():
            x, y, z = tri
            return (lm.slim_defect(space, x, y, z, self.SLIM_GRID),
                    lm.cat_defect(space, x, y, z, self.CAT_GRID),
                    lm.check_gromov_criterion(space, [tri], 0))
        return run

    def _triangle_check(self, space, tri):
        lm = self.lm

        def check(result):
            slim, cat, crit = result
            x, y, z = tri
            require(cat <= CAT_TOL, f"{space.kind} flat-comparison defect {cat} > {CAT_TOL}")
            sides = [float(space.distance(a, b)) for a, b in ((x, y), (y, z), (z, x))]
            g = float(lm.gromov_product(space, x, y, z))
            # CAT(0): equidistant points are no farther apart than in the flat
            # comparison triangle, where the widest pair is 2 g sin(angle / 2)
            flat = 2.0 * g * math.sin(lm.comparison_angle(space, x, y, z) / 2.0)
            if space.kind == "rtree":
                require(slim.value == 0 and crit.sup == 0 and crit.passed,
                        f"tree slimness {slim.value} / criterion sup {crit.sup} not exactly 0")
                return
            sup = float(crit.sup)
            if space.kind == "hyperbolic":
                require(slim.value <= DISK_DELTA + CAT_TOL,
                        f"disk slimness {slim.value} above log(1 + sqrt 2)")
                require(sup <= flat * (1.0 + TOL) + TOL,
                        f"disk criterion sup {sup} above the flat bound {flat}")
            else:
                require(slim.value <= max(sides) / 2.0 * (1.0 + TOL),
                        f"plane slimness {slim.value} above half the longest side")
                require(close(sup, flat), f"plane criterion sup {sup} != {flat}")
        return check

    def _quasi_op(self, space, seed):
        lm = self.lm
        scale = self.scales[space.kind]
        return lambda: lm.estimate_quasi_slim_M(
            space, self.QUASI_LAM, lm.PointSampler(space, scale=scale, seed=seed),
            trials=1, grid=self.QUASI_GRID)

    def _quasi_check(self, space, seed):
        lm = self.lm

        def check(value):
            value = float(value)
            if space.kind == "rtree":
                require(value <= TOL, f"tree quasi-slimness {value} > 0")
                return
            sampler = lm.PointSampler(space, scale=self.scales[space.kind], seed=seed)
            x, y, z = sampler.draw(), sampler.draw(), sampler.draw()
            longest = max(float(space.distance(a, b)) for a, b in ((x, y), (y, z), (z, x)))
            # a certified lambda-zigzag side is at most lambda times its chord,
            # and each sample sits within half a side of a shared vertex
            require(0.0 <= value <= self.QUASI_LAM * longest / 2.0 * (1.0 + TOL) + TOL,
                    f"quasi-slimness {value} outside [0, lambda * {longest} / 2]")
        return check


def triangle(space, sampler):
    """Three sampled points, pairwise distinct."""
    while True:
        tri = (sampler.draw(), sampler.draw(), sampler.draw())
        if all(space.distance(a, b) > 0 for a, b in zip(tri, tri[1:] + tri[:1])):
            return tri


# ---------------------------------------------------------------------------
# pursuit


class Pursuit:
    """Seeded games, each followed by its whole certificate pipeline."""

    name = "pursuit"
    trace_cycles = 10
    observe = None      # set by the traced run: called with (transcript, bytes)
    N_STEPS = 200
    VERIFY_GRID = 300

    def setup(self, lm, seed, workdir):
        self.lm = lm
        self.workdir = workdir
        rng = np.random.default_rng([seed, 3])
        plane, disk = lm.EuclideanSpace(2), lm.HyperbolicPlane()
        trees = [lm.random_tree(rng, n_vertices=40) for _ in range(TREES)]
        self.ray_tree = lm.ray_tree()
        ray = lm.tree_ray_curve(self.ray_tree)
        self.games = {kind: [] for kind in
                      ("directional-ray", "greedy-plane", "greedy-tree", "random-tree",
                       "greedy-disk")}
        for j in range(POOL):
            D = Fraction(int(rng.integers(1, 5)), 4)
            man = lm.man_directional_strategy(ray, D)
            self.games["directional-ray"].append((lm.GameConfig(
                space=self.ray_tree, domain=lm.WholeSpace(), D=D, n_steps=self.N_STEPS,
                tol=1e-9, lion_start=lm.vertex_point("r"), man_start=man.start()),
                lambda man=man: man))
            radius = float(rng.uniform(4.0, 8.0))
            ball = lm.Ball(lm.epoint(0, 0), radius)
            self.games["greedy-plane"].append((self._config(
                lm, plane, ball, 0.5, radius / 2, rng, stop_on_capture=False),
                lambda ball=ball: lm.GreedyStrategy(ball)))
            tree = trees[j % TREES]
            tree_steps = 4 * math.ceil(tree.diameter() / Fraction(1, 2))
            for kind in ("greedy-tree", "random-tree"):
                cfg = self._config(lm, tree, lm.WholeSpace(), Fraction(1, 2), 4, rng,
                                   n_steps=tree_steps)
                if kind == "greedy-tree":
                    strategy = lambda: lm.GreedyStrategy(lm.WholeSpace())
                else:
                    strategy = (lambda s=int(rng.integers(2**31)):
                                lm.RandomStrategy(lm.WholeSpace(), seed=s))
                self.games[kind].append((cfg, strategy))
            radius = float(rng.uniform(6.0, 10.0))
            ball = lm.Ball(lm.hpoint(0, 0), radius)
            self.games["greedy-disk"].append((self._config(
                lm, disk, ball, 0.5, radius, rng, stop_on_capture=False),
                lambda ball=ball: lm.GreedyStrategy(ball)))

    def _config(self, lm, space, domain, D, scale, rng, n_steps=None, stop_on_capture=True):
        """Game with seeded starts inside the domain, more than 3 D apart."""
        sampler = lm.PointSampler(space, scale=scale, seed=int(rng.integers(2**31)))
        while True:
            lion, man = sampler.draw(), sampler.draw()
            if (lm.domain_contains(space, domain, lion) and lm.domain_contains(space, domain, man)
                    and space.distance(lion, man) > 3 * D):
                return lm.GameConfig(space=space, domain=domain, D=D,
                                     n_steps=n_steps or self.N_STEPS, tol=1e-9,
                                     lion_start=lion, man_start=man,
                                     stop_on_capture=stop_on_capture)

    def cycle(self, i):
        ops = []
        for kind, pool in self.games.items():
            cfg, make_strategy = pool[i % POOL]
            ops.append((kind, self._pipeline(kind, cfg, make_strategy),
                        self._pipeline_check(kind, cfg)))
        return ops

    def _pipeline(self, kind, cfg, make_strategy):
        lm = self.lm
        first = os.path.join(self.workdir, f"{kind}.json")
        again = os.path.join(self.workdir, f"{kind}.again.json")

        def run():
            space = cfg.space
            tr = lm.run_game(cfg, make_strategy())
            lm.save_transcript(tr, first)
            loaded = lm.load_transcript(first)
            lm.save_transcript(loaded, again)
            out = {"transcript": tr, "outcome": lm.classify_outcome(loaded),
                   "beta": lm.beta_angles(space, loaded), "curve": None, "report": None,
                   "audit": None, "files": (first, again)}
            k = 12 * cfg.D
            try:
                out["n_k"], out["curve"] = lm.curve_from_transcript(space, loaded, k)
                out["report"] = lm.verify_mans_win_curve(out["curve"], k, self.VERIFY_GRID)
            except (lm.ThresholdNotMetError, lm.InvalidInputError) as exc:
                out["no_curve"] = exc
            if space.kind == "rtree":
                out["audit"] = lm.rtree_capture_audit(space, loaded)
            return out
        return run

    def _pipeline_check(self, kind, cfg):
        lm = self.lm

        def check(out):
            tr, outcome = out["transcript"], out["outcome"].classification
            first, again = out["files"]
            with open(first, "rb") as a, open(again, "rb") as b:
                saved = a.read()
                require(saved == b.read(), "save, load, save is not byte-identical")
            if self.observe is not None:
                self.observe(tr, len(saved))
            check_game_rules(lm, cfg, tr)
            require(all(0.0 <= b <= math.pi for b in out["beta"].beta), "angle outside [0, pi]")
            if out["report"] is not None:
                # angles above the threshold certify the k-local sqrt(2) bound
                require(out["report"].passed, f"{kind}: win curve from a cleared threshold "
                                              f"fails (min ratio {out['report'].min_ratio})")
            if kind == "directional-ray":
                require(outcome == "man-wins-observed", f"directional man: {outcome}")
                require(out["report"] is not None, f"no win curve: {out.get('no_curve')}")
                audit = out["audit"]
                require(audit.passed and audit.final_distance == cfg.n_steps * cfg.D,
                        f"ray audit failed: passed={audit.passed} d={audit.final_distance}")
            elif kind.endswith("-tree"):
                require(outcome == "lion-wins-physical", f"{kind}: {outcome}")
                require(out["audit"].passed, f"{kind}: capture audit failed at "
                                             f"{out['audit'].first_failure}")
        return check


def check_game_rules(lm, cfg, tr):
    """Rule invariants of a transcript (acceptance criterion 3)."""
    space, D = cfg.space, cfg.D
    fD = float(D)
    lions = [r.lion for r in tr.records] + [tr.final_lion]
    for r, l0, l1 in zip(tr.records, lions, lions[1:]):
        want = min(fD, float(r.dist))
        require(abs(float(space.distance(l0, l1)) - want) <= TOL * max(1.0, want),
                f"lion step {r.n} is not min(D, gap)")
    men = [r.man for r in tr.records]
    for n, (m0, m1) in enumerate(zip(men, men[1:])):
        require(float(space.distance(m0, m1)) <= fD * (1 + TOL) + 1e-12,
                f"man step {n} faster than D")
    ds = [float(r.dist) for r in tr.records]
    for n in range(len(ds) - 1):
        require(not (ds[n] > fD and ds[n + 1] > ds[n] * (1 + TOL)),
                f"gap grows at step {n}")
    if isinstance(cfg.domain, lm.Ball):
        for r in tr.records:
            for p in (r.lion, r.man):
                require(float(space.distance(cfg.domain.center, p)) <= cfg.domain.radius + TOL,
                        f"step {r.n} leaves the domain")


# ---------------------------------------------------------------------------
# cli


class CLI:
    """A fixed script of `python -m lionman.cli` processes, one at a time."""

    name = "cli"
    trace_cycles = 1
    GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

    def setup(self, lm, seed, workdir):
        self.workdir = workdir
        self.trace_dir = None
        self.first = {}
        with open(self.GOLDEN) as fh:
            self.golden = json.load(fh)
        rng = np.random.default_rng([seed, 4])
        tree = lm.random_tree(rng, n_vertices=40)
        write_json(workdir, "tree.json", {"space": lm.spaces.space_to_config(tree)})
        raytree = lm.ray_tree()
        write_json(workdir, "raytree.json", {"space": lm.spaces.space_to_config(raytree)})
        lm.save_curve(lm.tree_ray_curve(raytree), os.path.join(workdir, "ray.json"))
        lm.save_curve(lm.hyperbolic_tube_curve(length=20.0, step=1.0,
                                               amplitude=float(rng.uniform(0.1, 0.3)),
                                               seed=int(rng.integers(2**31))),
                      os.path.join(workdir, "tube.json"))
        v = tree.vertices
        lion, man = (v[int(i)] for i in rng.choice(len(v), size=2, replace=False))
        s = [str(int(x)) for x in rng.integers(2**20, size=3)]
        # (name, argv, files it writes); files named in golden.json are compared
        # with their committed digests
        self.script = [
            ("simulate", ["simulate", "--space", "raytree.json", "--man", "directional",
                          "--curve", "ray.json", "--D", "1", "--N", "200",
                          "--out", "g_run.json", "--csv", "g_dist.csv"],
             ["g_run.json", "g_dist.csv"]),
            ("analyze", ["analyze", "--space", "raytree.json", "--transcript", "g_run.json",
                         "--k", "12", "--out", "g_report.json", "--beta-csv", "g_beta.csv",
                         "--audit-csv", "g_audit.csv"],
             ["g_report.json", "g_beta.csv", "g_audit.csv"]),
            ("simulate", ["simulate", "--space", "tree.json", "--man", "greedy", "--D", "1/2",
                          "--N", "400", "--seed", s[0], "--lion", json.dumps({"vertex": lion}),
                          "--man-start", json.dumps({"vertex": man}), "--out", "s_run.json"],
             ["s_run.json"]),
            ("analyze", ["analyze", "--space", "tree.json", "--transcript", "s_run.json",
                         "--k", "6", "--out", "s_report.json", "--audit-csv", "s_audit.csv"],
             ["s_report.json", "s_audit.csv"]),
            ("verify-curve", ["verify-curve", "--curve", "tube.json", "--lambda", "1.4142135",
                              "--grid", "500", "--witness-csv", "witness.csv"],
             ["witness.csv"]),
            ("estimate-delta", ["estimate-delta", "--space", "tree.json", "--trials", "6",
                                "--seed", s[1], "--scale", "4"], []),
            ("demo-l2", ["demo-l2"], []),
            ("extract-ray", ["extract-ray", "--curve", "tube.json", "--lambda", "1.4142135",
                             "--k-max", "8", "--out", "ray.csv"], ["ray.csv"]),
            ("sweep", ["sweep", "--space", "tree.json", "--man", "greedy", "--runs", "2",
                       "--D", "1/2", "--N", "120", "--seed", s[2], "--out", "sweep.csv"],
             ["sweep.csv"]),
        ]

    def cycle(self, i):
        return [(name, self._invoke(i, j, argv), self._check(j, name, files))
                for j, (name, argv, files) in enumerate(self.script)]

    def _invoke(self, i, j, argv):
        def run():
            cmd = [sys.executable, "-m", "lionman.cli"]
            if self.trace_dir is not None:
                dump = os.path.join(self.trace_dir, f"{i}-{j}.json")
                cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "clitrace.py"),
                       dump]
            return subprocess.run(cmd + argv, cwd=self.workdir, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=120)
        return run

    def _check(self, j, name, files):
        def check(proc):
            require(proc.returncode == 0, f"{name} exited {proc.returncode}: "
                                          f"{proc.stderr.decode(errors='replace')[-300:]}")
            digests = {f: digest(os.path.join(self.workdir, f)) for f in files}
            out = proc.stdout.decode()
            check_cli_output(name, out, self.workdir, files)
            for f, d in digests.items():
                require(self.golden.get(f, d) == d, f"{f} digest {d} differs from golden.json")
            seen = (out, digests)
            if j in self.first:
                require(self.first[j] == seen, f"repeated {name} gives different output")
            else:
                self.first[j] = seen
        return check

    def bytes_per_round(self):
        return sum(os.path.getsize(os.path.join(self.workdir, f))
                   for _, _, files in self.script for f in files)


def check_cli_output(name, out, workdir, files):
    """Invariants of the float outputs, which are not compared by digest."""
    if name == "analyze":
        with open(os.path.join(workdir, files[0])) as fh:
            report = json.load(fh)
        require(report["audit_passed"], f"{files[0]}: tree audit failed")
        if "capture_step" not in report:
            # the directional man on the ray: certified win over 200 unit steps
            require(report["local_qg_passed"] and report["final_distance"] == 200.0
                    and report["beta_tail_min"] == math.pi,
                    f"{files[0]}: man's-win certificate missing: {report}")
    elif name == "verify-curve":
        require(out.startswith("PASS"), f"tube curve does not verify: {out.strip()}")
    elif name == "estimate-delta":
        require(out.strip().endswith("delta=0"), f"tree delta is not 0: {out.strip()}")
    elif name == "demo-l2":
        require(out.startswith("PASS") and "first violation (s,t)=(0,110)" in out,
                f"unexpected box demo output: {out.strip()}")
    elif name == "extract-ray":
        worst = float(out.rsplit("=", 1)[1])
        require(worst <= 1e-6, f"extracted point k lies {worst} off distance k from the base")
    elif name == "sweep":
        require(out.strip().startswith("lion-wins-physical=") and " " not in out.strip(),
                f"bounded-tree sweep not all captured: {out.strip()}")


def write_json(workdir, name, data):
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


WORKLOADS = {w.name: w for w in (QGGrid, Triangles, Pursuit, CLI)}
