"""Benchmark of the wellcover command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory.  Workloads:

  verify   `wellcover verify sample.g6 --format json --jobs 2` on a seeded
           sample of 120 connected catalog graphs of order 8 and 120 of order 9
  analyze  one `wellcover analyze <g6> --format json` process per graph, run
           serially, over seeded graphs of order 15-25
  hunt     `wellcover hunt problem.no-shedding --max-n 7` in an emptied cache,
           then the same hunt at `--max-n 8` reading the filled private cache

The first run in a checkout fills a private catalog cache to order 9 under
`.perfbench/` (a few minutes).  Each run then runs passes of the workload,
each a closed loop of CLI processes, until `--seconds` would be exceeded (at
least one pass), and repeats its set-up at the start and after each tenth of
the run.  Timings other than set-up are in units of a reference loop timed
beside each operation (see `end_to_end`).
Every output is checked against gates held in `common.py`, and digested with
its "elapsed" values zeroed.  With `--trace 1` the run instead does one CLI
pass, in-process passes without and with tracing (`traced.py`), and reports
the per-layer metrics.  A report line and the result line go to stdout; both
are also written under `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))
import common as C  # noqa: E402

PY = sys.executable
SETUP_REPS = 10
VERIFY_PER_ORDER = 120  # sampled connected graphs of order 8, and of order 9
VERIFY_JOBS = 2
STARTUP_PROBES = 5
TRACE_REPS = 3
RUN_LIMIT_S = 170  # a run must end within 180 s
FILL_LIMIT_S = 850  # except the first, which fills the cache and may take 900 s


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# running program processes
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI process and the gate its output must pass."""

    args: list[str]
    cache: Path
    graphs: int
    check: Callable[[bytes], list[str]]


@dataclass
class OpResult:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: bytes
    problems: list[str]
    ref: float

    @property
    def ok(self) -> bool:
        return self.exit == 0 and not self.problems


def _timeout(signum, frame):
    raise TimeoutError


class Spawner:
    """The helper process (spawn.py) that starts every CLI process, so that
    their peak RSS does not include this process's own, and the run's time
    limit, past which a CLI process is killed."""

    def __init__(self):
        self.proc = subprocess.Popen([PY, str(Path(__file__).with_name("spawn.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("the run exceeded its time limit")
        return left

    def run(self, argv: list[str], env: dict, stdout: Path, stderr: Path) -> dict:
        req = {"argv": argv, "env": env, "cwd": str(C.ROOT),
               "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        pid = json.loads(self.proc.stdout.readline())["pid"]
        signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, self.remaining())
        try:
            reply = self.proc.stdout.readline()
        except BaseException as exc:
            try:
                os.killpg(pid, signal.SIGKILL)  # the process and its pool workers
            except ProcessLookupError:
                pass
            self.proc.stdout.readline()  # the helper reaps it and replies
            if isinstance(exc, TimeoutError):
                raise BenchError(f"`{' '.join(argv[3:])}` passed the time limit") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return json.loads(reply)

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_op(sp: Spawner, op: Op, scratch: Path) -> OpResult:
    """Run one CLI process; its rusage covers it and its reaped children."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    done = sp.run([PY, "-m", "wellcover.cli", *op.args], C.child_env(op.cache),
                  out_path, err_path)
    stdout = out_path.read_bytes()
    problems = []
    if done["exit"] == 0:
        try:
            problems = op.check(stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
    else:
        problems = [f"exit {done['exit']}: "
                    + err_path.read_text(errors="replace").strip()[-200:]]
    return OpResult(done["wall"], done["cpu"], done["rss_kb"] / 1024, done["exit"], stdout,
                    problems, done["ref"])


@dataclass
class Pass:
    wall: float
    results: list[OpResult]
    ops: list[Op]
    digest: str
    problems: list[str] = field(default_factory=list)


def run_pass(sp: Spawner, wl: "Workload") -> Pass:
    wl.before_pass()
    scratch = wl.dir / "op"
    scratch.mkdir(parents=True, exist_ok=True)
    ops = wl.ops()
    results = []
    t0 = time.perf_counter()
    for op in ops:
        results.append(run_op(sp, op, scratch))
    wall = time.perf_counter() - t0
    digest = C.sha256(b"".join(
        b"exit %d\n" % r.exit + C.normalize(r.stdout) for r in results))
    return Pass(wall, results, ops, digest, wl.after_pass())


# ---------------------------------------------------------------------------
# the private catalog cache
# ---------------------------------------------------------------------------


def lines_by_order(cache: Path) -> dict[int, list[str]]:
    """Every graph6 line of a cache directory, grouped by order."""
    out: dict[int, list[str]] = {}
    for path in sorted(cache.glob("*.g6")):
        for line in path.read_text().split():
            out.setdefault(C.g6_order(line), []).append(line)
    return out


def count_problems(by_order: dict[int, list[str]], max_n: int) -> list[str]:
    want = {n: C.GRAPH_COUNTS[n] for n in range(max_n + 1)}
    have = {n: len(v) for n, v in by_order.items()}
    return [] if have == want else [f"catalog counts {have}, expected {want}"]


def connected_problems(by_order: dict[int, list[str]], max_n: int) -> list[str]:
    have = [sum(C.is_connected(C.decode_g6(x)) for x in by_order[n]) for n in range(1, max_n + 1)]
    want = C.CONNECTED_COUNTS[1:max_n + 1]
    return [] if have == want else [f"connected counts {have}, expected {want}"]


def fill_private_cache(sp: Spawner) -> None:
    """Fill the cache to order 9 through the CLI, once per checkout."""
    stamp = C.PRIVATE_CACHE / "READY"
    if stamp.is_file():
        return
    tmp = C.WORK / "catalog.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    print(f"filling the catalog cache to order {C.CATALOG_MAX_N} (a few minutes)",
          file=sys.stderr)
    sp.deadline = time.monotonic() + FILL_LIMIT_S
    res = run_op(sp, hunt_op(C.CATALOG_MAX_N, tmp), C.WORK)
    sp.deadline = time.monotonic() + RUN_LIMIT_S
    problems = res.problems + count_problems(lines_by_order(tmp), C.CATALOG_MAX_N)
    if problems:
        raise BenchError("filling the catalog cache failed: " + "; ".join(problems))
    shutil.rmtree(C.PRIVATE_CACHE, ignore_errors=True)
    tmp.rename(C.PRIVATE_CACHE)
    C.dump(stamp, {"fill_s": res.wall})


def checked_catalog() -> dict[int, list[str]]:
    by_order = lines_by_order(C.PRIVATE_CACHE)
    # connectivity of every order-9 graph would take seconds, so stop at 8
    problems = count_problems(by_order, C.CATALOG_MAX_N) or connected_problems(by_order, 8)
    if problems:
        raise BenchError("private catalog cache is damaged: " + problems[0]
                         + f"; delete {C.PRIVATE_CACHE} to refill it")
    return by_order


def cache_snapshot(cache: Path) -> dict:
    return {p.name: p.stat().st_size for p in cache.glob("*.g6")}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def hunt_check(max_n: int):
    want = C.HUNT_SUMMARY[max_n]

    def check(stdout: bytes) -> list[str]:
        doc = json.loads(stdout)
        problems = []
        if doc["summary"] != want:
            problems.append(f"hunt summary {doc['summary']}, expected {want}")
        entries = doc["entries"]
        for m, census in C.HUNT_SUMMARY.items():
            small = [e for e in entries if e["n"] <= m]
            if m < max_n and (len(small), sum(e["connected"] for e in small)) != (
                    census["found"], census["found_connected"]):
                problems.append(f"entries of order <= {m} differ from the --max-n {m} census")
        if len({e["graph"] for e in entries}) != len(entries) or any(
                e["n"] > max_n for e in entries):
            problems.append("hunt entries repeat or exceed --max-n")
        return problems

    return check


def verify_check(sample: list[str]):
    def check(stdout: bytes) -> list[str]:
        lines = stdout.splitlines()
        records, summary = [json.loads(x) for x in lines[:-1]], json.loads(lines[-1])
        problems = []
        if summary["failures"] or summary["parse_errors"]:
            problems.append(f"{len(summary['failures'])} theorem failures")
        if summary["graphs"] != len(sample) or len(records) != len(sample):
            problems.append(f"{len(records)} records for {len(sample)} graphs")
        per_order = Counter(C.g6_order(g) for g in sample)
        graphs = {int(n): agg["graphs"] for n, agg in summary["aggregates"].items()}
        if graphs != dict(per_order):
            problems.append(f"aggregates {graphs}, expected {dict(per_order)}")
        theorems = {len(r["verdicts"]) for r in records}
        if len(theorems) != 1 or 0 in theorems:
            problems.append(f"verdict counts per graph {sorted(theorems)}")
        for i, (text, rec) in enumerate(zip(sample, records)):
            rep = rec["report"]
            if rec["line"] != i + 1 or rep["graph"] != text:
                problems.append(f"record {i + 1} is not input line {i + 1}")
            elif rep["alpha"] != C.alpha(C.decode_g6(text)):
                problems.append(f"alpha of {text} is {rep['alpha']}")
            elif any(v["graph"] != text for v in rec["verdicts"]):
                problems.append(f"verdicts of record {i + 1} name another graph")
            if len(problems) > 5:
                break
        return problems

    return check


def analyze_check(text: str, expect: dict):
    def check(stdout: bytes) -> list[str]:
        rep = json.loads(stdout)
        want = {"graph": text, **expect}
        return [f"{text}: {k} is {rep.get(k)!r}, expected {v!r}"
                for k, v in want.items() if rep.get(k) != v]

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def hunt_op(max_n: int, cache: Path) -> Op:
    return Op(["hunt", "problem.no-shedding", "--max-n", str(max_n), "--format", "json"],
              cache, C.HUNT_SUMMARY[max_n]["checked"], hunt_check(max_n))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.dir = C.WORK / "work" / self.name
        self.dir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Check the private cache and build the inputs (timed)."""
        checked_catalog()

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def before_pass(self) -> None:
        pass

    def after_pass(self) -> list[str]:
        return []

    def traced_args(self) -> list:
        """Arguments, cache directory and hunt order of each in-process pass."""
        return [[["--inputs", str(self.path)], C.PRIVATE_CACHE, None]]


class Verify(Workload):
    name = "verify"

    def setup(self):
        by_order = checked_catalog()
        rng = random.Random(self.seed)
        sample = []
        for n in (8, 9):
            lines = sorted(by_order[n])
            # at least 90% of each order is connected, so 2x the draws is ample
            drawn = (lines[i] for i in rng.sample(range(len(lines)), 2 * VERIFY_PER_ORDER))
            picked = [x for x in drawn if C.is_connected(C.decode_g6(x))][:VERIFY_PER_ORDER]
            if len(picked) < VERIFY_PER_ORDER:
                raise BenchError(f"too few connected graphs of order {n} drawn")
            sample += picked
        self.sample = sample
        self.path = self.dir / "sample.g6"
        self.path.write_text("\n".join(sample) + "\n")

    def ops(self, jobs: int = VERIFY_JOBS):
        return [Op(["verify", str(self.path), "--format", "json", "--jobs", str(jobs)],
                   C.PRIVATE_CACHE, len(self.sample), verify_check(self.sample))]


GK2_BASES = ("DT{", "D^{", "DU{", "DVw", "DVS", "DTw")


class Analyze(Workload):
    name = "analyze"

    def setup(self):
        by_order = checked_catalog()
        if str(C.SRC) not in sys.path:
            sys.path.insert(0, str(C.SRC))
        from wellcover.constructions import concatenate, corona_uniform
        from wellcover.graph import (
            Graph, complete, complete_bipartite, cycle, parse_graph6, path, write_graph6)

        rng = random.Random(self.seed)

        def connected(n):
            pool = [x for x in sorted(by_order[n]) if C.is_connected(C.decode_g6(x))]
            return parse_graph6(rng.choice(pool))

        def sparse(n, extra):
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            while len(edges) < n - 1 + extra:
                u, v = sorted(rng.sample(range(n), 2))
                edges.add((u, v))
            return Graph(n, sorted(edges))

        def closed(g, alpha, wc, **more):
            return g, {"n": g.n, "alpha": alpha, "well_covered": wc, **more}

        cases = []
        # G o K2 for three bases of order 5 whose coronas cost within 10% of each
        # other (level 2, n = 15).  They hold the median operation, so its time
        # does not depend on which bases the seed picks.
        for _ in range(3):
            base = parse_graph6(rng.choice(GK2_BASES))
            cases.append(closed(corona_uniform(base, complete(2)), 5, True))
        # concatenation with K5 parts is G o K4: level 3, n = 15
        cases.append(closed(concatenate(connected(3), complete(5), rng.randrange(5)), 3, True))
        # concatenation of small catalog graphs, alpha from the benchmark's oracle
        g = concatenate(connected(3), connected(5), rng.randrange(5))
        cases.append((g, {"n": g.n, "alpha": C.alpha(list(g.adj))}))
        g = sparse(16, 3)
        cases.append((g, {"n": g.n, "alpha": C.alpha(list(g.adj))}))
        cases.append(closed(cycle(22), 11, False, differential=22 // 3))
        cases.append(closed(path(21), 11, False, differential=21 // 3))
        # order 25: the differential cap makes this exit 2 today (a known defect)
        cases.append(closed(complete_bipartite(12, 13), 13, False))
        self.cases = [(write_graph6(g), expect) for g, expect in cases]
        self.path = self.dir / "inputs.g6"
        self.path.write_text("\n".join(t for t, _ in self.cases) + "\n")

    def ops(self):
        return [Op(["analyze", text, "--format", "json"], C.PRIVATE_CACHE, 1,
                   analyze_check(text, expect)) for text, expect in self.cases]


class Hunt(Workload):
    """A cold hunt to order 7 in an emptied cache, then a warm hunt to order 8
    that reads the private cache: the catalog layer written, then read."""

    name = "hunt"
    cold_n, warm_n = 7, 8

    def setup(self):
        super().setup()
        self.cache = self.dir / "cache"

    def before_pass(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        self.cache.mkdir(parents=True)
        self.snapshot = cache_snapshot(C.PRIVATE_CACHE)

    def ops(self):
        return [hunt_op(self.cold_n, self.cache), hunt_op(self.warm_n, C.PRIVATE_CACHE)]

    def after_pass(self):
        problems = count_problems(lines_by_order(self.cache), self.cold_n)
        if cache_snapshot(C.PRIVATE_CACHE) != self.snapshot:
            problems.append("a warm hunt rewrote the catalog cache")
        return problems

    def traced_args(self):
        self.before_pass()
        return [[["--max-n", str(self.cold_n), "--cold"], self.cache, self.cold_n],
                [["--max-n", str(self.warm_n)], C.PRIVATE_CACHE, self.warm_n]]


WORKLOADS = {w.name: w for w in (Verify, Analyze, Hunt)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def measure(sp: Spawner, wl: Workload, seconds: float) -> tuple[list[Pass], list[float]]:
    """Passes until `seconds` would be exceeded (at least one), and the times of
    the set-ups: one before the first pass, then one more each time another
    1/SETUP_REPS of the run has gone."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while True:
        if len(setups) <= SETUP_REPS * (time.perf_counter() - t0) / seconds:
            t1 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t1)
        passes.append(run_pass(sp, wl))
        pass_s = statistics.median(p.wall for p in passes)
        if time.perf_counter() - t0 + pass_s > seconds:
            return passes, setups


def end_to_end(passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """Metric values, and the distributions behind them.

    Every timing except set-up is in reference units: an operation's time
    divided by the time of a fixed pure-Python loop that the spawning helper
    runs just before it (`spawn.reference`).  On a shared host, co-tenants
    slow the whole machine by up to 2x, in phases from under a second to
    minutes, so seconds drift by up to tens of percent from run to run; the
    ratio moves by 4-10%.  Each operation's ratio is its median over the
    passes; a pass's figure is the sum over its operations, without the
    benchmark's own checks between them.
    """
    ops = range(len(passes[0].results))
    ratio = [statistics.median(p.results[i].wall / p.results[i].ref for p in passes)
             for i in ops]
    cpu_ratio = [statistics.median(p.results[i].cpu / p.results[i].ref for p in passes)
                 for i in ops]
    ok = [i for i in ops if all(p.results[i].ok for p in passes)]
    if not ok:
        raise BenchError("no operation succeeded: "
                         + "; ".join(r.problems[0] for r in passes[0].results))
    wall = sum(ratio)
    latencies = [ratio[i] for i in ok]
    values = {
        "setup_s": statistics.median(setup),
        "wall_ref": wall,
        "graphs_per_ref": sum(passes[0].ops[i].graphs for i in ok) / wall,
        "cpu_ref": sum(cpu_ratio),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p.results) for p in passes),
        "op_latency_ref.p50": C.percentile(latencies, 50),
    }
    details = {
        "setup_s": C.summary(setup),
        "pass_wall_s": C.summary([sum(r.wall for r in p.results) for p in passes]),
        "pass_cpu_s": C.summary([sum(r.cpu for r in p.results) for p in passes]),
        "reference_s": C.summary([r.ref for p in passes for r in p.results]),
        "peak_rss_mb": C.summary([max(r.rss_mb for r in p.results) for p in passes], "MB"),
        "op_wall_s": C.summary([p.results[i].wall for p in passes for i in ok]),
        "op_latency_ref": C.summary(latencies, "ref"),
    }
    # no run has ten operations beyond its 90th percentile, and the slowest one
    # or two alone vary by 10-18% between runs: reported here, not bounded
    details["op_latency_ref"]["p90"] = C.percentile(latencies, 90)
    return values, details


def outcome(passes: list[Pass]) -> tuple[int, int, list[str], list[str]]:
    """attempted, failed, failure messages, and problems that make the run incorrect."""
    attempted = failed = 0
    failures, wrong = [], []
    digests = {p.digest for p in passes}
    if len(digests) > 1:
        wrong.append(f"passes disagree on the output digest: {sorted(digests)}")
    for p in passes:
        wrong += p.problems
        for r in p.results:
            attempted += 1
            if not r.ok or len(digests) > 1:
                failed += 1
                failures += r.problems
                if r.exit == 0:
                    wrong += r.problems
    return attempted, failed, failures, wrong


def traced(sp: Spawner, wl: Workload, spec: dict) -> tuple[dict, dict, list, list[str]]:
    """Per-layer metrics: one CLI pass, then in-process passes without and with tracing."""
    cli_pass = run_pass(sp, wl)
    layers = {"cli.output_bytes": sum(len(r.stdout) for r in cli_pass.results)}
    layers["harness.pool_speedup"] = 0.0
    if isinstance(wl, Verify):
        serial = run_op(sp, wl.ops(jobs=1)[0], wl.dir)
        layers["harness.pool_speedup"] = serial.wall / cli_pass.wall
    probe = Op(["analyze", "complete:1", "--format", "json"], C.PRIVATE_CACHE, 1,
               lambda out: [] if json.loads(out)["n"] == 1 else ["wrong order"])
    probes = [run_op(sp, probe, wl.dir) for _ in range(STARTUP_PROBES)]
    layers["cli.startup_s"] = statistics.median(r.wall for r in probes)

    # plain and traced passes alternate, and the overhead compares the fastest
    # of each: one pass of each on a shared host differed by up to 40% either way
    core_s = {"plain": [], "traced": []}
    spans, problems = [], []
    for rep in range(TRACE_REPS):
        for mode in core_s:
            total = 0.0
            for extra, cache, hunt_n in wl.traced_args():
                argv = [PY, str(Path(__file__).with_name("traced.py")), "--workload", wl.name,
                        "--cache", str(cache), "--mode", mode, *extra]
                try:
                    done = subprocess.run(argv, cwd=C.ROOT, env=C.child_env(cache),
                                          capture_output=True, text=True,
                                          timeout=sp.remaining())
                except subprocess.TimeoutExpired:
                    raise BenchError(f"traced pass ({mode}) passed the time limit") from None
                if done.returncode != 0:
                    raise BenchError(f"traced pass ({mode}) failed: {done.stderr[-2000:]}")
                t = json.loads(done.stdout.splitlines()[-1])
                total += t["core_s"]
                if hunt_n and t["summary"] != C.HUNT_SUMMARY[hunt_n]:
                    problems.append(f"in-process hunt summary {t['summary']}")
                if mode == "traced" and rep == 0:
                    spans.append(t["trace"])
                    for name, value in t["layers"].items():
                        # times and counts add up over the passes; a ratio is
                        # non-zero in at most one of them
                        if name.endswith(("_ratio", "_frac")):
                            value = max(value, layers.get(name, 0))
                        else:
                            value += layers.get(name, 0)
                        layers[name] = value
            core_s[mode].append(total)
    plain_s, traced_s = min(core_s["plain"]), min(core_s["traced"])
    layers["trace.overhead_frac"] = traced_s / plain_s - 1
    names = [m["name"] for m in spec["per_layer"]]
    missing = sorted(set(names) - set(layers))
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    attempted, failed, failures, wrong = outcome([cli_pass])
    info = {"digest": cli_pass.digest, "failures": failures, "traced_core_s": traced_s,
            "plain_core_s": plain_s, "attempted": attempted,
            "failed": failed + len(problems)}
    return {n: layers[n] for n in names}, info, spans, problems + wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not C.program_present():
        raise BenchError(f"no program sources under {C.SRC}")
    sp = Spawner()  # before this process grows
    try:
        return bench(sp, args)
    finally:
        sp.close()


def bench(sp: Spawner, args) -> int:
    spec = json.loads((C.ROOT / "BENCHMARK.json").read_text())
    env = C.environment(args.seed)
    env["loadavg_start"] = C.loadavg()
    fill_private_cache(sp)
    wl = WORKLOADS[args.workload](args.seed)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}[wl.name]
    if args.trace:
        wl.setup()
        metrics, info, spans, wrong = traced(sp, wl, spec)
        C.dump(C.WORK / "results" / f"{stem}-spans.json", spans)
        attempted, failed = info.pop("attempted"), info.pop("failed")
        report = {"workload": wl.name, "why": why, "trace": 1, **info}
    else:
        passes, setup = measure(sp, wl, args.seconds)
        metrics, details = end_to_end(passes, setup)
        attempted, failed, failures, wrong = outcome(passes)
        report = {
            "workload": wl.name, "why": why, "trace": 0, "passes": len(passes),
            "distributions": details,
            "failed_ops_frac": {"value": failed / attempted, "unit": "ratio"},
            "failures": failures, "digest": passes[0].digest,
            "ops": [{"args": " ".join(op.args)[:60],
                     "median_s": statistics.median(p.results[i].wall for p in passes),
                     "median_ref": statistics.median(p.results[i].wall / p.results[i].ref
                                                     for p in passes)}
                    for i, op in enumerate(passes[0].ops)],
        }
    env["loadavg_end"] = C.loadavg()
    report.update(environment=env, incorrect=wrong)
    result = {
        "correct": not wrong, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    C.dump(C.WORK / "results" / f"{stem}.json", {"report": report, "result": result})
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # turn SIGTERM into SystemExit, so that a running CLI process is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
