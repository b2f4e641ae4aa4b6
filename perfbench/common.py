"""Shared pieces of the benchmark: locations, constants, graph6 decoding and an
independent independence-number oracle, output digests and run environment.

Nothing here imports the program under test.  The constants are classical
values or recorded results, held here so that the correctness gates do not
rely on the program's own tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PRIVATE_CACHE = WORK / "catalog"
CATALOG_MAX_N = 9

# graphs / connected graphs on n vertices (OEIS A000088 and A001349), n = 0..9
GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080]

# `hunt problem.no-shedding --max-n N` summaries, by N; "checked" is the
# number of graphs of order 1..N, so it follows from GRAPH_COUNTS
HUNT_SUMMARY = {
    n: {"found": found, "found_connected": connected, "checked": sum(GRAPH_COUNTS[1:n + 1])}
    for n, found, connected in ((7, 19, 8), (8, 38, 18), (9, 139, 100))
}

_ELAPSED = re.compile(rb'"elapsed": [-+0-9.eE]+')


def program_present() -> bool:
    return (SRC / "wellcover" / "cli.py").is_file()


def child_env(cache_dir: Path) -> dict:
    """Environment for a program process: this checkout's sources and a cache
    directory inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WELLCOVER_CACHE_DIR"] = str(cache_dir)
    env.pop("WELLCOVER_JOBS", None)
    return env


# ---------------------------------------------------------------------------
# graph6 and small graph algorithms, independent of the program
# ---------------------------------------------------------------------------


def g6_order(line: str) -> int:
    return ord(line[0]) - 63


def decode_g6(line: str) -> list[int]:
    """Adjacency bitmasks of a short-form graph6 line (n <= 62)."""
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        v = ord(ch) - 63
        bits.extend((v >> s) & 1 for s in range(5, -1, -1))
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


def is_connected(adj: list[int]) -> bool:
    n = len(adj)
    seen, frontier = 1, 1
    while frontier:
        grow = 0
        for v in range(n):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def alpha(adj: list[int]) -> int:
    """Independence number by branching on a vertex of largest degree."""

    def rec(mask: int) -> int:
        best_v, best_d = -1, -1
        m = mask
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            d = (adj[v] & mask).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        if best_d <= 0:
            return mask.bit_count()
        v = best_v
        take = 1 + rec(mask & ~(adj[v] | 1 << v))
        return max(take, rec(mask & ~(1 << v)))

    return rec((1 << len(adj)) - 1)


# ---------------------------------------------------------------------------
# outputs, statistics, environment
# ---------------------------------------------------------------------------


def normalize(stdout: bytes) -> bytes:
    """Program output with every "elapsed" value zeroed."""
    return _ELAPSED.sub(b'"elapsed": 0', stdout)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary(values: list[float], unit: str = "s") -> dict:
    """Median, quartiles and sample count of one quantity."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def environment(seed: int) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, check=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "wellcover").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty": dirty,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def dump(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
