"""Exhaustive catalogs of small graphs up to isomorphism.

Catalogs are produced by vertex augmentation: every graph on n vertices arises
from a graph on n-1 vertices by attaching one new vertex, so extending every
(n-1)-representative by every neighborhood subset and deduplicating with an
isomorphism-invariant certificate enumerates each isomorphism class exactly
once.  The certificate is computed by color refinement plus individualization
with interchangeable-vertex skipping, which stays fast on the symmetric graphs
that defeat naive permutation schemes.

Generated catalogs are cached in memory and, optionally, on disk (graph6
lines) under ``$WELLCOVER_CACHE_DIR`` or the XDG cache directory; set
``WELLCOVER_CACHE_DIR=off`` to disable the disk layer.  Generation is
deterministic, so the cache is a pure memo; a disk level whose size differs
from its known count is regenerated.
"""

from __future__ import annotations

import os
from pathlib import Path

from .graph import Graph, iter_bits, parse_graph6, write_graph6

_CACHE_VERSION = 1
_mem_cache: dict[tuple, list[tuple[int, ...]]] = {}

# number of graphs / connected graphs on n vertices, used to check generated
# and loaded levels (classical values; OEIS A000088 and A001349)
KNOWN_GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
KNOWN_CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080]

# the counts each cached level is checked against, keyed by its min_girth (0:
# every graph): graphs on n vertices of girth >= 4, 5, 6 are OEIS A006785,
# A006786 and A006787; their order-10 entries are this generator's output
KNOWN_LEVEL_COUNTS = {
    0: KNOWN_GRAPH_COUNTS,
    4: [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897],
    5: [1, 1, 2, 3, 6, 11, 23, 48, 114, 293, 869],
    6: [1, 1, 2, 3, 6, 10, 21, 40, 88, 192, 473],
}


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


def _refine(n: int, adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Equitable refinement: split color classes by neighbor-color multisets.

    New color ids are ranks of the sorted signatures, so they do not depend on
    the vertex labeling.
    """
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            row = adj[v]
            nb = []
            while row:
                b = row & -row
                nb.append(colors[b.bit_length() - 1])
                row ^= b
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def certificate(adj: tuple[int, ...]) -> tuple:
    """Isomorphism-invariant certificate of a labeled graph.

    Two adjacency tuples have equal certificates iff the graphs are
    isomorphic.  The value is the lexicographically greatest relabeled
    adjacency tuple over the orders explored by refinement plus
    individualization, which is a canonical representative.
    """
    n = len(adj)
    if n == 0:
        return (0,)
    best: tuple | None = None

    def leaf(colors: list[int]):
        nonlocal best
        order = sorted(range(n), key=colors.__getitem__)
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        rows = []
        for v in order:
            row = adj[v]
            new = 0
            while row:
                b = row & -row
                new |= 1 << pos[b.bit_length() - 1]
                row ^= b
            rows.append(new)
        key = tuple(rows)
        if best is None or key > best:
            best = key

    def rec(colors: list[int]):
        # find the first non-singleton color class
        count: dict[int, int] = {}
        for c in colors:
            count[c] = count.get(c, 0) + 1
        target = None
        for c in sorted(count):
            if count[c] > 1:
                target = c
                break
        if target is None:
            leaf(colors)
            return
        cell = [v for v in range(n) if colors[v] == target]
        fresh = n  # color id larger than any rank produced by _refine
        tried: list[int] = []
        for v in cell:
            skip = False
            for u in tried:
                clear = ~((1 << u) | (1 << v))
                if (adj[u] & clear) == (adj[v] & clear):
                    skip = True  # interchangeable with an explored branch
                    break
            if skip:
                continue
            tried.append(v)
            branched = colors.copy()
            branched[v] = fresh
            rec(_refine(n, adj, branched))

    rec(_refine(n, adj, [row.bit_count() for row in adj]))
    return (n,) + best


# ---------------------------------------------------------------------------
# generation by vertex augmentation
# ---------------------------------------------------------------------------


def _children(padj: tuple[int, ...], allowed_neighborhoods) -> list[tuple[int, ...]]:
    k = len(padj)
    top = 1 << k
    out = []
    for nb in allowed_neighborhoods:
        rows = list(padj)
        for v in iter_bits(nb):
            rows[v] |= top
        rows.append(nb)
        out.append(tuple(rows))
    return out


def _generate_level(parents: list[tuple[int, ...]], neighborhoods_for) -> list[tuple[int, ...]]:
    seen = {}
    for padj in parents:
        for cadj in _children(padj, neighborhoods_for(padj)):
            cert = certificate(cadj)
            if cert not in seen:
                seen[cert] = cadj
    return [seen[c] for c in sorted(seen)]


def _level_adj(n: int, min_girth: int = 0) -> list[tuple[int, ...]]:
    """Every graph on n vertices (of girth >= ``min_girth`` when that is 4 or
    more; every graph has girth >= 3), one per isomorphism class: from
    memory, else from disk, else generated from level n - 1 and stored.

    A level with a known count (``KNOWN_LEVEL_COUNTS``) is checked on disk
    load as well as after generation; a disk level of the wrong size is
    regenerated and rewritten.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    min_girth = 0 if min_girth <= 3 else min_girth
    key = ("all", n) if min_girth == 0 else ("girth", n, min_girth)
    level = _mem_cache.get(key)
    if level is not None:
        return level
    counts = KNOWN_LEVEL_COUNTS.get(min_girth, ())
    expected = counts[n] if n < len(counts) else None
    level = _disk_load(key)
    if level is None or (expected is not None and len(level) != expected):
        if n == 0:
            level = [()]
        elif min_girth == 0:
            subsets = range(1 << (n - 1))
            level = _generate_level(_level_adj(n - 1), lambda padj: subsets)
        else:
            level = _generate_level(
                _level_adj(n - 1, min_girth), lambda padj: _girth_neighborhoods(padj, min_girth)
            )
        if expected is not None and len(level) != expected:
            raise AssertionError(
                f"generated {len(level)} graphs on {n} vertices, expected {expected}"
            )
        _disk_store(key, level)
    _mem_cache[key] = level
    return level


def _is_connected_adj(adj: tuple[int, ...]) -> bool:
    n = len(adj)
    if n == 0:
        return True
    comp = 1
    frontier = 1
    while frontier:
        grow = 0
        m = frontier
        while m:
            b = m & -m
            grow |= adj[b.bit_length() - 1]
            m ^= b
        frontier = grow & ~comp
        comp |= frontier
    return comp == (1 << n) - 1


def _distances(adj: tuple[int, ...]) -> list[list[int]]:
    n = len(adj)
    inf = n + 10
    dist = [[inf] * n for _ in range(n)]
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for u in iter_bits(adj[v]):
                if row[u] > row[v] + 1:
                    row[u] = row[v] + 1
                    queue.append(u)
    return dist


def _girth_neighborhoods(padj: tuple[int, ...], min_girth: int) -> list[int]:
    """Neighborhood subsets whose addition keeps every cycle >= min_girth.

    A new cycle runs through the new vertex via two chosen neighbors a, b and
    has length dist(a, b) + 2, so chosen neighbors must be pairwise at
    distance >= min_girth - 2 in the parent.
    """
    k = len(padj)
    if k == 0:
        return [0]
    dist = _distances(padj)
    need = min_girth - 2
    compatible = []
    for v in range(k):
        row = 0
        for u in range(k):
            if u != v and dist[v][u] >= need:
                row |= 1 << u
        compatible.append(row)
    out = []

    def grow(mask: int, candidates: int):
        out.append(mask)
        m = candidates
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            # extend with v; keep only larger vertices compatible with v
            grow(mask | b, candidates & compatible[v] & ~((b << 1) - 1))

    grow(0, (1 << k) - 1)
    return out


def all_graphs(n: int, connected: bool = False):
    """All graphs on exactly n vertices, one per isomorphism class."""
    return graphs_with_girth_at_least(n, 0, connected)


def graphs_up_to(n: int, connected: bool = False, min_n: int = 1):
    """All graphs with min_n <= order <= n, one per isomorphism class."""
    for k in range(min_n, n + 1):
        yield from all_graphs(k, connected=connected)


def graphs_with_girth_at_least(n: int, min_girth: int, connected: bool = False):
    """Graphs on exactly n vertices with girth >= min_girth (forests included)."""
    for adj in _level_adj(n, min_girth):
        if connected and not _is_connected_adj(adj):
            continue
        yield Graph._raw(n, adj)


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def _cache_dir() -> Path | None:
    env = os.environ.get("WELLCOVER_CACHE_DIR")
    if env == "off":
        return None
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return Path(base) / "wellcover"


def _cache_path(key: tuple) -> Path | None:
    base = _cache_dir()
    if base is None:
        return None
    name = "-".join(str(part) for part in key)
    return base / f"catalog-v{_CACHE_VERSION}-{name}.g6"


def _disk_load(key: tuple) -> list[tuple[int, ...]] | None:
    path = _cache_path(key)
    if path is None or not path.is_file():
        return None
    try:
        out = []
        with path.open() as fh:
            for line in fh:
                line = line.strip()
                if line:
                    out.append(parse_graph6(line).adj)
        return out
    except (OSError, ValueError):
        return None


def _disk_store(key: tuple, level: list[tuple[int, ...]]):
    path = _cache_path(key)
    if path is None:
        return
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with tmp.open("w") as fh:
            n = int(key[1])
            for adj in level:
                fh.write(write_graph6(Graph._raw(n, adj)))
                fh.write("\n")
        tmp.replace(path)
    except OSError:
        pass
