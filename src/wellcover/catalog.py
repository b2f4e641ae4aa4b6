"""Exhaustive catalogs of small graphs up to isomorphism.

Catalogs are produced by minimum-degree vertex augmentation: deleting a vertex
of minimum degree from a graph on n vertices leaves a graph on n-1 vertices,
so extending every (n-1)-representative by every neighborhood that leaves the
new vertex of minimum degree reaches every isomorphism class.  A class is
represented by its canonical form, the relabeled adjacency that
``certificate`` computes, so a level is the sorted set of its children's
canonical forms and does not depend on which child reached a class first.
The certificate is computed by color refinement plus individualization with
interchangeable-vertex skipping, which stays fast on the symmetric graphs
that defeat naive permutation schemes.  The refinement splits one cell (the
vertices of one color) at a time, so a singleton cell costs nothing and a
cell whose members agree keeps its rank without being reordered.

Generated catalogs are cached in memory and, optionally, on disk (graph6
lines, with their CRC-32 checksum in a ``.crc32`` file beside them) under
``$WELLCOVER_CACHE_DIR`` or the XDG cache directory; set
``WELLCOVER_CACHE_DIR=off`` to disable the disk layer.  Generation is
deterministic, so the cache is a pure memo; a disk level with a line that is
not the graph6 line of a graph of its order, whose checksum is missing or
wrong, or whose size differs from its known count, is regenerated and
rewritten.
"""

from __future__ import annotations

import binascii
import os

from .graph import (
    Graph,
    decode_graph6_body,
    is_connected,
    iter_bits,
    neighborhood,
    vertices_of,
    write_graph6,
)

_CACHE_VERSION = 2
_mem_cache: dict[tuple, list[tuple[int, ...]]] = {}

# Largest order a hunt searches, and the largest order of a ``catalog:`` stream.
# The catalog generates and caches every graph up to that order in memory:
# 12,005,168 graphs of order 10 alone, and about 10^9 of order 11.
# Deduplication (``certificate``) has no cap of its own.
HUNT_MAX_N = 10

# number of graphs / connected graphs on n vertices, used to check generated
# and loaded levels (classical values; OEIS A000088 and A001349)
KNOWN_GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]
KNOWN_CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]

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


def _cells(colors: list[int]) -> list[list[int]]:
    """The vertices of each color, in increasing color order."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def _refine(nbrs: list, colors: list[int], cells: list[list[int]]):
    """Equitable refinement, one cell at a time: (colors, cells).

    ``cells`` lists the vertices of each color in increasing color order.
    Each round gives a vertex the number of distinct neighbor-color
    multisets in the cells before its own, plus the rank of its multiset
    within its own cell, until no cell splits.  These are the ranks of the
    sorted (color, neighbor colors) signatures of the whole graph, so they
    do not depend on the vertex labeling; a singleton cell keeps one rank
    without looking at its neighbors (McKay and Piperno, "Practical graph
    isomorphism, II", 2014).  The returned colors are 0, 1, ... in cell
    order.
    """
    while True:
        get = colors.__getitem__
        new = colors.copy()
        out = []
        base = 0
        for cell in cells:
            if len(cell) == 1:
                new[cell[0]] = base
                base += 1
                out.append(cell)
                continue
            keyed = sorted([(sorted(map(get, nbrs[v])), v) for v in cell])
            if keyed[0][0] == keyed[-1][0]:  # one signature: the cell stays
                for v in cell:
                    new[v] = base
                base += 1
                out.append(cell)
                continue
            prev = keyed[0][0]
            part = []
            for sig, v in keyed:
                if sig != prev:
                    out.append(part)
                    part = []
                    base += 1
                    prev = sig
                new[v] = base
                part.append(v)
            out.append(part)
            base += 1
        if len(out) == len(cells):
            return new, out
        colors, cells = new, out


def _interchangeable(adj: tuple[int, ...], u: int, v: int) -> bool:
    """Whether u and v have the same neighbors apart from each other, so
    that swapping them is an automorphism."""
    clear = ~((1 << u) | (1 << v))
    return adj[u] & clear == adj[v] & clear


def certificate(adj: tuple[int, ...]) -> tuple:
    """Isomorphism-invariant certificate of a labeled graph.

    Two adjacency tuples have equal certificates iff the graphs are
    isomorphic.  The value is the lexicographically greatest relabeled
    adjacency tuple over the orders explored by refinement plus
    individualization: ``certificate(adj)[1:]`` is the canonical form that
    represents the class in catalog levels and hunt censuses.
    """
    n = len(adj)
    if n == 0:
        return (0,)
    nbrs = [vertices_of(row) for row in adj]
    best: tuple | None = None

    def rec(colors: list[int], cells: list[list[int]]):
        nonlocal best
        for i, cell in enumerate(cells):
            if len(cell) > 1:
                break
        else:
            # discrete: each vertex's color is its position
            rows = []
            for (v,) in cells:
                row = 0
                for u in nbrs[v]:
                    row |= 1 << colors[u]
                rows.append(row)
            key = tuple(rows)
            if best is None or key > best:
                best = key
            return
        tried: list[int] = []
        for v in cell:
            if any(_interchangeable(adj, u, v) for u in tried):
                continue  # swapping it with an explored branch is an automorphism
            tried.append(v)
            # individualize v: a last cell of its own, with a color above any rank
            branched = colors.copy()
            branched[v] = n
            rest = [u for u in cell if u != v]
            rec(*_refine(nbrs, branched, cells[:i] + [rest] + cells[i + 1 :] + [[v]]))

    degrees = [len(members) for members in nbrs]
    rec(*_refine(nbrs, degrees, _cells(degrees)))
    return (n,) + best


# ---------------------------------------------------------------------------
# generation by vertex augmentation
# ---------------------------------------------------------------------------


def _children(padj: tuple[int, ...], neighborhoods):
    """Each child of ``padj`` whose new vertex, attached to one of
    ``neighborhoods``, has minimum degree in the child; no neighborhood
    holds more than the parent's minimum degree + 1 vertices."""
    k = len(padj)
    top = 1 << k
    low = min((row.bit_count() for row in padj), default=0)
    lowest = sum(1 << v for v in range(k) if padj[v].bit_count() == low)
    for nb in neighborhoods:
        # a vertex of degree `low` outside nb would have a smaller degree
        if nb.bit_count() > low and nb & lowest != lowest:
            continue
        rows = list(padj)
        for v in iter_bits(nb):
            rows[v] |= top
        rows.append(nb)
        yield tuple(rows)


def canonical_forms(adjs) -> list[tuple[int, ...]]:
    """The canonical form of each isomorphism class among the adjacency
    tuples ``adjs``, in certificate order: the representatives of catalog
    levels and hunt censuses."""
    return [cert[1:] for cert in sorted({certificate(adj) for adj in adjs})]


def _level_adj(n: int, min_girth: int = 0) -> list[tuple[int, ...]]:
    """Every graph on n vertices (of girth >= ``min_girth`` when that is 4 or
    more; every graph has girth >= 3), one canonical form per isomorphism
    class in certificate order: from memory, else from disk, else generated
    by minimum-degree augmentation of level n - 1 and stored.  Girth >=
    ``min_girth`` survives vertex deletion, so girth levels are generated
    from girth levels.

    A level with a known count (``KNOWN_LEVEL_COUNTS``) is checked on disk
    load as well as after generation; a disk level of the wrong size, or
    whose checksum is missing or wrong, is regenerated and rewritten.
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
        else:
            level = canonical_forms(
                cadj
                for padj in _level_adj(n - 1, min_girth)
                for cadj in _children(padj, _neighborhoods(padj, min_girth))
            )
        if expected is not None and len(level) != expected:
            raise AssertionError(
                f"generated {len(level)} graphs on {n} vertices, expected {expected}"
            )
        _disk_store(key, level)
    _mem_cache[key] = level
    return level


def _neighborhoods(padj: tuple[int, ...], min_girth: int):
    """Neighborhood subsets of at most the parent's minimum degree + 1
    vertices whose addition keeps every cycle >= min_girth (every subset
    when min_girth is 0) and that take the lowest-indexed members of each
    class of interchangeable parent vertices.  A larger neighborhood would
    not leave the new vertex of minimum degree.

    A new cycle runs through the new vertex via two chosen neighbors a, b and
    has length dist(a, b) + 2, so chosen neighbors must be pairwise at
    distance >= min_girth - 2 in the parent: outside each other's ball of
    radius min_girth - 3.  Permuting a class of interchangeable vertices is
    an automorphism of the parent, which keeps degrees and distances, so it
    maps every neighborhood to one of these with an isomorphic child.
    """
    k = len(padj)
    full = (1 << k) - 1
    # the next lower member of each vertex's class (interchangeability is an
    # equivalence), which a neighborhood holding the vertex must hold too
    prev = [0] * k
    for v in range(k):
        for u in range(v - 1, -1, -1):
            if _interchangeable(padj, u, v):
                prev[v] = 1 << u
                break
    if min_girth == 0:
        compatible = [full] * k
    else:
        parent = Graph._raw(k, padj)
        balls = [1 << v for v in range(k)]
        for _ in range(min_girth - 3):
            balls = [ball | neighborhood(parent, ball) for ball in balls]
        compatible = [full & ~ball for ball in balls]
    out = []

    def grow(mask: int, candidates: int, room: int):
        out.append(mask)
        if not room:
            return
        m = candidates
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            if prev[v] & ~mask:
                continue  # a lower member of v's class is left out
            # extend with v; keep only larger vertices compatible with v
            grow(mask | b, candidates & compatible[v] & ~((b << 1) - 1), room - 1)

    grow(0, full, min((row.bit_count() for row in padj), default=0) + 1)
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
        g = Graph._raw(n, adj)
        if not connected or is_connected(g):
            yield g


# ---------------------------------------------------------------------------
# disk cache
# ---------------------------------------------------------------------------


def _cache_dir() -> str | None:
    env = os.environ.get("WELLCOVER_CACHE_DIR")
    if env == "off":
        return None
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME", os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "wellcover")


def _cache_path(key: tuple) -> str | None:
    """The level's graph6 file; its checksum file swaps ``.g6`` for
    ``.crc32``."""
    base = _cache_dir()
    if base is None:
        return None
    name = "-".join(str(part) for part in key)
    return os.path.join(base, f"catalog-v{_CACHE_VERSION}-{name}.g6")


def _checksum_path(path: str) -> str:
    return path[: -len(".g6")] + ".crc32"


def _checksum(crc: int) -> bytes:
    # CRC-32 detects accidental damage to a level; binascii is loaded anyway,
    # while hashlib loads OpenSSL, about 3.5 MB more resident memory per process
    return b"%08x\n" % crc


def _disk_load(key: tuple) -> list[tuple[int, ...]] | None:
    """The cached level, or None when it is absent, unreadable, holds a
    line that is not the graph6 line of a graph of its order, or its
    checksum file is missing or does not match."""
    path = _cache_path(key)
    if path is None:
        return None
    n = key[1]
    size = (n * (n - 1) // 2 + 5) // 6 + 2  # order byte, body and newline
    head = n + 63  # the short-form order byte
    try:
        crc, level = 0, []
        with open(path, "rb") as fh:
            for line in fh:  # line by line, so the file is never held whole
                crc = binascii.crc32(line, crc)
                if len(line) != size or line[0] != head or line[-1] != 10:
                    return None
                # the decoder rejects a byte out of range and padding bits
                level.append(decode_graph6_body(n, line[1:-1]))
        with open(_checksum_path(path), "rb") as fh:
            if fh.read() != _checksum(crc):
                return None
        return level
    except (OSError, ValueError):
        return None


def _disk_store(key: tuple, level: list[tuple[int, ...]]):
    """Write the level and its checksum file, each replaced atomically."""
    path = _cache_path(key)
    if path is None:
        return
    n = int(key[1])
    data = "".join(write_graph6(Graph._raw(n, adj)) + "\n" for adj in level).encode()
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        checksum = _checksum(binascii.crc32(data))
        for target, content in ((path, data), (_checksum_path(path), checksum)):
            tmp = target + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(content)
            os.replace(tmp, target)
    except OSError:
        pass
