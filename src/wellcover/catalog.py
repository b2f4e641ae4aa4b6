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
that defeat naive permutation schemes.

A level is read as a stream from a file of graph6 lines, with their CRC-32
checksum in a ``.crc32`` file beside it, under ``$WELLCOVER_CACHE_DIR`` or
the XDG cache directory (``WELLCOVER_CACHE_DIR=off`` disables the disk
layer); only a level that is generated, or read as generation parents, is
kept in memory.  Generation is deterministic, so the cache is a pure memo; a
disk level with a line that is not the graph6 line of a graph of its order,
whose checksum is missing or wrong, or whose size differs from its known
count, is regenerated and rewritten.
"""

from __future__ import annotations

import binascii
import os
from itertools import chain

from .graph import (
    Graph,
    decode_graph6_body,
    is_connected,
    iter_bits,
    vertices_of,
    write_graph6,
)

_CACHE_VERSION = 2
# the levels this process generated or read whole (``_level_adj``)
_mem_cache: dict[int, list[tuple[int, ...]]] = {}

# Largest order a hunt searches, and the largest order of a ``catalog:`` stream.
# Generating a level holds it and the level below in memory: 12,005,168
# graphs of order 10 alone, and about 10^9 of order 11.
# Deduplication (``certificate``) has no cap of its own.
HUNT_MAX_N = 10

# number of graphs on n vertices, used to check generated and loaded levels
# (classical values; OEIS A000088)
KNOWN_GRAPH_COUNTS = [1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668, 12005168]


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


def _level_adj(n: int) -> list[tuple[int, ...]]:
    """Every graph on n vertices, one canonical form per isomorphism class in
    certificate order, kept in memory for random access: from memory, else
    read whole from disk, else generated by minimum-degree augmentation of
    level n - 1, checked against its known count and stored."""
    if n < 0:
        raise ValueError("n must be non-negative")
    level = _mem_cache.get(n)
    if level is not None:
        return level
    level = list(_disk_rows(n))
    if not level:
        if n == 0:
            level = [()]
        else:
            level = canonical_forms(
                cadj
                for padj in _level_adj(n - 1)
                for cadj in _children(padj, _neighborhoods(padj))
            )
        if KNOWN_GRAPH_COUNTS[n : n + 1] not in ([], [len(level)]):
            raise AssertionError(
                f"generated {len(level)} graphs on {n} vertices, "
                f"expected {KNOWN_GRAPH_COUNTS[n]}"
            )
        _disk_store(n, level)
    _mem_cache[n] = level
    return level


def _neighborhoods(padj: tuple[int, ...]):
    """Neighborhood subsets of at most the parent's minimum degree + 1
    vertices that take the lowest-indexed members of each class of
    interchangeable parent vertices.  A larger neighborhood would not leave
    the new vertex of minimum degree.  Permuting a class of interchangeable
    vertices is an automorphism of the parent, which keeps degrees, so it
    maps every neighborhood to one of these with an isomorphic child.
    """
    k = len(padj)
    # the next lower member of each vertex's class (interchangeability is an
    # equivalence), which a neighborhood holding the vertex must hold too
    prev = [0] * k
    for v in range(k):
        for u in range(v - 1, -1, -1):
            if _interchangeable(padj, u, v):
                prev[v] = 1 << u
                break
    out = []

    def grow(mask: int, candidates: int, room: int):
        out.append(mask)
        if not room:
            return
        while candidates:
            b = candidates & -candidates
            v = b.bit_length() - 1
            candidates ^= b
            if prev[v] & ~mask:
                continue  # a lower member of v's class is left out
            grow(mask | b, candidates, room - 1)  # extend with v; larger vertices follow

    grow(0, (1 << k) - 1, min((row.bit_count() for row in padj), default=0) + 1)
    return out


def all_graphs(n: int, connected: bool = False):
    """All graphs on exactly n vertices, one per isomorphism class in certificate
    order: the level held in memory, else its file streamed, else generated."""
    rows = iter(_mem_cache.get(n) or _disk_rows(n))
    first = next(rows, None)
    for adj in _level_adj(n) if first is None else chain([first], rows):
        g = Graph._raw(n, adj)
        if not connected or is_connected(g):
            yield g


def graphs_up_to(n: int, connected: bool = False, min_n: int = 1):
    """All graphs with min_n <= order <= n, one per isomorphism class."""
    for k in range(min_n, n + 1):
        yield from all_graphs(k, connected=connected)


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


def _cache_path(n: int) -> str | None:
    """The graph6 file of level n; its checksum file swaps ``.g6`` for
    ``.crc32``."""
    base = _cache_dir()
    if base is None:
        return None
    return os.path.join(base, f"catalog-v{_CACHE_VERSION}-all-{n}.g6")


def _checksum_path(path: str) -> str:
    return path[: -len(".g6")] + ".crc32"


def _checksum(crc: int) -> bytes:
    # CRC-32 detects accidental damage to a level; binascii is loaded anyway,
    # while hashlib loads OpenSSL, about 3.5 MB more resident memory per process
    return b"%08x\n" % crc


# maps each byte of the graph6 range (63-126) to b"b" and keeps any other byte
_BYTE_CLASS = bytes(98 if 63 <= b <= 126 else b for b in range(256))


def _disk_rows(n: int):
    """The rows of cached level n, decoded as its file is read; none at all
    when the file is absent or unreadable, has a line that is not the graph6
    line of a graph of order n, a count not the known one, or a checksum
    file missing or not matching.  A first pass checks the whole file, so
    the second cannot fail halfway, and a rewrite in between is not seen."""
    path = _cache_path(n)
    if path is None:
        return
    size = (n * (n - 1) // 2 + 5) // 6 + 2  # order byte, body and newline
    pad = 6 * size - 12 - n * (n - 1) // 2  # the last body byte's zero low bits
    last = bytes(range(63, 127, 1 << pad))  # the values that byte may take
    try:
        fh = open(path, "rb")
    except OSError:
        return
    with fh:
        try:
            crc = count = 0
            while block := fh.read(size << 12):  # 4,096 lines a block
                lines = len(block) // size
                crc, count = binascii.crc32(block, crc), count + lines
                if (
                    block.translate(_BYTE_CLASS) != (b"b" * (size - 1) + b"\n") * lines
                    or block[::size] != bytes([n + 63]) * lines  # the order byte
                    or block[size - 2 :: size].translate(None, last)
                ):
                    return
            with open(_checksum_path(path), "rb") as cf:
                intact = cf.read() == _checksum(crc)
            if not intact or KNOWN_GRAPH_COUNTS[n : n + 1] not in ([], [count]):  # [] if unknown
                return
        except OSError:
            return
        fh.seek(0)
        for line in fh:
            yield decode_graph6_body(n, line[1:-1])


def _disk_store(n: int, level: list[tuple[int, ...]]):
    """Write level n and its checksum file, each replaced atomically."""
    path = _cache_path(n)
    if path is None:
        return
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
