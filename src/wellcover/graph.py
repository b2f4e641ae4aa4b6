"""Immutable simple graphs with bitset adjacency, graph6 I/O, and structure probes.

Vertices are the integers 0..n-1.  Vertex sets everywhere in this package are
plain Python ints used as bitmasks (bit i set <=> vertex i is a member), so set
algebra is native int arithmetic and cardinality is ``mask.bit_count()``.
Python ints are arbitrary width, which makes one representation serve every
order: operations stay single-word for n <= 64 and keep working (more slowly)
beyond that.
"""

from __future__ import annotations

import math
from operator import getitem

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_N = 258047  # largest order encodable by the short forms we emit

INFINITE = math.inf  # girth of a forest


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


def mask_of(vertices) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted vertex list."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def iter_bits(mask: int):
    """Yield the vertex indices of a bitmask in increasing order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Immutable simple graph; ``adj[v]`` is the open-neighborhood bitmask of v.

    Symmetry, irreflexivity, and vertex range are enforced on construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))

    @classmethod
    def _raw(cls, n: int, adj: tuple) -> "Graph":
        # internal fast path: caller guarantees the invariants
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return Graph._raw, (self.n, self.adj)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


# ---------------------------------------------------------------------------
# graph6 I/O
#
# Short form: byte n+63 for n <= 62, or '~' followed by three bytes carrying n
# in 18 bits (6 bits per byte, big-endian, each +63).  Then the upper triangle
# of the adjacency matrix, column-major -- bit order (0,1),(0,2),(1,2),(0,3),
# ... -- packed 6 bits per byte MSB-first, zero-padded, each byte +63.
# ---------------------------------------------------------------------------


class _ByteTable(dict):
    """The decoding table of body byte c of the order-n graph6 bodies,
    filled on first use: the entry of byte value b is the packed n x n
    adjacency with bits i*n + j and j*n + i set for each edge ij that the
    six bits b - 63 encode.  Entries of different bytes of a body share no
    bit, so the sum of a body's entries is their OR.  Callers check the
    byte range and the padding bits first."""

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: int):
        self.n = n
        self.c = c

    def __missing__(self, b: int) -> int:
        n, c = self.n, self.c
        # the byte's first bit, 6c, is the pair (i, j) with 6c = j(j-1)/2 + i
        j = (1 + math.isqrt(48 * c + 1)) // 2
        i = 6 * c - j * (j - 1) // 2
        bits, packed = b - 63, 0
        for bit in (32, 16, 8, 4, 2, 1):  # MSB first
            if bits & bit:
                packed |= 1 << (i * n + j) | 1 << (j * n + i)
            i += 1
            if i == j:
                i, j = 0, j + 1
        self[b] = packed
        return packed


# order -> (the table of each body byte, the shift of each row in the packed
# adjacency, the row mask), kept for the short-form orders
_TABLES: dict[int, tuple] = {}


def _tables(n: int) -> tuple:
    nbytes = (n * (n - 1) // 2 + 5) // 6
    tables = [_ByteTable(n, c) for c in range(nbytes)], [i * n for i in range(n)], (1 << n) - 1
    if n <= 62:  # a long-form order's tables are built per call
        _TABLES[n] = tables
    return tables


def decode_graph6_body(n: int, body: bytes) -> tuple[int, ...]:
    """The adjacency rows of the order-n graph whose graph6 body (the bytes
    after the order field) is ``body``, which must hold exactly the body's
    bytes, each in range, and no padding bits: one table entry per byte,
    then one shift per row."""
    byte_tables, shifts, mask = _TABLES.get(n) or _tables(n)
    packed = sum(map(getitem, byte_tables, body))
    return tuple([packed >> s & mask for s in shifts])


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line; an optional '>>graph6<<' header is skipped."""
    s = line.strip()
    offset = 0
    if s.startswith(">>"):
        if not s.startswith(GRAPH6_HEADER):
            raise Graph6Error("unrecognized header at byte 0")
        s = s[len(GRAPH6_HEADER):]
        offset = len(GRAPH6_HEADER)
    if not s:
        raise Graph6Error(f"empty graph6 string at byte {offset}")
    if min(s) < "?" or max(s) > "~":
        for i, ch in enumerate(s):
            if not 63 <= ord(ch) <= 126:
                raise Graph6Error(f"byte {offset + i} out of graph6 range: {ch!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error(f"unsupported long-form order at byte {offset}")
        if len(s) < 4:
            raise Graph6Error(f"truncated order field at byte {offset + len(s)}")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body, body_off = s[4:], offset + 4
    else:
        n = ord(s[0]) - 63
        body, body_off = s[1:], offset + 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(body) < nbytes:
        raise Graph6Error(f"truncated bit string at byte {offset + len(s)}")
    if len(body) > nbytes:
        raise Graph6Error(f"trailing data at byte {body_off + nbytes}")
    # the padding is the low bits of the last byte
    if nbytes and (ord(body[-1]) - 63) & ((1 << (6 * nbytes - nbits)) - 1):
        raise Graph6Error(f"nonzero padding bits at byte {body_off + nbytes - 1}")
    return Graph._raw(n, decode_graph6_body(n, body.encode()))


def write_graph6(g: Graph) -> str:
    """Encode a labeled graph as its graph6 string (no relabeling)."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ValueError(f"order {n} exceeds the supported graph6 range")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    bits = 0
    nbits = n * (n - 1) // 2
    adj = g.adj
    for j in range(1, n):
        row = adj[j]
        for i in range(j):
            bits = bits << 1 | (row >> i & 1)
    pad = (-nbits) % 6
    bits <<= pad
    chars = []
    for shift in range(nbits + pad - 6, -1, -6):
        chars.append(chr((bits >> shift & 63) + 63))
    return head + "".join(chars)


# ---------------------------------------------------------------------------
# standard generators
# ---------------------------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    full = (1 << n) - 1
    return Graph._raw(n, tuple(full ^ (1 << v) for v in range(n)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise ValueError("complete bipartite graph needs p, q >= 1")
    left = (1 << p) - 1
    right = ((1 << (p + q)) - 1) ^ left
    adj = tuple(right if v < p else left for v in range(p + q))
    return Graph._raw(p + q, adj)


def empty_graph(n: int) -> Graph:
    return Graph._raw(n, (0,) * n)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._raw(g.n, tuple((full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)))


def _check_mask(g: Graph, mask: int):
    if mask < 0 or mask & ~g.full_mask:
        raise ValueError(f"vertex set {mask:#x} out of range for n={g.n}")


# ---------------------------------------------------------------------------
# structure probes
# ---------------------------------------------------------------------------


def components(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    out = []
    seen = 0
    full = g.full_mask
    adj = g.adj
    while seen != full:
        start = (full & ~seen) & -(full & ~seen)
        comp = start
        frontier = start
        while frontier:
            grow = 0
            m = frontier
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1]
                m ^= b
            frontier = grow & ~comp
            comp |= frontier
        out.append(comp)
        seen |= comp
    return out


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(components(g)) == 1


def is_bipartite(g: Graph):
    """Return a bipartition (left_mask, right_mask) or None.

    The side containing the smallest vertex of each component is put on the
    left, so the result is deterministic.
    """
    left = right = 0
    for comp in components(g):
        start = comp & -comp
        color = {start.bit_length() - 1: 0}
        queue = [start.bit_length() - 1]
        while queue:
            v = queue.pop()
            for u in iter_bits(g.adj[v] & comp):
                if u not in color:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
        for v, c in color.items():
            if c == 0:
                left |= 1 << v
            else:
                right |= 1 << v
    return left, right


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE for a forest."""
    best = INFINITE
    n, adj = g.n, g.adj
    if any(row & adj[v] for row in adj for v in iter_bits(row)):
        return 3  # an edge whose ends share a neighbour
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if 2 * dist[v] >= best - 1:
                break
            for u in iter_bits(adj[v]):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif parent[v] != u:
                    cyc = dist[v] + dist[u] + 1
                    if cyc < best:
                        best = cyc
    return best


def has_four_cycle(g: Graph) -> bool:
    """True when some (not necessarily induced) 4-cycle exists: two vertices
    sharing at least two common neighbors."""
    adj = g.adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (adj[u] & adj[v]).bit_count() >= 2:
                return True
    return False


def is_triangle_free_mask(g: Graph, mask: int) -> bool:
    """No triangle within the induced vertex set ``mask``."""
    adj = g.adj
    m = mask
    while m:
        b = m & -m
        v = b.bit_length() - 1
        m ^= b
        for u in iter_bits(adj[v] & m):
            if adj[u] & adj[v] & mask:
                return False
    return True
