"""Graph operators that generate hierarchy members: corona with a
vertex-indexed family, uniform corona, join (Zykov sum), and concatenation.

Labeling conventions are part of the contract so that emitted graph6 strings
are reproducible: base vertices come first, then attachment or copy blocks in
base-vertex order.
"""

from __future__ import annotations

from .graph import Graph, iter_bits


# a plain class, not a dataclass, so that ``construct`` and the corona grids
# do not import dataclasses (and with it inspect)
class CoronaFamily:
    """A base graph with one attachment graph per base vertex."""

    def __init__(self, base: Graph, attachments):
        self.base = base
        self.attachments = tuple(attachments)
        if len(self.attachments) != base.n:
            raise ValueError(
                f"need {base.n} attachment graphs, got {len(self.attachments)}"
            )
        if any(h.n < 1 for h in self.attachments):
            raise ValueError("every attachment graph needs at least one vertex")


def corona(fam: CoronaFamily) -> Graph:
    """Disjoint union of the base and all attachments, plus edges joining each
    base vertex to every vertex of its own attachment.

    Labels: base vertices 0..n-1, then attachment blocks in base-vertex order.
    """
    base = fam.base
    n = base.n
    total = n + sum(h.n for h in fam.attachments)
    adj = [0] * total
    for v in range(n):
        adj[v] = base.adj[v]
    offset = n
    for v, h in enumerate(fam.attachments):
        block = ((1 << h.n) - 1) << offset
        adj[v] |= block
        for u in range(h.n):
            adj[offset + u] = (h.adj[u] << offset) | (1 << v)
        offset += h.n
    return Graph._raw(total, tuple(adj))


def corona_uniform(g: Graph, h: Graph) -> Graph:
    """Corona with the same attachment graph at every base vertex."""
    return corona(CoronaFamily(g, (h,) * g.n))


def corona_blocks(fam: CoronaFamily) -> list[list[int]]:
    """Label map: for each base vertex, the labels of its attachment block."""
    out = []
    offset = fam.base.n
    for h in fam.attachments:
        out.append(list(range(offset, offset + h.n)))
        offset += h.n
    return out


def join(gs) -> Graph:
    """Blockwise disjoint union plus all cross edges (Zykov sum)."""
    gs = list(gs)
    if not gs:
        raise ValueError("join needs at least one operand")
    total = sum(g.n for g in gs)
    full = (1 << total) - 1
    adj = []
    offset = 0
    for g in gs:
        block = ((1 << g.n) - 1) << offset
        for v in range(g.n):
            adj.append((g.adj[v] << offset) | (full & ~block))
        offset += g.n
    return Graph._raw(total, tuple(adj))


def concatenate(g: Graph, h: Graph, v: int) -> Graph:
    """Fuse vertex ``v`` of a private copy of ``h`` onto each vertex of ``g``.

    Labels: base (fused) vertices 0..n-1, then the non-v vertices of each copy
    in base-vertex order.  With a one-vertex ``h`` the result is ``g`` itself.
    """
    if not 0 <= v < h.n:
        raise ValueError(f"vertex {v} out of range for attachment order {h.n}")
    n = g.n
    rest = [u for u in range(h.n) if u != v]
    m = len(rest)
    total = n + n * m
    adj = [0] * total
    for b in range(n):
        adj[b] = g.adj[b]
    for b in range(n):
        offset = n + b * m
        # position of each h-vertex inside this copy
        pos = {v: b}
        for i, u in enumerate(rest):
            pos[u] = offset + i
        for u in range(h.n):
            pu = pos[u]
            for w in iter_bits(h.adj[u]):
                adj[pu] |= 1 << pos[w]
    return Graph._raw(total, tuple(adj))


def concatenation_blocks(g: Graph, h: Graph, v: int) -> list[list[int]]:
    """Label map: for each base vertex, the labels of its copy (fused vertex
    first, then the non-v vertices in order)."""
    rest = len([u for u in range(h.n) if u != v])
    out = []
    for b in range(g.n):
        offset = g.n + b * rest
        out.append([b] + list(range(offset, offset + rest)))
    return out
