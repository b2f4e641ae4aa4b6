"""Exact independence machinery: maximal independent sets, the independence
number, the graph differential, and matching tests (saturating matchings
into a target set, maximum matching size).

The private helpers work on (adjacency tuple, vertex mask) pairs so subgraph
quantities never pay for relabeling.
"""

from __future__ import annotations

from .graph import Graph, _check_mask, iter_bits

# ---------------------------------------------------------------------------
# core enumeration on (adj, mask)
# ---------------------------------------------------------------------------


def _iter_maximal_independent(adj, mask: int):
    """Yield every maximal independent set of the induced subgraph on ``mask``
    as a bitmask, in no particular order.

    Pivoted branch-and-bound: a maximal independent set is a maximal clique of
    the complement, so we recurse with candidate and excluded sets, branching
    only on the pivot's closed non-non-neighborhood.
    """
    stack = [(0, mask, 0)]
    while stack:
        r, p, x = stack.pop()
        if p == 0 and x == 0:
            yield r
            continue
        # pivot u from p|x minimizing branches: candidates are p minus the
        # complement-neighborhood of u, i.e. p & (adj[u] | {u})
        px = p | x
        best_u, best_cnt = -1, -1
        m = px
        while m:
            b = m & -m
            u = b.bit_length() - 1
            m ^= b
            cnt = (p & ~adj[u] & ~b).bit_count()
            if cnt > best_cnt:
                best_u, best_cnt = u, cnt
        branch = p & (adj[best_u] | (1 << best_u))
        while branch:
            b = branch & -branch
            v = b.bit_length() - 1
            branch ^= b
            nonadj_v = mask & ~adj[v] & ~b
            stack.append((r | b, p & nonadj_v, x & nonadj_v))
            p ^= b
            x |= b


def _wc_scan(adj, mask: int, maximal: list | None = None):
    """(well_covered, common size or None) of the subgraph induced on
    ``mask``.

    First n + 1 greedy maximal independent sets (each vertex, then the
    lowest free vertex; and one taking the highest free vertex first): two of
    different sizes settle it.  Otherwise the maximal independent sets are
    enumerated up to the first of a different size, each appended to
    ``maximal`` when a list is given: on success, all of them.
    """
    size = None
    m = mask
    while m:
        b = m & -m
        m ^= b
        s = b
        free = mask & ~adj[b.bit_length() - 1] & ~b
        while free:
            low = free & -free
            s |= low
            free &= ~adj[low.bit_length() - 1] & ~low
        c = s.bit_count()
        if size is None:
            size = c
        elif c != size:
            return False, None
    c, free = 0, mask
    while free:
        v = free.bit_length() - 1
        c += 1
        free &= ~adj[v] & ~(1 << v)
    if size is not None and c != size:
        return False, None
    for s in _iter_maximal_independent(adj, mask):
        if s.bit_count() != c:
            return False, None
        if maximal is not None:
            maximal.append(s)
    return True, c


def _alpha(adj, mask: int) -> int:
    """Independence number of the induced subgraph on ``mask``.

    Branch and bound: strip isolated vertices, split into components, then
    branch on a maximum-degree vertex (take it and drop its closed
    neighborhood, or discard it).
    """
    if mask == 0:
        return 0
    # strip vertices isolated within the mask
    free = 0
    m = mask
    while m:
        b = m & -m
        m ^= b
        if adj[b.bit_length() - 1] & mask == 0:
            free |= b
    rest = mask & ~free
    total = free.bit_count()
    while rest:
        # peel one component
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            f = frontier
            while f:
                b = f & -f
                grow |= adj[b.bit_length() - 1]
                f ^= b
            frontier = grow & rest & ~comp
            comp |= frontier
        rest &= ~comp
        total += _alpha_component(adj, comp)
    return total


def _alpha_component(adj, mask: int) -> int:
    count = mask.bit_count()
    if count <= 2:
        return 1  # connected on <= 2 vertices
    best_u, best_deg = -1, -1
    m = mask
    while m:
        b = m & -m
        u = b.bit_length() - 1
        m ^= b
        d = (adj[u] & mask).bit_count()
        if d > best_deg:
            best_u, best_deg = u, d
    take = 1 + _alpha(adj, mask & ~adj[best_u] & ~(1 << best_u))
    skip = _alpha(adj, mask ^ (1 << best_u))
    return take if take >= skip else skip


def _independent_sets(adj, mask: int) -> dict[int, int]:
    """Each independent subset S of ``mask``, ascending as bitmasks, mapped
    to its open neighborhood N(S) in the whole adjacency.

    Vertices join in ascending order, each added to every set so far that
    misses its neighborhood; v tops each new set and lies above every vertex
    of the earlier ones, so the keys come out ascending with no sort.
    """
    ind = {0: 0}
    for v in iter_bits(mask):
        b, row = 1 << v, adj[v]
        ind.update([(s | b, ns | row) for s, ns in ind.items() if not s & row])
    return ind


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def maximal_independent_sets(g: Graph) -> list[int]:
    """Inclusion-maximal independent sets, each once, ascending as bitmasks."""
    return sorted(_iter_maximal_independent(g.adj, g.full_mask))


def independence_number(g: Graph) -> int:
    return _alpha(g.adj, g.full_mask)


def maximum_independent_sets(g: Graph) -> list[int]:
    sets = maximal_independent_sets(g)
    alpha = max((s.bit_count() for s in sets), default=0)
    return [s for s in sets if s.bit_count() == alpha]


def differential_of_graph(g: Graph) -> int:
    """Maximum of |N(A) - A| - |A| = |N[A]| - 2|A| over all vertex sets A
    (>= 0, by the empty set), by dynamic programming over the vertices.

    Each step decides the vertex whose closed neighborhood adds the fewest
    vertices to the touched set, keeping the best value per covered set of
    the live vertices (touched, not retired); a vertex retires once its
    closed neighborhood is decided, its covered bit moving into the value.

    A state takes v only when N[v] adds at least 3 vertices to its covered
    set.  Some optimal A passes this test at every step: in a smallest
    optimal A each member a has at least 3 closed neighbors outside
    N[A - a], since dropping an a with 2 or fewer would not lower
    |N[A]| - 2|A|.  N[v] holds no retired vertex, whose closed neighborhood
    is decided, so the count over the live covered set is exact.

    A set of two or more vertices scores at most n - 4, and a single vertex
    of maximum degree D scores D - 1, so D >= n - 3 settles the maximum with
    no DP.
    """
    degree = max(map(int.bit_count, g.adj), default=0)
    if degree >= g.n - 3:
        return max(degree - 1, 0)
    closed = [row | (1 << v) for v, row in enumerate(g.adj)]
    states = {0: 0}
    undecided, touched = g.full_mask, 0
    while undecided:
        v, least = -1, g.n + 1
        for u in iter_bits(undecided):
            grow = (closed[u] & ~touched).bit_count()
            if grow < least:
                v, least = u, grow
        nv = closed[v]
        undecided ^= 1 << v
        touched |= nv
        done = sum(1 << u for u in iter_bits(nv) if not closed[u] & undecided)
        keep = ~done
        nxt: dict[int, int] = {}
        for cov, val in states.items():
            key, value = cov & keep, val + (cov & done).bit_count()
            if nxt.get(key, value - 1) < value:
                nxt[key] = value
            if (nv & ~cov).bit_count() < 3:
                continue  # a dead take-step
            cov |= nv
            key, value = cov & keep, val - 2 + (cov & done).bit_count()
            if nxt.get(key, value - 1) < value:
                nxt[key] = value
        states = nxt
    return states[0]


def _saturating_matching(rows) -> dict[int, int] | None:
    """A matching that saturates the left vertices 0 .. len(rows) - 1, left
    i joined to the right vertices of the bitmask ``rows[i]``, as a map from
    each matched right vertex to its left partner; None when none exists.
    Augmenting paths, each search taking a free right neighbour first."""
    mate: dict[int, int] = {}
    matched = seen = 0

    def augment(a: int) -> bool:
        nonlocal matched, seen
        b = rows[a] & ~matched
        if b:
            b &= -b
            matched |= b
            mate[b.bit_length() - 1] = a
            return True
        m = rows[a] & ~seen
        while m:
            b = m & -m
            seen |= b
            w = b.bit_length() - 1
            if augment(mate[w]):
                mate[w] = a
                return True
            m &= ~seen
        return False

    for a in range(len(rows)):
        seen = 0
        if not augment(a):
            return None
    return mate


def can_match_into(g: Graph, a_mask: int, b_mask: int) -> bool:
    """True iff a matching using only A-B edges saturates A."""
    _check_mask(g, a_mask)
    _check_mask(g, b_mask)
    if a_mask & b_mask:
        raise ValueError("the sets must be disjoint")
    return _saturating_matching([g.adj[a] & b_mask for a in iter_bits(a_mask)]) is not None


def maximum_matching_size(g: Graph) -> int:
    """Size of a maximum matching, general graphs included.

    Augmenting-path search with blossom contraction tracked through base
    vertices (O(V^3)-ish, ample for catalog orders), each search taking a
    free neighbour first: augmenting from any matching reaches a maximum.
    """
    n = g.n
    if n == 0:
        return 0
    adj = [list(iter_bits(row)) for row in g.adj]
    match = [-1] * n
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if used[b]:
                return b
            b = p[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for to in adj[root]:  # a free neighbour first: the greedy start
            if match[to] == -1:
                match[to], match[root] = root, to
                return True
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    # odd cycle: contract the blossom
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif p[to] == -1:
                    p[to] = v
                    if match[to] == -1:
                        # augment along the alternating path to the root
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    queue.append(match[to])
        return False

    size = 0
    for v in range(n):
        if match[v] == -1 and find_path(v):
            size += 1
    return size


def _omega_packing(omega: list[int], k: int) -> tuple[int, ...]:
    """Pairwise disjoint members of ``omega``, as many as exist up to k.

    Backtracks over index-increasing choices and stops at the first packing
    of k sets; otherwise returns the first packing of the greatest size
    reached.
    """
    chosen: list[int] = []
    best: tuple[int, ...] = ()

    def backtrack(start: int, used: int) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        if len(chosen) == k:
            return True
        for i in range(start, len(omega)):
            s = omega[i]
            if s & used:
                continue
            chosen.append(s)
            if backtrack(i + 1, used | s):
                return True
            chosen.pop()
        return False

    backtrack(0, 0)
    return best


def has_k_disjoint_maximum_independent_sets(g: Graph, k: int):
    """(found, witness): k pairwise disjoint maximum independent sets.

    The witness is a tuple of bitmasks when found.  On the empty graph the
    empty set may repeat, matching the convention that the empty graph lies in
    every class of the hierarchy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n == 0:
        return True, (0,) * k
    packing = _omega_packing(maximum_independent_sets(g), k)
    if len(packing) == k:
        return True, packing
    return False, None
