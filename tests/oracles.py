"""Exhaustive reference computations the library's fast routines are tested
against.  Each is the definition itself, scanned by brute force, and shares
no code with the routine it checks.

``is_in_w_generic`` is one that is not brute force: it enumerates the
level-k definition's families with pruning, reading Ind(G) and Omega from a
``GraphContext``, so that sweeps to order 8 stay fast.  It is itself checked
against ``w_member_by_families``, which finds every set by subset tests.
``differential_by_frontier_dp`` and ``two_disjoint_completions_by_packing``
are the library's earlier routines, kept without the cuts that replaced
them, and ``is_shedding`` is its earlier one-vertex shedding test, which
enumerates the maximal independent sets of G - N[v].  ``in_w_by_deletions``
is its earlier level routine, Staples' recursion down to level 1, and
``regularizability_by_walk`` its earlier walk over Ind(G)."""

from itertools import permutations, product

from wellcover import catalog as cat
from wellcover.classify import _context
from wellcover.constructions import corona_uniform
from wellcover.graph import (
    GRAPH6_HEADER,
    Graph,
    Graph6Error,
    girth,
    iter_bits,
    vertices_of,
    write_graph6,
)
from wellcover.independence import (
    _alpha,
    _iter_maximal_independent,
    _omega_packing,
    can_match_into,
)


def _nbhd(adj, mask: int) -> int:
    """The open neighborhood of the vertex set ``mask``: the union of its
    rows."""
    nb = 0
    for v in iter_bits(mask):
        nb |= adj[v]
    return nb


def brute_force_canonical(g: Graph) -> str:
    """The least graph6 string over every relabeling of ``g``."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        adj = [0] * n
        for v in range(n):
            for u in iter_bits(g.adj[v]):
                adj[perm[v]] |= 1 << perm[u]
        s = write_graph6(Graph._raw(n, tuple(adj)))
        if best is None or s < best:
            best = s
    return best if best is not None else write_graph6(g)


def matching_size_brute_force(g: Graph) -> int:
    """Maximum matching size by scanning every subset of the edge set."""
    edges = g.edges()
    if len(edges) > 20:
        raise ValueError("edge-subset scan is capped at 20 edges")
    pair_masks = [(1 << u) | (1 << v) for u, v in edges]
    best = 0
    for sub in range(1 << len(edges)):
        used = 0
        size = 0
        ok = True
        m = sub
        while m:
            b = m & -m
            i = b.bit_length() - 1
            m ^= b
            pm = pair_masks[i]
            if used & pm:
                ok = False
                break
            used |= pm
            size += 1
        if ok and size > best:
            best = size
    return best


def differential_by_subsets(g: Graph) -> int:
    """Maximum of |N(A) - A| - |A| over every vertex subset A, scanning all
    2^n subsets; N(A) is read from tables of the neighborhoods of the
    subsets of the low and the high half of the vertices."""
    n = g.n
    h = n // 2
    nlow = [0] * (1 << h)
    for m in range(1, 1 << h):
        b = m & -m
        nlow[m] = nlow[m ^ b] | g.adj[b.bit_length() - 1]
    nhigh = [0] * (1 << (n - h))
    for m in range(1, 1 << (n - h)):
        b = m & -m
        nhigh[m] = nhigh[m ^ b] | g.adj[h + b.bit_length() - 1]
    low_mask = (1 << h) - 1
    best = 0
    for a in range(1, 1 << n):
        nb = nlow[a & low_mask] | nhigh[a >> h]
        d = (nb & ~a).bit_count() - a.bit_count()
        if d > best:
            best = d
    return best


def differential_by_frontier_dp(g: Graph) -> int:
    """Maximum of |N[A]| - 2|A| over every vertex set A, by the frontier DP
    of ``independence.differential_of_graph`` with every take-step kept:
    each step decides the vertex whose closed neighborhood adds the fewest
    vertices to the touched set, and each state both skips and takes it."""
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
            for new_cov, cost in ((cov, 0), (cov | nv, 2)):
                key, value = new_cov & keep, val - cost + (new_cov & done).bit_count()
                if nxt.get(key, value - 1) < value:
                    nxt[key] = value
        states = nxt
    return states[0]


def roman_domination_number(g: Graph) -> int:
    """Least weight sum(f) over f: V -> {0, 1, 2} in which every vertex with
    f = 0 has a neighbor with f = 2 (Cockayne et al., Discrete Math. 278,
    2004)."""
    best = 2 * g.n
    for f in product((0, 1, 2), repeat=g.n):
        weight = sum(f)
        if weight >= best:
            continue
        twos = 0
        for v, x in enumerate(f):
            if x == 2:
                twos |= 1 << v
        if all(x or g.adj[v] & twos for v, x in enumerate(f)):
            best = weight
    return best


def is_independent(g: Graph, s: int) -> bool:
    """No vertex of ``s`` has a neighbor in ``s``."""
    return all(not g.adj[v] & s for v in iter_bits(s))


def _independent_subsets(g: Graph) -> list[int]:
    """Every independent vertex set, ascending as bitmasks, by testing each
    of the 2^n subsets."""
    return [s for s in range(1 << g.n) if is_independent(g, s)]


def maximum_independent_sets_by_subsets(g: Graph) -> list[int]:
    """Omega: the independent subsets of the largest size, ascending, found
    by testing each of the 2^n subsets.  A nonempty subset is independent
    iff it is once its lowest vertex is dropped and that vertex has no
    neighbor in it."""
    independent = [True]
    for s in range(1, 1 << g.n):
        low = s & -s
        independent.append(independent[s ^ low] and not g.adj[low.bit_length() - 1] & s)
    ind = [s for s, flag in enumerate(independent) if flag]
    alpha = max(s.bit_count() for s in ind)
    return [s for s in ind if s.bit_count() == alpha]


def epsilon_by_supersets(g: Graph, a: int) -> int:
    """eps(A): the largest size of an independent superset of the
    independent set ``a``, found among all the independent subsets."""
    return max(s.bit_count() for s in _independent_subsets(g) if s & a == a)


def _neighborhood(g: Graph, s: int) -> int:
    out = 0
    for v in iter_bits(s):
        out |= g.adj[v]
    return out


def wk_monotonicity_by_subsets(g: Graph, k: int):
    """(holds, (A, B) or None): f(A) <= f(B), f(X) = |N(X)| - (k-1)|X|, for
    every independent B, in ascending order, and every subset A of B, in
    descending order."""
    def f(x):
        return _neighborhood(g, x).bit_count() - (k - 1) * x.bit_count()

    for b in _independent_subsets(g):
        a = b
        while True:
            if f(a) > f(b):
                return False, (a, b)
            if a == 0:
                break
            a = (a - 1) & b
    return True, None


def regularizability_by_subsets(g: Graph) -> tuple[bool, bool]:
    """(quasi-regularizable, regularizable) straight from the definitions:
    |N(S)| >= |S| for every independent S, and also N(N(S)) = S whenever
    |N(S)| = |S|."""
    quasi = regular = True
    for s in _independent_subsets(g):
        nb = _neighborhood(g, s)
        if nb.bit_count() < s.bit_count():
            quasi = False
        elif nb.bit_count() == s.bit_count() and _neighborhood(g, nb) != s:
            regular = False
    return quasi, quasi and regular


def well_covered_without_shedding_by_subsets(g: Graph) -> bool:
    """Whether every maximal independent set of ``g``, found among all its
    independent subsets, has the same size, and no vertex v is shedding:
    for some independent set S of G - N[v], S + u is dependent for every
    neighbor u of v."""
    independent = _independent_subsets(g)
    is_ind = set(independent)
    sizes = {
        s.bit_count()
        for s in independent
        if not any(s | 1 << v in is_ind for v in range(g.n) if not s >> v & 1)
    }
    if len(sizes) > 1:
        return False
    for v in range(g.n):
        rest = g.full_mask & ~(g.adj[v] | 1 << v)
        if all(
            any(not g.adj[u] & s for u in iter_bits(g.adj[v]))
            for s in independent
            if not s & ~rest
        ):
            return False  # v is shedding
    return True


def is_shedding(g: Graph, v: int) -> bool:
    """Every independent set of G - N[v] extends by some neighbor of v.

    Quantification is reduced to maximal independent sets of G - N[v]: a
    neighbor compatible with a maximal set is compatible with its subsets.
    Isolated vertices are never shedding.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range for n={g.n}")
    adj = g.adj
    nv = adj[v]
    if nv == 0:
        return False
    rest = g.full_mask & ~(nv | (1 << v))
    neighbor_rows = [adj[u] for u in iter_bits(nv)]
    for s in _iter_maximal_independent(adj, rest):
        if not any(row & s == 0 for row in neighbor_rows):
            return False
    return True


def _is_corona_of(g: Graph, attach: Graph) -> bool:
    """Whether g is (isomorphic to) some base graph with ``attach`` hung on
    every vertex, by comparing certificates with the corona of every base
    in the catalog level of order n / (|attach| + 1)."""
    t = attach.n + 1
    if g.n == 0 or g.n % t:
        return False
    target = cat.certificate(g.adj)
    for base in cat.all_graphs(g.n // t):
        if cat.certificate(corona_uniform(base, attach).adj) == target:
            return True
    return False


def berge_by_matching(ctx) -> tuple:
    """``thm.berge-maximum`` on a graph's context, as (holds, witness): for
    each S of ``ctx.ind`` in order, whether Kuhn's matching saturates every
    maximal independent set of G - S into S, against whether S is in
    ``ctx.omega``."""
    g = ctx.g
    omega_set = set(ctx.omega)
    for s in ctx.ind:
        matched = all(
            can_match_into(g, a, s)
            for a in _iter_maximal_independent(g.adj, g.full_mask & ~s)
        )
        if matched != (s in omega_set):
            return False, {"independent": vertices_of(s), "maximum": s in omega_set}
    return True, None


def shedding_epsilon_by_alpha(ctx) -> tuple:
    """``thm.shedding-epsilon`` on a graph's context, as (holds, witness):
    for each vertex v in order, whether |A| + alpha(G - v - N[A]) equals
    |A| + alpha(G - N[A]) for every A of ``ctx.ind`` without v, against
    whether v is in ``ctx.shed``."""
    g = ctx.g

    def eps(universe: int, a: int) -> int:
        closed = _neighborhood(g, a) | a
        return a.bit_count() + ctx.alpha_of(universe & ~closed)

    for v in range(g.n):
        sub = g.full_mask ^ (1 << v)
        preserved = all(
            eps(sub, a) == eps(g.full_mask, a) for a in ctx.ind if not a >> v & 1
        )
        shedding = bool(ctx.shed >> v & 1)
        if shedding != preserved:
            return False, {"vertex": v, "shedding": shedding}
    return True, None


def two_disjoint_completions_by_packing(ctx) -> bool:
    """p4 of ``thm.w2-equivalence`` on a graph's context: every independent
    set a smaller than alpha has two maximum supersets that meet only in a,
    found by packing two pairwise disjoint sets among {s - a : s in Omega,
    s >= a}."""
    return all(
        len(_omega_packing([s ^ a for s in ctx.omega if not a & ~s], 2)) == 2
        for a in ctx.ind
        if a.bit_count() < ctx.alpha
    )


def in_w_by_deletions(g: Graph, k: int) -> bool:
    """Level-k membership by Staples' deletion characterization alone
    (J. Graph Theory 3, 1979): level 1 is well-coveredness, and for k >= 2
    G is a member iff alpha(G - v) = alpha(G) and G - v is a level-(k-1)
    member for every vertex v; memoized on (mask, k)."""
    adj, memo = g.adj, {}

    def member(mask: int, k: int) -> tuple[bool, int]:
        # (membership, alpha of the mask when a member)
        if (mask, k) not in memo:
            if k == 1:
                memo[mask, k] = well_covered_by_enumeration(adj, mask)
            else:
                alpha = _alpha(adj, mask)
                memo[mask, k] = (
                    all(member(mask ^ 1 << v, k - 1) == (True, alpha) for v in iter_bits(mask)),
                    alpha,
                )
        return memo[mask, k]

    return member(g.full_mask, k)[0]


def regularizability_by_walk(g: Graph) -> tuple[bool, bool]:
    """(quasi-regularizable, regularizable) from one walk over Ind(G):
    |N(S)| >= |S| for every independent S, and N(N(S)) = S whenever
    |N(S)| = |S|.  The walk stops at the first S with |N(S)| < |S|; after a
    tight S with N(N(S)) != S it checks only the quasi condition."""
    adj = g.adj
    regular = True

    def rec(cur: int, nb: int, avail: int) -> bool:
        nonlocal regular
        cs, ns = cur.bit_count(), nb.bit_count()
        if ns < cs:
            return False
        if regular and ns == cs and _nbhd(adj, nb) != cur:
            regular = False
        m = avail
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            if not rec(cur | b, nb | adj[v], m & ~adj[v]):
                return False
        return True

    quasi = rec(0, 0, g.full_mask)
    return quasi, quasi and regular


def w_member_by_families(g: Graph, k: int, nonempty: bool = False) -> bool:
    """Level-k membership straight from the definition: every family of k
    pairwise disjoint independent sets (of nonempty sets, with
    ``nonempty``) extends to k pairwise disjoint maximum independent sets.

    Every tuple is enumerated, and the family-maximal ones (no vertex
    outside the union can join any member) are tested; the independent and
    the maximum independent sets are found by testing every vertex
    subset."""
    if g.n == 0:
        return True
    ind = _independent_subsets(g)
    alpha = max(s.bit_count() for s in ind)
    omega = [s for s in ind if s.bit_count() == alpha]

    def extends(family: list[int]) -> bool:
        def rec(i: int, used: int) -> bool:
            if i == len(family):
                return True
            return any(
                not t & used and rec(i + 1, used | t)
                for t in omega
                if family[i] & ~t == 0
            )

        return rec(0, 0)

    def family_maximal(family: list[int], union: int) -> bool:
        return all(
            g.adj[v] & a for v in iter_bits(g.full_mask & ~union) for a in family
        )

    def rec_unordered(family: list[int], min_index: int, union: int) -> bool:
        if len(family) == k:
            return not family_maximal(family, union) or extends(family)
        for i in range(min_index, len(ind)):
            a = ind[i]
            if (nonempty and a == 0) or a & union:
                continue
            # the empty set may repeat, so its index may be reused
            if not rec_unordered(family + [a], i if a == 0 else i + 1, union | a):
                return False
        return True

    return rec_unordered([], 0, 0)


def is_in_w_generic(g, k: int, nonempty: bool = False) -> bool:
    """Level-k membership of a graph or its ``GraphContext`` by enumerating
    the definition's disjoint families, with or without ``nonempty`` as for
    ``w_member_by_families``: the oracle for ``classify.is_in_w`` and for
    the definition's predicate in ``thm.w2-equivalence``.

    It suffices to test family-maximal tuples (every vertex outside the
    union has a neighbor in each member): shrinking a component preserves
    extendability, and every family grows componentwise to a family-maximal
    one.  So the last member of a tuple must hold each outside vertex that
    an earlier member leaves without a neighbor; when those vertices are not
    independent no last member can, and the last slot is skipped.  The
    pruning drops only tuples that are not family-maximal.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx = _context(g)
    adj, full = ctx.adj, ctx.full
    if ctx.g.n == 0:
        return True
    ind, omega = list(ctx.ind), ctx.omega
    # independent set -> bitmask of the indices of the members of omega
    # containing it
    contains = {
        a: sum(1 << j for j, s in enumerate(omega) if not a & ~s) for a in ind
    }

    def extends(tup: list[int]) -> bool:
        # pairwise disjoint members of omega, one containing each set of tup,
        # the sets with the fewest candidates first
        idx_masks = sorted((contains[a] for a in tup), key=int.bit_count)

        def rec(i: int, used: int) -> bool:
            if i == len(idx_masks):
                return True
            m = idx_masks[i]
            while m:
                b = m & -m
                j = b.bit_length() - 1
                m ^= b
                if not omega[j] & used:
                    if rec(i + 1, used | omega[j]):
                        return True
            return False

        return rec(0, 0)

    family: list[int] = []

    def last_slot(min_index: int, union: int, dominated: int) -> bool:
        forced = full & ~union & ~dominated
        if forced not in contains:  # not independent
            return True
        for i in range(min_index, len(ind)):
            a = ind[i]
            if a & forced != forced or a & union or (nonempty and a == 0):
                continue
            # forced lies in a, so every other outside vertex is dominated
            # by the earlier members; a must dominate it as well
            if full & ~(union | a) & ~_nbhd(adj, a):
                continue
            if not extends(family + [a]):
                return False
        return True

    # unordered families: enumerate with non-decreasing indices (empty sets
    # may repeat, so the same index may be reused only for the empty set);
    # ``dominated`` holds the vertices with a neighbor in every member so far
    def rec_unordered(min_index: int, union: int, dominated: int) -> bool:
        if len(family) == k - 1:
            return last_slot(min_index, union, dominated)
        for i in range(min_index, len(ind)):
            a = ind[i]
            if (nonempty and a == 0) or a & union:
                continue
            family.append(a)
            ok = rec_unordered(
                i if a == 0 else i + 1, union | a, dominated & _nbhd(adj, a)
            )
            family.pop()
            if not ok:
                return False
        return True

    return rec_unordered(0, 0, full)


def parse_graph6_by_scan(line: str) -> Graph:
    """Decode one graph6 line by reading every character and then every bit
    of the upper triangle in turn; errors as ``graph.parse_graph6`` raises
    them."""
    s = line.strip()
    offset = 0
    if s.startswith(">>"):
        if not s.startswith(GRAPH6_HEADER):
            raise Graph6Error("unrecognized header at byte 0")
        s = s[len(GRAPH6_HEADER):]
        offset = len(GRAPH6_HEADER)
    if not s:
        raise Graph6Error(f"empty graph6 string at byte {offset}")
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

    data = 0
    for ch in body:
        data = data << 6 | (ord(ch) - 63)
    total = 6 * nbytes
    if nbytes and data & ((1 << (total - nbits)) - 1):
        raise Graph6Error(f"nonzero padding bits at byte {body_off + nbytes - 1}")

    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if data >> (total - 1 - k) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return Graph._raw(n, tuple(adj))


def children_unpruned(padj: tuple, min_girth: int) -> list[tuple]:
    """Every child of the parent adjacency ``padj`` whose new vertex has
    minimum degree and whose girth is at least ``min_girth``: each subset of
    the parent's vertices is tried as the new vertex's neighborhood, and the
    child is tested against both conditions."""
    k = len(padj)
    out = []
    for nb in range(1 << k):
        rows = tuple([row | (1 << k if nb >> v & 1 else 0) for v, row in enumerate(padj)] + [nb])
        if nb.bit_count() == min(row.bit_count() for row in rows) and (
            girth(Graph._raw(k + 1, rows)) >= min_girth
        ):
            out.append(rows)
    return out


def refine_by_rounds(n: int, adj: tuple, colors: list[int]) -> list[int]:
    """Equitable refinement in whole rounds: every vertex's signature is its
    color and the sorted colors of its neighbors, and the new colors are the
    ranks of the sorted distinct signatures, until the number of colors
    stops growing."""
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            sigs.append((colors[v], tuple(sorted(colors[u] for u in iter_bits(adj[v])))))
        order = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        if len(order) == ncolors:
            return colors
        ncolors = len(order)


def well_covered_by_enumeration(adj: tuple, mask: int):
    """(well_covered, common size or None) of the subgraph induced on
    ``mask``, from every maximal independent set; (True, 0) when the mask
    is empty."""
    sizes = {s.bit_count() for s in _iter_maximal_independent(adj, mask)}
    if len(sizes) > 1:
        return False, None
    return True, sizes.pop() if sizes else 0
