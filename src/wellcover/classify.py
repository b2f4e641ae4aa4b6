"""Hierarchy predicates: well-covered and its refinements, shedding and
simplicial vertices, regularizability, and the aggregate per-graph report.

The hierarchy classes are nested: level k membership means every k pairwise
disjoint independent sets extend to k pairwise disjoint maximum independent
sets.  Families are allowed to contain empty sets, so membership at level k
forces k pairwise disjoint maximum independent sets to exist on any nonempty
graph.  On a nonempty graph this reading and the stricter nonempty-family
one disagree exactly at the levels k > n that the graph misses: for k <= n
the empty sets of a family are replaced by singletons of uncovered vertices,
or else the family refines into k nonempty parts partitioning V that could
extend only if alpha = 1.

Level 1 is well-coveredness.  Level 2 follows from the paper's results: W_2
is the 1-well-covered graphs without isolated vertices, and in a
well-covered graph G - v is well-covered iff v is shedding or isolated, so a
member is well-covered with no isolated vertex and every vertex shedding.
Levels k >= 3 follow Staples' deletion characterization ("On some subclasses
of well-covered graphs", J. Graph Theory 3, 1979): alpha(G - v) = alpha(G)
and G - v is a level-(k-1) member for every vertex v.  ``_in_w_mask``, the
package's one level-k routine, runs on vertex masks memoized on (mask, k);
the tests check it against Staples' recursion and against enumerations of
disjoint families.

``GraphContext`` holds the per-graph invariants (the graph6 id, the maximal
independent sets, alpha, the independent sets with their open neighborhoods,
the maximum independent sets, the level memo, the shedding and simplicial
vertices, the simplexes and their partition, the girth, and the report's
other fields), each computed on first use and then cached.  One enumeration
of the maximal independent sets gives alpha, the maximum sets and the
shedding vertices; the level memo answers alpha and well-coveredness of
every vertex submask; disjoint maximum independent sets are packed from the
cached list of them; and every scan over Ind(G), from W_k monotonicity to
the theorem checks, reads N(S) from its table of independent sets.  ``class_report``,
``w_level``, the simplex predicates and the theorem and hunt drivers accept
a context in place of a graph, so one graph's invariants are computed once
however many of them read it.
"""

from __future__ import annotations

from functools import cached_property

from .graph import (
    Graph,
    girth,
    is_connected,
    is_triangle_free_mask,
    iter_bits,
    vertices_of,
    write_graph6,
)
from .independence import (
    _alpha,
    _independent_sets,
    _iter_maximal_independent,
    _omega_packing,
    _saturating_matching,
    _wc_scan,
    differential_of_graph,
    maximum_matching_size,
)

SCHEMA_VERSION = 1

# the hunt targets: the concatenation conjecture, then the problem censuses
# keyed in ``hunting._HUNT_PREDICATES``; kept here so that the CLI parser can
# list them without importing the hunt module
HUNT_TARGET_IDS = (
    "conjecture.wk-concat",
    "problem.no-shedding",
    "problem.two-disjoint-mis-girth5",
    "problem.w2-alpha2",
    "problem.alpha-plus-mu",
)


# ---------------------------------------------------------------------------
# well-covered family
# ---------------------------------------------------------------------------


def is_well_covered(g: Graph) -> bool:
    """All maximal independent sets share one cardinality (true for n = 0)."""
    return _wc_scan(g.adj, g.full_mask)[0]


def is_very_well_covered(g: Graph | GraphContext) -> bool:
    """Well-covered, no isolated vertices, and exactly 2*alpha vertices."""
    ctx = _context(g)
    if any(row == 0 for row in ctx.adj):
        return False
    return ctx.in_w(1) and ctx.g.n == 2 * ctx.alpha


def is_one_well_covered(g: Graph | GraphContext) -> bool:
    """Well-covered with >= 2 vertices, staying well-covered after deleting
    any one vertex: so every vertex that is not isolated is shedding."""
    ctx = _context(g)
    if ctx.g.n < 2 or not ctx.in_w(1):
        return False
    return all(ctx.shed >> v & 1 or not row for v, row in enumerate(ctx.adj))


def _memo_alpha(adj, mask: int, memo: dict) -> int:
    alpha = memo.get(mask)
    if alpha is None:
        alpha = memo[mask] = _alpha(adj, mask)
    return alpha


def _in_w_mask(adj, mask: int, k: int, memo: dict, maximal: list | None = None) -> bool:
    """Level-k membership of the subgraph induced on ``mask``: the level-1
    scan, the shedding rule at k = 2, Staples' deletion recursion above.

    ``memo`` maps ``(mask, k)`` to membership and a bare mask to its
    independence number; one memo may serve every level and every submask of
    one adjacency.  A mask found to be a member at any level has its alpha in
    the memo.  At k >= 3, alpha(mask) itself is computed only once some
    G - v has passed at level k - 1, so a mask whose first deletion fails
    costs no alpha.
    """
    key = (mask, k)
    member = memo.get(key)
    if member is not None:
        return member
    if k == 1:
        member, size = _wc_scan(adj, mask, maximal)
        if member:
            memo[mask] = size  # every maximal set is maximum
    elif k == 2:
        sets: list = []  # left empty when level 1 was memoized before
        member = (
            all(adj[v] & mask for v in iter_bits(mask))
            and _in_w_mask(adj, mask, 1, memo, sets)
            and not _unshed(adj, sets or list(_iter_maximal_independent(adj, mask)), mask)
        )
    else:
        # alpha(mask) is computed once the first G - v has passed at level
        # k - 1, which memoized alpha(G - v)
        member = all(
            _in_w_mask(adj, mask ^ 1 << v, k - 1, memo)
            and memo[mask ^ 1 << v] == _memo_alpha(adj, mask, memo)
            for v in iter_bits(mask)
        )
        if not mask:
            memo[mask] = 0  # no deletion ran, so nothing memoized alpha
    memo[key] = member
    return member


def is_in_w(g: Graph, k: int) -> bool:
    """Membership at level k of the hierarchy (empty families admitted),
    decided as the module docstring describes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _in_w_mask(g.adj, g.full_mask, k, {})


def w_level(g: Graph | GraphContext, k_max: int) -> int:
    """Largest k <= k_max with level-k membership (0 when not well-covered)."""
    ctx = _context(g)
    level = 0
    for k in range(1, k_max + 1):
        if not ctx.in_w(k):
            break
        level = k
    return level


def w_convention_disagreements(g: Graph | GraphContext, k_max: int) -> list[int]:
    """Levels k <= k_max where the empty-family and nonempty-family readings
    of membership disagree: exactly the levels k > n that the graph misses
    (the module docstring gives the proof)."""
    ctx = _context(g)
    return [k for k in range(ctx.g.n + 1, k_max + 1) if not ctx.in_w(k)]


# ---------------------------------------------------------------------------
# shedding and simplicial vertices
# ---------------------------------------------------------------------------


def shedding_vertices(g: Graph | GraphContext) -> int:
    """The shedding vertices as a mask, read from the graph's maximal
    independent sets (``GraphContext.shed``)."""
    return _context(g).shed


def _unshed(adj, maximal, mask: int) -> int:
    """The vertices v of some M in ``maximal`` with M - v dominating N(v)
    within ``mask``: the vertices that are not shedding, when ``maximal``
    lists every maximal independent set of the subgraph on ``mask``.

    An independent S of G - N[v] that no neighbor of v extends dominates
    N(v), and S + v grows to such an M; conversely M - v is such an S.  An
    isolated vertex lies in every M and has nothing to dominate.  Within one
    M, v qualifies iff no neighbor of v has v as its only neighbor in M.
    """
    marked = 0
    for m in maximal:
        fresh = m & ~marked
        if not fresh:
            continue
        once = twice = 0
        for v in iter_bits(m):
            row = adj[v]
            twice |= once & row
            once |= row
        once &= mask & ~twice
        for v in iter_bits(fresh):
            if not adj[v] & once:
                marked |= 1 << v
    return marked


def _shed_by_domination(adj) -> int:
    """The vertices u != v with N[v] inside N[u], the meet of N[w] over w in
    N[v] less v, for the first v that has one, as a mask; 0 when none does.
    Each such u is shedding (Woodroofe, Proc. AMS 137, 2009): an independent
    S of G - N[u] misses N[v], so S + v is independent."""
    for row in adj:
        meet = m = row
        while m and meet:
            b = m & -m
            m ^= b
            meet &= adj[b.bit_length() - 1] | b
        if meet:
            return meet
    return 0


def simplicial_vertices(g: Graph) -> int:
    """Vertices whose closed neighborhood induces a complete graph."""
    adj = g.adj
    mask = 0
    for v in range(g.n):
        closed = adj[v] | (1 << v)
        if all(closed & ~(adj[u] | (1 << u)) == 0 for u in iter_bits(adj[v])):
            mask |= 1 << v
    return mask


def is_simplicial_graph(g: Graph | GraphContext) -> bool:
    """Every vertex belongs to at least one simplex."""
    ctx = _context(g)
    cover = 0
    for s in ctx.simplexes:
        cover |= s
    return cover == ctx.full


def simplex_partition(g: Graph | GraphContext):
    """The family of simplexes when they partition the vertex set, else None."""
    ctx = _context(g)
    parts = ctx.simplexes
    union = 0
    for s in parts:
        if union & s:
            return None
        union |= s
    if union != ctx.full:
        return None
    return parts


# ---------------------------------------------------------------------------
# regularizability and local structure
# ---------------------------------------------------------------------------


def is_quasi_regularizable(g: Graph | GraphContext) -> bool:
    """|S| <= |N(S)| for every independent set S."""
    return _context(g).regularizability[0]


def is_regularizable(g: Graph | GraphContext) -> bool:
    """|N(S)| >= |S| for each independent S, with N(N(S)) = S forced whenever
    |N(S)| = |S|."""
    return _context(g).regularizability[1]


def is_locally_triangle_free(g: Graph) -> bool:
    """G - N[v] is triangle-free for every vertex v."""
    full = g.full_mask
    return all(
        is_triangle_free_mask(g, full & ~(g.adj[v] | (1 << v))) for v in range(g.n)
    )


def check_wk_monotonicity(g: Graph | GraphContext, k: int):
    """Whether f(A) <= f(B), f(X) = |N(X)| - (k-1)|X|, for every independent
    B and every A <= B.  Returns (holds, witness pair (A, B) or None).

    Only the covering pairs (B - v, B) are compared: the subsets of an
    independent set are independent, so single-vertex deletions link any
    A <= B through independent sets, and a failing pair A < B forces a
    failing covering pair at some B' <= B.  Scanning B in ascending order
    therefore finds the same first failing B as a scan of every subset.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ind = _context(g).ind
    for b_set, nb in ind.items():
        rhs = nb.bit_count() - (k - 1) * b_set.bit_count()
        for v in iter_bits(b_set):
            a_set = b_set ^ (1 << v)
            if ind[a_set].bit_count() - (k - 1) * a_set.bit_count() > rhs:
                return False, (a_set, b_set)
    return True, None


# ---------------------------------------------------------------------------
# the per-graph context
# ---------------------------------------------------------------------------


class GraphContext:
    """The invariants of one graph, each computed on first use and cached.

    A field is the value of this package's routine for that invariant, so
    readers sharing a context share its work and keep their own semantics.
    The maximal independent sets are enumerated once (``maximal``, kept from
    the level-1 scan of a well-covered graph): alpha is the largest size
    among them, seeded into the level memo, Omega is the sets of that size,
    and ``shed`` is read from them by ``_unshed``.  Omega
    is held once: every question about k pairwise disjoint maximum
    independent sets is one ``_omega_packing`` call over it or a subset.
    ``ind`` maps each independent set S, ascending, to N(S), so no reader
    computes a neighborhood of an independent set; ``class_report`` never
    builds it.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.adj = g.adj
        self.full = g.full_mask
        # shared by every _in_w_mask call on this graph's vertex masks
        self.w_memo: dict = {}

    def in_w(self, k: int, mask: int | None = None) -> bool:
        """Level-k membership of the graph, or of its subgraph on ``mask``.
        A first level-1 test of the graph that succeeds keeps the maximal
        sets its scan enumerated, which are all of them, as ``maximal``, and
        level 2 of the graph reads ``shed`` from them."""
        if mask is None:
            mask = self.full
            if k == 1 and (mask, 1) not in self.w_memo:
                sets: list = []
                if _in_w_mask(self.adj, mask, 1, self.w_memo, sets):
                    self.maximal = sets
            elif k == 2 and (mask, 2) not in self.w_memo:
                self.w_memo[mask, 2] = self.in_w(1) and all(self.adj) and self.shed == mask
        return _in_w_mask(self.adj, mask, k, self.w_memo)

    def alpha_of(self, mask: int) -> int:
        """Independence number of the subgraph on ``mask``, kept in the same
        memo where ``in_w`` records it."""
        return _memo_alpha(self.adj, mask, self.w_memo)

    @property
    def alpha(self) -> int:
        # the largest maximal set, unless the memo already holds alpha(G)
        alpha = self.w_memo.get(self.full)
        if alpha is None:
            alpha = self.w_memo[self.full] = max(map(int.bit_count, self.maximal))
        return alpha

    @property
    def well_covered(self) -> bool:
        return self.in_w(1)

    @cached_property
    def w_levels(self) -> tuple[bool, ...]:
        # membership at k = 1..4, each level decided on its own rather than
        # stopping at the first failure, so thm.wk-chain can see a broken nesting
        return tuple(self.in_w(k) for k in range(1, 5))

    @cached_property
    def w2(self) -> bool:
        return self.w_levels[1]

    @cached_property
    def ind(self) -> dict[int, int]:
        # each independent set S, ascending, mapped to N(S)
        return _independent_sets(self.adj, self.full)

    @cached_property
    def graph6(self) -> str:
        return write_graph6(self.g)

    @cached_property
    def maximal(self) -> list[int]:
        # G's maximal independent sets, in enumeration order: alpha, omega
        # and shed all read this one list
        return list(_iter_maximal_independent(self.adj, self.full))

    @cached_property
    def omega(self) -> list[int]:
        alpha = self.alpha
        return sorted(s for s in self.maximal if s.bit_count() == alpha)

    def disjoint_mis_max(self, k: int) -> int:
        """The most pairwise disjoint members of omega, counted up to k; k on
        the empty graph, as for ``has_k_disjoint_maximum_independent_sets``."""
        if self.g.n == 0:
            return k
        return len(_omega_packing(self.omega, k))

    @cached_property
    def shed(self) -> int:
        return self.full & ~_unshed(self.adj, self.maximal, self.full)

    @cached_property
    def simp(self) -> int:
        return simplicial_vertices(self.g)

    @cached_property
    def simplexes(self) -> list[int]:
        # the distinct closed neighborhoods of the simplicial vertices, sorted
        return sorted({self.adj[v] | (1 << v) for v in iter_bits(self.simp)})

    @cached_property
    def simplex_partition(self):
        return simplex_partition(self)

    def clique_corona(self, m: int) -> bool:
        """Whether the graph is a corona H o K_m of some nonempty H (m >= 1).

        Its blocks are the cliques Q of m + 1 vertices holding at least m
        vertices u with N[u] = Q: such a Q is a simplex, and in a corona a
        vertex whose closed neighborhood has m + 1 vertices has its block as
        that neighborhood.  So G is a corona iff these simplexes partition V;
        H is then induced on the one vertex of each block that may have
        neighbors outside it.
        """
        if m < 1:
            raise ValueError("m must be >= 1")
        union = 0
        for s in self.simplexes:
            if s.bit_count() != m + 1:
                continue
            if sum(self.adj[u] | 1 << u == s for u in iter_bits(s)) >= m:
                if union & s:
                    return False
                union |= s
        return self.g.n > 0 and union == self.full

    @cached_property
    def mu(self) -> int:
        return maximum_matching_size(self.g)

    @cached_property
    def differential(self) -> int:
        return differential_of_graph(self.g)

    @cached_property
    def very_well_covered(self) -> bool:
        return is_very_well_covered(self)

    @cached_property
    def one_well_covered(self) -> bool:
        return is_one_well_covered(self)

    @cached_property
    def regularizability(self) -> tuple[bool, bool]:
        """(quasi-regularizable, regularizable) from a perfect matching of the
        bipartite double cover (two copies of V, x joined to each y in N(x)):
        one exists iff |N(S)| >= |S| for each independent S (Tutte), and G is
        regularizable iff every edge of the cover lies in one (Berge, Discrete
        Math. 23, 1978, and Birkhoff).  An edge (x, w) out of the matching
        does iff w reaches x's partner u, where u -> w for w != u in N(mate(u)).
        """
        adj, n = self.adj, self.g.n
        mate = _saturating_matching(adj)
        if mate is None:
            return False, False
        arcs = [adj[mate[u]] & ~(1 << u) for u in range(n)]
        reach = arcs
        for k in range(n):  # Warshall's closure, one row a bitmask
            bit, row = 1 << k, reach[k]
            reach = [r | row if r & bit else r for r in reach]
        return True, all(reach[w] >> u & 1 for u in range(n) for w in iter_bits(arcs[u]))

    @cached_property
    def locally_triangle_free(self) -> bool:
        return is_locally_triangle_free(self.g)

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.g)

    @cached_property
    def girth(self):
        return girth(self.g)

    def is_k2(self) -> bool:
        return self.g.n == 2 and self.adj[0] == 2

    def is_p3(self) -> bool:
        return self.g.n == 3 and self.g.edge_count() == 2

    def is_cycle_of(self, length: int) -> bool:
        return (
            self.g.n == length
            and all(row.bit_count() == 2 for row in self.adj)
            and self.connected
        )


def _context(g: Graph | GraphContext) -> GraphContext:
    return g if isinstance(g, GraphContext) else GraphContext(g)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------


# a plain class, not a dataclass, so that ``analyze`` does not import dataclasses
class ClassReport:
    """Full hierarchy verdict for one graph."""

    def __init__(
        self,
        *,
        graph_id: str,
        n: int,
        alpha: int,
        mu: int,
        delta_graph: int,
        well_covered: bool,
        very_well_covered: bool,
        one_well_covered: bool,
        quasi_regularizable: bool,
        regularizable: bool,
        locally_triangle_free: bool,
        w_level: int,
        k_max: int,
        shed: int,
        simp: int,
        disjoint_mis_max: int,
        w_convention_diffs: tuple[int, ...] = (),
    ):
        if one_well_covered and not well_covered:
            raise ValueError("one_well_covered implies well_covered")
        # the empty graph sits in every level by convention yet is not
        # 1-well-covered (that notion needs >= 2 vertices), so it is exempt
        if n > 0 and w_level >= 2 and not one_well_covered:
            raise ValueError("level >= 2 implies one_well_covered")
        self.graph_id = graph_id
        self.n = n
        self.alpha = alpha
        self.mu = mu
        self.delta_graph = delta_graph
        self.well_covered = well_covered
        self.very_well_covered = very_well_covered
        self.one_well_covered = one_well_covered
        self.quasi_regularizable = quasi_regularizable
        self.regularizable = regularizable
        self.locally_triangle_free = locally_triangle_free
        self.w_level = w_level
        self.k_max = k_max
        self.shed = shed
        self.simp = simp
        self.disjoint_mis_max = disjoint_mis_max
        self.w_convention_diffs = w_convention_diffs

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "graph": self.graph_id,
            "n": self.n,
            "alpha": self.alpha,
            "mu": self.mu,
            "differential": self.delta_graph,
            "well_covered": self.well_covered,
            "very_well_covered": self.very_well_covered,
            "one_well_covered": self.one_well_covered,
            "quasi_regularizable": self.quasi_regularizable,
            "regularizable": self.regularizable,
            "locally_triangle_free": self.locally_triangle_free,
            "w_level": self.w_level,
            "k_max": self.k_max,
            "shed": vertices_of(self.shed),
            "simp": vertices_of(self.simp),
            "disjoint_mis_max": self.disjoint_mis_max,
            "w_convention_diffs": list(self.w_convention_diffs),
        }


def class_report(g: Graph | GraphContext, k_max: int = 3) -> ClassReport:
    """Populate every hierarchy field for one graph, read from its context."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ctx = _context(g)
    wl = w_level(ctx, k_max)
    return ClassReport(
        graph_id=ctx.graph6,
        n=ctx.g.n,
        alpha=ctx.alpha,
        mu=ctx.mu,
        delta_graph=ctx.differential,
        well_covered=wl >= 1,
        very_well_covered=ctx.very_well_covered,
        one_well_covered=ctx.one_well_covered,
        quasi_regularizable=ctx.regularizability[0],
        regularizable=ctx.regularizability[1],
        locally_triangle_free=ctx.locally_triangle_free,
        w_level=wl,
        k_max=k_max,
        shed=ctx.shed,
        simp=ctx.simp,
        disjoint_mis_max=ctx.disjoint_mis_max(k_max),
        w_convention_diffs=tuple(w_convention_disagreements(ctx, k_max)),
    )
