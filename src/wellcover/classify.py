"""Hierarchy predicates: well-covered and its refinements, shedding and
simplicial vertices, regularizability, and the aggregate per-graph report.

The hierarchy classes are nested: level k membership means every k pairwise
disjoint independent sets extend to k pairwise disjoint maximum independent
sets.  Families are allowed to contain empty sets, so membership at level k
forces k pairwise disjoint maximum independent sets to exist on any nonempty
graph; ``is_in_w_generic`` can evaluate the stricter nonempty-family reading
as well.  On a nonempty graph the two readings disagree exactly at the levels
k > n that the graph misses: for k <= n the empty sets of a family are
replaced by singletons of uncovered vertices, or else the family refines into
k nonempty parts partitioning V that could extend only if alpha = 1.

Levels are decided by the vertex-deletion characterization of Staples ("On
some subclasses of well-covered graphs", J. Graph Theory 3, 1979): level 1
is well-coveredness, and for k >= 2 a graph is a level-k member iff, for
every vertex v, alpha(G - v) = alpha(G) and G - v is a level-(k-1) member.
The recursion runs on vertex masks of one adjacency and is memoized on
(mask, k).  ``is_in_w_generic``, which enumerates disjoint families straight
from the definition, is the reference oracle the recursion is tested against.

``GraphContext`` holds the per-graph invariants (alpha, the maximum
independent sets, the level memo, the shedding and simplicial vertices, the
simplexes and their partition, the girth, and the report's other fields),
each computed on first use and then cached; its level memo also answers alpha
and well-coveredness of every vertex submask, and disjoint maximum
independent sets are packed from its cached list of them.  ``class_report``,
``w_level``, ``is_in_w_generic``, the simplex predicates and the theorem and
hunt drivers accept a context in place of a graph, so one graph's invariants
are computed once however many of them read it.
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
    _nbhd,
    _omega_packing,
    _wc_scan,
    differential_of_graph,
    maximum_independent_sets,
    maximum_matching_size,
)

SCHEMA_VERSION = 1

# the hunt targets: the concatenation conjecture, then the problem censuses
# keyed in ``harness._HUNT_PREDICATES``; kept here so that the CLI parser can
# list them without importing the harness
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
    any one vertex."""
    ctx = _context(g)
    if ctx.g.n < 2 or not ctx.in_w(1):
        return False
    return all(ctx.in_w(1, ctx.full ^ (1 << v)) for v in range(ctx.g.n))


def _memo_alpha(adj, mask: int, memo: dict) -> int:
    alpha = memo.get(mask)
    if alpha is None:
        alpha = memo[mask] = _alpha(adj, mask)
    return alpha


def _in_w_mask(adj, mask: int, k: int, memo: dict) -> bool:
    """Level-k membership of the subgraph induced on ``mask``, by the
    deletion characterization.

    ``memo`` maps ``(mask, k)`` to membership and a bare mask to its
    independence number; one memo may serve every level and every submask of
    one adjacency.
    """
    key = (mask, k)
    member = memo.get(key)
    if member is not None:
        return member
    if k == 1:
        member, size = _wc_scan(adj, mask)
        if member:
            memo[mask] = size  # every maximal set is maximum
    else:
        alpha = _memo_alpha(adj, mask, memo)
        member = True
        for v in iter_bits(mask):
            sub = mask ^ (1 << v)
            # a level-(k-1) member has had its alpha memoized on the way
            if not _in_w_mask(adj, sub, k - 1, memo) or memo[sub] != alpha:
                member = False
                break
    memo[key] = member
    return member


def is_in_w(g: Graph, k: int) -> bool:
    """Membership at level k of the hierarchy (empty families admitted).

    Decided by the deletion characterization (Staples 1979): for k >= 2, G is
    a member iff alpha(G - v) = alpha(G) and G - v is a level-(k-1) member for
    every vertex v; level 1 is well-coveredness.  ``is_in_w_generic`` is the
    reference oracle.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _in_w_mask(g.adj, g.full_mask, k, {})


def is_in_w_generic(g: Graph | GraphContext, k: int, nonempty: bool = False) -> bool:
    """Reference level-k membership by enumerating disjoint families.

    This is the definition itself and the oracle for ``is_in_w``, which
    decides the same question by the deletion characterization (Staples
    1979); production calls it only where the definition-level reading is
    the point: the predicate that cross-checks the level-2 characterizations.

    It suffices to test family-maximal tuples (every vertex outside the
    union has a neighbor in each member): shrinking a component preserves
    extendability, and every family grows componentwise to a family-maximal
    one.  So the last member of a tuple must hold each outside vertex that
    an earlier member leaves without a neighbor; when those vertices are not
    independent no last member can, and the last slot is skipped.  The
    pruning drops only tuples that are not family-maximal.  With
    ``nonempty`` the quantification runs over families of nonempty sets,
    the reading under which a too-small graph is vacuously a member.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ctx = _context(g)
    adj, full = ctx.adj, ctx.full
    if ctx.g.n == 0:
        return True
    ind, omega, contains = ctx.ind, ctx.omega, ctx.contains

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
            if nonempty and a == 0:
                continue
            if a & union:
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


def shedding_vertices(g: Graph) -> int:
    mask = 0
    for v in range(g.n):
        if is_shedding(g, v):
            mask |= 1 << v
    return mask


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


def _regularizability(g: Graph) -> tuple[bool, bool]:
    """(quasi-regularizable, regularizable) from one walk over Ind(G).

    Quasi-regularizable: |N(S)| >= |S| for every independent set S (all of
    them; the maximal-set reduction is not valid here).  Regularizable: also
    N(N(S)) = S whenever |N(S)| = |S|.  The walk stops at the first S with
    |N(S)| < |S|; after a tight S with N(N(S)) != S it checks only the quasi
    condition.
    """
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
    ctx = _context(g)
    adj = ctx.adj
    for b_set in ctx.ind:
        rhs = _nbhd(adj, b_set).bit_count() - (k - 1) * b_set.bit_count()
        for v in iter_bits(b_set):
            a_set = b_set ^ (1 << v)
            if _nbhd(adj, a_set).bit_count() - (k - 1) * a_set.bit_count() > rhs:
                return False, (a_set, b_set)
    return True, None


# ---------------------------------------------------------------------------
# the per-graph context
# ---------------------------------------------------------------------------


class GraphContext:
    """The invariants of one graph, each computed on first use and cached.

    A field is the value of this package's routine for that invariant, so
    readers sharing a context share its work and keep their own semantics.
    The omega index tables (``contains``, ``omega_disjoint``,
    ``omega_avoiding``) exist only here.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.adj = g.adj
        self.full = g.full_mask
        # shared by every _in_w_mask call on this graph's vertex masks
        self.w_memo: dict = {}
        self._wk_monotonicity: dict[int, tuple] = {}

    def in_w(self, k: int, mask: int | None = None) -> bool:
        """Level-k membership of the graph, or of its subgraph on ``mask``."""
        return _in_w_mask(self.adj, self.full if mask is None else mask, k, self.w_memo)

    def alpha_of(self, mask: int) -> int:
        """Independence number of the subgraph on ``mask``, kept in the same
        memo where ``in_w`` records it."""
        return _memo_alpha(self.adj, mask, self.w_memo)

    def wk_monotonicity(self, k: int):
        """``check_wk_monotonicity(g, k)``, once per k."""
        if k not in self._wk_monotonicity:
            self._wk_monotonicity[k] = check_wk_monotonicity(self, k)
        return self._wk_monotonicity[k]

    @property
    def alpha(self) -> int:
        return self.alpha_of(self.full)

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
    def ind(self) -> list[int]:
        return _independent_sets(self.adj, self.full)

    @cached_property
    def omega(self) -> list[int]:
        return maximum_independent_sets(self.g)

    def disjoint_mis_max(self, k: int) -> int:
        """The most pairwise disjoint members of omega, counted up to k; k on
        the empty graph, as for ``has_k_disjoint_maximum_independent_sets``."""
        if self.g.n == 0:
            return k
        return len(_omega_packing(self.omega, k))

    @cached_property
    def contains(self) -> dict[int, int]:
        # independent set -> bitmask of omega indices containing it
        out = {}
        for a in self.ind:
            m = 0
            for j, s in enumerate(self.omega):
                if a & ~s == 0:
                    m |= 1 << j
            out[a] = m
        return out

    @cached_property
    def omega_disjoint(self) -> list[int]:
        # disj[i] = bitmask of omega indices disjoint from omega[i]
        out = []
        for s in self.omega:
            m = 0
            for j, t in enumerate(self.omega):
                if s & t == 0:
                    m |= 1 << j
            out.append(m)
        return out

    @cached_property
    def omega_avoiding(self) -> list[int]:
        # avoid[v] = bitmask of omega indices whose set misses vertex v
        out = []
        for v in range(self.g.n):
            m = 0
            for j, s in enumerate(self.omega):
                if not s >> v & 1:
                    m |= 1 << j
            out.append(m)
        return out

    @cached_property
    def shed(self) -> int:
        return shedding_vertices(self.g)

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
        """(quasi-regularizable, regularizable), from one walk over Ind(G)."""
        return _regularizability(self.g)

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
        graph_id=write_graph6(ctx.g),
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
