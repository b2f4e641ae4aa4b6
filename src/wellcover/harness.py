"""Registry of executable theorem checks; ``hunt`` and ``HuntTarget`` are
re-exported from ``hunting``, and the catalog survey that runs the registry
over a stream is in ``survey``.

Each per-graph theorem is one check registered by its
``@_theorem(id, *hypotheses)`` decorator, its docstring the statement.  Its
hypotheses are names from ``HYPOTHESES``, tested in the order listed; they
keep a vacuously true verdict distinguishable from a confirmed one.  Each
construction-grid theorem is one row of ``GRID_THEOREMS``.  A verdict of
(applicable and not holds) for a registered theorem signals an implementation
bug, never new mathematics; the conjecture is a hunt target only and is never
assumed.

A verdict has one layout, the dict ``_verdict`` builds, and one JSON encoder,
``verdict_json``, which writes the bytes ``json.dumps`` would from a template
per theorem; survey records, grid verdicts and the survey summary's failures
all go through it.
"""

from __future__ import annotations

import time
from functools import cache, partial, reduce
from itertools import product
from json import dumps
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .classify import (
    SCHEMA_VERSION,
    GraphContext,
    _context,
    check_wk_monotonicity,
    is_simplicial_graph,
)
from .graph import (
    Graph,
    complement,
    complete,
    components,
    empty_graph,
    has_four_cycle,
    is_bipartite,
    is_triangle_free_mask,
    iter_bits,
    path,
    vertices_of,
    write_graph6,
)
from .hunting import HuntTarget, hunt  # noqa: F401  (re-exported)
from .hunting import _concatenation_sweep
from .independence import _iter_maximal_independent, _omega_packing, can_match_into


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


class TheoremVerdict(dict):
    """One theorem's verdict on one graph or grid point: its JSON dict, as
    ``_verdict`` lays it out, with read-only attributes for its fields."""

    __slots__ = ()
    theorem_id = property(itemgetter("theorem"))
    graph_id = property(itemgetter("graph"))
    applicable = property(itemgetter("applicable"))
    holds = property(itemgetter("holds"))
    witness = property(itemgetter("witness"))
    elapsed = property(itemgetter("elapsed"))

    def to_json_dict(self) -> dict:
        return self

    def to_json(self) -> str:
        """``json.dumps(self)``, written from a template."""
        return verdict_json(self)


def _verdict(theorem_id, graph_id, applicable, holds, witness, elapsed: float) -> dict:
    # the one layout of a verdict; an inapplicable verdict holds, and only a
    # failure has a witness
    return {
        "schema_version": SCHEMA_VERSION,
        "theorem": theorem_id,
        "graph": graph_id,
        "applicable": applicable,
        "holds": holds,
        "witness": witness,
        "elapsed": elapsed,
    }


# at most three templates per theorem id
@cache
def _verdict_template(theorem_id: str, applicable: bool, holds: bool) -> str:
    # a verdict's JSON text with %s for its graph id, witness and elapsed
    return (
        '{"schema_version": %d, "theorem": %s, "graph": %%s, "applicable": %s,'
        ' "holds": %s, "witness": %%s, "elapsed": %%s}'
        % (SCHEMA_VERSION, dumps(theorem_id).replace("%", "%%"), dumps(applicable),
           dumps(holds))
    )


def verdict_json(verdict: dict) -> str:
    """The one encoder of verdicts: the bytes ``json.dumps`` writes for a
    verdict's dict (``_verdict``), from the template of its theorem,
    applicability and outcome.  The graph id and the witness go through
    json's own encoder, and elapsed, always a float, through
    ``float.__repr__`` as json does."""
    return _verdict_text(verdict, encode_basestring_ascii(verdict["graph"]))


def _verdict_text(verdict: dict, graph_text: str) -> str:
    # verdict_json with the graph id already encoded as ``graph_text``
    witness = verdict["witness"]
    return _verdict_template(verdict["theorem"], verdict["applicable"], verdict["holds"]) % (
        graph_text,
        "null" if witness is None else dumps(witness),
        float.__repr__(verdict["elapsed"]),
    )


def _wit(**kv):
    out = {}
    for key, value in kv.items():
        if key.endswith("_set") or key.endswith("_mask"):
            out[key.rsplit("_", 1)[0]] = vertices_of(value)
        else:
            out[key] = value
    return out


def _agree(**named):
    """(True, None) when the named values are all equal, else False with
    all of them as the witness."""
    if len(set(named.values())) == 1:
        return True, None
    return False, _wit(**named)


# ---------------------------------------------------------------------------
# the seven equivalent level-2 membership predicates
# ---------------------------------------------------------------------------


def w2_equivalence_predicates(ctx: GraphContext) -> dict[str, bool]:
    """The seven equivalent characterizations, each evaluated independently."""
    g, full = ctx.g, ctx.full
    alpha, omega, ind = ctx.alpha, ctx.omega, ctx.ind
    non_max = [a for a in ind if a.bit_count() < alpha]
    supersets: dict[int, list[int]] = {}

    def sups(a: int) -> list[int]:
        # the maximum independent sets containing a, listed on first use
        if a not in supersets:
            supersets[a] = [s for s in omega if not a & ~s]
        return supersets[a]

    items = list(ind.items())

    def pairs_extend(i: int, a: int, na: int) -> bool:
        # the family-maximal pairs (a, b), b after a in ind, have disjoint
        # maximum supersets: b holds forced, the outside vertices with no
        # neighbour in a, and each vertex outside a | b has a neighbour in b
        forced = full & ~(a | na)
        if forced not in ind:  # no independent b holds forced
            return True
        return all(
            any(not s & t for s in sups(a) for t in sups(b))
            for b, nb in items[i + 1:]
            if not (forced & ~b or a & b or full & ~(a | b | nb))
        )

    p1 = not ctx.is_p3() and all(ctx.in_w(1, full ^ (1 << v)) for v in range(g.n))
    p2 = ctx.one_well_covered
    # the definition, on the family-maximal pairs alone: shrinking a member
    # keeps a pair extendable, and every pair grows to one of them; (∅, ∅) is
    # one only on the empty graph, where it extends
    p3 = all(pairs_extend(i, a, na) for i, (a, na) in enumerate(items))
    # two maximum supersets of a that meet only in a: a is the meet of two
    # members of omega, which differ since a is not maximum
    meets = {s & t for i, s in enumerate(omega) for t in omega[i + 1:]}
    p4 = meets.issuperset(non_max)
    p5 = all(len(sups(a)) >= 2 for a in non_max)
    # some maximum superset of a avoids each b disjoint from a: a superset s
    # with b & s == 0 (map, not any() over a generator per pair: half the cost)
    p6 = all(0 in map(b.__and__, sups(a)) for a in non_max for b in non_max if not a & b)
    # the maximum supersets of a meet in a alone; the meet of none is V
    p7 = all(reduce(int.__and__, sups(a), full) == a for a in non_max)

    return {
        "deletions_stay_well_covered": p1,
        "one_well_covered": p2,
        "w2_membership": p3,
        "two_disjoint_completions": p4,
        "two_distinct_completions": p5,
        "extension_avoiding_disjoint_set": p6,
        "extension_avoiding_vertex": p7,
    }


def _w2_predicates(ctx: GraphContext) -> dict[str, bool]:
    # the seven predicates, evaluated once per context and held on it
    if ctx.w2_predicates is None:
        ctx.w2_predicates = w2_equivalence_predicates(ctx)
    return ctx.w2_predicates


# ---------------------------------------------------------------------------
# hypotheses
# ---------------------------------------------------------------------------


# name -> test on a graph's context; a theorem lists the names of its
# hypotheses, which are tested in that order up to the first that fails
HYPOTHESES = {
    "nonempty": lambda ctx: ctx.g.n >= 1,
    "no_isolated": lambda ctx: all(ctx.adj),
    "well_covered": lambda ctx: ctx.well_covered,
    "w2": lambda ctx: ctx.in_w(2),
    "connected": lambda ctx: ctx.connected,
    "not_k1": lambda ctx: ctx.g.n != 1,
    "not_k2": lambda ctx: not ctx.is_k2(),
    "not_c7": lambda ctx: not ctx.is_cycle_of(7),
    "girth_5": lambda ctx: ctx.girth >= 5,
    "girth_6": lambda ctx: ctx.girth >= 6,
    "no_c4": lambda ctx: not has_four_cycle(ctx.g),
    "triangle_free": lambda ctx: is_triangle_free_mask(ctx.g, ctx.full),
    "locally_triangle_free": lambda ctx: ctx.locally_triangle_free,
    # the simplexes partition the vertices, each with two simplicial vertices
    "two_simplicial": lambda ctx: ctx.simplex_partition is not None and all(
        (s & ctx.simp).bit_count() >= 2 for s in ctx.simplex_partition
    ),
}


# ---------------------------------------------------------------------------
# per-graph theorems
# ---------------------------------------------------------------------------

# id -> (hypothesis names, check), in registration order, which is the order
# of verdicts
GRAPH_THEOREMS: dict[str, tuple] = {}


def _theorem(theorem_id: str, *hypotheses: str):
    """Register the decorated check as the per-graph theorem ``theorem_id``
    under the named ``HYPOTHESES``.

    The check runs where every hypothesis holds and returns (holds, witness);
    elsewhere the theorem is vacuously true.
    """

    def register(check):
        if theorem_id in GRAPH_THEOREMS:
            raise ValueError(f"duplicate theorem id {theorem_id}")
        GRAPH_THEOREMS[theorem_id] = (hypotheses, check)
        return check

    return register


@_theorem("lem.alpha-stability", "nonempty", "well_covered")
def _chk_alpha_stability(ctx):
    """Deleting a non-isolated vertex of a well-covered graph preserves the
    independence number."""
    for v in range(ctx.g.n):
        if ctx.adj[v] == 0:
            continue
        sub_alpha = ctx.alpha_of(ctx.full ^ (1 << v))
        if sub_alpha != ctx.alpha:
            return False, _wit(vertex=v, alpha=ctx.alpha, alpha_minus_v=sub_alpha)
    return True, None


@_theorem("thm.w2-equivalence", "nonempty", "no_isolated")
def _chk_w2_equivalence(ctx):
    """The seven characterizations of level-2 membership agree."""
    preds = _w2_predicates(ctx)
    values = set(preds.values())
    if len(values) == 1:
        return True, None
    return False, {"predicates": preds}


@_theorem("cor.w2-minus-ns", "nonempty", "w2")
def _chk_w2_minus_ns(ctx):
    """Removing the closed neighborhood of a non-maximum independent set keeps
    level-2 membership."""
    for s, ns in ctx.ind.items():
        if s.bit_count() >= ctx.alpha:
            continue
        mask = ctx.full & ~(s | ns)
        if not ctx.in_w(2, mask):
            return False, _wit(independent_set=s)
    return True, None


@_theorem("cor.w2-no-leaf", "nonempty", "w2", "connected", "not_k2")
def _chk_w2_no_leaf(ctx):
    """A connected level-2 member other than the single edge has minimum
    degree >= 2."""
    for v in range(ctx.g.n):
        if ctx.adj[v].bit_count() < 2:
            return False, _wit(vertex=v, degree=ctx.adj[v].bit_count())
    return True, None


@_theorem("cor.w2-minus-nv", "nonempty", "w2")
def _chk_w2_minus_nv(ctx):
    """Removing any closed vertex neighborhood keeps level-2 membership."""
    for v in range(ctx.g.n):
        mask = ctx.full & ~(ctx.adj[v] | (1 << v))
        if not ctx.in_w(2, mask):
            return False, _wit(vertex=v)
    return True, None


@_theorem("thm.w2-properties", "nonempty", "w2", "connected", "not_k2")
def _chk_w2_properties(ctx):
    """Structural consequences (order, matching, differential,
    regularizability) of level-2 membership."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    alpha, omega = ctx.alpha, ctx.omega

    # (i) each vertex avoided by two disjoint maximum independent sets
    for v in range(g.n):
        if len(_omega_packing([s for s in omega if not s >> v & 1], 2)) < 2:
            return False, _wit(item="two_disjoint_maximum_sets_avoiding_vertex", vertex=v)
    # (ii) order bound
    if g.n < 2 * alpha + 1:
        return False, _wit(item="order_at_least_2alpha_plus_1", n=g.n, alpha=alpha)
    # (iii) every vertex pair avoided by some maximum independent set; this
    # follows from (i): of two disjoint maximum sets avoiding u, at most one
    # contains v
    for u in range(g.n):
        for v in range(u, g.n):
            pair = 1 << u | 1 << v
            if all(s & pair for s in omega):
                return False, _wit(item="pair_avoided_by_maximum_set", pair=[u, v])
    # (iv) matching bounds
    mu = ctx.mu
    if not (alpha <= mu and alpha + mu <= g.n - 1):
        return False, _wit(item="matching_bounds", alpha=alpha, mu=mu, n=g.n)
    # (v) independence number stable under deleting an independent set
    for s in ctx.ind:
        if ctx.alpha_of(full & ~s) != alpha:
            return False, _wit(item="alpha_stable_minus_independent_set", independent_set=s)
    # (vi) differential monotone over independent sets
    mono, wit = check_wk_monotonicity(ctx, 2)
    if not mono:
        return False, _wit(item="differential_monotone", subset_set=wit[0], superset_set=wit[1])
    # (vii) regularizable with strict expansion
    for s, ns in ctx.ind.items():
        if s and ns.bit_count() <= s.bit_count():
            return False, _wit(item="strict_neighborhood_expansion", independent_set=s)
    if not ctx.regularizability[1]:
        return False, _wit(item="regularizable")
    # (viii) independent sets never beat their neighborhood's independence
    for s, ns in ctx.ind.items():
        if s.bit_count() > ctx.alpha_of(ns):
            return False, _wit(item="bounded_by_neighborhood_alpha", independent_set=s)
    # (ix) every independent set is matched into an independent set
    for s, ns in ctx.ind.items():
        if s and not any(can_match_into(g, s, b) for b in _iter_maximal_independent(adj, ns)):
            return False, _wit(item="matched_into_independent_set", independent_set=s)
    return True, None


@_theorem("cor.w2-degree-bound", "nonempty", "w2", "connected")
def _chk_w2_degree_bound(ctx):
    """Degrees inside an independent set are bounded by its neighborhood
    slack."""
    for s, ns in ctx.ind.items():
        slack = ns.bit_count() - s.bit_count() + 1
        for v in iter_bits(s):
            if ctx.adj[v].bit_count() > slack:
                return False, _wit(independent_set=s, vertex=v)
    return True, None


@_theorem("cor.w2-differential-bound", "nonempty", "w2")
def _chk_w2_differential_bound(ctx):
    """The graph differential is at least n - 2*alpha (and that is at least
    max degree - 1 when connected)."""
    d = ctx.differential
    gap = ctx.g.n - 2 * ctx.alpha
    if d < gap:
        return False, _wit(differential=d, n=ctx.g.n, alpha=ctx.alpha)
    if ctx.connected:
        delta = max(row.bit_count() for row in ctx.adj)
        if gap < delta - 1:
            return False, _wit(n=ctx.g.n, alpha=ctx.alpha, max_degree=delta)
    return True, None


@_theorem("thm.shedding-epsilon", "nonempty")
def _chk_shedding_epsilon(ctx):
    """A vertex is shedding iff deleting it preserves every enlargement
    strength.

    eps(A) is the largest size of an independent superset of A.  Deleting
    v (not in A) lowers it iff v lies in every largest superset of A, i.e.
    in their intersection I(A); a neighbor of A never does.  One pass over
    Ind(G), supersets first, gives eps and I of every A from its one-vertex
    extensions, and the vertices some deletion lowers are the union of
    I(A) - A."""
    full = ctx.full
    best = {}  # A -> (eps(A), I(A))
    lost = 0
    for a, na in reversed(ctx.ind.items()):
        ext = full & ~(a | na)
        if not ext:
            best[a] = a.bit_count(), a
            continue
        size = meet = 0
        while ext:
            b = ext & -ext
            ext ^= b
            s, i = best[a | b]
            if s > size:
                size, meet = s, i
            elif s == size:
                meet &= i
        best[a] = size, meet
        lost |= meet & ~a
    for v in range(ctx.g.n):
        shedding = bool(ctx.shed >> v & 1)
        if shedding == bool(lost >> v & 1):
            return False, _wit(vertex=v, shedding=shedding)
    return True, None


@_theorem("cor.shedding-wc", "nonempty", "well_covered")
def _chk_shedding_wc(ctx):
    """In a well-covered graph a non-isolated vertex is shedding iff its
    deletion stays well-covered."""
    for v in range(ctx.g.n):
        if ctx.adj[v] == 0:
            continue
        if bool(ctx.shed >> v & 1) != ctx.in_w(1, ctx.full ^ (1 << v)):
            return False, _wit(vertex=v)
    return True, None


@_theorem("cor.shedding-four-way", "nonempty", "well_covered")
def _chk_shedding_four_way(ctx):
    """The shedding characterizations agree for non-isolated vertices of
    well-covered graphs: G - v is well-covered, N(S) covers N(v) for no
    independent set S of G - N[v], and v is shedding.

    The fourth characterization, that v is isolated in G - N[S] for no such
    S, is the second one restated: S misses N[v], so v is isolated there
    exactly when N(v) is inside N(S).  It is not computed a second time."""
    adj, full = ctx.adj, ctx.full
    for v in range(ctx.g.n):
        nv = adj[v]
        if nv == 0:
            continue
        inside = nv | (1 << v)
        cond1 = ctx.in_w(1, full ^ (1 << v))
        cond2 = all(nv & ~ns for s, ns in ctx.ind.items() if not s & inside)
        cond3 = bool(ctx.shed >> v & 1)
        if not cond1 == cond2 == cond3:
            return False, _wit(
                vertex=v,
                deletion_well_covered=cond1,
                neighborhood_never_covered=cond2,
                shedding=cond3,
            )
    return True, None


@_theorem("prop.simplicial-shed", "nonempty")
def _chk_simplicial_shed(ctx):
    """Neighbors of a simplicial vertex are shedding."""
    shed = ctx.shed
    for v in iter_bits(ctx.simp):
        if ctx.adj[v] & ~shed:
            return False, _wit(simplicial_vertex=v, shed_set=shed)
    return True, None


@_theorem("cor.simplicial-delete", "nonempty", "well_covered")
def _chk_simplicial_delete(ctx):
    """Deleting a neighbor of a simplicial vertex keeps a well-covered graph
    well-covered."""
    for v in iter_bits(ctx.simp):
        for u in iter_bits(ctx.adj[v]):
            if not ctx.in_w(1, ctx.full ^ (1 << u)):
                return False, _wit(simplicial_vertex=v, deleted=u)
    return True, None


@_theorem("thm.simplex-partition", "nonempty")
def _chk_simplex_partition(ctx):
    """The simplexes partition the vertices iff the graph is simplicial and
    well-covered."""
    return _agree(
        partitioned=ctx.simplex_partition is not None,
        simplicial_and_well_covered=is_simplicial_graph(ctx) and ctx.well_covered,
    )


@_theorem("prop.two-simplicial-w2", "nonempty", "two_simplicial")
def _chk_two_simplicial_w2(ctx):
    """Simplex-partitioned graphs with two simplicial vertices per simplex are
    level-2 members."""
    if ctx.in_w(2):
        return True, None
    return False, _wit(w2=False)


@_theorem("thm.w2-five-way", "nonempty", "no_isolated", "well_covered")
def _chk_w2_five_way(ctx):
    """Five characterizations of level-2 membership for well-covered graphs
    without isolated vertices; membership itself by the definition, since
    the level-2 routine reads it from the shedding vertices."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    c4 = True
    for s, ns in ctx.ind.items():
        rem = full & ~(s | ns)
        for w in iter_bits(rem):
            if adj[w] & rem == 0:
                c4 = False
                break
        if not c4:
            break
    return _agree(
        w2=_w2_predicates(ctx)["w2_membership"],
        differential_monotone=check_wk_monotonicity(ctx, 2)[0],
        all_vertices_shedding=ctx.shed == full,
        no_isolation_after_removal=c4,
        closed_neighborhood_deletions_w2=all(
            ctx.in_w(2, full & ~(adj[v] | (1 << v))) for v in range(g.n)
        ),
    )


@_theorem("cor.w2-order-extremal", "nonempty", "w2", "connected")
def _chk_order_extremal(ctx):
    """Order-extremal and bipartite connected level-2 members are the known
    ones."""
    g = ctx.g
    if g.n == 2 * ctx.alpha and not ctx.is_k2():
        return False, _wit(reason="order 2*alpha without being the single edge")
    if g.n == 2 * ctx.alpha + 1 and not (ctx.is_cycle_of(3) or ctx.is_cycle_of(5)):
        return False, _wit(reason="order 2*alpha+1 but neither 3-cycle nor 5-cycle")
    if is_bipartite(g) is not None and not ctx.is_k2():
        return False, _wit(reason="bipartite member other than the single edge")
    return True, None


@_theorem("thm.w2-triangle-free-gab", "nonempty", "no_isolated", "triangle_free")
def _chk_gab_criterion(ctx):
    """Triangle-free level-2 membership via well-coveredness of all
    edge-neighborhood deletions."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    cond = True
    for a, b in g.edges():
        mask = full & ~(adj[a] | adj[b])
        if not (ctx.in_w(1, mask) and ctx.alpha_of(mask) == ctx.alpha - 1):
            cond = False
            break
    return _agree(w2=ctx.in_w(2), edge_contraction_criterion=cond)


@_theorem("prop.locally-tf-w2", "nonempty", "w2", "locally_triangle_free")
def _chk_locally_tf_w2(ctx):
    """Locally triangle-free level-2 members with small independence number
    are complete graphs or cycle complements."""
    # For independence number 2 the published claim names a single cycle
    # complement, but the complement of two disjoint 4-cycles (the join of
    # two copies of 2K2) is an 8-vertex member as well; the statement proved
    # by the join rule is that the complement is a disjoint union of cycles
    # of length >= 4, one cycle exactly when the complement is connected.
    g = ctx.g
    if ctx.alpha == 1:
        complete_ok = g.n >= 2 and all(
            row == ctx.full ^ (1 << v) for v, row in enumerate(ctx.adj)
        )
        if not complete_ok:
            return False, _wit(alpha=1, reason="not a complete graph of order >= 2")
    elif ctx.alpha == 2:
        comp = complement(g)
        for part in components(comp):
            size = part.bit_count()
            regular = all(
                (comp.adj[v] & part).bit_count() == 2 for v in iter_bits(part)
            )
            if size < 4 or not regular:
                return False, _wit(
                    alpha=2, reason="complement is not a union of cycles of length >= 4"
                )
    return True, None


@_theorem("thm.wk-monotonicity", "nonempty")
def _chk_wk_monotonicity(ctx):
    """Level-k membership forces the k-weighted neighborhood deficiency to be
    monotone (levels 1..3 probed)."""
    for k, member in enumerate(ctx.w_levels[:3], start=1):
        if member:
            ok, wit = check_wk_monotonicity(ctx, k)
            if not ok:
                return False, _wit(k=k, subset_set=wit[0], superset_set=wit[1])
    return True, None


@_theorem("thm.wk-chain")
def _chk_wk_chain(ctx):
    """Hierarchy levels are nested (levels up to 4 probed)."""
    levels = ctx.w_levels
    for k in range(2, len(levels) + 1):
        if levels[k - 1] and not levels[k - 2]:
            return False, _wit(k=k)
    return True, None


@_theorem("thm.berge-maximum", "nonempty")
def _chk_berge(ctx):
    """An independent set is maximum iff every disjoint independent set
    matches into it.

    By Hall's condition, every disjoint independent set matches into S iff
    every disjoint independent B has |N(B) & S| >= |B|: the subsets of an
    independent set are independent."""
    hall = [(b, nb, b.bit_count()) for b, nb in ctx.ind.items() if b]
    omega_set = set(ctx.omega)
    for s in ctx.ind:
        matched = True
        for b, nb, size in hall:
            if not b & s and (nb & s).bit_count() < size:
                matched = False
                break
        if matched != (s in omega_set):
            return False, _wit(independent_set=s, maximum=s in omega_set)
    return True, None


@_theorem(
    "thm.girth6-wc-corona", "nonempty", "connected", "girth_6", "not_c7", "not_k1"
)
def _chk_girth6_corona(ctx):
    """Connected well-covered graphs of girth >= 6 are pendant coronas (known
    exceptions aside)."""
    return _agree(well_covered=ctx.well_covered, pendant_corona=ctx.clique_corona(1))


@_theorem("thm.girth5-vwc-corona", "nonempty", "connected", "girth_5")
def _chk_girth5_corona(ctx):
    """Connected very well-covered graphs of girth >= 5 are pendant coronas."""
    return _agree(very_well_covered=ctx.very_well_covered, pendant_corona=ctx.clique_corona(1))


@_theorem("thm.hartnell-c4free", "nonempty", "connected", "no_c4")
def _chk_hartnell(ctx):
    """Connected graphs without 4-cycles in level 2 are the single edge, the
    5-cycle, or an edge corona."""
    return _agree(
        w2=ctx.in_w(2),
        k2_c5_or_edge_corona=ctx.is_k2() or ctx.is_cycle_of(5) or ctx.clique_corona(2),
    )


# ---------------------------------------------------------------------------
# construction-grid theorems
# ---------------------------------------------------------------------------

CORONA_ATTACHMENT_POOL = {
    "K1": complete(1),
    "K2": complete(2),
    "K3": complete(3),
    "P3": path(3),
    "2K1": empty_graph(2),
}


def _is_complete_graph(h: Graph) -> bool:
    return h.n >= 1 and h.edge_count() == h.n * (h.n - 1) // 2


# Each grid runner takes its bounds as keywords and yields (graph, holds,
# witness) per grid point; run_grid keeps the witness only where the check
# fails.  The runners import the catalog and the constructions themselves, so
# that a survey or verify without grids loads neither.


def _grid_corona(k, base_max_n=4):
    """prop.corona-wc (k = 1): a corona is well-covered iff every attachment
    is complete.  prop.corona-w2 (k = 2): a corona is a level-2 member iff
    attachments are complete on >= 2 vertices at non-isolated base vertices."""
    from . import catalog as cat
    from .constructions import CoronaFamily, corona

    for base in cat.graphs_up_to(base_max_n):
        for names in product(CORONA_ATTACHMENT_POOL, repeat=base.n):
            fam = CoronaFamily(base, [CORONA_ATTACHMENT_POOL[s] for s in names])
            g = corona(fam)
            # level 2 also needs two vertices in the attachments at
            # non-isolated base vertices
            expected = all(
                _is_complete_graph(h) and (k == 1 or h.n >= 2 or not base.adj[v])
                for v, h in enumerate(fam.attachments)
            )
            wit = {"base": write_graph6(base), "attachments": list(names)}
            yield g, GraphContext(g).in_w(k) == expected, wit


def _grid_corona_k1wc(base_max_n=4, p_max=3):
    """cor.corona-k1wc: a complete-attachment corona over a base with edges is
    1-well-covered iff the attachment has >= 2 vertices."""
    from . import catalog as cat
    from .constructions import corona_uniform

    for base in cat.graphs_up_to(base_max_n):
        if base.edge_count() == 0:
            continue
        for p in range(1, p_max + 1):
            g = corona_uniform(base, complete(p))
            holds = GraphContext(g).one_well_covered == (p >= 2)
            yield g, holds, {"base": write_graph6(base), "p": p}


def _grid_corona_bipartite_2mis(h_max_n=5):
    """thm.corona-bipartite-2mis: a pendant corona has two disjoint maximum
    independent sets iff the base is bipartite."""
    from . import catalog as cat
    from .constructions import corona_uniform

    for h in cat.graphs_up_to(h_max_n):
        g = corona_uniform(h, complete(1))
        holds = (GraphContext(g).disjoint_mis_max(2) == 2) == (is_bipartite(h) is not None)
        yield g, holds, {"h": write_graph6(h)}


def _grid_join(k, part_max_n=5):
    """prop.join-wc (k = 1): a join is well-covered iff all parts are
    well-covered with equal independence numbers.  prop.join-w2 (k = 2): a
    join is a level-2 member iff all parts are, with equal independence
    numbers."""
    from . import catalog as cat
    from .constructions import join

    parts = [GraphContext(h) for h in cat.graphs_up_to(part_max_n)]
    for i, c1 in enumerate(parts):
        for c2 in parts[i:]:
            g = join([c1.g, c2.g])
            # all-complete parts give a complete join, a level-2 member even
            # when a one-vertex part is not; the level-k criterion on the
            # parts governs exactly the remaining case
            expected = (_is_complete_graph(c1.g) and _is_complete_graph(c2.g)) or (
                c1.in_w(k) and c2.in_w(k) and c1.alpha == c2.alpha
            )
            wit = {"parts": [write_graph6(c1.g), write_graph6(c2.g)]}
            yield g, GraphContext(g).in_w(k) == expected, wit


def _grid_concat_alpha(base_max_n=4, part_max_n=5):
    """lem.concat-alpha: the independence number of a concatenation follows
    the two-branch formula."""
    from . import catalog as cat
    from .constructions import concatenate

    bases = [
        GraphContext(b)
        for b in cat.graphs_up_to(base_max_n, connected=True)
        if b.n >= 2
    ]
    parts = [GraphContext(h) for h in cat.graphs_up_to(part_max_n) if h.n >= 2]
    for bctx in bases:
        base = bctx.g
        for hctx in parts:
            h = hctx.g
            for v in range(h.n):
                g = concatenate(base, h, v)
                if all(s >> v & 1 for s in hctx.omega):
                    expected = base.n * (hctx.alpha - 1) + bctx.alpha
                else:
                    expected = base.n * hctx.alpha
                wit = {
                    "base": write_graph6(base),
                    "h": write_graph6(h),
                    "at": v,
                    "expected": expected,
                }
                yield g, GraphContext(g).alpha == expected, wit


def _grid_concat_hierarchy(base_max_n=3, part_max_n=6):
    """thm.concat-hierarchy: concatenation drops the hierarchy level by at
    most one (levels 2 and 3)."""
    from . import catalog as cat

    parts = cat.graphs_up_to(part_max_n)
    for base, v, hctx, ctx in _concatenation_sweep(parts, base_max_n, 2):
        h_w3 = hctx.in_w(3)
        ok = ctx.in_w(1) and (not h_w3 or ctx.in_w(2))
        wit = {
            "base": write_graph6(base),
            "h": write_graph6(hctx.g),
            "at": v,
            "h_level": 3 if h_w3 else 2,
        }
        yield ctx.g, ok, wit


# id -> runner, in registration order
GRID_THEOREMS = {
    "prop.corona-wc": partial(_grid_corona, 1),
    "prop.corona-w2": partial(_grid_corona, 2),
    "cor.corona-k1wc": _grid_corona_k1wc,
    "thm.corona-bipartite-2mis": _grid_corona_bipartite_2mis,
    "prop.join-wc": partial(_grid_join, 1),
    "prop.join-w2": partial(_grid_join, 2),
    "lem.concat-alpha": _grid_concat_alpha,
    "thm.concat-hierarchy": _grid_concat_hierarchy,
}

GRAPH_THEOREM_IDS = list(GRAPH_THEOREMS)
GRID_THEOREM_IDS = list(GRID_THEOREMS)


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _verdicts(ctx: GraphContext, theorem_ids=None) -> list[dict]:
    """The verdicts of ``theorem_ids`` (default all) on one graph's context,
    in order: the one evaluation loop, read by ``run_suite`` and by the
    survey records."""
    graph_id = ctx.graph6
    out = []
    for tid in GRAPH_THEOREMS if theorem_ids is None else theorem_ids:
        if tid not in GRAPH_THEOREMS:
            if tid in GRID_THEOREMS:
                raise ValueError(f"{tid!r} is a construction-grid theorem; use run_grid")
            raise ValueError(f"unknown theorem id {tid!r}")
        hypotheses, check = GRAPH_THEOREMS[tid]
        t0 = time.perf_counter_ns()
        applicable = True
        for name in hypotheses:  # a loop, not all() over a generator: cheaper
            if not HYPOTHESES[name](ctx):
                applicable = False
                break
        holds, witness = check(ctx) if applicable else (True, None)
        if holds:
            witness = None
        # whole nanoseconds, whose repr is about half as long to write as
        # that of a difference of two float clock readings
        out.append(_verdict(
            tid, graph_id, applicable, holds, witness, (time.perf_counter_ns() - t0) / 1e9
        ))
    return out


def run_suite(g: Graph | GraphContext, theorem_ids=None) -> list[TheoremVerdict]:
    """Evaluate registered per-graph theorems on one graph (or its context)."""
    return list(map(TheoremVerdict, _verdicts(_context(g), theorem_ids)))


def run_grid(theorem_id: str, bounds: dict | None = None) -> list[TheoremVerdict]:
    """Evaluate one construction-grid theorem over its (bounded) grid."""
    if theorem_id not in GRID_THEOREMS:
        if theorem_id in GRAPH_THEOREMS:
            raise ValueError(f"{theorem_id!r} is a per-graph theorem; use run_suite")
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    try:
        # the runners are generators, so the call only binds the bounds
        points = GRID_THEOREMS[theorem_id](**(bounds or {}))
    except TypeError as exc:
        raise ValueError(f"bad bound for {theorem_id!r}: {exc}") from None
    out = []
    t0 = time.perf_counter()
    for g, holds, witness in points:
        out.append(TheoremVerdict(_verdict(
            theorem_id, write_graph6(g), True, holds, None if holds else witness,
            time.perf_counter() - t0,
        )))
        t0 = time.perf_counter()  # the next grid point starts here
    return out
