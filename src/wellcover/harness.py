"""Registry of executable theorem checks and catalog survey drivers; ``hunt``
and ``HuntTarget`` are re-exported from ``hunting``.

Each per-graph theorem is one check registered by its ``@_theorem(id, gate)``
decorator, its docstring the statement and hypotheses; the hypothesis gate
keeps a vacuously true verdict distinguishable from a confirmed one.  Each
construction-grid theorem is one row of ``GRID_THEOREMS``.  A verdict of
(applicable and not holds) for a registered theorem signals an implementation
bug, never new mathematics; the conjecture is a hunt target only and is never
assumed.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from functools import partial
from itertools import chain, product

from .classify import (
    SCHEMA_VERSION,
    GraphContext,
    _context,
    class_report,
    is_in_w_generic,
    is_simplicial_graph,
)
from .graph import (
    Graph,
    Graph6Error,
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
from .hunting import _concatenation_sweep, _read_graphs
from .independence import _iter_maximal_independent, _nbhd, can_match_into


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


# plain classes, not dataclasses, so that ``verify`` does not import
# dataclasses (and with it inspect)
class TheoremVerdict:
    """One theorem's verdict on one graph or grid point."""

    def __init__(
        self,
        theorem_id: str,
        graph_id: str,
        applicable: bool,
        holds: bool,
        witness: object = None,
        elapsed: float = 0.0,
    ):
        if not applicable and (not holds or witness is not None):
            raise ValueError("inapplicable verdicts are vacuously true, without witness")
        if witness is not None and holds:
            raise ValueError("a witness documents a failure")
        self.theorem_id = theorem_id
        self.graph_id = graph_id
        self.applicable = applicable
        self.holds = holds
        self.witness = witness
        self.elapsed = elapsed

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "theorem": self.theorem_id,
            "graph": self.graph_id,
            "applicable": self.applicable,
            "holds": self.holds,
            "witness": self.witness,
            "elapsed": self.elapsed,
        }


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
    g, adj, full = ctx.g, ctx.adj, ctx.full
    alpha = ctx.alpha
    omega, contains = ctx.omega, ctx.contains
    avoid = ctx.omega_avoiding
    non_max = [a for a in ctx.ind if a.bit_count() < alpha]

    p1 = not ctx.is_p3() and all(ctx.in_w(1, full ^ (1 << v)) for v in range(g.n))
    p2 = ctx.one_well_covered
    p3 = is_in_w_generic(ctx, 2)

    def extends_two_disjointly(a: int) -> bool:
        idxs = vertices_of(contains[a])
        for x in range(len(idxs)):
            si = omega[idxs[x]]
            for y in range(x + 1, len(idxs)):
                if si & omega[idxs[y]] & ~a == 0:
                    return True
        return False

    p4 = all(extends_two_disjointly(a) for a in non_max)
    p5 = all(contains[a].bit_count() >= 2 for a in non_max)

    p6 = True
    for a in non_max:
        ca = contains[a]
        for b in non_max:
            if a & b:
                continue
            # some maximum set includes a and avoids b
            m = ca
            found = False
            while m:
                bit = m & -m
                j = bit.bit_length() - 1
                m ^= bit
                if omega[j] & b == 0:
                    found = True
                    break
            if not found:
                p6 = False
                break
        if not p6:
            break

    p7 = True
    for a in non_max:
        ca = contains[a]
        for v in iter_bits(full & ~a):
            if ca & avoid[v] == 0:
                p7 = False
                break
        if not p7:
            break

    return {
        "deletions_stay_well_covered": p1,
        "one_well_covered": p2,
        "w2_membership": p3,
        "two_disjoint_completions": p4,
        "two_distinct_completions": p5,
        "extension_avoiding_disjoint_set": p6,
        "extension_avoiding_vertex": p7,
    }


# ---------------------------------------------------------------------------
# hypothesis gates
# ---------------------------------------------------------------------------


def _nonempty(ctx):
    return ctx.g.n >= 1


def _no_isolated(ctx):
    return ctx.g.n >= 1 and all(row != 0 for row in ctx.adj)


def _wc_gate(ctx):
    return _nonempty(ctx) and ctx.well_covered


def _w2_gate(ctx):
    return _nonempty(ctx) and ctx.w2


def _w2_connected(ctx):
    return _w2_gate(ctx) and ctx.connected


def _w2_connected_not_k2(ctx):
    return _w2_connected(ctx) and not ctx.is_k2()


def _two_simplicial_gate(ctx):
    parts = ctx.simplex_partition
    if not _nonempty(ctx) or parts is None:
        return False
    return all((s & ctx.simp).bit_count() >= 2 for s in parts)


def _girth6_gate(ctx):
    return (
        _nonempty(ctx)
        and ctx.connected
        and ctx.girth >= 6
        and not ctx.is_cycle_of(7)
        and ctx.g.n != 1
    )


def _girth5_gate(ctx):
    return _nonempty(ctx) and ctx.connected and ctx.girth >= 5


def _hartnell_gate(ctx):
    return _nonempty(ctx) and ctx.connected and not has_four_cycle(ctx.g)


def _triangle_free_gate(ctx):
    return _no_isolated(ctx) and is_triangle_free_mask(ctx.g, ctx.full)


def _locally_tf_w2_gate(ctx):
    return _w2_gate(ctx) and ctx.locally_triangle_free


# ---------------------------------------------------------------------------
# per-graph theorems
# ---------------------------------------------------------------------------

# id -> (gate, check), in registration order, which is the order of verdicts
GRAPH_THEOREMS: dict[str, tuple] = {}


def _theorem(theorem_id: str, gate):
    """Register the decorated check as the per-graph theorem ``theorem_id``.

    The check runs where ``gate(ctx)`` holds and returns (holds, witness);
    elsewhere the theorem is vacuously true.
    """

    def register(check):
        if theorem_id in GRAPH_THEOREMS:
            raise ValueError(f"duplicate theorem id {theorem_id}")
        GRAPH_THEOREMS[theorem_id] = (gate, check)
        return check

    return register


@_theorem("lem.alpha-stability", _wc_gate)
def _chk_alpha_stability(ctx):
    """Deleting a non-isolated vertex of a well-covered graph preserves the
    independence number.  Hypotheses: nonempty, well-covered."""
    for v in range(ctx.g.n):
        if ctx.adj[v] == 0:
            continue
        sub_alpha = ctx.alpha_of(ctx.full ^ (1 << v))
        if sub_alpha != ctx.alpha:
            return False, _wit(vertex=v, alpha=ctx.alpha, alpha_minus_v=sub_alpha)
    return True, None


@_theorem("thm.w2-equivalence", _no_isolated)
def _chk_w2_equivalence(ctx):
    """The seven characterizations of level-2 membership agree.
    Hypotheses: nonempty, no isolated vertices."""
    preds = w2_equivalence_predicates(ctx)
    values = set(preds.values())
    if len(values) == 1:
        return True, None
    return False, {"predicates": preds}


@_theorem("cor.w2-minus-ns", _w2_gate)
def _chk_w2_minus_ns(ctx):
    """Removing the closed neighborhood of a non-maximum independent set keeps
    level-2 membership.  Hypotheses: nonempty, in level 2."""
    for s in ctx.ind:
        if s.bit_count() >= ctx.alpha:
            continue
        mask = ctx.full & ~(s | _nbhd(ctx.adj, s))
        if not ctx.in_w(2, mask):
            return False, _wit(independent_set=s)
    return True, None


@_theorem("cor.w2-no-leaf", _w2_connected_not_k2)
def _chk_w2_no_leaf(ctx):
    """A connected level-2 member other than the single edge has minimum
    degree >= 2.  Hypotheses: connected, in level 2, not the single edge."""
    for v in range(ctx.g.n):
        if ctx.adj[v].bit_count() < 2:
            return False, _wit(vertex=v, degree=ctx.adj[v].bit_count())
    return True, None


@_theorem("cor.w2-minus-nv", _w2_gate)
def _chk_w2_minus_nv(ctx):
    """Removing any closed vertex neighborhood keeps level-2 membership.
    Hypotheses: nonempty, in level 2."""
    for v in range(ctx.g.n):
        mask = ctx.full & ~(ctx.adj[v] | (1 << v))
        if not ctx.in_w(2, mask):
            return False, _wit(vertex=v)
    return True, None


@_theorem("thm.w2-properties", _w2_connected_not_k2)
def _chk_w2_properties(ctx):
    """Structural consequences (order, matching, differential,
    regularizability) of level-2 membership.  Hypotheses: connected, in
    level 2, not the single edge."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    alpha, omega = ctx.alpha, ctx.omega
    disj, avoid = ctx.omega_disjoint, ctx.omega_avoiding

    # (i) each vertex avoided by two disjoint maximum independent sets
    for v in range(g.n):
        ok = False
        m = avoid[v]
        while m and not ok:
            b = m & -m
            i = b.bit_length() - 1
            m ^= b
            if disj[i] & avoid[v] & ~((1 << (i + 1)) - 1):
                ok = True
        if not ok:
            return False, _wit(item="two_disjoint_maximum_sets_avoiding_vertex", vertex=v)
    # (ii) order bound
    if g.n < 2 * alpha + 1:
        return False, _wit(item="order_at_least_2alpha_plus_1", n=g.n, alpha=alpha)
    # (iii) every vertex pair avoided by some maximum independent set
    for u in range(g.n):
        for v in range(u, g.n):
            if avoid[u] & avoid[v] == 0:
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
    mono, wit = ctx.wk_monotonicity(2)
    if not mono:
        return False, _wit(item="differential_monotone", subset_set=wit[0], superset_set=wit[1])
    # (vii) regularizable with strict expansion
    for s in ctx.ind:
        if s and _nbhd(adj, s).bit_count() <= s.bit_count():
            return False, _wit(item="strict_neighborhood_expansion", independent_set=s)
    if not ctx.regularizability[1]:
        return False, _wit(item="regularizable")
    # (viii) independent sets never beat their neighborhood's independence
    for s in ctx.ind:
        if s.bit_count() > ctx.alpha_of(_nbhd(adj, s)):
            return False, _wit(item="bounded_by_neighborhood_alpha", independent_set=s)
    # (ix) every independent set is matched into an independent set
    for s in ctx.ind:
        if s == 0:
            continue
        target_pool = _nbhd(adj, s)
        if not any(
            can_match_into(g, s, b)
            for b in _iter_maximal_independent(adj, target_pool)
        ):
            return False, _wit(item="matched_into_independent_set", independent_set=s)
    return True, None


@_theorem("cor.w2-degree-bound", _w2_connected)
def _chk_w2_degree_bound(ctx):
    """Degrees inside an independent set are bounded by its neighborhood
    slack.  Hypotheses: connected, in level 2."""
    for s in ctx.ind:
        slack = _nbhd(ctx.adj, s).bit_count() - s.bit_count() + 1
        for v in iter_bits(s):
            if ctx.adj[v].bit_count() > slack:
                return False, _wit(independent_set=s, vertex=v)
    return True, None


@_theorem("cor.w2-differential-bound", _w2_gate)
def _chk_w2_differential_bound(ctx):
    """The graph differential is at least n - 2*alpha (and that is at least
    max degree - 1 when connected).  Hypotheses: in level 2 (second
    inequality: connected)."""
    d = ctx.differential
    gap = ctx.g.n - 2 * ctx.alpha
    if d < gap:
        return False, _wit(differential=d, n=ctx.g.n, alpha=ctx.alpha)
    if ctx.connected:
        delta = max(row.bit_count() for row in ctx.adj)
        if gap < delta - 1:
            return False, _wit(n=ctx.g.n, alpha=ctx.alpha, max_degree=delta)
    return True, None


@_theorem("thm.shedding-epsilon", _nonempty)
def _chk_shedding_epsilon(ctx):
    """A vertex is shedding iff deleting it preserves every enlargement
    strength.  Hypotheses: nonempty.

    eps(A) is the largest size of an independent superset of A.  Deleting
    v (not in A) lowers it iff v lies in every largest superset of A, i.e.
    in their intersection I(A); a neighbor of A never does.  One pass over
    Ind(G), supersets first, gives eps and I of every A from its one-vertex
    extensions, and the vertices some deletion lowers are the union of
    I(A) - A."""
    adj, full = ctx.adj, ctx.full
    closed = {0: 0}  # A -> N[A], each from A minus its lowest vertex
    for a in ctx.ind[1:]:
        b = a & -a
        closed[a] = closed[a ^ b] | adj[b.bit_length() - 1] | b
    best = {}  # A -> (eps(A), I(A))
    lost = 0
    for a in reversed(ctx.ind):
        ext = full & ~closed[a]
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


@_theorem("cor.shedding-wc", _wc_gate)
def _chk_shedding_wc(ctx):
    """In a well-covered graph a non-isolated vertex is shedding iff its
    deletion stays well-covered.  Hypotheses: nonempty, well-covered."""
    for v in range(ctx.g.n):
        if ctx.adj[v] == 0:
            continue
        if bool(ctx.shed >> v & 1) != ctx.in_w(1, ctx.full ^ (1 << v)):
            return False, _wit(vertex=v)
    return True, None


@_theorem("cor.shedding-four-way", _wc_gate)
def _chk_shedding_four_way(ctx):
    """The four shedding characterizations agree for non-isolated vertices of
    well-covered graphs.  Hypotheses: nonempty, well-covered."""
    adj, full = ctx.adj, ctx.full
    for v in range(ctx.g.n):
        nv = adj[v]
        if nv == 0:
            continue
        inside = nv | (1 << v)
        outside_sets = [s for s in ctx.ind if not s & inside]
        cond1 = ctx.in_w(1, full ^ (1 << v))
        cond2 = all(nv & ~_nbhd(adj, s) for s in outside_sets)
        cond3 = not any(nv & ~(s | _nbhd(adj, s)) == 0 for s in outside_sets)
        cond4 = bool(ctx.shed >> v & 1)
        if not cond1 == cond2 == cond3 == cond4:
            return False, _wit(
                vertex=v,
                deletion_well_covered=cond1,
                neighborhood_never_covered=cond2,
                never_isolated=cond3,
                shedding=cond4,
            )
    return True, None


@_theorem("prop.simplicial-shed", _nonempty)
def _chk_simplicial_shed(ctx):
    """Neighbors of a simplicial vertex are shedding.  Hypotheses: nonempty."""
    shed = ctx.shed
    for v in iter_bits(ctx.simp):
        if ctx.adj[v] & ~shed:
            return False, _wit(simplicial_vertex=v, shed_set=shed)
    return True, None


@_theorem("cor.simplicial-delete", _wc_gate)
def _chk_simplicial_delete(ctx):
    """Deleting a neighbor of a simplicial vertex keeps a well-covered graph
    well-covered.  Hypotheses: nonempty, well-covered."""
    for v in iter_bits(ctx.simp):
        for u in iter_bits(ctx.adj[v]):
            if not ctx.in_w(1, ctx.full ^ (1 << u)):
                return False, _wit(simplicial_vertex=v, deleted=u)
    return True, None


@_theorem("thm.simplex-partition", _nonempty)
def _chk_simplex_partition(ctx):
    """The simplexes partition the vertices iff the graph is simplicial and
    well-covered.  Hypotheses: nonempty."""
    return _agree(
        partitioned=ctx.simplex_partition is not None,
        simplicial_and_well_covered=is_simplicial_graph(ctx) and ctx.well_covered,
    )


@_theorem("prop.two-simplicial-w2", _two_simplicial_gate)
def _chk_two_simplicial_w2(ctx):
    """Simplex-partitioned graphs with two simplicial vertices per simplex are
    level-2 members.  Hypotheses: simplexes partition the vertices, each with
    >= 2 simplicial vertices."""
    if ctx.w2:
        return True, None
    return False, _wit(w2=False)


@_theorem("thm.w2-five-way", lambda ctx: _no_isolated(ctx) and ctx.well_covered)
def _chk_w2_five_way(ctx):
    """Five characterizations of level-2 membership for well-covered graphs
    without isolated vertices.  Hypotheses: nonempty, well-covered, no
    isolated vertices."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    c4 = True
    for s in ctx.ind:
        rem = full & ~(s | _nbhd(adj, s))
        for w in iter_bits(rem):
            if adj[w] & rem == 0:
                c4 = False
                break
        if not c4:
            break
    return _agree(
        w2=ctx.w2,
        differential_monotone=ctx.wk_monotonicity(2)[0],
        all_vertices_shedding=ctx.shed == full,
        no_isolation_after_removal=c4,
        closed_neighborhood_deletions_w2=all(
            ctx.in_w(2, full & ~(adj[v] | (1 << v))) for v in range(g.n)
        ),
    )


@_theorem("cor.w2-order-extremal", _w2_connected)
def _chk_order_extremal(ctx):
    """Order-extremal and bipartite connected level-2 members are the known
    ones.  Hypotheses: connected, in level 2."""
    g = ctx.g
    if g.n == 2 * ctx.alpha and not ctx.is_k2():
        return False, _wit(reason="order 2*alpha without being the single edge")
    if g.n == 2 * ctx.alpha + 1 and not (ctx.is_cycle_of(3) or ctx.is_cycle_of(5)):
        return False, _wit(reason="order 2*alpha+1 but neither 3-cycle nor 5-cycle")
    if is_bipartite(g) is not None and not ctx.is_k2():
        return False, _wit(reason="bipartite member other than the single edge")
    return True, None


@_theorem("thm.w2-triangle-free-gab", _triangle_free_gate)
def _chk_gab_criterion(ctx):
    """Triangle-free level-2 membership via well-coveredness of all
    edge-neighborhood deletions.  Hypotheses: nonempty, triangle-free, no
    isolated vertices."""
    g, adj, full = ctx.g, ctx.adj, ctx.full
    cond = True
    for a, b in g.edges():
        mask = full & ~(adj[a] | adj[b])
        if not (ctx.in_w(1, mask) and ctx.alpha_of(mask) == ctx.alpha - 1):
            cond = False
            break
    return _agree(w2=ctx.w2, edge_contraction_criterion=cond)


@_theorem("prop.locally-tf-w2", _locally_tf_w2_gate)
def _chk_locally_tf_w2(ctx):
    """Locally triangle-free level-2 members with small independence number
    are complete graphs or cycle complements.  Hypotheses: in level 2,
    locally triangle-free."""
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


@_theorem("thm.wk-monotonicity", _nonempty)
def _chk_wk_monotonicity(ctx):
    """Level-k membership forces the k-weighted neighborhood deficiency to be
    monotone.  Hypotheses: nonempty (levels 1..3 probed)."""
    for k, member in enumerate(ctx.w_levels[:3], start=1):
        if member:
            ok, wit = ctx.wk_monotonicity(k)
            if not ok:
                return False, _wit(k=k, subset_set=wit[0], superset_set=wit[1])
    return True, None


@_theorem("thm.wk-chain", lambda ctx: True)
def _chk_wk_chain(ctx):
    """Hierarchy levels are nested.  Hypotheses: none (levels up to 4
    probed)."""
    levels = ctx.w_levels
    for k in range(2, len(levels) + 1):
        if levels[k - 1] and not levels[k - 2]:
            return False, _wit(k=k)
    return True, None


@_theorem("thm.berge-maximum", _nonempty)
def _chk_berge(ctx):
    """An independent set is maximum iff every disjoint independent set
    matches into it.  Hypotheses: nonempty.

    By Hall's condition, every disjoint independent set matches into S iff
    every disjoint independent B has |N(B) & S| >= |B|: the subsets of an
    independent set are independent."""
    adj = ctx.adj
    hall = [(b, _nbhd(adj, b), b.bit_count()) for b in ctx.ind if b]
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


@_theorem("thm.girth6-wc-corona", _girth6_gate)
def _chk_girth6_corona(ctx):
    """Connected well-covered graphs of girth >= 6 are pendant coronas (known
    exceptions aside).  Hypotheses: connected, girth >= 6, not the 7-cycle,
    more than one vertex."""
    return _agree(well_covered=ctx.well_covered, pendant_corona=ctx.clique_corona(1))


@_theorem("thm.girth5-vwc-corona", _girth5_gate)
def _chk_girth5_corona(ctx):
    """Connected very well-covered graphs of girth >= 5 are pendant coronas.
    Hypotheses: connected, girth >= 5."""
    return _agree(very_well_covered=ctx.very_well_covered, pendant_corona=ctx.clique_corona(1))


@_theorem("thm.hartnell-c4free", _hartnell_gate)
def _chk_hartnell(ctx):
    """Connected graphs without 4-cycles in level 2 are the single edge, the
    5-cycle, or an edge corona.  Hypotheses: connected, no 4-cycle."""
    return _agree(
        w2=ctx.w2,
        k2_c5_or_edge_corona=ctx.is_k2() or ctx.is_cycle_of(5) or ctx.clique_corona(2),
    )


# ---------------------------------------------------------------------------
# construction-grid theorems
# ---------------------------------------------------------------------------

CORONA_ATTACHMENT_POOL = ("K1", "K2", "K3", "P3", "2K1")


def _pool_graph(name: str) -> Graph:
    return {
        "K1": complete(1),
        "K2": complete(2),
        "K3": complete(3),
        "P3": path(3),
        "2K1": empty_graph(2),
    }[name]


def _is_complete_graph(h: Graph) -> bool:
    return h.n >= 1 and h.edge_count() == h.n * (h.n - 1) // 2


# Each grid runner yields (graph, holds, witness) per grid point; run_grid
# turns them into verdicts and keeps the witness only where the check fails.
# The runners import the catalog and the constructions themselves, so that a
# survey or verify without grids loads neither.


def _grid_corona(k, bounds):
    """prop.corona-wc (k = 1): a corona is well-covered iff every attachment
    is complete.  prop.corona-w2 (k = 2): a corona is a level-2 member iff
    attachments are complete on >= 2 vertices at non-isolated base vertices."""
    from . import catalog as cat
    from .constructions import CoronaFamily, corona

    for base in cat.graphs_up_to(bounds.get("base_max_n", 4)):
        for names in product(CORONA_ATTACHMENT_POOL, repeat=base.n):
            fam = CoronaFamily(base, tuple(_pool_graph(s) for s in names))
            g = corona(fam)
            # level 2 also needs two vertices in the attachments at
            # non-isolated base vertices
            expected = all(
                _is_complete_graph(h) and (k == 1 or h.n >= 2 or not base.adj[v])
                for v, h in enumerate(fam.attachments)
            )
            wit = {"base": write_graph6(base), "attachments": list(names)}
            yield g, GraphContext(g).in_w(k) == expected, wit


def _grid_corona_k1wc(bounds):
    """cor.corona-k1wc: a complete-attachment corona over a base with edges is
    1-well-covered iff the attachment has >= 2 vertices."""
    from . import catalog as cat
    from .constructions import corona_uniform

    for base in cat.graphs_up_to(bounds.get("base_max_n", 4)):
        if base.edge_count() == 0:
            continue
        for p in range(1, bounds.get("p_max", 3) + 1):
            g = corona_uniform(base, complete(p))
            holds = GraphContext(g).one_well_covered == (p >= 2)
            yield g, holds, {"base": write_graph6(base), "p": p}


def _grid_corona_bipartite_2mis(bounds):
    """thm.corona-bipartite-2mis: a pendant corona has two disjoint maximum
    independent sets iff the base is bipartite."""
    from . import catalog as cat
    from .constructions import corona_uniform

    for h in cat.graphs_up_to(bounds.get("h_max_n", 5)):
        g = corona_uniform(h, complete(1))
        holds = (GraphContext(g).disjoint_mis_max(2) == 2) == (is_bipartite(h) is not None)
        yield g, holds, {"h": write_graph6(h)}


def _grid_join(k, bounds):
    """prop.join-wc (k = 1): a join is well-covered iff all parts are
    well-covered with equal independence numbers.  prop.join-w2 (k = 2): a
    join is a level-2 member iff all parts are, with equal independence
    numbers."""
    from . import catalog as cat
    from .constructions import join

    parts = [GraphContext(h) for h in cat.graphs_up_to(bounds.get("part_max_n", 5))]
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


def _grid_concat_alpha(bounds):
    """lem.concat-alpha: the independence number of a concatenation follows
    the two-branch formula."""
    from . import catalog as cat
    from .constructions import concatenate

    bases = [
        GraphContext(b)
        for b in cat.graphs_up_to(bounds.get("base_max_n", 4), connected=True)
        if b.n >= 2
    ]
    parts = [GraphContext(h) for h in cat.graphs_up_to(bounds.get("part_max_n", 5)) if h.n >= 2]
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


def _grid_concat_hierarchy(bounds):
    """thm.concat-hierarchy: concatenation drops the hierarchy level by at
    most one (levels 2 and 3)."""
    from . import catalog as cat

    parts = cat.graphs_up_to(bounds.get("part_max_n", 6))
    for base, v, hctx, ctx in _concatenation_sweep(parts, bounds.get("base_max_n", 3), 2):
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


def run_suite(g: Graph | GraphContext, theorem_ids=None) -> list[TheoremVerdict]:
    """Evaluate registered per-graph theorems on one graph (or its context)."""
    if theorem_ids is None:
        theorem_ids = GRAPH_THEOREMS
    ctx = _context(g)
    graph_id = write_graph6(ctx.g)
    out = []
    for tid in theorem_ids:
        if tid not in GRAPH_THEOREMS:
            if tid in GRID_THEOREMS:
                raise ValueError(f"{tid!r} is a construction-grid theorem; use run_grid")
            raise ValueError(f"unknown theorem id {tid!r}")
        gate, check = GRAPH_THEOREMS[tid]
        t0 = time.perf_counter()
        if not gate(ctx):
            out.append(
                TheoremVerdict(tid, graph_id, False, True, None, time.perf_counter() - t0)
            )
            continue
        holds, witness = check(ctx)
        out.append(
            TheoremVerdict(
                tid, graph_id, True, holds, witness if not holds else None,
                time.perf_counter() - t0,
            )
        )
    return out


def run_grid(theorem_id: str, bounds: dict | None = None) -> list[TheoremVerdict]:
    """Evaluate one construction-grid theorem over its (bounded) grid."""
    if theorem_id not in GRID_THEOREMS:
        if theorem_id in GRAPH_THEOREMS:
            raise ValueError(f"{theorem_id!r} is a per-graph theorem; use run_suite")
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    out = []
    t0 = time.perf_counter()
    for g, holds, witness in GRID_THEOREMS[theorem_id](bounds or {}):
        out.append(
            TheoremVerdict(
                theorem_id, write_graph6(g), True, holds, None if holds else witness,
                time.perf_counter() - t0,
            )
        )
        t0 = time.perf_counter()  # the next grid point starts here
    return out


# ---------------------------------------------------------------------------
# catalog survey
# ---------------------------------------------------------------------------


# a plain class for the same reason as TheoremVerdict
class SurveyReport:
    """A survey in progress.  Iterating it yields one record per graph, in
    input order, and folds each record into the counters below, which are
    final once the iteration ends."""

    def __init__(self):
        self.aggregates = {}    # per-order counters
        self.failures = []      # verdicts of proven theorems that failed
        self.parse_errors = []  # (line_number, message)
        self.graphs = 0
        self.elapsed = 0.0
        self._records = iter(())

    def __iter__(self) -> Iterator[dict]:
        return self._records

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "aggregates": self.aggregates,
            "failures": self.failures,
            "parse_errors": [
                {"line": line, "message": msg} for line, msg in self.parse_errors
            ],
            "graphs": self.graphs,
            "elapsed": self.elapsed,
        }

    def _fold(self, record: dict):
        self.graphs += 1
        rep = record["report"]
        counted = {
            "graphs": True,
            "well_covered": rep["well_covered"],
            "very_well_covered": rep["very_well_covered"],
            "one_well_covered": rep["one_well_covered"],
            "w2": rep["w_level"] >= 2,
            "w3": rep["w_level"] >= 3,
        }
        agg = self.aggregates.setdefault(rep["n"], dict.fromkeys(counted, 0))
        for key, flag in counted.items():
            agg[key] += int(flag)
        for verdict in record["verdicts"]:
            if verdict["applicable"] and not verdict["holds"]:
                self.failures.append(verdict)


def _survey_one(k_max: int, item) -> dict:
    line_number, g = item
    ctx = GraphContext(g)
    return {
        "line": line_number,
        "report": class_report(ctx, k_max).to_json_dict(),
        "verdicts": [v.to_json_dict() for v in run_suite(ctx)],
    }


def survey_catalog(
    lines,
    k_max: int = 3,
    connected: bool = False,
    strict: bool = False,
    jobs: int = 1,
) -> SurveyReport:
    """Classify and theorem-check every graph of a stream of graph6 lines or
    ``Graph`` objects.

    Nothing is read until the returned report is iterated; it then yields
    one record per graph in input order, each as soon as it is ready, so
    memory does not grow with the stream.  ``connected`` skips disconnected
    graphs.  A line number counts every item of the stream, a ``Graph``
    included.  Parse failures are recorded with their line numbers and skipped,
    unless ``strict``: then the records before the first malformed line come
    out and the iteration raises ``Graph6Error``.  ``jobs`` > 1 spreads the
    per-graph work over that many worker processes, capped at the CPUs the
    process may use, without changing the records; the workers start only
    once the survey has run serially for ``POOL_AFTER_S`` (about 0.5 s), so
    a short survey starts none.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    report = SurveyReport()
    report._records = _survey_stream(report, lines, k_max, connected, strict, jobs)
    return report


# A survey with jobs > 1 hands the rest of its stream to the worker pool only
# after computing records serially for this many seconds.  Importing
# multiprocessing and its pool and forking two workers takes 20-30 ms, and
# each graph and record then crosses a pipe, while one order-8 or order-9
# graph takes 0.5-0.9 ms (in-process, 2-vCPU Xeon).  So the benchmark's
# 240-graph verify ran barely faster at --jobs 2 than at --jobs 1 (pool
# speed-up 0.95-1.11) and spent more CPU time.  Half a second of serial work
# makes that start-up a few per cent of any run that reaches the pool, and a
# long run gives up at most half a second of parallel work.
POOL_AFTER_S = 0.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _survey_stream(report, lines, k_max, connected, strict, jobs):
    t0 = time.perf_counter()
    work = _read_graphs(lines, connected, None if strict else report.parse_errors)
    survey_one = partial(_survey_one, k_max)
    jobs = min(jobs, _usable_cpus())
    for item in work:
        record = survey_one(item)
        report._fold(record)
        yield record
        if jobs > 1 and time.perf_counter() - t0 >= POOL_AFTER_S:
            for record in _pooled(survey_one, work, jobs):
                report._fold(record)
                yield record
            break
    report.aggregates = {n: report.aggregates[n] for n in sorted(report.aggregates)}
    report.elapsed = time.perf_counter() - t0


def _pooled(survey_one, work, jobs):
    """The records of the rest of ``work``, in order, from ``jobs`` worker
    processes; an input that has ended starts none."""
    first = next(work, None)
    if first is None:
        return
    import multiprocessing  # about 20 ms of start-up that short surveys skip

    stopped = []  # the strict-mode parse error that ended the input
    with multiprocessing.Pool(jobs) as pool:
        # the pool reads its input on a thread of its own and would drop
        # the records of a partly read chunk if that read raised, so the
        # error is held back until the records before it are out
        items = _until_parse_error(chain([first], work), stopped)
        yield from pool.imap(survey_one, items, chunksize=16)
    if stopped:
        raise stopped[0]


def _until_parse_error(items, stopped: list):
    try:
        yield from items
    except Graph6Error as exc:
        stopped.append(exc)
