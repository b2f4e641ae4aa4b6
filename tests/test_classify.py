import os
import random

import pytest

from wellcover import catalog as cat
from wellcover import classify
from wellcover.constructions import CoronaFamily, concatenate, corona_blocks, corona_uniform
from wellcover.graph import (
    Graph,
    complement,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    iter_bits,
    mask_of,
    path,
    vertices_of,
)
from wellcover.classify import (
    GraphContext,
    _in_w_mask,
    check_wk_monotonicity,
    class_report,
    is_in_w,
    is_locally_triangle_free,
    is_one_well_covered,
    is_quasi_regularizable,
    is_regularizable,
    is_simplicial_graph,
    is_very_well_covered,
    is_well_covered,
    shedding_vertices,
    simplex_partition,
    simplicial_vertices,
    w_convention_disagreements,
    w_level,
)
from wellcover.independence import _alpha, _wc_scan

from conftest import disjoint_union, relabelled_random_graphs
from oracles import (
    _is_corona_of,
    _nbhd,
    in_w_by_deletions,
    is_in_w_generic,
    is_independent,
    is_shedding,
    maximum_independent_sets_by_subsets,
    regularizability_by_subsets,
    regularizability_by_walk,
    w_member_by_families,
    wk_monotonicity_by_subsets,
)


class TestWellCovered:
    def test_cycle_census(self):
        assert [n for n in range(3, 13) if is_well_covered(cycle(n))] == [3, 4, 5, 7]

    def test_k1_and_p6(self):
        assert is_well_covered(complete(1))
        assert not is_well_covered(path(6))

    def test_empty_graph_vacuously(self):
        assert is_well_covered(empty_graph(0))


class TestVeryWellCovered:
    def test_c4_unique_very_well_covered_cycle(self):
        assert [n for n in range(3, 13) if is_very_well_covered(cycle(n))] == [4]

    def test_p4(self):
        assert is_very_well_covered(path(4))
        assert not is_one_well_covered(path(4))

    def test_isolated_vertices_disqualify(self):
        assert not is_very_well_covered(disjoint_union([complete(2), complete(1)]))


class TestOneWellCovered:
    def test_k2(self):
        assert is_one_well_covered(complete(2))

    def test_isolated_vertex_allowed(self):
        assert is_one_well_covered(disjoint_union([complete(3), complete(1)]))

    def test_small_orders_excluded(self):
        assert not is_one_well_covered(complete(1))
        assert not is_one_well_covered(empty_graph(0))


class TestHierarchy:
    def test_complete_graphs_reach_their_level(self):
        for k in range(1, 5):
            assert is_in_w(complete(k), k)

    def test_empty_graph_in_every_level(self):
        assert is_in_w(empty_graph(0), 4)

    def test_isolated_vertices_break_level_two(self):
        assert not is_in_w(disjoint_union([complete(3), complete(1)]), 2)

    def test_concatenation_of_edge_and_c5(self):
        g = concatenate(complete(2), cycle(5), 0)
        assert is_in_w(g, 1)
        assert not is_in_w(g, 2)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            is_in_w(cycle(5), 0)

    def test_deletion_recursion_equals_generic_to_order_eight(self):
        # every graph of order <= 8 (40,797 pairs with k in 2..4)
        for n in range(9):
            for g in cat.all_graphs(n):
                for k in (2, 3, 4):
                    assert is_in_w(g, k) == is_in_w_generic(g, k), (g.adj, k)

    def test_w_level_matches_generic_levels(self, catalog_by_n):
        for n in range(8):
            for g in catalog_by_n[n]:
                expected = 0
                for k in (1, 2, 3, 4):
                    if not is_in_w_generic(g, k):
                        break
                    expected = k
                assert w_level(g, 4) == expected, g.adj

    def test_levels_at_analyze_sizes(self):
        # orders 15 and 22, the sizes the analyze command is run on
        corona = corona_uniform(path(5), complete(2))
        assert w_level(corona, 3) == 2
        assert not is_in_w_generic(corona, 3)
        concat = concatenate(path(3), complete(5), 0)
        assert concat.n == 15
        assert w_level(concat, 3) == 3
        assert is_in_w_generic(concat, 3)
        # G o K4 sits at level 4 exactly; the generic checker agrees at k = 4
        # but needs several seconds there
        assert w_level(concat, 5) == 4
        assert w_level(cycle(22), 3) == 0

    def test_chain_property(self, catalog_by_n):
        for g in catalog_by_n[6]:
            levels = [is_in_w(g, k) for k in (1, 2, 3, 4)]
            for weaker, stronger in zip(levels, levels[1:]):
                assert not stronger or weaker

    def test_w_level(self):
        assert w_level(cycle(5), 3) == 2
        assert w_level(path(6), 3) == 0
        assert w_level(complete(4), 4) == 4

    def test_convention_disagreements(self):
        assert w_convention_disagreements(complete(1), 3) == [2, 3]
        assert w_convention_disagreements(complete(2), 3) == [3]
        assert w_convention_disagreements(cycle(5), 3) == []


class TestLevelTwoRule:
    """Level 2 by the shedding rule (well-covered, no isolated vertex, every
    vertex shedding), and the levels above it that recurse down to it,
    against Staples' recursion run down to level 1
    (``oracles.in_w_by_deletions``)."""

    def test_catalog_to_order_eight(self):
        # the context reads level 2 of the graph from ctx.shed; is_in_w and
        # the deletions of levels 3 and 4 scan each mask for its maximal sets
        for n in range(9):
            for g in cat.all_graphs(n):
                want = tuple(in_w_by_deletions(g, k) for k in (2, 3, 4))
                assert GraphContext(g).w_levels[1:] == want, g.adj
                assert is_in_w(g, 2) == want[0], g.adj

    def test_level_one_memoized_first(self, catalog_by_n):
        # a mask whose level-1 answer is already memoized enumerates its
        # maximal sets for the rule
        for n in range(7):
            for g in catalog_by_n[n]:
                memo: dict = {}
                _in_w_mask(g.adj, g.full_mask, 1, memo)
                assert _in_w_mask(g.adj, g.full_mask, 2, memo) == in_w_by_deletions(g, 2)

    def test_coronas_of_order_twenty_to_thirty(self):
        # each corona, then the same graph with one edge more between two
        # attachment blocks, or with the first block cut from its base vertex
        rng = random.Random(29)
        cases = [(cycle(10), 1), (path(13), 1), (path(7), 2), (cycle(8), 2),
                 (cycle(5), 3), (complete(4), 4)]
        for order, m in ((10, 1), (12, 1), (7, 2), (8, 2), (5, 3), (4, 4)):
            pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
            cases.append((Graph(order, [e for e in pairs if rng.random() < 0.4]), m))
        for base, m in cases:
            g = corona_uniform(base, complete(m))
            assert 20 <= g.n <= 30
            edges = g.edges()
            for h in (g, Graph(g.n, edges + [(base.n, g.n - 1)]),
                      Graph(g.n, [e for e in edges if e != (0, base.n)])):
                for k in (2, 3):
                    assert is_in_w(h, k) == in_w_by_deletions(h, k), (h.adj, k)


def naive_is_shedding(g, v):
    """Oracle straight from the definition, over every independent set."""
    if not 0 <= v < g.n:
        raise ValueError(v)
    rest = g.full_mask & ~(g.adj[v] | (1 << v))
    for s in range(1 << g.n):
        if s & ~rest or not is_independent(g, s):
            continue
        if not any(
            is_independent(g, s | (1 << u)) for u in iter_bits(g.adj[v])
        ):
            return False
    return True


class TestShedding:
    def test_paper_table(self):
        assert shedding_vertices(path(4)) == mask_of([1, 2])
        assert shedding_vertices(cycle(4)) == 0
        for k in range(6, 13):
            assert shedding_vertices(cycle(k)) == 0
        assert shedding_vertices(cycle(3)) == cycle(3).full_mask
        assert shedding_vertices(cycle(5)) == cycle(5).full_mask
        assert shedding_vertices(path(3)).bit_count() == 1

    def test_dominating_vertex_sheds(self):
        assert is_shedding(complete_bipartite(1, 3), 0)

    def test_isolated_never_sheds(self):
        g = disjoint_union([complete(1), complete(2)])
        assert not is_shedding(g, 0)

    def test_matches_naive_definition(self, catalog_by_n):
        for n in range(7):
            for g in catalog_by_n[n]:
                for v in range(g.n):
                    assert is_shedding(g, v) == naive_is_shedding(g, v)


class TestSheddingByDomination:
    """A vertex u with a neighbor v such that N[v] is inside N[u] is
    shedding; ``_shed_by_domination`` finds such an edge."""

    @staticmethod
    def check(g):
        marked = classify._shed_by_domination(g.adj)
        dominating = [
            sum(1 << u for u in iter_bits(g.adj[v]) if not g.adj[v] & ~(g.adj[u] | 1 << u))
            for v in range(g.n)
        ]
        assert marked == next(filter(None, dominating), 0), g.adj
        rule = 0
        for mask in dominating:
            rule |= mask
        assert all(is_shedding(g, u) for u in iter_bits(rule)), g.adj

    def test_catalog_to_order_eight(self):
        for n in range(9):
            for g in cat.all_graphs(n):
                self.check(g)

    def test_random_graphs_of_order_nine_to_fourteen(self):
        for g in relabelled_random_graphs(27, 200, 9, 14):
            self.check(g)

    def test_small_cases(self):
        assert classify._shed_by_domination(empty_graph(3).adj) == 0
        assert classify._shed_by_domination(complete(3).adj) == mask_of([1, 2])
        # in P4 the leaf 0 is dominated by vertex 1; C4 and C5 have no
        # dominated vertex, though every vertex of C5 is shedding
        assert classify._shed_by_domination(path(4).adj) == mask_of([1])
        assert classify._shed_by_domination(cycle(4).adj) == 0
        assert classify._shed_by_domination(cycle(5).adj) == 0


class TestSharedEnumeration:
    """A successful level-1 test of the whole graph keeps the maximal sets
    its scan enumerated as the context's ``maximal``."""

    @staticmethod
    def check(g):
        ctx = GraphContext(g)
        if ctx.in_w(1):
            assert ctx.__dict__["maximal"] == list(
                classify._iter_maximal_independent(g.adj, g.full_mask)
            ), g.adj
        else:
            assert "maximal" not in ctx.__dict__, g.adj
        return ctx

    def test_catalog_to_order_seven(self, catalog_by_n):
        graphs = [g for graphs_n in catalog_by_n.values() for g in graphs_n]
        kept = sum("maximal" in self.check(g).__dict__ for g in graphs)
        assert kept == sum(map(is_well_covered, graphs))

    def test_corona(self):
        ctx = self.check(corona_uniform(cycle(5), complete(2)))
        assert "maximal" in ctx.__dict__

    def test_failed_scan_keeps_no_partial_list(self, monkeypatch):
        # this graph passes the greedy pass, so the scan enumerates two
        # maximal sets before it meets one of another size
        edges = [(0, 1), (1, 3), (2, 5), (2, 6), (3, 4), (3, 7), (4, 5), (4, 7), (5, 6), (5, 7)]
        g = Graph(8, edges)
        seen = []
        scan = classify._wc_scan
        monkeypatch.setattr(
            classify, "_wc_scan", lambda adj, mask, sets: seen.append(sets) or scan(adj, mask, sets)
        )
        ctx = self.check(g)
        assert not ctx.well_covered and len(seen[0]) == 2
        assert ctx.maximal == list(classify._iter_maximal_independent(g.adj, g.full_mask))


class TestOneListOfMaximalSets:
    """alpha, Omega and the shedding vertices of a context all come from
    its one list of maximal independent sets; each is checked against a
    routine that does not read that list."""

    @staticmethod
    def check(g, omega_oracle=maximum_independent_sets_by_subsets):
        ctx = GraphContext(g)
        assert ctx.shed == sum(1 << v for v in range(g.n) if is_shedding(g, v)), g
        assert ctx.alpha == _alpha(g.adj, g.full_mask), g
        assert ctx.omega == omega_oracle(g), g
        # alpha is seeded into the level memo that in_w and alpha_of read
        assert ctx.alpha_of(ctx.full) == ctx.alpha
        return ctx

    def test_catalog_to_order_eight(self):
        checked = 0
        for n in range(9):
            for g in cat.all_graphs(n):
                self.check(g)
                checked += 1
        assert checked == 13_599

    def test_random_graphs_of_order_nine_to_fourteen(self):
        for g in relabelled_random_graphs(24, 40, 9, 14):
            self.check(g)

    def test_shedding_vertices_reads_the_context(self):
        for g in relabelled_random_graphs(25, 20, 1, 10):
            ctx = GraphContext(g)
            assert shedding_vertices(g) == shedding_vertices(ctx) == ctx.shed

    def test_analyze_shapes(self):
        evens = sum(1 << v for v in range(0, 22, 2))
        self.check(cycle(22), lambda g: [evens, evens << 1])
        self.check(path(21), lambda g: [sum(1 << v for v in range(0, 21, 2))])
        self.check(complete_bipartite(12, 13), lambda g: [((1 << 13) - 1) << 12])
        # in G o K2 each triangle block gives one vertex to a maximum set, a
        # base vertex only where the chosen base vertices are independent
        base = cycle(5)
        count = sum(
            2 ** (base.n - s.bit_count()) for s in range(1 << base.n) if is_independent(base, s)
        )
        g = corona_uniform(base, complete(2))
        ctx = self.check(g, lambda g: GraphContext(g).omega)
        assert ctx.alpha == base.n and len(ctx.omega) == count
        assert all(is_independent(g, s) for s in ctx.omega)


class TestSimplicial:
    def test_cycles_have_none(self):
        for n in range(4, 9):
            assert simplicial_vertices(cycle(n)) == 0

    def test_complete_graphs_all(self):
        assert simplicial_vertices(complete(5)) == complete(5).full_mask

    def test_p4_leaves(self):
        assert simplicial_vertices(path(4)) == mask_of([0, 3])

    def test_simplicial_graph_and_partition(self):
        assert is_simplicial_graph(path(4))
        assert not is_simplicial_graph(cycle(5))
        assert simplex_partition(path(4)) == [mask_of([0, 1]), mask_of([2, 3])]
        assert simplex_partition(path(3)) is None
        assert simplex_partition(complete(3)) == [mask_of([0, 1, 2])]
        ctx = GraphContext(path(4))
        assert is_simplicial_graph(ctx)
        assert simplex_partition(ctx) == ctx.simplexes == [mask_of([0, 1]), mask_of([2, 3])]

    def test_partition_iff_simplicial_and_well_covered(self, catalog_by_n):
        for n in range(7):
            for g in catalog_by_n[n]:
                if g.n == 0:
                    continue
                lhs = simplex_partition(g) is not None
                assert lhs == (is_simplicial_graph(g) and is_well_covered(g))

    def test_paths_simplicial_up_to_four(self):
        assert [n for n in range(1, 8) if is_simplicial_graph(path(n))] == [1, 2, 3, 4]


class TestCliqueCorona:
    def test_matches_oracle_on_catalog(self, catalog_by_n):
        for graphs_n in catalog_by_n.values():
            for g in graphs_n:
                ctx = GraphContext(g)
                for m in (1, 2, 3):
                    assert ctx.clique_corona(m) == _is_corona_of(g, complete(m)), (g.adj, m)

    def test_relabelled_coronas_and_a_cross_edge(self):
        # H o K_m for a connected H of order >= 2 is recognised under any
        # labelling; one edge between attached vertices of two blocks leaves
        # both blocks with m - 1 vertices whose closed neighborhood they are
        rng = random.Random(20261019)
        for _ in range(300):
            m = rng.randint(1, 3)
            k = rng.randint(2, 20 // (m + 1))
            edges = {(rng.randrange(v), v) for v in range(1, k)}
            edges |= {(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.3}
            base = Graph(k, edges)
            g = corona_uniform(base, complete(m))
            blocks = corona_blocks(CoronaFamily(base, (complete(m),) * k))
            i, j = rng.sample(range(k), 2)
            cross = (rng.choice(blocks[i]), rng.choice(blocks[j]))
            perm = list(range(g.n))
            rng.shuffle(perm)
            relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            crossed = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges() + [cross]])
            assert GraphContext(relabelled).clique_corona(m), (base.adj, m)
            assert not GraphContext(crossed).clique_corona(m), (base.adj, m, cross)

    def test_small_cases(self):
        assert GraphContext(complete(2)).clique_corona(1)
        assert GraphContext(complete(3)).clique_corona(2)
        assert not GraphContext(empty_graph(0)).clique_corona(1)
        assert not GraphContext(path(3)).clique_corona(1)
        with pytest.raises(ValueError):
            GraphContext(path(2)).clique_corona(0)


class TestRegularizability:
    def test_quasi_examples(self):
        assert is_quasi_regularizable(cycle(7))
        assert not is_quasi_regularizable(complete(1))
        assert not is_quasi_regularizable(complete_bipartite(1, 3))

    def test_well_covered_without_isolated_is_quasi(self, catalog_by_n):
        for n in range(7):
            for g in catalog_by_n[n]:
                if g.n and all(g.adj) and is_well_covered(g):
                    assert is_quasi_regularizable(g)

    def test_regularizable_examples(self):
        for k in range(2, 6):
            assert is_regularizable(cycle(2 * k + 1))
        assert is_regularizable(complete(2))
        assert not is_regularizable(path(3))

    def test_one_walk_matches_the_definitions(self, catalog_by_n):
        for n in range(8):
            for g in catalog_by_n[n]:
                ctx = GraphContext(g)
                want = regularizability_by_subsets(g)
                assert ctx.regularizability == want, g
                assert (is_quasi_regularizable(ctx), is_regularizable(g)) == want, g

    def test_matching_equals_the_walk_on_catalog(self):
        for n in range(9):
            for g in cat.all_graphs(n):
                assert GraphContext(g).regularizability == regularizability_by_walk(g), g.adj

    def test_matching_equals_the_walk_on_random_graphs(self):
        for g in relabelled_random_graphs(2901, 300, 10, 16):
            assert GraphContext(g).regularizability == regularizability_by_walk(g), g.adj

    def test_closed_forms_beyond_the_walk(self):
        # cycles are regular; P_n has a perfect 2-matching iff n is even, and
        # every positive weighting of a path longer than P2 is uneven at its
        # second vertex; K_{p,q} has none unless p = q, and then is regular
        for n in range(3, 41):
            assert GraphContext(cycle(n)).regularizability == (True, True), n
        for n in range(1, 41):
            assert GraphContext(path(n)).regularizability == (n % 2 == 0, n == 2), n
        for p in range(1, 13):
            for q in range(1, 13):
                want = (p == q, p == q)
                assert GraphContext(complete_bipartite(p, q)).regularizability == want, (p, q)


class TestLocallyTriangleFree:
    def test_triangle_free_graphs_qualify(self):
        assert is_locally_triangle_free(cycle(7))
        assert is_locally_triangle_free(path(6))

    def test_cycle_complement(self):
        assert is_locally_triangle_free(complement(cycle(7)))

    def test_two_triangles_fail(self):
        assert not is_locally_triangle_free(disjoint_union([cycle(3), cycle(3)]))


class TestMonotonicity:
    def test_level_one_always_holds(self, catalog_by_n):
        for g in catalog_by_n[5]:
            assert check_wk_monotonicity(g, 1) == (True, None)

    def test_c5_level_two(self):
        assert check_wk_monotonicity(cycle(5), 2) == (True, None)

    def test_witness_shape(self):
        ok, witness = check_wk_monotonicity(complete_bipartite(1, 3), 2)
        assert not ok
        a, b = witness
        assert a & ~b == 0 and is_independent(complete_bipartite(1, 3), b)

    def test_covering_pairs_match_the_subset_scan(self, catalog_by_n):
        # same verdict and same first failing B as comparing every subset
        for n in range(8):
            for g in catalog_by_n[n]:
                ctx = GraphContext(g)
                for k in (1, 2, 3):
                    ok, witness = check_wk_monotonicity(ctx, k)
                    want_ok, want = wk_monotonicity_by_subsets(g, k)
                    assert ok == want_ok, (g, k)
                    if not ok:
                        a, b = witness
                        assert b == want[1] and a & ~b == 0 and a != b, (g, k)
                        deficiency = [
                            _nbhd(g.adj, x).bit_count() - (k - 1) * x.bit_count()
                            for x in (a, b)
                        ]
                        assert deficiency[0] > deficiency[1], (g, k)


class TestClassReport:
    def test_c5(self):
        rep = class_report(cycle(5), 3)
        assert rep["w_level"] == 2
        assert rep["shed"] == vertices_of(cycle(5).full_mask)
        assert rep["simp"] == []
        assert rep["disjoint_mis_max"] == 2

    def test_k2(self):
        rep = class_report(complete(2), 3)
        assert rep["w_level"] >= 2 and rep["very_well_covered"]

    def test_p6(self):
        rep = class_report(path(6), 3)
        assert not rep["well_covered"] and rep["w_level"] == 0

    def test_disjoint_mis_max_against_combinations(self, catalog_by_n):
        # the most pairwise disjoint maximum independent sets, capped at 4,
        # against a scan of every combination of them
        from itertools import combinations

        from wellcover.independence import maximum_independent_sets

        for n in range(1, 8):
            for g in catalog_by_n[n]:
                omega = maximum_independent_sets(g)
                want = max(
                    j
                    for j in range(1, 5)
                    if any(
                        all(a & b == 0 for a, b in combinations(c, 2))
                        for c in combinations(omega, j)
                    )
                )
                assert GraphContext(g).disjoint_mis_max(4) == want, g

    def test_json_round_trip_fields(self):
        doc = class_report(cycle(4), 2).to_json_dict()
        assert doc["graph"] and doc["schema_version"] == 1
        assert doc["shed"] == [] and isinstance(doc["simp"], list)

    def test_report_invariants(self, catalog_by_n):
        # the empty graph sits in every level by convention yet is not
        # 1-well-covered (that notion needs >= 2 vertices), so it is exempt
        # from the second
        for n in range(0, 8):
            for g in catalog_by_n[n]:
                rep = class_report(g, 3)
                assert not rep["one_well_covered"] or rep["well_covered"], g
                if n > 0 and rep["w_level"] >= 2:
                    assert rep["one_well_covered"] and all(g.adj), g
                assert rep["well_covered"] == (rep["w_level"] >= 1), g
                assert rep["disjoint_mis_max"] >= min(rep["w_level"], 1), g

    def test_the_report_is_its_json_dict(self):
        rep = class_report(cycle(5), 3)
        assert rep.to_json_dict() is rep
        assert list(rep) == list(classify.REPORT_FIELDS)
        assert rep == classify.report_dict(cycle(5), 3)


class TestHierarchyOracle:
    """Third route: the definition itself (``oracles.w_member_by_families``),
    which finds the maximum independent sets by testing every vertex subset."""

    def test_three_routes_agree_on_random_graphs(self):
        import random

        rng = random.Random(424242)
        for _ in range(200):
            n = rng.randint(0, 6)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            g = Graph(n, edges)
            for k in (1, 2, 3):
                expected = w_member_by_families(g, k)
                assert is_in_w(g, k) == expected, (n, edges, k)
                assert is_in_w_generic(g, k) == expected, (n, edges, k)

    def test_three_routes_agree_on_catalog(self, catalog_by_n):
        for g in catalog_by_n[5]:
            for k in (1, 2, 3, 4):
                expected = w_member_by_families(g, k)
                assert is_in_w(g, k) == expected
                assert is_in_w_generic(g, k) == expected


class TestPrunedFamilyEnumeration:
    """``is_in_w_generic`` skips last members that cannot make a
    family-maximal tuple; the unpruned enumeration is the oracle."""

    def test_equals_unpruned_on_catalog(self, catalog_by_n):
        # k = 1..3 to order 7; k = 2 at order 8 (about 18 s more) runs with
        # WELLCOVER_ACCEPT_N8=1
        cases = [(g, k) for graphs_n in catalog_by_n.values() for g in graphs_n for k in (1, 2, 3)]
        if os.environ.get("WELLCOVER_ACCEPT_N8") == "1":
            cases += [(g, 2) for g in cat.all_graphs(8)]
        for g, k in cases:
            ctx = GraphContext(g)
            for nonempty in (False, True):
                assert is_in_w_generic(ctx, k, nonempty) == w_member_by_families(
                    g, k, nonempty
                ), (g.adj, k, nonempty)

    def test_equals_unpruned_on_larger_graphs(self):
        big = [path(16), cycle(14), corona_uniform(path(3), complete(2))]
        for g in big + list(relabelled_random_graphs(20261018, 8, 9, 12)):
            assert is_in_w_generic(g, 2) == w_member_by_families(g, 2), g.adj


class TestContextMemo:
    def test_memo_matches_kernels_to_order_six(self, catalog_by_n):
        # after the level recursion has filled the memo, every alpha and
        # level-1 answer read from it equals a fresh kernel call
        for n in range(7):
            for g in catalog_by_n[n]:
                ctx = GraphContext(g)
                ctx.w_levels
                for m in range(1 << n):
                    assert ctx.alpha_of(m) == _alpha(g.adj, m)
                    assert ctx.in_w(1, m) == _wc_scan(g.adj, m)[0]

    def test_members_have_alpha_memoized(self, catalog_by_n):
        # alpha is computed lazily, yet every mask the recursion found to be
        # a member, at any level, has its alpha in the memo: a level-k test
        # reads memo[G - v] after G - v passed at level k - 1
        small = [
            empty_graph(0), complete(1), empty_graph(2), empty_graph(4),
            disjoint_union([complete(1), cycle(5)]),
            disjoint_union([empty_graph(2), complete(3)]),
        ]
        for g in small + [g for n in range(8) for g in catalog_by_n[n]]:
            memo: dict = {}
            for k in (1, 2, 3, 4):
                _in_w_mask(g.adj, g.full_mask, k, memo)
            members = [key[0] for key, member in memo.items() if type(key) is tuple and member]
            for m in members:
                assert memo[m] == _alpha(g.adj, m), (g.adj, m)

    def test_first_failing_deletion_costs_no_alpha(self, monkeypatch):
        # P8 is not well-covered, and neither are P7, P6 and P5, the graphs
        # left by deleting its lowest vertices, so at every level k <= 4 the
        # first deletion already fails at level k - 1
        calls = []

        def counted(adj, mask):
            calls.append(mask)
            return _alpha(adj, mask)

        monkeypatch.setattr(classify, "_alpha", counted)
        ctx = GraphContext(path(8))
        assert ctx.w_levels == (False, False, False, False)
        assert calls == []


class TestConventionRecording:
    def test_matches_direct_computation(self, catalog_by_n):
        # the recorded disagreement levels (the closed form: levels k > n the
        # graph misses) equal the unshortcut comparison of the two readings,
        # on every graph of order <= 7 and every well-covered one of order 8
        graphs = [g for n in range(8) for g in catalog_by_n[n]]
        graphs += [g for g in cat.all_graphs(8) if is_well_covered(g)]
        for g in graphs:
            ctx = GraphContext(g)
            direct = [
                k
                for k in range(1, 9)
                if is_in_w_generic(ctx, k, nonempty=True) != is_in_w(g, k)
            ]
            assert direct == w_convention_disagreements(g, 8)
            assert all(k > g.n for k in direct)


class TestUnionFamilies:
    def test_matchings_of_edges_sit_at_level_two(self):
        # nK2 members have exactly 2*alpha vertices
        for n in range(1, 5):
            g = disjoint_union([complete(2)] * n)
            assert is_in_w(g, 2)
            assert g.n == 2 * independence_number_of(g)

    def test_odd_core_plus_matchings(self):
        # C5+nK2 and C3+nK2 members have exactly 2*alpha+1 vertices
        for core in (cycle(5), cycle(3)):
            for n in range(1, 4):
                g = disjoint_union([core] + [complete(2)] * n)
                assert is_in_w(g, 2)
                assert g.n == 2 * independence_number_of(g) + 1


def independence_number_of(g):
    from wellcover.independence import independence_number

    return independence_number(g)
