import os
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings

from wellcover import catalog as cat
from wellcover.classify import GraphContext
from wellcover.constructions import concatenate, corona_uniform
from wellcover.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    mask_of,
    path,
)
from wellcover.independence import (
    _wc_scan,
    can_match_into,
    differential_of_graph,
    has_k_disjoint_maximum_independent_sets,
    independence_number,
    maximal_independent_sets,
    maximum_independent_sets,
    maximum_matching_size,
)

from conftest import disjoint_union, graphs, relabelled_random_graphs
from oracles import (
    _independent_subsets,
    _neighborhood,
    berge_by_matching,
    differential_by_frontier_dp,
    differential_by_subsets,
    epsilon_by_supersets,
    is_independent,
    matching_size_brute_force,
    roman_domination_number,
    well_covered_by_enumeration,
)


def all_subsets_maximal(g):
    """Oracle: filter every subset for maximal independence."""
    ind = [m for m in range(1 << g.n) if is_independent(g, m)]
    ind_set = set(ind)
    out = [
        m
        for m in ind
        if all(m | (1 << v) not in ind_set for v in range(g.n) if not m >> v & 1)
    ]
    return sorted(out)


class TestMaximalIndependentSets:
    def test_matches_subset_filter_on_catalog(self, catalog_by_n):
        for n, graphs_n in catalog_by_n.items():
            for g in graphs_n:
                assert maximal_independent_sets(g) == all_subsets_maximal(g)

    def test_c5(self):
        sets = maximal_independent_sets(cycle(5))
        assert len(sets) == 5 and all(s.bit_count() == 2 for s in sets)

    def test_triangle(self):
        assert maximal_independent_sets(complete(3)) == [1, 2, 4]

    def test_p6_mixed_sizes(self):
        sizes = {s.bit_count() for s in maximal_independent_sets(path(6))}
        assert sizes == {2, 3}

    def test_empty_graph_has_empty_maximal_set(self):
        assert maximal_independent_sets(empty_graph(0)) == [0]


class TestWellCoveredScan:
    """The greedy pass and the enumeration that stops at the first set of
    another size decide what enumerating every maximal independent set
    decides."""

    def test_matches_enumeration_on_catalog_to_order_8(self):
        for n in range(9):
            for adj in cat._level_adj(n):
                full = (1 << n) - 1
                assert _wc_scan(adj, full) == well_covered_by_enumeration(adj, full), adj

    def test_matches_enumeration_on_vertex_deletions_to_order_7(self):
        for n in range(1, 8):
            for adj in cat._level_adj(n):
                full = (1 << n) - 1
                for v in range(n):
                    mask = full ^ (1 << v)
                    assert _wc_scan(adj, mask) == well_covered_by_enumeration(adj, mask)

    def test_examples(self):
        assert _wc_scan(cycle(5).adj, 0b11111) == (True, 2)
        assert _wc_scan(path(4).adj, 0b1111) == (True, 2)
        assert _wc_scan(path(3).adj, 0b111) == (False, None)
        assert _wc_scan(path(3).adj, 0) == (True, 0)


class TestAlphaAndProfile:
    def test_values(self):
        assert independence_number(cycle(7)) == 3
        assert independence_number(complete_bipartite(2, 3)) == 3
        assert independence_number(concatenate(complete(2), cycle(4), 0)) == 4

    @given(graphs())
    @settings(max_examples=150)
    def test_alpha_and_omega_invariants(self, g):
        maximal = maximal_independent_sets(g)
        alpha = independence_number(g)
        assert alpha == max(s.bit_count() for s in maximal)
        assert len(set(maximal)) == len(maximal)
        omega = maximum_independent_sets(g)
        assert omega and all(s.bit_count() == alpha for s in omega)
        assert omega == [s for s in maximal if s.bit_count() == alpha]

    def test_maximum_sets_subset_of_maximal(self):
        g = path(6)
        maximal = set(maximal_independent_sets(g))
        assert all(s in maximal for s in maximum_independent_sets(g))


class TestIsIndependent:
    def test_basics(self):
        g = cycle(5)
        assert is_independent(g, 0)
        assert is_independent(g, mask_of([0, 2]))
        assert not is_independent(g, mask_of([0, 1]))


class TestDifferential:
    def test_graph_values(self):
        assert differential_of_graph(cycle(7)) == 2
        assert differential_of_graph(cycle(9)) == 3

    def test_matches_naive_scan(self, catalog_by_n):
        for n in range(9):
            graphs_n = catalog_by_n[n] if n in catalog_by_n else cat.all_graphs(n)
            for g in graphs_n:
                expected = differential_by_subsets(g)
                assert differential_of_graph(g) == expected, g
                assert differential_by_frontier_dp(g) == expected, g

    def test_matches_full_dp_on_larger_graphs(self):
        # the DP without its take-step rule, on K_{p,q} for p <= q <= 9 (the
        # take-step rule cuts most states there), on sparse shapes of order
        # 30-60 and on random graphs too large for the subset scan to sweep
        def grid(rows, cols):
            return Graph(rows * cols, [
                (r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)
            ] + [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)])

        moebius = Graph(30, [(i, (i + 1) % 30) for i in range(30)] + [(i, i + 15) for i in range(15)])
        shapes = [complete_bipartite(p, q) for p in range(1, 10) for q in range(p, 10)]
        shapes += [cycle(n) for n in range(30, 61)] + [path(40), grid(5, 6), moebius]
        for g in shapes + list(relabelled_random_graphs(20261020, 200, 10, 16)):
            assert differential_of_graph(g) == differential_by_frontier_dp(g), g.adj
        for n in range(30, 61):
            assert differential_of_graph(cycle(n)) == n // 3
        assert differential_of_graph(path(40)) == 40 // 3

    def test_matches_subset_scan_on_relabeled_random_graphs(self):
        # shuffled labels, so the DP meets vertex orders unrelated to the
        # labeling
        rng = random.Random(20261018)
        for n in range(9, 21):
            for _ in range(3):
                p = rng.choice((0.1, 0.2, 0.35, 0.5))
                perm = list(range(n))
                rng.shuffle(perm)
                edges = [
                    (perm[u], perm[v])
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < p
                ]
                g = Graph(n, edges)
                assert differential_of_graph(g) == differential_by_subsets(g), g

    def test_relabeled_long_cycle_is_fast(self):
        # taken in label order, this relabeled C40 peaks at 3.7 million
        # states (about 12 s); the min-growth order keeps a handful
        perm = list(range(40))
        random.Random(7).shuffle(perm)
        g = Graph(40, [(perm[i], perm[(i + 1) % 40]) for i in range(40)])
        t0 = time.perf_counter()
        assert differential_of_graph(g) == 40 // 3
        assert time.perf_counter() - t0 < 0.5

    def test_equals_order_minus_roman_domination(self, catalog_by_n):
        # the differential is n - gamma_R (Bermudo, Fernau & Sigarreta 2014),
        # checked against a brute-force Roman domination number; order 8
        # (about 15 s more) runs with WELLCOVER_ACCEPT_N8=1
        max_n = 8 if os.environ.get("WELLCOVER_ACCEPT_N8") == "1" else 7
        for n in range(1, max_n + 1):
            graphs_n = catalog_by_n[n] if n in catalog_by_n else cat.all_graphs(n)
            for g in graphs_n:
                assert differential_of_graph(g) == n - roman_domination_number(g), g

    def test_order_25_values(self):
        assert differential_of_graph(empty_graph(25)) == 0
        assert differential_of_graph(cycle(25)) == 8
        # K_{p,q}: max(max(p, q) - 1, p + q - 4), see "Decisions" in README.md
        for p in range(1, 14):
            for q in range(p, 14):
                expected = max(q - 1, p + q - 4)
                assert differential_of_graph(complete_bipartite(p, q)) == expected, (p, q)
        assert differential_of_graph(complete_bipartite(12, 13)) == 21


class TestMatching:
    def test_values(self):
        assert maximum_matching_size(cycle(5)) == 2
        assert maximum_matching_size(complete(4)) == 2
        assert maximum_matching_size(disjoint_union([complete(3), complete(2)])) == 2

    def test_matches_brute_force_on_catalog(self, catalog_by_n):
        for n in range(7):
            for g in catalog_by_n[n]:
                assert maximum_matching_size(g) == matching_size_brute_force(g)

    def test_greedy_start_is_augmented(self):
        # the path 2 - 0 - 1 - 3: the greedy start takes the middle edge 01,
        # and the search augments along the whole path
        assert maximum_matching_size(Graph(4, [(0, 1), (0, 2), (1, 3)])) == 2

    @given(graphs(max_n=12))
    @settings(max_examples=120, deadline=None)
    def test_matches_networkx(self, g):
        G = nx.empty_graph(g.n)
        G.add_edges_from(g.edges())
        expected = len(nx.max_weight_matching(G, maxcardinality=True))
        assert maximum_matching_size(g) == expected


class TestCanMatchInto:
    def test_examples(self):
        c4 = cycle(4)
        assert can_match_into(c4, mask_of([1]), mask_of([0, 2]))
        assert can_match_into(c4, 0, mask_of([1]))
        star = complete_bipartite(1, 3)
        assert not can_match_into(star, mask_of([1, 2]), mask_of([0]))

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            can_match_into(cycle(4), mask_of([0]), mask_of([0, 2]))

    def test_berge_criterion_exhaustive(self, catalog_by_n):
        # an independent set is maximum iff every disjoint independent set
        # can be matched into it (checked exhaustively for n <= 7)
        for n in range(8):
            for g in catalog_by_n[n]:
                ctx = GraphContext(g)
                assert list(ctx.ind) == _independent_subsets(g)
                assert all(ns == _neighborhood(g, s) for s, ns in ctx.ind.items())
                assert berge_by_matching(ctx) == (True, None), g


class TestDisjointMaximumSets:
    def test_c7_two(self):
        ok, witness = has_k_disjoint_maximum_independent_sets(cycle(7), 2)
        assert ok and witness[0] & witness[1] == 0

    def test_c5_not_three(self):
        ok, witness = has_k_disjoint_maximum_independent_sets(cycle(5), 3)
        assert not ok and witness is None

    def test_p2_corona_k2_three(self):
        g = corona_uniform(path(2), complete(2))
        assert has_k_disjoint_maximum_independent_sets(g, 3)[0]

    def test_empty_graph_every_k(self):
        assert has_k_disjoint_maximum_independent_sets(empty_graph(0), 5)[0]

    def test_k_validation(self):
        with pytest.raises(ValueError):
            has_k_disjoint_maximum_independent_sets(cycle(5), 0)


class TestEnlargementCharacterizesWellCovered:
    def test_constant_enlargement_iff_well_covered(self, catalog_by_n):
        # a graph is well-covered exactly when every independent set enlarges
        # to the full independence number
        from wellcover.classify import is_well_covered

        for n in range(7):
            for g in catalog_by_n[n]:
                alpha = independence_number(g)
                constant = all(
                    epsilon_by_supersets(g, a) == alpha
                    for a in range(1 << g.n)
                    if is_independent(g, a)
                )
                assert constant == is_well_covered(g)
