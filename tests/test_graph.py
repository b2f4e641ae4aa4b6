import math
import pickle
from itertools import permutations
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wellcover.catalog import certificate
from wellcover.graph import (
    Graph,
    Graph6Error,
    complement,
    complete,
    complete_bipartite,
    components,
    cycle,
    empty_graph,
    girth,
    is_bipartite,
    is_connected,
    mask_of,
    parse_graph6,
    path,
    write_graph6,
)

from wellcover import catalog as cat

from conftest import disjoint_union, graphs
from oracles import brute_force_canonical, parse_graph6_by_scan


def to_networkx(g):
    G = nx.empty_graph(g.n)
    G.add_edges_from(g.edges())
    return G


class TestGraph6:
    def test_k1_k2(self):
        assert write_graph6(complete(1)) == "@"
        assert write_graph6(complete(2)) == "A_"
        assert parse_graph6("A_").edges() == [(0, 1)]
        assert parse_graph6("@").n == 1

    def test_round_trip_example(self):
        assert write_graph6(parse_graph6("D?{")) == "D?{"

    def test_header_tolerated(self):
        assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")

    def test_empty_graph(self):
        assert write_graph6(empty_graph(0)) == "?"
        assert parse_graph6("?").n == 0

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("", "byte 0"),
            (">>sparse6<<A_", "byte 0"),
            ("B", "truncated"),
            ("A_?", "trailing"),
            ("A\x05", "byte 1"),
            ("D?\x05{", "^byte 2 out of graph6 range: '\\\\x05'$"),
            ("Aw", "padding"),
            ("Bx", "^nonzero padding bits at byte 1$"),
            ("~~~~~~", "long-form"),
        ],
    )
    def test_errors_name_offsets(self, line, fragment):
        with pytest.raises(Graph6Error, match=fragment):
            parse_graph6(line)

    @given(graphs())
    def test_round_trip(self, g):
        assert parse_graph6(write_graph6(g)) == g

    @given(graphs(max_n=12))
    def test_matches_networkx(self, g):
        ours = write_graph6(g)
        theirs = nx.to_graph6_bytes(to_networkx(g), header=False).decode().strip()
        assert ours == theirs

    def test_large_order_header(self):
        g = empty_graph(100)
        assert parse_graph6(write_graph6(g)).n == 100


MALFORMED_GRAPH6 = [
    "",
    "   ",
    ">>sparse6<<A_",
    ">>graph6<<",
    "B",
    "A_?",
    "A\x05",
    "D?\x05{",
    "D?{\x7f",
    "D?{\u00e9",
    ">>graph6<<D?\x05",
    "Aw",
    "Bx",
    "D?|",
    "~~~~~~",
    "~?",
    "~?A",
    "~?A_",
]


class TestGraph6Decoder:
    """``parse_graph6`` against the scan that reads every character and
    every bit (``oracles.parse_graph6_by_scan``)."""

    def test_every_catalog_line_up_to_7(self):
        for n in range(8):
            for adj in cat._level_adj(n):
                line = write_graph6(Graph._raw(n, adj))
                g = parse_graph6(line)
                assert g == parse_graph6_by_scan(line) and g.adj == adj

    def test_disk_levels_match_the_scan(self, tmp_path, monkeypatch, girth_levels):
        # the catalog's reader checks each line on bytes and decodes it
        # without parse_graph6; the girth levels reach order 10, and each is
        # read as a level of its own count
        levels = [cat._level_adj(n) for n in range(9)]
        levels += [level for g in (4, 5, 6) for level in girth_levels[g]]
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        for level in levels:
            n = len(level[0])
            counts = list(cat.KNOWN_GRAPH_COUNTS)
            counts[n] = len(level)
            monkeypatch.setattr(cat, "KNOWN_GRAPH_COUNTS", counts)
            cat._disk_store(n, level)
            lines = Path(cat._cache_path(n)).read_text().splitlines()
            assert list(cat._disk_rows(n)) == [parse_graph6_by_scan(line).adj for line in lines]

    @given(graphs(max_n=70))
    @example(Graph(70, [(0, 1), (5, 69), (68, 69)]))  # the '~' long form
    @settings(max_examples=150, deadline=None)
    def test_random_graphs(self, g):
        line = write_graph6(g)
        assert parse_graph6(line) == parse_graph6_by_scan(line) == g

    @pytest.mark.parametrize("line", MALFORMED_GRAPH6)
    def test_same_error_as_the_scan(self, line):
        with pytest.raises(Graph6Error) as want:
            parse_graph6_by_scan(line)
        with pytest.raises(Graph6Error) as got:
            parse_graph6(line)
        assert str(got.value) == str(want.value)


class TestGenerators:
    def test_cycle(self):
        c5 = cycle(5)
        assert c5.n == 5 and c5.edge_count() == 5
        assert all(row.bit_count() == 2 for row in c5.adj)

    def test_complete_bipartite(self):
        g = complete_bipartite(2, 3)
        assert g.edge_count() == 6
        assert is_bipartite(g) is not None

    @pytest.mark.parametrize(
        "factory",
        [lambda: cycle(2), lambda: path(0), lambda: complete(0),
         lambda: complete_bipartite(0, 3)],
    )
    def test_parameter_minimums(self, factory):
        with pytest.raises(ValueError):
            factory()

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 5)])

    def test_pickle_round_trip(self):
        # survey workers receive parsed graphs
        for g in (empty_graph(0), cycle(7), complete_bipartite(2, 3)):
            assert pickle.loads(pickle.dumps(g)) == g


class TestStructure:
    def test_girth_values(self):
        assert girth(path(5)) == math.inf
        assert girth(cycle(7)) == 7
        assert girth(complete(4)) == 3
        assert girth(complete_bipartite(2, 3)) == 4

    @given(graphs())
    @settings(max_examples=150)
    def test_girth_infinite_iff_forest(self, g):
        forest = g.edge_count() == g.n - len(components(g))
        assert (girth(g) == math.inf) == forest

    def test_bipartite(self):
        assert is_bipartite(cycle(5)) is None
        left, right = is_bipartite(cycle(6))
        assert left | right == cycle(6).full_mask and left & right == 0

    @given(graphs())
    @settings(max_examples=100)
    def test_bipartite_matches_networkx(self, g):
        ours = is_bipartite(g) is not None
        assert ours == nx.is_bipartite(to_networkx(g))

    def test_components_and_connectivity(self):
        g = disjoint_union([complete(3), path(2)])
        assert components(g) == [mask_of([0, 1, 2]), mask_of([3, 4])]
        assert not is_connected(g)
        assert is_connected(empty_graph(0))

    def test_complement_degrees(self):
        g = cycle(5)
        h = complement(g)
        assert all(row.bit_count() == 2 for row in h.adj)


class TestCanonicalForm:
    """``catalog.certificate`` is the package's canonical form;
    ``brute_force_canonical``, which tries every permutation, is its oracle."""

    def test_relabelings_agree(self):
        p3a = Graph(3, [(0, 1), (1, 2)])
        p3b = Graph(3, [(1, 0), (0, 2)])
        assert certificate(p3a.adj) == certificate(p3b.adj)
        assert certificate(p3a.adj) != certificate(complete(3).adj)

    def test_all_six_labelings_of_p3(self):
        keys = set()
        for perm in permutations(range(3)):
            g = Graph(3, [(perm[0], perm[1]), (perm[1], perm[2])])
            keys.add(certificate(g.adj))
        assert len(keys) == 1

    def test_matches_brute_force_exhaustively(self):
        # on every labeled graph of order <= 5, certificates are equal exactly
        # when the brute-force canonical forms are
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keys = set()
            for bits in range(1 << len(pairs)):
                g = Graph(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
                keys.add((certificate(g.adj), brute_force_canonical(g)))
            assert len({c for c, _ in keys}) == len({b for _, b in keys}) == len(keys)

    @given(graphs(max_n=6), graphs(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_random(self, g, h):
        assert certificate(g.adj) == certificate(parse_graph6(brute_force_canonical(g)).adj)
        assert (certificate(g.adj) == certificate(h.adj)) == (
            brute_force_canonical(g) == brute_force_canonical(h)
        )

    @given(graphs(max_n=10), st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert certificate(g.adj) == certificate(h.adj)
