import os
import random
import zlib
from itertools import zip_longest
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wellcover import catalog as cat
from wellcover.graph import (
    Graph,
    complete,
    cycle,
    empty_graph,
    girth,
    parse_graph6,
    vertices_of,
    write_graph6,
)
from wellcover.graph import path as path_graph

from conftest import graphs
from oracles import brute_force_canonical, children_unpruned, refine_by_rounds


class TestCertificate:
    @given(graphs(max_n=8), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert cat.certificate(g.adj) == cat.certificate(h.adj)

    def test_agreement_with_networkx_isomorphism(self):
        rng = random.Random(20240917)
        for _ in range(250):
            n = rng.randint(2, 7)
            e1 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            e2 = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
            g, h = Graph(n, e1), Graph(n, e2)
            G = nx.empty_graph(n)
            G.add_edges_from(e1)
            H = nx.empty_graph(n)
            H.add_edges_from(e2)
            same = cat.certificate(g.adj) == cat.certificate(h.adj)
            assert same == nx.is_isomorphic(G, H)

    def test_agreement_with_brute_force_canonical(self, catalog_by_n):
        # the brute-force canonical form tries all 720 labelings of each graph
        keys = {g: brute_force_canonical(g) for g in catalog_by_n[6]}
        for g in catalog_by_n[6]:
            for h in catalog_by_n[6][:20]:
                assert (cat.certificate(g.adj) == cat.certificate(h.adj)) == (
                    keys[g] == keys[h]
                )


class TestRefinement:
    """The cell-by-cell refinement gives the colors of whole rounds."""

    @staticmethod
    def assert_matches_rounds(adj, colors):
        nbrs = [vertices_of(row) for row in adj]
        refined, cells = cat._refine(nbrs, colors, cat._cells(colors))
        assert refined == refine_by_rounds(len(adj), adj, colors), (adj, colors)
        assert cells == cat._cells(refined)

    def test_degree_coloring_on_catalog_to_order_8(self):
        for n in range(9):
            for adj in cat._level_adj(n):
                self.assert_matches_rounds(adj, [row.bit_count() for row in adj])

    def test_individualized_colorings_on_catalog_to_order_8(self):
        # a few random colors and one vertex above them all, as a branch of
        # the certificate search individualizes it
        rng = random.Random(16)
        for n in range(1, 9):
            for adj in cat._level_adj(n):
                colors = [rng.randrange(3) for _ in range(n)]
                colors[rng.randrange(n)] = n
                self.assert_matches_rounds(adj, colors)


# number of connected graphs on n vertices (OEIS A001349)
KNOWN_CONNECTED_COUNTS = [1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571]

# number of graphs on n vertices of girth >= 4, 5 and 6 (OEIS A006785,
# A006786 and A006787) to order 9; the order-10 entries are regression
# values, not published ones
KNOWN_GIRTH_COUNTS = {
    4: [1, 1, 2, 3, 7, 14, 38, 107, 410, 1897],
    5: [1, 1, 2, 3, 6, 11, 23, 48, 114, 293, 869],
    6: [1, 1, 2, 3, 6, 10, 21, 40, 88, 192, 473],
}


class TestGeneration:
    def test_known_count_tables(self):
        # order 10 is checked against OEIS A000088 and A001349 without
        # generating it here
        assert len(cat.KNOWN_GRAPH_COUNTS) == len(KNOWN_CONNECTED_COUNTS) == 11
        assert cat.KNOWN_GRAPH_COUNTS[10] == 12_005_168
        assert KNOWN_CONNECTED_COUNTS[10] == 11_716_571
        assert all(c <= a for c, a in zip(KNOWN_CONNECTED_COUNTS, cat.KNOWN_GRAPH_COUNTS))

    def test_known_counts(self, catalog_by_n):
        for n in range(8):
            assert len(catalog_by_n[n]) == cat.KNOWN_GRAPH_COUNTS[n]

    def test_known_connected_counts(self, connected_by_n):
        for n in range(8):
            assert len(connected_by_n[n]) == KNOWN_CONNECTED_COUNTS[n]

    def test_counts_vs_labeled_enumeration(self):
        # independent oracle: canonicalize every labeled graph on n <= 5 by
        # trying every permutation
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            keys = set()
            for bits in range(1 << len(pairs)):
                edges = [p for i, p in enumerate(pairs) if bits >> i & 1]
                keys.add(brute_force_canonical(Graph(n, edges)))
            assert len(keys) == cat.KNOWN_GRAPH_COUNTS[n]

    def test_catalog_has_no_duplicates(self, catalog_by_n):
        for n in range(8):
            certs = [cat.certificate(g.adj) for g in catalog_by_n[n]]
            assert len(set(certs)) == len(certs)

    def test_graphs_up_to(self):
        out = list(cat.graphs_up_to(4, connected=True))
        assert len(out) == 1 + 1 + 2 + 6

    def test_representatives_are_canonical_forms(self):
        for n in range(9):
            level = cat._level_adj(n)
            assert level == sorted(level)
            for adj in level:
                assert cat.certificate(adj)[1:] == adj

    def test_neighborhoods_within_the_degree_bound(self):
        # 6,412 neighbourhoods without the bound, for the same 1,808 children
        parents = cat._level_adj(6)
        sizes = [
            (nb.bit_count(), min(row.bit_count() for row in padj))
            for padj in parents
            for nb in cat._neighborhoods(padj)
        ]
        assert len(sizes) == 2937
        assert all(size <= low + 1 for size, low in sizes)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            list(cat.all_graphs(-1))


class TestTwinPruning:
    """Generation extends each parent only by neighborhoods that take the
    lowest-indexed members of each class of interchangeable vertices; the
    oracle tries every neighborhood.  Each level is generated here, with
    no disk cache, and compared with the oracle's children of the level
    below."""

    def test_every_level_up_to_7(self, monkeypatch):
        # order 8 (about 5 s more) runs with WELLCOVER_ACCEPT_N8=1
        max_n = 8 if os.environ.get("WELLCOVER_ACCEPT_N8") == "1" else 7
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", "off")
        monkeypatch.setattr(cat, "_mem_cache", {})
        for n in range(1, max_n + 1):
            parents = cat._level_adj(n - 1)
            oracle = [c for padj in parents for c in children_unpruned(padj, 0)]
            assert cat._level_adj(n) == cat.canonical_forms(oracle), n

    def test_pruned_children_are_fewer(self):
        parents = cat._level_adj(6)
        pruned = sum(
            len(list(cat._children(padj, cat._neighborhoods(padj)))) for padj in parents
        )
        unpruned = sum(len(children_unpruned(padj, 0)) for padj in parents)
        assert (pruned, unpruned) == (1808, 2690)

    def test_cold_generation_certificate_calls(self, monkeypatch):
        # 3,132 without twin pruning
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", "off")
        monkeypatch.setattr(cat, "_mem_cache", {})
        calls = []
        certificate = cat.certificate
        monkeypatch.setattr(cat, "certificate", lambda adj: calls.append(1) or certificate(adj))
        for n in range(8):
            cat._level_adj(n)
        assert len(calls) == 2089


class TestGirthLevels:
    """The girth-restricted levels that theorem tests read
    (``conftest.girth_levels``) have their own count gate."""

    def test_counts(self, girth_levels):
        for g, counts in KNOWN_GIRTH_COUNTS.items():
            assert [len(level) for level in girth_levels[g]] == counts, g

    def test_members_have_the_girth(self, girth_levels):
        for g, levels in girth_levels.items():
            for n, level in enumerate(levels):
                assert level == sorted(level)
                for adj in level:
                    assert girth(Graph._raw(n, adj)) >= g
                    assert cat.certificate(adj)[1:] == adj

    def test_levels_match_filtering(self, girth_levels):
        # both are canonical forms in certificate order, so they are equal as
        # adjacency lists, not merely as classes
        for g, levels in girth_levels.items():
            for n in range(9):
                filtered = [h.adj for h in cat.all_graphs(n) if girth(h) >= g]
                assert levels[n] == filtered, (g, n)


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(4)
        cat._disk_store(4, level)
        loaded = list(cat._disk_rows(4))
        assert loaded == level

    def test_truncated_level_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        cat._level_adj(6)
        path = Path(cat._cache_path(6))
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:100]))
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert len(list(cat.all_graphs(6))) == 156
        assert len(path.read_text().splitlines()) == 156  # rewritten

    def test_valid_level_is_not_rewritten(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        cat._level_adj(6)
        path = Path(cat._cache_path(6))
        stamp = (path.stat().st_ino, path.stat().st_mtime_ns)
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert len(cat._level_adj(6)) == 156
        assert (path.stat().st_ino, path.stat().st_mtime_ns) == stamp

    def test_level_with_wrong_checksum_is_regenerated(self, tmp_path, monkeypatch):
        # swapping one line for another order-6 graph keeps the count, so
        # only the checksum tells the level is damaged
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(6)
        path = Path(cat._cache_path(6))
        lines = path.read_text().splitlines()
        lines[5] = lines[6]
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert cat._level_adj(6) == level
        assert path.read_text().splitlines()[5] != lines[6]  # rewritten

    def test_level_without_checksum_is_regenerated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(5)
        checksum = Path(cat._cache_path(5)).with_suffix(".crc32")
        checksum.unlink()
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert cat._level_adj(5) == level
        assert checksum.is_file()

    def test_cache_files_hold_only_graph6_lines(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        cat._level_adj(5)
        for path in tmp_path.glob("*.g6"):
            lines = path.read_text().splitlines()
            n = int(path.stem.rsplit("-", 1)[1])
            assert [parse_graph6(line).n for line in lines] == [n] * len(lines)

    def test_version_one_files_are_ignored(self, tmp_path, monkeypatch):
        # a v1 level holds other representatives: it is neither read nor
        # rewritten
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        old = tmp_path / "catalog-v1-all-4.g6"
        old.write_text("C?\n" * 11)
        stamp = (old.stat().st_ino, old.stat().st_mtime_ns)
        level = cat._level_adj(4)
        assert len(set(level)) == 11
        assert Path(cat._cache_path(4)).name == "catalog-v2-all-4.g6"
        assert old.read_text() == "C?\n" * 11
        assert (old.stat().st_ino, old.stat().st_mtime_ns) == stamp

    def test_level_of_another_order_is_regenerated(self, tmp_path, monkeypatch):
        # four order-4 graphs under the order-3 name, with a matching checksum
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        path = Path(cat._cache_path(3))
        wrong = [cycle(4), complete(4), path_graph(4), empty_graph(4)]
        data = "".join(write_graph6(g) + "\n" for g in wrong).encode()
        path.write_bytes(data)
        path.with_suffix(".crc32").write_bytes(b"%08x\n" % zlib.crc32(data))
        level = cat._level_adj(3)
        assert len(level) == 4 and all(len(adj) == 3 for adj in level)
        assert [g.n for g in cat.graphs_up_to(3, min_n=3)] == [3] * 4
        assert [parse_graph6(line).n for line in path.read_text().split()] == [3] * 4

    @pytest.mark.parametrize(
        "damage",
        [
            lambda line: line[:-2] + b"\n",  # a line of another length
            lambda line: line[:2] + b"\x7f" + line[3:],  # a byte out of range
            lambda line: line[:-2] + bytes([line[-2] + 1]) + b"\n",  # a padding bit set
            lambda line: b"D" + line[1:],  # another order byte
            lambda line: line[:-1],  # no newline (the line is moved to the end)
        ],
        ids=["length", "range", "padding", "order", "newline"],
    )
    def test_malformed_line_is_regenerated(self, tmp_path, monkeypatch, damage):
        # each damaged level has a matching checksum and the known count
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(6)
        path = Path(cat._cache_path(6))
        good = path.read_bytes()
        lines = good.splitlines(keepends=True)
        data = b"".join(lines[:5] + lines[6:]) + damage(lines[5])
        path.write_bytes(data)
        path.with_suffix(".crc32").write_bytes(b"%08x\n" % zlib.crc32(data))
        assert list(cat._disk_rows(6)) == []
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert cat._level_adj(6) == level
        assert path.read_bytes() == good  # rewritten

    def test_level_file_format(self, tmp_path, monkeypatch):
        # existing version-2 caches hold this format: changing it without a
        # new _CACHE_VERSION would make every warm run regenerate its levels
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(5)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"catalog-v2-all-{n}.{ext}" for n in range(6) for ext in ("g6", "crc32")
        )
        data = (tmp_path / "catalog-v2-all-5.g6").read_bytes()
        assert data == "".join(write_graph6(Graph._raw(5, adj)) + "\n" for adj in level).encode()
        assert (tmp_path / "catalog-v2-all-5.crc32").read_bytes() == b"%08x\n" % zlib.crc32(data)

    def test_cache_off(self, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", "off")
        assert cat._cache_dir() is None


def _edit_lines(edit):
    """A damage to a level file: ``edit`` maps its list of lines to the new
    list, and the checksum file is rewritten to match."""

    def damage(path: Path):
        data = b"".join(edit(path.read_bytes().splitlines(keepends=True)))
        path.write_bytes(data)
        path.with_suffix(".crc32").write_bytes(b"%08x\n" % zlib.crc32(data))

    return damage


class TestLevelStream:
    """``_disk_rows`` checks a level file whole, then decodes it a line at a
    time from the same open file; ``all_graphs`` streams it."""

    def test_stream_equals_the_level(self, tmp_path, monkeypatch):
        # the rows are compared one at a time, so order 9 is not held twice
        levels = [cat._level_adj(n) for n in range(10)]
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        for n, level in enumerate(levels):
            cat._disk_store(n, level)
            assert all(a == b for a, b in zip_longest(cat._disk_rows(n), level)), n

    # damage to one line is in TestDiskCache.test_malformed_line_is_regenerated
    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.with_suffix(".crc32").write_bytes(b"00000000\n"),
            lambda p: p.with_suffix(".crc32").unlink(),
            _edit_lines(lambda lines: lines[:-1]),
            # one line a byte short and the next a byte long: the size is kept
            _edit_lines(
                lambda ls: ls[:5] + [ls[5][:-2] + b"\n", ls[6][:-1] + b"?\n"] + ls[7:]
            ),
        ],
        ids=["checksum", "no-checksum", "count", "short-then-long"],
    )
    def test_damaged_level_yields_nothing_and_is_rewritten(self, tmp_path, monkeypatch, damage):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(cat, "_mem_cache", {})
        level = cat._level_adj(6)
        path = Path(cat._cache_path(6))
        good = path.read_bytes()
        damage(path)
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert list(cat._disk_rows(6)) == []
        assert [g.adj for g in cat.all_graphs(6)] == level
        assert path.read_bytes() == good  # rewritten
        assert path.with_suffix(".crc32").read_bytes() == b"%08x\n" % zlib.crc32(good)

    def test_level_replaced_between_the_passes_is_read_whole(self, tmp_path, monkeypatch):
        level = cat._level_adj(8)
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path / "other"))
        cat._disk_store(8, level[::-1])  # another intact level file
        other = Path(cat._cache_path(8))
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path / "level"))
        cat._disk_store(8, level)
        path = Path(cat._cache_path(8))
        checksum = cat._checksum

        def replace_then_checksum(crc):
            # called once the first pass has read the whole file
            os.replace(other, path)
            os.replace(other.with_suffix(".crc32"), path.with_suffix(".crc32"))
            return checksum(crc)

        monkeypatch.setattr(cat, "_checksum", replace_then_checksum)
        assert list(cat._disk_rows(8)) == level
        monkeypatch.setattr(cat, "_checksum", checksum)
        assert list(cat._disk_rows(8)) == level[::-1]

    def test_warm_reads_keep_no_level(self, tmp_path, monkeypatch):
        levels = [cat._level_adj(n) for n in range(9)]
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(tmp_path))
        for n, level in enumerate(levels):
            cat._disk_store(n, level)
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert sum(1 for _ in cat.graphs_up_to(8)) == sum(cat.KNOWN_GRAPH_COUNTS[1:9])
        assert cat._mem_cache == {}

    def test_reads_work_with_the_cache_off(self, monkeypatch):
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", "off")
        monkeypatch.setattr(cat, "_mem_cache", {})
        assert list(cat._disk_rows(5)) == []
        assert [len(list(cat.all_graphs(n))) for n in range(7)] == cat.KNOWN_GRAPH_COUNTS[:7]
        assert sorted(cat._mem_cache) == list(range(7))  # generated, so kept


class TestAtlasAgreement:
    def test_catalog_matches_networkx_atlas_exactly(self, catalog_by_n):
        # the atlas lists every graph on up to 7 vertices; certificates must
        # match class-for-class, not merely in count
        from networkx.generators.atlas import graph_atlas_g

        atlas = graph_atlas_g()[1:]  # entry 0 is the placeholder
        by_n = {}
        for G in atlas:
            n = G.number_of_nodes()
            relabeled = {u: i for i, u in enumerate(G.nodes())}
            g = Graph(n, [(relabeled[u], relabeled[v]) for u, v in G.edges()])
            by_n.setdefault(n, set()).add(cat.certificate(g.adj))
        for n in range(1, 8):
            ours = {cat.certificate(g.adj) for g in catalog_by_n[n]}
            assert ours == by_n[n], n
