import os
import random
import shutil
import tempfile

import pytest
from hypothesis import strategies as st

from wellcover import catalog as cat
from wellcover.graph import Graph

from oracles import children_unpruned


def pytest_configure(config):
    # the catalog levels the tests read are the ones the code under test
    # generates, never a cache left by another version; CLI subprocesses
    # inherit the directory
    cache = tempfile.mkdtemp(prefix="wellcover-cache-")
    os.environ["WELLCOVER_CACHE_DIR"] = cache
    config.add_cleanup(lambda: shutil.rmtree(cache, ignore_errors=True))


@st.composite
def graphs(draw, max_n=8, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, picks)


def disjoint_union(gs) -> Graph:
    """The graphs of ``gs`` side by side, each block's vertices numbered
    after those of the blocks before it."""
    edges, shift = [], 0
    for g in gs:
        edges.extend((u + shift, v + shift) for u, v in g.edges())
        shift += g.n
    return Graph(shift, edges)


def relabelled_random_graphs(seed: int, count: int, min_n: int, max_n: int):
    """``count`` random graphs of order min_n..max_n and edge density
    0.15..0.6, each under a random labelling."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.uniform(0.15, 0.6)
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph(
            n,
            [(perm[u], perm[v]) for u in range(n) for v in range(u + 1, n) if rng.random() < p],
        )


@pytest.fixture(scope="session")
def catalog_by_n():
    """All graphs up to 7 vertices, one per isomorphism class, keyed by order."""
    return {n: list(cat.all_graphs(n)) for n in range(8)}


@pytest.fixture(scope="session")
def connected_by_n():
    return {n: list(cat.all_graphs(n, connected=True)) for n in range(8)}


@pytest.fixture(scope="session")
def girth_levels():
    """Every graph on n vertices of girth >= g, one canonical form per
    isomorphism class in certificate order, as ``girth_levels[g][n]``: g = 4
    to order 9, g = 5 and 6 to order 10.  Deleting a vertex of minimum degree
    keeps the girth, so each level is the classes of the children of the
    level below, every neighborhood tried (``oracles.children_unpruned``)."""
    levels = {}
    for g, max_n in ((4, 9), (5, 10), (6, 10)):
        levels[g] = [[()]]
        for n in range(1, max_n + 1):
            parents = levels[g][n - 1]
            levels[g].append(
                cat.canonical_forms(c for padj in parents for c in children_unpruned(padj, g))
            )
    return levels
