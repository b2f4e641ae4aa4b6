import os
import random
import shutil
import tempfile

import pytest
from hypothesis import strategies as st

from wellcover import catalog as cat
from wellcover.graph import Graph


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
