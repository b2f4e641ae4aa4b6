"""Exhaustive reference computations the library's fast routines are tested
against.  Each is the definition itself, scanned by brute force, and shares
no code with the routine it checks."""

from itertools import permutations, product

from wellcover import catalog as cat
from wellcover.constructions import corona_uniform
from wellcover.graph import Graph, iter_bits, write_graph6


def brute_force_canonical(g: Graph) -> str:
    """The least graph6 string over every relabeling of ``g``."""
    n = g.n
    best = None
    for perm in permutations(range(n)):
        adj = [0] * n
        for v in range(n):
            for u in iter_bits(g.adj[v]):
                adj[perm[v]] |= 1 << perm[u]
        s = write_graph6(Graph._raw(n, tuple(adj)))
        if best is None or s < best:
            best = s
    return best if best is not None else write_graph6(g)


def matching_size_brute_force(g: Graph) -> int:
    """Maximum matching size by scanning every subset of the edge set."""
    edges = g.edges()
    if len(edges) > 20:
        raise ValueError("edge-subset scan is capped at 20 edges")
    pair_masks = [(1 << u) | (1 << v) for u, v in edges]
    best = 0
    for sub in range(1 << len(edges)):
        used = 0
        size = 0
        ok = True
        m = sub
        while m:
            b = m & -m
            i = b.bit_length() - 1
            m ^= b
            pm = pair_masks[i]
            if used & pm:
                ok = False
                break
            used |= pm
            size += 1
        if ok and size > best:
            best = size
    return best


def differential_by_subsets(g: Graph) -> int:
    """Maximum of |N(A) - A| - |A| over every vertex subset A, scanning all
    2^n subsets; N(A) is read from tables of the neighborhoods of the
    subsets of the low and the high half of the vertices."""
    n = g.n
    h = n // 2
    nlow = [0] * (1 << h)
    for m in range(1, 1 << h):
        b = m & -m
        nlow[m] = nlow[m ^ b] | g.adj[b.bit_length() - 1]
    nhigh = [0] * (1 << (n - h))
    for m in range(1, 1 << (n - h)):
        b = m & -m
        nhigh[m] = nhigh[m ^ b] | g.adj[h + b.bit_length() - 1]
    low_mask = (1 << h) - 1
    best = 0
    for a in range(1, 1 << n):
        nb = nlow[a & low_mask] | nhigh[a >> h]
        d = (nb & ~a).bit_count() - a.bit_count()
        if d > best:
            best = d
    return best


def roman_domination_number(g: Graph) -> int:
    """Least weight sum(f) over f: V -> {0, 1, 2} in which every vertex with
    f = 0 has a neighbor with f = 2 (Cockayne et al., Discrete Math. 278,
    2004)."""
    best = 2 * g.n
    for f in product((0, 1, 2), repeat=g.n):
        weight = sum(f)
        if weight >= best:
            continue
        twos = 0
        for v, x in enumerate(f):
            if x == 2:
                twos |= 1 << v
        if all(x or g.adj[v] & twos for v, x in enumerate(f)):
            best = weight
    return best


def is_independent(g: Graph, s: int) -> bool:
    """No vertex of ``s`` has a neighbor in ``s``."""
    return all(not g.adj[v] & s for v in iter_bits(s))


def _independent_subsets(g: Graph) -> list[int]:
    """Every independent vertex set, ascending as bitmasks, by testing each
    of the 2^n subsets."""
    return [s for s in range(1 << g.n) if is_independent(g, s)]


def _neighborhood(g: Graph, s: int) -> int:
    out = 0
    for v in iter_bits(s):
        out |= g.adj[v]
    return out


def wk_monotonicity_by_subsets(g: Graph, k: int):
    """(holds, (A, B) or None): f(A) <= f(B), f(X) = |N(X)| - (k-1)|X|, for
    every independent B, in ascending order, and every subset A of B, in
    descending order."""
    def f(x):
        return _neighborhood(g, x).bit_count() - (k - 1) * x.bit_count()

    for b in _independent_subsets(g):
        a = b
        while True:
            if f(a) > f(b):
                return False, (a, b)
            if a == 0:
                break
            a = (a - 1) & b
    return True, None


def regularizability_by_subsets(g: Graph) -> tuple[bool, bool]:
    """(quasi-regularizable, regularizable) straight from the definitions:
    |N(S)| >= |S| for every independent S, and also N(N(S)) = S whenever
    |N(S)| = |S|."""
    quasi = regular = True
    for s in _independent_subsets(g):
        nb = _neighborhood(g, s)
        if nb.bit_count() < s.bit_count():
            quasi = False
        elif nb.bit_count() == s.bit_count() and _neighborhood(g, nb) != s:
            regular = False
    return quasi, quasi and regular


def _is_corona_of(g: Graph, attach: Graph) -> bool:
    """Whether g is (isomorphic to) some base graph with ``attach`` hung on
    every vertex, by comparing certificates with the corona of every base
    in the catalog level of order n / (|attach| + 1)."""
    t = attach.n + 1
    if g.n == 0 or g.n % t:
        return False
    target = cat.certificate(g.adj)
    for base in cat.all_graphs(g.n // t):
        if cat.certificate(corona_uniform(base, attach).adj) == target:
            return True
    return False
