"""Counterexample hunts for the open problems and the concatenation
conjecture, and the graph reader and concatenation sweep they share with
the catalog survey in ``survey`` and the construction grids in ``harness``.

A hunt reads the catalog or a stream and runs no registered theorem, so this
module imports neither the theorem registry in ``harness`` nor the survey
driver that runs it.  The catalog and the constructions are imported where
they are used, so that a survey of a file, which reads its graphs here,
loads neither.
"""

from __future__ import annotations

import time

from .classify import HUNT_TARGET_IDS, SCHEMA_VERSION, GraphContext, _shed_by_domination
from .graph import Graph, Graph6Error, is_connected, parse_graph6, write_graph6


def _read_graphs(items, connected: bool, errors: list | None):
    """(line number, graph) for each ``Graph`` and each non-blank graph6 line
    of ``items``, a line parsed once, skipping disconnected graphs when
    ``connected``.

    A malformed line raises ``Graph6Error`` when ``errors`` is None;
    otherwise ``(line number, message)`` is appended to ``errors`` and the
    line is skipped.
    """
    for line_number, item in enumerate(items, start=1):
        if isinstance(item, Graph):
            g = item
        else:
            text = item.strip()
            if not text:
                continue
            try:
                g = parse_graph6(text)
            except Graph6Error as exc:
                if errors is None:
                    raise
                errors.append((line_number, str(exc)))
                continue
        if connected and not is_connected(g):
            continue
        yield line_number, g


def _concatenation_sweep(parts, base_max_n: int, k: int):
    """Every concatenation of a connected base of order <= base_max_n with a
    level-k graph h of ``parts`` fused at its vertex v, looping over h, then
    v, then the base.  Yields (base, v, h's context, the concatenation's
    context)."""
    from . import catalog as cat
    from .constructions import concatenate

    bases = list(cat.graphs_up_to(base_max_n, connected=True))
    for h in parts:
        hctx = GraphContext(h)
        if h.n < 1 or not hctx.in_w(k):
            continue
        for v in range(h.n):
            for base in bases:
                yield base, v, hctx, GraphContext(concatenate(base, h, v))


# the census predicate of each problem target of ``HUNT_TARGET_IDS``, in its order,
# on a graph; the no-shedding census rejects a graph with an edge uv where N[v] is
# inside N[u], as u is then shedding, before it builds the graph's context
_HUNT_PREDICATES = {
    "problem.no-shedding": lambda g: not _shed_by_domination(g.adj)
    and (ctx := GraphContext(g)).well_covered
    and not ctx.shed,
    "problem.two-disjoint-mis-girth5": lambda g: (ctx := GraphContext(g)).well_covered
    and ctx.girth <= 5
    and ctx.disjoint_mis_max(2) == 2,
    "problem.w2-alpha2": lambda g: (ctx := GraphContext(g)).connected
    and ctx.in_w(2) and ctx.alpha == 2,
    "problem.alpha-plus-mu": lambda g: (ctx := GraphContext(g)).connected
    and ctx.in_w(2)
    and ctx.alpha + ctx.mu == g.n - 1,
}


class HuntTarget:
    """A conjecture or open problem with search bounds."""

    def __init__(self, target_id: str, max_n: int = 8, k: int = 3, base_max_n: int = 3):
        from . import catalog as cat

        if target_id not in HUNT_TARGET_IDS:
            raise ValueError(f"unknown hunt target {target_id!r}")
        # only the concatenation conjecture reads k and base_max_n
        conjecture = target_id == "conjecture.wk-concat"
        bounds = (max_n, base_max_n) if conjecture else (max_n,)
        if min(bounds) < 1:
            raise ValueError("bounds must be positive")
        if max(bounds) > cat.HUNT_MAX_N:
            raise ValueError(f"hunts are capped at n <= {cat.HUNT_MAX_N}")
        if conjecture and k < 2:
            raise ValueError("the concatenation conjecture needs k >= 2")
        self.target_id = target_id
        self.max_n = max_n
        self.k = k
        self.base_max_n = base_max_n


class HuntReport:
    """The outcome of one hunt: the census entries of a problem target, or
    the counterexamples of the conjecture target."""

    def __init__(self, target_id: str, parameters: dict):
        self.target_id = target_id
        self.parameters = parameters
        self.entries: list = []
        self.counterexamples: list = []
        self.checked = 0
        self.summary: dict = {}
        self.elapsed = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "target": self.target_id,
            "parameters": self.parameters,
            "entries": self.entries,
            "counterexamples": self.counterexamples,
            "checked": self.checked,
            "summary": self.summary,
            "elapsed": self.elapsed,
        }


def hunt(target: HuntTarget, source=None, connected_only: bool = False) -> HuntReport:
    """Run one hunt target over a stream of graph6 lines or ``Graph`` objects
    (the same reader as ``survey_catalog``) or, by default, the
    generated catalog within the target bound.  Graphs above ``max_n`` are
    skipped, and so are disconnected ones when ``connected_only``; a
    malformed line raises ``Graph6Error``.

    Problem targets emit the census of graphs satisfying the problem
    predicate, one canonical form per isomorphism class in certificate
    order; the conjecture target reports any concatenation dropping more
    than one hierarchy level.
    """
    from . import catalog as cat

    t0 = time.perf_counter()
    report = HuntReport(
        target.target_id,
        {"max_n": target.max_n, "k": target.k, "base_max_n": target.base_max_n},
    )
    if source is None:
        graphs = cat.graphs_up_to(target.max_n, connected=connected_only)
    else:
        graphs = (g for _, g in _read_graphs(source, connected_only, None)
                  if g.n <= target.max_n)

    if target.target_id == "conjecture.wk-concat":
        for base, v, hctx, ctx in _concatenation_sweep(graphs, target.base_max_n, target.k):
            report.checked += 1
            if not ctx.in_w(target.k - 1):
                report.counterexamples.append(
                    {
                        "base": write_graph6(base),
                        "h": write_graph6(hctx.g),
                        "at": v,
                        "concatenation": write_graph6(ctx.g),
                    }
                )
        report.summary = {"counterexamples": len(report.counterexamples),
                          "checked": report.checked}
    else:
        predicate = _HUNT_PREDICATES[target.target_id]
        hits = []
        for g in graphs:
            report.checked += 1
            if g.n >= 1 and predicate(g):
                hits.append(g.adj)
        for adj in cat.canonical_forms(hits):
            g = Graph._raw(len(adj), adj)
            report.entries.append(
                {"graph": write_graph6(g), "n": g.n, "connected": is_connected(g)}
            )
        report.summary = {
            "found": len(report.entries),
            "found_connected": sum(1 for e in report.entries if e["connected"]),
            "checked": report.checked,
        }
    report.elapsed = time.perf_counter() - t0
    return report
