"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Stated runtime budgets are asserted.  The level-2 scans at order 8
for criterion 4 are optional and enabled with WELLCOVER_ACCEPT_N8=1.
"""

import os
import time

import pytest

from wellcover import catalog as cat
from wellcover.classify import (
    is_in_w,
    is_one_well_covered,
    is_very_well_covered,
    is_well_covered,
    shedding_vertices,
)
from wellcover.constructions import CoronaFamily, concatenate, corona
from wellcover.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    is_bipartite,
    is_connected,
    mask_of,
    parse_graph6,
    path,
    write_graph6,
)
from wellcover.harness import (
    GraphContext,
    HuntTarget,
    hunt,
    run_grid,
    run_suite,
    w2_equivalence_predicates,
)
from wellcover.independence import (
    _wc_scan,
    differential_of_graph,
    independence_number,
    maximal_independent_sets,
    maximum_matching_size,
)
from conftest import disjoint_union
from oracles import is_in_w_generic, matching_size_brute_force
from test_independence import all_subsets_maximal


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def test_criterion_01_cycle_census():
    t0 = time.perf_counter()
    wc = [n for n in range(3, 13) if is_well_covered(cycle(n))]
    vwc = [n for n in range(3, 13) if is_very_well_covered(cycle(n))]
    elapsed = time.perf_counter() - t0
    ok = wc == [3, 4, 5, 7] and vwc == [4] and elapsed < 1.0
    report(1, "cycle census", ok, f"wc={wc} vwc={vwc} {elapsed:.3f}s")
    assert wc == [3, 4, 5, 7]
    assert vwc == [4]
    assert elapsed < 1.0


def test_criterion_02_shedding_ground_truth():
    t0 = time.perf_counter()
    results = {
        "P4": shedding_vertices(path(4)) == mask_of([1, 2]),
        "C3": shedding_vertices(cycle(3)) == cycle(3).full_mask,
        "C4": shedding_vertices(cycle(4)) == 0,
        "C5": shedding_vertices(cycle(5)) == cycle(5).full_mask,
        "P3": shedding_vertices(path(3)).bit_count() == 1,
    }
    for k in range(6, 13):
        results[f"C{k}"] = shedding_vertices(cycle(k)) == 0
    elapsed = time.perf_counter() - t0
    ok = all(results.values()) and elapsed < 1.0
    bad = [k for k, v in results.items() if not v]
    report(2, "shedding ground truth", ok, f"failures={bad} {elapsed:.3f}s")
    assert not bad
    assert elapsed < 1.0


def test_criterion_03_differential_values():
    t0 = time.perf_counter()
    checks = {
        "C7": (differential_of_graph(cycle(7)), 2),
        "C9": (differential_of_graph(cycle(9)), 3),
    }
    for p in range(1, 5):
        for q in range(1, 5):
            got = differential_of_graph(complete_bipartite(p, q))
            checks[f"K{p},{q}"] = (got, p + q - 2)
    elapsed = time.perf_counter() - t0
    bad = {k: f"got {g} expected {e}" for k, (g, e) in checks.items() if g != e}
    ok = not bad and elapsed < 5.0
    report(3, "differential values", ok, f"mismatches={bad} {elapsed:.3f}s")
    # The complete-bipartite claim is asserted exactly as published.  The
    # exhaustive subset scan of the published set-differential definition
    # contradicts it whenever both sides have >= 2 vertices (for example both
    # scans of K_{2,2} top out at 1, not 2), so this criterion documents a
    # defect rather than an implementation gap; see "Decisions" in README.md.
    assert not bad, bad
    assert elapsed < 5.0


def _iter_connected_no_isolated(max_n):
    for n in range(2, max_n + 1):
        for g in cat.all_graphs(n, connected=True):
            yield g


def test_criterion_04_seven_way_equivalence():
    t0 = time.perf_counter()
    max_n = 8 if os.environ.get("WELLCOVER_ACCEPT_N8") == "1" else 7
    disagreements = []
    count = 0
    for g in _iter_connected_no_isolated(max_n):
        count += 1
        preds = w2_equivalence_predicates(GraphContext(g))
        if len(set(preds.values())) != 1:
            disagreements.append((write_graph6(g), preds))
    elapsed = time.perf_counter() - t0
    ok = not disagreements and elapsed < 300.0
    report(
        4,
        "seven-way level-2 equivalence",
        ok,
        f"{count} graphs (n<={max_n}) disagreements={len(disagreements)} {elapsed:.1f}s",
    )
    assert not disagreements, disagreements[:3]
    assert elapsed < 300.0


def test_criterion_05_shedding_characterizations(catalog_by_n):
    t0 = time.perf_counter()
    failures = []
    for n in range(8):
        for g in catalog_by_n[n]:
            verdicts = {
                v.theorem_id: v
                for v in run_suite(g, ["thm.shedding-epsilon", "cor.shedding-wc"])
            }
            for tid, v in verdicts.items():
                if v.applicable and not v.holds:
                    failures.append((write_graph6(g), tid, v.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 600.0
    report(5, "shedding characterizations", ok, f"failures={len(failures)} {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 600.0


def test_criterion_06_order_extremal():
    t0 = time.perf_counter()
    order_2alpha = []
    order_2alpha_plus_1 = []
    bipartite_members = []
    for n in range(1, 10):
        full = (1 << n) - 1
        for adj in cat._level_adj(n):
            g = Graph._raw(n, adj)
            if not is_connected(g):
                continue
            if not _wc_scan(adj, full)[0]:
                continue
            if not is_in_w(g, 2):
                continue
            alpha = independence_number(g)
            if n == 2 * alpha:
                order_2alpha.append(write_graph6(g))
            if n == 2 * alpha + 1:
                order_2alpha_plus_1.append(write_graph6(g))
            if is_bipartite(g) is not None:
                bipartite_members.append(write_graph6(g))
    elapsed = time.perf_counter() - t0

    k2 = {cat.certificate(complete(2).adj)}
    c3_c5 = {cat.certificate(cycle(3).adj), cat.certificate(cycle(5).adj)}

    def certs(names):
        from wellcover.graph import parse_graph6

        return {cat.certificate(parse_graph6(s).adj) for s in names}

    ok = (
        certs(order_2alpha) == k2
        and certs(order_2alpha_plus_1) == c3_c5
        and certs(bipartite_members) == k2
    )
    report(
        6,
        "order-extremal uniqueness (n<=9)",
        ok,
        f"2a={order_2alpha} 2a+1={order_2alpha_plus_1} bip={bipartite_members} {elapsed:.1f}s",
    )
    assert certs(order_2alpha) == k2
    assert certs(order_2alpha_plus_1) == c3_c5
    assert certs(bipartite_members) == k2


def test_criterion_07_construction_theorems():
    t0 = time.perf_counter()
    failures = []
    for tid, bounds in [
        ("prop.corona-wc", {"base_max_n": 4}),
        ("prop.corona-w2", {"base_max_n": 4}),
        ("prop.join-wc", {"part_max_n": 5}),
        ("prop.join-w2", {"part_max_n": 5}),
        ("lem.concat-alpha", {"base_max_n": 4, "part_max_n": 5}),
        ("thm.concat-hierarchy", {"base_max_n": 3, "part_max_n": 6}),
        ("thm.concat-hierarchy", {"base_max_n": 4, "part_max_n": 5}),
    ]:
        for v in run_grid(tid, bounds):
            if v.applicable and not v.holds:
                failures.append((tid, v.graph_id, v.witness))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 900.0
    report(7, "construction theorems", ok, f"failures={len(failures)} {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 900.0


def test_criterion_08_named_instances():
    results = {}
    g = concatenate(complete(2), cycle(4), 0)
    results["K2(C4;v) not wc, alpha 4"] = (
        not is_well_covered(g) and independence_number(g) == 4
    )
    g = concatenate(complete(2), cycle(5), 0)
    results["K2(C5;v) in level 1 not 2"] = is_in_w(g, 1) and not is_in_w(g, 2)
    g = corona(CoronaFamily(path(2), (complete(2), complete(3))))
    results["P2 corona {K2,K3} 1-wc"] = is_one_well_covered(g)
    g = corona(CoronaFamily(path(2), (complete(1), empty_graph(2))))
    results["P2 corona {K1,2K1} not wc"] = not is_well_covered(g)
    g = disjoint_union([complete(3), complete(1)])
    results["K3+K1 1-wc but not level 2"] = is_one_well_covered(g) and not is_in_w(g, 2)
    bad = [k for k, v in results.items() if not v]
    report(8, "named instances", not bad, f"failures={bad}")
    assert not bad


def test_criterion_09_hunt_regression():
    t0 = time.perf_counter()
    rep = hunt(HuntTarget("problem.no-shedding", max_n=8), connected_only=True)
    found = {cat.certificate(parse_graph6(e["graph"]).adj) for e in rep.entries}
    has_c4 = cat.certificate(cycle(4).adj) in found
    has_c7 = cat.certificate(cycle(7).adj) in found

    conj = hunt(HuntTarget("conjecture.wk-concat", max_n=6, k=3, base_max_n=3))
    zero = conj.summary["counterexamples"] == 0 and conj.checked > 0
    elapsed = time.perf_counter() - t0
    ok = has_c4 and has_c7 and zero
    report(
        9,
        "hunt regression",
        ok,
        f"no-shedding found={rep.summary['found']} (C4={has_c4} C7={has_c7}) "
        f"conjecture checked={conj.checked} counterexamples={len(conj.counterexamples)} {elapsed:.1f}s",
    )
    assert has_c4 and has_c7
    assert zero


def test_criterion_10_oracle_equivalences(catalog_by_n):
    t0 = time.perf_counter()
    mismatch = []

    # maximal independent sets vs the all-subsets filter, n <= 7
    for n in range(8):
        for g in catalog_by_n[n]:
            if maximal_independent_sets(g) != all_subsets_maximal(g):
                mismatch.append(("mis", write_graph6(g)))

    # maximum matching vs the edge-subset brute force, n <= 8 (|E| <= 14)
    for n in range(8):
        for g in catalog_by_n[n]:
            if g.edge_count() <= 14 and maximum_matching_size(g) != matching_size_brute_force(g):
                mismatch.append(("matching", write_graph6(g)))
    for g in cat.all_graphs(8):
        if g.edge_count() <= 14 and maximum_matching_size(g) != matching_size_brute_force(g):
            mismatch.append(("matching", write_graph6(g)))

    # fast level-2 membership vs the generic family checker, n <= 7
    for n in range(8):
        for g in catalog_by_n[n]:
            if is_in_w(g, 2) != is_in_w_generic(g, 2):
                mismatch.append(("w2", write_graph6(g)))

    elapsed = time.perf_counter() - t0
    ok = not mismatch
    report(10, "oracle equivalences", ok, f"mismatches={len(mismatch)} {elapsed:.1f}s")
    assert not mismatch, mismatch[:3]
