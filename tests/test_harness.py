import json
import os
import random

import pytest

from wellcover import catalog as cat
from wellcover import harness, survey
from wellcover.classify import SCHEMA_VERSION, class_report, is_in_w
from wellcover.constructions import concatenate, corona_uniform
from wellcover.graph import (
    Graph,
    Graph6Error,
    complete,
    complete_bipartite,
    cycle,
    is_connected,
    parse_graph6,
    path,
    vertices_of,
    write_graph6,
)
from wellcover.independence import _wc_scan
from wellcover.harness import (
    GRAPH_THEOREM_IDS,
    GRAPH_THEOREMS,
    GRID_THEOREM_IDS,
    GRID_THEOREMS,
    GraphContext,
    HuntTarget,
    TheoremVerdict,
    hunt,
    run_grid,
    run_suite,
    w2_equivalence_predicates,
)
from wellcover.survey import survey_catalog

from conftest import disjoint_union, relabelled_random_graphs
from oracles import (
    berge_by_matching,
    is_in_w_generic,
    shedding_epsilon_by_alpha,
    two_disjoint_completions_by_packing,
    well_covered_without_shedding_by_subsets,
)

EXPECTED_GRAPH_THEOREMS = {
    "lem.alpha-stability",
    "thm.w2-equivalence",
    "cor.w2-minus-ns",
    "cor.w2-no-leaf",
    "cor.w2-minus-nv",
    "thm.w2-properties",
    "cor.w2-degree-bound",
    "cor.w2-differential-bound",
    "thm.shedding-epsilon",
    "cor.shedding-wc",
    "cor.shedding-four-way",
    "prop.simplicial-shed",
    "cor.simplicial-delete",
    "thm.simplex-partition",
    "prop.two-simplicial-w2",
    "thm.w2-five-way",
    "cor.w2-order-extremal",
    "thm.w2-triangle-free-gab",
    "prop.locally-tf-w2",
    "thm.wk-monotonicity",
    "thm.wk-chain",
    "thm.berge-maximum",
    "thm.girth6-wc-corona",
    "thm.girth5-vwc-corona",
    "thm.hartnell-c4free",
}
EXPECTED_GRID_THEOREMS = {
    "prop.corona-wc",
    "prop.corona-w2",
    "cor.corona-k1wc",
    "thm.corona-bipartite-2mis",
    "prop.join-wc",
    "prop.join-w2",
    "lem.concat-alpha",
    "thm.concat-hierarchy",
}


class TestRegistry:
    def test_completeness(self):
        assert set(GRAPH_THEOREM_IDS) == EXPECTED_GRAPH_THEOREMS
        assert set(GRID_THEOREM_IDS) == EXPECTED_GRID_THEOREMS

    def test_every_id_has_an_executable_body(self):
        assert GRAPH_THEOREM_IDS == list(GRAPH_THEOREMS)
        assert GRID_THEOREM_IDS == list(GRID_THEOREMS)
        for tid, (hypotheses, check) in GRAPH_THEOREMS.items():
            assert callable(check) and set(hypotheses) <= set(harness.HYPOTHESES), tid
        for tid, runner in GRID_THEOREMS.items():
            assert callable(runner), tid

    def test_duplicate_id_rejected(self, monkeypatch):
        from wellcover import harness

        monkeypatch.setattr(harness, "GRAPH_THEOREMS", dict(GRAPH_THEOREMS))
        with pytest.raises(ValueError, match="duplicate theorem id"):
            harness._theorem("thm.wk-chain")(lambda ctx: (True, None))

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown theorem id"):
            run_suite(cycle(5), ["thm.not-a-theorem"])
        with pytest.raises(ValueError, match="unknown theorem id"):
            run_grid("thm.not-a-theorem")

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError, match="construction-grid"):
            run_suite(cycle(5), ["prop.corona-wc"])
        with pytest.raises(ValueError, match="per-graph"):
            run_grid("thm.w2-equivalence")


def failure(theorem_id, graph_id, witness, elapsed):
    return TheoremVerdict(harness._verdict(theorem_id, graph_id, True, False, witness, elapsed))


class TestVerdicts:
    @staticmethod
    def check_invariants(v: TheoremVerdict):
        # an inapplicable verdict holds, only a failure has a witness, and
        # elapsed is a float, which the verdict encoder writes
        assert v.applicable or v.holds, v
        assert v.witness is None or not v.holds, v
        assert type(v.elapsed) is float, v

    def test_invariants_of_every_suite_verdict_to_order_seven(self, catalog_by_n):
        # disconnected graphs and the empty graph included
        for n in range(8):
            for g in catalog_by_n[n]:
                for v in run_suite(g):
                    self.check_invariants(v)

    @pytest.mark.parametrize(
        "theorem_id, bounds",
        [
            ("prop.corona-wc", {"base_max_n": 2}),
            ("prop.corona-w2", {"base_max_n": 2}),
            ("cor.corona-k1wc", {"base_max_n": 3, "p_max": 2}),
            ("thm.corona-bipartite-2mis", {"h_max_n": 3}),
            ("prop.join-wc", {"part_max_n": 3}),
            ("prop.join-w2", {"part_max_n": 3}),
            ("lem.concat-alpha", {"base_max_n": 2, "part_max_n": 3}),
            ("thm.concat-hierarchy", {"base_max_n": 2, "part_max_n": 4}),
        ],
    )
    def test_invariants_of_every_grid_verdict(self, theorem_id, bounds):
        verdicts = run_grid(theorem_id, bounds)
        assert verdicts
        for v in verdicts:
            self.check_invariants(v)

    def test_a_verdict_is_its_json_dict_with_read_only_fields(self):
        v = run_suite(path(3), ["cor.w2-minus-ns"])[0]
        assert v.to_json_dict() is v and not v.applicable and v.holds
        with pytest.raises(AttributeError):
            v.holds = False

    def test_json_shape(self):
        doc = run_suite(cycle(5), ["thm.w2-equivalence"])[0].to_json_dict()
        assert set(doc) == {
            "schema_version", "theorem", "graph", "applicable", "holds",
            "witness", "elapsed",
        }
        json.dumps(doc)


class TestVerdictText:
    """Verdicts, records and the summary are written from templates; each
    text is byte-equal to ``json.dumps`` of the matching dict."""

    @staticmethod
    def same(v: TheoremVerdict):
        text = v.to_json()
        assert text == json.dumps(v.to_json_dict())
        assert harness.verdict_json(v.to_json_dict()) == text

    def test_every_verdict_to_order_seven(self, catalog_by_n):
        for n in range(8):
            for g in catalog_by_n[n]:
                for v in run_suite(g):
                    self.same(v)

    def test_failing_verdicts_with_nested_witnesses(self):
        witnesses = [
            {"vertex": 3, "shedding": False},
            {"sets": [[0, 2], [1, 3]], "nested": {"a": [1, {"b": None}], "c": 2.5}},
            {"pair": (1, 2), "text": 'quote " and back\\slash', "unicode": "\u2205"},
            [1, [2, [3]]],
            "bare string",
            0,
        ]
        for i, witness in enumerate(witnesses):
            self.same(failure("thm.x-%d" % i, "Bw", witness, 1e-05 * i))
        self.same(failure('odd "%s" id', "A_", {"%d": "%s"}, 3.0))

    def test_graph_id_with_a_backslash(self):
        g = parse_graph6("EH\\w")
        assert g.n == 6 and write_graph6(g) == "EH\\w"
        verdicts = run_suite(g)
        assert all(v.graph_id == "EH\\w" for v in verdicts)
        for v in verdicts:
            self.same(v)
        self.same(failure("thm.x", "EH\\w", {"graph": "EH\\w"}, 0.5))

    def test_records_with_nested_failing_witnesses(self, monkeypatch):
        # every verdict fails with a nested witness, on graph ids that need
        # escaping; the record's graph id is encoded once for all of them
        monkeypatch.setattr(harness, "GRAPH_THEOREMS", {})
        witnesses = [
            {"sets": [[0, 2], [1, 3]], "nested": {"a": [1, {"b": None}], "c": 2.5}},
            {"pair": [1, 2], "text": 'quote " and back\\slash', "unicode": "\u2205"},
            [1, [2, [3]]],
            "bare string",
        ]
        for i, witness in enumerate(witnesses):
            harness._theorem("test.fails-%d" % i)(
                lambda ctx, witness=witness: (False, witness)
            )
        records = list(survey_catalog(["EH\\w", "Bw", "A_", "@"]))
        assert [len(r["verdicts"]) for r in records] == [4] * 4
        for record in records:
            assert not any(v["holds"] for v in record["verdicts"])
            assert survey.record_json(record) == json.dumps(record)

    def test_records_and_summary(self, monkeypatch):
        # a deliberately false statement fills the summary's failures
        monkeypatch.setattr(harness, "GRAPH_THEOREMS", dict(harness.GRAPH_THEOREMS))

        @harness._theorem("test.always-false")
        def _always_false(ctx):
            return False, {"reason": "synthetic", "sets": [[0], [1, 2]]}

        report = survey_catalog(["EH\\w", "!!", "Bw", "A_"])
        failures = []
        for record in report:
            failures += record["verdicts"][-1:]
            assert survey.record_json(record) == json.dumps(record)
        assert len(report.failures) == 3
        assert report.failures == failures
        grid = [
            failure("prop.x", "A_", {"base": "EH\\w"}, 0.25),
            failure("prop.y", "Bw", {"p": 2}, 1.0),
        ]
        for grid_failures in ([], grid):
            expected = {
                "schema_version": SCHEMA_VERSION,
                "aggregates": {str(n): agg for n, agg in report.aggregates.items()},
                "failures": failures,
                "parse_errors": [{"line": 2, "message": report.parse_errors[0][1]}],
                "graphs": 3,
                "elapsed": report.elapsed,
                "grid_failures": grid_failures,
            }
            text = report.summary_json(grid_failures)
            assert json.loads(text) == expected and text == json.dumps(expected)


class TestRunSuite:
    def test_survey_records_share_the_verdict_loop(self, catalog_by_n):
        # a survey record's verdicts are run_suite's verdicts as dicts,
        # elapsed apart
        def zeroed(verdicts):
            return [dict(v, elapsed=0.0) for v in verdicts]

        for n in range(8):
            for g in catalog_by_n[n]:
                record = survey._survey_one(3, (1, g))
                expected = [v.to_json_dict() for v in run_suite(GraphContext(g))]
                assert zeroed(record["verdicts"]) == zeroed(expected), write_graph6(g)

    def test_c5_all_hold(self):
        for verdict in run_suite(cycle(5)):
            assert verdict.holds, verdict

    def test_p6_mostly_inapplicable(self):
        verdicts = {v.theorem_id: v for v in run_suite(path(6))}
        assert not verdicts["cor.w2-minus-ns"].applicable
        assert verdicts["thm.w2-equivalence"].applicable
        assert verdicts["thm.w2-equivalence"].holds

    def test_concatenation_instance(self):
        g = concatenate(complete(2), cycle(5), 0)
        verdicts = {v.theorem_id: v for v in run_suite(g)}
        assert verdicts["thm.w2-equivalence"].applicable
        assert verdicts["thm.w2-equivalence"].holds
        preds = w2_equivalence_predicates(GraphContext(g))
        assert set(preds.values()) == {False}

    def test_seven_predicates_true_on_level_two_member(self):
        preds = w2_equivalence_predicates(GraphContext(cycle(5)))
        assert set(preds.values()) == {True}

    def test_zero_failures_on_full_small_catalog(self, catalog_by_n):
        for n in range(8):
            for g in catalog_by_n[n]:
                for verdict in run_suite(g):
                    assert not (verdict.applicable and not verdict.holds), (
                        write_graph6(g),
                        verdict.theorem_id,
                        verdict.witness,
                    )


class TestGrids:
    def test_unknown_bound_rejected(self):
        # a misspelt bound is named, not dropped in favour of the default grid
        for tid in GRID_THEOREM_IDS:
            with pytest.raises(ValueError, match="'base_maxn'"):
                run_grid(tid, {"base_maxn": 1})
        with pytest.raises(ValueError, match="'k'"):
            run_grid("prop.corona-wc", {"k": 2})

    def test_corona_wc_small(self):
        verdicts = run_grid("prop.corona-wc", {"base_max_n": 2})
        assert verdicts and all(v.holds for v in verdicts)

    def test_corona_w2_small(self):
        verdicts = run_grid("prop.corona-w2", {"base_max_n": 2})
        assert verdicts and all(v.holds for v in verdicts)

    def test_join_small(self):
        for tid in ("prop.join-wc", "prop.join-w2"):
            verdicts = run_grid(tid, {"part_max_n": 3})
            assert verdicts and all(v.holds for v in verdicts)

    def test_concat_alpha_small(self):
        verdicts = run_grid("lem.concat-alpha", {"base_max_n": 3, "part_max_n": 4})
        assert verdicts and all(v.holds for v in verdicts)

    def test_concat_hierarchy_small(self):
        verdicts = run_grid("thm.concat-hierarchy", {"base_max_n": 2, "part_max_n": 5})
        assert verdicts and all(v.holds for v in verdicts)

    def test_corona_k1wc_small(self):
        verdicts = run_grid("cor.corona-k1wc", {"base_max_n": 3, "p_max": 3})
        assert verdicts and all(v.holds for v in verdicts)

    def test_corona_bipartite_small(self):
        verdicts = run_grid("thm.corona-bipartite-2mis", {"h_max_n": 4})
        assert verdicts and all(v.holds for v in verdicts)


class TestSurvey:
    def test_cycle_census(self):
        lines = [write_graph6(cycle(n)) for n in range(3, 13)]
        wc = [r["report"]["n"] for r in survey_catalog(lines) if r["report"]["well_covered"]]
        assert wc == [3, 4, 5, 7]

    def test_connected_three_vertex_catalog(self):
        lines = [write_graph6(g) for g in cat.all_graphs(3, connected=True)]
        report = survey_catalog(lines)
        list(report)
        assert report.aggregates[3]["graphs"] == 2
        assert report.aggregates[3]["well_covered"] == 1
        assert not report.failures

    def test_zero_failures_n5_connected(self):
        lines = [write_graph6(g) for g in cat.all_graphs(5, connected=True)]
        report = survey_catalog(lines)
        assert len(list(report)) == 21 == report.graphs
        assert report.failures == []

    def test_parse_error_handling(self):
        report = survey_catalog(["A_", "!!", "Bw"])
        assert [r["line"] for r in report] == [1, 3]
        assert len(report.parse_errors) == 1 and report.parse_errors[0][0] == 2
        with pytest.raises(Graph6Error):
            list(survey_catalog(["!!"], strict=True))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_strict_yields_records_before_the_bad_line(self, jobs, monkeypatch):
        # at jobs 2 the pool takes over after the first record
        monkeypatch.setattr(survey, "POOL_AFTER_S", 0)
        records = []
        with pytest.raises(Graph6Error):
            for record in survey_catalog(["A_", "Bw", "!!", "BW"], strict=True, jobs=jobs):
                records.append(record)
        assert [r["line"] for r in records] == [1, 2]

    def test_counters_are_final_after_a_strict_parse_error(self):
        # the orders come out 5, 3; the error ends the stream before it is
        # exhausted, and the counters are sorted and timed all the same
        report = survey_catalog(["DQw", "Bw", "!!", "A_"], strict=True)
        with pytest.raises(Graph6Error):
            list(report)
        assert list(report.aggregates) == [3, 5] and report.graphs == 2
        assert report.elapsed > 0

    def test_first_record_before_second_line_is_read(self):
        pulled = []

        def lines():
            for n in range(3, 6):
                pulled.append(n)
                yield write_graph6(cycle(n))

        first = next(iter(survey_catalog(lines())))
        assert first["report"]["n"] == 3 and pulled == [3]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            survey_catalog([], jobs=0)
        with pytest.raises(ValueError):
            survey_catalog([], k_max=0)

    def test_filters(self):
        lines = [write_graph6(disjoint_union([complete(2), complete(2)])),
                 write_graph6(cycle(4))]
        report = survey_catalog(lines, connected=True)
        assert [r["line"] for r in report] == [2] and report.graphs == 1

    def test_determinism_and_jobs(self, monkeypatch):
        monkeypatch.setattr(survey, "POOL_AFTER_S", 0)
        lines = [write_graph6(g) for g in cat.all_graphs(5)]
        a = survey_catalog(lines, jobs=1)
        b = survey_catalog(lines, jobs=2)
        assert _without_elapsed(list(a)) == _without_elapsed(list(b))
        assert a.aggregates == b.aggregates and a.graphs == b.graphs == 34

    def test_hand_off_in_mid_stream_keeps_the_serial_records(self, monkeypatch):
        lines = [write_graph6(g) for g in cat.all_graphs(5)]
        monkeypatch.setattr(survey, "POOL_AFTER_S", float("inf"))
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        pooled, real = [], survey._pooled

        def spy(*args):
            for record in real(*args):
                pooled.append(record["line"])
                yield record

        monkeypatch.setattr(survey, "_pooled", spy)

        def stream():
            for line_number, line in enumerate(lines, start=1):
                if line_number == 11:  # hand off once this line's record is out
                    monkeypatch.setattr(survey, "POOL_AFTER_S", 0)
                yield line

        report = survey_catalog(stream(), jobs=2)
        assert _without_elapsed(list(report)) == _without_elapsed(list(survey_catalog(lines)))
        assert pooled == list(range(12, 35)) and report.graphs == 34

    @pytest.mark.parametrize(
        "pool_after_s, lines",
        [(float("inf"), ["A_", "Bw", "!!", "BW"]), (0, ["A_", "!!", "Bw"])],
        ids=["before", "at"],
    )
    def test_strict_error_before_the_hand_off_starts_no_pool(
        self, monkeypatch, pool_after_s, lines
    ):
        # at 0 the hand-off comes after the first record, and the line it
        # reads first is the malformed one
        import multiprocessing

        def refuse(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", refuse)
        monkeypatch.setattr(survey, "POOL_AFTER_S", pool_after_s)
        monkeypatch.setattr(survey, "_usable_cpus", lambda: 2)
        serial = []
        with pytest.raises(Graph6Error):
            serial.extend(survey_catalog(lines, strict=True, jobs=1))
        records = []
        with pytest.raises(Graph6Error):
            records.extend(survey_catalog(lines, strict=True, jobs=2))
        assert _without_elapsed(records) == _without_elapsed(serial)
        assert len(records) == lines.index("!!")

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
        # a stand-in pool records its size and starts no process
        import multiprocessing

        sizes = []

        class StandInPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, items, chunksize=1):
                return map(func, items)

        monkeypatch.setattr(multiprocessing, "Pool", StandInPool)
        monkeypatch.setattr(survey, "POOL_AFTER_S", 0)
        lines = [write_graph6(cycle(n)) for n in range(3, 7)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert len(list(survey_catalog(lines, jobs=100_000))) == 4 and sizes == [3]
        # without the affinity call the CPU count caps it; one CPU starts no pool
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        list(survey_catalog(lines, jobs=100_000))
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        list(survey_catalog(lines, jobs=100_000))
        assert sizes == [3, 4]


def _without_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _without_elapsed(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [_without_elapsed(v) for v in doc]
    return doc


class TestSharedContext:
    def test_shared_equals_fresh_to_order_seven(self, connected_by_n):
        # class_report then run_suite over one context, as a survey does,
        # against each over a context of its own
        for n in range(1, 8):
            for g in connected_by_n[n]:
                ctx = GraphContext(g)
                shared = [class_report(ctx, 3).to_json_dict()]
                shared += [v.to_json_dict() for v in run_suite(ctx)]
                fresh = [class_report(GraphContext(g), 3).to_json_dict()]
                fresh += [v.to_json_dict() for v in run_suite(GraphContext(g))]
                assert _without_elapsed(shared) == _without_elapsed(fresh), write_graph6(g)

    def test_report_leaves_verify_fields_unbuilt(self):
        ctx = GraphContext(cycle(22))
        class_report(ctx, 3)
        assert "ind" not in ctx.__dict__

    def test_report_enumerates_omega_once(self, monkeypatch):
        # Omega, alpha and the shedding vertices all read the context's one
        # list of maximal independent sets
        from wellcover import classify

        calls = []
        enumerate_maximal = classify._iter_maximal_independent
        monkeypatch.setattr(
            classify,
            "_iter_maximal_independent",
            lambda adj, mask: calls.append(mask) or enumerate_maximal(adj, mask),
        )
        rep = class_report(cycle(22), 3)
        assert rep.disjoint_mis_max == 2 and rep.alpha == 11 and rep.shed == 0
        assert calls == [cycle(22).full_mask]

    def test_suite_computes_girth_once_per_graph(self, monkeypatch, connected_by_n):
        from wellcover import classify, graph, harness

        calls = []

        def counted(g):
            calls.append(g)
            return graph.girth(g)

        # whichever module binds the name, every call is counted
        monkeypatch.setattr(harness, "girth", counted, raising=False)
        monkeypatch.setattr(classify, "girth", counted, raising=False)
        for g in connected_by_n[5]:
            calls.clear()
            run_suite(g)
            assert len(calls) <= 1, write_graph6(g)

    def test_suite_computes_simplicial_vertices_once_per_graph(
        self, monkeypatch, connected_by_n
    ):
        from wellcover import classify

        calls = []
        simplicial = classify.simplicial_vertices
        monkeypatch.setattr(
            classify, "simplicial_vertices", lambda g: calls.append(g) or simplicial(g)
        )
        for g in connected_by_n[5]:
            calls.clear()
            run_suite(g)
            assert len(calls) <= 1, write_graph6(g)


class TestW2DefinitionPredicate:
    """The level-2 definition predicate of thm.w2-equivalence, which tests
    family-maximal pairs only, against the pruned family enumeration."""

    def _assert_agree(self, g):
        pred = w2_equivalence_predicates(GraphContext(g))["w2_membership"]
        assert pred == is_in_w_generic(g, 2), write_graph6(g)

    def test_agrees_to_order_eight(self):
        # every graph of order <= 8 without isolated vertices
        for n in range(9):
            for g in cat.all_graphs(n):
                if all(g.adj):
                    self._assert_agree(g)

    def test_agrees_on_larger_graphs(self):
        members = [corona_uniform(path(3), complete(2)), corona_uniform(cycle(4), complete(2))]
        for g in members + list(relabelled_random_graphs(20261020, 100, 9, 12)):
            self._assert_agree(g)


class TestTwoDisjointCompletions:
    """p4 of thm.w2-equivalence, read from the meets of pairs of maximum
    independent sets, against a packing search per independent set."""

    @staticmethod
    def _assert_agree(g):
        ctx = GraphContext(g)
        pred = w2_equivalence_predicates(ctx)["two_disjoint_completions"]
        assert pred == two_disjoint_completions_by_packing(ctx), write_graph6(g)

    def test_agrees_to_order_eight(self):
        # every graph of order <= 8 without isolated vertices
        for n in range(9):
            for g in cat.all_graphs(n):
                if all(g.adj):
                    self._assert_agree(g)

    def test_agrees_on_level_two_of_order_nine(self):
        full = (1 << 9) - 1
        members = [
            g for g in (Graph._raw(9, adj) for adj in cat._level_adj(9))
            if _wc_scan(g.adj, full)[0] and is_in_w(g, 2)
        ]
        assert len(members) == 479
        for g in members:
            self._assert_agree(g)


class TestHallAndSupersetChecks:
    """thm.berge-maximum by Hall's condition and thm.shedding-epsilon by one
    pass over the independent supersets, against the matching and the
    per-(vertex, set) alpha checks they replace."""

    CHECKS = {
        "thm.berge-maximum": berge_by_matching,
        "thm.shedding-epsilon": shedding_epsilon_by_alpha,
    }

    def _assert_agree(self, g):
        ctx = GraphContext(g)
        for tid, oracle in self.CHECKS.items():
            check = GRAPH_THEOREMS[tid][1]
            assert check(ctx) == oracle(ctx) == (True, None), (write_graph6(g), tid)

    def test_agree_with_oracles_on_catalog(self, catalog_by_n):
        # order 8 (about 15 s more) runs with WELLCOVER_ACCEPT_N8=1
        for n in range(1, 8):
            for g in catalog_by_n[n]:
                self._assert_agree(g)
        if os.environ.get("WELLCOVER_ACCEPT_N8") == "1":
            for g in cat.all_graphs(8):
                self._assert_agree(g)

    def test_agree_with_oracles_on_larger_graphs(self):
        for g in (path(16), cycle(18), *relabelled_random_graphs(20261018, 12, 9, 14)):
            self._assert_agree(g)

    def test_same_witness_when_a_shedding_bit_flips(self, connected_by_n):
        check = GRAPH_THEOREMS["thm.shedding-epsilon"][1]
        for g in connected_by_n[5] + [path(7), cycle(7)]:
            for v in range(g.n):
                ctx = GraphContext(g)
                ctx.shed ^= 1 << v
                expected = (False, {"vertex": v, "shedding": bool(ctx.shed >> v & 1)})
                assert check(ctx) == shedding_epsilon_by_alpha(ctx) == expected

    def test_same_witness_when_a_maximum_set_is_dropped(self, connected_by_n):
        check = GRAPH_THEOREMS["thm.berge-maximum"][1]
        for g in connected_by_n[5] + [path(7), cycle(7)]:
            for j, s in enumerate(GraphContext(g).omega):
                ctx = GraphContext(g)
                ctx.omega = ctx.omega[:j] + ctx.omega[j + 1:]
                expected = (False, {"independent": vertices_of(s), "maximum": False})
                assert check(ctx) == berge_by_matching(ctx) == expected

    def test_berge_runs_no_matching(self, monkeypatch):
        from wellcover import harness

        def refuse(*args):
            raise AssertionError("thm.berge-maximum ran a matching search")

        monkeypatch.setattr(harness, "can_match_into", refuse)
        monkeypatch.setattr(harness, "_iter_maximal_independent", refuse)
        for g in (cycle(7), path(8), concatenate(complete(2), cycle(5), 0)):
            [verdict] = run_suite(g, ["thm.berge-maximum"])
            assert verdict.applicable and verdict.holds

    def test_shedding_epsilon_computes_no_alpha(self, monkeypatch):
        contexts = [GraphContext(g) for g in (cycle(7), path(8), complete_bipartite(2, 3))]

        def refuse(self, mask):
            raise AssertionError("thm.shedding-epsilon computed an independence number")

        monkeypatch.setattr(GraphContext, "alpha_of", refuse)
        for ctx in contexts:
            [verdict] = run_suite(ctx, ["thm.shedding-epsilon"])
            assert verdict.applicable and verdict.holds


class TestHunt:
    def test_no_shedding_contains_c4_c7(self):
        report = hunt(HuntTarget("problem.no-shedding", max_n=7))
        found = {cat.certificate(parse_graph6(e["graph"]).adj) for e in report.entries}
        assert cat.certificate(cycle(4).adj) in found
        assert cat.certificate(cycle(7).adj) in found

    def test_no_shedding_census_matches_the_oracle(self):
        # the census stops at a graph's first shedding vertex; the oracle
        # reads well-coveredness and shedding from their definitions
        report = hunt(HuntTarget("problem.no-shedding", max_n=7))
        assert report.summary == {"found": 19, "found_connected": 8, "checked": 1252}
        accepted = [
            g.adj for g in cat.graphs_up_to(7) if well_covered_without_shedding_by_subsets(g)
        ]
        assert [e["graph"] for e in report.entries] == [
            write_graph6(Graph._raw(len(adj), adj)) for adj in cat.canonical_forms(accepted)
        ]

    def test_no_shedding_from_stream(self):
        report = hunt(
            HuntTarget("problem.no-shedding", max_n=10),
            source=[write_graph6(cycle(n)) for n in range(3, 11)],
        )
        assert sorted(e["n"] for e in report.entries) == [4, 7]

    def test_census_does_not_depend_on_labelling(self):
        # a shuffled, relabelled stream of the catalog gives the same
        # entries: each is the canonical form of its class
        target = HuntTarget("problem.no-shedding", max_n=7)
        rng = random.Random(7)
        stream = []
        for g in cat.graphs_up_to(7):
            perm = list(range(g.n))
            rng.shuffle(perm)
            stream.append(Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        rng.shuffle(stream)
        expected = hunt(target).entries
        assert hunt(target, source=stream).entries == expected
        for e in expected:
            adj = parse_graph6(e["graph"]).adj
            assert cat.certificate(adj)[1:] == adj

    def test_malformed_stream_line_raises(self):
        with pytest.raises(Graph6Error):
            hunt(HuntTarget("problem.no-shedding", max_n=5), source=["Bw", "", "!!"])

    def test_conjecture_proven_case(self):
        report = hunt(HuntTarget("conjecture.wk-concat", max_n=5, k=3, base_max_n=2))
        assert report.summary["counterexamples"] == 0
        assert report.checked > 0

    def test_alpha_plus_mu_members(self):
        report = hunt(HuntTarget("problem.alpha-plus-mu", max_n=6))
        want = {
            cat.certificate(cycle(3).adj),
            cat.certificate(cycle(5).adj),
            cat.certificate(corona_uniform(path(2), complete(2)).adj),
        }
        got = {cat.certificate(parse_graph6(e["graph"]).adj) for e in report.entries}
        assert want <= got

    def test_girth5_census_reports_both(self):
        report = hunt(HuntTarget("problem.two-disjoint-mis-girth5", max_n=5))
        assert "found" in report.summary and "found_connected" in report.summary
        assert report.summary["found"] >= report.summary["found_connected"]

    def test_w2_alpha2_census(self):
        report = hunt(HuntTarget("problem.w2-alpha2", max_n=5))
        names = {cat.certificate(parse_graph6(e["graph"]).adj) for e in report.entries}
        assert cat.certificate(cycle(5).adj) in names

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            HuntTarget("problem.no-shedding", max_n=0)
        with pytest.raises(ValueError):
            HuntTarget("problem.no-shedding", max_n=99)
        with pytest.raises(ValueError):
            HuntTarget("nonsense")

    def test_base_max_n_is_capped(self):
        # the conjecture's bases are catalog levels too
        cap = cat.HUNT_MAX_N
        with pytest.raises(ValueError, match=f"capped at n <= {cap}$"):
            HuntTarget("conjecture.wk-concat", base_max_n=cap + 1)
        assert HuntTarget("conjecture.wk-concat", base_max_n=cap).base_max_n == cap

    def test_json_shape(self):
        doc = hunt(HuntTarget("problem.no-shedding", max_n=4)).to_json_dict()
        json.dumps(doc)
        assert doc["target"] == "problem.no-shedding"


class TestLargeBoundInvariants:
    """Catalog sweeps at the larger orders the statements are quantified over.

    The heavyweight per-vertex quantifier checks are bounded at n <= 7 and run
    in the exhaustive scan above; the checks here have cheap hypothesis gates,
    so pushing the catalogs further stays fast.
    """

    N8_THEOREMS = [
        "lem.alpha-stability",
        "thm.w2-equivalence",
        "cor.w2-minus-ns",
        "cor.w2-no-leaf",
        "cor.w2-minus-nv",
        "thm.w2-properties",
        "cor.w2-degree-bound",
        "cor.w2-differential-bound",
        "cor.shedding-wc",
        "cor.shedding-four-way",
        "prop.simplicial-shed",
        "cor.simplicial-delete",
        "thm.simplex-partition",
        "prop.two-simplicial-w2",
        "thm.w2-five-way",
        "cor.w2-order-extremal",
        "thm.w2-triangle-free-gab",
        "prop.locally-tf-w2",
        "thm.hartnell-c4free",
    ]

    def test_connected_order_eight_sweep(self):
        failures = []
        for g in cat.all_graphs(8, connected=True):
            for v in run_suite(g, self.N8_THEOREMS):
                if v.applicable and not v.holds:
                    failures.append((write_graph6(g), v.theorem_id, v.witness))
        assert not failures, failures[:3]

    @staticmethod
    def girth_graphs(girth_levels, min_girth, max_n, connected):
        for n in range(1, max_n + 1):
            for adj in girth_levels[min_girth][n]:
                g = Graph._raw(n, adj)
                if not connected or is_connected(g):
                    yield g

    def test_girth_six_corona_to_order_ten(self, girth_levels):
        failures = []
        for g in self.girth_graphs(girth_levels, 6, 10, connected=True):
            for v in run_suite(g, ["thm.girth6-wc-corona"]):
                if v.applicable and not v.holds:
                    failures.append((write_graph6(g), v.witness))
        assert not failures, failures[:3]

    def test_girth_five_corona_to_order_ten(self, girth_levels):
        failures = []
        for g in self.girth_graphs(girth_levels, 5, 10, connected=True):
            for v in run_suite(g, ["thm.girth5-vwc-corona"]):
                if v.applicable and not v.holds:
                    failures.append((write_graph6(g), v.witness))
        assert not failures, failures[:3]

    def test_triangle_free_gab_criterion_to_order_eight(self, girth_levels):
        failures = []
        for g in self.girth_graphs(girth_levels, 4, 8, connected=False):
            for v in run_suite(g, ["thm.w2-triangle-free-gab"]):
                if v.applicable and not v.holds:
                    failures.append((write_graph6(g), v.witness))
        assert not failures, failures[:3]

    def test_hartnell_to_order_nine(self):
        from wellcover.graph import has_four_cycle
        from wellcover.independence import _wc_scan
        from wellcover.classify import is_in_w

        failures = []
        for n in range(1, 10):
            full = (1 << n) - 1
            for adj in cat._level_adj(n):
                g = Graph._raw(n, adj)
                if not is_connected(g) or has_four_cycle(g):
                    continue
                # only level-2 members need the family test; they are rare
                if not _wc_scan(adj, full)[0] or not is_in_w(g, 2):
                    continue
                for v in run_suite(g, ["thm.hartnell-c4free"]):
                    if v.applicable and not v.holds:
                        failures.append((write_graph6(g), v.witness))
        assert not failures, failures[:3]


class TestLocallyTriangleFreeRefinement:
    def test_double_four_cycle_complement_member(self):
        # the join of two copies of 2K2: locally triangle-free, level-2,
        # independence number 2, yet its complement is two 4-cycles rather
        # than one cycle -- the reason the registered check accepts unions
        from wellcover.classify import is_in_w, is_locally_triangle_free
        from wellcover.constructions import join
        from wellcover.graph import complement, components, cycle
        from wellcover.independence import independence_number

        two_k2 = disjoint_union([complete(2), complete(2)])
        g = join([two_k2, two_k2])
        assert cat.certificate(g.adj) == cat.certificate(
            complement(disjoint_union([cycle(4), cycle(4)])).adj
        )
        assert is_locally_triangle_free(g)
        assert independence_number(g) == 2
        assert is_in_w(g, 2) and is_in_w_generic(g, 2)
        assert len(components(complement(g))) == 2
        verdict = run_suite(g, ["prop.locally-tf-w2"])[0]
        assert verdict.applicable and verdict.holds


class TestOutsideMembershipRemarks:
    """Graphs outside level 2 that nonetheless satisfy most of its
    consequences, pinning down exactly which ones they satisfy."""

    def test_c7_fails_only_differential_monotonicity(self):
        from wellcover.harness import (
            _chk_w2_degree_bound,
            _chk_w2_differential_bound,
            _chk_w2_properties,
        )
        from wellcover.classify import is_in_w, is_well_covered

        ctx = GraphContext(cycle(7))
        assert is_well_covered(cycle(7)) and not is_in_w(cycle(7), 2)
        ok, witness = _chk_w2_properties(ctx)
        # the five-way theorem forces the differential to be non-monotone on
        # a well-covered non-member, so exactly that item must fail
        assert not ok and witness["item"] == "differential_monotone"
        assert _chk_w2_degree_bound(ctx)[0]
        assert _chk_w2_differential_bound(ctx)[0]

    def test_k2_has_no_two_disjoint_maximum_sets_avoiding_a_vertex(self):
        # the gate keeps the single edge out, so the check is called
        # directly: of K2's maximum sets {0} and {1}, only {1} avoids vertex 0
        from wellcover.harness import _chk_w2_properties

        ctx = GraphContext(parse_graph6("A_"))
        assert _chk_w2_properties(ctx) == (
            False, {"item": "two_disjoint_maximum_sets_avoiding_vertex", "vertex": 0}
        )

    def test_c9_enjoys_the_corollaries_without_membership(self):
        from wellcover.harness import (
            _chk_w2_degree_bound,
            _chk_w2_differential_bound,
        )
        from wellcover.classify import is_well_covered

        ctx = GraphContext(cycle(9))
        assert not is_well_covered(cycle(9))
        assert _chk_w2_degree_bound(ctx)[0]
        assert _chk_w2_differential_bound(ctx)[0]

    def test_neighborhood_alpha_bound_fails_off_membership(self):
        # a quasi-regularizable graph and a well-covered graph, each with an
        # independent pair whose neighborhood holds no two independent
        # vertices, showing the bound needs level-2 membership
        from wellcover.classify import is_quasi_regularizable, is_well_covered
        from wellcover.graph import Graph, mask_of
        from wellcover.independence import _alpha, _nbhd

        g1 = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (1, 4), (3, 4), (3, 2), (2, 4)])
        assert is_quasi_regularizable(g1) and not is_well_covered(g1)
        pair = mask_of([0, 4])
        assert not g1.adj[0] >> 4 & 1
        assert _alpha(g1.adj, _nbhd(g1.adj, pair)) == 1

        g2 = Graph(7, [(0, 1), (1, 2), (0, 3), (1, 4), (5, 6), (2, 6), (2, 5)])
        assert is_well_covered(g2)
        pair = mask_of([3, 4])
        assert _alpha(g2.adj, _nbhd(g2.adj, pair)) == 1
