"""One in-process pass of a workload, for the per-layer numbers.

    python3 perfbench/traced.py --workload NAME (--inputs FILE | --max-n N [--cold]) \
        --cache DIR --mode plain|traced

The pass calls the public functions of the program's modules in the order the
CLI would, so its "core" does the same work as one CLI pass.  In ``plain``
mode it only times the core.  In ``traced`` mode it records a span around
each call into a layer and wraps ``catalog.certificate``,
``graph.parse_graph6`` and ``graph.write_graph6`` (counted and timed, not one
span per call, since they run hundreds of thousands of times).  A breakdown
then calls each classify field and independence kernel through its public
function on every input graph.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import SRC  # noqa: E402

sys.path.insert(0, str(SRC))

K_MAX = 3  # the CLI default


class Tracer:
    """Spans kept in memory: name, start, end, parent and workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self.rollups: dict[tuple[str, int], list] = {}  # (name, parent) -> [count, seconds]
        self.stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self.stack[-1] if self.stack else None,
               "workload": self.workload, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self.stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        rollups, stack = self.rollups, self.stack

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, stack[-1] if stack else None)
                slot = rollups.get(key)
                if slot is None:
                    slot = rollups[key] = [0, 0.0]
                slot[0] += 1
                slot[1] += time.perf_counter() - t0

        return wrapper

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def rolled(self, name: str, under: str | None = None) -> tuple[int, float]:
        count, secs = 0, 0.0
        for (rname, parent), (c, s) in self.rollups.items():
            if rname == name and (under is None or (
                    parent is not None and self.spans[parent]["name"] == under)):
                count += c
                secs += s
        return count, secs

    def self_time(self, sid: int) -> float:
        s = self.spans[sid]
        inner = sum(c["end"] - c["start"] for c in self.spans if c["parent"] == sid)
        inner += sum(v[1] for (_, parent), v in self.rollups.items() if parent == sid)
        return s["end"] - s["start"] - inner

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "rollups": [
                {"name": name, "parent": parent, "workload": self.workload,
                 "count": c, "seconds": s}
                for (name, parent), (c, s) in self.rollups.items()
            ],
        }


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield None


def install_wrappers(tracer: Tracer):
    """Route the hot public functions of `catalog` and `graph` through the
    tracer, in every module of the package that binds them."""
    import wellcover
    from wellcover import catalog, classify, cli, constructions, graph, harness, independence

    modules = (wellcover, catalog, classify, cli, constructions, graph, harness, independence)
    for owner, name, label in (
        (catalog, "certificate", "catalog.certificate"),
        (graph, "parse_graph6", "graph.parse"),
        (graph, "write_graph6", "graph.write"),
    ):
        original = getattr(owner, name)
        wrapped = tracer.wrap(label, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)


def core_graphs(workload: str, inputs: list[str], tr, out: dict):
    """verify/analyze: one record per graph, as `_survey_one` / `cmd_analyze`."""
    from wellcover import classify, graph, harness

    theorem_s = dict.fromkeys(harness.GRAPH_THEOREM_IDS, 0.0)
    applicable = verdicts = 0
    ok_graphs = []
    for text in inputs:
        with tr.span("op"):
            g = graph.parse_graph6(text)
            try:
                with tr.span("classify.class_report"):
                    rep = classify.class_report(g, K_MAX).to_json_dict()
            except ValueError:
                continue  # the CLI exits 2 here; the run reports that op as failed
            record = rep
            if workload == "verify":
                with tr.span("harness.run_suite"):
                    result = harness.run_suite(g)
                for v in result:
                    theorem_s[v.theorem_id] = theorem_s.get(v.theorem_id, 0.0) + v.elapsed
                    applicable += v.applicable
                    verdicts += 1
                record = {"report": rep, "verdicts": [v.to_json_dict() for v in result]}
            with tr.span("cli.json"):
                json.dumps(record)
            ok_graphs.append(g)
    out["theorem_s"] = theorem_s
    out["applicable_frac"] = applicable / verdicts if verdicts else 0.0
    return ok_graphs


def core_hunt(max_n: int, cold: bool, tr, out: dict):
    """hunt: the catalog step of `hunt`, generated or loaded, then the hunt itself."""
    from wellcover import catalog, harness

    with tr.span("catalog.generate" if cold else "catalog.load"):
        out["catalog_graphs"] = sum(1 for _ in catalog.graphs_up_to(max_n))
    with tr.span("harness.hunt"):
        report = harness.hunt(harness.HuntTarget("problem.no-shedding", max_n=max_n))
    with tr.span("cli.json"):
        json.dumps(report.to_json_dict())
    out["summary"] = report.summary
    out["theorem_s"] = dict.fromkeys(harness.GRAPH_THEOREM_IDS, 0.0)
    return []


def breakdown(graphs, tr: Tracer):
    """Each class_report field and independence kernel, via its public function."""
    from wellcover import classify, independence

    mis_count = 0
    calls = (
        ("classify.w_level", lambda g: classify.w_level(g, K_MAX)),
        ("classify.conventions", lambda g: classify.w_convention_disagreements(g, K_MAX)),
        ("classify.shedding", classify.shedding_vertices),
        ("classify.qr", classify.is_quasi_regularizable),
        ("classify.reg", classify.is_regularizable),
        ("classify.vwc", classify.is_very_well_covered),
        ("classify.one_wc", classify.is_one_well_covered),
        ("independence.differential", independence.differential_of_graph),
        ("independence.alpha", independence.independence_number),
        ("independence.matching", independence.maximum_matching_size),
    )
    for g in graphs:
        for name, fn in calls:
            with tr.span(name):
                fn(g)
        with tr.span("independence.disjoint_mis"):
            for k in range(1, K_MAX + 1):  # as class_report probes them
                if not independence.has_k_disjoint_maximum_independent_sets(g, k)[0]:
                    break
        with tr.span("independence.mis_enum"):
            mis_count += len(independence.maximal_independent_sets(g))
    return mis_count


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs")
    ap.add_argument("--max-n", type=int)
    ap.add_argument("--cold", action="store_true", help="the hunt generates its catalog")
    ap.add_argument("--cache", required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    args = ap.parse_args()
    os.environ["WELLCOVER_CACHE_DIR"] = args.cache

    import wellcover  # noqa: F401  (imports stay outside the timed core)

    tr = Tracer(args.workload) if args.mode == "traced" else NullTracer()
    if args.mode == "traced":
        install_wrappers(tr)
    out: dict = {}
    t0 = time.perf_counter()
    if args.workload in ("verify", "analyze"):
        inputs = Path(args.inputs).read_text().split()
        graphs = core_graphs(args.workload, inputs, tr, out)
    else:
        graphs = core_hunt(args.max_n, args.cold, tr, out)
    out["core_s"] = time.perf_counter() - t0
    if args.mode == "traced":
        top = [s for s in tr.spans if s["parent"] is None]
        out["unaccounted_s"] = out["core_s"] - sum(s["end"] - s["start"] for s in top)
        out["layers"] = layer_metrics(tr, out)
        if graphs:
            out["layers"]["independence.mis_count"] = breakdown(graphs, tr)
        for name in BREAKDOWN_SPANS:
            out["layers"][name + "_s"] = tr.total(name)
        out["trace"] = tr.export()
    print(json.dumps(out))
    return 0


BREAKDOWN_SPANS = (
    "classify.w_level", "classify.conventions", "classify.shedding", "classify.qr",
    "classify.reg", "classify.vwc", "classify.one_wc", "independence.differential",
    "independence.alpha", "independence.matching", "independence.disjoint_mis",
    "independence.mis_enum",
)


def layer_metrics(tr: Tracer, out: dict) -> dict:
    cert_calls, cert_s = tr.rolled("catalog.certificate")
    gen_calls, _ = tr.rolled("catalog.certificate", under="catalog.generate")
    _, dedup_s = tr.rolled("catalog.certificate", under="harness.hunt")
    generated = out.get("catalog_graphs", 0) if tr.total("catalog.generate") else 0
    hunts = [s["id"] for s in tr.spans if s["name"] == "harness.hunt"]
    layers = {
        "catalog.generate_s": tr.total("catalog.generate"),
        "catalog.certificate_calls": cert_calls,
        "catalog.certificate_s": cert_s,
        "catalog.dedup_ratio": generated / gen_calls if gen_calls else 0.0,
        "catalog.load_s": tr.total("catalog.load"),
        "graph.parse_s": tr.rolled("graph.parse")[1],
        "graph.write_s": tr.rolled("graph.write")[1],
        "classify.class_report_s": tr.total("classify.class_report"),
        "harness.run_suite_s": tr.total("harness.run_suite"),
        "harness.applicable_frac": out.pop("applicable_frac", 0.0),
        "harness.hunt_predicate_s": sum(tr.self_time(sid) for sid in hunts),
        "harness.hunt_dedup_s": dedup_s,
        "cli.json_s": tr.total("cli.json"),
        "trace.unaccounted_s": out["unaccounted_s"],
        "independence.mis_count": 0,
    }
    for tid, secs in out.pop("theorem_s").items():
        layers["harness.theorem_s." + tid] = secs
    return layers


if __name__ == "__main__":
    sys.exit(main())
