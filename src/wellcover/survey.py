"""The catalog survey: classify every graph of a stream and run the theorem
registry of ``harness`` on it, one record per graph, serially or on a pool
of worker processes.

The stream is read by ``hunting._read_graphs``.  This module is separate
from ``hunting`` because it imports the registry, which a hunt never loads.
"""

from __future__ import annotations

import os
import time
from collections.abc import Iterator
from functools import partial
from itertools import chain
from json import dumps
from json.encoder import encode_basestring_ascii

from .classify import SCHEMA_VERSION, GraphContext, report_dict
from .graph import Graph6Error
from .harness import _verdict_text, _verdicts, verdict_json
from .hunting import _read_graphs


# a plain class, not a dataclass, so that ``verify`` does not import
# dataclasses (and with it inspect)
class SurveyReport:
    """A survey in progress.  Iterating it yields one record per graph, in
    input order, and folds each record into the counters below, which are
    final once the iteration ends or stops on an error."""

    def __init__(self):
        self.aggregates = {}    # per-order counters
        self.failures = []      # verdicts of proven theorems that failed
        self.parse_errors = []  # (line_number, message)
        self.graphs = 0
        self.elapsed = 0.0
        self._records = iter(())

    def __iter__(self) -> Iterator[dict]:
        return self._records

    def summary_json(self, grid_failures=()) -> str:
        """The summary line, as ``json.dumps`` writes it: the counters, the
        failures, the parse errors and a ``grid_failures`` list of grid
        verdicts, each verdict written by the verdict encoder."""
        return (
            '{"schema_version": %d, "aggregates": %s, "failures": [%s], "parse_errors": %s,'
            ' "graphs": %d, "elapsed": %s, "grid_failures": [%s]}'
            % (
                SCHEMA_VERSION, dumps(self.aggregates),
                ", ".join(map(verdict_json, self.failures)),
                dumps([{"line": line, "message": msg} for line, msg in self.parse_errors]),
                self.graphs, float.__repr__(self.elapsed),
                ", ".join(map(verdict_json, grid_failures)),
            )
        )

    def _fold(self, record: dict):
        self.graphs += 1
        rep = record["report"]
        counted = {
            "graphs": True,
            "well_covered": rep["well_covered"],
            "very_well_covered": rep["very_well_covered"],
            "one_well_covered": rep["one_well_covered"],
        }
        # only the levels the report probed: w_level stops at its k_max
        for k in range(2, rep["k_max"] + 1):
            counted[f"w{k}"] = rep["w_level"] >= k
        agg = self.aggregates.setdefault(rep["n"], dict.fromkeys(counted, 0))
        for key, flag in counted.items():
            agg[key] += int(flag)
        for verdict in record["verdicts"]:
            if verdict["applicable"] and not verdict["holds"]:
                self.failures.append(verdict)


def record_json(record: dict) -> str:
    """``json.dumps(record)`` of a survey record, its verdicts written by the
    verdict encoder.  Every verdict of a record is of the report's graph, so
    its id is encoded once."""
    report = record["report"]
    graph_text = encode_basestring_ascii(report["graph"])
    return '{"line": %d, "report": %s, "verdicts": [%s]}' % (
        record["line"], dumps(report),
        ", ".join([_verdict_text(v, graph_text) for v in record["verdicts"]]),
    )


def _survey_one(k_max: int, item) -> dict:
    line_number, g = item
    ctx = GraphContext(g)
    return {
        "line": line_number,
        "report": report_dict(ctx, k_max),
        "verdicts": _verdicts(ctx),
    }


def survey_catalog(
    lines,
    k_max: int = 3,
    connected: bool = False,
    strict: bool = False,
    jobs: int = 1,
) -> SurveyReport:
    """Classify and theorem-check every graph of a stream of graph6 lines or
    ``Graph`` objects.

    Nothing is read until the returned report is iterated; it then yields
    one record per graph in input order, each as soon as it is ready, so
    memory does not grow with the stream.  ``connected`` skips disconnected
    graphs.  A line number counts every item of the stream, a ``Graph``
    included.  Parse failures are recorded with their line numbers and skipped,
    unless ``strict``: then the records before the first malformed line come
    out and the iteration raises ``Graph6Error``.  ``jobs`` > 1 spreads the
    per-graph work over that many worker processes, capped at the CPUs the
    process may use, without changing the records; the workers start only
    once the survey has run serially for ``POOL_AFTER_S`` (about 0.5 s), so
    a short survey starts none.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    report = SurveyReport()
    report._records = _survey_stream(report, lines, k_max, connected, strict, jobs)
    return report


# A survey with jobs > 1 hands the rest of its stream to the worker pool only
# after computing records serially for this many seconds.  Importing
# multiprocessing and its pool and forking two workers takes 20-30 ms, and
# each graph and record then crosses a pipe, while one order-8 or order-9
# graph takes 0.5-0.9 ms (in-process, 2-vCPU Xeon).  So the benchmark's
# 240-graph verify ran barely faster at --jobs 2 than at --jobs 1 (pool
# speed-up 0.95-1.11) and spent more CPU time.  Half a second of serial work
# makes that start-up a few per cent of any run that reaches the pool, and a
# long run gives up at most half a second of parallel work.
POOL_AFTER_S = 0.5


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _survey_stream(report, lines, k_max, connected, strict, jobs):
    t0 = time.perf_counter()
    work = _read_graphs(lines, connected, None if strict else report.parse_errors)
    survey_one = partial(_survey_one, k_max)
    jobs = min(jobs, _usable_cpus())
    try:
        for item in work:
            record = survey_one(item)
            report._fold(record)
            yield record
            if jobs > 1 and time.perf_counter() - t0 >= POOL_AFTER_S:
                for record in _pooled(survey_one, work, jobs):
                    report._fold(record)
                    yield record
                break
    finally:
        # also when a strict parse error ends the survey early
        report.aggregates = {n: report.aggregates[n] for n in sorted(report.aggregates)}
        report.elapsed = time.perf_counter() - t0


def _pooled(survey_one, work, jobs):
    """The records of the rest of ``work``, in order, from ``jobs`` worker
    processes; an input that has ended starts none."""
    first = next(work, None)
    if first is None:
        return
    import multiprocessing  # about 20 ms of start-up that short surveys skip

    stopped = []  # the strict-mode parse error that ended the input
    with multiprocessing.Pool(jobs) as pool:
        # the pool reads its input on a thread of its own and would drop
        # the records of a partly read chunk if that read raised, so the
        # error is held back until the records before it are out
        items = _until_parse_error(chain([first], work), stopped)
        yield from pool.imap(survey_one, items, chunksize=16)
    if stopped:
        raise stopped[0]


def _until_parse_error(items, stopped: list):
    try:
        yield from items
    except Graph6Error as exc:
        stopped.append(exc)
