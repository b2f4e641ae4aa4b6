"""Command-line entry point: analyze, construct, survey, verify, hunt.

Input graphs are graph6 lines (file or stdin) or generator specs such as
``cycle:7``, ``path:4``, ``complete:3``, ``biclique:2x3``.  Streams for
survey/verify/hunt may also be spec'd as ``cycles:3..12`` or
``catalog:[connected:]1..7``.  JSON output goes to stdout only; diagnostics go
to stderr.  Exit codes: 0 success, 2 usage error, 3 data error, 4 proven
theorem failure (verify).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .classify import HUNT_TARGET_IDS, SCHEMA_VERSION, class_report
from .graph import (
    Graph,
    Graph6Error,
    complete,
    complete_bipartite,
    cycle,
    parse_graph6,
    path,
    write_graph6,
)

# the survey, harness, hunting, catalog and constructions modules are imported
# by the commands that use them, so that ``analyze`` loads none of them and
# ``hunt`` does not load the survey or the theorem registry

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_THEOREM_FAILURE = 4


class UsageError(ValueError):
    pass


def parse_graph_spec(spec: str) -> Graph:
    """One graph from a generator spec or an inline graph6 string."""
    if ":" in spec:
        kind, _, arg = spec.partition(":")
        try:
            if kind == "cycle":
                return cycle(int(arg))
            if kind == "path":
                return path(int(arg))
            if kind == "complete":
                return complete(int(arg))
            if kind == "biclique":
                p, _, q = arg.partition("x")
                return complete_bipartite(int(p), int(q))
        except ValueError as exc:
            raise UsageError(f"bad generator spec {spec!r}: {exc}") from exc
        raise UsageError(f"unknown generator {kind!r}")
    try:
        return parse_graph6(spec)
    except Graph6Error as exc:
        raise UsageError(f"not a generator spec or graph6 string: {exc}") from exc


def _parse_range(arg: str) -> tuple[int, int]:
    lo, dots, hi = arg.partition("..")
    try:
        lo, hi = int(lo), int(hi if dots else lo)
    except ValueError:
        raise UsageError(f"range {arg!r} is not N or LO..HI") from None
    if not 0 <= lo <= hi:
        raise UsageError(f"range {arg!r} is reversed or negative")
    return lo, hi


def iter_source_lines(source: str, input_path: str | None):
    """The input stream: graph6 lines from --input, a path or '-', or the
    ``Graph`` objects of a generator spec, which need no graph6 round trip.

    The source is resolved here, before any line is read: a bad spec, an
    unreadable file or a stream given both ways is a usage error before the
    command writes any output.
    """
    if source is not None and input_path is not None:
        raise UsageError("give the stream as a source or as --input, not both")
    where = input_path or source
    if where is None:
        raise UsageError("no input given")
    if where == "-":
        return sys.stdin
    if ":" in where:
        kind, _, arg = where.partition(":")
        if kind == "cycles":
            lo, hi = _parse_range(arg)
            if lo < 3:
                raise UsageError("cycles need n >= 3")
            return (cycle(n) for n in range(lo, hi + 1))
        if kind == "catalog":
            from . import catalog as cat

            connected = arg.startswith("connected:")
            if connected:
                arg = arg[len("connected:"):]
            lo, hi = _parse_range(arg)
            if hi > cat.HUNT_MAX_N:
                raise UsageError(f"catalog streams are capped at n <= {cat.HUNT_MAX_N}")
            return cat.graphs_up_to(hi, connected=connected, min_n=lo)
        # single-graph generator specs work as one-graph streams
        return [parse_graph_spec(where)]
    try:
        fh = open(where)
    except OSError as exc:
        raise UsageError(f"cannot read {where!r}: {exc}") from exc
    return _file_lines(fh)


def _file_lines(fh):
    with fh:
        yield from fh


def _out_stream(args):
    """The output for one ``with``: the ``-o`` file, or stdout left open."""
    if args.output and args.output != "-":
        return open(args.output, "w")
    return contextlib.nullcontext(sys.stdout)


def _jobs(args) -> int:
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _print_report_table(rep: dict, out):
    rows = {key: value for key, value in rep.items() if key != "schema_version"}
    width = max(len(key) for key in rows)
    for key, value in rows.items():
        print(f"{key:<{width}}  {value}", file=out)


def cmd_analyze(args) -> int:
    g = parse_graph_spec(args.graph)
    rep = class_report(g, k_max=args.kmax).to_json_dict()
    with _out_stream(args) as out:
        if args.format == "json":
            print(json.dumps(rep), file=out)
        else:
            _print_report_table(rep, out)
    return EXIT_OK


def cmd_construct(args) -> int:
    from .constructions import (
        CoronaFamily,
        concatenate,
        concatenation_blocks,
        corona,
        corona_blocks,
        join,
    )

    operands: dict = {"operator": args.operator}
    if args.operator == "corona":
        if not args.base or not args.parts:
            raise UsageError("corona needs --base and --parts")
        base = parse_graph_spec(args.base)
        parts = [parse_graph_spec(s) for s in args.parts.split(",")]
        # one part is attached at every base vertex, as by corona_uniform
        fam = CoronaFamily(base, parts * base.n if len(parts) == 1 else parts)
        g = corona(fam)
        operands.update(
            base=write_graph6(base),
            parts=[write_graph6(h) for h in fam.attachments],
            labels={"base": list(range(base.n)), "blocks": corona_blocks(fam)},
        )
    elif args.operator == "join":
        if not args.parts:
            raise UsageError("join needs --parts")
        parts = [parse_graph_spec(s) for s in args.parts.split(",")]
        g = join(parts)
        offsets, at = [], 0
        for h in parts:
            offsets.append(list(range(at, at + h.n)))
            at += h.n
        operands.update(
            parts=[write_graph6(h) for h in parts], labels={"blocks": offsets}
        )
    elif args.operator == "concat":
        if not args.base or not args.part or args.at is None:
            raise UsageError("concat needs --base, --part and --at")
        base = parse_graph_spec(args.base)
        part = parse_graph_spec(args.part)
        g = concatenate(base, part, args.at)
        operands.update(
            base=write_graph6(base),
            part=write_graph6(part),
            at=args.at,
            labels={"copies": concatenation_blocks(base, part, args.at)},
        )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown operator {args.operator!r}")

    with _out_stream(args) as out:
        if args.format == "json":
            doc = {"schema_version": SCHEMA_VERSION, "graph": write_graph6(g)}
            doc.update(operands)
            print(json.dumps(doc), file=out)
        else:
            print(write_graph6(g), file=out)
    return EXIT_OK


def _survey_like(args, verify: bool) -> int:
    from .harness import GRID_THEOREM_IDS, run_grid
    from .survey import record_json, survey_catalog

    report = survey_catalog(
        iter_source_lines(args.source, args.input),
        k_max=args.kmax,
        connected=args.connected,
        strict=args.strict,
        jobs=_jobs(args),
    )
    with _out_stream(args) as out:
        if args.format == "table":
            header = f"{'graph':<16} {'n':>3} {'alpha':>5} {'mu':>3} {'wc':>3} {'vwc':>4} {'1wc':>4} {'w':>2} {'shed':>5}"
            print(header, file=out)
        # each record is printed as it arrives; in strict mode a malformed
        # line raises Graph6Error (exit 3) after the records before it
        for record in report:
            if args.format == "json":
                print(record_json(record), file=out)
                continue
            rep = record["report"]
            print(
                f"{rep['graph']:<16} {rep['n']:>3} {rep['alpha']:>5} {rep['mu']:>3}"
                f" {_yn(rep['well_covered']):>3} {_yn(rep['very_well_covered']):>4}"
                f" {_yn(rep['one_well_covered']):>4} {rep['w_level']:>2}"
                f" {len(rep['shed']):>5}",
                file=out,
            )

        grid_verdicts = []
        if verify and args.include_grids:
            for tid in GRID_THEOREM_IDS:
                grid_verdicts.extend(run_grid(tid))
        grid_failures = [v for v in grid_verdicts if v.applicable and not v.holds]

        if args.format == "json":
            for v in grid_verdicts:
                print(v.to_json(), file=out)
            print(report.summary_json(grid_failures), file=out)
        else:
            print("", file=out)
            for n, agg in report.aggregates.items():
                print(f"n={n}: {agg}", file=out)
            if report.failures or grid_failures:
                print(f"theorem failures: {len(report.failures) + len(grid_failures)}", file=out)
                for v in report.failures + grid_failures:
                    print(f"  {v['theorem']} on {v['graph']}: {v['witness']}", file=out)
            else:
                print("theorem failures: 0", file=out)

    for line, message in report.parse_errors:
        print(f"line {line}: {message}", file=sys.stderr)
    if verify and (report.failures or grid_failures):
        return EXIT_THEOREM_FAILURE
    return EXIT_OK


def cmd_survey(args) -> int:
    return _survey_like(args, verify=False)


def cmd_verify(args) -> int:
    return _survey_like(args, verify=True)


def cmd_hunt(args) -> int:
    from .hunting import HuntTarget, hunt

    target = HuntTarget(
        target_id=args.target,
        max_n=args.max_n,
        k=args.k,
        base_max_n=args.base_max_n,
    )
    source = None
    if args.input or args.source:
        source = iter_source_lines(args.source, args.input)
    report = hunt(target, source=source, connected_only=args.connected)
    with _out_stream(args) as out:
        if args.format == "json":
            print(json.dumps(report.to_json_dict()), file=out)
        else:
            print(f"target {report.target_id}  bounds {report.parameters}", file=out)
            print(f"checked {report.checked}", file=out)
            for e in report.entries:
                print(f"  {e['graph']}  n={e['n']} connected={e['connected']}", file=out)
            for c in report.counterexamples:
                print(f"  counterexample: {c}", file=out)
            print(f"summary {report.summary}", file=out)
    return EXIT_OK


def _yn(flag: bool) -> str:
    return "y" if flag else "."


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcover",
        description="Well-coveredness hierarchy toolkit: classify graphs, "
        "verify the supporting theory, and hunt for counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is registered only on the subcommands that read it
    def common(p):
        p.add_argument("--output", "-o", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "table"), default="table")

    def kmax(p):
        p.add_argument("--kmax", type=int, default=3, help="largest hierarchy level probed")

    def stream(p):
        p.add_argument(
            "source",
            nargs="?",
            help="graph6 file, '-', or a stream spec such as cycles:3..12 "
            "or catalog:connected:1..7",
        )
        p.add_argument("--input", "-i", help="graph6 file, or - for stdin")
        p.add_argument("--connected", action="store_true",
                       help="skip disconnected input graphs")

    def survey_flags(p):
        common(p)
        stream(p)
        kmax(p)
        p.add_argument("--strict", action="store_true", help="promote parse errors to fatal")
        p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers, started after about 0.5 s of "
                       "serial work and capped at the usable CPUs (default 1)")

    p = sub.add_parser("analyze", help="full hierarchy report for one graph")
    p.add_argument("graph", help="graph6 string or generator spec (cycle:7, biclique:2x3, ...)")
    common(p)
    kmax(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build corona / join / concatenation graphs")
    p.add_argument("operator", choices=("corona", "join", "concat"))
    p.add_argument("--base", help="base graph spec")
    p.add_argument("--parts", help="comma-separated graph specs (corona/join)")
    p.add_argument("--part", help="graph copied onto each base vertex (concat)")
    p.add_argument("--at", type=int, help="fused vertex of the copied graph (concat)")
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("survey", help="classify every graph of a stream")
    survey_flags(p)
    p.set_defaults(func=cmd_survey, include_grids=False)

    p = sub.add_parser("verify", help="run every registered theorem over a stream")
    survey_flags(p)
    p.add_argument("--include-grids", action="store_true",
                   help="also run the construction-grid theorems at default bounds")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hunt", help="run a conjecture/problem hunt")
    p.add_argument("target", choices=HUNT_TARGET_IDS)
    p.add_argument("--max-n", type=int, default=8, help="largest order searched")
    p.add_argument("--k", type=int, default=3, help="hierarchy level of the conjecture source")
    p.add_argument("--base-max-n", type=int, default=3,
                   help="largest base order for the concatenation conjecture")
    common(p)
    stream(p)
    p.set_defaults(func=cmd_hunt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Graph6Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
