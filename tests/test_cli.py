import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wellcover import catalog as cat
from wellcover import cli
from wellcover.graph import parse_graph6, write_graph6, cycle, path
from wellcover import harness, hunting, survey
from wellcover.catalog import certificate
from wellcover.constructions import concatenate, corona_uniform
from wellcover.graph import complete


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_cycle7(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cycle:7", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["well_covered"] and doc["w_level"] == 1 and doc["shed"] == []

    def test_complete2(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "complete:2", "--format", "json")
        assert json.loads(out)["w_level"] >= 2

    def test_path6(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "path:6", "--format", "json")
        assert not json.loads(out)["well_covered"]

    def test_biclique_spec(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "biclique:2x3", "--format", "json")
        assert json.loads(out)["alpha"] == 3

    @pytest.mark.parametrize("spec, expected", [("cycle:25", 8), ("biclique:12x13", 21)])
    def test_order_25_differential(self, capsys, spec, expected):
        code, out, _ = run_cli(capsys, "analyze", spec, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 25 and doc["differential"] == expected

    def test_inline_graph6(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "A_", "--format", "json")
        assert json.loads(out)["n"] == 2

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "cycle:5")
        assert code == 0 and "w_level" in out

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "cycle:x")
        assert code == 2 and "error" in err

    def test_bad_graph6_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "!!!!")
        assert code == 2


class TestConstruct:
    def test_concat_pipeline(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "concat",
            "--base", "complete:2", "--part", "cycle:5", "--at", "0",
        )
        assert code == 0
        g6 = out.strip()
        expected = concatenate(complete(2), cycle(5), 0)
        assert certificate(parse_graph6(g6).adj) == certificate(expected.adj)
        code, out, _ = run_cli(capsys, "analyze", g6, "--format", "json")
        doc = json.loads(out)
        assert doc["well_covered"] and doc["w_level"] == 1

    def test_corona_provenance(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "corona",
            "--base", "path:2", "--parts", "complete:2,complete:3",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["operator"] == "corona"
        assert parse_graph6(doc["graph"]).n == 7
        assert doc["labels"]["blocks"] == [[2, 3], [4, 5, 6]]
        code, out, _ = run_cli(capsys, "analyze", doc["graph"], "--format", "json")
        assert json.loads(out)["one_well_covered"]

    def test_join(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "join", "--parts", "complete:2,complete:2"
        )
        g = parse_graph6(out.strip())
        assert g.n == 4 and g.edge_count() == 6

    def test_uniform_corona_single_part(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "corona", "--base", "path:2", "--parts", "complete:1"
        )
        assert parse_graph6(out.strip()).n == 4

    def test_missing_operand_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "concat", "--base", "complete:2")
        assert code == 2


class TestSurvey:
    def test_cycles_table(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "cycles:3..12")
        assert code == 0
        rows = [line for line in out.splitlines() if line[:1] and line[0] in "BCDEFGHIJK"]
        assert len(rows) == 10

    def test_cycles_json_census(self, capsys):
        code, out, _ = run_cli(capsys, "survey", "cycles:3..12", "--format", "json")
        lines = out.strip().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        summary = json.loads(lines[-1])
        wc = [r["report"]["n"] for r in records if r["report"]["well_covered"]]
        assert wc == [3, 4, 5, 7]
        assert summary["failures"] == []

    @pytest.mark.parametrize("source", ["cycles:3..5", "catalog:connected:1..3", "cycle:5"])
    def test_generated_sources_skip_graph6(self, capsys, monkeypatch, source):
        def refuse(*args):
            raise AssertionError("a generated graph went through graph6")

        monkeypatch.setattr(hunting, "parse_graph6", refuse)
        code, out, _ = run_cli(capsys, "survey", source, "--format", "json")
        lines = [json.loads(line)["line"] for line in out.strip().splitlines()[:-1]]
        assert code == 0 and lines == list(range(1, len(lines) + 1)) and lines

    @pytest.mark.parametrize("kmax", [1, 2, 3, 4])
    def test_aggregates_count_only_the_probed_levels(self, capsys, kmax):
        # K3 is in levels 1-3, C4 in level 1, C5 in levels 1-2; a level
        # above --kmax was not probed, so it has no key
        code, out, _ = run_cli(
            capsys, "survey", "cycles:3..5", "--kmax", str(kmax), "--format", "json"
        )
        aggregates = json.loads(out.splitlines()[-1])["aggregates"]
        levels = {
            n: {key: count for key, count in agg.items() if re.fullmatch(r"w\d+", key)}
            for n, agg in aggregates.items()
        }
        top = {"3": 3, "4": 1, "5": 2}
        assert code == 0
        assert levels == {
            n: {f"w{k}": int(k <= top[n]) for k in range(2, kmax + 1)} for n in top
        }

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("A_\nBw\n"))
        code, out, _ = run_cli(capsys, "survey", "-", "--format", "json")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "rep.jsonl"
        code, out, _ = run_cli(
            capsys, "survey", "cycles:3..5", "--format", "json", "-o", str(dest)
        )
        assert code == 0 and out == ""
        assert len(dest.read_text().strip().splitlines()) == 4

    def test_deterministic_output(self, capsys):
        def strip_elapsed(text):
            lines = []
            for line in text.strip().splitlines():
                doc = json.loads(line)
                doc.pop("elapsed", None)
                for v in doc.get("verdicts", ()):
                    v.pop("elapsed", None)
                lines.append(json.dumps(doc))
            return lines

        _, out1, _ = run_cli(capsys, "survey", "catalog:connected:1..4", "--format", "json")
        _, out2, _ = run_cli(capsys, "survey", "catalog:connected:1..4", "--format", "json")
        assert strip_elapsed(out1) == strip_elapsed(out2)

    def test_parse_errors_reported_on_stderr(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text("A_\n!!!!\nBw\n")
        code, out, err = run_cli(capsys, "survey", str(src), "--format", "json")
        assert code == 0 and "line 2" in err

    def test_strict_exits_3(self, capsys, tmp_path):
        src = tmp_path / "graphs.g6"
        src.write_text("A_\n!!!!\nBw\n")
        code, out, err = run_cli(capsys, "survey", str(src), "--strict")
        assert code == 3
        # the records before the malformed line are printed, then no summary
        code, out, err = run_cli(capsys, "survey", str(src), "--strict", "--format", "json")
        assert code == 3 and "error:" in err
        assert [json.loads(line)["line"] for line in out.splitlines()] == [1]

    def test_missing_file_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "survey", "/nonexistent/file.g6")
        assert code == 2 and out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ("survey", "catalog:12"),
            ("verify", "catalog:connected:1..11"),
            ("hunt", "problem.no-shedding", "catalog:11"),
            ("survey", "catalog:3..1"),
            ("survey", "catalog:-2..1"),
            ("survey", "cycles:5..3"),
        ],
    )
    def test_unbounded_reversed_or_negative_range_exits_2(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("the catalog was asked for an out-of-bounds stream")

        monkeypatch.setattr(cat, "graphs_up_to", refuse)
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 2 and out == "" and "error" in err

    @pytest.mark.parametrize(
        "source, arg",
        [("catalog:3..", "3.."), ("cycles:x..5", "x..5"), ("catalog:connected:", ""),
         ("cycles:3..5..7", "3..5..7")],
    )
    def test_malformed_range_exits_2(self, capsys, source, arg):
        code, out, err = run_cli(capsys, "survey", source)
        assert (code, out, err) == (2, "", f"error: range {arg!r} is not N or LO..HI\n")

    @pytest.mark.parametrize(
        "command", [["survey"], ["verify"], ["hunt", "problem.no-shedding"]], ids=lambda c: c[0]
    )
    def test_stream_given_twice_exits_2(self, capsys, tmp_path, command):
        # a source and --input together: neither is read in place of the other
        a, b = tmp_path / "a.g6", tmp_path / "b.g6"
        a.write_text(write_graph6(cycle(4)) + "\n")
        b.write_text(write_graph6(cycle(5)) + "\n")
        code, out, err = run_cli(capsys, *command, str(a), "-i", str(b), "--format", "json")
        assert (code, out) == (2, "")
        assert err == "error: give the stream as a source or as --input, not both\n"

    def test_relative_files_named_like_generators(self, capsys, monkeypatch, tmp_path):
        # a source is a generator spec only when it holds a ':'
        monkeypatch.chdir(tmp_path)
        lines = "".join(write_graph6(cycle(n)) + "\n" for n in range(3, 6))
        for name in ("catalog_sample.g6", "cycles.g6", "sample.g6"):
            (tmp_path / name).write_text(lines)
        reports = []
        for name in ("catalog_sample.g6", "cycles.g6", "sample.g6"):
            code, out, _ = run_cli(capsys, "survey", name, "--format", "json")
            assert code == 0, name
            reports.append([json.loads(line)["report"] for line in out.splitlines()[:-1]])
        assert [r["n"] for r in reports[0]] == [3, 4, 5]
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("name", ["catalog", "cycles"])
    def test_missing_file_named_like_a_generator_exits_2(self, capsys, monkeypatch, tmp_path, name):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "survey", name)
        assert code == 2 and out == "" and err.startswith(f"error: cannot read '{name}'")

    def test_catalog_range_up_to_the_hunt_bound(self, capsys, monkeypatch):
        asked = []
        monkeypatch.setattr(cat, "graphs_up_to", lambda *args, **kwargs: asked.append(args) or [])
        code, _, _ = run_cli(capsys, "survey", f"catalog:{cat.HUNT_MAX_N}")
        assert code == 0 and asked == [(cat.HUNT_MAX_N,)]


class TestGoldenOutput:
    """Command output stays byte-identical apart from the ``elapsed`` fields:
    the SHA-256 of each output once every ``"elapsed": <float>`` reads
    ``"elapsed": 0``."""

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("verify", "catalog:connected:1..7", "--format", "json", "--jobs", "1"),
                "73bd06776a0d071a1476399f61ca81f8005f23308863f58618ac29b2d909b9eb",
            ),
            (
                ("verify", "catalog:connected:1..7", "--format", "json", "--jobs", "2"),
                "73bd06776a0d071a1476399f61ca81f8005f23308863f58618ac29b2d909b9eb",
            ),
            (
                ("verify", "catalog:connected:1..5", "--include-grids", "--format", "json"),
                "521ea6c5da11ebbbddd74194a22d5e507f55369f43b788c6f3623917c345333a",
            ),
            (
                ("hunt", "problem.no-shedding", "--max-n", "8", "--format", "json"),
                "41f9940138ca96aa1478e929ec7c9ac95d10beb5c461e9f8d7b2a8fd9128a6dc",
            ),
            (
                ("hunt", "conjecture.wk-concat", "--max-n", "6", "--format", "json"),
                "a237617e58124f6656b0963e7edc9f75622680024aa5f9582533d23d25afa566",
            ),
            (
                ("survey", "catalog:connected:1..7", "--format", "json"),
                "73bd06776a0d071a1476399f61ca81f8005f23308863f58618ac29b2d909b9eb",
            ),
            (
                # the empty graph and the disconnected graphs, which the
                # nonempty, no_isolated and connected hypotheses mostly decide
                ("verify", "catalog:0..6", "--format", "json"),
                "7abc06e5aaab53092eb53a2c0653a4730d56a67f7011aed61788ef43203cd661",
            ),
            (
                ("verify", "catalog:connected:1..6", "--format", "table"),
                "4c98d8148936837aca81e9841f05b633999d6fb1d707e6cfcca5c498cf07f251",
            ),
            (
                ("analyze", "cycle:22", "--format", "json"),
                "b26ca0c4a555ea33e7ea76f5d189c3eb410b3f20434c9138e848f63fd8198c17",
            ),
            (
                ("analyze", "biclique:12x13", "--format", "json"),
                "906732e53df7b2cd00d07a5c51d64b4f6753848d88410bcecd3331aae1c582a0",
            ),
            (
                # C5 o K2, order 15
                ("analyze", "NheCI@@G@?a?C@A?@?G", "--format", "json"),
                "09ad99fef126490eb8d6747f59c5bb90d9ea582a3fa3d60bea00db6d369d6ad0",
            ),
            (
                # the fields read at k_max: w_level, disjoint_mis_max and
                # w_convention_diffs
                ("analyze", "NheCI@@G@?a?C@A?@?G", "--kmax", "1", "--format", "json"),
                "80e1a4eaabaf340090a4ca13a93f2c060a3b8830898c29a2dfc11ec7565e2226",
            ),
            (
                ("analyze", "NheCI@@G@?a?C@A?@?G", "--kmax", "4", "--format", "json"),
                "6e74da8485a5866ec0d4f627f6f8b90e12be94a20bd54522556c4a324ef631d2",
            ),
            (
                ("analyze", "NheCI@@G@?a?C@A?@?G", "--format", "table"),
                "56c0ac0061acbff74164fbe171420d1d8e270637113a6d1dccd05a7aace4e7e9",
            ),
        ],
        ids=[
            "verify-jobs-1", "verify-jobs-2", "verify-grids", "hunt-no-shedding",
            "hunt-wk-concat", "survey-json", "verify-all-to-six", "verify-table",
            "analyze-c22", "analyze-k12-13", "analyze-c5-corona-k2",
            "analyze-c5-corona-k2-kmax-1", "analyze-c5-corona-k2-kmax-4",
            "analyze-c5-corona-k2-table",
        ],
    )
    def test_zeroed_output_digest(self, capsys, monkeypatch, argv, digest):
        # the --jobs 2 run hands its stream to the pool after the first record
        monkeypatch.setattr(survey, "POOL_AFTER_S", 0)
        code, out, _ = run_cli(capsys, *argv)
        zeroed = re.sub(r'"elapsed": [-0-9.e+]+', '"elapsed": 0', out)
        assert code == 0
        assert hashlib.sha256(zeroed.encode()).hexdigest() == digest


class TestVerify:
    def test_clean_catalog_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "catalog:connected:1..5", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == []

    def test_failure_exits_4(self, capsys, monkeypatch):
        # a deliberately false statement, registered on a copy of the registry
        monkeypatch.setattr(harness, "GRAPH_THEOREMS", dict(harness.GRAPH_THEOREMS))

        @harness._theorem("test.always-false")
        def _always_false(ctx):
            return False, {"reason": "synthetic"}

        code, out, _ = run_cli(capsys, "verify", "cycles:5..5", "--format", "json")
        assert code == 4


class TestPerGraphWorkReadsNoCatalog:
    def test_verify_leaves_an_empty_cache_empty(self, capsys, monkeypatch, tmp_path):
        # the corona theorems read the graph's own simplexes, so verifying
        # single graphs neither generates nor caches a catalog level
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setenv("WELLCOVER_CACHE_DIR", str(cache))
        monkeypatch.setattr(cat, "_mem_cache", {})
        src = tmp_path / "graphs.g6"
        graphs = [path(8), path(9), corona_uniform(path(4), complete(1)),
                  corona_uniform(path(3), complete(2)), cycle(9)]
        src.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        for source in (str(src), "path:16"):
            code, out, _ = run_cli(capsys, "verify", source, "--format", "json")
            assert code == 0 and json.loads(out.splitlines()[-1])["failures"] == []
        assert list(cache.iterdir()) == []


class TestHunt:
    def test_no_shedding(self, capsys):
        code, out, _ = run_cli(
            capsys, "hunt", "problem.no-shedding", "--max-n", "7", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0
        ns = sorted(e["n"] for e in doc["entries"])
        assert 4 in ns and 7 in ns

    def test_conjecture(self, capsys):
        code, out, _ = run_cli(
            capsys, "hunt", "conjecture.wk-concat",
            "--max-n", "5", "--k", "3", "--base-max-n", "2", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["counterexamples"] == []

    def test_source_stream(self, capsys, tmp_path):
        src = tmp_path / "cycles.g6"
        src.write_text("".join(write_graph6(cycle(n)) + "\n" for n in range(3, 9)))
        code, out, _ = run_cli(
            capsys, "hunt", "problem.no-shedding", "-i", str(src),
            "--max-n", "8", "--format", "json",
        )
        doc = json.loads(out)
        assert sorted(e["n"] for e in doc["entries"]) == [4, 7]

    def test_bad_bounds_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "hunt", "problem.no-shedding", "--max-n", "99")
        assert code == 2

    def test_problem_ignores_k(self, capsys):
        # only the concatenation conjecture reads k
        code, out, err = run_cli(
            capsys, "hunt", "problem.no-shedding", "--max-n", "5", "--k", "1", "--format", "json"
        )
        doc = json.loads(out)
        assert code == 0 and err == "" and doc["parameters"]["k"] == 1
        _, out, _ = run_cli(capsys, "hunt", "problem.no-shedding", "--max-n", "5", "--format", "json")
        assert doc["entries"] == json.loads(out)["entries"] != []

    def test_conjecture_needs_k_at_least_2(self, capsys):
        code, out, err = run_cli(
            capsys, "hunt", "conjecture.wk-concat", "--max-n", "5", "--k", "1"
        )
        assert (code, out) == (2, "")
        assert err == "error: the concatenation conjecture needs k >= 2\n"

    def test_problem_ignores_base_max_n(self, capsys):
        # only the concatenation conjecture reads base_max_n
        code, out, err = run_cli(
            capsys, "hunt", "problem.no-shedding", "--max-n", "5", "--base-max-n", "0",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0 and err == "" and doc["parameters"]["base_max_n"] == 0
        _, out, _ = run_cli(capsys, "hunt", "problem.no-shedding", "--max-n", "5", "--format", "json")
        assert doc["entries"] == json.loads(out)["entries"] != []

    def test_conjecture_needs_base_max_n_at_least_1(self, capsys):
        code, out, err = run_cli(
            capsys, "hunt", "conjecture.wk-concat", "--max-n", "5", "--base-max-n", "0"
        )
        assert (code, out, err) == (2, "", "error: bounds must be positive\n")

    def test_base_max_n_above_the_cap_exits_2(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"the catalog was asked for level {n}")

        monkeypatch.setattr(cat, "_level_adj", refuse)
        code, out, err = run_cli(
            capsys, "hunt", "conjecture.wk-concat", "--base-max-n", str(cat.HUNT_MAX_N + 1)
        )
        assert (code, out) == (2, "")
        assert err == f"error: hunts are capped at n <= {cat.HUNT_MAX_N}\n"

    def test_unread_flag_exits_2(self):
        # hunt runs serially, so --jobs is not one of its flags
        with pytest.raises(SystemExit) as exc:
            cli.main(["hunt", "problem.no-shedding", "--max-n", "5", "--jobs", "2"])
        assert exc.value.code == 2


class TestJobsEnv:
    def test_jobs_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify", "cycles:3..6", "--jobs", "0")
        assert code == 2 and out == "" and "--jobs" in err


class TestPoolOutput:
    def test_records_printed_before_the_pool_starts_appear_once(self, tmp_path):
        # stdout is a pipe and block-buffered: the first record, printed by
        # the parent before the workers were forked, must not be printed again
        src = tmp_path / "graphs.g6"
        src.write_text("".join(write_graph6(cycle(n)) + "\n" for n in range(3, 11)) * 5)
        script = (
            "import sys\n"
            "from wellcover import cli, survey\n"
            "survey.POOL_AFTER_S = 0\n"
            "survey._usable_cpus = lambda: 2\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, "verify", str(src), "--format", "json", "--jobs", "2"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        docs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [doc["line"] for doc in docs[:-1]] == list(range(1, 41))
        assert docs[-1]["graphs"] == 40


class TestVerifyGrids:
    def test_include_grids(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "cycles:5..5", "--include-grids", "--format", "json"
        )
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["grid_failures"] == []
        theorems = {json.loads(line).get("theorem") for line in lines[:-1]}
        assert "prop.corona-wc" in theorems and "lem.concat-alpha" in theorems


class TestModuleExecution:
    def test_python_dash_m_entry(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "wellcover.cli", "analyze", "cycle:5", "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["w_level"] == 2


class TestStartupImports:
    """A command loads only the modules it runs: measured as the modules a
    fresh interpreter adds while importing the CLI and running the command,
    so whatever the interpreter's site hook imports does not count."""

    SCRIPT = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from wellcover import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )

    @staticmethod
    def loaded(*argv):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", TestStartupImports.SCRIPT, *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0
        return set(modules)

    def test_analyze_loads_no_harness_catalog_constructions_or_dataclasses(self):
        loaded = self.loaded("analyze", "cycle:7", "--format", "json")
        assert {"wellcover.classify", "wellcover.cli"} <= loaded
        unused = {
            "wellcover.harness", "wellcover.survey", "wellcover.catalog",
            "wellcover.constructions", "dataclasses", "multiprocessing",
        }
        assert not loaded & unused, loaded & unused

    def test_construct_loads_no_harness_or_catalog(self):
        loaded = self.loaded("construct", "join", "--parts", "complete:2,complete:2")
        assert "wellcover.constructions" in loaded
        assert not loaded & {"wellcover.harness", "wellcover.catalog"}

    def test_construct_corona_loads_no_dataclasses(self):
        loaded = self.loaded(
            "construct", "corona", "--base", "path:2", "--parts", "complete:2"
        )
        assert "wellcover.constructions" in loaded
        unused = {"dataclasses", "inspect"}
        assert not loaded & unused, loaded & unused

    @pytest.mark.parametrize("source", [["--max-n", "3"], ["catalog:1..3"]])
    def test_hunt_loads_no_theorem_registry(self, source):
        loaded = self.loaded("hunt", "problem.no-shedding", *source)
        assert {"wellcover.hunting", "wellcover.catalog"} <= loaded
        unused = {
            "wellcover.harness", "wellcover.survey", "dataclasses", "inspect",
            "multiprocessing", "pathlib",
        }
        assert not loaded & unused, loaded & unused

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_of_a_short_file_loads_no_catalog_constructions_or_pool(self, tmp_path, jobs):
        src = tmp_path / "graphs.g6"
        src.write_text("A_\nBw\nDQw\n")
        loaded = self.loaded("verify", str(src), "--format", "json", "--jobs", jobs)
        assert {"wellcover.survey", "wellcover.harness", "wellcover.hunting"} <= loaded
        unused = {
            "wellcover.catalog", "wellcover.constructions", "dataclasses", "inspect",
            "multiprocessing", "pathlib",
        }
        assert not loaded & unused, loaded & unused

    def test_conjecture_hunt_loads_no_theorem_registry(self):
        # the concatenation sweep lives in hunting, next to the reader
        loaded = self.loaded("hunt", "conjecture.wk-concat", "--max-n", "4", "--base-max-n", "2")
        assert {"wellcover.hunting", "wellcover.constructions"} <= loaded
        assert not loaded & {"wellcover.harness", "wellcover.survey"}


HUNT_CHOICES = (
    "{conjecture.wk-concat,problem.no-shedding,problem.two-disjoint-mis-girth5,"
    "problem.w2-alpha2,problem.alpha-plus-mu}"
)

HUNT_USAGE = f"""\
usage: wellcover hunt [-h] [--max-n MAX_N] [--k K] [--base-max-n BASE_MAX_N]
                      [--output OUTPUT] [--format {{json,table}}]
                      [--input INPUT] [--connected]
                      {HUNT_CHOICES}
                      [source]
"""


argparse_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the text is pinned as Python 3.11's argparse formats it"
)


class TestParserText:
    """The parser's public text, pinned at 80 columns: the hunt choices are
    listed without importing the harness, and must not change for it."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exit_text(capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @argparse_311
    def test_top_level_help(self, capsys):
        assert self.exit_text(capsys, "--help") == (0, """\
usage: wellcover [-h] {analyze,construct,survey,verify,hunt} ...

Well-coveredness hierarchy toolkit: classify graphs, verify the supporting
theory, and hunt for counterexamples.

positional arguments:
  {analyze,construct,survey,verify,hunt}
    analyze             full hierarchy report for one graph
    construct           build corona / join / concatenation graphs
    survey              classify every graph of a stream
    verify              run every registered theorem over a stream
    hunt                run a conjecture/problem hunt

options:
  -h, --help            show this help message and exit
""", "")

    @argparse_311
    def test_hunt_help(self, capsys):
        assert self.exit_text(capsys, "hunt", "--help") == (0, HUNT_USAGE + f"""
positional arguments:
  {HUNT_CHOICES}
  source                graph6 file, '-', or a stream spec such as
                        cycles:3..12 or catalog:connected:1..7

options:
  -h, --help            show this help message and exit
  --max-n MAX_N         largest order searched
  --k K                 hierarchy level of the conjecture source
  --base-max-n BASE_MAX_N
                        largest base order for the concatenation conjecture
  --output OUTPUT, -o OUTPUT
                        output path (default stdout)
  --format {{json,table}}
  --input INPUT, -i INPUT
                        graph6 file, or - for stdin
  --connected           skip disconnected input graphs
""", "")

    @argparse_311
    def test_unknown_hunt_target_lists_the_choices(self, capsys):
        assert self.exit_text(capsys, "hunt", "nonsense") == (2, "", HUNT_USAGE + (
            "wellcover hunt: error: argument target: invalid choice: 'nonsense' "
            "(choose from 'conjecture.wk-concat', 'problem.no-shedding', "
            "'problem.two-disjoint-mis-girth5', 'problem.w2-alpha2', "
            "'problem.alpha-plus-mu')\n"
        ))

    def test_hunt_target_ids_are_the_harness_targets(self):
        from wellcover.classify import HUNT_TARGET_IDS

        assert HUNT_TARGET_IDS == ("conjecture.wk-concat", *hunting._HUNT_PREDICATES)
        assert hunting.HUNT_TARGET_IDS is HUNT_TARGET_IDS


class TestSpecExamples:
    def test_verify_all_connected_up_to_seven(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "catalog:connected:1..7", "--format", "json"
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == [] and summary["graphs"] == 996

    def test_hunt_no_shedding_max_n_eight(self, capsys):
        code, out, _ = run_cli(
            capsys, "hunt", "problem.no-shedding", "--max-n", "8",
            "--connected", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        from wellcover.catalog import certificate

        found = {certificate(parse_graph6(e["graph"]).adj) for e in doc["entries"]}
        assert certificate(cycle(4).adj) in found
        assert certificate(cycle(7).adj) in found
