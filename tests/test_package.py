"""The package's surface: its top-level exports are the README's Library
block, the library imports nothing beyond the standard library, every
definition in it is read by the program, and every test oracle is read by a
test."""

import ast
import re
import sys
import types
from pathlib import Path

import wellcover

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wellcover"


def test_exports_are_the_readme_library_block():
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^from wellcover import \((.*?)\)", readme, re.M | re.S)
    assert block, "README has no `from wellcover import (...)` block"
    documented = {name.strip() for name in block.group(1).split(",") if name.strip()}
    assert len(wellcover.__all__) == len(documented)
    assert set(wellcover.__all__) == documented
    # the harness and constructions exports resolve on first access
    for name in wellcover.__all__:
        assert not isinstance(getattr(wellcover, name), types.ModuleType), name
    public = {
        name
        for name, value in vars(wellcover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(wellcover.__all__)


def test_library_is_stdlib_only():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)
    allowed = set(sys.stdlib_module_names) | {"wellcover"}
    imported = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    outside = {top: where for top, where in imported.items() if top not in allowed}
    assert not outside, outside


def test_readme_report_keys_are_the_report_fields():
    from wellcover import class_report, cycle

    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^\* report: `\{(.*?)\}`", readme, re.M | re.S)
    assert block, "README has no report key list"
    documented = re.findall(r'"(\w+)"', block.group(1))
    assert documented == list(class_report(cycle(5)).to_json_dict())


def _reads(paths) -> dict[str, list[tuple[Path, int]]]:
    """Where each name is read (a loaded name or attribute, or a
    from-import) in the given files, as (path, line) pairs."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                reads.setdefault(name, []).append((path, node.lineno))
    return reads


def _read_outside(node, path: Path, reads) -> bool:
    return any(
        where != path or not node.lineno <= line <= node.end_lineno
        for where, line in reads.get(node.name, ())
    )


def test_every_definition_is_read():
    # each non-dunder top-level def or class of the package, and each
    # non-dunder method of a top-level class, that is undecorated or
    # decorated only with property or cached_property, is read by name in
    # src/ or perfbench/ outside its own body: a definition only tests read
    # is dead, and so is a cached table whose last reader is gone
    reads = _reads(sorted([*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        top = ast.parse(path.read_text()).body
        methods = [n for c in top if isinstance(c, ast.ClassDef) for n in c.body]
        for node in top + methods:
            if (
                not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or not all(
                    isinstance(d, ast.Name) and d.id in ("property", "cached_property")
                    for d in node.decorator_list
                )
                or node.name.startswith("__")
            ):
                continue
            if not _read_outside(node, path, reads):
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unread, unread


def test_every_oracle_is_read():
    # each top-level def of tests/oracles.py is read by name in tests/
    # outside its own body: an oracle no test reaches checks nothing
    tests = ROOT / "tests"
    reads = _reads(sorted(tests.glob("*.py")))
    oracles = tests / "oracles.py"
    unread = [
        f"oracles.py:{node.lineno} {node.name}"
        for node in ast.parse(oracles.read_text()).body
        if isinstance(node, ast.FunctionDef) and not _read_outside(node, oracles, reads)
    ]
    assert not unread, unread
