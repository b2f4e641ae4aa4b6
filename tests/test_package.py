"""The package's surface: its top-level exports are the README's Library
block, and the library imports nothing beyond the standard library."""

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
    exported = {
        name
        for name, value in vars(wellcover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented


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
