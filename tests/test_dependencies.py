"""The third-party modules the package imports are exactly its declared
runtime dependencies: a test-only package imported by the program would
pass every test here and fail on an install without the test extra."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level(package: Path) -> set[str]:
    """Top-level names of every absolute import in the package, nested ones included."""
    names = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def _declared_dependencies() -> set[str]:
    """The distribution names in pyproject.toml's [project] dependencies."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    return {name.lower().replace("-", "_")
            for name in re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1))}


def test_third_party_imports_are_the_declared_dependencies():
    imported = _imported_top_level(ROOT / "src" / "cityregions")
    third_party = imported - set(sys.stdlib_module_names) - {"__future__", "cityregions"}
    assert third_party == _declared_dependencies() == {"numpy"}
