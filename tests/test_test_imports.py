"""Test modules share code through ``conftest.py`` and ``tests/reference.py``,
never by importing one another."""

import ast
import glob
import os


def _imported(node: ast.AST) -> list[str]:
    """The dotted names an import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [f"{base}.{alias.name}" for alias in node.names]
    return []


def test_no_test_module_imports_another():
    here = os.path.dirname(os.path.abspath(__file__))
    found = []
    for path in sorted(glob.glob(os.path.join(here, "test_*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            for name in _imported(node):
                parts = name.lstrip(".").split(".")
                if parts[0] == "tests":
                    parts = parts[1:]
                if parts and parts[0].startswith("test_"):
                    found.append(f"{os.path.basename(path)}:{node.lineno} {name}")
    assert not found, found
