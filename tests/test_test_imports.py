"""Test modules share code through ``conftest.py`` and ``tests/reference.py``,
never by importing one another; every module that imports
``tests/reference.py`` (a twin differential) runs in CI's ``cluster-chaos``
job."""

import ast
import glob
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))


def _imported(node: ast.AST) -> list[str]:
    """The dotted names an import statement brings in."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = "." * node.level + (node.module or "")
        return [f"{base}.{alias.name}" for alias in node.names]
    return []


def _local(name: str) -> list[str]:
    """An imported dotted name's parts, relative to the ``tests`` package."""
    parts = name.lstrip(".").split(".")
    return parts[1:] if parts[0] == "tests" else parts


def _modules():
    """``(file name, parsed module)`` for every test module."""
    for path in sorted(glob.glob(os.path.join(HERE, "test_*.py"))):
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path), ast.parse(fh.read(), path)


def test_no_test_module_imports_another():
    found = []
    for filename, tree in _modules():
        for node in ast.walk(tree):
            for name in _imported(node):
                parts = _local(name)
                if parts and parts[0].startswith("test_"):
                    found.append(f"{filename}:{node.lineno} {name}")
    assert not found, found


def _imports_reference(tree: ast.AST) -> bool:
    return any(
        _local(name)[:1] == ["reference"]
        for node in ast.walk(tree)
        for name in _imported(node)
    )


def _cluster_chaos_files() -> set[str]:
    """The test files the ``cluster-chaos`` job of the CI workflow names."""
    path = os.path.join(HERE, os.pardir, ".github", "workflows", "ci.yml")
    with open(path, encoding="utf-8") as fh:
        ci = fh.read()
    start = ci.index("\n  cluster-chaos:\n")
    following = re.search(r"\n  [\w-]+:\n", ci[start + 1 :])
    job = ci[start : start + 1 + following.start()] if following else ci[start:]
    return set(re.findall(r"tests/(test_\w+\.py)", job))


def test_every_twin_differential_runs_in_the_cluster_chaos_job():
    twins = {name for name, tree in _modules() if _imports_reference(tree)}
    named = _cluster_chaos_files()
    assert twins
    assert not twins - named, sorted(twins - named)
    assert all(os.path.exists(os.path.join(HERE, name)) for name in named), named
