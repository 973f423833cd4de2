"""Static checks on the package modules.

Every name a module imports is used in it, and no module holds an
`assert`: `python -O` strips asserts, so invariants raise typed errors.
"""

import ast
from pathlib import Path

import pytest

import cmtorsion

MODULES = sorted(Path(cmtorsion.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def asserts(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path.read_text(encoding="utf-8")) == []


def test_every_module_is_walked():
    # an empty glob would leave the checks above with nothing to check
    names = {path.name for path in MODULES}
    assert {"__init__.py", "alpha_engine.py", "cli.py", "finite_level.py"} <= names


def test_detects_an_unused_import():
    source = "from typing import Iterable, Sequence\nx: Sequence = ()\n"
    assert unused_imports(source) == ["Iterable"]


def test_detects_an_assert():
    source = "def f(x):\n    assert x, 'why'\n    return x\n"
    assert asserts(source) == [2]
