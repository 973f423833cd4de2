"""Static checks on the package modules.

Every name a module imports is used in it, and no module holds an
`assert`: `python -O` strips asserts, so invariants raise typed errors.
Every public function, class and method is read by the package or by
the benchmark, not by the tests alone.
"""

import ast
import textwrap
from pathlib import Path

import pytest

import cmtorsion

MODULES = sorted(Path(cmtorsion.__file__).parent.glob("*.py"))
# the benchmark's modules; its tests do not count as readers
BENCH_MODULES = sorted(p for p in (Path(__file__).parents[1] / "perfbench").glob("*.py")
                       if not p.name.startswith("test_"))


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


def public_definitions(source: str) -> list[str]:
    """The public top-level functions and classes, and the public
    methods of those classes, as `name` or `Class.name`."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            out.append(node.name)
            if isinstance(node, ast.ClassDef):
                out.extend(f"{node.name}.{item.name}" for item in node.body
                           if isinstance(item, defs) and not item.name.startswith("_"))
    return out


def names_read(source: str) -> set[str]:
    """Every name read as a `Name`, an `Attribute` or an imported name."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
    return read


def unread_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module:definition` for each public definition in `sources` that
    no source in `readers` reads."""
    read = set().union(*map(names_read, readers))
    return [f"{module}:{name}" for module, source in sources.items()
            for name in public_definitions(source) if name.split(".")[-1] not in read]


def test_every_public_definition_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = list(sources.values()) + [p.read_text(encoding="utf-8") for p in BENCH_MODULES]
    assert BENCH_MODULES
    assert unread_definitions(sources, readers) == []


def test_detects_an_unread_definition():
    source = textwrap.dedent("""
        def used(): pass
        def unused(): pass
        def _private(): pass
        class Box:
            def open(self): pass
            def shut(self): pass
            def _peek(self): pass
        def main():
            return used(), Box().open
    """)
    assert unread_definitions({"m": source}, [source]) == ["m:unused", "m:Box.shut", "m:main"]
    # a reader elsewhere counts, by import or by attribute
    other = "from m import unused\nimport m\nm.shut, main()\n"
    assert unread_definitions({"m": source}, [source, other]) == []
