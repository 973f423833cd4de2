"""Static checks on the package modules.

Every name a module imports is used in it, and no module holds an
`assert`: `python -O` strips asserts, so invariants raise typed errors.
Every public function, class and method is read by the package or by
the benchmark, not by the tests alone: a function or class through the
binding it is read under, so a name shadowed by an import from outside
or by a local does not count, and a method by its attribute name.
"""

import ast
import builtins
import textwrap
from collections import defaultdict
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


def package_module(dotted: str, modules: set[str]) -> str | None:
    """The module of `modules` that an import path names, as
    `cmtorsion.m`, `.m` (parsed as `m`) or `m`."""
    stem = dotted.removeprefix("cmtorsion.")
    return stem if stem in modules else None


def definitions_read(source: str, module: str | None,
                     modules: set[str]) -> tuple[set[str], set[str], set[str]]:
    """What a source of `module` (None outside the package) reads: the
    top-level definitions of `modules`, as `module:name`, resolved
    through the bindings of its own names; every attribute name, which
    is how a method is read; and the names it reads but never binds,
    such as a snippet's free names (builtins left out).

    A bare name reads whatever the module defines or imports under it,
    in any of its scopes; `alias.attr` with `alias` bound to a package
    module reads that module's `attr`.  Importing a definition reads it.
    """
    tree = ast.parse(source)
    defs: dict[str, set[str]] = defaultdict(set)
    mods: dict[str, set[str]] = defaultdict(set)
    bound = set()
    if module is not None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name].add(f"{module}:{node.name}")
    read, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = package_module(node.module or "", modules)
            for alias in node.names:
                name = alias.asname or alias.name
                bound.add(name)
                if src:
                    defs[name].add(f"{src}:{alias.name}")
                    read.add(f"{src}:{alias.name}")
                elif target := package_module(alias.name, modules):
                    mods[name].add(target)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.add(name)
                if alias.asname or "." not in alias.name:
                    if target := package_module(alias.name, modules):
                        mods[name].add(target)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.ExceptHandler, ast.MatchAs, ast.MatchStar)) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
    free = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in bound:
                read.update(defs.get(node.id, ()))
            elif not hasattr(builtins, node.id):
                free.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name):
                read.update(f"{m}:{node.attr}" for m in mods.get(node.value.id, ()))
    return read, attrs, free


def unread_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """`module:definition` for each public definition in `sources` that
    no source in `readers` reads.  A reader equal to a source is read as
    that module; a top-level definition is read through a binding (or a
    free name of the same name), a method by its attribute name."""
    module_of = {text: module for module, text in sources.items()}
    read, attrs, free = set(), set(), set()
    for text in readers:
        r, a, f = definitions_read(text, module_of.get(text), set(sources))
        read |= r
        attrs |= a
        free |= f
    unread = []
    for module, source in sources.items():
        for name in public_definitions(source):
            _, dot, attr = name.rpartition(".")
            found = attr in attrs if dot else (f"{module}:{name}" in read or name in free)
            if not found:
                unread.append(f"{module}:{name}")
    return unread


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


def test_detects_a_shadowed_definition():
    # the name is read elsewhere, but bound to another definition: an
    # import from outside the package and a local of a function
    definer = "def product(xs):\n    return xs\n"
    importer = "from itertools import product\nlist(product([1], [2]))\n"
    local = textwrap.dedent("""
        def total(xs):
            product = 1
            for x in xs:
                product *= x
            return product
    """)
    assert unread_definitions({"m": definer}, [definer, importer, local]) == ["m:product"]
