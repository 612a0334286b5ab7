"""No source module keeps an import it does not use or a definition that
nothing reads.

Every name that a top-level ``import`` or ``from ... import`` binds in
``src/expbench/*.py`` (``__future__`` aside) must be read elsewhere in that
module, as a ``Name`` node; the base of an attribute access such as
``np.zeros`` is one.  A deletion that leaves its imports behind fails here.

Every top-level function, class and assigned name of those modules, and
every method whose name is not a dunder, must be read somewhere in
``src/``, ``tests/``, ``benchmarks/`` or ``perfbench/``: as a loaded
``Name``, as the attribute of an ``Attribute`` node, or as a string
constant equal to the name (perfbench names the functions it traces in
strings).  A definition left behind by a deletion fails here.
"""

import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "expbench"
READERS = ("src", "tests", "benchmarks", "perfbench")


def imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported_names(tree)) - used)


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def read_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@functools.cache
def names_read_in_the_repo():
    paths = (path for d in READERS for path in sorted((ROOT / d).rglob("*.py")))
    return frozenset(name for path in paths for name in read_names(ast.parse(path.read_text())))


def unread_definitions(source, reads):
    return sorted(set(defined_names(ast.parse(source))) - reads)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\n\nx = np.zeros(3)\n"
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read(path):
    assert unread_definitions(path.read_text(), names_read_in_the_repo()) == []


def test_an_unread_definition_is_found():
    source = (
        "LIMIT = 3\nSPARE = 4\n\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = LIMIT\n\n"
        "    def grow(self):\n        pass\n\n"
        "    def shrink(self):\n        pass\n\n\n"
        "def helper():\n    Box().grow()\n\n\n"
        "def unread():\n    pass\n\n\n"
        "helper()\n"
    )
    reads = frozenset(read_names(ast.parse(source)))
    assert unread_definitions(source, reads) == ["SPARE", "shrink", "unread"]
