"""No source module keeps an import it does not use.

Every name that a top-level ``import`` or ``from ... import`` binds in
``src/expbench/*.py`` (``__future__`` aside) must be read elsewhere in that
module, as a ``Name`` node; the base of an attribute access such as
``np.zeros`` is one.  A deletion that leaves its imports behind fails here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "expbench"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport numpy as np\n\nx = np.zeros(3)\n"
    assert unused_imports(source) == ["math"]
