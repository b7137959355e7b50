import ast
import doctest
from pathlib import Path

import pytest

import gridletters
import gridletters.geometry
import gridletters.graphs
import gridletters.gridding
import gridletters.letters
import gridletters.perm

SOURCES = sorted(
    path for path in Path(gridletters.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize(
    "module",
    [
        gridletters.perm,
        gridletters.graphs,
        gridletters.letters,
        gridletters.gridding,
        gridletters.geometry,
    ],
)
def test_module_doctests(module):
    failed, _attempted = doctest.testmod(module)
    assert failed == 0


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unused_import_check_flags_an_unread_name():
    source = "import math\nfrom fractions import Fraction\nimport os.path\nos.path.join\n"
    assert unused_imports(source) == ["math", "Fraction"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
