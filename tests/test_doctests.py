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


def unread_private_functions(sources: list[str]) -> list[str]:
    """Private module-level functions and methods that no source reads, by
    name: a call or reference anywhere in the sources counts as a read."""
    defined, read = [], set()
    for source in sources:
        tree = ast.parse(source)
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        defined += [
            node.name
            for scope in scopes
            for node in scope.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_")
            and not node.name.endswith("__")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in defined if name not in read]


def test_unread_private_check_flags_a_dead_fork():
    planted = [
        "def _kept():\n    pass\n\ndef _fork():\n    pass\n\n"
        "class C:\n    def __init__(self):\n        pass\n\n"
        "    def _method(self):\n        pass\n\n    def _dead(self):\n        pass\n",
        "import a\na.C()._method()\nprint(a._kept)\n",
    ]
    assert unread_private_functions(planted) == ["_fork", "_dead"]


def test_no_unread_private_functions():
    sources = Path(gridletters.__file__).parent.glob("*.py")
    assert unread_private_functions([path.read_text() for path in sources]) == []
