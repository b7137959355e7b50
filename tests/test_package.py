"""The package's lazy exports, and which modules each CLI command imports.

The import checks run `python -X importtime` in a fresh interpreter and
read the module names it logs, so a module counts as loaded wherever in
the process it was first imported.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridletters

SRC = str(Path(gridletters.__file__).parent.parent)


def loaded_submodules(args, cwd):
    """The gridletters submodules `python -X importtime ARGS` imports."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr
    names = set()
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            package, _, module = line.rsplit("|", 1)[1].strip().partition(".")
            if package == "gridletters" and module:
                names.add(module)
    return names


def test_import_loads_no_submodule(tmp_path):
    assert loaded_submodules(["-c", "import gridletters"], tmp_path) == set()


@pytest.mark.parametrize(
    "argv, needed, unneeded",
    [
        (
            ["invgraph", "--perm", "2413"],
            {"cli", "perm"},
            {"letters", "gridding", "geometry", "pipeline", "oracle", "render"},
        ),
        (
            ["lettericity", "p4.graph"],
            {"cli", "graphs", "letters"},
            {"gridding", "geometry", "pipeline", "oracle", "render"},
        ),
        (
            ["grid-check", "--perm", "524361", "--matrix", "x.mat"],
            {"cli", "perm", "gridding"},
            {"letters", "geometry", "pipeline", "oracle", "render"},
        ),
    ],
    ids=["invgraph", "lettericity", "grid-check"],
)
def test_command_loads_only_its_modules(tmp_path, argv, needed, unneeded):
    (tmp_path / "p4.graph").write_text("4\n1 2\n2 3\n3 4\n")
    (tmp_path / "x.mat").write_text("-1 1\n1 -1\n")
    loaded = loaded_submodules(["-m", "gridletters", *argv], tmp_path)
    assert needed <= loaded
    assert not loaded & unneeded


class TestLazyExports:
    def test_each_export_is_its_defining_modules_object(self):
        for name in gridletters.__all__:
            obj = getattr(gridletters, name)
            owner = obj.__module__
            assert owner.startswith("gridletters."), name
            assert getattr(sys.modules[owner], name) is obj, name

    def test_dir_lists_every_export(self):
        assert set(gridletters.__all__) <= set(dir(gridletters))

    def test_unknown_name_names_the_module(self):
        with pytest.raises(AttributeError, match="module 'gridletters' has no attribute 'nope'"):
            gridletters.nope
        assert not hasattr(gridletters, "nope")

    def test_star_import_binds_exactly_all(self):
        assert len(set(gridletters.__all__)) == len(gridletters.__all__) == 34
        namespace = {}
        exec("from gridletters import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(gridletters.__all__)
