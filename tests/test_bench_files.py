"""Consistency of the committed BENCH_*.json measurement files.

Each file records perfbench pairs of a parent and a change, and the net
`src/` line count of the change; these checks keep the recorded numbers
agreeing with each other.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_is_consistent(path):
    bench = json.loads(path.read_text())
    lines = bench["src_lines"]
    assert lines["net"] == lines["change"] - lines["parent"]
    runs = 0
    for name, workload in bench["workloads"].items():
        for i, pair in enumerate(workload["pairs"]):
            for side in ("parent", "change"):
                run = pair[side]
                where = (name, i, side)
                assert run["correct"] is True and run["failed"] == 0, where
                assert run["stamp"]["src_lines"] == lines[side], where
                runs += 1
    assert runs > 0
