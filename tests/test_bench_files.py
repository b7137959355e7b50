"""Consistency of the committed BENCH_*.json measurement files.

Each file records perfbench pairs of a parent and a change, and the net
`src/` line count of the change; these checks keep the recorded numbers
agreeing with each other.
"""
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# Files whose claim names a metric and a workload; a claim stated in prose
# is not checked.
CLAIM_FILES = [p for p in BENCH_FILES if isinstance(json.loads(p.read_text())["claim"], dict)]


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


@pytest.mark.parametrize("path", CLAIM_FILES, ids=lambda p: p.name)
def test_claim_meets_the_gain_rule(path):
    # A gain counts when the change wins at least nine pairs in ten and the
    # medians differ by more than the parent's interquartile range.
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    assert claim["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert claim["metric"] in metrics
    sign = 1 if metrics[claim["metric"]]["better"] == "higher" else -1
    pairs = bench["workloads"][claim["workload"]]["pairs"]
    parent, change = (
        [pair[side]["metrics"][claim["metric"]] for pair in pairs] for side in ("parent", "change")
    )
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    assert len(pairs) >= 10 and 10 * wins >= 9 * len(pairs), wins
    q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    assert sign * (statistics.median(change) - statistics.median(parent)) > q3 - q1
