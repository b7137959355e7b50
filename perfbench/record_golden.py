"""Regenerate perfbench/golden.json: the fixed items and their answers.

  PYTHONPATH=src python3 perfbench/record_golden.py

Items come from fixed generator seeds, so re-recording at the same commit
gives the same file.  Answers are what the library at that commit returns;
re-record only when a change of answer is intended.  Per-item seconds are
printed so the size of a pass can be checked against run.PASS_SECONDS.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from gridletters import geometry, gridding, letters, pipeline  # noqa: E402
from gridletters.perm import Permutation, inversion_graph  # noqa: E402

# 3-cell partial multiplication matrix whose class has lettericity <= 3.
L_ROWS = ((1, 0), (-1, 1))
# 3x3 with alternating signs; random large permutations are non-members.
ALT3_ROWS = ((1, -1, 1), (-1, 1, -1), (1, -1, 1))


def display_rows(m: gridding.GridMatrix) -> list[list[int]]:
    return [[m.entry(k, l) for k in range(1, m.cols + 1)] for l in range(m.rows, 0, -1)]


def random_perm(rng: random.Random, n: int) -> list[int]:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return values


def member(rng: random.Random, rows, n: int) -> list[int]:
    """A member of Geom(M), decoded from a random word over M's cells."""
    m = gridding.from_display_rows(rows)
    cells = m.nonzero_cells()
    word = geometry.CellWord(m, tuple(rng.choice(cells) for _ in range(n)))
    return list(geometry.decode_word(word, gridding.pmm_signs(m)).perm.values)


def edges_of(values: list[int]) -> list[list[int]]:
    return [list(e) for e in sorted(inversion_graph(Permutation(tuple(values))).edges)]


def lettering_items() -> list:
    rng = random.Random(20240501)
    items = [["lettericity", "path", n] for n in (5, 6, 7)]
    items += [["lettericity", "mK2", m] for m in (2, 3, 4)]
    for n in [8] * 4 + [9] * 2:
        items.append(["find_lettering", n, edges_of(random_perm(rng, n)), 3])
    for n in [10] * 3:
        items.append(["find_lettering", n, edges_of(member(rng, L_ROWS, n)), 3])
    return items


def gridding_items() -> list:
    rng = random.Random(20240502)
    u_rows = display_rows(gridding.universal_matrix(2, 2))
    items = [["find_gridding", member(rng, u_rows, n), u_rows] for n in [12, 13, 14, 15, 16]]
    items += [["find_gridding", random_perm(rng, n), u_rows] for n in [14, 16]]
    # Two members and two non-members, drawn at n = 12, 13, 12, ...
    wanted = {True: 2, False: 2}
    lengths = itertools.cycle([12, 13])
    u = gridding.from_display_rows(u_rows)
    while any(wanted.values()):
        values = random_perm(rng, next(lengths))
        verdict = geometry.geom_member(Permutation(tuple(values)), u)
        if wanted[verdict]:
            items.append(["geom_member", values, u_rows])
            wanted[verdict] -= 1
    alt3 = [list(r) for r in ALT3_ROWS]
    wanted = [22, 24, 26]
    while wanted:
        values = random_perm(rng, wanted[0])
        if gridding.find_gridding(Permutation(tuple(values)), gridding.from_display_rows(alt3)) is None:
            items.append(["find_gridding", values, alt3])
            wanted.pop(0)
    return items


def answered(items: list) -> list:
    out = []
    total = 0.0
    for item in items:
        args = workloads.build(item)
        start = time.perf_counter()
        result = workloads.CALLS[item[0]](*args)
        took = time.perf_counter() - start
        total += took
        expected = json.loads(json.dumps(workloads.answer(item[0], result)))
        if not workloads.check(item, args, result, expected):
            raise SystemExit(f"self-check failed for {workloads.key(item)[:80]}")
        print(f"{took:8.3f} s  {item[0]:15s} n={len(item[1]) if isinstance(item[1], list) else item[1]}"
              f"  found={expected not in (None, False)}")
        out.append([item, expected])
    print(f"{total:8.3f} s  total")
    return out


def main() -> None:
    for size in range(1, 5):
        letters.canonical_decoders(size)
    golden = {"lettering_ladder": {"items": answered(lettering_items())}}
    golden["gridding_ladder"] = {"items": answered(gridding_items())}

    report = pipeline.class_experiment(
        workloads.SWEEP_N_MAX,
        gridding.from_display_rows(workloads.X_ROWS),
        workloads.SWEEP_LETTERS,
        verify_with_oracle=True,
    )
    golden["class_sweep"] = {"report": {
        "scanned": report.scanned,
        "skipped_ungriddable": report.skipped_ungriddable,
        "skipped_lettericity": report.skipped_lettericity,
        "rows": len(report.rows),
        "ok": report.ok,
    }}

    workdir = run.OUT / "cli"
    run.write_cli_inputs(workdir)
    commands = []
    for index, (argv, _) in enumerate(run.CLI_SCRIPT):
        res = run.run_cli_command(index, workdir, time.monotonic() + 600, "plain")
        print(f"{res['wall']:8.3f} s  exit {res['code']}  {' '.join(argv)}")
        commands.append({k: res[k] for k in ("code", "stdout", "svg")})
    golden["cli_cold"] = {"commands": commands}

    run.GOLDEN.write_text(json.dumps(golden, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
