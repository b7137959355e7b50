"""Benchmark items: how each query is built, run, recorded and checked.

An item is a JSON list naming a query and its inputs.  `build` turns it into
library objects (outside any timed region), `CALLS` holds the one library
call that is timed, and `answer` turns the result into a JSON value that the
golden file stores.  The library only ever sees the built inputs.

Kinds:
  ["lettericity", family, size]             lettericity(graph of that family)
  ["find_lettering", order, edges, k]       find_lettering(graph, k)
  ["find_gridding", perm, display_rows]     find_gridding(perm, matrix)
  ["geom_member", perm, display_rows]       geom_member(perm, matrix)
"""
from __future__ import annotations

import json

from gridletters import geometry, graphs, gridding, letters
from gridletters.perm import Permutation

# The matrix of the acceptance sweep: the X shape.
X_ROWS = ((-1, 1), (1, -1))
SWEEP_N_MAX = 6
SWEEP_LETTERS = 3


def key(item) -> str:
    return json.dumps(item, separators=(",", ":"))


def family_graph(kind: str, size: int) -> graphs.SimpleGraph:
    """Closed-form families, built from edge lists (not the library's table)."""
    if kind == "path":
        return graphs.graph(size, [(i, i + 1) for i in range(1, size)])
    if kind == "mK2":
        return graphs.graph(2 * size, [(2 * i + 1, 2 * i + 2) for i in range(size)])
    raise ValueError(f"unknown family {kind!r}")


def closed_form(kind: str, size: int) -> int:
    """lett(P_n) = floor((n + 4) / 3) for n >= 3, lett(mK2) = m."""
    return (size + 4) // 3 if kind == "path" else size


def build(item):
    kind = item[0]
    if kind == "lettericity":
        return (family_graph(item[1], item[2]),)
    if kind == "find_lettering":
        return (graphs.graph(item[1], [tuple(e) for e in item[2]]), item[3])
    if kind in ("find_gridding", "geom_member"):
        return (Permutation(tuple(item[1])), gridding.from_display_rows(item[2]))
    raise ValueError(f"unknown item kind {kind!r}")


# The library function each item kind times, looked up when called so that
# a traced run sees the wrapped binding.
CALLS = {
    "lettericity": lambda *args: letters.lettericity(*args),
    "find_lettering": lambda *args: letters.find_lettering(*args),
    "find_gridding": lambda *args: gridding.find_gridding(*args),
    "geom_member": lambda *args: geometry.geom_member(*args),
}


def answer(kind: str, result):
    """The JSON form of a result, as the golden file stores it."""
    if kind == "find_lettering":
        if result is None:
            return None
        return {
            "decoder": sorted(result.decoder),
            "word": "".join(result.word),
            "iso": list(result.iso),
        }
    if kind == "find_gridding":
        if result is None:
            return None
        return [list(result.col_divs), list(result.row_divs)]
    return result


def check(item, args, result, expected) -> bool:
    """Golden equality plus the checks that do not need the golden file."""
    kind = item[0]
    got = json.loads(json.dumps(answer(kind, result)))
    if got != expected:
        return False
    if kind == "lettericity":
        return result == closed_form(item[1], item[2])
    if kind == "find_lettering" and result is not None:
        return len(result.alphabet) <= args[1] and letters.verify_letterization(args[0], result)
    return True

