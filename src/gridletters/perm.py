"""Permutations in one-line notation.

A permutation of length n is an ordering of 1..n, stored as a tuple of
values.  Positions and values are 1-based in every public signature, so
that position i of ``Permutation((3, 1, 4, 2))`` is ``at(i)`` and vertex i
of the inversion graph is the entry at position i.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator, Optional

from . import graphs


@dataclasses.dataclass(frozen=True)
class Permutation:
    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        if sorted(vals) != list(range(1, len(vals) + 1)):
            raise ValueError(f"not a permutation of 1..{len(vals)}: {vals!r}")

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def at(self, i: int) -> int:
        """Value at 1-based position i."""
        return self.values[i - 1]

    def __str__(self) -> str:
        return format_permutation(self)


def position_table(pi: Permutation) -> list[int]:
    """table[v] is the 1-based position of value v (table[0] = 0), in O(n)."""
    table = [0] * (len(pi) + 1)
    for i, v in enumerate(pi.values, start=1):
        table[v] = i
    return table


def parse_permutation(text: str) -> Permutation:
    """Parse whitespace- or comma-separated one-line notation.

    A single multi-digit token of digits is read one digit per entry, so
    "3142" and "3 1 4 2" parse the same; longer permutations need separators.

    >>> parse_permutation("3 7 2 6 9 4 1 8 5").values[:3]
    (3, 7, 2)
    >>> parse_permutation("3142") == parse_permutation("3,1,4,2")
    True
    """
    tokens = text.replace(",", " ").split()
    if not tokens:
        return Permutation(())
    if len(tokens) == 1 and tokens[0].isdigit() and len(tokens[0]) > 1:
        return Permutation(tuple(int(ch) for ch in tokens[0]))
    try:
        values = tuple(int(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"bad permutation text {text!r}") from None
    return Permutation(values)


def format_permutation(pi: Permutation) -> str:
    return " ".join(str(v) for v in pi.values)


def find_embedding(pi: Permutation, sigma: Permutation) -> Optional[tuple[int, ...]]:
    """Lexicographically least index sequence of pi order isomorphic to sigma.

    Backtracking over pattern positions with a value window per step: once a
    prefix is placed, the next value must fall strictly between the placed
    values that sigma puts below and above it.

    >>> find_embedding(parse_permutation("372694185"), parse_permutation("32514"))
    (1, 3, 4, 7, 9)
    >>> find_embedding(parse_permutation("372694185"), parse_permutation("54321")) is None
    True
    """
    n, k = len(pi), len(sigma)
    if k == 0:
        return ()
    if k > n:
        return None
    pvals = pi.values
    svals = sigma.values
    chosen: list[int] = []

    def window(q: int) -> tuple[int, int]:
        lo, hi = 0, n + 1
        sq = svals[q]
        for idx, i in enumerate(chosen):
            if svals[idx] < sq:
                lo = max(lo, pvals[i - 1])
            else:
                hi = min(hi, pvals[i - 1])
        return lo, hi

    def extend(q: int, start: int) -> bool:
        if q == k:
            return True
        lo, hi = window(q)
        for i in range(start, n - (k - q) + 2):
            if lo < pvals[i - 1] < hi:
                chosen.append(i)
                if extend(q + 1, i + 1):
                    return True
                chosen.pop()
        return False

    if extend(0, 1):
        return tuple(chosen)
    return None


def contains(pi: Permutation, sigma: Permutation) -> bool:
    """True iff some subsequence of pi is order isomorphic to sigma."""
    return find_embedding(pi, sigma) is not None


def inversion_graph(pi: Permutation) -> graphs.SimpleGraph:
    """Graph on positions 1..n with an edge ij iff i < j and pi(i) > pi(j).

    >>> sorted(inversion_graph(parse_permutation("2413")).edges)
    [(1, 3), (2, 3), (2, 4)]
    """
    n = len(pi)
    # Each pair is (i, j) with i < j by construction, so nothing needs normalising.
    edges = frozenset(
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if pi.values[i - 1] > pi.values[j - 1]
    )
    return graphs.SimpleGraph(n, edges)


def separators(pi: Permutation, i: int, j: int) -> tuple[int, ...]:
    """Indices x whose entry lies between entries i and j horizontally or
    vertically, but not both."""
    lo_p, hi_p = min(i, j), max(i, j)
    lo_v, hi_v = sorted((pi.at(i), pi.at(j)))
    out = []
    for x in range(1, len(pi) + 1):
        if x in (i, j):
            continue
        between_h = lo_p < x < hi_p
        between_v = lo_v < pi.at(x) < hi_v
        if between_h != between_v:
            out.append(x)
    return tuple(out)


def separated(pi: Permutation, i: int, j: int) -> bool:
    """True iff some third entry separates entries i and j."""
    return bool(separators(pi, i, j))
