"""Permutations in one-line notation.

A permutation of length n is an ordering of 1..n, stored as a tuple of
values.  Positions and values are 1-based in every public signature, so
that position i of ``Permutation((3, 1, 4, 2))`` is ``at(i)`` and vertex i
of the inversion graph is the entry at position i.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Sequence

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

    def position_of(self, value: int) -> int:
        """1-based position of a value."""
        return self.values.index(value) + 1

    def __str__(self) -> str:
        return format_permutation(self)


@dataclasses.dataclass(frozen=True)
class MonotoneInterval:
    """A maximal run of consecutive positions with values stepping by +-1."""

    start: int
    length: int
    direction: int  # +1 increasing, -1 decreasing

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("trivial intervals are never materialized")
        if self.direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")

    @property
    def end(self) -> int:
        return self.start + self.length - 1


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


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
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if pi.values[i - 1] > pi.values[j - 1]
    ]
    return graphs.graph(n, edges)


def monotone_intervals(pi: Permutation) -> tuple[MonotoneInterval, ...]:
    """All maximal nontrivial monotone intervals, in position order.

    Two adjacent deltas of opposite unit sign would force a repeated value,
    so the maximal runs of +1 (or -1) deltas are cleanly separated and each
    yields exactly one interval.

    >>> monotone_intervals(parse_permutation("3142"))
    ()
    >>> iv, = monotone_intervals(parse_permutation("524361"))
    >>> (iv.start, iv.length, iv.direction)
    (3, 2, -1)
    """
    vals = pi.values
    out = []
    i = 0
    while i < len(vals) - 1:
        delta = vals[i + 1] - vals[i]
        if delta in (1, -1):
            j = i + 1
            while j < len(vals) - 1 and vals[j + 1] - vals[j] == delta:
                j += 1
            out.append(MonotoneInterval(i + 1, j - i + 1, delta))
            i = j
        else:
            i += 1
    return tuple(out)


def contract_once(pi: Permutation) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Contract every maximal nontrivial monotone interval simultaneously.

    Returns the contracted permutation and, per result position, the closed
    1-based source position range it covers.

    >>> sigma, ranges = contract_once(parse_permutation("524361"))
    >>> str(sigma), ranges[2]
    ('4 2 3 5 1', (3, 4))
    """
    intervals = {iv.start: iv for iv in monotone_intervals(pi)}
    groups: list[tuple[int, int]] = []
    i = 1
    while i <= len(pi):
        if i in intervals:
            groups.append((i, intervals[i].end))
            i = intervals[i].end + 1
        else:
            groups.append((i, i))
            i += 1
    # Rank each group's value block; blocks have disjoint value ranges.
    mins = [min(pi.values[a - 1 : b]) for a, b in groups]
    ranks = {m: r + 1 for r, m in enumerate(sorted(mins))}
    new_values = tuple(ranks[m] for m in mins)
    return Permutation(new_values), tuple(groups)


def contract(pi: Permutation) -> tuple[Permutation, tuple[tuple[int, int], ...]]:
    """Contract repeatedly until only trivial monotone intervals remain.

    One pass can create new intervals (321 -> 21 -> 1 when contracted a pair
    at a time), hence the fixed-point loop.  The returned map gives, per
    result position, the covered source range of the original permutation.

    >>> contract(identity(5))[0]
    Permutation(values=(1,))
    >>> contract(parse_permutation("3142"))[0].values
    (3, 1, 4, 2)
    """
    current = pi
    ranges = tuple((i, i) for i in range(1, len(pi) + 1))
    while True:
        nxt, groups = contract_once(current)
        if len(nxt) == len(current):
            return current, ranges
        ranges = tuple((ranges[a - 1][0], ranges[b - 1][1]) for a, b in groups)
        current = nxt


def inflate(
    sigma: Permutation, assignment: Sequence[tuple[int, int]]
) -> Permutation:
    """Replace each entry by a monotone interval of the given (length, direction).

    Directions are +1 (increasing) or -1 (decreasing); length-1 blocks ignore
    direction.  Adjacent blocks are allowed to merge into longer intervals,
    so contract(inflate(sigma, a))[0] == sigma only when no merge happens.

    >>> inflate(Permutation((1,)), [(3, 1)]).values
    (1, 2, 3)
    >>> inflate(parse_permutation("21"), [(2, -1), (2, -1)]).values
    (4, 3, 2, 1)
    """
    if len(assignment) != len(sigma):
        raise ValueError("assignment length must match permutation length")
    for length, direction in assignment:
        if length < 1:
            raise ValueError("block lengths must be >= 1")
        if direction not in (1, -1):
            raise ValueError("directions must be +1 or -1")
    starts = {}
    offset = 0
    for value in range(1, len(sigma) + 1):
        pos = sigma.position_of(value)
        starts[pos] = offset + 1
        offset += assignment[pos - 1][0]
    out: list[int] = []
    for pos in range(1, len(sigma) + 1):
        length, direction = assignment[pos - 1]
        base = starts[pos]
        block = range(base, base + length)
        out.extend(block if direction == 1 else reversed(block))
    return Permutation(tuple(out))


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
