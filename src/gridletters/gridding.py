"""0/+-1 matrices and monotone griddings of permutations.

Matrices are indexed in cartesian coordinates: entry (k, l) sits in column
k (left to right) and row l (bottom to top), so the matrix aligns with the
plot of a permutation.  The text format stores matrices in display order
(top row first); the parser converts.

A gridding of a permutation of length n is a pair of nondecreasing division
tuples x_1 = 1 <= ... <= x_{t+1} = n+1 and y_1 = 1 <= ... <= y_{u+1} = n+1;
the entries with positions in [x_k, x_{k+1}) and values in [y_l, y_{l+1})
must be increasing, decreasing, or absent as the matrix entry dictates.

Griddings are searched in lexicographic order, with the cuts of both axes
bounded by how far each column and each row can reach (see `_divisions`).
A column's reach refills only from each entry it adds, so a long window of
entries that keep their cells costs time linear in its length.
"""
from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .perm import Permutation, contains, parse_permutation, position_table


@dataclasses.dataclass(frozen=True)
class GridMatrix:
    cols: int
    rows: int
    entries: tuple[tuple[int, ...], ...]  # entries[k-1][l-1], bottom to top

    def __post_init__(self):
        if self.cols < 0 or self.rows < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.cols or any(
            len(col) != self.rows for col in self.entries
        ):
            raise ValueError("entry table does not match dimensions")
        for col in self.entries:
            for e in col:
                if e not in (-1, 0, 1):
                    raise ValueError(f"matrix entries must be 0 or +-1, got {e}")

    def entry(self, k: int, l: int) -> int:
        if not (1 <= k <= self.cols and 1 <= l <= self.rows):
            raise ValueError(f"cell ({k}, {l}) out of range")
        return self.entries[k - 1][l - 1]

    def nonzero_cells(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (k, l)
            for k in range(1, self.cols + 1)
            for l in range(1, self.rows + 1)
            if self.entries[k - 1][l - 1] != 0
        )

    def __str__(self) -> str:
        return format_matrix(self)


def grid_matrix(columns: Sequence[Sequence[int]]) -> GridMatrix:
    """Build from columns, each listed bottom to top."""
    cols = tuple(tuple(c) for c in columns)
    rows = len(cols[0]) if cols else 0
    return GridMatrix(len(cols), rows, cols)


def from_display_rows(rows: Sequence[Sequence[int]]) -> GridMatrix:
    """Build from display-order rows (top row first), as in the text format.

    >>> m = from_display_rows([(-1, 1), (1, -1)])   # the X shape
    >>> m.entry(1, 1), m.entry(1, 2), m.entry(2, 1), m.entry(2, 2)
    (1, -1, -1, 1)
    """
    rows = [tuple(r) for r in rows]
    if not rows:
        return GridMatrix(0, 0, ())
    t = len(rows[0])
    if any(len(r) != t for r in rows):
        raise ValueError("ragged matrix rows")
    u = len(rows)
    entries = tuple(
        tuple(rows[u - 1 - (l - 1)][k - 1] for l in range(1, u + 1))
        for k in range(1, t + 1)
    )
    return GridMatrix(t, u, entries)


def parse_matrix(text: str) -> GridMatrix:
    """Parse display-order text: one row per line, entries from {-1, 0, 1}."""
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        try:
            row = tuple(int(tok) for tok in ln.replace(",", " ").split())
        except ValueError:
            row = ()
        if not row:
            raise ValueError(f"bad matrix line {ln!r}")
        rows.append(row)
    if not rows:
        raise ValueError("empty matrix text")
    return from_display_rows(rows)


def format_matrix(m: GridMatrix) -> str:
    lines = []
    for l in range(m.rows, 0, -1):
        lines.append(" ".join(f"{m.entries[k - 1][l - 1]:2d}" for k in range(1, m.cols + 1)))
    return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True)
class GriddedPermutation:
    """A permutation with a valid gridding by a matrix.

    cells[i-1] is the cell (column, row) of the entry at position i.  The
    one validation pass computes it and keeps it, so no reader derives a
    cell again; it plays no part in ==, hash or repr, which the divisions
    already fix.
    """

    perm: Permutation
    matrix: GridMatrix
    col_divs: tuple[int, ...]
    row_divs: tuple[int, ...]
    cells: tuple[tuple[int, int], ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.perm)
        t, u = self.matrix.cols, self.matrix.rows
        if len(self.col_divs) != t + 1 or len(self.row_divs) != u + 1:
            raise ValueError("division tuple lengths must be t+1 and u+1")
        for divs in (self.col_divs, self.row_divs):
            if divs[0] != 1 or divs[-1] != n + 1:
                raise ValueError("divisions must start at 1 and end at n+1")
            if list(divs) != sorted(divs):
                raise ValueError("divisions must be nondecreasing")
        # The divisions run from 1 to n+1, so every entry lands in the matrix.
        cells = []
        last: dict[tuple[int, int], int] = {}
        for i, v in enumerate(self.perm.values, start=1):
            cell = bisect.bisect_right(self.col_divs, i), bisect.bisect_right(self.row_divs, v)
            sign = self.matrix.entries[cell[0] - 1][cell[1] - 1]
            prev = last.get(cell)
            if sign == 0 or (prev is not None and (v - prev) * sign < 0):
                raise ValueError("cell contents violate the matrix")
            last[cell] = v
            cells.append(cell)
        object.__setattr__(self, "cells", tuple(cells))

    @classmethod
    def _trusted(cls, perm, matrix, cells, divs=None) -> GriddedPermutation:
        """No validation pass: only for griddings proven valid where they are built."""
        gp = object.__new__(cls)
        col_divs, row_divs = divs or divisions_of_cells(cells, matrix.cols, matrix.rows)
        vars(gp).update(perm=perm, matrix=matrix, col_divs=col_divs, row_divs=row_divs, cells=cells)
        return gp

    def cell_of(self, i: int) -> tuple[int, int]:
        """Cell (column, row) of the entry at position i."""
        if not (1 <= i <= len(self.perm)):
            raise ValueError(f"index {i} out of range")
        return self.cells[i - 1]


def divisions_of_cells(
    cells: Iterable[tuple[int, int]], t: int, u: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Column and row division tuples of the t x u gridding with one entry
    in each listed cell (in any order).

    >>> divisions_of_cells([(1, 2), (3, 2), (3, 1)], 3, 2)
    ((1, 2, 2, 4), (1, 2, 4))
    """
    col_counts, row_counts = [0] * t, [0] * u
    for k, l in cells:
        col_counts[k - 1] += 1
        row_counts[l - 1] += 1
    return (
        tuple(itertools.accumulate(col_counts, initial=1)),
        tuple(itertools.accumulate(row_counts, initial=1)),
    )


def _cuts(parts: int, n: int, fit: Callable[..., int], *args) -> Iterator[tuple[int, ...]]:
    """Division tuples (1, d_2, ..., d_parts, n+1), lexicographically, with
    d_{j+1} <= fit(*args, j, d_j): the greatest b such that line j alone can
    take a..b-1.  Fitting is hereditary, so fit grows with a, and lines
    j..parts can cover a..n iff a >= first[j], the least a with
    fit(j, a) >= first[j+1].  An odometer walks the tuples; each fit is
    computed once.
    """
    memo = [[0] * (n + 2) for _ in range(parts + 1)]

    def reach(l: int, a: int) -> int:
        if not memo[l][a]:
            memo[l][a] = fit(*args, l, a)
        return memo[l][a]

    top = 1
    for l in range(1, parts + 1):
        top = reach(l, top)
    if top != n + 1:
        return
    first = [n + 1] * (parts + 2)
    for l in range(parts, 0, -1):
        lo, hi = 1, first[l + 1]  # fit(l, a) >= a, so first[l] <= first[l + 1]
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reach(l, mid) >= first[l + 1] else (mid + 1, hi)
        first[l] = lo
    # The odometer: divs[parts] is n+1, and each divs[j] before it runs over
    # [max(divs[j-1], first[j+1]), fit(j, divs[j-1])], nonempty as divs[j-1] >= first[j].
    divs, stop = [1] * parts + [n + 1], [0] * (parts + 1)
    l = 0
    while True:
        for j in range(l + 1, parts):
            divs[j], stop[j] = max(divs[j - 1], first[j + 1]), reach(j, divs[j - 1])
        yield tuple(divs)
        l = parts - 1
        while l > 0 and divs[l] == stop[l]:
            l -= 1
        if l < 1:
            return
        divs[l] += 1


def _row_divisions(
    m: GridMatrix, position: Sequence[int], column: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Valid row divisions, lexicographically, given each value's column and
    position: row l fits values that each sit in a nonzero cell kept monotone."""
    n = len(position) - 1

    def reach(l: int, a: int) -> int:
        last = [0] * (m.cols + 1)  # per column, position of the last value
        b = a
        while b <= n:
            k, q = column[b], position[b]
            s, p = m.entries[k - 1][l - 1], last[k]
            if s == 0 or (p and (q - p) * s < 0):
                break
            last[k] = q
            b += 1
        return b

    return _cuts(m.rows, n, reach)


def _col_reach(m: GridMatrix, pi: Permutation, position: Sequence[int], k: int, a: int) -> int:
    """The greatest b such that entries a..b-1, by increasing value, fill the
    nonzero cells of column k bottom to top: an entry stays in the current
    cell while it keeps the cell's sign, and otherwise opens the next one.
    A new entry refills from its value up to the first entry that keeps its
    cell, as the fill above an entry depends only on its cell and position."""
    signs = [0] + [s for s in m.entries[k - 1] if s]  # signs[c] of cell c; 0 before any
    values, cells = [], []  # the window's values ascending, and the cell of each
    for b in range(a, len(pi) + 1):
        j = bisect.bisect(values, pi.values[b - 1])
        values.insert(j, pi.values[b - 1])
        cells.insert(j, 0)
        c, last = (cells[j - 1], position[values[j - 1]]) if j else (0, 0)
        for i in range(j, len(values)):
            q = position[values[i]]
            if (q - last) * signs[c] <= 0:
                if c == len(signs) - 1:
                    return b
                c += 1
            if cells[i] == c:
                break
            cells[i], last = c, q
    return len(pi) + 1


def _divisions(pi: Permutation, m: GridMatrix) -> Iterator[tuple[tuple[int, ...], Iterator]]:
    """(col_divs, row_divs iterator) of every valid gridding, lexicographically:
    the column tuples `_cuts` allows by `_col_reach`, each with its
    `_row_divisions`.  A column reach costs, per entry it adds, two list
    inserts and a refill that runs until an entry keeps its cell: O(n) at
    worst, O(1) along a monotone run.  A row reach costs O(n)."""
    position = position_table(pi)
    for cdivs in _cuts(m.cols, len(pi), _col_reach, m, pi, position):
        column = [0] + [bisect.bisect_right(cdivs, i) for i in position[1:]]
        yield cdivs, _row_divisions(m, position, column)


def iter_griddings(pi: Permutation, m: GridMatrix) -> Iterator[GriddedPermutation]:
    """All valid griddings, lazily, in lexicographic (col_divs, row_divs) order:
    the divisions of `_divisions`, built without re-validation: the row reach
    admits a value only into a nonzero cell it keeps monotone.  `geom_witness`
    tests the divisions themselves and builds a gridding only for its witness."""
    for cdivs, rows in _divisions(pi, m):
        cols = [bisect.bisect_right(cdivs, i) for i in range(1, len(pi) + 1)]
        for rdivs in rows:
            cells = tuple(zip(cols, (bisect.bisect_right(rdivs, v) for v in pi.values)))
            yield GriddedPermutation._trusted(pi, m, cells, (cdivs, rdivs))


def find_gridding(pi: Permutation, m: GridMatrix) -> Optional[GriddedPermutation]:
    """The lexicographically least valid gridding, or None if pi is not in Grid(m)."""
    return next(iter_griddings(pi, m), None)


def all_griddings(pi: Permutation, m: GridMatrix) -> tuple[GriddedPermutation, ...]:
    return tuple(iter_griddings(pi, m))


_SKEW_MERGED_OBSTRUCTIONS = (parse_permutation("2143"), parse_permutation("3412"))


def is_skew_merged(pi: Permutation) -> bool:
    """True iff pi avoids both 2143 and 3412."""
    return not any(contains(pi, patt) for patt in _SKEW_MERGED_OBSTRUCTIONS)


def _matching_pattern(m: int) -> Permutation:
    values = []
    for i in range(1, m + 1):
        values.extend((2 * i, 2 * i - 1))
    return Permutation(tuple(values))


def _reverse_matching_pattern(m: int) -> Permutation:
    values = []
    for i in range(m, 0, -1):
        values.extend((2 * i - 1, 2 * i))
    return Permutation(tuple(values))


def matching_pattern_witness(pi: Permutation) -> tuple[int, int]:
    """Largest m with 2143...(2m)(2m-1) contained in pi, and likewise for
    the reversed pattern (2m-1)(2m)...3412."""
    best = []
    for pattern in (_matching_pattern, _reverse_matching_pattern):
        m = 0
        while 2 * (m + 1) <= len(pi) and contains(pi, pattern(m + 1)):
            m += 1
        best.append(m)
    return best[0], best[1]


@dataclasses.dataclass(frozen=True)
class SignedMatrix:
    """A partial multiplication matrix with explicit column and row signs."""

    matrix: GridMatrix
    col_signs: tuple[int, ...]
    row_signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.col_signs) != self.matrix.cols or len(self.row_signs) != self.matrix.rows:
            raise ValueError("sign vector lengths must match the matrix")
        if any(s not in (1, -1) for s in self.col_signs + self.row_signs):
            raise ValueError("signs must be +1 or -1")
        for k, l in self.matrix.nonzero_cells():
            if self.matrix.entry(k, l) != self.col_signs[k - 1] * self.row_signs[l - 1]:
                raise ValueError(f"entry ({k}, {l}) is not col sign times row sign")

    @classmethod
    def _product(cls, col_signs: tuple[int, ...], row_signs: tuple[int, ...]) -> SignedMatrix:
        """The full matrix of products, with no validation pass: every entry
        (k, l) is col_signs[k-1] * row_signs[l-1], the product of the signs it
        names.  Only for sign vectors of +-1 entries."""
        sm = object.__new__(cls)
        entries = tuple(tuple(c * r for r in row_signs) for c in col_signs)
        matrix = GridMatrix(len(col_signs), len(row_signs), entries)
        vars(sm).update(matrix=matrix, col_signs=col_signs, row_signs=row_signs)
        return sm


def pmm_signs(m: GridMatrix) -> Optional[SignedMatrix]:
    """Column and row signs factoring every nonzero entry, or None.

    An entry ties its row's sign to its column's.  Signs propagate breadth
    first from the least unassigned column (then row) of each connected
    component, seeded +1, so the answer is deterministic; free rows and
    columns get +1.  None at the first conflicting tie.
    """
    t = m.cols
    signs = [0] * (t + m.rows)  # columns then rows; 0 while unassigned
    for seed in range(len(signs)):
        if signs[seed]:
            continue
        signs[seed] = 1
        queue = [seed]
        for node in queue:  # grows while it is walked
            if node < t:
                ties = [(t + l, e) for l, e in enumerate(m.entries[node]) if e]
            else:
                ties = [(k, col[node - t]) for k, col in enumerate(m.entries) if col[node - t]]
            for other, e in ties:
                if not signs[other]:
                    signs[other] = e * signs[node]
                    queue.append(other)
                elif signs[other] != e * signs[node]:
                    return None
    return SignedMatrix(m, tuple(signs[:t]), tuple(signs[t:]))


def double(m: GridMatrix) -> GridMatrix:
    """The 2t x 2u block substitution: each +1 becomes the increasing pair of
    subcells, each -1 the decreasing pair, each 0 a zero block.  Always a
    partial multiplication matrix, with the same geometric class as m.

    >>> d = double(grid_matrix([[1]]))
    >>> d.entry(1, 1), d.entry(2, 2), d.entry(1, 2), d.entry(2, 1)
    (1, 1, 0, 0)
    """
    t, u = m.cols, m.rows
    entries = [[0] * (2 * u) for _ in range(2 * t)]
    for k in range(1, t + 1):
        for l in range(1, u + 1):
            e = m.entry(k, l)
            if e == 1:
                entries[2 * k - 2][2 * l - 2] = 1
                entries[2 * k - 1][2 * l - 1] = 1
            elif e == -1:
                entries[2 * k - 2][2 * l - 1] = -1
                entries[2 * k - 1][2 * l - 2] = -1
    return GridMatrix(2 * t, 2 * u, tuple(tuple(col) for col in entries))


# Cached: each sweep row's universal-matrix check asks for one of the same
# few (the n = 6 verified X sweep: 0.15 s with this cache, 0.28 s without).
@functools.lru_cache(maxsize=8)
def _universal_signs(t: int, u: int) -> SignedMatrix:
    """The universal matrix of t x u blocks with its signs: even columns and
    odd rows read forwards, so entry (k, l) is (-1)^k (-1)^(l-1)."""
    if t < 1 or u < 1:
        raise ValueError("need t, u >= 1")
    col_signs = tuple((-1) ** k for k in range(1, 2 * t + 1))
    row_signs = tuple((-1) ** (l - 1) for l in range(1, 2 * u + 1))
    return SignedMatrix._product(col_signs, row_signs)


def universal_matrix(t: int, u: int) -> GridMatrix:
    """The 2t x 2u matrix S with S(k, l) = (-1)^(k+l-1).

    Every t x u matrix's geometric class embeds into Geom(S): each original
    cell corresponds to a 2 x 2 block holding both an increasing and a
    decreasing subcell.
    """
    return _universal_signs(t, u).matrix
