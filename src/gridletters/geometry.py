"""Geometric grid classes.

The standard figure of a 0/+-1 matrix is a union of open unit diagonals,
one per nonzero cell.  A gridded permutation drawn on the figure induces,
per column and row, a linear order of its entries by distance to a base
corner; the gridding has a drawing exactly when the union of those local
orders is acyclic.  One rule, `_drawing`, draws for `realize`, for cell
words (the same drawing by word position) and for the pipeline's rows.  A
drawing is exact: integer numerators over one denominator, read back on
those integers by one kernel, and turned into the Fractions of
`Realization.points` only by functions returning one.

Column and row signs orient everything: sign +1 reads a column left to
right (a row bottom to top), sign -1 the reverse, and the base point of a
cell is the corner both orientations point away from.
"""
from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .gridding import (
    GriddedPermutation,
    GridMatrix,
    SignedMatrix,
    _divisions,
    _universal_signs,
    double,
    pmm_signs,
)
from .perm import Permutation, position_table

Point = tuple[Fraction, Fraction]
Cell = tuple[int, int]
Successors = tuple[list[int], list[int]]  # per index of disjoint chains: next (or 0), in-degree


@dataclasses.dataclass(frozen=True)
class StandardFigure:
    """Per nonzero cell, the open diagonal segment it carries."""

    matrix: GridMatrix
    segments: tuple[tuple[Cell, tuple[int, int], tuple[int, int]], ...]


def standard_figure(m: GridMatrix) -> StandardFigure:
    segs = []
    for k, l in m.nonzero_cells():
        if m.entry(k, l) == 1:
            segs.append(((k, l), (k - 1, l - 1), (k, l)))
        else:
            segs.append(((k, l), (k - 1, l), (k, l - 1)))
    return StandardFigure(m, tuple(segs))


@dataclasses.dataclass(frozen=True)
class LocalOrders:
    """Chains of indices: one per column (ordered by position along the
    column sign) and one per row (ordered by value along the row sign)."""

    n: int
    column_chains: tuple[tuple[int, ...], ...]
    row_chains: tuple[tuple[int, ...], ...]

    def chains(self) -> tuple[tuple[int, ...], ...]:
        return self.column_chains + self.row_chains


def local_orders(gp: GriddedPermutation, signs: SignedMatrix) -> LocalOrders:
    if gp.matrix != signs.matrix:
        raise ValueError("gridding and signs are over different matrices")
    position = position_table(gp.perm)
    cols = _chains(range(len(position)), gp.col_divs, signs.col_signs)
    rows = _chains(position, gp.row_divs, signs.row_signs)
    return LocalOrders(len(gp.perm), tuple(map(tuple, cols)), tuple(map(tuple, rows)))


def _chains(order: Sequence[int], divs: Sequence[int], signs: Sequence[int]) -> list:
    # Line j holds order[divs[j-1]:divs[j]], reversed for sign -1: a column
    # its positions (order = range(n + 1)), a row the positions of its values.
    return [
        order[lo:hi] if s == 1 else order[hi - 1 : lo - 1 : -1]
        for lo, hi, s in zip(divs, divs[1:], signs)
    ]


def consistency(lo: LocalOrders) -> Optional[tuple[int, ...]]:
    """A linear extension psi of the union of the local orders, or None.

    psi[i-1] is the rank of index i; smallest available index first, so the
    extension is deterministic.  Each index lies in one chain per axis.
    """
    return _extension(lo.n, _successors(lo.n, lo.column_chains), _successors(lo.n, lo.row_chains))


def _successors(n: int, chains: Iterable[Sequence[int]]) -> Successors:
    succ, indeg = [0] * (n + 1), [0] * (n + 1)
    for chain in chains:
        for a, b in itertools.pairwise(chain):
            succ[a] = b
            indeg[b] = 1
    return succ, indeg


def _extension(n: int, cols: Successors, rows: Successors) -> Optional[tuple[int, ...]]:
    # The one consistency kernel.  An edge in a column and a row chain is
    # counted and released twice, which leaves psi as if it were there once.
    (col_succ, col_indeg), (row_succ, row_indeg) = cols, rows
    indeg = list(map(operator.add, col_indeg, row_indeg))
    heap = [i for i in range(1, n + 1) if not indeg[i]]  # ascending, so a heap
    psi = [0] * n
    rank = 0
    while heap:
        i = heapq.heappop(heap)
        rank += 1
        psi[i - 1] = rank
        for b in (col_succ[i], row_succ[i]):
            if b:
                indeg[b] -= 1
                if not indeg[b]:
                    heapq.heappush(heap, b)
    return tuple(psi) if rank == n else None


@dataclasses.dataclass(frozen=True)
class Realization:
    """A drawing of a gridded permutation on the standard figure.

    points[i-1] is the point of entry i; it lies on its cell's diagonal at
    distance offset * sqrt(2) from the cell's base point, where the offset
    is the Fraction |x - base_x|.
    """

    gridded: GriddedPermutation
    signs: SignedMatrix
    points: tuple[Point, ...]


def _point_on_cell(cell: Cell, sign: int, signs: SignedMatrix, p, d: int) -> tuple:
    # Numerators over d of the point at offset p/d from the cell's base point.
    k, l = cell
    tx = p if signs.col_signs[k - 1] == 1 else d - p
    return (k - 1) * d + tx, (l - 1) * d + tx if sign == 1 else l * d - tx


def _drawing(
    cells: Sequence[Cell], signs: SignedMatrix, psi: Sequence[int], runs: Sequence[int]
) -> tuple[tuple[Cell, ...], int, tuple[tuple[int, int], ...]]:
    """The one drawing rule: entry i of cells[i-1] at offset psi(i)/(n + 1)
    from its cell's base point, inflated to a monotone run of runs[i-1]
    entries along the cell's diagonal.  Returns the drawn entries' cells and
    their points as integer numerators over one denominator D.

    psi is a bijection onto 1..n, with d = n + 1; so every coordinate of the
    uninflated drawing is an integer over d, distinct coordinates differ by
    at least 1/d, and every point lies at least 1/d inside its cell.  The
    q-th point of a run of length L goes to offset (4Lp + c(2q - L - 1))/(4Ld),
    with p = psi(i) and c the column sign: less than 1/(4d) from the entry's
    point, under half the least gap, so every reading order outside the run
    is untouched.  A run of one gets 4p/4d = p/d.  The numerators are over
    D = 4d lcm(runs), times lcm / L.
    """
    lcm = math.lcm(*runs)
    big_d = 4 * (len(psi) + 1) * lcm
    entries, col_signs = signs.matrix.entries, signs.col_signs
    drawn: list[Cell] = []
    nums: list[tuple[int, int]] = []
    for cell, p, length in zip(cells, psi, runs):
        sign, c = entries[cell[0] - 1][cell[1] - 1], col_signs[cell[0] - 1]
        for q in range(1, length + 1):
            offset = (4 * length * p + c * (2 * q - length - 1)) * (lcm // length)
            drawn.append(cell)
            nums.append(_point_on_cell(cell, sign, signs, offset, big_d))
    return tuple(drawn), big_d, tuple(nums)


def _as_points(d: int, nums: Iterable[tuple[int, int]]) -> tuple[Point, ...]:
    return tuple((Fraction(x, d), Fraction(y, d)) for x, y in nums)


def realize(gp: GriddedPermutation, signs: SignedMatrix) -> Optional[Realization]:
    """A concrete drawing of gp, or None iff its local orders are inconsistent.

    Offsets are psi(i)/(n+1), i.e. distances d_i = i * sqrt(2)/(n+1); any
    increasing sequence in (0, sqrt(2)) would produce the same gridded
    permutation.  Every coordinate is an integer over the common
    denominator n + 1 (a Fraction in lowest terms, so its denominator
    divides n + 1).
    """
    psi = consistency(local_orders(gp, signs))
    return None if psi is None else _draw(gp, signs, psi)


def _draw(gp: GriddedPermutation, signs: SignedMatrix, psi: Sequence[int]) -> Realization:
    _, d, nums = _drawing(gp.cells, signs, psi, (1,) * len(psi))
    _check_drawing(gp, d, nums)
    return Realization(gp, signs, _as_points(d, nums))


def read_points(m: GridMatrix, points: Sequence[Point]) -> GriddedPermutation:
    """Read an arbitrary generic point set on the standard figure of m back
    into a gridded permutation.  Raises ValueError if a point is off the
    figure or the set is not generic.  Every test runs on exact integers:
    the coordinates times d, the least common multiple of their denominators.
    No re-validation: each cell's points lie on its diagonal, so are monotone
    in its sign, and the points' cells ascend in x order and in y order.
    """
    return _read_back(m, *_scaled(points))


def _read_back(m: GridMatrix, d: int, nums: Sequence[tuple[int, int]]) -> GriddedPermutation:
    # `read_points` on the points (x/d, y/d).
    values, cells = _read_numerators(m, d, nums)
    return GriddedPermutation._trusted(Permutation(values), m, cells)


def _scaled(points: Sequence[Point]) -> tuple[int, list[tuple[int, int]]]:
    # The least common denominator d of the coordinates, and their numerators over d.
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in points]
    d = math.lcm(*(q for point in ratios for _, q in point))
    return d, [(px * (d // qx), py * (d // qy)) for (px, qx), (py, qy) in ratios]


def _read_numerators(m: GridMatrix, d: int, nums: Sequence[tuple[int, int]]) -> tuple:
    # The values and cells of the points (x/d, y/d) in x order, checked as
    # `read_points` says.
    n, cells = len(nums), []
    for x, y in nums:
        (k0, rx), (l0, ry) = divmod(x, d), divmod(y, d)
        inside = 0 <= k0 < m.cols and 0 <= l0 < m.rows
        e = m.entries[k0][l0] if inside else 0
        fault = (
            "on a cell boundary" if rx == 0 or ry == 0
            else "outside the grid" if not inside
            else "off the increasing diagonal" if e == 1 and ry != rx
            else "off the decreasing diagonal" if e == -1 and d - ry != rx
            else "in an empty cell" if e == 0
            else None
        )
        if fault:
            raise ValueError(f"point ({Fraction(x, d)}, {Fraction(y, d)}) {fault}")
        cells.append((k0 + 1, l0 + 1))
    xs, ys = [x for x, _ in nums], [y for _, y in nums]
    if len(set(xs)) != n or len(set(ys)) != n:
        raise ValueError("point set is not generic")
    by_x = sorted(range(n), key=xs.__getitem__)
    yrank = {y: r for r, y in enumerate(sorted(ys), start=1)}
    return tuple(yrank[ys[idx]] for idx in by_x), tuple(cells[idx] for idx in by_x)


def check_realization(r: Realization) -> None:
    """Raise unless the points are a drawing reading back to the gridding:
    the same values and cells in x order, whose per-line counts are the
    divisions."""
    _check_drawing(r.gridded, *_scaled(r.points))


def _check_drawing(gp: GriddedPermutation, d: int, nums: Sequence[tuple[int, int]]) -> None:
    # The one read-back kernel: `check_realization` on the points (x/d, y/d).
    if _read_numerators(gp.matrix, d, nums) != (gp.perm.values, gp.cells):
        raise ValueError("realization does not read back to its gridding")
    # Points are listed by entry: x must increase with position.
    if any(p[0] > q[0] for p, q in zip(nums, nums[1:])):
        raise ValueError("points are not listed in position order")


@dataclasses.dataclass(frozen=True)
class CellWord:
    """A word over the cell alphabet of a matrix: letters name nonzero cells."""

    matrix: GridMatrix
    letters: tuple[Cell, ...]

    def __post_init__(self):
        for k, l in self.letters:
            if self.matrix.entry(k, l) == 0:
                raise ValueError(f"letter names the empty cell ({k}, {l})")


def _word_points(w: CellWord, signs: SignedMatrix) -> tuple[int, tuple[tuple[int, int], ...]]:
    # The word's drawing: position p at offset p/(n + 1) in its letter's
    # cell, as numerators over one denominator.
    if w.matrix != signs.matrix:
        raise ValueError("word and signs are over different matrices")
    n = len(w.letters)
    return _drawing(w.letters, signs, range(1, n + 1), (1,) * n)[1:]


def decode_word(w: CellWord, signs: SignedMatrix) -> GriddedPermutation:
    """The gridded permutation drawn by placing word position i at distance
    d_i in its letter's cell; independent of the choice of distances.

    >>> from .gridding import grid_matrix, pmm_signs
    >>> m = grid_matrix([[-1]])
    >>> decode_word(CellWord(m, ((1, 1),) * 3), pmm_signs(m)).perm.values
    (3, 2, 1)
    """
    return _read_back(w.matrix, *_word_points(w, signs))


def word_index_map(w: CellWord, signs: SignedMatrix) -> tuple[int, ...]:
    """Permutation index corresponding to each word position (by x rank)."""
    _, nums = _word_points(w, signs)
    rank = {x: i for i, (x, _) in enumerate(sorted(nums), start=1)}
    return tuple(rank[x] for x, _ in nums)


def encode_gridded(gp: GriddedPermutation, signs: SignedMatrix) -> CellWord:
    """A word decoding back to gp, built from a linear extension psi of the
    local orders via word(psi(i)) = cell letter of entry i."""
    psi = consistency(local_orders(gp, signs))
    if psi is None:
        raise ValueError("gridding has inconsistent local orders")
    letters: list[Cell] = [None] * len(gp.perm)  # type: ignore[list-item]
    for cell, p in zip(gp.cells, psi):
        letters[p - 1] = cell
    return CellWord(gp.matrix, tuple(letters))


def geom_witness(pi: Permutation, m: GridMatrix) -> Optional[Realization]:
    """A drawing of pi on the standard figure of the partial multiplication
    form of m (doubling when m admits no signs), or None iff pi is not in
    Geom(m): the first gridding in lexicographic order whose local orders
    are consistent, drawn with `pmm_signs`.  The `consistency` kernel tests
    each division pair: the column successors are built once per column
    tuple, and each row tuple adds only its row successors.  Only the first
    consistent pair is built into a gridding, drawn with the psi the kernel
    found.

    One sign vector suffices.  Each entry's column and row lie in one
    connected component of the nonzero pattern, so the local orders split
    by component, and another sign vector only reverses every chain of some
    components, which keeps the union acyclic or not.
    """
    signs = pmm_signs(m) or pmm_signs(double(m))
    work = signs.matrix
    n = len(pi)
    position = position_table(pi)
    for cdivs, rows in _divisions(pi, work):
        cols = _successors(n, _chains(range(n + 1), cdivs, signs.col_signs))
        for rdivs in rows:
            psi = _extension(n, cols, _successors(n, _chains(position, rdivs, signs.row_signs)))
            if psi is not None:
                return _draw(GriddedPermutation(pi, work, cdivs, rdivs), signs, psi)
    return None


def geom_member(pi: Permutation, m: GridMatrix) -> bool:
    """Membership in Geom(m): some gridding by the partial multiplication
    form of m (doubling when m admits no signs) has consistent local orders.

    >>> from .gridding import from_display_rows
    >>> from .perm import parse_permutation
    >>> geom_member(parse_permutation("3142"), from_display_rows([(-1, 1), (1, -1)]))
    False
    """
    return geom_witness(pi, m) is not None


def derive_decoder(signs: SignedMatrix) -> frozenset[tuple[Cell, Cell]]:
    """The decoder over the cell alphabet for which every cell word w has
    letter graph isomorphic to the inversion graph of the decoded permutation.

    A cell pairs with itself iff it is decreasing.  Independent cells are
    fully joined iff their relative position makes every cross pair an
    inversion.  Cells sharing a column contribute the pair that puts the
    upper cell's letter first when the column reads left to right, and the
    reverse otherwise; rows are symmetric.
    """
    m = signs.matrix
    cells = m.nonzero_cells()
    decoder: set[tuple[Cell, Cell]] = set()
    for a in cells:
        if m.entry(*a) == -1:
            decoder.add((a, a))
    for a in cells:
        for b in cells:
            if a >= b:
                continue
            (k1, l1), (k2, l2) = a, b
            if k1 != k2 and l1 != l2:
                if (k1 - k2) * (l1 - l2) < 0:
                    decoder.add((a, b))
                    decoder.add((b, a))
            elif k1 == k2:
                lo, hi = (a, b) if l1 < l2 else (b, a)
                if signs.col_signs[k1 - 1] == 1:
                    decoder.add((hi, lo))
                else:
                    decoder.add((lo, hi))
            else:
                left, right = (a, b) if k1 < k2 else (b, a)
                if signs.row_signs[l1 - 1] == 1:
                    decoder.add((right, left))
                else:
                    decoder.add((left, right))
    return frozenset(decoder)


def embed_in_universal(
    gp: GriddedPermutation,
    signs: SignedMatrix,
    t: Optional[int] = None,
    u: Optional[int] = None,
) -> tuple[GriddedPermutation, SignedMatrix]:
    """Re-grid gp over the universal matrix of t x u blocks (defaulting to
    gp's own dimensions; larger targets leave trailing blocks empty).

    Column k goes to whichever column of its 2x2 block column shares its
    sign, and likewise for rows, so all local orders carry over unchanged;
    the result is a valid gridding with the same consistency status, built
    without re-validation: its cells keep their order, contents and signs.
    """
    if gp.matrix != signs.matrix:
        raise ValueError("gridding and signs are over different matrices")
    a = gp.matrix.cols if t is None else t
    b = gp.matrix.rows if u is None else u
    if a < gp.matrix.cols or b < gp.matrix.rows:
        raise ValueError("universal target smaller than the gridding matrix")
    # Column k goes to 2k for sign +1 and to 2k - 1 for -1; row l to 2l - 1 and 2l.
    cs, rs = signs.col_signs, signs.row_signs
    cells = tuple((2 * k - (cs[k - 1] == -1), 2 * l - (rs[l - 1] == 1)) for k, l in gp.cells)
    s_signed = _universal_signs(a, b)
    return GriddedPermutation._trusted(gp.perm, s_signed.matrix, cells), s_signed
