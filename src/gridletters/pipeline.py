"""From a monotone gridding plus a lettering to a geometric gridding.

The construction, per permutation: grid it monotonically, contract the
monotone runs that sit inside single cells of that gridding (one pass
suffices, and each run's direction equals its cell's sign, which is what
makes the final re-inflation possible), letter the inversion graph of the
contracted permutation, refine the alphabet so each letter occupies one
cell, slice the gridding just outside each letter's rectangular hull,
orient the resulting columns and rows by the letters' reading orders,
extend their local orders to a linear order psi, and draw pi from psi.
The output matrix is a partial multiplication matrix of size at most
t(1+2ur) x u(1+2tr) for a t x u input gridding and at most r letters.

`class_experiment` shares one `letters.LetteringCache` and runs the stages up
to psi once per contracted gridding (a failing one again for each row that
reaches it); each row only draws pi, on integers, by `geometry`'s one
drawing rule, and reads it back.
"""
from __future__ import annotations

import bisect
import dataclasses
import itertools
from typing import Optional, Sequence

from . import geometry, letters, oracle
from .geometry import Realization
from .gridding import GriddedPermutation, GridMatrix, SignedMatrix, find_gridding
from .letters import LetteringCache, Letterization
from .perm import Permutation, inversion_graph

RefinedLetter = tuple[str, int, int]


class PipelineError(ValueError):
    pass


class NotGriddableError(PipelineError):
    pass


class LetteringNotFoundError(PipelineError):
    pass


class ReadingOrderConflictError(PipelineError):
    pass


@dataclasses.dataclass(frozen=True)
class RefinedLetterization:
    """A lettering whose letters carry cell coordinates.

    The decoder ignores the cell components, so the decoded graph is the
    same as before refinement; each refined letter encodes entries of a
    single cell.
    """

    alphabet: tuple[RefinedLetter, ...]
    decoder: frozenset[tuple[RefinedLetter, RefinedLetter]]
    word: tuple[RefinedLetter, ...]
    iso: tuple[int, ...]

    def letter_of(self, i: int) -> RefinedLetter:
        return self.word[self.iso[i - 1] - 1]


@dataclasses.dataclass(frozen=True)
class ReadingOrders:
    """Per refined letter: horizontal (+1 left-to-right) and vertical
    (+1 bottom-to-top) direction in which its entries appear in the word."""

    orders: tuple[tuple[RefinedLetter, int, int], ...]


def reletter(lz: Letterization, gp: GriddedPermutation) -> RefinedLetterization:
    """Attach cell coordinates to every letter of a lettering of gp's
    inversion graph, after checking that it is one."""
    if not letters.verify_letterization(inversion_graph(gp.perm), lz):
        raise PipelineError("iso is not an isomorphism onto the letter graph")
    return _reletter(lz, gp)


def _reletter(lz: Letterization, gp: GriddedPermutation) -> RefinedLetterization:
    word: list[RefinedLetter] = [None] * len(gp.perm)  # type: ignore[list-item]
    for p, (k, l) in zip(lz.iso, gp.cells):
        word[p - 1] = (lz.word[p - 1], k, l)
    alphabet = tuple(sorted(set(word)))
    decoder = frozenset(
        (p, q)
        for p in alphabet
        for q in alphabet
        if (p[0], q[0]) in lz.decoder
    )
    return RefinedLetterization(alphabet, decoder, tuple(word), lz.iso)


def _letter_entries(
    rlz: RefinedLetterization, gp: GriddedPermutation
) -> dict[RefinedLetter, list[int]]:
    """Each refined letter's positions, ascending, keyed in alphabet order,
    from one pass that checks every entry lies in its letter's cell."""
    out: dict[RefinedLetter, list[int]] = {a: [] for a in rlz.alphabet}
    for i, cell in enumerate(gp.cells, start=1):
        letter = rlz.letter_of(i)
        if cell != letter[1:]:
            raise PipelineError(f"letter {letter} used outside its cell")
        out[letter].append(i)
    return out


def reading_orders(rlz: RefinedLetterization, gp: GriddedPermutation) -> ReadingOrders:
    """Reading orders per refined letter, forced through the word order.

    A letter with a single entry defaults to horizontal left-to-right; the
    vertical order always follows from the horizontal one and the sign of
    the letter's cell.
    """
    entries_of = _letter_entries(rlz, gp)
    # A monotone run inside one cell has no separating entry, which breaks
    # the reading orders; `contract_gridded` finds the runs.
    for a, b in contract_gridded(gp)[1]:
        if a < b:
            raise PipelineError(f"nontrivial monotone interval at positions {a}, {a + 1}")
    orders = []
    for letter, entries in entries_of.items():
        ranks = [rlz.iso[i - 1] for i in entries]
        if ranks == sorted(ranks):
            h = 1
        elif ranks == sorted(ranks, reverse=True):
            h = -1
        else:
            raise PipelineError(f"iso not monotone on the entries of letter {letter}")
        orders.append((letter, h, h * gp.matrix.entry(letter[1], letter[2])))
    return ReadingOrders(tuple(orders))


def regrid(gp: GriddedPermutation, rlz: RefinedLetterization) -> GriddedPermutation:
    """Slice the gridding just outside every letter's hull rectangle.

    Cuts land at integer divisions (a cut just left of index i is the
    division i; just right is i+1), duplicates collapse, and since every
    integer in 1..n is an occupied position, no empty column or row remains.
    """
    col_cuts, row_cuts = set(gp.col_divs), set(gp.row_divs)
    for positions in _letter_entries(rlz, gp).values():
        # The positions ascend, so the hull spans the first to the last.
        values = [gp.perm.values[i - 1] for i in positions]
        col_cuts.update((positions[0], positions[-1] + 1))
        row_cuts.update((min(values), max(values) + 1))
    col_divs, row_divs = tuple(sorted(col_cuts)), tuple(sorted(row_cuts))
    # No re-validation: the cuts refine gp's, so each new cell lies in one parent
    # cell and holds only entries of it, monotone in the sign it takes from it.
    entries = [[0] * (len(row_divs) - 1) for _ in range(len(col_divs) - 1)]
    cells = []
    for i, (v, (k, l)) in enumerate(zip(gp.perm.values, gp.cells), start=1):
        cell = bisect.bisect_right(col_divs, i), bisect.bisect_right(row_divs, v)
        entries[cell[0] - 1][cell[1] - 1] = gp.matrix.entries[k - 1][l - 1]
        cells.append(cell)
    matrix = GridMatrix(len(col_divs) - 1, len(row_divs) - 1, tuple(map(tuple, entries)))
    return GriddedPermutation._trusted(gp.perm, matrix, tuple(cells), (col_divs, row_divs))


def assign_signs(
    regridded: GriddedPermutation,
    rlz: RefinedLetterization,
    ro: ReadingOrders,
) -> SignedMatrix:
    """Column and row signs from the reading orders of the occupying letters.

    Every nonempty column's letters share one horizontal reading order (and
    rows one vertical order); a conflict means the preconditions upstream
    were violated.  The output matrix is col sign times row sign everywhere,
    a partial multiplication matrix by construction.
    """
    table = {letter: (h, v) for letter, h, v in ro.orders}
    cols, rows = regridded.matrix.cols, regridded.matrix.rows
    col_orders: list[set[int]] = [set() for _ in range(cols)]
    row_orders: list[set[int]] = [set() for _ in range(rows)]
    for i, (k, l) in enumerate(regridded.cells, start=1):
        h, v = table[rlz.letter_of(i)]
        col_orders[k - 1].add(h)
        row_orders[l - 1].add(v)

    def line_sign(found: set[int], direction: str, line: str) -> int:
        if not found:
            raise PipelineError(f"{line} of the regridded permutation is empty")
        if len(found) != 1:
            raise ReadingOrderConflictError(f"conflicting {direction} reading orders in {line}")
        return min(found)

    col_signs = [line_sign(s, "horizontal", f"column {k}") for k, s in enumerate(col_orders, 1)]
    row_signs = [line_sign(s, "vertical", f"row {l}") for l, s in enumerate(row_orders, 1)]
    return SignedMatrix._product(tuple(col_signs), tuple(row_signs))


def contract_gridded(
    gp: GriddedPermutation,
) -> tuple[GriddedPermutation, tuple[tuple[int, int], ...]]:
    """Contract the monotone runs lying inside single cells, in one scan.

    Returns the contracted gridded permutation (over the same matrix) and,
    per contracted position, the closed range of gp positions it covers;
    without a run that is gp itself and the one-entry ranges.  Runs never
    straddle cells, so each run's direction equals its cell's sign.

    One pass leaves no run behind.  The entries of a cell are monotone in
    its sign s, so every run in the cell, and every two groups adjacent in
    position within it, go in direction s.  If two such groups got adjacent
    ranks after contraction, the last entry of the first and the first
    entry of the second would differ by exactly s, and the scan would
    already have joined them into one run.

    No re-validation: the groups keep their order in position and value and
    each lies in one cell, so the cells keep gp's monotone patterns and order.
    """
    values, cells = gp.perm.values, gp.cells
    n = len(values)
    groups: list[tuple[int, int]] = []
    i = 1
    while i <= n:
        j = i
        while j < n and abs(values[j] - values[j - 1]) == 1 and cells[j] == cells[j - 1]:
            j += 1
        groups.append((i, j))
        i = j + 1
    if len(groups) == n:
        return gp, tuple(groups)
    mins = [min(values[a - 1 : b]) for a, b in groups]
    ranks = {m: r + 1 for r, m in enumerate(sorted(mins))}
    contracted = Permutation(tuple(ranks[m] for m in mins))
    sigma_cells = tuple(cells[a - 1] for a, _ in groups)
    return GriddedPermutation._trusted(contracted, gp.matrix, sigma_cells), tuple(groups)


@dataclasses.dataclass(frozen=True)
class GeometrizeResult:
    signed: SignedMatrix
    gridded: GriddedPermutation
    realization: Realization
    contracted: Permutation
    contracted_gridded: GriddedPermutation
    lettering: Letterization
    refined: RefinedLetterization
    reading: ReadingOrders
    initial_gridding: GriddedPermutation


def geometrize(
    pi: Permutation,
    m: GridMatrix,
    k_max: int,
    cache: Optional[LetteringCache] = None,
) -> GeometrizeResult:
    """Produce a geometric gridding of pi by a bounded partial multiplication
    matrix, given a monotone gridding matrix and a letter budget.

    The lettering comes from `cache` (a fresh one when omitted); the answer
    is the same either way, a shared cache only saves repeated searches.

    Raises NotGriddableError when pi has no m-gridding, LetteringNotFoundError
    when the contracted inversion graph admits no lettering within k_max
    letters, and another PipelineError when a later stage fails or the drawing
    does not read back.  A k_max below 1 is a plain ValueError raised before
    the gridding search; any other plain ValueError is a defect.
    """
    if k_max < 1:
        raise ValueError(f"need k_max >= 1, got {k_max}")
    gp0 = find_gridding(pi, m)
    if gp0 is None:
        raise NotGriddableError(f"{pi} has no gridding by the given matrix")
    core, gridded, d, nums = _geometrize_gridding(gp0, k_max, cache or LetteringCache(), {})
    sigma_final, signed, _, lz, rlz, ro = core
    real = Realization(gridded, signed, geometry._as_points(d, nums))
    return GeometrizeResult(signed, gridded, real, sigma_final.perm, sigma_final, lz, rlz, ro, gp0)


def _geometrize_contracted(sigma_gp: GriddedPermutation, k_max: int, cache: LetteringCache):
    # The stages that depend on the contracted gridding alone, up to psi.
    sigma = sigma_gp.perm
    g = inversion_graph(sigma)
    lz = cache.find_lettering(g, k_max)
    if lz is None:
        raise LetteringNotFoundError(
            f"inversion graph of {sigma} has no lettering with {k_max} letters"
        )
    # No re-verification: cache.find_lettering(g, k_max) returned lz as a lettering of g.
    rlz = _reletter(lz, sigma_gp)
    ro = reading_orders(rlz, sigma_gp)
    regridded = regrid(sigma_gp, rlz)
    signed = assign_signs(regridded, rlz, ro)
    # No re-validation: an occupied cell's letter reads h and v = h s, s its cell's
    # sign, so its new entry is h v = h h s = s, the sign the regridded cell had.
    sigma_final = GriddedPermutation._trusted(sigma, signed.matrix, regridded.cells)
    psi = geometry.consistency(geometry.local_orders(sigma_final, signed))
    if psi is None:
        raise PipelineError("local orders of the regridded permutation are inconsistent")
    return sigma_final, signed, psi, lz, rlz, ro


def _geometrize_gridding(gp0: GriddedPermutation, k_max: int, cache: LetteringCache, cores: dict):
    # `geometrize` after the gridding search: the core, pi's gridding and its
    # drawing, numerators nums over d.  `cores` keeps each contracted gridding's
    # successful core; a failing one raises anew for each row that reaches it.
    # A failed read-back is a PipelineError too; only a valid gridding, built
    # unchecked, passes it.
    pi = gp0.perm
    sigma_gp, groups = contract_gridded(gp0)
    core = cores.get(sigma_gp)
    if core is None:
        core = cores[sigma_gp] = _geometrize_contracted(sigma_gp, k_max, cache)
    sigma_final, signed, psi = core[:3]
    runs = [b - a + 1 for a, b in groups]
    cells, d, nums = geometry._drawing(sigma_final.cells, signed, psi, runs)
    gridded = GriddedPermutation._trusted(pi, signed.matrix, cells)
    try:
        geometry._check_drawing(gridded, d, nums)
    except ValueError as exc:
        raise PipelineError(f"drawing of {pi} does not read back: {exc}") from exc
    return core, gridded, d, nums


def _size_bound(m: GridMatrix, r: int) -> tuple[int, int]:
    t, u = m.cols, m.rows
    return t * (1 + 2 * u * r), u * (1 + 2 * t * r)


@dataclasses.dataclass(frozen=True)
class ExperimentRow:
    perm: Permutation
    lettericity: int
    cols: int
    rows: int
    bound_ok: bool
    member_ok: bool
    universal_ok: bool
    oracle_ok: Optional[bool]
    note: str = ""

    @property
    def ok(self) -> bool:
        return (
            self.bound_ok
            and self.member_ok
            and self.universal_ok
            and self.oracle_ok in (None, True)
            and not self.note
        )


@dataclasses.dataclass(frozen=True)
class ExperimentReport:
    n_max: int
    matrix: GridMatrix
    letter_cap: int
    rows: tuple[ExperimentRow, ...]
    scanned: int
    skipped_ungriddable: int
    skipped_lettericity: int

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def bound(self) -> tuple[int, int]:
        return _size_bound(self.matrix, self.letter_cap)

    def to_tsv(self) -> str:
        lines = ["perm\tlettericity\tcols\trows\tbound_ok\tmember_ok\tuniversal_ok\toracle_ok\tnote"]
        for row in self.rows:
            oracle = "-" if row.oracle_ok is None else str(row.oracle_ok)
            lines.append(
                f"{row.perm}\t{row.lettericity}\t{row.cols}\t{row.rows}"
                f"\t{row.bound_ok}\t{row.member_ok}\t{row.universal_ok}\t{oracle}\t{row.note}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        t, u = self.bound()
        status = "all verified" if self.ok else "VIOLATIONS FOUND"
        return (
            f"processed {len(self.rows)} permutations up to length {self.n_max} "
            f"(scanned {self.scanned}, {self.skipped_ungriddable} not griddable, "
            f"{self.skipped_lettericity} above letter cap); "
            f"size bound {t}x{u}; {status}"
        )


def class_experiment(
    n_max: int,
    m: GridMatrix,
    r: int,
    verify_with_oracle: bool = False,
) -> ExperimentReport:
    """Geometrize every permutation of length <= n_max in Grid(m) whose
    inversion graph has lettericity at most r, verifying the size bound,
    membership in the output matrix (the read-back `geometrize` makes before
    it returns, so a returned result is a member), and membership in the
    universal matrix of the bound dimensions.  Each PipelineError becomes a
    report row and other exceptions propagate; an r below 1, a negative n_max,
    or an n_max past the oracle's length cap with verify_with_oracle raises
    ValueError before the sweep starts.
    The filter's gridding is the one geometrized, so each permutation is
    gridded once; one `LetteringCache` serves the lettericity filter and every
    row, so each isomorphism class of inversion graphs is searched once; and
    each contracted gridding runs the stages from lettering to psi once per
    sweep (a failing one once per row that reaches it), so only the drawing
    of pi and the verification tail run per row.
    """
    if r < 1 or n_max < 0:
        raise ValueError(f"need r >= 1 and n_max >= 0, got r = {r}, n_max = {n_max}")
    cap = oracle.GEOM_ORACLE_MAX_LENGTH
    if verify_with_oracle and n_max > cap:
        raise ValueError(f"geometric membership oracle capped at length {cap}")
    bound = bound_cols, bound_rows = _size_bound(m, r)
    cache = LetteringCache()
    cores: dict[GriddedPermutation, tuple] = {}
    rows: list[ExperimentRow] = []
    scanned = 0
    skipped_ungriddable = 0
    skipped_lettericity = 0
    for n in range(1, n_max + 1):
        for values in itertools.permutations(range(1, n + 1)):
            pi = Permutation(values)
            scanned += 1
            gp0 = find_gridding(pi, m)
            if gp0 is None:
                skipped_ungriddable += 1
                continue
            lett = cache.lettericity(inversion_graph(pi))
            if lett > r:
                skipped_lettericity += 1
                continue
            try:
                (_, signed, *_), gridded, d, nums = _geometrize_gridding(gp0, r, cache, cores)
            except PipelineError as exc:
                rows.append(
                    ExperimentRow(pi, lett, 0, 0, False, False, False, None, str(exc))
                )
                continue
            cols, nrows = signed.matrix.cols, signed.matrix.rows
            bound_ok = cols <= bound_cols and nrows <= bound_rows
            universal_ok = bound_ok and _universal_ok(gridded, signed, d, nums, *bound)
            oracle_ok = oracle.geom_member_oracle(pi, signed.matrix) if verify_with_oracle else None
            rows.append(
                ExperimentRow(pi, lett, cols, nrows, bound_ok, True, universal_ok, oracle_ok)
            )
    return ExperimentReport(
        n_max=n_max,
        matrix=m,
        letter_cap=r,
        rows=tuple(rows),
        scanned=scanned,
        skipped_ungriddable=skipped_ungriddable,
        skipped_lettericity=skipped_lettericity,
    )


def _universal_ok(
    gp: GriddedPermutation, signs: SignedMatrix, d: int, nums: Sequence, t: int, u: int
) -> bool:
    """Whether gp's drawing, the numerators nums over d, moved onto the
    universal figure of t x u blocks, reads back to the embedded gridding.

    `embed_in_universal` sends column k to the column K of block k that has
    the same sign, and row l to the row L of block l likewise; the universal
    matrix is col sign times row sign, so cell (K, L) carries the diagonal
    of cell (k, l), and shifting each point by ((K - k)d, (L - l)d) moves it
    onto that diagonal.  A point set on the full-bound universal figure that
    reads back to the embedding is a complete membership witness.
    """
    try:
        embedded, _ = geometry.embed_in_universal(gp, signs, t, u)
        shifted = [
            (x + (K - k) * d, y + (L - l) * d)
            for (x, y), (k, l), (K, L) in zip(nums, gp.cells, embedded.cells)
        ]
        geometry._check_drawing(embedded, d, shifted)
    except ValueError:
        return False
    return True
