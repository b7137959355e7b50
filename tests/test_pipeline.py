import bisect
import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import pytest

from gridletters import cli, geometry, letters, pipeline
from gridletters.geometry import consistency, geom_member, local_orders
from gridletters.gridding import (
    GridMatrix,
    GriddedPermutation,
    SignedMatrix,
    divisions_of_cells,
    find_gridding,
    grid_matrix,
    iter_griddings,
)
from gridletters.letters import (
    LetteringCache,
    Letterization,
    decode_letter_graph,
    find_lettering,
)
from gridletters.perm import Permutation, inversion_graph, parse_permutation, separators
from gridletters.pipeline import (
    LetteringNotFoundError,
    NotGriddableError,
    PipelineError,
    ReadingOrderConflictError,
    ReadingOrders,
    assign_signs,
    _universal_ok,
    class_experiment,
    contract_gridded,
    geometrize,
    reading_orders,
    regrid,
    reletter,
)

P = parse_permutation

DIAG3 = grid_matrix([[-1, 0, 0], [0, -1, 0], [0, 0, -1]])


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def row_drawing(pi, m, r, cache=None):
    """A sweep row: pi's gridding, its signs and its integer drawing, the
    numerators nums over the one denominator d."""
    gp0 = find_gridding(pi, m)
    cache = LetteringCache() if cache is None else cache
    (_, signed, *_), gridded, d, nums = pipeline._geometrize_gridding(gp0, r, cache, {})
    return gridded, signed, d, nums


@functools.cache
def plain_scan(n_max, m):
    """The S_n scan, n = 1..n_max: the count scanned, the count with no
    m-gridding, and each member with its lettericity, in scan order."""
    scanned = ungriddable = 0
    members = []
    for n in range(1, n_max + 1):
        for pi in perms_of(n):
            scanned += 1
            if find_gridding(pi, m) is None:
                ungriddable += 1
            else:
                members.append((pi, letters.lettericity(inversion_graph(pi))))
    return scanned, ungriddable, members


def symmetry_images(values):
    """The images of a permutation under the eight symmetries of the square."""
    n = len(values)

    def inverse(v):
        return tuple(sorted(range(1, n + 1), key=lambda i: v[i - 1]))

    def reverse(v):
        return tuple(reversed(v))

    def complement(v):
        return tuple(n + 1 - x for x in v)

    images = []
    for v in (values, inverse(values)):
        images += [v, reverse(v), complement(v), reverse(complement(v))]
    return images


def skew_merged_upto(n_max, x_matrix):
    for n in range(1, n_max + 1):
        for pi in perms_of(n):
            if find_gridding(pi, x_matrix) is not None:
                yield pi


class TestReletter:
    def test_single_cell_single_letter(self, one_cell):
        gp = GriddedPermutation(P("123"), one_cell, (1, 4), (1, 4))
        lz = find_lettering(inversion_graph(P("123")), 1)
        rlz = reletter(lz, gp)
        assert rlz.alphabet == (("a", 1, 1),)
        assert rlz.word == (("a", 1, 1),) * 3

    def test_refinement_preserves_graph(self, x_matrix):
        gp = find_gridding(P("3142"), x_matrix)
        lz = find_lettering(inversion_graph(P("3142")), 2)
        rlz = reletter(lz, gp)
        before = decode_letter_graph(lz.alphabet, lz.decoder, lz.word)
        after = decode_letter_graph(rlz.alphabet, rlz.decoder, rlz.word)
        assert before == after
        assert 2 <= len(rlz.alphabet) <= 4

    def test_alphabet_bound(self, x_matrix):
        for pi in skew_merged_upto(5, x_matrix):
            gp = find_gridding(pi, x_matrix)
            lz = find_lettering(inversion_graph(pi), 3)
            rlz = reletter(lz, gp)
            t, u = x_matrix.cols, x_matrix.rows
            assert len(rlz.alphabet) <= t * u * len(lz.alphabet)

    def test_bad_iso_rejected(self, one_cell):
        gp = GriddedPermutation(P("12"), one_cell, (1, 3), (1, 3))
        bogus = Letterization(("a",), frozenset({("a", "a")}), ("a", "a"), (1, 2))
        with pytest.raises(PipelineError):
            reletter(bogus, gp)


class TestReadingOrders:
    def _multi_letter_cases(self, x_matrix, n_max=6):
        # Relettered griddings that actually carry a multi-entry letter.
        for pi in skew_merged_upto(n_max, x_matrix):
            gp, _ = contract_gridded(find_gridding(pi, x_matrix))
            lz = find_lettering(inversion_graph(gp.perm), 3)
            rlz = reletter(lz, gp)
            counts = {}
            for i in range(1, len(gp.perm) + 1):
                counts[rlz.letter_of(i)] = counts.get(rlz.letter_of(i), 0) + 1
            if any(c >= 2 for c in counts.values()):
                yield gp, rlz

    def test_multi_entry_letters_follow_iso_direction(self, x_matrix):
        seen = 0
        for gp, rlz in self._multi_letter_cases(x_matrix):
            ro = reading_orders(rlz, gp)
            for letter, h, v in ro.orders:
                entries = [
                    i for i in range(1, len(gp.perm) + 1) if rlz.letter_of(i) == letter
                ]
                if len(entries) < 2:
                    continue
                seen += 1
                ranks = [rlz.iso[i - 1] for i in entries]
                assert h == (1 if ranks == sorted(ranks) else -1)
                # Vertical order is forced by the horizontal one and the
                # sign of the letter's cell: reading a decreasing cell
                # bottom to top means reading it right to left.
                assert v == h * gp.matrix.entry(letter[1], letter[2])
        assert seen >= 3

    def test_singleton_defaults(self, x_matrix):
        gp = find_gridding(P("3142"), x_matrix)
        lz = find_lettering(inversion_graph(P("3142")), 2)
        rlz = reletter(lz, gp)
        ro = reading_orders(rlz, gp)
        for letter, h, v in ro.orders:
            entries = [i for i in range(1, 5) if rlz.letter_of(i) == letter]
            if len(entries) == 1:
                assert h == 1
                assert v == x_matrix.entry(letter[1], letter[2])

    def test_interval_inside_cell_rejected(self, one_cell):
        gp = GriddedPermutation(P("12"), one_cell, (1, 3), (1, 3))
        lz = Letterization(("a", "b"), frozenset(), ("a", "b"), (1, 2))
        with pytest.raises(PipelineError):
            reading_orders(reletter(lz, gp), gp)


class TestRegrid:
    def test_single_letter_cell_stays_1x1(self, one_cell):
        gp = GriddedPermutation(P("1"), one_cell, (1, 2), (1, 2))
        lz = find_lettering(inversion_graph(P("1")), 1)
        rlz = reletter(lz, gp)
        out = regrid(gp, rlz)
        assert out.matrix.cols == 1 and out.matrix.rows == 1

    def test_cuts_land_outside_hulls(self, x_matrix):
        gp = find_gridding(P("3142"), x_matrix)
        lz = find_lettering(inversion_graph(P("3142")), 2)
        rlz = reletter(lz, gp)
        out = regrid(gp, rlz)
        for positions, values in reference_hulls(rlz, gp):
            assert positions[0] in out.col_divs
            assert positions[1] + 1 in out.col_divs
            assert values[0] in out.row_divs
            assert values[1] + 1 in out.row_divs

    def test_no_empty_columns_or_rows(self, x_matrix):
        for pi in skew_merged_upto(5, x_matrix):
            gp0 = find_gridding(pi, x_matrix)
            gp, _ = contract_gridded(gp0)
            lz = find_lettering(inversion_graph(gp.perm), 3)
            out = regrid(gp, reletter(lz, gp))
            assert {k for k, _ in out.cells} == set(range(1, out.matrix.cols + 1))
            assert {l for _, l in out.cells} == set(range(1, out.matrix.rows + 1))


class TestStageFailures:
    def test_lettering_refined_against_another_gridding(self, x_matrix):
        pi = P("21")
        first, *_, last = iter_griddings(pi, x_matrix)
        assert first.cell_of(1) != last.cell_of(1)
        rlz = reletter(find_lettering(inversion_graph(pi), 2), first)
        with pytest.raises(PipelineError, match="used outside its cell"):
            reading_orders(rlz, last)
        with pytest.raises(PipelineError, match="used outside its cell"):
            regrid(last, rlz)

    def test_opposite_horizontal_orders_in_one_column(self, one_cell):
        gp = GriddedPermutation(P("12"), one_cell, (1, 3), (1, 3))
        rlz = reletter(Letterization(("a", "b"), frozenset(), ("a", "b"), (1, 2)), gp)
        a, b = rlz.alphabet
        ro = ReadingOrders(((a, 1, 1), (b, -1, -1)))
        with pytest.raises(ReadingOrderConflictError, match="horizontal"):
            assign_signs(gp, rlz, ro)

    def test_empty_column(self):
        gp = GriddedPermutation(P("1"), grid_matrix([[1], [1]]), (1, 1, 2), (1, 2))
        rlz = reletter(find_lettering(inversion_graph(gp.perm), 1), gp)
        with pytest.raises(PipelineError, match="column 1 of the regridded permutation is empty"):
            assign_signs(gp, rlz, reading_orders(rlz, gp))

    def test_opposite_vertical_orders_in_one_row(self, one_cell):
        gp = GriddedPermutation(P("12"), one_cell, (1, 3), (1, 3))
        rlz = reletter(Letterization(("a", "b"), frozenset(), ("a", "b"), (1, 2)), gp)
        a, b = rlz.alphabet
        ro = ReadingOrders(((a, 1, 1), (b, 1, -1)))
        with pytest.raises(
            ReadingOrderConflictError, match="conflicting vertical reading orders in row 1"
        ):
            assign_signs(gp, rlz, ro)

    def test_empty_row(self):
        gp = GriddedPermutation(P("1"), grid_matrix([[1, 1]]), (1, 2), (1, 1, 2))
        rlz = reletter(find_lettering(inversion_graph(gp.perm), 1), gp)
        with pytest.raises(PipelineError, match="row 1 of the regridded permutation is empty"):
            assign_signs(gp, rlz, reading_orders(rlz, gp))

    def test_columns_are_checked_before_rows(self):
        # Column 1 is empty and row 1 holds opposite vertical orders: the
        # column is reported.
        gp = GriddedPermutation(P("12"), grid_matrix([[1], [1]]), (1, 1, 3), (1, 3))
        rlz = reletter(Letterization(("a", "b"), frozenset(), ("a", "b"), (1, 2)), gp)
        a, b = rlz.alphabet
        ro = ReadingOrders(((a, 1, 1), (b, 1, -1)))
        with pytest.raises(PipelineError, match="column 1 of the regridded permutation is empty"):
            assign_signs(gp, rlz, ro)


class TestContractGridded:
    def test_removes_within_cell_intervals(self, x_matrix):
        for pi in skew_merged_upto(6, x_matrix):
            gp, passes = contract_gridded(find_gridding(pi, x_matrix))
            for i in range(1, len(gp.perm)):
                same_cell = gp.cell_of(i) == gp.cell_of(i + 1)
                adjacent = abs(gp.perm.at(i + 1) - gp.perm.at(i)) == 1
                assert not (same_cell and adjacent)

    def test_passes_compose_to_original_length(self, x_matrix):
        # One pass: the groups tile the original positions, one per entry.
        gp0 = find_gridding(P("654321"), x_matrix)
        gp, groups = contract_gridded(gp0)
        assert len(groups) == len(gp.perm) < 6
        assert [a for a, _ in groups] == [1] + [b + 1 for _, b in groups[:-1]]
        assert groups[-1][1] == 6

    def test_inflates_a_run_contracted_to_one_entry(self, one_cell):
        # 12 contracts to 1: one group, one point, but two entries to draw.
        result = geometrize(P("12"), one_cell, 1)
        assert result.contracted == P("1")
        assert result.gridded.perm == P("12")
        assert len(result.realization.points) == 2

    def test_the_fixed_point_never_needs_a_second_pass(
        self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix
    ):
        # Every gridding, not only the first, of every permutation up to 6.
        griddings = 0
        for m in (x_matrix, v_matrix, fan_matrix, non_pmm_matrix):
            for n in range(7):
                for pi in perms_of(n):
                    for gp0 in iter_griddings(pi, m):
                        assert len(reference_contract_gridded(gp0)[1]) <= 1
                        griddings += 1
        assert griddings > 10000


def reference_contract_gridded(gp):
    """Contraction to a fixed point, with divisions found by counting the
    group starts and group minima below each old division."""
    current = gp
    passes = []
    while True:
        pi = current.perm
        n = len(pi)
        groups = []
        i = 1
        while i <= n:
            j = i
            while (
                j < n
                and abs(pi.at(j + 1) - pi.at(j)) == 1
                and current.cell_of(j) == current.cell_of(j + 1)
            ):
                j += 1
            groups.append((i, j))
            i = j + 1
        if len(groups) == n:
            return current, tuple(passes)
        mins = [min(pi.values[a - 1 : b]) for a, b in groups]
        ranks = {m: r + 1 for r, m in enumerate(sorted(mins))}
        col_divs = tuple(1 + sum(1 for a, _ in groups if a < x) for x in current.col_divs)
        row_divs = tuple(1 + sum(1 for m in mins if m < y) for y in current.row_divs)
        new_perm = Permutation(tuple(ranks[m] for m in mins))
        current = GriddedPermutation(new_perm, current.matrix, col_divs, row_divs)
        passes.append(tuple(groups))


def reference_reading_orders(rlz, gp):
    """Per letter, rescan every entry; None when some letter's word
    positions are not monotone."""
    orders = []
    for letter in rlz.alphabet:
        entries = [i for i in range(1, len(gp.perm) + 1) if rlz.letter_of(i) == letter]
        ranks = [rlz.iso[i - 1] for i in entries]
        if len(entries) == 1 or ranks == sorted(ranks):
            h = 1
        elif ranks == sorted(ranks, reverse=True):
            h = -1
        else:
            return None
        orders.append((letter, h, h * gp.matrix.entry(letter[1], letter[2])))
    return tuple(orders)


def reference_hulls(rlz, gp):
    """Per letter, rescan every entry: the closed position and value ranges
    of the entries it encodes."""
    hulls = []
    for letter in rlz.alphabet:
        entries = [i for i in range(1, len(gp.perm) + 1) if rlz.letter_of(i) == letter]
        values = [gp.perm.at(i) for i in entries]
        hulls.append(((min(entries), max(entries)), (min(values), max(values))))
    return hulls


def reference_regrid(gp, rlz):
    """Cuts outside every hull; each new cell is occupied by scanning all
    entries, and takes the sign of the parent cell holding its corner."""
    col_cuts, row_cuts = set(gp.col_divs), set(gp.row_divs)
    for positions, values in reference_hulls(rlz, gp):
        col_cuts.update((positions[0], positions[1] + 1))
        row_cuts.update((values[0], values[1] + 1))
    col_divs, row_divs = tuple(sorted(col_cuts)), tuple(sorted(row_cuts))
    n = len(gp.perm)
    columns = []
    for a in range(len(col_divs) - 1):
        column = []
        for b in range(len(row_divs) - 1):
            occupied = any(
                col_divs[a] <= i < col_divs[a + 1]
                and row_divs[b] <= gp.perm.at(i) < row_divs[b + 1]
                for i in range(1, n + 1)
            )
            parent = (
                bisect.bisect_right(gp.col_divs, col_divs[a]),
                bisect.bisect_right(gp.row_divs, row_divs[b]),
            )
            column.append(gp.matrix.entry(*parent) if occupied else 0)
        columns.append(tuple(column))
    matrix = GridMatrix(len(col_divs) - 1, len(row_divs) - 1, tuple(columns))
    return GriddedPermutation(gp.perm, matrix, col_divs, row_divs)


class TestStagesAgainstReferences:
    def test_first_griddings_up_to_6(self, x_matrix, v_matrix, fan_matrix):
        cases = 0
        for m, r in ((x_matrix, 3), (v_matrix, 4), (fan_matrix, 4)):
            cache = LetteringCache()
            for n in range(7):
                for pi in perms_of(n):
                    gp0 = find_gridding(pi, m)
                    if gp0 is None:
                        continue
                    gp, groups = contract_gridded(gp0)
                    ref_gp, ref_passes = reference_contract_gridded(gp0)
                    assert len(ref_passes) <= 1
                    identity = tuple((i, i) for i in range(1, n + 1))
                    assert (gp, groups) == (ref_gp, ref_passes[0] if ref_passes else identity)
                    lz = cache.find_lettering(inversion_graph(gp.perm), r)
                    if lz is None:
                        continue
                    rlz = reletter(lz, gp)
                    try:
                        got = reading_orders(rlz, gp).orders
                    except PipelineError:
                        got = None
                    assert got == reference_reading_orders(rlz, gp)
                    assert regrid(gp, rlz) == reference_regrid(gp, rlz)
                    cases += 1
        assert cases > 1000


class TestGeometrize:
    def test_3142_example(self, x_matrix):
        result = geometrize(P("3142"), x_matrix, 2)
        t, u, r = 2, 2, 2
        assert result.signed.matrix.cols <= t * (1 + 2 * u * r)
        assert result.signed.matrix.rows <= u * (1 + 2 * t * r)
        assert geom_member(P("3142"), result.signed.matrix)
        assert not geom_member(P("3142"), x_matrix)
        assert result.gridded.perm == P("3142")

    def test_trivial(self, one_cell):
        result = geometrize(P("1"), one_cell, 1)
        assert result.signed.matrix.cols == 1 and result.signed.matrix.rows == 1
        assert result.signed.col_signs == (1,) and result.signed.row_signs == (1,)
        assert result.signed.matrix.entry(1, 1) == 1

    def test_214365_not_griddable_on_x(self, x_matrix):
        # 214365 contains 2143, so it is not skew-merged.
        with pytest.raises(NotGriddableError):
            geometrize(P("214365"), x_matrix, 3)

    def test_214365_on_diagonal_matrix(self):
        # Its inversion graph is 3K2, of lettericity 3, so a class run needs
        # three letters to admit it; the per-permutation construction then
        # contracts the three decreasing pairs and letters the remainder.
        assert letters.lettericity(inversion_graph(P("214365"))) == 3
        result = geometrize(P("214365"), DIAG3, 3)
        assert result.gridded.perm == P("214365")
        assert result.contracted == P("123")
        psi = consistency(local_orders(result.contracted_gridded, result.signed))
        assert psi is not None

    def test_letter_budget_enforced(self, x_matrix):
        # 3142 never contracts and its inversion graph P4 needs two letters.
        with pytest.raises(LetteringNotFoundError):
            geometrize(P("3142"), x_matrix, 1)

    def test_letter_budget_below_one_is_an_input_error(self, x_matrix, monkeypatch):
        def no_search(pi, m):
            raise AssertionError("gridding searched")

        monkeypatch.setattr(pipeline, "find_gridding", no_search)
        for pi, k_max in (("3142", 0), ("214365", 0), ("1", -1)):
            with pytest.raises(ValueError, match="k_max >= 1") as exc:
                geometrize(P(pi), x_matrix, k_max)
            assert not isinstance(exc.value, PipelineError)

    def test_plain_value_error_from_a_core_stage_propagates(self, x_matrix, monkeypatch):
        # A plain ValueError inside the construction is a defect, not a
        # failed read-back.
        def broken_regrid(gp, rlz):
            raise ValueError("boom")

        monkeypatch.setattr(pipeline, "regrid", broken_regrid)
        with pytest.raises(ValueError, match="^boom$") as exc:
            geometrize(P("213"), x_matrix, 3)
        assert not isinstance(exc.value, PipelineError)

    def test_output_consistent_and_rereads(self, x_matrix):
        for pi in skew_merged_upto(5, x_matrix):
            result = geometrize(pi, x_matrix, 3)
            geometry.check_realization(result.realization)
            assert result.gridded.perm == pi
            assert consistency(local_orders(result.gridded, result.signed)) is not None

    def test_singleton_letters_isolated_after_regrid(self, x_matrix):
        for pi in skew_merged_upto(5, x_matrix):
            gp0 = find_gridding(pi, x_matrix)
            gp, _ = contract_gridded(gp0)
            lz = find_lettering(inversion_graph(gp.perm), 3)
            rlz = reletter(lz, gp)
            out = regrid(gp, rlz)
            counts = {}
            for i in range(1, len(gp.perm) + 1):
                counts[rlz.letter_of(i)] = counts.get(rlz.letter_of(i), 0) + 1
            for i in range(1, len(gp.perm) + 1):
                if counts[rlz.letter_of(i)] == 1:
                    k, l = out.cell_of(i)
                    # Column k holds position i alone, and row l one value.
                    assert out.col_divs[k] - out.col_divs[k - 1] == 1
                    assert out.row_divs[l] - out.row_divs[l - 1] == 1


@pytest.fixture(scope="module")
def pipeline_letterings(x_matrix):
    """Contracted gridded permutations with their letterings, lengths <= 7."""
    cache = LetteringCache()
    out = []
    for pi in skew_merged_upto(7, x_matrix):
        gp, _ = contract_gridded(find_gridding(pi, x_matrix))
        lz = cache.find_lettering(inversion_graph(gp.perm), 3)
        if lz is not None:
            out.append((gp, lz))
    return out


class TestPsiProperties:
    def test_same_letter_separators_fall_between(self, pipeline_letterings):
        # For every same-letter pair and every separating entry, the
        # separator's word position lies strictly between the pair's.
        for gp, lz in pipeline_letterings:
            pi = gp.perm
            psi = lz.iso
            for i1 in range(1, len(pi) + 1):
                for i2 in range(i1 + 1, len(pi) + 1):
                    if lz.letter_of(i1) != lz.letter_of(i2):
                        continue
                    for x in separators(pi, i1, i2):
                        lo, hi = sorted((psi[i1 - 1], psi[i2 - 1]))
                        assert lo < psi[x - 1] < hi

    def test_alternating_cell_quadruples_are_psi_monotone(self, pipeline_letterings):
        # Quadruples alternating A B A B between two cells, read by position;
        # the symmetric variant reads the quadruple by value instead.
        for gp, lz in pipeline_letterings:
            rlz = reletter(lz, gp)
            pi = gp.perm
            psi = rlz.iso
            n = len(pi)
            by_value = sorted(range(1, n + 1), key=pi.at)
            for ordering in (range(1, n + 1), by_value):
                for i1, i2, i3, i4 in itertools.combinations(tuple(ordering), 4):
                    if rlz.letter_of(i1) != rlz.letter_of(i3):
                        continue
                    if rlz.letter_of(i2) != rlz.letter_of(i4):
                        continue
                    if gp.cell_of(i1) == gp.cell_of(i2):
                        continue
                    ranks = [psi[i - 1] for i in (i1, i2, i3, i4)]
                    assert ranks == sorted(ranks) or ranks == sorted(ranks, reverse=True)


class TestGeometrizeOtherMatrices:
    def test_sweep_over_differently_shaped_matrices(self, v_matrix, fan_matrix):
        from gridletters.gridding import from_display_rows

        anti_diagonal = from_display_rows([(0, 1), (1, 0)])
        for m in (v_matrix, fan_matrix, anti_diagonal):
            t, u = m.cols, m.rows
            for n in range(7):
                for vals in itertools.permutations(range(1, n + 1)):
                    pi = Permutation(vals)
                    if find_gridding(pi, m) is None:
                        continue
                    result = geometrize(pi, m, 4)
                    geometry.check_realization(result.realization)
                    assert result.gridded.perm == pi
                    assert result.signed.matrix.cols <= t * (1 + 2 * u * 4)
                    assert result.signed.matrix.rows <= u * (1 + 2 * t * 4)


class TestClassExperiment:
    def test_empty_report(self, x_matrix):
        report = class_experiment(0, x_matrix, 1)
        assert report.rows == ()
        assert report.ok

    def test_letter_cap_below_one_or_negative_length_is_an_input_error(
        self, x_matrix, monkeypatch
    ):
        def no_search(pi, m):
            raise AssertionError("gridding searched")

        monkeypatch.setattr(pipeline, "find_gridding", no_search)
        for n_max, r, verify in ((3, 0, False), (3, -1, True), (-1, 3, False), (0, 0, False)):
            with pytest.raises(ValueError, match="need r >= 1 and n_max >= 0") as exc:
                class_experiment(n_max, x_matrix, r, verify_with_oracle=verify)
            assert not isinstance(exc.value, PipelineError)

    def test_small_run_all_verified(self, x_matrix):
        report = class_experiment(5, x_matrix, 2, verify_with_oracle=True)
        assert report.ok
        assert all(row.oracle_ok for row in report.rows)
        bound_cols, bound_rows = report.bound()
        assert (bound_cols, bound_rows) == (18, 18)
        assert all(row.cols <= 18 and row.rows <= 18 for row in report.rows)
        # Deterministic and sorted by length then values.
        keys = [(len(row.perm), row.perm.values) for row in report.rows]
        assert keys == sorted(keys)

    def test_report_formats(self, x_matrix):
        report = class_experiment(3, x_matrix, 2)
        tsv = report.to_tsv()
        header, *lines = tsv.strip().splitlines()
        assert header.split("\t")[0] == "perm"
        assert len(lines) == len(report.rows)
        assert "size bound" in report.summary()

    def test_universal_check_rejects_a_tampered_gridding(self, x_matrix):
        gridded, signed, d, nums = row_drawing(P("25314"), x_matrix, 3)
        # Another gridding of the same permutation by the output matrix,
        # with inconsistent local orders: it has no drawing.
        bad = next(
            gp
            for gp in iter_griddings(gridded.perm, signed.matrix)
            if geometry.realize(gp, signed) is None
        )
        assert _universal_ok(gridded, signed, d, nums, 26, 26)
        assert not _universal_ok(bad, signed, d, nums, 26, 26)

    def test_failed_read_back_is_a_row_not_a_crash(self, x_matrix, monkeypatch, tmp_path, capsys):
        check_drawing = geometry._check_drawing

        def failing_check(gp, d, nums):
            if len(nums) >= 3:
                raise ValueError("forced read-back failure")
            check_drawing(gp, d, nums)

        monkeypatch.setattr(geometry, "_check_drawing", failing_check)
        report = class_experiment(3, x_matrix, 2)
        long_rows = [row for row in report.rows if len(row.perm) >= 3]
        assert long_rows
        assert all(not row.ok and not row.member_ok and row.note for row in long_rows)
        assert all(row.ok for row in report.rows if len(row.perm) < 3)
        matrix_file = tmp_path / "x.mat"
        matrix_file.write_text("-1 1\n1 -1\n")
        argv = ["geometrize", "--perm", "3142", "--matrix", str(matrix_file), "--k-max", "2"]
        assert cli.main(argv) == 1
        assert "geometrize failed" in capsys.readouterr().out

    def test_shared_read_back_failure_names_each_rows_own_perm(self, x_matrix, monkeypatch):
        # 213, 2134, 2314 and 3214 share one contracted gridding, and 3124
        # contracts to 213 on another; only the drawings of 2134 and 3124 fail
        # to read back, and each row reads back its own drawing.
        check_drawing = geometry._check_drawing

        def failing_check(gp, d, nums):
            if gp.perm in (P("2134"), P("3124")):
                raise ValueError("forced read-back failure")
            check_drawing(gp, d, nums)

        monkeypatch.setattr(geometry, "_check_drawing", failing_check)
        report = class_experiment(4, x_matrix, 3)
        failed = {str(row.perm): row.note for row in report.rows if not row.ok}
        assert failed == {
            pi: f"drawing of {pi} does not read back: forced read-back failure"
            for pi in ("2 1 3 4", "3 1 2 4")
        }
        ok = {str(row.perm) for row in report.rows if row.ok}
        assert {"2 1 3", "2 3 1 4", "3 2 1 4"} <= ok

    def test_kept_core_failures_are_raised_afresh(self, x_matrix, monkeypatch):
        # The three rows share one contracted gridding; its core fails, is not
        # kept, and runs again for each row, which gets its own exception.
        def conflicting_orders(rlz, gp):
            raise ReadingOrderConflictError(f"forced conflict in {gp.perm}")

        monkeypatch.setattr(pipeline, "reading_orders", conflicting_orders)
        gps = [find_gridding(P(pi), x_matrix) for pi in ("213", "2134", "2314")]
        assert len({contract_gridded(gp)[0] for gp in gps}) == 1
        cache, cores, raised = LetteringCache(), {}, []
        for gp in gps:
            with pytest.raises(ReadingOrderConflictError, match="forced conflict in 2 1 3$") as exc:
                pipeline._geometrize_gridding(gp, 3, cache, cores)
            raised.append(exc.value)
        assert cores == {}
        assert len({id(exc) for exc in raised}) == 3

    def test_one_core_per_contracted_gridding(self, x_matrix, monkeypatch):
        # Lettering, relettering and psi depend on the contracted gridding
        # alone, so the n = 6 sweep runs each once per distinct one; nothing
        # draws the contracted gridding, and each row reads back twice, on
        # integers: its own drawing and that drawing moved onto the universal
        # figure.  Relettering does not re-check the lettering the query built.
        geometry_names = (
            "consistency", "realize", "_draw", "check_realization", "_check_drawing"
        )
        calls = dict.fromkeys(("find_lettering", "reletter") + geometry_names, 0)

        def counting(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        lettering = LetteringCache.find_lettering
        monkeypatch.setattr(LetteringCache, "find_lettering", counting("find_lettering", lettering))
        monkeypatch.setattr(pipeline, "_reletter", counting("reletter", pipeline._reletter))
        for name in geometry_names:
            monkeypatch.setattr(geometry, name, counting(name, getattr(geometry, name)))
        report = class_experiment(6, x_matrix, 3)
        contracted = {contract_gridded(find_gridding(row.perm, x_matrix))[0] for row in report.rows}
        assert (len(report.rows), len(contracted)) == (457, 128)
        assert calls == {
            "find_lettering": 128,
            "reletter": 128,
            "consistency": 128,
            "realize": 0,
            "_draw": 0,
            "check_realization": 0,
            "_check_drawing": 2 * 457,
        }

    def test_sweep_builds_no_validating_signs_and_checks_no_lettering(
        self, x_matrix, monkeypatch
    ):
        # Every sign matrix of the sweep is a product of sign vectors, and every
        # lettering comes from the sweep's own search; neither is checked again.
        calls = {"verify_letterization": 0, "SignedMatrix": 0}
        verify, validate = letters.verify_letterization, SignedMatrix.__post_init__

        def counting_verify(*args):
            calls["verify_letterization"] += 1
            return verify(*args)

        def counting_validate(self):
            calls["SignedMatrix"] += 1
            validate(self)

        monkeypatch.setattr(letters, "verify_letterization", counting_verify)
        monkeypatch.setattr(SignedMatrix, "__post_init__", counting_validate)
        assert class_experiment(6, x_matrix, 3, verify_with_oracle=True).ok
        assert calls == {"verify_letterization": 0, "SignedMatrix": 0}

    def test_only_extensions_of_members_are_searched_once_each(self, x_matrix, monkeypatch):
        calls = []

        def counting_find_gridding(pi, m):
            calls.append(pi)
            return find_gridding(pi, m)

        monkeypatch.setattr(pipeline, "find_gridding", counting_find_gridding)
        report = class_experiment(5, x_matrix, 3)
        assert report.rows
        assert len(set(calls)) == len(calls) < report.scanned

    def test_searches_and_lettericities_at_n6(self, x_matrix, monkeypatch):
        # The S_6 scan made 873 gridding searches and 457 filter lettericities;
        # extending members searches 659 candidates, and the 457 members with
        # at most 3 letters fall into 79 symmetry classes.  The filter's
        # queries are the size checks that no witness query makes.
        calls = {"find_gridding": 0, "lettericity": 0}
        decide, find = LetteringCache._decide, LetteringCache.find_lettering

        def counting_find_gridding(pi, m):
            calls["find_gridding"] += 1
            return find_gridding(pi, m)

        def counting_decide(self, g, k):
            calls["lettericity"] += 1
            return decide(self, g, k)

        def uncounting_find(self, g, k):
            calls["lettericity"] -= 1  # its own one size check
            return find(self, g, k)

        monkeypatch.setattr(pipeline, "find_gridding", counting_find_gridding)
        monkeypatch.setattr(LetteringCache, "_decide", counting_decide)
        monkeypatch.setattr(LetteringCache, "find_lettering", uncounting_find)
        report = class_experiment(6, x_matrix, 3)
        assert (report.scanned, len(report.rows)) == (873, 457)
        assert calls == {"find_gridding": 659, "lettericity": 79}

    def test_every_board_built_is_searched(self, x_matrix, monkeypatch):
        # A query that only reads its class record builds no board.
        # Every built board stays in `built`, so no two share an id.
        make_board, built, read = letters._board, [], set()

        def recording_board(g):
            built.append(make_board(g))
            return built[-1]

        def reading(kernel):
            def wrapped(board, *args):
                read.add(id(board))
                return kernel(board, *args)

            return wrapped

        for name in ("_has_lettering", "_search_word"):
            monkeypatch.setattr(letters, name, reading(getattr(letters, name)))
        monkeypatch.setattr(letters, "_board", recording_board)
        class_experiment(6, x_matrix, 3, verify_with_oracle=True)
        unread = [board for board in built if id(board) not in read]
        assert built and not unread, f"{len(unread)} of {len(built)} boards unread"

    @pytest.mark.parametrize(
        "matrix, r",
        [
            ("x_matrix", 1),
            ("x_matrix", 2),
            ("x_matrix", 3),
            ("v_matrix", 4),
            ("fan_matrix", 4),
            ("non_pmm_matrix", 3),
        ],
    )
    def test_agrees_with_a_plain_scan_of_every_permutation(self, matrix, r, request):
        # At r = 1 and 2 the X sweep skips 1,784 and 538 members above the
        # cap; they must still be extended, since their extensions are members
        # that the counts include.
        m = request.getfixturevalue(matrix)
        report = class_experiment(7, m, r)
        scanned, ungriddable, members = plain_scan(7, m)
        rows = [(pi, lett) for pi, lett in members if lett <= r]
        assert (report.scanned, report.skipped_ungriddable, report.skipped_lettericity) == (
            scanned,
            ungriddable,
            len(members) - len(rows),
        )
        assert [(row.perm, row.lettericity) for row in report.rows] == rows

    def test_lettericity_is_constant_on_symmetry_classes(self):
        # The eight images under inverse, reverse and complement share one
        # key, the least of them, and one lettericity.
        cache = LetteringCache()
        orbits = {}
        for n in range(8):
            for pi in perms_of(n):
                images = symmetry_images(pi.values)
                assert {pipeline._symmetry_key(v) for v in images} == {min(images)}
                orbits.setdefault(min(images), set()).add(cache.lettericity(inversion_graph(pi)))
        assert len(orbits) == 1 + 1 + 1 + 2 + 7 + 23 + 115 + 694
        assert all(len(letts) == 1 for letts in orbits.values())

    def test_sweeps_agree_with_every_gridding_validated(
        self, x_matrix, v_matrix, fan_matrix, monkeypatch
    ):
        # The n = 6 sweeps again, with the trusted constructor swapped for the
        # validating one: every gridding it built is valid, with its cells.
        runs = ((x_matrix, 3, True), (v_matrix, 4, False), (fan_matrix, 4, False))
        trusted = [repr(class_experiment(6, m, r, oracle)) for m, r, oracle in runs]
        built = []

        def validating(cls, perm, matrix, cells, divs=None):
            divs = divs or divisions_of_cells(cells, matrix.cols, matrix.rows)
            gp = cls(perm, matrix, *divs)
            assert gp.cells == cells, gp
            built.append(gp)
            return gp

        monkeypatch.setattr(GriddedPermutation, "_trusted", classmethod(validating))
        assert [repr(class_experiment(6, m, r, oracle)) for m, r, oracle in runs] == trusted
        assert len(built) > 3 * 457

    def test_sweep_builds_no_fraction(self, x_matrix, monkeypatch):
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        if hasattr(Fraction, "_from_coprime_ints"):  # arithmetic results skip __new__
            coprime = Fraction._from_coprime_ints

            def counting_coprime(cls, *args):
                made.append(args)
                return coprime(*args)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
        # The counter sees the points that geometrize returns.
        assert geometrize(P("25314"), x_matrix, 3).realization.points[0][0] == Fraction(1, 6)
        assert made
        made.clear()
        report = class_experiment(6, x_matrix, 3, verify_with_oracle=True)
        assert len(report.rows) == 457 and report.ok
        assert made == []

    def test_shared_cache_gives_the_same_results(self, x_matrix):
        cache = LetteringCache()
        for pi in skew_merged_upto(5, x_matrix):
            assert geometrize(pi, x_matrix, 3, cache) == geometrize(pi, x_matrix, 3)


def reference_inflate_points(contracted, groups):
    """Inflation with the gap taken over every pair of points, in Fraction
    operations."""
    points = contracted.points
    cells = tuple(contracted.gridded.cell_of(i) for i in range(1, len(points) + 1))
    if all(a == b for a, b in groups):
        return cells, points
    margins = []
    for (x, y), (k, l) in zip(points, cells):
        margins.extend((x - (k - 1), k - x, y - (l - 1), l - y))
    for (x1, y1), (x2, y2) in itertools.combinations(points, 2):
        if x1 != x2:
            margins.append(abs(x1 - x2))
        if y1 != y2:
            margins.append(abs(y1 - y2))
    gap = min(margins)
    new_cells, new_points = [], []
    for (x, y), cell, (a, b) in zip(points, cells, groups):
        length = b - a + 1
        sign = contracted.gridded.matrix.entry(*cell)
        for q in range(1, length + 1):
            dx = Fraction(2 * q - length - 1, 4 * length) * gap
            new_cells.append(cell)
            new_points.append((x + dx, y + dx if sign == 1 else y - dx))
    return tuple(new_cells), tuple(new_points)


def reference_universal_ok(result, t, u):
    """The universal check that draws the embedded gridding afresh."""
    try:
        gp_s, signs_s = geometry.embed_in_universal(result.gridded, result.signed, t, u)
        real = geometry.realize(gp_s, signs_s)
    except ValueError:
        return False
    return real is not None and real.gridded.perm == result.gridded.perm


class TestDrawingTailAgainstReferences:
    def test_geometrize_rows_up_to_6(self, x_matrix, v_matrix, fan_matrix):
        rows = inflated = tampered = 0
        for m, r in ((x_matrix, 3), (v_matrix, 4), (fan_matrix, 4)):
            t, u = m.cols, m.rows
            bound = (t * (1 + 2 * u * r), u * (1 + 2 * t * r))
            cache = LetteringCache()
            for n in range(7):
                for pi in perms_of(n):
                    if find_gridding(pi, m) is None:
                        continue
                    result = geometrize(pi, m, r, cache)
                    sigma_gp, signed = result.contracted_gridded, result.signed
                    sigma_real = geometry.realize(sigma_gp, signed)
                    groups = contract_gridded(result.initial_gridding)[1]
                    psi = consistency(local_orders(sigma_gp, signed))
                    runs = [b - a + 1 for a, b in groups]
                    cells, d, nums = geometry._drawing(sigma_gp.cells, signed, psi, runs)
                    lcm = math.lcm(*runs)
                    assert d == 4 * (len(sigma_gp.perm) + 1) * lcm
                    assert all(type(c) is int for point in nums for c in point)
                    points = tuple((Fraction(x, d), Fraction(y, d)) for x, y in nums)
                    assert (cells, points) == reference_inflate_points(sigma_real, groups), pi
                    assert points == result.realization.points
                    inflated += len(groups) < n
                    assert _universal_ok(result.gridded, signed, d, nums, *bound) is True
                    assert reference_universal_ok(result, *bound) is True
                    rows += 1
                    if m is x_matrix and n <= 4:
                        # Other griddings by the output matrix with no
                        # drawing: both checks reject them.
                        for gp in iter_griddings(pi, result.signed.matrix):
                            if geometry.realize(gp, result.signed) is None:
                                bad = dataclasses.replace(result, gridded=gp)
                                assert not _universal_ok(gp, signed, d, nums, *bound)
                                assert not reference_universal_ok(bad, *bound)
                                tampered += 1
        assert rows == 458 + 64 + 710
        assert inflated > 0 and tampered > 0


class TestUniversalCheckReadsTheDrawing:
    @pytest.fixture
    def row(self, x_matrix):
        return row_drawing(P("13425"), x_matrix, 3)

    def test_rejects_a_point_moved_off_its_diagonal(self, row):
        gridded, signed, d, nums = row
        assert _universal_ok(gridded, signed, d, nums, 26, 26)
        for i, (x, y) in enumerate(nums):
            moved = list(nums)
            moved[i] = (x, y + 1)
            assert not _universal_ok(gridded, signed, d, moved, 26, 26), i

    def test_rejects_two_points_swapped(self, row):
        gridded, signed, d, nums = row
        assert _universal_ok(gridded, signed, d, nums, 26, 26)
        same_cell = 0
        for i, j in itertools.combinations(range(len(nums)), 2):
            moved = list(nums)
            moved[i], moved[j] = moved[j], moved[i]
            assert not _universal_ok(gridded, signed, d, moved, 26, 26), (i, j)
            same_cell += gridded.cell_of(i + 1) == gridded.cell_of(j + 1)
        assert same_cell > 0

    def test_rejects_a_gridding_its_drawing_does_not_read_back_to(self, row, x_matrix):
        # Another gridding by the output matrix that has a drawing of its
        # own: a fresh drawing accepts it, the returned drawing does not.
        gridded, signed, d, nums = row
        other = next(
            gp
            for gp in iter_griddings(gridded.perm, signed.matrix)
            if gp != gridded and geometry.realize(gp, signed) is not None
        )
        swapped = dataclasses.replace(geometrize(P("13425"), x_matrix, 3), gridded=other)
        assert reference_universal_ok(swapped, 26, 26)
        assert not _universal_ok(other, signed, d, nums, 26, 26)


class TestIntegerKernelRejectsTamperedDrawings:
    """Each row's integer drawing, tampered with, fails `_universal_ok`."""

    @pytest.fixture(scope="class")
    def rows(self, x_matrix, v_matrix, fan_matrix):
        out = []
        for m, r in ((x_matrix, 3), (v_matrix, 4), (fan_matrix, 4)):
            bound = (m.cols * (1 + 2 * m.rows * r), m.rows * (1 + 2 * m.cols * r))
            cache = LetteringCache()
            for n in range(1, 6):
                for pi in perms_of(n):
                    if find_gridding(pi, m) is not None:
                        out.append((row_drawing(pi, m, r, cache), bound))
        assert len(out) == 117 + 31 + 146
        return out

    def test_untampered_rows_pass(self, rows):
        for (gridded, signed, d, nums), bound in rows:
            assert _universal_ok(gridded, signed, d, nums, *bound), gridded

    def test_a_numerator_moved_off_its_diagonal(self, rows):
        for (gridded, signed, d, nums), bound in rows:
            for i, (x, y) in enumerate(nums):
                for moved in ((x + 1, y), (x, y - 1)):
                    tampered = nums[:i] + (moved,) + nums[i + 1 :]
                    assert not _universal_ok(gridded, signed, d, tampered, *bound), (gridded, i)

    def test_two_x_numerators_swapped(self, rows):
        for (gridded, signed, d, nums), bound in rows:
            for i, j in itertools.combinations(range(len(nums)), 2):
                tampered = list(nums)
                tampered[i] = (nums[j][0], nums[i][1])
                tampered[j] = (nums[i][0], nums[j][1])
                assert not _universal_ok(gridded, signed, d, tampered, *bound), (gridded, i, j)

    def test_a_point_moved_onto_a_cell_boundary(self, rows):
        for (gridded, signed, d, nums), bound in rows:
            for i, (x, y) in enumerate(nums):
                for moved in ((x - x % d, y), (x, y - y % d + d)):
                    tampered = nums[:i] + (moved,) + nums[i + 1 :]
                    with pytest.raises(ValueError, match="on a cell boundary"):
                        geometry._check_drawing(gridded, d, tampered)
                    assert not _universal_ok(gridded, signed, d, tampered, *bound), (gridded, i)

    def test_the_drawing_paired_with_another_gridding(self, rows):
        others = 0
        for (gridded, signed, d, nums), bound in rows:
            if len(nums) > 4:
                continue
            for gp in iter_griddings(gridded.perm, signed.matrix):
                if gp != gridded:
                    assert not _universal_ok(gp, signed, d, nums, *bound), (gridded, gp)
                    others += 1
        assert others > 0
