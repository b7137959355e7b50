import bisect
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import gridding
from gridletters.geometry import embed_in_universal
from gridletters.gridding import (
    GriddedPermutation,
    GridMatrix,
    SignedMatrix,
    all_griddings,
    double,
    find_gridding,
    format_matrix,
    from_display_rows,
    grid_matrix,
    is_skew_merged,
    iter_griddings,
    matching_pattern_witness,
    parse_matrix,
    pmm_signs,
    universal_matrix,
)
from gridletters.gridding import _col_reach, _row_divisions
from gridletters.oracle import _sign_vectors
from gridletters.perm import Permutation, contains, parse_permutation, position_table

P = parse_permutation


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def brute_griddings(pi, m):
    """Independent enumeration: every division pair, checked pairwise."""
    n = len(pi)

    def divisions(parts):
        if parts == 0:
            return [(1,)] if n == 0 else []
        cuts = itertools.combinations_with_replacement(range(1, n + 2), parts - 1)
        return [(1,) + c + (n + 1,) for c in cuts]

    found = []
    for cdivs in divisions(m.cols):
        for rdivs in divisions(m.rows):
            ok = True
            for i in range(1, n + 1):
                k = max(a + 1 for a in range(m.cols) if cdivs[a] <= i)
                l = max(b + 1 for b in range(m.rows) if rdivs[b] <= pi.at(i))
                if m.entry(k, l) == 0:
                    ok = False
                    break
                for j in range(i + 1, n + 1):
                    k2 = max(a + 1 for a in range(m.cols) if cdivs[a] <= j)
                    l2 = max(b + 1 for b in range(m.rows) if rdivs[b] <= pi.at(j))
                    if (k, l) == (k2, l2):
                        want = 1 if pi.at(i) < pi.at(j) else -1
                        if m.entry(k, l) != want:
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                found.append((cdivs, rdivs))
    return found


class TestMatrix:
    def test_cartesian_indexing(self, x_matrix):
        assert x_matrix.entry(1, 1) == 1
        assert x_matrix.entry(2, 2) == 1
        assert x_matrix.entry(1, 2) == -1
        assert x_matrix.entry(2, 1) == -1

    def test_parse_display_order(self, fan_matrix):
        parsed = parse_matrix("-1 1 1\n0 -1 -1\n")
        assert parsed == fan_matrix
        assert parsed.entry(1, 1) == 0 and parsed.entry(1, 2) == -1

    def test_format_round_trip(self, x_matrix, fan_matrix):
        for m in (x_matrix, fan_matrix, grid_matrix([[0]])):
            assert parse_matrix(format_matrix(m)) == m

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            grid_matrix([[2]])
        with pytest.raises(ValueError):
            parse_matrix("1 x\n")


class TestFindGridding:
    def test_524361_least_gridding_and_alternative_divisions(self, x_matrix):
        pi = P("524361")
        gp = find_gridding(pi, x_matrix)
        assert (gp.col_divs, gp.row_divs) == ((1, 3, 7), (1, 4, 7))
        every = all_griddings(pi, x_matrix)
        assert gp == every[0]
        # The divisions x=(1,4,7), y=(1,5,7) also grid it.
        assert GriddedPermutation(pi, x_matrix, (1, 4, 7), (1, 5, 7)) in every

    def test_21_not_in_single_increasing_cell(self, one_cell):
        assert find_gridding(P("21"), one_cell) is None

    def test_3142_is_x_griddable(self, x_matrix):
        assert find_gridding(P("3142"), x_matrix) is not None

    def test_agrees_with_brute_force(self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix):
        def check(pi, m):
            got = [(g.col_divs, g.row_divs) for g in all_griddings(pi, m)]
            assert got == brute_griddings(pi, m), (pi, m)

        alternating = from_display_rows([(1, -1, 1), (-1, 1, -1), (1, -1, 1)])
        zero_row = from_display_rows([(1, -1), (0, 0), (-1, 1)])
        zero_col = from_display_rows([(-1, 0, 1), (1, 0, -1)])
        cases = [
            (x_matrix, 6),
            (v_matrix, 6),
            (fan_matrix, 5),
            (non_pmm_matrix, 6),
            (double(non_pmm_matrix), 4),
            (alternating, 5),
            (universal_matrix(1, 2), 5),
            (zero_row, 5),
            (zero_col, 5),
            (from_display_rows([]), 3),
        ]
        for m, n_max in cases:
            for n in range(n_max + 1):
                for pi in perms_of(n):
                    check(pi, m)

        @given(st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1))))
        @settings(max_examples=15, deadline=None)
        def sampled(values):
            check(Permutation(tuple(values)), universal_matrix(2, 2))

        sampled()

    def test_empty_permutation(self, x_matrix):
        gp = find_gridding(P(""), x_matrix)
        assert gp.col_divs == (1, 1, 1) and gp.row_divs == (1, 1, 1)


def unpruned_divisions(pi, m):
    """Every column tuple, with no column reach, each fed to the row search."""
    n = len(pi)
    position = position_table(pi)
    if m.cols == 0:
        tuples = [(1,)] if n == 0 else []
    else:
        cuts = itertools.combinations_with_replacement(range(1, n + 2), m.cols - 1)
        tuples = [(1,) + c + (n + 1,) for c in cuts]
    found = []
    for cdivs in tuples:
        column = [0] + [bisect.bisect_right(cdivs, i) for i in position[1:]]
        found.extend((cdivs, rdivs) for rdivs in _row_divisions(m, position, column))
    return found


def random_member(rng, m, n):
    """A random permutation in Grid(m): n points, each on a random nonzero
    cell, monotone in that cell as its entry says."""
    per_cell = {}
    for _ in range(n):
        per_cell.setdefault(rng.choice(m.nonzero_cells()), []).append(None)
    points = []
    for (k, l), entries in per_cell.items():
        xs = sorted(k - 1 + rng.random() for _ in entries)
        ys = sorted((l - 1 + rng.random() for _ in entries), reverse=m.entry(k, l) == -1)
        points.extend(zip(xs, ys))
    points.sort()
    yrank = {y: r for r, y in enumerate(sorted(y for _, y in points), start=1)}
    return Permutation(tuple(yrank[y] for _, y in points))


def fits_column_alone(pi, m, k, a, b):
    """Some row division puts each entry at positions a..b-1 in a nonzero
    cell of column k, increasing or decreasing there as the cell says."""
    n = len(pi)
    for cuts in itertools.combinations_with_replacement(range(1, n + 2), m.rows - 1):
        rdivs = (1,) + cuts + (n + 1,)
        last = {}
        for i in range(a, b):
            v = pi.at(i)
            l = bisect.bisect_right(rdivs, v)
            s = m.entry(k, l)
            if s == 0 or (l in last and (v - last[l]) * s < 0):
                break
            last[l] = v
        else:
            return True
    return False


# The three 3x3 non-members of perfbench's gridding_ladder workload.
ALTERNATING_NON_MEMBERS = (
    (19, 6, 9, 12, 3, 16, 2, 1, 8, 22, 7, 20, 14, 11, 5, 4, 15, 10, 21, 13, 17, 18),
    (21, 18, 7, 12, 20, 1, 2, 16, 8, 5, 15, 22, 19, 4, 11, 24, 23, 3, 9, 6, 14, 13, 10, 17),
    (
        20, 2, 18, 10, 12, 19, 11, 16, 24, 8, 6, 15, 13,
        23, 5, 17, 1, 25, 22, 21, 9, 7, 3, 26, 14, 4,
    ),
)
ALTERNATING = from_display_rows([(1, -1, 1), (-1, 1, -1), (1, -1, 1)])


class TestColumnReach:
    def test_agrees_with_unpruned_column_tuples(self, x_matrix, v_matrix, fan_matrix):
        matrices = [
            x_matrix,
            v_matrix,
            fan_matrix,
            universal_matrix(2, 2),
            ALTERNATING,
            from_display_rows([(1, -1), (0, 0), (-1, 1)]),
            from_display_rows([(-1, 0, 1), (1, 0, -1)]),
            from_display_rows([]),
        ]
        rng = random.Random(27)
        members = griddings = 0
        for m in matrices:
            for n in range(7, 11):
                perms = [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(3)]
                if m.nonzero_cells():
                    perms += [random_member(rng, m, n) for _ in range(3)]
                for pi in perms:
                    got = [(g.col_divs, g.row_divs) for g in all_griddings(pi, m)]
                    assert got == unpruned_divisions(pi, m), (pi, m)
                    members += bool(got)
                    griddings += len(got)
        assert members >= 7 * 4 * 3 and griddings > 1000

    def test_is_the_longest_fit_of_each_column_up_to_6(self, x_matrix, fan_matrix):
        for m in (x_matrix, fan_matrix):
            for n in range(7):
                for pi in perms_of(n):
                    position = position_table(pi)
                    for k in range(1, m.cols + 1):
                        for a in range(1, n + 2):
                            want = max(
                                b for b in range(a, n + 2) if fits_column_alone(pi, m, k, a, b)
                            )
                            assert _col_reach(m, pi, position, k, a) == want, (pi, k, a)

    def test_alternating_non_members_skip_the_row_search(self, monkeypatch):
        calls = []
        row_divisions = gridding._row_divisions

        def counted(*args):
            calls.append(args)
            return row_divisions(*args)

        monkeypatch.setattr(gridding, "_row_divisions", counted)
        for values in ALTERNATING_NON_MEMBERS:
            assert find_gridding(Permutation(values), ALTERNATING) is None
        assert [len(v) for v in ALTERNATING_NON_MEMBERS] == [22, 24, 26] and calls == []
        assert find_gridding(P("3142"), ALTERNATING) is not None and calls


class CountingList(list):
    """A list that counts the entries read through indexing."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


class TestColumnReachSteps:
    def test_identity_column_fill_reads_linearly_many_positions(self, v_matrix):
        # Each new entry refills from its own value up and stops at the first
        # entry that keeps its cell, so a long increasing window costs O(L)
        # reads, not one full refill of L/2 reads on average per entry.
        n = 1000
        pi = Permutation(tuple(range(1, n + 1)))
        for m in (grid_matrix([[1]]), v_matrix):
            position = CountingList(position_table(pi))
            assert _col_reach(m, pi, position, 1, 1) == n + 1
            assert position.reads <= 3 * n, (m, position.reads)


class TestAllGriddings:
    def test_single_point(self, one_cell):
        every = all_griddings(P("1"), one_cell)
        assert [(g.col_divs, g.row_divs) for g in every] == [((1, 2), (1, 2))]

    def test_absent(self, one_cell):
        assert all_griddings(P("21"), one_cell) == ()

    def test_12_in_stacked_increasing_cells(self):
        m = from_display_rows([(1,), (1,)])
        count = len(all_griddings(P("12"), m))
        assert count == len(brute_griddings(P("12"), m))


class TestGriddedPermutation:
    def test_cell_accessors(self, fan_matrix):
        gp = GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))
        assert gp.cell_of(1) == (1, 2)
        assert gp.cell_of(3) == (2, 1)
        assert gp.cell_of(7) == (3, 1)
        assert [i for i, (k, l) in enumerate(gp.cells, start=1) if k == 3] == [5, 6, 7]
        assert [i for i, (k, l) in enumerate(gp.cells, start=1) if l == 1] == [3, 5, 7]

    def test_invalid_cells_rejected(self, one_cell):
        with pytest.raises(ValueError):
            GriddedPermutation(P("21"), one_cell, (1, 3), (1, 3))

    def test_divisions_must_cover(self, one_cell):
        with pytest.raises(ValueError):
            GriddedPermutation(P("1"), one_cell, (1, 1), (1, 2))


class TestTrustedConstruction:
    def test_equals_the_validating_constructor_up_to_6(
        self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix
    ):
        # iter_griddings builds its griddings with the trusted constructor;
        # each equals the validated gridding of its divisions, cells and all,
        # and so does the trusted gridding built from those cells alone.  So
        # does each one's universal embedding, where m has signs.
        count = embedded = 0
        for m in (x_matrix, v_matrix, fan_matrix, non_pmm_matrix):
            signs = pmm_signs(m)
            for n in range(7):
                for pi in perms_of(n):
                    for gp in iter_griddings(pi, m):
                        checked = GriddedPermutation(pi, m, gp.col_divs, gp.row_divs)
                        assert gp == checked and gp.cells == checked.cells, gp
                        from_cells = GriddedPermutation._trusted(pi, m, checked.cells)
                        assert from_cells == checked and from_cells.cells == checked.cells
                        assert repr(gp) == repr(checked) and hash(gp) == hash(checked)
                        count += 1
                        if signs is not None:
                            emb, _ = embed_in_universal(gp, signs, m.cols + 1, m.rows + 1)
                            u = emb.matrix
                            checked = GriddedPermutation(pi, u, emb.col_divs, emb.row_divs)
                            assert emb == checked and emb.cells == checked.cells, gp
                            embedded += 1
        assert count == 2909 + 127 + 7587 + 2909
        assert embedded == 2909 + 127 + 7587


class TestCellTable:
    def test_cells_match_column_and_row_up_to_6(
        self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix
    ):
        count = 0
        for m in (x_matrix, v_matrix, fan_matrix, double(non_pmm_matrix)):
            for n in range(7):
                for pi in perms_of(n):
                    for gp in iter_griddings(pi, m):
                        assert len(gp.cells) == n
                        for i in range(1, n + 1):
                            want = (
                                bisect.bisect_right(gp.col_divs, i),
                                bisect.bisect_right(gp.row_divs, gp.perm.at(i)),
                            )
                            assert gp.cells[i - 1] == want == gp.cell_of(i), (gp, i)
                        count += 1
        assert count == 2909 + 127 + 7587 + 20483

    def test_cells_play_no_part_in_eq_hash_repr(self, fan_matrix):
        gp = GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))
        other = GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))
        object.__setattr__(other, "cells", ())
        assert gp == other and hash(gp) == hash(other) and repr(gp) == repr(other)
        assert repr(gp) == (
            f"GriddedPermutation(perm={gp.perm!r}, matrix={fan_matrix!r}, "
            "col_divs=(1, 3, 5, 8), row_divs=(1, 4, 8))"
        )
        assert gp != GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 3, 8))

    def test_cell_of_keeps_its_range_check(self, fan_matrix):
        gp = GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))
        for i in (0, 8):
            with pytest.raises(ValueError, match="out of range"):
                gp.cell_of(i)


class TestSkewMerged:
    def test_examples(self):
        assert is_skew_merged(P("524361"))
        assert not is_skew_merged(P("2143"))

    def test_matches_x_gridding_up_to_six(self, x_matrix):
        for n in range(7):
            for pi in perms_of(n):
                assert is_skew_merged(pi) == (find_gridding(pi, x_matrix) is not None)


class TestMatchingWitness:
    def test_matching_pattern_marks_induced_matchings(self):
        # Only 2143...(2m)(2m-1) has the matching as its inversion graph, so
        # induced matchings in the graph line up with pattern containment,
        # and dually for the complement patterns.
        from gridletters.graphs import contains_induced, family

        def pattern(m):
            vals = []
            for i in range(1, m + 1):
                vals.extend((2 * i, 2 * i - 1))
            return Permutation(tuple(vals))

        def rpattern(m):
            vals = []
            for i in range(m, 0, -1):
                vals.extend((2 * i - 1, 2 * i))
            return Permutation(tuple(vals))

        from gridletters.perm import inversion_graph

        for n in range(1, 8):
            for pi in perms_of(n):
                g = inversion_graph(pi)
                for m in (1, 2, 3):
                    if 2 * m > n:
                        break
                    assert contains_induced(g, family("mK2", m)) == contains(pi, pattern(m))
                    assert contains_induced(g, family("complement_mK2", m)) == contains(
                        pi, rpattern(m)
                    )

    def test_examples(self):
        assert matching_pattern_witness(P("2143")) == (2, 1)
        assert matching_pattern_witness(P("21")) == (1, 0)
        for n in range(2, 7):
            assert matching_pattern_witness(Permutation(tuple(range(1, n + 1)))) == (0, 1)
        assert matching_pattern_witness(P("1")) == (0, 0)

    def test_against_direct_containment(self):
        def pattern(m):
            vals = []
            for i in range(1, m + 1):
                vals.extend((2 * i, 2 * i - 1))
            return Permutation(tuple(vals))

        def rev_pattern(m):
            vals = []
            for i in range(m, 0, -1):
                vals.extend((2 * i - 1, 2 * i))
            return Permutation(tuple(vals))

        for pi in perms_of(6):
            fwd, rev = matching_pattern_witness(pi)
            assert fwd == max(
                (m for m in range(1, 4) if contains(pi, pattern(m))), default=0
            )
            assert rev == max(
                (m for m in range(1, 4) if contains(pi, rev_pattern(m))), default=0
            )


class TestPmmSigns:
    def test_x_matrix(self, x_matrix):
        signs = pmm_signs(x_matrix)
        assert signs.col_signs == (1, -1) and signs.row_signs == (1, -1)

    def test_non_pmm(self, non_pmm_matrix):
        assert pmm_signs(non_pmm_matrix) is None

    def test_all_zero(self):
        signs = pmm_signs(grid_matrix([[0, 0], [0, 0]]))
        assert signs.col_signs == (1, 1) and signs.row_signs == (1, 1)

    def test_fan_matrix(self, fan_matrix):
        signs = pmm_signs(fan_matrix)
        assert signs.col_signs == (1, -1, -1) and signs.row_signs == (1, -1)

    def test_signed_matrix_validates(self, x_matrix):
        with pytest.raises(ValueError):
            SignedMatrix(x_matrix, (1, 1), (1, 1))

    def test_sign_vector_enumeration(self, x_matrix):
        vectors = [SignedMatrix(x_matrix, cs, rs) for cs, rs in _sign_vectors(x_matrix)]
        assert len(vectors) == 2
        assert {v.col_signs for v in vectors} == {(1, -1), (-1, 1)}

    def test_unvalidated_product_matches_the_validating_constructor(self):
        for t, u in itertools.product(range(4), repeat=2):
            for cs in itertools.product((1, -1), repeat=t):
                for rs in itertools.product((1, -1), repeat=u):
                    entries = tuple(tuple(c * r for r in rs) for c in cs)
                    assert SignedMatrix._product(cs, rs) == SignedMatrix(
                        GridMatrix(t, u, entries), cs, rs
                    )


class TestDouble:
    def test_displayed_example(self, non_pmm_matrix):
        assert double(non_pmm_matrix) == parse_matrix(
            "0 1 -1 0\n1 0 0 -1\n0 1 0 1\n1 0 1 0\n"
        )

    def test_zero_block(self):
        assert double(grid_matrix([[0]])) == grid_matrix([[0, 0], [0, 0]])

    def test_always_pmm_with_alternating_signs(self, x_matrix, non_pmm_matrix, fan_matrix):
        for m in (x_matrix, non_pmm_matrix, fan_matrix):
            d = double(m)
            assert pmm_signs(d) is not None
            cs = tuple((-1) ** k for k in range(1, d.cols + 1))
            rs = tuple((-1) ** l for l in range(1, d.rows + 1))
            SignedMatrix(d, cs, rs)  # validates the product rule

    def test_double_double_dimensions(self, x_matrix):
        dd = double(double(x_matrix))
        assert (dd.cols, dd.rows) == (8, 8)


class TestUniversalMatrix:
    def test_smallest(self):
        s = universal_matrix(1, 1)
        assert s.entry(1, 1) == -1
        assert s.entry(2, 1) == 1
        assert s.entry(1, 2) == 1
        assert s.entry(2, 2) == -1

    @given(st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=16, deadline=None)
    def test_parity_and_signs(self, t, u):
        s = universal_matrix(t, u)
        for k in range(1, 2 * t + 1):
            for l in range(1, 2 * u + 1):
                assert (s.entry(k, l) == 1) == ((k + l) % 2 == 1)
        assert pmm_signs(s) is not None

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            universal_matrix(0, 1)

    def test_matches_the_formula(self):
        for t, u in itertools.product(range(1, 5), repeat=2):
            entries = tuple(
                tuple((-1) ** (k + l - 1) for l in range(1, 2 * u + 1))
                for k in range(1, 2 * t + 1)
            )
            assert universal_matrix(t, u) == GridMatrix(2 * t, 2 * u, entries)
            signed = gridding._universal_signs(t, u)
            SignedMatrix(signed.matrix, signed.col_signs, signed.row_signs)  # validates
