import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import geometry
from gridletters.geometry import (
    CellWord,
    LocalOrders,
    Realization,
    _as_points,
    _extension,
    _successors,
    _word_points,
    check_realization,
    consistency,
    decode_word,
    derive_decoder,
    embed_in_universal,
    encode_gridded,
    geom_member,
    geom_witness,
    local_orders,
    read_points,
    realize,
    standard_figure,
    word_index_map,
)
from gridletters.gridding import (
    GriddedPermutation,
    SignedMatrix,
    _divisions,
    all_griddings,
    divisions_of_cells,
    double,
    find_gridding,
    from_display_rows,
    grid_matrix,
    iter_griddings,
    pmm_signs,
    universal_matrix,
)
from gridletters.letters import LetteringCache
from gridletters.oracle import _sign_vectors
from gridletters.perm import (
    Permutation,
    contains,
    inversion_graph,
    parse_permutation,
    position_table,
)
from gridletters.pipeline import geometrize
from test_gridding import ALTERNATING, random_member

P = parse_permutation

# Encoding of the worked 6437251 gridding along the distance order
# 4 1 7 6 5 2 3: word position p holds the cell of entry psi_inverse(p).
FIG_WORD = ((2, 2), (1, 2), (3, 1), (3, 2), (3, 1), (1, 2), (2, 1))


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def sign_vectors(m):
    # Every sign vector of m, from the oracle's independent enumeration.
    return [SignedMatrix(m, cs, rs) for cs, rs in _sign_vectors(m)]


@pytest.fixture()
def fan_gridding(fan_matrix):
    return GriddedPermutation(P("6437251"), fan_matrix, (1, 3, 5, 8), (1, 4, 8))


class TestStandardFigure:
    def test_segment_endpoints(self, fan_matrix):
        fig = standard_figure(fan_matrix)
        segments = dict((cell, (a, b)) for cell, a, b in fig.segments)
        assert len(segments) == 5
        assert segments[(2, 2)] == ((1, 1), (2, 2))
        assert segments[(1, 2)] == ((0, 2), (1, 1))


class TestLocalOrders:
    def test_fan_gridding_chains(self, fan_gridding, fan_matrix):
        lo = local_orders(fan_gridding, pmm_signs(fan_matrix))
        assert lo.column_chains == ((1, 2), (4, 3), (7, 6, 5))
        assert lo.row_chains == ((7, 5, 3), (4, 1, 6, 2))

    def test_identity_single_cell(self, one_cell):
        gp = GriddedPermutation(P("123"), one_cell, (1, 4), (1, 4))
        lo = local_orders(gp, pmm_signs(one_cell))
        assert lo.column_chains == ((1, 2, 3),)
        assert lo.row_chains == ((1, 2, 3),)

    def test_empty_permutation(self, one_cell):
        gp = GriddedPermutation(P(""), one_cell, (1, 1), (1, 1))
        lo = local_orders(gp, pmm_signs(one_cell))
        assert lo.column_chains == ((),) and lo.row_chains == ((),)

    def test_matrix_mismatch(self, one_cell, x_matrix):
        gp = GriddedPermutation(P("1"), one_cell, (1, 2), (1, 2))
        with pytest.raises(ValueError):
            local_orders(gp, pmm_signs(x_matrix))


class TestConsistency:
    def test_fan_gridding_extension_respects_chains(self, fan_gridding, fan_matrix):
        lo = local_orders(fan_gridding, pmm_signs(fan_matrix))
        psi = consistency(lo)
        assert psi is not None
        for chain in lo.chains():
            for a, b in zip(chain, chain[1:]):
                assert psi[a - 1] < psi[b - 1]
        # The distance order 4 1 7 6 5 2 3 used in the worked example is one
        # valid extension; ours may differ but must be a bijection.
        assert sorted(psi) == list(range(1, 8))

    def test_empty(self):
        from gridletters.geometry import LocalOrders

        assert consistency(LocalOrders(0, (), ())) == ()

    def test_3142_inconsistent_everywhere(self, x_matrix):
        pi = P("3142")
        sign_choices = sign_vectors(x_matrix)
        assert len(sign_choices) == 2
        griddings = all_griddings(pi, x_matrix)
        assert griddings
        for gp in griddings:
            for signs in sign_choices:
                assert consistency(local_orders(gp, signs)) is None


class TestRealize:
    def test_fan_gridding_reads_back(self, fan_gridding, fan_matrix):
        r = realize(fan_gridding, pmm_signs(fan_matrix))
        assert r is not None
        assert r.gridded == fan_gridding
        check_realization(r)

    def test_single_entry_at_half(self, one_cell):
        gp = GriddedPermutation(P("1"), one_cell, (1, 2), (1, 2))
        r = realize(gp, pmm_signs(one_cell))
        assert r.points == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_inconsistent_gives_none(self, x_matrix):
        gp = all_griddings(P("3142"), x_matrix)[0]
        assert realize(gp, pmm_signs(x_matrix)) is None

    def test_realize_iff_consistent_small(self, x_matrix, v_matrix):
        for m in (x_matrix, v_matrix):
            signs = pmm_signs(m)
            for vals in itertools.permutations(range(1, 5)):
                for gp in all_griddings(Permutation(vals), m):
                    psi = consistency(local_orders(gp, signs))
                    r = realize(gp, signs)
                    assert (psi is None) == (r is None)
                    if r is not None:
                        assert r.gridded == gp


class TestReadPoints:
    def test_rejects_off_figure(self, one_cell):
        with pytest.raises(ValueError):
            read_points(one_cell, [(Fraction(1, 2), Fraction(1, 3))])

    def test_rejects_boundary_and_nongeneric(self, one_cell, v_matrix):
        with pytest.raises(ValueError):
            read_points(one_cell, [(Fraction(1), Fraction(1))])
        with pytest.raises(ValueError):
            # Equal x offsets in two cells of one column are not generic.
            read_points(
                v_matrix,
                [
                    (Fraction(1, 2), Fraction(1, 2)),
                    (Fraction(1, 2), Fraction(3, 2)),
                ],
            )

    def test_rejects_empty_cell_point(self):
        m = grid_matrix([[1, 0]])
        with pytest.raises(ValueError):
            read_points(m, [(Fraction(1, 2), Fraction(3, 2))])

    def test_rejects_points_left_of_the_grid(self, one_cell):
        # Truncation toward zero would put x, y in (-1, 0) into cell (1, 1),
        # whose diagonal this point lies on when extended.
        with pytest.raises(ValueError, match="outside the grid"):
            read_points(one_cell, [(Fraction(-1, 2), Fraction(-1, 2))])
        with pytest.raises(ValueError, match="outside the grid"):
            read_points(grid_matrix([[-1]]), [(Fraction(-1, 2), Fraction(1, 2))])


class TestCheckRealization:
    def test_rejects_another_gridding_of_the_same_permutation(self, fan_gridding, fan_matrix):
        signs = pmm_signs(fan_matrix)
        r = realize(fan_gridding, signs)
        check_realization(r)
        others = [gp for gp in all_griddings(fan_gridding.perm, fan_matrix) if gp != fan_gridding]
        assert len(others) == 16
        for other in others:
            with pytest.raises(ValueError, match="does not read back to its gridding"):
                check_realization(Realization(other, signs, r.points))

    def test_rejects_a_gridding_of_another_permutation(self, fan_gridding, fan_matrix):
        signs = pmm_signs(fan_matrix)
        r = realize(fan_gridding, signs)
        other = find_gridding(P("6437152"), fan_matrix)
        assert other is not None and other.matrix == fan_matrix
        with pytest.raises(ValueError, match="does not read back to its gridding"):
            check_realization(Realization(other, signs, r.points))


class TestDecodeWord:
    def test_single_increasing_cell(self, one_cell):
        signs = pmm_signs(one_cell)
        gp = decode_word(CellWord(one_cell, ((1, 1),) * 3), signs)
        assert gp.perm == P("123")
        assert gp.col_divs == (1, 4)

    def test_single_decreasing_cell(self):
        m = grid_matrix([[-1]])
        gp = decode_word(CellWord(m, ((1, 1),) * 3), pmm_signs(m))
        assert gp.perm == P("321")

    def test_fig_word_decodes_to_6437251(self, fan_matrix, fan_gridding):
        signs = pmm_signs(fan_matrix)
        gp = decode_word(CellWord(fan_matrix, FIG_WORD), signs)
        assert gp == fan_gridding
        assert word_index_map(CellWord(fan_matrix, FIG_WORD), signs) == (4, 1, 7, 6, 5, 2, 3)

    def test_distance_invariance(self, fan_matrix):
        # Re-placing the same word with a different increasing offset
        # sequence cannot change the gridded permutation.
        from gridletters.geometry import _point_on_cell

        signs = pmm_signs(fan_matrix)
        w = CellWord(fan_matrix, FIG_WORD)
        offsets = [Fraction(1, 100), Fraction(5, 99), Fraction(31, 50),
                   Fraction(16, 25), Fraction(13, 20), Fraction(33, 50), Fraction(99, 100)]
        pts = [
            _point_on_cell(cell, fan_matrix.entry(*cell), signs, off, 1)
            for cell, off in zip(FIG_WORD, offsets)
        ]
        assert read_points(fan_matrix, pts) == decode_word(w, signs)

    def test_rejects_zero_cell_letter(self, fan_matrix):
        with pytest.raises(ValueError):
            CellWord(fan_matrix, ((1, 1),))

    def test_decoding_builds_no_fraction(self, fan_matrix, fan_gridding, monkeypatch):
        # The word's integer drawing is read back as it is, with no Fractions.
        made = []
        new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        assert decode_word(CellWord(fan_matrix, FIG_WORD), pmm_signs(fan_matrix)) == fan_gridding
        assert made == []

    def test_signs_over_another_matrix_are_rejected(self, fan_matrix, fan_gridding):
        # The same shape, other signs: nothing fails unless the matrices are compared.
        other = pmm_signs(grid_matrix([[1, 1], [1, 1], [1, 1]]))
        w = CellWord(fan_matrix, FIG_WORD)
        for call in (decode_word, word_index_map):
            with pytest.raises(ValueError, match="different matrices"):
                call(w, other)
        with pytest.raises(ValueError, match="different matrices"):
            embed_in_universal(fan_gridding, other)


class TestEncodeGridded:
    def test_round_trip_on_fan_gridding(self, fan_gridding, fan_matrix):
        signs = pmm_signs(fan_matrix)
        w = encode_gridded(fan_gridding, signs)
        assert decode_word(w, signs) == fan_gridding

    def test_single_cell_identity(self, one_cell):
        signs = pmm_signs(one_cell)
        gp = GriddedPermutation(P("123"), one_cell, (1, 4), (1, 4))
        assert encode_gridded(gp, signs).letters == ((1, 1),) * 3

    def test_inconsistent_raises(self, x_matrix):
        gp = all_griddings(P("3142"), x_matrix)[0]
        with pytest.raises(ValueError):
            encode_gridded(gp, pmm_signs(x_matrix))

    def test_decode_encode_decode_identity(self, x_matrix, v_matrix):
        for m, length in ((x_matrix, 4), (v_matrix, 5)):
            signs = pmm_signs(m)
            cells = m.nonzero_cells()
            for n in range(1, length + 1):
                for letters in itertools.product(cells, repeat=n):
                    gp = decode_word(CellWord(m, letters), signs)
                    again = encode_gridded(gp, signs)
                    assert decode_word(again, signs) == gp


class TestGeomMember:
    def test_gap_between_grid_and_geom(self, x_matrix):
        assert not geom_member(P("3142"), x_matrix)
        assert geom_member(P("524361"), x_matrix)

    def test_fan_permutation(self, fan_matrix):
        assert geom_member(P("6437251"), fan_matrix)

    def test_non_pmm_matrices_are_doubled(self, non_pmm_matrix):
        assert geom_member(P("1"), non_pmm_matrix)
        assert geom_member(P("12"), non_pmm_matrix)

    def test_empty_permutation(self, x_matrix):
        assert geom_member(P(""), x_matrix)

    def test_members_are_the_decoded_cell_words(
        self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix
    ):
        # Geom(M) of length n is exactly the set of permutations drawn by
        # the cell words of length n (Albert, Atkinson, Bouvel, Ruskuc and
        # Vatter 2013); decoding words runs no gridding search.
        for m, n_max in ((x_matrix, 6), (v_matrix, 6), (fan_matrix, 6), (non_pmm_matrix, 4)):
            work = double(m) if pmm_signs(m) is None else m
            signs = pmm_signs(work)
            for n in range(n_max + 1):
                decoded = {
                    decode_word(CellWord(work, letters), signs).perm
                    for letters in itertools.product(work.nonzero_cells(), repeat=n)
                }
                accepted = {pi for pi in perms_of(n) if geom_member(pi, m)}
                assert accepted == decoded, (m, n)

    def test_witness_realizes_first_consistent_gridding(self, x_matrix, non_pmm_matrix):
        for m in (x_matrix, non_pmm_matrix):
            work = double(m) if pmm_signs(m) is None else m
            for n in range(6):
                for pi in perms_of(n):
                    first = next(
                        (
                            (gp, signs)
                            for gp in all_griddings(pi, work)
                            for signs in sign_vectors(work)
                            if consistency(local_orders(gp, signs)) is not None
                        ),
                        None,
                    )
                    r = geom_witness(pi, m)
                    if first is None:
                        assert r is None, pi
                    else:
                        assert (r.gridded, r.signs) == first, pi
                        check_realization(r)

    def test_witness_search_validates_only_the_witness(
        self, monkeypatch, x_matrix, fan_matrix, non_pmm_matrix
    ):
        # The search tests division pairs and builds a gridding only for the
        # pair it returns.  The non-member has griddings but no consistent
        # one, so the search walks every pair without building any.
        u = universal_matrix(2, 2)
        non_member = Permutation((8, 1, 10, 4, 2, 9, 11, 5, 7, 12, 3, 6))
        assert len(all_griddings(non_member, u)) == 1604
        queries = [
            (P("524361"), x_matrix, True),
            (P("6437251"), fan_matrix, True),
            (P("2143"), non_pmm_matrix, True),
            (Permutation((4, 10, 11, 5, 9, 12, 7, 6, 1, 3, 2, 8)), u, True),
            (P("3142"), x_matrix, False),
            (non_member, u, False),
        ]
        built = []
        validate = GriddedPermutation.__post_init__

        def counting(gp):
            built.append(gp)
            validate(gp)

        monkeypatch.setattr(GriddedPermutation, "__post_init__", counting)
        for pi, m, member in queries:
            built.clear()
            r = geom_witness(pi, m)
            assert (r is not None) == member, pi
            assert built == ([r.gridded] if member else []), pi

    def test_consistency_does_not_depend_on_the_sign_vector(
        self, x_matrix, v_matrix, fan_matrix, non_pmm_matrix
    ):
        # Why geom_witness draws every gridding with pmm_signs alone.  The
        # last matrix has two components, so it has four sign vectors.
        x_plus_cell = from_display_rows([(0, 0, 1), (-1, 1, 0), (1, -1, 0)])
        for m in (x_matrix, v_matrix, fan_matrix, double(non_pmm_matrix), x_plus_cell):
            sign_choices = sign_vectors(m)
            assert len(sign_choices) >= 2
            for n in range(6):
                for pi in perms_of(n):
                    for gp in all_griddings(pi, m):
                        verdicts = {
                            consistency(local_orders(gp, signs)) is None
                            for signs in sign_choices
                        }
                        assert len(verdicts) == 1, (pi, gp)

    def test_order_preservation_of_decoding(self, v_matrix, x_matrix):
        # Subwords decode to contained permutations.
        for m, length in ((x_matrix, 4), (v_matrix, 5)):
            signs = pmm_signs(m)
            cells = m.nonzero_cells()
            for letters in itertools.product(cells, repeat=length):
                w_perm = decode_word(CellWord(m, letters), signs).perm
                for r in range(length + 1):
                    for positions in itertools.combinations(range(length), r):
                        sub = tuple(letters[p] for p in positions)
                        u_perm = decode_word(CellWord(m, sub), signs).perm
                        assert contains(w_perm, u_perm)


# The four geom_member queries of perfbench's gridding_ladder workload, over
# universal_matrix(2, 2); the third has 1,604 division pairs, none consistent.
LADDER_GEOM_QUERIES = (
    ((4, 10, 11, 5, 9, 12, 7, 6, 1, 3, 2, 8), True),
    ((8, 12, 9, 6, 4, 11, 3, 13, 5, 2, 10, 1, 7), True),
    ((8, 1, 10, 4, 2, 9, 11, 5, 7, 12, 3, 6), False),
    ((10, 1, 3, 13, 2, 5, 12, 6, 4, 8, 7, 9, 11), False),
)


def first_consistent_drawing(pi, m):
    """The reference search: every division pair in order, each built into a
    gridding and tested by `consistency`, none skipped."""
    signs = pmm_signs(m) or pmm_signs(double(m))
    for cdivs, rows in _divisions(pi, signs.matrix):
        for rdivs in rows:
            gp = GriddedPermutation(pi, signs.matrix, cdivs, rdivs)
            if consistency(local_orders(gp, signs)) is not None:
                return realize(gp, signs)
    return None


class TestCycleRefutation:
    def test_witness_is_the_first_consistent_pair(self, x_matrix, fan_matrix):
        u = universal_matrix(2, 2)
        queries = [(Permutation(values), u, member) for values, member in LADDER_GEOM_QUERIES]
        rng = random.Random(36)
        for m in (u, x_matrix, fan_matrix, ALTERNATING):
            signs, cells = pmm_signs(m), m.nonzero_cells()
            for n in range(8, 14):
                word = CellWord(m, tuple(rng.choice(cells) for _ in range(n)))
                queries.append((decode_word(word, signs).perm, m, True))
                queries += [(random_member(rng, m, n), m, None) for _ in range(6)]
        verdicts = []
        for pi, m, member in queries:
            want, got = first_consistent_drawing(pi, m), geom_witness(pi, m)
            verdicts.append(got is not None)
            assert member is None or verdicts[-1] == member, pi
            if want is None:
                assert got is None, (pi, m)
            else:
                # Gridded permutations compare by their divisions.
                assert (got.gridded, got.points) == (want.gridded, want.points), (pi, m)
        assert sum(verdicts) >= 40 and verdicts.count(False) >= 20

    @given(st.integers(0, 2**32), st.integers(4, 11), st.sampled_from(range(3)))
    @settings(max_examples=40, deadline=None)
    def test_every_cycle_found_is_a_cycle_of_the_union(self, seed, n, which):
        m = (universal_matrix(2, 2), from_display_rows([(-1, 1), (1, -1)]), ALTERNATING)[which]
        signs = pmm_signs(m)
        pi = random_member(random.Random(seed), m, n)
        for gp in itertools.islice(iter_griddings(pi, m), 200):
            lo = local_orders(gp, signs)
            cols, rows = _successors(n, lo.column_chains), _successors(n, lo.row_chains)
            psi, cycle = _extension(n, cols, rows)
            assert psi == consistency(lo)
            if psi is not None:
                assert cycle is None
                continue
            edges = [
                {pair for chain in chains for pair in itertools.pairwise(chain)}
                for chains in (lo.column_chains, lo.row_chains)
            ]
            assert cycle and all((a, b) in edges[axis] for axis, a, b in cycle), (pi, gp)
            heads = [a for _, a, _ in cycle]
            assert len(set(heads)) == len(cycle)
            assert [b for _, _, b in cycle] == heads[-1:] + heads[:-1], (pi, gp, cycle)

    def test_kernel_runs_on_the_ladder_non_member(self, monkeypatch):
        # 353 of its 1,604 pairs reach the kernel; every other pair still
        # holds the last cycle found.
        runs = []
        kernel = geometry._extension

        def counted(*args):
            runs.append(args)
            return kernel(*args)

        monkeypatch.setattr(geometry, "_extension", counted)
        pi = Permutation(LADDER_GEOM_QUERIES[2][0])
        assert geom_witness(pi, universal_matrix(2, 2)) is None
        assert len(runs) == 353


class TestDoubleDouble:
    def test_geom_membership_stable_under_repeated_doubling(self, x_matrix):
        from gridletters.gridding import double

        dd = double(double(x_matrix))
        assert (dd.cols, dd.rows) == (8, 8)
        for n in range(5):
            for vals in itertools.permutations(range(1, n + 1)):
                pi = Permutation(vals)
                assert geom_member(pi, x_matrix) == geom_member(pi, dd)


class TestDeriveDecoder:
    def test_single_cells(self, one_cell):
        assert derive_decoder(pmm_signs(one_cell)) == frozenset()
        m = grid_matrix([[-1]])
        assert derive_decoder(pmm_signs(m)) == frozenset({(((1, 1)), ((1, 1)))})

    def test_x_matrix_decoder(self, x_matrix):
        d = derive_decoder(pmm_signs(x_matrix))
        a11, a21, a12, a22 = (1, 1), (2, 1), (1, 2), (2, 2)
        assert (a12, a12) in d and (a21, a21) in d  # decreasing cells
        assert (a12, a21) in d and (a21, a12) in d  # independent, inverting
        assert (a11, a22) not in d and (a22, a11) not in d
        assert (a12, a11) in d and (a11, a12) not in d  # shared column, c=+1
        assert (a21, a22) in d and (a22, a21) not in d  # shared column, c=-1
        assert (a21, a11) in d and (a11, a21) not in d  # shared row, r=+1
        assert (a12, a22) in d and (a22, a12) not in d  # shared row, r=-1
        assert len(d) == 8

    def test_letter_graph_matches_inversion_graph(self, v_matrix):
        signs = pmm_signs(v_matrix)
        d = derive_decoder(signs)
        cells = v_matrix.nonzero_cells()
        for n in range(1, 6):
            for letters in itertools.product(cells, repeat=n):
                w = CellWord(v_matrix, letters)
                idx = word_index_map(w, signs)
                g = inversion_graph(decode_word(w, signs).perm)
                for p in range(1, n + 1):
                    for q in range(p + 1, n + 1):
                        assert g.has_edge(idx[p - 1], idx[q - 1]) == (
                            (letters[p - 1], letters[q - 1]) in d
                        )


class TestEmbedInUniversal:
    def test_preserves_consistency_and_permutation(self, x_matrix):
        signs = pmm_signs(x_matrix)
        for gp in all_griddings(P("524361"), x_matrix):
            psi = consistency(local_orders(gp, signs))
            if psi is None:
                continue
            gp_s, signs_s = embed_in_universal(gp, signs)
            assert gp_s.matrix.cols == 4 and gp_s.matrix.rows == 4
            r = realize(gp_s, signs_s)
            assert r is not None and r.gridded.perm == gp.perm

    def test_enlarged_target_leaves_trailing_blocks_empty(self, x_matrix):
        signs = pmm_signs(x_matrix)
        gp = next(
            g
            for g in all_griddings(P("524361"), x_matrix)
            if consistency(local_orders(g, signs)) is not None
        )
        gp_s, signs_s = embed_in_universal(gp, signs, 5, 4)
        assert gp_s.matrix.cols == 10 and gp_s.matrix.rows == 8
        r = realize(gp_s, signs_s)
        assert r is not None and r.gridded.perm == gp.perm
        with pytest.raises(ValueError):
            embed_in_universal(gp, signs, 1, 1)


def fraction_read_points(m, points):
    # Reference read-back in Fraction arithmetic, test by test.
    n = len(points)
    cells = []
    for x, y in points:
        k = math.floor(x) + 1
        l = math.floor(y) + 1
        if x == k - 1 or y == l - 1:
            raise ValueError(f"point ({x}, {y}) on a cell boundary")
        if not (1 <= k <= m.cols and 1 <= l <= m.rows):
            raise ValueError(f"point ({x}, {y}) outside the grid")
        e = m.entry(k, l)
        tx = x - (k - 1)
        if e == 1 and y - (l - 1) != tx:
            raise ValueError(f"point ({x}, {y}) off the increasing diagonal")
        if e == -1 and l - y != tx:
            raise ValueError(f"point ({x}, {y}) off the decreasing diagonal")
        if e == 0:
            raise ValueError(f"point ({x}, {y}) in an empty cell")
        cells.append((k, l))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if len(set(xs)) != n or len(set(ys)) != n:
        raise ValueError("point set is not generic")
    by_x = sorted(range(n), key=lambda idx: xs[idx])
    yrank = {y: r + 1 for r, y in enumerate(sorted(ys))}
    perm = Permutation(tuple(yrank[ys[idx]] for idx in by_x))
    return GriddedPermutation(perm, m, *divisions_of_cells(cells, m.cols, m.rows))


def read_outcome(read, m, points):
    try:
        return read(m, points)
    except ValueError as exc:
        return str(exc)


def perturbations(m, points):
    # Each point moved onto a boundary, out of the grid, off its diagonal,
    # into every empty cell and onto its neighbour's x or y, or doubled onto
    # another diagonal of its column; then all points on integers.
    zero_cells = [
        (k, l)
        for k in range(1, m.cols + 1)
        for l in range(1, m.rows + 1)
        if m.entry(k, l) == 0
    ]
    for i, (x, y) in enumerate(points):
        fx, fy = x - math.floor(x), y - math.floor(y)
        moved = [
            (Fraction(math.floor(x)), y),
            (x, Fraction(math.floor(y) + 1)),
            (x + m.cols, y),
            (x, y - m.rows),
            (x, y + Fraction(1, 3 * len(points) + 3)),
            (x - Fraction(1, 5 * len(points) + 5), y),
            (points[i - 1][0], y),
            (x, points[i - 1][1]),
        ]
        moved += [(k - 1 + fx, l - 1 + fy) for k, l in zero_cells]
        for p in moved:
            yield points[:i] + (p,) + points[i + 1 :]
        # A second point on another diagonal of the same column, at equal x.
        k = math.floor(x) + 1
        for l in range(1, m.rows + 1):
            if l - 1 != math.floor(y) and m.entry(k, l) != 0:
                yield points + ((x, l - 1 + (fx if m.entry(k, l) == 1 else 1 - fx)),)
    yield tuple((math.floor(x), math.ceil(y)) for x, y in points)


def griddings_up_to(n_max, m):
    for n in range(n_max + 1):
        for pi in perms_of(n):
            yield from iter_griddings(pi, m)


class TestReadPointsAgainstFractions:
    def check(self, m, points):
        got = read_outcome(read_points, m, points)
        assert got == read_outcome(fraction_read_points, m, points), points
        return got

    def test_realizations_up_to_6(self, x_matrix, v_matrix, fan_matrix):
        count = 0
        kinds = set()
        for m in (x_matrix, v_matrix, fan_matrix):
            signs = pmm_signs(m)
            for gp in griddings_up_to(6, m):
                r = realize(gp, signs)
                if r is None:
                    continue
                assert self.check(m, r.points) == gp
                count += 1
                if len(gp.perm) <= 4:
                    for moved in perturbations(m, r.points):
                        got = self.check(m, moved)
                        if isinstance(got, str):
                            kinds.add(got.split(") ")[-1])
        assert count == 2703 + 127 + 7279
        assert kinds == {
            "on a cell boundary",
            "outside the grid",
            "off the increasing diagonal",
            "off the decreasing diagonal",
            "in an empty cell",
            "point set is not generic",
        }

    def test_inflated_drawings_mix_denominators(self, x_matrix):
        m = x_matrix
        cache = LetteringCache()
        mixed = 0
        for n in range(7):
            for pi in perms_of(n):
                if find_gridding(pi, m) is None:
                    continue
                r = geometrize(pi, m, 3, cache).realization
                assert self.check(r.gridded.matrix, r.points) == r.gridded
                mixed += len({c.denominator for p in r.points for c in p}) > 1
                if n <= 4:
                    for moved in perturbations(r.gridded.matrix, r.points):
                        self.check(r.gridded.matrix, moved)
        assert mixed > 0

    def test_integer_and_empty_point_sets(self, one_cell, v_matrix):
        empty = GriddedPermutation(Permutation(()), one_cell, (1, 1), (1, 1))
        assert self.check(one_cell, ()) == empty
        half = Fraction(1, 2)
        for m in (one_cell, v_matrix):
            for points in ([(1, 1)], [(0, 0)], [(2, 1)], [(1, 2), (half, half)]):
                assert "on a cell boundary" in self.check(m, points)

    def test_check_realization_rejects_points_out_of_position_order(self, one_cell):
        gp = GriddedPermutation(P("12"), one_cell, (1, 3), (1, 3))
        points = ((Fraction(2, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 3)))
        # The set reads back to gp; only the listing order is wrong.
        assert read_points(one_cell, points) == gp
        with pytest.raises(ValueError, match="not listed in position order"):
            check_realization(Realization(gp, pmm_signs(one_cell), points))


def per_line_local_orders(gp, signs):
    # Reference local orders, one line at a time: a column's positions and
    # the positions of a row's values, each read off that line's divisions.
    cols = []
    for k in range(1, gp.matrix.cols + 1):
        chain = list(range(gp.col_divs[k - 1], gp.col_divs[k]))
        if signs.col_signs[k - 1] == -1:
            chain.reverse()
        cols.append(tuple(chain))
    rows = []
    position = position_table(gp.perm)
    for l in range(1, gp.matrix.rows + 1):
        values = range(gp.row_divs[l - 1], gp.row_divs[l])
        chain = [position[v] for v in values]
        if signs.row_signs[l - 1] == -1:
            chain.reverse()
        rows.append(tuple(chain))
    return LocalOrders(len(gp.perm), tuple(cols), tuple(rows))


class TestLocalOrdersAgainstPerLine:
    def test_griddings_up_to_6_and_universal_images(self, x_matrix, v_matrix, fan_matrix):
        count = 0
        for m in (x_matrix, v_matrix, fan_matrix):
            for gp in griddings_up_to(6, m):
                for signs in sign_vectors(m):
                    assert local_orders(gp, signs) == per_line_local_orders(gp, signs)
                gp_s, signs_s = embed_in_universal(gp, pmm_signs(m), 26, 26)
                assert local_orders(gp_s, signs_s) == per_line_local_orders(gp_s, signs_s)
                count += 1
        assert count == 2909 + 127 + 7587


def fraction_point_on_cell(cell, sign, signs, offset):
    # Reference point at a Fraction offset, in Fraction operations.
    k, l = cell
    tx = offset if signs.col_signs[k - 1] == 1 else 1 - offset
    x = (k - 1) + tx
    y = (l - 1) + tx if sign == 1 else l - tx
    return x, y


def fraction_realize_points(gp, signs):
    # Reference drawing of gp: entry i at offset psi(i)/(n+1), or None.
    psi = consistency(local_orders(gp, signs))
    if psi is None:
        return None
    n = len(gp.perm)
    return tuple(
        fraction_point_on_cell(
            gp.cell_of(i), gp.matrix.entry(*gp.cell_of(i)), signs, Fraction(psi[i - 1], n + 1)
        )
        for i in range(1, n + 1)
    )


class TestRealizeAgainstFractions:
    def test_griddings_up_to_6(self, x_matrix, v_matrix, fan_matrix):
        count = drawn = 0
        for m in (x_matrix, v_matrix, fan_matrix):
            sign_choices = sign_vectors(m)
            for gp in griddings_up_to(6, m):
                n = len(gp.perm)
                for signs in sign_choices:
                    r = realize(gp, signs)
                    want = fraction_realize_points(gp, signs)
                    assert (r is None) == (want is None), gp
                    count += 1
                    if r is None:
                        continue
                    drawn += 1
                    assert r.points == want, gp
                    assert all((n + 1) % c.denominator == 0 for p in r.points for c in p)
                    word = encode_gridded(gp, signs)
                    assert _as_points(*_word_points(word, signs)) == tuple(
                        fraction_point_on_cell(cell, m.entry(*cell), signs, Fraction(p, n + 1))
                        for p, cell in enumerate(word.letters, start=1)
                    )
        assert count == 2 * (2909 + 127 + 7587)
        assert 0 < drawn < count
