import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import gridding, oracle
from gridletters.geometry import geom_member
from gridletters.graphs import family, graph
from gridletters.gridding import GridMatrix
from gridletters.letters import lettericity
from gridletters.oracle import (
    _sign_vectors,
    containment_oracle,
    geom_member_oracle,
    isomorphism_oracle,
    lettericity_oracle,
)
from gridletters.pipeline import class_experiment
from gridletters.perm import Permutation, contains, parse_permutation

P = parse_permutation


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


class TestContainmentOracle:
    def test_examples(self):
        assert containment_oracle(P("372694185"), P("32514"))
        for pi in (P("1"), P("2413"), P("35142")):
            assert containment_oracle(pi, pi)

    def test_agrees_with_search_exhaustively(self):
        for pi in perms_of(5):
            for k in range(4):
                for sigma in perms_of(k):
                    assert containment_oracle(pi, sigma) == contains(pi, sigma)

    @given(st.permutations(list(range(1, 8))), st.permutations(list(range(1, 5))))
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_search_sampled(self, pvals, svals):
        pi, sigma = Permutation(tuple(pvals)), Permutation(tuple(svals))
        assert containment_oracle(pi, sigma) == contains(pi, sigma)

    def test_cap(self):
        with pytest.raises(ValueError):
            containment_oracle(Permutation(tuple(range(1, 11))), P("1"))


class TestIsomorphismOracle:
    def test_examples(self):
        p4 = family("path", 4)
        assert isomorphism_oracle(p4, graph(4, [(2, 4), (4, 1), (1, 3)])) == (2, 4, 1, 3)
        assert isomorphism_oracle(family("cycle", 4), family("mK2", 2)) is None
        assert isomorphism_oracle(p4, family("path", 5)) is None
        assert isomorphism_oracle(graph(0), graph(0)) == ()

    def test_cap(self):
        # Order 12 is searched; past it both arguments are refused.
        p12 = family("path", 12)
        assert isomorphism_oracle(p12, p12, pin=(1, 12)) == tuple(range(12, 0, -1))
        for g, h in ((family("path", 13), p12), (p12, family("path", 13))):
            with pytest.raises(ValueError, match="capped at order 12"):
                isomorphism_oracle(g, h)


class TestLettericityOracle:
    def test_examples(self):
        assert lettericity_oracle(family("mK2", 2)) == 2
        assert lettericity_oracle(family("path", 4)) == 2
        assert lettericity_oracle(family("complete", 1)) == 1

    def test_agrees_with_solver_on_order_four(self):
        pairs = list(itertools.combinations(range(1, 5), 2))
        for mask in range(1 << 6):
            g = graph(4, [p for b, p in enumerate(pairs) if mask >> b & 1])
            assert lettericity_oracle(g) == lettericity(g)

    @given(st.integers(0, (1 << 10) - 1))
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_solver_on_order_five_sampled(self, mask):
        pairs = list(itertools.combinations(range(1, 6), 2))
        g = graph(5, [p for b, p in enumerate(pairs) if mask >> b & 1])
        assert lettericity_oracle(g) == lettericity(g)

    def test_cap(self):
        with pytest.raises(ValueError):
            lettericity_oracle(family("mK2", 4))


class TestGeomMemberOracle:
    def test_examples(self, x_matrix, one_cell):
        assert not geom_member_oracle(P("3142"), x_matrix)
        for n in range(6):
            assert geom_member_oracle(Permutation(tuple(range(1, n + 1))), one_cell)

    def test_agrees_with_search(self, x_matrix, v_matrix, non_pmm_matrix, one_cell):
        for m in (x_matrix, v_matrix, non_pmm_matrix, one_cell):
            for n in range(7):
                for pi in perms_of(n):
                    assert geom_member_oracle(pi, m) == geom_member(pi, m), (pi,)

    def test_cap(self, one_cell):
        with pytest.raises(ValueError):
            geom_member_oracle(Permutation(tuple(range(1, 11))), one_cell)


def product_sign_vectors(m):
    # Every (column, row) sign vector in product order, kept when it factors
    # each nonzero entry.
    nonzero = m.nonzero_cells()
    return [
        (cs, rs)
        for cs in itertools.product((1, -1), repeat=m.cols)
        for rs in itertools.product((1, -1), repeat=m.rows)
        if all(m.entry(k, l) == cs[k - 1] * rs[l - 1] for k, l in nonzero)
    ]


def line_components(m):
    # Connected components of the graph on columns and rows joined by the
    # nonzero entries, by union-find.
    parent = list(range(m.cols + m.rows))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for k in range(m.cols):
        for l in range(m.rows):
            if m.entries[k][l]:
                parent[find(k)] = find(m.cols + l)
    return len({find(a) for a in range(m.cols + m.rows)})


def small_matrices():
    for t in range(4):
        for u in range(4):
            for cells in itertools.product((0, 1, -1), repeat=t * u):
                yield GridMatrix(
                    t, u, tuple(tuple(cells[k * u : (k + 1) * u]) for k in range(t))
                )


class TestSignVectors:
    def check(self, m):
        got = _sign_vectors(m)
        want = product_sign_vectors(m)
        assert got == want, m
        assert len(got) == (2 ** line_components(m) if want else 0), m
        return got

    def test_matches_the_product_filter_up_to_3x3(self):
        seen = conflicts = 0
        for m in small_matrices():
            seen += 1
            conflicts += not self.check(m)
        # Every shape 0x0..3x3, including zero rows and columns; the 2x2
        # matrices with an odd number of -1s have no consistent vector.
        assert seen == sum(3 ** (t * u) for t in range(4) for u in range(4))
        assert conflicts > 0

    def test_first_vector_is_pmm_signs_up_to_3x3(self):
        # The library's one sign derivation agrees with the oracle's
        # enumeration: no signs exactly when it finds none, else its first.
        for m in small_matrices():
            signs, vectors = gridding.pmm_signs(m), _sign_vectors(m)
            assert (signs is None) == (not vectors), m
            if vectors:
                assert (signs.col_signs, signs.row_signs) == vectors[0], m

    def test_matches_the_product_filter_on_sweep_outputs(self, monkeypatch, x_matrix):
        matrices = []
        original = oracle.geom_member_oracle

        def recording(pi, m):
            matrices.append(m)
            return original(pi, m)

        monkeypatch.setattr(oracle, "geom_member_oracle", recording)
        report = class_experiment(6, x_matrix, 3, verify_with_oracle=True)
        assert report.ok and len(matrices) == len(report.rows) == 457
        for m in set(matrices):
            self.check(m)


class TestOracleSetUp:
    def test_one_sign_search_per_matrix_in_a_sweep(self, monkeypatch, x_matrix):
        # The n = 6 sweep's 457 rows have 87 distinct output matrices, all
        # signed, so none is doubled.
        calls = []
        original = oracle._sign_vectors

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(oracle, "_sign_vectors", counting)
        oracle._searched.cache_clear()
        report = class_experiment(6, x_matrix, 3, verify_with_oracle=True)
        assert report.ok and len(report.rows) == 457
        assert len(calls) <= 87


class TestOracleIndependence:
    def test_decides_doubling_without_the_library_sign_search(
        self, monkeypatch, x_matrix, non_pmm_matrix
    ):
        cases = [
            (m, pi, geom_member(pi, m))
            for m in (x_matrix, non_pmm_matrix)
            for n in range(6)
            for pi in perms_of(n)
        ]
        assert {want for _, _, want in cases} == {True, False}

        def refuse(m):
            raise AssertionError("the oracle used the library's sign search")

        monkeypatch.setattr(gridding, "pmm_signs", refuse)
        assert not _sign_vectors(non_pmm_matrix)
        for m, pi, want in cases:
            assert geom_member_oracle(pi, m) == want, (m, pi)
