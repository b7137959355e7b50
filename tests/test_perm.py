import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import graphs
from gridletters.perm import (
    Permutation,
    contains,
    find_embedding,
    format_permutation,
    inversion_graph,
    parse_permutation,
    separated,
    separators,
)

P = parse_permutation


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def naive_contains(pi, sigma):
    k = len(sigma)
    for subset in itertools.combinations(range(1, len(pi) + 1), k):
        vals = [pi.at(i) for i in subset]
        if all(
            (vals[a] < vals[b]) == (sigma.values[a] < sigma.values[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return k == 0


class TestContainment:
    def test_witness_for_32514_in_372694185(self):
        pi, sigma = P("372694185"), P("32514")
        assert contains(pi, sigma)
        # The classical witness subsequence 32918 sits at indices 1,3,5,7,8
        # and embeds, but it is not the least embedding.
        witness = find_embedding(pi, sigma)
        assert witness == (1, 3, 4, 7, 9)
        for embedding in (witness, (1, 3, 5, 7, 8)):
            vals = [pi.at(i) for i in embedding]
            assert all(
                (vals[a] < vals[b]) == (sigma.values[a] < sigma.values[b])
                for a in range(5)
                for b in range(a + 1, 5)
            )
        assert [pi.at(i) for i in (1, 3, 5, 7, 8)] == [3, 2, 9, 1, 8]

    def test_avoids_decreasing_five(self):
        assert not contains(P("372694185"), P("54321"))

    def test_empty_pattern_always_embeds(self):
        for pi in (P(""), P("1"), P("372694185")):
            assert contains(pi, P(""))
            assert find_embedding(pi, P("")) == ()

    def test_witness_is_lexicographically_least(self):
        # Cross-check against a first-hit scan over index subsets in order.
        for pi in perms_of(5):
            for sigma in perms_of(3):
                best = None
                for subset in itertools.combinations(range(1, 6), 3):
                    vals = [pi.at(i) for i in subset]
                    if all(
                        (vals[a] < vals[b]) == (sigma.values[a] < sigma.values[b])
                        for a in range(3)
                        for b in range(a + 1, 3)
                    ):
                        best = subset
                        break
                assert find_embedding(pi, sigma) == best

    @given(
        st.permutations(list(range(1, 8))),
        st.permutations(list(range(1, 5))),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_oracle(self, pvals, svals):
        pi, sigma = Permutation(tuple(pvals)), Permutation(tuple(svals))
        assert contains(pi, sigma) == naive_contains(pi, sigma)

    def test_reflexive_up_to_length_six(self):
        for n in range(7):
            for pi in perms_of(n):
                assert contains(pi, pi)

    def test_transitive_on_samples(self):
        sample = [P("1"), P("12"), P("21"), P("231"), P("2413"), P("35142"), P("214365")]
        for a, b, c in itertools.product(sample, repeat=3):
            if contains(a, b) and contains(b, c):
                assert contains(a, c)


class TestInversionGraph:
    def test_p4_pair(self):
        g = inversion_graph(P("2413"))
        h = inversion_graph(P("3142"))
        assert sorted(g.edges) == [(1, 3), (2, 3), (2, 4)]
        p4 = graphs.family("path", 4)
        assert graphs.find_isomorphism(g, p4) is not None
        assert graphs.find_isomorphism(g, h) is not None

    def test_identity_is_edgeless(self):
        for n in range(5):
            assert inversion_graph(Permutation(tuple(range(1, n + 1)))).edges == frozenset()

    def test_matching_permutations(self):
        for m in (1, 2, 3):
            values = []
            for i in range(1, m + 1):
                values.extend((2 * i, 2 * i - 1))
            g = inversion_graph(Permutation(tuple(values)))
            assert g.edges == graphs.family("mK2", m).edges

    def test_containment_gives_induced_subgraph(self):
        for n in range(7):
            for pi in perms_of(n):
                for k in range(1, 5):
                    for sigma in perms_of(k):
                        witness = find_embedding(pi, sigma)
                        if witness is not None:
                            sub = graphs.induced_subgraph(inversion_graph(pi), witness)
                            assert graphs.find_isomorphism(sub, inversion_graph(sigma))


class TestSeparation:
    def test_four_sides_separate(self):
        # 2 5 3 ... an entry left of, above, below, or right of the pair.
        pi = P("3142")
        # entries at positions 2 (value 1) and 3 (value 4): position 1 holds
        # value 3, horizontally outside, vertically between: a separator.
        assert 1 in separators(pi, 2, 3)

    def test_strictly_inside_does_not_separate(self):
        pi = P("132")
        # entries 1 and 3 (values 1, 2): position 2 (value 3) is between
        # horizontally but not vertically: separates.
        assert separated(pi, 1, 3)
        pi2 = P("123")
        # entry 2 (value 2) is inside the rectangle of entries 1 and 3.
        assert not separated(pi2, 1, 3)


class TestTextFormat:
    def test_round_trip(self):
        for text in ("3 7 2 6 9 4 1 8 5", "3142", "1", ""):
            pi = parse_permutation(text)
            assert parse_permutation(format_permutation(pi)) == pi

    def test_separators_and_compactensure_same(self):
        assert parse_permutation("3,1,4,2") == parse_permutation("3142")

    def test_long_values_need_separators(self):
        pi = parse_permutation(" ".join(str(i) for i in range(1, 12)))
        assert len(pi) == 11

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            parse_permutation("1 1")
        with pytest.raises(ValueError):
            parse_permutation("0 1")
