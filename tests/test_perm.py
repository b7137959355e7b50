import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import graphs
from gridletters.perm import (
    MonotoneInterval,
    Permutation,
    contains,
    contract,
    contract_once,
    find_embedding,
    format_permutation,
    identity,
    inflate,
    inversion_graph,
    monotone_intervals,
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
            assert inversion_graph(identity(n)).edges == frozenset()

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


class TestMonotoneIntervals:
    def naive(self, pi):
        # Independent scan: all maximal runs over every start/length pair.
        found = []
        n = len(pi)
        for start in range(1, n + 1):
            for length in range(2, n - start + 2):
                vals = pi.values[start - 1 : start + length - 1]
                deltas = {b - a for a, b in zip(vals, vals[1:])}
                if deltas == {1} or deltas == {-1}:
                    direction = deltas.pop()
                    maximal = True
                    if start > 1 and pi.at(start - 1) == vals[0] - direction:
                        maximal = False
                    if start + length <= n and pi.at(start + length) == vals[-1] + direction:
                        maximal = False
                    if maximal:
                        found.append(MonotoneInterval(start, length, direction))
        return tuple(sorted(found, key=lambda iv: iv.start))

    def test_examples(self):
        assert monotone_intervals(P("3142")) == ()
        for n in range(2, 6):
            (iv,) = monotone_intervals(identity(n))
            assert (iv.start, iv.length, iv.direction) == (1, n, 1)
        (iv,) = monotone_intervals(P("524361"))
        assert (iv.start, iv.length, iv.direction) == (3, 2, -1)

    def test_matches_naive_scan(self):
        for n in range(7):
            for pi in perms_of(n):
                assert monotone_intervals(pi) == self.naive(pi)

    def test_trivial_intervals_not_materialized(self):
        with pytest.raises(ValueError):
            MonotoneInterval(1, 1, 1)


class TestContract:
    def test_single_pass_example(self):
        sigma, ranges = contract_once(P("524361"))
        assert sigma == P("42351")
        assert ranges[2] == (3, 4)

    def test_identity_contracts_to_point(self):
        for n in range(1, 6):
            sigma, ranges = contract(identity(n))
            assert sigma == P("1")
            assert ranges == ((1, n),)

    def test_524361_fully_contracts(self):
        # One pass gives 42351, which still has the interval (2, 3); the
        # fixed point collapses everything.
        sigma, ranges = contract(P("524361"))
        assert sigma == P("1")
        assert ranges == ((1, 6),)

    def test_no_intervals_is_fixed(self):
        sigma, ranges = contract(P("3142"))
        assert sigma == P("3142")
        assert ranges == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_output_has_no_intervals_and_idempotent(self):
        for n in range(7):
            for pi in perms_of(n):
                sigma, ranges = contract(pi)
                assert monotone_intervals(sigma) == ()
                assert contract(sigma)[0] == sigma
                assert [b - a + 1 for a, b in ranges] != [] or n == 0
                assert sum(b - a + 1 for a, b in ranges) == n

    def test_nested_contraction(self):
        assert contract(P("321"))[0] == P("1")
        assert contract(P("2134"))[0] == P("1")


class TestInflate:
    def test_examples(self):
        assert inflate(P("1"), [(3, 1)]) == P("123")
        assert inflate(P("21"), [(2, -1), (2, -1)]) == P("4321")
        assert contract(P("4321"))[0] == P("1")
        assignment = [(1, 1), (1, 1), (2, -1), (1, 1), (1, 1)]
        assert inflate(P("42351"), assignment) == P("524361")

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            inflate(P("1"), [(0, 1)])

    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_contract_inverts_inflate_without_merges(self, assignment):
        # 3142 has no adjacent entries with adjacent values, so no two
        # inflated blocks can merge.
        sigma = P("3142")
        pi = inflate(sigma, assignment)
        assert contract(pi)[0] == sigma


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
