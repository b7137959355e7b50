import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import letters
from gridletters.graphs import (
    complement,
    family,
    find_isomorphism,
    graph,
    induced_subgraph,
    invariant_key,
)
from gridletters.letters import (
    LETTER_SYMBOLS,
    LetteringCache,
    Letterization,
    _search_word,
    canonical_decoders,
    complement_decoder,
    decode_letter_graph,
    find_lettering,
    format_decoder,
    format_word,
    lettericity,
    parse_decoder,
    parse_word,
    verify_letterization,
)
from gridletters.oracle import lettericity_oracle
from gridletters.perm import Permutation, inversion_graph

THRESHOLD_DECODER = {("i", "d"), ("d", "d")}


def small_graphs(order):
    pairs = list(itertools.combinations(range(1, order + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph(order, [p for b, p in enumerate(pairs) if mask >> b & 1])


class TestDecode:
    def test_ididid_threshold_graph(self):
        g = decode_letter_graph("id", THRESHOLD_DECODER, "ididid")
        assert sorted(g.edges) == [
            (1, 2), (1, 4), (1, 6), (2, 4), (2, 6), (3, 4), (3, 6), (4, 6), (5, 6),
        ]

    def test_empty_word(self):
        assert decode_letter_graph("a", set(), "") == graph(0)

    def test_clique_letter(self):
        assert decode_letter_graph("a", {("a", "a")}, "aaa") == family("complete", 3)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(ValueError):
            decode_letter_graph("a", set(), "ab")
        with pytest.raises(ValueError):
            decode_letter_graph("a", {("a", "b")}, "a")


class TestComplementDecoder:
    def test_single_letter(self):
        assert complement_decoder("a", set()) == frozenset({("a", "a")})

    def test_threshold_decoder(self):
        assert complement_decoder("id", THRESHOLD_DECODER) == frozenset(
            {("i", "i"), ("d", "i")}
        )

    def test_double_complement(self):
        assert complement_decoder("ab", complement_decoder("ab", {("a", "b")})) == frozenset(
            {("a", "b")}
        )

    @given(st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_decoding_complement_decoder_complements(self, word):
        decoder = {("a", "b"), ("b", "b")}
        g = decode_letter_graph("ab", decoder, word)
        h = decode_letter_graph("ab", complement_decoder("ab", decoder), word)
        assert h == complement(g)


def brute_least_lettering(g, k):
    """Reference for the tie-break: least (decoder, word) over canonical
    decoders, sizes ascending, all letters used."""
    n = g.order
    for size in range(1, k + 1):
        for decoder in sorted(
            _brute_canonical(size), key=sorted
        ):
            for word in itertools.product(range(size), repeat=n):
                if set(word) != set(range(size)):
                    continue
                edges = [
                    (i + 1, j + 1)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if (word[i], word[j]) in decoder
                ]
                if find_isomorphism(graph(n, edges), g):
                    return decoder, word
    return None


def _brute_canonical(k):
    perms = list(itertools.permutations(range(k)))
    out = []
    for mask in range(1 << (k * k)):
        pairs = frozenset(
            (i, j) for i in range(k) for j in range(k) if mask >> (i * k + j) & 1
        )
        if all(sorted(pairs) <= sorted({(s[i], s[j]) for i, j in pairs}) for s in perms):
            out.append(pairs)
    return out


class TestFindLettering:
    def test_p4_two_letters(self):
        p4 = family("path", 4)
        lz = find_lettering(p4, 2)
        assert lz is not None and len(lz.alphabet) == 2
        assert verify_letterization(p4, lz)

    def test_3k2_needs_three_letters(self):
        assert find_lettering(family("mK2", 3), 2) is None

    def test_k1(self):
        lz = find_lettering(family("complete", 1), 1)
        assert lz is not None and lz.word == ("a",)

    def test_least_witness_matches_brute_force(self):
        for g in (family("path", 3), family("path", 4), graph(3, [(1, 2)]), family("cycle", 4)):
            lz = find_lettering(g, g.order)
            expected = brute_least_lettering(g, g.order)
            got_decoder = frozenset(
                (ord(a) - ord("a"), ord(b) - ord("a")) for a, b in lz.decoder
            )
            got_word = tuple(ord(c) - ord("a") for c in lz.word)
            assert (got_decoder, got_word) == expected

    def test_deterministic(self):
        g = family("cycle", 5)
        assert find_lettering(g, 5) == find_lettering(g, 5)

    @given(st.integers(0, 31))
    @settings(max_examples=32, deadline=None)
    def test_always_verifies(self, mask):
        pairs = list(itertools.combinations(range(1, 6), 2))[:5]
        g = graph(5, [p for b, p in enumerate(pairs) if mask >> b & 1])
        lz = find_lettering(g, 5)
        assert lz is not None and verify_letterization(g, lz)


class TestLettericity:
    def test_matchings(self):
        for m in (1, 2, 3):
            assert lettericity(family("mK2", m)) == m

    def test_thresholds_have_lettericity_at_most_two(self):
        for n in range(1, 7):
            for word in itertools.product("id", repeat=n):
                g = decode_letter_graph("id", THRESHOLD_DECODER, word)
                assert lettericity(g) <= 2

    def test_cliques_and_cocliques(self):
        for n in (1, 2, 4):
            assert lettericity(family("complete", n)) == 1
            assert lettericity(family("empty", n)) == 1

    def test_complement_invariance_spot(self):
        for g in (family("path", 4), family("cycle", 5), family("mK2", 2)):
            assert lettericity(g) == lettericity(complement(g))

    def test_monotone_under_induced_subgraphs(self):
        for g in (family("cycle", 5), family("mK2", 3)):
            full = lettericity(g)
            for r in (2, g.order - 1):
                for vs in itertools.combinations(range(1, g.order + 1), r):
                    assert lettericity(induced_subgraph(g, vs)) <= full

    def test_empty_graph(self):
        assert lettericity(graph(0)) == 0

    def test_paths_follow_the_closed_form(self):
        # Ferguson, "On the lettericity of paths": lett(P_n) = floor((n + 4) / 3).
        for n in range(3, 10):
            assert lettericity(family("path", n)) == (n + 4) // 3, n

    def test_five_edge_matching_needs_five_letters(self):
        assert lettericity(family("mK2", 5)) == 5


def direct_lettering(g, k):
    """The uncached search: sizes ascending, canonical decoders in order,
    the first word search that succeeds."""
    if g.order == 0:
        return Letterization((), frozenset(), (), ())
    for size in range(1, min(k, g.order) + 1):
        for decoder in canonical_decoders(size):
            found = _search_word(g, size, decoder)
            if found is not None:
                word, iso = found
                return Letterization(
                    tuple(LETTER_SYMBOLS[:size]),
                    frozenset((LETTER_SYMBOLS[a], LETTER_SYMBOLS[b]) for a, b in decoder),
                    tuple(LETTER_SYMBOLS[x] for x in word),
                    iso,
                )
    return None


class TestLetteringCache:
    def test_shared_cache_matches_direct_search_and_oracle(self):
        # One cache over the whole stream: the k = 1, 3, 2 queries make
        # misses, exhausted sizes, resumed searches and hits on isomorphic
        # repeats under relabelling.
        stream = [g for n in range(6) for g in small_graphs(n)]
        stream += [
            inversion_graph(Permutation(values))
            for n in range(1, 7)
            for values in itertools.permutations(range(1, n + 1))
        ]
        oracle_reps = {}  # lettericity_oracle once per isomorphism class

        def oracle(g):
            reps = oracle_reps.setdefault(invariant_key(g), [])
            for rep, value in reps:
                if find_isomorphism(g, rep) is not None:
                    return value
            reps.append((g, lettericity_oracle(g)))
            return reps[-1][1]

        cache = LetteringCache()
        for g in stream:
            # Sizes ascend, so the k = 3 answer fixes those for k = 1, 2.
            least = direct_lettering(g, 3)
            for k in (1, 3, 2):
                expected = least if least and len(least.alphabet) <= k else None
                assert cache.find_lettering(g, k) == expected, (g, k)
            assert cache.lettericity(g) == oracle(g), g

    def test_ladder_scale_graphs_match_direct_search(self):
        # Fixed random graphs of order 7-8 and inversion graphs of length-8
        # permutations, with positives and graphs that have no 3-lettering.
        rng = random.Random(2021)
        stream = []
        for n in (7, 8) * 8:
            pairs = itertools.combinations(range(1, n + 1), 2)
            stream.append(graph(n, [p for p in pairs if rng.random() < 0.5]))
        for _ in range(8):
            values = sorted(range(1, 9), key=lambda v: rng.random())
            stream.append(inversion_graph(Permutation(tuple(values))))
        sizes = []
        for g in stream:
            expected = direct_lettering(g, 3)
            assert find_lettering(g, 3) == expected, g
            sizes.append(len(expected.alphabet) if expected else None)
        assert sizes.count(None) >= 3 and 2 in sizes and 3 in sizes

    def test_lettericity_runs_no_word_search(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapped(*args):
                calls.append((fn.__name__, args))
                return fn(*args)

            return wrapped

        monkeypatch.setattr(letters, "_search_word", counting(_search_word))
        monkeypatch.setattr(letters, "canonical_decoders", counting(canonical_decoders))
        cache = LetteringCache()
        for g in (family("path", 8), family("mK2", 4), family("cycle", 6)):
            cache.lettericity(g)
            lettericity(g)
        assert calls == []
        assert cache.find_lettering(family("path", 4), 2) is not None
        assert calls

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            LetteringCache().find_lettering(family("path", 3), 0)


class TestCanonicalDecoders:
    def test_counts(self):
        # Orbit counts of subsets of k^2 ordered pairs under letter renaming.
        assert len(canonical_decoders(1)) == 2
        assert len(canonical_decoders(2)) == 10
        assert len(canonical_decoders(3)) == 104

    def test_every_decoder_is_orbit_minimum(self):
        for dec in canonical_decoders(2):
            swapped = frozenset((1 - a, 1 - b) for a, b in dec)
            assert sorted(dec) <= sorted(swapped)


class TestTextFormats:
    def test_decoder_round_trip(self):
        d = frozenset({("a", "b"), ("b", "b")})
        assert parse_decoder(format_decoder(d)) == d

    def test_word_round_trip(self):
        w = ("a", "b", "a")
        assert parse_word(format_word(w)) == w

    def test_bad_decoder_line(self):
        with pytest.raises(ValueError):
            parse_decoder("a b c")
