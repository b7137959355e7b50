import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters import graphs, letters, oracle
from gridletters.graphs import (
    SimpleGraph,
    canonical_form,
    complement,
    family,
    graph,
    induced_subgraph,
    vertex_orbits,
)
from gridletters.letters import (
    LETTER_SYMBOLS,
    LetteringCache,
    Letterization,
    _board,
    _has_lettering,
    _search_word,
    canonical_decoders,
    decode_letter_graph,
    find_lettering,
    lettericity,
    verify_letterization,
)
from gridletters.oracle import isomorphism_oracle, lettericity_oracle
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
    @given(st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_decoding_complement_decoder_complements(self, word):
        # The complementary decoder, every pair of letters not in D.
        decoder = {("a", "b"), ("b", "b")}
        complementary = {(x, y) for x in "ab" for y in "ab"} - decoder
        g = decode_letter_graph("ab", decoder, word)
        h = decode_letter_graph("ab", complementary, word)
        assert h == complement(g)


def brute_least_lettering(g, k):
    """The least (decoder, word) over canonical decoders, sizes ascending,
    all letters used.  Its decoder is the one `find_lettering` returns; the
    word `find_lettering` returns is the first success of its search in
    (letter ascending, vertex ascending) order, which depends on the vertex
    labels, so it equals this least word only on some graphs."""
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
                if isomorphism_oracle(graph(n, edges), g):
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

    def test_decoder_is_the_least_with_a_word(self):
        # Per (order, size, decoder), the certificates of every decoded word;
        # the expected decoder is the least with a word decoding to g.
        certificates = {}

        def decodes_to(n, size, decoder, certificate):
            key = (n, size, decoder)
            if key not in certificates:
                pairs = list(itertools.combinations(range(n), 2))
                certificates[key] = {
                    canonical_form(graph(n, [(i + 1, j + 1) for i, j in pairs if (w[i], w[j]) in decoder]))[0]
                    for w in itertools.product(range(size), repeat=n)
                }
            return certificate in certificates[key]

        for n in range(1, 6):
            for g in small_graphs(n):
                certificate = canonical_form(g)[0]
                expected = next(
                    (size, decoder)
                    for size in range(1, n + 1)
                    for decoder in sorted(oracle._decoder_reps(size), key=sorted)
                    if decodes_to(n, size, decoder, certificate)
                )
                lz = find_lettering(g, n)
                got = frozenset((LETTER_SYMBOLS.index(a), LETTER_SYMBOLS.index(b)) for a, b in lz.decoder)
                assert (len(lz.alphabet), got) == expected, g

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
    board = _board(g)
    for size in range(1, min(k, g.order) + 1):
        for decoder in canonical_decoders(size):
            found = _search_word(board, size, decoder)
            if found is not None:
                word, iso = found
                return Letterization(
                    tuple(LETTER_SYMBOLS[:size]),
                    frozenset((LETTER_SYMBOLS[a], LETTER_SYMBOLS[b]) for a, b in decoder),
                    tuple(LETTER_SYMBOLS[x] for x in word),
                    iso,
                )
    return None


class ProbingCache(LetteringCache):
    """The cache keyed without certificates: classes bucketed by order, edge
    count and sorted degrees, and each bucket member probed with
    isomorphism_oracle."""

    def __init__(self):
        self._buckets = {}

    def _record(self, g):
        degrees = tuple(sorted(g.degree(v) for v in range(1, g.order + 1)))
        bucket = self._buckets.setdefault((g.order, len(g.edges), degrees), [])
        for rep, rec in bucket:
            if isomorphism_oracle(g, rep) is not None:
                return rec
        bucket.append((g, letters._ClassRecord()))
        return bucket[-1][1]


class TestLetteringCache:
    def test_classes_and_answers_match_the_probing_cache(self):
        # Both caches run the same searches per class record, so equal
        # classes give equal answers for any query stream.
        stream = [
            inversion_graph(Permutation(values))
            for n in range(8)
            for values in itertools.permutations(range(1, n + 1))
        ]
        cache, probing = LetteringCache(), ProbingCache()
        partner, back = {}, {}
        for g in stream:
            a, b = id(cache._record(g)), id(probing._record(g))
            assert partner.setdefault(a, b) == b and back.setdefault(b, a) == a, g
        assert len(partner) == 970  # classes of inversion graphs of order 0 to 7
        for g in stream:
            if g.order <= 6:
                for k in (2, 3):
                    assert cache.find_lettering(g, k) == probing.find_lettering(g, k), (g, k)
                assert cache.lettericity(g) == probing.lettericity(g), g

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
            degrees = tuple(sorted(g.degree(v) for v in range(1, g.order + 1)))
            reps = oracle_reps.setdefault((g.order, len(g.edges), degrees), [])
            for rep, value in reps:
                if isomorphism_oracle(g, rep) is not None:
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
        monkeypatch.setattr(letters, "_least_decoders", counting(letters._least_decoders))
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

    def test_witness_walk_is_lazy(self, monkeypatch):
        # The walk stops at the first decoder with a word and never builds
        # the whole tuple of decoders.
        tuples, searches = [], []

        def counting_tuple(k):
            tuples.append(k)
            return canonical_decoders(k)

        def counting_search(*args):
            searches.append(args[2])
            return _search_word(*args)

        monkeypatch.setattr(letters, "canonical_decoders", counting_tuple)
        monkeypatch.setattr(letters, "_search_word", counting_search)
        lz = LetteringCache().find_lettering(family("mK2", 4), 4)
        assert lz is not None and len(lz.alphabet) == 4
        assert tuples == []
        assert len(searches) == 637

    def test_each_query_derives_its_own_board(self, monkeypatch):
        # Two equal queries do equal work: each derives the orbits once, and
        # every search of one query reads that query's one board.
        orbit_calls, boards = [], []

        def counting_orbits(g):
            orbit_calls.append(g)
            return vertex_orbits(g)

        def recording(kernel):
            def wrapped(board, *args):
                boards[-1].add(id(board))
                return kernel(board, *args)

            return wrapped

        monkeypatch.setattr(graphs, "vertex_orbits", counting_orbits)
        monkeypatch.setattr(letters, "_has_lettering", recording(_has_lettering))
        monkeypatch.setattr(letters, "_search_word", recording(_search_word))
        p8 = family("path", 8)
        answers = []
        for _ in range(2):
            orbit_calls.clear()
            boards.append(set())
            answers.append(find_lettering(p8, 4))
            assert orbit_calls == [p8]
            assert len(boards[-1]) == 1
        assert answers[0] == answers[1] and len(answers[0].alphabet) == 4


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

    def test_match_the_oracle_orbit_representatives(self):
        # The oracle tests every mask against every renaming.
        for k in range(5):
            assert canonical_decoders(k) == tuple(sorted(oracle._decoder_reps(k), key=sorted))
        assert len(canonical_decoders(4)) == 3044

    def test_five_letter_prefix_is_least_and_ascending(self):
        # Brute force, no table: each decoder against its 120 renamed images.
        prefix = list(itertools.islice(letters._least_decoders(5), 300))
        keys = [sorted(dec) for dec in prefix]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for dec, key in zip(prefix, keys):
            for s in itertools.permutations(range(5)):
                assert key <= sorted((s[i], s[j]) for i, j in dec), (dec, s)


def reference_twin_classes(g):
    """Class id per vertex; twins (true or false) are interchangeable."""
    n = g.order
    adj = g.masks
    ids = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            strip = ~((1 << u) | (1 << v))
            if (adj[u] & strip) == (adj[v] & strip):
                ids[v] = min(ids[v], ids[u])
    return tuple(ids)


def reference_search_word(g, k, decoder):
    """The word search vertex by vertex: each move compares a vertex's
    placed neighbours with the letter's required set."""
    n = g.order
    adj = g.masks
    twin = reference_twin_classes(g)
    orbit = vertex_orbits(g)
    feeds = [[x for x in range(k) if (y, x) in decoder] for y in range(k)]

    word = []
    placement = []
    failed = set()

    def extend(placed, required, p):
        if p == n:
            return True
        key = (placed, required)
        if key in failed:
            return False
        needs = set(required)
        if any(adj[v] & placed not in needs for v in range(n) if not placed >> v & 1):
            return False
        for x in range(k):
            need = required[x]
            tried_twins = set()
            for v in range(n):
                if placed >> v & 1:
                    continue
                if p == 0 and orbit[v] != v:
                    continue
                if twin[v] in tried_twins:
                    continue
                tried_twins.add(twin[v])
                if adj[v] & placed != need:
                    continue
                new_required = list(required)
                for x2 in feeds[x]:
                    new_required[x2] |= 1 << v
                word.append(x)
                placement.append(v)
                if extend(placed | 1 << v, tuple(new_required), p + 1):
                    return True
                word.pop()
                placement.pop()
        failed.add(key)
        return False

    if not extend(0, (0,) * k, 0):
        return None
    iso = [0] * n
    for pos, v in enumerate(placement):
        iso[v] = pos + 1
    return tuple(word), tuple(iso)


def reference_has_lettering(g, k):
    """The lazy-decoder search vertex by vertex: each move walks the
    classes and checks the vertex sees each one whole or not at all."""
    n = g.order
    adj = g.masks
    twin = reference_twin_classes(g)
    orbit = vertex_orbits(g)
    everyone = (1 << n) - 1
    failed = set()

    def extend(placed, classes, fixed, inside):
        if placed == everyone:
            return True
        key = (classes, fixed, inside)
        if key in failed:
            return False
        used = len(classes)
        moves = []
        fits = placed
        for x in range(min(used + 1, k)):
            for v in range(n):
                if placed >> v & 1:
                    continue
                f, i = fixed, inside
                for y, cls in enumerate(classes):
                    seen = adj[v] & cls
                    if seen and seen != cls:
                        break
                    bit = 1 << (y * k + x)
                    want = bit if seen else 0
                    if f & bit and (i & bit) != want:
                        break
                    f |= bit
                    i |= want
                else:
                    fits |= 1 << v
                    moves.append((x, v, f, i))
        if fits == everyone:
            tried_twins = set()
            for x, v, f, i in moves:
                if (not placed and orbit[v] != v) or (x, twin[v]) in tried_twins:
                    continue
                tried_twins.add((x, twin[v]))
                cls = classes[x] | 1 << v if x < used else 1 << v
                if extend(placed | 1 << v, classes[:x] + (cls,) + classes[x + 1 :], f, i):
                    return True
        failed.add(key)
        return False

    return extend(0, (), 0, 0)


def ladder_scale_graphs():
    """The stream of test_ladder_scale_graphs_match_direct_search: fixed
    random graphs of order 7-8 and inversion graphs of length-8 permutations."""
    rng = random.Random(2021)
    stream = []
    for n in (7, 8) * 8:
        pairs = itertools.combinations(range(1, n + 1), 2)
        stream.append(graph(n, [p for p in pairs if rng.random() < 0.5]))
    for _ in range(8):
        values = sorted(range(1, 9), key=lambda v: rng.random())
        stream.append(inversion_graph(Permutation(tuple(values))))
    return stream


def masks_from_edges(g):
    masks = [0] * g.order
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return tuple(masks)


class TestAdjacencyMasks:
    def test_every_labelled_graph_to_order_five(self):
        for n in range(6):
            for g in small_graphs(n):
                assert g.masks == masks_from_edges(g), g

    def test_ladder_scale_graphs_and_their_complements(self):
        for g in ladder_scale_graphs():
            for h in (g, complement(g)):
                assert h.masks == masks_from_edges(h), h

    def test_masks_stay_out_of_equality_hash_and_repr(self):
        g = family("path", 4)
        assert g.masks == (0b10, 0b101, 0b1010, 0b100)
        tampered = graph(4, g.edges)
        object.__setattr__(tampered, "masks", (0, 0, 0, 0))
        assert tampered == g and hash(tampered) == hash(g)
        assert repr(g) == "SimpleGraph(order=4, edges=" + repr(g.edges) + ")"
        with pytest.raises(TypeError):
            SimpleGraph(2, frozenset(), masks=(0, 0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.masks = (0, 0, 0, 0)


class TestTwinMasks:
    @staticmethod
    def reference_masks(g):
        ids = reference_twin_classes(g)
        return tuple(sum(1 << u for u, j in enumerate(ids) if j == i) for i in ids)

    def test_every_labelled_graph_to_order_six(self):
        for n in range(7):
            for g in small_graphs(n):
                assert _board(g)[1] == self.reference_masks(g), g

    def test_ladder_scale_graphs(self):
        for g in ladder_scale_graphs():
            assert _board(g)[1] == self.reference_masks(g), g


class TestMaskKernelsMatchReferences:
    def test_has_lettering_on_small_graphs(self):
        for n in range(6):
            for g in small_graphs(n):
                for k in range(n + 1):
                    assert _has_lettering(_board(g), k) == reference_has_lettering(g, k), (g, k)

    def test_has_lettering_on_random_graphs(self):
        # Orders 6-9 in turn, each graph with its own edge density.
        rng = random.Random(14)
        answers = []
        for i in range(200):
            n = 6 + i % 4
            density = rng.random()
            pairs = itertools.combinations(range(1, n + 1), 2)
            g = graph(n, [p for p in pairs if rng.random() < density])
            for k in range(1, 5):
                answers.append(_has_lettering(_board(g), k))
                assert answers[-1] == reference_has_lettering(g, k), (g, k)
        assert True in answers and False in answers

    def test_search_word_on_small_graphs(self):
        for n, k_max in ((0, 3), (1, 3), (2, 3), (3, 3), (4, 3), (5, 2)):
            for g in small_graphs(n):
                for k in range(k_max + 1):
                    for decoder in canonical_decoders(k):
                        expected = reference_search_word(g, k, decoder)
                        assert _search_word(_board(g), k, decoder) == expected, (g, k, decoder)

    def test_search_word_along_the_decoder_walk(self):
        # Sizes ascending and decoders in order, up to the first success.
        for g in ladder_scale_graphs():
            board = _board(g)
            for k, decoder in ((k, d) for k in range(1, 4) for d in canonical_decoders(k)):
                found = _search_word(board, k, decoder)
                assert found == reference_search_word(g, k, decoder), (g, k, decoder)
                if found is not None:
                    break


class TestClosedFormAnchors:
    def test_paths_of_ten_and_eleven_vertices(self):
        # Ferguson, "On the lettericity of paths": lett(P_n) = floor((n + 4) / 3).
        assert lettericity(family("path", 10)) == 4
        assert lettericity(family("path", 11)) == 5

    def test_path_of_twelve_vertices(self):
        # floor((12 + 4) / 3) = 5, the same size as P_11 but a larger search.
        assert lettericity(family("path", 12)) == 5

    def test_complements_have_equal_lettericity(self):
        # Complementing the decoder complements every letter graph.
        stream = [g for n in range(6) for g in small_graphs(n)] + ladder_scale_graphs()
        for g in stream:
            assert lettericity(g) == lettericity(complement(g)), g
