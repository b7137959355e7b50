import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridletters.graphs import (
    SimpleGraph,
    canonical_form,
    complement,
    contains_induced,
    distinguished,
    family,
    find_isomorphism,
    format_graph,
    graph,
    induced_subgraph,
    is_split,
    is_threshold,
    parse_graph,
    vertex_orbits,
)
from gridletters.oracle import isomorphism_oracle
from gridletters.perm import Permutation, inversion_graph, parse_permutation


def random_graph_strategy(max_order=6):
    return st.integers(0, max_order).flatmap(
        lambda n: st.builds(
            lambda picks: graph(
                n, [e for e, keep in zip(itertools.combinations(range(1, n + 1), 2), picks) if keep]
            ),
            st.lists(
                st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
            ),
        )
    )


def threshold_graph_from_weights():
    """The six-vertex weighted graph: u ~ v iff the weights sum >= 0."""
    weights = [
        Fraction(1, 4),
        Fraction(1),
        Fraction(-1, 3),
        Fraction(0),
        Fraction(-2, 3),
        Fraction(1, 2),
    ]
    edges = [
        (u, v)
        for u in range(1, 7)
        for v in range(u + 1, 7)
        if weights[u - 1] + weights[v - 1] >= 0
    ]
    return graph(6, edges)


class TestComplement:
    def test_matching_complement_is_c4(self):
        assert find_isomorphism(complement(family("mK2", 2)), family("cycle", 4))

    def test_complete_complement_is_empty(self):
        for n in (1, 3, 5):
            assert complement(family("complete", n)).edges == frozenset()

    @given(random_graph_strategy())
    @settings(max_examples=50, deadline=None)
    def test_involution(self, g):
        assert complement(complement(g)) == g


class TestInducedSubgraph:
    def test_c4_triples_all_give_p3(self):
        c4 = family("cycle", 4)
        p3 = family("path", 3)
        for vs in itertools.combinations(range(1, 5), 3):
            assert find_isomorphism(induced_subgraph(c4, vs), p3)

    def test_full_and_empty_subsets(self):
        g = family("path", 4)
        assert induced_subgraph(g, (1, 2, 3, 4)) == g
        assert induced_subgraph(g, ()) == graph(0)

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            induced_subgraph(family("path", 3), (1, 4))

    def test_ordering_of_subset_is_preserved(self):
        g = family("path", 3)
        sub = induced_subgraph(g, (3, 2))
        assert sub.edges == frozenset({(1, 2)})


class TestIsomorphism:
    def test_inversion_graphs_of_2413_and_3142(self):
        g = inversion_graph(parse_permutation("2413"))
        h = inversion_graph(parse_permutation("3142"))
        assert find_isomorphism(g, h) is not None

    def test_k3_vs_p3(self):
        assert find_isomorphism(family("complete", 3), family("path", 3)) is None

    def test_weighted_threshold_graph_matches_ididid(self):
        from gridletters.letters import decode_letter_graph

        decoded = decode_letter_graph("id", {("i", "d"), ("d", "d")}, "ididid")
        assert find_isomorphism(threshold_graph_from_weights(), decoded) is not None

    def test_returned_bijections_preserve_adjacency(self):
        samples = [
            (inversion_graph(parse_permutation("2413")), inversion_graph(parse_permutation("3142"))),
            (family("cycle", 5), family("cycle", 5)),
            (family("mK2", 3), family("mK2", 3)),
        ]
        for g, h in samples:
            m = find_isomorphism(g, h)
            assert m is not None
            for u in range(1, g.order + 1):
                for v in range(u + 1, g.order + 1):
                    assert g.has_edge(u, v) == h.has_edge(m[u - 1], m[v - 1])

    def test_equivalence_relation_on_samples(self):
        samples = [family("path", 4), family("cycle", 4), family("mK2", 2), family("empty", 4)]
        for g in samples:
            assert find_isomorphism(g, g)
        for g, h in itertools.combinations(samples, 2):
            assert (find_isomorphism(g, h) is None) == (find_isomorphism(h, g) is None)

    def test_pinned_search_respects_pin(self):
        p4 = family("path", 4)
        # No automorphism of P4 maps an endpoint to a middle vertex.
        assert isomorphism_oracle(p4, p4, pin=(1, 2)) is None
        assert isomorphism_oracle(p4, p4, pin=(1, 4)) is not None

    def check_against_oracle(self, pairs):
        # Found or not as the oracle finds, and every bijection either
        # returns preserves adjacency.
        for g, h in pairs:
            got, want = find_isomorphism(g, h), isomorphism_oracle(g, h)
            assert (got is None) == (want is None), (g, h)
            for m in (got, want):
                if m is not None:
                    assert sorted(m) == list(range(1, g.order + 1))
                    assert all(h.has_edge(m[u - 1], m[v - 1]) for u, v in g.edges)

    def test_matches_the_oracle_on_every_labelled_graph_to_order_five(self):
        # Each graph against a relabelling, and against a graph of its order
        # and edge count (of its degrees if one exists) that the oracle finds
        # no isomorphism to.  48 graphs have no such partner: those whose
        # edge count has one class at their order.
        rng = random.Random(5)
        pairs, unmatched = [], 0
        for n in range(6):
            degrees = {g: sorted(g.degree(v) for v in range(1, n + 1)) for g in all_labelled_graphs(n)}
            by_edges = {}
            for g in degrees:
                by_edges.setdefault(len(g.edges), []).append(g)
            for bucket in by_edges.values():
                rng.shuffle(bucket)
            for g in degrees:
                pairs.append((g, relabel(g, rng)))
                others = sorted(by_edges[len(g.edges)], key=lambda h: degrees[h] != degrees[g])
                other = next((h for h in others if isomorphism_oracle(g, h) is None), None)
                if other is None:
                    unmatched += 1
                else:
                    pairs.append((g, other))
        self.check_against_oracle(pairs)
        assert unmatched == 48 and len(pairs) == 2 * 1100 - 48

    def test_matches_the_oracle_on_random_graphs_of_order_six_to_twelve(self):
        # Each graph against a relabelling, and against a relabelling with
        # one edge moved to a non-edge, which is mostly not isomorphic.
        rng = random.Random(612)
        pairs = []
        for _ in range(100):
            n = rng.randint(6, 12)
            density = rng.choice((0.2, 0.5, 0.8))
            g = graph(n, [e for e in itertools.combinations(range(1, n + 1), 2) if rng.random() < density])
            non_edges = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in g.edges]
            pairs.append((g, relabel(g, rng)))
            if g.edges and non_edges:
                moved = set(g.edges) - {rng.choice(sorted(g.edges))} | {rng.choice(non_edges)}
                pairs.append((g, relabel(graph(n, moved), rng)))
        self.check_against_oracle(pairs)
        assert sum(isomorphism_oracle(g, h) is None for g, h in pairs) > 50

    def test_vertex_orbits(self):
        assert vertex_orbits(family("cycle", 5)) == (0, 0, 0, 0, 0)
        assert vertex_orbits(family("path", 3)) == (0, 1, 0)


def reference_orbits(g):
    """Orbit id per vertex by pinned probes: u and v share an orbit iff some
    automorphism maps u to v."""
    n = g.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if find(u) != find(v) and isomorphism_oracle(g, g, pin=(u + 1, v + 1)):
                parent[find(v)] = find(u)
    return tuple(find(u) for u in range(n))


def reference_class_ids(graphs):
    """Isomorphism class id per graph: bucket by order, edge count and sorted
    degrees, then probe each bucket member with isomorphism_oracle."""
    buckets, ids, fresh = {}, [], itertools.count()
    for g in graphs:
        degrees = tuple(sorted(g.degree(v) for v in range(1, g.order + 1)))
        bucket = buckets.setdefault((g.order, len(g.edges), degrees), [])
        for rep, cid in bucket:
            if isomorphism_oracle(g, rep) is not None:
                ids.append(cid)
                break
        else:
            bucket.append((g, next(fresh)))
            ids.append(bucket[-1][1])
    return ids


def class_representatives(graphs):
    """The first graph of each isomorphism class, by the reference class ids."""
    graphs = list(graphs)
    reps = {}
    for g, cid in zip(graphs, reference_class_ids(graphs)):
        reps.setdefault(cid, g)
    return list(reps.values())


def relabel(g, rng):
    """g with its vertices renamed by a random permutation."""
    p = list(range(1, g.order + 1))
    rng.shuffle(p)
    return graph(g.order, [(p[u - 1], p[v - 1]) for u, v in g.edges])


def all_labelled_graphs(order):
    pairs = list(itertools.combinations(range(1, order + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph(order, [e for b, e in enumerate(pairs) if mask >> b & 1])


def petersen():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6 + i, 6 + (i + 2) % 5) for i in range(5)]
    return graph(10, outer + spokes + inner)


def triangle_and_square():
    return graph(7, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7)])


def frucht():
    """The Frucht graph: cubic, with no automorphism but the identity."""
    lcf = (-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2)
    cycle = [(i, i % 12 + 1) for i in range(1, 13)]
    chords = [(i + 1, (i + d) % 12 + 1) for i, d in enumerate(lcf)]
    return graph(12, cycle + chords)


def regular_graphs():
    """Regular graphs that colour refinement cannot split at all."""
    yield from (family("cycle", n) for n in range(3, 11))
    yield triangle_and_square()
    yield frucht()
    yield graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])  # K_{3,3}
    yield petersen()
    for m in range(1, 6):
        yield family("mK2", m)
        yield family("complement_mK2", m)
    yield family("complete", 8)
    yield family("empty", 8)


class TestCanonicalForm:
    def check_against_references(self, stream):
        # Equal certificates exactly for isomorphic graphs, the orbits of
        # the pinned-probe reference, and an order that relabels g's
        # adjacency masks to the certificate.
        stream = list(stream)
        ids = reference_class_ids(stream)
        class_of_cert = {}
        for g, cid in zip(stream, ids):
            cert, orbits, order = canonical_form(g)
            assert orbits == reference_orbits(g), g
            position = {v + 1: t for t, v in enumerate(order)}
            rows = [0] * g.order
            for u, v in g.edges:
                rows[position[u]] |= 1 << position[v]
                rows[position[v]] |= 1 << position[u]
            assert sorted(order) == list(range(g.order)) and tuple(rows) == cert, g
            assert class_of_cert.setdefault(cert, cid) == cid, g
        assert len(class_of_cert) == len(set(ids))

    def test_every_labelled_graph_to_order_five(self):
        self.check_against_references(g for n in range(6) for g in all_labelled_graphs(n))

    def test_order_six_classes_under_relabelling(self):
        # Every graph of order 6 is one of order 5 plus a vertex, so the
        # extensions of the 34 classes of order 5 meet all 156 of order 6.
        fives = class_representatives(all_labelled_graphs(5))
        assert len(fives) == 34
        sixes = class_representatives(
            graph(6, list(g.edges) + [(v, 6) for v in range(1, 6) if mask >> (v - 1) & 1])
            for g in fives
            for mask in range(32)
        )
        assert len(sixes) == 156
        rng = random.Random(156)
        self.check_against_references(
            h for g in sixes for h in [g] + [relabel(g, rng) for _ in range(3)]
        )

    def test_random_graphs_of_order_seven_to_twelve(self):
        rng = random.Random(712)
        stream = []
        for _ in range(40):
            n = rng.randint(7, 12)
            density = rng.choice((0.2, 0.5, 0.8))
            pairs = itertools.combinations(range(1, n + 1), 2)
            g = graph(n, [e for e in pairs if rng.random() < density])
            stream += [g, relabel(g, rng)]
        self.check_against_references(stream)

    def test_regular_graphs(self):
        rng = random.Random(10)
        self.check_against_references(h for g in regular_graphs() for h in (g, relabel(g, rng)))
        assert canonical_form(petersen())[1] == (0,) * 10
        # One refinement cell, yet no two vertices in one orbit.
        assert canonical_form(frucht())[1] == tuple(range(12))
        assert canonical_form(triangle_and_square())[1] == (0, 0, 0, 3, 3, 3, 3)
        assert len(set(canonical_form(family("path", 12))[1])) == 6

    def test_empty_and_single_vertex(self):
        assert canonical_form(graph(0)) == ((), (), ())
        assert canonical_form(graph(1)) == ((0,), (0,), (0,))
        assert canonical_form(graph(1))[0] != canonical_form(graph(2))[0]


class TestFamilies:
    def test_mk2(self):
        g = family("mK2", 2)
        assert g.order == 4 and g.edges == frozenset({(1, 2), (3, 4)})

    def test_path_and_cycle(self):
        assert family("P_n", 4).edges == frozenset({(1, 2), (2, 3), (3, 4)})
        c5 = family("C_n", 5)
        assert c5.order == 5 and len(c5.edges) == 5

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            family("cycle", 2)
        with pytest.raises(ValueError):
            family("mK2", 0)
        with pytest.raises(ValueError):
            family("nonsense", 3)


class TestRecognition:
    def test_p4_is_split_not_threshold(self):
        p4 = family("path", 4)
        assert is_split(p4)
        assert not is_threshold(p4)

    def test_weighted_example_is_threshold(self):
        assert is_threshold(threshold_graph_from_weights())

    def test_c5_is_not_split(self):
        assert not is_split(family("cycle", 5))

    def test_threshold_implies_split_exhaustive_to_order_six(self):
        for order in range(1, 7):
            pairs = list(itertools.combinations(range(1, order + 1), 2))
            for mask in range(1 << len(pairs)):
                g = graph(order, [p for b, p in enumerate(pairs) if mask >> b & 1])
                if is_threshold(g):
                    assert is_split(g)

    def test_split_inversion_graphs_need_only_two_obstructions(self):
        # Inversion graphs carry no induced cycle of length five or more.
        for n in range(7):
            for vals in itertools.permutations(range(1, n + 1)):
                g = inversion_graph(Permutation(vals))
                short = not contains_induced(g, family("mK2", 2)) and not contains_induced(
                    g, family("cycle", 4)
                )
                assert is_split(g) == short


def reference_contains_induced(g, h):
    """Some vertex subset of g induces a graph isomorphic to h, by
    isomorphism_oracle on every subset of h's order."""
    return any(
        isomorphism_oracle(induced_subgraph(g, vs), h) is not None
        for vs in itertools.combinations(range(1, g.order + 1), h.order)
    )


class TestRecognitionAgainstOracle:
    FORBIDDEN = {
        "2K2": family("mK2", 2),
        "C4": family("cycle", 4),
        "P4": family("path", 4),
        "C5": family("cycle", 5),
    }

    def check(self, stream):
        for g in stream:
            found = {name: reference_contains_induced(g, h) for name, h in self.FORBIDDEN.items()}
            assert is_threshold(g) == (not (found["2K2"] or found["C4"] or found["P4"])), g
            assert is_split(g) == (not (found["2K2"] or found["C4"] or found["C5"])), g

    def test_every_labelled_graph_to_order_five(self):
        self.check(g for n in range(6) for g in all_labelled_graphs(n))

    def test_fixed_sample_of_order_six(self):
        # 2,048 of the 32,768 labelled graphs of order 6.
        self.check(random.Random(6).sample(list(all_labelled_graphs(6)), 2048))


class TestDistinguished:
    def test_basic(self):
        p3 = family("path", 3)
        assert distinguished(p3, 1, 3) is False  # both see only the middle
        assert distinguished(p3, 1, 2)


class TestTextFormat:
    def test_round_trip(self):
        g = family("cycle", 4)
        assert parse_graph(format_graph(g)) == g

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_graph("")
        with pytest.raises(ValueError):
            parse_graph("3\n1 2 3")
        with pytest.raises(ValueError):
            parse_graph("2\n1 5")

    def test_non_integer_edge_token_names_the_line(self):
        with pytest.raises(ValueError, match="bad edge line '1 x'"):
            parse_graph("3\n1 x")

    def test_rejects_loops_and_bad_edges(self):
        with pytest.raises(ValueError):
            graph(3, [(2, 2)])
        with pytest.raises(ValueError):
            SimpleGraph(2, frozenset({(2, 1)}))
