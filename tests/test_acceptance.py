"""Acceptance criteria, one test per criterion, runnable standalone:

    pytest tests/test_acceptance.py -v -s

Each test prints a single PASS line on success.  Everything here is exact
combinatorics; the only tolerances are the wall-clock targets asserted for
the two heavyweight criteria.
"""
import itertools
import time

from gridletters.geometry import (
    CellWord,
    consistency,
    decode_word,
    encode_gridded,
    geom_member,
    derive_decoder,
    local_orders,
    realize,
    word_index_map,
)
from gridletters.graphs import (
    complement,
    family,
    find_isomorphism,
    graph,
    is_threshold,
)
from gridletters.gridding import (
    all_griddings,
    double,
    find_gridding,
    from_display_rows,
    grid_matrix,
    is_skew_merged,
    pmm_signs,
)
from gridletters.letters import decode_letter_graph, lettericity
from gridletters.oracle import lettericity_oracle
from gridletters.perm import Permutation, inversion_graph, parse_permutation, separated

P = parse_permutation

X = from_display_rows([(-1, 1), (1, -1)])
V = from_display_rows([(-1,), (1,)])
FAN = from_display_rows([(-1, 1, 1), (0, -1, -1)])
NON_PMM = from_display_rows([(1, -1), (1, 1)])
ONE = grid_matrix([[1]])

THRESHOLD_DECODER = {("i", "d"), ("d", "d")}


def perms_of(n):
    return (Permutation(v) for v in itertools.permutations(range(1, n + 1)))


def invariant_key(g):
    """Order, edge count and sorted degrees: equal for isomorphic graphs."""
    return g.order, len(g.edges), tuple(sorted(g.degree(v) for v in range(1, g.order + 1)))


def iso_classes(graphs_iterable):
    buckets = {}
    for g in graphs_iterable:
        reps = buckets.setdefault(invariant_key(g), [])
        if not any(find_isomorphism(g, rep) for rep in reps):
            reps.append(g)
    return [g for reps in buckets.values() for g in reps]


def all_graphs(order):
    pairs = list(itertools.combinations(range(1, order + 1), 2))
    for mask in range(1 << len(pairs)):
        yield graph(order, [p for b, p in enumerate(pairs) if mask >> b & 1])


def test_criterion_01_matching_lettericity():
    start = time.time()
    for m in (1, 2, 3, 4):
        assert lettericity(family("mK2", m)) == m
    # The brute-force oracle is capped at order 6, so it confirms m <= 3.
    for m in (1, 2, 3):
        assert lettericity_oracle(family("mK2", m)) == m
    elapsed = time.time() - start
    assert elapsed < 300
    print(f"\nACCEPTANCE CRITERION 1 PASS - lettericity(mK2) = m for m = 1..4 ({elapsed:.1f}s)")


def test_criterion_02_complement_invariance():
    start = time.time()
    checked = 0
    for rep in iso_classes(all_graphs(5)):
        assert lettericity(rep) == lettericity(complement(rep))
        checked += 1
    six_perm_graphs = (inversion_graph(Permutation(v)) for v in itertools.permutations(range(1, 7)))
    for rep in iso_classes(six_perm_graphs):
        assert lettericity(rep) == lettericity(complement(rep))
        checked += 1
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 2 PASS - complement invariance on {checked} "
        f"isomorphism classes, zero exceptions ({elapsed:.1f}s)"
    )


def test_criterion_03_threshold_equivalence():
    start = time.time()
    signs = pmm_signs(V)
    for n in range(1, 8):
        seen = set()
        geom_graphs = []
        for letters in itertools.product(V.nonzero_cells(), repeat=n):
            perm = decode_word(CellWord(V, letters), signs).perm
            if perm.values in seen:
                continue
            seen.add(perm.values)
            geom_graphs.append(inversion_graph(perm))
        geom_classes = iso_classes(geom_graphs)
        for g in geom_classes:
            assert is_threshold(g)
        threshold_classes = []
        for word in itertools.product("id", repeat=n):
            g = decode_letter_graph("id", THRESHOLD_DECODER, word)
            assert is_threshold(g)
            if not any(find_isomorphism(g, rep) for rep in threshold_classes):
                threshold_classes.append(g)
        assert len(geom_classes) == len(threshold_classes)
        for g in geom_classes:
            assert any(find_isomorphism(g, rep) for rep in threshold_classes)
            # Two-letter witness under the isolated/dominating decoder.
            assert any(
                find_isomorphism(
                    decode_letter_graph("id", THRESHOLD_DECODER, word), g
                )
                for word in itertools.product("id", repeat=n)
            )
    elapsed = time.time() - start
    print(
        "\nACCEPTANCE CRITERION 3 PASS - inversion graphs of Geom(V) are "
        f"exactly the threshold graphs up to order 7, each with a 2-letter witness ({elapsed:.1f}s)"
    )


def test_criterion_04_skew_merged_characterization():
    start = time.time()
    checked = 0
    for n in range(8):
        for pi in perms_of(n):
            assert is_skew_merged(pi) == (find_gridding(pi, X) is not None)
            checked += 1
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 4 PASS - skew-merged iff X-griddable for all "
        f"{checked} permutations of length <= 7 ({elapsed:.1f}s)"
    )


def test_criterion_05_geometric_vs_monotone_gap():
    assert find_gridding(P("3142"), X) is not None
    assert not geom_member(P("3142"), X)
    assert geom_member(P("524361"), X)
    print("\nACCEPTANCE CRITERION 5 PASS - 3142 in Grid(X) minus Geom(X); 524361 in Geom(X)")


def test_criterion_06_doubling_invariance():
    start = time.time()
    for m in (NON_PMM, X, V, ONE):
        doubled = double(m)
        for n in range(6):
            for pi in perms_of(n):
                assert geom_member(pi, m) == geom_member(pi, doubled)
    elapsed = time.time() - start
    print(
        "\nACCEPTANCE CRITERION 6 PASS - Geom(M) = Geom(M doubled) over 4 "
        f"matrices for all permutations of length <= 5 ({elapsed:.1f}s)"
    )


def test_criterion_07_consistency_criterion():
    start = time.time()
    griddings = 0
    for m in (X, V, FAN):
        signs = pmm_signs(m)
        for n in range(7):
            for pi in perms_of(n):
                for gp in all_griddings(pi, m):
                    griddings += 1
                    psi = consistency(local_orders(gp, signs))
                    r = realize(gp, signs)
                    assert (psi is None) == (r is None)
                    if r is not None:
                        assert r.gridded == gp  # bit-exact read-back
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 7 PASS - realize iff consistent on {griddings} "
        f"griddings over 3 matrices, re-reads exact ({elapsed:.1f}s)"
    )


def test_criterion_08_encoding_round_trip():
    start = time.time()
    signs = pmm_signs(FAN)
    words = 0
    for n in range(1, 7):
        for letters in itertools.product(FAN.nonzero_cells(), repeat=n):
            w = CellWord(FAN, letters)
            gp = decode_word(w, signs)
            again = encode_gridded(gp, signs)
            assert decode_word(again, signs) == gp
            words += 1
    fig_word = CellWord(FAN, ((2, 2), (1, 2), (3, 1), (3, 2), (3, 1), (1, 2), (2, 1)))
    gp = decode_word(fig_word, signs)
    assert gp.perm == P("6437251")
    lo = local_orders(gp, signs)
    assert lo.column_chains == ((1, 2), (4, 3), (7, 6, 5))
    assert lo.row_chains == ((7, 5, 3), (4, 1, 6, 2))
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 8 PASS - decode/encode identity on {words} cell "
        f"words; the worked 7-letter word reproduces 6437251 with its five chains ({elapsed:.1f}s)"
    )


def test_criterion_09_half_direction_decoder():
    start = time.time()
    words = 0
    for m in (X, V, FAN):
        signs = pmm_signs(m)
        decoder = derive_decoder(signs)
        cells = m.nonzero_cells()
        for n in range(1, 7):
            for letters in itertools.product(cells, repeat=n):
                w = CellWord(m, letters)
                idx = word_index_map(w, signs)
                g = inversion_graph(decode_word(w, signs).perm)
                for p in range(1, n + 1):
                    for q in range(p + 1, n + 1):
                        assert g.has_edge(idx[p - 1], idx[q - 1]) == (
                            (letters[p - 1], letters[q - 1]) in decoder
                        )
                words += 1
    # The position-to-index bijection above proves the isomorphism; spot
    # check the graph-level statement through the generic matcher too.
    for letters in itertools.product(X.nonzero_cells(), repeat=4):
        w = CellWord(X, letters)
        signs = pmm_signs(X)
        letter_graph = graph(
            4,
            [
                (p, q)
                for p in range(1, 5)
                for q in range(p + 1, 5)
                if (letters[p - 1], letters[q - 1]) in derive_decoder(signs)
            ],
        )
        assert find_isomorphism(letter_graph, inversion_graph(decode_word(w, signs).perm))
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 9 PASS - derived decoder letter graphs match "
        f"inversion graphs on {words} words over 3 matrices ({elapsed:.1f}s)"
    )


def test_criterion_10_class_geometrization_desk_scale(x_sweep_7):
    start = time.time()
    report, sweep_s = x_sweep_7
    t, u, r = X.cols, X.rows, 3
    bound_cols, bound_rows = t * (1 + 2 * u * r), u * (1 + 2 * t * r)
    assert (bound_cols, bound_rows) == (26, 26)

    skew_count = sum(1 for n in range(1, 8) for pi in perms_of(n) if is_skew_merged(pi))
    assert report.scanned == sum(
        len(list(itertools.permutations(range(1, n + 1)))) for n in range(1, 8)
    )
    # Every skew-merged permutation within the letter cap is processed.
    assert len(report.rows) + report.skipped_lettericity == skew_count
    for row in report.rows:
        assert is_skew_merged(row.perm)
        assert row.lettericity <= 3
        assert not row.note  # (a) geometrize succeeded
        assert row.cols <= bound_cols and row.rows <= bound_rows  # (b)
        assert row.oracle_ok is True  # (c) brute-force membership in the output matrix
        assert row.universal_ok is True  # (d) drawing witness inside the universal matrix
    assert report.ok
    elapsed = sweep_s + time.time() - start
    assert elapsed < 1800
    print(
        f"\nACCEPTANCE CRITERION 10 PASS - {len(report.rows)} skew-merged "
        f"permutations geometrized within {bound_cols}x{bound_rows}, oracle and "
        f"universal checks green ({elapsed:.1f}s)"
    )


def test_criterion_11_separation_distinguishing_bridge():
    start = time.time()
    pairs = 0
    for n in range(7):
        for pi in perms_of(n):
            g = inversion_graph(pi)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    from gridletters.graphs import distinguished

                    assert separated(pi, i, j) == distinguished(g, i, j)
                    pairs += 1
    elapsed = time.time() - start
    print(
        f"\nACCEPTANCE CRITERION 11 PASS - separated iff distinguished on "
        f"{pairs} entry pairs across all permutations of length <= 6 ({elapsed:.1f}s)"
    )
