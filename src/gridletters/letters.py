"""Letter graphs: decoding words into graphs and exact lettericity.

A lettering of a graph G is an alphabet, a decoder (a set of ordered letter
pairs), a word w, and a bijection iso from V(G) to word positions such that
i < j positions are adjacent in the decoded graph exactly when
(w(i), w(j)) is in the decoder.  The exact solver enumerates decoders up to
letter renaming and then backtracks over (position, letter, vertex)
placements; a vertex can sit at the next position with letter x only if its
adjacency into the placed set is exactly the set that the decoder forces
for letter x.  That single invariant is what makes the search feasible.

Whether a word exists for a given (alphabet size, decoder) depends only on
the isomorphism class of the graph, so `LetteringCache` keeps, per class,
how far the size search has gone and the first (size, decoder) that
succeeded; a later graph of the class reruns only that one word search.
`find_lettering` and `lettericity` are the same lookups on a fresh cache.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Optional, Sequence

from . import graphs
from .graphs import SimpleGraph

LETTER_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


@dataclasses.dataclass(frozen=True)
class Letterization:
    """A lettering of some graph, with the witnessing isomorphism.

    iso[v-1] is the word position encoding graph vertex v, so vertex v is
    encoded by the letter word[iso[v-1] - 1].
    """

    alphabet: tuple[str, ...]
    decoder: frozenset[tuple[str, str]]
    word: tuple[str, ...]
    iso: tuple[int, ...]

    def letter_of(self, vertex: int) -> str:
        return self.word[self.iso[vertex - 1] - 1]


def decode_letter_graph(
    alphabet: Sequence[str],
    decoder: Iterable[tuple[str, str]],
    word: Sequence[str],
) -> SimpleGraph:
    """Vertices 1..|w|, edge ij (i < j) iff (w(i), w(j)) is in the decoder.

    >>> g = decode_letter_graph("id", {("i", "d"), ("d", "d")}, "ididid")
    >>> sorted(g.edges)[:3]
    [(1, 2), (1, 4), (1, 6)]
    """
    alpha = set(alphabet)
    decoder = frozenset(decoder)
    for a, b in decoder:
        if a not in alpha or b not in alpha:
            raise ValueError(f"decoder pair ({a!r}, {b!r}) outside alphabet")
    for sym in word:
        if sym not in alpha:
            raise ValueError(f"word symbol {sym!r} outside alphabet")
    n = len(word)
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (word[i - 1], word[j - 1]) in decoder
    ]
    return graphs.graph(n, edges)


def complement_decoder(
    alphabet: Sequence[str], decoder: Iterable[tuple[str, str]]
) -> frozenset[tuple[str, str]]:
    """The decoder Sigma^2 minus D; decoding any word with it complements the graph."""
    decoder = frozenset(decoder)
    return frozenset(
        (a, b)
        for a in alphabet
        for b in alphabet
        if (a, b) not in decoder
    )


@functools.lru_cache(maxsize=8)
def canonical_decoders(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """All decoders over letters 0..k-1, one per letter-renaming orbit.

    Sorted by their sorted pair tuples; this order fixes the tie-breaking of
    the lettering search.  Practical for k <= 4 (the 4-letter case has 104 +
    ... representatives out of 65536 subsets); larger alphabets never arise
    for the graph orders this solver targets.
    """
    perms = list(itertools.permutations(range(k)))
    pair_list = [(i, j) for i in range(k) for j in range(k)]
    reps = []
    for mask in range(1 << (k * k)):
        pairs = frozenset(p for b, p in enumerate(pair_list) if mask >> b & 1)
        canonical = True
        for sig in perms:
            mapped = frozenset((sig[i], sig[j]) for i, j in pairs)
            if sorted(mapped) < sorted(pairs):
                canonical = False
                break
        if canonical:
            reps.append(pairs)
    reps.sort(key=sorted)
    return tuple(reps)


def _twin_classes(g: SimpleGraph) -> tuple[int, ...]:
    """Class id per vertex; twins (true or false) are interchangeable."""
    n = g.order
    adj = graphs.adjacency_masks(g)
    ids = list(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            strip = ~((1 << u) | (1 << v))
            same_outside = (adj[u] & strip) == (adj[v] & strip)
            same_mutual = ((adj[u] >> v) & 1) == ((adj[v] >> u) & 1)
            if same_outside and same_mutual:
                ids[v] = min(ids[v], ids[u])
    return tuple(ids)


def _decoder_letter_reps(k: int, decoder: frozenset[tuple[int, int]]) -> tuple[int, ...]:
    """Least representative per orbit of letters under decoder automorphisms.

    The automorphisms form a group, so the orbit of x is {sig[x]}.
    """
    auts = [
        sig
        for sig in itertools.permutations(range(k))
        if frozenset((sig[i], sig[j]) for i, j in decoder) == decoder
    ]
    return tuple(min(sig[x] for sig in auts) for x in range(k))


def _search_word(
    g: SimpleGraph, k: int, decoder: frozenset[tuple[int, int]]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Least word over letters 0..k-1 (using all of them) whose letter graph
    is isomorphic to g, together with iso[v-1] = position of vertex v."""
    n = g.order
    adj = graphs.adjacency_masks(g)
    twin = _twin_classes(g)
    orbit = graphs.vertex_orbits(g)
    letter_rep = _decoder_letter_reps(k, decoder)
    feeds = [[x for x in range(k) if (y, x) in decoder] for y in range(k)]
    all_letters = (1 << k) - 1

    word: list[int] = []
    placement: list[int] = []
    failed: set[tuple[int, tuple[int, ...], int]] = set()

    def extend(placed: int, required: tuple[int, ...], used: int, p: int) -> bool:
        if p == n:
            return used == all_letters
        missing = k - bin(used).count("1")
        if n - p < missing:
            return False
        key = (placed, required, used)
        if key in failed:
            return False
        for x in range(k):
            if p == 0 and letter_rep[x] != x:
                continue
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
                if extend(placed | 1 << v, tuple(new_required), used | 1 << x, p + 1):
                    return True
                word.pop()
                placement.pop()
        failed.add(key)
        return False

    if not extend(0, (0,) * k, 0, 0):
        return None
    iso = [0] * n
    for pos, v in enumerate(placement):
        iso[v] = pos + 1
    return tuple(word), tuple(iso)


@dataclasses.dataclass
class _ClassRecord:
    """Search progress for one isomorphism class: every size up to `tried`
    has no witness; `witness` is the first succeeding (size, decoder)."""

    rep: SimpleGraph
    tried: int = 0
    witness: Optional[tuple[int, frozenset[tuple[int, int]]]] = None


class LetteringCache:
    """Least letterings, with the search shared across isomorphic graphs.

    Classes are bucketed by `graphs.invariant_key` and confirmed with
    `graphs.find_isomorphism`.  Answers are exactly those of a search on the
    graph itself: a known witness (size, decoder) is rerun on the queried
    graph, so its word and iso are the graph's own.  A cache is plain
    per-caller state; share one only within one thread.
    """

    def __init__(self):
        self._buckets: dict[tuple, list[_ClassRecord]] = {}

    def _record(self, g: SimpleGraph) -> _ClassRecord:
        bucket = self._buckets.setdefault(graphs.invariant_key(g), [])
        for rec in bucket:
            if graphs.find_isomorphism(g, rec.rep) is not None:
                return rec
        rec = _ClassRecord(g)
        bucket.append(rec)
        return rec

    def _resume(
        self, g: SimpleGraph, rec: _ClassRecord, k: int
    ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        # Continue the ascending size search of g's class, up to k letters.
        for size in range(rec.tried + 1, min(k, g.order) + 1):
            for decoder in canonical_decoders(size):
                found = _search_word(g, size, decoder)
                if found is not None:
                    rec.witness = (size, decoder)
                    return found
            rec.tried = size
        return None

    def find_lettering(self, g: SimpleGraph, k: int) -> Optional[Letterization]:
        """Same contract and result as the module-level `find_lettering`."""
        if k < 1:
            raise ValueError("need k >= 1")
        if g.order == 0:
            return Letterization((), frozenset(), (), ())
        rec = self._record(g)
        if rec.witness is None:
            found = self._resume(g, rec, k)
            if found is None:
                return None
        elif rec.witness[0] > k:
            return None
        else:
            found = _search_word(g, *rec.witness)
        size, decoder = rec.witness
        word_ints, iso = found
        return Letterization(
            alphabet=tuple(LETTER_SYMBOLS[:size]),
            decoder=frozenset((LETTER_SYMBOLS[i], LETTER_SYMBOLS[j]) for i, j in decoder),
            word=tuple(LETTER_SYMBOLS[i] for i in word_ints),
            iso=iso,
        )

    def lettericity(self, g: SimpleGraph) -> int:
        """Same result as the module-level `lettericity`."""
        if g.order == 0:
            return 0
        rec = self._record(g)
        if rec.witness is None:
            self._resume(g, rec, g.order)
        assert rec.witness is not None
        return rec.witness[0]


def find_lettering(g: SimpleGraph, k: int) -> Optional[Letterization]:
    """A lettering of g over at most k letters, or None if none exists.

    Alphabet sizes are tried in increasing order and, per size, decoders in
    their canonical order with words lexicographically, so the result is the
    least (decoder, word) witness and its alphabet size is minimal.
    """
    return LetteringCache().find_lettering(g, k)


def lettericity(g: SimpleGraph) -> int:
    """Least k such that g admits a k-lettering.

    Every graph on n >= 1 vertices has an n-lettering, so the ascending
    search always terminates.

    >>> lettericity(graphs.family("mK2", 2))
    2
    """
    return LetteringCache().lettericity(g)


def verify_letterization(g: SimpleGraph, lz: Letterization) -> bool:
    """Re-decode and check that iso is a graph isomorphism onto the letter graph."""
    if g.order != len(lz.word) or sorted(lz.iso) != list(range(1, g.order + 1)):
        return False
    decoded = decode_letter_graph(lz.alphabet, lz.decoder, lz.word)
    for u in range(1, g.order + 1):
        for v in range(u + 1, g.order + 1):
            if g.has_edge(u, v) != decoded.has_edge(lz.iso[u - 1], lz.iso[v - 1]):
                return False
    return True


def parse_decoder(text: str) -> frozenset[tuple[str, str]]:
    """One "a b" ordered pair per line."""
    pairs = set()
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad decoder line {ln!r}")
        pairs.add((parts[0], parts[1]))
    return frozenset(pairs)


def format_decoder(decoder: Iterable[tuple[str, str]]) -> str:
    return "\n".join(f"{a} {b}" for a, b in sorted(decoder)) + "\n"


def parse_word(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def format_word(word: Sequence[str]) -> str:
    return " ".join(word)
