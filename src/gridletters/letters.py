"""Letter graphs: decoding words into graphs and exact lettericity.

A lettering of a graph G is an alphabet, a decoder (a set of ordered letter
pairs), a word w, and a bijection iso from V(G) to word positions such that
i < j positions are adjacent in the decoded graph exactly when
(w(i), w(j)) is in the decoder.  The exact searches backtrack over
(position, letter, vertex) placements on one invariant: a vertex placed with
letter x sees each earlier letter-y class whole or not at all, as the
decoder pair (y, x) says.  `_has_lettering` decides whether at most k
letters suffice, fixing each pair when a placement first tests it; only at
the least such size does `_search_word` walk the canonical decoders, so its
first success is the least (decoder, word) witness.

`LetteringCache` keeps, per isomorphism class, the sizes known to fail, the
decided size and the witness decoder; a later graph of the class reruns only
that one word search.  `find_lettering` and `lettericity` are the same
lookups on a fresh cache.
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
    the lettering search.  Practical for k <= 4 (the 4-letter case has 3,044
    representatives out of 65,536 subsets); the witness search walks them
    only at the decided lettericity.
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


def _search_word(
    g: SimpleGraph, k: int, decoder: frozenset[tuple[int, int]]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Least word over letters 0..k-1 whose letter graph is isomorphic to g,
    together with iso[v-1] = position of vertex v.  At k = lett(g), the one
    size the witness search asks, every such word uses all k letters."""
    n = g.order
    adj = graphs.adjacency_masks(g)
    twin = _twin_classes(g)
    orbit = graphs.vertex_orbits(g)
    feeds = [[x for x in range(k) if (y, x) in decoder] for y in range(k)]

    word: list[int] = []
    placement: list[int] = []
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def extend(placed: int, required: tuple[int, ...], p: int) -> bool:
        if p == n:
            return True
        key = (placed, required)
        if key in failed:
            return False
        # An unplaced vertex that fits no letter now fits none later.
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


def _has_lettering(g: SimpleGraph, k: int) -> bool:
    """Whether g has a lettering over at most k letters, with no decoder
    fixed up front: letters enter in order of first occurrence, and the first
    placement that tests a pair (y, x) fixes it.  Classes only grow and pairs
    only get fixed, so a vertex that fits no letter now fits none later."""
    n = g.order
    adj = graphs.adjacency_masks(g)
    twin = _twin_classes(g)
    orbit = graphs.vertex_orbits(g)
    everyone = (1 << n) - 1
    failed: set[tuple[tuple[int, ...], int, int]] = set()

    def extend(placed: int, classes: tuple[int, ...], fixed: int, inside: int) -> bool:
        # classes[y] holds the vertices placed with letter y; bit y * k + x of
        # `fixed` marks the pair (y, x) fixed, and of `inside`, in the decoder.
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


@dataclasses.dataclass
class _ClassRecord:
    """Search progress for one isomorphism class: no lettering has `tried`
    or fewer letters; `size` is the lettericity once decided, and `decoder`
    the least witness decoder at that size once walked."""

    rep: SimpleGraph
    tried: int = 0
    size: Optional[int] = None
    decoder: Optional[frozenset[tuple[int, int]]] = None


class LetteringCache:
    """Least letterings, with the search shared across isomorphic graphs.

    Classes are bucketed by `graphs.invariant_key` and confirmed with
    `graphs.find_isomorphism`.  The size is decided first, by ascending
    `_has_lettering` checks; only a witness query then walks the canonical
    decoders of that one size.  Answers are exactly those of a search on the
    graph itself: a known witness decoder is rerun on the queried graph, so
    its word and iso are the graph's own.  A cache is plain per-caller
    state; share one only within one thread.
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

    def _decide(self, g: SimpleGraph, rec: _ClassRecord, k: int) -> bool:
        # Whether lett(g) <= k, continuing the ascending checks of g's class.
        if rec.size is None:
            for size in range(rec.tried + 1, min(k, g.order) + 1):
                if _has_lettering(g, size):
                    rec.size = size
                    break
                rec.tried = size
        return rec.size is not None and rec.size <= k

    def find_lettering(self, g: SimpleGraph, k: int) -> Optional[Letterization]:
        """Same contract and result as the module-level `find_lettering`."""
        if k < 1:
            raise ValueError("need k >= 1")
        if g.order == 0:
            return Letterization((), frozenset(), (), ())
        rec = self._record(g)
        if not self._decide(g, rec, k):
            return None
        size = rec.size
        if rec.decoder is None:
            # No smaller size has a lettering, so the first decoder of this
            # size with a word is the least witness.
            for decoder in canonical_decoders(size):
                found = _search_word(g, size, decoder)
                if found is not None:
                    rec.decoder = decoder
                    break
        else:
            found = _search_word(g, size, rec.decoder)
        word_ints, iso = found
        return Letterization(
            alphabet=tuple(LETTER_SYMBOLS[:size]),
            decoder=frozenset((LETTER_SYMBOLS[i], LETTER_SYMBOLS[j]) for i, j in rec.decoder),
            word=tuple(LETTER_SYMBOLS[i] for i in word_ints),
            iso=iso,
        )

    def lettericity(self, g: SimpleGraph) -> int:
        """Same result as the module-level `lettericity`."""
        if g.order == 0:
            return 0
        rec = self._record(g)
        self._decide(g, rec, g.order)
        assert rec.size is not None
        return rec.size


def find_lettering(g: SimpleGraph, k: int) -> Optional[Letterization]:
    """A lettering of g over at most k letters, or None if none exists.

    The alphabet size is the lettericity, decided first; at that size
    decoders are tried in their canonical order and words lexicographically,
    so the result is the least (decoder, word) witness of minimal size.
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
