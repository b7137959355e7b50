"""Letter graphs: decoding words into graphs and exact lettericity.

A lettering of a graph G is an alphabet, a decoder (a set of ordered letter
pairs), a word w, and a bijection iso from V(G) to word positions such that
i < j positions are adjacent in the decoded graph exactly when
(w(i), w(j)) is in the decoder.  The exact searches backtrack over
(position, letter, vertex) placements on one invariant: a vertex placed with
letter x sees each earlier letter-y class whole or not at all, as the
decoder pair (y, x) says.  `_has_lettering` decides whether at most k
letters suffice, fixing each pair when a placement first tests it; only at
the least such size does `_search_word` try decoders, taken lazily and in
order from `_least_decoders` up to the first with a word: the least witness
decoder.  Its word is the search's first success in (letter ascending,
vertex ascending) order: it depends on the vertex labels and need not be
the least word.

Both searches keep vertex sets as integer masks: per letter, the vertices
that may take it next.  These masks only narrow, so a child computes its
own from its parent's with one AND per letter, and the parent drops a child
that leaves an unplaced vertex fitting no letter before calling it.  Both
read one board per query that searches: the graph's own adjacency masks
(`SimpleGraph.masks`), its twin classes and its orbits' least vertices.

`LetteringCache` keeps, per isomorphism class (one `graphs.canonical_form`
certificate), the sizes known to fail, the decided size and the witness
decoder; a later graph of the class reruns only that one word search.
Nothing else outlives a query, so two equal queries do equal work.
`find_lettering` and `lettericity` are the same lookups on a fresh cache.
"""
from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import operator
from typing import Iterable, Iterator, Optional, Sequence

from . import graphs
from .graphs import SimpleGraph

LETTER_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"
_Board = tuple[tuple[int, ...], tuple[int, ...], int]  # what `_board` returns


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


def _least_decoders(k: int) -> Iterator[frozenset[tuple[int, int]]]:
    """The decoders over letters 0..k-1 that are least in their renaming
    orbits, in the order of their sorted pair tuples (orderly generation:
    R. C. Read, "Every one a winner", 1978).

    Children add one pair above all their parent's, in ascending order, so
    the pre-order from the empty decoder is sorted.  Keeping only least nodes
    loses none, as the rest R of a least decoder D less its greatest pair m
    is least: were s(R) < R for a renaming s, differing first at q in s(R),
    then R, as large as s(R) and equal to it below q, has a pair above q, so
    m > q; and s(m) if below q, else q, is the first pair where s(D) and D
    differ and lies in s(D), so s(D) < D.
    """
    # Pair (i, j) is bit n-1 - (i*k + j) of a mask, so of two sets of equal
    # size (orbit members are), the one less by sorted pairs has the greater
    # mask; moves[b][r] is the bit of pair b under renaming r.
    n = k * k
    pairs = [(b // k, b % k) for b in range(n)]
    bits = [1 << (n - 1 - b) for b in range(n)]
    renamings = list(itertools.permutations(range(k)))
    moves = [[bits[s[i] * k + s[j]] for s in renamings] for i, j in pairs]
    chosen: list[tuple[int, int]] = []

    def grow(mask: int, images: list[int], first: int) -> Iterator[frozenset[tuple[int, int]]]:
        yield frozenset(chosen)
        for b in range(first, n):
            child_images = list(map(operator.or_, images, moves[b]))
            if max(child_images) == mask | bits[b]:
                chosen.append(pairs[b])
                yield from grow(mask | bits[b], child_images, b + 1)
                chosen.pop()

    yield from grow(0, [0] * len(renamings), 0)


def canonical_decoders(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    """All decoders over letters 0..k-1, one per renaming orbit: the least,
    in sorted-pair order, as the lettering search walks them lazily.  The
    whole tuple is practical for k <= 4 (3,044 decoders of 65,536 subsets)."""
    return tuple(_least_decoders(k))


def _board(g: SimpleGraph) -> _Board:
    """All both searches read of g: its masks; per vertex, the mask of its
    twin class (twins, true or false, are interchangeable); and the mask of
    the least vertex of each automorphism orbit, the only ones a first
    placement needs to try.  Twin classes group equal open (false twins) or
    closed (true twins) neighbourhoods, and no open one is a closed one; no
    vertex has twins of both kinds (they would be twins, adjacent and not)."""
    adj = g.masks
    groups: dict[int, int] = collections.defaultdict(int)
    for v, a in enumerate(adj):
        groups[a] |= 1 << v
        groups[a | 1 << v] |= 1 << v
    orbit = graphs.vertex_orbits(g)
    same = tuple(groups[a] | groups[a | 1 << v] for v, a in enumerate(adj))
    return adj, same, sum(1 << v for v, o in enumerate(orbit) if o == v)


def _search_word(
    board: _Board, k: int, decoder: frozenset[tuple[int, int]]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A word over letters 0..k-1 whose letter graph is isomorphic to g,
    together with iso[v-1] = position of vertex v: the first success of the
    search in (letter ascending, vertex ascending) order, which depends on
    the vertex labels.  At k = lett(g), the one size the witness search asks,
    every such word uses all k letters.

    fit[x] masks the vertices whose placed neighbours are exactly the
    placed vertices that a vertex placed next with letter x must see.
    Placing u with letter y keeps in fit[x] the neighbours of u if (y, x) is
    in the decoder and the non-neighbours otherwise, so the moves of letter
    x are the free bits of fit[x].  The search below a node reads only the
    placed set and fit, so the pair is its memo key.  A child whose fit
    leaves an unplaced vertex fitting no letter is dropped before the call:
    it builds no memo key and is never stored."""
    adj, same, first = board
    n = len(adj)
    everyone = (1 << n) - 1
    # Placing v with letter y ANDs cut[y][v] into fit, letter by letter.
    ins = [[(y, x) in decoder for x in range(k)] for y in range(k)]
    outs = [[not d for d in row] for row in ins]
    cut = [[tuple(adj[v] if d else ~adj[v] for d in row) for v in range(n)] for row in ins]
    path: list[tuple[int, int]] = []  # (letter, vertex) per position
    failed: set[tuple[int, tuple[int, ...]]] = set()

    def extend(placed: int, fit: tuple[int, ...]) -> bool:
        free = everyone ^ placed
        if not free:
            return True
        key = (placed, fit)
        if key in failed:
            return False
        for x in range(k):
            # One vertex per orbit first, one per twin class and letter.
            moves = fit[x] & free if placed else fit[x] & first
            # A child's fit[z] keeps adj[v] if (x, z) is in the decoder, and
            # ~adj[v] if out: its OR is adj[v] & into | ~adj[v] & out.
            into = functools.reduce(operator.or_, itertools.compress(fit, ins[x]), 0)
            out = functools.reduce(operator.or_, itertools.compress(fit, outs[x]), 0)
            while moves:
                v = (moves & -moves).bit_length() - 1
                moves &= ~same[v]
                # An unplaced vertex that fits no letter now fits none later.
                if (free ^ 1 << v) & ~(adj[v] & into | ~adj[v] & out):
                    continue
                path.append((x, v))
                if extend(placed | 1 << v, tuple(map(operator.and_, fit, cut[x][v]))):
                    return True
                path.pop()
        failed.add(key)
        return False

    if not extend(0, (everyone,) * k):
        return None
    iso = [0] * n
    for pos, (_, v) in enumerate(path, start=1):
        iso[v] = pos
    return tuple(x for x, _ in path), tuple(iso)


def _has_lettering(board: _Board, k: int) -> bool:
    """Whether g has a lettering over at most k letters, with no decoder
    fixed up front: letters enter in order of first occurrence, and the first
    placement that tests a pair (y, x) fixes it.  Classes only grow and pairs
    only get fixed, so a vertex that fits no letter now fits none later.

    full[y] and none[y] mask the vertices adjacent to all and to none of the
    letter-y class (every vertex, while the class is empty).  Class y
    constrains letter x to full[y] if (y, x) is fixed in the decoder, to
    none[y] if fixed out, and to either if open; cans[x] is the AND of these
    over the classes, and a vertex's bit of full[y] fixes an open pair.
    A child narrows its parent's cans: fixing (y, x) ANDs full[y] or none[y]
    into cans[x], and growing class x ANDs its new full[x] | none[x] into
    every cans[z].  Those halves are disjoint once the class is nonempty, so
    a cans[z] already inside one stays inside it.  The parent skips a child
    that leaves an unplaced vertex outside every live cans: it would only
    fail, so it builds no memo key and is never stored.  A memo key
    (placed, full, none, fixed, inside) fixes cans and `used` too, as letter
    y has a class exactly when full[y] is not everyone."""
    adj, same, first = board
    n = len(adj)
    everyone = (1 << n) - 1
    non = [everyone ^ a for a in adj]
    pair = [[1 << (y * k + x) for x in range(k)] for y in range(k)]
    failed: set[tuple[int, tuple[int, ...], tuple[int, ...], int, int]] = set()

    def extend(placed, used, full, none, fixed, inside, cans) -> bool:
        # Letters 0..used-1 have classes; bit y * k + x of `fixed` marks the
        # pair (y, x) fixed, and of `inside`, in the decoder.
        if placed == everyone:
            return True
        key = (placed, full, none, fixed, inside)
        if key in failed:
            return False
        for x in range(min(used + 1, k)):
            # One vertex per orbit first, one per twin class and letter.
            can = cans[x] & ~placed if placed else cans[x] & first
            opened = [(full[y], none[y], pair[y][x]) for y in range(used) if not fixed & pair[y][x]]
            tested = fixed | sum(bit for _, _, bit in opened)
            live = min(used + 1 + (x == used), k)
            rest = functools.reduce(operator.or_, cans[:x] + cans[x + 1 : live], 0)
            while can:
                low = can & -can
                v = low.bit_length() - 1
                can &= ~same[v]
                i, pinned = inside, everyone
                for full_y, none_y, bit in opened:
                    if full_y & low:
                        i |= bit
                        pinned &= full_y
                    else:
                        pinned &= none_y
                fx, nx = full[x] & adj[v], none[x] & non[v]
                both = fx | nx
                cx = cans[x] & both & pinned
                if (placed | low | both & rest | cx) != everyone:
                    continue
                child = [c & both for c in cans]
                child[x] = cx
                if extend(
                    placed | low,
                    used + (x == used),
                    full[:x] + (fx,) + full[x + 1 :],
                    none[:x] + (nx,) + none[x + 1 :],
                    tested,
                    i,
                    tuple(child),
                ):
                    return True
        failed.add(key)
        return False

    return extend(0, 0, (everyone,) * k, (everyone,) * k, 0, 0, (everyone,) * k)


@dataclasses.dataclass
class _ClassRecord:
    """Search progress for one isomorphism class: no lettering has `tried`
    or fewer letters; `size` is the lettericity once decided, and `decoder`
    the least witness decoder at that size once walked.  The checks start at
    size 0, which only the empty graph has, so it needs no case of its own."""

    tried: int = -1
    size: Optional[int] = None
    decoder: Optional[frozenset[tuple[int, int]]] = None


class LetteringCache:
    """Letterings with the least decoder, the search shared across
    isomorphic graphs.

    Classes are keyed by the certificate of `graphs.canonical_form`, whose
    search also gives the vertex orbits that prune the lettering searches.
    The size is decided first, by ascending `_has_lettering` checks; only a
    witness query then walks the least decoders of that one size.  A query
    builds the queried graph's board only to search it, once at most.
    Answers are exactly those of a search on the graph itself: a known
    witness decoder is rerun on the queried graph, so its word and iso are
    the graph's own.  A cache is plain per-caller state; share one only
    within one thread.
    """

    def __init__(self):
        self._classes: dict[tuple[int, ...], _ClassRecord] = collections.defaultdict(_ClassRecord)

    def _record(self, g: SimpleGraph) -> _ClassRecord:
        return self._classes[graphs.canonical_form(g)[0]]

    def _decide(self, g: SimpleGraph, k: int) -> tuple[_ClassRecord, Optional[_Board]]:
        # g's class record, checked up to size k, and the board the checks read.
        rec, board, top = self._record(g), None, min(k, g.order)
        if rec.size is None and rec.tried < top:
            board = _board(g)
            for size in range(rec.tried + 1, top + 1):
                if _has_lettering(board, size):
                    rec.size = size
                    break
                rec.tried = size
        return rec, board

    def find_lettering(self, g: SimpleGraph, k: int) -> Optional[Letterization]:
        """Same contract and result as the module-level `find_lettering`."""
        if k < 1:
            raise ValueError("need k >= 1")
        rec, board = self._decide(g, k)
        size = rec.size
        if size is None or size > k:
            return None
        board = board or _board(g)
        # No smaller size has a lettering, so the first decoder of this size
        # with a word is the least witness decoder; the empty one is a witness.
        for decoder in _least_decoders(size) if rec.decoder is None else (rec.decoder,):
            found = _search_word(board, size, decoder)
            if found is not None:
                rec.decoder = decoder
                break
        word_ints, iso = found
        return Letterization(
            alphabet=tuple(LETTER_SYMBOLS[:size]),
            decoder=frozenset((LETTER_SYMBOLS[i], LETTER_SYMBOLS[j]) for i, j in rec.decoder),
            word=tuple(LETTER_SYMBOLS[i] for i in word_ints),
            iso=iso,
        )

    def lettericity(self, g: SimpleGraph) -> int:
        """Same result as the module-level `lettericity`."""
        return self._decide(g, g.order)[0].size


def find_lettering(g: SimpleGraph, k: int) -> Optional[Letterization]:
    """A lettering of g over at most k letters, or None if none exists.

    The alphabet size is the lettericity, decided first; at that size
    decoders are tried in their canonical order, so the decoder is the least
    one of minimal size.  The word is the first success of the word search in
    (letter ascending, vertex ascending) order, so it depends on the vertex
    labels of g and need not be the least word for that decoder.
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


def format_decoder(decoder: Iterable[tuple[str, str]]) -> str:
    return "\n".join(f"{a} {b}" for a, b in sorted(decoder)) + "\n"


def format_word(word: Sequence[str]) -> str:
    return " ".join(word)
