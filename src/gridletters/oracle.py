"""Brute-force reference implementations, used only by tests and the
experiment command's --verify flag.

These deliberately share no search code with the modules they validate:
containment tests every index subset, isomorphism backtracks over plain
bijections, lettericity enumerates decoders and words outright, and
geometric membership walks every cell assignment and every consistent sign
vector (found per connected component of the column/row graph) with a
plain cycle check.  Past their input caps the oracles refuse, not crawl.
"""
from __future__ import annotations

import functools
import itertools
from typing import Optional

from . import graphs
from .gridding import GridMatrix, double
from .perm import Permutation

GEOM_ORACLE_MAX_LENGTH = 9


def containment_oracle(pi: Permutation, sigma: Permutation) -> bool:
    """Order-isomorphic subsequence test over every index subset."""
    if len(pi) > 9:
        raise ValueError("containment oracle capped at length 9")
    k = len(sigma)
    if k > len(pi):
        return False
    svals = sigma.values
    for subset in itertools.combinations(range(1, len(pi) + 1), k):
        vals = [pi.at(i) for i in subset]
        if all(
            (vals[a] < vals[b]) == (svals[a] < svals[b])
            for a in range(k)
            for b in range(a + 1, k)
        ):
            return True
    return k == 0


def isomorphism_oracle(
    g: graphs.SimpleGraph, h: graphs.SimpleGraph, pin: Optional[tuple[int, int]] = None
) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection g -> h as m[u-1] = image of u, or
    None, by plain backtracking once the sorted degrees agree: g's vertices
    in order, each tried against every unused vertex of h of its degree.
    With pin=(u, v) only bijections mapping u to v are considered."""
    if max(g.order, h.order) > 12:
        raise ValueError("isomorphism oracle capped at order 12")
    n = g.order
    gm, hm = g.masks, h.masks
    degree = [m.bit_count() for m in hm]
    if sorted(degree) != sorted(m.bit_count() for m in gm):
        return None
    mapping: list[int] = []

    def extend(u: int, used: int) -> bool:
        if u == n:
            return True
        # v fits if its neighbours among the used are the images of u's.
        want = sum(1 << x for w, x in enumerate(mapping) if gm[u] >> w & 1)
        for v in range(n):
            if used >> v & 1 or degree[v] != gm[u].bit_count() or hm[v] & used != want:
                continue
            if pin is not None and pin[0] == u + 1 and pin[1] != v + 1:
                continue
            mapping.append(v)
            if extend(u + 1, used | 1 << v):
                return True
            mapping.pop()
        return False

    return tuple(v + 1 for v in mapping) if extend(0, 0) else None


# Cached: it scans all 2^(k^2) decoders, and the oracle reads it per size and graph.
@functools.lru_cache(maxsize=8)
def _decoder_reps(k: int) -> tuple[frozenset[tuple[int, int]], ...]:
    perms = list(itertools.permutations(range(k)))
    reps = []
    for mask in range(1 << (k * k)):
        pairs = frozenset(
            (i, j) for i in range(k) for j in range(k) if mask >> (i * k + j) & 1
        )
        if all(
            sorted(pairs) <= sorted(frozenset((s[i], s[j]) for i, j in pairs))
            for s in perms
        ):
            reps.append(pairs)
    return tuple(reps)


def lettericity_oracle(g: graphs.SimpleGraph) -> int:
    """Minimal k by unpruned enumeration of decoders (one per renaming
    orbit) and all words, with an isomorphism check per candidate."""
    if g.order > 6:
        raise ValueError("lettericity oracle capped at order 6")
    if g.order == 0:
        return 0
    n = g.order
    edge_count = len(g.edges)
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(1, n + 1):
        for decoder in _decoder_reps(k):
            for word in itertools.product(range(k), repeat=n):
                edges = [(i + 1, j + 1) for i, j in pairs if (word[i], word[j]) in decoder]
                if len(edges) != edge_count:
                    continue
                candidate = graphs.graph(n, edges)
                if isomorphism_oracle(candidate, g) is not None:
                    return k
    raise AssertionError("every graph admits an n-lettering")


def _sign_vectors(m: GridMatrix) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    # Every sign vector consistent with the nonzero entries, in product order
    # (columns then rows, +1 before -1).  An entry ties its row's sign to its
    # column's, so one sign per connected component of the column/row graph
    # (columns 0..t-1, rows t..t+u-1) fixes the rest: 2^components vectors,
    # or none once a tie conflicts.
    t, u = m.cols, m.rows
    ties: list[list[tuple[int, int]]] = [[] for _ in range(t + u)]
    for k, col in enumerate(m.entries):
        for l, e in enumerate(col):
            if e:
                ties[k].append((t + l, e))
                ties[t + l].append((k, e))
    sign = [0] * (t + u)
    components: list[list[int]] = []
    for root in range(t + u):
        if not sign[root]:
            sign[root] = 1
            components.append([root])
            for a in components[-1]:  # grows while it is walked
                for b, e in ties[a]:
                    if not sign[b]:
                        sign[b] = sign[a] * e
                        components[-1].append(b)
                    elif sign[b] != sign[a] * e:
                        return []
    vectors = []
    for flips in itertools.product((1, -1), repeat=len(components)):
        s = sign[:]
        for flip, component in zip(flips, components):
            for a in component:
                s[a] *= flip
        vectors.append((tuple(s[:t]), tuple(s[t:])))
    return sorted(vectors, reverse=True)


@functools.lru_cache(maxsize=1024)
def _searched(m: GridMatrix) -> tuple[GridMatrix, tuple]:
    # m, or its double when m admits no signs, and its sign vectors: a sweep
    # asks the oracle about the same few output matrices hundreds of times
    # (the n = 6 verified X sweep: 0.15 s with this cache, 0.17 s without).
    vectors = _sign_vectors(m)
    if not vectors:
        m = double(m)
        vectors = _sign_vectors(m)
    return m, tuple(vectors)


def _has_cycle(n: int, edges: set[tuple[int, int]]) -> bool:
    succ: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for a, b in edges:
        succ[a].append(b)
    state = [0] * (n + 1)  # 0 new, 1 active, 2 done

    def visit(v: int) -> bool:
        state[v] = 1
        for w in succ[v]:
            if state[w] == 1:
                return True
            if state[w] == 0 and visit(w):
                return True
        state[v] = 2
        return False

    return any(state[v] == 0 and visit(v) for v in range(1, n + 1))


def geom_member_oracle(pi: Permutation, m: GridMatrix) -> bool:
    """Membership in Geom(m) by enumerating every cell assignment and every
    candidate sign vector, accepting iff some combination is acyclic."""
    if len(pi) > GEOM_ORACLE_MAX_LENGTH:
        raise ValueError(f"geometric membership oracle capped at length {GEOM_ORACLE_MAX_LENGTH}")
    work, sign_choices = _searched(m)
    t, u = work.cols, work.rows
    n = len(pi)
    if n == 0:
        return True
    pos_of = {v: i for i, v in enumerate(pi.values, start=1)}

    def rows_extend(cols: tuple[int, ...], rows: list[int], v: int) -> bool:
        # rows[w-1] is the row of value w for w < v; extend with all rows
        # >= rows[-1], checking the new value against earlier ones.
        if v > n:
            return any(
                not _has_cycle(n, _order_edges(cols, rows, cs, rs))
                for cs, rs in sign_choices
            )
        start = rows[-1] if rows else 1
        for l in range(start, u + 1):
            i = pos_of[v]
            e = work.entries[cols[i - 1] - 1][l - 1]
            if e == 0:
                continue
            ok = True
            for w in range(1, v):
                j = pos_of[w]
                if cols[j - 1] == cols[i - 1] and rows[w - 1] == l:
                    lo, hi = (j, i) if j < i else (i, j)
                    want = 1 if pi.at(lo) < pi.at(hi) else -1
                    if e != want:
                        ok = False
                        break
            if ok:
                rows.append(l)
                if rows_extend(cols, rows, v + 1):
                    return True
                rows.pop()
        return False

    def _order_edges(cols, rows, cs, rs) -> set[tuple[int, int]]:
        edges = set()
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if cols[i - 1] == cols[j - 1]:
                    edges.add((i, j) if cs[cols[i - 1] - 1] == 1 else (j, i))
        for v in range(1, n + 1):
            for w in range(v + 1, n + 1):
                if rows[v - 1] == rows[w - 1]:
                    i, j = pos_of[v], pos_of[w]
                    edges.add((i, j) if rs[rows[v - 1] - 1] == 1 else (j, i))
        return edges

    for cols in itertools.combinations_with_replacement(range(1, t + 1), n):
        if rows_extend(cols, [], 1):
            return True
    return False
