"""Brute-force reference implementations, used only by tests and the
experiment command's --verify flag.

These deliberately share no search code with the modules they validate:
containment tests every index subset, the lettericity oracle enumerates
decoders and words outright, and the geometric membership oracle walks
every cell assignment and every consistent sign vector (found per connected
component of the column/row graph) with a plain cycle check.  Input
sizes are capped; past the caps the oracles refuse rather than crawl.
"""
from __future__ import annotations

import functools
import itertools

from . import graphs
from .gridding import GridMatrix, double
from .perm import Permutation

GEOM_ORACLE_MAX_LENGTH = 7


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
    for k in range(1, n + 1):
        for decoder in _decoder_reps(k):
            for word in itertools.product(range(k), repeat=n):
                edges = [
                    (i + 1, j + 1)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if (word[i], word[j]) in decoder
                ]
                if len(edges) != edge_count:
                    continue
                candidate = graphs.graph(n, edges)
                if graphs.find_isomorphism(candidate, g) is not None:
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
    work, sign_choices = m, _sign_vectors(m)
    if not sign_choices:  # m admits no signs: use its double
        work = double(m)
        sign_choices = _sign_vectors(work)
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
