"""Finite simple graphs on vertex sets {1, ..., n}.

Everything here is immutable: a graph is an order together with a frozenset
of normalized edge pairs (u, v) with u < v.  The isomorphism search is a
plain backtracker with degree pruning, intended for orders up to ~12.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Iterable, Optional, Sequence


@dataclasses.dataclass(frozen=True)
class SimpleGraph:
    order: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        for u, v in self.edges:
            if not (1 <= u < v <= self.order):
                raise ValueError(f"bad edge ({u}, {v}) for order {self.order}")

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

    def neighbors(self, u: int) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e if u in e and v != u)

    def __str__(self) -> str:
        return format_graph(self)


def graph(order: int, edges: Iterable[tuple[int, int]] = ()) -> SimpleGraph:
    """Build a SimpleGraph, normalizing edge pairs.

    >>> graph(3, [(2, 1), (2, 3)]).edges == frozenset({(1, 2), (2, 3)})
    True
    """
    normalized = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        normalized.add((min(u, v), max(u, v)))
    return SimpleGraph(order, frozenset(normalized))


@functools.lru_cache(maxsize=4096)
def adjacency_masks(g: SimpleGraph) -> tuple[int, ...]:
    """Bitmask of neighbors per vertex; bit (v-1) set in masks[u-1] iff u ~ v."""
    masks = [0] * g.order
    for u, v in g.edges:
        masks[u - 1] |= 1 << (v - 1)
        masks[v - 1] |= 1 << (u - 1)
    return tuple(masks)


def invariant_key(g: SimpleGraph) -> tuple[int, int, tuple[int, ...]]:
    """Order, edge count and sorted degrees: equal for isomorphic graphs.

    >>> invariant_key(family("path", 3))
    (3, 2, (1, 1, 2))
    """
    degrees = sorted(bin(mask).count("1") for mask in adjacency_masks(g))
    return g.order, len(g.edges), tuple(degrees)


def complement(g: SimpleGraph) -> SimpleGraph:
    """Same vertices, complementary edge set.

    >>> complement(family("mK2", 2)) == family("cycle", 4)
    False
    """
    edges = {
        (u, v)
        for u in range(1, g.order + 1)
        for v in range(u + 1, g.order + 1)
        if (u, v) not in g.edges
    }
    return SimpleGraph(g.order, frozenset(edges))


def induced_subgraph(g: SimpleGraph, vs: Sequence[int]) -> SimpleGraph:
    """Induced subgraph on vs, relabeled to 1..|vs| preserving the order of vs."""
    vs = list(vs)
    if len(set(vs)) != len(vs):
        raise ValueError("repeated vertex in subset")
    for v in vs:
        if not (1 <= v <= g.order):
            raise ValueError(f"vertex {v} out of range 1..{g.order}")
    index = {v: i + 1 for i, v in enumerate(vs)}
    edges = {
        (min(index[u], index[v]), max(index[u], index[v]))
        for (u, v) in g.edges
        if u in index and v in index
    }
    return SimpleGraph(len(vs), frozenset(edges))


def family(kind: str, size: int) -> SimpleGraph:
    """Named graph families with canonical vertex numbering.

    Kinds: mK2 (size = number of edges m, order 2m), complement_mK2,
    path / P_n, cycle / C_n (size >= 3), complete / K_n, empty / empty_n.
    """
    if kind in ("mK2", "complement_mK2"):
        if size < 1:
            raise ValueError("need m >= 1")
        g = graph(2 * size, [(2 * i + 1, 2 * i + 2) for i in range(size)])
        return complement(g) if kind == "complement_mK2" else g
    if kind in ("path", "P_n"):
        if size < 1:
            raise ValueError("need size >= 1")
        return graph(size, [(i, i + 1) for i in range(1, size)])
    if kind in ("cycle", "C_n"):
        if size < 3:
            raise ValueError("cycle needs size >= 3")
        return graph(size, [(i, i + 1) for i in range(1, size)] + [(1, size)])
    if kind in ("complete", "K_n"):
        if size < 1:
            raise ValueError("need size >= 1")
        return graph(size, itertools.combinations(range(1, size + 1), 2))
    if kind in ("empty", "empty_n"):
        if size < 1:
            raise ValueError("need size >= 1")
        return graph(size)
    raise ValueError(f"unknown family kind {kind!r}")


def find_isomorphism(
    g: SimpleGraph,
    h: SimpleGraph,
    pin: Optional[tuple[int, int]] = None,
) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection g -> h, or None.

    Returned as a tuple m with m[u-1] = image of vertex u.  With pin=(u, v)
    only bijections mapping u to v are considered (used for orbit computation).
    """
    n = g.order
    if n != h.order or len(g.edges) != len(h.edges):
        return None

    gm = adjacency_masks(g)
    hm = adjacency_masks(h)
    gdeg = [bin(m).count("1") for m in gm]
    hdeg = [bin(m).count("1") for m in hm]
    if sorted(gdeg) != sorted(hdeg):
        return None

    # Neighbor degree multisets sharpen the candidate lists cheaply.
    def profile(deg, masks, u):
        return (deg[u], tuple(sorted(deg[w] for w in _bits(masks[u]))))

    gprof = [profile(gdeg, gm, u) for u in range(n)]
    hprof = [profile(hdeg, hm, u) for u in range(n)]
    candidates = [
        [v for v in range(n) if hprof[v] == gprof[u]] for u in range(n)
    ]
    if any(not c for c in candidates):
        return None
    if pin is not None:
        pu, pv = pin[0] - 1, pin[1] - 1
        if pv not in candidates[pu]:
            return None
        candidates[pu] = [pv]

    # Most-constrained-first ordering of g's vertices.
    order = sorted(range(n), key=lambda u: (len(candidates[u]), -gdeg[u]))
    mapping = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        if k == n:
            return True
        u = order[k]
        for v in candidates[u]:
            if used[v]:
                continue
            ok = True
            for w in order[:k]:
                if ((gm[u] >> w) & 1) != ((hm[v] >> mapping[w]) & 1):
                    ok = False
                    break
            if ok:
                mapping[u] = v
                used[v] = True
                if extend(k + 1):
                    return True
                used[v] = False
                mapping[u] = -1
        return False

    if not extend(0):
        return None
    return tuple(m + 1 for m in mapping)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@functools.lru_cache(maxsize=1024)
def vertex_orbits(g: SimpleGraph) -> tuple[int, ...]:
    """Automorphism orbit id per vertex (orbit of the least member)."""
    n = g.order
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(n):
        for v in range(u + 1, n):
            if find(u) != find(v) and find_isomorphism(g, g, pin=(u + 1, v + 1)):
                parent[find(v)] = find(u)
    return tuple(find(u) for u in range(n))


def contains_induced(g: SimpleGraph, h: SimpleGraph) -> bool:
    """True iff some vertex subset of g induces a graph isomorphic to h."""
    if h.order > g.order:
        return False
    for vs in itertools.combinations(range(1, g.order + 1), h.order):
        if find_isomorphism(induced_subgraph(g, vs), h) is not None:
            return True
    return False


_THRESHOLD_FORBIDDEN = ("mK2:2", "cycle:4", "path:4")
_SPLIT_FORBIDDEN = ("mK2:2", "cycle:4", "cycle:5")


def _forbidden(spec: str) -> SimpleGraph:
    kind, size = spec.split(":")
    return family(kind, int(size))


def is_threshold(g: SimpleGraph) -> bool:
    """No induced 2K2, C4, or P4."""
    return not any(contains_induced(g, _forbidden(s)) for s in _THRESHOLD_FORBIDDEN)


def is_split(g: SimpleGraph) -> bool:
    """No induced 2K2, C4, or C5."""
    return not any(contains_induced(g, _forbidden(s)) for s in _SPLIT_FORBIDDEN)


def distinguished(g: SimpleGraph, u: int, v: int) -> bool:
    """True iff some third vertex is adjacent to exactly one of u, v."""
    for w in range(1, g.order + 1):
        if w in (u, v):
            continue
        if g.has_edge(w, u) != g.has_edge(w, v):
            return True
    return False


def parse_graph(text: str) -> SimpleGraph:
    """Parse the text format: first line n, then one "u v" edge per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    try:
        order = int(lines[0])
    except ValueError:
        raise ValueError(f"bad order line {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph(order, edges)


def format_graph(g: SimpleGraph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
