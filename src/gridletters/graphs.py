"""Finite simple graphs on vertex sets {1, ..., n}.

Everything here is immutable: a graph is an order together with a frozenset
of normalized edge pairs (u, v) with u < v.  Isomorphism has one search,
intended for orders up to ~12: `canonical_form`, an
individualization-refinement search giving a certificate that is equal
exactly for isomorphic graphs, the automorphism orbits and the vertex order
of its least leaf.  `find_isomorphism` reads an explicit bijection off two
such orders, and `contains_induced` compares certificates.
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
    # Bit v-1 of masks[u-1] is set iff u ~ v; the validation pass fills it.
    masks: tuple[int, ...] = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        masks = [0] * self.order
        for u, v in self.edges:
            if not (1 <= u < v <= self.order):
                raise ValueError(f"bad edge ({u}, {v}) for order {self.order}")
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "masks", tuple(masks))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self.edges

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

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


def _refine(adj: Sequence[int], cells: list[list[int]], splitters: list[int]) -> list[list[int]]:
    """Split the ordered partition `cells` until it is equitable: every two
    vertices of a cell have equally many neighbours in each cell.

    `splitters` holds the masks of vertex sets whose counts are still to be
    compared.  A split cell is replaced in place by its parts in ascending
    order of count, and all parts but the first largest become splitters
    (Hopcroft's rule; the count into the largest part is the count into
    the whole cell minus the others).  Every choice depends on positions
    and counts only, so relabelling the graph relabels the result.
    """
    n = len(adj)
    while splitters and len(cells) < n:
        s = splitters.pop()
        new: list[list[int]] = []
        for cell in cells:
            if len(cell) == 1:
                new.append(cell)
                continue
            counts = [(adj[v] & s).bit_count() for v in cell]
            if min(counts) == max(counts):
                new.append(cell)
                continue
            parts: dict[int, list[int]] = {}
            for v, c in zip(cell, counts):
                parts.setdefault(c, []).append(v)
            parts_in_order = [parts[c] for c in sorted(parts)]
            largest = max(parts_in_order, key=len)
            for part in parts_in_order:
                new.append(part)
                if part is not largest:
                    splitters.append(sum(1 << v for v in part))
        cells = new
    return cells


# Cached: contains_induced asks for the certificates of many isomorphic
# subsets (tests/test_graphs.py: 6.9 s with this cache, 20.0 s without).
@functools.lru_cache(maxsize=1024)
def canonical_form(g: SimpleGraph) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(certificate, orbits, order): equal certificates iff isomorphic
    graphs, the automorphism orbit id per vertex (0-based; an orbit is named
    by its least member), and the least leaf's order: order[t] is the
    0-based vertex at canonical position t.

    One individualization-refinement search (McKay and Piperno, "Practical
    graph isomorphism, II", J. Symbolic Comput. 60, 2014).  A node is an
    equitable ordered partition; its children individualize each vertex of
    its first smallest non-singleton cell.  A leaf orders the vertices, and
    its certificate is the tuple of adjacency masks relabelled by that
    order; the certificate is the least over all leaves.  Two leaves with
    equal certificates give an automorphism, and so does swapping two
    twins, so a twin of a searched sibling is not searched.  The
    automorphisms found so far prune the children of a node on the first
    path to a leaf, as all of them fix that node's individualized vertices,
    and a leaf matching the first or the least leaf jumps back to the
    common ancestor, whose subtree below them is an image of one already
    searched.  The orbits are those of all the automorphisms found, which
    generate the whole group.

    >>> canonical_form(family("path", 3))[1]
    (0, 1, 0)
    >>> canonical_form(graph(3, [(1, 2)]))[0] == canonical_form(graph(3, [(2, 3)]))[0]
    True
    """
    n = g.order
    adj = g.masks
    parent = list(range(n))
    first = best = None  # (path, order, certificate) of the first and least leaves

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            parent[max(a, b)] = min(a, b)

    def leaf(cells: list[list[int]], path: list[int]) -> int:
        # The depth to resume at: the common ancestor with a leaf it matches.
        nonlocal first, best
        order = [cell[0] for cell in cells]
        pos = [0] * (n + 1)  # by vertex label
        for t, v in enumerate(order):
            pos[v + 1] = t
        rows = [0] * n
        for u, v in g.edges:
            a, b = pos[u], pos[v]
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        here = path, order, tuple(rows)
        if first is None:
            first = best = here
            return len(path)
        for other in (first, best):
            if here[2] == other[2]:
                for a, b in zip(other[1], order):
                    merge(a, b)
                return next(j for j, (x, y) in enumerate(zip(path, other[0])) if x != y)
        if here[2] < best[2]:
            best = here
        return len(path)

    def search(cells: list[list[int]], path: list[int], on_first: bool) -> int:
        if len(cells) == n:
            return leaf(cells, path)
        sizes = [len(c) if len(c) > 1 else n for c in cells]
        t = sizes.index(min(sizes))
        depth = len(path)
        explored: list[int] = []
        for w in cells[t]:
            # Cells are ascending, so w is the least of its orbit unless an
            # explored sibling is in that orbit.
            if on_first and first and find(w) != w:
                continue
            # Swapping twins is an automorphism fixing the path.
            for u in explored:
                strip = ~(1 << u | 1 << w)
                if adj[u] & strip == adj[w] & strip:
                    merge(u, w)
                    break
            else:
                rest = [v for v in cells[t] if v != w]
                child = _refine(adj, cells[:t] + [[w], rest] + cells[t + 1 :], [1 << w])
                back = search(child, path + [w], first is None)
                if back < depth:
                    return back
                explored.append(w)
        return depth

    cells = _refine(adj, [list(range(n))], [(1 << n) - 1]) if n else []
    search(cells, [], True)
    return best[2], tuple(find(v) for v in range(n)), tuple(best[1])


def find_isomorphism(g: SimpleGraph, h: SimpleGraph) -> Optional[tuple[int, ...]]:
    """An adjacency-preserving bijection g -> h as m[u-1] = image of vertex
    u, or None: with equal certificates, equal canonical positions match."""
    cert_g, _, order_g = canonical_form(g)
    cert_h, _, order_h = canonical_form(h)
    if cert_g != cert_h:
        return None
    return tuple(v + 1 for _, v in sorted(zip(order_g, order_h)))


def vertex_orbits(g: SimpleGraph) -> tuple[int, ...]:
    """Automorphism orbit id per vertex (orbit of the least member)."""
    return canonical_form(g)[1]


def contains_induced(g: SimpleGraph, h: SimpleGraph) -> bool:
    """True iff some vertex subset of g induces a graph isomorphic to h."""
    if h.order > g.order:
        return False
    adj = g.masks
    certificate = canonical_form(h)[0]
    for vs in itertools.combinations(range(g.order), h.order):
        # Only a subset with h's edge count can induce a copy of h.
        s = 0
        for v in vs:
            s |= 1 << v
        twice_edges = 0
        for v in vs:
            twice_edges += (adj[v] & s).bit_count()
        if twice_edges != 2 * len(h.edges):
            continue
        if canonical_form(induced_subgraph(g, [v + 1 for v in vs]))[0] == certificate:
            return True
    return False


_THRESHOLD_FORBIDDEN = (family("mK2", 2), family("cycle", 4), family("path", 4))
_SPLIT_FORBIDDEN = (family("mK2", 2), family("cycle", 4), family("cycle", 5))


def is_threshold(g: SimpleGraph) -> bool:
    """No induced 2K2, C4, or P4."""
    return not any(contains_induced(g, h) for h in _THRESHOLD_FORBIDDEN)


def is_split(g: SimpleGraph) -> bool:
    """No induced 2K2, C4, or C5."""
    return not any(contains_induced(g, h) for h in _SPLIT_FORBIDDEN)


def distinguished(g: SimpleGraph, u: int, v: int) -> bool:
    """True iff some third vertex is adjacent to exactly one of u, v."""
    return bool((g.masks[u - 1] ^ g.masks[v - 1]) & ~(1 << u - 1 | 1 << v - 1))


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
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return graph(order, edges)


def format_graph(g: SimpleGraph) -> str:
    lines = [str(g.order)]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"
