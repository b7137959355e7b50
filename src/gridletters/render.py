"""Deterministic SVG rendering of figures, drawings, griddings, and the
Hasse diagram of local orders.

Output uses only line, circle, text, and path elements under a single svg
root, with fixed 3-decimal coordinates, so renders are byte-stable and
diffable in tests.
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict

from .geometry import LocalOrders, Realization, StandardFigure, consistency, standard_figure
from .gridding import GriddedPermutation, GridMatrix


@dataclasses.dataclass(frozen=True)
class RenderSpec:
    target: str
    scale: int = 80

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown render target {self.target!r}")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


def _fmt(v: float) -> str:
    return f"{float(v):.3f}"


def _svg(width: float, height: float, elements: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *elements, "</svg>"]) + "\n"


def _line(x1, y1, x2, y2, width, color="black") -> str:
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{_fmt(width)}" stroke-linecap="round"/>'
    )

def _circle(cx, cy, r) -> str:
    return f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="black"/>'


def _text(x, y, s, size) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
        f'font-family="monospace">{s}</text>'
    )


def _arrow(x1, y1, x2, y2) -> str:
    # A 0.8-wide line with a short open head drawn as a path at the (x2, y2) end.
    dx, dy = x2 - x1, y2 - y1
    norm = (dx * dx + dy * dy) ** 0.5 or 1.0
    ux, uy = dx / norm, dy / norm
    size = min(8.0, norm / 3)
    left = (x2 - size * (ux - 0.5 * uy), y2 - size * (uy + 0.5 * ux))
    right = (x2 - size * (ux + 0.5 * uy), y2 - size * (uy - 0.5 * ux))
    head = (
        f'<path d="M {_fmt(left[0])} {_fmt(left[1])} L {_fmt(x2)} {_fmt(y2)} '
        f'L {_fmt(right[0])} {_fmt(right[1])}" fill="none" stroke="black" '
        f'stroke-width="0.800"/>'
    )
    return _line(x1, y1, x2, y2, 0.8) + "\n" + head


class _Canvas:
    """Maps cartesian grid coordinates to SVG pixels (y axis flipped)."""

    PAD = 0.6  # grid units of margin on every side

    def __init__(self, cols: int, rows: int, scale: int):
        self.scale = scale
        self.rows = rows
        self.width = (cols + 2 * self.PAD) * scale
        self.height = (rows + 2 * self.PAD) * scale

    def xy(self, x, y) -> tuple[float, float]:
        return (
            (float(x) + self.PAD) * self.scale,
            (self.rows - float(y) + self.PAD) * self.scale,
        )


def _figure_elements(fig: StandardFigure, canvas: _Canvas) -> list[str]:
    m = fig.matrix
    out = []
    for k in range(m.cols + 1):
        x1, y1 = canvas.xy(k, 0)
        x2, y2 = canvas.xy(k, m.rows)
        out.append(_line(x1, y1, x2, y2, 0.5, "gray"))
    for l in range(m.rows + 1):
        x1, y1 = canvas.xy(0, l)
        x2, y2 = canvas.xy(m.cols, l)
        out.append(_line(x1, y1, x2, y2, 0.5, "gray"))
    for _cell, start, end in fig.segments:
        x1, y1 = canvas.xy(*start)
        x2, y2 = canvas.xy(*end)
        out.append(_line(x1, y1, x2, y2, 2.0))
    return out


def render_figure(m: GridMatrix, spec: RenderSpec) -> str:
    canvas = _Canvas(m.cols, m.rows, spec.scale)
    return _svg(canvas.width, canvas.height, _figure_elements(standard_figure(m), canvas))


def render_drawing(r: Realization, spec: RenderSpec) -> str:
    m = r.gridded.matrix
    canvas = _Canvas(m.cols, m.rows, spec.scale)
    out = _figure_elements(standard_figure(m), canvas)
    # Orientation arrows below columns and left of rows.
    for k in range(1, m.cols + 1):
        sign = r.signs.col_signs[k - 1]
        xa, xb = (k - 1 + 0.1, k - 0.1) if sign == 1 else (k - 0.1, k - 1 + 0.1)
        out.append(_arrow(*canvas.xy(xa, -0.25), *canvas.xy(xb, -0.25)))
    for l in range(1, m.rows + 1):
        sign = r.signs.row_signs[l - 1]
        ya, yb = (l - 1 + 0.1, l - 0.1) if sign == 1 else (l - 0.1, l - 1 + 0.1)
        out.append(_arrow(*canvas.xy(-0.25, ya), *canvas.xy(-0.25, yb)))
    for i, (x, y) in enumerate(r.points, start=1):
        cx, cy = canvas.xy(x, y)
        out.append(_circle(cx, cy, spec.scale * 0.05))
        out.append(_text(cx + spec.scale * 0.08, cy - spec.scale * 0.08,
                         str(r.gridded.perm.at(i)), spec.scale * 0.2))
    return _svg(canvas.width, canvas.height, out)


def render_gridding(gp: GriddedPermutation, spec: RenderSpec) -> str:
    n = len(gp.perm)
    canvas = _Canvas(n + 1, n + 1, spec.scale)
    out = []
    corners = [(0.5, 0.5), (n + 0.5, 0.5), (n + 0.5, n + 0.5), (0.5, n + 0.5)]
    for (xa, ya), (xb, yb) in zip(corners, corners[1:] + corners[:1]):
        out.append(_line(*canvas.xy(xa, ya), *canvas.xy(xb, yb), 1.0))
    for x in gp.col_divs[1:-1]:
        out.append(_line(*canvas.xy(x - 0.5, 0.5), *canvas.xy(x - 0.5, n + 0.5), 0.7, "gray"))
    for y in gp.row_divs[1:-1]:
        out.append(_line(*canvas.xy(0.5, y - 0.5), *canvas.xy(n + 0.5, y - 0.5), 0.7, "gray"))
    for i in range(1, n + 1):
        cx, cy = canvas.xy(i, gp.perm.at(i))
        out.append(_circle(cx, cy, spec.scale * 0.08))
        out.append(_text(cx + spec.scale * 0.1, cy - spec.scale * 0.1,
                         str(gp.perm.at(i)), spec.scale * 0.25))
    return _svg(canvas.width, canvas.height, out)


def render_hasse(lo: LocalOrders, spec: RenderSpec) -> str:
    """Layered drawing of the transitive reduction of the union poset."""
    succ: dict[int, set[int]] = defaultdict(set)
    for chain in lo.chains():
        for a, b in zip(chain, chain[1:]):
            succ[a].add(b)
    psi = consistency(lo)
    if psi is None:
        raise ValueError("local orders contain a cycle; no Hasse diagram")
    order = sorted(range(1, lo.n + 1), key=lambda v: psi[v - 1])
    # Longest-path layering forward, transitive closure backward.
    depth = dict.fromkeys(order, 0)
    for v in order:
        for w in succ[v]:
            depth[w] = max(depth[w], depth[v] + 1)
    closure: dict[int, set[int]] = {}
    for v in reversed(order):
        closure[v] = set(succ[v]).union(*(closure[w] for w in succ[v]))
    edges = {
        (a, b)
        for a in range(1, lo.n + 1)
        for b in succ[a]
        if not any(b in closure[c] for c in succ[a] if c != b)
    }
    layers: dict[int, list[int]] = defaultdict(list)
    for v in range(1, lo.n + 1):
        layers[depth[v]].append(v)
    pos: dict[int, tuple[float, float]] = {}
    height = max(layers) if layers else 0
    for d, vs in layers.items():
        for idx, v in enumerate(sorted(vs)):
            pos[v] = (idx + 0.5, d)
    width = max((len(vs) for vs in layers.values()), default=1)
    canvas = _Canvas(width, height + 1, spec.scale)
    out = []
    for a, b in sorted(edges):
        out.append(_line(*canvas.xy(*pos[a]), *canvas.xy(*pos[b]), 1.0))
    for v in sorted(pos):
        cx, cy = canvas.xy(*pos[v])
        out.append(_circle(cx, cy, spec.scale * 0.07))
        out.append(_text(cx + spec.scale * 0.1, cy - spec.scale * 0.1, str(v), spec.scale * 0.25))
    return _svg(canvas.width, canvas.height, out)


# Per target, the type of object it draws and its renderer's name.  `render`
# looks the renderer up when called, so a function swapped into this module
# (perfbench's tracer wraps each public one) is the one that runs.
_RENDERERS = {
    "figure": (GridMatrix, "render_figure"),
    "drawing": (Realization, "render_drawing"),
    "gridding": (GriddedPermutation, "render_gridding"),
    "hasse": (LocalOrders, "render_hasse"),
}
TARGETS = tuple(_RENDERERS)


def render(spec: RenderSpec, obj) -> str:
    """Dispatch on the spec target; the object must match its kind."""
    kind, renderer = _RENDERERS[spec.target]
    if not isinstance(obj, kind):
        article = "" if kind.__name__.endswith("s") else "a "  # a plural name takes none
        raise ValueError(f"{spec.target} rendering needs {article}{kind.__name__}")
    return globals()[renderer](obj, spec)
