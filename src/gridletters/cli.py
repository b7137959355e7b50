"""Command line frontend.

Exit codes: 0 success, 1 negative verdict (not a member, verification
failure), 2 input error.  Permutations are accepted inline or as a file
path; matrices and graphs come from files in the formats documented in
their modules (matrices display order, graphs as "n" plus edge lines).
Each command imports only the modules it runs.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path


class InputError(ValueError):
    pass


def _read_perm(value: str):
    from .perm import parse_permutation
    path = Path(value)
    try:
        text = path.read_text() if path.is_file() else value
        return parse_permutation(text)
    except ValueError as exc:
        raise InputError(f"bad permutation input: {exc}") from exc


def _read_matrix(path: str):
    from .gridding import parse_matrix
    try:
        return parse_matrix(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"bad matrix file {path}: {exc}") from exc


def _target(value: str) -> str:
    from .render import TARGETS
    if value not in TARGETS:
        choices = ", ".join(TARGETS)
        raise argparse.ArgumentTypeError(f"invalid choice: {value!r} (choose from {choices})")
    return value


def cmd_lettericity(args) -> int:
    from . import letters
    from .graphs import parse_graph
    try:
        g = parse_graph(Path(args.graph).read_text())
    except (OSError, ValueError) as exc:
        raise InputError(f"bad graph file {args.graph}: {exc}") from exc
    # The size is printed before the witness walk, which can take far longer.
    cache = letters.LetteringCache()
    size = cache.lettericity(g)
    print(size, flush=True)
    lz = cache.find_lettering(g, max(size, 1))
    assert lz is not None
    print("decoder:")
    sys.stdout.write(letters.format_decoder(lz.decoder) if lz.decoder else "(empty)\n")
    print("word:", letters.format_word(lz.word))
    print("positions:", " ".join(str(p) for p in lz.iso))
    return 0


def cmd_invgraph(args) -> int:
    from .perm import inversion_graph
    pi = _read_perm(args.perm)
    sys.stdout.write(str(inversion_graph(pi)))
    return 0


def cmd_grid_check(args) -> int:
    from .gridding import find_gridding
    pi = _read_perm(args.perm)
    m = _read_matrix(args.matrix)
    gp = find_gridding(pi, m)
    if gp is None:
        print("NOT in Grid(M)")
        return 1
    print("member of Grid(M)")
    print("column divisions:", " ".join(map(str, gp.col_divs)))
    print("row divisions:", " ".join(map(str, gp.row_divs)))
    return 0


def cmd_geom_check(args) -> int:
    from . import geometry, render
    spec = render.RenderSpec("drawing", args.scale)
    pi = _read_perm(args.perm)
    m = _read_matrix(args.matrix)
    r = geometry.geom_witness(pi, m)
    if r is None:
        print("NOT a member of Geom(M)")
        return 1
    print("member of Geom(M)")
    for i, (x, y) in enumerate(r.points, start=1):
        print(f"entry {i} (value {r.gridded.perm.at(i)}): ({x}, {y})")
    if args.svg:
        Path(args.svg).write_text(render.render_drawing(r, spec))
    return 0


def cmd_geometrize(args) -> int:
    from . import pipeline, render
    spec = render.RenderSpec("drawing", args.scale)
    pi = _read_perm(args.perm)
    m = _read_matrix(args.matrix)
    try:
        result = pipeline.geometrize(pi, m, args.k_max)
    except pipeline.PipelineError as exc:
        print(f"geometrize failed: {exc}")
        return 1
    print("output matrix (display order):")
    sys.stdout.write(str(result.signed.matrix))
    print("column signs:", " ".join(f"{s:+d}" for s in result.signed.col_signs))
    print("row signs:", " ".join(f"{s:+d}" for s in result.signed.row_signs))
    print("column divisions:", " ".join(map(str, result.gridded.col_divs)))
    print("row divisions:", " ".join(map(str, result.gridded.row_divs)))
    for i, (x, y) in enumerate(result.realization.points, start=1):
        print(f"entry {i} (value {pi.at(i)}): ({x}, {y})")
    if args.svg:
        Path(args.svg).write_text(render.render_drawing(result.realization, spec))
    return 0


def cmd_experiment(args) -> int:
    from . import pipeline
    m = _read_matrix(args.matrix)
    report = pipeline.class_experiment(
        args.n_max, m, args.letters, verify_with_oracle=args.verify
    )
    sys.stdout.write(report.to_tsv())
    print(report.summary())
    return 0 if report.ok else 1


def cmd_render(args) -> int:
    from . import geometry, render
    from .gridding import find_gridding, pmm_signs
    spec = render.RenderSpec(args.target, args.scale)
    m = _read_matrix(args.matrix)
    if args.target != "figure" and args.perm is None:
        raise InputError(f"--perm is required for the {args.target} target")
    if args.target == "figure":
        obj = m
    elif args.target == "gridding":
        pi = _read_perm(args.perm)
        gp = find_gridding(pi, m)
        if gp is None:
            print("NOT in Grid(M)")
            return 1
        obj = gp
    elif args.target == "drawing":
        pi = _read_perm(args.perm)
        r = geometry.geom_witness(pi, m)
        if r is None:
            print("NOT a member of Geom(M)")
            return 1
        obj = r
    else:  # hasse
        pi = _read_perm(args.perm)
        if pmm_signs(m) is None:
            raise InputError("hasse rendering needs a partial multiplication matrix")
        r = geometry.geom_witness(pi, m)
        if r is None:
            print("no gridding with consistent local orders")
            return 1
        obj = geometry.local_orders(r.gridded, r.signs)
    document = render.render(spec, obj)
    if args.svg:
        Path(args.svg).write_text(document)
    else:
        sys.stdout.write(document)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridletters",
        description="letter graphs, lettericity, and geometric grid classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lettericity", help="exact lettericity of a graph file")
    p.add_argument("graph", help="graph file: first line n, then 'u v' edges")
    p.set_defaults(func=cmd_lettericity)

    p = sub.add_parser("invgraph", help="inversion graph of a permutation")
    p.add_argument("--perm", required=True, help="permutation (inline or file)")
    p.set_defaults(func=cmd_invgraph)

    p = sub.add_parser("grid-check", help="monotone grid class membership")
    p.add_argument("--perm", required=True)
    p.add_argument("--matrix", required=True, help="matrix file, display order")
    p.set_defaults(func=cmd_grid_check)

    p = sub.add_parser("geom-check", help="geometric grid class membership")
    p.add_argument("--perm", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--svg", help="write a drawing to this SVG path")
    p.add_argument("--scale", type=int, default=80)
    p.set_defaults(func=cmd_geom_check)

    p = sub.add_parser("geometrize", help="build a geometric gridding from a monotone one")
    p.add_argument("--perm", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--k-max", type=int, required=True, dest="k_max")
    p.add_argument("--svg")
    p.add_argument("--scale", type=int, default=80)
    p.set_defaults(func=cmd_geometrize)

    p = sub.add_parser("experiment", help="geometrize a whole class at desk scale")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--matrix", required=True)
    p.add_argument("--letters", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="cross-check with the brute-force oracle")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("render", help="SVG output")
    p.add_argument("--target", type=_target, required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--perm")
    p.add_argument("--svg", help="output path (stdout when omitted)")
    p.add_argument("--scale", type=int, default=80)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # InputError included
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
