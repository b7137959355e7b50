"""Letter graphs, lettericity, and grid classes of permutations.

The package splits along the objects: perm (one-line permutations and
inversion graphs), graphs (simple graphs, isomorphism, recognition),
letters (letter graphs and exact lettericity), gridding (0/+-1 matrices
and monotone griddings), geometry (standard figures, local orders, and
geometric membership), pipeline (the constructive monotone-to-geometric
conversion), oracle (brute-force cross-checks), render and cli.
"""

from .perm import Permutation, parse_permutation, inversion_graph, contains
from .graphs import SimpleGraph, graph, parse_graph
from .letters import (
    LetteringCache,
    Letterization,
    decode_letter_graph,
    find_lettering,
    lettericity,
)
from .gridding import (
    GriddedPermutation,
    GridMatrix,
    SignedMatrix,
    all_griddings,
    double,
    find_gridding,
    is_skew_merged,
    parse_matrix,
    pmm_signs,
    universal_matrix,
)
from .geometry import (
    CellWord,
    Realization,
    consistency,
    decode_word,
    derive_decoder,
    encode_gridded,
    geom_member,
    local_orders,
    realize,
)
from .pipeline import GeometrizeResult, class_experiment, geometrize

__all__ = [
    "Permutation",
    "SimpleGraph",
    "Letterization",
    "LetteringCache",
    "GridMatrix",
    "GriddedPermutation",
    "SignedMatrix",
    "CellWord",
    "Realization",
    "GeometrizeResult",
    "graph",
    "parse_graph",
    "parse_permutation",
    "parse_matrix",
    "inversion_graph",
    "contains",
    "decode_letter_graph",
    "find_lettering",
    "lettericity",
    "find_gridding",
    "all_griddings",
    "is_skew_merged",
    "pmm_signs",
    "double",
    "universal_matrix",
    "local_orders",
    "consistency",
    "realize",
    "decode_word",
    "encode_gridded",
    "geom_member",
    "derive_decoder",
    "geometrize",
    "class_experiment",
]
