"""Letter graphs, lettericity, and grid classes of permutations.

The package splits along the objects: perm (one-line permutations and
inversion graphs), graphs (simple graphs, isomorphism, recognition),
letters (letter graphs and exact lettericity), gridding (0/+-1 matrices
and monotone griddings), geometry (standard figures, local orders, and
geometric membership), pipeline (the constructive monotone-to-geometric
conversion), oracle (brute-force cross-checks), render and cli.
The exports load their module on first access (PEP 562), so `import
gridletters` imports no submodule.
"""

import importlib

# Each exported name and the module that defines it, in `__all__` order.
_OWNERS = {
    "Permutation": "perm",
    "SimpleGraph": "graphs",
    "Letterization": "letters",
    "LetteringCache": "letters",
    "GridMatrix": "gridding",
    "GriddedPermutation": "gridding",
    "SignedMatrix": "gridding",
    "CellWord": "geometry",
    "Realization": "geometry",
    "GeometrizeResult": "pipeline",
    "graph": "graphs",
    "parse_graph": "graphs",
    "parse_permutation": "perm",
    "parse_matrix": "gridding",
    "inversion_graph": "perm",
    "contains": "perm",
    "decode_letter_graph": "letters",
    "find_lettering": "letters",
    "lettericity": "letters",
    "find_gridding": "gridding",
    "all_griddings": "gridding",
    "is_skew_merged": "gridding",
    "pmm_signs": "gridding",
    "double": "gridding",
    "universal_matrix": "gridding",
    "local_orders": "geometry",
    "consistency": "geometry",
    "realize": "geometry",
    "decode_word": "geometry",
    "encode_gridded": "geometry",
    "geom_member": "geometry",
    "derive_decoder": "geometry",
    "geometrize": "pipeline",
    "class_experiment": "pipeline",
}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    # Not cached in the package namespace: each access reads the defining
    # module's current binding, so the two can never disagree.
    owner = _OWNERS.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{owner}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNERS})
