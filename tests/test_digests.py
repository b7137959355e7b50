"""Golden SHA-256 digests of whole-pipeline outputs.

Each digest hashes a text built from sorted tuples or from outputs whose
order is part of their contract, so it does not depend on PYTHONHASHSEED
(CI runs this module under two hash seeds):

- the repr, TSV and summary of `class_experiment(7, X, 3, True)`, from the
  session's one n = 7 sweep (the `x_sweep_7` fixture in conftest.py), and
  of `class_experiment(8, X, 3, True)` (about 5 s);
- the repr, TSV and summary of `class_experiment(6, V, 4)` and
  `class_experiment(6, FAN, 4)`;
- every `geometrize` result, or its error type and message, for every
  permutation of length <= 6 on X (r = 3), V and FAN (r = 4);
- `(col_divs, row_divs)` of every gridding, in `iter_griddings` order, of
  every permutation of length <= 6 on X, V and FAN;
- the repr of `geom_witness(pi, m)` for every permutation of length <= 6 on
  X, V, FAN and the non-partial-multiplication matrix (1 -1 / 1 1), for 20
  fixed-seed permutations of length 12 on `universal_matrix(2, 2)`, and for
  the two non-members of length 12 and 13 that `gridding_ladder` queries,
  which have griddings but no consistent one, so the search walks them all;
- `find_lettering(g, order)` and `lettericity(g)` for every labelled graph
  of order 1 to 5, and `find_lettering(g, 3)` for the ladder-scale graphs of
  tests/test_letters.py.

A change that moves no output keeps every digest.  A change that moves an
output on purpose re-records the digest it moves: run

    PYTHONPATH=src python tests/test_digests.py

and paste the printed value into DIGESTS.  Every re-record goes in
CHANGES.md, naming the digest and the change that moved it.
"""
import dataclasses
import hashlib
import itertools
import random

from gridletters.geometry import geom_witness
from gridletters.gridding import from_display_rows, iter_griddings, universal_matrix
from gridletters.letters import LetteringCache, find_lettering, lettericity
from gridletters.perm import Permutation
from gridletters.pipeline import PipelineError, class_experiment, geometrize
from test_letters import ladder_scale_graphs, small_graphs

X = from_display_rows([(-1, 1), (1, -1)])
V = from_display_rows([(-1,), (1,)])
FAN = from_display_rows([(-1, 1, 1), (0, -1, -1)])
NON_PMM = from_display_rows([(1, -1), (1, 1)])
# The gridding_ladder non-members on universal_matrix(2, 2).
LADDER_NON_MEMBERS = (
    (8, 1, 10, 4, 2, 9, 11, 5, 7, 12, 3, 6),
    (10, 1, 3, 13, 2, 5, 12, 6, 4, 8, 7, 9, 11),
)

DIGESTS = {
    "class_experiment_7_X_3": "85476da6f9f6de898c5e89e913d513597d5461eba2020edbd9a7e013ec67ee78",
    "class_experiment_8_X_3": "d7bc0f52bade0a76a0524d4f2a750b8f5b89d4087b38e9c5bba87dd4b54263fd",
    "class_experiment_6_V_FAN_4": "ecb1941a9b1fee97969f0b99822a86adc400186a823d54bafe37d83f179bb7e6",
    "geometrize_upto_6": "7dd298f0fe1e922c445e27eecfe5650c5b576a22bdb1815e78c601523a5afec3",
    "griddings_upto_6": "4c77e8004bdca067549d5b6052fd94270c90d9fa19712b799bd0054a9b529cbe",
    "geom_witness": "70375afdb1eba6849ea7a7ba9066f0adc915ba63c32e79bb5ebfaf8d035520ec",
    "letterings": "8cb88430366aaa73d5a2c3d1f17c67dc1a03771012df4a41f179230d32e759a9",
}


def perms_upto(n_max):
    for n in range(n_max + 1):
        for values in itertools.permutations(range(1, n + 1)):
            yield Permutation(values)


def result_text(result):
    """repr of a GeometrizeResult with its two decoders (frozensets) sorted."""
    lz, rlz = result.lettering, result.refined
    return repr(
        dataclasses.replace(
            result,
            lettering=dataclasses.replace(lz, decoder=tuple(sorted(lz.decoder))),
            refined=dataclasses.replace(rlz, decoder=tuple(sorted(rlz.decoder))),
        )
    )


def report_text(report):
    return repr(report) + report.to_tsv() + report.summary()


def v_fan_reports_text():
    return "".join(report_text(class_experiment(6, m, 4)) for m in (V, FAN))


def geometrize_text():
    lines = []
    results = 0
    for m, r in ((X, 3), (V, 4), (FAN, 4)):
        cache = LetteringCache()
        for pi in perms_upto(6):
            try:
                lines.append(result_text(geometrize(pi, m, r, cache)))
                results += 1
            except PipelineError as exc:
                lines.append(f"{type(exc).__name__}: {exc}")
    assert results == 458 + 64 + 710
    return "\n".join(lines)


def griddings_text():
    lines = []
    for m in (X, V, FAN):
        for pi in perms_upto(6):
            divisions = [(gp.col_divs, gp.row_divs) for gp in iter_griddings(pi, m)]
            lines.append(f"{pi} {divisions}")
    return "\n".join(lines)


def witness_text():
    queries = [(pi, m) for m in (X, V, FAN, NON_PMM) for pi in perms_upto(6)]
    u = universal_matrix(2, 2)
    rng = random.Random(2013)
    queries += [(Permutation(tuple(rng.sample(range(1, 13), 12))), u) for _ in range(20)]
    queries += [(Permutation(values), u) for values in LADDER_NON_MEMBERS]
    return "\n".join(f"{pi} {geom_witness(pi, m)!r}" for pi, m in queries)


def lettering_key(lz):
    if lz is None:
        return None
    return lz.alphabet, tuple(sorted(lz.decoder)), lz.word, lz.iso


def letterings_text():
    lines = []
    for g in (g for n in range(1, 6) for g in small_graphs(n)):
        lz = lettering_key(find_lettering(g, g.order))
        lines.append(f"{g.order} {sorted(g.edges)} {lz} {lettericity(g)}")
    for g in ladder_scale_graphs():
        lines.append(f"{g.order} {sorted(g.edges)} {lettering_key(find_lettering(g, 3))}")
    return "\n".join(lines)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_class_experiment_digest(x_sweep_7):
    report, _ = x_sweep_7
    assert digest(report_text(report)) == DIGESTS["class_experiment_7_X_3"]


def test_class_experiment_8_digest(x_matrix):
    report = class_experiment(8, x_matrix, 3, verify_with_oracle=True)
    assert digest(report_text(report)) == DIGESTS["class_experiment_8_X_3"]


def test_v_fan_class_experiment_digest():
    assert digest(v_fan_reports_text()) == DIGESTS["class_experiment_6_V_FAN_4"]


def test_geometrize_digest():
    assert digest(geometrize_text()) == DIGESTS["geometrize_upto_6"]


def test_griddings_digest():
    assert digest(griddings_text()) == DIGESTS["griddings_upto_6"]


def test_geom_witness_digest():
    assert digest(witness_text()) == DIGESTS["geom_witness"]


def test_letterings_digest():
    assert digest(letterings_text()) == DIGESTS["letterings"]


if __name__ == "__main__":
    print("class_experiment_7_X_3", digest(report_text(class_experiment(7, X, 3, True))))
    print("class_experiment_8_X_3", digest(report_text(class_experiment(8, X, 3, True))))
    print("class_experiment_6_V_FAN_4", digest(v_fan_reports_text()))
    print("geometrize_upto_6", digest(geometrize_text()))
    print("griddings_upto_6", digest(griddings_text()))
    print("geom_witness", digest(witness_text()))
    print("letterings", digest(letterings_text()))
