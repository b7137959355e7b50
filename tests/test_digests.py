"""Golden SHA-256 digests of whole-pipeline outputs.

Each digest hashes a text built from sorted tuples or from outputs whose
order is part of their contract, so it does not depend on PYTHONHASHSEED
(CI runs this module under two hash seeds):

- the repr, TSV and summary of `class_experiment(7, X, 3, True)`, from the
  session's one n = 7 sweep (the `x_sweep_7` fixture in conftest.py);
- the repr, TSV and summary of `class_experiment(6, V, 4)` and
  `class_experiment(6, FAN, 4)`;
- every `geometrize` result, or its error type and message, for every
  permutation of length <= 6 on X (r = 3), V and FAN (r = 4);
- `(col_divs, row_divs)` of every gridding, in `iter_griddings` order, of
  every permutation of length <= 6 on X, V and FAN.

A change that moves no output keeps every digest.  A change that moves an
output on purpose re-records the digest it moves: run

    PYTHONPATH=src python tests/test_digests.py

and paste the printed value into DIGESTS.  Every re-record goes in
CHANGES.md, naming the digest and the change that moved it.
"""
import dataclasses
import hashlib
import itertools

from gridletters.gridding import from_display_rows, iter_griddings
from gridletters.letters import LetteringCache
from gridletters.perm import Permutation
from gridletters.pipeline import PipelineError, class_experiment, geometrize

X = from_display_rows([(-1, 1), (1, -1)])
V = from_display_rows([(-1,), (1,)])
FAN = from_display_rows([(-1, 1, 1), (0, -1, -1)])

DIGESTS = {
    "class_experiment_7_X_3": "85476da6f9f6de898c5e89e913d513597d5461eba2020edbd9a7e013ec67ee78",
    "class_experiment_6_V_FAN_4": "ecb1941a9b1fee97969f0b99822a86adc400186a823d54bafe37d83f179bb7e6",
    "geometrize_upto_6": "7dd298f0fe1e922c445e27eecfe5650c5b576a22bdb1815e78c601523a5afec3",
    "griddings_upto_6": "4c77e8004bdca067549d5b6052fd94270c90d9fa19712b799bd0054a9b529cbe",
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


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_class_experiment_digest(x_sweep_7):
    report, _ = x_sweep_7
    assert digest(report_text(report)) == DIGESTS["class_experiment_7_X_3"]


def test_v_fan_class_experiment_digest():
    assert digest(v_fan_reports_text()) == DIGESTS["class_experiment_6_V_FAN_4"]


def test_geometrize_digest():
    assert digest(geometrize_text()) == DIGESTS["geometrize_upto_6"]


def test_griddings_digest():
    assert digest(griddings_text()) == DIGESTS["griddings_upto_6"]


if __name__ == "__main__":
    print("class_experiment_7_X_3", digest(report_text(class_experiment(7, X, 3, True))))
    print("class_experiment_6_V_FAN_4", digest(v_fan_reports_text()))
    print("geometrize_upto_6", digest(geometrize_text()))
    print("griddings_upto_6", digest(griddings_text()))
