"""Golden SHA-256 digests of whole-pipeline outputs.

Each digest hashes a text built from sorted tuples, so it does not depend
on PYTHONHASHSEED (CI runs this module under two hash seeds):

- the repr, TSV and summary of `class_experiment(7, X, 3, True)`;
- every `geometrize` result, or its error type and message, for every
  permutation of length <= 6 on X (r = 3), V and FAN (r = 4).

A change that moves no output keeps both digests.  A change that moves an
output on purpose re-records the digest it moves: run

    PYTHONPATH=src python tests/test_digests.py

and paste the printed value into DIGESTS.  Every re-record goes in
CHANGES.md, naming the digest and the change that moved it.
"""
import dataclasses
import hashlib
import itertools

from gridletters.gridding import from_display_rows
from gridletters.letters import LetteringCache
from gridletters.perm import Permutation
from gridletters.pipeline import PipelineError, class_experiment, geometrize

X = from_display_rows([(-1, 1), (1, -1)])
V = from_display_rows([(-1,), (1,)])
FAN = from_display_rows([(-1, 1, 1), (0, -1, -1)])

DIGESTS = {
    "class_experiment_7_X_3": "85476da6f9f6de898c5e89e913d513597d5461eba2020edbd9a7e013ec67ee78",
    "geometrize_upto_6": "7dd298f0fe1e922c445e27eecfe5650c5b576a22bdb1815e78c601523a5afec3",
}


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


def class_experiment_text():
    report = class_experiment(7, X, 3, verify_with_oracle=True)
    return repr(report) + report.to_tsv() + report.summary()


def geometrize_text():
    lines = []
    results = 0
    for m, r in ((X, 3), (V, 4), (FAN, 4)):
        cache = LetteringCache()
        for n in range(7):
            for values in itertools.permutations(range(1, n + 1)):
                try:
                    lines.append(result_text(geometrize(Permutation(values), m, r, cache)))
                    results += 1
                except PipelineError as exc:
                    lines.append(f"{type(exc).__name__}: {exc}")
    assert results == 458 + 64 + 710
    return "\n".join(lines)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_class_experiment_digest():
    assert digest(class_experiment_text()) == DIGESTS["class_experiment_7_X_3"]


def test_geometrize_digest():
    assert digest(geometrize_text()) == DIGESTS["geometrize_upto_6"]


if __name__ == "__main__":
    print("class_experiment_7_X_3", digest(class_experiment_text()))
    print("geometrize_upto_6", digest(geometrize_text()))
