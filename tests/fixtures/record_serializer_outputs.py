"""Record the JSON text the record serializers write over a seeded corpus.

    PYTHONPATH=src python tests/fixtures/record_serializer_outputs.py

writes tests/fixtures/serializer_outputs.json next to this script, one
case per line: its name and the serializer's document, dumped without
`sort_keys`, so the file pins key order as well as values.  The cases:

- "det-*", "numeric-*", "rank2-*", "divisor-*": `det_to_json`,
  `numeric_to_json`, `rank2_to_json` and `divisor_to_json` on seeded
  values over profiles whose labels are inserted out of sorted order,
  with determinant residues and divisor residues over a shuffled subset
  of the orbits;
- "weights-*", "decompose-*", "census-*": the payload that `fixloc
  weights`, `fixloc decompose` and `fixloc census` return as their
  report, on seeded weight systems, on decomposition profiles of all
  three cases, and on census arguments of all four cases.

test_records.test_serializers_match_the_recorded_fixture rebuilds the
corpus from its seeds and compares the rendered document with this file
byte for byte.  Re-record only when a change of output is intended, and
say why in the change log.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402

from fixloc import (  # noqa: E402
    DeterminantLift,
    InvariantDivisor,
    det_to_json,
    divisor_to_json,
    make_profile,
    numeric_to_json,
    profile_to_json,
    rank2_to_json,
)
from fixloc import cli  # noqa: E402

FIXTURE = HERE / "serializer_outputs.json"
SEED = 2121
# labels whose insertion order is not their sorted order
LABELS = ["y10", "b", "y2", "a", "p0", "q", "c1", "B"]


def _profile(rng: random.Random):
    n = rng.randint(2, 24)
    lengths = [k for k in range(1, n) if n % k == 0]
    labels = rng.sample(LABELS, rng.randint(1, 5))
    return make_profile(n, [(label, rng.choice(lengths)) for label in labels],
                        genus_base=rng.randint(0, 3))


def _sparse_det(rng: random.Random, profile) -> DeterminantLift:
    """A lift over a shuffled subset of the orbits; the lift sign is sometimes left out."""
    orbits = rng.sample(profile.orbits, rng.randint(0, len(profile.orbits)))
    residues = {y.id: rng.randrange(y.nprime) for y in orbits}
    degree = rng.randint(-40, 40)
    if profile.n % 2 == 0 and rng.random() < 0.5:
        return DeterminantLift(residues, degree, "-")
    return DeterminantLift(residues=residues, degree=degree)


def _unsorted(rng: random.Random, mapping: dict) -> dict:
    items = list(mapping.items())
    rng.shuffle(items)
    return dict(items)


def cli_payload(argv: list[str], doc: object = None) -> dict:
    """The payload a CLI command returns as its report; doc, if any, is its --file."""
    with tempfile.TemporaryDirectory() as tmp:
        if doc is not None:
            path = Path(tmp, "input.json")
            path.write_text(json.dumps(doc))
            argv = [*argv, "--file", str(path)]
        # the builder main runs, from the report module cli.COMMANDS names
        payload, _ = cli._builder(argv[0])(cli.parse_args(argv))
    return payload


# profiles of the three decomposition cases: n odd; n even, r odd; n even, r even
DECOMPOSE = [
    {"n": 9, "orbits": [{"id": "b", "k": 3}, {"id": "a", "k": 1}]},
    {"n": 15, "genus_base": 2, "orbits": [{"id": "y10", "k": 5}]},
    {"n": 1, "orbits": []},
    {"n": 12, "orbits": [{"id": "a", "k": 6}, {"id": "b", "k": 3}]},
    {"n": 6, "genus_base": 1, "orbits": [{"id": "q", "k": 3}, {"id": "p", "k": 3}]},
    {"n": 2, "orbits": [{"id": "p0", "k": 1}]},
    {"n": 12, "orbits": [{"id": "a", "k": 6}, {"id": "b", "k": 4}]},
    {"n": 8, "genus_base": 3, "orbits": [{"id": "z", "k": 2}, {"id": "c", "k": 4}]},
    {"n": 4, "orbits": []},
]

# (n, deg_delta, genus_y) in the four census cases: n odd with the
# determinant degree odd and even, n even with the reduced degree odd and even
CENSUS = [(3, 9, 2), (5, -15, 0), (1, 7, 1),
          (3, 12, 2), (7, 0, 4), (1, -2, 0),
          (2, 2, 1), (4, 12, 2), (6, -18, 5),
          (2, 4, 0), (4, 8, 2), (8, 0, 3)]


def corpus():
    """(name, document) pairs, the documents built by the serializers under test."""
    rng = random.Random(SEED)
    for i in range(30):
        profile = _profile(rng)
        yield f"det-{i}", det_to_json(_sparse_det(rng, profile))
    for i in range(30):
        profile = _profile(rng)
        data = gen.random_data(rng, profile)
        yield f"numeric-{i}", numeric_to_json(_unsorted(rng, data.numeric))
        data = type(data)(numeric=_unsorted(rng, data.numeric),
                          det=_sparse_det(rng, profile) if i % 2 else data.det)
        yield f"rank2-{i}", rank2_to_json(data)
    for i in range(30):
        profile = _profile(rng)
        residues = {y.id: rng.randint(-30, 30)
                    for y in rng.sample(profile.orbits, rng.randint(0, len(profile.orbits)))}
        yield f"divisor-{i}", divisor_to_json(InvariantDivisor(residues, rng.randint(-5, 5)))
    for i in range(20):
        profile = _profile(rng)
        numeric = _unsorted(rng, gen.random_data(rng, profile).numeric)
        doc = {"profile": profile_to_json(profile),
               "numeric": {label: list(pair) for label, pair in numeric.items()}}
        yield f"weights-{i}", cli_payload(["weights"], doc)
    for i, doc in enumerate(DECOMPOSE):
        yield f"decompose-{i}", cli_payload(["decompose"], doc)
    for i, (n, deg_delta, genus_y) in enumerate(CENSUS):
        yield f"census-{i}", cli_payload(["census", "--n", str(n), "--deg-delta", str(deg_delta),
                                          "--genus-y", str(genus_y)])


def render(cases) -> str:
    lines = (json.dumps({"name": name, "doc": doc}) for name, doc in cases)
    return '{"cases": [\n' + ",\n".join(lines) + "\n]}\n"


def main() -> None:
    text = render(corpus())
    FIXTURE.write_text(text)
    print(f"wrote {len(json.loads(text)['cases'])} cases to {FIXTURE.name}")


if __name__ == "__main__":
    main()
