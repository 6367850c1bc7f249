"""Record the twist-class partition of the boundary and of seeded closures.

    PYTHONPATH=src python tests/fixtures/record_twist_partition.py

writes tests/fixtures/twist_partition.json next to this script, one
case per line.  A case is a list of input points and what
`equivalence_classes` made of them: the classes as lists of input
indices, or the exception class and message.  The cases:

- "boundary-g2" .. "boundary-g5": the semistable boundary of the
  order-two family, every double class D(Q) and one flagged class F(Q)
  per pair {Q, Q^c} (the one whose Q holds point 0), shuffled by a
  seeded generator.  A point is stored as its recipe ["D" or "F", Q].
- "corpus-*": the seeded closures of `gen.twist_corpus(42, 40)` (39 of
  them: a profile that draws no graded point is skipped), with odd and
  even n <= 24 and stepped members.  A point is stored in the compact
  form of record_twist_closure.py.

test_locus.test_twist_partition_matches_the_recorded_fixture replays
every case from its stored points and compares the rendered document
with this file byte for byte.  Re-record only when a change of output
is intended, and say why in the change log.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402
from record_twist_closure import _dump, _outcome, _point, point_doc  # noqa: E402

from fixloc import (  # noqa: E402
    double_class,
    equivalence_classes,
    flagged_class,
    hyperelliptic_profile,
    profile_from_json,
    profile_to_json,
)

FIXTURE = HERE / "twist_partition.json"
GENERA = range(2, 6)
CORPUS_SEED, CORPUS_CASES = 42, 40
BUILDERS = {"D": double_class, "F": flagged_class}


def points_of(case: dict) -> list:
    if "g" in case:
        return [BUILDERS[kind](case["g"], q) for kind, q in case["points"]]
    return [_point(doc) for doc in case["points"]]


def _classes(points: list, profile) -> list[list[int]]:
    index = {id(pt): i for i, pt in enumerate(points)}
    return [[index[id(pt)] for pt in cls] for cls in equivalence_classes(points, profile)]


def evaluate(case: dict) -> dict:
    """The case with its recorded classes replaced by fresh ones."""
    profile = profile_from_json(case["profile"])
    return case | {"classes": _outcome(_classes, points_of(case), profile)}


def render(cases: list[dict]) -> str:
    return '{"cases": [\n' + ",\n".join(map(_dump, cases)) + "\n]}\n"


def load() -> list[dict]:
    return json.loads(FIXTURE.read_text())["cases"]


def corpus():
    for g in GENERA:
        subsets = [list(q) for size in range(0, 2 * g + 3, 2)
                   for q in itertools.combinations(range(2 * g + 2), size)]
        recipes = [["D", q] for q in subsets] + [["F", q] for q in subsets if 0 in q]
        random.Random(g).shuffle(recipes)
        yield {"name": f"boundary-g{g}", "g": g,
               "profile": profile_to_json(hyperelliptic_profile(g)), "points": recipes}
    for i, (profile, points, _) in enumerate(gen.twist_corpus(CORPUS_SEED, CORPUS_CASES)):
        yield {"name": f"corpus-{i}-n{profile.n}-o{len(profile.orbits)}",
               "profile": profile_to_json(profile), "points": [point_doc(pt) for pt in points]}


def main() -> None:
    # the stored form is what the test replays, so evaluate that form
    cases = [evaluate(json.loads(json.dumps(case))) for case in corpus()]
    FIXTURE.write_text(render(cases))
    errors = sum(isinstance(case["classes"][0], str) for case in cases if case["classes"])
    print(f"wrote {len(cases)} cases ({errors} errors) to {FIXTURE.name}")


if __name__ == "__main__":
    main()
