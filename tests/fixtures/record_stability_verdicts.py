"""Record the classifier's verdicts and witnesses on a fixed corpus.

    PYTHONPATH=src python tests/fixtures/record_stability_verdicts.py

writes tests/fixtures/stability_verdicts.json and
tests/fixtures/stability_verdicts_g5_8.json next to this script.
test_stability.test_verdicts_match_the_recorded_fixture and
test_verdicts_match_the_recorded_g5_8_fixture compare the classifier
against them, so any change to a verdict or to a reported witness
shows up as a failing test.  Re-record only when
a change of witness is intended, and say why in the change log.

The first corpus: tests/gen.py draws for g <= 4 with both weight
kinds, plus hand-made edge cases (zero weights, all flags along one
split summand, fractional points with mixed weight denominators,
bundles outside the normalized -(g+1) family, and zero or one marked
point).  The second corpus: tests/gen.py draws for g = 5..8 on points
in [-20, 20], both weight kinds, with c the balanced splitting and one
above it; gen's flag mix repeats flags and puts some on the split
summands.  The full scans at g = 7 and 8 are where the classifier's
cost shows.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402

from fixloc import make_bundle, stability_classify, verdict_to_json  # noqa: E402
from fixloc._ser import rat_to_json  # noqa: E402

F = Fraction
GEN_CELLS = [(1, 0), (1, -1), (2, -1), (2, 0), (3, -1), (3, -2), (4, -2), (4, -1)]
GEN_COUNT = 152
LARGE_GENERA = (5, 6, 7, 8)
LARGE_PER_GENUS = 12


def edge_cases():
    """(name, c, d, points, flags, weights) for the hand-made cases."""
    rng = random.Random(5)
    half6 = [F(1, 2)] * 6
    pts6 = list(range(6))
    yield "zero-weights", -1, -3, pts6, [(1, i) for i in range(6)], [F(0)] * 6
    yield "some-zero-weights", -1, -3, pts6, [(1, 0), (0, 1), (1, 2), (1, 2), (1, -1), (1, 3)], \
        [F(0), F(1, 2), F(0), F(3, 4), F(1, 4), F(0)]
    yield "all-first-summand", -1, -3, pts6, [(1, 0)] * 6, half6
    yield "all-second-summand", -1, -3, pts6, [(0, 1)] * 6, half6
    yield "alternating-split", -2, -4, list(range(8)), [(1, 0), (0, 1)] * 4, [F(1, 2)] * 8
    yield "mixed-denominators", -1, -3, [F(1, 3), F(-5, 2), 0, 4, F(7, 5), -1], \
        [(1, F(2, 3)), (3, 1), (1, 0), (2, 5), (0, 1), (1, F(-1, 7))], \
        [F(1, 3), F(2, 5), F(6, 7), F(1, 2), F(4, 9), F(1, 6)]
    yield "no-points", 0, 0, [], [], []
    yield "one-point", 1, 1, [F(2)], [(1, 1)], [F(2, 3)]
    grid = sorted({F(k, q) for k in range(-9, 10) for q in (1, 2, 3)})
    for c, d in [(0, 0), (1, 1), (1, 2), (0, -1), (-1, -2), (2, 4), (1, 0), (2, -3)]:
        for n in (3, 5, 7):
            pts = rng.sample(grid, n)
            flags = [rng.choice([(1, 0), (0, 1), (1, F(rng.randint(-3, 3), rng.randint(1, 4)))])
                     for _ in range(n)]
            weights = [F(rng.randint(0, 5), 6) for _ in range(n)]
            yield f"offfamily-c{c}-d{d}-n{n}", c, d, pts, flags, weights


def bundle_doc(bundle) -> dict:
    return {
        "c": bundle.c,
        "d": bundle.d,
        "points": [rat_to_json(z) for z in bundle.points],
        "flags": [[rat_to_json(a), rat_to_json(b)] for a, b in bundle.flags],
        "weights": [rat_to_json(w) for w in bundle.weights],
    }


def corpus():
    rng = random.Random(2024)
    for i in range(GEN_COUNT):
        g, c = GEN_CELLS[i % len(GEN_CELLS)]
        generic = (i // len(GEN_CELLS)) % 2 == 1
        yield f"gen-{i}-g{g}-c{c}", gen.random_bundle(rng, g, c, generic_weights=generic)
    for name, c, d, points, flags, weights in edge_cases():
        yield name, make_bundle(c, d, points, flags, weights)


def large_corpus():
    rng = random.Random(2026)
    for g in LARGE_GENERA:
        c_min = -((g + 1) // 2)
        for i in range(LARGE_PER_GENUS):
            c = c_min + i % 2
            generic = (i // 2) % 2 == 1
            yield f"gen-g{g}-c{c}-{i}", gen.random_bundle(rng, g, c, generic_weights=generic,
                                                         span=20)


def write(filename: str, bundles) -> None:
    cases = [{"name": name, "bundle": bundle_doc(bundle),
              "verdict": verdict_to_json(stability_classify(bundle))}
             for name, bundle in bundles]
    out = HERE / filename
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    out.write_text("[\n" + lines + "\n]\n")
    print(f"wrote {len(cases)} cases to {out.name}")


def main() -> None:
    write("stability_verdicts.json", corpus())
    write("stability_verdicts_g5_8.json", large_corpus())


if __name__ == "__main__":
    main()
