"""Time the stability scan genus by genus on a seeded corpus of hard bundles.

    PYTHONPATH=src python tools/scale_stability.py                 # g = 9..13
    PYTHONPATH=src python tools/scale_stability.py --g 14 --draws 20
    PYTHONPATH=src python tools/scale_stability.py --g 9 10 11 12 \\
        --record tests/fixtures/stability_scaling_verdicts.json

For each genus g the corpus holds --draws bundles on the normalized
degree -(g+1) family with the balanced splitting c = -((g+1)//2).  The
2g+2 points are distinct integers in [-g-3, g+3].  The flags lean
toward the split directions, (1:0) at a quarter of the points and (0:1)
at 15%, and toward repeats of an earlier flag, 15% more; such rows
leave many subsets with a kernel, so the rank prune cuts late.  Every
second draw has generic quarter weights, the others all-half weights.
The draws of g depend only on the seed and g, so a genus draws the
same bundles whichever other genera run with it.

Each genus prints one row: the median and the max CPU seconds of one
stability_classify call, the verdict counts, the process's peak RSS so
far, and the sha256 of the bundles with their verdicts and witnesses,
as sorted-key JSON in draw order.  Equal hashes on two trees mean the
same corpus and byte-identical verdicts.

The classify benchmark workload stops at g = 4, so this script is where
the exponential path, and with it MAX_MARKED_POINTS, is measured.  A
genus past the limit is classified with the limit raised for the run.
--record writes the bundles and verdicts as a fixture that
tests/test_stability.py replays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import time
from fractions import Fraction

from fixloc import stability
from fixloc._ser import rat_to_json

DEFAULT_GENERA = (9, 10, 11, 12, 13)


def draw(rng: random.Random, g: int, generic_weights: bool) -> stability.ParabolicP1:
    npoints = 2 * g + 2
    points = rng.sample(range(-g - 3, g + 4), npoints)
    flags: list[tuple] = []
    for _ in range(npoints):
        roll = rng.random()
        if roll < 0.25:
            flags.append((1, 0))
        elif roll < 0.4:
            flags.append((0, 1))
        elif roll < 0.55 and flags:
            flags.append(rng.choice(flags))
        else:
            flags.append((1, Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    if generic_weights:
        weights = [Fraction(rng.randint(0, 3), 4) for _ in range(npoints)]
    else:
        weights = [Fraction(1, 2)] * npoints
    return stability.make_bundle(-((g + 1) // 2), -(g + 1), points, flags, weights)


def corpus(g: int, draws: int, seed: int) -> list[stability.ParabolicP1]:
    rng = random.Random(1000 * seed + g)
    return [draw(rng, g, generic_weights=i % 2 == 1) for i in range(draws)]


def bundle_doc(bundle: stability.ParabolicP1) -> dict:
    return {
        "c": bundle.c,
        "d": bundle.d,
        "points": [rat_to_json(z) for z in bundle.points],
        "flags": [[rat_to_json(a), rat_to_json(b)] for a, b in bundle.flags],
        "weights": [rat_to_json(w) for w in bundle.weights],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--g", type=int, nargs="+", default=DEFAULT_GENERA, metavar="G")
    parser.add_argument("--draws", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", metavar="PATH", help="write the bundles and verdicts here")
    args = parser.parse_args(argv)
    if min(args.g) < 1 or args.draws < 1:
        parser.error("every genus and the draw count must be >= 1")
    stability.MAX_MARKED_POINTS = max(stability.MAX_MARKED_POINTS, 2 * max(args.g) + 2)

    cases = []
    print(f"{'g':>3} {'draws':>5} {'median_s':>9} {'max_s':>8} {'S/SS/U':>9} "
          f"{'peak_rss_mb':>11}  sha256", flush=True)
    for g in args.g:
        seconds, done = [], []
        for i, bundle in enumerate(corpus(g, args.draws, args.seed)):
            start = time.process_time()
            verdict = stability.stability_classify(bundle)
            seconds.append(time.process_time() - start)
            done.append({"name": f"g{g}-{i}", "g": g, "bundle": bundle_doc(bundle),
                         "verdict": stability.verdict_to_json(verdict)})
        cases += done
        counts = "/".join(str(sum(case["verdict"]["class"] == label for case in done)) for label in
                          (stability.STABLE, stability.STRICTLY_SEMISTABLE, stability.UNSTABLE))
        digest = hashlib.sha256(json.dumps(done, sort_keys=True).encode()).hexdigest()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{g:>3} {len(seconds):>5} {statistics.median(seconds):>9.3f} {max(seconds):>8.3f} "
              f"{counts:>9} {peak_mb:>11.1f}  {digest}", flush=True)
    if args.record:
        lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
        with open(args.record, "w", encoding="utf-8") as fh:
            fh.write("[\n" + lines + "\n]\n")
        print(f"wrote {len(cases)} cases to {args.record}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
