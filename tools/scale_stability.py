"""Time the stability scan genus by genus on a seeded corpus of hard bundles.

    PYTHONPATH=src python tools/scale_stability.py                 # g = 9..13
    PYTHONPATH=src python tools/scale_stability.py --g 14 --draws 20

The corpus of genus g is tests/gen.py's scaling_corpus: --draws bundles
on the balanced splitting of the degree -(g+1) family, flags leaning to
the split and repeated directions, and generic quarter weights at every
second draw.

Each genus prints one row: the median and the max CPU seconds of one
stability_classify call, the verdict counts, the process's peak RSS so
far, and the sha256 of the bundles with their verdicts and witnesses,
as sorted-key JSON in draw order.  Equal hashes on two trees mean the
same corpus and byte-identical verdicts.  Each draw also writes one line
to stderr as it ends: its name, its CPU seconds, its verdict class and
the process's peak RSS in MB so far.

The classify benchmark workload stops at g = 4, so this script is where
the exponential path, and with it MAX_MARKED_POINTS, is measured.  A
genus past the limit is classified with the limit raised for the run.
tests/fixtures/record_stability_verdicts.py records the g = 9..12 rows
of seed 1 as the fixture that tests/test_stability.py replays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import gen  # noqa: E402

from fixloc import stability  # noqa: E402

DEFAULT_GENERA = (9, 10, 11, 12, 13)


def peak_rss_mb() -> float:
    """The process's peak RSS so far, in MB (ru_maxrss is in KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--g", type=int, nargs="+", default=DEFAULT_GENERA, metavar="G")
    parser.add_argument("--draws", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if min(args.g) < 1 or args.draws < 1:
        parser.error("every genus and the draw count must be >= 1")
    stability.MAX_MARKED_POINTS = max(stability.MAX_MARKED_POINTS, 2 * max(args.g) + 2)

    print(f"{'g':>3} {'draws':>5} {'median_s':>9} {'max_s':>8} {'S/SS/U':>9} "
          f"{'peak_rss_mb':>11}  sha256", flush=True)
    for g in args.g:
        seconds, done = [], []
        for name, bundle in gen.scaling_corpus(g, args.draws, args.seed):
            start = time.process_time()
            verdict = stability.stability_classify(bundle)
            seconds.append(time.process_time() - start)
            done.append(gen.verdict_case(name, bundle, verdict, g=g))
            print(f"{name} {seconds[-1]:.3f} {verdict.label} {peak_rss_mb():.1f}",
                  file=sys.stderr, flush=True)
        counts = "/".join(str(sum(case["verdict"]["class"] == label for case in done)) for label in
                          (stability.STABLE, stability.STRICTLY_SEMISTABLE, stability.UNSTABLE))
        digest = hashlib.sha256(json.dumps(done, sort_keys=True).encode()).hexdigest()
        print(f"{g:>3} {len(seconds):>5} {statistics.median(seconds):>9.3f} {max(seconds):>8.3f} "
              f"{counts:>9} {peak_rss_mb():>11.1f}  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
