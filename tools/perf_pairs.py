"""Run alternating parent/change benchmark pairs and summarise them.

    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload lambda --seeds 301-310
    python tools/perf_pairs.py ../parent . --workload classify --seeds 7 --seconds 0.2

PARENT_DIR and CHANGE_DIR are two checkouts.  For each seed, in order,
one pair runs `perfbench/run.py --workload W --seed S` in each of them,
the parent first in even pairs (0, 2, ...) and the change first in odd
ones, so that neither side always runs on the warmer or the cooler
machine.  Each pair prints both sides' end-to-end metrics; then each
metric prints both sides' median and quartiles, the relative change of
the medians, the pairs in which the change is lower, and the gap
between the medians against the parent's IQR (Q3 - Q1), as CHANGES.md
reports them, and then its verdict (`verdict`), judged by the metric's
`better` and `bound` in the change checkout's BENCHMARK.json.

Each side runs from a copy of its checkout in a temporary directory,
without `.git` and without any `__pycache__`, under
PYTHONDONTWRITEBYTECODE=1 and with no PYTHONPYCACHEPREFIX.  So, as in a
benchmark run on a fresh checkout, every child compiles `fixloc` from
source and loads the standard library from its installed bytecode.
Bytecode cached for the package would leave its compilation out of
both sides (`cli` `wall_s` 3.42 s from source, 2.79 s cached); an empty
cache prefix would have every child compile the standard library as
well (a bare `python -c pass` 49 ms, 231 ms with one).  Both were
measured under CPython 3.11.7 on a 2-core Intel Xeon.  Nothing in
either checkout is changed: run.py writes its `perfbench/out/` in the
copy.

The exit status is 1 when a run is not `correct` or has `failed` > 0,
2 when a run does not finish or the arguments are wrong, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"seeds must be A-B with A <= B, or one seed: {text!r}")
    return seeds


def checkout(text: str) -> Path:
    path = Path(text).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} holds no perfbench/run.py")
    return path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run(root: Path, env: dict, args, seed: int) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", args.workload,
            "--seed", str(seed)]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"perf_pairs: {root} seed {seed}: run.py exited with {proc.returncode}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(lines[-1])


def summary(name: str, unit: str, parent: list[float], change: list[float]) -> str:
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    lower = sum(c < p for p, c in zip(parent, change))
    rel = f"{100 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
    return (f"{name}: parent {pm:.5g} [{p1:.5g}, {p3:.5g}]"
            f" -> change {cm:.5g} [{c1:.5g}, {c3:.5g}] {unit}"
            f" ({rel}, lower in {lower}/{len(parent)}; gap {abs(pm - cm):.5g}"
            f" against the parent's IQR {p3 - p1:.5g})")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """gain, regression, unresolved or no regression, as the simplicity guide judges.

    A gain needs at least ten pairs, the change better in at least nine
    tenths of them (a tie counts for neither side), and the medians
    apart by more than the parent's IQR.  A regression is a change
    median worse than the parent's by more than the bound, relative to
    the parent's median.  A metric is unresolved when the parent's IQR,
    relative to its median, exceeds the bound, unless every change run
    is better than every parent run.
    """
    sign = 1 if better == "lower" else -1  # sign * (p - c) > 0: the change is better
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1:
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "regression"
    if p3 - p1 > bound * abs(pm) and not all(sign * (p - c) > 0 for p in parent for c in change):
        return "unresolved"
    return "no regression"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=checkout, metavar="PARENT_DIR")
    parser.add_argument("change", type=checkout, metavar="CHANGE_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed to run.py (default: its BENCHMARK.json run_seconds)")
    args = parser.parse_args(argv)
    try:
        bounds = {m["name"]: m for m in
                  json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"{args.change}/BENCHMARK.json gives no end_to_end bounds: {exc}")

    bad = 0
    values: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
    units: dict[str, str] = {}
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, root in roots.items():
            shutil.copytree(getattr(args, side), root,
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {side: run(roots[side], env, args, seed) for side in order}
            cells = []
            for side in SIDES:
                result = results[side]
                if not result["correct"] or result["failed"]:
                    bad += 1
                    print(f"perf_pairs: {side} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}", file=sys.stderr)
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                cells.append(side + " " + " ".join(f"{name}={metric['value']:.5g}"
                                                   for name, metric in result["metrics"].items()))
            print(f"pair {i} seed {seed} ({order[0]} first): " + "; ".join(cells), flush=True)
    for name, unit in units.items():
        parent, change = values["parent"][name], values["change"][name]
        better, bound = bounds[name]["better"], bounds[name]["bound"]
        print(summary(name, unit, parent, change))
        print(f"{name}: {verdict(parent, change, better, bound)}"
              f" ({better} is better, bound {bound:g})")
    if bad:
        print(f"perf_pairs: {bad} run(s) not correct or with failed jobs", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
