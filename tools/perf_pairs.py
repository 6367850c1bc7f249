"""Run alternating parent/change benchmark pairs and summarise them.

    python tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload lambda --seeds 301-310
    python tools/perf_pairs.py ../parent . --workload classify --seeds 7 --seconds 0.2
    python tools/perf_pairs.py ../parent . --workload classify,census,lambda,cli \
        --seeds 101-110 --json BENCH_51.json

PARENT_DIR and CHANGE_DIR are two checkouts, and --workload names one
workload or a comma-separated list of them.  For each seed, in order,
one pair runs `perfbench/run.py --workload W --seed S` for every named
workload W in each checkout, the parent first in even pairs (0, 2, ...)
and the change first in odd ones, so that neither side always runs on
the warmer or the cooler machine.  Each pair prints both sides'
end-to-end metrics, one line per workload; then, per workload, each
metric prints both sides' median and quartiles, the relative change of
the medians, the pairs in which the change is lower, and the gap
between the medians against the parent's IQR (Q3 - Q1), as CHANGES.md
reports them, and then its verdict (`verdict`), judged by the metric's
`better` and `bound` in the change checkout's BENCHMARK.json.

With --json PATH the same record is also written to PATH as one JSON
document: a section per workload, with each pair's seed, order and
metrics, and each metric's quartiles on both sides, relative change,
lower-count, gap, parent IQR and verdict; and the provenance: the
seeds, Python, nproc, and the sha256 of each side's `src/`
(`source_sha256`), which names the code that ran without naming where
its checkout was.

Each side runs from one copy of its checkout in a temporary directory,
made before the first pair, without `.git` and without any
`__pycache__`, under PYTHONDONTWRITEBYTECODE=1 and with no
PYTHONPYCACHEPREFIX.  So, as in a
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
import hashlib
import json
import os
import platform
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


def workload_list(text: str) -> list[str]:
    names = text.split(",")
    if "" in names or len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(
            f"workloads must be distinct names separated by commas: {text!r}")
    return names


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


def run(root: Path, env: dict, args, workload: str, seed: int) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed)]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"perf_pairs: {root} {workload} seed {seed}: run.py exited with "
              f"{proc.returncode}",
              file=sys.stderr)
        raise SystemExit(2)
    return json.loads(lines[-1])


def source_sha256(root: Path) -> str:
    """The sha256 of every file under root/src, by relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in (root / "src").rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides' quartiles, the relative change of the medians, the pairs in
    which the change is lower, and the gap between the medians against the
    parent's IQR."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    return {"parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            "relative": (cm - pm) / pm if pm else None,
            "lower": sum(c < p for p, c in zip(parent, change)), "pairs": len(parent),
            "gap": abs(pm - cm), "parent_iqr": p3 - p1}


def summary(name: str, unit: str, parent: list[float], change: list[float]) -> str:
    c = compare(parent, change)
    p, ch = c["parent"], c["change"]
    rel = f"{100 * c['relative']:+.1f}%" if c["relative"] is not None else "n/a"
    return (f"{name}: parent {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}]"
            f" -> change {ch['median']:.5g} [{ch['q1']:.5g}, {ch['q3']:.5g}] {unit}"
            f" ({rel}, lower in {c['lower']}/{c['pairs']}; gap {c['gap']:.5g}"
            f" against the parent's IQR {c['parent_iqr']:.5g})")


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
    parser.add_argument("--workload", type=workload_list, required=True, metavar="W[,W...]")
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed to run.py (default: its BENCHMARK.json run_seconds)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the pairs and their summary to PATH as JSON")
    args = parser.parse_args(argv)
    try:
        bounds = {m["name"]: m for m in
                  json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"{args.change}/BENCHMARK.json gives no end_to_end bounds: {exc}")

    sections = {workload: {"pairs": [], "runs_not_correct": 0} for workload in args.workload}
    units, sources = {}, {}
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONPYCACHEPREFIX")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="perf_pairs-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, root in roots.items():
            shutil.copytree(getattr(args, side), root,
                            ignore=shutil.ignore_patterns(".git", "__pycache__"))
            sources[side] = source_sha256(root)
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for workload, section in sections.items():
                results = {side: run(roots[side], env, args, workload, seed) for side in order}
                section["pairs"].append({"seed": seed, "first": order[0], **{
                    side: {name: m["value"] for name, m in results[side]["metrics"].items()}
                    for side in SIDES}})
                cells = []
                for side in SIDES:
                    result = results[side]
                    if not result["correct"] or result["failed"]:
                        section["runs_not_correct"] += 1
                        print(f"perf_pairs: {workload}: {side} seed {seed}: "
                              f"correct={result['correct']} failed={result['failed']}",
                              file=sys.stderr)
                    units.update((name, m["unit"]) for name, m in result["metrics"].items())
                    cells.append(side + " " + " ".join(
                        f"{name}={metric['value']:.5g}"
                        for name, metric in result["metrics"].items()))
                print(f"pair {i} seed {seed} {workload} ({order[0]} first): " + "; ".join(cells),
                      flush=True)
    for workload, section in sections.items():
        section["metrics"] = {}
        for name in section["pairs"][0]["parent"]:
            parent, change = ([pair[side][name] for pair in section["pairs"]] for side in SIDES)
            better, bound = bounds[name]["better"], bounds[name]["bound"]
            judged = verdict(parent, change, better, bound)
            section["metrics"][name] = {"unit": units[name], "better": better, "bound": bound,
                                        **compare(parent, change), "verdict": judged}
            print(f"{workload} {summary(name, units[name], parent, change)}")
            print(f"{workload} {name}: {judged} ({better} is better, bound {bound:g})")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "seconds": args.seconds, "workloads": sections,
            "provenance": {"seeds": args.seeds, "python": platform.python_version(),
                           "implementation": platform.python_implementation(),
                           "nproc": os.cpu_count(), "machine": platform.machine(),
                           "source_sha256": sources}}, indent=2) + "\n")
    bad = sum(section["runs_not_correct"] for section in sections.values())
    if bad:
        print(f"perf_pairs: {bad} run(s) not correct or with failed jobs", file=sys.stderr)
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
