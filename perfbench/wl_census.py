"""Workload `census`: the order-two family report, three ways.

  report   `hyperelliptic_report(g)` with classes, as the CLI runs it for g <= 4
  closure  `equivalence_classes` alone on every double/flagged boundary point, g <= 5
  counts   `hyperelliptic_report(g, with_classes=False)`, g as large as the run allows

This exercises the twist-closure search and the boundary-subset
enumeration and no stability code.  The jobs are fixed by the run
length, from g=2 (g=1 jobs take a few milliseconds and would only pull the
median job time away from the real work); the seed permutes the closure's
input points and the job order.
Answers are checked against the counts recorded in `reference/census.json`.
"""

from __future__ import annotations

import itertools
import json

from common import REFERENCE

from fixloc import (
    double_class,
    equivalence_classes,
    flagged_class,
    hyperelliptic_profile,
    hyperelliptic_report,
)

CENSUS = REFERENCE / "census.json"

# wall seconds per job, measured on a 2-core x86-64 sandbox with Python 3.11;
# they only decide which genera fit into a run of the requested length
# (the budget is that length); the list then runs once per ROUND_SECONDS
COST = {
    "report": {2: 0.03, 3: 0.15, 4: 0.75},
    "closure": {2: 0.03, 3: 0.15, 4: 0.75, 5: 3.9},
    "counts": {2: 0.02, 3: 0.05, 4: 0.1, 5: 0.3, 6: 1.4, 7: 9.0},
}
ROUND_SECONDS = 5.0


def boundary_points(g: int) -> list:
    """The semistable boundary of the family: double and flagged classes of even subsets."""
    subsets = [frozenset(q) for size in range(0, 2 * g + 3, 2)
               for q in itertools.combinations(range(2 * g + 2), size)]
    points = [double_class(g, q) for q in subsets]
    points += dict.fromkeys(flagged_class(g, q) for q in subsets)
    return points


def setup(rng, seconds: float) -> list[dict]:
    with open(CENSUS, encoding="utf-8") as fh:
        reference = json.load(fh)["genus"]
    jobs, budget = [], seconds
    for g in range(2, 8):
        for way in ("report", "closure", "counts"):
            cost = COST[way].get(g)
            if cost is None or cost > budget:
                continue
            budget -= cost
            job = {"name": f"census/{way}/g{g}", "way": way, "g": g, "expect": reference[str(g)]}
            if way == "closure":
                points = boundary_points(g)
                rng.shuffle(points)
                job["points"] = points
                job["profile"] = hyperelliptic_profile(g)
            jobs.append(job)
    jobs *= max(1, int(seconds // ROUND_SECONDS))
    rng.shuffle(jobs)
    return jobs


def warmup(jobs: list[dict]) -> list[dict]:
    return [job for job in jobs if job["g"] == 2]


def run(job: dict, tracer):
    g = job["g"]
    if job["way"] == "report":
        return tracer.call("locus.report", hyperelliptic_report, g)
    if job["way"] == "counts":
        return tracer.call("locus.boundary", hyperelliptic_report, g, False)
    classes = tracer.call("locus.closure", equivalence_classes, job["points"], job["profile"])
    return [len(cls) for cls in classes]


def _component_counts(report) -> dict:
    return {rec.label: len(rec.boundary_classes) for rec in report.components}


def check(job: dict, out) -> list[str]:
    expect = job["expect"]
    if job["way"] == "closure":
        problems = []
        if len(out) != expect["class_count"]:
            problems.append(f"{len(out)} classes, recorded {expect['class_count']}")
        if sum(out) != len(job["points"]):
            problems.append(f"classes hold {sum(out)} of {len(job['points'])} points")
        return problems
    found = {
        "components": _component_counts(out),
        "pairwise": {f"{a} & {b}": len(s) for (a, b), s in out.pairwise_intersections.items()},
        "dimensions": {rec.label: rec.dimension for rec in out.components},
        "normal": all(rec.normal for rec in out.components),
        "subset_label_count": out.subset_label_count,
    }
    want = {key: expect[key] for key in found}
    found["class_count"] = out.boundary_class_count
    # the counts-only report skips the class count and says so with -1
    want["class_count"] = -1 if job["way"] == "counts" else expect["class_count"]
    return [f"{key}: {found[key]!r}, recorded {want[key]!r}"
            for key in found if found[key] != want[key]]


def facts(job: dict, out) -> dict:
    if job["way"] == "closure":
        return {"points": len(job["points"]), "classes": len(out)}
    return {"classes": sum(_component_counts(out).values())}
