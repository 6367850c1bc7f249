"""Workload `classify`: the exact stability trichotomy on split flag configurations.

The corpus is drawn from a pool of configurations on the normalized
degree -(g+1) family, g in {2, 3, 4} and every admissible c, half with
all-1/2 weights and half with generic quarter weights.  The pool was
made once by `gen.flag_configuration` and labelled once by the
brute-force oracle in the test suite (see `record.py`).  Every
(g, c, weights) cell gets the same number of jobs, split among the three
verdicts in the shares the generator produces them, as measured by
`record.py` and stored with the pool (largest remainders, capped at the
pool's members).  The run's seed picks which configurations of each
(g, c, weights, verdict) stratum are classified and in what order; the
number per stratum depends only on the run length, so the mix of cheap
early exits and full scans is the generator's own for every seed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from common import REFERENCE

from fixloc import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    bundle_from_json,
    graded_of,
    stability_classify,
    validate_witness,
)
from fixloc.errors import InvalidDatum

POOL = REFERENCE / "classify_pool.json"

# configurations per (g, c, weights) cell and per second of run length
PER_SECOND = 1.4
VERDICTS = (STABLE, STRICTLY_SEMISTABLE, UNSTABLE)


def split(total: int, counts: dict) -> dict:
    """`total` jobs in proportion to `counts`, by largest remainders."""
    drawn = sum(counts.values())
    exact = {label: total * counts[label] / drawn for label in VERDICTS}
    take = {label: int(x) for label, x in exact.items()}
    by_remainder = sorted(VERDICTS, key=lambda label: take[label] - exact[label])
    for label in by_remainder[:total - sum(take.values())]:
        take[label] += 1
    return take


def setup(rng, seconds: float) -> list[dict]:
    with open(POOL, encoding="utf-8") as fh:
        pool = json.load(fh)
    strata: dict[tuple, list[tuple[int, dict]]] = {}
    for index, entry in enumerate(pool["bundles"]):
        key = (entry["g"], entry["c"], entry["weights"], entry["label"])
        strata.setdefault(key, []).append((index, entry))
    per_cell = max(1, round(PER_SECOND * seconds))
    take = {}
    for cell, counts in pool["shares"].items():
        g, c, weights = cell.split("/")
        for label, count in split(per_cell, counts).items():
            take[(int(g[1:]), int(c[1:]), weights, label)] = count
    jobs = []
    for key in sorted(strata):
        members = strata[key]
        for index, entry in rng.sample(members, min(len(members), take[key])):
            g, c, weights, label = key
            jobs.append({
                "name": f"classify/g{g}/c{c}/{weights}/{label}#{index}",
                "g": g, "c": c, "weights": weights, "expect": label,
                "bundle": bundle_from_json(entry["doc"]),
            })
    rng.shuffle(jobs)
    return jobs


def warmup(jobs: list[dict]) -> list[dict]:
    """One g=2 job of each verdict, so the warm-up costs the same for every seed."""
    first = {}
    for job in jobs:
        if job["g"] == 2:
            first.setdefault(job["expect"], job)
    return list(first.values())


def run(job: dict, tracer):
    verdict = tracer.call("stability.classify", stability_classify, job["bundle"], job["g"])
    graded = None
    if verdict.label == STRICTLY_SEMISTABLE:
        graded = tracer.call("stability.graded_of", graded_of, job["bundle"], verdict)
    return verdict, graded


def slope_difference(bundle, e: int, agreement) -> Fraction:
    """d/2 - e + (sum of weights off the agreement - sum on it) / 2."""
    acc = Fraction(bundle.d, 2) - e
    for i, w in enumerate(bundle.weights):
        acc += -w / 2 if i in agreement else w / 2
    return acc


def check(job: dict, out) -> list[str]:
    verdict, graded = out
    bundle = job["bundle"]
    problems = []
    if verdict.label != job["expect"]:
        problems.append(f"verdict {verdict.label}, oracle says {job['expect']}")
    wit = verdict.witness
    if verdict.label == STABLE:
        if wit is not None:
            problems.append("stable verdict carries a witness")
        return problems
    if wit is None:
        return problems + [f"{verdict.label} verdict without a witness"]
    try:
        validate_witness(bundle, wit)
    except InvalidDatum as exc:
        problems.append(f"witness rejected: {exc}")
    diff = slope_difference(bundle, wit.e, wit.agreement)
    sign = UNSTABLE if diff < 0 else STRICTLY_SEMISTABLE if diff == 0 else STABLE
    if sign != verdict.label:
        problems.append(f"witness slope difference {diff} contradicts {verdict.label}")
    if verdict.label == STRICTLY_SEMISTABLE:
        weighted = {i for i, w in enumerate(bundle.weights) if w != 0}
        expected = {(wit.e, frozenset(wit.agreement & weighted)),
                    (bundle.d - wit.e, frozenset(weighted - wit.agreement))}
        found = {(s.bar_degree, frozenset(s.support)) for s in graded.summands}
        if found != expected:
            problems.append(f"graded object {sorted(found, key=str)} "
                            f"is not {sorted(expected, key=str)}")
    return problems


def facts(job: dict, out) -> dict:
    verdict, _ = out
    wit = verdict.witness
    early = (verdict.label == UNSTABLE and wit is not None and wit.e == job["bundle"].c
             and not wit.q_coeffs)
    return {"verdict": verdict.label, "early_exit": early}
