"""Workload `lambda`: covers, divisors and the admissible set on random cover profiles.

Each job is one seeded random profile (n <= 24, up to five special
orbits) with a random determinant.  It runs kernel order and the cover
factorization, numeric data of random divisors, the admissible set Λ
with a parabolic round trip on up to CAP of its elements, the closed-form
modification against iterated single steps, `solve_d2`, and for even n
both routes of lift negation and the two case analyses.

Profiles are plain seeded draws: n uniform in 1..24, 0 to 5 orbits,
then `gen.cover_case`.  A draw with |Λ| above MAX_LAMBDA is drawn again.
Without that cap about 6% of draws exceed it and hold most of the
elements: the run builds 12 to 16 million of them, and their sum varies
by 30% from seed to seed.  Under the cap the measured shares are about
58% of profiles with |Λ| <= 16, 29% with 17..256 and 13% above 256, and
the total varies by under 5%.  One extra five-orbit n=24 profile has
|Λ| = 13^5 = 371,293, so building that list shows in the peak RSS.  Λ
is thus generated in bulk and validated per element in the same run.
"""

from __future__ import annotations

import math

import gen

from fixloc import (
    FIRST,
    SECOND,
    DeterminantLift,
    FlagSelector,
    InvariantDivisor,
    Rank2EqData,
    decomposition_report,
    elementary_modification,
    enumerate_lambda,
    factor_cover,
    from_parabolic,
    gamma_apply,
    is_pullback,
    kernel_order,
    make_profile,
    numeric_data,
    parabolic_zeta2,
    solve_d2,
    to_parabolic,
    unramified_census,
    zeta2_apply,
)

CAP = 16          # round trips per profile
MODIFY = 4        # closed-form modifications checked per profile
SOLVE = 4         # solve_d2 calls per profile
NEGATE = 4        # elements negated per even-order profile

MAX_LAMBDA = 4096  # random profiles with a larger Λ are drawn again
PROFILES_PER_SECOND = 550


def _draw(rng) -> dict:
    while True:
        n = rng.randint(1, 24)
        case = gen.cover_case(rng, n, rng.randint(0, 5))
        if gen.lambda_size(n, case["lengths"], case["residues"]) <= MAX_LAMBDA:
            return case


def _big(rng) -> dict:
    residues = [2 * rng.randrange(12) for _ in range(5)]
    return {"n": 24, "genus_base": rng.randint(0, 3), "lengths": [1] * 5,
            "residues": residues, "degree": sum(residues) + 24 * rng.randint(-3, 3),
            "sign": rng.choice("+-")}


def _job(rng, name: str, case: dict) -> dict:
    n, lengths = case["n"], case["lengths"]
    ids = [f"y{i}" for i in range(len(lengths))]
    profile = make_profile(n, list(zip(ids, lengths)), genus_base=case["genus_base"])
    det = DeterminantLift(residues=dict(zip(ids, case["residues"])), degree=case["degree"],
                          lift_sign=case["sign"])
    divisors = []
    for _ in range(2):
        pullback = rng.random() < 0.3
        residues = {y: (n // k) * rng.randint(-2, 2) if pullback else rng.randint(-2 * n, 2 * n)
                    for y, k in zip(ids, lengths) if rng.random() < 0.8}
        divisors.append(InvariantDivisor(residues=residues, base_degree=rng.randint(-3, 3)))
    moves = [({y: rng.randint(-2, 2) for y in ids},
              FlagSelector(choice={y: rng.choice((FIRST, SECOND)) for y in ids}))
             for _ in range(MODIFY)]
    return {
        "name": name, "case": case, "profile": profile, "det": det,
        "divisors": divisors, "moves": moves,
        "census_degree": n * rng.randint(-3, 3),
        "expect_count": gen.lambda_size(n, lengths, case["residues"]),
    }


def setup(rng, seconds: float) -> list[dict]:
    jobs = [_job(rng, "lambda/big-n24-5orbits", _big(rng))]
    for i in range(max(10, round(PROFILES_PER_SECOND * seconds))):
        case = _draw(rng)
        name = f"lambda/n{case['n']}-o{len(case['lengths'])}#{i}"
        jobs.append(_job(rng, name, case))
    rng.shuffle(jobs)
    return jobs


def warmup(jobs: list[dict]) -> list[dict]:
    """Ten jobs with 17 <= |Λ| <= 256, whose cost is flat because of the caps."""
    return [job for job in jobs if 17 <= job["expect_count"] <= 256][:10]


def _roundtrip(data, profile):
    pdat = to_parabolic(data, profile)
    return pdat, from_parabolic(pdat, profile)


def _iterate_steps(data, profile, m, flags, tracer):
    """m(y) single modifications per orbit, re-locating the tracked exponent each step."""
    current = data
    for y in profile.orbits:
        if m[y.id] == 0:
            continue
        track = current.numeric[y.id][0 if flags.choice[y.id] == FIRST else 1]
        for _ in range(abs(m[y.id])):
            direction = FIRST if current.numeric[y.id][0] == track else SECOND
            current = tracer.call("equivariant.modify", elementary_modification,
                                  current, profile, y.id, direction, m[y.id] < 0)
    return current


def run(job: dict, tracer) -> dict:
    profile, det = job["profile"], job["det"]
    out = {
        "kernel": tracer.call("covers.kernel_order", kernel_order, profile),
        "factor": tracer.call("covers.factor_cover", factor_cover, profile),
        "numeric": [tracer.call("divisors.numeric_data", numeric_data, div, profile)
                    for div in job["divisors"]],
        "pullback": [tracer.call("divisors.is_pullback", is_pullback, div, profile)
                     for div in job["divisors"]],
    }
    elements = tracer.call("equivariant.enumerate", enumerate_lambda, det, profile)
    out["count"] = len(elements)
    data = [Rank2EqData(numeric=x, det=det)
            for x in elements[::max(1, len(elements) // CAP)][:CAP]]
    del elements
    out["data"] = data
    out["trips"] = [tracer.call("equivariant.roundtrip", _roundtrip, d, profile) for d in data]
    out["modified"] = [
        (tracer.call("equivariant.modify", gamma_apply, d, profile, m, flags),
         _iterate_steps(d, profile, m, flags, tracer))
        for d, (m, flags) in zip(data, job["moves"])]
    out["solved"] = [tracer.call("equivariant.solve_d2", solve_d2, det, pdat.weights, profile)
                     for pdat, _ in out["trips"][:SOLVE]]
    if profile.n % 2 == 0:
        negated = []
        for d, (pdat, _) in list(zip(data, out["trips"]))[:NEGATE]:
            image = tracer.call("locus.zeta2", zeta2_apply, d, profile)
            down = tracer.call("locus.zeta2", parabolic_zeta2, pdat, profile)
            negated.append((
                tracer.call("locus.zeta2", zeta2_apply, image, profile),
                tracer.call("locus.zeta2", parabolic_zeta2, down, profile),
                tracer.call("equivariant.descend", to_parabolic, image, profile),
                down))
        out["negated"] = negated
        out["decomposition"] = tracer.call("locus.cases", decomposition_report, profile)
        out["census"] = tracer.call("locus.cases", unramified_census, profile.n,
                                    job["census_degree"], profile.genus_base)
    return out


def check(job: dict, out: dict) -> list[str]:
    profile, case = job["profile"], job["case"]
    problems = []
    r = math.gcd(case["n"], *case["lengths"])
    if out["kernel"] != r:
        problems.append(f"kernel order {out['kernel']}, gcd gives {r}")
    ramified, r2 = out["factor"]
    if (r2, ramified.n, [y.k for y in ramified.orbits]) != (r, case["n"] // r,
                                                           [k // r for k in case["lengths"]]):
        problems.append(f"factorization ({r2}, {ramified}) does not split off degree {r}")
    for div, num, pull in zip(job["divisors"], out["numeric"], out["pullback"]):
        want = {y.id: div.residues.get(y.id, 0) % y.nprime for y in profile.orbits}
        if num.values != want or pull != (not any(want.values())):
            problems.append(f"numeric data {num.values} / pullback {pull}, expected {want}")
    if out["count"] != job["expect_count"]:
        problems.append(f"|Λ| = {out['count']}, product of pair counts is {job['expect_count']}")
    for d, (pdat, back) in zip(out["data"], out["trips"]):
        if back != d:
            problems.append(f"round trip of {d.numeric} returned {back.numeric}")
    for gamma, stepped in out["modified"]:
        if gamma != stepped:
            problems.append(f"closed-form modification {gamma.numeric} "
                            f"!= iterated {stepped.numeric}")
    for (pdat, _), solutions in zip(out["trips"], out["solved"]):
        if pdat.d2 not in solutions:
            problems.append(f"solve_d2 misses the flag exponents {pdat.d2}")
    if profile.n % 2 == 0:
        for d, (pdat, _), (twice, ptwice, descended, down) in zip(out["data"], out["trips"],
                                                                   out["negated"]):
            if twice != d or ptwice != pdat:
                problems.append(f"lift negation is not an involution on {d.numeric}")
            if descended != down:
                problems.append(f"lift negation does not commute with descent on {d.numeric}")
        reduced = job["census_degree"] // profile.n
        want = ("n even, r odd" if r % 2 else "n even, r even",
                f"n even, reduced degree {'odd' if reduced % 2 else 'even'}")
        found = (out["decomposition"].case, out["census"].case)
        if found != want:
            problems.append(f"cases {found}, parity gives {want}")
    return problems


def facts(job: dict, out: dict) -> dict:
    return {"elements": out["count"]}
