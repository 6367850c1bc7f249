"""Seeded random generators shared by the test modules.

`random_profile` and `random_det` are the package's samplers, the ones
`fixloc bijection-check` draws its random covers from.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fixloc import (
    AdmissibleParabolicDatum,
    DeterminantLift,
    GradedPoint,
    GradedSummand,
    NonIntegralDegree,
    Rank2EqData,
    RootExponent,
    admissible_pairs,
    make_bundle,
    make_profile,
    sim_e_step,
    sim_o_step,
)
from fixloc.covers import random_profile
from fixloc.equivariant import random_det
from fixloc.locus import validate_graded

__all__ = ["random_bundle", "random_data", "random_det", "random_graded", "random_parabolic",
           "random_profile", "sample_graded", "twist_corpus"]


def random_data(rng: random.Random, profile) -> Rank2EqData:
    """Admissible datum sampled orbitwise (avoids enumerating the product)."""
    det = random_det(rng, profile)
    numeric = {
        y.id: rng.choice(admissible_pairs(det.residues[y.id], y.nprime))
        for y in profile.orbits
    }
    return Rank2EqData(numeric=numeric, det=det)


def random_parabolic(rng: random.Random, profile) -> AdmissibleParabolicDatum:
    """Admissible parabolic datum naming every orbit: weight m/n' (a zero
    weight an int or a Fraction) and m <= d2 < n' at each orbit."""
    weights, d2 = {}, {}
    for y in profile.orbits:
        m = rng.randrange(y.nprime)
        weights[y.id] = rng.choice((0, Fraction(0))) if m == 0 else Fraction(m, y.nprime)
        d2[y.id] = rng.randrange(m, y.nprime)
    sign = rng.choice("+-") if profile.n % 2 == 0 else "+"
    return AdmissibleParabolicDatum(rng.randint(-4, 4), weights, d2, sign)


def random_graded(rng: random.Random, profile) -> GradedPoint | None:
    """Random graded point over profile, or None when the drawn supports
    leave the two summand degrees unequal modulo n."""
    data = random_data(rng, profile)
    weighted = [y.id for y in profile.orbits
                if data.numeric[y.id][0] != data.numeric[y.id][1]]
    supp0 = frozenset(label for label in weighted if rng.random() < 0.5)
    supp1 = frozenset(weighted) - supp0
    # choose bar degrees making the two upstairs degrees equal
    spread = {0: 0, 1: 0}
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        spread[0] += y.k * (d2 if y.id in supp0 else d1)
        spread[1] += y.k * (d2 if y.id in supp1 else d1)
    if (spread[0] - spread[1]) % profile.n != 0:
        return None
    bar0 = rng.randint(-3, 3)
    bar1 = bar0 + (spread[0] - spread[1]) // profile.n
    det = DeterminantLift(
        residues=data.det.residues,
        degree=profile.n * (bar0 + bar1) + spread[0] + spread[1],
        lift_sign=data.det.lift_sign)
    pt = GradedPoint(
        (GradedSummand(bar0, supp0), GradedSummand(bar1, supp1)),
        numeric=data.numeric, det=det)
    validate_graded(pt, profile)
    return pt


def sample_graded(rng: random.Random, tries: int = 200):
    """(profile, point): a random graded point over a random profile, n <= 10."""
    for _ in range(tries):
        profile = random_profile(rng, max_n=10, max_orbits=3)
        pt = random_graded(rng, profile)
        if pt is not None:
            return profile, pt
    raise AssertionError("no graded sample found")


def absorbing_profile(rng, n):
    """Up to four orbits over n with sum_y k(y) divisible by n, so every twist descends."""
    divisors = [k for k in range(1, n) if n % k == 0]
    while True:
        lengths = [rng.choice(divisors) for _ in range(rng.randint(1, 4))]
        if sum(lengths) % n == 0:
            return make_profile(n, [(f"y{i}", k) for i, k in enumerate(lengths)])


def twist_corpus(seed, cases):
    """Seeded multi-point closures with n <= 24: (profile, points, kinds of member).

    Most profiles absorb every twist.  Each input holds a few random
    points, some of them o-stepped and (even n) e-stepped.
    """
    rng = random.Random(seed)
    for i in range(cases):
        if i % 5 == 4:
            profile = random_profile(rng, max_n=24, max_orbits=3)
        else:
            profile = absorbing_profile(rng, rng.choice((2, 3, 4, 6, 8, 9, 12, 15, 16, 24)))
        n = profile.n
        drawn = (random_graded(rng, profile) for _ in range(40))
        points = [pt for pt in drawn if pt is not None][:3]
        if not points:
            continue
        kinds = {"drawn": len(points)}

        def add(kind, step, *args):
            try:
                points.append(step(*args))
            except NonIntegralDegree:
                return
            kinds[kind] = kinds.get(kind, 0) + 1

        for pt in points[:2]:
            add("o-stepped", sim_o_step, pt, RootExponent(rng.randrange(n), n), profile)
            if n % 2 == 0:
                add("e-stepped", sim_e_step, pt, profile, rng.randrange(1, n, 2), rng.randrange(2))
        rng.shuffle(points)
        yield profile, points, kinds


def random_bundle(rng: random.Random, g: int, c: int, generic_weights: bool = False,
                  span: int = 6):
    """Flag configuration on the normalized degree -(g+1) family.

    Points are distinct integers in [-span, span].  Flags are biased
    toward degenerate coincidences (split directions, repeats) so that
    all three stability classes occur with substantial frequency.
    """
    npoints = 2 * g + 2
    d = -(g + 1)
    points = rng.sample(range(-span, span + 1), npoints)
    flags = []
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
    return make_bundle(c, d, points, flags, weights)
