"""Seeded random generators shared by the test modules."""

from __future__ import annotations

import random
from fractions import Fraction

from fixloc import (
    DeterminantLift,
    MINUS,
    PLUS,
    Rank2EqData,
    admissible_pairs,
    make_bundle,
    make_profile,
)


def random_profile(rng: random.Random, max_n: int = 12, max_orbits: int = 4,
                   even_n: bool = False):
    while True:
        n = rng.randint(1, max_n)
        if not even_n or n % 2 == 0:
            break
    divisors = [k for k in range(1, n) if n % k == 0]
    count = rng.randint(0, max_orbits) if divisors else 0
    lengths = [(f"y{i}", rng.choice(divisors)) for i in range(count)]
    return make_profile(n, lengths, genus_base=rng.randint(0, 3))


def random_det(rng: random.Random, profile) -> DeterminantLift:
    residues = {y.id: rng.randrange(y.nprime) for y in profile.orbits}
    degree = sum(residues[y.id] * y.k for y in profile.orbits)
    degree += profile.n * rng.randint(-3, 3)
    sign = PLUS
    if profile.n % 2 == 0 and rng.random() < 0.5:
        sign = MINUS
    return DeterminantLift(residues=residues, degree=degree, lift_sign=sign)


def random_data(rng: random.Random, profile) -> Rank2EqData:
    """Admissible datum sampled orbitwise (avoids enumerating the product)."""
    det = random_det(rng, profile)
    numeric = {
        y.id: rng.choice(admissible_pairs(det.residues[y.id], y.nprime))
        for y in profile.orbits
    }
    return Rank2EqData(numeric=numeric, det=det)


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
