"""Seeded random generators shared by the test modules.

`random_profile` and `random_det` are the package's samplers, the ones
`fixloc bijection-check` draws its random covers from.
"""

from __future__ import annotations

import random
from fractions import Fraction

from fixloc import Rank2EqData, admissible_pairs, make_bundle
from fixloc.covers import random_profile
from fixloc.equivariant import random_det

__all__ = ["random_bundle", "random_data", "random_det", "random_profile"]


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
