"""Seeded input generators owned by the benchmark.

These are kept apart from the test suite's generators on purpose: edits
to the tests must not shift the benchmark's inputs.  Every function takes
a `random.Random` and returns plain library inputs; nothing here calls
into the classification code.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def split_types(g: int) -> list[int]:
    """Admissible splitting types c of the degree -(g+1) family, d/2 <= c < 0."""
    return list(range(-((g + 1) // 2), 0))


def flag_configuration(rng: random.Random, g: int, c: int, generic: bool) -> dict:
    """One flag configuration of the normalized family, as a CLI document.

    Flags lean toward degenerate coincidences (the split directions and
    repeats of earlier flags) so that all three stability verdicts occur.
    Weights are all 1/2, or independent quarters when `generic` is set.
    """
    npoints = 2 * g + 2
    points = rng.sample(range(-6, 7), npoints)
    flags: list[tuple[Fraction, Fraction]] = []
    for _ in range(npoints):
        roll = rng.random()
        if roll < 0.25:
            flags.append((Fraction(1), Fraction(0)))
        elif roll < 0.4:
            flags.append((Fraction(0), Fraction(1)))
        elif roll < 0.6 and flags:
            flags.append(rng.choice(flags))
        else:
            flags.append((Fraction(1), Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
    if generic:
        weights = [Fraction(rng.randint(0, 3), 4) for _ in range(npoints)]
    else:
        weights = [Fraction(1, 2)] * npoints
    return {
        "g": g,
        "c": c,
        "points": [_rat(z) for z in points],
        "flags": [[_rat(a), _rat(b)] for a, b in flags],
        "weights": [_rat(w) for w in weights],
    }


def _rat(x) -> dict:
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def pair_count(delta: int, nprime: int) -> int:
    """Number of pairs d1 <= d2 < n' with d1 + d2 = delta mod n'.

    Counted through d1 alone (d2 is then forced), independently of the
    library's pair listing.
    """
    return sum(1 for d1 in range(nprime) if (delta - d1) % nprime >= d1)


def lambda_size(n: int, lengths: list[int], residues: list[int]) -> int:
    return math.prod(pair_count(res, n // k) for k, res in zip(lengths, residues))


def cover_case(rng: random.Random, n: int, orbits: int) -> dict:
    """Random cover profile of order n with random determinant data.

    Returns plain data: orbit lengths (proper divisors of n), determinant
    residues and degree, lift sign, and a base genus.
    """
    divisors = [k for k in range(1, n) if n % k == 0]
    lengths = [rng.choice(divisors) for _ in range(orbits)] if divisors else []
    residues = [rng.randrange(n // k) for k in lengths]
    degree = sum(r * k for r, k in zip(residues, lengths)) + n * rng.randint(-3, 3)
    sign = "-" if n % 2 == 0 and rng.random() < 0.5 else "+"
    return {
        "n": n,
        "genus_base": rng.randint(0, 3),
        "lengths": lengths,
        "residues": residues,
        "degree": degree,
        "sign": sign,
    }
