"""Combinatorial profiles of cyclic branched covers.

A cover profile records the data of a degree-n cyclic cover of curves
that the rest of the package consumes: the order n of the automorphism,
the base genus (reporting only), and one entry per special orbit, i.e.
per branch point, holding the orbit length k(y) < n.  The local
stabilizer order n'(y) = n / k(y) is derived.  A CoverProfile runs
`validate` when it is built, so every profile in use is valid.

No Riemann-Hurwitz consistency is imposed: profiles are combinatorial
objects and some of them are not realized by any actual curve.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._ser import FrozenDict, frozen, is_int, list_of, parse_object, require_int, require_str
from .errors import DomainError, InternalError, InvalidProfile, UnknownOrbit

# kernel_order finds the kernel order by a divisor search up to isqrt(n); the
# largest n accepted took about 8 s (README)
MAX_KERNEL_COVER_ORDER = 10 ** 16


@frozen
class SpecialOrbit:
    """One branch orbit: label, length k, stabilizer order n' = n/k."""

    id: str
    k: int
    nprime: int


@frozen
class CoverProfile:
    n: int
    orbits: tuple[SpecialOrbit, ...]
    genus_base: int = 0

    def __post_init__(self) -> None:
        validate(self)
        # a tuple, so that nothing changes a profile that marks a datum valid
        object.__setattr__(self, "orbits", tuple(self.orbits))

    # Computed on first use and kept in the instance __dict__; not a record
    # field, so equality, hashing, repr and JSON see only the fields.
    @cached_property
    def orbit_index(self) -> FrozenDict[str, SpecialOrbit]:
        """Orbit by label, in profile order; read-only."""
        return FrozenDict({y.id: y for y in self.orbits})

    @cached_property
    def _orbit_ids(self) -> tuple[str, ...]:
        return tuple(y.id for y in self.orbits)

    def orbit(self, orbit_id: str) -> SpecialOrbit:
        """The orbit with this label; KeyError when the profile has none."""
        return self.orbit_index[orbit_id]

    def orbit_ids(self) -> tuple[str, ...]:
        return self._orbit_ids


def make_profile(n: int, lengths: dict[str, int] | list[tuple[str, int]],
                 genus_base: int = 0) -> CoverProfile:
    """Build and validate a profile from (label, orbit length) pairs.

    Each orbit's n' is n // k where that is defined; the profile's
    `validate` raises InvalidProfile for any fault, the first one it
    checks.
    """
    items = lengths.items() if isinstance(lengths, dict) else lengths
    orbits = tuple(SpecialOrbit(id=str(label), k=k,
                                nprime=n // k if is_int(n) and is_int(k) and k != 0 else None)
                   for label, k in items)
    return CoverProfile(n=n, orbits=orbits, genus_base=genus_base)


def random_profile(rng: random.Random, max_n: int = 12, max_orbits: int = 4,
                   even_n: bool = False) -> CoverProfile:
    """Seeded random profile: n uniform in 1..max_n (even when asked), up to
    max_orbits special orbits of random proper-divisor length."""
    while True:
        n = rng.randint(1, max_n)
        if not even_n or n % 2 == 0:
            break
    divisors = [k for k in range(1, n) if n % k == 0]
    count = rng.randint(0, max_orbits) if divisors else 0
    lengths = [(f"y{i}", rng.choice(divisors)) for i in range(count)]
    return make_profile(n, lengths, genus_base=rng.randint(0, 3))


def validate(profile: CoverProfile) -> None:
    """Check structural invariants; raise InvalidProfile on violation."""
    if not is_int(profile.n) or profile.n < 1:
        raise InvalidProfile(f"cover order must be a positive integer, got {profile.n!r}")
    if not is_int(profile.genus_base) or profile.genus_base < 0:
        raise InvalidProfile(f"base genus must be a non-negative integer, got {profile.genus_base!r}")
    seen = set()
    for y in profile.orbits:
        if y.id in seen:
            raise InvalidProfile(f"duplicate orbit label {y.id!r}")
        seen.add(y.id)
        if not is_int(y.k) or y.k < 1 or profile.n % y.k != 0:
            raise InvalidProfile(f"orbit {y.id!r}: length {y.k} does not divide n={profile.n}")
        if y.k == profile.n:
            # full-length orbits are generic, not special; they carry no data
            raise InvalidProfile(f"orbit {y.id!r} has full length n={profile.n}")
        if not is_int(y.nprime) or y.nprime != profile.n // y.k:
            raise InvalidProfile(f"orbit {y.id!r}: stabilizer order {y.nprime} != {profile.n}//{y.k}")


def check_orbit_labels(labels, profile: CoverProfile) -> None:
    """UnknownOrbit for the first of labels, in iteration order, that the profile lacks."""
    index = profile.orbit_index
    for label in labels:
        if label not in index:
            raise UnknownOrbit(label)


def gcd_orbit_lengths(profile: CoverProfile) -> int:
    """gcd of n and all special-orbit lengths (n itself when there are none)."""
    return math.gcd(profile.n, *(y.k for y in profile.orbits))


def kernel_order(profile: CoverProfile) -> int:
    """Order of the kernel of pullback on degree-zero line bundle classes.

    The kernel of pullback along the cover is cyclic, generated by the
    class cutting out the maximal unramified intermediate quotient; its
    order is the largest divisor of n dividing every orbit length.
    Computed here by divisor search, over divisor pairs up to sqrt(n),
    and cross-checked against the gcd form, which is a separate code
    path.  A cover order past MAX_KERNEL_COVER_ORDER is rejected with
    DomainError before the search.
    """
    n = profile.n
    if n > MAX_KERNEL_COVER_ORDER:
        raise DomainError(f"cover order {n} is past the kernel-order limit of "
                          f"{MAX_KERNEL_COVER_ORDER}")
    best = 1
    # divisors come in pairs (t, n // t) with t <= isqrt(n)
    for t in range(1, math.isqrt(n) + 1):
        if n % t != 0:
            continue
        for divisor in (t, n // t):
            if divisor > best and all(y.k % divisor == 0 for y in profile.orbits):
                best = divisor
    if best != gcd_orbit_lengths(profile):
        raise InternalError(f"kernel order {best} disagrees with the gcd route")
    return best


def factor_cover(profile: CoverProfile) -> tuple[CoverProfile, int]:
    """Split the cover into a ramified part over an unramified part.

    Returns (ramified_profile, r): the cover factors through an
    intermediate curve; the map onto the base is unramified of degree
    r = kernel_order(profile), and the remaining degree n/r cover is
    described by ramified_profile, whose orbit lengths k/r now have
    trivial common divisor with n/r.  The intermediate reporting genus
    comes from the unramified degree formula r*(g-1)+1, floored at 0
    for profiles with no geometric realization.
    """
    r = kernel_order(profile)
    mid_genus = max(0, r * (profile.genus_base - 1) + 1)
    orbits = tuple(
        SpecialOrbit(id=y.id, k=y.k // r, nprime=y.nprime) for y in profile.orbits
    )
    return CoverProfile(n=profile.n // r, orbits=orbits, genus_base=mid_genus), r


def orbit_length_under_power(k: int, d: int) -> int:
    """Length of a k-point orbit under the d-th power of the generator."""
    if k < 1 or d < 1:
        raise InvalidProfile(f"orbit length {k} and power {d} must be positive")
    return k // math.gcd(d, k)


# --- serialization ---

def profile_to_json(profile: CoverProfile) -> dict:
    return {
        "n": profile.n,
        "genus_base": profile.genus_base,
        "orbits": [{"id": y.id, "k": y.k} for y in profile.orbits],
    }


def _orbit_from_json(doc: object, where: str) -> tuple[str, int]:
    entry = parse_object(doc, where, {"id": require_str, "k": require_int})
    return entry["id"], entry["k"]


def profile_from_json(doc: object, where: str = "profile") -> CoverProfile:
    """Parse the profile document schema; unknown fields are rejected."""
    fields = parse_object(doc, where, {"n": require_int, "orbits": list_of(_orbit_from_json)},
                          {"genus_base": (require_int, 0)})
    return make_profile(fields["n"], fields["orbits"], genus_base=fields["genus_base"])
