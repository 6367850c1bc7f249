"""Invariant divisors on the cover and their residue data.

An invariant divisor is recorded downstairs-up: an integer coefficient
per special orbit (the multiplicity along the reduced fiber over that
branch point) plus a pullback part of the given base degree.  The class
of such a divisor modulo pullbacks is captured by the residues of the
orbit coefficients mod n'(y); that reduction is the numeric data of the
associated line bundle.

Root-of-unity scalars are tracked by their integer exponent a mod n;
the local weight of such a scalar at an orbit is its exponent reduced
mod n'(y).
"""

from __future__ import annotations


from ._ser import dict_of, freeze, frozen, is_int, parse_object, require_int, to_json
from .covers import CoverProfile, SpecialOrbit, check_orbit_labels
from .errors import InvalidDatum, OddOrder


@frozen
class RootExponent:
    """Scalar exp(2*pi*i*a/modulus), stored as a mod modulus."""

    a: int
    modulus: int

    def __post_init__(self):
        if not (is_int(self.a) and is_int(self.modulus)):
            raise InvalidDatum(f"root of unity needs an int exponent and modulus, "
                               f"got {self.a!r} mod {self.modulus!r}")
        if self.modulus < 1:
            raise InvalidDatum(f"root of unity needs a positive modulus, got {self.modulus}")
        object.__setattr__(self, "a", self.a % self.modulus)

    def mul(self, other: "RootExponent") -> "RootExponent":
        if self.modulus != other.modulus:
            raise InvalidDatum(f"moduli {self.modulus} and {other.modulus} differ")
        return RootExponent(self.a + other.a, self.modulus)

    def inverse(self) -> "RootExponent":
        return RootExponent(-self.a, self.modulus)

    def power(self, m: int) -> "RootExponent":
        return RootExponent(self.a * m, self.modulus)


unit_root = RootExponent  # unit_root(a, n) is the scalar exp(2*pi*i*a/n)


def minus_one(n: int) -> RootExponent:
    if n % 2 != 0:
        raise OddOrder(f"order-two scalar needs even order, got {n}")
    return RootExponent(n // 2, n)


def d_mu(mu: RootExponent, orbit: SpecialOrbit) -> int:
    """Local weight of the scalar mu at an orbit: exponent mod n'(y)."""
    if mu.modulus % orbit.nprime != 0:
        raise InvalidDatum(f"stabilizer order {orbit.nprime} does not divide modulus {mu.modulus}")
    return mu.a % orbit.nprime


@frozen
class InvariantDivisor:
    """sum_y residues[y] * (reduced fiber over y) + pullback of base degree."""

    residues: dict[str, int]
    base_degree: int

    def __post_init__(self):
        if not (is_int(self.base_degree) and all(map(is_int, self.residues.values()))):
            raise InvalidDatum(f"invariant divisor needs int residues and base degree, "
                               f"got {self.residues!r} and {self.base_degree!r}")
        object.__setattr__(self, "residues", freeze(self.residues))


@frozen
class LineNumericData:
    """Residues mod n'(y) classifying a line bundle up to pullback twist."""

    values: dict[str, int]

    def __post_init__(self):
        object.__setattr__(self, "values", freeze(self.values))

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.values.values())


def degree_on_X(div: InvariantDivisor, profile: CoverProfile) -> int:
    """Total degree upstairs: sum of residue * orbit length + n * base part."""
    check_orbit_labels(div.residues, profile)
    total = profile.n * div.base_degree
    for label, res in div.residues.items():
        total += res * profile.orbit_index[label].k
    return total


def numeric_data(div: InvariantDivisor, profile: CoverProfile) -> LineNumericData:
    """Reduce the orbit coefficients mod n'(y); absent orbits contribute 0."""
    check_orbit_labels(div.residues, profile)
    values = {y.id: div.residues.get(y.id, 0) % y.nprime for y in profile.orbits}
    return LineNumericData(values=values)


def is_pullback(div: InvariantDivisor, profile: CoverProfile) -> bool:
    """True iff the divisor class is a pullback, i.e. all residues vanish mod n'."""
    return numeric_data(div, profile).is_trivial()


def norm_degree_check(base_degree: int, profile: CoverProfile) -> int:
    """Degree upstairs of the pullback of a degree-base_degree class."""
    return profile.n * base_degree


# --- serialization ---

divisor_to_json = to_json  # its fields, the residues in sorted label order


def divisor_from_json(doc: object, where: str = "divisor") -> InvariantDivisor:
    fields = parse_object(doc, where, {"residues": dict_of(require_int),
                                       "base_degree": require_int})
    return InvariantDivisor(residues=fields["residues"], base_degree=fields["base_degree"])
