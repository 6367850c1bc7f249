"""Rank-2 equivariant numeric data and the parabolic correspondence.

The discrete part of a rank-2 equivariant bundle with fixed determinant
lift consists of, per special orbit, the unordered pair of local
eigenvalue exponents (d1 <= d2, both in [0, n'(y))), tied to the
determinant's residue by d1 + d2 = delta(y) mod n'(y).  The admissible
set for a fixed determinant is the product over orbits of the pairs
satisfying that congruence.

On the other side sits the parabolic datum downstairs: a determinant
degree on the base, a weight w(y) = (d2-d1)/n'(y) per orbit, and the
distinguished exponent d2 recording which eigenline carries the flag.
`to_parabolic` / `from_parabolic` realize the exact bijection between
the two descriptions; `solve_d2` recovers the possible distinguished
exponents from (determinant, weights) alone.  Both directions validate
their input, then run a private core (_descend, _ascend) that trusts
it; `round_trip` runs the two cores on an element of Lambda.

Elementary modifications act on this data by integer bookkeeping:
the tracked flag exponent is kept, the complementary exponent drops by
one (mod n'), the determinant loses one fiber (degree -k(y), residue
-1); `gamma_apply` is the closed form for iterating this m(y) times
at every orbit.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from ._ser import dict_of, one_of, pair_of, parse_object, rat_from_json, rat_to_json, require_int
from .covers import CoverProfile, SpecialOrbit, check_orbit_labels
from .errors import InvalidDatum, NonIntegralDegree, NoSolution, UnknownOrbit

PLUS = "+"
MINUS = "-"
FIRST = "first"
SECOND = "second"


@dataclass(frozen=True)
class DeterminantLift:
    """Determinant line with a chosen equivariant lift.

    residues[y] in [0, n'(y)) is the determinant's local exponent,
    degree its total degree upstairs.  lift_sign is an opaque two-value
    tag distinguishing the two inequivalent lifts that exist for even
    cover order; odd order forces "+".
    """

    residues: dict[str, int]
    degree: int
    lift_sign: str = PLUS


@dataclass(frozen=True)
class Rank2EqData:
    """Per-orbit exponent pairs plus the determinant lift they sum to."""

    numeric: dict[str, tuple[int, int]]
    det: DeterminantLift


@dataclass(frozen=True)
class FlagSelector:
    """Per-orbit choice of tracked eigenvalue: 'first' (d1) or 'second' (d2)."""

    choice: dict[str, str]


@dataclass(frozen=True)
class AdmissibleParabolicDatum:
    """Downstairs shadow: determinant degree on the base, weights, flag exponent."""

    det_bar_degree: int
    weights: dict[str, Fraction]
    d2: dict[str, int]
    det_lift_sign: str = PLUS


def _validate_lift_sign(sign: str, profile: CoverProfile) -> None:
    if sign not in (PLUS, MINUS):
        raise InvalidDatum(f"lift sign must be '+' or '-', got {sign!r}")
    if profile.n % 2 == 1 and sign != PLUS:
        raise InvalidDatum("odd cover order admits a single lift; sign must be '+'")


def validate_det(det: DeterminantLift, profile: CoverProfile) -> None:
    _validate_lift_sign(det.lift_sign, profile)
    index = profile.orbit_index
    for label, res in det.residues.items():
        y = index.get(label)
        if y is None:
            raise UnknownOrbit(label)
        if not 0 <= res < y.nprime:
            raise InvalidDatum(f"determinant residue at {label!r} out of range [0,{y.nprime})")


def random_det(rng: random.Random, profile: CoverProfile) -> DeterminantLift:
    """Seeded random determinant lift: uniform residues, a degree that
    descends (within 3n of the smallest one) and, for even n, either sign."""
    residues = {y.id: rng.randrange(y.nprime) for y in profile.orbits}
    degree = sum(residues[y.id] * y.k for y in profile.orbits)
    degree += profile.n * rng.randint(-3, 3)
    sign = PLUS
    if profile.n % 2 == 0 and rng.random() < 0.5:
        sign = MINUS
    return DeterminantLift(residues=residues, degree=degree, lift_sign=sign)


def validate_numeric(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> None:
    """Exactly one pair per profile orbit, each with 0 <= d1 <= d2 < n'."""
    if numeric.keys() != profile.orbit_index.keys():
        raise InvalidDatum("numeric data must cover exactly the profile orbits")
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        if not (0 <= d1 <= d2 < y.nprime):
            raise InvalidDatum(f"exponent pair at {y.id!r} violates 0 <= d1 <= d2 < n'")


def validate_rank2(data: Rank2EqData, profile: CoverProfile) -> None:
    validate_det(data.det, profile)
    validate_numeric(data.numeric, profile)
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        if (d1 + d2) % y.nprime != data.det.residues.get(y.id, 0) % y.nprime:
            raise InvalidDatum(f"exponent pair at {y.id!r} does not sum to determinant residue")


# the weight m/n', one Fraction shared by every datum that carries it; the keys
# 0 <= m < n' number 300 for all n' <= 24, but one wide orbit misses at each element
_weight = functools.lru_cache(maxsize=1 << 12)(Fraction)


def _spread(w: int | Fraction, y: SpecialOrbit) -> int:
    """m = w * n'(y), the weight's numerator over n'(y), in integers.

    InvalidDatum unless w is an int or a Fraction in [0,1) whose
    denominator divides n'(y).
    """
    # exact ints and Fractions, the common case, skip the subclass tests
    if not (type(w) is Fraction or type(w) is int) and (
            isinstance(w, bool) or not isinstance(w, (int, Fraction))):
        raise InvalidDatum(f"weight at {y.id!r} must be an int or a Fraction, "
                           f"got {type(w).__name__}")
    num, den = w.numerator, w.denominator
    if not 0 <= num < den:
        raise InvalidDatum(f"weight at {y.id!r} outside [0,1)")
    if y.nprime % den != 0:
        raise InvalidDatum(f"weight denominator at {y.id!r} does not divide n'={y.nprime}")
    return num * (y.nprime // den)


def validate_parabolic(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> dict[str, int]:
    """Check a parabolic datum; return m(y) = w(y) * n'(y) per profile orbit.

    Labels missing from weights or d2 read as 0.
    """
    _validate_lift_sign(pdat.det_lift_sign, profile)
    check_orbit_labels(itertools.chain(pdat.weights, pdat.d2), profile)
    return _spreads(pdat, profile)


def _spreads(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> dict[str, int]:
    """validate_parabolic's checks at each orbit, which the ascent needs:
    the weight passes _spread and m(y) <= d2(y) < n'(y)."""
    spreads = {}
    for y in profile.orbits:
        m = _spread(pdat.weights.get(y.id, 0), y)
        d2 = pdat.d2.get(y.id, 0)
        if not 0 <= d2 < y.nprime:
            raise InvalidDatum(f"flag exponent at {y.id!r} outside [0,{y.nprime})")
        if d2 < m:
            raise InvalidDatum(f"derived lower exponent at {y.id!r} is negative")
        spreads[y.id] = m
    return spreads


def admissible_pairs(delta_residue: int, nprime: int) -> list[tuple[int, int]]:
    """Ordered pairs d1 <= d2 < n' with d1 + d2 = delta_residue mod n'.

    Each d1 fixes d2 = (delta_residue - d1) mod n', kept when d2 >= d1.
    """
    return [(d1, d2) for d1 in range(nprime) if (d2 := (delta_residue - d1) % nprime) >= d1]


def admissible_pair_count(delta_residue: int, nprime: int) -> int:
    """len(admissible_pairs(delta_residue, nprime)) without building the list.

    With delta the residue mod n', d1 + d2 is either delta (d1 <= delta/2)
    or delta + n' (delta < d1 <= (delta + n')/2).
    """
    delta = delta_residue % nprime
    return delta // 2 + (nprime - delta) // 2 + 1


class _Lambda(Sequence):
    """Read-only view of Lambda; element i is decoded when it is read.

    Index i is a mixed-radix number whose digits select one pair per
    orbit, the last orbit's digit varying fastest, so the order is
    itertools.product order (Knuth, TAOCP 4A, 7.2.1.1).  A slice is a
    list that decodes only the indices it selects.  Each element is a
    fresh dict in profile order.
    """

    __slots__ = ("_ids", "_pairs", "_n")

    def __init__(self, ids: tuple[str, ...], pairs: list[list[tuple[int, int]]]):
        self._ids, self._pairs = ids, pairs
        self._n = math.prod(map(len, pairs))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        # a range resolves negative and out-of-range indices, even past sys.maxsize
        indices = range(self._n)[i]
        if isinstance(i, slice):
            return [self._decode(j) for j in indices]
        return self._decode(indices)

    def _decode(self, i: int) -> dict[str, tuple[int, int]]:
        digits = []
        for pairs in reversed(self._pairs):
            i, r = divmod(i, len(pairs))
            digits.append(pairs[r])
        return dict(zip(self._ids, reversed(digits)))

    def __iter__(self):
        return (dict(zip(self._ids, combo)) for combo in itertools.product(*self._pairs))


def enumerate_lambda(det: DeterminantLift,
                     profile: CoverProfile) -> Sequence[dict[str, tuple[int, int]]]:
    """All admissible numeric data for the given determinant.

    Cartesian product over orbits of the per-orbit admissible pairs, in
    profile orbit order; the empty profile yields the single empty
    assignment.  The result is a lazy read-only Sequence: its length is
    the product of the per-orbit pair counts, and an element is built
    only when it is read.  A slice is a list of the elements it selects.
    """
    validate_det(det, profile)
    pairs = [admissible_pairs(det.residues.get(y.id, 0), y.nprime) for y in profile.orbits]
    return _Lambda(profile.orbit_ids(), pairs)


def weight_system(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> dict[str, Fraction]:
    """Parabolic weights w(y) = (d2 - d1) / n'(y).

    InvalidDatum unless numeric holds exactly one pair per profile
    orbit, each with 0 <= d1 <= d2 < n' (validate_numeric).
    """
    validate_numeric(numeric, profile)
    return {y.id: _weight(numeric[y.id][1] - numeric[y.id][0], y.nprime) for y in profile.orbits}


def bar_delta_degree(det: DeterminantLift, numeric: dict[str, tuple[int, int]],
                     profile: CoverProfile) -> int:
    """Degree of the descended determinant on the base.

    deg = (degree - sum_y (d1+d2) k(y)) / n; raises NonIntegralDegree
    when the division fails, which flags data not realizable over the
    profile.  The numeric data must cover exactly the profile orbits
    (InvalidDatum otherwise).
    """
    validate_numeric(numeric, profile)
    return _descend(numeric, det, profile).det_bar_degree


def _pair(a: int, b: int) -> tuple[int, int]:
    """The exponent pair of a and b, sorted."""
    return (a, b) if a <= b else (b, a)


def elementary_modification(data: Rank2EqData, profile: CoverProfile, orbit_id: str,
                            direction: str, inverse: bool = False) -> Rank2EqData:
    """One elementary modification at an orbit, in the tracked direction.

    The tracked exponent (direction 'first' = d1, 'second' = d2) stays;
    the complementary exponent drops by one mod n' (rises for the
    inverse), the pair re-sorts, and the determinant loses (gains) one
    reduced fiber: degree -k(y), residue -1 mod n'(y).
    """
    validate_rank2(data, profile)
    if direction not in (FIRST, SECOND):
        raise InvalidDatum(f"direction must be 'first' or 'second', got {direction!r}")
    y = profile.orbit_index.get(orbit_id)
    if y is None:
        raise UnknownOrbit(orbit_id)
    d1, d2 = data.numeric[orbit_id]
    step = 1 if inverse else -1
    if direction == FIRST:
        kept, moved = d1, (d2 + step) % y.nprime
    else:
        kept, moved = d2, (d1 + step) % y.nprime
    numeric = dict(data.numeric)
    numeric[orbit_id] = _pair(kept, moved)
    residues = dict(data.det.residues)
    residues[orbit_id] = (residues.get(orbit_id, 0) + step) % y.nprime
    det = DeterminantLift(residues=residues, degree=data.det.degree + step * y.k,
                          lift_sign=data.det.lift_sign)
    return Rank2EqData(numeric=numeric, det=det)


def gamma_apply(data: Rank2EqData, profile: CoverProfile, m: dict[str, int],
                flags: FlagSelector) -> Rank2EqData:
    """Closed form for m(y)-fold elementary modification at every orbit.

    Positive m(y) runs m(y) forward modifications in the selected
    direction (negative: inverse ones): the selected exponent survives,
    the complementary one drops by m(y) mod n', the determinant degree
    drops by sum_y m(y) k(y) and each residue by m(y).  Labels of m or
    of flags outside the profile raise UnknownOrbit.
    """
    validate_rank2(data, profile)
    check_orbit_labels(itertools.chain(m, flags.choice), profile)
    numeric = {}
    residues = dict(data.det.residues)
    degree = data.det.degree
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        my = m.get(y.id, 0)
        if my == 0:
            numeric[y.id] = (d1, d2)
            continue
        side = flags.choice.get(y.id)
        if side not in (FIRST, SECOND):
            raise InvalidDatum(f"no tracked direction for modified orbit {y.id!r}")
        kept, moved = (d1, d2) if side == FIRST else (d2, d1)
        numeric[y.id] = _pair(kept, (moved - my) % y.nprime)
        residues[y.id] = (residues.get(y.id, 0) - my) % y.nprime
        degree -= my * y.k
    det = DeterminantLift(residues=residues, degree=degree, lift_sign=data.det.lift_sign)
    return Rank2EqData(numeric=numeric, det=det)


def to_parabolic(data: Rank2EqData, profile: CoverProfile) -> AdmissibleParabolicDatum:
    """Descend equivariant numeric data to its parabolic shadow."""
    validate_rank2(data, profile)
    return _descend(data.numeric, data.det, profile)


def _descend(numeric: dict[str, tuple[int, int]], det: DeterminantLift,
             profile: CoverProfile) -> AdmissibleParabolicDatum:
    """The parabolic shadow of numeric data that validate_numeric accepts.

    In one pass: weight (d2 - d1)/n'(y) (as weight_system gives it),
    flag exponent d2, and base degree (degree - sum_y (d1+d2) k(y)) / n,
    NonIntegralDegree unless the division is exact.
    """
    weights, d2s = {}, {}
    total = det.degree
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        weights[y.id] = _weight(d2 - d1, y.nprime)
        d2s[y.id] = d2
        total -= (d1 + d2) * y.k
    bar, rem = divmod(total, profile.n)
    if rem != 0:
        raise NonIntegralDegree(
            f"corrected determinant degree {total} is not divisible by n={profile.n}")
    return AdmissibleParabolicDatum(det_bar_degree=bar, weights=weights, d2=d2s,
                                    det_lift_sign=det.lift_sign)


def from_parabolic(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> Rank2EqData:
    """Reconstruct equivariant numeric data from its parabolic shadow."""
    return _ascend(pdat, validate_parabolic(pdat, profile), profile)


def _ascend(pdat: AdmissibleParabolicDatum, spreads: dict[str, int],
            profile: CoverProfile) -> Rank2EqData:
    """The numeric data of a parabolic datum with weight numerators spreads.

    In one pass: d1 = d2 - m(y), residue (d1+d2) mod n'(y), degree
    n * base degree + sum_y (d1+d2) k(y).  spreads is what
    validate_parabolic returns; a d2 label left out reads as 0.
    """
    numeric, residues = {}, {}
    degree = profile.n * pdat.det_bar_degree
    for y in profile.orbits:
        d2 = pdat.d2.get(y.id, 0)
        d1 = d2 - spreads[y.id]
        numeric[y.id] = (d1, d2)
        residues[y.id] = (d1 + d2) % y.nprime
        degree += (d1 + d2) * y.k
    det = DeterminantLift(residues=residues, degree=degree, lift_sign=pdat.det_lift_sign)
    return Rank2EqData(numeric=numeric, det=det)


def round_trip(numeric: dict[str, tuple[int, int]], det: DeterminantLift,
               profile: CoverProfile) -> Rank2EqData:
    """from_parabolic(to_parabolic(...)) for an element of enumerate_lambda(det, profile).

    The inputs are trusted: enumerate_lambda validated det, and its
    elements are admissible.  The descended datum still gets
    validate_parabolic's per-orbit checks (its sign and labels come from
    det and profile), so a descent that breaks them raises InvalidDatum.
    """
    pdat = _descend(numeric, det, profile)
    return _ascend(pdat, _spreads(pdat, profile), profile)


def _halves(c: int, nprime: int) -> tuple[int, ...]:
    """The x in [0, n') with 2x = c mod n', ascending.

    Odd n': one root, c * (n'+1)/2, since 2 * (n'+1)/2 = 1 mod n'.
    Even n': none for odd c, else h and h + n'/2 with h = c/2 mod n'/2.
    """
    if nprime % 2 == 1:
        return (c * ((nprime + 1) // 2) % nprime,)
    if c % 2 == 1:
        return ()
    half = nprime // 2
    h = (c // 2) % half
    return (h, h + half)


def solve_d2(det: DeterminantLift, weights: dict[str, Fraction],
             profile: CoverProfile) -> list[dict[str, int]]:
    """Distinguished exponents consistent with (determinant, weights).

    Per orbit, solves 2*d2 = delta(y) + n'(y) w(y) mod n'(y) within
    [0, n'(y)) in closed form and keeps solutions whose derived lower
    exponent is non-negative; odd n'(y) gives exactly one solution,
    even n'(y) up to two.  Raises NoSolution when some orbit admits
    none; returns the product over orbits otherwise.  Weight labels
    outside the profile raise UnknownOrbit.
    """
    validate_det(det, profile)
    check_orbit_labels(weights, profile)
    per_orbit: list[list[int]] = []
    for y in profile.orbits:
        w = weights.get(y.id, 0)
        try:
            m = _spread(w, y)
        except InvalidDatum as exc:
            raise InvalidDatum(f"weight at {y.id!r} not admissible for n'={y.nprime}") from exc
        delta = det.residues.get(y.id, 0)
        sols = [d2 for d2 in _halves(m + delta, y.nprime) if d2 >= m]
        if not sols:
            raise NoSolution(f"no flag exponent at {y.id!r} fits residue {delta} and weight {w}")
        per_orbit.append(sols)
    ids = profile.orbit_ids()
    return [dict(zip(ids, combo)) for combo in itertools.product(*per_orbit)]


# --- serialization ---

def det_to_json(det: DeterminantLift) -> dict:
    return {
        "residues": dict(sorted(det.residues.items())),
        "degree": det.degree,
        "lift_sign": det.lift_sign,
    }


def det_from_json(doc: object, where: str = "det") -> DeterminantLift:
    fields = parse_object(doc, where, {"residues": dict_of(require_int), "degree": require_int},
                          {"lift_sign": (one_of(PLUS, MINUS), PLUS)})
    return DeterminantLift(**fields)


def numeric_to_json(numeric: dict[str, tuple[int, int]]) -> dict:
    return {label: [d1, d2] for label, (d1, d2) in sorted(numeric.items())}


def numeric_from_json(doc: object, where: str = "numeric") -> dict[str, tuple[int, int]]:
    return dict_of(pair_of(require_int))(doc, where)


def rank2_to_json(data: Rank2EqData) -> dict:
    return {"numeric": numeric_to_json(data.numeric), "det": det_to_json(data.det)}


def rank2_from_json(doc: object, where: str = "datum") -> Rank2EqData:
    return Rank2EqData(**parse_object(doc, where, {"numeric": numeric_from_json,
                                                   "det": det_from_json}))


def parabolic_to_json(pdat: AdmissibleParabolicDatum) -> dict:
    return {
        "det_bar_degree": pdat.det_bar_degree,
        "weights": {label: rat_to_json(w) for label, w in sorted(pdat.weights.items())},
        "d2": dict(sorted(pdat.d2.items())),
        "det_lift_sign": pdat.det_lift_sign,
    }


def parabolic_from_json(doc: object, where: str = "parabolic") -> AdmissibleParabolicDatum:
    fields = parse_object(doc, where, {"det_bar_degree": require_int,
                                       "weights": dict_of(rat_from_json),
                                       "d2": dict_of(require_int)},
                          {"det_lift_sign": (one_of(PLUS, MINUS), PLUS)})
    return AdmissibleParabolicDatum(**fields)
