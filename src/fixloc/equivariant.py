"""Rank-2 equivariant numeric data and the parabolic correspondence.

The discrete part of a rank-2 equivariant bundle with fixed determinant
lift consists of, per special orbit, the unordered pair of local
eigenvalue exponents (d1 <= d2, both in [0, n'(y))), tied to the
determinant's residue by d1 + d2 = delta(y) mod n'(y).  The admissible
set for a fixed determinant is the product over orbits of the pairs
satisfying that congruence.

Every per-orbit map of a datum (the exponent pairs, the determinant's
residues, the parabolic weights and flag exponents) names exactly the
profile's orbits; no orbit is read with a default.

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

Each record is validated once per profile.  The records' maps are
read-only (`_ser.FrozenDict`), so a checked record stays valid, and
validate_det, validate_rank2 and validate_parabolic mark a record that
passed with the profile object it was checked against (`_ser.mark`; a
parabolic datum's mark also holds the weight numerators that
validate_parabolic returns).  Each returns at once on a record marked
for the same profile object, by identity: an equal but distinct profile
checks again.  A record whose values could still change (pairs that
are not tuples, maps that are not FrozenDicts, a subclass) is checked
every time and never marked.  The operations build their outputs
already marked through one constructor each (_rank2, _parabolic):
elementary_modification, gamma_apply and lift negation (in `locus`)
when their input carries the mark, since they reuse its values;
to_parabolic, from_parabolic and the parabolic lift negation whenever
their check passed.  round_trip trusts its input, so it marks nothing.
A copy or a pickle of a record carries no mark.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from fractions import Fraction

from ._ser import (FrozenDict, dict_of, freeze, frozen, is_int, mark, one_of, pair_of,
                   parse_object, rat_from_json, rat_to_json, require_int, to_json)
from .covers import CoverProfile, SpecialOrbit, check_orbit_labels
from .errors import InvalidDatum, NonIntegralDegree, NoSolution, UnknownOrbit

PLUS = "+"
MINUS = "-"
FIRST = "first"
SECOND = "second"


@frozen
class DeterminantLift:
    """Determinant line with a chosen equivariant lift.

    residues[y] in [0, n'(y)) is the determinant's local exponent at
    each profile orbit y, degree its total degree upstairs.  lift_sign
    is an opaque two-value tag distinguishing the two inequivalent lifts
    that exist for even cover order; odd order forces "+".
    """

    residues: dict[str, int]
    degree: int
    lift_sign: str = PLUS

    _mark = None  # a validity mark (see validate_* and _ser.frozen)

    def __post_init__(self):
        object.__setattr__(self, "residues", freeze(self.residues))


@frozen
class Rank2EqData:
    """Per-orbit exponent pairs plus the determinant lift they sum to."""

    numeric: dict[str, tuple[int, int]]
    det: DeterminantLift

    _mark = None  # a validity mark (see validate_* and _ser.frozen)

    def __post_init__(self):
        object.__setattr__(self, "numeric", freeze(self.numeric))


@frozen
class FlagSelector:
    """Per-orbit choice of tracked eigenvalue: 'first' (d1) or 'second' (d2)."""

    choice: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "choice", freeze(self.choice))


@frozen
class AdmissibleParabolicDatum:
    """Downstairs shadow: determinant degree on the base, and a weight and a flag
    exponent at each profile orbit."""

    det_bar_degree: int
    weights: dict[str, Fraction]
    d2: dict[str, int]
    det_lift_sign: str = PLUS

    _mark = None  # a validity mark (see validate_* and _ser.frozen)

    def __post_init__(self):
        object.__setattr__(self, "weights", freeze(self.weights))
        object.__setattr__(self, "d2", freeze(self.d2))


def _validate_lift_sign(sign: str, profile: CoverProfile) -> None:
    if sign not in (PLUS, MINUS):
        raise InvalidDatum(f"lift sign must be '+' or '-', got {sign!r}")
    if profile.n % 2 == 1 and sign != PLUS:
        raise InvalidDatum("odd cover order admits a single lift; sign must be '+'")


def _require_every_orbit(labels, profile: CoverProfile, what: str) -> None:
    """InvalidDatum unless labels, each of them a profile orbit, name every orbit.

    The callers check the labels first (an unknown one is UnknownOrbit),
    so the lengths decide.  A dict-keys comparison would cost validate_det
    about 0.2 us more per call (CPython 3.11.7, Intel Xeon).  Numeric data,
    whose extra labels are InvalidDatum too, keeps its own comparison.
    """
    if len(labels) != len(profile.orbits):
        raise InvalidDatum(f"{what} must name every profile orbit")


def validate_det(det: DeterminantLift, profile: CoverProfile) -> None:
    if getattr(det, "_mark", None) is profile:
        return
    _validate_lift_sign(det.lift_sign, profile)
    index = profile.orbit_index
    for label, res in det.residues.items():
        y = index.get(label)
        if y is None:
            raise UnknownOrbit(label)
        # an exact int, the common case, costs one identity test (as in _spread)
        if not (type(res) is int or is_int(res)):
            raise InvalidDatum(f"determinant residue at {label!r} must be an int, "
                               f"got {type(res).__name__}")
        if not 0 <= res < y.nprime:
            raise InvalidDatum(f"determinant residue at {label!r} out of range [0,{y.nprime})")
    _require_every_orbit(det.residues, profile, "determinant residues")
    if not (type(det.degree) is int or is_int(det.degree)):
        raise InvalidDatum(f"determinant degree must be an int, got {type(det.degree).__name__}")
    if type(det) is DeterminantLift and type(det.residues) is FrozenDict:
        mark(det, profile)


def random_det(rng: random.Random, profile: CoverProfile) -> DeterminantLift:
    """Seeded random determinant lift: uniform residues, a degree that
    descends (within 3n of the smallest one) and, for even n, either sign."""
    residues = {y.id: rng.randrange(y.nprime) for y in profile.orbits}
    degree = sum(residues[y.id] * y.k for y in profile.orbits)
    degree += profile.n * rng.randint(-3, 3)
    sign = MINUS if profile.n % 2 == 0 and rng.random() < 0.5 else PLUS
    return DeterminantLift(residues=residues, degree=degree, lift_sign=sign)


def validate_numeric(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> None:
    """Exactly one pair per profile orbit, each with 0 <= d1 <= d2 < n'."""
    if numeric.keys() != profile.orbit_index.keys():
        raise InvalidDatum("numeric data must cover exactly the profile orbits")
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        if not (type(d1) is int or is_int(d1)) or not (type(d2) is int or is_int(d2)):
            raise InvalidDatum(f"exponent pair at {y.id!r} must hold two ints, "
                               f"got {type(d1).__name__} and {type(d2).__name__}")
        if not (0 <= d1 <= d2 < y.nprime):
            raise InvalidDatum(f"exponent pair at {y.id!r} violates 0 <= d1 <= d2 < n'")


def validate_rank2(data: Rank2EqData, profile: CoverProfile) -> None:
    if getattr(data, "_mark", None) is profile:
        return
    _check_rank2(data.numeric, data.det, profile)
    if type(data) is Rank2EqData and _frozen_parts(data.numeric, data.det, profile):
        mark(data, profile)


def _check_rank2(numeric: dict[str, tuple[int, int]], det: DeterminantLift,
                 profile: CoverProfile) -> None:
    """validate_rank2's checks on a datum's two parts, which a graded point holds too."""
    validate_det(det, profile)
    validate_numeric(numeric, profile)
    residues = det.residues
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        if (d1 + d2) % y.nprime != residues[y.id]:
            raise InvalidDatum(f"exponent pair at {y.id!r} does not sum to determinant residue")


def _frozen_parts(numeric: dict[str, tuple[int, int]], det: DeterminantLift,
                  profile: CoverProfile) -> bool:
    """Whether checked parts can never change: det marked for profile, numeric
    a FrozenDict of tuples.  Only then may their record carry a mark."""
    return (getattr(det, "_mark", None) is profile and type(numeric) is FrozenDict
            and all(type(pair) is tuple for pair in numeric.values()))


def _marked_for(data: Rank2EqData, profile: CoverProfile) -> CoverProfile | None:
    """profile when data carries its mark, else None: what an output that
    reuses data's values may be marked for (see _rank2)."""
    return profile if getattr(data, "_mark", None) is profile else None


def _rank2(numeric: dict[str, tuple[int, int]], residues: dict[str, int], degree: int,
           lift_sign: str, valid_for: CoverProfile | None) -> Rank2EqData:
    """The datum an operation built, and its determinant, both marked valid
    for the profile valid_for unless that is None.

    The one constructor of the operations' rank-2 data: an operation
    passes the profile it validated its input against only when the
    datum it built passes validate_rank2 for it by construction, and
    only when every value it reused from its input is immutable.
    """
    det = DeterminantLift._new_marked(valid_for, freeze(residues), degree, lift_sign)
    return Rank2EqData._new_marked(valid_for, FrozenDict(numeric), det)


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
    """Check a parabolic datum; return m(y) = w(y) * n'(y) per profile orbit, read-only.

    A datum that passed is marked with the pair of profile and these m,
    which the ascent and the parabolic lift negation read: computing
    them again from the weights on each call made the `lambda` benchmark
    1.7-6.3% slower (two runs of ten pairs, slower in 18 of 20; CPython
    3.11.7, Intel Xeon).
    """
    checked = getattr(pdat, "_mark", None)
    if checked is not None and checked[0] is profile:
        return checked[1]
    _validate_lift_sign(pdat.det_lift_sign, profile)
    check_orbit_labels(itertools.chain(pdat.weights, pdat.d2), profile)
    # the orbits that both maps name
    _require_every_orbit(pdat.weights.keys() & pdat.d2.keys(), profile, "parabolic weights and d2")
    if not (type(pdat.det_bar_degree) is int or is_int(pdat.det_bar_degree)):
        raise InvalidDatum(f"base determinant degree must be an int, "
                           f"got {type(pdat.det_bar_degree).__name__}")
    spreads = FrozenDict(_spreads(pdat, profile))
    if (type(pdat) is AdmissibleParabolicDatum and type(pdat.weights) is FrozenDict
            and type(pdat.d2) is FrozenDict):
        mark(pdat, (profile, spreads))
    return spreads


def _parabolic(det_bar_degree: int, weights: dict[str, Fraction], d2: dict[str, int],
               det_lift_sign: str, spreads: dict[str, int],
               valid_for: CoverProfile | None) -> AdmissibleParabolicDatum:
    """The parabolic datum an operation built, with weight numerators
    spreads, marked valid for the profile valid_for unless that is None;
    the one constructor of the operations' parabolic data (as _rank2)."""
    checked = None if valid_for is None else (valid_for, FrozenDict(spreads))
    return AdmissibleParabolicDatum._new_marked(checked, det_bar_degree, FrozenDict(weights),
                                                FrozenDict(d2), det_lift_sign)


def _spreads(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> dict[str, int]:
    """validate_parabolic's checks at each orbit, which the ascent needs:
    the weight passes _spread and m(y) <= d2(y) < n'(y)."""
    spreads = {}
    for y in profile.orbits:
        m = _spread(pdat.weights[y.id], y)
        d2 = pdat.d2[y.id]
        if not (type(d2) is int or is_int(d2)):
            raise InvalidDatum(f"flag exponent at {y.id!r} must be an int, got {type(d2).__name__}")
        if not 0 <= d2 < y.nprime:
            raise InvalidDatum(f"flag exponent at {y.id!r} outside [0,{y.nprime})")
        if d2 < m:
            raise InvalidDatum(f"derived lower exponent at {y.id!r} is negative")
        spreads[y.id] = m
    return spreads


def admissible_pairs(delta_residue: int, nprime: int) -> list[tuple[int, int]]:
    """Ordered pairs d1 <= d2 < n' with d1 + d2 = delta_residue mod n', by d1."""
    delta = delta_residue % nprime
    return [_pair_at(i, delta, nprime) for i in range(admissible_pair_count(delta, nprime))]


def admissible_pair_count(delta_residue: int, nprime: int) -> int:
    """len(admissible_pairs(delta_residue, nprime)) without building the list.

    With delta the residue mod n', d1 + d2 is either delta, in the run
    d1 = 0..delta/2, or delta + n', in the run d1 = delta+1..(delta+n')/2.
    """
    delta = delta_residue % nprime
    return delta // 2 + 1 + (nprime - delta) // 2


def _pair_at(i: int, delta: int, nprime: int) -> tuple[int, int]:
    """The i-th pair by d1 of the two runs above, for delta in [0, n')."""
    half = delta // 2
    return (i, delta - i) if i <= half else (i + delta - half, nprime + half - i)


class _Lambda(Sequence):
    """Read-only view of Lambda; element i is decoded when it is read.

    Index i is a mixed-radix number whose digits select one pair per
    orbit, the last orbit's digit varying fastest: itertools.product
    order over admissible_pairs (Knuth, TAOCP 4A, 7.2.1.1).  An orbit
    keeps (label, stride, pair count, delta, n'), its stride the product
    of the later orbits' counts and its digit i // stride % count.  An
    index and a slice (a list) decode each element with _pair_at;
    iteration counts through the digits (Algorithm M there) and decodes
    only the digits that change.  Each element is a fresh dict in
    profile order.
    """

    __slots__ = ("_orbits", "_n")

    def __init__(self, orbits: list[tuple[str, int, int, int, int]], n: int):
        self._orbits, self._n = orbits, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        # a range resolves negative and out-of-range indices, even past sys.maxsize
        indices = range(self._n)[i]
        if isinstance(i, slice):
            return [self._decode(j) for j in indices]
        return self._decode(indices)

    def _decode(self, i: int) -> dict[str, tuple[int, int]]:
        return {label: _pair_at(i // stride % count, delta, nprime)
                for label, stride, count, delta, nprime in self._orbits}

    def __iter__(self):
        if not self._orbits:
            yield {}
            return
        # the last orbit's pairs run in the inner loop; head holds the earlier
        # orbits' current pairs, and a wheel [label, digit, count, delta, n']
        # each earlier orbit with more than one pair, fastest first
        *rest, (last, _, count, delta, nprime) = self._orbits
        head = {label: _pair_at(0, d, m) for label, _, _, d, m in rest}
        wheels = [[label, 0, c, d, m] for label, _, c, d, m in reversed(rest) if c > 1]
        for _ in range(self._n // count):
            for i in range(count):
                yield {**head, last: _pair_at(i, delta, nprime)}
            for wheel in wheels:
                label, digit, c, d, m = wheel
                wheel[1] = digit = (digit + 1) % c
                head[label] = _pair_at(digit, d, m)
                if digit:
                    break


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
    orbits, stride = [], 1
    for y in reversed(profile.orbits):
        delta = det.residues[y.id]  # in [0, n'), as validate_det checked
        count = admissible_pair_count(delta, y.nprime)
        orbits.append((y.id, stride, count, delta, y.nprime))
        stride *= count
    return _Lambda(orbits[::-1], stride)


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
    profile.  det must pass validate_det and numeric validate_numeric
    (InvalidDatum or UnknownOrbit otherwise).
    """
    validate_det(det, profile)
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
    residues[orbit_id] = (residues[orbit_id] + step) % y.nprime
    return _rank2(numeric, residues, data.det.degree + step * y.k, data.det.lift_sign,
                  _marked_for(data, profile))


def gamma_apply(data: Rank2EqData, profile: CoverProfile, m: dict[str, int],
                flags: FlagSelector) -> Rank2EqData:
    """Closed form for m(y)-fold elementary modification at every orbit.

    Positive m(y) runs m(y) forward modifications in the selected
    direction (negative: inverse ones): the selected exponent survives,
    the complementary one drops by m(y) mod n', the determinant degree
    drops by sum_y m(y) k(y) and each residue by m(y).  Labels of m or
    of flags outside the profile raise UnknownOrbit, and a count that is
    not an int (a float, a bool or a str) InvalidDatum.
    """
    validate_rank2(data, profile)
    check_orbit_labels(itertools.chain(m, flags.choice), profile)
    numeric, residues = dict(data.numeric), dict(data.det.residues)
    degree = data.det.degree
    for y in profile.orbits:
        my = m.get(y.id, 0)
        if not (type(my) is int or is_int(my)):
            raise InvalidDatum(f"modification count at {y.id!r} must be an int, "
                               f"got {type(my).__name__}")
        if my == 0:
            continue
        side = flags.choice.get(y.id)
        if side not in (FIRST, SECOND):
            raise InvalidDatum(f"no tracked direction for modified orbit {y.id!r}")
        d1, d2 = numeric[y.id]
        kept, moved = (d1, d2) if side == FIRST else (d2, d1)
        numeric[y.id] = _pair(kept, (moved - my) % y.nprime)
        residues[y.id] = (residues[y.id] - my) % y.nprime
        degree -= my * y.k
    return _rank2(numeric, residues, degree, data.det.lift_sign, _marked_for(data, profile))


def to_parabolic(data: Rank2EqData, profile: CoverProfile) -> AdmissibleParabolicDatum:
    """Descend equivariant numeric data to its parabolic shadow."""
    validate_rank2(data, profile)
    return _descend(data.numeric, data.det, profile, profile)


def _descend(numeric: dict[str, tuple[int, int]], det: DeterminantLift, profile: CoverProfile,
             valid_for: CoverProfile | None = None) -> AdmissibleParabolicDatum:
    """The parabolic shadow of numeric data that validate_numeric accepts.

    In one pass: weight (d2 - d1)/n'(y) (as weight_system gives it),
    flag exponent d2, and base degree (degree - sum_y (d1+d2) k(y)) / n,
    NonIntegralDegree unless the division is exact.  Marked valid for
    valid_for unless that is None (see _parabolic): the caller passes
    profile when it validated numeric and det together (validate_rank2).
    """
    weights, d2s, spreads = {}, {}, {}
    total = det.degree
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        spreads[y.id] = m = d2 - d1
        weights[y.id] = _weight(m, y.nprime)
        d2s[y.id] = d2
        total -= (d1 + d2) * y.k
    bar, rem = divmod(total, profile.n)
    if rem != 0:
        raise NonIntegralDegree(
            f"corrected determinant degree {total} is not divisible by n={profile.n}")
    return _parabolic(bar, weights, d2s, det.lift_sign, spreads, valid_for)


def from_parabolic(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> Rank2EqData:
    """Reconstruct equivariant numeric data from its parabolic shadow."""
    return _ascend(pdat, validate_parabolic(pdat, profile), profile, profile)


def _ascend(pdat: AdmissibleParabolicDatum, spreads: dict[str, int], profile: CoverProfile,
            valid_for: CoverProfile | None = None) -> Rank2EqData:
    """The numeric data of a parabolic datum with weight numerators spreads.

    In one pass: d1 = d2 - m(y), residue (d1+d2) mod n'(y), degree
    n * base degree + sum_y (d1+d2) k(y).  spreads is what
    validate_parabolic returns; the result is marked valid for valid_for
    unless that is None (see _rank2): the caller passes profile when
    validate_parabolic's checks passed.
    """
    numeric, residues = {}, {}
    degree = profile.n * pdat.det_bar_degree
    for y in profile.orbits:
        d2 = pdat.d2[y.id]
        d1 = d2 - spreads[y.id]
        numeric[y.id] = (d1, d2)
        residues[y.id] = (d1 + d2) % y.nprime
        degree += (d1 + d2) * y.k
    return _rank2(numeric, residues, degree, pdat.det_lift_sign, valid_for)


def round_trip(numeric: dict[str, tuple[int, int]], det: DeterminantLift,
               profile: CoverProfile) -> Rank2EqData:
    """from_parabolic(to_parabolic(...)) for an element of enumerate_lambda(det, profile).

    The inputs are trusted: enumerate_lambda validated det, and its
    elements are admissible.  The descended datum still gets
    validate_parabolic's per-orbit checks (its sign and labels come from
    det and profile), so a descent that breaks them raises InvalidDatum.
    Since numeric was never checked, neither datum is marked valid.
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
    outside the profile raise UnknownOrbit, and weights that leave out
    an orbit InvalidDatum; a weight gets _spread's checks and messages,
    as in validate_parabolic.
    """
    validate_det(det, profile)
    check_orbit_labels(weights, profile)
    _require_every_orbit(weights, profile, "parabolic weights")
    per_orbit: list[list[int]] = []
    for y in profile.orbits:
        w = weights[y.id]
        m = _spread(w, y)
        delta = det.residues[y.id]
        sols = [d2 for d2 in _halves(m + delta, y.nprime) if d2 >= m]
        if not sols:
            raise NoSolution(f"no flag exponent at {y.id!r} fits residue {delta} and weight {w}")
        per_orbit.append(sols)
    ids = profile.orbit_ids()
    return [dict(zip(ids, combo)) for combo in itertools.product(*per_orbit)]


# --- serialization ---

# a determinant lift, numeric data and a rank-2 datum are written as their fields
det_to_json = numeric_to_json = rank2_to_json = to_json


def det_from_json(doc: object, where: str = "det") -> DeterminantLift:
    fields = parse_object(doc, where, {"residues": dict_of(require_int), "degree": require_int},
                          {"lift_sign": (one_of(PLUS, MINUS), PLUS)})
    return DeterminantLift(**fields)


def numeric_from_json(doc: object, where: str = "numeric") -> dict[str, tuple[int, int]]:
    return dict_of(pair_of(require_int))(doc, where)


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
