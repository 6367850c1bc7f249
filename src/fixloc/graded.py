"""Graded points of the fixed variety and their discrete dynamics.

A strictly semistable point is recorded by its graded object: an
unordered pair of summands, each a (base degree, flagged-orbit support)
record, together with the ambient context (numeric exponent data and
determinant lift).  Twisting one summand by a root-of-unity character
and the other by its inverse preserves the associated fixed point; for
even cover order the odd characters cross between the two determinant
lifts, whose sign tag flips as lift negation flips it
(`equivariant._other_sign`).  The twist classes biject with strictly
semistable fixed points.  Lift negation itself acts on the data of
`equivariant`, where it lives; this module holds the points, the twists,
their classes and the order-two family.

All degree bookkeeping runs through the per-summand upstairs degree
n * bar_degree + sum_y k(y) * l(y), which is invariant under the
twists; the downstairs degrees after a step are recovered from it.
The twist formula exists once, on integer keys holding the exponents
l(y) and the one upstairs degree of the summands (see _Frame): the twist
by the character a translates them by a mod n' (_Frame.translate).  So
each class has a closed form: equivalence_classes reads a point's
class off its key (_least_translate), and a key is decoded (_rebuild)
only where a public step returns a point, marked valid for the profile
the step checked its input against.
The boundary classes D(Q) and F(Q) of the order-two family are built
straight from their even point subset Q (double_class, flagged_class),
born marked valid for the family's profile: one profile, two lifts and
the flagged classes' exponent pairs per genus, built once (_family) and
shared by every point, so equivalence_classes checks none of them.
The profile itself is `covers.hyperelliptic_profile`.  The family's
census, hyperelliptic_report, is closed-form and lives in `locus`,
which imports nothing from this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import TYPE_CHECKING

from ._ser import FrozenDict, check_int, frozen, is_int, mark
from .covers import CoverProfile, hyperelliptic_profile
from .equivariant import (
    MINUS,
    PLUS,
    DeterminantLift,
    _check_rank2,
    _other_sign,
    _pair,
    _pairs,
    _require_lift,
)
from .errors import InvalidDatum, NonIntegralDegree, OddOrder

if TYPE_CHECKING:
    from .divisors import RootExponent  # sim_o_step's character; the twists take its exponent


@frozen
class GradedSummand:
    """One graded piece: degree downstairs and the set of flagged orbits."""

    bar_degree: int
    support: frozenset

    def __post_init__(self):
        check_int(self.bar_degree, "summand base degree")
        if not isinstance(self.support, frozenset):
            raise InvalidDatum(f"summand support must be a frozenset, "
                               f"got {type(self.support).__name__}")


@frozen
class GradedPoint:
    """Unordered pair of graded summands with its discrete context.

    numeric/det may be None for points born downstairs without a chosen
    cover (the stability module constructs those); equivalence steps
    require both.  The summands are kept in a fixed order, so equality is
    by content.  The hash, taken on every call, leaves out the
    determinant's residues; equal points still hash equal.  On points
    validate_graded accepts, the exponent pairs fix the residues (d1 + d2
    mod n' at every orbit), so no two of them differ only there.  The
    constructor checks what needs no profile, before it orders the
    summands: a tuple of two GradedSummands, numeric data as a
    Rank2EqData holds it, and a DeterminantLift or None for det
    (InvalidDatum otherwise).
    """

    summands: tuple
    numeric: dict | None = None
    det: DeterminantLift | None = None

    _mark = None  # a validity mark (see _validated_key and _ser.frozen)

    def __post_init__(self):
        pair = self.summands
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(isinstance(s, GradedSummand) for s in pair)):
            raise InvalidDatum("graded point needs a tuple of exactly two summands")
        if self.det is not None:
            _require_lift(self.det)
        object.__setattr__(self, "summands", _ordered(*pair))
        if self.numeric is not None:
            object.__setattr__(self, "numeric", _pairs(self.numeric))

    def __hash__(self):
        det = self.det
        return hash((
            self.summands,
            None if self.numeric is None else frozenset(self.numeric.items()),
            None if det is None else (det.degree, det.lift_sign),
        ))


def _point(s0, s1, numeric: FrozenDict, det: DeterminantLift,
           profile: CoverProfile) -> GradedPoint:
    """The point of summands and values the caller built, in GradedPoint's
    order, marked valid for profile.

    As _rank2, it skips the constructor's checks, and it keeps numeric,
    which may be shared between points.  Every caller builds a point
    that passes validate_graded for profile by construction: the twist
    steps (_rebuild) and the boundary classes (double_class,
    flagged_class) each give the proof.
    """
    return GradedPoint._new_marked(profile, _ordered(s0, s1), numeric, det)


def _ordered(s0: GradedSummand, s1: GradedSummand) -> tuple:
    """The two summands in GradedPoint's order (_out_of_order)."""
    swap = _out_of_order(s0.bar_degree, s0.support, s1.bar_degree, s1.support)
    return (s1, s0) if swap else (s0, s1)


def _out_of_order(bar0: int, support0, bar1: int, support1) -> bool:
    """Whether summand 1 goes first: by base degree, then by sorted support
    labels, which are read only on a tie."""
    return bar0 > bar1 or bar0 == bar1 and sorted(map(str, support0)) > sorted(map(str, support1))


def validate_graded(pt: GradedPoint, profile: CoverProfile) -> tuple:
    """Structural checks tying a graded point to its cover context; returns its key (_Frame)."""
    return _validated_key(pt, profile, _Frame(profile))


# The twists act on integer keys (l0, l1, up, degree, lift_sign), in profile
# order: l_i is the exponent summand i carries at each orbit (d2 on its support,
# d1 elsewhere), and up = n * bar_degree + sum_y k(y) l_i(y) the upstairs degree
# both summands share.  The lift's residues are l0 + l1 mod n' at every orbit.
# Summands keep GradedPoint's order, so equal points have equal keys.

class _Frame:
    """Per-profile constants of the keyed twist steps, orbits in profile order."""

    def __init__(self, profile: CoverProfile):
        self.n = profile.n
        self.ids = tuple(y.id for y in profile.orbits)
        self.ks = tuple(y.k for y in profile.orbits)
        self.nprimes = tuple(y.nprime for y in profile.orbits)
        self.period = math.lcm(*self.nprimes)
        # each place that moves a least shift (least_shift): index, n', step,
        # g = gcd(step, n'), n'/g and -(step/g)^-1 mod n'/g
        pins, step = [], 1
        for i, m in enumerate(self.nprimes):
            g = math.gcd(step, m)
            if g < m:
                pins.append((i, m, step, g, m // g, -pow(step // g, -1, m // g) % (m // g)))
                step *= m // g
        self.pins = tuple(pins)

    def weight(self, ell: tuple[int, ...]) -> int:
        """sum_y k(y) * l(y): a summand's upstairs degree less n * bar_degree."""
        return sum(map(operator.mul, self.ks, ell))

    def translate(self, ell, a: int) -> tuple[int, ...]:
        """The twist by the character a: ell + a at each orbit, reduced mod n'."""
        return tuple(map(operator.mod, map(a.__add__, ell), self.nprimes))

    def least_shift(self, ell) -> int:
        """The x in [0, period) whose translate of ell is least.

        Shifts x + t * step keep the earlier places and give a place the
        values congruent to its own mod g, so one t pins it at its value
        mod g; then step = lcm(step, n') (Chinese remainder theorem).
        """
        x = 0
        for i, m, step, g, mg, inv in self.pins:
            x += step * ((ell[i] + x) % m // g * inv % mg)
        return x


def _validated_key(pt: GradedPoint, profile: CoverProfile, frame: _Frame) -> tuple:
    """validate_graded on the profile's frame, which callers on many points build once.

    A point that passed for this profile object carries its mark, and is
    only keyed.  The key's up is summand 0's, checked here against summand
    1's.  The key is not kept: on the census boundary points it took 2.9
    MB, about a tenth of the census workload's peak RSS.
    """
    if pt._mark is profile:
        return _key(pt, frame)
    if pt.numeric is None or pt.det is None:
        raise InvalidDatum("graded point lacks cover context")
    _check_rank2(pt.numeric, pt.det, profile)
    weighted = {label for label, (d1, d2) in pt.numeric.items() if d1 != d2}
    s0, s1 = pt.summands
    if s0.support | s1.support != weighted or s0.support & s1.support:
        raise InvalidDatum("summand supports must partition the weighted orbits")
    key = _key(pt, frame)
    if frame.n * s1.bar_degree + frame.weight(key[1]) != key[2]:
        raise InvalidDatum("summands have unequal parabolic degree")
    mark(pt, profile)
    return key


def _key(pt: GradedPoint, frame: _Frame) -> tuple:
    """The key of a point that validate_graded accepts."""
    # (d1, d2) at each orbit; a summand's exponent is d2 on its support, d1 elsewhere
    pairs = tuple(map(pt.numeric.__getitem__, frame.ids))
    s0, s1 = pt.summands
    ell0 = tuple(map(operator.getitem, pairs, map(s0.support.__contains__, frame.ids)))
    ell1 = tuple(map(operator.getitem, pairs, map(s1.support.__contains__, frame.ids)))
    return ell0, ell1, frame.n * s0.bar_degree + frame.weight(ell0), pt.det.degree, pt.det.lift_sign


def _rebuild(key: tuple, frame: _Frame, profile: CoverProfile) -> GradedPoint:
    """The graded point of a key, and its lift, marked valid for profile,
    the profile of the frame.

    The twist steps' keys are ones validate_graded accepts (see
    _o_step), so the marks hold: the exponents are reduced below n' at
    every orbit, and so are the residues, read off as each pair's sum;
    the sign is free at the even order of a crossing twist, the supports
    below are where the two exponents differ, and _settle checked that
    both degrees descend, so both summands have the upstairs degree up.
    """
    ell0, ell1, up, degree, sign = key
    ids = frame.ids
    # each summand's support is where it carries the larger exponent
    s0 = GradedSummand((up - frame.weight(ell0)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.gt, ell0, ell1))))
    s1 = GradedSummand((up - frame.weight(ell1)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.lt, ell0, ell1))))
    residues = map(operator.mod, map(operator.add, ell0, ell1), frame.nprimes)
    det = DeterminantLift._new_marked(profile, FrozenDict(zip(ids, residues)), degree, sign)
    return _point(s0, s1, FrozenDict(zip(ids, map(_pair, ell0, ell1))), det, profile)


def sim_o_step(pt: GradedPoint, mu: RootExponent, profile: CoverProfile) -> GradedPoint:
    """Twist one summand by mu and the other by its inverse.

    Leaves the determinant lift untouched; the two summand degrees move
    in opposite directions as dictated by the reduced local weights of
    mu.  Raises NonIntegralDegree when the profile cannot absorb the
    twist at degree level (never on profiles realized by a curve).
    """
    frame = _Frame(profile)
    key = _validated_key(pt, profile, frame)
    if mu.modulus != profile.n:
        raise InvalidDatum(f"twist character modulus {mu.modulus} differs from n={profile.n}")
    return _rebuild(_o_step(key, mu.a, frame), frame, profile)


# The steps below take the key of a point that validate_graded accepts and the
# integer exponent a of a character, and return the key of one it accepts
# again: the exponent pairs partition the weighted orbits between the summands,
# and the shared upstairs degree carries over.

def _o_step(key: tuple, a: int, frame: _Frame) -> tuple:
    return _settle(frame.translate(key[0], a), frame.translate(key[1], -a), key[2:], frame)


def sim_e_step(pt: GradedPoint, profile: CoverProfile, exponent: int = 1,
               summand: int = 0) -> GradedPoint:
    """Twist a single summand by an odd character, crossing determinant lifts.

    Only exists for even cover order (OddOrder otherwise); the exponent
    must be odd so that the determinant's equivariant structure moves to
    the other lift, whose opaque sign tag flips.
    """
    if profile.n % 2 == 1:
        raise OddOrder("single-summand crossing twist needs even cover order")
    check_int(exponent, "crossing twist exponent")
    if exponent % 2 != 1:
        raise InvalidDatum("crossing twist exponent must be odd")
    if not is_int(summand) or summand not in (0, 1):
        raise InvalidDatum("summand index must be 0 or 1")
    frame = _Frame(profile)
    key = _validated_key(pt, profile, frame)
    return _rebuild(_e_step(key, exponent, summand, frame), frame, profile)


def _e_step(key: tuple, a: int, summand: int, frame: _Frame) -> tuple:
    parts = list(key[:2])
    # the underlying summand bundle is untouched (only its lift scales),
    # so the upstairs degree stays fixed while the exponents reduce anew
    parts[summand] = frame.translate(parts[summand], a)
    up, degree, sign = key[2:]
    return _settle(*parts, (up, degree, _other_sign(sign)), frame)


def _settle(ell0: tuple, ell1: tuple, rest: tuple, frame: _Frame) -> tuple:
    """Key of stepped exponents over rest (up, degree, sign): both degrees must descend;
    ordered as in GradedPoint."""
    bars = []
    for ell in (ell0, ell1):
        corrected = rest[0] - frame.weight(ell)
        q, rem = divmod(corrected, frame.n)
        if rem != 0:
            raise NonIntegralDegree(
                f"summand degree {corrected} not divisible by n={frame.n}; "
                "profile does not admit this twist")
        bars.append(q)
    # each summand's support is where it carries the larger exponent
    swap = _out_of_order(bars[0], itertools.compress(frame.ids, map(operator.gt, ell0, ell1)),
                         bars[1], itertools.compress(frame.ids, map(operator.lt, ell0, ell1)))
    return (ell1, ell0, *rest) if swap else (ell0, ell1, *rest)


# --- twist classes ---

def equivalence_classes(points, profile: CoverProfile) -> list[list[GradedPoint]]:
    """Partition graded points by the twist relation.

    Generators: opposite twists by every character (odd order), plus,
    for even order, single-summand crossing twists by every odd
    character applied to either summand.  Each point is validated once
    and grouped by the least member of its class, found with no search
    (_least_translate); classes hold input points in input order,
    ordered by their first.
    """
    pts = list(points)
    frame = _Frame(profile)
    keys = [_validated_key(pt, profile, frame) for pt in pts]
    if keys:
        # a twist by a moves sum_y k(y) l(y) by a * sum_y k(y) mod n, so
        # either every twist descends or the one by 1 already fails here
        _o_step(keys[-1], 1, frame)
    groups: dict[tuple, list[GradedPoint]] = {}
    for pt, key in zip(pts, keys):
        groups.setdefault(_least_translate(key, frame), []).append(pt)
    return list(groups.values())


def _least_translate(key: tuple, frame: _Frame) -> tuple:
    """The least member of a key's twist class, its parts as a sorted pair.

    A twist by a translates a part, an exponent tuple l, to l + a: a is
    added mod n', and the upstairs degree and the lift's degree stay.
    l + a depends on a mod the period lcm(n'), and li + xi is the least
    translate of li, xi pinned place by place (_Frame.least_shift).
    For odd n the class is {l0 + a, l1 - a} at one sign, so its least
    pair is at a = x0 or a = -x1.  For even n the crossing twists (a, 0)
    and (0, a), a odd, generate (Z/n)^2 and flip the sign: the class is
    every {l0 + x, l1 + y} signed by the parity of x + y.  Its least
    pair is at x + y = x0 + x1 mod the period: an even period fixes the
    parity, and at an odd one both occur, so '+' is the least.
    """
    ell0, ell1, up, degree, sign = key
    moved, period = frame.translate, frame.period
    x0, x1 = frame.least_shift(ell0), frame.least_shift(ell1)
    # a key's exponents are reduced, so ell is its own translate by 0
    least0 = moved(ell0, x0) if x0 else ell0
    least1 = moved(ell1, x1) if x1 else ell1

    def ordered(p, q):
        return (p, q) if p <= q else (q, p)

    if frame.n % 2 == 1:
        return (*min(ordered(least0, moved(ell1, -x0)), ordered(moved(ell0, -x1), least1)), *key[2:])
    lift_sign = PLUS if period % 2 else (sign, _other_sign(sign))[(x0 + x1) % 2]
    return (*ordered(least0, least1), up, degree, lift_sign)


# --- the order-two worked family: its lifts and boundary classes ---

def hyperelliptic_delta(g: int, which: int) -> DeterminantLift:
    """The two determinant lifts of the trivial determinant (which in {0,1}).

    Built once per g (_family): every call returns the same lift, marked
    valid for hyperelliptic_profile(g).
    """
    if not is_int(which) or which not in (0, 1):
        raise InvalidDatum(f"lift index must be 0 or 1, got {which!r}")
    return _family(g)[1][which]


_FAMILIES: dict[int, tuple[CoverProfile, tuple[DeterminantLift, DeterminantLift], FrozenDict]] = {}


def _family(g: int) -> tuple[CoverProfile, tuple[DeterminantLift, DeterminantLift], FrozenDict]:
    """The genus-g profile of the family, its two lifts and the exponent
    pairs of every flagged class, built once per g and shared.

    The lift of index 0 has residue 0 at every orbit and sign '+', that
    of index 1 residue 1 and sign '-'; both have degree 0.  Each is
    marked valid for the profile: its residues name every orbit and are
    below n' = 2, and at the even order n = 2 either sign is allowed.
    Every flagged class has the pair (0, 1) at every orbit.  Only an int
    reads the cache, so True, 1.0 or an unhashable list never reaches
    the entry of 1 and goes to hyperelliptic_profile, which raises
    InvalidGenus, as it does for an int below 1.
    """
    family = _FAMILIES.get(g) if is_int(g) else None
    if family is None:
        profile = hyperelliptic_profile(g)
        ids = profile.orbit_ids()
        lifts = tuple(
            DeterminantLift._new_marked(profile, FrozenDict(dict.fromkeys(ids, which)), 0, sign)
            for which, sign in ((0, PLUS), (1, MINUS)))
        family = _FAMILIES[g] = (profile, lifts, FrozenDict(dict.fromkeys(ids, (0, 1))))
    return family


def _even_subset(g: int, q_indices) -> tuple[tuple, frozenset]:
    """The family's shared values (_family) and the point indices Q,
    checked: an iterable of ints, |Q| even, each in range."""
    family = _family(g)
    npoints = len(family[0].orbits)
    try:
        indices = tuple(q_indices)
    except TypeError:
        raise InvalidDatum(f"point indices must be an iterable of ints, "
                           f"got {type(q_indices).__name__}") from None
    for i in indices:
        check_int(i, "point index")
    q = frozenset(indices)
    if len(q) % 2 != 0:
        raise InvalidDatum(f"subset size must be even, got {len(q)}")
    for i in q:
        if not 0 <= i < npoints:
            raise InvalidDatum(f"point index {i} outside 0..{npoints - 1}")
    return family, q


def double_class(g: int, q_indices) -> GradedPoint:
    """Boundary class D(Q) with both flags on one summand pair (even subset Q).

    The point holds the lift of index 0 and is built marked valid for
    hyperelliptic_profile(g), since it passes validate_graded there:
    every orbit is named; each pair, (1, 1) on Q and (0, 0) elsewhere,
    has d2 < n' = 2 and sums to the lift's residue 0 mod 2; no orbit is
    weighted, and both supports are empty; and both summands carry the
    exponents 1_Q on base degree -|Q|/2, so both upstairs degrees are
    2 * (-|Q|/2) + |Q| = 0.
    """
    (profile, lifts, _), q = _even_subset(g, q_indices)
    summand = GradedSummand(-(len(q) // 2), frozenset())
    numeric = {label: (1, 1) if i in q else (0, 0) for i, label in enumerate(profile.orbit_ids())}
    return _point(summand, summand, FrozenDict(numeric), lifts[0], profile)


def flagged_class(g: int, q_indices) -> GradedPoint:
    """Boundary class F(Q) with flags split between the two summands (even subset Q).

    The point holds the lift of index 1 and the family's shared pairs
    (_family), and is built marked valid for hyperelliptic_profile(g),
    since it passes validate_graded there: every orbit is named; every
    pair is (0, 1), so d2 < n' = 2 and the sum is the lift's residue 1;
    every orbit is weighted, and the supports, the labels of Q and the
    rest, partition them; and the summands carry the exponents 1_Q and
    1_{Q^c} on base degrees -|Q|/2 and |Q|/2 - (g+1), so both upstairs
    degrees are 2 * (-|Q|/2) + |Q| = 0 and |Q| - 2(g+1) + (2g+2 - |Q|)
    = 0.
    """
    (profile, lifts, numeric), q = _even_subset(g, q_indices)
    ids = profile.orbit_ids()
    on = frozenset(ids[i] for i in q)
    half = len(q) // 2
    return _point(GradedSummand(-half, on), GradedSummand(half - (g + 1), frozenset(ids) - on),
                  numeric, lifts[1], profile)
