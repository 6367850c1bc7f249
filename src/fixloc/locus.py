"""Graded points of the fixed variety and their discrete dynamics.

A strictly semistable point is recorded by its graded object: an
unordered pair of summands, each a (base degree, flagged-orbit support)
record, together with the ambient context (numeric exponent data and
determinant lift).  Twisting one summand by a root-of-unity character
and the other by its inverse preserves the associated fixed point; for
even cover order the odd characters cross between the two determinant
lifts.  The twist classes biject with strictly semistable fixed points.

All degree bookkeeping runs through the per-summand upstairs degree
n * bar_degree + sum_y k(y) * l(y), which is invariant under the
twists; the downstairs degrees after a step are recovered from it.
The twist formula exists once, on integer keys holding each summand's
exponents l(y) and upstairs degree (see _validated_key): the twist by
the character a translates them by a mod n' (_Frame.translate).  So
each class has a closed form: equivalence_classes reads a point's
class off its key (_least_translate), and a key is decoded (_rebuild)
only where a public step returns a point.
The boundary classes D(Q) and F(Q) of the order-two family are built
straight from their even point subset Q (double_class, flagged_class).
The order-two census itself (hyperelliptic_report) is closed-form: its
class sets are lazy views, and its normality and class count are proved
in its docstring, with the enumeration kept in the tests as the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Set
from typing import TYPE_CHECKING

from ._ser import FrozenDict, freeze, frozen, is_int, mark
from .covers import CoverProfile, kernel_order, make_profile
from .equivariant import (
    MINUS,
    PLUS,
    AdmissibleParabolicDatum,
    DeterminantLift,
    Rank2EqData,
    _check_rank2,
    _frozen_parts,
    _marked_for,
    _pair,
    _parabolic,
    _rank2,
    _weight,
    validate_numeric,
    validate_parabolic,
    validate_rank2,
)
from .errors import (
    DomainError,
    InconsistentDegrees,
    InvalidDatum,
    InvalidGenus,
    NonIntegralDegree,
    OddOrder,
)

if TYPE_CHECKING:  # sim_o_step's character; the twists themselves take its exponent
    from .divisors import RootExponent

# a component's boundary classes are a Set whose len must fit sys.maxsize,
# and the smallest splitting type has 4^g of them
MAX_HYPERELLIPTIC_GENUS = 31


@frozen
class GradedSummand:
    """One graded piece: degree downstairs and the set of flagged orbits."""

    bar_degree: int
    support: frozenset


@frozen
class GradedPoint:
    """Unordered pair of graded summands with its discrete context.

    numeric/det may be None for points born downstairs without a chosen
    cover (the stability module constructs those); equivalence steps
    require both.  The summands are kept in a fixed order, so equality is
    by content.  The hash, taken on every call, leaves out the
    determinant's residues; equal points still hash equal.  On points
    validate_graded accepts, the exponent pairs fix the residues (d1 + d2
    mod n' at every orbit), so no two of them differ only there.
    """

    summands: tuple
    numeric: dict | None = None
    det: DeterminantLift | None = None

    _mark = None  # a validity mark (see _validated_key and _ser.frozen)

    def __post_init__(self):
        pair = tuple(self.summands)
        if len(pair) != 2:
            raise InvalidDatum("graded point needs exactly two summands")
        s0, s1 = pair
        if _out_of_order(s0.bar_degree, s0.support, s1.bar_degree, s1.support):
            pair = (s1, s0)
        object.__setattr__(self, "summands", pair)
        if self.numeric is not None and type(self.numeric) is not FrozenDict:
            object.__setattr__(self, "numeric", FrozenDict(self.numeric))

    def __hash__(self):
        det = self.det
        return hash((
            self.summands,
            None if self.numeric is None else frozenset(self.numeric.items()),
            None if det is None else (det.degree, det.lift_sign),
        ))


def _out_of_order(bar0: int, support0, bar1: int, support1) -> bool:
    """Whether summand 1 goes first: by base degree, then by sorted support
    labels, which are read only on a tie."""
    return bar0 > bar1 or bar0 == bar1 and sorted(map(str, support0)) > sorted(map(str, support1))


def validate_graded(pt: GradedPoint, profile: CoverProfile) -> tuple:
    """Structural checks tying a graded point to its cover context; returns its key."""
    return _validated_key(pt, profile, _Frame(profile))


# The twists act on integer keys ((l0, up0), (l1, up1), (residues, degree,
# lift_sign)), in profile order: l_i is the exponent summand i carries at each
# orbit (d2 on its support, d1 elsewhere), up_i = n * bar_degree + sum_y k(y)
# l_i(y) its upstairs degree, and residues holds the lift's int residue at each
# orbit.  Summands keep GradedPoint's order, so equal points have equal keys.

class _Frame:
    """Per-profile constants of the keyed twist steps, orbits in profile order."""

    def __init__(self, profile: CoverProfile):
        self.n = profile.n
        self.ids = tuple(y.id for y in profile.orbits)
        self.ks = tuple(y.k for y in profile.orbits)
        self.nprimes = tuple(y.nprime for y in profile.orbits)
        self.period = math.lcm(*self.nprimes)

    def weight(self, ell: tuple[int, ...]) -> int:
        """sum_y k(y) * l(y): a summand's upstairs degree less n * bar_degree."""
        return sum(map(operator.mul, self.ks, ell))

    def translate(self, ell, a: int) -> tuple[int, ...]:
        """The twist by the character a: ell + a at each orbit, reduced mod n'."""
        return tuple(map(operator.mod, map(a.__add__, ell), self.nprimes))


def _validated_key(pt: GradedPoint, profile: CoverProfile, frame: _Frame) -> tuple:
    """validate_graded on the profile's frame, which callers on many points build once.

    A point that passed for this profile object carries its mark, and is
    only keyed.  The key is not kept: on the census boundary points it
    took 2.9 MB, about a tenth of the census workload's peak RSS.
    """
    if getattr(pt, "_mark", None) is profile:
        return _key(pt, frame)
    if pt.numeric is None or pt.det is None:
        raise InvalidDatum("graded point lacks cover context")
    _check_rank2(pt.numeric, pt.det, profile)
    weighted = {label for label, (d1, d2) in pt.numeric.items() if d1 != d2}
    s0, s1 = pt.summands
    if set(s0.support) | set(s1.support) != weighted or set(s0.support) & set(s1.support):
        raise InvalidDatum("summand supports must partition the weighted orbits")
    key = _key(pt, frame)
    if key[0][1] != key[1][1]:
        raise InvalidDatum("summands have unequal parabolic degree")
    # marked only when nothing in the point can change
    if type(pt) is GradedPoint and _frozen_parts(pt.numeric, pt.det, profile) and all(
            type(s) is GradedSummand and type(s.support) is frozenset and type(s.bar_degree) is int
            for s in pt.summands):
        mark(pt, profile)
    return key


def _key(pt: GradedPoint, frame: _Frame) -> tuple:
    """The key of a point that validate_graded accepts."""
    # (d1, d2) at each orbit; a summand's exponent is d2 on its support, d1 elsewhere
    pairs = tuple(map(pt.numeric.__getitem__, frame.ids))
    parts = []
    for s in pt.summands:
        ell = tuple(map(operator.getitem, pairs, map(s.support.__contains__, frame.ids)))
        parts.append((ell, frame.n * s.bar_degree + frame.weight(ell)))
    return (*parts, (tuple(map(pt.det.residues.__getitem__, frame.ids)), pt.det.degree, pt.det.lift_sign))


def _rebuild(key: tuple, frame: _Frame) -> GradedPoint:
    """The graded point of a key."""
    (ell0, up0), (ell1, up1), (residues, degree, sign) = key
    ids = frame.ids
    # each summand's support is where it carries the larger exponent
    s0 = GradedSummand((up0 - frame.weight(ell0)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.gt, ell0, ell1))))
    s1 = GradedSummand((up1 - frame.weight(ell1)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.lt, ell0, ell1))))
    det = DeterminantLift(residues=dict(zip(ids, residues)), degree=degree, lift_sign=sign)
    return GradedPoint((s0, s1), numeric=dict(zip(ids, map(_pair, ell0, ell1))), det=det)


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
    return _rebuild(_o_step(key, mu.a, frame), frame)


# The steps below take the key of a point that validate_graded accepts and the
# integer exponent a of a character, and return the key of one it accepts
# again: d1 + d2 and the determinant residue move by the same shift at every
# orbit, the exponent pairs partition the weighted orbits between the summands,
# and both upstairs degrees carry over.

def _o_step(key: tuple, a: int, frame: _Frame) -> tuple:
    (ell0, up0), (ell1, up1), det = key
    return _settle((frame.translate(ell0, a), up0), (frame.translate(ell1, -a), up1), det, frame)


def sim_e_step(pt: GradedPoint, profile: CoverProfile, exponent: int = 1,
               summand: int = 0) -> GradedPoint:
    """Twist a single summand by an odd character, crossing determinant lifts.

    Only exists for even cover order (OddOrder otherwise); the exponent
    must be odd so that the determinant's equivariant structure moves to
    the other lift, whose opaque sign tag flips.
    """
    if profile.n % 2 == 1:
        raise OddOrder("single-summand crossing twist needs even cover order")
    if not is_int(exponent):
        raise InvalidDatum(f"crossing twist exponent must be an int, got {exponent!r}")
    if exponent % 2 != 1:
        raise InvalidDatum("crossing twist exponent must be odd")
    if not is_int(summand) or summand not in (0, 1):
        raise InvalidDatum("summand index must be 0 or 1")
    frame = _Frame(profile)
    key = _validated_key(pt, profile, frame)
    return _rebuild(_e_step(key, exponent, summand, frame), frame)


def _e_step(key: tuple, a: int, summand: int, frame: _Frame) -> tuple:
    parts = list(key[:2])
    residues, degree, sign = key[2]
    # the underlying summand bundle is untouched (only its lift scales),
    # so the upstairs degrees stay fixed while the exponents reduce anew
    ell, up = parts[summand]
    parts[summand] = (frame.translate(ell, a), up)
    det = (frame.translate(residues, a), degree, _other_sign(sign))
    return _settle(parts[0], parts[1], det, frame)


def _other_sign(sign: str) -> str:
    """The lift sign tag that lift negation and a crossing twist move to."""
    return MINUS if sign == PLUS else PLUS


def _settle(part0: tuple, part1: tuple, det: tuple, frame: _Frame) -> tuple:
    """Key of two stepped summands: both degrees must descend; ordered as in GradedPoint."""
    bars = []
    for ell, up in (part0, part1):
        corrected = up - frame.weight(ell)
        q, rem = divmod(corrected, frame.n)
        if rem != 0:
            raise NonIntegralDegree(
                f"summand degree {corrected} not divisible by n={frame.n}; "
                "profile does not admit this twist")
        bars.append(q)
    # each summand's support is where it carries the larger exponent
    (ell0, _), (ell1, _) = part0, part1
    swap = _out_of_order(bars[0], itertools.compress(frame.ids, map(operator.gt, ell0, ell1)),
                         bars[1], itertools.compress(frame.ids, map(operator.lt, ell0, ell1)))
    return (part1, part0, det) if swap else (part0, part1, det)


def _require_even_order(profile: CoverProfile) -> None:
    """OddOrder unless the cover order is even, as lift negation needs."""
    if profile.n % 2 == 1:
        raise OddOrder("lift negation needs even cover order")


def zeta2_apply(data: Rank2EqData, profile: CoverProfile) -> Rank2EqData:
    """Negate the equivariant lift (even order only).

    Every local exponent shifts by the reduced weight of -1, i.e. by
    n'(y)/2 at odd-length orbits and not at all at even-length ones;
    the determinant residues and degree are untouched and the opaque
    lift tag flips.  This is an involution.
    """
    _require_even_order(profile)
    validate_rank2(data, profile)
    half = profile.n // 2
    numeric = {}
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        shift = half % y.nprime
        numeric[y.id] = _pair((d1 + shift) % y.nprime, (d2 + shift) % y.nprime)
    return _rank2(numeric, data.det.residues, data.det.degree, _other_sign(data.det.lift_sign),
                  _marked_for(data, profile))


def parabolic_zeta2(pdat: AdmissibleParabolicDatum, profile: CoverProfile) -> AdmissibleParabolicDatum:
    """Lift negation written directly on the parabolic shadow.

    An independent route to the same operation as zeta2_apply: the
    opaque sign tag flips and per orbit (m below is the weight
    numerator w*n'):

      even length          unchanged
      2*d2 < n'            d2 -> d2 + n'/2, weight kept          (up)
      2*(d2-m) >= n'       d2 -> d2 + n'/2 - n', weight kept     (down)
      otherwise            d2 -> d2 - m + n'/2, weight -> 1 - w  (cross)

    The straddling branch is where the two flag exponents trade
    places, which is what reverses the weight.  The determinant
    upstairs is untouched, but descending along the negated lift
    rescales by one reduced fiber per moving orbit, so the base degree
    shifts by (#down - #up).
    """
    _require_even_order(profile)
    spreads = validate_parabolic(pdat, profile)
    weights, d2map, ms = {}, {}, {}
    bar = pdat.det_bar_degree
    for y in profile.orbits:
        d2 = pdat.d2[y.id]
        m, nprime = spreads[y.id], y.nprime
        half = nprime // 2
        if y.k % 2 == 0:
            pass  # even length: nothing moves
        elif 2 * d2 < nprime:
            d2, bar = d2 + half, bar - 1
        elif 2 * (d2 - m) >= nprime:
            d2, bar = d2 + half - nprime, bar + 1
        else:
            d2, m = d2 - m + half, nprime - m
        weights[y.id], d2map[y.id], ms[y.id] = _weight(m, nprime), d2, m
    # every branch keeps 0 <= d2 - m <= d2 < n'; the cross branch has
    # m >= 1, so the weight 1 - w = (n' - m)/n' stays in (0, 1): the image
    # passes validate_parabolic, and is marked valid with its numerators ms
    return _parabolic(bar, weights, d2map, _other_sign(pdat.det_lift_sign), ms, profile)


def zeta2_partition(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> dict[str, str]:
    """Classify each orbit's behavior under lift negation.

    'fixed': even orbit length, nothing moves; at odd length the shift
    is n'/2 and the pair either moves up ('up': d2 < n'/2), down
    ('down': d1 >= n'/2), or straddles and swaps ('cross').
    """
    _require_even_order(profile)
    validate_numeric(numeric, profile)
    out = {}
    for y in profile.orbits:
        d1, d2 = numeric[y.id]
        if y.k % 2 == 0:
            out[y.id] = "fixed"
        elif 2 * d2 < y.nprime:
            out[y.id] = "up"
        elif 2 * d1 >= y.nprime:
            out[y.id] = "down"
        else:
            out[y.id] = "cross"
    return out


def m_cross(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> dict[str, int]:
    """Indicator of the straddling orbits (the downstairs modification count)."""
    table = zeta2_partition(numeric, profile)
    return {label: 1 if tag == "cross" else 0 for label, tag in table.items()}


def s_i_possible(profile: CoverProfile) -> bool:
    """Whether stable points can map to strictly semistable ones.

    Happens exactly when the pullback kernel contains an involution,
    i.e. when its order is even.
    """
    return kernel_order(profile) % 2 == 0


@frozen
class DecompositionReport:
    n_parity: str
    r_parity: str
    case: str
    kernel_order: int
    statements: tuple[str, ...]


def decomposition_report(profile: CoverProfile) -> DecompositionReport:
    """Case analysis of how the admissible family covers the fixed variety."""
    r = kernel_order(profile)
    n_parity = "odd" if profile.n % 2 else "even"
    r_parity = "odd" if r % 2 else "even"
    if profile.n % 2 == 1:
        case = "n odd"
        statements = (
            "case n odd: the correspondence is a bijection from stable admissible "
            "data onto the stable fixed points",
            "the strictly semistable fixed points biject with classes of the "
            "opposite-twist relation on the semistable boundary",
        )
    elif r % 2 == 1:
        case = "n even, r odd"
        statements = (
            "case n even, r odd: the correspondence descends to the quotient by "
            "lift negation and is a bijection from stable data onto the stable "
            "fixed points",
            "no stable datum is fixed by a kernel involution (the kernel has odd "
            "order), so the self-associated part is empty",
            "the strictly semistable fixed points biject with classes of the "
            "crossing-twist relation on the quotient semistable boundary",
        )
    else:
        case = "n even, r even"
        statements = (
            "case n even, r even: the correspondence descends to the quotient by "
            "lift negation; generic stable data biject with stable fixed points",
            "stable data fixed by the kernel involution map to strictly "
            "semistable bundles and are counted separately",
            "the strictly semistable fixed points biject with the disjoint union "
            "of that self-associated part and the classes of the crossing-twist "
            "relation on the quotient semistable boundary",
        )
    return DecompositionReport(n_parity=n_parity, r_parity=r_parity, case=case,
                               kernel_order=r, statements=statements)


# --- twist classes ---

def equivalence_classes(points, profile: CoverProfile) -> list[list[GradedPoint]]:
    """Partition graded points by the twist relation.

    Generators: opposite twists by every character (odd order), plus,
    for even order, single-summand crossing twists by every odd
    character applied to either summand.  Each point is validated once
    and grouped by the least member of its class (_least_translate);
    classes hold input points in input order, ordered by their first.
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

    A twist by a translates a part P = (l, up) to P + a: a is added to
    the exponents mod n' and the upstairs degree stays.  P + a depends
    on a mod the period lcm(n'), and Pi + xi is the least translate of
    Pi.  For odd n the class is {P0 + a, P1 - a} over the lift delta, so
    its least pair is at a = x0 or a = -x1.  For even n the crossing
    twists (a, 0) and (0, a), a odd, generate (Z/n)^2, move delta by a
    and flip its sign: the class is every {P0 + x, P1 + y} over
    delta + x + y, signed by the parity of x + y.  Its least pair is at
    x = x0, y = x1, over the least lift with x + y = x0 + x1 mod the
    period.
    """
    (ell0, up0), (ell1, up1), (residues, degree, sign) = key
    n, moved, period = frame.n, frame.translate, frame.period

    def least(ell):
        # a key's exponents are reduced, so ell is its own translate by 0;
        # translates by distinct a mod the period differ, so none ties
        best, x = ell, 0
        for a in range(1, period):
            cand = moved(ell, a)
            if cand < best:
                best, x = cand, a
        return best, x

    def ordered(p, q):
        return (p, q) if p <= q else (q, p)

    (least0, x0), (least1, x1) = least(ell0), least(ell1)
    if n % 2 == 1:
        return (*min(ordered((least0, up0), (moved(ell1, -x0), up1)),
                     ordered((moved(ell0, -x1), up0), (least1, up1))), key[2])
    signs = (sign, _other_sign(sign))
    lifts = ((moved(residues, s), degree, signs[s % 2]) for s in range((x0 + x1) % period, n, period))
    return (*ordered((least0, up0), (least1, up1)), min(lifts))


# --- the order-two worked family ---

def hyperelliptic_profile(g: int) -> CoverProfile:
    """Degree-2 cover of the line branched at 2g+2 points p0..p(2g+1)."""
    if not is_int(g):
        raise InvalidGenus(f"genus must be an int, got {g!r}")
    if g < 1:
        raise InvalidGenus(f"genus must be >= 1, got {g}")
    return make_profile(2, [(f"p{i}", 1) for i in range(2 * g + 2)], genus_base=0)


def hyperelliptic_delta(g: int, which: int) -> DeterminantLift:
    """The two determinant lifts of the trivial determinant (which in {0,1})."""
    if not is_int(which) or which not in (0, 1):
        raise InvalidDatum(f"lift index must be 0 or 1, got {which!r}")
    residues = dict.fromkeys(_hyperelliptic_labels(g), which)
    return DeterminantLift(residues=residues, degree=0,
                           lift_sign=PLUS if which == 0 else MINUS)


@functools.lru_cache(maxsize=None, typed=True)
def _hyperelliptic_labels(g: int) -> tuple[str, ...]:
    """The branch-point labels p0..p(2g+1) of the genus-g family, built once per g.

    Typed, so that True or 1.0 is a miss, not the entry of 1, and reaches
    hyperelliptic_profile's check.
    """
    return hyperelliptic_profile(g).orbit_ids()


def _even_subset(g: int, q_indices) -> tuple[tuple[str, ...], frozenset]:
    """The family's labels and the point indices Q, checked: ints, |Q| even, each in range."""
    ids = _hyperelliptic_labels(g)
    indices = tuple(q_indices)
    for i in indices:
        if not is_int(i):
            raise InvalidDatum(f"point index {i!r} must be an int")
    q = frozenset(indices)
    if len(q) % 2 != 0:
        raise InvalidDatum(f"subset size must be even, got {len(q)}")
    for i in q:
        if not 0 <= i < len(ids):
            raise InvalidDatum(f"point index {i} outside 0..{len(ids) - 1}")
    return ids, q


def double_class(g: int, q_indices) -> GradedPoint:
    """Boundary class D(Q) with both flags on one summand pair (even subset Q)."""
    ids, q = _even_subset(g, q_indices)
    summand = GradedSummand(-(len(q) // 2), frozenset())
    numeric = {label: (1, 1) if i in q else (0, 0) for i, label in enumerate(ids)}
    return GradedPoint((summand, summand), numeric=numeric, det=hyperelliptic_delta(g, 0))


def flagged_class(g: int, q_indices) -> GradedPoint:
    """Boundary class F(Q) with flags split between the two summands (even subset Q)."""
    ids, q = _even_subset(g, q_indices)
    on = frozenset(ids[i] for i in q)
    half = len(q) // 2
    summands = (GradedSummand(-half, on), GradedSummand(half - (g + 1), frozenset(ids) - on))
    return GradedPoint(summands, numeric=dict.fromkeys(ids, (0, 1)), det=hyperelliptic_delta(g, 1))


class _BoundaryClasses(Set):
    """Read-only view of the boundary classes of one component.

    The classes are the even subsets Q of range(npoints) with |Q| <= top
    (npoints = 2g+2, top = -2c <= g+1).  At half size, reached only when
    top = g+1, Q and its complement are one class, and the member
    holding point 0 stands for it; so the length is the sum over even
    s <= top of C(npoints, s), halved at s = g+1.  Iteration yields the
    classes as frozensets by size, then lexicographically; membership is
    that predicate.  Equality and hashing are those of the frozenset of
    the same classes, which frozenset(view) builds.
    """

    __slots__ = ("_npoints", "_top", "_n")

    def __init__(self, npoints: int, top: int):
        self._npoints, self._top = npoints, top
        self._n = sum(math.comb(npoints, s) // (2 if 2 * s == npoints else 1)
                      for s in range(0, top + 1, 2))

    def __len__(self) -> int:
        return self._n

    def __contains__(self, q) -> bool:
        return (isinstance(q, (set, frozenset)) and len(q) % 2 == 0 and len(q) <= self._top
                and all(i in range(self._npoints) for i in q)
                and (2 * len(q) < self._npoints or 0 in q))

    def __iter__(self):
        for size in range(0, self._top + 1, 2):
            for q in itertools.combinations(range(self._npoints), size):
                if 2 * size < self._npoints or 0 in q:
                    yield frozenset(q)

    __hash__ = Set._hash
    # set operations (&, |, -, ^) build plain frozensets
    _from_iterable = frozenset


@frozen
class ComponentRecord:
    label: str
    c: int
    dimension: int
    boundary_classes: Set
    normal: bool


@frozen
class HyperellipticReport:
    g: int
    d: int
    components: tuple[ComponentRecord, ...]
    pairwise_intersections: dict
    global_intersection: frozenset
    max_dimension: int
    boundary_class_count: int
    subset_label_count: int

    def __post_init__(self):
        object.__setattr__(self, "pairwise_intersections", freeze(self.pairwise_intersections))


def hyperelliptic_report(g: int, with_classes: bool = True) -> HyperellipticReport:
    """Component census of the fixed variety for the order-two family.

    Every number comes from a formula; nothing is enumerated.  A genus
    past MAX_HYPERELLIPTIC_GENUS raises DomainError before anything is
    built.

    Components are indexed by the splitting type c (d/2 <= c < 0 with
    d = -(g+1)); dimension g-2c-1, except 2g-1 for the balanced type
    at c = d/2 (odd g).  Boundary classes of a component are the even
    point subsets Q with d_Q <= -2c, with Q identified with its
    complement when both qualify: a lazy view (_BoundaryClasses).  The
    class sets are nested, so two components share the classes of the
    larger c, the later one.  The global intersection runs over the
    full predicate family including the degenerate c = 0 stratum,
    leaving only the empty subset.  The largest dimension is 2g-1, at
    the smallest c: the balanced type for odd g, and g-2c-1 at c = -g/2
    for even g; every other type has -2c <= g.

    Every component is normal: lift negation fixes each of its boundary
    classes.  Lift negation twists by the character 1 (_o_step by 1),
    and at n = 2 every orbit has n' = 2, so the step adds 1
    mod 2 to every exponent of both summands.  The flagged class of Q
    has exponent vectors 1_Q and 1_{Q^c}; the step swaps them, and with
    them the two summands, which _settle puts back in order, over the
    same determinant.  So the key is fixed.

    boundary_class_count is the number of twist classes of the whole
    semistable boundary across both lifts, 4^g (-1 when with_classes is
    False).  Write D(Q) and F(Q) for the double and flagged classes of
    the even subset Q.  At n = 2 the only steps are the o-step and the
    e-step by the character 1:
      - the o-step maps D(Q) to D(Q^c) and fixes F(Q) (above);
      - an e-step on either summand of D(Q) gives F(Q), and on a
        summand of F(Q) gives D(Q) or D(Q^c), crossing lifts;
      - F(Q) and F(Q^c) have the same key.
    So each class is {D(Q), D(Q^c), F(Q)} for one unordered pair
    {Q, Q^c}, and the 2^(2g+1) even subsets give 4^g classes.
    """
    if is_int(g) and g > MAX_HYPERELLIPTIC_GENUS:  # a non-int g gets InvalidGenus below
        raise DomainError(f"genus {g} is past the hyperelliptic limit of {MAX_HYPERELLIPTIC_GENUS}")
    npoints = len(hyperelliptic_profile(g).orbits)  # 2g+2; InvalidGenus for g < 1
    d = -(g + 1)
    components = tuple(
        ComponentRecord(label=f"c={c}", c=c, dimension=2 * g - 1 if 2 * c == d else g - 2 * c - 1,
                        boundary_classes=_BoundaryClasses(npoints, -2 * c), normal=True)
        for c in range(-((g + 1) // 2), 0))
    pairwise = {(rec1.label, rec2.label): rec2.boundary_classes
                for rec1, rec2 in itertools.combinations(components, 2)}
    return HyperellipticReport(
        g=g, d=d, components=components, pairwise_intersections=pairwise,
        global_intersection=frozenset({frozenset()}), max_dimension=2 * g - 1,
        boundary_class_count=4 ** g if with_classes else -1, subset_label_count=2 ** (2 * g + 1))


# --- unramified census ---

@frozen
class CensusComponent:
    kind: str
    count: int
    description: str


@frozen
class CensusRecord:
    n: int
    deg_delta: int
    genus_base: int
    bar_degree: int
    case: str
    components: tuple[CensusComponent, ...]
    intersection_note: str


def unramified_census(n: int, deg_delta: int, genus_base: int) -> CensusRecord:
    """Component structure of the fixed variety for a free cover action.

    With no special orbits the admissible set is a single numeric datum
    and everything is governed by the parity of n and of the reduced
    determinant degree.  The determinant degree must be divisible by n
    (InconsistentDegrees otherwise).
    """
    if not (is_int(n) and is_int(deg_delta)):
        raise InconsistentDegrees(
            f"cover order and determinant degree must be ints, got {n!r} and {deg_delta!r}")
    if n < 1:
        raise InconsistentDegrees(f"cover order must be positive, got {n}")
    if not is_int(genus_base):
        raise InvalidGenus(f"base genus must be an int, got {genus_base!r}")
    if genus_base < 0:
        raise InvalidGenus(f"base genus must be non-negative, got {genus_base}")
    if deg_delta % n != 0:
        raise InconsistentDegrees(
            f"determinant degree {deg_delta} not divisible by cover order {n}")
    bar = deg_delta // n
    if n % 2 == 1:
        if deg_delta % 2 == 1:
            case = "n odd, determinant degree odd"
            comps = (CensusComponent("moduli", 1,
                                     "the full semistable moduli space of the reduced determinant"),)
            note = "single component; no strictly semistable identifications"
        else:
            case = "n odd, determinant degree even"
            comps = (CensusComponent(
                "pic0_quotient", 1,
                "Pic_0(base)/G with G generated by the pullback kernel and inversion"),)
            note = "one component; the kernel-and-inversion group G acts on Pic_0"
    else:
        if bar % 2 == 1:
            case = "n even, reduced degree odd"
            comps = (CensusComponent(
                "prym", 2, "two copies of the Prym variety of the residual double cover"),)
            note = "two disjoint components, one per determinant lift"
        else:
            case = "n even, reduced degree even"
            comps = (
                CensusComponent("kummer", 4,
                                "Kummer quotients Prym/{+-1} of the residual double cover"),
                CensusComponent(
                    "pic0_quotient", 1,
                    "Pic_0(base)/G with G generated by the pullback kernel and inversion"),
            )
            note = "each Kummer component meets the Pic_0 quotient in finitely many points"
    return CensusRecord(n=n, deg_delta=deg_delta, genus_base=genus_base, bar_degree=bar,
                        case=case, components=comps, intersection_note=note)
