"""Graded points of the fixed variety and their discrete dynamics.

A strictly semistable point is recorded by its graded object: an
unordered pair of summands, each a (base degree, flagged-orbit support)
record, together with the ambient context (numeric exponent data and
determinant lift).  Twisting one summand by a root-of-unity character
and the other by its inverse preserves the associated fixed point; for
even cover order the odd characters cross between the two determinant
lifts.  Closing the input under those steps yields the partition whose
classes biject with strictly semistable fixed points.

All degree bookkeeping runs through the per-summand upstairs degree
n * bar_degree + sum_y k(y) * l(y), which is invariant under the
twists; the downstairs degrees after a step are recovered from it.
The twist formula exists once, on integer keys holding each summand's
exponents l(y) and upstairs degree (see _key).  The closure searches
keys only: equivalence_classes validates each caller point once, and a
key is decoded (_rebuild) only where a public step returns a point.
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
from dataclasses import dataclass

from .covers import CoverProfile, kernel_order, make_profile
from .divisors import RootExponent, d_mu
from .equivariant import (
    MINUS,
    PLUS,
    AdmissibleParabolicDatum,
    DeterminantLift,
    Rank2EqData,
    _pair,
    _weight,
    validate_parabolic,
    validate_rank2,
)
from .errors import (
    InconsistentDegrees,
    InvalidDatum,
    InvalidGenus,
    NonIntegralDegree,
    OddOrder,
)


@dataclass(frozen=True)
class GradedSummand:
    """One graded piece: degree downstairs and the set of flagged orbits."""

    bar_degree: int
    support: frozenset


class GradedPoint:
    """Unordered pair of graded summands with its discrete context.

    numeric/det may be None for points born downstairs without a chosen
    cover (the stability module constructs those); equivalence steps
    require both.  Equality and hashing are by canonical content; the
    hash is taken once, when first asked, since points are not mutated.
    """

    __slots__ = ("summands", "numeric", "det", "_hash")

    def __init__(self, summands, numeric=None, det=None):
        pair = tuple(summands)
        if len(pair) != 2:
            raise InvalidDatum("graded point needs exactly two summands")
        # by base degree, then by sorted support labels (sorted only on a tie)
        s0, s1 = pair
        if s0.bar_degree > s1.bar_degree or s0.bar_degree == s1.bar_degree and (
                sorted(map(str, s0.support)) > sorted(map(str, s1.support))):
            pair = (s1, s0)
        self.summands = pair
        self.numeric = dict(numeric) if numeric is not None else None
        self.det = det
        self._hash = None

    def __eq__(self, other):
        return (isinstance(other, GradedPoint) and hash(self) == hash(other)
                and self.summands == other.summands and self.numeric == other.numeric
                and self.det == other.det)

    def __hash__(self):
        if self._hash is None:
            det = self.det
            self._hash = hash((
                self.summands,
                None if self.numeric is None else frozenset(self.numeric.items()),
                None if det is None else (frozenset(det.residues.items()), det.degree, det.lift_sign),
            ))
        return self._hash

    def __repr__(self):
        return f"GradedPoint(summands={self.summands!r}, numeric={self.numeric!r}, det={self.det!r})"


def validate_graded(pt: GradedPoint, profile: CoverProfile) -> tuple:
    """Structural checks tying a graded point to its cover context; returns its key (_key)."""
    if pt.numeric is None or pt.det is None:
        raise InvalidDatum("graded point lacks cover context")
    validate_rank2(Rank2EqData(numeric=pt.numeric, det=pt.det), profile)
    weighted = {y.id for y in profile.orbits if pt.numeric[y.id][0] != pt.numeric[y.id][1]}
    s0, s1 = pt.summands
    if set(s0.support) | set(s1.support) != weighted or set(s0.support) & set(s1.support):
        raise InvalidDatum("summand supports must partition the weighted orbits")
    key = _key(pt, _Frame(profile))
    if key[0][1] != key[1][1]:
        raise InvalidDatum("summands have unequal parabolic degree")
    return key


# The twists act on integer keys ((l0, up0), (l1, up1), (residues, degree,
# lift_sign)), in profile order: l_i is the exponent summand i carries at each
# orbit (d2 on its support, d1 elsewhere), up_i = n * bar_degree + sum_y k(y)
# l_i(y) its upstairs degree, and residues holds None where the lift omits an
# orbit.  Summands keep GradedPoint's order, so equal points have equal keys.

class _Frame:
    """Per-profile constants of the keyed twist steps, orbits in profile order."""

    def __init__(self, profile: CoverProfile):
        self.n, self.orbits = profile.n, profile.orbits
        self.ids = tuple(y.id for y in profile.orbits)
        self.ks = tuple(y.k for y in profile.orbits)
        self.nprimes = tuple(y.nprime for y in profile.orbits)
        # (label, position) pairs in the label order of GradedPoint's summands
        self.labels = sorted((str(y.id), i) for i, y in enumerate(profile.orbits))

    def weight(self, ell: tuple[int, ...]) -> int:
        """sum_y k(y) * l(y): a summand's upstairs degree less n * bar_degree."""
        return sum(map(operator.mul, self.ks, ell))

    def shift(self, a: int) -> tuple[int, ...]:
        """Local weight of the character a mod n at each orbit."""
        mu = RootExponent(a, self.n)
        return tuple(d_mu(mu, y) for y in self.orbits)


def _key(pt: GradedPoint, frame: _Frame) -> tuple:
    parts = []
    for s in pt.summands:
        ell = tuple(pt.numeric[y.id][1 if y.id in s.support else 0] for y in frame.orbits)
        parts.append((ell, frame.n * s.bar_degree + frame.weight(ell)))
    residues = tuple(pt.det.residues.get(y.id) for y in frame.orbits)
    return (*parts, (residues, pt.det.degree, pt.det.lift_sign))


def _rebuild(key: tuple, frame: _Frame) -> GradedPoint:
    """The graded point of a key."""
    (ell0, up0), (ell1, up1), (residues, degree, sign) = key
    ids = frame.ids
    # each summand's support is where it carries the larger exponent
    s0 = GradedSummand((up0 - frame.weight(ell0)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.gt, ell0, ell1))))
    s1 = GradedSummand((up1 - frame.weight(ell1)) // frame.n,
                       frozenset(itertools.compress(ids, map(operator.lt, ell0, ell1))))
    det = DeterminantLift(residues={i: r for i, r in zip(ids, residues) if r is not None},
                          degree=degree, lift_sign=sign)
    return GradedPoint((s0, s1), numeric=dict(zip(ids, map(_pair, ell0, ell1))), det=det)


def sim_o_step(pt: GradedPoint, mu: RootExponent, profile: CoverProfile) -> GradedPoint:
    """Twist one summand by mu and the other by its inverse.

    Leaves the determinant lift untouched; the two summand degrees move
    in opposite directions as dictated by the reduced local weights of
    mu.  Raises NonIntegralDegree when the profile cannot absorb the
    twist at degree level (never on profiles realized by a curve).
    """
    key = validate_graded(pt, profile)
    if mu.modulus != profile.n:
        raise InvalidDatum(f"twist character modulus {mu.modulus} differs from n={profile.n}")
    frame = _Frame(profile)
    return _rebuild(_o_step(key, frame.shift(mu.a), frame), frame)


# The steps below take the key of a point that validate_graded accepts and
# return the key of one it accepts again: d1 + d2 and the determinant residue
# move by the same shift at every orbit, the exponent pairs partition the
# weighted orbits between the summands, and both upstairs degrees carry over.

def _o_step(key: tuple, shift: tuple[int, ...], frame: _Frame) -> tuple:
    (ell0, up0), (ell1, up1), det = key
    ell0 = tuple((e + d) % m for e, d, m in zip(ell0, shift, frame.nprimes))
    ell1 = tuple((e - d) % m for e, d, m in zip(ell1, shift, frame.nprimes))
    return _settle((ell0, up0), (ell1, up1), det, frame)


def sim_e_step(pt: GradedPoint, profile: CoverProfile, exponent: int = 1,
               summand: int = 0) -> GradedPoint:
    """Twist a single summand by an odd character, crossing determinant lifts.

    Only exists for even cover order (OddOrder otherwise); the exponent
    must be odd so that the determinant's equivariant structure moves to
    the other lift, whose opaque sign tag flips.
    """
    if profile.n % 2 == 1:
        raise OddOrder("single-summand crossing twist needs even cover order")
    if exponent % 2 != 1:
        raise InvalidDatum("crossing twist exponent must be odd")
    if summand not in (0, 1):
        raise InvalidDatum("summand index must be 0 or 1")
    key = validate_graded(pt, profile)
    frame = _Frame(profile)
    return _rebuild(_e_step(key, frame.shift(exponent), summand, frame), frame)


def _e_step(key: tuple, shift: tuple[int, ...], summand: int, frame: _Frame) -> tuple:
    parts = list(key[:2])
    residues, degree, sign = key[2]
    # the underlying summand bundle is untouched (only its lift scales),
    # so the upstairs degrees stay fixed while the exponents reduce anew
    ell, up = parts[summand]
    parts[summand] = (tuple((e + d) % m for e, d, m in zip(ell, shift, frame.nprimes)), up)
    residues = tuple(((r or 0) + d) % m for r, d, m in zip(residues, shift, frame.nprimes))
    det = (residues, degree, MINUS if sign == PLUS else PLUS)
    return _settle(parts[0], parts[1], det, frame)


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
    if bars[0] == bars[1]:
        # each summand's support, as sorted labels, is where it carries the larger exponent
        (ell0, _), (ell1, _) = part0, part1
        swap = ([label for label, i in frame.labels if ell0[i] > ell1[i]]
                > [label for label, i in frame.labels if ell1[i] > ell0[i]])
    else:
        swap = bars[0] > bars[1]
    return (part1, part0, det) if swap else (part0, part1, det)


def zeta2_apply(data: Rank2EqData, profile: CoverProfile) -> Rank2EqData:
    """Negate the equivariant lift (even order only).

    Every local exponent shifts by the reduced weight of -1, i.e. by
    n'(y)/2 at odd-length orbits and not at all at even-length ones;
    the determinant residues and degree are untouched and the opaque
    lift tag flips.  This is an involution.
    """
    if profile.n % 2 == 1:
        raise OddOrder("lift negation needs even cover order")
    validate_rank2(data, profile)
    half = profile.n // 2
    numeric = {}
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        shift = half % y.nprime
        numeric[y.id] = _pair((d1 + shift) % y.nprime, (d2 + shift) % y.nprime)
    sign = MINUS if data.det.lift_sign == PLUS else PLUS
    det = DeterminantLift(residues=dict(data.det.residues), degree=data.det.degree,
                          lift_sign=sign)
    return Rank2EqData(numeric=numeric, det=det)


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
    if profile.n % 2 == 1:
        raise OddOrder("lift negation needs even cover order")
    spreads = validate_parabolic(pdat, profile)
    weights = {}
    d2map = {}
    bar = pdat.det_bar_degree
    for y in profile.orbits:
        d2 = pdat.d2.get(y.id, 0)
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
        weights[y.id], d2map[y.id] = _weight(m, nprime), d2
    # every branch keeps 0 <= d2 - m <= d2 < n'; the cross branch has
    # m >= 1, so the weight 1 - w = (n' - m)/n' stays in (0, 1)
    sign = MINUS if pdat.det_lift_sign == PLUS else PLUS
    return AdmissibleParabolicDatum(det_bar_degree=bar,
                                    weights=weights, d2=d2map, det_lift_sign=sign)


def zeta2_partition(numeric: dict[str, tuple[int, int]], profile: CoverProfile) -> dict[str, str]:
    """Classify each orbit's behavior under lift negation.

    'fixed': even orbit length, nothing moves; at odd length the shift
    is n'/2 and the pair either moves up ('up': d2 < n'/2), down
    ('down': d1 >= n'/2), or straddles and swaps ('cross').
    """
    if profile.n % 2 == 1:
        raise OddOrder("lift negation needs even cover order")
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


@dataclass(frozen=True)
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


# --- equivalence closure ---

def equivalence_classes(points, profile: CoverProfile) -> list[list[GradedPoint]]:
    """Partition graded points by the twist relation.

    Closure generators: opposite twists by every character (odd order),
    plus, for even order, single-summand crossing twists by every odd
    character applied to either summand.  The closure may pass through
    points outside the input; returned classes contain input points
    only, in input order.
    """
    pts = list(points)
    keys = [validate_graded(pt, profile) for pt in pts]
    groups: dict[tuple, list[GradedPoint]] = {}
    for pt, root in zip(pts, _roots(keys, _Frame(profile))):
        groups.setdefault(root, []).append(pt)
    return list(groups.values())


def _roots(keys: list[tuple], frame: _Frame) -> list[tuple]:
    """One representative key of each input key's twist class, in input order.

    The keys must be ones validate_graded returns; every step preserves
    validity (see _o_step), so reached keys are neither checked nor decoded.
    """
    # a = 0 is the trivial character, whose step returns its input
    shifts = [frame.shift(a) for a in range(frame.n)]

    def neighbors(key):
        for shift in shifts[1:]:
            yield _o_step(key, shift, frame)
        for shift in shifts[1::2] if frame.n % 2 == 0 else ():
            for which in (0, 1):
                yield _e_step(key, shift, which, frame)

    parent: dict[tuple, tuple] = {}

    def find(x):
        root = x
        while parent[root] is not root:
            root = parent[root]
        while parent[x] is not root:
            parent[x], x = root, parent[x]
        return root

    queue = list(keys)
    for key in queue:
        parent.setdefault(key, key)
    while queue:
        key = queue.pop()
        # unions below only hang other roots under this one, so it stays the root
        root = find(key)
        for nb in neighbors(key):
            if nb not in parent:
                parent[nb] = root
                queue.append(nb)
            else:
                parent[find(nb)] = root
    return [find(key) for key in keys]


# --- the order-two worked family ---

def hyperelliptic_profile(g: int) -> CoverProfile:
    """Degree-2 cover of the line branched at 2g+2 points p0..p(2g+1)."""
    if g < 1:
        raise InvalidGenus(f"genus must be >= 1, got {g}")
    return make_profile(2, [(f"p{i}", 1) for i in range(2 * g + 2)], genus_base=0)


def hyperelliptic_delta(g: int, which: int) -> DeterminantLift:
    """The two determinant lifts of the trivial determinant (which in {0,1})."""
    if which not in (0, 1):
        raise InvalidDatum(f"lift index must be 0 or 1, got {which!r}")
    residues = dict.fromkeys(_hyperelliptic_labels(g), which)
    return DeterminantLift(residues=residues, degree=0,
                           lift_sign=PLUS if which == 0 else MINUS)


@functools.cache
def _hyperelliptic_labels(g: int) -> tuple[str, ...]:
    """The branch-point labels p0..p(2g+1) of the genus-g family, built once per g."""
    return hyperelliptic_profile(g).orbit_ids()


def _even_subset(g: int, q_indices) -> tuple[tuple[str, ...], frozenset]:
    """The family's labels and the point indices Q, checked: |Q| even, each in range."""
    ids = _hyperelliptic_labels(g)
    q = frozenset(map(int, q_indices))
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


@dataclass(frozen=True)
class ComponentRecord:
    label: str
    c: int
    dimension: int
    boundary_classes: Set
    normal: bool


@dataclass(frozen=True)
class HyperellipticReport:
    g: int
    d: int
    components: tuple[ComponentRecord, ...]
    pairwise_intersections: dict
    global_intersection: frozenset
    max_dimension: int
    boundary_class_count: int
    subset_label_count: int


def hyperelliptic_report(g: int, with_classes: bool = True) -> HyperellipticReport:
    """Component census of the fixed variety for the order-two family.

    Every number comes from a formula; nothing is enumerated.

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
    classes.  Lift negation twists by the character 1 (_o_step with
    shift(1)), and at n = 2 every orbit has n' = 2, so the step adds 1
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

@dataclass(frozen=True)
class CensusComponent:
    kind: str
    count: int
    description: str


@dataclass(frozen=True)
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
    if n < 1:
        raise InconsistentDegrees(f"cover order must be positive, got {n}")
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
