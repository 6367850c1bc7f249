"""Closed-form reports on the fixed variety.

decomposition_report is the case analysis of a cover profile by the
parity of its order and of its pullback kernel, hyperelliptic_report
the component census of the order-two family, and unramified_census
the component structure for a free action.  Each reads a cover profile
or a few integers and computes from formulas, so this module imports
neither `equivariant` nor `graded`: a `decompose`, `hyperelliptic` or
`census` CLI child loads only `_ser`, `covers` and `errors` besides the
CLI itself.

The order-two census is closed-form: its class sets are lazy views, and
its normality and class count are proved in hyperelliptic_report's
docstring from the twist steps of `graded`, with the enumeration kept
in the tests as the oracle.  The family's profile comes from `covers`
(hyperelliptic_profile), one object per genus, so the lifts and
boundary points that `graded` builds marked valid for it are valid for
every caller.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Set

from ._ser import freeze, frozen, is_int
from .covers import CoverProfile, hyperelliptic_profile, kernel_order
from .errors import DomainError, InconsistentDegrees, InvalidGenus


# a component's boundary classes are a Set whose len must fit sys.maxsize,
# and the smallest splitting type has 4^g of them
MAX_HYPERELLIPTIC_GENUS = 31


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


# --- the order-two worked family ---

class _BoundaryClasses(Set):
    """Read-only view of the boundary classes of one component.

    The classes are the even subsets Q of range(npoints) with |Q| <= top
    (npoints = 2g+2, top = -2c <= g+1).  At half size, reached only when
    top = g+1, Q and its complement are one class, and the member
    holding point 0 stands for it; so the length is the sum over even
    s <= top of C(npoints, s), halved at s = g+1.  Iteration yields the
    classes as frozensets by size, then lexicographically; membership is
    that predicate.  Equality is that of the frozenset of the same
    classes, which frozenset(view) builds.  Two views compare in closed
    form from (npoints, top), with nothing enumerated; comparing a view
    with any other set iterates, O(len).  A view is unhashable, and so
    is a record holding one: a hash that equals the frozenset's must
    read every class, about 4^g of them, and no closed form can.  The
    repr names the two numbers, and a pickle holds them.
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

    def __eq__(self, other):
        if isinstance(other, _BoundaryClasses):
            # below top 2 the empty set is the only class, whatever npoints is
            return self._top == other._top and (self._npoints == other._npoints or self._top < 2)
        return Set.__eq__(self, other)

    def __repr__(self) -> str:
        return f"_BoundaryClasses(npoints={self._npoints}, top={self._top})"

    def __reduce__(self):
        return (_BoundaryClasses, (self._npoints, self._top))

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
        object.__setattr__(self, "pairwise_intersections", freeze(self.pairwise_intersections,
                                                                  "pairwise intersections"))


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
    classes.  Lift negation twists by the character 1 (graded._o_step
    by 1), and at n = 2 every orbit has n' = 2, so the step adds 1
    mod 2 to every exponent of both summands.  The flagged class of Q
    has exponent vectors 1_Q and 1_{Q^c}; the step swaps them, and with
    them the two summands, which graded._settle puts back in order, over
    the same determinant.  So the key is fixed.

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
