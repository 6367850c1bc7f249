"""Exact stability analysis of rank-2 parabolic bundles on the line.

A bundle O(c) + O(d-c) (normalized so d-c <= c) carries at each marked
point a one-dimensional flag in the fiber and a rational weight in
[0,1).  A line subbundle of degree e is presented by a coprime
polynomial pair (p, q) with deg p <= c-e, deg q <= d-c-e and at least
one degree bound attained (otherwise the inclusion drops rank at
infinity and the subbundle saturates to higher degree); it agrees with
the flag (a:b) at a marked point z when b*p(z) = a*q(z).

The classifier scans candidate degrees and agreement sets, extracts an
exact kernel vector of the interpolation system, saturates it (divide
by the polynomial gcd, then absorb the slack at infinity), and scores
the resulting genuine subbundle.  Scoring at the true degree makes the
scan complete: discarding an agreement loses less than weight one
while each saturation step gains a full unit of degree, so the
parabolic slope difference only drops under saturation, and every
violating or equalizing subbundle is found at its own (degree,
agreement-set) pair.

The scan is kept cheap without giving up exactness: its verdicts and
witnesses are those of a plain scan over every degree and every subset
in itertools.combinations order.  Each argument for that sits at the
code it justifies:

- the scan's order, first O(c), then each degree's kernels, the
  integer face test of a subset against a threshold fixed per degree,
  and the skip of a degree an earlier locator certificate implies:
  _witnesses, which alone fixes that order; stability_classify only
  judges the witnesses it yields;
- the integer form of the bundle, read from its Fractions once per call
  and by everything downstream: _integer_points;
- integer interpolation rows in place of fraction ones:
  _interpolation_row;
- why a full rank modulo a prime is a full rank over the rationals:
  RANK_PRIME;
- the weights' table of largest sums, built once per call, and the
  fewest points s of a qualifying subset, read off it at each degree:
  the walk's sizes end at s and the error locator's E is |K| - s,
  K being the points of positive weight: _best_sums, _size_floor;
- the walk of each degree's subsets, its prunes and its table of
  prefixes: _kernel_candidates;
- the two lemmas, the error locator and the line lemma, that prove a
  degree empty before its rows are built, the sums of weight by flag
  that decide a line of Q^2, and the sums by the primitive normal of a
  plane, one pass per row of K, that make the line lemma quadratic in
  Q^3: _certified_empty;
- witness scoring in integers: _true_agreement, by Horner's rule in
  homogeneous form on the integer form, and _face_numerator.

Fractions remain only in the kernel and in saturation, which run on
kernel hits alone.  All arithmetic is exact: integers and fractions,
no floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING

from ._ser import (check_int, frozen, int_text, is_int, is_rational, list_of, pair_of,
                   parse_object, rat_from_json, rat_to_json, require_int)
from .errors import (DomainError, InternalError, InvalidDatum, NotSemistableNotStrict,
                     SchemaError, UnknownOrbit)

if TYPE_CHECKING:  # for annotations; `fixloc stability` loads none of these layers
    from .covers import CoverProfile
    from .equivariant import AdmissibleParabolicDatum
    from .graded import GradedPoint

STABLE = "Stable"
STRICTLY_SEMISTABLE = "StrictlySemistable"
UNSTABLE = "Unstable"
_Point = tuple[int, int, int, int]  # a marked point in integers: see _integer_points

# The scan is exponential in the number of marked points.  On one core of
# an Intel Xeon under CPython 3.11, at 30 points (g=14,
# tools/scale_stability.py), the slowest of 60 seeded bundles (40 draws of
# seed 1, 20 of seed 2) took 4.1-4.2 s and 45 MB, and the median 0.02 s.
# Draw g14-25 of seed 2, past those 20, walks degrees that yield nothing:
# 12-19 s in five runs, with the process at a peak of 106 MB.
# The limit counts points, not work: a hand-built 30-point bundle at g=14,
# one flag at 16 of its points and quarter weights (README), took 70-76 s
# and a peak of 513 MB as one `fixloc stability` process (88-92 s and 514 MB
# in alternating runs under the former 31-bit RANK_PRIME).
MAX_MARKED_POINTS = 30


# --- exact linear algebra ---

def kernel_vector(rows: list[list[int]], ncols: int) -> list[Fraction] | None:
    """First vector of the reduced-row-echelon kernel basis; None at full rank.

    Gauss-Jordan elimination stops at the first column without a pivot.
    Every column before it holds a pivot, so that column's kernel vector
    is 1 there and minus the column's entry in pivot row j at column j.
    A pivot row found further right is zero left of its pivot, so
    reducing with it would change no entry of this column.
    """
    rows = [list(r) for r in rows]
    for col in range(ncols):
        pivot = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            return ([-rows[j][col] for j in range(col)] + [Fraction(1)]
                    + [Fraction(0)] * (ncols - col - 1))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1, 1) / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for i in range(len(rows)):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return None


# --- polynomials as low-to-high Fraction coefficient lists ---

def poly_trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(a: list[Fraction], b: list[Fraction]):
    """(quotient, remainder), both trimmed: the first step sets the quotient's top coefficient."""
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise InternalError("division by zero polynomial")
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    rem = a
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        rem = poly_trim(rem)
    return quot, rem


def poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd; gcd with the zero polynomial is the other one, made monic."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


# --- data types ---

@frozen
class ParabolicP1:
    """O(c) + O(d-c) with flags and weights at distinct marked points.

    Validated when built (InvalidDatum otherwise): c and d must be ints;
    points, flags and weights iterables of one length, each read once;
    each flag two entries; and every point, flag entry and weight an int
    or a Fraction.  Points and weights are stored as tuples of Fractions
    and flags normalized projectively (normalize_flag).  `make_bundle`
    is this class.
    """

    c: int
    d: int
    points: tuple[Fraction, ...]
    flags: tuple[tuple[Fraction, Fraction], ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        c, d = self.c, self.d
        if not (is_int(c) and is_int(d)):
            raise InvalidDatum(f"splitting degrees must be ints, got c={c!r}, d={d!r}")
        if d - c > c:
            raise InvalidDatum(f"splitting must be normalized: d-c={d-c} exceeds c={c}")
        pts = tuple(_exact(z, "marked point") for z in _entries(self.points, "marked points"))
        if len(set(pts)) != len(pts):
            raise InvalidDatum("marked points must be distinct")
        flags, ws = _entries(self.flags, "flags"), _entries(self.weights, "weights")
        if not (len(pts) == len(flags) == len(ws)):
            raise InvalidDatum("points, flags and weights must have equal length")
        ws = tuple(_exact(w, "weight") for w in ws)
        for w in ws:
            if not 0 <= w < 1:
                raise InvalidDatum(f"weight {w} outside [0,1)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "flags", tuple(normalize_flag(f) for f in flags))
        object.__setattr__(self, "weights", ws)


@frozen
class SubbundleWitness:
    """Saturated degree-e line subbundle, by its polynomial inclusion.

    The degree e must be an int, each section a tuple of ints and
    Fractions, and the agreement set a frozenset of ints (InvalidDatum
    otherwise); validate_witness checks the sections and the agreement
    set against a bundle.
    """

    e: int
    p_coeffs: tuple[Fraction, ...]
    q_coeffs: tuple[Fraction, ...]
    agreement: frozenset[int]

    def __post_init__(self) -> None:
        check_int(self.e, "witness degree")
        for coeffs in (self.p_coeffs, self.q_coeffs):
            if not isinstance(coeffs, tuple):
                raise InvalidDatum(f"witness coefficients must be a tuple, "
                                   f"got {type(coeffs).__name__}")
            for x in coeffs:
                if type(x) is not Fraction and not is_rational(x):
                    raise InvalidDatum(f"witness coefficient {x!r} must be an int or a Fraction")
        if not isinstance(self.agreement, frozenset):
            raise InvalidDatum(f"witness agreement must be a frozenset, "
                               f"got {type(self.agreement).__name__}")
        for i in self.agreement:
            if type(i) is not int and not is_int(i):
                raise InvalidDatum(f"witness agreement index {i!r} must be an int")


@frozen
class StabilityVerdict:
    """A label of the trichotomy and the witness that decided it, if any.

    A label other than the three, or a witness that is neither None nor
    a SubbundleWitness, raises InvalidDatum.
    """

    label: str
    witness: SubbundleWitness | None

    def __post_init__(self) -> None:
        if self.label not in (STABLE, STRICTLY_SEMISTABLE, UNSTABLE):
            raise InvalidDatum(f"verdict label {self.label!r} is not {STABLE}, "
                               f"{STRICTLY_SEMISTABLE} or {UNSTABLE}")
        if self.witness is not None and not isinstance(self.witness, SubbundleWitness):
            raise InvalidDatum(f"verdict witness must be a SubbundleWitness or None, "
                               f"got {type(self.witness).__name__}")


def _exact(x, what: str) -> Fraction:
    if not is_rational(x):
        raise InvalidDatum(f"{what} {x!r} must be an int or a Fraction")
    return Fraction(x)


def _entries(items, what: str) -> tuple:
    """items read once into a tuple; InvalidDatum when they are not iterable."""
    try:
        return tuple(items)
    except TypeError:
        raise InvalidDatum(f"{what} must be iterable, got {type(items).__name__}") from None


def normalize_flag(flag) -> tuple[Fraction, Fraction]:
    entries = _entries(flag, "flag")
    if len(entries) != 2:
        raise InvalidDatum(f"flag must have two entries, got {len(entries)}")
    a, b = _exact(entries[0], "flag entry"), _exact(entries[1], "flag entry")
    if a == 0 and b == 0:
        raise InvalidDatum("flag must be a nonzero direction")
    if a != 0:
        return (Fraction(1), b / a)
    return (Fraction(0), Fraction(1))


make_bundle = ParabolicP1  # builds and validates; flags are normalized projectively


# --- slopes ---

def parabolic_slope_difference(bundle: ParabolicP1, witness: SubbundleWitness) -> Fraction:
    """par-slope(bundle) - par-slope(subbundle with induced weights)."""
    scale, iw = _over_one_denominator(bundle.weights)
    num = _face_numerator(bundle.d, witness.e, scale, iw, range(len(iw)), witness.agreement)
    return Fraction(num, 2 * scale)


def _over_one_denominator(xs) -> tuple[int, list[int]]:
    """(L, [x*L for x in xs]): L the lcm of the denominators of the ints and Fractions xs."""
    scale = math.lcm(*(x.denominator for x in xs))
    return scale, [x.numerator * (scale // x.denominator) for x in xs]


def _face_numerator(d: int, e: int, scale: int, iw: list[int], keys, agreement) -> int:
    """2L times d/2 - e + sum of w/2 over the weights, negated where the key is in agreement.

    The weights come over their common denominator L, as iw = [w*L]
    (_over_one_denominator), so this is the integer L*(d-2e) + sum of
    the signed L*w, and it has the sign of the slope difference.
    """
    acc = scale * (d - 2 * e)
    for key, x in zip(keys, iw):
        acc += -x if key in agreement else x
    return acc


def slope_transfer_check(profile: CoverProfile, pdat: AdmissibleParabolicDatum,
                         sub_bar_degree: int, agreement) -> tuple[Fraction, Fraction]:
    """Evaluate the slope inequality downstairs and upstairs.

    Returns (downstairs, upstairs-over-n): the parabolic slope
    difference of a subbundle with the given base degree and agreement
    pattern, and 1/n times the ordinary slope difference of its
    pullback tracked through the exponent data.  The two are equal for
    every consistent input; computing both exercises independent
    bookkeeping paths.  pdat must pass from_parabolic, and
    sub_bar_degree must be an int (InvalidDatum otherwise).
    """
    from .equivariant import from_parabolic

    # validates pdat, whose weights name every orbit, as _face_numerator reads them
    data = from_parabolic(pdat, profile)
    check_int(sub_bar_degree, "subbundle base degree")
    agr = set(agreement)
    unknown = agr - set(profile.orbit_ids())
    if unknown:
        raise UnknownOrbit(sorted(unknown)[0])
    scale, iw = _over_one_denominator(pdat.weights.values())
    lhs = Fraction(_face_numerator(pdat.det_bar_degree, sub_bar_degree, scale, iw, pdat.weights,
                                   agr), 2 * scale)

    deg_top = data.det.degree
    deg_sub = profile.n * sub_bar_degree
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        deg_sub += y.k * (d2 if y.id in agr else d1)
    rhs = (Fraction(deg_top, 2) - deg_sub) / profile.n
    return lhs, rhs


# --- witness machinery ---

def _integer_points(bundle: ParabolicP1) -> list[_Point]:
    """The integer form of the marked points: (u, v, s, -a*t) for each.

    Point z = u/v carries the normalized flag (a, b), a in {0, 1} and
    b = s/t, so -a*t is -t or 0.  The witness machinery reads the
    points and flags through this table alone, so each of their
    Fractions is read once per call.
    """
    return [(z.numerator, z.denominator, b.numerator, -a.numerator * b.denominator)
            for z, (a, b) in zip(bundle.points, bundle.flags)]


def _interpolation_row(point: _Point, np_: int, nq: int) -> list[int]:
    """Condition b*p(z)-a*q(z)=0 at a point of _integer_points, in integers.

    With z = u/v, the normalized flag (a, b), a in {0, 1}, b = s/t and
    m = max(np_, nq), the fraction row (b*z^j for j < np_, then -a*z^j
    for j < nq) times t*v^(m-1) is the integer row s*u^j*v^(m-1-j), then
    -a*t*u^j*v^(m-1-j).  Scaling a row by a nonzero constant changes
    neither the kernel nor the reduced row echelon form, so the integer
    row stands in for the fraction one everywhere.  Modulo RANK_PRIME,
    a scale the prime divides (when it divides t or v) can only lower a
    rank, which is safe (see there).
    """
    u, v, s, at = point
    m = max(np_, nq)
    powers = [u ** j * v ** (m - 1 - j) for j in range(m)]
    return [s * x for x in powers[:np_]] + [at * x for x in powers[:nq]]


# Rows are reduced modulo this prime.  Integer rows never have a larger rank
# modulo the prime than over the rationals, since a minor that is nonzero
# modulo a prime is a nonzero integer, so a full column rank there is one over
# the rationals, and adding rows keeps it.  So a prefix of full rank prunes
# every subset below it, and the error locator's rows of full rank prove a
# degree empty.  Any prime is sound: a rank drop caused by the prime alone only
# leaves a subtree unpruned or a degree unproved, and a large prime makes that
# rare.  This one is the largest prime below 2^15: residues lie below 2^15, so
# lead * x - f * y in _eliminate lies strictly within +-2^30, and every product,
# difference and remainder of a reduction is a one-digit int (CPython's digits
# hold 30 bits) on the interpreter's fast paths.  Under the former prime
# 2^31 - 1 every residue took two digits.  Under CPython 3.11 on a 2-core Intel
# Xeon, this prime alone took the benchmark's 360-bundle classify pool from
# 0.082-0.087 to 0.074-0.077 s in process, and with the line lemma's one pass
# per row (_certified_empty) to 0.065-0.073 s; tools/scale_stability.py at
# g = 12..14 fell from 8.76 to 6.29 s summed over seed 1's draws, and from 3.43
# to 2.75 s over seed 2's, with the same hashes.
RANK_PRIME = 32749


def _eliminate(ech: tuple[tuple[int, list[int]], ...], row: list[int]) -> tuple[int, list[int]] | None:
    """Reduce a row, entries in [0, RANK_PRIME), against an echelon form mod the prime.

    ech holds (pivot column, row) pairs, each row zero at the pivot
    columns of the rows before it.  The elimination is fraction-free:
    row <- head[col]*row - row[col]*head, so no inverse is taken.
    Returns the pair that extends ech, or None when the row lies in its
    span.
    """
    for col, head in ech:
        f = row[col]
        if f:
            lead = head[col]
            row = [(lead * x - f * y) % RANK_PRIME for x, y in zip(row, head)]
    for col, x in enumerate(row):
        if x:
            return col, row
    return None


def _best_sums(iw: list[int]) -> list[list[int]]:
    """best[j][r]: the largest sum of r weights among iw[j:], for 0 <= j, r <= len(iw)."""
    return [[0, *itertools.accumulate(sorted(iw[j:], reverse=True))] for j in range(len(iw) + 1)]


def _size_floor(best: list[list[int]], need: int) -> int:
    """s, the fewest points a subset S with 2*sum(iw[S]) >= need can hold.

    It is the least r with 2*best[0][r] >= need, best being the weights'
    _best_sums: r points weigh at most best[0][r], and the r heaviest
    weigh that.  need must be at most twice the total weight, as it is
    at every degree of _witnesses' scan.
    """
    return next(r for r, top in enumerate(best[0]) if 2 * top >= need)


def _kernel_candidates(rows: list[list[int]], ncols: int, iw: list[int], need: int,
                       best: list[list[int]], floor: int):
    """Yield, in the order of a plain scan, the subsets that may have a kernel.

    A subset is yielded when 2*sum(iw[S]) >= need and its rows stay
    below rank ncols modulo RANK_PRIME.  best is the weights'
    _best_sums and floor the degree's _size_floor, both built by
    _witnesses: sizes run downward from n to floor, since no
    smaller subset meets need.  Each size level is one depth-first walk
    that extends index prefixes in increasing order, so its leaves come
    in itertools.combinations order, and each prefix passes its echelon
    form modulo the prime down to its extensions.  A prefix's subtree is
    skipped when its weight sum plus the largest weights it can still
    add, read from best, misses need, or when its rows reach rank
    ncols modulo the prime, and so every subset below it has a zero
    kernel (RANK_PRIME).  So every qualifying subset with a kernel is
    yielded, in the order of a plain scan; one whose rank drops modulo
    the prime alone is yielded too, and kernel_vector finds no kernel.

    A prefix's echelon form depends on the prefix alone, not on the
    level that reaches it, and the levels below reach most prefixes
    again.  So the call keeps one table from each extended prefix to its
    echelon form, or None at full rank, and every level reads it before
    it reduces: each prefix is reduced at most once per call, that is
    once per degree.  The walk's order and prunes are those of the
    levels reducing on their own, so the same subsets come in the same
    order.  The table is keyed by the prefix's index bitmask, an
    increasing prefix being its set of indices, and the index tuple is
    built only for a subset the walk yields: a tuple of up to 16
    indices took about 100 bytes more than the int.  The table lives as
    long as the generator.  Together these took the traced peak of the
    slowest g = 10 draw of tools/scale_stability.py from 5.4 to 1.5 MB
    (CPython 3.11).
    """
    n = len(rows)
    state = (n, ncols, iw, need, best, [[x % RANK_PRIME for x in r] for r in rows], {})
    for size in range(n, floor - 1, -1):
        yield from _walk(state, 0, size, 0, 0, ())


def _walk(state: tuple, start: int, left: int, acc: int, mask: int, ech: tuple):
    """The subsets of _kernel_candidates that extend the prefix mask by left
    indices from start on; acc is the prefix's weight sum and ech its
    echelon form.

    state is the call's (n, ncols, iw, need, best, mod_rows, reduced),
    reduced being its table of prefixes.
    """
    if not left:
        yield tuple(i for i in range(start) if mask >> i & 1)
        return
    n, ncols, iw, need, best, mod_rows, reduced = state
    for i in range(start, n - left + 1):
        if 2 * (acc + iw[i] + best[i + 1][left - 1]) < need:
            continue
        key = mask | 1 << i
        grown = reduced.get(key, False)
        if grown is False:
            pivot = _eliminate(ech, mod_rows[i])
            grown = ech if pivot is None else (*ech, pivot)
            reduced[key] = grown = grown if len(grown) < ncols else None
        if grown is not None:
            yield from _walk(state, i + 1, left - 1, acc + iw[i], key, grown)


def _certified_empty(table: list[_Point], pos: list[int], iw: list[int], need: int,
                     np_: int, nq: int, errors: int) -> bool:
    """True only when a lemma proves that no subset S with 2*sum(iw[S]) >= need
    has a kernel in its interpolation rows at bounds (np_, nq), so that
    every kernel_vector call of the degree would return None.

    Only the points K of positive weight, listed by pos, matter: S
    qualifies with S & K alone, whose fewer rows keep any kernel of S.
    _witnesses lists K once per call.  Rows are never zero, since flags
    are normalized and nq >= 1.  At ncols <= 3 the line lemma decides
    exactly; above it the error locator may only certify.

    The line lemma: a set of rows has a kernel exactly when it lies on
    one hyperplane through the origin, a line of Q^2 or a plane of Q^3.
    The degree is empty exactly when every such hyperplane's weight
    misses need.  At ncols = 2, np_ = nq = 1 and a point's row is
    (s, -a*t), its entry table[i][2:] of _integer_points.  That pair is
    one-to-one with the normalized flag, and two of them are proportional
    only when equal: s/t is reduced with t > 0, and a is 0 (the row
    (1, 0)) or 1 (a second entry -t < 0).  So a line of Q^2 holds
    exactly the points of one flag, and each line's weight is one sum
    over the points keyed by that pair.  At ncols = 3, unless K's rows
    are all proportional, and then K itself has a kernel, every subset
    of K on a plane lies on the plane of two non-proportional rows of K,
    whose normal is their integer cross product.  A plane is keyed by
    its primitive normal, the normal over the gcd of its entries with
    the first nonzero entry positive: two vectors are proportional
    exactly when they have one primitive form.  The rows of K are
    walked in order, and each row i sums, with a fresh dict, the weight
    of each later row j not proportional to it under the key of the
    plane through i and j, and apart from those, in a base, the weight
    of the later rows proportional to it, which lie on every plane
    through i.  At the first row i of K on a plane, iw[i] plus the base
    plus the plane's sum is the plane's whole weight: no earlier row
    lies on it, and a later row on it is proportional to i or spans it
    with i.  At a later row of the plane the sum is part of that weight.
    So the lemma returns False at the first plane whose weight meets
    need, in O(K^2) with no sets, and True when no plane does.
    tests/test_stability.py keeps, as the oracle at both widths, the
    O(K^3) scan that dots every line's or plane's normal with every row.

    The error locator (Berlekamp-Welch): a qualifying S & K holds at
    least s points, the degree's _size_floor, so S misses at most
    E = |K| - s points of K; errors is that E.  A kernel (p, q) of S
    times the locator, the product of (x - z) over the points of K that
    S misses, vanishes on every row of K within the widened bounds
    (np_ + E, nq + E).  So when K's rows there reach full column rank
    ncols + 2E modulo the prime, and so over the rationals (RANK_PRIME),
    no qualifying S has a kernel.
    """
    if need <= 0:
        return False  # the empty subset qualifies and has a kernel
    ncols = np_ + nq
    if ncols == 2:
        # the weight on each line of Q^2, that is of each flag
        on: dict[tuple[int, ...], int] = {}
        for i in pos:
            on[table[i][2:]] = on.get(table[i][2:], 0) + iw[i]
        return all(2 * total < need for total in on.values())
    if ncols == 3:
        rows = [(iw[i], _interpolation_row(table[i], np_, nq)) for i in pos]
        # the planes through each row of Q^3 and a later one, by primitive
        # normal, each weighed in full at its first row of K
        paired = False  # whether some two rows of K are not proportional
        for k, (w, (a, b, c)) in enumerate(rows):
            base, on = w, {}
            for v, (x, y, z) in rows[k + 1:]:
                n0, n1, n2 = b * z - c * y, c * x - a * z, a * y - b * x
                if lead := n0 or n1 or n2:
                    g = math.gcd(n0, n1, n2) if lead > 0 else -math.gcd(n0, n1, n2)
                    key = (n0 // g, n1 // g, n2 // g)
                    on[key] = on.get(key, 0) + v
                else:
                    base += v  # proportional to row k: on every plane through it
            if on:
                paired = True
                if 2 * (base + max(on.values())) >= need:
                    return False
        # K's rows all proportional: K itself has a kernel
        return paired
    # full column rank of K's rows at the widened bounds
    rank, ech = ncols + 2 * errors, ()
    for k, i in enumerate(pos):
        if len(ech) + len(pos) - k < rank:
            return False  # the rows left cannot reach full rank
        row = _interpolation_row(table[i], np_ + errors, nq + errors)
        pivot = _eliminate(ech, [x % RANK_PRIME for x in row])
        if pivot is not None:
            ech = (*ech, pivot)
            if len(ech) == rank:
                return True
    return False


def _true_agreement(table: list[_Point], p, q) -> frozenset[int]:
    """The points of _integer_points where b*p(z) = a*q(z), decided in integers.

    With L the lcm of the coefficient denominators, m = max(len p,
    len q) and z = u/v, the point's interpolation row dotted with
    (L*p, L*q) is that difference times the nonzero L*t*v^(m-1), so it
    is zero exactly where the point agrees.  The dot is evaluated with
    no row built, by Horner's rule in homogeneous form on
    s*L*p + (-a*t)*L*q at (u, v), p and q padded at the top to m
    coefficients each: the padding aligns the shorter one to v^(m-1).
    """
    _, coeffs = _over_one_denominator([*p, *q])
    top_first = list(itertools.zip_longest(coeffs[:len(p)], coeffs[len(p):], fillvalue=0))[::-1]
    agree = []
    for i, (u, v, s, at) in enumerate(table):
        acc, vpow = 0, 1
        for x, y in top_first:
            acc = acc * u + (s * x + at * y) * vpow
            vpow *= v
        if not acc:
            agree.append(i)
    return frozenset(agree)


def saturate(bundle: ParabolicP1, e: int, p, q) -> SubbundleWitness:
    """Genuine saturated subbundle spanned by a possibly degenerate pair.

    Divides out the polynomial gcd, then absorbs the common vanishing
    order at infinity (slack in both degree bounds); a vanishing p or q
    lands in a split summand, O(d-c) or O(c) respectively.
    """
    return _saturate(bundle.c, bundle.d, _integer_points(bundle), e, p, q)


def _saturate(c: int, d: int, table: list[_Point], e: int, p, q) -> SubbundleWitness:
    """saturate, on the splitting degrees and the integer form of the points."""
    p, q = poly_trim(p), poly_trim(q)
    if not p and not q:
        raise InvalidDatum("zero section spans no subbundle")
    # a split summand's section is the constant 1, so b*p(z) - a*q(z) is b or -a:
    # O(c) agrees where s = 0, the flag (1 : 0), and O(d-c) where -a*t = 0, (0 : 1)
    if not q:
        return SubbundleWitness(c, (Fraction(1),), (),
                                frozenset(i for i, (_, _, s, _) in enumerate(table) if not s))
    if not p:
        return SubbundleWitness(d - c, (), (Fraction(1),),
                                frozenset(i for i, (*_, at) in enumerate(table) if not at))
    g = poly_gcd(p, q)
    p, _ = poly_divmod(p, g)
    q, _ = poly_divmod(q, g)
    e += len(g) - 1
    bump = min((c - e) - (len(p) - 1), (d - c - e) - (len(q) - 1))
    if bump < 0:
        raise InternalError("inclusion exceeded its degree budget")
    e += bump
    return SubbundleWitness(e, tuple(p), tuple(q), _true_agreement(table, p, q))


def validate_witness(bundle: ParabolicP1, witness: SubbundleWitness) -> None:
    p, q = poly_trim(witness.p_coeffs), poly_trim(witness.q_coeffs)
    if not p and not q:
        raise InvalidDatum("witness sections are both zero")
    if p and len(p) - 1 > bundle.c - witness.e:
        raise InvalidDatum("witness sections exceed their degree bounds")
    if q and len(q) - 1 > bundle.d - bundle.c - witness.e:
        raise InvalidDatum("witness sections exceed their degree bounds")
    if p and q:
        if len(poly_gcd(p, q)) > 1:
            raise InvalidDatum("witness sections share a factor (not saturated)")
        slack_p = (bundle.c - witness.e) - (len(p) - 1)
        slack_q = (bundle.d - bundle.c - witness.e) - (len(q) - 1)
        if min(slack_p, slack_q) > 0:
            raise InvalidDatum("witness vanishes at infinity (not saturated)")
    elif not q and witness.e != bundle.c:
        raise InvalidDatum("vanishing second section forces the degree-c summand")
    elif not p and witness.e != bundle.d - bundle.c:
        raise InvalidDatum("vanishing first section forces the complementary summand")
    if witness.agreement != _true_agreement(_integer_points(bundle), p, q):
        raise InvalidDatum("witness agreement set does not match its sections")


def _witnesses(c: int, d: int, table: list[_Point], scale: int, iw: list[int]):
    """Yield the saturated witnesses of the scan, in the order of a plain scan.

    table is the bundle's _integer_points and iw its weights over their
    common denominator scale (_over_one_denominator).  First comes the
    split summand O(c), which always includes.  Then, for each degree e
    from d-c down to the first where a violation is still arithmetically
    possible, each qualifying subset S with a kernel, sizes downward and
    each size in itertools.combinations order, yields the saturated
    first kernel vector of its interpolation rows.  S qualifies when its
    face value at e is non-positive, that is when 2*sum(iw[S]) >= need =
    scale*(d-2e) + sum(iw).  These are the witnesses of the plain scan
    over every such S: a degree that _certified_empty proves empty holds
    no qualifying S with a kernel, _kernel_candidates yields every such
    S in the plain scan's order, and kernel_vector's vector, read off
    the unique reduced row echelon form, is unchanged by the integer
    scaling of the rows (_interpolation_row).  This is the one place
    that fixes the scan's order.

    A degree is skipped unproved when its widened p-bound np_ + E is no
    larger than one the error locator certified earlier in the call: that
    certificate implies its own.  The scan goes down in e, so need grows
    (and stays positive), ncols = np_ + nq grows (and stays above 3, the
    locator's range), and E = |K| - s shrinks, K being the same points at
    every degree.  np_ - nq = 2c - d is fixed, so the widened bounds
    (np_ + E, nq + E) both fall k from the certified (P, Q) together.  A
    row of K at the smaller bounds is its row at (P, Q) on a subset of the
    columns, divided by v^k (_interpolation_row).  Full column rank over
    the rationals at (P, Q) is full rank on any subset of the columns, so
    K's rows reach full rank at this degree's widened bounds too.
    """
    yield _saturate(c, d, table, c, [Fraction(1)], [])
    # face value <= 0  <=>  2 * sum(iw[S]) >= need, all in integers
    total = sum(iw)
    e_lo = -((total - d * scale) // (2 * scale))  # ceil((d*scale - total) / (2*scale))
    # K, the points of positive weight, and the weights' table: each
    # degree reads its size floor s off the table, and E = |K| - s
    pos = [i for i, w in enumerate(iw) if w]
    best = _best_sums(iw)
    certified = 0  # the widest widened p-bound np_ + E the error locator certified
    for e in range(d - c, e_lo - 1, -1):
        need = scale * (d - 2 * e) + total
        np_, nq = c - e + 1, d - c - e + 1
        floor = _size_floor(best, need)
        errors = len(pos) - floor
        if np_ + errors <= certified:
            continue  # implied by that certificate
        if _certified_empty(table, pos, iw, need, np_, nq, errors):
            if np_ + nq > 3:
                certified = np_ + errors
            continue
        rows = [_interpolation_row(point, np_, nq) for point in table]
        for subset in _kernel_candidates(rows, np_ + nq, iw, need, best, floor):
            v = kernel_vector([rows[i] for i in subset], np_ + nq)
            if v is not None:
                yield _saturate(c, d, table, e, v[:np_], v[np_:])


def stability_classify(bundle: ParabolicP1, g: int | None = None) -> StabilityVerdict:
    """Exact trichotomy: Stable / StrictlySemistable / Unstable.

    Every witness of the scan (_witnesses) is a genuine saturated
    subbundle scored at its true degree by the sign of its face
    numerator.  The first witness with a negative one makes the bundle
    Unstable and is its witness; otherwise the first with zero makes it
    StrictlySemistable, an equalizing witness; otherwise it is Stable.

    A bundle with more than MAX_MARKED_POINTS marked points raises
    DomainError before any work, and a g that is given but is not an
    int raises InvalidDatum before that.  The optional g cross-checks
    the all-half-weights family, whose marked-point count must be 2g+2.
    """
    if g is not None:
        check_int(g, "genus")
    npoints = len(bundle.points)
    if npoints > MAX_MARKED_POINTS:
        raise DomainError(f"{npoints} marked points exceed the limit of {MAX_MARKED_POINTS}")
    # the integer form of the bundle, which everything below reads
    table = _integer_points(bundle)
    scale, iw = _over_one_denominator(bundle.weights)
    # every weight 1/2: the all-half-weights family
    if g is not None and all(2 * x == scale for x in iw):
        if npoints != 2 * g + 2:
            raise InvalidDatum(f"genus {g} needs {2 * g + 2} marked points")
    equal = None
    for wit in _witnesses(bundle.c, bundle.d, table, scale, iw):
        diff = _face_numerator(bundle.d, wit.e, scale, iw, range(npoints), wit.agreement)
        if diff < 0:
            return StabilityVerdict(UNSTABLE, wit)
        if diff == 0 and equal is None:
            equal = wit
    return StabilityVerdict(STABLE if equal is None else STRICTLY_SEMISTABLE, equal)


def split_moduli_P1(det_degree: int) -> tuple[int, int] | None:
    """Semistable rank-2 fixed-determinant moduli of the line.

    Empty in odd degree (None); otherwise a single point, the balanced
    split bundle, returned by its summand degrees.
    """
    check_int(det_degree, "determinant degree")
    if det_degree % 2 != 0:
        return None
    half = det_degree // 2
    return (half, half)


def graded_of(bundle: ParabolicP1, verdict: StabilityVerdict) -> GradedPoint:
    """Graded object of a strictly semistable bundle.

    Summands are (degree, weighted agreement support) for the witness
    line and its quotient; anything else raises NotSemistableNotStrict.
    """
    from .graded import GradedPoint, GradedSummand

    if verdict.label != STRICTLY_SEMISTABLE or verdict.witness is None:
        raise NotSemistableNotStrict(f"no graded object for verdict {verdict.label}")
    wit = verdict.witness
    weighted = {i for i, w in enumerate(bundle.weights) if w != 0}
    sub_support = frozenset(wit.agreement & weighted)
    quot_support = frozenset(weighted - wit.agreement)
    if parabolic_slope_difference(bundle, wit) != 0:
        raise InternalError("strictly semistable witness does not equalize slopes")
    summands = (GradedSummand(wit.e, sub_support),
                GradedSummand(bundle.d - wit.e, quot_support))
    return GradedPoint(summands)


# --- serialization ---

def bundle_to_json(bundle: ParabolicP1) -> dict:
    npoints = len(bundle.points)
    g = (npoints - 2) // 2
    if npoints % 2 != 0 or npoints < 2 or bundle.d != -(g + 1):
        raise InvalidDatum("file format carries the normalized family only "
                           "(2g+2 points, degree -(g+1))")
    return {
        "g": g,
        "c": bundle.c,
        "points": [rat_to_json(z) for z in bundle.points],
        "flags": [[rat_to_json(a), rat_to_json(b)] for a, b in bundle.flags],
        "weights": [rat_to_json(w) for w in bundle.weights],
    }


def bundle_from_json(doc: object, where: str = "bundle") -> ParabolicP1:
    """Flag-configuration schema; the total degree is fixed at -(g+1)."""
    fields = parse_object(doc, where, {"g": require_int, "c": require_int,
                                       "points": list_of(rat_from_json),
                                       "flags": list_of(pair_of(rat_from_json)),
                                       "weights": list_of(rat_from_json)})
    g = fields["g"]
    if g < 1:
        raise SchemaError(f"{where}.g must be >= 1")
    npoints = 2 * g + 2
    if not (len(fields["points"]) == len(fields["flags"]) == len(fields["weights"]) == npoints):
        raise SchemaError(f"genus {g} requires exactly {int_text(npoints)} points, flags and "
                          "weights")
    return make_bundle(fields["c"], -(g + 1), fields["points"], fields["flags"], fields["weights"])


def witness_to_json(witness: SubbundleWitness) -> dict:
    return {
        "e": witness.e,
        "p": [rat_to_json(x) for x in witness.p_coeffs],
        "q": [rat_to_json(x) for x in witness.q_coeffs],
        "agreement": sorted(witness.agreement),
    }


def verdict_to_json(verdict: StabilityVerdict) -> dict:
    return {
        "class": verdict.label,
        "witness": witness_to_json(verdict.witness) if verdict.witness else None,
    }
