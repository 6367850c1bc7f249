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

The scan is kept cheap without giving up exactness.  Weights are
scaled once per bundle to integers, so the face test of a subset is an
integer subset sum against a threshold fixed per degree; sizes run in
descending order and a size level whose largest possible sum misses
the threshold ends the degree, since smaller subsets sum to less.
Each degree's interpolation rows are built once, with denominators
cleared.  Each size level is one depth-first walk that extends index
prefixes in increasing order, so its leaves come in the order of a
plain scan over itertools.combinations.  Every step of the walk adds
one row to a fraction-free echelon form modulo a prime, carried down
from the prefix.  A prefix that reaches full rank there has full rank
over the rationals, and so does every subset containing it: its whole
subtree has an empty kernel and is skipped.  A prefix whose weight sum
cannot reach the threshold with the largest weights still available is
skipped too.  Every leaf left gets the exact fraction kernel.

All arithmetic is exact: integers and fractions, no floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ._ser import list_of, pair_of, parse_object, rat_from_json, rat_to_json, require_int
from .covers import CoverProfile
from .errors import (DomainError, InternalError, InvalidDatum, NotSemistableNotStrict,
                     SchemaError, UnknownOrbit)

if TYPE_CHECKING:  # imported where used, so `fixloc stability` loads neither layer
    from .equivariant import AdmissibleParabolicDatum
    from .locus import GradedPoint

STABLE = "Stable"
STRICTLY_SEMISTABLE = "StrictlySemistable"
UNSTABLE = "Unstable"

# The scan is exponential in the number of marked points.  On one core of
# an Intel Xeon under CPython 3.11, the slowest of 30 seeded bundles per
# genus took about 8 s at 28 points (g=13) and about 20 s at 30 (g=14).
MAX_MARKED_POINTS = 28


# --- exact linear algebra ---

def row_echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1, 1) / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def kernel_basis(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel, one vector per free column."""
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    ech, pivots = row_echelon(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for r, pc in zip(ech, pivots):
            v[pc] = -r[free]
        basis.append(v)
    return basis


# --- polynomials as low-to-high Fraction coefficient lists ---

def poly_trim(p: list[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p: list[Fraction]) -> int:
    return len(poly_trim(p)) - 1


def poly_eval(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coeff in reversed(list(p)):
        acc = acc * x + coeff
    return acc


def poly_divmod(a: list[Fraction], b: list[Fraction]):
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise InternalError("division by zero polynomial")
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b) and poly_trim(rem):
        shift = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[shift] = factor
        for i, coeff in enumerate(b):
            rem[shift + i] -= factor * coeff
        rem = poly_trim(rem)
    return poly_trim(quot), poly_trim(rem)


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

@dataclass(frozen=True)
class ParabolicP1:
    """O(c) + O(d-c) with flags and weights at distinct marked points."""

    c: int
    d: int
    points: tuple[Fraction, ...]
    flags: tuple[tuple[Fraction, Fraction], ...]
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class SubbundleWitness:
    """Saturated degree-e line subbundle, by its polynomial inclusion."""

    e: int
    p_coeffs: tuple[Fraction, ...]
    q_coeffs: tuple[Fraction, ...]
    agreement: frozenset[int]


@dataclass(frozen=True)
class StabilityVerdict:
    label: str
    witness: SubbundleWitness | None


def normalize_flag(flag) -> tuple[Fraction, Fraction]:
    a, b = Fraction(flag[0]), Fraction(flag[1])
    if a == 0 and b == 0:
        raise InvalidDatum("flag must be a nonzero direction")
    if a != 0:
        return (Fraction(1), b / a)
    return (Fraction(0), Fraction(1))


def make_bundle(c: int, d: int, points, flags, weights) -> ParabolicP1:
    """Build and validate; flags are normalized projectively."""
    if d - c > c:
        raise InvalidDatum(f"splitting must be normalized: d-c={d-c} exceeds c={c}")
    pts = tuple(Fraction(z) for z in points)
    if len(set(pts)) != len(pts):
        raise InvalidDatum("marked points must be distinct")
    if not (len(pts) == len(flags) == len(weights)):
        raise InvalidDatum("points, flags and weights must have equal length")
    ws = tuple(Fraction(w) for w in weights)
    for w in ws:
        if not 0 <= w < 1:
            raise InvalidDatum(f"weight {w} outside [0,1)")
    return ParabolicP1(c=c, d=d, points=pts,
                       flags=tuple(normalize_flag(f) for f in flags), weights=ws)


# --- slopes ---

def parabolic_slope_difference(bundle: ParabolicP1, witness: SubbundleWitness) -> Fraction:
    """par-slope(bundle) - par-slope(subbundle with induced weights)."""
    return _face_diff(bundle.d, witness.e, enumerate(bundle.weights), witness.agreement)


def _face_diff(d: int, e: int, weights, agreement) -> Fraction:
    """d/2 - e + sum of w/2 over (key, w) in weights, negated where key agrees."""
    agr = set(agreement)
    acc = Fraction(d, 2) - e
    for key, w in weights:
        acc += -Fraction(w, 2) if key in agr else Fraction(w, 2)
    return acc


def slope_transfer_check(profile: CoverProfile, pdat: AdmissibleParabolicDatum,
                         sub_bar_degree: int, agreement) -> tuple[Fraction, Fraction]:
    """Evaluate the slope inequality downstairs and upstairs.

    Returns (downstairs, upstairs-over-n): the parabolic slope
    difference of a subbundle with the given base degree and agreement
    pattern, and 1/n times the ordinary slope difference of its
    pullback tracked through the exponent data.  The two are equal for
    every consistent input; computing both exercises independent
    bookkeeping paths.
    """
    from .equivariant import from_parabolic

    ids = set(profile.orbit_ids())
    agr = set(agreement)
    unknown = agr - ids
    if unknown:
        raise UnknownOrbit(sorted(unknown)[0])
    lhs = _face_diff(pdat.det_bar_degree, sub_bar_degree,
                     ((y.id, pdat.weights.get(y.id, 0)) for y in profile.orbits), agr)

    data = from_parabolic(pdat, profile)
    deg_top = data.det.degree
    deg_sub = profile.n * sub_bar_degree
    for y in profile.orbits:
        d1, d2 = data.numeric[y.id]
        deg_sub += y.k * (d2 if y.id in agr else d1)
    rhs = (Fraction(deg_top, 2) - deg_sub) / profile.n
    return lhs, rhs


# --- witness machinery ---

def _interpolation_row(bundle: ParabolicP1, i: int, np_: int, nq: int) -> list[int]:
    """Condition b*p(z)-a*q(z)=0 at point i, in integers.

    With z = u/v, the normalized flag (a, b), a in {0, 1}, b = s/t and
    m = max(np_, nq), the fraction row (b*z^j for j < np_, then -a*z^j
    for j < nq) times t*v^(m-1) is the integer row s*u^j*v^(m-1-j), then
    -a*t*u^j*v^(m-1-j).  Scaling a row by a nonzero constant changes
    neither the kernel nor the reduced row echelon form, so the integer
    row stands in for the fraction one everywhere.  The scale matters
    only modulo RANK_PRIME: integer rows never have a larger rank mod the
    prime than over the rationals, so a full-rank prefix stays a sound
    prune, and a scale the prime divides (when it divides t or v) can
    only lower a rank mod the prime and so leave a subtree unpruned.
    """
    z = bundle.points[i]
    u, v = z.numerator, z.denominator
    a, b = bundle.flags[i]
    s, t = b.numerator, b.denominator
    m = max(np_, nq)
    powers = [u ** j * v ** (m - 1 - j) for j in range(m)]
    return [s * x for x in powers[:np_]] + [-a.numerator * t * x for x in powers[:nq]]


# Any prime makes the certificate sound; a rank drop caused by the prime alone
# only leaves a subtree unpruned, and a large prime makes that rare.
RANK_PRIME = 2 ** 31 - 1


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
    col = next((j for j, x in enumerate(row) if x), None)
    return None if col is None else (col, row)


def _kernel_candidates(rows: list[list[int]], ncols: int, iw: list[int], need: int):
    """Yield, in the order of a plain scan, the subsets that may have a kernel.

    A subset is yielded when 2*sum(iw[S]) >= need and its rows stay
    below rank ncols modulo RANK_PRIME.  Sizes run downward; each size
    level is one depth-first walk in itertools.combinations order, and
    each prefix passes its echelon form down to its extensions.
    """
    n = len(rows)
    # best[j][r]: the largest sum of r weights among iw[j:]
    best = [[0, *itertools.accumulate(sorted(iw[j:], reverse=True))] for j in range(n + 1)]
    mod_rows = [[x % RANK_PRIME for x in r] for r in rows]

    def walk(start: int, left: int, acc: int, prefix: tuple[int, ...], ech: tuple):
        if not left:
            yield prefix
            return
        for i in range(start, n - left + 1):
            if 2 * (acc + iw[i] + best[i + 1][left - 1]) < need:
                continue
            pivot = _eliminate(ech, mod_rows[i])
            grown = ech if pivot is None else (*ech, pivot)
            if len(grown) < ncols:
                yield from walk(i + 1, left - 1, acc + iw[i], (*prefix, i), grown)

    for size in range(n, -1, -1):
        if 2 * best[0][size] < need:
            break
        yield from walk(0, size, 0, (), ())


def _true_agreement(bundle: ParabolicP1, p, q) -> frozenset[int]:
    out = set()
    for i, z in enumerate(bundle.points):
        a, b = bundle.flags[i]
        if b * poly_eval(p, z) - a * poly_eval(q, z) == 0:
            out.add(i)
    return frozenset(out)


def saturate(bundle: ParabolicP1, e: int, p, q) -> SubbundleWitness:
    """Genuine saturated subbundle spanned by a possibly degenerate pair.

    Divides out the polynomial gcd, then absorbs the common vanishing
    order at infinity (slack in both degree bounds); a vanishing p or q
    lands in a split summand, O(d-c) or O(c) respectively.
    """
    p, q = poly_trim(list(p)), poly_trim(list(q))
    if not p and not q:
        raise InvalidDatum("zero section spans no subbundle")
    if not q:
        one = (Fraction(1),)
        return SubbundleWitness(e=bundle.c, p_coeffs=one, q_coeffs=(),
                                agreement=_true_agreement(bundle, one, ()))
    if not p:
        one = (Fraction(1),)
        return SubbundleWitness(e=bundle.d - bundle.c, p_coeffs=(), q_coeffs=one,
                                agreement=_true_agreement(bundle, (), one))
    g = poly_gcd(p, q)
    p1, _ = poly_divmod(p, g)
    q1, _ = poly_divmod(q, g)
    e1 = e + poly_deg(g)
    slack_p = (bundle.c - e1) - poly_deg(p1)
    slack_q = (bundle.d - bundle.c - e1) - poly_deg(q1)
    bump = min(slack_p, slack_q)
    if bump < 0:
        raise InternalError("inclusion exceeded its degree budget")
    e2 = e1 + bump
    return SubbundleWitness(e=e2, p_coeffs=tuple(p1), q_coeffs=tuple(q1),
                            agreement=_true_agreement(bundle, p1, q1))


def validate_witness(bundle: ParabolicP1, witness: SubbundleWitness) -> None:
    p, q = poly_trim(list(witness.p_coeffs)), poly_trim(list(witness.q_coeffs))
    if not p and not q:
        raise InvalidDatum("witness sections are both zero")
    if p and poly_deg(p) > bundle.c - witness.e:
        raise InvalidDatum("witness sections exceed their degree bounds")
    if q and poly_deg(q) > bundle.d - bundle.c - witness.e:
        raise InvalidDatum("witness sections exceed their degree bounds")
    if p and q:
        if poly_deg(poly_gcd(p, q)) > 0:
            raise InvalidDatum("witness sections share a factor (not saturated)")
        slack_p = (bundle.c - witness.e) - poly_deg(p)
        slack_q = (bundle.d - bundle.c - witness.e) - poly_deg(q)
        if min(slack_p, slack_q) > 0:
            raise InvalidDatum("witness vanishes at infinity (not saturated)")
    elif not q and witness.e != bundle.c:
        raise InvalidDatum("vanishing second section forces the degree-c summand")
    elif not p and witness.e != bundle.d - bundle.c:
        raise InvalidDatum("vanishing first section forces the complementary summand")
    if witness.agreement != _true_agreement(bundle, p, q):
        raise InvalidDatum("witness agreement set does not match its sections")


def stability_classify(bundle: ParabolicP1, g: int | None = None) -> StabilityVerdict:
    """Exact trichotomy: Stable / StrictlySemistable / Unstable.

    Scans subbundle degrees down to the first value where a violation
    is still arithmetically possible, and within each degree all
    agreement sets whose face-value slope difference is non-positive;
    every extracted kernel vector is saturated and scored at its true
    degree.  Unstable verdicts carry a violating witness, strictly
    semistable ones an equalizing witness.

    With scale the lcm of the weight denominators and iw the weights
    times scale, the face value of (e, S) is non-positive exactly when
    2*sum(iw[S]) >= need = scale*(d-2e) + sum(iw).  Subset sizes run
    downward, and once twice the sum of the size largest iw misses need
    no smaller subset can meet it, so the degree ends there.

    Within a size, a depth-first walk extends index prefixes in
    increasing order, which visits the subsets in itertools.combinations
    order.  It prunes only subtrees that hold no subset with a kernel
    vector that a plain scan would take, so the first vector found, and
    the witness with it, is the plain scan's.  A prefix whose weight sum
    plus the largest weights it can still add misses need has no
    qualifying subset below it.  A prefix whose rows have rank ncols
    modulo the prime RANK_PRIME has rank ncols over the rationals, since
    a minor that is nonzero modulo a prime is a nonzero integer; adding
    rows keeps that rank, so every subset below it has a zero kernel.  A
    rank drop caused by the prime alone leaves its subtree unpruned.
    Each subset the walk reaches goes to kernel_basis, whose reduced row
    echelon form is unique and unchanged by the integer scaling of the
    rows, so basis[0] is the plain scan's vector.

    A bundle with more than MAX_MARKED_POINTS marked points raises
    DomainError before any work.  The optional g cross-checks the
    all-half-weights family, whose marked-point count must be 2g+2.
    """
    npoints = len(bundle.points)
    if npoints > MAX_MARKED_POINTS:
        raise DomainError(f"{npoints} marked points exceed the limit of {MAX_MARKED_POINTS}")
    if g is not None and all(w == Fraction(1, 2) for w in bundle.weights):
        if npoints != 2 * g + 2:
            raise InvalidDatum(f"genus {g} needs {2 * g + 2} marked points")
    c, d = bundle.c, bundle.d
    equal_witness: SubbundleWitness | None = None

    def consider(wit: SubbundleWitness):
        nonlocal equal_witness
        diff = parabolic_slope_difference(bundle, wit)
        if diff < 0:
            return StabilityVerdict(UNSTABLE, wit)
        if diff == 0 and equal_witness is None:
            equal_witness = wit
        return None

    # the split summand O(c) always includes; check it first
    verdict = consider(saturate(bundle, c, [Fraction(1)], []))
    if verdict:
        return verdict

    # face value <= 0  <=>  2 * sum(iw[S]) >= need, all in integers
    scale = math.lcm(*(w.denominator for w in bundle.weights))
    iw = [w.numerator * (scale // w.denominator) for w in bundle.weights]
    total = sum(iw)
    e_lo = math.ceil(Fraction(d * scale - total, 2 * scale))
    for e in range(d - c, e_lo - 1, -1):
        need = scale * (d - 2 * e) + total
        np_, nq = c - e + 1, d - c - e + 1
        rows = [_interpolation_row(bundle, i, np_, nq) for i in range(npoints)]
        for subset in _kernel_candidates(rows, np_ + nq, iw, need):
            basis = kernel_basis([rows[i] for i in subset], np_ + nq)
            if not basis:
                continue
            v = basis[0]
            verdict = consider(saturate(bundle, e, v[:np_], v[np_:]))
            if verdict:
                return verdict
    if equal_witness is not None:
        return StabilityVerdict(STRICTLY_SEMISTABLE, equal_witness)
    return StabilityVerdict(STABLE, None)


def split_moduli_P1(det_degree: int) -> tuple[int, int] | None:
    """Semistable rank-2 fixed-determinant moduli of the line.

    Empty in odd degree (None); otherwise a single point, the balanced
    split bundle, returned by its summand degrees.
    """
    if det_degree % 2 != 0:
        return None
    half = det_degree // 2
    return (half, half)


def graded_of(bundle: ParabolicP1, verdict: StabilityVerdict) -> GradedPoint:
    """Graded object of a strictly semistable bundle.

    Summands are (degree, weighted agreement support) for the witness
    line and its quotient; anything else raises NotSemistableNotStrict.
    """
    from .locus import GradedPoint, GradedSummand

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
        raise SchemaError(f"genus {g} requires exactly {npoints} points, flags and weights")
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
