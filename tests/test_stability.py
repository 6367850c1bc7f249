"""Parabolic stability on the line: classifier, witnesses, transfer."""

import collections
import gc
import hashlib
import itertools
import json
import math
import operator
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    AdmissibleParabolicDatum,
    DomainError,
    GradedSummand,
    InternalError,
    InvalidDatum,
    NotSemistableNotStrict,
    STABLE,
    STRICTLY_SEMISTABLE,
    SchemaError,
    SubbundleWitness,
    UNSTABLE,
    UnknownOrbit,
    bundle_from_json,
    bundle_to_json,
    flagged_class,
    graded_of,
    hyperelliptic_report,
    make_bundle,
    make_profile,
    parabolic_slope_difference,
    slope_transfer_check,
    split_moduli_P1,
    stability_classify,
    to_parabolic,
    validate_witness,
    verdict_to_json,
)
from fixloc import stability
from fixloc._ser import rat_from_json
from fixloc.stability import (
    MAX_MARKED_POINTS,
    RANK_PRIME,
    ParabolicP1,
    _eliminate,
    _integer_points,
    _interpolation_row,
    _kernel_candidates,
    _over_one_denominator,
    _true_agreement,
    kernel_vector,
    poly_divmod,
    poly_gcd,
    saturate,
)

import gen
import oracle_stability as oracle

F = Fraction


def test_poly_gcd_is_monic_common_factor():
    # (z^2 - 1, z - 1) -> z - 1
    assert poly_gcd([F(-1), F(0), F(1)], [F(-1), F(1)]) == [F(-1), F(1)]
    # scaling does not change the monic gcd
    assert poly_gcd([F(-3), F(0), F(3)], [F(2), F(-2)]) == [F(-1), F(1)]
    assert poly_gcd([], [F(4), F(2)]) == [F(2), F(1)]


def test_poly_divmod_identity():
    a = [F(3), F(-2), F(0), F(1)]
    b = [F(-1), F(1)]
    q, r = poly_divmod(a, b)
    recomposed = [F(0)] * (len(q) + len(b) - 1)
    for i, qc in enumerate(q):
        for j, bc in enumerate(b):
            recomposed[i + j] += qc * bc
    for i, rc in enumerate(r):
        recomposed[i] += rc
    assert recomposed == a


def test_poly_divmod_by_zero_is_an_internal_error():
    with pytest.raises(InternalError):
        poly_divmod([F(1)], [F(0)])


def test_kernel_vector_known_system():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    assert 3 - rank_mod_p(rows) == 1  # a one-dimensional kernel
    v = kernel_vector(rows, 3)
    assert v is not None and any(v)
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def rank_mod_p(rows: list[list[int]]) -> int:
    """Rank over the field with RANK_PRIME elements, eliminated from scratch.

    The classifier's former per-subset certificate, kept as the oracle
    for its incremental echelon form.
    """
    mat = [[x % RANK_PRIME for x in r] for r in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        head = mat[rank]
        lead = head[col]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [(lead * x - f * y) % RANK_PRIME for x, y in zip(mat[i], head)]
        rank += 1
    return rank


def test_kernel_vector_is_the_first_reduced_echelon_basis_vector():
    # the first RREF basis vector is the one kernel vector whose last nonzero
    # entry, a 1, sits at the first column dependent on the columns before it;
    # ranks mod the prime equal ranks over Q here, since entries are at most 3
    rng = random.Random(63)
    for _ in range(400):
        nrows, ncols = rng.randint(0, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3 and nrows > 1:
            rows[-1] = [a + b for a, b in zip(rows[0], rows[1])]
        v = kernel_vector(rows, ncols)
        if rank_mod_p(rows) == ncols:
            assert v is None
            continue
        assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
        last = max(j for j, x in enumerate(v) if x)
        assert v[last] == 1
        assert rank_mod_p([row[:last] for row in rows] or [[0] * last]) == last


def random_int_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    """Small entries, multiples of the prime and repeated rows, so ranks drop."""
    entries = [0, 0, 1, -1, 2, RANK_PRIME, -RANK_PRIME, 3 * RANK_PRIME + 1]
    rows: list[list[int]] = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            k = rng.choice([1, 2, RANK_PRIME])
            rows.append([k * x for x in rng.choice(rows)])
        else:
            rows.append([rng.choice(entries + [rng.randint(-10 ** 12, 10 ** 12)])
                         for _ in range(ncols)])
    return rows


def test_prefix_echelon_rank_matches_rank_mod_p():
    rng = random.Random(61)
    for _ in range(400):
        rows = random_int_rows(rng, rng.randint(1, 9), rng.randint(1, 6))
        ech = ()
        for k, row in enumerate(rows, 1):
            pivot = _eliminate(ech, [x % RANK_PRIME for x in row])
            if pivot is not None:
                ech = (*ech, pivot)
            assert len(ech) == rank_mod_p(rows[:k])


def weight_bounds(iw, need):
    """(K, best, s) as _witnesses builds them: K the points of
    positive weight, best the weights' table and s the degree's size floor.
    Past twice the total weight, a need no degree of the scan reaches, no
    subset qualifies, and s is len(iw) + 1."""
    best = stability._best_sums(iw)
    floor = stability._size_floor(best, need) if need <= 2 * best[0][-1] else len(iw) + 1
    return [i for i, w in enumerate(iw) if w], best, floor


def candidates(rows, ncols, iw, need):
    """_kernel_candidates with the table and the size floor _witnesses passes."""
    _, best, floor = weight_bounds(iw, need)
    return _kernel_candidates(rows, ncols, iw, need, best, floor)


def certified_empty(table, iw, need, np_, nq):
    """_certified_empty with K and E = |K| - s as _witnesses passes them."""
    pos, _, floor = weight_bounds(iw, need)
    return stability._certified_empty(table, pos, iw, need, np_, nq, len(pos) - floor)


def test_kernel_candidates_match_the_plain_scan():
    rng = random.Random(62)
    for _ in range(300):
        n, ncols = rng.randint(0, 7), rng.randint(2, 5)
        rows = random_int_rows(rng, n, ncols) if n else []
        iw = [rng.randint(0, 4) for _ in range(n)]
        need = rng.randint(-1, 2 * sum(iw) + 1)
        assert list(candidates(rows, ncols, iw, need)) == plain_scan(rows, ncols, iw, need)
    # rows shaped like interpolation rows: split rows, zero on the p block
    # or on the q block, and repeats up to a scale; with need low, many
    # size levels run and each reaches prefixes the level above reduced
    for _ in range(150):
        n, np_, nq = rng.randint(5, 9), rng.randint(1, 4), rng.randint(1, 3)
        rows = []
        for _ in range(n):
            roll = rng.random()
            if roll < 0.5 and rows:
                rows.append([rng.choice([1, -2, RANK_PRIME]) * x for x in rng.choice(rows)])
                continue
            row = [rng.randint(-9, 9) for _ in range(np_ + nq)]
            if roll < 0.7:
                row[:np_] = [0] * np_
            elif roll < 0.85:
                row[np_:] = [0] * nq
            rows.append(row)
        iw = [rng.randint(0, 3) for _ in range(n)]
        need = rng.randint(-1, sum(iw) // 2)
        assert list(candidates(rows, np_ + nq, iw, need)) == \
            plain_scan(rows, np_ + nq, iw, need)


def plain_scan(rows, ncols, iw, need):
    """Every qualifying subset in combinations order, sizes descending,
    less those certified full rank by the from-scratch rank mod p."""
    n = len(rows)
    return [s for size in range(n, -1, -1) for s in itertools.combinations(range(n), size)
            if 2 * sum(iw[i] for i in s) >= need and rank_mod_p([rows[i] for i in s]) < ncols]


def test_each_prefix_extension_is_reduced_once(count_calls):
    # generic rows: every prefix of up to five rows has full row rank, and
    # with need 2 every size level 9..1 runs unpruned by weight, so the
    # walk reaches every prefix of length <= 5 and reduces each once
    rng = random.Random(63)
    rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(5)] for _ in range(9)]
    calls = count_calls(stability, "_eliminate")
    got = list(candidates(rows, 5, [1] * 9, 2))
    assert got == [s for size in (4, 3, 2, 1) for s in itertools.combinations(range(9), size)]
    assert len(calls) == sum(math.comb(9, k) for k in range(1, 6))
    # the calls keep their arguments alive, so equal ids are one form and
    # one row; each prefix's form is a distinct object here
    assert len({(id(ech), id(row)) for ech, row in calls}) == len(calls)


def test_the_prefix_table_leaves_no_reference_cycle():
    # run to the end or closed early, the walk frees its table by reference
    # counting alone, without waiting for the cyclic collector
    rng = random.Random(63)
    rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(5)] for _ in range(9)]
    gc.collect()
    gc.disable()
    try:
        assert len(list(candidates(rows, 5, [1] * 9, 2))) == 255
        walk = candidates(rows, 5, [1] * 9, 2)
        assert next(walk) == (0, 1, 2, 3)
        walk.close()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_mod_p_drop_falls_back_to_the_exact_kernel():
    # determinant RANK_PRIME: full rank over Q, rank one modulo the prime,
    # so the subset is not certified and goes to kernel_vector, which
    # finds no kernel
    rows = [[RANK_PRIME, 0], [0, 1]]
    assert rank_mod_p(rows) == 1
    assert kernel_vector(rows, 2) is None
    assert list(candidates(rows, 2, [1, 1], 4)) == [(0, 1)]
    # the prefix (0, 1) has full rank over Q only, so nothing below it is pruned
    rows = [[RANK_PRIME, 0], [0, 1], [0, 2], [0, 3]]
    assert list(candidates(rows, 2, [1] * 4, 6)) == \
        [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert kernel_vector(rows[:3], 2) is None
    # the certificate itself: full rank modulo the prime, no candidate
    assert list(candidates([[2, 1], [1, 1]], 2, [1, 1], 4)) == []
    # a full-rank prefix ends its subtree: (0, 1) certifies (0, 1, 2)
    assert list(candidates([[1, 0], [0, 1], [1, 1]], 2, [1] * 3, 6)) == []
    # a genuine kernel is yielded
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert list(candidates(rows, 3, [1, 1, 1], 6)) == [(0, 1, 2)]
    assert 3 - rank_mod_p(rows) == 1  # a one-dimensional kernel
    v = kernel_vector(rows, 3)
    assert v is not None and all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


def loop_degrees(bundle):
    """(iw, need, np_, nq) for every degree of _witnesses' loop."""
    c, d = bundle.c, bundle.d
    scale, iw = _over_one_denominator(bundle.weights)
    e_lo = math.ceil(F(d * scale - sum(iw), 2 * scale))
    for e in range(d - c, e_lo - 1, -1):
        yield iw, scale * (d - 2 * e) + sum(iw), c - e + 1, d - c - e + 1


def has_qualifying_kernel(bundle, iw, need, np_, nq) -> bool:
    """Brute force: kernel_vector over every subset S with 2*sum(iw[S]) >= need."""
    n = len(bundle.points)
    rows = [_interpolation_row(point, np_, nq) for point in _integer_points(bundle)]
    return any(kernel_vector([rows[i] for i in s], np_ + nq) is not None
               for size in range(n + 1) for s in itertools.combinations(range(n), size)
               if 2 * sum(iw[i] for i in s) >= need)


def certificate_corpus():
    """Bundles with g <= 4 and both weight kinds, at the balanced c, whose
    top degree has ncols 2 or 3, and at one c above it; plus bundles whose
    positive weights sit on (1:0) flags alone, whose rows are proportional,
    or on one point alone."""
    rng = random.Random(64)
    for g in (1, 2, 3, 4):
        d = -(g + 1)
        for c in (-(-d // 2), -(-d // 2) + 1):
            for i in range(16 if g < 4 else 6):
                yield gen.random_bundle(rng, g, c, generic_weights=i % 2 == 1)
    for g in (1, 2, 3, 4):
        n, d = 2 * g + 2, -(g + 1)
        flags = [(1, 0)] * 2 + [(1, F(k, 3)) for k in range(1, n - 1)]
        for weights in ([F(1, 2)] * 2 + [0] * (n - 2), [F(1, 2)] + [0] * (n - 1)):
            yield make_bundle(-(-d // 2), d, range(n), flags, weights)


def test_certified_degrees_hold_no_qualifying_kernel():
    certified, tried = collections.Counter(), collections.Counter()
    for bundle in certificate_corpus():
        for iw, need, np_, nq in loop_degrees(bundle):
            lemma = "line" if np_ + nq <= 3 else "locator"
            empty = certified_empty(_integer_points(bundle), iw, need, np_, nq)
            tried[lemma] += 1
            certified[lemma] += empty
            if empty or lemma == "line":
                # a certified degree has no qualifying kernel, and at
                # ncols <= 3 an uncertified one has one
                assert empty is not has_qualifying_kernel(bundle, iw, need, np_, nq), \
                    (bundle, need, np_, nq)
    # both lemmas fire; the line lemma decides every degree it sees, and a
    # weaker locator, say with a larger error count or a rank over fewer
    # rows, stays sound but certifies fewer degrees
    assert tried == {"line": 60, "locator": 110}
    assert certified["line"] == 27 and certified["locator"] >= 69


def plain_witnesses(bundle):
    """The witnesses of the plain scan, with no certificate, skip or prune:
    O(c), then at each degree from d - c down every qualifying subset,
    sizes downward and each size in combinations order, whose rows have
    an exact kernel_vector, saturated."""
    n, c = len(bundle.points), bundle.c
    yield saturate(bundle, c, [F(1)], [])
    for iw, need, np_, nq in loop_degrees(bundle):
        rows = [_interpolation_row(point, np_, nq) for point in _integer_points(bundle)]
        for size in range(n, -1, -1):
            for s in itertools.combinations(range(n), size):
                if 2 * sum(iw[i] for i in s) >= need:
                    v = kernel_vector([rows[i] for i in s], np_ + nq)
                    if v is not None:
                        yield saturate(bundle, c - np_ + 1, v[:np_], v[np_:])


def test_the_witness_stream_is_the_plain_scan():
    # the scan's witnesses as lists, in order: a cut of the walk, a wrong
    # certificate or skip, or a lost O(c) changes the list even where
    # another subset repeats the witness it drops, which no verdict shows
    seen = collections.Counter()
    for bundle in certificate_corpus():
        scale, iw = _over_one_denominator(bundle.weights)
        got = list(stability._witnesses(bundle.c, bundle.d, _integer_points(bundle), scale, iw))
        assert got == list(plain_witnesses(bundle)), bundle
        seen["bundles"] += 1
        seen["witnesses"] += len(got)
        seen["repeated"] += len(set(got)) < len(got)
    # 46 bundles' streams repeat a witness
    assert seen == {"bundles": 116, "witnesses": 429, "repeated": 46}, seen


def normal_scan(table, iw, need, np_, nq) -> bool:
    """The line lemma by dotting every normal with every row of K, in O(K^3).

    The classifier's former line-lemma branch, kept as the oracle for its
    grouping of K's rows by primitive normal.
    """
    if need <= 0:
        return False
    rows = [(w, _interpolation_row(point, np_, nq)) for point, w in zip(table, iw) if w]
    if np_ + nq == 2:
        normals = [(y, -x) for _, (x, y) in rows]
    else:
        normals = [n for (_, (a, b, c)), (_, (x, y, z)) in itertools.combinations(rows, 2)
                   if any(n := (b * z - c * y, c * x - a * z, a * y - b * x))]
        if not normals:
            return False  # K's rows all proportional: K itself has a kernel
    return all(2 * sum(w for w, r in rows if not sum(map(operator.mul, n, r))) < need
               for n in normals)


def test_the_line_lemma_matches_the_normal_scan():
    # each degree with ncols <= 3 at every need from 1 to past twice the
    # total weight, so every hyperplane's weight meets every threshold; on
    # the certificate corpus and on seeded small bundles, a third of them
    # with fractional points
    rng = random.Random(65)
    small = []
    for k in range(90):
        g = rng.randint(1, 3)
        bundle = gen.random_bundle(rng, g, rng.randint(-((g + 1) // 2), 0),
                                   generic_weights=k % 2 == 1)
        small.append(fractional_points(rng, bundle) if k % 3 == 0 else bundle)
    verdicts = collections.Counter()
    for bundle in itertools.chain(certificate_corpus(), small):
        table = _integer_points(bundle)
        for iw, _, np_, nq in loop_degrees(bundle):
            if np_ + nq > 3:
                continue
            for need in range(1, 2 * sum(iw) + 2):
                empty = certified_empty(table, iw, need, np_, nq)
                assert empty is normal_scan(table, iw, need, np_, nq), (bundle, need, np_, nq)
                verdicts[np_ + nq, empty] += 1
    assert min(verdicts.values()) >= 100 and len(verdicts) == 4, verdicts
    # structured rows of Q^3 at every need: several planes through one row,
    # rows proportional to an earlier row, and a first row of K on no plane
    # of the others, so that the heaviest plane's first row is not K's first
    structured = collections.Counter()
    for _ in range(60):
        rows, iw = structured_plane_rows(rng)
        table = table_of_rows(rows)
        for need in range(1, 2 * sum(iw) + 2):
            empty = certified_empty(table, iw, need, 2, 1)
            assert empty is normal_scan(table, iw, need, 2, 1), (rows, iw, need)
            structured[empty] += 1
    assert min(structured.values()) >= 500, structured


def structured_plane_rows(rng: random.Random) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Rows of Q^3, first entries nonzero, and their positive weights.

    The first row is a random one.  Then come rows on two to four planes
    through one hub row, the hub among them, and multiples of earlier
    rows, each after the row it is a multiple of.
    """
    def entry():
        return rng.choice([-3, -2, -1, 1, 2, 3, 5])

    hub = (entry(), entry(), entry())
    body = [hub]
    for _ in range(rng.randint(2, 4)):
        d = (entry(), entry(), entry())
        for _ in range(rng.randint(1, 3)):
            a, b = entry(), entry()
            row = tuple(a * h + b * x for h, x in zip(hub, d))
            if row[0]:
                body.append(row)
    rng.shuffle(body)
    rows = [(entry(), entry(), entry()), *body]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(rows))
        k = rng.choice([-2, -1, 2, 3])
        rows.insert(rng.randint(i + 1, len(rows)), tuple(k * x for x in rows[i]))
    return rows, [rng.randint(1, 4) for _ in rows]


def table_of_rows(rows):
    """Points whose interpolation rows at (np_, nq) = (2, 1) are nonzero multiples of rows.

    A row (r0, r1, r2) with r0 != 0 comes from (u, v, s, -a*t) =
    (r1, r0, r0, r2), whose row (s*v, s*u, -a*t*v) is r0 times it.
    """
    return [(r1, r0, r0, r2) for r0, r1, r2 in rows]


def test_the_rank_prime_keeps_each_elimination_step_in_one_digit():
    # residues lie below RANK_PRIME, so lead * x - f * y in _eliminate lies
    # strictly within +-RANK_PRIME^2 <= 2^30, one digit of CPython's 30-bit
    # ints; and no larger prime has that bound
    def is_prime(n):
        return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))

    assert is_prime(RANK_PRIME) and RANK_PRIME ** 2 <= 2 ** 30
    assert not any(is_prime(n) for n in range(RANK_PRIME + 1, 2 ** 15 + 1))


def locator_errors(iw, need) -> int:
    """The error locator's E: as many of K's lightest weights as can go with
    the rest still meeting need.

    The classifier's former count, kept as the oracle for E = |K| - s,
    s read off the weights' table.
    """
    slack, errors = 2 * sum(iw) - need, 0
    for w in sorted(w for w in iw if w):
        slack -= 2 * w
        if slack < 0:
            break
        errors += 1
    return errors


def fewest_qualifying(iw, need) -> int:
    """The fewest points of a subset S with 2*sum(iw[S]) >= need, by trying every subset."""
    return next(size for size in range(len(iw) + 1)
                for s in itertools.combinations(iw, size) if 2 * sum(s) >= need)


def test_the_error_count_and_the_size_floor_are_read_off_the_weights_table():
    # s, the walk's size floor, and the locator's E = |K| - s, from the
    # table _witnesses builds once per call, against a scan of every
    # subset and the former loop: on seeded weight vectors with zeros and
    # ties at every need from -1 to twice the total weight, and at every
    # degree of the 360 bundles of the benchmark's classify pool
    seen = collections.Counter()

    def check(iw, need):
        best = stability._best_sums(iw)
        floor = stability._size_floor(best, need)
        assert floor == fewest_qualifying(iw, need), (iw, need)
        assert sum(1 for w in iw if w) - floor == locator_errors(iw, need), (iw, need)
        seen["E > 0"] += floor < sum(1 for w in iw if w)

    rng = random.Random(66)
    for _ in range(200):
        iw = [rng.choice([0, 0, 1, 2, 2, 3, 5]) for _ in range(rng.randint(0, 7))]
        twice = {2 * sum(s) for size in range(len(iw) + 1)
                 for s in itertools.combinations(iw, size)}
        for need in range(-1, 2 * sum(iw) + 1):
            check(iw, need)
            seen["zero weight"] += 0 in iw
            seen["tied weights"] += len({w for w in iw if w}) < sum(1 for w in iw if w)
            seen["need twice a subset's weight"] += need in twice
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "reference"
                       / "classify_pool.json").read_text())["bundles"]
    for entry in pool:
        for iw, need, _, _ in loop_degrees(bundle_from_json(entry["doc"])):
            check(iw, need)
            seen["pool degree"] += 1
    assert len(pool) == 360
    assert seen["pool degree"] == 703 and min(seen.values()) >= 500, seen


def test_a_degree_skipped_after_a_locator_certificate_is_certified_on_its_own(count_calls):
    # _witnesses skips a degree whose widened p-bound np_ + E is no
    # larger than one the error locator certified earlier in the call; each
    # such degree must be one _certified_empty certifies when asked, on the
    # 360 bundles of the benchmark's classify pool and on 60 seeded ones at g = 3..6
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "reference"
                       / "classify_pool.json").read_text())["bundles"]
    rng = random.Random(67)
    seeded = [gen.random_bundle(rng, g, -((g + 1) // 2), generic_weights=rng.random() < 0.5,
                                span=8)
              for g in (3, 4, 5, 6) for _ in range(15)]
    floors = count_calls(stability, "_size_floor")
    proved = count_calls(stability, "_certified_empty")
    seen = collections.Counter()
    for source, bundle in [*(("pool", bundle_from_json(entry["doc"])) for entry in pool),
                           *(("seeded", bundle) for bundle in seeded)]:
        floors.clear()
        proved.clear()
        stability_classify(bundle)
        reached = {need for _, need in floors}
        asked = {args[3] for args in proved}
        for iw, need, np_, nq in loop_degrees(bundle):
            if need in reached and need not in asked:
                assert np_ + nq > 3, (bundle, need)
                assert certified_empty(_integer_points(bundle), iw, need, np_, nq), (bundle, need)
                seen[source] += 1
    assert len(pool) == 360 and seen == {"pool": 98, "seeded": 34}, seen


def test_the_classify_pool_keeps_its_verdicts_and_witnesses():
    # the sha256 of every verdict and witness of the benchmark's 360-bundle
    # pool, as JSON; the scan's speed-ups and shortcuts must keep them all
    pool = json.loads((Path(__file__).parents[1] / "perfbench" / "reference"
                       / "classify_pool.json").read_text())["bundles"]
    verdicts = [verdict_to_json(stability_classify(bundle_from_json(entry["doc"]), entry["g"]))
                for entry in pool]
    digest = hashlib.sha256(json.dumps(verdicts, sort_keys=True).encode()).hexdigest()
    assert digest == "54cb846ef6fcff46087a487e9a2eb042e957548f6b08b0ab29e2ad0cc0ef4574"


FIXTURES = Path(__file__).parent / "fixtures"


def replay_verdicts(path: Path) -> int:
    """Classify every recorded bundle; the verdict JSON must be byte-identical."""
    cases = json.loads(path.read_text())
    for case in cases:
        verdict = stability_classify(gen.bundle_from_doc(case["bundle"]))
        got = json.dumps(verdict_to_json(verdict), sort_keys=True)
        assert got == json.dumps(case["verdict"], sort_keys=True), case["name"]
    return len(cases)


def test_verdicts_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_stability_verdicts.py with the
    # plain fraction scan; every verdict and witness must stay byte-identical
    assert replay_verdicts(FIXTURES / "stability_verdicts.json") > 150


def test_a_small_rank_prime_gives_the_recorded_verdicts(monkeypatch):
    # any prime is sound (the RANK_PRIME comment): at p = 3 many subsets lose
    # rank modulo the prime alone, are left unpruned, and kernel_vector finds
    # no kernel for them over the rationals, so the scan goes on past them
    vectors, kernel_vector = [], stability.kernel_vector

    def recording(rows, ncols):
        vectors.append(kernel_vector(rows, ncols))
        return vectors[-1]

    monkeypatch.setattr(stability, "RANK_PRIME", 3)
    monkeypatch.setattr(stability, "kernel_vector", recording)
    assert replay_verdicts(FIXTURES / "stability_verdicts.json") > 150
    assert sum(v is None for v in vectors) > 0


def test_verdicts_match_the_recorded_g5_8_fixture():
    # recorded by the same script with the per-subset rank scan; g = 5..8,
    # where full scans are long and pruning matters most
    assert replay_verdicts(FIXTURES / "stability_verdicts_g5_8.json") >= 40


def test_verdicts_match_the_recorded_scaling_fixture():
    # first recorded with the walk that reduced every prefix again at each
    # size level; tests/fixtures/record_stability_verdicts.py now records
    # it, the g = 9..12 rows of tools/scale_stability.py at seed 1.  All of
    # it replays in about 4 s now that most degrees are certified empty
    assert replay_verdicts(FIXTURES / "stability_scaling_verdicts.json") == 32


def test_the_prefix_table_of_a_degree_is_small_and_freed_with_it():
    # g10-0, the slowest g = 10 draw of the fixture: its tables peaked at
    # 5.4 MB traced under CPython 3.11 (3.2 MB under 3.13) when they were
    # keyed by index tuples and each outlived its degree in a reference
    # cycle until the collector ran; keyed by bitmasks and freed at once,
    # 1.5 MB under both
    cases = json.loads((FIXTURES / "stability_scaling_verdicts.json").read_text())
    (case,) = [case for case in cases if case["name"] == "g10-0"]
    bundle = gen.bundle_from_doc(case["bundle"])
    tracemalloc.start()
    try:
        verdict = stability_classify(bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert json.dumps(verdict_to_json(verdict), sort_keys=True) == \
        json.dumps(case["verdict"], sort_keys=True)
    assert peak < 2.5e6, peak


def test_the_scaling_script_runs_at_genus_two(child):
    proc = child("tools/scale_stability.py", "--g", "2", timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split() == ["g", "draws", "median_s", "max_s", "S/SS/U", "peak_rss_mb", "sha256"]
    fields = row.split()
    assert fields[:2] == ["2", "8"] and fields[4] == "1/4/3"
    assert fields[6] == "dafddd0e756c07af8f4e9f8de0639db2dab600aadce51816e98aa7e9760abcc0"
    # one stderr line per draw, in draw order: name, CPU seconds, class, peak RSS in MB
    draws = [line.split() for line in proc.stderr.splitlines()]
    assert [draw[0] for draw in draws] == [f"g2-{i}" for i in range(8)]
    assert all(len(draw) == 4 and float(draw[1]) >= 0 and float(draw[3]) > 0 for draw in draws)
    classes = [draw[2] for draw in draws]
    assert [classes.count(label) for label in (STABLE, STRICTLY_SEMISTABLE, UNSTABLE)] == [1, 4, 3]


def test_marked_point_limit():
    def bundle(npoints):
        # c = 0 with d = -npoints: the summand O(c) destabilizes at once
        return make_bundle(0, -npoints, range(npoints), [(1, 1)] * npoints,
                           [F(1, 2)] * npoints)

    assert stability_classify(bundle(MAX_MARKED_POINTS)).label == UNSTABLE
    with pytest.raises(DomainError, match="marked points"):
        stability_classify(bundle(MAX_MARKED_POINTS + 1))


def test_make_bundle_rejections():
    with pytest.raises(InvalidDatum):
        make_bundle(-2, -3, [0, 1, 2, 3], [(1, 0)] * 4, [F(1, 2)] * 4)  # d-c > c
    with pytest.raises(InvalidDatum):
        make_bundle(-1, -3, [0, 0, 2, 3], [(1, 0)] * 4, [F(1, 2)] * 4)
    with pytest.raises(InvalidDatum):
        make_bundle(-1, -3, [0, 1, 2, 3], [(0, 0)] + [(1, 0)] * 3, [F(1, 2)] * 4)
    with pytest.raises(InvalidDatum):
        make_bundle(-1, -3, [0, 1, 2, 3], [(1, 0)] * 4, [F(3, 2)] + [F(1, 2)] * 3)
    with pytest.raises(InvalidDatum):
        make_bundle(-1, -3, [0, 1, 2], [(1, 0)] * 4, [F(1, 2)] * 3)
    # a flag that is not a pair, and points, flags or weights that are not
    # iterable, are the datum's fault too
    for flag, message in ((5, "^flag must be iterable, got int$"),
                          ((1, 0, 5), "^flag must have two entries, got 3$"),
                          ((1,), "^flag must have two entries, got 1$")):
        with pytest.raises(InvalidDatum, match=message):
            make_bundle(-1, -3, [0, 1, 2, 3], [flag] + [(1, 0)] * 3, [F(1, 2)] * 4)
    with pytest.raises(InvalidDatum, match="^marked points must be iterable, got int$"):
        make_bundle(-1, -3, 4, [(1, 0)] * 4, [F(1, 2)] * 4)
    with pytest.raises(InvalidDatum, match="^weights must be iterable, got Fraction$"):
        make_bundle(-1, -3, [0, 1, 2, 3], [(1, 0)] * 4, F(1, 2))
    # generators are read once and kept
    from_lists = make_bundle(-1, -3, [0, 1, 2, 3], [(1, 0), (0, 1), (1, 1), (1, 2)],
                             [F(1, 2), F(1, 4), 0, F(3, 4)])
    assert make_bundle(-1, -3, (z for z in range(4)), iter(from_lists.flags),
                       (w for w in from_lists.weights)) == from_lists


def test_a_hand_built_bundle_is_normalized_like_make_bundle():
    # the classifier reads a normalized flag (a, b), a in {0, 1}; a bundle
    # built without make_bundle must get the same flags and the same verdict
    args = (-1, -2, (F(-3), F(-5), F(3), F(-2)),
            ((F(1, 2), F(1, 6)), (F(1, 2), F(1, 6)), (F(1, 2), F(0)), (F(1, 2), F(1, 6))),
            (F(1, 2),) * 4)
    assert ParabolicP1(*args) == make_bundle(*args)
    assert stability_classify(ParabolicP1(*args), 1) == stability_classify(make_bundle(*args), 1)
    assert stability_classify(ParabolicP1(*args), 1).label == UNSTABLE
    # halved flags name the same directions
    rng = random.Random(7)
    for _ in range(60):
        g = rng.randint(1, 3)
        bundle = gen.random_bundle(rng, g, rng.randint(-((g + 1) // 2), -1))
        halved = ParabolicP1(bundle.c, bundle.d, bundle.points,
                             tuple((a / 2, b / 2) for a, b in bundle.flags), bundle.weights)
        assert halved == bundle


BUNDLE = make_bundle(-1, -3, [0, 1, 2, 3], [(0, 1), (1, 1), (1, 0), (1, 2)],
                     [F(1, 2), F(1, 4), F(0), F(3, 4)])


def test_saturate_divides_shared_factor():
    # p = (z-1)(z-2), q = (z-1): the gcd z-1 gains one degree, and the
    # quotient pair still vanishes at infinity, gaining one more
    p = [F(2), F(-3), F(1)]
    q = [F(-1), F(1)]
    wit = saturate(BUNDLE, -4, p, q)
    assert wit.e == -2
    assert list(wit.p_coeffs) == [F(-2), F(1)]
    assert list(wit.q_coeffs) == [F(1)]
    validate_witness(BUNDLE, wit)


def test_saturate_absorbs_slack_at_infinity():
    # constant pair far below both degree bounds lifts to e with zero slack
    wit = saturate(BUNDLE, -5, [F(1)], [F(1)])
    assert wit.e == -2
    validate_witness(BUNDLE, wit)


def test_saturate_degenerate_sections():
    assert saturate(BUNDLE, -4, [F(0)], [F(2), F(4)]).e == -2  # q-only: O(d-c)
    assert saturate(BUNDLE, -4, [F(3), F(1)], []).e == -1  # p-only: O(c)
    with pytest.raises(InvalidDatum):
        saturate(BUNDLE, -4, [], [])
    # the classifier only passes an e its sections fit; at e = 0 even a
    # constant p exceeds deg p <= c - e = -1
    with pytest.raises(InternalError, match="inclusion exceeded its degree budget"):
        saturate(BUNDLE, 0, [F(1)], [F(1)])


# BUNDLE has c = -1 and d - c = -2, so at e the bounds are deg p <= -1 - e and
# deg q <= -2 - e
@pytest.mark.parametrize("e, p, q, message", [
    pytest.param(-3, (F(0),), (), "both zero", id="both-zero"),
    pytest.param(-1, (F(1), F(1)), (), "exceed their degree bounds", id="deg-p"),  # 1 > 0
    pytest.param(-2, (), (F(1), F(1)), "exceed their degree bounds", id="deg-q"),  # 1 > 0
    pytest.param(-2, (F(1),), (), "forces the degree-c summand", id="q-zero"),  # e != c
    pytest.param(-3, (), (F(1),), "forces the complementary summand",
                 id="p-zero"),  # e != d - c
    pytest.param(-3, (F(2), F(-3), F(1)), (F(-1), F(1)), r"share a factor \(not saturated\)",
                 id="common-factor"),
    pytest.param(-5, (F(1),), (F(1),), r"vanishes at infinity \(not saturated\)",
                 id="infinity"),
])
def test_validate_witness_rejections(e, p, q, message):
    with pytest.raises(InvalidDatum, match=message):
        validate_witness(BUNDLE, SubbundleWitness(e=e, p_coeffs=p, q_coeffs=q,
                                                  agreement=frozenset()))


def test_validate_witness_rejects_a_wrong_agreement_set():
    wit = saturate(BUNDLE, -5, [F(1)], [F(1)])
    with pytest.raises(InvalidDatum, match="agreement set does not match its sections"):
        validate_witness(BUNDLE, SubbundleWitness(e=wit.e, p_coeffs=wit.p_coeffs,
                                                  q_coeffs=wit.q_coeffs,
                                                  agreement=frozenset({0, 1, 2, 3})))


def test_validate_witness_rejects_a_coefficient_that_is_not_exact():
    # a float or a bool coefficient is refused before any evaluation
    good = saturate(BUNDLE, -1, [F(1)], [])
    validate_witness(BUNDLE, good)
    for p, q in [((1.0,), ()), ((F(1),), (0.5, 1)), ((True,), ()), (("1",), ())]:
        with pytest.raises(InvalidDatum, match="must be an int or a Fraction"):
            validate_witness(BUNDLE, SubbundleWitness(e=good.e, p_coeffs=p, q_coeffs=q,
                                                      agreement=good.agreement))
    # plain ints are exact and pass
    validate_witness(BUNDLE, SubbundleWitness(e=good.e, p_coeffs=(1,), q_coeffs=(),
                                              agreement=good.agreement))


def fraction_agreement(bundle, p, q) -> frozenset[int]:
    """The points where b*p(z) = a*q(z), evaluated in Fractions by Horner's rule.

    The classifier's former evaluation, kept as the oracle for its
    integer one.
    """
    def value(coeffs, z):
        acc = F(0)
        for coeff in reversed(coeffs):
            acc = acc * z + coeff
        return acc

    return frozenset(i for i, (z, (a, b)) in enumerate(zip(bundle.points, bundle.flags))
                     if b * value(p, z) - a * value(q, z) == 0)


def random_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 7, 12]))


def fractional_points(rng: random.Random, bundle):
    """The bundle on distinct random_fraction points, whose denominators enter the integer rows."""
    points = set()
    while len(points) < len(bundle.points):
        points.add(random_fraction(rng))
    return make_bundle(bundle.c, bundle.d, sorted(points), bundle.flags, bundle.weights)


def random_sections(rng: random.Random, bundle, np_: int, nq: int):
    """Random Fraction (p, q), or a pair through chosen points so that some agree."""
    if rng.random() < 0.5 and np_ + nq > 1:
        rows = [[b * z ** j for j in range(np_)] + [-a * z ** j for j in range(nq)]
                for z, (a, b) in zip(bundle.points, bundle.flags)]
        chosen = rng.sample(range(len(rows)), min(len(rows), rng.randint(1, np_ + nq - 1)))
        v = kernel_vector([rows[i] for i in chosen], np_ + nq)
        if v is not None:
            scale = random_fraction(rng) or F(1)
            v = [x * scale for x in v]
            return v[:np_], v[np_:]
    return ([random_fraction(rng) for _ in range(np_)],
            [random_fraction(rng) for _ in range(nq)])


# the sections of the split summands O(c) and O(d-c)
SUMMANDS = (([F(1)], []), ([], [F(1)]))


def summand_agreement(bundle, p, q) -> frozenset[int]:
    """The agreement set of a split summand's witness, which saturate reads
    off the flags without _true_agreement."""
    witness = saturate(bundle, bundle.c, p, q)
    assert witness.e == (bundle.c if p else bundle.d - bundle.c)
    assert (list(witness.p_coeffs), list(witness.q_coeffs)) == (p, q)
    return witness.agreement


def test_true_agreement_matches_fraction_evaluation_on_the_fixtures():
    checked = 0
    for name in ("stability_verdicts.json", "stability_verdicts_g5_8.json"):
        for case in json.loads((FIXTURES / name).read_text()):
            bundle = gen.bundle_from_doc(case["bundle"])
            table = _integer_points(bundle)
            witness = case["verdict"]["witness"]
            pairs = list(SUMMANDS)
            if witness is not None:
                pairs.append(([rat_from_json(x) for x in witness["p"]],
                              [rat_from_json(x) for x in witness["q"]]))
            rng = random.Random(case["name"])
            for _ in range(3):
                pairs.append(random_sections(rng, bundle, rng.randint(0, 3), rng.randint(0, 3)))
            for p, q in pairs:
                assert _true_agreement(table, p, q) == fraction_agreement(bundle, p, q), \
                    (case["name"], p, q)
                checked += 1
            for p, q in SUMMANDS:
                assert summand_agreement(bundle, p, q) == fraction_agreement(bundle, p, q), \
                    (case["name"], p, q)
    assert checked >= 5 * (184 + 48)


def test_true_agreement_matches_fraction_evaluation_on_random_bundles():
    rng = random.Random(63)
    seen = collections.Counter()
    for k in range(400):
        g = rng.randint(1, 4)
        bundle = gen.random_bundle(rng, g, rng.randint(-((g + 1) // 2), 0), generic_weights=True)
        if k % 2:
            bundle = fractional_points(rng, bundle)
        np_, nq = rng.randint(0, 4), rng.randint(0, 4)
        p, q = random_sections(rng, bundle, np_, nq)
        got = _true_agreement(_integer_points(bundle), p, q)
        assert got == fraction_agreement(bundle, p, q), (bundle, p, q)
        for sp, sq in SUMMANDS:
            assert summand_agreement(bundle, sp, sq) == fraction_agreement(bundle, sp, sq), bundle
        seen["empty p"] += not p
        seen["empty q"] += not q
        seen["len(p) != len(q)"] += len(p) != len(q)
        seen["point 0"] += 0 in bundle.points
        seen["negative point"] += any(z < 0 for z in bundle.points)
        seen["fractional point"] += any(z.denominator > 1 for z in bundle.points)
        seen["flag (1:0)"] += (F(1), F(0)) in bundle.flags
        seen["flag (0:1)"] += (F(0), F(1)) in bundle.flags
        seen["some agree"] += bool(got)
        seen["some disagree"] += len(got) < len(bundle.points)
        seen["mixed denominators"] += len({x.denominator for x in (*p, *q)}) > 1
    assert len(seen) == 11 and min(seen.values()) >= 20, seen


def test_slope_difference_is_the_fraction_sum():
    rng = random.Random(64)
    for _ in range(300):
        npoints = rng.randint(0, 8)
        weights = [F(rng.randint(0, m - 1), m) for m in
                   (rng.choice([1, 2, 3, 4, 5, 6, 8, 12]) for _ in range(npoints))]
        bundle = ParabolicP1(0, -rng.randint(0, 7), tuple(range(npoints)),
                             ((1, 0),) * npoints, tuple(weights))
        wit = SubbundleWitness(rng.randint(-6, 3), (F(1),), (),
                               frozenset(i for i in range(npoints) if rng.random() < 0.5))
        plain = F(bundle.d, 2) - wit.e
        for i, w in enumerate(weights):
            plain += -w / 2 if i in wit.agreement else w / 2
        assert parabolic_slope_difference(bundle, wit) == plain


def test_slope_transfer_validates_the_datum_before_it_computes():
    profile = make_profile(4, [("a", 1)])
    for weight in (0.5, True, "1/2"):
        # the datum's fault is reported when it is built, so it wins over
        # the subbundle degree's, which slope_transfer_check never sees
        with pytest.raises(InvalidDatum, match="must be an int or a Fraction"):
            slope_transfer_check(profile, AdmissibleParabolicDatum(0, {"a": weight}, {"a": 2}),
                                 0.5, [])
    good = AdmissibleParabolicDatum(0, {"a": F(1, 2)}, {"a": 2})
    with pytest.raises(InvalidDatum, match="^subbundle base degree must be an int, got float$"):
        slope_transfer_check(profile, good, 0.5, ["a"])
    lhs, rhs = slope_transfer_check(profile, good, 0, ["a"])
    assert lhs == rhs == F(-1, 4)


def test_classifier_matches_oracle():
    rng = random.Random(888)
    seen = set()
    for i in range(40):
        g, c = rng.choice([(2, -1), (3, -1), (3, -2)])
        bundle = gen.random_bundle(rng, g, c, generic_weights=(i % 2 == 0))
        verdict = stability_classify(bundle)
        assert verdict.label == oracle.oracle_classify(bundle)
        seen.add(verdict.label)
        if verdict.witness is not None:
            validate_witness(bundle, verdict.witness)
            diff = parabolic_slope_difference(bundle, verdict.witness)
            assert (diff < 0) == (verdict.label == UNSTABLE)
            assert (diff == 0) == (verdict.label == STRICTLY_SEMISTABLE)
    assert seen == {STABLE, STRICTLY_SEMISTABLE, UNSTABLE}


def test_classifier_genus_guard():
    bundle = gen.random_bundle(random.Random(3), 2, -1)
    with pytest.raises(InvalidDatum):
        stability_classify(bundle, g=3)


def test_transfer_unknown_orbit():
    profile = make_profile(2, [("a", 1), ("b", 1)])
    det = gen.random_det(random.Random(1), profile)
    data = gen.random_data(random.Random(1), profile)
    pdat = to_parabolic(data, profile)
    with pytest.raises(UnknownOrbit):
        slope_transfer_check(profile, pdat, 0, ["zz"])


def test_graded_of_strictly_semistable():
    # degree -2 subbundle through four chosen directions, two split flags
    pts = [F(i) for i in range(6)]
    flags = [(F(i), F(1)) for i in range(4)] + [(1, 0), (1, 0)]
    bundle = make_bundle(-1, -3, pts, flags, [F(1, 2)] * 6)
    verdict = stability_classify(bundle, 2)
    assert verdict.label == STRICTLY_SEMISTABLE
    graded = graded_of(bundle, verdict)
    shape = {(s.bar_degree, s.support) for s in graded.summands}
    assert shape == {(-2, frozenset({0, 1, 2, 3})), (-1, frozenset({4, 5}))}
    stable = stability_classify(gen.random_bundle(random.Random(0), 2, -1))
    if stable.label != STRICTLY_SEMISTABLE:
        with pytest.raises(NotSemistableNotStrict):
            graded_of(bundle, stable)


def test_the_census_boundary_classes_are_the_graded_objects_of_the_classifier():
    # forward: for every class Q of every component at g <= 4, the bundle
    # gen.boundary_bundle builds from (g, c, Q) alone is strictly
    # semistable with graded object F(Q); a Q past the census's bound
    # |Q| <= -2c would need a negative degree there, and raises
    checked = 0
    for g in range(1, 5):
        for comp in hyperelliptic_report(g).components:
            for q in comp.boundary_classes:
                bundle = gen.boundary_bundle(g, comp.c, q)
                verdict = stability_classify(bundle)
                assert verdict.label == STRICTLY_SEMISTABLE, (g, comp.c, q)
                got = {GradedSummand(s.bar_degree, frozenset(f"p{i}" for i in s.support))
                       for s in graded_of(bundle, verdict).summands}
                assert got == set(flagged_class(g, q).summands), (g, comp.c, q)
                checked += 1
    assert checked == 415
    # a seeded sample at g = 5..12, up to 26 points: for each component, one
    # class Q at an even size up to -2c, drawn from (seed, g, c) alone, and
    # one subset of size -2c + 2, which the view refuses and
    # gen.boundary_bundle cannot build.  36 bundles, about 4 s in all
    sampled = 0
    for g in range(5, 13):
        npoints = 2 * g + 2
        for comp in hyperelliptic_report(g).components:
            top = -2 * comp.c
            rng = random.Random(repr((BOUNDARY_SAMPLE_SEED, g, comp.c)))
            q = frozenset(rng.sample(range(npoints), rng.randrange(0, top + 1, 2)))
            if 2 * len(q) == npoints and 0 not in q:
                q = frozenset(range(npoints)) - q  # the member that stands for the class
            assert q in comp.boundary_classes, (g, comp.c, q)
            bundle = gen.boundary_bundle(g, comp.c, q)
            verdict = stability_classify(bundle)
            assert verdict.label == STRICTLY_SEMISTABLE, (g, comp.c, q)
            got = {GradedSummand(s.bar_degree, frozenset(f"p{i}" for i in s.support))
                   for s in graded_of(bundle, verdict).summands}
            assert got == set(flagged_class(g, q).summands), (g, comp.c, q)
            past = frozenset(rng.sample(range(npoints), top + 2))
            assert past not in comp.boundary_classes, (g, comp.c, past)
            with pytest.raises(AssertionError, match="^no boundary bundle"):
                gen.boundary_bundle(g, comp.c, past)
            sampled += 1
    assert sampled == 36


BOUNDARY_SAMPLE_SEED = 42


def test_the_graded_support_of_a_random_strictly_semistable_bundle_is_a_boundary_class():
    # converse: on all-half draws every weight is nonzero, so the graded
    # supports partition the points; one of them is a class of the component
    rng = random.Random(36)
    semistable = 0
    for g in range(1, 5):
        for comp in hyperelliptic_report(g).components:
            everything = frozenset(range(2 * g + 2))
            for _ in range(60):
                bundle = gen.random_bundle(rng, g, comp.c)
                verdict = stability_classify(bundle)
                if verdict.label != STRICTLY_SEMISTABLE:
                    continue
                support = graded_of(bundle, verdict).summands[0].support
                assert support in comp.boundary_classes or \
                    everything - support in comp.boundary_classes, (g, comp.c, bundle)
                semistable += 1
    assert semistable >= 100


def test_split_moduli():
    assert split_moduli_P1(-4) == (-2, -2)
    assert split_moduli_P1(0) == (0, 0)
    assert split_moduli_P1(-3) is None


def test_bundle_json_round_trip():
    rng = random.Random(4)
    bundle = gen.random_bundle(rng, 2, -1)
    doc = bundle_to_json(bundle)
    assert bundle_from_json(doc) == bundle
    verdict = stability_classify(bundle)
    payload = verdict_to_json(verdict)
    assert payload["class"] == verdict.label


def test_bundle_to_json_needs_the_normalized_family():
    # degree -4 on six points is not the -(g+1) family the format carries
    bundle = make_bundle(-1, -4, [0, 1, 2, 3, 4, 5], [(1, 0)] * 6, [F(1, 2)] * 6)
    with pytest.raises(InvalidDatum):
        bundle_to_json(bundle)


def test_bundle_json_rejections():
    good = bundle_to_json(gen.random_bundle(random.Random(4), 2, -1))
    bad = dict(good)
    bad["points"] = bad["points"][:-1]
    with pytest.raises(SchemaError):
        bundle_from_json(bad)
    bad = dict(good)
    bad["flags"] = [[0]] + bad["flags"][1:]
    with pytest.raises(SchemaError):
        bundle_from_json(bad)
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(SchemaError):
        bundle_from_json(bad)
    with pytest.raises(SchemaError):
        bundle_from_json({**good, "g": 0})
    with pytest.raises(SchemaError):
        bundle_from_json([])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_classifier_oracle_property_small(seed):
    rng = random.Random(seed)
    bundle = gen.random_bundle(rng, 1, rng.choice([0, -1]), generic_weights=True)
    assert stability_classify(bundle).label == oracle.oracle_classify(bundle)
