"""Parabolic stability on the line: classifier, witnesses, transfer."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    DomainError,
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
    graded_of,
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
from fixloc._ser import rat_from_json
from fixloc.stability import (
    MAX_MARKED_POINTS,
    RANK_PRIME,
    _eliminate,
    _kernel_candidates,
    kernel_basis,
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


def test_kernel_basis_known_system():
    rows = [[F(1), F(1), F(0)], [F(0), F(1), F(1)]]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    v = basis[0]
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


def test_kernel_candidates_match_the_plain_scan():
    # every qualifying subset in combinations order, sizes descending,
    # less those certified full rank by the from-scratch rank mod p
    rng = random.Random(62)
    for _ in range(300):
        n, ncols = rng.randint(0, 7), rng.randint(2, 5)
        rows = random_int_rows(rng, n, ncols) if n else []
        iw = [rng.randint(0, 4) for _ in range(n)]
        need = rng.randint(-1, 2 * sum(iw) + 1)
        plain = [s for size in range(n, -1, -1) for s in itertools.combinations(range(n), size)
                 if 2 * sum(iw[i] for i in s) >= need
                 and rank_mod_p([rows[i] for i in s]) < ncols]
        assert list(_kernel_candidates(rows, ncols, iw, need)) == plain


def test_rank_mod_p_drop_falls_back_to_the_exact_kernel():
    # determinant RANK_PRIME: full rank over Q, rank one modulo the prime,
    # so the subset is not certified and goes to kernel_basis, which
    # finds no kernel
    rows = [[RANK_PRIME, 0], [0, 1]]
    assert rank_mod_p(rows) == 1
    assert kernel_basis(rows, 2) == []
    assert list(_kernel_candidates(rows, 2, [1, 1], 4)) == [(0, 1)]
    # the prefix (0, 1) has full rank over Q only, so nothing below it is pruned
    rows = [[RANK_PRIME, 0], [0, 1], [0, 2], [0, 3]]
    assert list(_kernel_candidates(rows, 2, [1] * 4, 6)) == \
        [(0, 1, 2, 3), (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert kernel_basis(rows[:3], 2) == []
    # the certificate itself: full rank modulo the prime, no candidate
    assert list(_kernel_candidates([[2, 1], [1, 1]], 2, [1, 1], 4)) == []
    # a full-rank prefix ends its subtree: (0, 1) certifies (0, 1, 2)
    assert list(_kernel_candidates([[1, 0], [0, 1], [1, 1]], 2, [1] * 3, 6)) == []
    # a genuine kernel is yielded
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert list(_kernel_candidates(rows, 3, [1, 1, 1], 6)) == [(0, 1, 2)]
    assert len(kernel_basis(rows, 3)) == 1


FIXTURES = Path(__file__).parent / "fixtures"


def replay_verdicts(path: Path) -> int:
    """Classify every recorded bundle; the verdict JSON must be byte-identical."""
    cases = json.loads(path.read_text())
    for case in cases:
        doc = case["bundle"]
        bundle = make_bundle(doc["c"], doc["d"],
                             [rat_from_json(z) for z in doc["points"]],
                             [(rat_from_json(a), rat_from_json(b)) for a, b in doc["flags"]],
                             [rat_from_json(w) for w in doc["weights"]])
        got = json.dumps(verdict_to_json(stability_classify(bundle)), sort_keys=True)
        assert got == json.dumps(case["verdict"], sort_keys=True), case["name"]
    return len(cases)


def test_verdicts_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_stability_verdicts.py with the
    # plain fraction scan; every verdict and witness must stay byte-identical
    assert replay_verdicts(FIXTURES / "stability_verdicts.json") > 150


def test_verdicts_match_the_recorded_g5_8_fixture():
    # recorded by the same script with the per-subset rank scan; g = 5..8,
    # where full scans are long and pruning matters most
    assert replay_verdicts(FIXTURES / "stability_verdicts_g5_8.json") >= 40


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


def test_validate_witness_rejections():
    with pytest.raises(InvalidDatum):
        validate_witness(BUNDLE, SubbundleWitness(e=-3, p_coeffs=(F(2), F(-3), F(1)),
                                                  q_coeffs=(F(-1), F(1)),
                                                  agreement=frozenset()))
    with pytest.raises(InvalidDatum):  # unsaturated at infinity
        validate_witness(BUNDLE, SubbundleWitness(e=-5, p_coeffs=(F(1),),
                                                  q_coeffs=(F(1),),
                                                  agreement=frozenset()))
    wit = saturate(BUNDLE, -5, [F(1)], [F(1)])
    with pytest.raises(InvalidDatum):  # wrong agreement set
        validate_witness(BUNDLE, SubbundleWitness(e=wit.e, p_coeffs=wit.p_coeffs,
                                                  q_coeffs=wit.q_coeffs,
                                                  agreement=frozenset({0, 1, 2, 3})))


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


def test_transfer_matches_on_both_routes():
    rng = random.Random(999)
    for _ in range(200):
        profile = gen.random_profile(rng)
        data = gen.random_data(rng, profile)
        pdat = to_parabolic(data, profile)
        sub = rng.randint(-5, 5)
        agr = [y.id for y in profile.orbits if rng.random() < 0.5]
        lhs, rhs = slope_transfer_check(profile, pdat, sub, agr)
        assert lhs == rhs


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
