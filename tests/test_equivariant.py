"""Numeric data, modifications, the parabolic correspondence and lift negation."""

import itertools
import json
import random
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    FIRST,
    SECOND,
    AdmissibleParabolicDatum,
    DeterminantLift,
    FlagSelector,
    GradedPoint,
    GradedSummand,
    InvalidDatum,
    NonIntegralDegree,
    NoSolution,
    OddOrder,
    Rank2EqData,
    RootExponent,
    SchemaError,
    UnknownOrbit,
    admissible_pairs,
    bar_delta_degree,
    det_from_json,
    det_to_json,
    elementary_modification,
    enumerate_lambda,
    equivalence_classes,
    from_parabolic,
    gamma_apply,
    m_cross,
    make_profile,
    numeric_from_json,
    numeric_to_json,
    parabolic_from_json,
    parabolic_to_json,
    parabolic_zeta2,
    profile_from_json,
    rank2_from_json,
    rank2_to_json,
    sim_e_step,
    sim_o_step,
    slope_transfer_check,
    solve_d2,
    to_parabolic,
    weight_system,
    zeta2_apply,
    zeta2_partition,
)
from fixloc.equivariant import admissible_pair_count, validate_parabolic
from fixloc.graded import validate_graded

import gen

from record_lambda_listings import FIXTURE as LAMBDA_LISTINGS, listing, record_listing, sha256
from record_parabolic_cases import FIXTURE as PARABOLIC_CASES, evaluate


def brute_force_pairs(delta, nprime):
    return [(d1, d2) for d1 in range(nprime) for d2 in range(d1, nprime)
            if (d1 + d2) % nprime == delta % nprime]


def test_admissible_pairs_against_brute_force():
    for nprime in range(1, 13):
        for delta in range(nprime):
            assert admissible_pairs(delta, nprime) == brute_force_pairs(delta, nprime)


def scan_pairs(delta, nprime):
    """The admissible pairs by d1, from a scan of every d1 in [0, n'): d1 forces
    d2 = delta - d1 mod n', kept when d2 >= d1.  Lazy, so a wide orbit costs no memory."""
    for d1 in range(nprime):
        if (d2 := (delta - d1) % nprime) >= d1:
            yield d1, d2


def test_the_pair_scan_is_the_brute_force_list():
    for nprime in range(1, 25):
        for delta in range(-nprime, 2 * nprime):
            assert list(scan_pairs(delta, nprime)) == brute_force_pairs(delta, nprime)


def test_a_wide_orbit_lambda_allocates_nothing_per_pair():
    # one orbit of n' = 4,000,001 has 2,000,001 admissible pairs
    nprime, delta = 4_000_001, 1_234_567
    profile = make_profile(nprime, [("a", 1)])
    det = DeterminantLift(residues={"a": delta}, degree=delta)
    tracemalloc.start()
    try:
        lam = enumerate_lambda(det, profile)
        ends = [lam[0]["a"], lam[len(lam) // 2]["a"], lam[-1]["a"]]
        first = [el["a"] for el in itertools.islice(lam, 1000)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(lam) == admissible_pair_count(delta, nprime) == 2_000_001
    wanted = {0: ends[0], len(lam) // 2: ends[1], len(lam) - 1: ends[2]}
    wanted.update(enumerate(first))
    seen = {}
    for i, pair in enumerate(scan_pairs(delta, nprime)):
        if i in wanted:
            seen[i] = pair
    assert seen == wanted


def test_admissible_pair_count_is_the_length_of_the_pair_list():
    for nprime in range(1, 65):
        for delta in range(nprime):
            assert admissible_pair_count(delta, nprime) == len(admissible_pairs(delta, nprime))


def test_lambda_is_the_product_of_orbit_choices():
    rng = random.Random(11)
    for _ in range(20):
        profile = gen.random_profile(rng)
        det = gen.random_det(rng, profile)
        lam = enumerate_lambda(det, profile)
        expected = 1
        for y in profile.orbits:
            expected *= len(admissible_pairs(det.residues[y.id], y.nprime))
        assert len(lam) == expected
        assert len({tuple(sorted(el.items())) for el in lam}) == len(lam)


def product_oracle(det, profile):
    per_orbit = [admissible_pairs(det.residues.get(y.id, 0), y.nprime) for y in profile.orbits]
    return [dict(zip(profile.orbit_ids(), combo)) for combo in itertools.product(*per_orbit)]


def test_lambda_view_matches_the_product_oracle():
    rng = random.Random(21)
    empty = make_profile(5, [])
    cases = [(empty, DeterminantLift(residues={}, degree=0))]
    for _ in range(60):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        cases.append((profile, gen.random_det(rng, profile)))
    for profile, det in cases:
        lam = enumerate_lambda(det, profile)
        oracle = product_oracle(det, profile)
        assert isinstance(lam, Sequence)
        assert len(lam) == len(oracle)
        assert list(lam) == oracle
        assert [lam[i] for i in range(len(lam))] == oracle
        assert [list(el) for el in lam] == [list(profile.orbit_ids())] * len(oracle)
    assert list(enumerate_lambda(DeterminantLift(residues={}, degree=0), empty)) == [{}]


def test_lambda_slices_match_list_slices():
    profile = make_profile(12, [("a", 1), ("b", 2), ("c", 3)])
    det = DeterminantLift(residues={"a": 5, "b": 0, "c": 3}, degree=5 + 9)
    lam = enumerate_lambda(det, profile)
    oracle = product_oracle(det, profile)
    assert len(oracle) == 48
    for key in (slice(None), slice(3, None), slice(None, -4), slice(-7, -2), slice(None, None, 5),
                slice(2, 40, 7), slice(None, None, -1), slice(-3, 4, -2), slice(10, 2),
                slice(len(oracle), None), slice(-1000, 1000, 3)):
        assert lam[key] == oracle[key], key
    assert lam[::3][2:9][::-2][1:] == oracle[::3][2:9][::-2][1:]
    assert lam[5:5] == [] and lam[7:3] == []
    assert lam[-1] == oracle[-1] and lam[-len(oracle)] == oracle[0]


def test_lambda_index_errors():
    profile = make_profile(6, [("a", 1), ("b", 2)])
    det = DeterminantLift(residues={"a": 1, "b": 1}, degree=3)
    lam = enumerate_lambda(det, profile)
    for i in (len(lam), -len(lam) - 1, 10 ** 30):
        with pytest.raises(IndexError):
            lam[i]


def test_lambda_choice_matches_the_list():
    profile = make_profile(24, [(f"y{i}", 1) for i in range(4)])
    det = DeterminantLift(residues={"y0": 0, "y1": 3, "y2": 8, "y3": 13}, degree=24)
    lam = enumerate_lambda(det, profile)
    listed = list(lam)
    for seed in range(40):
        left, right = random.Random(seed), random.Random(seed)
        assert left.choice(lam) == right.choice(listed)
        assert left.choice(lam[::7]) == right.choice(listed[::7])
        assert left.random() == right.random()


def test_lambda_elements_are_fresh_dicts():
    profile = make_profile(4, [("a", 1), ("b", 2)])
    det = DeterminantLift(residues={"a": 2, "b": 0}, degree=2)
    lam = enumerate_lambda(det, profile)
    first = lam[0]
    first["a"] = (9, 9)
    del first["b"]
    assert lam[0] == product_oracle(det, profile)[0]
    for el in lam:
        el.clear()
    assert list(lam) == product_oracle(det, profile)


def test_lambda_view_allocates_only_what_is_read():
    # the 13^5 job of the lambda benchmark workload: 371,293 elements
    profile = make_profile(24, [(f"y{i}", 1) for i in range(5)])
    det = DeterminantLift(residues={f"y{i}": 2 * i for i in range(5)}, degree=20)
    tracemalloc.start()
    try:
        lam = enumerate_lambda(det, profile)
        picked = list(lam[::max(1, len(lam) // 16)][:16])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lam) == 13 ** 5
    assert len(picked) == 16
    assert peak < 200_000


def test_lambda_listings_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_lambda_listings.py from the list-building
    # enumerate_lambda; the lazy view, iterated and indexed, must match it
    cases = json.loads(LAMBDA_LISTINGS.read_text())["listings"]
    assert len(cases) == 40
    assert {case["det"]["lift_sign"] for case in cases} == {"+", "-"}
    for case in cases:
        assert record_listing(case) == {"count": case["count"], "sha256": case["sha256"]}
        lam = enumerate_lambda(det_from_json(case["det"]), profile_from_json(case["profile"]))
        decoded = [lam[i] for i in range(len(lam))]
        assert sha256(listing(decoded)) == case["sha256"], case["name"]


def test_weight_system_values():
    profile = make_profile(12, [("a", 1), ("b", 4)])
    ws = weight_system({"a": (2, 7), "b": (0, 2)}, profile)
    assert ws == {"a": Fraction(5, 12), "b": Fraction(2, 3)}


def test_weights_are_exact_fractions_of_the_exponent_spread():
    # to_parabolic, weight_system and parabolic_zeta2 hand out shared weight
    # Fractions; each must be a Fraction equal to (d2 - d1)/n'
    rng = random.Random(12)
    seen = 0
    for _ in range(60):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        data = gen.random_data(rng, profile)
        pdat = to_parabolic(data, profile)
        images = [(pdat.weights, data.numeric), (weight_system(data.numeric, profile), data.numeric)]
        if profile.n % 2 == 0:
            images.append((parabolic_zeta2(pdat, profile).weights,
                           zeta2_apply(data, profile).numeric))
        for weights, numeric in images:
            assert weights.keys() == numeric.keys()
            for y in profile.orbits:
                d1, d2 = numeric[y.id]
                w = weights[y.id]
                assert type(w) is Fraction
                assert w == Fraction(d2 - d1, y.nprime)
                seen += 1
    assert seen > 300
    # an int weight comes back from lift negation as a Fraction too
    profile = make_profile(4, [("a", 1)])
    pdat = AdmissibleParabolicDatum(det_bar_degree=0, weights={"a": 0}, d2={"a": 1})
    assert type(parabolic_zeta2(pdat, profile).weights["a"]) is Fraction


def test_bar_degree_division_guard():
    profile = make_profile(4, [("a", 2)])
    det = DeterminantLift(residues={"a": 1}, degree=2 + 4 * 3)
    assert bar_delta_degree(det, {"a": (0, 1)}, profile) == 3
    corrupted = DeterminantLift(residues={"a": 1}, degree=det.degree + 1)
    with pytest.raises(NonIntegralDegree):
        bar_delta_degree(corrupted, {"a": (0, 1)}, profile)


@pytest.mark.parametrize("numeric", [{}, {"b": (0, 1)}, {"a": (0, 1), "b": (0, 0)}, {"a": (1, 0)}])
def test_bar_degree_rejects_numeric_not_matching_the_profile(numeric):
    profile = make_profile(4, [("a", 2)])
    det = DeterminantLift(residues={"a": 1}, degree=14)
    with pytest.raises(InvalidDatum):
        bar_delta_degree(det, numeric, profile)


def test_single_modification_bookkeeping():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (1, 2)},
                       det=DeterminantLift(residues={"a": 0}, degree=6))
    out = elementary_modification(data, profile, "a", SECOND)
    # kept d2=2, moved d1 -> 0; determinant loses one reduced fiber
    assert out.numeric["a"] == (0, 2)
    assert out.det.degree == 6 - 2
    assert out.det.residues["a"] == 2  # (0 - 1) mod 3
    undone = elementary_modification(out, profile, "a", SECOND, inverse=True)
    assert undone == data


def test_modification_wraps_and_resorts():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (0, 2)},
                       det=DeterminantLift(residues={"a": 2}, degree=10))
    out = elementary_modification(data, profile, "a", SECOND)
    # moved exponent wraps 0 -> 2 and the pair re-sorts to (2, 2)
    assert out.numeric["a"] == (2, 2)
    out2 = elementary_modification(data, profile, "a", FIRST)
    # kept d1=0, moved 2 -> 1
    assert out2.numeric["a"] == (0, 1)


def test_modification_rejects_unknown_orbit():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (1, 2)},
                       det=DeterminantLift(residues={"a": 0}, degree=6))
    with pytest.raises(UnknownOrbit, match="z"):
        elementary_modification(data, profile, "z", FIRST)


def test_modification_rejects_bad_direction():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (1, 2)},
                       det=DeterminantLift(residues={"a": 0}, degree=6))
    with pytest.raises(InvalidDatum):
        elementary_modification(data, profile, "a", "third")


def test_gamma_requires_direction_at_modified_orbits():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (1, 2)},
                       det=DeterminantLift(residues={"a": 0}, degree=6))
    with pytest.raises(InvalidDatum):
        gamma_apply(data, profile, {"a": 2}, FlagSelector(choice={}))


def test_gamma_rejects_unknown_orbit():
    profile = make_profile(6, [("a", 2)])
    data = Rank2EqData(numeric={"a": (1, 2)},
                       det=DeterminantLift(residues={"a": 0}, degree=6))
    flags = FlagSelector(choice={"a": FIRST, "z": FIRST})
    with pytest.raises(UnknownOrbit, match="z"):
        gamma_apply(data, profile, {"a": 1, "z": 1}, flags)
    with pytest.raises(UnknownOrbit, match="z"):
        gamma_apply(data, profile, {"z": 0}, flags)
    # a selector label outside the profile, even one m leaves alone
    sideways = FlagSelector(choice={"a": FIRST, "z": SECOND})
    with pytest.raises(UnknownOrbit, match="z"):
        gamma_apply(data, profile, {"a": 1}, sideways)
    # a choice that is neither direction is rejected when the selector is built
    with pytest.raises(InvalidDatum, match="flag choice at 'z' must be 'first' or 'second'"):
        FlagSelector(choice={"a": FIRST, "z": "sideways"})


def test_from_parabolic_rejects_negative_lower_exponent():
    profile = make_profile(4, [("a", 1)])
    bad = parabolic_from_json({
        "det_bar_degree": 0,
        "weights": {"a": {"num": 3, "den": 4}},
        "d2": {"a": 2},
        "det_lift_sign": "+",
    })
    with pytest.raises(InvalidDatum):
        from_parabolic(bad, profile)


def test_solve_d2_against_lambda_fibers():
    rng = random.Random(13)
    for _ in range(20):
        profile = gen.random_profile(rng, max_n=10, max_orbits=3)
        det = gen.random_det(rng, profile)
        by_weights = {}
        for numeric in enumerate_lambda(det, profile):
            key = tuple(sorted(weight_system(numeric, profile).items()))
            d2map = tuple(sorted((label, pair[1]) for label, pair in numeric.items()))
            by_weights.setdefault(key, set()).add(d2map)
        for key, expected in by_weights.items():
            sols = solve_d2(det, dict(key), profile)
            assert {tuple(sorted(s.items())) for s in sols} == expected


def test_solve_d2_no_solution():
    profile = make_profile(2, [("y", 1)])
    det = DeterminantLift(residues={"y": 0}, degree=0)
    with pytest.raises(NoSolution):
        solve_d2(det, {"y": Fraction(1, 2)}, profile)


def test_solve_d2_rejects_inadmissible_weight():
    profile = make_profile(4, [("y", 2)])
    det = DeterminantLift(residues={"y": 0}, degree=0)
    with pytest.raises(InvalidDatum):
        solve_d2(det, {"y": Fraction(1, 3)}, profile)


def scan_d2(m, delta, nprime):
    """The former solve_d2 loop: every d2 in [0, n') with 2*d2 = m + delta and d2 >= m."""
    return [d2 for d2 in range(nprime)
            if (2 * d2 - m - delta) % nprime == 0 and d2 - m >= 0]


def test_solve_d2_closed_form_matches_the_scan():
    # one orbit of length 1 gives n' = n; make_profile needs n' >= 2
    no_solution = 0
    for nprime in range(2, 41):
        profile = make_profile(nprime, [("y", 1)])
        for delta in range(nprime):
            det = DeterminantLift(residues={"y": delta}, degree=delta)
            for m in range(nprime):
                expected = scan_d2(m, delta, nprime)
                for w in ([0, Fraction(0)] if m == 0 else [Fraction(m, nprime)]):
                    if not expected:
                        no_solution += 1
                        with pytest.raises(NoSolution):
                            solve_d2(det, {"y": w}, profile)
                        continue
                    assert solve_d2(det, {"y": w}, profile) == [{"y": d2} for d2 in expected], \
                        (nprime, delta, w)
    assert no_solution > 0


# --- lift negation ---

def test_lift_negation_involution():
    rng = random.Random(33)
    for _ in range(200):
        profile = gen.random_profile(rng, even_n=True)
        data = gen.random_data(rng, profile)
        image = zeta2_apply(data, profile)
        assert image.det.degree == data.det.degree
        assert image.det.residues == data.det.residues
        assert image.det.lift_sign != data.det.lift_sign
        assert zeta2_apply(image, profile) == data
    with pytest.raises(OddOrder):
        zeta2_apply(gen.random_data(rng, make_profile(3, [])), make_profile(3, []))


def test_lift_negation_partition():
    profile = make_profile(6, [("a", 1), ("b", 2), ("c", 3)])
    # a: n'=6, shift 3; b: even length, fixed; c: n'=2, shift 1
    tags = zeta2_partition({"a": (0, 1), "b": (1, 2), "c": (0, 1)}, profile)
    assert tags == {"a": "up", "b": "fixed", "c": "cross"}
    tags2 = zeta2_partition({"a": (3, 5), "b": (0, 0), "c": (1, 1)}, profile)
    assert tags2 == {"a": "down", "b": "fixed", "c": "down"}
    tags3 = zeta2_partition({"a": (2, 4), "b": (1, 1), "c": (0, 0)}, profile)
    assert tags3["a"] == "cross"
    assert m_cross({"a": (2, 4), "b": (1, 1), "c": (0, 0)}, profile) == \
        {"a": 1, "b": 0, "c": 0}


@pytest.mark.parametrize("numeric, message", [
    ({"a": (0, 1)}, "must cover exactly the profile orbits"),
    ({}, "must cover exactly the profile orbits"),
    ({"a": (0, 1), "b": (1, 1), "c": (0, 0)}, "must cover exactly the profile orbits"),
    ({"a": (3, 1), "b": (1, 1)}, "exponent pair at 'a' violates"),
    ({"a": (0, 1), "b": (0, 4)}, "exponent pair at 'b' violates"),
])
def test_lift_negation_partition_rejects_numeric_data_off_the_profile(numeric, message):
    # a missing or extra orbit, a reversed pair and a pair out of range
    profile = make_profile(4, [("a", 1), ("b", 1)])
    for classify in (zeta2_partition, m_cross):
        with pytest.raises(InvalidDatum, match=message):
            classify(numeric, profile)
        # the order check still comes first
        with pytest.raises(OddOrder):
            classify(numeric, make_profile(3, [("a", 1), ("b", 1)]))


def test_downstairs_negation_commutes_with_descent():
    rng = random.Random(35)
    for _ in range(150):
        profile = gen.random_profile(rng, even_n=True)
        data = gen.random_data(rng, profile)
        pdat = to_parabolic(data, profile)
        left = to_parabolic(zeta2_apply(data, profile), profile)
        right = parabolic_zeta2(pdat, profile)
        assert left == right
        assert parabolic_zeta2(right, profile) == pdat


@pytest.mark.parametrize("weight", [0.5, 0.0, "1/2", True, None])
def test_weights_must_be_int_or_fraction(weight):
    # a parabolic datum rejects the weight when it is built, so no operation
    # sees it, and solve_d2 reports it in the same words (equivariant._weights)
    message = f"^weight at 'a' must be an int or a Fraction, got {type(weight).__name__}$"
    profile = make_profile(4, [("a", 2)])
    with pytest.raises(InvalidDatum, match=message):
        AdmissibleParabolicDatum(det_bar_degree=0, weights={"a": weight}, d2={"a": 1})
    det = DeterminantLift(residues={"a": 1}, degree=2)
    with pytest.raises(InvalidDatum, match=message):
        solve_d2(det, {"a": weight}, profile)


def test_validate_parabolic_returns_the_weight_numerators():
    profile = make_profile(12, [("a", 1), ("b", 4), ("c", 3)])
    pdat = AdmissibleParabolicDatum(det_bar_degree=0,
                                    weights={"a": Fraction(5, 12), "b": 0, "c": 0},
                                    d2={"a": 7, "b": 2, "c": 0})
    spreads = validate_parabolic(pdat, profile)
    assert spreads == {"a": 5, "b": 0, "c": 0}
    # the datum's mark keeps them, so they are read-only
    with pytest.raises(TypeError):
        spreads["a"] = 0
    assert validate_parabolic(pdat, profile) is spreads


def test_parabolic_cases_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_parabolic_cases.py with the Fraction
    # checks and the range(n') scan, and again, for the modifications, weight
    # system and descended degree, with the unfused validators; every output and
    # error must stay the same
    cases = json.loads(PARABOLIC_CASES.read_text())
    assert len(cases) > 600
    assert {case["op"] for case in cases} == {
        "to_parabolic", "from_parabolic", "solve_d2", "parabolic_zeta2", "zeta2_apply",
        "elementary_modification", "gamma_apply", "weight_system", "bar_delta_degree"}
    assert sum("error" in case["expect"] for case in cases) > 50
    for case in cases:
        assert evaluate(case) == case["expect"], (case["name"], case["op"])


def test_json_round_trips():
    rng = random.Random(17)
    for _ in range(20):
        profile = gen.random_profile(rng)
        data = gen.random_data(rng, profile)
        assert det_from_json(det_to_json(data.det)) == data.det
        assert numeric_from_json(numeric_to_json(data.numeric)) == data.numeric
        assert rank2_from_json(rank2_to_json(data)) == data
        pdat = to_parabolic(data, profile)
        assert parabolic_from_json(parabolic_to_json(pdat)) == pdat


def test_json_rejections():
    with pytest.raises(SchemaError):
        det_from_json({"residues": {}, "degree": 0, "lift_sign": "+", "x": 1})
    with pytest.raises(SchemaError):
        det_from_json({"residues": {"a": 0.5}, "degree": 0, "lift_sign": "+"})
    with pytest.raises(SchemaError, match=r"^det\.lift_sign must be '\+' or '-'$"):
        det_from_json({"residues": {}, "degree": 0, "lift_sign": "x"})
    with pytest.raises(SchemaError):
        numeric_from_json({"a": [1]})
    with pytest.raises(SchemaError):
        numeric_from_json({"a": [1, 2, 3]})
    with pytest.raises(SchemaError):
        rank2_from_json({"numeric": {}, "det": []})
    with pytest.raises(SchemaError):
        parabolic_from_json({"det_bar_degree": 0, "weights": {"a": {"num": 1, "den": 0}},
                             "d2": {"a": 0}, "det_lift_sign": "+"})


@st.composite
def profile_and_data(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    divisors = [k for k in range(1, n) if n % k == 0]
    ks = draw(st.lists(st.sampled_from(divisors), max_size=4)) if divisors else []
    profile = make_profile(n, [(f"y{i}", k) for i, k in enumerate(ks)])
    residues = {y.id: draw(st.integers(0, y.nprime - 1)) for y in profile.orbits}
    degree = sum(residues[y.id] * y.k for y in profile.orbits) \
        + n * draw(st.integers(-3, 3))
    sign = "+" if n % 2 else draw(st.sampled_from(["+", "-"]))
    det = DeterminantLift(residues=residues, degree=degree, lift_sign=sign)
    numeric = {
        y.id: draw(st.sampled_from(admissible_pairs(residues[y.id], y.nprime)))
        for y in profile.orbits
    }
    return profile, Rank2EqData(numeric=numeric, det=det)


@settings(max_examples=150)
@given(profile_and_data())
def test_correspondence_round_trip_property(pd):
    profile, data = pd
    pdat = to_parabolic(data, profile)
    assert from_parabolic(pdat, profile) == data


@settings(max_examples=150)
@given(profile_and_data())
def test_weights_stay_in_range(pd):
    profile, data = pd
    for label, w in to_parabolic(data, profile).weights.items():
        assert 0 <= w < 1
        assert (w * profile.orbit(label).nprime).denominator == 1


# --- a datum names every profile orbit ---

P4 = make_profile(4, [("a", 1), ("b", 2)])  # n' = 4, 2
NUMERIC4 = {"a": (0, 0), "b": (1, 1)}
DET4 = DeterminantLift(residues={"a": 0, "b": 0}, degree=4)
PDAT4 = AdmissibleParabolicDatum(det_bar_degree=0, weights={"a": 0, "b": 0}, d2={"a": 0, "b": 1})


def point4(det):
    """The graded point of NUMERIC4 over det: no weighted orbit, both summands of base degree 0."""
    flat = GradedSummand(0, frozenset())
    return GradedPoint((flat, flat), numeric=NUMERIC4, det=det)


# DET4 and PDAT4 with an orbit left out: the residue at b, every residue,
# the weight at b, the flag exponent at a
SHORT_DETS = [DeterminantLift(residues={"a": 0}, degree=4), DeterminantLift(residues={}, degree=4)]
SHORT_PDATS = [AdmissibleParabolicDatum(0, {"a": 0}, PDAT4.d2),
               AdmissibleParabolicDatum(0, PDAT4.weights, {"b": 1})]
# (entry point, call on a det or a parabolic datum, the full input, the short inputs)
OMISSIONS = [
    ("enumerate_lambda", lambda det: enumerate_lambda(det, P4), DET4, SHORT_DETS),
    ("to_parabolic", lambda det: to_parabolic(Rank2EqData(NUMERIC4, det), P4), DET4, SHORT_DETS),
    ("elementary_modification",
     lambda det: elementary_modification(Rank2EqData(NUMERIC4, det), P4, "b", FIRST),
     DET4, SHORT_DETS),
    ("gamma_apply", lambda det: gamma_apply(Rank2EqData(NUMERIC4, det), P4, {"a": 1},
                                            FlagSelector({"a": FIRST})), DET4, SHORT_DETS),
    ("zeta2_apply", lambda det: zeta2_apply(Rank2EqData(NUMERIC4, det), P4), DET4, SHORT_DETS),
    ("solve_d2 det", lambda det: solve_d2(det, PDAT4.weights, P4), DET4, SHORT_DETS),
    ("bar_delta_degree", lambda det: bar_delta_degree(det, NUMERIC4, P4), DET4, SHORT_DETS),
    ("validate_graded", lambda det: validate_graded(point4(det), P4), DET4, SHORT_DETS),
    ("equivalence_classes", lambda det: equivalence_classes([point4(det)], P4), DET4, SHORT_DETS),
    ("sim_o_step", lambda det: sim_o_step(point4(det), RootExponent(1, 4), P4), DET4, SHORT_DETS),
    ("sim_e_step", lambda det: sim_e_step(point4(det), P4), DET4, SHORT_DETS),
    ("from_parabolic", lambda pdat: from_parabolic(pdat, P4), PDAT4, SHORT_PDATS),
    ("parabolic_zeta2", lambda pdat: parabolic_zeta2(pdat, P4), PDAT4, SHORT_PDATS),
    ("slope_transfer_check", lambda pdat: slope_transfer_check(P4, pdat, 0, []), PDAT4, SHORT_PDATS),
    ("solve_d2 weights", lambda pdat: solve_d2(DET4, pdat.weights, P4), PDAT4, SHORT_PDATS[:1]),
]


@pytest.mark.parametrize("call, full, short", [
    pytest.param(call, full, short, id=f"{name}-{i}")
    for name, call, full, shorts in OMISSIONS for i, short in enumerate(shorts)])
def test_a_datum_that_leaves_out_an_orbit_is_rejected(call, full, short):
    # the full spelling passes validation (P4's sum of k is 3, so a twist
    # step then fails to descend); the short one is rejected, not read as 0
    try:
        call(full)
    except NonIntegralDegree:
        pass
    with pytest.raises(InvalidDatum, match="must name every profile orbit"):
        call(short)


P2 = make_profile(2, [("a", 1)])
DATUM2 = Rank2EqData({"a": (0, 1)}, DeterminantLift({"a": 1}, 1))


@pytest.mark.parametrize("call", [
    pytest.param(call, id=name) for name, call in [
        ("weight_system numeric", lambda bad: weight_system(bad, P2)),
        ("bar_delta_degree numeric", lambda bad: bar_delta_degree(DATUM2.det, bad, P2)),
        ("zeta2_partition numeric", lambda bad: zeta2_partition(bad, P2)),
        ("m_cross numeric", lambda bad: m_cross(bad, P2)),
        ("gamma_apply m", lambda bad: gamma_apply(DATUM2, P2, bad, FlagSelector({"a": FIRST}))),
        ("solve_d2 weights", lambda bad: solve_d2(DATUM2.det, bad, P2)),
    ]])
@pytest.mark.parametrize("bad", [[(0, 1)], [1], [Fraction(1, 2)], "a"], ids=repr)
def test_an_operation_rejects_a_map_that_is_not_a_dict(call, bad):
    # each raised a bare AttributeError or an UnknownOrbit naming a list item
    # before the operations ran the records' map check (_ser.freeze)
    with pytest.raises(InvalidDatum, match="must be a dict, got "):
        call(bad)


@pytest.mark.parametrize("det, error", [
    ({"residues": {"z": 9}, "degree": 13, "lift_sign": "?"}, InvalidDatum),
    ({"residues": {"a": 1, "z": 0}, "degree": 14}, UnknownOrbit),
    ({"residues": {"a": 4}, "degree": 14}, InvalidDatum),
    ({"residues": {}, "degree": 14}, InvalidDatum),
])
def test_bar_degree_checks_its_determinant(det, error):
    # the bad lift sign is rejected when the determinant is built, the others here
    with pytest.raises(error):
        bar_delta_degree(DeterminantLift(**det), {"a": (0, 1)}, make_profile(4, [("a", 2)]))


def test_the_correspondence_and_the_modifications_invert_each_other_up_to_n24():
    rng = random.Random(2210)
    for _ in range(300):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        data = gen.random_data(rng, profile)
        assert from_parabolic(to_parabolic(data, profile), profile) == data
        pdat = gen.random_parabolic(rng, profile)
        assert to_parabolic(from_parabolic(pdat, profile), profile) == pdat
        for y in profile.orbits:
            direction = rng.choice((FIRST, SECOND))
            kept = data.numeric[y.id][0 if direction == FIRST else 1]
            moved = elementary_modification(data, profile, y.id, direction)
            # the inverse tracks the exponent the modification kept
            back = FIRST if moved.numeric[y.id][0] == kept else SECOND
            assert elementary_modification(moved, profile, y.id, back, inverse=True) == data
