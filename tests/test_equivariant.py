"""Numeric data, modifications, and the parabolic correspondence."""

import itertools
import json
import random
import sys
import tracemalloc
from collections.abc import Sequence
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    FIRST,
    SECOND,
    AdmissibleParabolicDatum,
    DeterminantLift,
    FlagSelector,
    InvalidDatum,
    NonIntegralDegree,
    NoSolution,
    Rank2EqData,
    SchemaError,
    UnknownOrbit,
    admissible_pairs,
    bar_delta_degree,
    det_from_json,
    det_to_json,
    elementary_modification,
    enumerate_lambda,
    from_parabolic,
    gamma_apply,
    make_profile,
    numeric_from_json,
    numeric_to_json,
    parabolic_from_json,
    parabolic_to_json,
    parabolic_zeta2,
    profile_from_json,
    rank2_from_json,
    rank2_to_json,
    solve_d2,
    to_parabolic,
    weight_system,
)
from fixloc.equivariant import admissible_pair_count, validate_parabolic
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile

import gen

sys.path.insert(0, str(Path(__file__).resolve().parent / "fixtures"))
from record_lambda_listings import FIXTURE as LAMBDA_LISTINGS  # noqa: E402
from record_lambda_listings import listing, record_listing, sha256  # noqa: E402
from record_parabolic_cases import FIXTURE as PARABOLIC_CASES, evaluate  # noqa: E402


def brute_force_pairs(delta, nprime):
    return [(d1, d2) for d1 in range(nprime) for d2 in range(d1, nprime)
            if (d1 + d2) % nprime == delta % nprime]


def test_admissible_pairs_against_brute_force():
    for nprime in range(1, 13):
        for delta in range(nprime):
            assert admissible_pairs(delta, nprime) == brute_force_pairs(delta, nprime)


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


def test_lambda_of_the_two_square_root_lifts():
    for g in (1, 2, 3):
        profile = hyperelliptic_profile(g)
        even_lift = hyperelliptic_delta(g, 0)
        odd_lift = hyperelliptic_delta(g, 1)
        lam0 = enumerate_lambda(even_lift, profile)
        lam1 = enumerate_lambda(odd_lift, profile)
        assert len(lam0) == 2 ** (2 * g + 2)
        assert len(lam1) == 1
        for y in profile.orbits:
            assert admissible_pairs(even_lift.residues[y.id], y.nprime) == [(0, 0), (1, 1)]
            assert admissible_pairs(odd_lift.residues[y.id], y.nprime) == [(0, 1)]


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
    # enumerate_lambda; both the product walk and the index decoding must match
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


def iterate_modifications(data, profile, m, flags):
    """Single steps with the tracked eigenvalue re-located after each re-sort."""
    current = data
    for y in profile.orbits:
        my = m.get(y.id, 0)
        if my == 0:
            continue
        d1, d2 = current.numeric[y.id]
        track = d1 if flags.choice[y.id] == FIRST else d2
        for _ in range(abs(my)):
            d1c, d2c = current.numeric[y.id]
            direction = FIRST if d1c == track else SECOND
            current = elementary_modification(current, profile, y.id, direction,
                                              inverse=my < 0)
        assert track in current.numeric[y.id]
    return current


def relocate_selector(reference, image) -> FlagSelector:
    """Selector pointing, in image, at the eigenvalues tracked in reference."""
    choice = {}
    for label, (kept, _ignored) in reference.items():
        choice[label] = FIRST if image.numeric[label][0] == kept else SECOND
    return FlagSelector(choice=choice)


def test_closed_form_matches_iteration():
    rng = random.Random(77)
    for _ in range(200):
        profile = gen.random_profile(rng)
        if not profile.orbits:
            continue
        data = gen.random_data(rng, profile)
        m = {y.id: rng.randint(-4, 4) for y in profile.orbits}
        flags = FlagSelector(choice={y.id: rng.choice([FIRST, SECOND])
                                     for y in profile.orbits})
        assert gamma_apply(data, profile, m, flags) == iterate_modifications(
            data, profile, m, flags)


def test_closed_form_round_trip():
    rng = random.Random(78)
    for _ in range(200):
        profile = gen.random_profile(rng)
        data = gen.random_data(rng, profile)
        m = {y.id: rng.randint(-4, 4) for y in profile.orbits}
        flags = FlagSelector(choice={y.id: rng.choice([FIRST, SECOND])
                                     for y in profile.orbits})
        kept = {y.id: (data.numeric[y.id][0 if flags.choice[y.id] == FIRST else 1], None)
                for y in profile.orbits}
        image = gamma_apply(data, profile, m, flags)
        back = gamma_apply(image, profile, {k: -v for k, v in m.items()},
                           relocate_selector(kept, image))
        assert back == data


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
    sideways = FlagSelector(choice={"a": FIRST, "z": "sideways"})
    with pytest.raises(UnknownOrbit, match="z"):
        gamma_apply(data, profile, {"a": 1}, sideways)


def test_round_trip_on_full_lambda():
    rng = random.Random(5)
    profile = make_profile(8, [("a", 2), ("b", 4), ("c", 1)], genus_base=1)
    det = gen.random_det(rng, profile)
    for numeric in enumerate_lambda(det, profile):
        data = Rank2EqData(numeric=numeric, det=det)
        pdat = to_parabolic(data, profile)
        assert from_parabolic(pdat, profile) == data
        assert to_parabolic(from_parabolic(pdat, profile), profile) == pdat


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


@pytest.mark.parametrize("weight", [0.5, 0.0, "1/2", True, None])
def test_weights_must_be_int_or_fraction(weight):
    profile = make_profile(4, [("a", 2)])
    pdat = AdmissibleParabolicDatum(det_bar_degree=0, weights={"a": weight}, d2={"a": 1})
    for check in (validate_parabolic, from_parabolic, parabolic_zeta2):
        with pytest.raises(InvalidDatum, match="weight at 'a'"):
            check(pdat, profile)
    det = DeterminantLift(residues={"a": 1}, degree=2)
    with pytest.raises(InvalidDatum, match="weight at 'a' not admissible"):
        solve_d2(det, {"a": weight}, profile)


def test_validate_parabolic_returns_the_weight_numerators():
    profile = make_profile(12, [("a", 1), ("b", 4), ("c", 3)])
    pdat = AdmissibleParabolicDatum(det_bar_degree=0, weights={"a": Fraction(5, 12), "b": 0},
                                    d2={"a": 7, "b": 2})
    assert validate_parabolic(pdat, profile) == {"a": 5, "b": 0, "c": 0}


def test_parabolic_cases_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_parabolic_cases.py with the Fraction
    # checks and the range(n') scan; every output and error must stay the same
    cases = json.loads(PARABOLIC_CASES.read_text())
    assert len(cases) > 400
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
