"""Validity marks: a record checked against a profile is not checked again.

A validator marks a record that passed it with the profile object it was
checked against, and the operations build their outputs already marked,
so a chain of operations validates only its first input.  The tests
count calls to `equivariant.validate_numeric`, which every check of a
datum's exponent pairs runs, and check that each mark is earned: an
output with its mark stripped passes the validators again.
"""

import pickle
import random
import tracemalloc
import types

import pytest

from fixloc import (
    FIRST,
    SECOND,
    AdmissibleParabolicDatum,
    DeterminantLift,
    FlagSelector,
    GradedPoint,
    GradedSummand,
    InvalidDatum,
    InvalidGenus,
    NonIntegralDegree,
    Rank2EqData,
    RootExponent,
    double_class,
    elementary_modification,
    equivalence_classes,
    equivariant,
    flagged_class,
    from_parabolic,
    gamma_apply,
    hyperelliptic_delta,
    hyperelliptic_profile,
    make_profile,
    parabolic_zeta2,
    sim_e_step,
    sim_o_step,
    to_parabolic,
    zeta2_apply,
)
from fixloc._ser import FrozenDict
from fixloc.equivariant import round_trip, validate_det, validate_parabolic, validate_rank2
from fixloc.graded import validate_graded

import gen


def profile12():
    return make_profile(12, {"a": 4, "b": 6, "c": 3})


@pytest.fixture
def numeric_checks(count_calls) -> list:
    """The arguments of each call of equivariant.validate_numeric."""
    return count_calls(equivariant, "validate_numeric")


def unmarked(record):
    """An equal copy without the mark (a record's state leaves it out)."""
    return pickle.loads(pickle.dumps(record))


def test_a_chain_of_ten_modifications_validates_once(numeric_checks):
    profile = profile12()
    data = gen.random_data(random.Random(1), profile)
    for i in range(10):
        data = elementary_modification(data, profile, "abc"[i % 3], (FIRST, SECOND)[i % 2],
                                       inverse=i % 4 == 0)
    assert len(numeric_checks) == 1


def test_the_correspondence_and_lift_negation_validate_once(numeric_checks):
    profile = profile12()
    data = gen.random_data(random.Random(2), profile)
    moved = gamma_apply(data, profile, {"a": 2, "b": -1},
                        FlagSelector({"a": FIRST, "b": SECOND}))
    back = from_parabolic(to_parabolic(moved, profile), profile)
    zeta2_apply(back, profile)
    assert back == moved
    assert len(numeric_checks) == 1


def test_a_second_equivalence_classes_call_validates_no_point(numeric_checks):
    # the boundary classes are born marked, so unmarked copies stand for new points
    profile = hyperelliptic_profile(2)
    point = unmarked(flagged_class(2, [0, 1]))
    assert equivalence_classes([point], profile) == equivalence_classes([point], profile)
    assert len(numeric_checks) == 1


def test_an_equal_but_distinct_profile_validates_again(numeric_checks, count_calls):
    profile, twin = profile12(), profile12()
    assert profile == twin and profile is not twin
    data = elementary_modification(gen.random_data(random.Random(3), profile), profile, "a", FIRST)
    pdat = to_parabolic(data, profile)
    assert len(numeric_checks) == 1
    to_parabolic(data, twin)
    assert len(numeric_checks) == 2
    to_parabolic(data, profile)  # the mark moved to the twin
    assert len(numeric_checks) == 3
    spread_checks = count_calls(equivariant, "_spreads")
    from_parabolic(pdat, profile)
    assert spread_checks == []
    from_parabolic(pdat, twin)
    assert len(spread_checks) == 1
    # the family's profile is built once per genus, so its twin is built anew
    point, family = flagged_class(1, [0, 1]), hyperelliptic_profile(1)
    twin = make_profile(2, [(f"p{i}", 1) for i in range(4)])
    assert twin == family and twin is not family
    validate_graded(point, twin)
    validate_graded(point, twin)
    assert len(numeric_checks) == 4
    validate_graded(point, family)  # the mark moved to the twin
    assert len(numeric_checks) == 5


def test_a_round_trip_of_an_inadmissible_numeric_is_unmarked(numeric_checks):
    # round_trip trusts its input to be admissible, so it marks nothing; it
    # type-checks the element as a datum's constructor does, so a float
    # exponent, which would reach the output's degree, is rejected
    profile = make_profile(2, [("a", 1)])
    det = DeterminantLift({"a": 1}, 2)
    # (1, 1) sums to residue 0, not 1, yet it descends and ascends
    back = round_trip({"a": (1, 1)}, det, profile)
    assert back.det.residues == {"a": 0}
    assert back._mark is None and back.det._mark is None
    with pytest.raises(InvalidDatum, match="exponent pair entry at 'a' must be an int, got float"):
        round_trip({"a": (0.0, 1)}, det, profile)
    assert numeric_checks == []


def test_a_record_whose_values_can_change_is_never_marked(numeric_checks):
    # a view of a plain dict or a set support could change after the check,
    # so neither is built (nor is a list pair: tests/test_exact_inputs.py)
    with pytest.raises(InvalidDatum, match="numeric data must be a dict, got mappingproxy"):
        Rank2EqData(types.MappingProxyType({"a": (0, 1)}), DeterminantLift({"a": 1}, 1))
    good = flagged_class(1, [0, 1])
    with pytest.raises(InvalidDatum, match="summand support must be a frozenset, got set"):
        GradedPoint(tuple(GradedSummand(s.bar_degree, set(s.support)) for s in good.summands),
                    numeric=good.numeric, det=good.det)
    assert numeric_checks == []
    # every map field of a record that is built is read-only
    data = Rank2EqData({"a": (0, 1)}, DeterminantLift({"a": 1}, 1))
    records = [data, data.det, AdmissibleParabolicDatum(0, {"a": 0}, {"a": 1}),
               FlagSelector({"a": FIRST}), good]
    maps = [getattr(record, name) for record in records for name in record.__match_args__
            if isinstance(getattr(record, name), dict)]
    assert len(maps) == 6 and all(type(m) is FrozenDict for m in maps)


# the four records a validator marks, and each one's validator
MARKABLE = {DeterminantLift: validate_det, Rank2EqData: validate_rank2,
            AdmissibleParabolicDatum: validate_parabolic, GradedPoint: validate_graded}


def marked_outputs():
    """Each (output, profile) the mark tests check, built once: the
    correspondence, single, chained and closed-form modifications and lift
    negation over seeded profiles (n <= 24), every twist step over
    gen.twist_corpus, and the order-two lifts with every D(Q) and F(Q), g <= 5."""
    rng = random.Random(24)

    def modify(data, profile, y):
        return elementary_modification(data, profile, y.id, rng.choice((FIRST, SECOND)),
                                       inverse=rng.random() < 0.5)

    for _ in range(200):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        data = gen.random_data(rng, profile)
        yield to_parabolic(data, profile), profile
        drawn = gen.random_parabolic(rng, profile)
        chained = from_parabolic(drawn, profile)
        yield chained, profile
        for y in profile.orbits:
            yield modify(data, profile, y), profile
            chained = modify(chained, profile, y)
            yield chained, profile
        yield gamma_apply(data, profile, {y.id: rng.randint(-3, 3) for y in profile.orbits},
                          FlagSelector({y.id: rng.choice((FIRST, SECOND))
                                        for y in profile.orbits})), profile
        if profile.n % 2 == 0:
            yield zeta2_apply(chained, profile), profile
            yield parabolic_zeta2(drawn, profile), profile
    for profile, points, _ in gen.twist_corpus(25, 40):
        n = profile.n
        for pt in points:
            try:
                for a in range(1, n):
                    yield sim_o_step(pt, RootExponent(a, n), profile), profile
                    if n % 2 == 0 and a % 2 == 1:
                        for summand in (0, 1):
                            yield sim_e_step(pt, profile, a, summand), profile
            except NonIntegralDegree:
                pass  # the profile does not absorb the twists
    for g in range(1, 6):
        family = hyperelliptic_profile(g)
        for which, build in enumerate((double_class, flagged_class)):
            lift = hyperelliptic_delta(g, which)
            # shared: a check against an equal profile in another test moves its mark
            validate_det(lift, family)
            yield lift, family
            for q in gen.even_subsets(2 * g + 2):
                pt = build(g, q)
                assert pt.det is lift  # every class of a genus shares its lift
                yield pt, family


def test_every_marked_output_passes_its_validator_unmarked(numeric_checks):
    # the mark is trusted with no check, and earned: the output's copy without
    # it passes again, and a datum's or point's copy checks its pairs once
    for count, (out, profile) in enumerate(marked_outputs(), 1):
        validate = MARKABLE[type(out)]
        numeric_checks.clear()
        checked = validate(out, profile)
        assert numeric_checks == []
        assert validate(unmarked(out), profile) == checked
        assert len(numeric_checks) == (type(out) in (Rank2EqData, GradedPoint))
    assert count > 10_000  # 3,472 of them twist steps


def _raised(error, call, *args) -> str | None:
    """The message of the error call(*args) raises, or None when it raises
    none: pytest.raises at a tenth of its cost, for a dozen calls a record."""
    try:
        call(*args)
    except error as exc:
        return str(exc)
    return None


def _assert_a_marked_record(out, profile):
    """out is exactly a markable record class, immutable, marked for profile,
    and equal to cls(*fields)."""
    cls = type(out)
    assert cls in MARKABLE
    fields = [getattr(out, name) for name in cls.__match_args__]
    for name in (*cls.__match_args__, "_mark", "extra"):
        assert _raised(AttributeError, setattr, out, name, None) is not None, name
        assert _raised(AttributeError, delattr, out, name) is not None, name
    assert [getattr(out, name) for name in cls.__match_args__] == fields
    mark = out._mark
    if cls is AdmissibleParabolicDatum:
        mark, spreads = mark
        assert type(spreads) is FrozenDict
    assert mark is profile
    fresh = cls(*fields)
    assert fresh == out and repr(fresh) == repr(out)
    if cls is GradedPoint:
        assert hash(fresh) == hash(out)
    else:  # a record with a map field is unhashable, as its dataclass was
        for record in (fresh, out):
            assert _raised(TypeError, hash, record) == "unhashable type: 'FrozenDict'"
    clone = unmarked(out)
    assert type(clone) is cls and clone == out and clone._mark is None


def test_every_marked_output_is_exactly_its_record_class():
    # _new_marked builds each output as the record's slotted base and then
    # makes it the record; nothing of the base may show
    seen = dict.fromkeys(MARKABLE, 0)
    lifts = {}  # by id, kept alive: a genus's boundary classes share two lifts
    for out, profile in marked_outputs():
        records = [out]
        if type(out) in (Rank2EqData, GradedPoint) and id(out.det) not in lifts:
            records.append(lifts.setdefault(id(out.det), out.det))
        for record in records:
            _assert_a_marked_record(record, profile)
            seen[type(record)] += 1
    assert min(seen.values()) >= 20, seen


def test_the_family_profile_and_lifts_are_built_once_per_genus(child):
    for g in range(1, 6):
        profile = hyperelliptic_profile(g)
        assert hyperelliptic_profile(g) is profile
        for which in (0, 1):
            lift = hyperelliptic_delta(g, which)
            assert hyperelliptic_delta(g, which) is lift
            validate_det(unmarked(lift), profile)
    # a lift's mark moves to the last profile it was checked against (another
    # test checks these lifts against profiles parsed from JSON), so a fresh
    # process shows the marks they are built with
    code = ("from fixloc import hyperelliptic_delta, hyperelliptic_profile\n"
            "print(all(hyperelliptic_delta(g, which)._mark is hyperelliptic_profile(g)\n"
            "          for g in range(1, 6) for which in (0, 1)))\n")
    proc = child("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "True\n"), proc.stderr


def test_the_genus_cache_holds_no_entry_for_a_value_that_is_no_int():
    # fill the caches' entries of 1 first
    hyperelliptic_profile(1)
    hyperelliptic_delta(1, 1)
    double_class(1, [])
    for bad in (True, 1.0, [1]):
        with pytest.raises(InvalidGenus):
            hyperelliptic_profile(bad)
    for bad in (True, 1.0, [1]):
        with pytest.raises(InvalidGenus):
            hyperelliptic_delta(bad, 0)
        with pytest.raises(InvalidGenus):
            double_class(bad, [])
        with pytest.raises(InvalidGenus):
            flagged_class(bad, [])
    with pytest.raises(InvalidDatum, match="lift index must be 0 or 1, got True"):
        hyperelliptic_delta(1, True)


def test_the_marked_boundary_is_classed_as_its_unmarked_copy_and_unchecked(numeric_checks):
    for g in (1, 2, 3, 4):
        profile = hyperelliptic_profile(g)
        points = gen.boundary(g)
        classes = equivalence_classes(points, profile)
        assert numeric_checks == []
        copies = [unmarked(pt) for pt in points]
        assert equivalence_classes(copies, profile) == classes
        assert len(numeric_checks) == len(copies)
        # the first call marked the copies, so a second checks none
        assert equivalence_classes(copies, profile) == classes
        assert len(numeric_checks) == len(copies)
        numeric_checks.clear()


def test_building_the_g5_boundary_shares_its_lifts():
    # 4,096 points: 4.9 MB (1,201 bytes a point), against 8.2 MB when each
    # point carried a lift of its own and every flagged class its own pairs
    # (CPython 3.11.7, Intel Xeon)
    gen.boundary(5)  # builds the genus-5 family first
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        points = gen.boundary(5)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(points) == 4096
    assert kept < 6.5e6, f"{kept / 1e6:.2f} MB"
