"""Validity marks: a record checked against a profile is not checked again.

A validator marks a record that passed it with the profile object it was
checked against, and the operations build their outputs already marked,
so a chain of operations validates only its first input.  The tests
count calls to `equivariant.validate_numeric`, which every check of a
datum's exponent pairs runs, and check that each mark is earned: an
output with its mark stripped passes the validators again.
"""

import itertools
import pickle
import random
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
    Rank2EqData,
    double_class,
    elementary_modification,
    equivalence_classes,
    equivariant,
    flagged_class,
    from_parabolic,
    gamma_apply,
    hyperelliptic_profile,
    make_profile,
    parabolic_zeta2,
    to_parabolic,
    zeta2_apply,
)
from fixloc._ser import FrozenDict
from fixloc.equivariant import round_trip, validate_parabolic, validate_rank2
from fixloc.graded import validate_graded

import gen


def profile12():
    return make_profile(12, {"a": 4, "b": 6, "c": 3})


@pytest.fixture
def numeric_checks(count_calls) -> list:
    """The arguments of each call of equivariant.validate_numeric."""
    return count_calls(equivariant, "validate_numeric")


def boundary(g):
    """The double and flagged classes of every even subset."""
    subsets = [q for size in range(0, 2 * g + 3, 2)
               for q in itertools.combinations(range(2 * g + 2), size)]
    return [double_class(g, q) for q in subsets] + [flagged_class(g, q) for q in subsets]


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
    profile = hyperelliptic_profile(2)
    point = flagged_class(2, [0, 1])
    assert equivalence_classes([point], profile) == equivalence_classes([point], profile)
    assert len(numeric_checks) == 1
    points = boundary(2)
    first = equivalence_classes(points, profile)
    assert len(numeric_checks) == 1 + len(points)
    assert equivalence_classes(points, profile) == first
    assert len(numeric_checks) == 1 + len(points)


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
    point = flagged_class(1, [0, 1])
    validate_graded(point, hyperelliptic_profile(1))
    validate_graded(point, hyperelliptic_profile(1))
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


def test_every_marked_output_passes_its_validator_unmarked():
    rng = random.Random(24)
    for _ in range(200):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        data = gen.random_data(rng, profile)
        upstairs = [elementary_modification(data, profile, y.id, rng.choice((FIRST, SECOND)),
                                            inverse=rng.random() < 0.5)
                    for y in profile.orbits]
        upstairs.append(gamma_apply(data, profile, {y.id: rng.randint(-3, 3) for y in profile.orbits},
                                    FlagSelector({y.id: rng.choice((FIRST, SECOND))
                                                  for y in profile.orbits})))
        pdat = gen.random_parabolic(rng, profile)
        upstairs.append(from_parabolic(pdat, profile))
        downstairs = [to_parabolic(data, profile)]
        if profile.n % 2 == 0:
            upstairs.append(zeta2_apply(data, profile))
            downstairs.append(parabolic_zeta2(pdat, profile))
        for out in upstairs:
            assert out._mark is profile and out.det._mark is profile
            validate_rank2(unmarked(out), profile)
        for out in downstairs:
            checked, spreads = out._mark
            assert checked is profile and type(spreads) is FrozenDict
            assert validate_parabolic(unmarked(out), profile) == spreads
