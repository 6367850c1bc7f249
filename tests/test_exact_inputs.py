"""Inexact inputs are rejected with a typed error, never converted.

Every entry point that takes an integer rejects a float, a bool and a
string; one that takes a rational rejects those and also 0.1 and the
string '1/2', which Fraction() would have parsed.
"""

from fractions import Fraction

import pytest

from fixloc import (
    FixlocError,
    InconsistentDegrees,
    InvalidDatum,
    InvalidGenus,
    InvalidProfile,
    InvariantDivisor,
    SubbundleWitness,
    double_class,
    flagged_class,
    hyperelliptic_report,
    make_bundle,
    make_profile,
    sim_e_step,
    unramified_census,
    validate_witness,
)
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile

F = Fraction
HALF = F(1, 2)


def bundle(c=-1, d=-2, point=1, flag=(1, 1), weight=HALF):
    """A g = 1 bundle with the value under test at marked point 1."""
    return make_bundle(c, d, [0, point, 2, 3], [(1, 0), flag, (0, 1), (1, 2)],
                       [HALF, weight, HALF, HALF])


def witness(coeff):
    # the section (coeff, 0) spans O(c), which agrees with the flag (1, 0) at point 0
    return validate_witness(bundle(), SubbundleWitness(e=-1, p_coeffs=(coeff,), q_coeffs=(),
                                                       agreement=frozenset({0})))


# (entry point and argument, call with the value, its error, an exact value
# the call accepts); an entry whose exact value is a Fraction takes a rational
ENTRIES = [
    ("make_profile n", lambda x: make_profile(x, [("a", 1)]), InvalidProfile, 2),
    ("make_profile orbit length", lambda x: make_profile(4, [("a", x)]), InvalidProfile, 2),
    ("InvariantDivisor residue", lambda x: InvariantDivisor({"a": x}, 0), InvalidDatum, 1),
    ("InvariantDivisor base degree", lambda x: InvariantDivisor({"a": 1}, x), InvalidDatum, 0),
    ("double_class genus", lambda x: double_class(x, [0, 1]), InvalidGenus, 1),
    ("double_class index", lambda x: double_class(1, [0, x]), InvalidDatum, 1),
    ("flagged_class genus", lambda x: flagged_class(x, [0, 1]), InvalidGenus, 1),
    ("flagged_class index", lambda x: flagged_class(1, [0, x]), InvalidDatum, 1),
    ("hyperelliptic_profile genus", hyperelliptic_profile, InvalidGenus, 1),
    ("hyperelliptic_report genus", hyperelliptic_report, InvalidGenus, 1),
    ("hyperelliptic_delta genus", lambda x: hyperelliptic_delta(x, 0), InvalidGenus, 1),
    ("hyperelliptic_delta lift index", lambda x: hyperelliptic_delta(1, x), InvalidDatum, 1),
    ("sim_e_step summand", lambda x: sim_e_step(flagged_class(1, [0, 1]), hyperelliptic_profile(1),
                                                summand=x), InvalidDatum, 1),
    ("unramified_census n", lambda x: unramified_census(x, 4, 0), InconsistentDegrees, 4),
    ("unramified_census deg_delta", lambda x: unramified_census(4, x, 0), InconsistentDegrees, 8),
    ("unramified_census genus_base", lambda x: unramified_census(4, 8, x), InvalidGenus, 1),
    ("make_bundle c", lambda x: bundle(c=x), InvalidDatum, -1),
    ("make_bundle d", lambda x: bundle(d=x), InvalidDatum, -2),
    ("make_bundle point", lambda x: bundle(point=x), InvalidDatum, F(1, 2)),
    ("make_bundle flag entry a", lambda x: bundle(flag=(x, 1)), InvalidDatum, F(1, 2)),
    ("make_bundle flag entry b", lambda x: bundle(flag=(1, x)), InvalidDatum, F(1, 2)),
    ("make_bundle weight", lambda x: bundle(weight=x), InvalidDatum, F(1, 3)),
    ("validate_witness coefficient", witness, InvalidDatum, F(1, 2)),
]

INEXACT = (1.0, True, "1")
INEXACT_RATIONALS = (0.1, "1/2")


@pytest.mark.parametrize("call, bad, error", [
    pytest.param(call, bad, error, id=f"{name}={bad!r}")
    for name, call, error, good in ENTRIES
    for bad in INEXACT + (INEXACT_RATIONALS if isinstance(good, Fraction) else ())])
def test_an_inexact_input_raises_a_typed_error(call, bad, error):
    with pytest.raises(FixlocError) as info:
        call(bad)
    assert isinstance(info.value, error), repr(info.value)


@pytest.mark.parametrize("call, good", [pytest.param(call, good, id=name)
                                        for name, call, _, good in ENTRIES])
def test_the_exact_value_is_accepted(call, good):
    call(good)


@pytest.mark.parametrize("n", ["x", None])
def test_a_cover_order_that_is_no_number_raises_invalid_profile(n):
    # n % k would raise a bare TypeError
    with pytest.raises(InvalidProfile, match=f"cover order must be a positive integer, got {n!r}"):
        make_profile(n, [("a", 1)])
