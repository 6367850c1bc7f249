"""Inexact inputs are rejected with a typed error, never converted.

Every entry point that takes an integer rejects a float, a bool and a
string; one that takes a rational rejects those and also 0.1 and the
string '1/2', which Fraction() would have parsed.
"""

from fractions import Fraction

import pytest

from fixloc import (
    FIRST,
    AdmissibleParabolicDatum,
    DeterminantLift,
    FixlocError,
    FlagSelector,
    InconsistentDegrees,
    InvalidDatum,
    InvalidGenus,
    InvalidProfile,
    InvariantDivisor,
    Rank2EqData,
    SubbundleWitness,
    bar_delta_degree,
    double_class,
    elementary_modification,
    enumerate_lambda,
    flagged_class,
    from_parabolic,
    gamma_apply,
    hyperelliptic_report,
    make_bundle,
    make_profile,
    parabolic_zeta2,
    sim_e_step,
    slope_transfer_check,
    solve_d2,
    to_parabolic,
    unramified_census,
    validate_witness,
    weight_system,
    zeta2_apply,
)
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile

F = Fraction
HALF = F(1, 2)
P2 = make_profile(2, [("a", 1)])  # one orbit, n' = 2


def bundle(c=-1, d=-2, point=1, flag=(1, 1), weight=HALF):
    """A g = 1 bundle with the value under test at marked point 1."""
    return make_bundle(c, d, [0, point, 2, 3], [(1, 0), flag, (0, 1), (1, 2)],
                       [HALF, weight, HALF, HALF])


def datum(pair=(0, 1), residue=1, degree=1):
    """A datum over P2; the defaults descend to base degree 0."""
    return Rank2EqData({"a": pair}, DeterminantLift({"a": residue}, degree))


def parabolic(bar=0, d2=1):
    return AdmissibleParabolicDatum(bar, {"a": 0}, {"a": d2})


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
    ("to_parabolic pair entry", lambda x: to_parabolic(datum(pair=(0, x)), P2), InvalidDatum, 1),
    ("to_parabolic residue", lambda x: to_parabolic(datum(residue=x), P2), InvalidDatum, 1),
    ("to_parabolic det degree", lambda x: to_parabolic(datum(degree=x), P2), InvalidDatum, 1),
    ("zeta2_apply pair entries", lambda x: zeta2_apply(datum(pair=(x, x), residue=0, degree=0), P2),
     InvalidDatum, 0),
    ("solve_d2 residue", lambda x: solve_d2(DeterminantLift({"a": x}, 1), {"a": HALF}, P2),
     InvalidDatum, 1),
    ("enumerate_lambda residue", lambda x: enumerate_lambda(DeterminantLift({"a": x}, 0), P2),
     InvalidDatum, 1),
    ("from_parabolic d2", lambda x: from_parabolic(parabolic(d2=x), P2), InvalidDatum, 1),
    ("from_parabolic det_bar_degree", lambda x: from_parabolic(parabolic(bar=x), P2),
     InvalidDatum, 0),
    ("gamma_apply count", lambda x: gamma_apply(datum(), P2, {"a": x}, FlagSelector({"a": FIRST})),
     InvalidDatum, 1),
    ("slope_transfer_check sub_bar_degree", lambda x: slope_transfer_check(P2, parabolic(), x, []),
     InvalidDatum, 0),
    ("elementary_modification pair entry",
     lambda x: elementary_modification(datum(pair=(0, x)), P2, "a", FIRST), InvalidDatum, 1),
    ("elementary_modification det degree",
     lambda x: elementary_modification(datum(degree=x), P2, "a", FIRST), InvalidDatum, 1),
    ("weight_system pair entry", lambda x: weight_system({"a": (0, x)}, P2), InvalidDatum, 1),
    ("bar_delta_degree residue",
     lambda x: bar_delta_degree(DeterminantLift({"a": x}, 1), {"a": (0, 1)}, P2), InvalidDatum, 1),
    ("bar_delta_degree pair entry",
     lambda x: bar_delta_degree(DeterminantLift({"a": 1}, 1), {"a": (0, x)}, P2), InvalidDatum, 1),
    ("parabolic_zeta2 d2", lambda x: parabolic_zeta2(parabolic(d2=x), P2), InvalidDatum, 1),
    ("parabolic_zeta2 det_bar_degree", lambda x: parabolic_zeta2(parabolic(bar=x), P2),
     InvalidDatum, 0),
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
