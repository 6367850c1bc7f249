"""Root-of-unity scalars and invariant divisor residues."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from fixloc import (
    InvalidDatum,
    InvariantDivisor,
    OddOrder,
    RootExponent,
    SchemaError,
    UnknownOrbit,
    d_mu,
    degree_on_X,
    divisor_from_json,
    divisor_to_json,
    is_pullback,
    make_profile,
    minus_one,
    norm_degree_check,
    numeric_data,
    unit_root,
)

PROFILE = make_profile(12, [("a", 1), ("b", 4), ("c", 6)], genus_base=2)


def test_root_exponent_normalizes():
    assert RootExponent(-1, 12).a == 11
    assert RootExponent(25, 12).a == 1
    assert unit_root(7, 12) == RootExponent(7, 12)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 30))
def test_root_exponent_group_laws(a, b, n):
    x, y = RootExponent(a, n), RootExponent(b, n)
    assert x.mul(y) == y.mul(x)
    assert x.mul(x.inverse()).a == 0
    assert x.power(3) == x.mul(x).mul(x)


def test_minus_one_squares_to_identity():
    m = minus_one(12)
    assert m.a == 6
    assert m.mul(m).a == 0
    with pytest.raises(OddOrder):
        minus_one(7)


def test_scalar_guards_raise_typed_errors():
    with pytest.raises(InvalidDatum):
        RootExponent(1, 0)
    with pytest.raises(InvalidDatum):
        RootExponent(1, 12).mul(RootExponent(1, 6))
    assert d_mu(RootExponent(1, 6), PROFILE.orbit("b")) == 1  # n'=3 divides 6
    with pytest.raises(InvalidDatum):
        d_mu(RootExponent(1, 4), PROFILE.orbit("b"))  # n'=3 does not divide 4


def test_a_root_exponent_needs_int_exponent_and_modulus():
    # a float or a bool would pass the modulus test and reduce to a float
    # or bool exponent
    for a, modulus in [(1.0, 2), (1, 2.0), (True, 2), (1, True), (F(1), 2), (1, F(2))]:
        with pytest.raises(InvalidDatum, match="int exponent and modulus"):
            RootExponent(a, modulus)
    assert RootExponent(3, 2) == RootExponent(1, 2)


def test_d_mu_reduces_per_orbit():
    mu = unit_root(7, 12)
    by_orbit = {y.id: d_mu(mu, y) for y in PROFILE.orbits}
    assert by_orbit == {"a": 7, "b": 1, "c": 1}


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_d_mu_is_multiplicative(a, b):
    x, y = RootExponent(a, 12), RootExponent(b, 12)
    for orbit in PROFILE.orbits:
        assert d_mu(x.mul(y), orbit) == (d_mu(x, orbit) + d_mu(y, orbit)) % orbit.nprime


def test_degree_on_X():
    div = InvariantDivisor(residues={"a": 3, "c": -1}, base_degree=2)
    assert degree_on_X(div, PROFILE) == 3 * 1 + (-1) * 6 + 12 * 2
    with pytest.raises(UnknownOrbit):
        degree_on_X(InvariantDivisor(residues={"zz": 1}, base_degree=0), PROFILE)
    # the first unknown label in residue order is the one reported
    for residues, first in (({"zz": 1, "yy": 2}, "zz"), ({"a": 1, "yy": 2, "zz": 3}, "yy")):
        with pytest.raises(UnknownOrbit) as caught:
            degree_on_X(InvariantDivisor(residues=residues, base_degree=0), PROFILE)
        assert caught.value.args == (first,)


def test_numeric_data_reduces_mod_stabilizer():
    div = InvariantDivisor(residues={"a": 13, "b": -1, "c": 4}, base_degree=5)
    nd = numeric_data(div, PROFILE)
    assert nd.values == {"a": 13 % 12, "b": (-1) % 3, "c": 4 % 2}
    with pytest.raises(UnknownOrbit):
        numeric_data(InvariantDivisor(residues={"zz": 1}, base_degree=0), PROFILE)
    for residues, first in (({"zz": 1, "yy": 2}, "zz"), ({"a": 1, "yy": 2, "zz": 3}, "yy")):
        with pytest.raises(UnknownOrbit) as caught:
            numeric_data(InvariantDivisor(residues=residues, base_degree=0), PROFILE)
        assert caught.value.args == (first,)


def test_is_pullback():
    assert is_pullback(InvariantDivisor(residues={"a": 12, "b": 6, "c": 4}, base_degree=7), PROFILE)
    assert not is_pullback(InvariantDivisor(residues={"a": 12, "b": 6, "c": 3}, base_degree=7), PROFILE)
    assert is_pullback(InvariantDivisor(residues={}, base_degree=-2), PROFILE)


def test_pullback_degree_matches_reduction():
    # a pullback's upstairs degree is n times its base degree
    base = 3
    div = InvariantDivisor(residues={}, base_degree=base)
    assert degree_on_X(div, PROFILE) == norm_degree_check(base, PROFILE) == 36


def test_divisor_json_round_trip():
    div = InvariantDivisor(residues={"a": -2, "b": 5}, base_degree=-1)
    assert divisor_from_json(divisor_to_json(div)) == div


def test_divisor_json_rejections():
    with pytest.raises(SchemaError):
        divisor_from_json({"residues": {}, "base_degree": 0, "x": 1})
    with pytest.raises(SchemaError):
        divisor_from_json({"residues": {"a": True}, "base_degree": 0})
    with pytest.raises(SchemaError):
        divisor_from_json({"residues": []})
    with pytest.raises(SchemaError):
        divisor_from_json(3)
