"""Cover profiles: kernel order, factorization, serialization."""

import math
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from fixloc import (
    InvalidProfile,
    SchemaError,
    factor_cover,
    gcd_orbit_lengths,
    kernel_order,
    make_profile,
    orbit_length_under_power,
    profile_from_json,
    profile_to_json,
)

import gen


def test_kernel_order_matches_gcd_route():
    rng = random.Random(101)
    for _ in range(50):
        profile = gen.random_profile(rng)
        assert kernel_order(profile) == gcd_orbit_lengths(profile)


def test_kernel_order_no_orbits_is_full():
    # with nothing ramified the whole cover is unramified
    for n in (1, 2, 5, 12):
        profile = make_profile(n, [])
        assert kernel_order(profile) == n


def test_kernel_order_unit_orbit_kills_kernel():
    profile = make_profile(12, [("a", 6), ("b", 1)])
    assert kernel_order(profile) == 1


def test_kernel_order_common_divisor():
    profile = make_profile(12, [("a", 6), ("b", 4)])
    assert kernel_order(profile) == math.gcd(12, math.gcd(6, 4))
    assert kernel_order(profile) == 2


def test_kernel_order_is_sublinear_in_n():
    # a scan over every t <= n would take hours at n = 10**12
    profile = make_profile(10 ** 12, [("a", 2 ** 10)])
    start = time.monotonic()
    assert kernel_order(profile) == 2 ** 10
    assert time.monotonic() - start < 2.0
    # a prime n has only the trivial divisor pair below sqrt(n)
    assert kernel_order(make_profile(1_000_003, [])) == 1_000_003
    assert kernel_order(make_profile(1_000_003, [("a", 1)])) == 1


def test_factor_cover_splits_degree():
    rng = random.Random(202)
    for _ in range(50):
        profile = gen.random_profile(rng)
        ramified, r = factor_cover(profile)
        assert r == kernel_order(profile)
        assert ramified.n * r == profile.n
        # after the split nothing further descends
        if ramified.orbits:
            assert kernel_order(ramified) == 1
            assert gcd_orbit_lengths(ramified) == 1
        for before, after in zip(profile.orbits, ramified.orbits):
            assert after.id == before.id
            assert after.k * r == before.k
            assert after.nprime == before.nprime


def test_factor_cover_intermediate_genus():
    profile = make_profile(6, [("a", 2), ("b", 2)], genus_base=3)
    ramified, r = factor_cover(profile)
    assert r == 2
    assert ramified.genus_base == 2 * (3 - 1) + 1
    flat = make_profile(4, [], genus_base=0)
    assert factor_cover(flat)[0].genus_base == 0  # floored for unrealizable input


def test_orbit_length_under_power():
    assert orbit_length_under_power(6, 1) == 6
    assert orbit_length_under_power(6, 2) == 3
    assert orbit_length_under_power(6, 4) == 3
    assert orbit_length_under_power(6, 6) == 1
    assert orbit_length_under_power(1, 5) == 1
    with pytest.raises(InvalidProfile):
        orbit_length_under_power(0, 1)
    with pytest.raises(InvalidProfile):
        orbit_length_under_power(6, 0)


def test_make_profile_rejections():
    with pytest.raises(InvalidProfile):
        make_profile(6, [("a", 4)])  # 4 does not divide 6
    with pytest.raises(InvalidProfile):
        make_profile(6, [("a", 6)])  # full-length orbit carries no data
    with pytest.raises(InvalidProfile):
        make_profile(6, [("a", 2), ("a", 3)])  # duplicate label
    with pytest.raises(InvalidProfile):
        make_profile(0, [])
    with pytest.raises(InvalidProfile):
        make_profile(6, [], genus_base=-1)


def test_profile_json_round_trip():
    rng = random.Random(303)
    for _ in range(20):
        profile = gen.random_profile(rng)
        assert profile_from_json(profile_to_json(profile)) == profile


def test_profile_json_rejections():
    with pytest.raises(SchemaError):
        profile_from_json({"n": 2, "orbits": [], "spurious": 1})
    with pytest.raises(SchemaError):
        profile_from_json({"n": True, "orbits": []})
    with pytest.raises(SchemaError):
        profile_from_json({"n": 2})
    with pytest.raises(SchemaError):
        profile_from_json({"n": 2, "orbits": [{"id": "a"}]})
    with pytest.raises(SchemaError):
        profile_from_json({"n": 2, "orbits": [{"id": "a", "k": 1, "x": 0}]})
    with pytest.raises(SchemaError):
        profile_from_json([1, 2])


@st.composite
def profiles(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    divisors = [k for k in range(1, n) if n % k == 0]
    if divisors:
        ks = draw(st.lists(st.sampled_from(divisors), max_size=5))
    else:
        ks = []
    return make_profile(n, [(f"y{i}", k) for i, k in enumerate(ks)],
                        genus_base=draw(st.integers(min_value=0, max_value=4)))


@given(profiles())
def test_kernel_divides_everything(profile):
    r = kernel_order(profile)
    assert profile.n % r == 0
    for y in profile.orbits:
        assert y.k % r == 0


@given(profiles())
def test_factorization_is_terminal(profile):
    ramified, r = factor_cover(profile)
    again, r2 = factor_cover(ramified)
    if ramified.orbits:
        assert r2 == 1
        assert again == ramified
    else:
        assert r2 == ramified.n


def test_orbit_index_stays_out_of_equality_hash_and_json():
    lengths = [("a", 1), ("b", 4), ("c", 6)]
    fresh = make_profile(12, lengths, genus_base=2)
    used = make_profile(12, lengths, genus_base=2)
    doc = profile_to_json(used)
    assert used.orbit("b") is used.orbits[1]
    assert used.orbit_ids() == ("a", "b", "c")
    assert list(used.orbit_index) == ["a", "b", "c"]
    assert "orbit_index" in vars(used) and "orbit_index" not in vars(fresh)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert profile_to_json(used) == doc == profile_to_json(fresh)
    assert pickle.loads(pickle.dumps(used)) == fresh
    with pytest.raises(KeyError):
        used.orbit("z")
