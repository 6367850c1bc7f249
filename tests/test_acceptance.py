"""Acceptance suite: ten checks covering every capability of the package.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test also enforces its own wall-clock budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from fixloc import (
    FIRST,
    SECOND,
    DeterminantLift,
    FlagSelector,
    NonIntegralDegree,
    Rank2EqData,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    admissible_pairs,
    bar_delta_degree,
    elementary_modification,
    enumerate_lambda,
    factor_cover,
    flagged_class,
    from_parabolic,
    gamma_apply,
    gcd_orbit_lengths,
    graded_of,
    hyperelliptic_profile,
    hyperelliptic_report,
    kernel_order,
    m_cross,
    make_bundle,
    make_profile,
    parabolic_zeta2,
    slope_transfer_check,
    stability_classify,
    to_parabolic,
    unramified_census,
    zeta2_apply,
    zeta2_partition,
)
from fixloc.graded import hyperelliptic_delta

import gen
import oracle_stability as oracle


class budget:
    """Assert the block stays within its advertised wall-clock budget."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"exceeded {self.seconds}s budget: {elapsed:.2f}s")
        return False


def test_01_kernel_order_theorem_and_cover_factorization():
    with budget(1.0):
        rng = random.Random(2024)
        for _ in range(50):
            profile = gen.random_profile(rng)
            r = kernel_order(profile)
            assert r == gcd_orbit_lengths(profile)
            ramified, r2 = factor_cover(profile)
            assert r2 == r and ramified.n * r == profile.n
            if ramified.orbits:
                assert gcd_orbit_lengths(ramified) == 1
            for before, after in zip(profile.orbits, ramified.orbits):
                assert after.k * r == before.k and after.nprime == before.nprime
        # special cases: free action, unit orbit, common factor
        assert kernel_order(make_profile(10, [])) == 10
        assert kernel_order(hyperelliptic_profile(2)) == 1
        assert kernel_order(make_profile(12, [("a", 6), ("b", 4)])) == 2


def test_02_admissible_data_of_the_two_square_root_lifts():
    with budget(1.0):
        for g in range(1, 6):
            profile = hyperelliptic_profile(g)
            even_lift = hyperelliptic_delta(g, 0)
            odd_lift = hyperelliptic_delta(g, 1)
            assert len(enumerate_lambda(even_lift, profile)) == 2 ** (2 * g + 2)
            assert len(enumerate_lambda(odd_lift, profile)) == 1
            for y in profile.orbits:
                assert admissible_pairs(even_lift.residues[y.id], y.nprime) == \
                    [(0, 0), (1, 1)]
                assert admissible_pairs(odd_lift.residues[y.id], y.nprime) == [(0, 1)]


def test_03_parabolic_correspondence_is_a_bijection():
    with budget(10.0):
        rng = random.Random(31415)
        cases = []
        for _ in range(20):
            profile = gen.random_profile(rng, max_n=12, max_orbits=4)
            cases.append((profile, gen.random_det(rng, profile)))
        # and a fixed n = 8 profile over a genus-1 base, three stabilizer orders
        profile = make_profile(8, [("a", 2), ("b", 4), ("c", 1)], genus_base=1)
        cases.append((profile, gen.random_det(random.Random(5), profile)))
        for profile, det in cases:
            assert (det.degree - sum(det.residues[y.id] * y.k
                                     for y in profile.orbits)) % profile.n == 0
            for numeric in enumerate_lambda(det, profile):
                data = Rank2EqData(numeric=numeric, det=det)
                pdat = to_parabolic(data, profile)
                assert from_parabolic(pdat, profile) == data
                assert to_parabolic(from_parabolic(pdat, profile), profile) == pdat


def test_04_closed_form_modification_matches_iteration():
    with budget(5.0):
        rng = random.Random(27182)
        for _ in range(1000):
            profile = gen.random_profile(rng)
            data = gen.random_data(rng, profile)
            m = {y.id: rng.randint(-4, 4) for y in profile.orbits}
            flags = FlagSelector(choice={y.id: rng.choice([FIRST, SECOND])
                                         for y in profile.orbits})
            # route one: the closed form
            image = gamma_apply(data, profile, m, flags)
            # route two: single steps, re-locating the tracked eigenvalue
            current = data
            for y in profile.orbits:
                my = m[y.id]
                if my == 0:
                    continue
                side = flags.choice[y.id]
                track = current.numeric[y.id][0 if side == FIRST else 1]
                for _ in range(abs(my)):
                    d1c, _d2c = current.numeric[y.id]
                    direction = FIRST if d1c == track else SECOND
                    current = elementary_modification(current, profile, y.id,
                                                      direction, inverse=my < 0)
            assert image == current
            # and the closed form undoes itself with the opposite counts
            back_choice = {}
            for y in profile.orbits:
                side = flags.choice[y.id]
                kept = data.numeric[y.id][0 if side == FIRST else 1]
                back_choice[y.id] = FIRST if image.numeric[y.id][0] == kept else SECOND
            back = gamma_apply(image, profile, {k: -v for k, v in m.items()},
                               FlagSelector(choice=back_choice))
            assert back == data


def test_05_slope_inequality_transfers_exactly():
    with budget(5.0):
        rng = random.Random(16180)
        for _ in range(1000):
            profile = gen.random_profile(rng)
            data = gen.random_data(rng, profile)
            pdat = to_parabolic(data, profile)
            sub = rng.randint(-5, 5)
            agr = [y.id for y in profile.orbits if rng.random() < 0.5]
            lhs, rhs = slope_transfer_check(profile, pdat, sub, agr)
            assert lhs == rhs


def test_06_lift_negation_involution_and_descent():
    with budget(5.0):
        rng = random.Random(14142)
        for _ in range(1000):
            profile = gen.random_profile(rng, even_n=True)
            data = gen.random_data(rng, profile)
            assert zeta2_apply(zeta2_apply(data, profile), profile) == data
        # an even kernel forces every orbit to sit still
        found = 0
        while found < 25:
            profile = gen.random_profile(rng, even_n=True)
            if kernel_order(profile) % 2 != 0:
                continue
            data = gen.random_data(rng, profile)
            assert sum(m_cross(data.numeric, profile).values()) == 0
            assert set(zeta2_partition(data.numeric, profile).values()) <= {"fixed"}
            found += 1
        # negation commutes with the correspondence on the whole order-two family
        g = 2
        profile = hyperelliptic_profile(g)
        for which in (0, 1):
            det0 = hyperelliptic_delta(g, which)
            for bar in (-1, 0, 1):
                det = DeterminantLift(residues=det0.residues,
                                      degree=det0.degree + profile.n * bar,
                                      lift_sign=det0.lift_sign)
                for numeric in enumerate_lambda(det, profile):
                    data = Rank2EqData(numeric=numeric, det=det)
                    left = to_parabolic(zeta2_apply(data, profile), profile)
                    right = parabolic_zeta2(to_parabolic(data, profile), profile)
                    assert left == right


def test_07_fixed_component_census_of_the_order_two_family():
    with budget(5.0):
        rep2 = hyperelliptic_report(2)
        assert [(c.c, c.dimension, len(c.boundary_classes), c.normal)
                for c in rep2.components] == [(-1, 3, 16, True)]
        assert rep2.boundary_class_count == 16
        rep3 = hyperelliptic_report(3)
        assert {c.c: c.dimension for c in rep3.components} == {-2: 5, -1: 4}
        assert all(c.normal for c in rep3.components)
        pairwise = {key: len(shared)
                    for key, shared in rep3.pairwise_intersections.items()}
        assert pairwise == {("c=-2", "c=-1"): 29}
        assert rep3.global_intersection == frozenset({frozenset()})
        # membership predicate, exhaustively for small genus
        for g in (1, 2, 3):
            rep = hyperelliptic_report(g, with_classes=False)
            npoints = 2 * g + 2
            for comp in rep.components:
                threshold = -2 * comp.c
                for size in range(0, npoints + 1, 2):
                    for q in itertools.combinations(range(npoints), size):
                        q = frozenset(q)
                        comp_q = frozenset(range(npoints)) - q
                        if size <= threshold:
                            assert q in comp.boundary_classes or \
                                comp_q in comp.boundary_classes
                for q in comp.boundary_classes:
                    assert len(q) % 2 == 0 and len(q) <= threshold


def test_08_stability_classifier_agrees_with_brute_force():
    with budget(60.0):
        rng = random.Random(97)
        for _ in range(200):
            g, c = rng.choice([(2, -1), (3, -1), (3, -2)])
            bundle = gen.random_bundle(rng, g, c)
            assert stability_classify(bundle, g).label == oracle.oracle_classify(bundle)
        # every flag along the larger summand: that summand destabilizes
        pts = list(range(6))
        all_first = make_bundle(-1, -3, pts, [(1, 0)] * 6, [Fraction(1, 2)] * 6)
        assert stability_classify(all_first, 2).label == UNSTABLE
        # a four-two flag split balances exactly and its graded object is
        # the matching flagged boundary class
        flags = [(Fraction(i), Fraction(1)) for i in range(4)] + [(1, 0), (1, 0)]
        balanced = make_bundle(-1, -3, pts, flags, [Fraction(1, 2)] * 6)
        verdict = stability_classify(balanced, 2)
        assert verdict.label == STRICTLY_SEMISTABLE
        graded = graded_of(balanced, verdict)
        shape = {(s.bar_degree, frozenset(int(str(i)) for i in s.support))
                 for s in graded.summands}
        expected = flagged_class(2, frozenset({4, 5}))
        expected_shape = {(s.bar_degree, frozenset(int(label[1:]) for label in s.support))
                          for s in expected.summands}
        assert shape == expected_shape


def test_09_free_action_component_structure():
    with budget(1.0):
        assert unramified_census(3, 9, 2).case == "n odd, determinant degree odd"
        assert unramified_census(3, 6, 2).case == "n odd, determinant degree even"
        assert unramified_census(4, 12, 2).case == "n even, reduced degree odd"
        assert unramified_census(4, 8, 2).case == "n even, reduced degree even"
        assert [(c.kind, c.count) for c in unramified_census(4, 8, 2).components] == \
            [("kummer", 4), ("pic0_quotient", 1)]
        assert [(c.kind, c.count) for c in unramified_census(4, 12, 2).components] == \
            [("prym", 2)]


def test_10_degree_divisibility_guard():
    with budget(1.0):
        rng = random.Random(271)
        for _ in range(300):
            profile = gen.random_profile(rng)
            data = gen.random_data(rng, profile)
            # admissible data always descends
            bar = bar_delta_degree(data.det, data.numeric, profile)
            assert profile.n * bar + sum(
                sum(data.numeric[y.id]) * y.k for y in profile.orbits) == data.det.degree
            if profile.n == 1:
                continue
            corrupted = DeterminantLift(residues=data.det.residues,
                                        degree=data.det.degree + 1,
                                        lift_sign=data.det.lift_sign)
            with pytest.raises(NonIntegralDegree):
                bar_delta_degree(corrupted, data.numeric, profile)
