"""Graded points, twist dynamics, lift negation, component reports."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    DeterminantLift,
    DomainError,
    FixlocError,
    GradedPoint,
    GradedSummand,
    InconsistentDegrees,
    InvalidDatum,
    InvalidGenus,
    NonIntegralDegree,
    OddOrder,
    Rank2EqData,
    RootExponent,
    decomposition_report,
    double_class,
    equivalence_classes,
    flagged_class,
    hyperelliptic_report,
    kernel_order,
    m_cross,
    make_profile,
    parabolic_zeta2,
    profile_from_json,
    s_i_possible,
    sim_e_step,
    sim_o_step,
    to_parabolic,
    unramified_census,
    zeta2_apply,
    zeta2_partition,
)
from fixloc import equivariant, locus
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile, validate_graded

import gen
from gen import twist_corpus

sys.path.insert(0, str(Path(__file__).resolve().parent / "fixtures"))
from record_twist_closure import (  # noqa: E402
    FIXTURE as TWIST_CLOSURE, _point, evaluate, load, render)
import record_twist_partition  # noqa: E402


def upstairs_degrees(pt, profile):
    out = []
    for index in (0, 1):
        supp = pt.summands[index].support
        total = profile.n * pt.summands[index].bar_degree
        for y in profile.orbits:
            d1, d2 = pt.numeric[y.id]
            total += y.k * (d2 if y.id in supp else d1)
        out.append(total)
    return out


def boundary_points(g):
    """Double and flagged classes of every even subset: the semistable boundary."""
    all_even = [frozenset(q) for size in range(0, 2 * g + 3, 2)
                for q in itertools.combinations(range(2 * g + 2), size)]
    points = [double_class(g, q) for q in all_even]
    return points + list({flagged_class(g, q) for q in all_even})


def test_graded_point_is_unordered():
    s0 = GradedSummand(-1, frozenset({"a"}))
    s1 = GradedSummand(2, frozenset({"b"}))
    assert GradedPoint((s0, s1)) == GradedPoint((s1, s0))
    assert hash(GradedPoint((s0, s1))) == hash(GradedPoint((s1, s0)))
    with pytest.raises(InvalidDatum):
        GradedPoint((s0,))



def test_equal_points_built_by_different_routes_hash_equal():
    g = 2
    profile = hyperelliptic_profile(g)
    for q in ([], [0, 1], [1, 2, 4, 5]):
        point = flagged_class(g, q)
        det = point.det
        by_hand = GradedPoint(
            tuple(reversed(point.summands)),
            numeric=dict(reversed(point.numeric.items())),
            det=DeterminantLift(residues=dict(reversed(det.residues.items())),
                                degree=det.degree, lift_sign=det.lift_sign))
        crossed = [sim_e_step(double_class(g, q), profile, 1, summand) for summand in (0, 1)]
        for other in (by_hand, *crossed):
            assert other == point and hash(other) == hash(point)


def test_distinct_boundary_points_hash_apart():
    # the g = 5 boundary: double classes with equal |Q| differ only in their
    # exponent pairs, so a hash that left them out would collide
    points = set(boundary_points(5))
    assert len(points) == 3072
    assert len({hash(pt) for pt in points}) == len(points)

def _child(code, hash_seed, *args):
    """stdout of a fresh interpreter on the package source, under a fixed hash seed."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_graded_point_reprs_stay_the_same():
    # recorded while GradedPoint was a hand-written class; the hash seed fixes
    # the order in which a support's frozenset prints
    code = ("from fixloc import double_class, flagged_class\n"
            "print(repr(double_class(1, [0, 1])))\nprint(repr(flagged_class(1, [0, 1])))")
    assert _child(code, 0).splitlines() == [
        "GradedPoint(summands=(GradedSummand(bar_degree=-1, support=frozenset()), "
        "GradedSummand(bar_degree=-1, support=frozenset())), numeric={'p0': (1, 1), "
        "'p1': (1, 1), 'p2': (0, 0), 'p3': (0, 0)}, det=DeterminantLift(residues={'p0': 0, "
        "'p1': 0, 'p2': 0, 'p3': 0}, degree=0, lift_sign='+'))",
        "GradedPoint(summands=(GradedSummand(bar_degree=-1, support=frozenset({'p1', 'p0'})), "
        "GradedSummand(bar_degree=-1, support=frozenset({'p3', 'p2'}))), numeric={'p0': (0, 1), "
        "'p1': (0, 1), 'p2': (0, 1), 'p3': (0, 1)}, det=DeterminantLift(residues={'p0': 1, "
        "'p1': 1, 'p2': 1, 'p3': 1}, degree=0, lift_sign='-'))",
    ]


def test_a_point_pickled_under_one_hash_seed_equals_a_fresh_one_under_another(tmp_path):
    path = tmp_path / "point.pickle"
    _child("import pickle, sys\nfrom fixloc import flagged_class\n"
           "pt = flagged_class(2, [0, 1])\nhash(pt)\n"
           "with open(sys.argv[1], 'wb') as f:\n    pickle.dump(pt, f)", 1, path)
    out = _child("import pickle, sys\nfrom fixloc import flagged_class\n"
                 "with open(sys.argv[1], 'rb') as f:\n    pt = pickle.load(f)\n"
                 "fresh = flagged_class(2, [0, 1])\nprint(pt == fresh, pt in {fresh})", 2, path)
    assert out.split() == ["True", "True"]


def test_a_graded_point_cannot_be_reassigned():
    pt = flagged_class(1, [0, 1])
    hash(pt)
    for name, value in [("summands", ()), ("numeric", None), ("det", None)]:
        with pytest.raises(AttributeError):
            setattr(pt, name, value)
    assert pt == flagged_class(1, [0, 1])


def test_validate_graded_rejections():
    profile = make_profile(2, [("a", 1), ("b", 1)])
    det = DeterminantLift(residues={"a": 1, "b": 1}, degree=2)
    numeric = {"a": (0, 1), "b": (0, 1)}
    good = GradedPoint(
        (GradedSummand(0, frozenset({"a"})), GradedSummand(0, frozenset({"b"}))),
        numeric=numeric, det=det)
    validate_graded(good, profile)
    with pytest.raises(InvalidDatum):
        validate_graded(GradedPoint(good.summands), profile)  # no context
    overlap = GradedPoint(
        (GradedSummand(0, frozenset({"a", "b"})), GradedSummand(0, frozenset({"b"}))),
        numeric=numeric, det=det)
    with pytest.raises(InvalidDatum):
        validate_graded(overlap, profile)
    unequal = GradedPoint(
        (GradedSummand(0, frozenset({"a"})), GradedSummand(-1, frozenset({"b"}))),
        numeric=numeric, det=det)
    with pytest.raises(InvalidDatum):
        validate_graded(unequal, profile)


def test_opposite_twist_round_trip_and_invariants():
    rng = random.Random(31)
    for _ in range(60):
        profile, pt = gen.sample_graded(rng)
        degrees = sorted(upstairs_degrees(pt, profile))
        for a in range(profile.n):
            mu = RootExponent(a, profile.n)
            try:
                moved = sim_o_step(pt, mu, profile)
            except NonIntegralDegree:
                continue  # profile cannot absorb this twist at degree level
            assert sorted(upstairs_degrees(moved, profile)) == degrees
            assert moved.det == pt.det
            # the summands are unordered, so the inverse twist undoes the
            # step up to which slot the canonical order hands it
            assert pt in (sim_o_step(moved, mu.inverse(), profile),
                          sim_o_step(moved, mu, profile))


def test_opposite_twist_unabsorbable_degree():
    profile = make_profile(4, [("a", 1)])
    det = DeterminantLift(residues={"a": 2}, degree=2)
    pt = GradedPoint(
        (GradedSummand(0, frozenset()), GradedSummand(0, frozenset())),
        numeric={"a": (1, 1)}, det=det)
    validate_graded(pt, profile)
    with pytest.raises(NonIntegralDegree):
        sim_o_step(pt, RootExponent(1, 4), profile)


def test_crossing_twist_requires_even_order_and_odd_exponent():
    profile = make_profile(3, [("a", 1)])
    det = DeterminantLift(residues={"a": 1}, degree=1)
    pt = GradedPoint(
        (GradedSummand(0, frozenset({"a"})), GradedSummand(0, frozenset())),
        numeric={"a": (0, 1)}, det=det)
    with pytest.raises(OddOrder):
        sim_e_step(pt, profile)
    even_profile = hyperelliptic_profile(1)
    even_pt = double_class(1, [0, 1])
    with pytest.raises(InvalidDatum):
        sim_e_step(even_pt, even_profile, exponent=2)
    with pytest.raises(InvalidDatum):
        sim_e_step(even_pt, even_profile, summand=2)


def test_crossing_twist_involution_and_invariants():
    rng = random.Random(32)
    done = 0
    while done < 40:
        profile, pt = gen.sample_graded(rng)
        if profile.n % 2 == 1:
            continue
        for a in range(1, profile.n, 2):
            for which in (0, 1):
                try:
                    moved = sim_e_step(pt, profile, exponent=a, summand=which)
                except NonIntegralDegree:
                    continue
                assert moved.det.lift_sign != pt.det.lift_sign
                assert moved.det.degree == pt.det.degree
                assert sorted(upstairs_degrees(moved, profile)) == \
                    sorted(upstairs_degrees(pt, profile))
                # undoing must target the matching summand, whose slot the
                # canonical order may have changed
                assert pt in (
                    sim_e_step(moved, profile, exponent=profile.n - a, summand=0),
                    sim_e_step(moved, profile, exponent=profile.n - a, summand=1),
                )
        done += 1


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


def test_even_kernel_forces_no_crossing():
    rng = random.Random(34)
    found = 0
    while found < 30:
        profile = gen.random_profile(rng, even_n=True)
        if kernel_order(profile) % 2 != 0:
            continue
        data = gen.random_data(rng, profile)
        tags = zeta2_partition(data.numeric, profile)
        assert all(tag == "fixed" for tag in tags.values())
        assert sum(m_cross(data.numeric, profile).values()) == 0
        found += 1


def test_self_association_parity():
    assert s_i_possible(make_profile(4, [("a", 2)])) is True
    assert s_i_possible(make_profile(4, [("a", 2), ("b", 1)])) is False
    assert s_i_possible(make_profile(6, [])) is True
    assert s_i_possible(make_profile(3, [])) is False


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


def test_decomposition_cases():
    odd = decomposition_report(make_profile(3, [("a", 1)]))
    assert odd.case == "n odd"
    even_odd = decomposition_report(make_profile(4, [("a", 1)]))
    assert even_odd.case == "n even, r odd"
    assert even_odd.kernel_order == 1
    even_even = decomposition_report(make_profile(4, [("a", 2)]))
    assert even_even.case == "n even, r even"
    assert even_even.kernel_order == 2
    for report in (odd, even_odd, even_even):
        assert len(report.statements) >= 2


def parent_labels(g):
    return tuple(f"p{i}" for i in range(2 * g + 2))


def parent_double_class(g, q_indices):
    """double_class as it built its point before family keys: the oracle."""
    ids = parent_labels(g)
    q = frozenset(int(i) for i in q_indices)
    if len(q) % 2 != 0:
        raise InvalidDatum(f"subset size must be even, got {len(q)}")
    numeric = {label: ((1, 1) if i in q else (0, 0)) for i, label in enumerate(ids)}
    det = hyperelliptic_delta(g, 0)
    half = len(q) // 2
    summands = (GradedSummand(-half, frozenset()), GradedSummand(-half, frozenset()))
    return GradedPoint(summands, numeric=numeric, det=det)


def parent_flagged_class(g, q_indices):
    """flagged_class as it built its point before family keys: the oracle."""
    ids = parent_labels(g)
    q = frozenset(int(i) for i in q_indices)
    if len(q) % 2 != 0:
        raise InvalidDatum(f"subset size must be even, got {len(q)}")
    d = -(g + 1)
    numeric = {label: (0, 1) for label in ids}
    det = hyperelliptic_delta(g, 1)
    q_ids = frozenset(ids[i] for i in q)
    rest = frozenset(ids) - q_ids
    half = len(q) // 2
    summands = (GradedSummand(-half, q_ids), GradedSummand(d + half, rest))
    return GradedPoint(summands, numeric=numeric, det=det)


def test_family_classes_match_the_point_built_oracle():
    for g in (1, 2, 3, 4):
        profile = hyperelliptic_profile(g)
        npoints = 2 * g + 2
        for size in range(0, npoints + 1, 2):
            for q in itertools.combinations(range(npoints), size):
                for build, oracle in ((double_class, parent_double_class),
                                      (flagged_class, parent_flagged_class)):
                    pt, want = build(g, q), oracle(g, q)
                    assert pt == want
                    assert list(pt.numeric) == list(want.numeric)
                    assert list(pt.det.residues) == list(want.det.residues)
                    assert [(s.bar_degree, sorted(s.support)) for s in pt.summands] == \
                        [(s.bar_degree, sorted(s.support)) for s in want.summands]
                    validate_graded(pt, profile)


def test_family_classes_reject_point_indices_out_of_range():
    for build in (double_class, flagged_class):
        for q in ([0, 99], [-1, 0], [0, 6]):
            with pytest.raises(InvalidDatum, match=r"outside 0\.\.5"):
                build(2, q)
        # the genus and parity checks still come first
        with pytest.raises(InvalidGenus):
            build(0, [0, 99])
        with pytest.raises(InvalidDatum, match="even"):
            build(2, [99])
        assert build(2, [0, 5]) == build(2, [5, 0])


def test_double_and_flagged_classes_are_graded_points():
    for g in (1, 2):
        profile = hyperelliptic_profile(g)
        for size in range(0, 2 * g + 3, 2):
            q = frozenset(range(size))
            validate_graded(double_class(g, q), profile)
            validate_graded(flagged_class(g, q), profile)


def test_crossing_twist_links_the_two_lifts():
    for g in (1, 2, 3):
        profile = hyperelliptic_profile(g)
        for size in range(0, 2 * g + 3, 2):
            q = frozenset(range(0, size))
            assert sim_e_step(double_class(g, q), profile) == flagged_class(g, q)


def test_opposite_twist_swaps_complements_and_fixes_flagged():
    g = 2
    profile = hyperelliptic_profile(g)
    mu = RootExponent(1, 2)
    q = frozenset({0, 1})
    comp = frozenset(range(2 * g + 2)) - q
    assert sim_o_step(double_class(g, q), mu, profile) == double_class(g, comp)
    assert sim_o_step(flagged_class(g, q), mu, profile) == flagged_class(g, q)
    assert flagged_class(g, q) == flagged_class(g, comp)


def test_equivalence_classes_of_the_g2_boundary():
    g = 2
    profile = hyperelliptic_profile(g)
    classes = equivalence_classes(boundary_points(g), profile)
    assert len(classes) == 2 ** (2 * g)
    # each class holds one flagged point and its two double presentations,
    # except the self-complementary flagged ones
    for cls in classes:
        assert 1 <= len(cls) <= 3


# The twist-closure search the package ran before the classes had a closed
# form: a breadth-first walk over every step from every key it reaches,
# merged by a union-find.  It is the oracle of equivalence_classes.

def twist_neighbors(key, frame):
    """Every key one nontrivial twist step takes key to."""
    # a = 0 is the trivial character, whose step returns its input
    for a in range(1, frame.n):
        yield locus._o_step(key, a, frame)
    for a in range(1, frame.n, 2) if frame.n % 2 == 0 else ():
        for which in (0, 1):
            yield locus._e_step(key, a, which, frame)


def closure_roots(keys, frame):
    """One representative key of each input key's twist class, in input order.

    The keys must be ones validate_graded returns; every step preserves
    validity, so reached keys are neither checked nor decoded.
    """
    parent = {}

    def find(x):
        root = x
        while parent[root] is not root:
            root = parent[root]
        while parent[x] is not root:
            parent[x], x = root, parent[x]
        return root

    queue = list(keys)
    for key in queue:
        parent.setdefault(key, key)
    while queue:
        key = queue.pop()
        # unions below only hang other roots under this one, so it stays the root
        root = find(key)
        for nb in twist_neighbors(key, frame):
            if nb not in parent:
                parent[nb] = root
                queue.append(nb)
            else:
                parent[find(nb)] = root
    return [find(key) for key in keys]


def oracle_classes(points, profile):
    """equivalence_classes by search, as lists of the input points' ids, or the error."""
    try:
        keys = [validate_graded(pt, profile) for pt in points]
        roots = closure_roots(keys, locus._Frame(profile))
    except FixlocError as exc:
        return [type(exc).__name__, str(exc)]
    groups = {}
    for pt, root in zip(points, roots):
        groups.setdefault(root, []).append(id(pt))
    return list(groups.values())


def closed_form_classes(points, profile):
    try:
        return [[id(pt) for pt in cls] for cls in equivalence_classes(points, profile)]
    except FixlocError as exc:
        return [type(exc).__name__, str(exc)]


def test_closed_form_classes_match_the_search_oracle_on_the_fixture():
    cases = [case for case in load() if "points" in case]
    for case in cases:
        profile = profile_from_json(case["profile"])
        points = [_point(doc) for doc in case["points"]]
        assert closed_form_classes(points, profile) == oracle_classes(points, profile), \
            case["name"]


def test_closed_form_classes_match_the_search_oracle_up_to_n24():
    seen = {}
    orders = set()
    for profile, points, kinds in twist_corpus(37, 120):
        want = oracle_classes(points, profile)
        assert closed_form_classes(points, profile) == want, (profile, points)
        if isinstance(want[0], list):
            orders.add(profile.n)
            for kind, count in kinds.items():
                seen[kind] = seen.get(kind, 0) + count
    # the corpus exercises every kind of member on absorbing profiles up to n = 24
    assert {4, 6, 8, 9, 12, 15, 16, 24} <= orders
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_least_translate_is_the_least_member_of_the_class():
    # the class found by walking every step, against the closed form
    for profile, points, _ in twist_corpus(39, 30):
        frame = locus._Frame(profile)
        for pt in points:
            key = validate_graded(pt, profile)
            members, queue = {key}, [key]
            try:
                while queue:
                    for nb in twist_neighbors(queue.pop(), frame):
                        if nb not in members:
                            members.add(nb)
                            queue.append(nb)
            except NonIntegralDegree:
                continue
            least = min((*sorted(k[:2]), k[2]) for k in members)
            assert locus._least_translate(key, frame) == least


def test_closure_nodes_pass_validate_graded(monkeypatch):
    # sim_o_step and sim_e_step decode a stepped key without validating it;
    # every key the oracle's steps reach must decode to a point that still
    # passes the check, and whose key it is
    cases = [(hyperelliptic_profile(g), boundary_points(g)) for g in (1, 2, 3)]
    rng = random.Random(36)
    cases += [(profile, [pt]) for profile, pt in (gen.sample_graded(rng) for _ in range(40))]
    cases += [(profile, points) for profile, points, _ in twist_corpus(38, 20)]
    reached = []

    def recording(step):
        def wrapped(*args):
            reached.append(step(*args))
            return reached[-1]
        return wrapped

    monkeypatch.setattr(locus, "_o_step", recording(locus._o_step))
    monkeypatch.setattr(locus, "_e_step", recording(locus._e_step))
    for profile, points in cases:
        reached.clear()
        frame = locus._Frame(profile)
        try:
            closure_roots([validate_graded(pt, profile) for pt in points], frame)
        except NonIntegralDegree:
            pass  # profile cannot absorb some twist; the keys reached so far still count
        else:
            # a finished search took every nontrivial step; n = 1 has only
            # the trivial character, whose step the search skips
            assert bool(reached) == (profile.n > 1)
        for key in reached:
            assert validate_graded(locus._rebuild(key, frame), profile) == key


def test_equivalence_classes_validates_each_point_once_and_takes_one_step(monkeypatch):
    # no search: one o-step by the character 1 guards the degrees, then each
    # point's class is read off its key; the profile's frame is built once
    # per call, and each point goes once through validate_graded's core
    steps, checked, frames = [], [], []
    validate, frame = locus._validated_key, locus._Frame

    def counting_validate(pt, profile, frame):
        checked.append(pt)
        return validate(pt, profile, frame)

    def counting_frame(profile):
        frames.append(profile)
        return frame(profile)

    monkeypatch.setattr(locus, "_validated_key", counting_validate)
    monkeypatch.setattr(locus, "_Frame", counting_frame)
    monkeypatch.setattr(locus, "_o_step", lambda *args: steps.append("o"))
    monkeypatch.setattr(locus, "_e_step", lambda *args: steps.append("e"))
    points = boundary_points(3)
    assert len(equivalence_classes(points, hyperelliptic_profile(3))) == 4 ** 3
    assert steps == ["o"] and len(checked) == len(points) and len(frames) == 1
    steps.clear()
    frames.clear()
    assert equivalence_classes([], hyperelliptic_profile(3)) == [] and steps == []
    assert len(frames) == 1


def test_twist_closure_matches_the_recorded_fixture():
    # recorded by tests/fixtures/record_twist_closure.py with the dict-based
    # steps; every class, stepped point and error message must stay the same
    cases = load()
    assert len(cases) > 200
    replayed = [evaluate(case) for case in cases]
    for case, again in zip(cases, replayed):
        assert again == case, case["name"]
    assert render(replayed) == TWIST_CLOSURE.read_text()


def test_twist_partition_matches_the_recorded_fixture():
    # recorded by tests/fixtures/record_twist_partition.py before the twist
    # classes' per-point work was trimmed; every class must stay the same
    cases = record_twist_partition.load()
    replayed = [record_twist_partition.evaluate(case) for case in cases]
    for case, again in zip(cases, replayed):
        assert again == case, case["name"]
    assert record_twist_partition.render(replayed) == record_twist_partition.FIXTURE.read_text()
    names = [case["name"] for case in cases]
    assert names[:4] == [f"boundary-g{g}" for g in range(2, 6)] and len(names) == 43
    assert len(cases[3]["points"]) == 3072 and len(cases[3]["classes"]) == 4 ** 5
    assert {case["profile"]["n"] % 2 for case in cases[4:]} == {0, 1}


def test_public_steps_reject_supports_that_do_not_partition():
    profile = make_profile(2, [("a", 1), ("b", 1)])
    det = DeterminantLift(residues={"a": 1, "b": 1}, degree=2)
    numeric = {"a": (0, 1), "b": (0, 1)}
    overlap = GradedPoint(
        (GradedSummand(0, frozenset({"a", "b"})), GradedSummand(0, frozenset({"b"}))),
        numeric=numeric, det=det)
    uncovered = GradedPoint(
        (GradedSummand(0, frozenset({"a"})), GradedSummand(1, frozenset())),
        numeric=numeric, det=det)
    for pt in (overlap, uncovered):
        with pytest.raises(InvalidDatum, match="partition"):
            sim_o_step(pt, RootExponent(1, 2), profile)
        with pytest.raises(InvalidDatum, match="partition"):
            sim_e_step(pt, profile)
        with pytest.raises(InvalidDatum, match="partition"):
            equivalence_classes([pt], profile)


def test_a_crossing_twist_exponent_must_be_an_int():
    # 1.0 is odd by % and used to twist into float exponents and degrees
    good, profile = double_class(1, [0, 1]), hyperelliptic_profile(1)
    for exponent in (1.0, True, Fraction(1)):
        with pytest.raises(InvalidDatum, match="exponent must be an int"):
            sim_e_step(good, profile, exponent=exponent)
    with pytest.raises(InvalidDatum, match="must be odd"):
        sim_e_step(good, profile, exponent=2)
    assert sim_e_step(good, profile, exponent=3) == sim_e_step(good, profile, exponent=1)


def test_input_guards_raise_typed_errors():
    good = double_class(1, [0, 1])
    with pytest.raises(InvalidDatum):
        sim_o_step(good, RootExponent(1, 4), hyperelliptic_profile(1))  # wrong modulus
    with pytest.raises(InvalidDatum):
        hyperelliptic_delta(1, 2)
    with pytest.raises(InvalidDatum):
        double_class(1, [0])
    with pytest.raises(InvalidDatum):
        flagged_class(1, [0, 1, 2])


def test_report_shapes_small_genus():
    rep2 = hyperelliptic_report(2)
    assert [(c.label, c.dimension, len(c.boundary_classes), c.normal)
            for c in rep2.components] == [("c=-1", 3, 16, True)]
    assert rep2.boundary_class_count == 16
    rep3 = hyperelliptic_report(3, with_classes=False)
    assert {c.c: c.dimension for c in rep3.components} == {-2: 5, -1: 4}
    assert rep3.boundary_class_count == -1
    with pytest.raises(InvalidGenus):
        hyperelliptic_report(0)


# The enumerating census, kept as the oracle of the closed-form report.

def even_subsets(npoints, max_size):
    """Even subsets of range(npoints) of size <= max_size, by size, then lexicographically."""
    for size in range(0, max_size + 1, 2):
        yield from map(frozenset, itertools.combinations(range(npoints), size))


def boundary_subsets(g, c):
    """Even Q with |Q| <= -2c, by size, one of Q and its complement when both qualify.

    As -2c <= g+1, both qualify only at half size (odd g, c = d/2);
    the smaller sorted member, the one holding point 0, is kept.
    """
    return [q for q in even_subsets(2 * g + 2, -2 * c) if len(q) < g + 1 or 0 in q]


def census_points(g):
    """Every double point and the flagged points of the smallest c."""
    points = [double_class(g, q) for q in even_subsets(2 * g + 2, 2 * g + 2)]
    return points + [flagged_class(g, q) for q in boundary_subsets(g, -((g + 1) // 2))]


def closure_class_count(g):
    """Twist classes of the census points, by the search oracle."""
    profile = hyperelliptic_profile(g)
    keys = [validate_graded(pt, profile) for pt in census_points(g)]
    return len(set(closure_roots(keys, locus._Frame(profile))))


@pytest.mark.parametrize("g", range(1, 7))
def test_boundary_class_views_match_the_enumerating_oracle(g):
    npoints = 2 * g + 2
    rep = hyperelliptic_report(g, with_classes=False)
    for comp in rep.components:
        view, oracle = comp.boundary_classes, boundary_subsets(g, comp.c)
        assert list(view) == oracle
        assert len(view) == len(oracle)
        assert view == frozenset(oracle) and frozenset(oracle) == view
        assert hash(view) == hash(frozenset(oracle))
        # membership agrees on every subset: odd ones, even ones past -2c,
        # and at half size the complement of a class
        members = frozenset(oracle)
        for size in range(npoints + 1):
            for q in map(frozenset, itertools.combinations(range(npoints), size)):
                assert (q in view) == (q in members), (comp.c, sorted(q))
                assert (set(q) in view) == (q in members)
        if -2 * comp.c == g + 1:
            half = frozenset(range(g + 1))
            assert half in view and frozenset(range(npoints)) - half not in view
        for q in ({0, npoints}, {-1, 0}, {0, 1, 2, npoints + 1}):
            assert frozenset(q) not in view
        assert (0, 1) not in view
        assert type(view & members) is frozenset and view & members == members


@pytest.mark.parametrize("g", range(1, 7))
def test_class_count_matches_the_closure_oracle(g):
    classes = equivalence_classes(census_points(g), hyperelliptic_profile(g))
    assert hyperelliptic_report(g).boundary_class_count == closure_class_count(g) == \
        len(classes) == 4 ** g


def test_lift_negation_fixes_every_flagged_class():
    # the lemma behind normal=True: the o-step by the character 1 swaps the
    # two summands of F(Q) and so fixes its key
    def fixed(g, subsets):
        profile = hyperelliptic_profile(g)
        frame = locus._Frame(profile)
        for q in subsets:
            key = validate_graded(flagged_class(g, q), profile)
            if locus._o_step(key, 1, frame) != key:
                return False
        return True

    for g in range(1, 9):
        assert fixed(g, boundary_subsets(g, -((g + 1) // 2)))
        assert all(comp.normal for comp in hyperelliptic_report(g, with_classes=False).components)
    rng = random.Random(20)
    for g in range(9, 31):
        assert fixed(g, [rng.sample(range(2 * g + 2), 2 * rng.randrange(g + 2)) for _ in range(40)])


def test_report_enumerates_nothing(monkeypatch):
    def refuse(*args):
        pytest.fail("the census built a point or ran the closure")

    for name in ("double_class", "flagged_class", "_least_translate"):
        monkeypatch.setattr(locus, name, refuse)
    for g in (1, 4, 9, 30):
        rep = hyperelliptic_report(g)
        assert rep.boundary_class_count == 4 ** g
        assert len(rep.components[0].boundary_classes) == 4 ** g
    assert rep.global_intersection == frozenset({frozenset()})


def test_report_validates_no_point(monkeypatch):
    # the census builds no point, so it validates none
    calls = []

    def counting(validate):
        def wrapped(*args):
            calls.append(validate)
            return validate(*args)
        return wrapped

    monkeypatch.setattr(locus, "validate_graded", counting(locus.validate_graded))
    monkeypatch.setattr(locus, "validate_rank2", counting(locus.validate_rank2))
    monkeypatch.setattr(equivariant, "validate_rank2", counting(equivariant.validate_rank2))
    rep = hyperelliptic_report(4)
    assert rep.boundary_class_count == 256
    assert calls == []


def test_report_past_the_genus_limit_raises_before_building(monkeypatch):
    # at g = 32 the report's 4^g classes no longer fit len(); at g = 10^6 building
    # the profile alone ran for over a minute, so each call runs in a timed child
    code = ("import sys\nfrom fixloc import DomainError, hyperelliptic_report\n"
            "try:\n    hyperelliptic_report(int(sys.argv[1]))\n"
            "except DomainError as exc:\n    print(type(exc).__name__, exc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for g in (locus.MAX_HYPERELLIPTIC_GENUS + 1, 10 ** 6):
        proc = subprocess.run([sys.executable, "-c", code, str(g)], env=env,
                              capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"DomainError genus {g} is past the hyperelliptic limit of 31\n"
    monkeypatch.setattr(locus, "hyperelliptic_profile", lambda g: pytest.fail("built a profile"))
    with pytest.raises(DomainError):
        hyperelliptic_report(locus.MAX_HYPERELLIPTIC_GENUS + 1)


def test_boundary_predicate_exhaustive():
    for g in (1, 2, 3):
        rep = hyperelliptic_report(g, with_classes=False)
        npoints = 2 * g + 2
        for comp in rep.components:
            threshold = -2 * comp.c
            qualifying = [frozenset(q) for size in range(0, npoints + 1, 2)
                          for q in itertools.combinations(range(npoints), size)
                          if size <= threshold]
            # every qualifying subset appears, as itself or as its complement
            for q in qualifying:
                comp_q = frozenset(range(npoints)) - q
                assert q in comp.boundary_classes or comp_q in comp.boundary_classes
            # and nothing else does
            for q in comp.boundary_classes:
                assert len(q) % 2 == 0 and len(q) <= threshold


def test_census_cases():
    rec = unramified_census(3, 9, 2)
    assert rec.case == "n odd, determinant degree odd"
    assert [(c.kind, c.count) for c in rec.components] == [("moduli", 1)]
    rec = unramified_census(3, 6, 2)
    assert rec.case == "n odd, determinant degree even"
    assert [(c.kind, c.count) for c in rec.components] == [("pic0_quotient", 1)]
    rec = unramified_census(4, 12, 2)
    assert rec.case == "n even, reduced degree odd"
    assert [(c.kind, c.count) for c in rec.components] == [("prym", 2)]
    rec = unramified_census(4, 8, 2)
    assert rec.case == "n even, reduced degree even"
    assert [(c.kind, c.count) for c in rec.components] == \
        [("kummer", 4), ("pic0_quotient", 1)]
    with pytest.raises(InconsistentDegrees):
        unramified_census(4, 10, 2)
    with pytest.raises(InvalidGenus):
        unramified_census(4, 8, -1)


@settings(max_examples=80)
@given(st.integers(0, 10 ** 6))
def test_lift_negation_involution_property(seed):
    rng = random.Random(seed)
    profile = gen.random_profile(rng, even_n=True)
    data = gen.random_data(rng, profile)
    assert zeta2_apply(zeta2_apply(data, profile), profile) == data
