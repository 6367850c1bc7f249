"""Record the twist closure, every single twist step and the twist-class partition.

    PYTHONPATH=src python tests/fixtures/record_twist_closure.py

writes twist_closure.json and twist_partition.json next to this script.
twist_closure.json holds two lists:

- "closures": a profile, a list of graded points and what
  `equivalence_classes` made of them: the classes as lists of input
  indices, or the exception class and message;
- "steps": a profile, one graded point, the result of
  `sim_o_step(pt, a)` for every a mod n and of
  `sim_e_step(pt, a, summand)` for every a mod n and both summands,
  each a canonical point or the exception class and message.

A point is written as the compact JSON list
[[bar0, support0], [bar1, support1], numeric, residues, degree, sign]
with the summands in GradedPoint's order, the supports sorted and the
dicts' keys sorted, so the text does not depend on PYTHONHASHSEED.

test_locus.test_twist_closure_matches_the_recorded_fixture replays every
case from its stored inputs through `evaluate` and compares the
rendered document with this file byte for byte, so any change to a
class, a stepped point, an error message or the step that fails first
shows up as a failing test.  Re-record only when a change of output is
intended, and say why in the change log.

The corpus: 60 seeded `gen.sample_graded` points (n <= 10, up to three
orbits), alone and with up to three more points drawn over the same
profile; the hyperelliptic boundary (double and flagged classes of
every even subset) for g = 1..4 in seeded order; and hand-made inputs.
A twist by a moves a summand's sum_y k(y) * l(y) by a * sum_y k(y)
modulo n whatever the point, so a closure fails at its first step or
never.  The multi-point cases over profiles with sum_y k(y) not
divisible by n pin which input that first step starts from (the last
one) and which summand fails first.  The hand-made inputs also cover
determinant lifts that omit an orbit, which every closure and step
rejects: a lift names every profile orbit.

twist_partition.json holds one case per line: a list of input points
and what `equivalence_classes` made of them, as in "closures".  The
cases:

- "boundary-g2" .. "boundary-g5": the semistable boundary of the
  order-two family, every double class D(Q) and one flagged class F(Q)
  per pair {Q, Q^c} (the one whose Q holds point 0), shuffled by a
  seeded generator.  A point is stored as its recipe ["D" or "F", Q].
- "corpus-*": the seeded closures of `gen.twist_corpus(42, 40)` (39 of
  them: a profile that draws no graded point is skipped), with odd and
  even n <= 24 and stepped members, each point in the compact form.

test_locus.test_twist_partition_matches_the_recorded_fixture replays
every case from its stored points and compares the rendered document
with that file byte for byte.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402

from fixloc import (  # noqa: E402
    DeterminantLift,
    FixlocError,
    GradedPoint,
    GradedSummand,
    RootExponent,
    double_class,
    equivalence_classes,
    flagged_class,
    hyperelliptic_profile,
    make_profile,
    profile_from_json,
    profile_to_json,
    sim_e_step,
    sim_o_step,
)

FIXTURE = HERE / "twist_closure.json"
PARTITION = HERE / "twist_partition.json"
SAMPLES = 60
GENERA = range(1, 5)
PARTITION_GENERA = range(2, 6)
CORPUS_SEED, CORPUS_CASES = 42, 40
BUILDERS = {"D": double_class, "F": flagged_class}


# --- documents ---

def point_doc(pt: GradedPoint) -> list:
    summands = [[s.bar_degree, sorted(map(str, s.support))] for s in pt.summands]
    numeric = {label: list(pair) for label, pair in pt.numeric.items()}
    return [*summands, numeric, dict(pt.det.residues), pt.det.degree, pt.det.lift_sign]


def _point(doc: list) -> GradedPoint:
    (bar0, supp0), (bar1, supp1), numeric, residues, degree, sign = doc
    det = DeterminantLift(residues=dict(residues), degree=degree, lift_sign=sign)
    return GradedPoint((GradedSummand(bar0, frozenset(supp0)), GradedSummand(bar1, frozenset(supp1))),
                       numeric={label: tuple(pair) for label, pair in numeric.items()}, det=det)


def points_of(case: dict) -> list:
    if "g" in case:
        return [BUILDERS[kind](case["g"], q) for kind, q in case["points"]]
    return [_point(doc) for doc in case["points"]]


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --- evaluation ---

def _outcome(fn, *args):
    """fn(*args), or [exception class name, message] for a package error."""
    try:
        return fn(*args)
    except FixlocError as exc:
        return [type(exc).__name__, str(exc)]


def _classes(points: list, profile) -> list[list[int]]:
    index = {id(pt): i for i, pt in enumerate(points)}
    return [[index[id(pt)] for pt in cls] for cls in equivalence_classes(points, profile)]


def _stepped(step, *args) -> str:
    return _dump(point_doc(step(*args)))


def evaluate(case: dict) -> dict:
    """The case with its recorded outcome replaced by a fresh one."""
    profile = profile_from_json(case["profile"])
    if "points" in case:
        return case | {"expect": _outcome(_classes, points_of(case), profile)}
    pt = _point(case["point"])
    n = profile.n
    o = [_outcome(_stepped, sim_o_step, pt, RootExponent(a, n), profile) for a in range(n)]
    e = [[_outcome(_stepped, sim_e_step, pt, profile, a, which) for which in (0, 1)]
         for a in range(n)]
    return case | {"o": o, "e": e}


def render(cases: list[dict]) -> str:
    closures = ",\n".join(_dump(case) for case in cases if "points" in case)
    steps = ",\n".join(_dump(case) for case in cases if "point" in case)
    return '{"closures": [\n' + closures + '\n],\n"steps": [\n' + steps + "\n]}\n"


def load() -> list[dict]:
    doc = json.loads(FIXTURE.read_text())
    return doc["closures"] + doc["steps"]


def evaluate_partition(case: dict) -> dict:
    """The partition case with its recorded classes replaced by fresh ones."""
    profile = profile_from_json(case["profile"])
    return case | {"classes": _outcome(_classes, points_of(case), profile)}


def render_partition(cases: list[dict]) -> str:
    return '{"cases": [\n' + ",\n".join(map(_dump, cases)) + "\n]}\n"


def load_partition() -> list[dict]:
    return json.loads(PARTITION.read_text())["cases"]


# --- corpus ---

def _closure_case(name: str, profile, points) -> dict:
    return {"name": name, "profile": profile_to_json(profile),
            "points": [point_doc(pt) for pt in points]}


def _step_case(name: str, profile, pt) -> dict:
    return {"name": name, "profile": profile_to_json(profile), "point": point_doc(pt)}


def seeded_cases():
    rng = random.Random(2026)
    for i in range(SAMPLES):
        profile, pt = gen.sample_graded(rng)
        name = f"sample-{i}-n{profile.n}-o{len(profile.orbits)}"
        yield _step_case(name, profile, pt)
        yield _closure_case(name, profile, [pt])
        more = (gen.random_graded(rng, profile) for _ in range(rng.randint(0, 6)))
        points = [pt, *(other for other in more if other is not None)][:4]
        if len(points) > 1:
            rng.shuffle(points)
            yield _closure_case(f"{name}-multi{len(points)}", profile, points)
    for g in GENERA:
        profile = hyperelliptic_profile(g)
        points = list(dict.fromkeys(gen.boundary(g)))  # each flagged class once
        random.Random(g).shuffle(points)
        yield _closure_case(f"boundary-g{g}", profile, points)
        for q in gen.even_subsets(2 * g + 2)[:4]:
            yield _step_case(f"boundary-g{g}-double-{len(q)}", profile, double_class(g, q))
            yield _step_case(f"boundary-g{g}-flagged-{len(q)}", profile, flagged_class(g, q))


def nonintegral_cases():
    # sum_y k(y) is 3 on both profiles: on n = 4 every step fails, on
    # n = 6 the even characters are absorbed and the odd ones are not
    rng = random.Random(2027)
    for profile in (make_profile(4, [("a", 1), ("b", 2)]), make_profile(6, [("a", 1), ("b", 2)])):
        drawn = (gen.random_graded(rng, profile) for _ in range(40))
        points = [pt for pt in drawn if pt is not None][:4]
        name = f"nonintegral-n{profile.n}"
        for i, pt in enumerate(points):
            yield _step_case(f"{name}-{i}", profile, pt)
        for order in range(4):
            yield _closure_case(f"{name}-order{order}", profile, points)
            rng.shuffle(points)


def _flat(profile, numeric: dict, residues: dict) -> GradedPoint:
    """Both summands unflagged, of degree 0 upstairs."""
    bar = -sum(y.k * numeric[y.id][0] for y in profile.orbits) // profile.n
    degree = 2 * sum(y.k * numeric[y.id][0] for y in profile.orbits) + 2 * profile.n * bar
    det = DeterminantLift(residues=residues, degree=degree)
    return GradedPoint((GradedSummand(bar, frozenset()), GradedSummand(bar, frozenset())),
                       numeric=numeric, det=det)


def omitted_residue_cases():
    # a lift that omits an orbit is rejected, whatever the other points
    p3 = make_profile(3, [("a", 1), ("b", 1), ("c", 1)])
    zeros = dict.fromkeys(p3.orbit_ids(), (0, 0))
    omit, listed = _flat(p3, zeros, {}), _flat(p3, zeros, {"a": 0})
    yield _closure_case("omitted-residue-n3", p3, [omit, listed, omit])
    yield _step_case("omitted-residue-n3", p3, omit)
    p2 = hyperelliptic_profile(1)
    numeric = {"p0": (1, 1), "p1": (1, 1), "p2": (0, 0), "p3": (0, 0)}
    omit = _flat(p2, numeric, {})
    listed = _flat(p2, numeric, dict.fromkeys(p2.orbit_ids(), 0))
    yield _closure_case("omitted-residue-n2", p2, [listed, omit, double_class(1, [0, 1])])
    yield _step_case("omitted-residue-n2", p2, omit)


def partition_cases():
    for g in PARTITION_GENERA:
        subsets = [list(q) for q in gen.even_subsets(2 * g + 2)]
        recipes = [["D", q] for q in subsets] + [["F", q] for q in subsets if 0 in q]
        random.Random(g).shuffle(recipes)
        yield {"name": f"boundary-g{g}", "g": g,
               "profile": profile_to_json(hyperelliptic_profile(g)), "points": recipes}
    for i, (profile, points, _) in enumerate(gen.twist_corpus(CORPUS_SEED, CORPUS_CASES)):
        yield _closure_case(f"corpus-{i}-n{profile.n}-o{len(profile.orbits)}", profile, points)


def stored(cases):
    """The cases as the test replays them: through JSON and back."""
    return [json.loads(json.dumps(case)) for case in cases]


def main() -> None:
    cases = [evaluate(case) for case in stored(
        [*seeded_cases(), *nonintegral_cases(), *omitted_residue_cases()])]
    FIXTURE.write_text(render(cases))
    closures = [case for case in cases if "points" in case]
    errors = sum(isinstance(case["expect"][0], str) for case in closures if case["expect"])
    print(f"wrote {len(closures)} closures ({errors} errors) and "
          f"{len(cases) - len(closures)} step cases to {FIXTURE.name}")
    cases = [evaluate_partition(case) for case in stored(partition_cases())]
    PARTITION.write_text(render_partition(cases))
    errors = sum(isinstance(case["classes"][0], str) for case in cases if case["classes"])
    print(f"wrote {len(cases)} cases ({errors} errors) to {PARTITION.name}")


if __name__ == "__main__":
    main()
