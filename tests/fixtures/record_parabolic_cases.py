"""Record the parabolic correspondence on a seeded corpus and on malformed inputs.

    PYTHONPATH=src python tests/fixtures/record_parabolic_cases.py

writes tests/fixtures/parabolic_cases.json next to this script.  Each
case names one operation (to_parabolic, from_parabolic, solve_d2,
parabolic_zeta2, zeta2_apply, elementary_modification, gamma_apply,
weight_system or bar_delta_degree), a profile and the arguments, and
holds either the JSON of the result or the exception class and
message.  test_equivariant.test_parabolic_cases_match_the_recorded_fixture
re-runs every case through `evaluate`, so any change to a weight, a
flag exponent, a degree, a solution list, or to which error wins on an
input with several faults shows up as a failing test.  Re-record only
when a change of output is intended, and say why in the change log.

The corpus: seeded cover profiles (n <= 24, up to five orbits, both
lift signs) with admissible data, its parabolic image, random
admissible parabolic data (some labels left out, so the defaults
apply), and about sixty hand-made malformed inputs: weights outside
[0,1) or with a denominator not dividing n', a negative derived lower
exponent, a flag exponent out of range, unknown labels, bad residues
and lift signs, numeric data not matching the profile, odd cover order
for lift negation, and inputs with several faults at once.  A second
seeded corpus and a second malformed set, appended after the first so
that its cases keep their places, cover the modifications, the weight
system and the descended degree: seeded single and closed-form
modifications, and inputs whose faults race each other, such as a bad
lift sign with an unknown determinant label, a pair out of range at a
later orbit with a wrong residue sum at an earlier one, or a bad
direction with an unknown orbit.

Arguments are stored as plain documents and decoded here without the
schema parsers, so that malformed values reach the operations.  A
weight is a bare integer or a {num, den} object.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402

from fixloc import (  # noqa: E402
    FIRST,
    SECOND,
    AdmissibleParabolicDatum,
    DeterminantLift,
    FixlocError,
    FlagSelector,
    Rank2EqData,
    bar_delta_degree,
    elementary_modification,
    from_parabolic,
    gamma_apply,
    make_profile,
    parabolic_to_json,
    parabolic_zeta2,
    profile_from_json,
    profile_to_json,
    rank2_to_json,
    solve_d2,
    to_parabolic,
    weight_system,
    zeta2_apply,
)
from fixloc._ser import rat_to_json  # noqa: E402

FIXTURE = HERE / "parabolic_cases.json"
PROFILES = 40


# --- documents ---

def _weight_doc(w):
    return w if isinstance(w, int) else rat_to_json(w)


def _weight(doc):
    return doc if isinstance(doc, int) else Fraction(doc["num"], doc["den"])


def det_doc(residues: dict, degree: int, sign: str) -> dict:
    return {"residues": dict(residues), "degree": degree, "lift_sign": sign}


def data_doc(numeric: dict, det: dict) -> dict:
    return {"numeric": {label: list(pair) for label, pair in numeric.items()}, "det": det}


def pdat_doc(bar: int, weights: dict, d2: dict, sign: str) -> dict:
    return {"det_bar_degree": bar, "weights": {k: _weight_doc(w) for k, w in weights.items()},
            "d2": dict(d2), "det_lift_sign": sign}


def _det(doc: dict) -> DeterminantLift:
    return DeterminantLift(residues=dict(doc["residues"]), degree=doc["degree"],
                           lift_sign=doc["lift_sign"])


def _numeric(doc: dict) -> dict:
    return {k: tuple(v) for k, v in doc.items()}


def _data(doc: dict) -> Rank2EqData:
    return Rank2EqData(numeric=_numeric(doc["numeric"]), det=_det(doc["det"]))


def _pdat(doc: dict) -> AdmissibleParabolicDatum:
    return AdmissibleParabolicDatum(
        det_bar_degree=doc["det_bar_degree"],
        weights={k: _weight(w) for k, w in doc["weights"].items()},
        d2=dict(doc["d2"]), det_lift_sign=doc["det_lift_sign"])


# --- evaluation ---

def _run(op: str, profile, args: dict):
    if op == "to_parabolic":
        return parabolic_to_json(to_parabolic(_data(args["data"]), profile))
    if op == "from_parabolic":
        return rank2_to_json(from_parabolic(_pdat(args["pdat"]), profile))
    if op == "solve_d2":
        weights = {k: _weight(w) for k, w in args["weights"].items()}
        return [dict(sorted(s.items())) for s in solve_d2(_det(args["det"]), weights, profile)]
    if op == "parabolic_zeta2":
        return parabolic_to_json(parabolic_zeta2(_pdat(args["pdat"]), profile))
    if op == "zeta2_apply":
        return rank2_to_json(zeta2_apply(_data(args["data"]), profile))
    if op == "elementary_modification":
        return rank2_to_json(elementary_modification(
            _data(args["data"]), profile, args["orbit"], args["direction"], args["inverse"]))
    if op == "gamma_apply":
        return rank2_to_json(gamma_apply(_data(args["data"]), profile, dict(args["m"]),
                                         FlagSelector(choice=dict(args["flags"]))))
    if op == "weight_system":
        weights = weight_system(_numeric(args["numeric"]), profile)
        return {k: rat_to_json(w) for k, w in sorted(weights.items())}
    if op == "bar_delta_degree":
        return bar_delta_degree(_det(args["det"]), _numeric(args["numeric"]), profile)
    raise ValueError(f"unknown operation {op!r}")


def evaluate(case: dict) -> dict:
    """{'result': json} or {'error': [class name, message]} for one case."""
    profile = profile_from_json(case["profile"])
    try:
        return {"result": _run(case["op"], profile, case["args"])}
    except FixlocError as exc:
        return {"error": [type(exc).__name__, str(exc)]}


# --- corpus ---

def _random_pdat(rng: random.Random, profile) -> dict:
    """Admissible parabolic datum; about one label in five is left to its default."""
    weights, d2 = {}, {}
    for y in profile.orbits:
        if rng.random() < 0.2:
            continue
        m = rng.randrange(y.nprime)
        weights[y.id] = rng.choice((0, Fraction(0))) if m == 0 else Fraction(m, y.nprime)
        d2[y.id] = rng.randrange(m, y.nprime)
    sign = rng.choice("+-") if profile.n % 2 == 0 else "+"
    return pdat_doc(rng.randint(-4, 4), weights, d2, sign)


def seeded_cases():
    rng = random.Random(2026)
    for i in range(PROFILES):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        pdoc = profile_to_json(profile)
        even = profile.n % 2 == 0
        for j in range(2):
            data = gen.random_data(rng, profile)
            ddoc = data_doc(data.numeric, det_doc(data.det.residues, data.det.degree,
                                                  data.det.lift_sign))
            name = f"seed-{i}-n{profile.n}-o{len(profile.orbits)}-{j}"
            yield name, "to_parabolic", pdoc, {"data": ddoc}
            pdat = parabolic_to_json(to_parabolic(data, profile))
            yield name, "from_parabolic", pdoc, {"pdat": pdat}
            yield name, "solve_d2", pdoc, {"det": ddoc["det"], "weights": pdat["weights"]}
            if even:
                yield name, "zeta2_apply", pdoc, {"data": ddoc}
                yield name, "parabolic_zeta2", pdoc, {"pdat": pdat}
        free = _random_pdat(rng, profile)
        name = f"seed-{i}-n{profile.n}-o{len(profile.orbits)}-free"
        yield name, "from_parabolic", pdoc, {"pdat": free}
        det = gen.random_det(rng, profile)
        yield name, "solve_d2", pdoc, {"det": det_doc(det.residues, det.degree, det.lift_sign),
                                       "weights": free["weights"]}
        if even:
            yield name, "parabolic_zeta2", pdoc, {"pdat": free}


F = Fraction
P4 = profile_to_json(make_profile(4, [("a", 1), ("b", 2)]))      # n' = 4, 2
P6 = profile_to_json(make_profile(6, [("a", 1), ("b", 2), ("c", 3)]))  # n' = 6, 3, 2
P5 = profile_to_json(make_profile(5, [("a", 1)]))                # n' = 5


def _p4(weights=None, d2=None, sign="+", bar=0):
    base_w = {"a": F(1, 4), "b": F(1, 2)}
    base_d2 = {"a": 2, "b": 1}
    return pdat_doc(bar, base_w if weights is None else weights,
                    base_d2 if d2 is None else d2, sign)


def _d4(numeric=None, residues=None, degree=None, sign="+"):
    numeric = {"a": (1, 2), "b": (0, 1)} if numeric is None else numeric
    residues = {"a": 3, "b": 1} if residues is None else residues
    degree = 3 * 1 + 1 * 2 + 4 * 2 if degree is None else degree
    return data_doc(numeric, det_doc(residues, degree, sign))


def malformed_cases():
    def fp(name, pdat, profile=P4):
        return f"bad-{name}", "from_parabolic", profile, {"pdat": pdat}

    yield fp("lift-sign", _p4(sign="x"))
    yield fp("minus-on-odd-order", pdat_doc(0, {"a": F(1, 5)}, {"a": 1}, "-"), P5)
    yield fp("unknown-weight-label", _p4(weights={"a": F(1, 4), "z": 0}))
    yield fp("unknown-d2-label", _p4(d2={"a": 2, "z": 0}))
    yield fp("weight-negative", _p4(weights={"a": F(-1, 4)}))
    yield fp("weight-one", _p4(weights={"a": 1}))
    yield fp("weight-above-one", _p4(weights={"a": F(5, 4)}))
    yield fp("weight-denominator-3", _p4(weights={"a": F(1, 3)}))
    yield fp("weight-denominator-8", _p4(weights={"a": F(1, 8)}))
    yield fp("weight-denominator-at-b", _p4(weights={"b": F(1, 4)}))
    yield fp("d2-equal-nprime", _p4(d2={"a": 4}))
    yield fp("d2-negative", _p4(d2={"a": -1}))
    yield fp("derived-d1-negative", _p4(weights={"a": F(3, 4)}, d2={"a": 2}))
    yield fp("derived-d1-negative-at-b", _p4(d2={"a": 2, "b": 0}))
    yield fp("derived-d1-negative-default-d2", _p4(d2={"b": 1}))
    yield fp("multi-sign-and-unknown", _p4(weights={"z": F(1, 2)}, sign="?", bar=1))
    yield fp("multi-unknown-d2-and-bad-weight", _p4(weights={"a": F(7, 4)}, d2={"z": 1}))
    yield fp("multi-unknown-in-both", _p4(weights={"y": 0}, d2={"z": 0}))
    yield fp("multi-bad-d2-at-a-bad-weight-at-b",
             _p4(weights={"a": 0, "b": F(3, 2)}, d2={"a": 9, "b": 1}))
    yield fp("multi-range-and-denominator", _p4(weights={"a": F(-1, 3)}))
    yield fp("multi-weights-out-of-profile-order",
             _p4(weights={"b": F(1, 3), "a": F(2, 3)}))
    yield fp("multi-denominator-and-derived", _p4(weights={"a": F(1, 3), "b": F(1, 2)},
                                                  d2={"a": 0, "b": 0}))
    yield fp("multi-on-p6", pdat_doc(0, {"c": F(1, 3), "b": F(1, 2), "a": F(1, 7)},
                                     {"a": 7, "b": 0, "c": 0}, "+"), P6)

    def z2(name, pdat, profile=P4):
        return f"bad-{name}", "parabolic_zeta2", profile, {"pdat": pdat}

    yield z2("odd-order", pdat_doc(0, {"a": F(2, 5)}, {"a": 3}, "+"), P5)
    yield z2("odd-order-and-bad-weight", pdat_doc(0, {"a": F(1, 3)}, {"a": 3}, "-"), P5)
    yield z2("bad-weight", _p4(weights={"a": F(1, 3)}))
    yield z2("lift-sign", _p4(sign=""))
    yield z2("derived-d1-negative", _p4(weights={"a": F(3, 4)}, d2={"a": 1}))

    def sd(name, det, weights, profile=P4):
        return f"bad-{name}", "solve_d2", profile, {
            "det": det, "weights": {k: _weight_doc(w) for k, w in weights.items()}}

    ok_w = {"a": F(1, 4), "b": F(1, 2)}
    yield sd("residue-equal-nprime", det_doc({"a": 4, "b": 1}, 0, "+"), ok_w)
    yield sd("residue-negative", det_doc({"a": -1}, 0, "+"), ok_w)
    yield sd("unknown-residue-label", det_doc({"a": 1, "z": 0}, 0, "+"), ok_w)
    yield sd("lift-sign", det_doc({"a": 1, "b": 1}, 0, "plus"), ok_w)
    yield sd("minus-on-odd-order", det_doc({"a": 1}, 0, "-"), {"a": F(1, 5)}, P5)
    yield sd("weight-denominator", det_doc({"a": 1, "b": 1}, 0, "+"), {"a": F(1, 3)})
    yield sd("weight-negative", det_doc({"a": 1, "b": 1}, 0, "+"), {"a": F(-1, 4)})
    yield sd("weight-one", det_doc({"a": 1, "b": 1}, 0, "+"), {"a": F(1, 4), "b": 1})
    yield sd("no-root", det_doc({"a": 0, "b": 0}, 0, "+"), {"b": F(1, 2)})
    yield sd("roots-below-m", det_doc({"a": 1, "b": 1}, 0, "+"), {"a": F(3, 4)})
    yield sd("no-root-int-weight", det_doc({"a": 1, "b": 1}, 0, "+"), {"a": 0})
    yield sd("unknown-weight-label-in-solve", det_doc({"a": 1, "b": 1}, 0, "+"),
             {"a": F(1, 4), "b": F(1, 2), "z": F(1, 9)})
    yield sd("multi-residue-and-weight", det_doc({"a": 7}, 0, "+"), {"a": F(1, 3)})
    yield sd("multi-weight-at-b-no-root-at-a", det_doc({"a": 1, "b": 1}, 0, "+"),
             {"a": F(3, 4), "b": F(1, 3)})
    yield sd("multi-sign-and-unknown-residue", det_doc({"z": 9}, 0, "x"), ok_w)
    yield sd("multi-on-p6", det_doc({"a": 3, "b": 1, "c": 1}, 0, "+"),
             {"c": F(1, 2), "a": F(1, 2), "b": F(1, 4)}, P6)

    def tp(name, data, profile=P4):
        return f"bad-{name}", "to_parabolic", profile, {"data": data}

    yield tp("numeric-missing-orbit", _d4(numeric={"a": (1, 2)}))
    yield tp("numeric-extra-orbit", _d4(numeric={"a": (1, 2), "b": (0, 1), "z": (0, 0)}))
    yield tp("pair-unsorted", _d4(numeric={"a": (2, 1), "b": (0, 1)}))
    yield tp("pair-out-of-range", _d4(numeric={"a": (1, 4), "b": (0, 1)}))
    yield tp("pair-sum", _d4(numeric={"a": (1, 1), "b": (0, 1)}))
    yield tp("residue-out-of-range", _d4(residues={"a": 3, "b": 2}))
    yield tp("unknown-residue-label", _d4(residues={"a": 3, "b": 1, "z": 0}))
    yield tp("non-integral-degree", _d4(degree=14))
    yield tp("multi-sign-residue-numeric", _d4(numeric={}, residues={"a": 9}, sign="?"))
    yield tp("multi-residue-and-numeric", _d4(numeric={}, residues={"a": 9}))
    yield tp("multi-numeric-and-sum", _d4(numeric={"a": (0, 0)}))
    yield tp("multi-pair-range-at-b-sum-at-a", _d4(numeric={"a": (0, 0), "b": (1, 0)}))

    def za(name, data, profile=P4):
        return f"bad-{name}", "zeta2_apply", profile, {"data": data}

    yield za("odd-order", data_doc({"a": (1, 2)}, det_doc({"a": 3}, 3, "+")), P5)
    yield za("pair-sum", _d4(numeric={"a": (1, 1), "b": (0, 1)}))
    yield za("residue-out-of-range", _d4(residues={"a": 5, "b": 1}))


def seeded_modification_cases():
    rng = random.Random(2027)
    for i in range(PROFILES // 2):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        pdoc = profile_to_json(profile)
        ids = [y.id for y in profile.orbits]
        for j in range(2):
            data = gen.random_data(rng, profile)
            det = det_doc(data.det.residues, data.det.degree, data.det.lift_sign)
            ddoc = data_doc(data.numeric, det)
            name = f"mod-{i}-n{profile.n}-o{len(ids)}-{j}"
            yield name, "weight_system", pdoc, {"numeric": ddoc["numeric"]}
            yield name, "bar_delta_degree", pdoc, {"det": det, "numeric": ddoc["numeric"]}
            orbit = rng.choice(ids) if ids else "y0"
            yield name, "elementary_modification", pdoc, {
                "data": ddoc, "orbit": orbit, "direction": rng.choice((FIRST, SECOND)),
                "inverse": rng.random() < 0.5}
            m = {y: rng.randint(-3, 3) for y in ids if rng.random() < 0.8}
            flags = {y: rng.choice((FIRST, SECOND)) for y in ids
                     if m.get(y, 0) or rng.random() < 0.5}
            yield name, "gamma_apply", pdoc, {"data": ddoc, "m": m, "flags": flags}


def malformed_modification_cases():
    def em(name, data, orbit="a", direction=FIRST, inverse=False, profile=P4):
        return f"bad-em-{name}", "elementary_modification", profile, {
            "data": data, "orbit": orbit, "direction": direction, "inverse": inverse}

    yield em("ok-inverse-second", _d4(), orbit="b", direction=SECOND, inverse=True)
    yield em("ok-wraps", _d4(numeric={"a": (0, 3), "b": (0, 1)}), direction=SECOND)
    yield em("lift-sign", _d4(sign="x"))
    yield em("minus-on-odd-order", data_doc({"a": (1, 2)}, det_doc({"a": 3}, 3, "-")),
             profile=P5)
    yield em("unknown-det-label", _d4(residues={"a": 3, "b": 1, "z": 0}))
    yield em("bad-direction", _d4(), direction="up")
    yield em("unknown-orbit", _d4(), orbit="z")
    yield em("multi-sign-and-unknown-det-label", _d4(residues={"z": 0, "a": 3}, sign="?"))
    yield em("multi-pair-range-at-b-sum-at-a", _d4(numeric={"a": (0, 0), "b": (1, 2)}))
    yield em("multi-bad-direction-and-unknown-orbit", _d4(), orbit="z", direction="up")
    yield em("multi-numeric-and-bad-direction", _d4(numeric={"a": (1, 2)}), direction="up")
    yield em("multi-sum-and-unknown-orbit", _d4(numeric={"a": (1, 1), "b": (0, 1)}), orbit="z")
    yield em("multi-residue-range-and-numeric", _d4(numeric={}, residues={"a": 9}))
    yield em("multi-residue-range-before-unknown-det-label",
             _d4(residues={"a": 7, "z": 0, "b": 1}))
    yield em("multi-unknown-det-label-before-residue-range",
             _d4(residues={"b": 1, "z": 0, "a": 7}))

    def ga(name, data, m, flags, profile=P4):
        return f"bad-ga-{name}", "gamma_apply", profile, {"data": data, "m": m, "flags": flags}

    yield ga("ok-bad-direction-at-unmodified", _d4(), {"a": 0, "b": 1},
             {"a": "up", "b": SECOND})
    yield ga("ok-negative", _d4(), {"a": -3, "b": 1}, {"a": FIRST, "b": FIRST})
    yield ga("unknown-m-label", _d4(), {"z": 1}, {})
    yield ga("unknown-flag-label", _d4(), {"a": 1}, {"a": FIRST, "z": "sideways"})
    yield ga("no-direction", _d4(), {"a": 1}, {})
    yield ga("bad-direction-at-modified", _d4(), {"a": 1}, {"a": "up"})
    yield ga("multi-bad-data-and-unknown-m", _d4(numeric={"a": (1, 1), "b": (0, 1)}),
             {"z": 1}, {})
    yield ga("multi-unknown-m-and-no-direction", _d4(), {"a": 1, "z": 1}, {})
    yield ga("multi-no-direction-at-b-after-a", _d4(), {"a": 2, "b": 1}, {"a": FIRST})
    yield ga("multi-sign-unknown-det-unknown-m", _d4(residues={"z": 1}, sign="?"),
             {"z": 1}, {"y": "up"})
    yield ga("multi-bad-direction-at-a-none-at-b", _d4(), {"b": 1, "a": 1}, {"a": "x"})
    yield ga("multi-pair-range-at-b-sum-at-a", _d4(numeric={"a": (0, 0), "b": (1, 2)}),
             {"a": 1}, {})

    def ws(name, numeric, profile=P4):
        return f"bad-ws-{name}", "weight_system", profile, {
            "numeric": {k: list(v) for k, v in numeric.items()}}

    yield ws("ok-p6", {"a": (0, 5), "b": (1, 2), "c": (1, 1)}, P6)
    yield ws("missing-orbit", {"a": (1, 2)})
    yield ws("extra-orbit", {"a": (1, 2), "b": (0, 1), "z": (0, 0)})
    yield ws("empty", {})
    yield ws("pair-unsorted", {"a": (2, 1), "b": (0, 1)})
    yield ws("pair-negative", {"a": (-1, 1), "b": (0, 1)})
    yield ws("multi-range-at-b-unsorted-at-a", {"b": (0, 2), "a": (3, 1)})

    def bd(name, det, numeric, profile=P4):
        return f"bad-bd-{name}", "bar_delta_degree", profile, {
            "det": det, "numeric": {k: list(v) for k, v in numeric.items()}}

    ok_num = {"a": (1, 2), "b": (0, 1)}
    yield bd("ok", det_doc({"a": 3, "b": 1}, 13, "+"), ok_num)
    yield bd("ok-unchecked-det", det_doc({"z": 9}, 13, "?"), ok_num)
    yield bd("non-integral", det_doc({"a": 3, "b": 1}, 14, "+"), ok_num)
    yield bd("missing-orbit", det_doc({"a": 3, "b": 1}, 13, "+"), {"a": (1, 2)})
    yield bd("multi-range-and-non-integral", det_doc({"a": 3, "b": 1}, 14, "+"),
             {"a": (1, 4), "b": (0, 1)})

    def za(name, data, profile=P4):
        return f"bad-za-{name}", "zeta2_apply", profile, {"data": data}

    yield za("multi-odd-order-and-pair-range", data_doc({"a": (1, 7)}, det_doc({"a": 3}, 3, "?")),
             P5)
    yield za("multi-sign-and-unknown-det-label", _d4(residues={"z": 0}, sign="?"))
    yield za("multi-pair-range-at-b-sum-at-a", _d4(numeric={"a": (0, 0), "b": (1, 2)}))


def unknown_label_cases():
    """Inputs naming two or more labels the profile lacks: the first one, in the
    order the operation reads its arguments, is the one reported."""
    def fp(name, pdat, profile=P4):
        return f"bad-ul-{name}", "from_parabolic", profile, {"pdat": pdat}

    yield fp("two-weights", _p4(weights={"z": 0, "y": F(1, 2)}))
    yield fp("two-d2", _p4(d2={"a": 2, "z": 0, "y": 1}))
    yield fp("known-bad-weight-then-unknown", _p4(weights={"a": F(1, 3), "z": 0, "y": 0}))

    def z2(name, pdat, profile=P4):
        return f"bad-ul-{name}", "parabolic_zeta2", profile, {"pdat": pdat}

    yield z2("weight-and-d2", _p4(weights={"a": F(1, 4), "z": 0}, d2={"y": 0}))

    def ga(name, m, flags, profile=P4):
        return f"bad-ul-{name}", "gamma_apply", profile, {"data": _d4(), "m": m, "flags": flags}

    yield ga("two-m", {"z": 1, "y": 1}, {})
    yield ga("m-then-flag", {"a": 1, "z": 0}, {"y": FIRST, "a": FIRST})
    yield ga("two-flags", {"a": 1}, {"z": FIRST, "a": FIRST, "y": "up"})

    def sd(name, weights, profile=P4):
        return f"bad-ul-{name}", "solve_d2", profile, {
            "det": det_doc({"a": 1, "b": 1}, 0, "+"),
            "weights": {k: _weight_doc(w) for k, w in weights.items()}}

    yield sd("two-weights", {"z": F(1, 9), "a": F(1, 4), "y": 0})
    yield sd("known-bad-weight-then-unknown", {"a": F(1, 3), "z": 0, "y": 0})


def corpus():
    for name, op, profile, args in [*seeded_cases(), *malformed_cases(),
                                    *seeded_modification_cases(),
                                    *malformed_modification_cases(),
                                    *unknown_label_cases()]:
        # the stored form is what the test replays, so evaluate that form
        yield json.loads(json.dumps({"name": name, "op": op, "profile": profile, "args": args}))


def main() -> None:
    cases = [case | {"expect": evaluate(case)} for case in corpus()]
    lines = ",\n".join(json.dumps(case) for case in cases)
    FIXTURE.write_text("[\n" + lines + "\n]\n")
    errors = sum("error" in case["expect"] for case in cases)
    print(f"wrote {len(cases)} cases ({errors} errors) to {FIXTURE.name}")


if __name__ == "__main__":
    main()
