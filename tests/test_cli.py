"""Command line contract: schemas, exit codes, determinism."""

import argparse
import ast
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fixloc import DomainError, InternalError, cli, covers, equivariant, locus
from fixloc import _cli_covers, _cli_equivariant, _cli_help, _ser
from fixloc.graded import hyperelliptic_delta
from fixloc.stability import MAX_MARKED_POINTS
from fixloc import (
    AdmissibleParabolicDatum,
    DeterminantLift,
    Rank2EqData,
    bundle_to_json,
    det_to_json,
    enumerate_lambda,
    hyperelliptic_profile,
    make_bundle,
    make_profile,
    profile_to_json,
    rank2_to_json,
)

from record_lambda_listings import FIXTURE as LAMBDA_LISTINGS, REPORTS, run_cli

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def hyper_file(tmp_path):
    return write(tmp_path, "hyper.json", profile_to_json(hyperelliptic_profile(2)))


def test_kernel_of_the_double_cover_is_trivial(capsys, hyper_file):
    code, out, _ = run(capsys, "kernel", "--file", hyper_file)
    assert code == 0
    assert json.loads(out)["kernel_order"] == 1


def test_factor_and_orbits_and_decompose(capsys, tmp_path):
    path = write(tmp_path, "p.json", profile_to_json(make_profile(12, [("a", 6), ("b", 4)])))
    code, out, _ = run(capsys, "factor", "--file", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["unramified_degree"] == 2
    assert payload["ramified"]["n"] == 6
    code, out, _ = run(capsys, "orbits", "--file", path)
    assert code == 0
    assert json.loads(out)["orbit_lengths_under_powers"]["a"]["2"] == 3
    code, out, _ = run(capsys, "decompose", "--file", path)
    assert code == 0
    assert json.loads(out)["case"] == "n even, r even"


def test_lambda_weights_zeta2_pipeline(capsys, tmp_path):
    profile = hyperelliptic_profile(1)
    det = hyperelliptic_delta(1, 0)
    doc = write(tmp_path, "lam.json",
                {"profile": profile_to_json(profile), "det": det_to_json(det)})
    code, out, _ = run(capsys, "lambda", "--file", doc)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2 ** 4
    assert payload["per_orbit"]["p0"] == [[0, 0], [1, 1]]
    assert len(payload["elements"]) == payload["count"]

    numeric = enumerate_lambda(det, profile)[3]
    wdoc = write(tmp_path, "w.json",
                 {"profile": profile_to_json(profile),
                  "numeric": {k: list(v) for k, v in numeric.items()}})
    code, out, _ = run(capsys, "weights", "--file", wdoc)
    assert code == 0
    assert set(json.loads(out)["weights"]) == {"p0", "p1", "p2", "p3"}

    data = Rank2EqData(numeric=numeric, det=det)
    zdoc = write(tmp_path, "z.json",
                 {"profile": profile_to_json(profile), "data": rank2_to_json(data)})
    code, out, _ = run(capsys, "zeta2", "--file", zdoc)
    assert code == 0
    payload = json.loads(out)
    assert payload["involution_ok"] is True
    assert payload["image"]["det"]["lift_sign"] == "-"


def test_lambda_count_is_the_product_of_per_orbit_pairs(capsys, tmp_path, monkeypatch):
    def refuse(*args):
        pytest.fail("an element of Lambda built only to be counted")

    # the lazy view builds an element only when it is iterated or indexed
    monkeypatch.setattr(equivariant._Lambda, "__iter__", refuse)
    monkeypatch.setattr(equivariant._Lambda, "_decode", refuse)
    profile = make_profile(12, [("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 1)])
    det = DeterminantLift(residues={"a": 5, "b": 0, "c": 3, "d": 1, "e": 0}, degree=24)
    doc = write(tmp_path, "lam.json",
                {"profile": profile_to_json(profile), "det": det_to_json(det)})
    code, out, _ = run(capsys, "lambda", "--file", doc)
    assert code == 0
    payload = json.loads(out)
    count = math.prod(len(pairs) for pairs in payload["per_orbit"].values())
    assert payload["count"] == count > _ser.LIST_CAP
    assert "elements" not in payload
    code, out, _ = run(capsys, "lambda", "--file", doc, "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == f"admissible numeric data: {count}"


def test_lambda_reports_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_lambda_listings.py before Lambda became a
    # lazy view and before the CLI shared the test suite's random sampler
    runs = json.loads(LAMBDA_LISTINGS.read_text())["cli"]
    assert len(runs) == 72
    assert sum(run["code"] == 0 for run in runs) > 10
    for run in runs:
        assert run_cli(run["argv"]) == {"code": run["code"],
                                        "stdout_sha256": run["stdout_sha256"]}, run["argv"]


def order_three_profile(tmp_path, count):
    """n = 3 with `count` orbits of length 1: two admissible pairs per orbit."""
    return write(tmp_path, "p.json", profile_to_json(
        make_profile(3, [(f"y{i}", 1) for i in range(count)])))


def refuse_round_trips(monkeypatch):
    def refuse(*args):
        pytest.fail("round trip started past the limit")

    monkeypatch.setattr(equivariant, "_descend", refuse)


@pytest.mark.parametrize("from_file, profiles", [(False, 20), (True, 1)])
def test_bijection_check_validates_each_det_once_and_no_element(capsys, tmp_path, count_calls,
                                                               from_file, profiles):
    # 2^6 elements over 6 orbits from a file; 20 random covers without one
    argv = ["--file", order_three_profile(tmp_path, 6)] if from_file else ["--seed", "5"]
    calls = {name: count_calls(equivariant, name)
             for name in ("validate_det", "validate_rank2", "validate_parabolic")}
    code, out, err = run(capsys, "bijection-check", *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["profiles"] == profiles
    assert payload["checked"] > payload["profiles"]
    counts = {name: len(args) for name, args in calls.items()}
    assert counts == {"validate_det": profiles, "validate_rank2": 0, "validate_parabolic": 0}


def test_bijection_check_reports_a_descended_datum_the_ascent_cannot_take(capsys, tmp_path,
                                                                          monkeypatch):
    # a descent that puts d2 below the weight numerator m at one element
    path = order_three_profile(tmp_path, 3)
    descend = equivariant._descend
    broken = []

    def faulty(numeric, det, profile):
        pdat = descend(numeric, det, profile)
        if not broken and pdat.weights["y1"] > 0:
            broken.append(numeric)
            # a datum's maps are read-only, so the broken one is built afresh
            pdat = AdmissibleParabolicDatum(pdat.det_bar_degree, pdat.weights,
                                            {**pdat.d2, "y1": 0}, pdat.det_lift_sign)
        return pdat

    monkeypatch.setattr(equivariant, "_descend", faulty)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 1
    assert err == ""
    profile = covers.profile_from_json(json.loads(Path(path).read_text()))
    det = equivariant.random_det(random.Random(cli.DEFAULT_SEED), profile)
    assert json.loads(out) == {
        "property": "round_trip",
        "error": "derived lower exponent at 'y1' is negative",
        "profile": profile_to_json(profile),
        "datum": rank2_to_json(Rank2EqData(numeric=broken[0], det=det)),
    }


def test_bijection_check_reports_a_round_trip_that_changes_the_datum(capsys, tmp_path,
                                                                     monkeypatch):
    path = order_three_profile(tmp_path, 2)
    ascend = equivariant._ascend

    def shifted(pdat, spreads, profile):
        back = ascend(pdat, spreads, profile)
        det = DeterminantLift(residues=back.det.residues, degree=back.det.degree + 3,
                              lift_sign=back.det.lift_sign)
        return Rank2EqData(numeric=back.numeric, det=det)

    monkeypatch.setattr(equivariant, "_ascend", shifted)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["property"] == "round_trip"
    assert payload["round_tripped"]["det"]["degree"] == payload["datum"]["det"]["degree"] + 3


def test_bijection_check_limit(capsys, tmp_path, monkeypatch):
    # 10 orbits of two pairs each: a cover of 2 elements, 20 element-orbits
    path = order_three_profile(tmp_path, 10)
    monkeypatch.setattr(_cli_equivariant, "MAX_BIJECTION_ELEMENT_ORBITS", 2 * 10)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 0
    assert json.loads(out)["checked"] == 2 ** 10
    monkeypatch.setattr(_cli_equivariant, "MAX_BIJECTION_ELEMENT_ORBITS", 2 * 10 - 1)
    refuse_round_trips(monkeypatch)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: 2 round trips over 10 orbits are past the "
                   "bijection-check limit of 19 element-orbits\n")


@pytest.mark.parametrize("count", [17, 70])
def test_bijection_check_rejects_a_large_lambda_before_any_round_trip(capsys, tmp_path,
                                                                     monkeypatch, count):
    # count orbits of n' > 2 * limit / count: the widest orbit's pairs times the
    # orbits pass the limit; at 70 orbits |Lambda| is also past sys.maxsize,
    # where len() overflows
    nprime = 2 * (_cli_equivariant.MAX_BIJECTION_ELEMENT_ORBITS // count) + 4
    path = write(tmp_path, "p.json", profile_to_json(
        make_profile(nprime, [(f"y{i}", 1) for i in range(count)])))
    assert (nprime // 2) ** count > sys.maxsize
    refuse_round_trips(monkeypatch)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: DomainError: ")
    assert f" round trips over {count} orbits are past the bijection-check limit" in err
    assert "Traceback" not in err


def test_bijection_check_rejects_a_wide_orbit_without_building_its_pairs(capsys, tmp_path,
                                                                      monkeypatch):
    # one orbit of n' = 4,000,000 has 2,000,001 admissible pairs at the default
    # seed's residue, all in the cover: past the limit
    path = write(tmp_path, "wide.json",
                 {"n": 4_000_000, "genus_base": 0, "orbits": [{"id": "a", "k": 1}]})
    refuse_round_trips(monkeypatch)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "bijection-check", "--file", path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: 2000001 round trips over 1 orbits are past the "
                   "bijection-check limit of 980000 element-orbits\n")
    assert peak < 1_000_000


def first_failure(elements, det, profile):
    """The first of elements that round_trip does not give back, or None."""
    for numeric in elements:
        try:
            back = equivariant.round_trip(numeric, det, profile)
        except DomainError:
            return numeric
        if back.numeric != numeric or back.det != det:
            return numeric
    return None


def test_a_cover_of_lambda_round_trips_as_all_of_lambda_does(capsys, tmp_path):
    # the lemma of equivariant._Lambda.cover on seeded profiles, both lift
    # signs: bijection-check's verdict and checked equal those of a round trip
    # of every element of Lambda, read by index; and on the library side a
    # determinant whose degree does not descend fails on the cover as on Lambda
    rng = random.Random(77)
    signs, orbits, draws = set(), set(), 0
    while draws < 80:
        profile = covers.random_profile(rng, max_n=24, max_orbits=6)
        seed = rng.randrange(10 ** 6)
        det = equivariant.random_det(random.Random(seed), profile)
        lam = enumerate_lambda(det, profile)
        if len(lam) > 3000:
            continue
        draws += 1
        signs.add(det.lift_sign)
        orbits.add(len(profile.orbits))
        path = write(tmp_path, f"p{draws}.json", profile_to_json(profile))
        code, out, err = run(capsys, "bijection-check", "--file", path, "--seed", str(seed))
        full = first_failure((lam[i] for i in range(len(lam))), det, profile)
        assert (code, err, full) == (0, "", None), (profile, det)
        assert json.loads(out)["checked"] == len(lam)
        for shift in range(1, profile.n):
            shifted = DeterminantLift(det.residues, det.degree + shift, det.lift_sign)
            cover = first_failure(enumerate_lambda(shifted, profile).cover(), shifted, profile)
            assert cover is not None and first_failure(lam, shifted, profile) is not None
    assert signs == {"+", "-"} and orbits == set(range(7))


def test_bijection_check_round_trips_a_cover_of_a_wide_lambda(capsys, tmp_path, count_calls):
    # the cover holds as many elements as the widest orbit has pairs, and
    # checked counts all of Lambda, the product of the pair counts; 12 orbits
    # of n' = 24 have 12 or 13 pairs each
    profile = make_profile(24, [(f"y{i}", 1) for i in range(12)])
    path = write(tmp_path, "twelve.json", profile_to_json(profile))
    det = equivariant.random_det(random.Random(cli.DEFAULT_SEED), profile)
    counts = [equivariant.admissible_pair_count(det.residues[y.id], y.nprime)
              for y in profile.orbits]
    assert math.prod(counts) > 10 ** 6 and len(counts) == 12
    calls = count_calls(equivariant, "round_trip")
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"checked": math.prod(counts), "profiles": 1, "failures": 0}
    assert len(calls) == max(counts) == 13
    # each orbit's pairs, all of them, and each in order
    for i, y in enumerate(profile.orbits):
        pairs = [numeric[y.id] for numeric, _, _ in calls]
        wanted = equivariant.admissible_pairs(det.residues[y.id], y.nprime)
        assert pairs == wanted + [wanted[-1]] * (len(calls) - counts[i])


def many_orbits_of_order_three(tmp_path, count):
    """A profile of n = 3 with `count` orbits of k = 1, and a lambda document
    over it with every residue 0: two admissible pairs per orbit."""
    profile = make_profile(3, [(f"y{i}", 1) for i in range(count)])
    det = DeterminantLift(residues={y.id: 0 for y in profile.orbits}, degree=0)
    return (write(tmp_path, "profile.json", profile_to_json(profile)),
            write(tmp_path, "lambda.json",
                  {"profile": profile_to_json(profile), "det": det_to_json(det)}))


@pytest.fixture()
def default_digit_limit():
    """Python's default limit of 4,300 digits for str(int), whatever the environment set."""
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(outer)


def test_a_count_past_the_int_digit_limit_is_rejected_before_any_work(capsys, tmp_path,
                                                                      monkeypatch,
                                                                      default_digit_limit):
    # 2^15000 has 4,516 digits, past Python's default limit of 4,300 for str(int);
    # the 30,000 pairs are within the lambda limit, and the cover's 2 x 15,000
    # element-orbits within bijection-check's
    profile_path, lambda_path = many_orbits_of_order_three(tmp_path, 15_000)
    refuse_round_trips(monkeypatch)
    monkeypatch.setattr(equivariant, "admissible_pairs", lambda *args: pytest.fail("pairs listed"))
    message = ("domain error: DomainError: the count of Lambda has more than 4300 digits over "
               "15000 orbits, past Python's limit of 4300 digits for writing an int\n")
    big = tmp_path / "big.json"
    big.write_text('{"n": 1' + "0" * 4300 + ', "orbits": []}')
    for argv in (["lambda", "--file", lambda_path],
                 ["lambda", "--file", lambda_path, "--format", "text"],
                 ["bijection-check", "--file", profile_path]):
        assert run(capsys, *argv) == (3, "", message), argv
        assert sys.get_int_max_str_digits() == 4300
    # the limit still guards input: an int literal past it is a schema error
    code, out, err = run(capsys, "kernel", "--file", str(big))
    assert (code, out) == (2, "") and err.startswith(f"schema error: cannot read {big}: ")


@pytest.mark.parametrize("count, code", [(14_000, 0), (15_000, 3)])
def test_a_count_is_printed_whole_or_rejected_in_a_child(child, tmp_path, count, code):
    # 2^14000 has 4,215 digits, within the limit, and is printed whole
    profile_path, lambda_path = many_orbits_of_order_three(tmp_path, count)
    for argv in (["lambda", "--file", lambda_path], ["bijection-check", "--file", profile_path]):
        proc = child("-m", "fixloc.cli", *argv, timeout=120, PYTHONINTMAXSTRDIGITS=4300)
        assert proc.returncode == code, (argv, proc.stderr[-300:])
        assert "Traceback" not in proc.stderr
        if code == 0:
            key = "count" if argv[0] == "lambda" else "checked"
            assert json.loads(proc.stdout)[key] == 2 ** count
        else:
            assert proc.stdout == "" and "past Python's limit of 4300 digits" in proc.stderr


def test_a_report_past_the_int_digit_limit_is_a_domain_error(capsys, tmp_path,
                                                             default_digit_limit):
    # factor: the genus r(g - 1) + 1 of the free part, with r = 2 and g = 4,300
    # nines, has 4,301 digits; stability: the witness of the Unstable verdict at
    # e = -4 has p-coefficients of about 29,000 bits.  Neither text report holds
    # those ints, and both are written whole.
    factor = write(tmp_path, "factor.json", {"n": 2, "orbits": [], "genus_base": 10 ** 4300 - 1})
    stab = write(tmp_path, "stability.json", {
        "g": 3, "c": 0, "points": [10 ** 2200 + i for i in range(8)],
        "flags": [[0, 1], [1, {"num": -1, "den": 2}], [0, 1], [1, {"num": -1, "den": 3}],
                  [1, {"num": -7, "den": 2}], [1, {"num": 2, "den": 7}], [0, 1], [0, 1]],
        "weights": [{"num": 9, "den": 10}, {"num": 4, "den": 5}, {"num": 4, "den": 5},
                    {"num": 9, "den": 10}, {"num": 4, "den": 5}, 0, 0, 0]})
    message = ("domain error: DomainError: the report holds an int of more than 4300 digits, "
               "past Python's limit of 4300 digits for writing an int\n")
    texts = {"factor": "unramified degree: 2\nramified part: n=1, orbits \n",
             "stability": ("class: Unstable\nwitness degree: -4\n"
                           "witness agreement: [0, 1, 2, 3, 4]\n")}
    for argv in (["factor", "--file", factor], ["stability", "--file", stab]):
        assert run(capsys, *argv) == (3, "", message), argv
        assert run(capsys, *argv, "--format", "text") == (0, texts[argv[0]], ""), argv


def test_a_count_past_the_int_digit_limit_is_named_by_its_size(capsys, tmp_path,
                                                               default_digit_limit):
    # each rejection names a count one digit past the limit, derived from an
    # input n or g of 4,300 nines: n x 2 orbits table entries, three orbits of
    # about n/2 pairs each, and 2g + 2 marked points
    nines = 10 ** 4300 - 1
    orbits = [{"id": label, "k": 1} for label in "abc"]
    docs = {
        "orbits": {"n": nines, "orbits": orbits[:2]},
        "lambda": {"profile": {"n": nines, "orbits": orbits},
                   "det": {"residues": {"a": 0, "b": 0, "c": 0}, "degree": 0}},
        "stability": {"g": nines, "c": -1, "points": [0, 1, 2, 3], "flags": [[0, 1]] * 4,
                      "weights": [0] * 4},
    }
    expected = {
        "orbits": (3, f"domain error: DomainError: the orbit table has 10^4300 or more entries (2 "
                      f"orbits under {nines} powers), past the orbits limit of 500000 entries\n"),
        "lambda": (3, "domain error: DomainError: Lambda has 10^4300 or more admissible pairs "
                      "over 3 orbits, past the lambda limit of 500000 pairs\n"),
        "stability": (2, f"schema error: genus {nines} requires exactly 10^4300 or more points, "
                         f"flags and weights\n"),
    }
    for subcommand, doc in docs.items():
        code, message = expected[subcommand]
        path = write(tmp_path, f"{subcommand}.json", doc)
        assert run(capsys, subcommand, "--file", path) == (code, "", message), subcommand


def test_lambda_limit(capsys, tmp_path, monkeypatch):
    # n' = 12 and 6 at residue 0: 7 + 4 = 11 per-orbit pairs to list
    doc = write(tmp_path, "lam.json", {
        "profile": profile_to_json(make_profile(12, [("a", 1), ("b", 2)])),
        "det": det_to_json(DeterminantLift(residues={"a": 0, "b": 0}, degree=0))})
    monkeypatch.setattr(_cli_equivariant, "MAX_LAMBDA_PAIRS", 11)
    code, out, _ = run(capsys, "lambda", "--file", doc)
    assert code == 0
    assert json.loads(out)["count"] == 28
    monkeypatch.setattr(_cli_equivariant, "MAX_LAMBDA_PAIRS", 10)
    code, out, err = run(capsys, "lambda", "--file", doc)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: Lambda has 11 admissible pairs over 2 orbits, "
                   "past the lambda limit of 10 pairs\n")


def test_lambda_rejects_a_wide_orbit_without_building_its_pairs(capsys, tmp_path):
    # one orbit of n' = 4,000,000 has 2,000,001 admissible pairs
    doc = write(tmp_path, "wide.json", {
        "profile": {"n": 4_000_000, "genus_base": 0, "orbits": [{"id": "a", "k": 1}]},
        "det": det_to_json(DeterminantLift(residues={"a": 0}, degree=0))})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "lambda", "--file", doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: Lambda has 2000001 admissible pairs over 1 "
                   "orbits, past the lambda limit of 500000 pairs\n")
    assert peak < 1_000_000


def test_orbits_limit(capsys, tmp_path, monkeypatch):
    # two orbits under the 6 powers of n = 6: a table of 12 entries
    doc = write(tmp_path, "orbits.json", profile_to_json(make_profile(6, [("a", 1), ("b", 2)])))
    monkeypatch.setattr(_cli_covers, "MAX_ORBIT_TABLE_ENTRIES", 12)
    code, out, _ = run(capsys, "orbits", "--file", doc)
    assert code == 0
    assert json.loads(out)["orbit_lengths_under_powers"]["b"] == {
        "1": 2, "2": 1, "3": 2, "4": 1, "5": 2, "6": 1}
    monkeypatch.setattr(_cli_covers, "MAX_ORBIT_TABLE_ENTRIES", 11)
    code, out, err = run(capsys, "orbits", "--file", doc)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: the orbit table has 12 entries (2 orbits under "
                   "6 powers), past the orbits limit of 11 entries\n")


@pytest.mark.parametrize("n, orbits", [(500_001, 1), (250_001, 2), (3_000_000, 1)])
def test_orbits_rejects_a_large_table_without_building_it(capsys, tmp_path, n, orbits):
    assert _cli_covers.MAX_ORBIT_TABLE_ENTRIES == 500_000
    lengths = [{"id": f"y{i}", "k": 1} for i in range(orbits)]
    doc = write(tmp_path, "wide.json", {"n": n, "genus_base": 0, "orbits": lengths})
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "orbits", "--file", doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert err == (f"domain error: DomainError: the orbit table has {n * orbits} entries "
                   f"({orbits} orbits under {n} powers), past the orbits limit of "
                   "500000 entries\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("subcommand", ["kernel", "factor", "decompose"])
def test_kernel_order_limit(capsys, tmp_path, monkeypatch, subcommand):
    # n = 12 with orbits of length 6 and 4: kernel order 2
    doc = write(tmp_path, "p.json", profile_to_json(make_profile(12, [("a", 6), ("b", 4)])))
    monkeypatch.setattr(covers, "MAX_KERNEL_COVER_ORDER", 12)
    code, out, _ = run(capsys, subcommand, "--file", doc)
    assert code == 0
    assert json.loads(out)["kernel_order" if subcommand != "factor" else "unramified_degree"] == 2
    monkeypatch.setattr(covers, "MAX_KERNEL_COVER_ORDER", 11)
    code, out, err = run(capsys, subcommand, "--file", doc)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: cover order 12 is past the kernel-order limit "
                   "of 11\n")


@pytest.mark.parametrize("subcommand", ["kernel", "factor", "decompose"])
def test_a_huge_cover_order_is_rejected_before_the_divisor_search(child, tmp_path, subcommand):
    # the search runs up to isqrt(n): 10^15 steps at n = 10^30
    doc = write(tmp_path, "huge.json", {"n": 10 ** 30, "orbits": [{"id": "a", "k": 10 ** 15}]})
    proc = child("-m", "fixloc.cli", subcommand, "--file", doc, timeout=10)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == (f"domain error: DomainError: cover order {10 ** 30} is past the "
                           "kernel-order limit of 10000000000000000\n")


def test_hyperelliptic_genus_limit(capsys):
    g = locus.MAX_HYPERELLIPTIC_GENUS
    code, out, _ = run(capsys, "hyperelliptic", "--g", str(g), "--format", "text")
    assert code == 0
    assert f"c={-((g + 1) // 2)}: dimension {2 * g - 1}, {4 ** g} boundary classes" in out
    code, out, err = run(capsys, "hyperelliptic", "--g", str(g + 1))
    assert code == 3
    assert out == ""
    assert err == "domain error: DomainError: genus 32 is past the hyperelliptic limit of 31\n"


@pytest.mark.parametrize("numeric", [
    {"p0": [0, 1], "p1": [0, 1], "p2": [0, 1]},                     # orbit p3 missing
    {"p0": [0, 1], "p1": [0, 1], "p2": [0, 1], "p3": [0, 1], "q": [0, 0]},  # extra orbit
    {"p0": [0, 1], "p1": [0, 1], "p2": [0, 1], "p3": [0, 2]},        # d2 >= n'
    {"p0": [1, 0], "p1": [0, 1], "p2": [0, 1], "p3": [0, 1]},        # d1 > d2
])
def test_weights_rejects_numeric_not_matching_the_profile(capsys, tmp_path, numeric):
    doc = write(tmp_path, "w.json",
                {"profile": profile_to_json(hyperelliptic_profile(1)), "numeric": numeric})
    code, out, err = run(capsys, "weights", "--file", doc)
    assert code == 3
    assert out == ""
    assert "InvalidDatum" in err


def test_hyperelliptic_report_dimensions(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--g", "3")
    assert code == 0
    payload = json.loads(out)
    dims = {comp["c"]: comp["dimension"] for comp in payload["components"]}
    assert dims == {-2: 5, -1: 4}
    assert payload["pairwise_intersection_counts"] == {"c=-2 & c=-1": 29}
    assert payload["global_intersection"] == [[]]


def test_hyperelliptic_dot_output(capsys):
    code, out, _ = run(capsys, "hyperelliptic", "--g", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("graph components {")
    assert '"c=-1"' in out and '"c=-2"' in out and out.rstrip().endswith("}")


def test_hyperelliptic_reports_match_the_recorded_fixture():
    # recorded by tests/fixtures/record_lambda_listings.py with the
    # per-component enumeration; every report must stay byte-identical
    cases = json.loads(REPORTS.read_text())
    assert len(cases) == 24
    for case in cases:
        argv = ["hyperelliptic", "--g", str(case["g"]), "--format", case["format"]]
        assert run_cli(argv) == {"code": 0, "stdout_sha256": case["sha256"]}, case


def benchmark_cli_jobs():
    """(name, subcommand, args) of perfbench/wl_cli.py's JOBS, read from its source.

    The list is evaluated with its own `_doc` paths, relative to the checkout
    root, and without importing the benchmark's modules.
    """
    path = ROOT / "perfbench" / "wl_cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    [jobs] = [node.value for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["JOBS"]]
    docs = {"_doc": lambda name: str(Path("perfbench", "inputs", "cli", name))}
    return eval(compile(ast.Expression(jobs), str(path), "eval"), docs)


def test_every_benchmark_cli_job_matches_its_reference():
    # each job as the benchmark runs it: a fresh `python -m fixloc.cli` child,
    # in this environment and with block-buffered stdout (PYTHONUNBUFFERED unset)
    reference = json.loads((ROOT / "perfbench" / "reference" / "cli.json").read_text())["jobs"]
    jobs = benchmark_cli_jobs()
    assert len(jobs) == 31
    here = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    buffered = {name: value for name, value in here.items() if name != "PYTHONUNBUFFERED"}
    mismatches = []
    for env in (here, buffered):
        for name, subcommand, args in jobs:
            argv = args if subcommand == "reject" else [subcommand, *args]
            proc = subprocess.run([sys.executable, "-m", "fixloc.cli", *argv], cwd=ROOT,
                                  env=env, capture_output=True, stdin=subprocess.DEVNULL,
                                  timeout=120)
            assert b"Traceback" not in proc.stderr, (name, proc.stderr)
            if subcommand == "reject":
                found = proc.returncode in (2, 3) and proc.stdout == b""
            else:
                found = {"exit": proc.returncode,
                         "sha256": hashlib.sha256(proc.stdout).hexdigest()} == reference[name]
            if not found:
                mismatches.append((name, "PYTHONUNBUFFERED" in env, proc.returncode,
                                   proc.stderr.decode(errors="replace")))
    assert mismatches == []


def test_the_benchmark_cli_jobs_are_read_without_argparse(child):
    # each benchmark argv is in the plain form, which cli.parse_args reads
    # itself; only other argv load argparse, and with it gettext and locale
    argvs = [args if subcommand == "reject" else [subcommand, *args]
             for _, subcommand, args in benchmark_cli_jobs()]
    unwanted = ["argparse", "gettext", "locale"]
    loaded = f"print(*(m for m in {unwanted!r} if m in sys.modules))"
    bare = child("-c", f"import sys; {loaded}")
    proc = child("-c", f"import sys\nfrom fixloc import cli\n"
                       f"for argv in {argvs!r}:\n    cli.parse_args(argv)\n{loaded}")
    assert (bare.returncode, proc.returncode) == (0, 0), proc.stderr
    assert [m for m in proc.stdout.split() if m not in bare.stdout.split()] == []


def test_census_cases_and_rejection(capsys):
    code, out, _ = run(capsys, "census", "--n", "4", "--deg-delta", "8", "--genus-y", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "n even, reduced degree even"
    assert {c["kind"]: c["count"] for c in payload["components"]} == \
        {"kummer": 4, "pic0_quotient": 1}
    code, _, err = run(capsys, "census", "--n", "4", "--deg-delta", "9", "--genus-y", "2")
    assert code == 3
    assert "InconsistentDegrees" in err


def test_stability_subcommand(capsys, tmp_path):
    bundle = make_bundle(-1, -3, [0, 1, 2, 3, 4, 5],
                         [(0, 1), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)],
                         [Fraction(1, 2)] * 6)
    path = write(tmp_path, "b.json", bundle_to_json(bundle))
    code, out, _ = run(capsys, "stability", "--file", path)
    assert code == 0
    assert json.loads(out)["class"] in ("Stable", "StrictlySemistable", "Unstable")


def test_stability_rejects_too_many_marked_points(capsys, tmp_path):
    g = MAX_MARKED_POINTS // 2  # the first genus whose 2g+2 points exceed the limit
    npoints = 2 * g + 2
    doc = {"g": g, "c": 0, "points": list(range(npoints)), "flags": [[1, 1]] * npoints,
           "weights": [{"num": 1, "den": 2}] * npoints}
    code, out, err = run(capsys, "stability", "--file", write(tmp_path, "big.json", doc))
    assert (code, out) == (3, "")
    assert f"{npoints} marked points exceed the limit" in err
    assert "Traceback" not in err


def test_bijection_check_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "bijection-check", "--seed", "5")
    code2, out2, _ = run(capsys, "bijection-check", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    _, out3, _ = run(capsys, "bijection-check", "--seed", "6")
    assert json.loads(out3)["failures"] == 0


def test_reports_are_byte_identical(capsys, hyper_file):
    _, out1, _ = run(capsys, "hyperelliptic", "--g", "2")
    _, out2, _ = run(capsys, "hyperelliptic", "--g", "2")
    assert out1 == out2
    _, k1, _ = run(capsys, "kernel", "--file", hyper_file)
    _, k2, _ = run(capsys, "kernel", "--file", hyper_file)
    assert k1 == k2


def test_schema_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "bad.json", {"n": 2, "orbits": [], "zzz": 1})
    code, _, err = run(capsys, "kernel", "--file", path)
    assert code == 2
    assert "schema error" in err
    missing = str(tmp_path / "absent.json")
    code, _, _ = run(capsys, "kernel", "--file", missing)
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, _ = run(capsys, "kernel", "--file", str(broken))
    assert code == 2
    # a lift sign that is neither + nor -
    bad_sign = write(tmp_path, "bad_sign.json", {
        "profile": {"n": 2, "genus_base": 0, "orbits": [{"id": "a", "k": 1}]},
        "det": {"residues": {"a": 1}, "degree": 1, "lift_sign": "x"}})
    assert run(capsys, "lambda", "--file", bad_sign) == \
        (2, "", "schema error: input.det.lift_sign must be '+' or '-'\n")
    # residues that are a list, not an object of orbit labels
    listed = write(tmp_path, "listed_residues.json", {
        "profile": {"n": 2, "genus_base": 0, "orbits": [{"id": "a", "k": 1}]},
        "det": {"residues": [1], "degree": 0}})
    assert run(capsys, "lambda", "--file", listed) == \
        (2, "", "schema error: input.det.residues must be an object\n")
    # a weight that is neither an integer nor a {num, den} object
    halves = write(tmp_path, "float_weight.json", {
        "g": 1, "c": -1, "points": [0, 1, 2, 3], "flags": [[0, 1]] * 4, "weights": [0.5] * 4})
    assert run(capsys, "stability", "--file", halves) == \
        (2, "", "schema error: bundle.weights[0] must be an integer or a {num, den} object\n")


# inputs json.load cannot read: a directory, bytes that are not UTF-8, nesting
# past the recursion limit and an integer literal past the digit limit
UNREADABLE = {
    "directory": None,
    "utf16-bom": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000,
    "long-integer": b"1" * 5_000,
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_an_unreadable_file_is_a_schema_error_not_a_traceback(child, tmp_path, name):
    path = tmp_path
    if UNREADABLE[name] is not None:
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE[name])
    proc = child("-m", "fixloc.cli", "kernel", "--file", path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"schema error: cannot read {path}: ")
    assert "Traceback" not in proc.stderr


def test_a_file_past_the_read_limit_is_a_schema_error(capsys, tmp_path, monkeypatch):
    # the limit counts characters, not bytes: each orbit label takes two
    # bytes of UTF-8 and one character
    doc = json.dumps({"n": 2, "orbits": [{"id": "é", "k": 1}, {"id": "ü", "k": 1}]},
                     ensure_ascii=False)
    limit = len(doc) + 5
    monkeypatch.setattr(_ser, "MAX_FILE_CHARS", limit)
    at_limit, past_limit = tmp_path / "at.json", tmp_path / "past.json"
    at_limit.write_text(doc + " " * 5, encoding="utf-8")
    past_limit.write_text(doc + " " * 6, encoding="utf-8")
    assert len(at_limit.read_bytes()) > limit
    code, out, err = run(capsys, "kernel", "--file", str(at_limit))
    assert (code, err) == (0, "") and json.loads(out)
    assert run(capsys, "kernel", "--file", str(past_limit)) == \
        (2, "", f"schema error: {past_limit} is past the --file limit of {limit} characters\n")


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_an_endless_file_is_rejected_at_the_read_limit(child):
    proc = child("-m", "fixloc.cli", "kernel", "--file", "/dev/zero", timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"schema error: /dev/zero is past the --file limit of "
                           f"{_ser.MAX_FILE_CHARS} characters\n")


def test_domain_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "bad_orbit.json", {"n": 6, "orbits": [{"id": "a", "k": 4}]})
    code, _, err = run(capsys, "kernel", "--file", path)
    assert code == 3
    assert "domain error" in err
    code, _, _ = run(capsys, "hyperelliptic", "--g", "0")
    assert code == 3
    # a det whose residues leave out orbit b
    short_det = write(tmp_path, "short_det.json", {
        "profile": {"n": 4, "genus_base": 0, "orbits": [{"id": "a", "k": 1}, {"id": "b", "k": 2}]},
        "det": {"residues": {"a": 0}, "degree": 4}})
    code, out, err = run(capsys, "lambda", "--file", short_det)
    assert code == 3
    assert out == ""
    assert err == ("domain error: InvalidDatum: determinant residues must name every "
                   "profile orbit\n")
    # the benchmark's rejected zeta2 input: an odd cover order
    odd = ROOT / "perfbench" / "inputs" / "cli" / "zeta2_odd.json"
    code, out, err = run(capsys, "zeta2", "--file", str(odd))
    assert (code, out) == (3, "")
    assert err.startswith("domain error: OddOrder: ")


@pytest.mark.parametrize("argv, message", [
    # a missing or empty option, named with every option its subcommand requires
    (["kernel"], "kernel requires --file"),
    (["zeta2", "--file", ""], "zeta2 requires --file"),
    # bijection-check draws random covers with no --file, but not with an empty one
    (["bijection-check", "--file", ""], "bijection-check --file is empty"),
    (["hyperelliptic"], "hyperelliptic requires --g"),
    (["census", "--n", "4", "--deg-delta", "8"], "census requires --n, --deg-delta and --genus-y"),
    # dot is report-only, and it is checked first
    (["census", "--format", "dot"], "dot format is only available for the hyperelliptic report"),
    # one fault each, in argparse's words
    (["no-such-command"], "argument subcommand: invalid choice: 'no-such-command' (choose from "
                          "'bijection-check', 'census', 'decompose', 'factor', 'hyperelliptic', "
                          "'kernel', 'lambda', 'orbits', 'stability', 'weights', 'zeta2')"),
    (["hyperelliptic", "--format", "svg"],
     "argument --format: invalid choice: 'svg' (choose from 'json', 'text', 'dot')"),
    (["hyperelliptic", "--g", "three"], "argument --g: invalid int value: 'three'"),
    (["census", "--genus-y"], "argument --genus-y: expected one argument"),
    (["kernel", "--file", "--", "p.json"], "argument --file: expected one argument"),
    (["kernel", "p.json"], "unrecognized arguments: p.json"),
    (["kernel", "--verbose", "-x"], "unrecognized arguments: --verbose -x"),
    (["kernel", "--f", "p.json"], "ambiguous option: --f could match --file, --format"),
    (["--file=p.json"], "the following arguments are required: subcommand"),
])
def test_usage_errors_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"{_cli_help._usage(cli.OPTIONS)}\nfixloc: error: {message}\n"
    assert err.startswith("usage: fixloc ")


def test_help_lists_every_command_and_option_and_exits_zero(capsys):
    for argv in (["--help"], ["kernel", "-h"], ["--he"], ["--g", "3", "-hh"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"{_cli_help._usage(cli.OPTIONS)}\n") and out.endswith("\n")
        for name in [*cli.COMMANDS, *cli.OPTIONS, "--help", "(default: 1729)", "(default: json)"]:
            assert name in out


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI ran before cli.parse_args: its oracle."""
    parser = argparse.ArgumentParser(
        prog="fixloc",
        description="discrete classification data of fixed loci on rank-2 moduli")
    parser.add_argument("subcommand", choices=sorted(cli.COMMANDS))
    parser.add_argument("--file", help="input JSON document")
    parser.add_argument("--g", type=int, help="genus parameter")
    parser.add_argument("--n", type=int, help="cover order")
    parser.add_argument("--deg-delta", type=int, dest="deg_delta",
                        help="determinant degree upstairs")
    parser.add_argument("--genus-y", type=int, dest="genus_y", help="base genus")
    parser.add_argument("--format", choices=["json", "text", "dot"], default="json")
    parser.add_argument("--seed", type=int, default=cli.DEFAULT_SEED)
    return parser


def read_by_reference(argv):
    """(0, namespace) for argv the reference accepts, else (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return 0, vars(reference_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines()[-1] if exc.code else None


def read_by_cli(argv):
    """The same for cli.parse_args, with the error line main writes."""
    try:
        return 0, vars(cli.parse_args(argv))
    except cli._Usage as usage:
        return (2, f"fixloc: error: {usage.args[0]}") if usage.args else (0, None)


def _prefixes(option: str) -> list[str]:
    return [option[:end] for end in range(2, len(option) + 1)]


INTS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.integers(0, 10 ** 6).map(lambda n: f"{n:_}"),
    st.sampled_from([" 7", "+7", "7 ", "1" * 4301, "-" + "1" * 4301, "1.5", "-1.5", "-.5"]))
VALUES = st.one_of(INTS, st.sampled_from(["json", "text", "dot", "svg", "p.json", "", "-", "a b",
                                          "-1_000"]))
# the options of OPTIONS and --help under every prefix, from the bare "--" on
PREFIXES = sorted({prefix for option in [*cli.OPTIONS, "--help"] for prefix in _prefixes(option)})
# argparse releases read -1_000 (a number or an option) and -h run on into
# other characters (-hx, refused or the help text) differently; cli.parse_args
# leaves both to the argparse it runs on
ARGUMENTS = st.one_of(
    st.sampled_from([*cli.COMMANDS, "kern", "x", "", "--", "-", "-x", "-h", "-hh", "-hx", "-h3",
                     "-1_000"]),
    st.sampled_from(PREFIXES),
    st.builds("{}={}".format, st.sampled_from(PREFIXES), VALUES),
    VALUES)


def _well_formed(command: str, pairs: list[tuple[str, str]], at: int) -> list[str]:
    argv = [argument for pair in pairs for argument in pair]
    return [*argv[:2 * at], command, *argv[2 * at:]]


# argv that argparse mostly accepts: the subcommand among option pairs, with
# the options under unique prefixes and often repeated
WELL_FORMED = st.builds(
    _well_formed, st.sampled_from(sorted(cli.COMMANDS)),
    st.lists(st.tuples(st.sampled_from(["--g", "--n", "--de", "--genus-y", "--se"]),
                       st.integers(-99, 99).map(str)), max_size=4),
    st.integers(0, 4))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(ARGUMENTS, max_size=8), WELL_FORMED))
# the grammar: the subcommand among the options, = forms, unique prefixes,
# the last of a repeated option, --, negative numbers and int() conversions
@example(["--g", "3", "hyperelliptic", "--format=text"])
@example(["--fi", "p.json", "kernel", "--fo", "text", "--gen=1", "--de", "8"])
@example(["census", "--n", "1", "--n=2", "--seed", "5", "--seed", " 7"])
@example(["--", "kernel"])
@example(["kernel", "--", "x"])
@example(["hyperelliptic", "--g", "-1", "--seed", "-3"])
@example(["hyperelliptic", "--g", "+7", "--n", "1_000", "--seed=-1_000"])
@example(["kernel", "--f=p.json"])
@example(["--g", "1" * 4301, "hyperelliptic"])
# the plain form's edges: a value that starts with -, a second subcommand,
# a choice not among --format's
@example(["kernel", "--file", "-x"])
@example(["hyperelliptic", "--g", "-1_000"])
@example(["hyperelliptic", "--format", "svg"])
@example(["kernel", "kernel"])
def test_parse_args_reads_argv_as_the_argparse_parser_did(argv):
    assert read_by_cli(argv) == read_by_reference(argv)
    # argv may be any iterable
    assert read_by_cli(iter(argv)) == read_by_cli(argv)


def test_closed_stdout_exits_two_without_a_traceback(tmp_path):
    # one orbit of n' = 200,000 lists 100,001 pairs in text, far more than a pipe
    # buffer holds, so the child is still writing when the reader closes the pipe
    doc = write(tmp_path, "wide.json", {
        "profile": {"n": 200_000, "genus_base": 0, "orbits": [{"id": "a", "k": 1}]},
        "det": {"residues": {"a": 0}, "degree": 0}})
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    with open(tmp_path / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "fixloc.cli", "lambda", "--file", doc,
                                 "--format", "text"], env=env, stdout=subprocess.PIPE, stderr=err)
        assert proc.stdout.read(10) == b"admissible"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2
    assert ((tmp_path / "stderr.txt").read_text()
            == "output error: stdout was closed before the report was written\n")


def test_help_into_a_closed_stdout_exits_two_without_a_traceback():
    # the help text goes out through main's report path, so a reader gone
    # before the child writes is an output error, as for any report
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen([sys.executable, "-m", "fixloc.cli", "--help"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == b"output error: stdout was closed before the report was written\n"


BUFFERING = pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
CLI = [sys.executable, "-m", "fixloc.cli"]


def _output_fault(unbuffered: str, argv: list, stream: str,
                  fault: str) -> subprocess.CompletedProcess:
    # a CLI child whose stream, "stdout" or "stderr", is the device that
    # refuses every write (fault "full", ENOSPC) or is closed at start (fault
    # "closed", n>&-, so that sys.stdout or sys.stderr is None); the other
    # stream is piped.  An empty PYTHONUNBUFFERED is unset: stdout is
    # block-buffered, so the report sits in the buffer until main's flush,
    # and whatever is left there is flushed again at interpreter exit
    if fault == "full" and not os.path.exists("/dev/full"):
        pytest.skip("this system has no /dev/full")
    fd = {"stdout": 1, "stderr": 2}[stream]
    command = [*CLI, *argv]
    if fault == "closed":
        command = ["sh", "-c", f'exec "$@" {fd}>&-', "sh", *command]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "wb") if fault == "full" else contextlib.nullcontext() as sink:
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, stream: sink}
        return subprocess.run(command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=60,
                              **streams)


@BUFFERING
def test_a_stdout_that_fails_to_write_exits_two_without_a_traceback(unbuffered):
    # any OSError from writing the report ends as a closed pipe does; here
    # ENOSPC, from the device that refuses every write
    doc = ROOT / "perfbench" / "inputs" / "cli" / "profile12.json"
    proc = _output_fault(unbuffered, ["kernel", "--file", doc], "stdout", "full")
    assert (proc.returncode, proc.stderr.decode()) == (
        2, "output error: the report could not be written to stdout: "
           f"{os.strerror(errno.ENOSPC)}\n")


@BUFFERING
def test_a_stdout_closed_at_start_exits_two_without_a_traceback(unbuffered):
    # the report and the help text alike find no stdout to write to
    for argv in (["hyperelliptic", "--g", "3"], ["-h"]):
        proc = _output_fault(unbuffered, argv, "stdout", "closed")
        assert (proc.returncode, proc.stderr) == (
            2, b"output error: stdout was closed before the report was written\n"), argv


@BUFFERING
@pytest.mark.parametrize("fault", ["full", "closed"])
@pytest.mark.parametrize("argv, code", [
    (["kernel"], 2),
    (["kernel", "--file", str(ROOT / "no-such-file.json")], 2),
    (["hyperelliptic", "--g", "0"], 3),
], ids=["usage", "schema", "domain"])
def test_a_stderr_that_fails_or_is_closed_keeps_the_exit_code(unbuffered, fault, argv, code):
    # the message is dropped and the exit code stays; a traceback that could
    # not be written would exit 1, or 120 when the flush at exit fails
    proc = _output_fault(unbuffered, argv, "stderr", fault)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_internal_error_exit_code(capsys, hyper_file, monkeypatch):
    def broken(profile):
        raise InternalError("kernel order disagrees with the gcd route")

    monkeypatch.setattr(covers, "kernel_order", broken)
    code, out, err = run(capsys, "kernel", "--file", hyper_file)
    assert code == 1
    assert out == ""
    assert err.startswith("internal error: ")


def test_property_failure_exit_code(capsys, tmp_path, monkeypatch):
    profile = hyperelliptic_profile(1)
    det = hyperelliptic_delta(1, 0)
    numeric = enumerate_lambda(det, profile)[0]
    data = Rank2EqData(numeric=numeric, det=det)
    zdoc = write(tmp_path, "z.json",
                 {"profile": profile_to_json(profile), "data": rank2_to_json(data)})
    wrong = Rank2EqData(numeric=numeric,
                        det=DeterminantLift(residues=det.residues, degree=det.degree + 2,
                                            lift_sign=det.lift_sign))

    def broken(d, p):
        return wrong

    monkeypatch.setattr(equivariant, "zeta2_apply", broken)
    code, out, _ = run(capsys, "zeta2", "--file", zdoc)
    assert code == 1
    payload = json.loads(out)
    assert payload["property"] == "involution"
