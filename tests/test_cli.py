"""Command line contract: schemas, exit codes, determinism."""

import hashlib
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

from fixloc import InternalError, cli, covers, equivariant, locus
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile
from fixloc.stability import MAX_MARKED_POINTS
from fixloc import (
    AdmissibleParabolicDatum,
    DeterminantLift,
    Rank2EqData,
    bundle_to_json,
    det_to_json,
    enumerate_lambda,
    make_bundle,
    make_profile,
    profile_to_json,
    rank2_to_json,
)

REPORTS = Path(__file__).resolve().parent / "fixtures" / "hyperelliptic_reports.json"

sys.path.insert(0, str(REPORTS.parent))
from record_lambda_listings import FIXTURE as LAMBDA_LISTINGS, run_cli  # noqa: E402


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
    assert payload["count"] == count > cli.LIST_CAP
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
    # 2^10 elements over 10 orbits: 10,240 element-orbits
    path = order_three_profile(tmp_path, 10)
    monkeypatch.setattr(cli, "MAX_BIJECTION_ELEMENT_ORBITS", 2 ** 10 * 10)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 0
    assert json.loads(out)["checked"] == 2 ** 10
    monkeypatch.setattr(cli, "MAX_BIJECTION_ELEMENT_ORBITS", 2 ** 10 * 10 - 1)
    refuse_round_trips(monkeypatch)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: Lambda has more than 1023 elements over 10 "
                   "orbits, past the bijection-check limit of 10239 element-orbits\n")


@pytest.mark.parametrize("count", [17, 70])
def test_bijection_check_rejects_a_large_lambda_before_any_round_trip(capsys, tmp_path,
                                                                     monkeypatch, count):
    # 2^17 elements over 17 orbits is past the limit; 2^70 is also past
    # sys.maxsize, where len() overflows
    assert 2 ** count * count > cli.MAX_BIJECTION_ELEMENT_ORBITS
    refuse_round_trips(monkeypatch)
    path = order_three_profile(tmp_path, count)
    code, out, err = run(capsys, "bijection-check", "--file", path)
    assert code == 3
    assert out == ""
    assert err.startswith("domain error: DomainError: Lambda has more than")
    assert "Traceback" not in err


def test_bijection_check_rejects_a_wide_orbit_without_building_its_pairs(capsys, tmp_path,
                                                                      monkeypatch):
    # one orbit of n' = 4,000,000 has 2,000,001 admissible pairs: past the limit
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
    assert err == ("domain error: DomainError: Lambda has more than 980000 elements over 1 "
                   "orbits, past the bijection-check limit of 980000 element-orbits\n")
    assert peak < 1_000_000


def test_lambda_limit(capsys, tmp_path, monkeypatch):
    # n' = 12 and 6 at residue 0: 7 + 4 = 11 per-orbit pairs to list
    doc = write(tmp_path, "lam.json", {
        "profile": profile_to_json(make_profile(12, [("a", 1), ("b", 2)])),
        "det": det_to_json(DeterminantLift(residues={"a": 0, "b": 0}, degree=0))})
    monkeypatch.setattr(cli, "MAX_LAMBDA_PAIRS", 11)
    code, out, _ = run(capsys, "lambda", "--file", doc)
    assert code == 0
    assert json.loads(out)["count"] == 28
    monkeypatch.setattr(cli, "MAX_LAMBDA_PAIRS", 10)
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
    monkeypatch.setattr(cli, "MAX_ORBIT_TABLE_ENTRIES", 12)
    code, out, _ = run(capsys, "orbits", "--file", doc)
    assert code == 0
    assert json.loads(out)["orbit_lengths_under_powers"]["b"] == {
        "1": 2, "2": 1, "3": 2, "4": 1, "5": 2, "6": 1}
    monkeypatch.setattr(cli, "MAX_ORBIT_TABLE_ENTRIES", 11)
    code, out, err = run(capsys, "orbits", "--file", doc)
    assert code == 3
    assert out == ""
    assert err == ("domain error: DomainError: the orbit table has 12 entries (2 orbits under "
                   "6 powers), past the orbits limit of 11 entries\n")


@pytest.mark.parametrize("n, orbits", [(500_001, 1), (250_001, 2), (3_000_000, 1)])
def test_orbits_rejects_a_large_table_without_building_it(capsys, tmp_path, n, orbits):
    assert cli.MAX_ORBIT_TABLE_ENTRIES == 500_000
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
def test_a_huge_cover_order_is_rejected_before_the_divisor_search(tmp_path, subcommand):
    # the search runs up to isqrt(n): 10^15 steps at n = 10^30
    doc = write(tmp_path, "huge.json", {"n": 10 ** 30, "orbits": [{"id": "a", "k": 10 ** 15}]})
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "fixloc.cli", subcommand, "--file", doc],
                          env=env, capture_output=True, text=True, timeout=10)
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


def test_hyperelliptic_reports_match_the_recorded_fixture(capsys):
    # recorded by tests/fixtures/record_hyperelliptic_reports.py with the
    # per-component enumeration; every report must stay byte-identical
    cases = json.loads(REPORTS.read_text())
    assert len(cases) == 24
    for case in cases:
        code, out, _ = run(capsys, "hyperelliptic", "--g", str(case["g"]),
                           "--format", case["format"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == case["sha256"], case


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


# inputs json.load cannot read: a directory, bytes that are not UTF-8, nesting
# past the recursion limit and an integer literal past the digit limit
UNREADABLE = {
    "directory": None,
    "utf16-bom": b"\xff\xfe{}",
    "deep-nesting": b"[" * 200_000,
    "long-integer": b"1" * 5_000,
}


@pytest.mark.parametrize("name", UNREADABLE)
def test_an_unreadable_file_is_a_schema_error_not_a_traceback(tmp_path, name):
    path = tmp_path
    if UNREADABLE[name] is not None:
        path = tmp_path / f"{name}.json"
        path.write_bytes(UNREADABLE[name])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "fixloc.cli", "kernel", "--file", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"schema error: cannot read {path}: ")
    assert "Traceback" not in proc.stderr


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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel"])  # missing --file
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "--format", "dot"])  # dot is report-only
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


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

    monkeypatch.setattr(locus, "zeta2_apply", broken)
    code, out, _ = run(capsys, "zeta2", "--file", zdoc)
    assert code == 1
    payload = json.loads(out)
    assert payload["property"] == "involution"
