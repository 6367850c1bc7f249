"""Command line contract: schemas, exit codes, determinism."""

import hashlib
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from fixloc import InternalError, cli, covers, equivariant, locus
from fixloc.locus import hyperelliptic_delta, hyperelliptic_profile
from fixloc.stability import MAX_MARKED_POINTS
from fixloc import (
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
    def refuse(det, profile):
        pytest.fail("Lambda built only to be counted")

    monkeypatch.setattr(equivariant, "enumerate_lambda", refuse)
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
    def refuse(data, profile):
        pytest.fail("round trip started past the limit")

    monkeypatch.setattr(equivariant, "to_parabolic", refuse)


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
    assert err == ("domain error: DomainError: Lambda has more than 700000 elements over 1 "
                   "orbits, past the bijection-check limit of 700000 element-orbits\n")
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


def test_hyperelliptic_genus_limit(capsys):
    g = cli.MAX_HYPERELLIPTIC_GENUS
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
                         ["1/2"] * 6)
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


def test_domain_error_exit_code(capsys, tmp_path):
    path = write(tmp_path, "bad_orbit.json", {"n": 6, "orbits": [{"id": "a", "k": 4}]})
    code, _, err = run(capsys, "kernel", "--file", path)
    assert code == 3
    assert "domain error" in err
    code, _, _ = run(capsys, "hyperelliptic", "--g", "0")
    assert code == 3


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
