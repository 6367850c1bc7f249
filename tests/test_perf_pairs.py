"""tools/perf_pairs.py: alternating parent/change benchmark pairs."""

import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "perf_pairs.py"


def pairs(*args, timeout=120):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args)], capture_output=True,
                          text=True, timeout=timeout)


def test_one_classify_pair_of_this_checkout_against_itself():
    proc = pairs(ROOT, ROOT, "--workload", "classify", "--seeds", "7", "--seconds", "0.2")
    assert proc.returncode == 0, proc.stderr
    pair, *lines = proc.stdout.splitlines()
    assert pair.startswith("pair 0 seed 7 classify (parent first): parent wall_s=")
    assert "; change wall_s=" in pair
    # each metric's summary, then its verdict against BENCHMARK.json's bound
    summaries, verdicts = lines[0::2], lines[1::2]
    assert [line.split(":")[0] for line in summaries] == [
        "classify wall_s", "classify peak_rss_mb", "classify setup_s"]
    assert all("lower in " in line and "/1; gap " in line and "the parent's IQR 0)" in line
               for line in summaries)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for line, name in zip(verdicts, ("wall_s", "peak_rss_mb", "setup_s")):
        # one pair is too few for a gain, and its IQR of 0 leaves nothing unresolved
        assert re.fullmatch(rf"classify {name}: (no regression|regression) "
                            rf"\(lower is better, bound {bounds[name]:g}\)", line), line


def fake_checkout(root: Path, correct: bool, failed: int) -> Path:
    # run.py exits 3 unless it may write no bytecode, has no cache prefix and
    # sees no __pycache__ beside it, although the checkout holds one: every
    # side compiles the package from source, as on a fresh checkout
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "perfbench" / "__pycache__" / "run.cpython-311.pyc").write_bytes(b"")
    (root / "perfbench" / "run.py").write_text(
        "import json, os, sys\n"
        "if not sys.dont_write_bytecode or sys.pycache_prefix or os.path.exists(\n"
        "        os.path.join(os.path.dirname(__file__), '__pycache__')):\n"
        "    sys.exit(3)\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        "workload = sys.argv[sys.argv.index('--workload') + 1]\n"
        "value = 1.0 + seed + 100 * (workload == 'census')\n"
        f"print(json.dumps({{'correct': {correct}, 'attempted': 3, 'failed': {failed},\n"
        "                  'metrics': {'wall_s': {'value': value, 'unit': 's'}}}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}]}))
    return root


def test_a_failed_job_on_either_side_fails_the_run(tmp_path):
    good = fake_checkout(tmp_path / "good", True, 0)
    proc = pairs(good, good, "--workload", "lambda", "--seeds", "1-3")
    assert proc.returncode == 0, proc.stderr
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        "pair 0 seed 1 lambda (parent first)", "pair 1 seed 2 lambda (change first)",
        "pair 2 seed 3 lambda (parent first)", "lambda wall_s", "lambda wall_s"]
    assert proc.stdout.splitlines()[-2:] == [
        "lambda wall_s: parent 3 [2.5, 3.5] -> change 3 [2.5, 3.5] s (+0.0%, lower in 0/3;"
        " gap 0 against the parent's IQR 1)",
        # an IQR of 1/3 of the median is wider than the bound of 0.15
        "lambda wall_s: unresolved (lower is better, bound 0.15)"]
    for correct, failed in ((False, 1), (True, 1)):
        bad = fake_checkout(tmp_path / f"bad-{correct}", correct, failed)
        proc = pairs(good, bad, "--workload", "census,lambda", "--seeds", "1-2")
        assert proc.returncode == 1
        for workload in ("census", "lambda"):
            assert f"{workload}: change seed 1: correct={correct} failed=1" in proc.stderr
        assert "4 run(s) not correct" in proc.stderr


def test_the_json_record_holds_each_pair_each_summary_and_the_provenance(tmp_path):
    parent, change = (fake_checkout(tmp_path / side, True, 0) for side in ("parent", "change"))
    for root, text in ((parent, "x = 1\n"), (change, "x = 2\n")):
        (root / "src" / "pkg" / "__pycache__").mkdir(parents=True)
        (root / "src" / "pkg" / "mod.py").write_text(text)
        (root / "src" / "pkg" / "__pycache__" / "mod.cpython-311.pyc").write_bytes(b"stale")
    out = tmp_path / "BENCH.json"
    proc = pairs(parent, change, "--workload", "lambda", "--seeds", "4-6", "--json", out)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["lambda"]
    lam = record["workloads"]["lambda"]
    assert lam["runs_not_correct"] == 0
    assert lam["pairs"] == [
        {"seed": seed, "first": first, "parent": {"wall_s": 1.0 + seed},
         "change": {"wall_s": 1.0 + seed}}
        for seed, first in ((4, "parent"), (5, "change"), (6, "parent"))]
    assert lam["metrics"] == {"wall_s": {
        "unit": "s", "better": "lower", "bound": 0.15,
        "parent": {"q1": 5.5, "median": 6.0, "q3": 6.5},
        "change": {"q1": 5.5, "median": 6.0, "q3": 6.5},
        # an IQR of 1/6 of the median is wider than the bound of 0.15
        "relative": 0.0, "lower": 0, "pairs": 3, "gap": 0.0, "parent_iqr": 1.0,
        "verdict": "unresolved"}}
    provenance = record["provenance"]
    assert provenance["seeds"] == [4, 5, 6] and provenance["nproc"] >= 1
    assert provenance["python"].count(".") == 2
    # the digest reads src/ as it ran, without the __pycache__ the copy leaves out
    assert provenance["source_sha256"] == {
        side: hashlib.sha256(b"src/pkg/mod.py\0" + text).hexdigest()
        for side, text in (("parent", b"x = 1\n"), ("change", b"x = 2\n"))}
    assert str(tmp_path) not in out.read_text()


def test_each_pair_runs_every_named_workload_on_both_sides(tmp_path):
    parent, change = (fake_checkout(tmp_path / side, True, 0) for side in ("parent", "change"))
    out = tmp_path / "BENCH.json"
    proc = pairs(parent, change, "--workload", "lambda,census", "--seeds", "1-2", "--json", out)
    assert proc.returncode == 0, proc.stderr
    # within a pair, the workloads in the order named, each on both sides in
    # the pair's order; then each workload's summary and verdict
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        "pair 0 seed 1 lambda (parent first)", "pair 0 seed 1 census (parent first)",
        "pair 1 seed 2 lambda (change first)", "pair 1 seed 2 census (change first)",
        "lambda wall_s", "lambda wall_s", "census wall_s", "census wall_s"]
    assert proc.stdout.splitlines()[6].startswith("census wall_s: parent 102.5 [102.25, 102.75]")
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["lambda", "census"]
    for workload, offset in (("lambda", 1.0), ("census", 101.0)):
        section = record["workloads"][workload]
        assert [pair["parent"]["wall_s"] for pair in section["pairs"]] == [offset + 1,
                                                                           offset + 2]
        assert section["metrics"]["wall_s"]["parent"]["median"] == offset + 1.5
        assert section["runs_not_correct"] == 0
    assert record["provenance"]["seeds"] == [1, 2]


def test_bad_arguments_exit_two(tmp_path):
    assert pairs(ROOT, ROOT, "--workload", "lambda", "--seeds", "5-4").returncode == 2
    # a workload list with an empty or a repeated name
    for workloads in ("lambda,", "lambda,,cli", "cli,lambda,cli"):
        assert pairs(ROOT, ROOT, "--workload", workloads, "--seeds", "1").returncode == 2
    assert pairs(ROOT, tmp_path, "--workload", "lambda", "--seeds", "1").returncode == 2
    # a change checkout whose BENCHMARK.json gives no bounds
    bare = fake_checkout(tmp_path / "bare", True, 0)
    (bare / "BENCHMARK.json").unlink()
    assert pairs(ROOT, bare, "--workload", "lambda", "--seeds", "1").returncode == 2


def load_tool():
    spec = importlib.util.spec_from_file_location("perf_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_verdict_follows_the_simplicity_guide():
    verdict = load_tool().verdict
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]
    # nine wins in ten, the medians 0.2 apart against an IQR of 0.045
    faster = [p - 0.2 for p in parent[:9]] + [parent[9] + 0.01]
    assert verdict(parent, faster, "lower", 0.15) == "gain"
    assert verdict(parent[:9], faster[:9], "lower", 0.15) == "no regression"  # too few pairs
    assert verdict(parent, [p + 0.2 for p in parent], "higher", 0.15) == "gain"
    # eight wins in ten are too few; a tie counts for neither side
    assert verdict(parent, faster[:8] + parent[8:], "lower", 0.15) == "no regression"
    # the medians close together: within the IQR, and within the bound
    assert verdict(parent, [p - 0.01 for p in parent], "lower", 0.15) == "no regression"
    assert verdict(parent, [p * 1.2 for p in parent], "lower", 0.15) == "regression"
    assert verdict(parent, [p * 1.1 for p in parent], "lower", 0.15) == "no regression"
    assert verdict(parent, [p * 0.8 for p in parent], "higher", 0.15) == "regression"
    # a parent spread past the bound, unless every change run beats every parent run
    wide = [1.0, 1.0, 1.5, 2.0, 2.0]
    assert verdict(wide, wide, "lower", 0.15) == "unresolved"
    assert verdict(wide, [0.9] * 5, "lower", 0.15) == "no regression"
