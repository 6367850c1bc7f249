"""tools/perf_pairs.py: alternating parent/change benchmark pairs."""

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
    assert pair.startswith("pair 0 seed 7 (parent first): parent wall_s=")
    assert "; change wall_s=" in pair
    # each metric's summary, then its verdict against BENCHMARK.json's bound
    summaries, verdicts = lines[0::2], lines[1::2]
    assert [line.split(":")[0] for line in summaries] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert all("lower in " in line and "/1; gap " in line and "the parent's IQR 0)" in line
               for line in summaries)
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for line, name in zip(verdicts, ("wall_s", "peak_rss_mb", "setup_s")):
        # one pair is too few for a gain, and its IQR of 0 leaves nothing unresolved
        assert re.fullmatch(rf"{name}: (no regression|regression) "
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
        f"print(json.dumps({{'correct': {correct}, 'attempted': 3, 'failed': {failed},\n"
        "                  'metrics': {'wall_s': {'value': 1.0 + seed, 'unit': 's'}}}))\n")
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.15}]}))
    return root


def test_a_failed_job_on_either_side_fails_the_run(tmp_path):
    good = fake_checkout(tmp_path / "good", True, 0)
    proc = pairs(good, good, "--workload", "lambda", "--seeds", "1-3")
    assert proc.returncode == 0, proc.stderr
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        "pair 0 seed 1 (parent first)", "pair 1 seed 2 (change first)",
        "pair 2 seed 3 (parent first)", "wall_s", "wall_s"]
    assert proc.stdout.splitlines()[-2:] == [
        "wall_s: parent 3 [2.5, 3.5] -> change 3 [2.5, 3.5] s (+0.0%, lower in 0/3;"
        " gap 0 against the parent's IQR 1)",
        # an IQR of 1/3 of the median is wider than the bound of 0.15
        "wall_s: unresolved (lower is better, bound 0.15)"]
    for correct, failed in ((False, 1), (True, 1)):
        bad = fake_checkout(tmp_path / f"bad-{correct}", correct, failed)
        proc = pairs(good, bad, "--workload", "lambda", "--seeds", "1-2")
        assert proc.returncode == 1
        assert f"change seed 1: correct={correct} failed=1" in proc.stderr


def test_bad_arguments_exit_two(tmp_path):
    assert pairs(ROOT, ROOT, "--workload", "lambda", "--seeds", "5-4").returncode == 2
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
