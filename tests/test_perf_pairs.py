"""tools/perf_pairs.py: alternating parent/change benchmark pairs."""

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
    pair, *summaries = proc.stdout.splitlines()
    assert pair.startswith("pair 0 seed 7 (parent first): parent wall_s=")
    assert "; change wall_s=" in pair
    assert [line.split(":")[0] for line in summaries] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert all("lower in " in line and "/1; gap " in line and "the parent's IQR 0)" in line
               for line in summaries)


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
    return root


def test_a_failed_job_on_either_side_fails_the_run(tmp_path):
    good = fake_checkout(tmp_path / "good", True, 0)
    proc = pairs(good, good, "--workload", "lambda", "--seeds", "1-3")
    assert proc.returncode == 0, proc.stderr
    assert [line.split(":")[0] for line in proc.stdout.splitlines()] == [
        "pair 0 seed 1 (parent first)", "pair 1 seed 2 (change first)",
        "pair 2 seed 3 (parent first)", "wall_s"]
    assert proc.stdout.splitlines()[-1] == (
        "wall_s: parent 3 [2.5, 3.5] -> change 3 [2.5, 3.5] s (+0.0%, lower in 0/3;"
        " gap 0 against the parent's IQR 1)")
    for correct, failed in ((False, 1), (True, 1)):
        bad = fake_checkout(tmp_path / f"bad-{correct}", correct, failed)
        proc = pairs(good, bad, "--workload", "lambda", "--seeds", "1-2")
        assert proc.returncode == 1
        assert f"change seed 1: correct={correct} failed=1" in proc.stderr


def test_bad_arguments_exit_two(tmp_path):
    assert pairs(ROOT, ROOT, "--workload", "lambda", "--seeds", "5-4").returncode == 2
    assert pairs(ROOT, tmp_path, "--workload", "lambda", "--seeds", "1").returncode == 2
