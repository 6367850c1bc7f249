"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

It checks the output contract of `run.py`, that a corrupted reference
answer and a job that raises are each counted as a failed job and make
the run incorrect, and that the benchmark refuses to run without the
package source.  It measures nothing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: Path, workload: str, trace: int = 0):
    """Run the benchmark in `root`; return the process and its parsed last line, if any."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc, None


def copy_checkout(dest: Path, with_source: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    specs = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {spec["name"]: spec["unit"] for spec in specs}
    printed = {tuple(line.split()[1:4:2]) for line in proc.stdout.splitlines()[:-1]}
    for spec in specs:
        assert (spec["name"], spec["unit"]) in printed
        if not trace:
            assert result["metrics"][spec["name"]]["value"] > 0


def test_corrupted_census_reference_is_a_counted_failure(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "reference" / "census.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    reference["genus"]["2"]["class_count"] += 1
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc, result = run(root, "census")
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] >= 1 and not result["correct"]
    assert "FAILED census/report/g2" in proc.stdout


def test_job_that_raises_is_a_counted_failure(tmp_path):
    root = copy_checkout(tmp_path)
    locus = root / "src" / "fixloc" / "locus.py"
    # the g=2 jobs are the warm-up; the timed g=3 report job must fail
    locus.write_text(locus.read_text(encoding="utf-8") + (
        "\n\n_report = hyperelliptic_report\n\n\n"
        "def hyperelliptic_report(g, *args, **kwargs):\n"
        "    if g >= 3:\n"
        "        raise RuntimeError('injected failure')\n"
        "    return _report(g, *args, **kwargs)\n"), encoding="utf-8")
    proc, result = run(root, "census")
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] >= 1 and not result["correct"]
    assert "FAILED census/report/g3: raised: " in proc.stdout


def test_corrupted_classify_labels_are_counted_failures(tmp_path):
    root = copy_checkout(tmp_path)
    path = root / "perfbench" / "reference" / "classify_pool.json"
    pool = json.loads(path.read_text(encoding="utf-8"))
    swap = {"Stable": "Unstable", "Unstable": "StrictlySemistable", "StrictlySemistable": "Stable"}
    for entry in pool["bundles"]:
        if entry["g"] == 2:
            entry["label"] = swap[entry["label"]]
    path.write_text(json.dumps(pool), encoding="utf-8")
    proc, result = run(root, "classify")
    assert proc.returncode == 0, proc.stderr
    assert result["failed"] >= 2 and not result["correct"]
    assert "FAILED classify/g2/c-1/" in proc.stdout


def test_refuses_to_run_without_the_package_source(tmp_path):
    root = copy_checkout(tmp_path, with_source=False)
    proc, result = run(root, "classify")
    assert proc.returncode != 0
    assert result is None
