"""Workload `cli`: every subcommand as a fresh `python -m fixloc.cli` child.

The documents under `inputs/cli/` are canonical and fixed; the seed only
shuffles the order of the children.  One child runs at a time.  A child
passes when its exit code and the sha256 of its stdout match
`reference/cli.json`, recorded from the program.  Rejection documents
instead must end in exit 2 or 3 with nothing on stdout and no traceback.
A child that dies with a traceback, by a signal or by the time limit is
a failed job; the `weights` document that omits an orbit is one of them
until the program rejects it cleanly (see KNOWN_DEFECTS in `run.py`).
"""

from __future__ import annotations

import hashlib
import json
import os

import speed
from common import INPUTS, REFERENCE, ROOT, median, python_argv, run_child

CLI_REFERENCE = REFERENCE / "cli.json"
CHILD_TIMEOUT = 120.0
PASS_SECONDS = 5.0  # one pass over JOBS, in reference seconds (see speed.py)
# a bare interpreter's start-up at the reference speed of speed.py: in paired
# samples on a 2-core x86-64 sandbox it took about 105 kernel times
BARE_REFERENCE_S = 0.035
# peak RSS of this workload is that of its largest child, not of the runner
PEAK_RSS_FROM_CHILDREN = True


def _doc(name: str) -> str:
    return str((INPUTS / "cli" / name).relative_to(ROOT))


# (job name, subcommand, arguments); the job name keys the reference
JOBS = [
    ("kernel-json", "kernel", ["--file", _doc("profile12.json")]),
    ("kernel-text", "kernel", ["--file", _doc("profile24.json"), "--format", "text"]),
    ("factor-json", "factor", ["--file", _doc("profile24.json")]),
    ("orbits-json", "orbits", ["--file", _doc("profile24.json")]),
    ("decompose-text", "decompose", ["--file", _doc("profile12.json"), "--format", "text"]),
    ("decompose-json", "decompose", ["--file", _doc("profile24.json")]),
    ("lambda-list-json", "lambda", ["--file", _doc("lambda_small.json")]),
    ("lambda-list-text", "lambda", ["--file", _doc("lambda_small.json"), "--format", "text"]),
    ("lambda-five-orbits", "lambda", ["--file", _doc("lambda_five.json")]),
    ("weights-json", "weights", ["--file", _doc("weights.json")]),
    ("bijection-random", "bijection-check", ["--seed", "7"]),
    ("bijection-file", "bijection-check", ["--file", _doc("hyper3.json")]),
    ("zeta2-json", "zeta2", ["--file", _doc("zeta2.json")]),
    ("hyperelliptic-g4-json", "hyperelliptic", ["--g", "4"]),
    ("hyperelliptic-g4-dot", "hyperelliptic", ["--g", "4", "--format", "dot"]),
    ("hyperelliptic-g3-text", "hyperelliptic", ["--g", "3", "--format", "text"]),
    ("hyperelliptic-g6-counts", "hyperelliptic", ["--g", "6"]),
    ("census-even", "census", ["--n", "4", "--deg-delta", "8", "--genus-y", "2"]),
    ("census-odd-text", "census", ["--n", "3", "--deg-delta", "9", "--genus-y", "2", "--format", "text"]),
    ("stability-g2", "stability", ["--file", _doc("stability_g2.json")]),
    ("stability-g3-text", "stability", ["--file", _doc("stability_g3.json"), "--format", "text"]),
    # malformed or inadmissible input: exit 2 or 3, no traceback
    ("reject-bad-json", "reject", ["kernel", "--file", _doc("bad_json.json")]),
    ("reject-unknown-field", "reject", ["factor", "--file", _doc("profile_unknown_field.json")]),
    ("reject-bad-length", "reject", ["orbits", "--file", _doc("profile_bad_length.json")]),
    ("reject-det-residue", "reject", ["lambda", "--file", _doc("lambda_bad_residue.json")]),
    ("reject-weights-missing-orbit", "reject", ["weights", "--file", _doc("weights_missing_orbit.json")]),
    ("reject-zeta2-odd-order", "reject", ["zeta2", "--file", _doc("zeta2_odd.json")]),
    ("reject-stability-point-count", "reject", ["stability", "--file", _doc("stability_bad_count.json")]),
    ("reject-census-degree", "reject", ["census", "--n", "3", "--deg-delta", "7", "--genus-y", "1"]),
    ("reject-genus-zero", "reject", ["hyperelliptic", "--g", "0"]),
    ("reject-missing-file", "reject", ["kernel"]),
]

SUBCOMMANDS = sorted({sub for _, sub, _ in JOBS} - {"reject"})


def bare_start() -> float:
    """Start-up of a bare interpreter, best of two."""
    return min(run_child(python_argv("-c", "pass"), CHILD_TIMEOUT).wall_s for _ in range(2))


# jobs are scaled by the start-up of a bare interpreter taken around them,
# which tracks the children's speed under load where the kernel does not
SPEED_PROBE = speed.Probe(sample=bare_start, reference_s=BARE_REFERENCE_S, during_jobs=False)


def argv_of(job: dict) -> list[str]:
    if job["subcommand"] == "reject":
        return python_argv("-m", "fixloc.cli", *job["args"])
    return python_argv("-m", "fixloc.cli", job["subcommand"], *job["args"])


def setup(rng, seconds: float) -> list[dict]:
    # children inherit this, so that they run on the processor whose speed
    # the kernel samples measure
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(CLI_REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["jobs"]
    passes = max(1, round(seconds / PASS_SECONDS))
    jobs = []
    for _ in range(passes):
        batch = [{"name": f"cli/{name}", "key": name, "subcommand": sub, "args": args,
                  "expect": reference.get(name)} for name, sub, args in JOBS]
        rng.shuffle(batch)
        jobs += batch
    return jobs


def warmup(jobs: list[dict]) -> list[dict]:
    return [job for job in jobs if job["key"] == "kernel-json"][:1]


def run(job: dict, tracer):
    name = "cli.reject" if job["subcommand"] == "reject" else f"cli.{job['subcommand']}"
    return tracer.call(name, run_child, argv_of(job), CHILD_TIMEOUT)


def trace_probes(tracer, count: int = 5) -> dict:
    """Start-up of a bare interpreter, and the package import alone, each a median of children."""
    bare = [tracer.call("cli.python", run_child, python_argv("-c", "pass"), CHILD_TIMEOUT).wall_s
            for _ in range(count)]
    code = "import time; t = time.perf_counter(); import fixloc.cli; print(time.perf_counter() - t)"
    imports = [float(tracer.call("cli.import", run_child, python_argv("-c", code),
                                 CHILD_TIMEOUT).stdout)
               for _ in range(count)]
    return {"cli.python_ms": 1e3 * median(bare), "cli.import_ms": 1e3 * median(imports)}


def _crashed(out) -> bool:
    return out.timed_out or out.code < 0 or b"Traceback (most recent call last)" in out.stderr


def check(job: dict, out) -> list[str]:
    if _crashed(out):
        tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
        return [f"exit {out.code}{' after timeout' if out.timed_out else ''}: {tail[0]}"]
    if job["subcommand"] == "reject":
        if out.code not in (2, 3) or out.stdout:
            return [f"rejection exited {out.code} with {len(out.stdout)} bytes on stdout"]
        return []
    expect = job["expect"]
    if expect is None:
        return ["no recorded reference"]
    found = {"exit": out.code, "sha256": hashlib.sha256(out.stdout).hexdigest()}
    return [f"{key} {found[key]}, recorded {expect[key]}"
            for key in found if found[key] != expect[key]]


def facts(job: dict, out) -> dict:
    return {"rss_mb": out.maxrss_mb, "stdout_bytes": len(out.stdout)}
