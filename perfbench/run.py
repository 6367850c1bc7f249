"""fixloc benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # all workloads, untraced, run_seconds from BENCHMARK.json

Each workload runs in a fresh interpreter (`child.py`), so its peak RSS
and garbage-collector state are its own.  The set-up is also done in
SETUP_PROBES extra interpreters and `setup_s` is the median of all of
them.  With `--trace 0` the end-to-end metrics of BENCHMARK.json are
reported, with `--trace 1` the per-layer ones.  Every metric is printed
as `workload name value unit`; the full result, with its provenance, is
written to `perfbench/out/`; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

A job fails when it raises, crashes or exits wrongly, or when its
answer differs from the reference.  `failed` counts every failed job.
`correct` is false when any job failed, except the jobs named in
KNOWN_DEFECTS: they are counted in `failed` but do not make the run
incorrect.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

from common import BENCH, OUT, ROOT, SRC, median, nearest_rank, python_argv, run_child

WORKLOADS = ("classify", "census", "lambda", "cli")
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
# inputs the program is known to mishandle, kept so that the defect shows
# in `failed` until the program is fixed
KNOWN_DEFECTS = {
    # ROADMAP open item 2: a `weights` document that omits an orbit dies with
    # a KeyError traceback and exit 1 instead of being rejected with exit 2
    "cli/reject-weights-missing-orbit",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_contract() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        fail("BENCHMARK.json not found at the checkout root")


def provenance(args, workload: str) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "fixloc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "machine": platform.machine(), "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(args, workload: str, contract: dict) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    argv = python_argv(str(BENCH / "child.py"), "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds))

    def child(extra: list[str], trace: int) -> tuple[dict, float]:
        res = run_child(argv + ["--trace", str(trace)] + extra,
                        max(1.0, deadline - time.monotonic()))
        lines = res.stdout.decode(errors="replace").strip().splitlines()
        if res.code != 0 or not lines:
            sys.stderr.write(res.stderr.decode(errors="replace"))
            fail(f"{workload} child exited with {res.code}"
                 + (" after the time limit" if res.timed_out else ""))
        return json.loads(lines[-1]), res.maxrss_mb

    setups = [] if args.trace else [child(["--setup-only"], 0)[0] for _ in range(SETUP_PROBES)]
    data, maxrss_mb = child([], 0)
    setups.append(data)
    if args.trace:
        # the traced pass runs in its own fresh interpreter too, so that the
        # overhead ratio compares two runs that start from the same state
        traced, _ = child([], 1)

    jobs_ms = [1e3 * t for t in data["job_s"]]
    p90, beyond = nearest_rank(jobs_ms, 0.9)
    failures = data["failures"]
    extra = {"job_ms.p50": median(jobs_ms),
             "fail_ratio": len(failures) / data["attempted"], "jobs": data["jobs"],
             "raw_wall_s": data["raw_wall_s"],
             "raw_setup_s": median(s["raw_setup_s"] for s in setups)}
    if beyond >= 10:
        extra["job_ms.p90"] = p90
        extra["job_ms.p90.samples_beyond"] = beyond
    if args.trace:
        metrics = {**traced["layers"], "trace.overhead_ratio": traced["wall_s"] / data["wall_s"]}
        specs = contract["per_layer"]
        failures = failures + traced["failures"]
        extra["fail_ratio"] = len(failures) / (data["attempted"] + traced["attempted"])
    else:
        metrics = {
            "wall_s": data["wall_s"],
            "peak_rss_mb": data.get("peak_rss_mb", maxrss_mb),
            "setup_s": median(s["setup_s"] for s in setups),
        }
        specs = contract["end_to_end"]
    units = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(units):
        fail(f"{workload} metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ set(units))}")

    for name, unit in units.items():
        print(f"{workload:9s} {name:45s} {metrics[name]:14.6f} {unit}")
    extra_units = {"job_ms.p50": "ms", "fail_ratio": "1", "jobs": "count", "raw_wall_s": "s",
                   "raw_setup_s": "s", "job_ms.p90": "ms", "job_ms.p90.samples_beyond": "count"}
    for name, value in extra.items():
        print(f"{workload:9s} {name:45s} {value:14.6f} {extra_units[name]}")
    for f in failures:
        known = " (known defect)" if f["job"] in KNOWN_DEFECTS else ""
        print(f"{workload:9s} FAILED {f['job']}{known}: {f['detail'].strip()}")

    result = {
        "correct": all(f["job"] in KNOWN_DEFECTS for f in failures),
        "attempted": data["attempted"] + (traced["attempted"] if args.trace else 0),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = {**result, "provenance": provenance(args, workload),
              "extra": {name: {"value": v, "unit": extra_units[name]} for name, v in extra.items()},
              "setup_samples": setups[:-1] + [{k: data[k] for k in ("setup_s", "raw_setup_s")}],
              "failures": failures}
    path = OUT / f"BENCH-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def main() -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fixloc" / "__init__.py").is_file():
        fail(f"no package source at {SRC.relative_to(ROOT)}/fixloc; run from a full checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    if args.workload != "all":
        print(json.dumps(run_workload(args, args.workload, contract)))
        return 0
    results = {w: run_workload(args, w, contract) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m
                    for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
