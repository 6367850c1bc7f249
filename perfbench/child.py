"""One workload in a fresh interpreter: set up, run the job list, check every job.

Started by `run.py`, never by hand.  Set-up time covers importing the
workload and with it the package, making the inputs from the seed,
loading the reference answers and the warm-up jobs; it is timed and
scaled like a job.  Each
job is timed alone and checked right after, outside its timing; `wall_s`
is the sum of the job times, and each job's raw and scaled time is
written to `out/jobs-*.jsonl`.  Every time is scaled to the reference
speed of `speed.py` by kernel samples taken around and during jobs, or
by the workload's own `SPEED_PROBE` around its jobs.  With
`--trace 1` spans are recorded and the per-layer metrics are derived from
them.  The result is one JSON object on the last line of stdout.
"""

import argparse
import importlib
import json
import random
import sys
import traceback

import speed
from common import OUT, SRC
from spans import NullTracer, Tracer, write_spans

sys.path.insert(0, str(SRC))


class Pass:
    """Raw times, speed scales, failures and facts of one pass over the job list."""

    def __init__(self):
        self.times: list[float] = []
        self.scales: list[float] = []
        self.failures: list[dict] = []
        self.facts: list[dict] = []


def run_pass(wl, jobs: list[dict], tracer) -> Pass:
    result = Pass()
    windows = []
    with speed.SpeedLog(getattr(wl, "SPEED_PROBE", speed.KERNEL)) as log:
        for index, job in enumerate(jobs):
            tracer.job = index
            log.start_job()
            try:
                out = tracer.call("job", wl.run, job, tracer)
                problems = None
            except Exception:
                # the job raised: a failed job, reported by name, and the run goes on
                problems = ["raised: " + traceback.format_exc(limit=4)]
            window, elapsed = log.end_job()
            windows.append(window)
            result.times.append(elapsed)
            facts = {}
            if problems is None:
                try:
                    problems = wl.check(job, out)
                except Exception:
                    problems = ["check raised: " + traceback.format_exc(limit=4)]
                try:
                    facts = wl.facts(job, out)
                except Exception:
                    problems.append("facts raised: " + traceback.format_exc(limit=4))
                # free the output now, so the next job starts from the same heap
                # whichever job ran before it
                out = None
            if problems:
                result.failures.append({"job": job["name"], "detail": "; ".join(problems)})
            result.facts.append(facts)
    result.scales = [log.scale(w) for w in windows]
    return result


def write_jobs(path, jobs: list[dict], raw: list[float], scaled: list[float]) -> None:
    """One JSON array per line: job name, raw seconds, scaled seconds."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for job, r, t in zip(jobs, raw, scaled):
            fh.write(json.dumps([job["name"], r, t]) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with speed.SpeedLog() as log:
        log.start_job()
        wl = importlib.import_module(f"wl_{args.workload}")
        jobs = wl.setup(random.Random(args.seed), args.seconds)
        for job in wl.warmup(jobs):
            wl.run(job, NullTracer)
        window, setup_raw = log.end_job()
    setup_s = setup_raw * log.scale(window)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": setup_raw}))
        return 0

    tracer = Tracer() if args.trace else NullTracer
    done = run_pass(wl, jobs, tracer)
    job_s = [t * k for t, k in zip(done.times, done.scales)]
    result = {
        "setup_s": setup_s,
        "raw_setup_s": setup_raw,
        "jobs": len(jobs),
        "attempted": len(jobs),
        "wall_s": sum(job_s),
        "raw_wall_s": sum(done.times),
        "job_s": job_s,
        "failures": done.failures,
    }
    write_jobs(OUT / f"jobs-{args.workload}-seed{args.seed}-trace{args.trace}.jsonl",
               jobs, done.times, job_s)
    if getattr(wl, "PEAK_RSS_FROM_CHILDREN", False):
        result["peak_rss_mb"] = max(f.get("rss_mb", 0.0) for f in done.facts)
    if args.trace:
        import layers

        tracer.job = None
        with speed.SpeedLog() as log:
            log.start_job()
            probes = wl.trace_probes(tracer) if hasattr(wl, "trace_probes") else {}
            window, _ = log.end_job()
        scales = dict(enumerate(done.scales))
        scales[None] = log.scale(window)
        probes = {name: value * scales[None] for name, value in probes.items()}
        result["layers"] = layers.per_layer(tracer.spans, jobs, done.facts, scales, probes)
        write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
