"""Per-layer metrics of a traced run, derived from its spans.

Every workload yields every metric; a layer the workload never calls
reads 0, which is the prediction for the workloads where that layer is
expected not to move.  Span names are `<layer>.<operation>`; the job
table and the facts each job reported (verdict, Λ size, child RSS, ...)
split the spans further.
"""

from __future__ import annotations

from common import median
from spans import durations_by_name, layer_of, self_times
from wl_cli import SUBCOMMANDS

IN_PROCESS_LAYERS = ("covers", "divisors", "equivariant", "locus", "stability")
VERDICTS = ("Stable", "StrictlySemistable", "Unstable")


def per_layer(spans, jobs: list[dict], facts: list[dict], scales: dict, probes: dict) -> dict:
    """Every per-layer metric except `trace.overhead_ratio`, which needs an untraced run.

    Span times are scaled to the reference speed by the factor of their job
    (`scales`, keyed by job id).
    """
    by_name = durations_by_name(spans, scales)
    info = [{**job, **f} for job, f in zip(jobs, facts)]

    def matches(job_id, where) -> bool:
        return all(info[job_id].get(k) == v for k, v in where.items())

    def busy(name, **where) -> float:
        return sum(d for d, j in by_name.get(name, ()) if not where or matches(j, where))

    def at_max_g(name) -> float:
        gs = [info[j]["g"] for _, j in by_name.get(name, ())]
        return busy(name, g=max(gs)) if gs else 0.0

    def total_fact(key, **where) -> float:
        return sum(i.get(key, 0) for j, i in enumerate(info) if matches(j, where))

    m: dict[str, float] = {}

    classify = by_name.get("stability.classify", [])
    m["stability.classify.calls"] = len(classify)
    m["stability.classify.busy_s"] = busy("stability.classify")
    m["stability.classify.busy_s.half"] = busy("stability.classify", weights="half")
    m["stability.classify.busy_s.generic"] = busy("stability.classify", weights="generic")
    for g in (2, 3, 4):
        m[f"stability.classify.busy_s.g{g}"] = busy("stability.classify", g=g)
    for label in VERDICTS:
        times = [d for d, j in classify if info[j].get("verdict") == label]
        m[f"stability.classify_ms.{label}.p50"] = 1e3 * median(times)
        m[f"stability.verdicts.{label}"] = len(times)
    early = sum(1 for _, j in classify if info[j].get("early_exit"))
    m["stability.early_exit_ratio"] = early / len(classify) if classify else 0.0
    m["stability.graded_of.busy_s"] = busy("stability.graded_of")

    m["locus.closure.busy_s"] = busy("locus.closure")
    m["locus.closure.busy_s.max_g"] = at_max_g("locus.closure")
    m["locus.closure.points"] = total_fact("points", way="closure")
    m["locus.closure.classes"] = total_fact("classes", way="closure")
    m["locus.report.busy_s"] = busy("locus.report")
    m["locus.boundary.busy_s"] = busy("locus.boundary")
    m["locus.boundary.busy_s.max_g"] = at_max_g("locus.boundary")
    m["locus.boundary.classes"] = total_fact("classes", way="counts")
    m["locus.zeta2.busy_s"] = busy("locus.zeta2")
    m["locus.cases.busy_s"] = busy("locus.cases")

    m["equivariant.enumerate.busy_s"] = busy("equivariant.enumerate")
    m["equivariant.enumerate.elements"] = total_fact("elements")
    trips = [d for d, _ in by_name.get("equivariant.roundtrip", ())]
    m["equivariant.roundtrip.calls"] = len(trips)
    m["equivariant.roundtrip.busy_s"] = sum(trips)
    m["equivariant.roundtrip_us.p50"] = 1e6 * median(trips)
    m["equivariant.modify.busy_s"] = busy("equivariant.modify")
    m["equivariant.solve_d2.busy_s"] = busy("equivariant.solve_d2")

    for layer in ("covers", "divisors"):
        names = [n for n in by_name if layer_of(n) == layer]
        m[f"{layer}.calls"] = sum(len(by_name[n]) for n in names)
        m[f"{layer}.busy_s"] = sum(busy(n) for n in names)

    m["cli.python_ms"] = probes.get("cli.python_ms", 0.0)
    m["cli.import_ms"] = probes.get("cli.import_ms", 0.0)
    for sub in SUBCOMMANDS + ["reject"]:
        m[f"cli.{sub}.wall_ms"] = 1e3 * median(d for d, _ in by_name.get(f"cli.{sub}", ()))
    for sub in ("lambda", "hyperelliptic"):
        m[f"cli.{sub}.rss_mb"] = max((i["rss_mb"] for i in info if i.get("subcommand") == sub),
                                     default=0.0)
    m["cli.stdout_bytes"] = total_fact("stdout_bytes")

    own = self_times(spans, scales)
    for layer in IN_PROCESS_LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own) if layer_of(s[3]) == layer)
    return m
