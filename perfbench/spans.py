"""Spans around the benchmark's calls into the package layers.

Every call from a workload into a layer goes through `tracer.call(name,
fn, *args)`.  With tracing off that is a plain call.  With tracing on it
records a span (id, parent id, job id, name, start, end) in memory; the
job loop opens one span per job, so layer spans have the job span as
parent.  Spans are written out when the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class NullTracer:
    """Tracing off."""

    spans = ()
    job = None

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


class Tracer:
    """Tracing on: one span per call, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._open: list[int] = []

    def call(self, name, fn, *args):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._open.pop()
            self.spans[sid] = (sid, parent, self.job, name, t0, t1)


def self_times(spans, scales: dict) -> list[float]:
    """Each span's duration minus the time its child spans cover, scaled by its job's factor."""
    own = [(s[5] - s[4]) * scales[s[2]] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= (s[5] - s[4]) * scales[s[2]]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def durations_by_name(spans, scales: dict) -> dict[str, list[tuple[float, int]]]:
    """Span name -> [(scaled duration, job id)] in call order."""
    out: dict[str, list[tuple[float, int]]] = defaultdict(list)
    for s in spans:
        out[s[3]].append(((s[5] - s[4]) * scales[s[2]], s[2]))
    return out


def write_spans(path: Path, spans) -> None:
    """One JSON array per line: id, parent id (-1 for none), job id, name, start, end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
