"""Paths, child-process handling and order statistics shared by the benchmark."""

from __future__ import annotations

import math
import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
INPUTS = BENCH / "inputs"
OUT = BENCH / "out"


def src_env() -> dict:
    """Environment for a child that imports the package from the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ChildResult:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(argv: list[str], timeout: float) -> ChildResult:
    """Run one child to completion and reap it with its own resource usage.

    Both pipes are drained together, so a child writing a lot to either
    never blocks; the child is reaped with `os.wait4`, which reports the
    peak RSS of that child alone.  A child still running at the deadline
    is killed and reaped.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, cwd=ROOT, env=src_env())
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(err_fd, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        # reaped here rather than by Popen, so that the child's own rusage is kept
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return ChildResult(code=proc.returncode, stdout=b"".join(chunks[out_fd]),
                       stderr=b"".join(chunks[err_fd]), wall_s=perf_counter() - t0,
                       maxrss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out)


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def nearest_rank(values, q: float) -> tuple[float, int]:
    """Nearest-rank quantile and the number of samples strictly beyond its rank."""
    values = sorted(values)
    rank = max(1, math.ceil(q * len(values)))
    return values[rank - 1], len(values) - rank
