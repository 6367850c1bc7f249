"""Record the sha256 of every order-two census the CLI prints.

    PYTHONPATH=src python tests/fixtures/record_hyperelliptic_reports.py

writes tests/fixtures/hyperelliptic_reports.json next to this script:
the sha256 of the stdout of `fixloc hyperelliptic --g G --format F`
for G = 1..8 and F in json, text and dot.  Up to g = 4 the report
includes the honest semistable class count; from g = 5 it is counts
only, as the CLI decides.
test_cli.test_hyperelliptic_reports_match_the_recorded_fixture compares
the CLI against that file, so any change to a component, a boundary
class, an intersection or a normality flag shows up as a failing test.
Re-record only when a change of report is intended, and say why in the
change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

from fixloc import cli

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "hyperelliptic_reports.json"
GENERA = range(1, 9)
FORMATS = ("json", "text", "dot")


def report_sha256(g: int, fmt: str) -> str:
    """sha256 of the CLI's stdout for one report; the CLI must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["hyperelliptic", "--g", str(g), "--format", fmt])
    if code != 0:
        raise SystemExit(f"hyperelliptic --g {g} --format {fmt} exited {code}")
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def main() -> None:
    cases = [{"g": g, "format": fmt, "sha256": report_sha256(g, fmt)}
             for g in GENERA for fmt in FORMATS]
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in cases)
    FIXTURE.write_text("[\n" + lines + "\n]\n")
    print(f"wrote {len(cases)} cases to {FIXTURE.name}")


if __name__ == "__main__":
    main()
