"""Record Λ listings and the CLI reports.

    PYTHONPATH=src python tests/fixtures/record_lambda_listings.py

writes lambda_listings.json and hyperelliptic_reports.json next to this
script.  lambda_listings.json holds two corpora:

- "listings": seeded cover profiles (n <= 24, up to five orbits, both
  lift signs) with a random determinant, each with |Λ| and the sha256
  of `listing(enumerate_lambda(det, profile))`, the JSON of every
  element in order with its labels in profile order;
- "cli": the exit code and the sha256 of stdout of `fixloc lambda` and
  `fixloc bijection-check --file` on every perfbench/inputs/cli/
  document, and of `fixloc bijection-check` without a file at the
  default seed and at seeds 5, 6 and 7, each in json and text.

test_equivariant.test_lambda_listings_match_the_recorded_fixture and
test_cli.test_lambda_reports_match_the_recorded_fixture replay both, so
a change to the order or content of Λ, or to what either subcommand
prints, shows up as a failing test.

hyperelliptic_reports.json holds the sha256 of the stdout of
`fixloc hyperelliptic --g G --format F` for G = 1..8 and F in json,
text and dot, each of which must exit 0.  Up to g = 4 the report
includes the honest semistable class count; from g = 5 it is counts
only, as the CLI decides.
test_cli.test_hyperelliptic_reports_match_the_recorded_fixture replays
them, so any change to a component, a boundary class, an intersection
or a normality flag shows up as a failing test.

Re-record only when a change of output is intended, and say why in the
change log.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402

from fixloc import cli, enumerate_lambda, profile_from_json, profile_to_json  # noqa: E402
from fixloc.equivariant import det_from_json, det_to_json  # noqa: E402

FIXTURE = HERE / "lambda_listings.json"
REPORTS = HERE / "hyperelliptic_reports.json"
CLI_INPUTS = ROOT / "perfbench" / "inputs" / "cli"
PROFILES = 40
REPORT_GENERA = range(1, 9)
REPORT_FORMATS = ("json", "text", "dot")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def listing(lam) -> str:
    return json.dumps([list(el.items()) for el in lam])


def listing_cases():
    rng = random.Random(4242)
    signs = set()
    for i in range(PROFILES):
        profile = gen.random_profile(rng, max_n=24, max_orbits=5)
        det = gen.random_det(rng, profile)
        signs.add(det.lift_sign)
        yield {"name": f"seed-{i}-n{profile.n}-o{len(profile.orbits)}",
               "profile": profile_to_json(profile), "det": det_to_json(det)}
    if signs != {"+", "-"}:
        raise SystemExit(f"corpus holds lift signs {sorted(signs)} only")


def record_listing(case: dict) -> dict:
    profile = profile_from_json(case["profile"])
    lam = enumerate_lambda(det_from_json(case["det"]), profile)
    return {"count": len(lam), "sha256": sha256(listing(lam))}


def cli_cases():
    for path in sorted(CLI_INPUTS.glob("*.json")):
        rel = str(path.relative_to(ROOT))
        for sub in ("lambda", "bijection-check"):
            for fmt in ("json", "text"):
                yield [sub, "--file", rel, "--format", fmt]
    for seed in (None, 5, 6, 7):
        for fmt in ("json", "text"):
            yield ["bijection-check", "--format", fmt] + ([] if seed is None else
                                                         ["--seed", str(seed)])


def run_cli(argv: list[str]) -> dict:
    """Exit code and stdout digest of one in-process CLI run from the repository root."""
    out = io.StringIO()
    args = [str(ROOT / a) if a.startswith("perfbench/") else a for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(args)
    return {"code": code, "stdout_sha256": sha256(out.getvalue())}


def report_case(g: int, fmt: str) -> dict:
    run = run_cli(["hyperelliptic", "--g", str(g), "--format", fmt])
    if run["code"] != 0:
        raise SystemExit(f"hyperelliptic --g {g} --format {fmt} exited {run['code']}")
    return {"g": g, "format": fmt, "sha256": run["stdout_sha256"]}


def main() -> None:
    listings = []
    for case in listing_cases():
        listings.append({**case, **record_listing(case)})
    runs = [{"argv": argv, **run_cli(argv)} for argv in cli_cases()]
    FIXTURE.write_text(json.dumps({"listings": listings, "cli": runs}, indent=1,
                                  sort_keys=True) + "\n")
    total = sum(case["count"] for case in listings)
    print(f"wrote {FIXTURE.name}: {len(listings)} listings ({total} elements), "
          f"{len(runs)} CLI runs")
    reports = [report_case(g, fmt) for g in REPORT_GENERA for fmt in REPORT_FORMATS]
    lines = ",\n".join(json.dumps(case, sort_keys=True) for case in reports)
    REPORTS.write_text("[\n" + lines + "\n]\n")
    print(f"wrote {len(reports)} cases to {REPORTS.name}")


if __name__ == "__main__":
    main()
