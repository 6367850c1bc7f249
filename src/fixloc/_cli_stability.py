"""The CLI's stability report.

cmd_stability takes the parsed command line and returns its report as
(payload, lines); `cli.main` imports this module only to run it.
"""

from __future__ import annotations

from . import stability
from ._ser import _load_json


def cmd_stability(args) -> tuple[dict, list[str]]:
    bundle = stability.bundle_from_json(_load_json(args.file))
    verdict = stability.stability_classify(bundle)  # bundle_from_json enforced 2g+2 points
    lines = [f"class: {verdict.label}"]
    if verdict.witness is not None:
        wit = verdict.witness
        lines.append(f"witness degree: {wit.e}")
        lines.append(f"witness agreement: {sorted(wit.agreement)}")
    return stability.verdict_to_json(verdict), lines
