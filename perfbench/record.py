"""Write the benchmark's canonical inputs and record its reference answers.

    python3 perfbench/record.py [--only classify|census|cli]

Run this only when the benchmark itself changes, never to make a failing
check pass: the references are what the checks compare against.

  inputs/cli/*.json           canonical CLI documents (fixed constructions below)
  reference/cli.json          exit code and sha256 of stdout of every CLI job
  reference/census.json       component, intersection and class counts, g = 1..7
  reference/classify_pool.json
      flag configurations from `gen.flag_configuration` with POOL_SEED,
      PER_STRATUM per (g, c, weights, verdict), each labelled by the
      brute-force oracle in tests/oracle_stability.py, which shares no
      code with the classifier; and the verdict counts of SHARE_DRAWS
      further draws per (g, c, weights) cell with SHARE_SEED, the share
      of each verdict the generator produces
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import random
import sys

from common import INPUTS, REFERENCE, ROOT, SRC, run_child

sys.path.insert(0, str(SRC))

import gen  # noqa: E402
import wl_cli  # noqa: E402
from fixloc import (  # noqa: E402
    bundle_from_json,
    hyperelliptic_report,
    stability_classify,
)

POOL_SEED = 2002
PER_STRATUM = 12
SHARE_SEED = 2003
SHARE_DRAWS = 300
ATTEMPTS_PER_CELL = 4000
CLASS_COUNT_MAX_G = 5


def dump(path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def dump_pool(path, header: dict, bundles: list[dict]) -> None:
    """The pool with one compact line per configuration."""
    lines = [json.dumps(b, sort_keys=True, separators=(",", ":")) for b in bundles]
    head = json.dumps(header, sort_keys=True)[:-1]
    path.write_text(head + ', "bundles": [\n' + ",\n".join(lines) + "\n]}\n", encoding="utf-8")


def profile(n: int, lengths: dict, genus_base: int = 0) -> dict:
    return {"n": n, "genus_base": genus_base,
            "orbits": [{"id": label, "k": k} for label, k in lengths.items()]}


def cli_documents() -> dict:
    p12 = profile(12, {"a": 6, "b": 4}, 1)
    p24 = profile(24, {"y0": 1, "y1": 2, "y2": 3, "y3": 8, "y4": 12}, 2)
    hyper = lambda g: profile(2, {f"p{i}": 1 for i in range(2 * g + 2)})  # noqa: E731
    five = profile(24, {f"y{i}": 1 for i in range(5)})
    even = [0, 2, 4, 6, 8]
    p6 = profile(6, {"a": 1, "b": 3, "c": 2})
    half = {"num": 1, "den": 2}
    # a four-two flag split on six points balances exactly (strictly semistable)
    flags_g2 = [[i, 1] for i in range(4)] + [[1, 0], [1, 0]]
    rng = random.Random(POOL_SEED)
    stable_g3 = next(doc for doc in (gen.flag_configuration(rng, 3, -2, True) for _ in range(200))
                     if stability_classify(bundle_from_json(doc), 3).label == "Stable")
    return {
        "profile12.json": p12,
        "profile24.json": p24,
        "hyper3.json": hyper(3),
        "lambda_small.json": {"profile": hyper(1),
                              "det": {"residues": {f"p{i}": 0 for i in range(4)},
                                      "degree": 0, "lift_sign": "+"}},
        "lambda_five.json": {"profile": five,
                             "det": {"residues": {f"y{i}": r for i, r in enumerate(even)},
                                     "degree": sum(even), "lift_sign": "+"}},
        "weights.json": {"profile": p12, "numeric": {"a": [0, 1], "b": [1, 2]}},
        "zeta2.json": {"profile": p6,
                       "data": {"numeric": {"a": [1, 4], "b": [0, 1], "c": [1, 1]},
                                "det": {"residues": {"a": 5, "b": 1, "c": 2}, "degree": 12,
                                        "lift_sign": "+"}}},
        "stability_g2.json": {"g": 2, "c": -1, "points": list(range(6)), "flags": flags_g2,
                              "weights": [half] * 6},
        "stability_g3.json": stable_g3,
        "profile_unknown_field.json": {**p12, "colour": "red"},
        "profile_bad_length.json": profile(12, {"a": 5}),
        "lambda_bad_residue.json": {"profile": p12,
                                    "det": {"residues": {"a": 7}, "degree": 0}},
        "weights_missing_orbit.json": {"profile": p12, "numeric": {"a": [0, 1]}},
        "zeta2_odd.json": {"profile": profile(3, {"a": 1}),
                           "data": {"numeric": {"a": [0, 0]},
                                    "det": {"residues": {"a": 0}, "degree": 0}}},
        "stability_bad_count.json": {"g": 2, "c": -1, "points": [0, 1, 2, 3],
                                     "flags": [[1, 0]] * 4, "weights": [half] * 4},
    }


def record_cli() -> None:
    for name, doc in cli_documents().items():
        dump(INPUTS / "cli" / name, doc)
    (INPUTS / "cli" / "bad_json.json").write_text('{"n": 12, "orbits": [\n', encoding="utf-8")
    jobs = {}
    for name, sub, args in wl_cli.JOBS:
        job = {"subcommand": sub, "args": args}
        runs = [run_child(wl_cli.argv_of(job), wl_cli.CHILD_TIMEOUT) for _ in range(2)]
        first = runs[0]
        if runs[1].stdout != first.stdout or runs[1].code != first.code:
            raise SystemExit(f"cli job {name} is not deterministic")
        print(f"cli {name:32s} exit {first.code} {len(first.stdout):7d} bytes "
              f"{first.wall_s:6.2f} s {first.maxrss_mb:7.1f} MB")
        if sub != "reject":
            jobs[name] = {"exit": first.code, "sha256": hashlib.sha256(first.stdout).hexdigest()}
    dump(REFERENCE / "cli.json", {"jobs": jobs})


def record_census() -> None:
    genus = {}
    for g in range(1, 8):
        report = hyperelliptic_report(g, with_classes=g <= CLASS_COUNT_MAX_G)
        entry = {
            "components": {r.label: len(r.boundary_classes) for r in report.components},
            "pairwise": {f"{a} & {b}": len(s)
                         for (a, b), s in report.pairwise_intersections.items()},
            "dimensions": {r.label: r.dimension for r in report.components},
            "normal": all(r.normal for r in report.components),
            "subset_label_count": report.subset_label_count,
        }
        if g <= CLASS_COUNT_MAX_G:
            entry["class_count"] = report.boundary_class_count
        genus[str(g)] = entry
        print(f"census g={g}: {entry['components']} classes {entry.get('class_count')}")
    dump(REFERENCE / "census.json", {"genus": genus})


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracle_stability",
                                                  ROOT / "tests" / "oracle_stability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measure_shares() -> dict:
    """Verdict counts of SHARE_DRAWS generator draws per (g, c, weights) cell."""
    rng = random.Random(SHARE_SEED)
    shares = {}
    for g in (2, 3, 4):
        for c in gen.split_types(g):
            for weights in ("half", "generic"):
                counts = dict.fromkeys(("Stable", "StrictlySemistable", "Unstable"), 0)
                for _ in range(SHARE_DRAWS):
                    doc = gen.flag_configuration(rng, g, c, weights == "generic")
                    counts[stability_classify(bundle_from_json(doc), g).label] += 1
                shares[f"g{g}/c{c}/{weights}"] = counts
                print(f"shares g={g} c={c} {weights}: {counts}", flush=True)
    return shares


def record_classify() -> None:
    oracle = load_oracle()
    rng = random.Random(POOL_SEED)
    bundles, disagreements = [], 0
    for g in (2, 3, 4):
        for c in gen.split_types(g):
            for weights in ("half", "generic"):
                found: dict[str, list[dict]] = {}
                for _ in range(ATTEMPTS_PER_CELL):
                    doc = gen.flag_configuration(rng, g, c, weights == "generic")
                    label = stability_classify(bundle_from_json(doc), g).label
                    if len(found.setdefault(label, [])) < PER_STRATUM:
                        found[label].append(doc)
                    if len(found) == 3 and all(len(v) == PER_STRATUM for v in found.values()):
                        break
                for label, docs in sorted(found.items()):
                    for doc in docs:
                        truth = oracle.oracle_classify(bundle_from_json(doc))
                        disagreements += truth != label
                        bundles.append({"g": g, "c": c, "weights": weights, "label": truth,
                                        "doc": doc})
                print(f"classify g={g} c={c} {weights}: "
                      + ", ".join(f"{k} {len(v)}" for k, v in sorted(found.items())), flush=True)
    print(f"classifier and oracle disagree on {disagreements} configurations")
    dump_pool(REFERENCE / "classify_pool.json",
              {"pool_seed": POOL_SEED, "per_stratum": PER_STRATUM,
               "labels": "tests/oracle_stability.py oracle_classify",
               "share_seed": SHARE_SEED, "share_draws": SHARE_DRAWS,
               "shares": measure_shares()}, bundles)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=("classify", "census", "cli"))
    args = parser.parse_args()
    steps = {"cli": record_cli, "census": record_census, "classify": record_classify}
    for name, step in steps.items():
        if args.only in (None, name):
            step()
    return 0


if __name__ == "__main__":
    sys.exit(main())
