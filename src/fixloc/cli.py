"""Command line interface: fixed-locus reports over JSON documents.

Exit codes: 0 success, 1 property-check failure (with a counterexample
dump) or violated internal invariant, 2 malformed input (schema or
usage) or a stdout closed before the report was written, 3 domain
rejection (mathematically inadmissible input).  All output is
deterministic for a fixed seed: reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys

# each command imports the layers it runs inside its body, so a CLI child
# loads only those
from ._ser import parse_object
from .errors import DomainError, InternalError, SchemaError

DEFAULT_SEED = 1729

# keep CLI outputs bounded; larger collections report counts only
LIST_CAP = 128

# bijection-check round-trips every element of Lambda, at a cost per element
# and per orbit; it accepts |Lambda| * max(1, orbits) up to this limit, where
# the slowest input measured, a single orbit, takes about 10 s (README)
MAX_BIJECTION_ELEMENT_ORBITS = 980_000

# lambda lists every per-orbit admissible pair; the largest listing accepted
# took about 2.5 s and 256 MB peak RSS as JSON (README)
MAX_LAMBDA_PAIRS = 500_000

# a component's boundary classes are a Set whose len must fit sys.maxsize,
# and the smallest splitting type has 4^g of them
MAX_HYPERELLIPTIC_GENUS = 31


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}")


def _emit(payload: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_input(path: str, **fields) -> dict:
    """A top-level document holding the given named sub-documents."""
    return parse_object(_load_json(path), "input", fields)


def _pair_counts(det, profile) -> list[int]:
    """Admissible pairs at each orbit, from the closed form: no pair list is built."""
    from .equivariant import admissible_pair_count
    return [admissible_pair_count(det.residues.get(y.id, 0), y.nprime) for y in profile.orbits]


def cmd_kernel(args) -> int:
    from . import covers
    profile = covers.profile_from_json(_load_json(args.file))
    r = covers.kernel_order(profile)
    payload = {"kernel_order": r, "gcd_orbit_lengths": covers.gcd_orbit_lengths(profile)}
    _emit(payload, args.format, [f"kernel_order: {r}"])
    return 0


def cmd_factor(args) -> int:
    from . import covers
    profile = covers.profile_from_json(_load_json(args.file))
    ramified, r = covers.factor_cover(profile)
    payload = {
        "ramified": covers.profile_to_json(ramified),
        "unramified_degree": r,
    }
    lines = [
        f"unramified degree: {r}",
        f"ramified part: n={ramified.n}, orbits "
        + ", ".join(f"{y.id}:k={y.k}" for y in ramified.orbits),
    ]
    _emit(payload, args.format, lines)
    return 0


def cmd_orbits(args) -> int:
    from . import covers
    profile = covers.profile_from_json(_load_json(args.file))
    table = {
        y.id: {str(d): covers.orbit_length_under_power(y.k, d)
               for d in range(1, profile.n + 1)}
        for y in profile.orbits
    }
    payload = {"n": profile.n, "orbit_lengths_under_powers": table}
    lines = [f"n = {profile.n}"]
    for y in profile.orbits:
        row = " ".join(f"{d}:{length}" for d, length in table[y.id].items())
        lines.append(f"{y.id} (k={y.k}): {row}")
    _emit(payload, args.format, lines)
    return 0


def cmd_lambda(args) -> int:
    from . import covers, equivariant
    doc = _load_input(args.file, profile=covers.profile_from_json, det=equivariant.det_from_json)
    profile, det = doc["profile"], doc["det"]
    equivariant.validate_det(det, profile)
    counts = _pair_counts(det, profile)
    # every pair is listed; count them before building any
    if sum(counts) > MAX_LAMBDA_PAIRS:
        raise DomainError(f"Lambda has {sum(counts)} admissible pairs over {len(counts)} orbits, "
                          f"past the lambda limit of {MAX_LAMBDA_PAIRS} pairs")
    per_orbit = {
        y.id: [[d1, d2] for d1, d2 in
               equivariant.admissible_pairs(det.residues.get(y.id, 0), y.nprime)]
        for y in profile.orbits
    }
    # |Lambda| is the product of the per-orbit pair counts; read Lambda only to list it
    count = math.prod(counts)
    payload = {"count": count, "per_orbit": per_orbit}
    if count <= LIST_CAP:
        payload["elements"] = [equivariant.numeric_to_json(el)
                               for el in equivariant.enumerate_lambda(det, profile)]
    lines = [f"admissible numeric data: {count}"]
    for label, pairs in sorted(per_orbit.items()):
        lines.append(f"{label}: " + " ".join(f"({a},{b})" for a, b in pairs))
    _emit(payload, args.format, lines)
    return 0


def cmd_weights(args) -> int:
    from . import covers, equivariant
    doc = _load_input(args.file, profile=covers.profile_from_json,
                      numeric=equivariant.numeric_from_json)
    ws = equivariant.weight_system(doc["numeric"], doc["profile"])
    payload = {"weights": {label: {"num": w.numerator, "den": w.denominator}
                           for label, w in sorted(ws.items())}}
    lines = [f"{label}: {w}" for label, w in sorted(ws.items())]
    _emit(payload, args.format, lines)
    return 0


def cmd_bijection_check(args) -> int:
    from . import covers, equivariant
    rng = random.Random(args.seed)
    profiles = []
    if args.file:
        profiles.append(covers.profile_from_json(_load_json(args.file)))
    else:
        profiles.extend(covers.random_profile(rng) for _ in range(20))
    checked = 0
    for profile in profiles:
        det = equivariant.random_det(rng, profile)
        orbits = len(profile.orbits)
        cap = MAX_BIJECTION_ELEMENT_ORBITS // max(1, orbits)
        # |Lambda| from the pair counts, before any pair list is built
        if math.prod(_pair_counts(det, profile)) > cap:
            raise DomainError(f"Lambda has more than {cap} elements over {orbits} orbits, "
                              f"past the bijection-check limit of "
                              f"{MAX_BIJECTION_ELEMENT_ORBITS} element-orbits")
        # enumerate_lambda validates the det once, and round_trip trusts its elements
        for numeric in equivariant.enumerate_lambda(det, profile):
            try:
                back = equivariant.round_trip(numeric, det, profile)
            except DomainError as exc:
                failure = {"error": str(exc)}
            else:
                if back.numeric == numeric and back.det == det:
                    checked += 1
                    continue
                failure = {"round_tripped": equivariant.rank2_to_json(back)}
            print(json.dumps({
                "property": "round_trip",
                "profile": covers.profile_to_json(profile),
                "datum": equivariant.rank2_to_json(equivariant.Rank2EqData(numeric, det)),
                **failure,
            }, indent=2, sort_keys=True))
            return 1
    payload = {"checked": checked, "profiles": len(profiles), "failures": 0}
    _emit(payload, args.format, [f"round trips checked: {checked} (all exact)"])
    return 0


def cmd_zeta2(args) -> int:
    from . import covers, equivariant, locus
    doc = _load_input(args.file, profile=covers.profile_from_json, data=equivariant.rank2_from_json)
    profile, data = doc["profile"], doc["data"]
    image = locus.zeta2_apply(data, profile)
    twice = locus.zeta2_apply(image, profile)
    if twice != data:
        print(json.dumps({
            "property": "involution",
            "datum": equivariant.rank2_to_json(data),
            "twice": equivariant.rank2_to_json(twice),
        }, indent=2, sort_keys=True))
        return 1
    payload = {
        "image": equivariant.rank2_to_json(image),
        "partition": locus.zeta2_partition(data.numeric, profile),
        "involution_ok": True,
    }
    lines = [f"image numeric: {equivariant.numeric_to_json(image.numeric)}",
             f"image lift sign: {image.det.lift_sign}",
             "involution: ok"]
    _emit(payload, args.format, lines)
    return 0


def cmd_decompose(args) -> int:
    from . import covers, locus
    profile = covers.profile_from_json(_load_json(args.file))
    report = locus.decomposition_report(profile)
    payload = {
        "n_parity": report.n_parity,
        "r_parity": report.r_parity,
        "case": report.case,
        "kernel_order": report.kernel_order,
        "statements": list(report.statements),
    }
    lines = [f"case: {report.case}", f"kernel order: {report.kernel_order}"]
    lines.extend(f"- {s}" for s in report.statements)
    _emit(payload, args.format, lines)
    return 0


def _hyperelliptic_payload(report) -> dict:
    comps = []
    for rec in report.components:
        entry = {
            "label": rec.label,
            "c": rec.c,
            "dimension": rec.dimension,
            "boundary_class_count": len(rec.boundary_classes),
            "normal": rec.normal,
        }
        if len(rec.boundary_classes) <= LIST_CAP:
            entry["boundary_classes"] = sorted(
                sorted(q) for q in rec.boundary_classes)
        comps.append(entry)
    pairwise = {
        f"{a} & {b}": len(shared)
        for (a, b), shared in sorted(report.pairwise_intersections.items())
    }
    return {
        "g": report.g,
        "d": report.d,
        "components": comps,
        "pairwise_intersection_counts": pairwise,
        "global_intersection": sorted(sorted(q) for q in report.global_intersection),
        "max_dimension": report.max_dimension,
        "semistable_class_count": report.boundary_class_count,
        "subset_label_count": report.subset_label_count,
    }


def cmd_hyperelliptic(args) -> int:
    from . import locus
    if args.g is None:
        raise SchemaError("hyperelliptic requires --g")
    if args.g > MAX_HYPERELLIPTIC_GENUS:
        raise DomainError(f"genus {args.g} is past the hyperelliptic limit of "
                          f"{MAX_HYPERELLIPTIC_GENUS}")
    report = locus.hyperelliptic_report(args.g, with_classes=args.g <= 4)
    payload = _hyperelliptic_payload(report)
    if args.format == "dot":
        lines = ["graph components {"]
        for rec in report.components:
            lines.append(
                f'  "{rec.label}" [label="{rec.label} dim={rec.dimension} '
                f'classes={len(rec.boundary_classes)}"];')
        for (a, b), shared in sorted(report.pairwise_intersections.items()):
            lines.append(f'  "{a}" -- "{b}" [label="{len(shared)}"];')
        lines.append("}")
        print("\n".join(lines))
        return 0
    lines = [f"g = {report.g}, d = {report.d}"]
    for rec in report.components:
        lines.append(f"{rec.label}: dimension {rec.dimension}, "
                     f"{len(rec.boundary_classes)} boundary classes, "
                     f"normal: {'yes' if rec.normal else 'no'}")
    for (a, b), shared in sorted(report.pairwise_intersections.items()):
        lines.append(f"{a} & {b}: {len(shared)} shared classes")
    lines.append(f"global intersection: {payload['global_intersection']}")
    lines.append(f"max dimension: {report.max_dimension}")
    if report.boundary_class_count >= 0:
        lines.append(f"semistable classes: {report.boundary_class_count}")
    _emit(payload, args.format, lines)
    return 0


def cmd_census(args) -> int:
    from . import locus
    if args.n is None or args.deg_delta is None or args.genus_y is None:
        raise SchemaError("census requires --n, --deg-delta and --genus-y")
    record = locus.unramified_census(args.n, args.deg_delta, args.genus_y)
    payload = {
        "n": record.n,
        "deg_delta": record.deg_delta,
        "genus_base": record.genus_base,
        "bar_degree": record.bar_degree,
        "case": record.case,
        "components": [
            {"kind": comp.kind, "count": comp.count, "description": comp.description}
            for comp in record.components
        ],
        "intersection_note": record.intersection_note,
    }
    lines = [f"case: {record.case}"]
    for comp in record.components:
        lines.append(f"- {comp.count} x {comp.kind}: {comp.description}")
    lines.append(record.intersection_note)
    _emit(payload, args.format, lines)
    return 0


def cmd_stability(args) -> int:
    from . import stability
    bundle = stability.bundle_from_json(_load_json(args.file))
    g = (len(bundle.points) - 2) // 2
    verdict = stability.stability_classify(bundle, g)
    payload = stability.verdict_to_json(verdict)
    lines = [f"class: {verdict.label}"]
    if verdict.witness is not None:
        wit = verdict.witness
        lines.append(f"witness degree: {wit.e}")
        lines.append(f"witness agreement: {sorted(wit.agreement)}")
    _emit(payload, args.format, lines)
    return 0


COMMANDS = {
    "kernel": cmd_kernel,
    "factor": cmd_factor,
    "lambda": cmd_lambda,
    "weights": cmd_weights,
    "bijection-check": cmd_bijection_check,
    "zeta2": cmd_zeta2,
    "orbits": cmd_orbits,
    "decompose": cmd_decompose,
    "hyperelliptic": cmd_hyperelliptic,
    "census": cmd_census,
    "stability": cmd_stability,
}

NEEDS_FILE = {"kernel", "factor", "lambda", "weights", "zeta2", "orbits",
              "decompose", "stability"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixloc",
        description="discrete classification data of fixed loci on rank-2 moduli")
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--file", help="input JSON document")
    parser.add_argument("--g", type=int, help="genus parameter")
    parser.add_argument("--n", type=int, help="cover order")
    parser.add_argument("--deg-delta", type=int, dest="deg_delta",
                        help="determinant degree upstairs")
    parser.add_argument("--genus-y", type=int, dest="genus_y", help="base genus")
    parser.add_argument("--format", choices=["json", "text", "dot"], default="json")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "dot" and args.subcommand != "hyperelliptic":
        parser.error("dot format is only available for the hyperelliptic report")
    if args.subcommand in NEEDS_FILE and not args.file:
        parser.error(f"{args.subcommand} requires --file")
    try:
        code = COMMANDS[args.subcommand](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so that the
        # flush at exit raises nothing (Python docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print("output error: stdout was closed before the report was written",
                  file=sys.stderr)
        except OSError:
            pass
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
