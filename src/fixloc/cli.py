"""Command line interface: fixed-locus reports over JSON documents.

Each subcommand has one row in COMMANDS: the function that builds its
report and the options it cannot run without.  A builder returns the
report as (payload, lines), the JSON document and the text or dot lines,
or raises _PropertyFailure with a counterexample document; it writes
nothing.  main alone writes stdout and picks the exit code.

The command line is read by parse_args from COMMANDS and OPTIONS, the
table of each option's converter, default and help.  It reads the plain
form itself, the subcommand among exact options and their values, so a
child that runs one imports neither argparse nor the gettext and locale
that argparse loads; any other command line goes to an argparse parser
built from the same tables.  Each command imports what it runs inside
its body: the layers, and random for bijection-check alone.  -h or
--help prints a help text built from the two tables.

Exit codes: 0 success, 1 property-check failure (with a counterexample
dump) or violated internal invariant, 2 malformed input (schema or
usage, or an input file that cannot be read as JSON) or a stdout closed
before the report was written, 3 domain rejection (mathematically
inadmissible input, or a JSON report holding an int past Python's
digit limit).  All output is deterministic for a fixed seed:
reports are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

# each command imports the layers it runs inside its body, so a CLI child
# loads only those
from ._ser import int_digit_limit, int_text, parse_object, to_json
from .errors import DomainError, InternalError, SchemaError

DEFAULT_SEED = 1729

# keep CLI outputs bounded; larger collections report counts only
LIST_CAP = 128

# bijection-check round-trips a cover of Lambda, as many elements as the widest
# orbit has pairs, at a cost per element and per orbit; it accepts that count
# times max(1, orbits) up to this limit, where the slowest input measured, a
# single orbit, takes about 10 s (README)
MAX_BIJECTION_ELEMENT_ORBITS = 980_000

# lambda lists every per-orbit admissible pair; the largest listing accepted
# took about 2.5 s and 256 MB peak RSS as JSON (README)
MAX_LAMBDA_PAIRS = 500_000

# orbits tabulates every orbit under each of the n powers; the largest table
# accepted took about 1.3 s and 190 MB peak RSS as JSON (README)
MAX_ORBIT_TABLE_ENTRIES = 500_000


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}")
    except (OSError, ValueError, RecursionError) as exc:
        # a directory, undecodable bytes, nesting past the recursion limit,
        # an integer literal past the digit limit
        raise SchemaError(f"cannot read {path}: {exc}")


class _PropertyFailure(Exception):
    """A checked property failed; its one argument is the counterexample
    document, which main writes as JSON, whatever the format, with exit 1."""


def _json_text(document: dict) -> str:
    """The document as main writes it: DomainError when it holds an int past
    the digit limit, which json.dumps raises as a ValueError."""
    try:
        return json.dumps(document, indent=2, sort_keys=True)
    except ValueError:
        digits = int_digit_limit()
        raise DomainError(f"the report holds an int of more than {digits} digits, past "
                          f"Python's limit of {digits} digits for writing an int") from None


def _load_input(path: str, **fields) -> dict:
    """A top-level document holding the given named sub-documents."""
    return parse_object(_load_json(path), "input", fields)


def _lambda_size(counts: tuple[int, ...]) -> int:
    """|Lambda|, the product of the per-orbit pair counts, which lambda and
    bijection-check print: DomainError when it has more digits than this
    Python writes an int with (int_digit_limit)."""
    size = math.prod(counts)
    digits = int_digit_limit()
    # 2^(3 digits) < 10^digits, so a shorter size needs no power of ten
    if digits and size.bit_length() > 3 * digits and size >= 10 ** digits:
        raise DomainError(f"the count of Lambda has more than {digits} digits over {len(counts)} "
                          f"orbits, past Python's limit of {digits} digits for writing an int")
    return size


def cmd_kernel(args) -> tuple[dict, list[str]]:
    from . import covers
    profile = covers.profile_from_json(_load_json(args.file))
    r = covers.kernel_order(profile)
    return ({"kernel_order": r, "gcd_orbit_lengths": covers.gcd_orbit_lengths(profile)},
            [f"kernel_order: {r}"])


def cmd_factor(args) -> tuple[dict, list[str]]:
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
    return payload, lines


def cmd_orbits(args) -> tuple[dict, list[str]]:
    from . import covers
    profile = covers.profile_from_json(_load_json(args.file))
    entries = profile.n * len(profile.orbits)
    if entries > MAX_ORBIT_TABLE_ENTRIES:
        raise DomainError(f"the orbit table has {int_text(entries)} entries "
                          f"({len(profile.orbits)} orbits under {profile.n} powers), past the "
                          f"orbits limit of {MAX_ORBIT_TABLE_ENTRIES} entries")
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
    return payload, lines


def cmd_lambda(args) -> tuple[dict, list[str]]:
    from . import covers, equivariant
    doc = _load_input(args.file, profile=covers.profile_from_json, det=equivariant.det_from_json)
    profile, det = doc["profile"], doc["det"]
    elements = equivariant.enumerate_lambda(det, profile)  # validates det; builds no element
    counts = elements.counts  # the pair count at each orbit, from the closed form
    # every pair is listed; count them before building any
    if sum(counts) > MAX_LAMBDA_PAIRS:
        raise DomainError(f"Lambda has {int_text(sum(counts))} admissible pairs over "
                          f"{len(counts)} orbits, past the lambda limit of {MAX_LAMBDA_PAIRS} pairs")
    count = _lambda_size(counts)  # |Lambda|; Lambda is read only to list it
    per_orbit = {
        y.id: [[d1, d2] for d1, d2 in
               equivariant.admissible_pairs(det.residues[y.id], y.nprime)]
        for y in profile.orbits
    }
    payload = {"count": count, "per_orbit": per_orbit}
    if count <= LIST_CAP:
        payload["elements"] = [equivariant.numeric_to_json(el) for el in elements]
    lines = [f"admissible numeric data: {count}"]
    for label, pairs in sorted(per_orbit.items()):
        lines.append(f"{label}: " + " ".join(f"({a},{b})" for a, b in pairs))
    return payload, lines


def cmd_weights(args) -> tuple[dict, list[str]]:
    from . import covers, equivariant
    doc = _load_input(args.file, profile=covers.profile_from_json,
                      numeric=equivariant.numeric_from_json)
    ws = equivariant.weight_system(doc["numeric"], doc["profile"])
    return to_json({"weights": ws}), [f"{label}: {w}" for label, w in sorted(ws.items())]


def cmd_bijection_check(args) -> tuple[dict, list[str]]:
    import random

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
        # enumerate_lambda validates the det once, and builds no element
        elements = equivariant.enumerate_lambda(det, profile)
        counts = elements.counts
        size = _lambda_size(counts)
        orbits, widest = len(counts), max(counts, default=1)
        if widest * max(1, orbits) > MAX_BIJECTION_ELEMENT_ORBITS:
            raise DomainError(f"{widest} round trips over {orbits} orbits are past the "
                              f"bijection-check limit of {MAX_BIJECTION_ELEMENT_ORBITS} "
                              f"element-orbits")
        # round_trip trusts Lambda's elements, and Lambda round-trips iff its
        # cover does (equivariant._Lambda.cover)
        for numeric in elements.cover():
            try:
                back = equivariant.round_trip(numeric, det, profile)
            except DomainError as exc:
                failure = {"error": str(exc)}
            else:
                if back.numeric == numeric and back.det == det:
                    continue
                failure = {"round_tripped": equivariant.rank2_to_json(back)}
            raise _PropertyFailure({
                "property": "round_trip",
                "profile": covers.profile_to_json(profile),
                "datum": equivariant.rank2_to_json(equivariant.Rank2EqData(numeric, det)),
                **failure,
            })
        checked += size
    return ({"checked": checked, "profiles": len(profiles), "failures": 0},
            [f"round trips checked: {checked} (all exact)"])


def cmd_zeta2(args) -> tuple[dict, list[str]]:
    from . import covers, equivariant
    doc = _load_input(args.file, profile=covers.profile_from_json, data=equivariant.rank2_from_json)
    profile, data = doc["profile"], doc["data"]
    image = equivariant.zeta2_apply(data, profile)
    twice = equivariant.zeta2_apply(image, profile)
    if twice != data:
        raise _PropertyFailure({
            "property": "involution",
            "datum": equivariant.rank2_to_json(data),
            "twice": equivariant.rank2_to_json(twice),
        })
    payload = {
        "image": equivariant.rank2_to_json(image),
        "partition": equivariant.zeta2_partition(data.numeric, profile),
        "involution_ok": True,
    }
    lines = [f"image numeric: {equivariant.numeric_to_json(image.numeric)}",
             f"image lift sign: {image.det.lift_sign}",
             "involution: ok"]
    return payload, lines


def cmd_decompose(args) -> tuple[dict, list[str]]:
    from . import covers, locus
    profile = covers.profile_from_json(_load_json(args.file))
    report = locus.decomposition_report(profile)
    lines = [f"case: {report.case}", f"kernel order: {report.kernel_order}"]
    lines.extend(f"- {s}" for s in report.statements)
    return to_json(report), lines


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


def cmd_hyperelliptic(args) -> tuple[dict, list[str]]:
    from . import locus
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
    else:
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
    return payload, lines


def cmd_census(args) -> tuple[dict, list[str]]:
    from . import locus
    record = locus.unramified_census(args.n, args.deg_delta, args.genus_y)
    lines = [f"case: {record.case}"]
    for comp in record.components:
        lines.append(f"- {comp.count} x {comp.kind}: {comp.description}")
    lines.append(record.intersection_note)
    return to_json(record), lines


def cmd_stability(args) -> tuple[dict, list[str]]:
    from . import stability
    bundle = stability.bundle_from_json(_load_json(args.file))
    verdict = stability.stability_classify(bundle)  # bundle_from_json enforced 2g+2 points
    lines = [f"class: {verdict.label}"]
    if verdict.witness is not None:
        wit = verdict.witness
        lines.append(f"witness degree: {wit.e}")
        lines.append(f"witness agreement: {sorted(wit.agreement)}")
    return stability.verdict_to_json(verdict), lines


# subcommand -> (the function that builds its report, the options it cannot
# run without); main reports a missing or empty option as a usage error that
# names them all
COMMANDS = {
    "kernel": (cmd_kernel, ("--file",)),
    "factor": (cmd_factor, ("--file",)),
    "lambda": (cmd_lambda, ("--file",)),
    "weights": (cmd_weights, ("--file",)),
    "bijection-check": (cmd_bijection_check, ()),
    "zeta2": (cmd_zeta2, ("--file",)),
    "orbits": (cmd_orbits, ("--file",)),
    "decompose": (cmd_decompose, ("--file",)),
    "hyperelliptic": (cmd_hyperelliptic, ("--g",)),
    "census": (cmd_census, ("--n", "--deg-delta", "--genus-y")),
    "stability": (cmd_stability, ("--file",)),
}


# option -> (converter, default, help), in the order the help text lists them;
# the converter is int, str or the tuple of the values the option accepts
OPTIONS = {
    "--file": (str, None, "input JSON document"),
    "--g": (int, None, "genus parameter"),
    "--n": (int, None, "cover order"),
    "--deg-delta": (int, None, "determinant degree upstairs"),
    "--genus-y": (int, None, "base genus"),
    "--format": (("json", "text", "dot"), "json", "report format"),
    "--seed": (int, DEFAULT_SEED, "seed of bijection-check's random choices"),
}

class _Usage(Exception):
    """The command line is rejected: main writes the usage line and the one
    argument, the message, on stderr and exits 2.  With no argument, -h or
    --help asked for the help text, which main writes as a text report."""


def _dest(option: str) -> str:
    """The namespace attribute of an option: --deg-delta is deg_delta."""
    return option[2:].replace("-", "_")


def _metavar(option: str) -> str:
    convert = OPTIONS[option][0]
    return _dest(option).upper() if callable(convert) else "{" + ",".join(convert) + "}"


def _usage() -> str:
    options = " ".join(f"[{option} {_metavar(option)}]" for option in OPTIONS)
    return f"usage: fixloc [-h] COMMAND {options}"


def _help(args) -> tuple[None, list[str]]:
    """The help text as a text report, from COMMANDS and OPTIONS."""
    rows = [(name, " ".join(required)) for name, (_, required) in sorted(COMMANDS.items())]
    rows += [("-h, --help", "show this help text and exit")] + [
        (f"{option} {_metavar(option)}", text if default is None else f"{text} (default: {default})")
        for option, (_, default, text) in OPTIONS.items()]
    lines = [f"  {name:26}{text}".rstrip() for name, text in rows]
    return None, [
        _usage(), "", "discrete classification data of fixed loci on rank-2 moduli", "",
        "commands, with the options each requires:", *lines[:len(COMMANDS)], "",
        "options:", *lines[len(COMMANDS):], "",
        "An option may be shortened to a unique prefix, and its value given as",
        "--option VALUE or --option=VALUE; the last of a repeated option counts.",
        "Everything after -- is read as the command or as unrecognized."]


def _argparse(argv: list[str]) -> SimpleNamespace:
    """argv read by an argparse parser built from COMMANDS and OPTIONS, with
    its grammar and its messages, raised as _Usage."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _Usage(message)

    class Help(argparse.Action):
        def __call__(self, *args):
            raise _Usage()

    parser = Parser(prog="fixloc", add_help=False)
    parser.add_argument("-h", "--help", action=Help, nargs=0, default=argparse.SUPPRESS)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    for option, (convert, default, _) in OPTIONS.items():
        kind = "type" if callable(convert) else "choices"
        parser.add_argument(option, default=default, **{kind: convert})
    return SimpleNamespace(**vars(parser.parse_args(argv)))


def parse_args(argv) -> SimpleNamespace:
    """The command line, read from COMMANDS and OPTIONS as argparse reads it.

    Returns a namespace holding the subcommand and each option under its
    dest (_dest), or raises _Usage with argparse's message.  The plain form
    is read here: the one subcommand among exact options, each followed by
    a value that does not start with - and that its converter accepts.  Any
    other argv, a prefix, an = form, --, -h or a fault among them, is read
    by argparse itself (_argparse), so a child that runs a plain command
    line never imports it.
    """
    argv = list(argv)
    values = {option: default for option, (_, default, _) in OPTIONS.items()}
    command, i = None, 0
    try:
        while i < len(argv):
            arg = argv[i]
            if command is None and arg in COMMANDS:
                command, i = arg, i + 1
                continue
            # a word that is no option, a missing value or one that convert
            # refuses raises KeyError, IndexError or ValueError
            convert, value = OPTIONS[arg][0], argv[i + 1]
            if value.startswith("-") or not callable(convert) and value not in convert:
                raise ValueError(value)
            values[arg], i = convert(value) if callable(convert) else value, i + 2
    except (KeyError, IndexError, ValueError):
        return _argparse(argv)
    if command is None:
        return _argparse(argv)
    return SimpleNamespace(subcommand=command,
                           **{_dest(option): value for option, value in values.items()})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.format == "dot" and args.subcommand != "hyperelliptic":
            raise _Usage("dot format is only available for the hyperelliptic report")
        build, required = COMMANDS[args.subcommand]
        if any(getattr(args, _dest(option)) in (None, "") for option in required):
            *rest, last = required
            raise _Usage(f"{args.subcommand} requires {', '.join(rest)}"
                         f"{' and ' if rest else ''}{last}")
    except _Usage as usage:
        if usage.args:
            print(f"{_usage()}\nfixloc: error: {usage.args[0]}", file=sys.stderr)
            raise SystemExit(2)
        build, args = _help, SimpleNamespace(format="text")
    try:
        try:
            payload, lines = build(args)
            code = 0
        except _PropertyFailure as failure:
            payload, code = failure.args[0], 1
        # the JSON text is built before anything is written, so a report that
        # cannot be written leaves stdout empty
        if code or args.format == "json":
            lines = [_json_text(payload)]
        for line in lines:
            print(line)
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
