"""CLI reports over Lambda and the correspondence: lambda, weights,
bijection-check and zeta2.

Each builder takes the parsed command line and returns its report as
(payload, lines), or raises _PropertyFailure with a counterexample
document; `cli.main` imports this module only to run one of them.
"""

from __future__ import annotations

import math

from . import covers, equivariant
from ._ser import LIST_CAP, _load_json, int_digit_limit, int_text, parse_object, to_json
from .errors import DomainError, _PropertyFailure

# bijection-check round-trips a cover of Lambda, as many elements as the widest
# orbit has pairs, at a cost per element and per orbit; it accepts that count
# times max(1, orbits) up to this limit, where the slowest input measured, a
# single orbit, takes about 10 s (README)
MAX_BIJECTION_ELEMENT_ORBITS = 980_000

# lambda lists every per-orbit admissible pair; the largest listing accepted
# took about 2.5 s and 256 MB peak RSS as JSON (README)
MAX_LAMBDA_PAIRS = 500_000


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


def cmd_lambda(args) -> tuple[dict, list[str]]:
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
    doc = _load_input(args.file, profile=covers.profile_from_json,
                      numeric=equivariant.numeric_from_json)
    ws = equivariant.weight_system(doc["numeric"], doc["profile"])
    return to_json({"weights": ws}), [f"{label}: {w}" for label, w in sorted(ws.items())]


def cmd_bijection_check(args) -> tuple[dict, list[str]]:
    import random  # bijection-check alone draws at random

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
