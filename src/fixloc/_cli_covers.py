"""CLI reports over one cover profile: kernel, factor and orbits.

Each builder takes the parsed command line and returns its report as
(payload, lines), the JSON document and the text lines; `cli.main`
imports this module only to run one of them, and writes the report.
"""

from __future__ import annotations

from . import covers
from ._ser import _load_json, int_text
from .errors import DomainError

# orbits tabulates every orbit under each of the n powers; the largest table
# accepted took about 1.3 s and 190 MB peak RSS as JSON (README)
MAX_ORBIT_TABLE_ENTRIES = 500_000


def cmd_kernel(args) -> tuple[dict, list[str]]:
    profile = covers.profile_from_json(_load_json(args.file))
    r = covers.kernel_order(profile)
    return ({"kernel_order": r, "gcd_orbit_lengths": covers.gcd_orbit_lengths(profile)},
            [f"kernel_order: {r}"])


def cmd_factor(args) -> tuple[dict, list[str]]:
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
