"""Generated documents for every --file subcommand end in exit 0, 2 or 3.

Each document starts well-formed and admissible, built from the seeded
generators in `gen` with small values (n <= 12, at most three orbits,
g <= 2) so that each run is quick.  Hypothesis then applies up to two
faults anywhere in the tree: a value replaced by junk, an integer moved
by one or replaced by +-(10^4300 - 1), an entry dropped, or an unknown
field added.  An exception escaping `cli.main` is what a traceback would
be at the command line.
"""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from fixloc import (
    bundle_to_json,
    cli,
    det_to_json,
    numeric_to_json,
    profile_to_json,
    rank2_to_json,
)

import gen

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)
# 4,300 nines: the longest int literal json.load reads under Python's default
# digit limit; a report computed from it can hold a longer int
HUGE = 10 ** 4300 - 1
# every subcommand that requires --file, and bijection-check, which reads one if given
FILE_SUBCOMMANDS = sorted({sub for sub, (_, options) in cli.COMMANDS.items() if "--file" in options}
                          | {"bijection-check"})


def admissible_document(subcommand: str, rng: random.Random):
    if subcommand == "stability":
        return bundle_to_json(gen.random_bundle(rng, rng.choice([1, 2]), -1,
                                                generic_weights=rng.random() < 0.5))
    # lift negation needs even order; odd order stays as the OddOrder case
    profile = gen.random_profile(rng, max_n=12, max_orbits=3,
                                 even_n=subcommand == "zeta2" and rng.random() < 0.8)
    data = gen.random_data(rng, profile)
    doc = profile_to_json(profile)
    if subcommand == "lambda":
        return {"profile": doc, "det": det_to_json(data.det)}
    if subcommand == "weights":
        return {"profile": doc, "numeric": numeric_to_json(data.numeric)}
    if subcommand == "zeta2":
        return {"profile": doc, "data": rank2_to_json(data)}
    return doc


def containers(node):
    """Every dict and list in the tree, the root first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in (node.values() if isinstance(node, dict) else node):
            yield from containers(child)


def add_fault(doc, draw):
    parent = draw(st.sampled_from(list(containers(doc))))
    keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
    kind = draw(st.sampled_from(["nudge", "huge", "junk", "drop", "extra"]))
    if kind == "extra" or not keys:
        if isinstance(parent, dict):
            parent["extra"] = draw(JUNK)
        else:
            parent.append(draw(JUNK))
        return
    key = draw(st.sampled_from(keys))
    value = parent[key]
    if kind == "drop":
        del parent[key]
    elif kind in ("nudge", "huge") and isinstance(value, int) and not isinstance(value, bool) \
            and abs(value) < HUGE:
        # an int of HUGE's size is left alone: nudged, it would pass the digit
        # limit that this test writes the document under
        sign = draw(st.sampled_from([1, -1]))
        parent[key] = sign * HUGE if kind == "huge" else value + sign
    else:
        parent[key] = draw(JUNK)


@pytest.mark.parametrize("subcommand", FILE_SUBCOMMANDS)
def test_generated_documents_end_in_a_clean_exit(subcommand, tmp_path_factory):
    path = tmp_path_factory.mktemp(subcommand) / "doc.json"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 2), st.data())
    def check(seed, faults, data):
        doc = admissible_document(subcommand, random.Random(seed))
        for _ in range(faults):
            add_fault(doc, data.draw)
        path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([subcommand, "--file", str(path)])
        assert code in (0, 2, 3), (code, out.getvalue(), err.getvalue())
        assert "Traceback" not in err.getvalue()

    check()
