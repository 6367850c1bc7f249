"""The package's public names, and the modules each entry point loads.

Layers load on first use: `import fixloc` imports no layer, and a CLI
child imports only the layers its subcommand runs.
"""

import importlib
import json
from pathlib import Path

import pytest

import fixloc

ROOT = Path(__file__).resolve().parent.parent
# recorded by tests/fixtures/record_public_api.py; its 98 names date from eager imports
PUBLIC_API = json.loads((ROOT / "tests" / "fixtures" / "public_api.json").read_text())
SUBMODULES = ["_ser", "covers", "divisors", "equivariant", "errors", "graded", "locus",
              "stability"]


def test_public_api_matches_the_recorded_fixture():
    assert len(PUBLIC_API) == 98
    assert sorted(fixloc.__all__) == sorted(PUBLIC_API)
    for name, layer in PUBLIC_API.items():
        assert getattr(fixloc, name) is getattr(importlib.import_module(f"fixloc.{layer}"), name)
        assert name in dir(fixloc)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fixloc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_API)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'fixloc' has no attribute 'no_such_name'"):
        fixloc.no_such_name
    with pytest.raises(ImportError):
        exec("from fixloc import no_such_name", {})
    assert not hasattr(fixloc, "validate_det")


def test_a_bare_import_loads_no_layer(child):
    code = ("import json, sys, fixloc; before = sorted(m for m in sys.modules if 'fixloc' in m); "
            f"mods = [type(getattr(fixloc, name)).__name__ for name in {SUBMODULES!r}]; "
            "print(json.dumps([before, mods, fixloc.covers.__name__]))")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    before, mods, covers = json.loads(proc.stdout)
    assert before == ["fixloc"]
    assert mods == ["module"] * len(SUBMODULES)
    assert covers == "fixloc.covers"


def _doc(name):
    return str(ROOT / "perfbench" / "inputs" / "cli" / name)


BASE = ["_ser", "cli", "covers", "errors"]
# each subcommand loads its report module (cli.COMMANDS) and the layers it runs
COVERS = BASE + ["_cli_covers"]
WITH_EQUIVARIANT = BASE + ["_cli_equivariant", "equivariant"]
# the closed-form reports read a profile and integers only
REPORTS = BASE + ["_cli_locus", "locus"]
# a usage error and the help text load the help module and no report module
USAGE = ["_cli_help", "_ser", "cli", "errors"]
MISSING_OPTION = ["census", "--n", "4"]
FOOTPRINTS = [
    (["kernel", "--file", _doc("profile12.json")], COVERS),
    (["factor", "--file", _doc("profile12.json")], COVERS),
    (["orbits", "--file", _doc("profile12.json")], COVERS),
    (["lambda", "--file", _doc("lambda_small.json")], WITH_EQUIVARIANT),
    (["weights", "--file", _doc("weights.json")], WITH_EQUIVARIANT),
    (["bijection-check", "--file", _doc("hyper3.json")], WITH_EQUIVARIANT),
    (["zeta2", "--file", _doc("zeta2.json")], WITH_EQUIVARIANT),
    (["decompose", "--file", _doc("profile12.json")], REPORTS),
    (["hyperelliptic", "--g", "3"], REPORTS),
    (["census", "--n", "4", "--deg-delta", "8", "--genus-y", "2"], REPORTS),
    (["stability", "--file", _doc("stability_g2.json")],
     ["_cli_stability", "_ser", "cli", "errors", "stability"]),
    (MISSING_OPTION, USAGE),
    (["-h"], USAGE),
]
FOOTPRINT_IDS = ["missing-option" if argv is MISSING_OPTION
                 else {"-h": "help"}.get(argv[0], argv[0]) for argv, _ in FOOTPRINTS]


def _exit_code(argv):
    # main's exit code for a footprint argv: a usage error exits 2
    return 2 if argv is MISSING_OPTION else 0


# heavy standard-library modules a CLI child should not pay to import; a
# plain command line is read by cli.parse_args itself, not by argparse, which
# loads gettext and locale, and so is a missing option; -h is read by argparse
ARGPARSE = ["argparse", "gettext", "locale"]
HEAVY = ["dataclasses", "inspect"] + ARGPARSE
# nor a child whose subcommand reads and writes no rational number
RATIONAL = ["fractions", "decimal"]
# nor a child of any subcommand but bijection-check, which alone draws at random
RANDOM = ["random"]


@pytest.fixture(scope="module")
def heavy_in_a_bare_child(child):
    """The unwanted modules that `python -c pass` has (site may import some)."""
    proc = child("-c", "import sys; "
                 f"print(*(m for m in {HEAVY + RATIONAL + RANDOM!r} if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("argv, layers", FOOTPRINTS, ids=FOOTPRINT_IDS)
def test_a_cli_child_loads_only_the_layers_its_subcommand_runs(child, argv, layers,
                                                                heavy_in_a_bare_child):
    unwanted = HEAVY + RATIONAL if layers in (COVERS, REPORTS, USAGE) else HEAVY
    if argv[0] != "bijection-check":
        unwanted = unwanted + RANDOM
    if argv == ["-h"]:
        unwanted = [m for m in unwanted if m not in ARGPARSE]
    code = ("import contextlib, gc, io, json, sys, fixloc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    code = fixloc.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('fixloc.')),\n"
            f"                  [m for m in {unwanted + ARGPARSE!r} if m in sys.modules],\n"
            "                  gc.get_freeze_count()]))")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    code, loaded, heavy, frozen = json.loads(proc.stdout)
    assert code == _exit_code(argv)
    # main freezes nothing: only the process entry, cli.run, does
    assert frozen == 0
    assert loaded == sorted(f"fixloc.{layer}" for layer in layers)
    assert [m for m in heavy if m in unwanted] == [m for m in heavy_in_a_bare_child
                                                    if m in unwanted]
    assert ("argparse" in heavy) == (argv == ["-h"])


def test_no_cli_child_run_as_main_imports_fixloc_cli(child):
    # under -m the entry module is __main__, and no module imports fixloc.cli:
    # a second copy would hold second _Usage and _PropertyFailure classes.
    # The entry, cli.run, freezes the heap after main returns, whatever the
    # code, a usage error's 2 included, so the exit collects none of it
    argvs = [argv for argv, _ in FOOTPRINTS]
    code = ("import contextlib, gc, io, json, runpy, sys\n"
            "exits = []\n"
            f"for argv in {argvs!r}:\n"
            "    sys.argv = ['fixloc', *argv]\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            runpy.run_module('fixloc.cli', run_name='__main__')\n"
            "        except SystemExit as exc:\n"
            "            exits.append([exc.code, gc.get_freeze_count() > 0])\n"
            "    gc.unfreeze()\n"
            "print(json.dumps([exits, 'fixloc.cli' in sys.modules]))")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[[_exit_code(argv), True] for argv in argvs], False]


def test_a_round_trip_failure_in_a_report_module_exits_one_when_run_as_main(child):
    # the report module raises errors._PropertyFailure, the class that main,
    # run as __main__, catches: exit 1 with the counterexample, no traceback
    path = _doc("hyper3.json")
    code = ("import runpy, sys\n"
            "from fixloc import equivariant, errors\n"
            "def refuse(numeric, det, profile):\n"
            "    raise errors.InvalidDatum('no round trip')\n"
            "equivariant.round_trip = refuse\n"
            f"sys.argv = ['fixloc', 'bijection-check', '--file', {path!r}]\n"
            "runpy.run_module('fixloc.cli', run_name='__main__')\n")
    proc = child("-c", code)
    assert (proc.returncode, proc.stderr) == (1, "")
    payload = json.loads(proc.stdout)
    assert payload["property"] == "round_trip"
    assert payload["error"] == "no round trip"
    assert payload["profile"] == json.loads(Path(path).read_text())
    assert set(payload) == {"property", "profile", "datum", "error"}


def test_running_the_cli_module_raises_no_runpy_warning(child):
    # runpy warns when importing the package has already imported fixloc.cli
    proc = child("-W", "error::RuntimeWarning", "-m", "fixloc.cli", "kernel",
                 "--file", _doc("profile12.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["kernel_order"] == 2
