"""The package's public names, and the modules each entry point loads.

Layers load on first use: `import fixloc` imports no layer, and a CLI
child imports only the layers its subcommand runs.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fixloc

ROOT = Path(__file__).resolve().parent.parent
# recorded by tests/fixtures/record_public_api.py while the package imported every layer
PUBLIC_API = json.loads((ROOT / "tests" / "fixtures" / "public_api.json").read_text())
SUBMODULES = ["_ser", "covers", "divisors", "equivariant", "errors", "locus", "stability"]


def child(*args):
    """A fresh interpreter on the package source."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=60)


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


def test_a_bare_import_loads_no_layer():
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
WITH_EQUIVARIANT = BASE + ["equivariant"]
WITH_LOCUS = WITH_EQUIVARIANT + ["divisors", "locus"]
FOOTPRINTS = [
    (["kernel", "--file", _doc("profile12.json")], BASE),
    (["factor", "--file", _doc("profile12.json")], BASE),
    (["orbits", "--file", _doc("profile12.json")], BASE),
    (["lambda", "--file", _doc("lambda_small.json")], WITH_EQUIVARIANT),
    (["weights", "--file", _doc("weights.json")], WITH_EQUIVARIANT),
    (["bijection-check", "--file", _doc("hyper3.json")], WITH_EQUIVARIANT),
    (["zeta2", "--file", _doc("zeta2.json")], WITH_LOCUS),
    (["decompose", "--file", _doc("profile12.json")], WITH_LOCUS),
    (["hyperelliptic", "--g", "3"], WITH_LOCUS),
    (["census", "--n", "4", "--deg-delta", "8", "--genus-y", "2"], WITH_LOCUS),
    (["stability", "--file", _doc("stability_g2.json")], ["_ser", "cli", "covers", "errors",
                                                          "stability"]),
]


@pytest.mark.parametrize("argv, layers", FOOTPRINTS, ids=[argv[0] for argv, _ in FOOTPRINTS])
def test_a_cli_child_loads_only_the_layers_its_subcommand_runs(argv, layers):
    code = ("import contextlib, io, json, sys, fixloc.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = fixloc.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('fixloc.'))]))")
    proc = child("-c", code)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0
    assert loaded == sorted(f"fixloc.{layer}" for layer in layers)


def test_running_the_cli_module_raises_no_runpy_warning():
    # runpy warns when importing the package has already imported fixloc.cli
    proc = child("-W", "error::RuntimeWarning", "-m", "fixloc.cli", "kernel",
                 "--file", _doc("profile12.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["kernel_order"] == 2
