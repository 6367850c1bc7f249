"""Record the public names of the `fixloc` package and the layer of each.

    PYTHONPATH=src python tests/fixtures/record_public_api.py

writes tests/fixtures/public_api.json next to this script: every public
name that `import fixloc` exposes (no leading underscore, not a module,
not `__version__`), mapped to the layer module whose top level defines
it.  It was recorded while `fixloc/__init__.py` still imported every
layer eagerly, so test_api.test_public_api_matches_the_recorded_fixture
checks that loading layers on demand neither drops nor adds a name.
Re-record only when the public API is meant to change, and say why in
the change log.
"""

from __future__ import annotations

import ast
import json
import types
from pathlib import Path

import fixloc

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "public_api.json"
LAYERS = ("covers", "divisors", "equivariant", "errors", "locus", "stability")


def defined_names(layer: str) -> set[str]:
    """Names bound at the top level of a layer by def, class or assignment."""
    path = Path(fixloc.__file__).parent / f"{layer}.py"
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def public_api() -> dict[str, str]:
    names = [name for name in dir(fixloc)
             if not name.startswith("_")
             and not isinstance(getattr(fixloc, name), types.ModuleType)]
    owners = {layer: defined_names(layer) for layer in LAYERS}
    table = {}
    for name in names:
        (layer,) = [layer for layer in LAYERS if name in owners[layer]]
        table[name] = layer
    return table


def main() -> None:
    FIXTURE.write_text(json.dumps(public_api(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")


if __name__ == "__main__":
    main()
