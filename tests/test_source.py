"""Source-level rules for the package."""

import ast
import collections
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fixloc"


def test_no_assert_statements_in_the_package():
    # `python -O` strips asserts, so guards must be explicit raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py")), f"no package source under {SRC}"
    assert found == []


def _top_level_names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _references(tree):
    """Names a tree reads: loaded names, attributes and names imported from a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_top_level_name_is_used_in_the_package():
    # a private name that nothing else in the package reads is dead code;
    # a use inside its own definition (recursion) does not count
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    used = collections.Counter(name for tree in trees for name in _references(tree))
    unused = [name
              for tree in trees for node in tree.body for name in _top_level_names(node)
              if name.startswith("_") and not name.startswith("__")
              and used[name] == collections.Counter(_references(node))[name]]
    assert unused == []
