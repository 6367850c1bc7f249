"""Source-level rules for the package."""

import ast
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
