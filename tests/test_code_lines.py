"""tools/code_lines.py: the code-line count that ROADMAP and CHANGES.md report."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

# code lines: the import, the class line, size, the three lines of the def,
# the two lines of text and the return; nine in all
MODULE = '''"""Module docstring,
over two lines."""

import os


class Box:
    """Class docstring."""

    # a comment
    size = 1


def area(width,
         height,
         depth=1):
    """Function docstring."""
    text = """a string, not a docstring,
    over two lines"""

    return width * height * depth  # a trailing comment
'''


def test_counts_each_file_and_the_total(tmp_path):
    module, other = tmp_path / "module.py", tmp_path / "other.py"
    module.write_text(MODULE, encoding="utf-8")
    other.write_text("x = 1\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), str(module), str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"     9 {module}", f"     1 {other}", "    10 total"]
