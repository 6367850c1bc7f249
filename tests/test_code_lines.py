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


def test_a_directory_counts_every_python_file_under_it(tmp_path):
    # recursively, in sorted order, and no file that is not *.py
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "pkg" / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "pkg" / "sub" / "c.py").write_text("z = 3\n", encoding="utf-8")
    (tmp_path / "pkg" / "notes.txt").write_text("w = 4\n", encoding="utf-8")
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    pkg = tmp_path / "pkg"
    assert proc.stdout.splitlines() == [f"     9 {pkg / 'a.py'}", f"     2 {pkg / 'b.py'}",
                                        f"     1 {pkg / 'sub' / 'c.py'}", "    12 total"]
