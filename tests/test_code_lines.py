"""``tools/code_lines.py``: which lines of a source file carry code."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''\
"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


class Shape:
    """Class docstring."""

    sides = 4


def area(width,
         height):
    """Function docstring,

    with a blank line inside.
    """
    total = (width *
             height)
    label = """not a docstring:
an assigned literal"""
    return total, label, os.sep
'''


def test_counts_code_lines_only():
    # import, class, sides, the two-line def, the two-line total, the
    # two-line literal and return: docstrings, comments and blank lines
    # carry no code.
    assert code_lines.code_lines(SNIPPET) == 10


def test_deltas_list_changed_files_and_total():
    parent = {"src/a.py": 10, "src/b.py": 5, "src/gone.py": 3}
    change = {"src/a.py": 10, "src/b.py": 7, "src/new.py": 2}
    rows = code_lines.format_deltas(parent, change)
    assert rows[1:] == [
        "      5        7      +2  src/b.py",
        "      3        0      -3  src/gone.py",
        "      0        2      +2  src/new.py",
        "     18       19      +1  total",
    ]


def test_count_tree_walks_src(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "outside.py").write_text("y = 2\n")
    assert code_lines.count_tree(tmp_path) == {"src/pkg/mod.py": 1}
