"""The source-line counter under ``tools/``: docstrings, comments and blank
lines are not code; every other line a token touches is."""

from __future__ import annotations

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def src_lines():
    path = os.path.join(ROOT, "tools", "src_lines.py")
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


class A:
    """Class docstring."""

    # a comment line
    x = """a string that is
not a docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_lines_and_code_lines():
    # code: import, class, x's two lines, def, return's two lines
    assert src_lines().count(SOURCE) == (17, 7)


def test_counts_a_tree_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert src_lines().main(["src_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        [os.path.join("pkg", "a.py"), "17", "7"],
        [os.path.join("pkg", "b.py"), "3", "1"],
        ["total", "20", "8"],
    ]
