"""The scripts under ``tools/``: the source-line counter, where docstrings,
comments and blank lines are not code and every other line a token touches
is; the benchmark grid, whose cells finish or are cut at their budget
and count the simplex pivots of each command; and the CLI profiler, which
lists the self time of each module that ran.  Also the outputs of one
seed-1 cycle of each ``perfbench/`` workload, pinned by their digests."""

from __future__ import annotations

import importlib.util
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction as F

import pytest

from fairsignal import cli, lp

from conftest import PERFBENCH

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tool(name):
    path = os.path.join(ROOT, "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
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
    assert tool("src_lines").count(SOURCE) == (17, 7)


def test_counts_a_tree_per_module_and_in_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert tool("src_lines").main(["src_lines.py", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [
        [os.path.join("pkg", "a.py"), "17", "7"],
        [os.path.join("pkg", "b.py"), "3", "1"],
        ["total", "20", "8"],
    ]


def test_a_grid_cell_reports_both_commands(tmp_path):
    cell = tool("bench_grid").run_cell("pipeline", "random", 8, 60, str(tmp_path))
    assert cell["finished"] and "reason" not in cell
    assert (cell["grid"], cell["family"], cell["n"], cell["build_exit"], cell["verify_exit"]) == (
        "pipeline", "random", 8, 0, 0
    )
    assert cell["build_s"] > 0 and cell["verify_s"] > 0
    # neither command of the pipeline grid solves an LP
    assert cell["build_pivots"] == cell["verify_pivots"] == 0
    scheme = tmp_path / "scheme.json"
    assert cell["scheme_bytes"] == scheme.stat().st_size
    denominators = [F(text).denominator for text in re.findall(r'"([-\d/]+)"', scheme.read_text())]
    assert cell["max_den_bits"] == max(denominators).bit_length() > 1


def test_a_grid_cell_over_budget_is_killed_and_kept(tmp_path, monkeypatch):
    # no interpreter starts in a millisecond, so the child is killed before
    # it reports anything
    grid, children = tool("bench_grid"), []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(grid.subprocess, "Popen", Recorded)
    cell = grid.run_cell("pipeline", "random", 8, 0.001, str(tmp_path))
    assert cell == {
        "grid": "pipeline", "family": "random", "n": 8, "finished": False, "reason": "budget"
    }
    assert [child.returncode for child in children] == [-signal.SIGKILL]


def test_an_adversary_cell_counts_the_pivots_of_its_verify(tmp_path, monkeypatch):
    cell = tool("bench_grid").run_cell("adversary", "random", 6, 60, str(tmp_path))
    assert cell["finished"] and (cell["build_exit"], cell["verify_exit"]) == (0, 0)
    # the same verify, run in this process, makes as many pivots
    pivots, pivot = [], lp._Tableau.pivot
    monkeypatch.setattr(lp._Tableau, "pivot", lambda tab, r, c: pivots.append(pivot(tab, r, c)))
    argv = ["verify", "--in", str(tmp_path / "instance.json"),
            "--scheme", str(tmp_path / "scheme.json"), "--adversary", "--max-support", "6"]
    assert cli.main(argv) == 0
    assert cell["build_pivots"] == 0 < cell["verify_pivots"] == len(pivots)


RUNNING_EXAMPLE = os.path.join(ROOT, "tests", "golden", "running_example")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--scheme", "final", "--out", "{out}"],
        ["verify", "--scheme", os.path.join(RUNNING_EXAMPLE, "scheme_final.json"), "--adversary"],
    ],
    ids=["build", "verify"],
)
def test_the_profiler_lists_each_module_that_ran_in_order(argv, tmp_path, capsys):
    argv = [arg.format(out=tmp_path / "out.json") for arg in argv]
    argv += ["--in", os.path.join(RUNNING_EXAMPLE, "instance.json")]
    package = os.path.dirname(cli.__file__)
    ran = set()

    def record(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and os.path.dirname(path) == package:
            ran.add(os.path.basename(path)[:-3])

    sys.setprofile(record)
    try:
        assert cli.main(argv) == 0
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert tool("profile_cli").main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("exit code: 0\n")
    # the rows between the module table's header and its total
    rows = out.split("\nmodule ", 1)[1].split("\ntotal ", 1)[0].splitlines()[1:]
    assert [row.split()[0] for row in rows] == sorted(ran) + ["(other)"]
    assert {"cli", "fileio", "market", "steps"} < ran


# sha256 over the stdout and written files of one seed-1 cycle, in order
PERFBENCH_DIGESTS = {
    "pipeline-large": "40da8dbbc7a7a6c93854884660f15fbc07dcc357d1f89237ac07accb1fb3660a",
    "certify-small": "2ad746c45fa421b9b016625a38f1b1b881609e827eda99382a7d1cb3aa9913ce",
    "buyeropt-mid": "470f8a7eedc89f57044e042138a57d35110bbe2edf190373b85b2f1d93c3556b",
}


@pytest.fixture(scope="module")
def perfbench_run():
    """``perfbench/run.py`` as the script runs: its sibling scripts importable
    and itself in ``sys.modules``, where its dataclasses look it up."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(PERFBENCH)
        spec = importlib.util.spec_from_file_location("run", os.path.join(PERFBENCH, "run.py"))
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, "run", module)
        spec.loader.exec_module(module)
        yield module


@pytest.mark.parametrize("name", sorted(PERFBENCH_DIGESTS))
def test_a_benchmark_cycle_keeps_its_outputs(name, perfbench_run):
    assert sorted(perfbench_run.WORKLOADS) == sorted(PERFBENCH_DIGESTS)
    result = perfbench_run.run_workload(name, 1, seconds=0, trace=False)
    assert (result["cycles"], result["failures"]) == (1, [])
    assert result["digest"] == PERFBENCH_DIGESTS[name]
