"""Time the pipeline and the exact adversary over fixed grids of support
sizes; write BENCH_<PR>.json.

    python3 tools/bench_grid.py PR

One cell per grid, benchmark family (``perfbench/instances.py``) and n in
the grid's sizes.  A cell's instance is ``make_instance(family, n,
random.Random(f"{prefix}:{family}:{n}"))``, with the grid's prefix.  One
child interpreter per cell runs ``build --scheme final --out`` and then
the grid's ``verify`` through ``fairsignal.cli.main``, with the CLI's
output discarded:

- ``pipeline``, n = 256 to 4096, prefix ``p``: ``verify --require
  efficient,monotone``;
- ``adversary``, n = 8 to 24, prefix ``adv``: ``verify --adversary
  --max-support n``, the exact LP at every mass of the scheme's grid.

Each command reports:

- ``build_s`` and ``verify_s``, wall seconds of each command;
- ``build_pivots`` and ``verify_pivots``, the simplex pivots each made,
  counted by wrapping ``lp._Tableau.pivot`` in the child;
- ``scheme_bytes``, the size of the scheme file;
- ``max_den_bits``, the bit length of the largest denominator in it.

The child gets BUDGET_S seconds of wall time in all, interpreter start
included.  A child still running then is killed, and its cell is
recorded with ``"finished": false`` and ``"reason": "budget"``, keeping
whatever it reported before.  A command that exits non-zero, or a child
that fails, also leaves its cell unfinished, with the reason.  Seconds are
wall time on the machine that runs the script, unscaled; the file, written
to the root of the checkout, records its Python and CPU count.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# room for a build of about a minute and its verify, so that the grid
# shows the largest n each family builds in a minute
BUDGET_S = 120.0
BUILD = ("build", "--in", "{inst}", "--scheme", "final", "--out", "{scheme}")
VERIFY = ("verify", "--in", "{inst}", "--scheme", "{scheme}")
# grid -> (sizes, instance seed prefix, verify's flags)
GRIDS = {
    "pipeline": ((256, 512, 1024, 2048, 4096), "p", ("--require", "efficient,monotone")),
    "adversary": ((8, 12, 16, 20, 24), "adv", ("--adversary", "--max-support", "{n}")),
}
# the denominator of a rational string in a scheme file, one per line
_DENOMINATOR = re.compile(r'/(\d+)"')


def _instances():
    path = os.path.join(ROOT, "perfbench", "instances.py")
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def largest_denominator_bits(path: str) -> int:
    """Bit length of the largest denominator written in a scheme file."""
    longest = "1"
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            found = _DENOMINATOR.search(line)
            if found and (len(found[1]), found[1]) > (len(longest), longest):
                longest = found[1]
    return int(longest).bit_length()


def run_child(grid: str, family: str, n: int, workdir: str) -> None:
    """The child's side of a cell: one JSON line per finished command, and
    exit status 1 after a command that fails."""
    sys.path.insert(0, SRC)
    from fairsignal import cli, lp

    pivots = 0
    pivot = lp._Tableau.pivot

    def counting(tab, r, c):
        nonlocal pivots
        pivots += 1
        pivot(tab, r, c)

    lp._Tableau.pivot = counting
    _, prefix, flags = GRIDS[grid]
    paths = {"inst": os.path.join(workdir, "instance.json"),
             "scheme": os.path.join(workdir, "scheme.json")}
    instance = _instances().make_instance(family, n, random.Random(f"{prefix}:{family}:{n}"))
    with open(paths["inst"], "w", encoding="utf-8") as fh:
        json.dump(instance, fh)
    for name, argv in (("build", BUILD), ("verify", VERIFY + flags)):
        argv = [arg.format(n=n, **paths) for arg in argv]
        pivots = 0
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
        fields = {f"{name}_s": round(seconds, 4), f"{name}_exit": code, f"{name}_pivots": pivots}
        if name == "build" and code == 0:
            fields["scheme_bytes"] = os.path.getsize(paths["scheme"])
            fields["max_den_bits"] = largest_denominator_bits(paths["scheme"])
        print(json.dumps(fields), flush=True)
        if code:
            sys.exit(f"{name} exit {code}")


def run_cell(grid: str, family: str, n: int, budget_s: float, workdir: str) -> dict:
    """One cell, run in a child interpreter killed after ``budget_s`` seconds."""
    argv = [sys.executable, os.path.abspath(__file__), "--cell", grid, family, str(n), workdir]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as child:
        try:
            out, err = child.communicate(timeout=budget_s)
            reason = None
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
            reason = "budget"
    cell = {"grid": grid, "family": family, "n": n}
    for line in out.splitlines():
        cell.update(json.loads(line))
    if reason is None and child.returncode:
        reason = (err.strip().splitlines() or [f"exit {child.returncode}"])[-1]
    cell["finished"] = reason is None
    if reason is not None:
        cell["reason"] = reason
    return cell


def main(argv: list[str]) -> int:
    if argv[1:2] == ["--cell"]:
        run_child(argv[2], argv[3], int(argv[4]), argv[5])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int, help="the number in BENCH_<PR>.json")
    args = parser.parse_args(argv[1:])
    families = _instances().FAMILIES
    cells = []
    for grid, (sizes, _, _) in GRIDS.items():
        for n in sizes:
            for family in families:
                with tempfile.TemporaryDirectory() as work:
                    cells.append(run_cell(grid, family, n, BUDGET_S, work))
                print(json.dumps(cells[-1]), flush=True)
    result = {
        "pr": args.pr,
        "commands": {
            grid: [" ".join(BUILD), " ".join(VERIFY + flags)]
            for grid, (_, _, flags) in GRIDS.items()
        },
        "instance": 'make_instance(family, n, random.Random(f"{prefix}:{family}:{n}"))',
        "prefixes": {grid: prefix for grid, (_, prefix, _) in GRIDS.items()},
        "budget_s": BUDGET_S,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "cells": cells,
    }
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
