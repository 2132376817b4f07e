"""Profile one CLI command in process; print its self time per module.

    python3 tools/profile_cli.py build --in instance.json --scheme final

Runs ``fairsignal.cli.main(ARGV)`` once under `cProfile`, with the
command's stdout discarded, and prints:

- the command's exit code and its wall time under the profiler;
- the self time of each `fairsignal` module that ran, by module name,
  then ``(other)``, time that no `fairsignal` function called (the
  profiler's own), and the total;
- the functions with the most self time, most first.

It returns, and exits with, the command's own exit code (a usage error's
2 from argparse included), so a script can tell a failed run's profile
from a good one.

A function outside the package, a built-in such as ``math.gcd`` or
``io.open`` or a standard module's such as ``Fraction.__new__``, is
charged to the functions that called it, split by the self time that
`pstats` records for each caller, until the charge reaches a
`fairsignal` function; its module takes it.  Names come first on each
line and timing columns after them, so two runs compare line by line.
The profiler adds a cost to every call, so the shares are for finding
where time goes, and the benchmark (``perfbench/run.py``) measures it.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import os
import pstats
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from fairsignal import cli  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))
OTHER = "(other)"
TOP = 15


def module_of(func: tuple) -> str | None:
    """The `fairsignal` module that defines ``func``, a pstats key
    (file, line, name), or None for code outside the package."""
    path = func[0]
    if os.path.dirname(os.path.abspath(path)) == PACKAGE and path.endswith(".py"):
        return os.path.basename(path)[:-3]
    return None


def module_self_times(stats: dict) -> dict[str, float]:
    """Self seconds per module, each function outside the package charged
    to its callers by the self time pstats records per caller."""
    shares: dict[tuple, dict[str, float]] = {}
    walking: set[tuple] = set()  # on the walk up, so a cycle among callers is cut

    def share(func) -> dict[str, float]:
        """Fraction of ``func``'s self time that each module is charged."""
        if func in shares:
            return shares[func]
        module = module_of(func)
        if module is not None:
            return {module: 1.0}
        walking.add(func)
        callers = {c: edge for c, edge in stats[func][4].items() if c not in walking}
        weights = {c: edge[2] for c, edge in callers.items()}  # self time per caller
        if not any(weights.values()):
            weights = {c: edge[1] for c, edge in callers.items()}  # else calls per caller
        total = sum(weights.values())
        out: dict[str, float] = {}
        for caller, weight in weights.items():
            for name, part in share(caller).items():
                out[name] = out.get(name, 0.0) + part * weight / total
        walking.discard(func)
        shares[func] = out or {OTHER: 1.0}  # no caller: the profiler's own
        return shares[func]

    times: dict[str, float] = {}
    for func, (_, _, self_s, _, _) in stats.items():
        for name, part in share(func).items():
            times[name] = times.get(name, 0.0) + part * self_s
    return times


def label(func: tuple) -> str:
    path, line, name = func
    if path == "~":  # a built-in
        return name
    return f"{os.path.basename(path)}:{line}({name})"


def main(argv: list[str]) -> int:
    profiler = cProfile.Profile()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = profiler.runcall(cli.main, argv)
        except SystemExit as e:  # a usage error or --help
            code = e.code
    wall = time.perf_counter() - start
    stats = pstats.Stats(profiler).stats
    times = module_self_times(stats)
    total = sum(times.values())

    print(f"exit code: {code}")
    print(f"wall s under cProfile: {wall:.4f}")
    print()
    print(f"{'module':<16} {'self_s':>9} {'share':>7}")
    rows = sorted(name for name in times if name != OTHER) + [OTHER]
    for name in rows:
        seconds = times.get(name, 0.0)
        print(f"{name:<16} {seconds:>9.4f} {100 * seconds / (total or 1):>6.1f}%")
    print(f"{'total':<16} {total:>9.4f} {100.0:>6.1f}%")
    print()
    print(f"{'function':<60} {'self_s':>9} {'calls':>9}")
    top = sorted(stats.items(), key=lambda item: (-item[1][2], label(item[0])))[:TOP]
    for func, (_, calls, self_s, _, _) in top:
        print(f"{label(func):<60} {self_s:>9.4f} {calls:>9}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
