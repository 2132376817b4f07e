"""Span recorder for the traced benchmark run.

The recorder wraps the names through which one fairsignal module calls
another (``cli`` calling ``ironing``, ``ironing`` calling its stages,
``oracles`` calling ``lp`` and so on) and records one span per call:
name, start, end, parent span, instance id and support size n.  Nothing in
the program itself changes; the wrappers are installed for the traced run
and removed afterwards.  Spans stay in memory and are written out once, at
the end of the run.

Hooks on the same wrappers also accumulate exact work counts (binaries,
ironing intervals, LP sizes, ...).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

from fairsignal import cli, fileio, ironing, oracles
from fairsignal.splitmatch import DecomposedScheme

ROOT = "cli"


def _den_bits(x) -> int:
    return x.denominator.bit_length()


class SpanRecorder:
    """Spans of one traced run, plus its exact counts."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, instance, n]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.instance = -1
        self.n = 0
        self.adversary_command = False
        self.counts: dict[str, int] = defaultdict(int)
        self._grid_profiles = []
        self._saved = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.instance, self.n])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # count hooks: cheap, run after the span closes

    def _count(self, key, amount=1):
        self.counts[key] += amount

    def _on_finalize(self, args, final):
        weights = [b.weight for b in final.binaries] + [s.weight for s in final.singletons]
        bits = max(map(_den_bits, weights))
        self.counts["ironing.final_den_bits"] = max(self.counts["ironing.final_den_bits"], bits)

    def _on_save(self, args, _):
        scheme, target = args
        self._count("market.signals", len(scheme.entries))
        self._count("fileio.scheme_bytes", os.path.getsize(target))

    def _on_grid(self, args, _):
        if self.adversary_command:
            self._grid_profiles.append(args[0])

    def _on_solve(self, args, result):
        lp = args[0]
        self._count("lp.solve_calls")
        self._count("lp.rows", len(lp.constraints))
        self._count("lp.cols", lp.n_vars)
        if result.value is not None:
            bits = _den_bits(result.value)
            self.counts["lp.value_den_bits"] = max(self.counts["lp.value_den_bits"], bits)

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` restores the originals."""
        count = self._count
        table = [
            (cli, "monotone_fair_scheme", "ironing.monotone_fair_scheme", None),
            (cli, "split_and_match", "splitmatch.split_and_match",
             lambda a, r: count("splitmatch.binaries", len(r.binaries))),
            (ironing, "split_and_match", "splitmatch.split_and_match",
             lambda a, r: count("splitmatch.binaries", len(r.binaries))),
            (ironing, "iron", "ironing.iron",
             lambda a, r: count("ironing.intervals", len(r.intervals))),
            (ironing, "pair_rectangles", "ironing.pair_rectangles",
             lambda a, r: count("ironing.rectangle_pairs", len(r))),
            (ironing, "smooth", "ironing.smooth", None),
            (ironing, "finalize", "ironing.finalize", self._on_finalize),
            (DecomposedScheme, "to_signaling_scheme", "market.to_signaling_scheme", None),
            (cli, "scheme_surplus", "market.scheme_surplus", None),
            (cli, "scheme_revenue", "market.scheme_revenue", None),
            (cli, "integration_prefix", "steps.integration_prefix", None),
            (cli, "sorted_prefix", "steps.sorted_prefix",
             lambda a, r: count("steps.grid_points")),
            (cli, "adversary_grid", "oracles.adversary_grid", self._on_grid),
            (cli, "adversary_sorted_prefix", "oracles.adversary_sorted_prefix",
             lambda a, r: count("oracles.adversary_calls")),
            (cli, "buyer_optimal_scheme", "oracles.buyer_optimal_scheme",
             lambda a, r: count("oracles.buyer_optimal_calls")),
            (oracles, "solve_lp", "lp.solve_lp", self._on_solve),
            (fileio, "load_instance", "fileio.load_instance", None),
            (fileio, "load_scheme", "fileio.load_scheme", None),
            (fileio, "save_scheme", "fileio.save_scheme", self._on_save),
        ]
        for owner, attr, name, hook in table:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def breakpoints(self) -> int:
        """Sorted breakpoints of every profile an adversary verify certified."""
        from fairsignal.steps import profile_step_function, sorted_breakpoints

        return sum(
            len(sorted_breakpoints(profile_step_function(p))) for p in self._grid_profiles
        )

    def self_times(self, scales) -> dict[str, float]:
        """Total self time per span name: duration minus time in child spans.

        Each span's self time is multiplied by ``scales[instance]``.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, inst, _), inner in zip(self.spans, child):
            totals[name] += (end - start - inner) * scales[inst]
        return totals

    def write(self, path: str) -> None:
        """One JSON object per span: name, start, end, parent, instance, n."""
        keys = ("name", "start", "end", "parent", "instance", "n")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
