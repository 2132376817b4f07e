"""Output checks for the benchmark, run outside the timed interval.

The checks recompute what they need from the instance in their own few
lines rather than calling the program: the buyer-optimal surplus
E[v] - R* (R* the best single posted-price revenue) and Bayes
plausibility of a written scheme file.  Each check returns an error
message, or None when the output is accepted.
"""

from __future__ import annotations

import json
from fractions import Fraction


def buyer_optimal_surplus(instance: dict) -> Fraction:
    """E[v] - R*, with R* = max_k v_k * P(v >= v_k)."""
    values = [Fraction(v) for v in instance["values"]]
    masses = [Fraction(f) for f in instance["masses"]]
    expected = sum(v * f for v, f in zip(values, masses))
    best, tail = Fraction(0), Fraction(1)
    for v, f in zip(values, masses):
        best = max(best, v * tail)
        tail -= f
    return expected - best


def plausibility_error(instance: dict, scheme_text: str):
    """None if the scheme's signals are positive and mix back to the prior."""
    masses = [Fraction(f) for f in instance["masses"]]
    mixture = [Fraction(0)] * len(masses)
    total = Fraction(0)
    for entry in json.loads(scheme_text)["entries"]:
        weight = Fraction(entry["weight"])
        if weight <= 0:
            return f"signal weight {weight} is not positive"
        total += weight
        shares = Fraction(0)
        for i, share in entry["support"].items():
            share = Fraction(share)
            if share <= 0:
                return f"signal share {share} is not positive"
            shares += share
            mixture[int(i)] += weight * share
        if shares != 1:
            return f"signal shares sum to {shares}"
    if total != 1:
        return f"signal weights sum to {total}"
    for i, (got, want) in enumerate(zip(mixture, masses)):
        if got != want:
            return f"mixture at value index {i} is {got}, prior mass {want}"
    return None


def _report_value(stdout: str, label: str):
    prefix = label + ": "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def flag_error(stdout: str, flags) -> str | None:
    """None if every ``flag: true`` line is present in the report."""
    for flag in flags:
        if _report_value(stdout, flag) != "true":
            return f"report does not say {flag}: true"
    return None


def table_rows(stdout: str) -> list[list[Fraction]]:
    """Rows of the per-mass table that ends a verify report."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("m | Pfv | PF"))
    return [[Fraction(cell) for cell in line.split(" | ")[:4]] for line in lines[start + 1:]]


def verify_error(stdout: str, instance: dict, adversary: bool, monotone: bool):
    """Checks on a verify report's table.

    The sorted prefix never exceeds the integration prefix, and equals it
    for a monotone scheme.  With the adversary, every adversary prefix is
    at least the scheme's sorted prefix, and at m = 1 it equals E[v] - R*.
    """
    rows = table_rows(stdout)
    if not rows or rows[-1][0] != 1:
        return "table does not end at m = 1"
    for row in rows:
        m, pfv, pf = row[:3]
        if pf > pfv or (monotone and pf != pfv):
            return f"sorted prefix {pf} against integration prefix {pfv} at m = {m}"
        if adversary and row[3] < pf:
            return f"adversary prefix {row[3]} below sorted prefix {pf} at m = {m}"
    if adversary and rows[-1][3] != buyer_optimal_surplus(instance):
        return f"adversary prefix at m = 1 is {rows[-1][3]}, not E[v] - R*"
    return None


def buyeropt_error(stdout: str, instance: dict):
    """The buyer-optimal report line and total surplus both equal E[v] - R*."""
    want = buyer_optimal_surplus(instance)
    for label in ("buyer-optimal surplus", "total consumer surplus"):
        got = _report_value(stdout, label)
        if got is None or Fraction(got) != want:
            return f"{label} is {got}, E[v] - R* is {want}"
    return None
