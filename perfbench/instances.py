"""Seeded instance families for the benchmark.

Every instance is a plain ``{"values": [...], "masses": [...]}`` payload of
exact rationals as strings, the CLI's instance format.  The four families
differ in the denominators the exact arithmetic has to carry:

- ``random``: distinct random integer values, random integer mass weights;
- ``equal_revenue``: random integer values with tail masses ``v_1 / v_i``,
  so every posted price earns the same revenue and the Myerson price ties;
- ``geometric``: values ``b * (3/2)**i`` for a random integer b in 1..9,
  random integer mass weights;
- ``clustered``: four tight clusters of integer values; alternate clusters
  carry 10**6 times the mass weight of the others.
"""

from __future__ import annotations

import random
from fractions import Fraction

FAMILIES = ("random", "equal_revenue", "geometric", "clustered")


def _distinct_ints(rng: random.Random, n: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(1, hi + 1), n))


def _normalise(weights: list[int]) -> list[Fraction]:
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def make_instance(family: str, n: int, rng: random.Random) -> dict:
    """One instance of ``family`` with support size ``n``, drawn from ``rng``."""
    if family == "random":
        values = [Fraction(v) for v in _distinct_ints(rng, n, 10 * n)]
        masses = _normalise([rng.randint(1, 100) for _ in range(n)])
    elif family == "equal_revenue":
        values = [Fraction(v) for v in _distinct_ints(rng, n, 10 * n)]
        tails = [values[0] / v for v in values] + [Fraction(0)]
        masses = [a - b for a, b in zip(tails, tails[1:])]
    elif family == "geometric":
        base = rng.randint(1, 9)
        values = [base * Fraction(3, 2) ** i for i in range(n)]
        masses = _normalise([rng.randint(1, 100) for _ in range(n)])
    elif family == "clustered":
        # four clusters of n/4 nearby integers; alternate clusters are
        # 10**6 times heavier, so masses span six orders of magnitude
        centres = sorted(rng.sample(range(1, 100), 4))
        values, weights = [], []
        for k, centre in enumerate(centres):
            size = n // 4 + (k < n % 4)
            offsets = sorted(rng.sample(range(10 * n), size))
            values += [Fraction(centre * 10**4 + o) for o in offsets]
            weights += [rng.randint(1, 9) * 10 ** (6 * (k % 2)) for _ in offsets]
        masses = _normalise(weights)
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"values": [str(v) for v in values], "masses": [str(f) for f in masses]}
