"""Acceptance suite: every stated guarantee, checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run ``pytest -s`` to see them all)
and fails the suite if violated.  Every comparison of reported values is
exact, in rationals with no tolerance; only the timing bounds are floats.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from fairsignal.cli import certify
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.market import (
    PlausibilityError,
    SignalingScheme,
    ValueDistribution,
    buyer_optimal_scheme,
    is_efficient,
    scheme_revenue,
)
from fairsignal.oracles import (
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    universal_lb_instance,
)
from fairsignal.splitmatch import (
    SingletonEntry,
    binary_shares,
    split_and_match,
    truncated_upper_bound,
)
from fairsignal.steps import (
    integration_prefix,
    is_monotone,
    scheme_surplus,
    sorted_prefix,
)

from conftest import (
    adversary_witnesses,
    alpha_against,
    binary,
    max_min_surplus_lp,
    universal_raw_masses,
)

F = Fraction


def report(num: int, description: str, ok: bool) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="session")
def pipelines(corpus):
    return [monotone_fair_scheme(dist) for dist in corpus]


@pytest.fixture(scope="session")
def certificates(corpus, pipelines):
    """Adversary values and witness schemes for every small instance.

    Returns (entries, elapsed_seconds) where each entry carries the
    instance, its final scheme, and one (m, value, witness) triple
    per grid mass.  The witnesses come from the `adversary_witnesses` test
    oracle, so the time includes rebuilding them.
    """
    start = time.perf_counter()
    entries = []
    for dist, pipe in zip(corpus, pipelines):
        if dist.n > 6:
            continue
        scheme = pipe.final.to_signaling_scheme()
        grid = adversary_grid(scheme_surplus(scheme))
        sweep = adversary_witnesses(dist, grid)
        rows = [(m, value, witness) for m, (value, witness) in zip(grid, sweep)]
        entries.append((dist, scheme, rows))
    return entries, time.perf_counter() - start


def test_c01_running_example_pricing(running_example):
    price, revenue = running_example.myerson
    ok = (price, revenue) == (F(5), F(5, 2))
    ok &= running_example.posted_revenues == (F(1), F(3, 2), F(5, 2), F(3, 2))

    def priced():
        # a fresh distribution, since each prices itself once and keeps it
        dist = ValueDistribution(running_example.values, running_example.masses)
        return dist.myerson, dist.posted_revenues

    priced()  # warm up before timing
    best = min(_timed(priced) for _ in range(5))
    ok &= best < 1e-3
    report(1, f"running-example pricing, exact, {best * 1e6:.0f}us < 1ms", ok)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_c02_reference_schemes(nonmonotone_scheme, monotone_scheme):
    ok = nonmonotone_scheme.surpluses == (F(0), F(3, 5), F(2, 5), F(3))
    ok &= monotone_scheme.surpluses == (F(0), F(1, 7), F(10, 7), F(17, 7))
    ok &= nonmonotone_scheme.total_surplus == monotone_scheme.total_surplus == F(1)
    ok &= scheme_revenue(nonmonotone_scheme) == F(5, 2)
    ok &= scheme_revenue(monotone_scheme) == F(5, 2)
    step_a = scheme_surplus(nonmonotone_scheme)
    step_b = scheme_surplus(monotone_scheme)
    ok &= sorted_prefix(step_b, F(1, 2)) == F(1, 28)
    ok &= sorted_prefix(step_a, F(1, 2)) == F(1, 10)
    ok &= F(1, 28) < F(1, 10)
    ok &= sorted_prefix(step_a, F(3, 4)) == F(1, 4)
    ok &= sorted_prefix(step_b, F(3, 4)) == F(11, 28)
    ok &= F(1, 4) < F(11, 28)
    report(2, "reference scheme profiles and prefix comparisons, exact", ok)


def test_c03_split_match_trace(fig3_instance):
    scheme = split_and_match(fig3_instance)
    first = scheme.binaries[0]
    ok = (first.giver, first.taker, first.weight) == (0, 1, F(1, 10))
    ok &= binary_shares(fig3_instance, 0, 1) == ((1, 2), (1, 2))
    ok &= scheme.binaries == (
        binary(fig3_instance, 0, 1, F(1, 10)),
        binary(fig3_instance, 1, 2, F(9, 40)),
        binary(fig3_instance, 1, 3, F(1, 10)),
        binary(fig3_instance, 1, 4, F(3, 80)),
        binary(fig3_instance, 2, 4, F(7, 40)),
    )
    ok &= scheme.singletons == (
        SingletonEntry(0, F(1, 20)),
        SingletonEntry(1, F(1, 10)),
        SingletonEntry(2, F(1, 16)),
        SingletonEntry(3, F(1, 20)),
        SingletonEntry(4, F(1, 10)),
    )
    report(3, "greedy decomposition matches the hand-traced ledger", ok)


def test_c04_prefix_lower_bound_suite(corpus):
    start = time.perf_counter()
    violations = 0
    for dist in corpus:
        step = scheme_surplus(split_and_match(dist))
        for k in range(1, dist.n + 1):
            lhs = 4 * integration_prefix(step, dist.cdf[k - 1])
            if lhs < truncated_upper_bound(dist, k):
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30
    report(
        4,
        f"4x prefix bound on {len(corpus)} instances, "
        f"{violations} violations, {elapsed:.1f}s < 30s",
        ok,
    )


def test_c05_pipeline_identity(corpus, pipelines):
    violations = 0
    for pipe in pipelines:
        final = pipe.final.surpluses
        if any(2 * cs != s for cs, s in zip(final, pipe.ironed.ironed_values)):
            violations += 1
        # every stage's mixture must equal the prior exactly; the checked
        # constructor sums it, as the stage's own hand-over does not
        for stage in (pipe.base, pipe.smoothed, pipe.final):
            try:
                SignalingScheme(stage.dist, stage.to_signaling_scheme().entries)
            except PlausibilityError:
                violations += 1
        scheme = pipe.final.to_signaling_scheme()
        if not is_efficient(scheme) or not is_monotone(scheme):
            violations += 1
    ok = violations == 0
    report(
        5,
        f"final surplus is half the ironed level on {len(corpus)} instances, "
        f"{violations} violations",
        ok,
    )


def test_c06_majorization_certificate(certificates):
    entries, elapsed = certificates
    solves = sum(len(rows) for _, _, rows in entries)
    violations = 0
    for _, scheme, rows in entries:
        step = scheme_surplus(scheme)
        for m, value, _ in rows:
            if 8 * sorted_prefix(step, m) < value:
                violations += 1
    ok = violations == 0 and elapsed < 300
    report(
        6,
        f"8x sorted-prefix certificate, {len(entries)} instances / "
        f"{solves} exact LPs, {violations} violations, {elapsed:.1f}s < 300s",
        ok,
    )


def test_c07_buyer_optimal_identity(corpus):
    violations = 0
    for dist in corpus:
        total = buyer_optimal_scheme(dist).total_surplus
        _, revenue = dist.myerson
        if total != dist.expected_value - revenue:
            violations += 1
    ok = violations == 0
    report(
        7,
        f"buyer-optimal peeling total equals expected value minus revenue on "
        f"{len(corpus)} instances, {violations} violations",
        ok,
    )


def test_c08_buyer_optimal_lower_bound_family():
    ok = True
    for n in (2, 5, 10, 100):
        inst = buyer_optimal_lb_instance(n)
        N = F(n)
        denom = N**2 + 1
        prof_opt = inst.buyer_optimal
        prof_alt = inst.alternative
        ok &= prof_opt.surpluses[1:] == ((N - 1) / denom, (N + N**2) / denom)
        ok &= prof_alt.surpluses[1:] == ((N**2 - 1) / denom, (N**2 - N) / denom)
        ok &= prof_alt.surpluses[2] / prof_opt.surpluses[1] == N
    report(8, "three-value family surpluses and ratio N for N in {2,5,10,100}", ok)


def test_c09_universal_lower_bound_family():
    ok = True
    alphas = []
    for eps in (F(1, 100), F(1, 1000)):
        inst = universal_lb_instance(eps)
        result = max_min_surplus_lp(inst.dist.values, universal_raw_masses(eps))
        ok &= result.value == inst.best_min_surplus
        final = monotone_fair_scheme(inst.dist).final
        step = scheme_surplus(final)
        grid = adversary_grid(step)
        sweep = adversary_sorted_prefix(inst.dist, grid)
        _, alpha = certify(step, grid, sweep)
        alphas.append(alpha)
        ok &= alpha >= F(3, 2) - 10 * eps
    report(
        9,
        "max-min LP equals closed form; certified alpha "
        f"{[str(a) for a in alphas]} stays above 3/2 - 10*eps",
        ok,
    )


def threshold_welfare(scheme, t: Fraction) -> Fraction:
    """W_t(s) = sum of f_i * min(s_i, t): non-negative, monotone, symmetric
    and concave in s, and positive at t > 0 once some class earns."""
    return sum(f * min(cs, t) for f, cs in zip(scheme.dist.masses, scheme.surpluses))


def test_c10_welfare_approximation(certificates):
    # alpha bounds the witness's sorted prefixes by alpha times the final
    # scheme's, so for every increasing concave phi with phi(0) = 0 the sum
    # of f_i * phi(s_i) is at most max(alpha, 1) times the final scheme's
    # (Tomic's weak-majorization inequality; Marshall, Olkin and Arnold,
    # Inequalities, 2nd ed., ch. 3).  Each such phi is a positive mix of
    # the W_t, and both sides of W_t are piecewise linear in t with kinks
    # only at surplus values, so checking every such t covers them all.
    entries, _ = certificates
    checked = 0
    violations = 0
    for _, scheme, rows in entries:
        step = scheme_surplus(scheme)
        for _, _, witness in rows:
            alpha = alpha_against(step, scheme_surplus(witness))
            if alpha == math.inf:
                violations += 1
                continue
            factor = max(alpha, 1)
            for t in sorted(set(scheme.surpluses + witness.surpluses)):
                if threshold_welfare(witness, t) > factor * threshold_welfare(scheme, t):
                    violations += 1
                checked += 1
    ok = violations == 0
    report(
        10,
        f"threshold welfare of every adversary within max(certified alpha, 1), "
        f"{checked} comparisons, {violations} violations",
        ok,
    )
