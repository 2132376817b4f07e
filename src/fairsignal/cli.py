"""Batch front end: build schemes, verify guarantees, emit reports.

Exit codes: 0 success, 1 a requested guarantee failed, 2 malformed input,
3 internal invariant violation.  Reports are plain deterministic text on
stdout, printed after any ``--out`` file is written; tables can be
exported as CSV or JSON for plotting.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import fileio
from .fileio import as_text
from .ironing import monotone_fair_scheme
from .market import (
    DERIVED_TOO_LONG,
    MAX_INT_DIGITS,
    InvariantViolation,
    MarketError,
    PlausibilityError,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
    full_revelation,
    is_efficient,
    no_signal,
    scheme_revenue,
)
from .oracles import (
    DEFAULT_MAX_N,
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    check_adversary_support,
    universal_lb_instance,
)
from .splitmatch import split_and_match
from .steps import (
    WELFARE_KINDS,
    StepFunction,
    SurplusProfile,
    evaluate_welfare,
    integration_prefix,
    is_monotone,
    merged,
    scheme_surplus,
    sorted_prefix,
)

SCHEME_KINDS = ("splitmatch", "final", "buyeropt", "fullreveal", "nosignal")
REQUIREMENTS = ("efficient", "monotone", "majorized")
MAJORIZATION_FACTOR = 8

EXIT_OK = 0
EXIT_GUARANTEE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INVARIANT = 3

# Scheme files of large instances hold rationals longer than Python's
# default 4,300-digit int/str limit (12,945 characters for a clustered
# instance at n=256).  Parsing one 10**5-digit integer takes 0.1-0.2 s and
# a 10**6-digit one about 10 s (Python 3.11, 2-vCPU Xeon VM), so `main`
# raises the limit to MAX_INT_DIGITS rather than lifting it, and
# `rational_pair` refuses any rational read from input that is longer.  A
# rational derived from shorter input (a sum, a revenue) can still pass
# the limit when printed; Python then raises a ValueError with this
# message, which `main` reports as bad input.
_DIGIT_LIMIT = re.compile(r"Exceeds the limit \(\d+ digits\) for integer string conversion")


def _instance_lines(dist: ValueDistribution) -> list[str]:
    price, revenue = dist.myerson
    return [
        f"instance: n={dist.n}",
        "values: [" + ", ".join(map(str, dist.values)) + "]",
        "masses: [" + ", ".join(map(str, dist.masses)) + "]",
        f"expected value: {dist.expected_value}",
        f"myerson price: {price}",
        f"myerson revenue: {revenue}",
        "posted revenues: [" + ", ".join(map(str, dist.posted_revenues)) + "]",
    ]


def _scheme_report(
    name: str, scheme: SignalingScheme
) -> tuple[list[str], SurplusProfile, dict[str, bool]]:
    """Report lines of a scheme, with its surplus profile and its flags."""
    profile = scheme_surplus(scheme)
    flags = {"efficient": is_efficient(scheme), "monotone": is_monotone(profile)}
    lines = [
        f"scheme: {name}",
        f"signals: {len(scheme.entries)}",
        f"revenue: {scheme_revenue(scheme)}",
        "surplus profile: [" + ", ".join(map(str, profile.surpluses)) + "]",
        f"total consumer surplus: {profile.total}",
        f"efficient: {as_text(flags['efficient'])}",
        f"monotone: {as_text(flags['monotone'])}",
    ]
    for kind in WELFARE_KINDS:
        lines.append(f"welfare {kind}: {as_text(evaluate_welfare(profile, kind))}")
    return lines, profile, flags


def build_named_scheme(dist: ValueDistribution, name: str) -> SignalingScheme:
    """The scheme of each kind in SCHEME_KINDS."""
    if name == "buyeropt":
        return buyer_optimal_scheme(dist)
    if name == "splitmatch":
        return split_and_match(dist).to_signaling_scheme()
    if name == "final":
        return monotone_fair_scheme(dist).final.to_signaling_scheme()
    if name == "fullreveal":
        return full_revelation(dist)
    if name == "nosignal":
        return no_signal(dist)
    raise ValueError(f"unknown scheme kind {name!r}")


def certify(
    step: StepFunction,
    grid: Sequence[Fraction],
    rival: Optional[Sequence[Fraction]] = None,
) -> tuple[list[tuple], Union[Fraction, float, None]]:
    """Per-mass table of ``step`` and its certified factor against ``rival``,
    which holds one value per grid mass.

    Each row holds the columns of ``fileio.TABLE_FIELDS``: m, Pfv and PF,
    then, with a rival, its value and the ratio (0 where the rival is 0,
    math.inf where only PF is 0, else rival / PF).  alpha is the largest
    ratio, or None without a rival.
    """
    rows = [(m, integration_prefix(step, m), sorted_prefix(step, m)) for m in grid]
    if rival is None:
        return rows, None
    rows = [
        (m, pfv, pf, adv, Fraction(0) if adv == 0 else math.inf if pf == 0 else adv / pf)
        for (m, pfv, pf), adv in zip(rows, rival, strict=True)
    ]
    return rows, max(row[-1] for row in rows)


def _table_lines(rows: Sequence[tuple]) -> list[str]:
    lines = [" | ".join(("m", "Pfv", "PF", "adversary PF", "ratio")[: len(rows[0])])]
    for m, pfv, pf, *rest in rows:
        pfv_text = as_text(pfv)  # on its own grid a monotone profile's PF is its Pfv
        pf_text = pfv_text if pf is pfv else as_text(pf)
        lines.append(" | ".join([as_text(m), pfv_text, pf_text, *map(as_text, rest)]))
    return lines


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    grid = tuple(as_fraction(part) for part in text.split(","))
    for m in grid:
        if not 0 < m <= 1:
            raise MarketError(f"grid mass {m} outside (0, 1]")
    return tuple(sorted(set(grid)))


def _support_size(text: str) -> int:
    """A --max-support value: an int of at least 1."""
    try:
        size = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if size < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {size}")
    return size


def _load(what: str, loader, *args):
    """``loader(*args)``, with a file it cannot open or parse reported as
    bad input that names ``what``."""
    try:
        return loader(*args)
    except PlausibilityError as e:
        raise MarketError(
            f"scheme is not Bayes plausible at value index {e.index}: {e}"
        ) from None
    except (MarketError, OSError) as e:
        raise MarketError(f"invalid {what}: {e}") from None


def cmd_build(args) -> tuple[int, str]:
    dist = _load("instance", fileio.load_instance, args.instance)
    scheme = build_named_scheme(dist, args.scheme)
    report, profile, _ = _scheme_report(args.scheme, scheme)
    lines = _instance_lines(dist) + report
    if args.scheme == "buyeropt":
        lines.append(f"buyer-optimal surplus: {profile.total}")
    if args.out:
        fileio.save_scheme(scheme, args.out)
    if args.format == "json":
        # json_text({"report": lines, "scheme": ...}), the scheme nested a level deeper
        body = f'"report": {fileio.json_text(lines)},\n"scheme": {fileio.scheme_text(scheme)}'
        return EXIT_OK, "{\n  " + body.replace("\n", "\n  ") + "\n}"
    return EXIT_OK, "\n".join(lines)


def cmd_verify(args) -> tuple[int, str]:
    dist = _load("instance", fileio.load_instance, args.instance)
    required = [r for r in args.require.split(",") if r] if args.require else []
    for r in required:
        if r not in REQUIREMENTS:
            raise MarketError(f"unknown requirement {r!r}")
    shown = _parse_grid(args.grid) if args.grid else None
    with_adversary = args.adversary or "majorized" in required
    if with_adversary:
        check_adversary_support(dist, args.max_support)
    scheme = _load("scheme file", fileio.load_scheme, args.scheme_file, dist)

    scheme_lines, profile, flags = _scheme_report("file", scheme)
    own = adversary_grid(profile)  # alpha is read here, where the ratio binds
    shown = shown or own
    grid = merged(own, shown) if with_adversary else shown
    rival = adversary_sorted_prefix(dist, grid, args.max_support) if with_adversary else None
    rows, alpha = certify(profile.step_function, grid, rival)
    if len(grid) > len(shown):  # the table shows only the given masses
        picked = set(shown)
        rows = [row for row in rows if row[0] in picked]

    lines = _instance_lines(dist) + scheme_lines
    if with_adversary:
        flags["majorized"] = alpha <= MAJORIZATION_FACTOR
        lines.append(f"certified alpha: {as_text(alpha)}")
        lines.append(
            f"majorized (alpha <= {MAJORIZATION_FACTOR}): {as_text(flags['majorized'])}"
        )
    lines += _table_lines(rows)

    if args.out:
        fileio.write_majorization_table(args.out, rows, args.format)

    failed = [r for r in required if not flags[r]]
    if failed:
        lines.append("failed requirements: " + ", ".join(failed))
    return EXIT_GUARANTEE_FAILED if failed else EXIT_OK, "\n".join(lines)


def cmd_lowerbound(args) -> tuple[int, str]:
    lines = []
    if args.kind == "buyeropt":
        # the instance checked both schemes against their closed forms
        inst = buyer_optimal_lb_instance(args.parameter)
        _, mid_opt, high_opt = inst.buyer_optimal.surpluses
        _, mid_alt, high_alt = inst.alternative.surpluses
        lines += _instance_lines(inst.dist)
        lines += [
            f"buyer-optimal cs (mid, high): {mid_opt}, {high_opt}",
            f"alternative cs (mid, high): {mid_alt}, {high_alt}",
            f"min positive surplus ratio: {inst.ratio}",
            "verified: true",
        ]
    else:
        inst = universal_lb_instance(args.parameter)
        dist = inst.dist
        profile = scheme_surplus(monotone_fair_scheme(dist).final)
        grid = adversary_grid(profile)
        rival = adversary_sorted_prefix(dist, grid)
        # The max-min value is read off the sweep.  Class 1 earns 0 under
        # every scheme, since every price is at least v_1, and class 3
        # alone can fill mass f_2, since f_3 - f_2 = eps*(1 + (1+eps)**2) > 0.
        # So the cheapest mass-(f_1 + f_2) selection is class 1 plus mass
        # f_2 of the poorer of classes 2 and 3, with surplus
        # f_2 * min(s_2, s_3), and the adversary there is f_2 times the
        # max-min optimum.
        m_star = dist.cdf[1]
        if m_star not in grid:
            raise InvariantViolation(f"adversary grid lacks F(v_2) = {m_star}")
        value = rival[grid.index(m_star)] / dist.masses[1]
        lines += _instance_lines(dist)
        lines += [
            f"max-min LP value: {value}",
            f"closed form: {inst.best_min_surplus}",
            f"match: {as_text(value == inst.best_min_surplus)}",
        ]
        if value != inst.best_min_surplus:
            raise InvariantViolation("max-min LP value differs from closed form")
        _, alpha = certify(profile.step_function, grid, rival)
        lines.append(f"certified alpha of monotone scheme: {as_text(alpha)}")
    return EXIT_OK, "\n".join(lines)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairsignal",
        description="Construct and verify fair signaling schemes for "
        "third-degree price discrimination over discrete value distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a scheme and report on it")
    b.add_argument("--in", dest="instance", required=True, help="instance JSON file")
    b.add_argument("--scheme", required=True, choices=SCHEME_KINDS)
    b.add_argument("--out", help="write the scheme JSON here")
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="check guarantees of a scheme file")
    v.add_argument("--in", dest="instance", required=True, help="instance JSON file")
    v.add_argument("--scheme", dest="scheme_file", required=True, help="scheme JSON file")
    v.add_argument("--adversary", action="store_true", help="run the exact LP adversary")
    v.add_argument("--grid", help="comma-separated masses in (0, 1]")
    v.add_argument(
        "--require",
        default="",
        help="comma-separated guarantees that must hold: "
        + ",".join(REQUIREMENTS),
    )
    v.add_argument("--out", help="write the per-mass table here")
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    v.add_argument(
        "--max-support",
        type=_support_size,
        default=DEFAULT_MAX_N,
        help="largest support size the adversary LP accepts (default %(default)s)",
    )
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lowerbound", help="reproduce a hard instance family")
    l.add_argument("kind", choices=("buyeropt", "universal"))
    l.add_argument("parameter", help="N > 1 for buyeropt, epsilon in (0, 1/100] for universal")
    l.set_defaults(func=cmd_lowerbound)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads every command with, built on its first call
    rather than at import, so that importing the module builds none."""
    return make_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and print its report, the one write to stdout."""
    sys.set_int_max_str_digits(MAX_INT_DIGITS)
    args = _parser().parse_args(argv)
    try:
        code, report = args.func(args)
    except InvariantViolation as e:
        print(f"error: internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (MarketError, OSError) as e:  # OSError: an --out that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ValueError as e:  # any other ValueError is a bug
        if not _DIGIT_LIMIT.match(str(e)):
            raise
        print(f"error: {DERIVED_TOO_LONG}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        print(report, flush=True)
    except BrokenPipeError:  # stdout closed early: send the rest to devnull (see `signal`'s docs)
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
