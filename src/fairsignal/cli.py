"""Batch front end: build schemes, verify guarantees, emit reports.

Exit codes: 0 success, 1 a requested guarantee failed, 2 malformed input,
3 internal invariant violation.  Reports are plain deterministic text on
stdout; tables can be exported as CSV or JSON for plotting.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from . import fileio
from .ironing import monotone_fair_scheme
from .market import (
    MAX_INT_DIGITS,
    InvariantViolation,
    MarketError,
    PlausibilityError,
    SignalingScheme,
    SurplusProfile,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
    full_revelation,
    is_efficient,
    is_monotone,
    myerson,
    no_signal,
    scheme_revenue,
    scheme_surplus,
)
from .oracles import (
    DEFAULT_MAX_N,
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    check_adversary_support,
    max_min_surplus_lp,
    universal_lb_instance,
)
from .splitmatch import split_and_match
from .steps import (
    WELFARE_KINDS,
    StepFunction,
    evaluate_welfare,
    integration_prefix,
    profile_step_function,
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
# `as_fraction` refuses any rational read from input that is longer.


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _instance_lines(dist: ValueDistribution) -> list[str]:
    price, revenue = myerson(dist)
    return [
        f"instance: n={dist.n}",
        "values: [" + ", ".join(map(str, dist.values)) + "]",
        "masses: [" + ", ".join(map(str, dist.masses)) + "]",
        f"expected value: {dist.expected_value()}",
        f"myerson price: {price}",
        f"myerson revenue: {revenue}",
        "posted revenues: [" + ", ".join(map(str, dist.posted_revenues())) + "]",
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
        f"total consumer surplus: {profile.total()}",
        f"efficient: {_fmt(flags['efficient'])}",
        f"monotone: {_fmt(flags['monotone'])}",
    ]
    for kind in WELFARE_KINDS:
        lines.append(f"welfare {kind}: {_fmt(evaluate_welfare(profile, kind))}")
    return lines, profile, flags


def build_named_scheme(dist: ValueDistribution, name: str) -> SignalingScheme:
    """Every scheme kind but ``buyeropt``, whose total ``cmd_build`` reports."""
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
    rival: Optional[Callable[[Fraction], Fraction]] = None,
) -> tuple[list[dict], Union[Fraction, float, None]]:
    """Per-mass prefix table of ``step`` and its certified factor against ``rival``.

    Each row holds ``m``, ``integration_prefix`` and ``sorted_prefix`` (PF).
    With a rival it also holds ``adversary_prefix`` (the rival's value) and
    ``ratio``: 0 where the rival is 0, math.inf where only PF is 0, else
    rival / PF.  alpha is the largest ratio, or None without a rival.
    """
    rows = []
    for m in grid:
        row = {
            "m": m,
            "integration_prefix": integration_prefix(step, m),
            "sorted_prefix": sorted_prefix(step, m),
        }
        if rival is not None:
            adv = rival(m)
            pf = row["sorted_prefix"]
            row["adversary_prefix"] = adv
            row["ratio"] = Fraction(0) if adv == 0 else math.inf if pf == 0 else adv / pf
        rows.append(row)
    if rival is None:
        return rows, None
    return rows, max(row["ratio"] for row in rows)


def _table_lines(rows: Sequence[dict], with_adversary: bool) -> list[str]:
    lines = []
    header = "m | Pfv | PF"
    if with_adversary:
        header += " | adversary PF | ratio"
    lines.append(header)
    for row in rows:
        cells = [str(row["m"]), str(row["integration_prefix"]), str(row["sorted_prefix"])]
        if with_adversary:
            ratio = row["ratio"]
            cells.append(str(row["adversary_prefix"]))
            cells.append("inf" if ratio == math.inf else str(ratio))
        lines.append(" | ".join(cells))
    return lines


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    grid = tuple(as_fraction(part) for part in text.split(","))
    for m in grid:
        if not 0 < m <= 1:
            raise MarketError(f"grid mass {m} outside (0, 1]")
    return tuple(sorted(set(grid)))


def _json_rows(rows: Sequence[dict]) -> list[dict]:
    out = []
    for row in rows:
        jrow = {}
        for key, val in row.items():
            jrow[key] = "inf" if val == math.inf else str(val)
        out.append(jrow)
    return out


def cmd_build(args) -> int:
    try:
        dist = fileio.load_instance(args.instance)
    except (MarketError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: invalid instance: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if args.scheme == "buyeropt":
        scheme, total = buyer_optimal_scheme(dist)
        extra = [f"buyer-optimal surplus: {total}"]
    else:
        scheme = build_named_scheme(dist, args.scheme)
        extra = []
    lines = _instance_lines(dist) + _scheme_report(args.scheme, scheme)[0] + extra
    if args.format == "json":
        payload = {"report": lines, "scheme": fileio.scheme_payload(scheme)}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    if args.out:
        fileio.save_scheme(scheme, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        dist = fileio.load_instance(args.instance)
    except (MarketError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: invalid instance: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    required = [r for r in args.require.split(",") if r] if args.require else []
    for r in required:
        if r not in REQUIREMENTS:
            raise MarketError(f"unknown requirement {r!r}")
    with_adversary = args.adversary or "majorized" in required
    rival = None
    if with_adversary:
        check_adversary_support(dist, args.max_support)
        rival = lambda m: adversary_sorted_prefix(dist, m, args.max_support)[0]
    try:
        scheme = fileio.load_scheme(args.scheme_file, dist)
    except PlausibilityError as e:
        print(
            f"error: scheme is not Bayes plausible at value index {e.index}: {e}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    except (MarketError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: invalid scheme file: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT

    scheme_lines, profile, flags = _scheme_report("file", scheme)
    grid = _parse_grid(args.grid) if args.grid else adversary_grid(profile)
    rows, alpha = certify(profile_step_function(profile), grid, rival)

    lines = _instance_lines(dist) + scheme_lines
    if with_adversary:
        flags["majorized"] = alpha != math.inf and alpha <= MAJORIZATION_FACTOR
        lines.append(f"certified alpha: {_fmt(alpha)}")
        lines.append(
            f"majorized (alpha <= {MAJORIZATION_FACTOR}): {_fmt(flags['majorized'])}"
        )
    lines += _table_lines(rows, with_adversary)
    print("\n".join(lines))

    if args.out:
        if args.format == "json":
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(_json_rows(rows), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            fileio.write_majorization_table(args.out, rows)

    failed = [r for r in required if not flags[r]]
    if failed:
        print("failed requirements: " + ", ".join(failed))
        return EXIT_GUARANTEE_FAILED
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    lines = []
    try:
        if args.kind == "buyeropt":
            inst = buyer_optimal_lb_instance(args.parameter)
            profile_opt = scheme_surplus(inst.buyer_optimal)
            profile_alt = scheme_surplus(inst.alternative)
            lines += _instance_lines(inst.dist)
            lines += [
                f"buyer-optimal cs (mid, high): {inst.cs_mid_optimal}, {inst.cs_high_optimal}",
                f"alternative cs (mid, high): {inst.cs_mid_alternative}, {inst.cs_high_alternative}",
                f"min positive surplus ratio: {inst.ratio}",
            ]
            if profile_opt.surpluses[1:] != (inst.cs_mid_optimal, inst.cs_high_optimal):
                raise InvariantViolation("buyer-optimal surplus mismatch")
            if profile_alt.surpluses[1:] != (
                inst.cs_mid_alternative,
                inst.cs_high_alternative,
            ):
                raise InvariantViolation("alternative surplus mismatch")
            if profile_opt.total() != inst.dist.expected_value() - myerson(inst.dist)[1]:
                raise InvariantViolation("reference scheme is not buyer-optimal")
            lines.append("verified: true")
        else:
            eps = as_fraction(args.parameter)
            if not 0 < eps <= Fraction(1, 100):
                raise MarketError(f"epsilon must lie in (0, 1/100], got {eps}")
            inst = universal_lb_instance(eps)
            result = max_min_surplus_lp(inst.values, inst.raw_masses)
            lines += _instance_lines(inst.dist)
            lines += [
                f"max-min LP value: {result.value}",
                f"closed form: {inst.best_min_surplus}",
                f"match: {_fmt(result.value == inst.best_min_surplus)}",
            ]
            if result.value != inst.best_min_surplus:
                raise InvariantViolation("max-min LP value differs from closed form")
            profile = monotone_fair_scheme(inst.dist).final.surplus_profile()
            _, alpha = certify(
                profile_step_function(profile),
                adversary_grid(profile),
                lambda m: adversary_sorted_prefix(inst.dist, m)[0],
            )
            lines.append(f"certified alpha of monotone scheme: {_fmt(alpha)}")
    except ValueError as e:  # a report line past the int/str digit limit
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print("\n".join(lines))
    return EXIT_OK


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
        type=int,
        default=DEFAULT_MAX_N,
        help="largest support size the adversary LP accepts (default %(default)s)",
    )
    v.set_defaults(func=cmd_verify)

    l = sub.add_parser("lowerbound", help="reproduce a hard instance family")
    l.add_argument("kind", choices=("buyeropt", "universal"))
    l.add_argument("parameter", help="N > 1 for buyeropt, epsilon in (0, 1/100] for universal")
    l.set_defaults(func=cmd_lowerbound)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 builds may lack it
        sys.set_int_max_str_digits(MAX_INT_DIGITS)
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as e:
        print(f"error: internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except MarketError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
