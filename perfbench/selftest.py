"""Self-test of the benchmark: one seed gives the same outputs and counts.

    python3 perfbench/selftest.py [--seed N]

For every workload, runs one cycle three times on one seed: twice traced
and once untraced.  The output digests (stdout and written files,
in order) must agree across all three runs, so tracing does not change
what the program prints, and the exact counts must agree across the two
traced runs.  Exits 1 on any difference or failed instance.
"""

from __future__ import annotations

import argparse
import sys

import run


def one_cycle(name: str, seed: int, trace: bool) -> tuple[str, dict]:
    result = run.run_workload(name, seed, seconds=0, trace=trace)
    if result["failures"]:
        raise SystemExit(f"{name}: failed instances: {result['failures']}")
    counts = run.per_layer_metrics(result) if trace else {}
    exact = {k: v for k, (v, unit) in counts.items() if unit in ("count", "ratio")}
    return result["digest"], exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for name in sorted(run.WORKLOADS):
        digest_a, counts_a = one_cycle(name, args.seed, trace=True)
        digest_b, counts_b = one_cycle(name, args.seed, trace=True)
        digest_c, _ = one_cycle(name, args.seed, trace=False)
        same = digest_a == digest_b == digest_c and counts_a == counts_b
        ok &= same
        print(f"{name}: {'ok' if same else 'MISMATCH'} digest={digest_a} counts={counts_a}")
        if not same:
            print(f"  digests {digest_a} {digest_b} {digest_c}")
            print(f"  counts {counts_a}\n  counts {counts_b}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
