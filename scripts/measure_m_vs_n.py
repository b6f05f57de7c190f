#!/usr/bin/env python3
"""Measure the smallest verified majority width against n.

The sampler always draws m = MajorityDecomposition.slot_bound(S) slots,
the smallest odd >= 20n, but whether anything that large is necessary is
open; this script probes, per n, the smallest odd m for which a sampled
decomposition from the optimal game strategy reproduces the target
exactly (a measured curve, no assertion).

Usage: python scripts/measure_m_vs_n.py [--n-max 7] [--seed 1]
"""

import argparse

from majcert.concepts import pointwise_majority
from majcert.decompose import MajorityDecomposition
from majcert.games import double_oracle_solve
from majcert.generators import point_function_class, random_boolean_class
from majcert.rng import substream


def smallest_verified_m(S, f_star, strategy, seed, attempts=16, m_cap=301):
    m = 1
    while m <= m_cap:
        for attempt in range(attempts):
            pairs = strategy.sample_pairs(substream(seed, m, attempt), m)
            if pointwise_majority([f for _, f in pairs]).bits == f_star.bits:
                return m
        m += 2
    return None


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--family", choices=["point", "random"], default="point")
    args = parser.parse_args()

    print(f"family={args.family}  (schedule width m_sched = smallest odd >= 20n)")
    print(f"{'n':>3} {'|S|':>5} {'m_min':>6} {'m_sched':>8}")
    for n in range(2, args.n_max + 1):
        rng = substream(args.seed, n)
        if args.family == "point":
            S = point_function_class(n)
        else:
            S = random_boolean_class(n, min(64, 1 << min(1 << n, 6)), rng)
        f_star = S[0]
        strategy = double_oracle_solve(S, f_star)
        m_min = smallest_verified_m(S, f_star, strategy, args.seed)
        sched = MajorityDecomposition.slot_bound(S)
        print(f"{n:>3} {len(S):>5} {str(m_min):>6} {sched:>8}")


if __name__ == "__main__":
    main()
