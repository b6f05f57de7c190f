#!/usr/bin/env python3
"""End-to-end walkthrough of the compiled advice protocol.

Compiles the reference 1-advice-qubit instance, prints the classical
advice shape, honest completeness numbers, the exact conditional
soundness bound over the compiled class, and the adversary probe on the
intact and deliberately broken protocols.

Usage: python scripts/demo_quantum_protocol.py [--restarts 300] [--seed 7]
"""

import argparse

from majcert.protocol import (adversary_search, conditional_soundness_bound,
                              machine_b_error, verifier_A, with_inflated_alpha)
from majcert.suites import build_standard_protocol


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--restarts", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--random-states", type=int, default=60)
    args = parser.parse_args()

    P = build_standard_protocol(eps=0.1, random_states=args.random_states,
                                seed=args.seed)
    print(f"compiled protocol: m={P.m} registers of {P.advice_qubits} qubit(s), "
          f"alpha={P.alpha:.3e}, class size {len(P.compiled_class)}")
    for count, (_, targets) in P.slots.groups():
        print(f"  slot constraint set {[z for z, _ in targets]} used by {count} registers")

    honest = P.honest_registers()
    print(f"honest verifier deviation: {verifier_A(P, honest):.3e} "
          f"(threshold 5*alpha = {5 * P.alpha:.3e})")
    print(f"honest machine-B error:   {machine_b_error(P, honest):.4f} (<= 0.3)")
    print(f"conditional soundness bound over the compiled class: "
          f"{conditional_soundness_bound(P):.4f} (exact; full state space is "
          f"probed, not proven)")

    intact = adversary_search(P, budget=args.restarts, seed=args.seed)
    print(f"adversary on intact protocol: best feasible B-error "
          f"{intact.best_error:.4f} (violation iff > 1/3: {intact.violation_found})")

    factor = max(50.0, 0.45 / (5.0 * P.alpha))
    attack = adversary_search(with_inflated_alpha(P, factor),
                              budget=max(40, args.restarts // 5), seed=args.seed)
    print(f"adversary on alpha*{factor:.0f} broken protocol: best B-error "
          f"{attack.best_error:.4f} (violation found: {attack.violation_found})")


if __name__ == "__main__":
    main()
