#!/usr/bin/env python3
"""End-to-end walkthrough of the compiled advice protocol.

Compiles the reference 1-advice-qubit instance against the exact
adversary, and prints the classical advice shape, honest completeness
numbers, the exact conditional soundness bound over the compiled class,
and the exact worst case over all one-qubit advice on the intact and
deliberately broken protocols with its witness registers, one per
distinct slot.

Usage: python scripts/demo_quantum_protocol.py [--seed 7]
"""

import argparse

from majcert.protocol import (adversary_search, conditional_soundness_bound,
                              machine_b_error, verifier_A, with_inflated_alpha)
from majcert.suites import build_standard_protocol, inflation_factor


def print_witness(P, result) -> None:
    """The search's one-qubit registers, one per distinct slot, as Bloch vectors."""
    for (count, (_, targets)), state in zip(P.slots.groups(), result.registers.distinct):
        (a, b), (_, d) = state.entries
        print(f"  slot {[z for z, _ in targets]} x{count}: Bloch vector "
              f"({2 * b.real:+.3f}, {-2 * b.imag:+.3f}, {(a - d).real:+.3f})")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    P = build_standard_protocol(eps=0.1, seed=args.seed)
    print(f"compiled protocol: m={P.m} registers of {P.advice_qubits} qubit(s), "
          f"alpha={P.alpha:.3e}, class size {len(P.compiled_class)}")
    for count, (_, targets) in P.slots.groups():
        print(f"  slot constraint set {[z for z, _ in targets]} used by {count} registers")

    honest = P.honest_registers()
    print(f"honest verifier deviation: {verifier_A(P, honest):.3e} "
          f"(threshold 5*alpha = {5 * P.alpha:.3e})")
    print(f"honest machine-B error:   {machine_b_error(P, honest):.4f} (<= 0.3)")
    print(f"conditional soundness bound over the compiled class: "
          f"{conditional_soundness_bound(P):.4f} (exact)")

    intact = adversary_search(P)
    print(f"worst accepted advice on intact protocol: B-error "
          f"{intact.best_error:.4f} (sound iff <= 1/3: {intact.best_error <= 1 / 3})")
    print_witness(P, intact)

    factor = inflation_factor(P)
    attack = adversary_search(with_inflated_alpha(P, factor))
    print(f"worst accepted advice on alpha*{factor:.0f} broken protocol: B-error "
          f"{attack.best_error:.4f} (sound iff <= 1/3: {attack.best_error <= 1 / 3})")
    print_witness(P, attack)

if __name__ == "__main__":
    main()
