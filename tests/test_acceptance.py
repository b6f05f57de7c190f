"""Acceptance gate: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  Each criterion carries its runtime budget; a
criterion that cannot meet its bound fails here rather than being
loosened.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from majcert.concepts import (BooleanFunction, ConceptClass, Distribution,
                              InputDomain, PConceptClass, dist_inf,
                              dist_two, pointwise_majority, real_members)
from majcert.decompose import (FAIL, find_valid_sample_size,
                               majority_certificates, occam_check,
                               untrusted_oracle_evaluate,
                               verify_real_decomposition)
from majcert.games import (double_oracle_solve, k_isolatable_members,
                           solve_game_full_lp)
from majcert.generators import (point_function_class, random_boolean_class,
                                random_pconcept_class)
from majcert.protocol import (adversary_search, conditional_soundness_bound,
                              machine_b_error, qma_plus_amplify, verifier_A,
                              with_inflated_alpha)
from majcert.qsim import Circuit, DensityMatrix, Gate
from majcert.rng import substream
from majcert.suites import build_standard_protocol, child_seed
from majcert.winnow import (ceil_log, epsilon_cover, fat_shattering_dim,
                            l1_winnow, safe_winnow, vc_dim)
from references import dist_one

SEED = 20250809


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {criterion:2d}] {status}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def compiled_protocol_fixture():
    """Criterion 9/10 share one compiled protocol; build time counts
    toward criterion 9's budget."""
    started = time.monotonic()
    protocol = build_standard_protocol(eps=0.1, seed=SEED)
    return protocol, time.monotonic() - started


def test_criterion_01_point_class_reproduction():
    started = time.monotonic()
    rng = substream(SEED, 1)
    count = int(rng.integers(16, 65))
    S = point_function_class(6, count, rng)
    zero = S[0]
    assert zero.bits == 0

    dec = majority_certificates(S, zero)
    dec.validate(S)
    maj_ok = pointwise_majority([f for _, f in dec.slots]).bits == 0
    bound = ceil_log(len(S), 10, 9) + ceil_log(len(S), 2)
    max_size = max(cert.size for cert, _ in dec.slots.distinct)
    size_ok = max_size <= bound

    # hand witness, exact and exhaustive: the majority of three distinct
    # point functions is 1 at x iff two of them equal 1 at x, i.e. iff
    # two point masks overlap; distinct points never do
    points = [f for f in S.members[1:]]
    pairwise_disjoint = all(points[i].bits & points[j].bits == 0
                            for i in range(len(points))
                            for j in range(i + 1, len(points)))
    sampled_triples_ok = True
    for _ in range(200):
        picks = rng.choice(len(points), size=3, replace=False)
        triple = [points[int(i)] for i in picks]
        if pointwise_majority(triple).bits != 0:
            sampled_triples_ok = False
            break

    elapsed = time.monotonic() - started
    report(1, maj_ok and size_ok and pairwise_disjoint and sampled_triples_ok
           and elapsed < 1.0,
           f"|S|={len(S)}, max|C|={max_size}<= {bound}, "
           f"{elapsed:.2f}s < 1s")


def test_criterion_02_boolean_decomposition_sweep():
    started = time.monotonic()
    failures = 0
    max_cert_ratio = 0.0
    for i in range(100):
        inst_seed = child_seed(SEED, 2, i)
        rng = substream(inst_seed, 0)
        n = int(rng.integers(2, 9))
        cap = min(256, 1 << min(1 << n, 16))
        S = random_boolean_class(n, int(rng.integers(2, cap + 1)), rng)
        f_star = S[int(rng.integers(len(S)))]
        dec = majority_certificates(S, f_star)
        try:
            dec.validate(S)
        except Exception:
            failures += 1
            continue
        if dec.m > 20 * n + 1:
            failures += 1
        limit = 4 * max(1, math.ceil(math.log2(len(S))))
        max_size = max(cert.size for cert, _ in dec.slots.distinct)
        if max_size > limit:
            failures += 1
        if len(S) > 1:
            max_cert_ratio = max(max_cert_ratio, max_size / math.ceil(math.log2(len(S))))
    elapsed = time.monotonic() - started
    report(2, failures == 0 and elapsed < 60.0,
           f"100 classes, max |C|/ceil(log2|S|) = {max_cert_ratio:.2f} <= 4, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_03_game_solver_equivalence():
    started = time.monotonic()
    worst_gap = 0.0
    for i in range(20):
        inst_seed = child_seed(SEED, 3, i)
        rng = substream(inst_seed, 0)
        for _ in range(200):
            n = int(rng.integers(2, 5))
            size = int(rng.integers(2, 17))
            S = random_boolean_class(n, size, rng)
            if len(k_isolatable_members(S, 4)) == len(S):
                break
        f_star = S[int(rng.integers(len(S)))]
        full = solve_game_full_lp(S, f_star, k=4)
        oracle = double_oracle_solve(S, f_star)
        worst_gap = max(worst_gap, abs(full.game_value - oracle.game_value))
    elapsed = time.monotonic() - started
    report(3, worst_gap <= 1e-6 and elapsed < 30.0,
           f"max |v_full - v_oracle| = {worst_gap:.2e} <= 1e-6, {elapsed:.1f}s < 30s")


def test_criterion_04_safe_winnowing():
    started = time.monotonic()
    ok = True
    for i in range(50):
        inst_seed = child_seed(SEED, 4, i)
        rng = substream(inst_seed, 0)
        eps = 0.1
        S = random_pconcept_class(3, 20, rng)
        f_star = S[int(rng.integers(len(S)))]
        Y = frozenset(int(x) for x in rng.choice(S.domain.size, size=2, replace=False))
        cover = epsilon_cover(S, eps)
        result = safe_winnow(S, f_star, Y, eps, cover)
        delta = eps / (5.0 * max(cover.k, 1.0))
        for g in S:
            if dist_inf(result.f, g, Y | result.Z) <= delta \
                    and dist_inf(result.f, g) > 3.0 * eps:
                ok = False
        if dist_inf(result.f, f_star, Y) > eps / 5.0:
            ok = False
        if len(result.Z) > cover.k + 1e-12:
            ok = False
    elapsed = time.monotonic() - started
    report(4, ok and elapsed < 30.0, f"50 instances, {elapsed:.1f}s < 30s")


def test_criterion_05_l1_winnowing():
    started = time.monotonic()
    ok = True
    for i in range(50):
        inst_seed = child_seed(SEED, 5, i)
        rng = substream(inst_seed, 0)
        eps = 0.1
        S = random_pconcept_class(3, 30, rng)
        cover = epsilon_cover(S, eps)
        result = l1_winnow(S, eps, cover)
        log = result.progress_log
        if not all(log[j + 1] < (1.0 - eps / 20.0) * log[j] for j in range(len(log) - 1)):
            ok = False
        for g in S:
            if dist_one(result.f, g, result.X) <= 0.4 * eps \
                    and dist_inf(result.f, g) > 2.0 * eps:
                ok = False
        if len(result.X) > 40.0 * math.log(max(len(cover.cover), 1)) / eps:
            ok = False
    elapsed = time.monotonic() - started
    report(5, ok and elapsed < 30.0, f"50 instances, {elapsed:.1f}s < 30s")


def test_criterion_06_l2_impossibility():
    from majcert.winnow import L2Family
    started = time.monotonic()
    ok = True
    checked = 0
    for n in (2, 3, 4):
        family = L2Family(n)
        rng = substream(SEED, 6, n)
        members = (list(family.enumerate_class()) if n <= 3
                   else [family.sample_member(rng) for _ in range(25)])
        tested = 0
        guard = 0
        while tested < 100 and guard < 2000:
            guard += 1
            f = members[int(rng.integers(len(members)))]
            x_size = int(rng.integers(0, family.domain.size))
            X = frozenset(int(x) for x in rng.choice(family.domain.size,
                                                     size=x_size, replace=False))
            if not any(x not in X and f(x) == 0.0 for x in family.domain.inputs()):
                continue
            g = family.corrupt(f, X)
            overlap = sum(1 for x in X if g(x) < f(x))
            if dist_inf(f, g) != 1.0:
                ok = False
            if overlap > n:
                ok = False
            if abs(dist_two(f, g, X) - math.sqrt(overlap) / n) > 1e-12:
                ok = False
            if dist_two(f, g, X) > 1.0 / math.sqrt(n) + 1e-12:
                ok = False
            tested += 1
        checked += tested
    elapsed = time.monotonic() - started
    report(6, ok and checked == 300 and elapsed < 10.0,
           f"{checked} corruptions exact, {elapsed:.1f}s < 10s")


def test_criterion_07_dimension_identities():
    started = time.monotonic()
    ok = True
    for i in range(100):
        inst_seed = child_seed(SEED, 7, i)
        rng = substream(inst_seed, 0)
        n = int(rng.integers(2, 5))
        cap = min(16, 1 << min(1 << n, 16))
        S = random_boolean_class(n, int(rng.integers(2, cap + 1)), rng)
        v = vc_dim(S)
        if v > math.log2(len(S)) + 1e-12:
            ok = False
        P = PConceptClass(S.domain, real_members(S.domain, S.value_matrix()))
        if fat_shattering_dim(P, 0.25) != v:
            ok = False
    for i in range(20):
        rng = substream(child_seed(SEED, 7, 1000 + i), 0)
        S = random_pconcept_class(2, 8, rng)
        dims = [fat_shattering_dim(S, g) for g in (0.1, 0.2, 0.3, 0.4)]
        if not all(dims[j] >= dims[j + 1] for j in range(len(dims) - 1)):
            ok = False
    elapsed = time.monotonic() - started
    report(7, ok and elapsed < 60.0,
           f"100 Boolean + 20 p-concept classes, {elapsed:.1f}s < 60s")


def test_criterion_08_occam_pass_rate():
    started = time.monotonic()
    rates = []
    for i in range(10):
        inst_seed = child_seed(SEED, 8, i)
        rng = substream(inst_seed, 0)
        eps = 0.1
        S = random_pconcept_class(3, 25, rng)
        f = S[0]
        D = Distribution.from_weights(S.domain, rng.uniform(0.05, 1.0, S.domain.size))
        M, _ = find_valid_sample_size(S, f, D, eps, inst_seed)
        rates.append(occam_check(S, f, D, eps, M, trials=100, seed=inst_seed))
    elapsed = time.monotonic() - started
    report(8, all(r >= 0.5 for r in rates) and elapsed < 60.0,
           f"min rate {min(rates):.2f} >= 0.5, {elapsed:.1f}s < 60s")


def test_criterion_09_quantum_completeness(compiled_protocol_fixture):
    protocol, build_time = compiled_protocol_fixture
    started = time.monotonic()
    honest = protocol.honest_registers()
    deviation = verifier_A(protocol, honest)
    b_error = machine_b_error(protocol, honest)
    premise = max(abs(protocol.decomposition.target(z) - protocol.language(z))
                  for z in protocol.domain.inputs())
    elapsed = build_time + (time.monotonic() - started)
    report(9, deviation <= protocol.alpha and b_error <= 0.3 and premise <= 0.2
           and elapsed < 120.0,
           f"deviation {deviation:.2e} <= alpha {protocol.alpha:.2e}, "
           f"B-error {b_error:.3f} <= 0.3, {elapsed:.1f}s < 120s")


def test_criterion_10_quantum_soundness(compiled_protocol_fixture):
    protocol, _ = compiled_protocol_fixture
    started = time.monotonic()
    exact_ok = (verify_real_decomposition(protocol.compiled_class,
                                          protocol.decomposition)
                and conditional_soundness_bound(protocol) <= 0.3)
    intact = adversary_search(protocol)
    factor = max(50.0, 0.45 / (5.0 * protocol.alpha))
    broken = with_inflated_alpha(protocol, factor)
    attack = adversary_search(broken)
    elapsed = time.monotonic() - started
    report(10, exact_ok and intact.best_error <= 1.0 / 3.0 and attack.best_error > 1.0 / 3.0
           and elapsed < 600.0,
           f"bound {conditional_soundness_bound(protocol):.3f} <= 0.3, exact worst "
           f"{intact.best_error:.3f} <= 1/3, broken(x{factor:.0f}) "
           f"{attack.best_error:.3f} > 1/3, {elapsed:.1f}s < 600s")


def test_criterion_11_qma_plus_amplification():
    started = time.monotonic()
    circuit = Circuit(qubits=1, gates=(Gate("H", 0),), accept_qubit=0)
    q = Fraction(8)
    r = Fraction(1, 2)
    state = DensityMatrix.computational(1, 0)
    amp_ok = True
    for K in (8, 16, 32):
        acc = qma_plus_amplify(circuit, 0, r, q, K, [state] * K)
        floor = 1.0 - math.exp(-2.0 * K / float(q) ** 2)
        if acc < floor:
            amp_ok = False
    # K=1 hand arithmetic: both outcomes miss the 2/q window around 1/2
    single = qma_plus_amplify(circuit, 0, r, q, 1, [state])
    hand_ok = abs(single - 0.0) <= 1e-12
    single_loose = qma_plus_amplify(circuit, 0, Fraction(3, 4), q, 1, [state])
    hand_ok = hand_ok and abs(single_loose - 0.5) <= 1e-12
    elapsed = time.monotonic() - started
    report(11, amp_ok and hand_ok and elapsed < 5.0,
           f"acceptance above Chernoff floor for K in 8/16/32, {elapsed:.2f}s < 5s")


def test_criterion_12_untrusted_oracle_exhaustive():
    from majcert.concepts import Certificate, Slots
    from majcert.decompose import RobustDecomposition
    started = time.monotonic()
    domain = InputDomain(2)
    zero = BooleanFunction.zero(domain)
    funcs = tuple(BooleanFunction.point(domain, y) for y in (0, 1, 2))
    S = ConceptClass(domain, [zero, *funcs])
    certs = tuple(Certificate.of(domain, {y: 1}) for y in (0, 1, 2))
    dec = RobustDecomposition(target=zero, slots=Slots(tuple(zip(certs, funcs)), (0, 1, 2)))
    dec.validate(S)

    never_wrong = True
    inconsistent_always_fail = True
    for claims in itertools.product(S.members, repeat=3):
        consistent = all(c.consistent(claim) for c, claim in zip(certs, claims))
        table = untrusted_oracle_evaluate(dec, list(claims))
        for x in domain.inputs():
            out = FAIL if table == FAIL else table(x)
            if out not in (FAIL, zero(x)):
                never_wrong = False
            if not consistent and out != FAIL:
                inconsistent_always_fail = False
    elapsed = time.monotonic() - started
    report(12, never_wrong and inconsistent_always_fail and elapsed < 5.0,
           f"64 claim tuples x 4 inputs exhaustive, {elapsed:.2f}s < 5s")
