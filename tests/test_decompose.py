"""Decompositions: Boolean majority, robust margins, untrusted oracle,
real-valued slots, and the Occam sample check."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from majcert.concepts import (BooleanFunction, Certificate, ConceptClass,
                              Distribution, InputDomain, PConceptClass,
                              RealFunction, Slots, dist_inf, distance_expected,
                              pointwise_majority)
from majcert.decompose import (FAIL, MajorityDecomposition, RealDecomposition,
                               RobustDecomposition, _far_members, _occam_holds,
                               find_valid_sample_size, majority_certificates,
                               occam_check, real_majority_certificates,
                               robust_majority_certificates, schedule_start,
                               smallest_odd_at_least, untrusted_oracle_evaluate,
                               verify_real_decomposition)
from majcert.errors import RejectedInputError, RetriesExhausted, VerificationDefect
from majcert.generators import (point_function_class, random_boolean_class,
                                random_pconcept_class)
from majcert.rng import substream


def real_fn(domain, values):
    return RealFunction(domain, np.array(values, dtype=np.float64))


def test_smallest_odd():
    assert smallest_odd_at_least(0) == 1
    assert smallest_odd_at_least(1) == 1
    assert smallest_odd_at_least(120) == 121
    assert smallest_odd_at_least(121) == 121


# ---------------------------------------------------------------------------
# Boolean majority decompositions
# ---------------------------------------------------------------------------

def test_majority_singleton_class():
    domain = InputDomain(3)
    f = BooleanFunction.from_values(domain, [1, 0, 0, 1, 1, 0, 1, 0])
    S = ConceptClass(domain, [f])
    dec = majority_certificates(S, f, seed=0)
    assert dec.m == 1
    assert dec.max_certificate_size() == 0
    dec.validate(S)


def test_majority_point_class_n6():
    S = point_function_class(6)
    dec = majority_certificates(S, S[0], seed=7)
    dec.validate(S)
    assert dec.majority().bits == 0
    assert dec.m == 121


def test_majority_hand_witness_three_points():
    domain = InputDomain(6)
    for triple in ((0, 1, 2), (5, 17, 40), (61, 62, 63)):
        fs = [BooleanFunction.point(domain, y) for y in triple]
        assert pointwise_majority(fs).bits == 0


@given(st.integers(0, 25))
def test_majority_random_classes(salt):
    rng = substream(salt, 10)
    n = int(rng.integers(2, 6))
    limit = min(32, 1 << (1 << n))
    S = random_boolean_class(n, int(rng.integers(2, limit + 1)), rng)
    f_star = S[int(rng.integers(len(S)))]
    dec = majority_certificates(S, f_star, seed=salt)
    dec.validate(S)
    assert dec.m <= 20 * n + 1
    assert dec.max_certificate_size() <= 4 * math.ceil(math.log2(len(S)) + 1e-12) + 4


def test_majority_decomposition_type_invariants():
    domain = InputDomain(2)
    f = BooleanFunction.zero(domain)
    with pytest.raises(RejectedInputError):
        MajorityDecomposition(target=f, slots=Slots(((Certificate.empty(domain), f),),
                                                    (0, 0)))
    dec = MajorityDecomposition(target=f, slots=Slots(((Certificate.empty(domain), f),),
                                                      (0,)))
    S = ConceptClass(domain, [f, BooleanFunction.point(domain, 0)])
    with pytest.raises(VerificationDefect):
        dec.validate(S)  # empty certificate does not isolate in a 2-class


def test_slot_bound_per_kind():
    S = point_function_class(6, 48)
    assert MajorityDecomposition.slot_bound(S) == 121
    assert RobustDecomposition.slot_bound(S) == 361
    singleton = ConceptClass(S.domain, [S[0]])
    assert MajorityDecomposition.slot_bound(singleton) == 1
    assert RobustDecomposition.slot_bound(singleton) == 1


def test_sampler_gives_up_at_the_slot_bound(monkeypatch):
    # when every draw at the bound fails, the sampler raises instead of
    # widening to a decomposition the suite check would reject
    S = point_function_class(6, 48)
    widths = []
    check = MajorityDecomposition.target_defect

    def failing_within_bound(dec):
        widths.append(dec.m)
        return "forced failure" if dec.m <= 121 else check(dec)

    monkeypatch.setattr(MajorityDecomposition, "target_defect", failing_within_bound)
    with pytest.raises(RetriesExhausted):
        majority_certificates(S, S[0], seed=1)
    assert widths == [121] * 64


# ---------------------------------------------------------------------------
# Robust decompositions and the untrusted oracle
# ---------------------------------------------------------------------------

def test_robust_singleton_margins_trivial():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [1, 1, 0, 0])
    S = ConceptClass(domain, [f])
    dec = robust_majority_certificates(S, f, seed=0)
    assert dec.m == 1
    dec.validate(S)


def test_robust_point_class_margins():
    S = point_function_class(6)
    dec = robust_majority_certificates(S, S[0], seed=3)
    dec.validate(S)
    sums = dec.slot_sums()
    star = dec.target.values()
    for x in S.domain.inputs():
        if star[x] == 1:
            assert sums[x] >= dec.upper_threshold
        else:
            assert sums[x] <= dec.lower_threshold
    hist = dec.margin_histogram()
    assert sum(hist.values()) == S.domain.size


@given(st.integers(0, 10))
def test_robust_random_classes(salt):
    rng = substream(salt, 12)
    n = int(rng.integers(2, 4))
    limit = min(12, 1 << (1 << n))
    S = random_boolean_class(n, int(rng.integers(2, limit + 1)), rng)
    f_star = S[int(rng.integers(len(S)))]
    dec = robust_majority_certificates(S, f_star, seed=salt)
    dec.validate(S)
    hist = dec.margin_histogram()
    assert sum(hist.values()) == S.domain.size
    assert dec.m <= 60 * n + 1


def manual_robust_point_instance(n=2, points=(0, 1, 2)):
    """|S| = 4 class with a hand-built m = 3 robust decomposition."""
    domain = InputDomain(n)
    zero = BooleanFunction.zero(domain)
    funcs = tuple(BooleanFunction.point(domain, y) for y in points)
    S = ConceptClass(domain, [zero, *funcs])
    certs = tuple(Certificate.of(domain, {y: 1}) for y in points)
    dec = RobustDecomposition(target=zero, slots=Slots(tuple(zip(certs, funcs)), (0, 1, 2)))
    dec.validate(S)
    return S, dec


def slot_funcs(dec):
    return [f for _, f in dec.slots]


def test_untrusted_oracle_honest_and_flip():
    S, dec = manual_robust_point_instance()
    for x in S.domain.inputs():
        assert untrusted_oracle_evaluate(dec, slot_funcs(dec), x) == dec.target(x)
    claims = slot_funcs(dec)
    claims[1] = BooleanFunction.zero(S.domain)  # breaks cert point 1 -> 1
    assert untrusted_oracle_evaluate(dec, claims, 0) == FAIL


def test_untrusted_oracle_exhaustive_adversary():
    S, dec = manual_robust_point_instance()
    wrong = 0
    fails = 0
    for claims in itertools.product(S.members, repeat=dec.m):
        for x in S.domain.inputs():
            out = untrusted_oracle_evaluate(dec, list(claims), x)
            if out == FAIL:
                fails += 1
            else:
                assert out == dec.target(x), "oracle produced the wrong bit"
        if any(not c.consistent(claim) for (c, _), claim in zip(dec.slots, claims)):
            assert untrusted_oracle_evaluate(dec, list(claims), 0) == FAIL
    assert fails > 0  # adversarial tuples do exist


def test_untrusted_oracle_shifted_target():
    # exercise the sum >= 2m/3 side by xor-shifting the whole instance
    S, dec = manual_robust_point_instance()
    h = BooleanFunction.from_values(S.domain, [1, 0, 1, 1])
    def shift(g):
        return BooleanFunction(S.domain, g.bits ^ h.bits)

    def shift_slot(slot):
        cert, g = slot
        return Certificate(S.domain, cert.mask, cert.value ^ (h.bits & cert.mask)), shift(g)

    shifted_class = ConceptClass(S.domain, [shift(g) for g in S])
    shifted = RobustDecomposition(target=shift(dec.target), slots=dec.slots.map(shift_slot))
    shifted.validate(shifted_class)
    for x in S.domain.inputs():
        assert untrusted_oracle_evaluate(shifted, slot_funcs(shifted), x) == shifted.target(x)


def test_untrusted_oracle_arity_check():
    _, dec = manual_robust_point_instance()
    with pytest.raises(RejectedInputError):
        untrusted_oracle_evaluate(dec, slot_funcs(dec)[:2], 0)


# ---------------------------------------------------------------------------
# verify_real_decomposition
# ---------------------------------------------------------------------------

def test_verify_trivial_full_constraints():
    domain = InputDomain(2)
    f = real_fn(domain, [0.2, 0.8, 0.5, 0.1])
    S = PConceptClass(domain, [f, real_fn(domain, [0.9, 0.1, 0.2, 0.6])])
    dec = RealDecomposition(target=f, slots=Slots(((f, frozenset(domain.inputs())),), (0,)),
                            alpha=0.0, eps=0.0)
    assert verify_real_decomposition(S, dec)


def test_verify_detects_loose_alpha():
    domain = InputDomain(2)
    f = real_fn(domain, [0.2, 0.8, 0.5, 0.1])
    far = real_fn(domain, [0.9, 0.1, 0.2, 0.6])
    S = PConceptClass(domain, [f, far])
    # with no constraint points every member is admissible, so the
    # envelope spans both functions and exceeds eps
    dec = RealDecomposition(target=f, slots=Slots(((f, frozenset()),), (0,)),
                            alpha=1.0, eps=0.1)
    assert not verify_real_decomposition(S, dec)


def test_verify_inflated_alpha_on_random_class():
    S = random_pconcept_class(3, 25, substream(41, 0))
    dec = real_majority_certificates(S, S[0], eps=0.25, seed=11)
    assert verify_real_decomposition(S, dec)
    loose = RealDecomposition(target=dec.target, slots=dec.slots,
                              alpha=dec.alpha * 100.0 + 0.3, eps=dec.eps)
    assert not verify_real_decomposition(S, loose)


def test_verify_extremal_bound_dominates_sampled_adversaries():
    rng = substream(43, 0)
    S = random_pconcept_class(2, 12, rng)
    dec = real_majority_certificates(S, S[0], eps=0.3, seed=17)
    V = S.value_matrix()
    admissible = []
    for f_j, X_j in dec.slots.distinct:
        xs = sorted(X_j)
        if xs:
            mask = np.max(np.abs(V[:, xs] - f_j.table[xs][None, :]), axis=1) <= dec.alpha
        else:
            mask = np.ones(len(S), dtype=bool)
        admissible.append(np.nonzero(mask)[0])
    counts = dec.slots.counts()
    lo = counts @ np.array([V[idx].min(axis=0) for idx in admissible]) / dec.m
    hi = counts @ np.array([V[idx].max(axis=0) for idx in admissible]) / dec.m
    envelope = np.maximum(np.abs(dec.target.table - hi),
                          np.abs(dec.target.table - lo))
    adversaries = 10_000
    total = np.zeros((adversaries, S.domain.size))
    for j in dec.slots.refs:
        idx = admissible[j]
        total += V[idx[rng.integers(len(idx), size=adversaries)]]
    avg = total / dec.m
    assert np.all(np.abs(dec.target.table - avg) <= envelope + 1e-12)


def test_verify_fails_on_empty_slot():
    domain = InputDomain(1)
    f = real_fn(domain, [0.0, 0.0])
    g = real_fn(domain, [1.0, 1.0])
    S = PConceptClass(domain, [f, g])
    ghost = real_fn(domain, [0.5, 0.5])
    dec = RealDecomposition(target=f, slots=Slots(((ghost, frozenset({0})),), (0,)),
                            alpha=0.01, eps=1.0)
    assert not verify_real_decomposition(S, dec)


# ---------------------------------------------------------------------------
# real majority certificates
# ---------------------------------------------------------------------------

def test_real_singleton():
    domain = InputDomain(2)
    f = real_fn(domain, [0.2, 0.4, 0.6, 0.8])
    S = PConceptClass(domain, [f])
    dec = real_majority_certificates(S, f, eps=0.25, seed=0)
    assert dec.m == 1
    assert verify_real_decomposition(S, dec)


@given(st.integers(0, 3))
def test_real_random_classes_verify(salt):
    S = random_pconcept_class(3, 40, substream(salt, 11))
    f_star = S[salt % len(S)]
    dec = real_majority_certificates(S, f_star, eps=0.25, seed=salt)
    assert verify_real_decomposition(S, dec)
    assert dec.m == math.ceil(20 * 3 / 0.25 ** 2)


def test_real_alpha_matches_schedule():
    S = random_pconcept_class(3, 40, substream(2, 11))
    dec = real_majority_certificates(S, S[0], eps=0.25, seed=2)
    beta = 0.25 / 48.0
    assert dec.alpha == pytest.approx(0.4 * beta / dec.realized_t, abs=1e-15)


def test_real_clustered_class_multi_slot():
    # clusters around distinct centers force a mixed Alice strategy
    rng = substream(55, 0)
    domain = InputDomain(3)
    members = []
    for _ in range(4):
        center = rng.uniform(0.25, 0.75, size=domain.size)
        for _ in range(6):
            members.append(RealFunction(
                domain, np.clip(center + rng.uniform(-0.02, 0.02, domain.size), 0, 1)))
    S = PConceptClass(domain, members)
    dec = real_majority_certificates(S, S[0], eps=0.2, seed=5)
    assert verify_real_decomposition(S, dec)


def test_real_requires_membership():
    domain = InputDomain(2)
    S = PConceptClass(domain, [real_fn(domain, [0.1, 0.2, 0.3, 0.4])])
    with pytest.raises(RejectedInputError):
        real_majority_certificates(S, real_fn(domain, [0.9, 0.9, 0.9, 0.9]),
                                   eps=0.25)


# ---------------------------------------------------------------------------
# occam machinery
# ---------------------------------------------------------------------------

def test_occam_full_domain_sample_passes():
    S = random_pconcept_class(2, 10, substream(61, 0))
    D = Distribution.uniform(S.domain)
    rate = occam_check(S, S[0], D, eps=0.1, m=256, trials=20, seed=1)
    assert rate == pytest.approx(1.0)


def test_occam_zero_sample_degenerate():
    domain = InputDomain(1)
    f = real_fn(domain, [0.5, 0.5])
    near = real_fn(domain, [0.6, 0.6])   # D-mean distance 0.1
    far = real_fn(domain, [1.0, 1.0])    # D-mean distance 0.5
    D = Distribution.uniform(domain)
    # with X empty every hypothesis satisfies the sup condition, so the
    # implication holds iff every member is 11*eps-close in D-mean
    close = PConceptClass(domain, [f, near])
    assert occam_check(close, f, D, eps=0.02, m=0, trials=5, seed=0) == pytest.approx(1.0)
    mixed = PConceptClass(domain, [f, far])
    assert occam_check(mixed, f, D, eps=0.02, m=0, trials=5, seed=0) == pytest.approx(0.0)
    assert occam_check(mixed, f, D, eps=0.1, m=0, trials=5, seed=0) == pytest.approx(1.0)


def test_occam_implication_checker():
    domain = InputDomain(1)
    f = real_fn(domain, [0.5, 0.5])
    far = real_fn(domain, [1.0, 0.5])
    S = PConceptClass(domain, [f, far])
    D = Distribution.point_mass(domain, 0)
    far = _far_members(S, f, D, 0.02)
    for X, holds in (({1}, False), ({0}, True), (set(), False)):
        assert _occam_holds(S.value_matrix(), far, f, 0.02, X) == holds
        assert naive_occam_holds(S, f, D, 0.02, X) == holds


def naive_occam_holds(S, f, D, eps, X):
    """The implication member by member: no h in S is eps-close to f in
    sup-norm on X yet more than 11*eps from f in D-weighted L1."""
    return all(not (dist_inf(h, f, X) <= eps and distance_expected(h, f, D) > 11.0 * eps)
               for h in S)


def planted_occam_instance():
    """A random class whose first member f is 0 at input 5, plus a member
    equal to f except that it is 1 there.  D weights input 5 by 0.12, so
    at eps = 0.01 a sample that misses input 5 fails the implication."""
    S = random_pconcept_class(3, 25, substream(82, 0))
    low, high = S[0].table.copy(), S[0].table.copy()
    low[5], high[5] = 0.0, 1.0
    weights = np.full(8, 0.88 / 7)
    weights[5] = 0.12
    members = [RealFunction(S.domain, low), *list(S)[1:], RealFunction(S.domain, high)]
    return PConceptClass(S.domain, members), Distribution.from_weights(S.domain, weights)


def test_occam_check_matches_per_member_definition():
    S, D = planted_occam_instance()
    for eps, m in ((0.01, 1), (0.01, 4), (0.02, 1), (0.03, 2)):
        expected = sum(naive_occam_holds(S, S[0], D, eps,
                                         {int(x) for x in D.sample(substream(9, 5, t), m)})
                       for t in range(40))
        assert occam_check(S, S[0], D, eps=eps, m=m, trials=40, seed=9) == expected / 40
        assert 0 < expected < 40


def test_find_valid_sample_size_matches_per_member_definition():
    S, D = planted_occam_instance()
    sizes = []
    for seed in range(6):
        M, Y = find_valid_sample_size(S, S[0], D, beta=0.01, seed=seed, start=1)
        draws = [(1 << doubling, frozenset(int(x) for x in D.sample(
                      substream(seed, 6, doubling, r), 1 << doubling)))
                 for doubling in range(6) for r in range(8)]
        expected = next(d for d in draws if naive_occam_holds(S, S[0], D, 0.01, d[1]))
        assert (M, Y) == expected
        sizes.append(M)
    assert max(sizes) > 1  # some seed needed a doubling


def test_schedule_and_sample_size():
    S = random_pconcept_class(2, 12, substream(71, 0))
    D = Distribution.uniform(S.domain)
    M, Y = find_valid_sample_size(S, S[0], D, beta=0.1, seed=4)
    assert schedule_start(12, 0.1) == schedule_start(8, 0.1) == 4 * 3 * 6 + 8
    assert schedule_start(1, 0.1) == schedule_start(2, 0.1) == 4 * 1 * 6 + 8
    assert M >= schedule_start(len(S), 0.1)
    assert naive_occam_holds(S, S[0], D, 0.1, Y)


def test_occam_rate_at_schedule_size():
    rng = substream(81, 0)
    S = random_pconcept_class(3, 25, rng)
    D = Distribution.from_weights(S.domain, rng.uniform(0.05, 1.0, S.domain.size))
    M, _ = find_valid_sample_size(S, S[0], D, beta=0.1, seed=9)
    assert M >= schedule_start(len(S), 0.1)
    rate = occam_check(S, S[0], D, eps=0.1, m=M, trials=40, seed=9)
    assert rate >= 0.5
