"""Core data model: distances, restriction, isolation, shifting, voting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from majcert import concepts
from majcert.concepts import (BooleanFunction, Certificate, ConceptClass,
                              Distribution, InputDomain, PConceptClass,
                              RealFunction, Slots, dist_inf, distance,
                              distance_expected, is_isolated,
                              pointwise_majority, restrict_class,
                              restricted_gaps)
from majcert.errors import DomainMismatchError, RejectedInputError
from references import constant, dist_one


def real_fn(domain, values):
    return RealFunction(domain, np.array(values, dtype=np.float64))


@st.composite
def real_pair_with_subset(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    domain = InputDomain(n)
    size = domain.size
    f = real_fn(domain, draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    g = real_fn(domain, draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    X = draw(st.sets(st.integers(0, size - 1)))
    return f, g, X


@st.composite
def boolean_class(draw, max_n=3, max_size=10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    domain = InputDomain(n)
    tables = draw(st.sets(st.integers(0, (1 << domain.size) - 1),
                          min_size=1, max_size=max_size))
    return ConceptClass(domain, [BooleanFunction(domain, b) for b in tables])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def naive_distance(metric, f, g, X):
    """Independent per-point loop oracle."""
    diffs = [abs(f(x) - g(x)) for x in X]
    if metric == "inf":
        return max(diffs) if diffs else 0.0
    if metric == "two":
        return math.sqrt(sum(d * d for d in diffs))
    return sum(diffs)


def test_distance_identity_is_zero():
    domain = InputDomain(2)
    f = real_fn(domain, [0.3, 0.8, 0.0, 1.0])
    assert distance("inf", f, f, domain.inputs()) == 0.0


def test_distance_constant_functions():
    domain = InputDomain(2)
    f = constant(domain, 0.0)
    g = constant(domain, 1.0)
    X = list(domain.inputs())
    assert distance("one", f, g, X) == 4.0
    assert distance("two", f, g, X) == 2.0
    assert distance("inf", f, g, X) == 1.0


def test_distance_empty_set_is_zero():
    domain = InputDomain(2)
    f = constant(domain, 0.0)
    g = constant(domain, 1.0)
    for metric in ("inf", "two", "one"):
        assert distance(metric, f, g, []) == 0.0


def test_distance_rejects_domain_mismatch():
    f = constant(InputDomain(2), 0.5)
    g = constant(InputDomain(3), 0.5)
    with pytest.raises(DomainMismatchError):
        distance("one", f, g, [0])


def test_distance_rejects_unknown_metric():
    f = constant(InputDomain(2), 0.5)
    with pytest.raises(RejectedInputError):
        distance("sup", f, f, [0])


@given(real_pair_with_subset())
def test_distance_matches_naive_oracle(data):
    f, g, X = data
    for metric in ("inf", "two", "one"):
        assert distance(metric, f, g, X) == pytest.approx(
            naive_distance(metric, f, g, X), abs=1e-12)


@given(real_pair_with_subset())
def test_norm_chain(data):
    f, g, X = data
    d_inf = distance("inf", f, g, X)
    d_two = distance("two", f, g, X)
    d_one = distance("one", f, g, X)
    tol = 1e-12
    assert d_inf <= d_two + tol
    assert d_two <= d_one + tol
    assert d_one <= len(X) * d_inf + tol
    assert d_two <= math.sqrt(len(X)) * d_inf + tol


@given(real_pair_with_subset(), st.integers(0, 10))
def test_metric_axioms(data, salt):
    f, g, X = data
    rng = np.random.default_rng(salt)
    h = real_fn(f.domain, rng.uniform(0, 1, size=f.domain.size))
    for metric in ("inf", "two", "one"):
        assert distance(metric, f, g, X) == pytest.approx(distance(metric, g, f, X))
        assert distance(metric, f, g, X) >= 0.0
        assert distance(metric, f, f, X) == 0.0
        assert (distance(metric, f, g, X)
                <= distance(metric, f, h, X) + distance(metric, h, g, X) + 1e-12)


def test_distance_expected_trivial_cases():
    domain = InputDomain(2)
    f = real_fn(domain, [0.1, 0.5, 0.9, 0.3])
    assert distance_expected(f, f, Distribution.uniform(domain)) == 0.0
    g = real_fn(domain, [0.6, 0.2, 0.9, 0.3])
    D = Distribution.point_mass(domain, 1)
    assert distance_expected(f, g, D) == pytest.approx(abs(0.5 - 0.2))


def test_distance_expected_uniform_indicator():
    domain = InputDomain(2)
    f = constant(domain, 0.0)
    g = real_fn(domain, [0, 0, 0, 1])
    assert distance_expected(f, g, Distribution.uniform(domain)) == pytest.approx(0.25)


@st.composite
def real_class_with_subset(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    domain = InputDomain(n)
    size = domain.size
    tables = draw(st.lists(st.lists(st.floats(0, 1), min_size=size, max_size=size),
                           min_size=1, max_size=6))
    S = PConceptClass(domain, [real_fn(domain, t) for t in tables])
    f = real_fn(domain, draw(st.lists(st.floats(0, 1), min_size=size, max_size=size)))
    return S, f, sorted(draw(st.sets(st.integers(0, size - 1))))


@given(real_class_with_subset())
def test_restricted_gaps_equal_pairwise_distances(data):
    # exact equality: the routine must do the pairwise distances' arithmetic
    S, f, xs = data
    V = S.value_matrix()
    for metric, dist in (("inf", dist_inf), ("one", dist_one)):
        assert restricted_gaps(V, xs, f.table[xs], metric).tolist() == [dist(f, g, xs)
                                                                        for g in S]
        assert restricted_gaps(V, None, f.table, metric).tolist() == [dist(f, g) for g in S]


def test_restricted_gaps_on_wide_point_sets(rng):
    # past 128 points numpy sums in blocks; rows must still sum as dist_one does
    domain = InputDomain(8)
    S = PConceptClass(domain, [real_fn(domain, rng.uniform(0, 1, domain.size))
                               for _ in range(5)])
    f = S[2]
    for count in (7, 9, 130, 200, 256):
        xs = sorted(rng.choice(domain.size, size=count, replace=False).tolist())
        gaps = restricted_gaps(S.value_matrix(), xs, f.table[xs], "one")
        assert gaps.tolist() == [dist_one(f, g, xs) for g in S]


def test_restricted_gaps_empty_point_set_and_metric():
    domain = InputDomain(2)
    S = PConceptClass(domain, [real_fn(domain, [0.1, 0.5, 0.9, 0.3]),
                               constant(domain, 1.0)])
    for metric in ("inf", "one"):
        assert restricted_gaps(S.value_matrix(), [], np.zeros(0), metric).tolist() == [0.0, 0.0]
    with pytest.raises(RejectedInputError):
        restricted_gaps(S.value_matrix(), [0], np.zeros(1), "two")


# ---------------------------------------------------------------------------
# restriction / isolation
# ---------------------------------------------------------------------------

def point_class(n):
    domain = InputDomain(n)
    return ConceptClass(domain, [BooleanFunction.zero(domain)]
                        + [BooleanFunction.point(domain, y) for y in domain.inputs()])


def test_restrict_empty_certificate_returns_class():
    S = point_class(3)
    view = restrict_class(S, Certificate.empty(S.domain))
    assert list(view.members) == list(S.members)


def test_restrict_point_isolates_point_function():
    S = point_class(4)
    y = 11
    survivors = restrict_class(S, Certificate.of(S.domain, {y: 1}))
    assert len(survivors) == 1
    assert survivors[0].bits == BooleanFunction.point(S.domain, y).bits


def test_restrict_can_be_empty():
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction.zero(domain)])
    assert len(restrict_class(S, Certificate.of(domain, {1: 1}))) == 0


@given(boolean_class(), st.data())
def test_restrict_is_antitone(S, data):
    domain = S.domain
    big = data.draw(st.dictionaries(st.integers(0, domain.size - 1),
                                    st.integers(0, 1), max_size=4))
    kept = data.draw(st.sets(st.sampled_from(sorted(big))) if big else st.just(set()))
    small = {x: big[x] for x in kept}
    inner = restrict_class(S, Certificate.of(domain, big))
    outer = restrict_class(S, Certificate.of(domain, small))
    assert {f.bits for f in inner} <= {f.bits for f in outer}


def test_is_isolated_cases():
    S = point_class(3)
    f_y = BooleanFunction.point(S.domain, 5)
    assert is_isolated(S, Certificate.of(S.domain, {5: 1}), f_y)
    assert not is_isolated(S, Certificate.empty(S.domain), f_y)
    singleton = ConceptClass(S.domain, [f_y])
    assert is_isolated(singleton, Certificate.empty(S.domain), f_y)


def test_is_isolated_requires_membership():
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction.zero(domain)])
    with pytest.raises(RejectedInputError):
        is_isolated(S, Certificate.empty(domain), BooleanFunction.point(domain, 0))


# ---------------------------------------------------------------------------
# xor shift
# ---------------------------------------------------------------------------

def xor(f, g):
    return BooleanFunction(f.domain, f.bits ^ g.bits)


def xor_shifted(cert, f_star):
    """The certificate matched by g xor f_star whenever cert matches g."""
    return Certificate(cert.domain, cert.mask, cert.value ^ (f_star.bits & cert.mask))


@given(boolean_class())
def test_xor_shift_involution_and_invariants(S):
    # shifting by f_star twice is the identity; the zero function is kept
    # in the class so f_star stays a member of the shifted class
    S = ConceptClass(S.domain, [BooleanFunction.zero(S.domain), *S.members])
    f_star = S[len(S) // 2]
    shifted = ConceptClass(S.domain, (xor(g, f_star) for g in S))
    assert len(shifted) == len(S)
    assert [xor(f, f_star).bits for f in shifted] == [f.bits for f in S]
    # image of f_star is the zero function
    assert shifted[S.index_of(f_star)].bits == 0
    # pairwise Hamming distances preserved
    for i in range(len(S)):
        for j in range(i + 1, len(S)):
            assert (xor(S[i], S[j]).bits.bit_count()
                    == xor(shifted[i], shifted[j]).bits.bit_count())


def test_xor_shift_entrywise_oracle():
    # xor of packed tables is the pointwise xor of the values
    domain = InputDomain(2)
    f_star = BooleanFunction.from_values(domain, [1, 0, 1, 0])
    g = BooleanFunction.from_values(domain, [1, 1, 0, 0])
    assert [xor(f_star, f_star)(x) for x in domain.inputs()] == [0, 0, 0, 0]
    assert [xor(g, f_star)(x) for x in domain.inputs()] == [(g(x) ^ f_star(x))
                                                          for x in domain.inputs()]
    assert xor(g, f_star).values().tolist() == (g.values() ^ f_star.values()).tolist()


@given(boolean_class(), st.data())
def test_xor_shift_preserves_consistency_counts(S, data):
    domain = S.domain
    f_star = S[0]
    cert = Certificate.of(domain, data.draw(
        st.dictionaries(st.integers(0, domain.size - 1), st.integers(0, 1), max_size=3)))
    shifted_cert = xor_shifted(cert, f_star)
    before = sum(1 for f in S if cert.consistent(f))
    after = sum(1 for f in S if shifted_cert.consistent(xor(f, f_star)))
    assert before == after


# ---------------------------------------------------------------------------
# majority
# ---------------------------------------------------------------------------

def test_majority_single_function():
    f = BooleanFunction.from_values(InputDomain(2), [1, 0, 1, 1])
    assert pointwise_majority([f]).bits == f.bits


def test_majority_three_point_functions_is_zero():
    domain = InputDomain(3)
    fs = [BooleanFunction.point(domain, y) for y in (1, 4, 6)]
    assert pointwise_majority(fs).bits == 0


def test_majority_of_duplicates():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [1, 1, 0, 0])
    g = BooleanFunction.from_values(domain, [0, 0, 1, 1])
    assert pointwise_majority([f, f, g]).bits == f.bits


def test_majority_rejects_even_count():
    f = BooleanFunction.zero(InputDomain(1))
    with pytest.raises(RejectedInputError):
        pointwise_majority([f, f])
    with pytest.raises(RejectedInputError):
        pointwise_majority([])


@given(st.integers(1, 3), st.integers(0, 2 ** 10), st.integers(1, 3))
def test_majority_matches_counting_oracle(n, salt, half):
    m = 2 * half + 1
    domain = InputDomain(n)
    rng = np.random.default_rng(salt)
    fs = [BooleanFunction(domain, int(rng.integers(0, 1 << domain.size)))
          for _ in range(m)]
    maj = pointwise_majority(fs)
    for x in domain.inputs():
        count = sum(f(x) for f in fs)
        assert maj(x) == (1 if 2 * count > m else 0)


# ---------------------------------------------------------------------------
# type invariants
# ---------------------------------------------------------------------------

def test_domain_bounds():
    with pytest.raises(RejectedInputError):
        InputDomain(0)
    with pytest.raises(RejectedInputError):
        InputDomain(21)


def test_real_function_bounds():
    domain = InputDomain(1)
    with pytest.raises(RejectedInputError):
        RealFunction(domain, np.array([0.5, 1.5]))
    with pytest.raises(RejectedInputError):
        RealFunction(InputDomain(15), np.zeros(1 << 15))


entry = st.one_of(st.floats(-0.5, 1.5), st.just(math.nan), st.just(math.inf),
                  st.sampled_from([0.0, 1.0]))


@given(st.data())
def test_from_tables_equals_the_member_list_class(data):
    """The matrix builder accepts exactly the tables that RealFunction
    accepts one by one (equal lengths of 2^n finite entries in [0, 1]),
    and builds the class the member list builds: equal, with the same
    members, keys and indices in order, first occurrences kept, each
    member's table a read-only row of the value matrix."""
    domain = InputDomain(data.draw(st.integers(1, 3)))
    length = st.sampled_from([domain.size] * 5 + [1, domain.size + 1])
    tables = data.draw(st.lists(length.flatmap(lambda k: st.lists(entry, min_size=k, max_size=k)),
                                min_size=1, max_size=5))
    tables += data.draw(st.lists(st.sampled_from(tables), max_size=3))  # repeated rows
    try:
        expected = PConceptClass(domain, [RealFunction(domain, np.array(t)) for t in tables])
    except RejectedInputError:
        with pytest.raises(RejectedInputError):
            PConceptClass.from_tables(domain, tables)
        return
    S = PConceptClass.from_tables(domain, tables)
    assert S == expected and len(S) == len(expected)
    assert [f.key() for f in S] == [f.key() for f in expected]
    assert [S.index_of(f) for f in expected] == list(range(len(expected)))
    V = S.value_matrix()
    assert V.tolist() == expected.value_matrix().tolist() and not V.flags.writeable
    assert all(f.domain == domain and not f.table.flags.writeable
               and np.shares_memory(f.table, V) for f in S)


def test_from_tables_keeps_the_first_of_repeated_rows():
    domain = InputDomain(1)
    a, b, c = [0.25, 0.5], [0.5, 0.25], [1.0, 0.0]
    S = PConceptClass.from_tables(domain, [b, a, c, a, b])
    assert [f.table.tolist() for f in S] == [b, a, c]
    assert S.index_of(real_fn(domain, a)) == 1
    assert S.value_matrix().tolist() == [b, a, c] and not S.value_matrix().flags.writeable


def test_from_tables_matrix_is_the_validated_array(monkeypatch):
    """Without a repeated row the value matrix is the one read-only copy
    that validation made, never restacked from the members."""
    made = []

    def recorded(*args):
        made.append(real_tables(*args))
        return made[-1]

    real_tables = concepts._real_tables
    monkeypatch.setattr(concepts, "_real_tables", recorded)
    monkeypatch.setattr(PConceptClass, "_stack", lambda self: pytest.fail("restacked"))
    tables = np.array([[0.1, 0.9], [0.3, 0.4]])
    S = PConceptClass.from_tables(InputDomain(1), tables)
    assert S.value_matrix() is made[0] and not made[0].flags.writeable
    assert not np.shares_memory(made[0], tables)
    assert all(np.shares_memory(f.table, made[0]) for f in S)
    transposed = PConceptClass.from_tables(InputDomain(1), tables.T)  # a Fortran-ordered input
    assert [f.table.tolist() for f in transposed] == tables.T.tolist()


def test_take_shares_rows_and_rejects_bad_indices():
    domain = InputDomain(2)
    S = PConceptClass.from_tables(domain, [[i / 8, 0.5, 1 - i / 8, 0.0] for i in range(4)])
    T = S.take(np.array([2, 0]))
    assert T == PConceptClass(domain, [S[2], S[0]])
    assert T[0] is S[2] and T[1] is S[0] and T.index_of(S[2]) == 0 and S[1] not in T
    assert T <= S and S <= S and not S <= T
    assert T.value_matrix().tolist() == S.value_matrix()[[2, 0]].tolist()
    assert not T.value_matrix().flags.writeable
    assert all(np.shares_memory(f.table, S.value_matrix()) for f in T)
    for rows in ([0, 0], [4], [-1], []):
        with pytest.raises(RejectedInputError):
            S.take(rows)
    B = ConceptClass(domain, [BooleanFunction(domain, bits) for bits in (3, 5, 6)])
    assert B.take([2, 1]) == ConceptClass(domain, [B[2], B[1]]) and not B <= S


def test_real_tables_reject_nan_and_the_n_cap():
    domain = InputDomain(1)
    for tables in ([[0.5, math.nan]], [[0.5, 0.5], [0.5]], [[0.5, "a"]], np.zeros((0, 2))):
        with pytest.raises(RejectedInputError):
            PConceptClass.from_tables(domain, tables)
    with pytest.raises(RejectedInputError):
        RealFunction(domain, np.array([math.nan, 0.5]))
    with pytest.raises(RejectedInputError):
        PConceptClass.from_tables(InputDomain(15), np.zeros((1, 1 << 15)))


def test_certificate_validation():
    domain = InputDomain(2)
    cert = Certificate.of(domain, {3: 1, 0: 0})
    assert cert.size == 2
    assert cert.assignments == ((0, 0), (3, 1))
    with pytest.raises(RejectedInputError):
        Certificate.of(domain, {5: 1})
    with pytest.raises(RejectedInputError):
        Certificate.of(domain, {1: 2})
    with pytest.raises(RejectedInputError):
        cert.extended(3, 0)


def test_concept_class_dedup_and_order():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [1, 0, 0, 0])
    g = BooleanFunction.from_values(domain, [0, 1, 0, 0])
    S = ConceptClass(domain, [f, g, f])
    assert len(S) == 2
    assert S[0].bits == f.bits
    with pytest.raises(RejectedInputError):
        ConceptClass(domain, [])


def test_pconcept_dedup():
    domain = InputDomain(1)
    f = constant(domain, 0.5)
    S = PConceptClass(domain, [f, constant(domain, 0.5)])
    assert len(S) == 1


def test_distribution_validation():
    domain = InputDomain(2)
    with pytest.raises(RejectedInputError):
        Distribution(domain, np.array([0.5, 0.5, 0.1, 0.0]))
    with pytest.raises(RejectedInputError):
        Distribution(domain, np.array([-0.1, 0.6, 0.5, 0.0]))
    D = Distribution.from_weights(domain, np.array([2.0, 1.0, 1.0, 0.0]))
    assert D.weights[0] == pytest.approx(0.5)
    assert tuple(np.flatnonzero(D.weights)) == (0, 1, 2)


# ---------------------------------------------------------------------------
# packed certificates and classes
# ---------------------------------------------------------------------------

@given(boolean_class(), st.data())
def test_certificate_consistency_matches_per_input_definition(S, data):
    domain = S.domain
    pins = data.draw(st.dictionaries(st.integers(0, domain.size - 1), st.integers(0, 1),
                                     max_size=domain.size))
    cert = Certificate.of(domain, pins)
    assert cert.size == len(pins)
    assert cert.assignments == tuple(sorted(pins.items()))
    for f in S:
        assert cert.consistent(f) == all(f(x) == b for x, b in pins.items())


def test_certificate_of_rejects_bad_pairs():
    domain = InputDomain(2)
    assert Certificate.of(domain, [(2, 1), (0, 0)]).assignments == ((0, 0), (2, 1))
    for pairs in ([(1, 0), (1, 1)], [(1, 1), (1, 1)], [(4, 0)], [(-1, 0)], [(0, 2)]):
        with pytest.raises(RejectedInputError):
            Certificate.of(domain, pairs)


@given(boolean_class(), st.data())
def test_certificate_xor_shift_round_trips(S, data):
    domain = S.domain
    cert = Certificate.of(domain, data.draw(
        st.dictionaries(st.integers(0, domain.size - 1), st.integers(0, 1), max_size=4)))
    f_star = S[0]
    shifted = xor_shifted(cert, f_star)
    assert xor_shifted(shifted, f_star) == cert
    assert shifted.mask == cert.mask
    for g in S:
        assert shifted.consistent(xor(g, f_star)) == cert.consistent(g)


def test_value_matrix_is_built_once_and_read_only():
    S = point_class(3)
    V = S.value_matrix()
    assert V is S.value_matrix()
    assert not V.flags.writeable
    assert np.array_equal(V, np.stack([f.values() for f in S]))
    with pytest.raises(ValueError):
        V[0, 0] = 1
    domain = InputDomain(1)
    P = PConceptClass(domain, [constant(domain, c) for c in (0.2, 0.7)])
    W = P.value_matrix()
    assert W is P.value_matrix() and not W.flags.writeable
    assert W.tolist() == [[0.2, 0.2], [0.7, 0.7]]


def test_index_of_and_membership():
    S = point_class(2)
    for i, f in enumerate(S):
        assert f in S and S.index_of(BooleanFunction(S.domain, f.bits)) == i
    outside = BooleanFunction.from_values(S.domain, [1, 1, 0, 0])
    assert outside not in S
    with pytest.raises(RejectedInputError):
        S.index_of(outside)
    domain = InputDomain(1)
    members = [real_fn(domain, [0.1, 0.9]), real_fn(domain, [0.5, 0.5])]
    P = PConceptClass(domain, members + [real_fn(domain, [0.1, 0.9])])
    assert [P.index_of(real_fn(domain, f.table)) for f in members] == [0, 1]
    assert real_fn(domain, [0.5, 0.5]) in P
    assert real_fn(domain, [0.5, 0.25]) not in P
    with pytest.raises(RejectedInputError):
        P.index_of(real_fn(domain, [0.5, 0.25]))
    assert P == PConceptClass(domain, members)
    assert P != PConceptClass(domain, members[::-1])


# ---------------------------------------------------------------------------
# slot multisets
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(0, 9), max_size=40), st.integers(1, 4))
def test_slots_group_expands_counts_and_merges(items, width):
    slots = Slots.group(items)
    assert list(slots) == items
    assert len(slots) == len(items) and int(slots.counts().sum()) == len(items)
    assert [count for count, _ in slots.groups()] == [items.count(v) for v in slots.distinct]
    keyed = Slots.group(items, key=lambda v: v // width)
    for i, a in enumerate(items):
        for j, b in enumerate(items):
            assert (keyed.refs[i] == keyed.refs[j]) == (a // width == b // width)
    assert [v // width for v in keyed] == [v // width for v in items]
    assert list(keyed.map(lambda v: -v)) == [-v for v in keyed]


def naive_group(items, key):
    """(distinct, refs) by one pass: a new key opens a distinct slot."""
    index, distinct, refs = {}, [], []
    for item in items:
        if key(item) not in index:
            index[key(item)] = len(distinct)
            distinct.append(item)
        refs.append(index[key(item)])
    return tuple(distinct), tuple(refs)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=40))
def test_slots_group_equals_a_first_occurrence_loop(items):
    for key in (lambda v: v, lambda v: v[0]):
        slots = Slots.group(iter(items), key=key)
        assert (slots.distinct, slots.refs) == naive_group(items, key)
        assert all(type(r) is int for r in slots.refs)


@given(st.lists(st.integers(-1, 5), max_size=12), st.integers(0, 6))
def test_slots_refs_check_equals_a_running_maximum_loop(refs, distinct):
    top, valid = -1, True
    for r in refs:
        valid = valid and 0 <= r <= top + 1
        top = max(top, r)
    valid = valid and top + 1 == distinct
    if valid:
        assert Slots(range(distinct), refs).refs == tuple(refs)
    else:
        with pytest.raises(RejectedInputError):
            Slots(range(distinct), refs)


def test_slots_refs_must_number_distinct_slots_in_order():
    assert list(Slots(("a", "b"), (0, 1, 0))) == ["a", "b", "a"]
    for distinct, refs in ((("a", "b"), (1, 0)), (("a",), (0, 1)), (("a", "b"), (0, 0)),
                           (("a",), (-1,))):
        with pytest.raises(RejectedInputError):
            Slots(distinct, refs)
