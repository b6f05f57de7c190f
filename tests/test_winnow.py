"""Winnowing algorithms, covers, dimensions, and the L2 witness family."""

import gc
import hashlib
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from majcert import concepts
from majcert.concepts import (BooleanFunction, Certificate, ConceptClass,
                              Distribution, InputDomain, PConceptClass,
                              RealFunction, dist_inf, dist_two,
                              is_isolated, pairwise_gaps,
                              restricted_gaps)
from majcert.errors import (DimensionCapExceeded, EnumerationBudgetExceeded,
                            RejectedInputError)
from majcert.generators import (point_function_class, random_boolean_class,
                                random_pconcept_class)
from majcert import winnow
from majcert.rng import substream
from majcert.winnow import (_SEARCHES, CoverResult, L2Family, _dimension, _split_masks,
                            _witness_splits, binary_search_winnow, ceil_log, epsilon_cover,
                            fat_shattering_dim, isolate_member, l1_winnow,
                            safe_winnow, shared_searches, vc_dim, weak_certify)
from references import constant, dist_one


def real_fn(domain, values):
    return RealFunction(domain, np.array(values, dtype=np.float64))


def constants_grid(n, count):
    """Constant functions at ``count`` evenly spaced levels in [0, 1]."""
    domain = InputDomain(n)
    return PConceptClass(domain, [constant(domain, i / (count - 1))
                                  for i in range(count)])


# ---------------------------------------------------------------------------
# ceil_log
# ---------------------------------------------------------------------------

def test_ceil_log_exact_values():
    assert ceil_log(1, 2) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(9, 2) == 4
    assert ceil_log(16, 2) == 4
    # smallest t with (10/9)^t >= 9: (10/9)^20 = 8.22..., (10/9)^21 = 9.13...
    assert ceil_log(9, 10, 9) == 21


# ---------------------------------------------------------------------------
# binary search winnowing
# ---------------------------------------------------------------------------

def test_binary_search_singleton():
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction.point(domain, 2)])
    row, pins = binary_search_winnow(S.value_matrix())
    assert row == 0 and pins == []


def test_binary_search_all_functions_n1():
    domain = InputDomain(1)
    S = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(4)])
    row, pins = binary_search_winnow(S.value_matrix())
    C = Certificate.of(S.domain, pins)
    assert C.size <= 2
    assert is_isolated(S, C, S[row])
    # exhaustive: the returned member really is the unique survivor
    survivors = [g for g in S if all(g(x) == b for x, b in pins)]
    assert [g.bits for g in survivors] == [S[row].bits]


def test_binary_search_point_class_n3():
    S = point_function_class(3)
    assert len(S) == 9
    row, pins = binary_search_winnow(S.value_matrix())
    C = Certificate.of(S.domain, pins)
    assert C.size <= 4
    assert is_isolated(S, C, S[row])


@given(st.integers(1, 3), st.integers(0, 10_000))
def test_binary_search_size_bound(n, salt):
    limit = min(8, 1 << (1 << n))
    S = random_boolean_class(n, int(np.random.default_rng(salt).integers(1, limit + 1)),
                             substream(salt, 0))
    row, pins = binary_search_winnow(S.value_matrix())
    C = Certificate.of(S.domain, pins)
    assert C.size <= ceil_log(len(S), 2)
    assert is_isolated(S, C, S[row])


def test_isolate_member_pins_chosen_function():
    S = point_function_class(3)
    target = S[4]
    C = isolate_member(S, target)
    assert is_isolated(S, C, target)


# ---------------------------------------------------------------------------
# weak certification
# ---------------------------------------------------------------------------

def test_weak_certify_point_mass_forces_agreement():
    S = random_boolean_class(3, 12, substream(5, 1))
    f_star = S[3]
    D = Distribution.point_mass(S.domain, 6)
    result = weak_certify(S, f_star, D)
    assert result.f(6) == f_star(6)
    assert result.error_mass <= 0.1


def test_weak_certify_point_class_uniform():
    S = point_function_class(4)
    f_star = S[0]  # the zero function
    result = weak_certify(S, f_star, Distribution.uniform(S.domain))
    # every point function has weight 1/16 <= 0.1, so any member qualifies
    assert result.error_mass <= 1.0 / 16.0 + 1e-15
    assert is_isolated(S, result.C, result.f)


def test_weak_certify_singleton():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [1, 0, 1, 0])
    S = ConceptClass(domain, [f])
    result = weak_certify(S, f, Distribution.uniform(domain))
    assert result.C.size == 0 and result.error_mass == 0.0


@given(st.integers(0, 500))
def test_weak_certify_invariants(salt):
    rng = substream(salt, 2)
    n = int(rng.integers(2, 5))
    S = random_boolean_class(n, int(rng.integers(2, 17)), rng)
    f_star = S[int(rng.integers(len(S)))]
    weights = rng.uniform(0.0, 1.0, size=S.domain.size)
    D = Distribution.from_weights(S.domain, weights)
    result = weak_certify(S, f_star, D)
    assert result.error_mass <= 0.1 + 1e-12
    assert is_isolated(S, result.C, result.f)
    assert result.C.size <= ceil_log(len(S), 10, 9) + ceil_log(len(S), 2)


def test_weak_certify_requires_membership():
    S = point_function_class(2)
    outsider = BooleanFunction.from_values(S.domain, [1, 1, 1, 1])
    with pytest.raises(RejectedInputError):
        weak_certify(S, outsider, Distribution.uniform(S.domain))


def reference_binary_search_winnow(S):
    """Binary-search winnowing of a class, returning (f, C) with S[C] = {f}."""
    C = Certificate.empty(S.domain)
    survivors = np.arange(len(S))
    V = S.value_matrix()
    while len(survivors) > 1:
        sums = V.sum(axis=0, dtype=np.int64)
        splits = np.nonzero((sums > 0) & (sums < len(survivors)))[0]
        split_x = int(splits[0])
        zero_count = len(survivors) - int(sums[split_x])
        bit = 0 if 2 * zero_count <= len(survivors) else 1
        C = C.extended(split_x, bit)
        keep = V[:, split_x] == bit
        survivors = survivors[keep]
        V = V[keep]
    return S[int(survivors[0])], C


def reference_weak_certify(S, f_star, D):
    """Weak certification in the XOR-shifted class where the target is the
    zero function, its certificate merged pin by pin and shifted back;
    returns (f, C) without the checks."""
    def shift(g):
        return BooleanFunction(S.domain, g.bits ^ f_star.bits)

    V = (S.value_matrix() ^ f_star.values()).astype(np.int64)
    weights = V @ D.weights
    survivor_mask = np.ones(len(S), dtype=bool)
    heavy_weight = weights > 0.1
    pinned = np.zeros(S.domain.size, dtype=bool)
    C_sh = Certificate.empty(S.domain)
    while True:
        heavy = survivor_mask & heavy_weight
        if not heavy.any():
            break
        kills = V[heavy].sum(axis=0)
        kills[pinned] = -1
        best_x = int(np.argmax(kills))
        C_sh = C_sh.extended(best_x, 0)
        pinned[best_x] = True
        survivor_mask &= V[:, best_x] == 0
    surviving_class = ConceptClass(S.domain, (shift(S[int(i)])
                                              for i in np.nonzero(survivor_mask)[0]))
    f_sh, C2 = reference_binary_search_winnow(surviving_class)
    merged = C_sh
    for x, b in C2.assignments:
        merged = merged.extended(x, b)
    C = Certificate(S.domain, merged.mask, merged.value ^ (f_star.bits & merged.mask))
    return shift(f_sh), C


@settings(max_examples=80)
@given(st.integers(1, 6), st.integers(0, 10 ** 6), st.booleans(),
       st.sampled_from(["uniform", "point", "counts"]), st.data())
def test_weak_certify_matches_shifted_class_reference(n, salt, points, kind, data):
    # dyadic weights make every summation order exact, so the heavy test
    # (> 0.1) reads the same whatever order the masses are summed in
    rng = substream(salt, 11)
    domain = InputDomain(n)
    if points:
        S = point_function_class(n, int(rng.integers(1, domain.size + 1)), rng)
    else:
        S = random_boolean_class(n, int(rng.integers(1, min(24, 1 << domain.size) + 1)), rng)
    f_star = S[data.draw(st.integers(0, len(S) - 1))]
    if kind == "uniform":
        D = Distribution.uniform(domain)
    elif kind == "point":
        D = Distribution.point_mass(domain, data.draw(st.integers(0, domain.size - 1)))
    else:
        total = 1 << data.draw(st.integers(0, 10))
        D = Distribution(domain, rng.multinomial(total, np.full(domain.size, 1.0 / domain.size))
                         / total)
    f, C = reference_weak_certify(S, f_star, D)
    result = weak_certify(S, f_star, D)
    assert (result.f.bits, result.C.mask, result.C.value) == (f.bits, C.mask, C.value)


def test_weak_certify_memory_stays_on_the_class_rows():
    # one boolean disagreement matrix (one byte a cell) and copies of its
    # rows, no |S| x 2^n integer or float matrix
    S = point_function_class(20, 48)
    S.value_matrix()
    weights = np.zeros(S.domain.size)
    weights[[int(g.bits).bit_length() - 1 for g in S[1:9]]] = 1.0 / 8.0
    D = Distribution(S.domain, weights)  # the first 8 point functions are heavy
    tracemalloc.start()
    try:
        result = weak_certify(S, S[0], D)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.C.size >= 8  # one stage-1 pin per heavy member
    assert peak < 4 * len(S) * S.domain.size


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def brute_force_min_cover_size(S, eps):
    """Exhaustive minimal-cover search (oracle)."""
    members = list(S)
    for size in range(1, len(members) + 1):
        for combo in itertools.combinations(range(len(members)), size):
            if all(any(dist_inf(f, members[i]) <= eps for i in combo) for f in members):
                return size
    return len(members)


def test_cover_eps_at_least_one():
    S = random_pconcept_class(2, 9, substream(9, 0))
    result = epsilon_cover(S, 1.0)
    assert len(result.cover) == 1


def test_cover_eps_zero_is_whole_class():
    S = random_pconcept_class(2, 9, substream(9, 1))
    result = epsilon_cover(S, 0.0)
    assert len(result.cover) == len(S)


def test_cover_constants_grid_matches_brute_force():
    S = constants_grid(2, 11)
    # at radius 0.05 the levels (spacing 0.1) each cover only themselves:
    # the exhaustive oracle gives 11, and greedy matches it
    result = epsilon_cover(S, 0.05)
    assert len(result.cover) == 11
    assert brute_force_min_cover_size(S, 0.05) == 11
    # at radius 0.15 each center covers both neighbours: oracle gives 4
    result = epsilon_cover(S, 0.15)
    assert brute_force_min_cover_size(S, 0.15) == 4
    assert 4 <= len(result.cover) <= 11


@given(st.integers(0, 300), st.floats(0.01, 0.6))
def test_cover_validity(salt, eps):
    S = random_pconcept_class(2, 10, substream(salt, 3))
    result = epsilon_cover(S, eps)
    for f in S:
        assert any(dist_inf(f, g) <= eps for g in result.cover)
    for g in result.cover:
        assert g in S


def reference_epsilon_cover(S, eps):
    """The greedy cover built row by row: one restricted_gaps call per
    member for its covered set, then the member covering the most
    uncovered ones (ties to the lowest index) until all are covered."""
    V = S.value_matrix()
    covers = np.stack([restricted_gaps(V, None, row) <= eps for row in V])
    uncovered = np.ones(len(S), dtype=bool)
    chosen = []
    while uncovered.any():
        i = int(np.argmax((covers & uncovered[None, :]).sum(axis=1)))
        chosen.append(i)
        uncovered &= ~covers[i]
    return sorted(chosen)


def reference_covers(cover, S, eps):
    """Whether every member of S is within eps of a cover member, one
    restricted_gaps call per cover member."""
    V = S.value_matrix()
    covered = np.zeros(len(S), dtype=bool)
    for g in cover:
        covered |= restricted_gaps(V, None, g.table) <= eps
    return bool(covered.all())


@pytest.mark.parametrize("block_cells", [concepts.BLOCK_CELLS, 7, 100])
@settings(max_examples=40)
@given(st.integers(1, 4), st.integers(1, 30), st.integers(0, 10 ** 6),
       st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.7, 1.0]), st.data())
def test_covers_from_gap_matrix_equal_row_by_row_references(block_cells, n, size, salt,
                                                            eps, data):
    """The gap-matrix cover and check equal the row-by-row ones, at the
    default block and at blocks of one and of a few rows."""
    S = random_pconcept_class(n, size, substream(salt, 12))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(concepts, "BLOCK_CELLS", block_cells)
        V = S.value_matrix()
        gaps = pairwise_gaps(V, V)
        assert all(np.array_equal(gaps[i], restricted_gaps(V, None, V[i])) for i in range(len(S)))
        result = epsilon_cover(S, eps)
        assert [S.index_of(g) for g in result.cover] == reference_epsilon_cover(S, eps)
        result.validate(S)
        part = data.draw(st.lists(st.sampled_from(S.members), min_size=1, unique_by=id))
        partial = CoverResult(cover=PConceptClass(S.domain, part), epsilon=eps)
        if reference_covers(part, S, eps):
            partial.validate(S)
        else:
            with pytest.raises(RejectedInputError):
                partial.validate(S)


def test_cover_with_a_member_outside_the_class_is_rejected():
    domain = InputDomain(1)
    S = PConceptClass(domain, [constant(domain, 0.2), constant(domain, 0.6)])
    outside = PConceptClass(domain, [constant(domain, 0.2), constant(domain, 0.4)])
    with pytest.raises(RejectedInputError, match="outside the class"):
        CoverResult(cover=outside, epsilon=0.5).validate(S)


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

@pytest.fixture
def kernel_only(monkeypatch):
    """Fail any search that leaves the single-split numpy kernel."""
    def refuse(*args):
        raise AssertionError("the multi-split search ran")
    monkeypatch.setattr(winnow, "_fat_extensions", refuse)


def test_vc_singleton_is_zero():
    domain = InputDomain(2)
    assert vc_dim(ConceptClass(domain, [BooleanFunction.zero(domain)])) == 0


def test_vc_full_class_shatters_domain():
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(16)])
    assert vc_dim(S) == 4


def test_vc_cap_signal(monkeypatch, kernel_only):
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(16)])
    monkeypatch.setattr(winnow, "DIMENSION_CAP", 3)
    with pytest.raises(DimensionCapExceeded):
        vc_dim(S)


def test_dimension_budget_signal(monkeypatch, kernel_only):
    # the full class on 4 inputs shatters all 4 singletons, whose 6 pairs
    # outgrow a budget of 5
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(16)])
    monkeypatch.setattr(winnow, "DIMENSION_BUDGET", 5)
    with pytest.raises(EnumerationBudgetExceeded):
        vc_dim(S)
    with pytest.raises(EnumerationBudgetExceeded):
        fat_shattering_dim(PConceptClass.from_tables(domain, S.value_matrix()), 0.25)


def test_multi_split_search_budget_signal(monkeypatch):
    """16 random real members on 4 inputs at margin 0.1 take the multi-split
    search, whose levels join at most 6 candidates but visit up to 63 split
    choices, so a budget of 10 stops it on the choices."""
    S = random_pconcept_class(2, 16, substream(7, 2))
    assert fat_shattering_dim(S, 0.1) == 3
    monkeypatch.setattr(winnow, "DIMENSION_BUDGET", 10)
    with pytest.raises(EnumerationBudgetExceeded, match="split choices"):
        fat_shattering_dim(S, 0.1)


def test_memo_keys_hold_no_copy_of_the_matrix():
    """The memo keys a class and its grid by digests: no key part is a
    byte string longer than 64 bytes, though V alone has 2,048."""
    S = random_pconcept_class(4, 16, substream(7, 4))
    with shared_searches():
        fat_shattering_dim(S, 0.1)
        keys = list(_SEARCHES.get(None))
    assert {key[0] for key in keys} == {"matrix", "grid"}
    assert all(len(part) <= 64 for key in keys for part in key if isinstance(part, bytes))


@given(st.integers(0, 10 ** 6))
def test_vc_and_fat_quarter_of_a_boolean_class_share_one_search(salt):
    """At gamma = 1/4 the witness grid of a Boolean class is vc_dim's grid:
    one (zeros, ones) split per non-constant input, built once and
    searched once for both."""
    rng = substream(salt, 55)
    n = int(rng.integers(1, 5))
    S = random_boolean_class(n, int(rng.integers(1, min(16, 1 << (1 << n)) + 1)), rng)
    built = []

    def counted(V, gamma):
        built.append(gamma)
        return _witness_splits(V, gamma)

    with shared_searches(), mock.patch.object(winnow, "_witness_splits", counted):
        vc_dim(S)
        fat_shattering_dim(S, 0.25)
        searched = [key for key in _SEARCHES.get(None) if key[0] == "grid"]
    grid = _witness_splits(S.value_matrix(), 0.5)
    assert len(built) == 1
    digest = hashlib.sha256(b"".join(a.tobytes() for a in grid)).digest()
    assert searched == [("grid", len(S), *((a.dtype, a.shape) for a in grid), digest)]
    assert grid_pairs(grid) == boolean_class_splits(S)


@given(st.integers(0, 10 ** 6))
def test_fat_of_a_boolean_class_equals_fat_of_its_real_reading(salt):
    rng = substream(salt, 58)
    n = int(rng.integers(1, 5))
    S = random_boolean_class(n, int(rng.integers(1, min(16, 1 << (1 << n)) + 1)), rng)
    P = PConceptClass.from_tables(S.domain, S.value_matrix())
    for gamma in (0.1, 0.25, 0.5):
        assert fat_shattering_dim(S, gamma) == fat_shattering_dim(P, gamma)


@st.composite
def witness_grids(draw):
    """(grid, members): the _witness_splits grid of up to 9 members on up
    to 5 inputs, with values on a coarse grid and a margin that lands on
    it, so ties, exact margins and several splits per input occur."""
    members, inputs = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    cells = st.lists(st.integers(0, 4), min_size=members * inputs, max_size=members * inputs)
    V = np.array(draw(cells), dtype=np.float64).reshape(members, inputs) / 4.0
    return _witness_splits(V, draw(st.sampled_from([0.0625, 0.125, 0.25, 0.5]))), members


def grid_pairs(grid):
    """The witness grid as per-input lists of (low, high) member bitmasks."""
    rank, xs, low, high = grid
    pairs = [[] for _ in rank]
    for x, lo, hi in zip(xs.tolist(), low.tolist(), high.tolist()):
        ranks = rank[x].tolist()
        pairs[x].append((sum(1 << j for j, r in enumerate(ranks) if r <= lo),
                         sum(1 << j for j, r in enumerate(ranks) if r >= hi)))
    return pairs


@given(witness_grids())
def test_scoped_search_equals_unscoped(grid):
    want = _dimension(*grid)
    assert _SEARCHES.get(None) is None
    with shared_searches():
        with shared_searches():  # a nested scope fills the outer memo
            assert _dimension(*grid) == want
        assert len(_SEARCHES.get(None)) == 1
        assert _dimension(*grid) == want
    assert _SEARCHES.get(None) is None


@pytest.mark.parametrize("knob, value, error", [
    ("DIMENSION_BUDGET", 5, EnumerationBudgetExceeded),
    ("DIMENSION_CAP", 3, DimensionCapExceeded),
])
def test_a_search_that_raises_is_not_stored(monkeypatch, kernel_only, knob, value, error):
    domain = InputDomain(2)
    S = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(16)])
    monkeypatch.setattr(winnow, knob, value)
    with shared_searches():
        for _ in range(2):
            with pytest.raises(error):
                vc_dim(S)
            assert _SEARCHES.get(None) == {}
    monkeypatch.undo()
    with shared_searches():
        assert vc_dim(S) == 4


def reference_single_split_dimension(splits, members):
    """The Apriori search over single-split grids that the numpy kernel
    replaced: a level's candidates are the joins of two shattered sets
    that differ only in their last input (Agrawal & Srikant 1994), tested
    when every one-smaller subset shattered, by cutting the class's
    member bitmask with each input's one split and asking for 2^s
    non-empty cells."""
    joins, known, dim = [((), list(range(len(splits))))], set(), 0
    while members >= 2 << dim:
        level = []
        for A, tails in joins:
            for x in tails:
                if not all(A[:i] + A[i + 1:] + (x,) in known for i in range(len(A) - 1)):
                    continue
                cells = [(1 << members) - 1]
                for y in A + (x,):
                    cells = [c & side for c in cells for side in (splits[y] or [(0, 0)])[0]]
                if all(cells):
                    level.append(A + (x,))
        if not level:
            return dim
        dim += 1
        joins, known = [], set(level)
        for prefix, group in itertools.groupby(level, key=lambda A: A[:-1]):
            lasts = [A[-1] for A in group]
            joins += [(prefix + (a,), lasts[i + 1:]) for i, a in enumerate(lasts)]
    return dim


def boolean_class_splits(S):
    """vc_dim's grid: the (zeros, ones) member masks of each non-constant input."""
    full = (1 << len(S)) - 1
    ones = [sum(v << i for i, v in enumerate(column)) for column in S.value_matrix().T.tolist()]
    return [[(full ^ h, h)] if 0 < h < full else [] for h in ones]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])  # one patch serves all
@given(st.integers(1, 5), st.integers(0, 10 ** 6), st.data())
def test_single_split_kernel_equals_apriori_reference(kernel_only, n, salt, data):
    """On random Boolean classes (n <= 5, |S| <= 32), and on them read as
    p-concepts at gamma = 1/4, the numpy kernel decides the dimension of
    the Apriori search over the same grid."""
    rng = substream(salt, 56)
    size = data.draw(st.integers(1, min(32, 1 << (1 << n))))
    S = random_boolean_class(n, size, rng)
    want = reference_single_split_dimension(boolean_class_splits(S), len(S))
    assert vc_dim(S) == want
    P = PConceptClass.from_tables(S.domain, S.value_matrix())
    V = P.value_matrix()
    grid = grid_pairs(_witness_splits(V, 0.25))
    assert reference_single_split_dimension(grid, len(P)) == want
    assert fat_shattering_dim(P, 0.25) == want


@pytest.mark.parametrize("block_cells", [winnow.BLOCK_CELLS, 1])
@given(witness_grids())
def test_single_split_kernel_equals_apriori_reference_on_witness_grids(block_cells, grid):
    """Also on each input's first split of a real-valued grid, whose sides
    leave members out, and with one candidate per block."""
    (rank, xs, low, high), members = grid
    first = np.r_[True, xs[1:] != xs[:-1]][:len(xs)]
    single = rank, xs[first], low[first], high[first]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(winnow, "BLOCK_CELLS", block_cells)
        assert _dimension(single, members) == reference_single_split_dimension(
            grid_pairs(single), members)


def reference_vc_dim(S):
    """Brute force: the largest input subset, over every subset of at most
    floor(log2 |S|) inputs, on which the members realize every sign
    pattern."""
    V = S.value_matrix()
    dim = 0
    for d in range(1, len(S).bit_length()):
        for A in itertools.combinations(range(S.domain.size), d):
            realized = {tuple(row) for row in V[:, list(A)].tolist()}
            if all(signs in realized for signs in itertools.product((0, 1), repeat=d)):
                dim = d
                break
    return dim


@settings(max_examples=60)
@given(st.integers(0, 10 ** 6))
def test_vc_matches_brute_force_reference(salt):
    rng = substream(salt, 8)
    n = int(rng.integers(1, 5))
    S = random_boolean_class(n, int(rng.integers(1, min(16, 1 << (1 << n)) + 1)), rng)
    assert vc_dim(S) == reference_vc_dim(S)


@given(st.integers(0, 400))
def test_vc_sauer_direction(salt):
    rng = substream(salt, 4)
    n = int(rng.integers(2, 5))
    S = random_boolean_class(n, int(rng.integers(2, 17)), rng)
    assert vc_dim(S) <= math.log2(len(S)) + 1e-12


def test_fat_singleton_is_zero():
    domain = InputDomain(2)
    S = PConceptClass(domain, [constant(domain, 0.4)])
    assert fat_shattering_dim(S, 0.1) == 0


def test_fat_two_constants():
    domain = InputDomain(2)
    S = PConceptClass(domain, [constant(domain, 0.0),
                               constant(domain, 1.0)])
    # brute-force witness: r = 0.5 on a single point separates at any
    # margin up to 0.5, and two constants cannot shatter two points
    assert fat_shattering_dim(S, 0.5) == 1
    assert fat_shattering_dim(S, 0.25) == 1


@given(st.integers(0, 300))
def test_fat_equals_vc_for_boolean(salt):
    rng = substream(salt, 5)
    n = int(rng.integers(1, 4))
    limit = min(10, 1 << (1 << n))
    S = random_boolean_class(n, int(rng.integers(2, limit + 1)), rng)
    P = PConceptClass.from_tables(S.domain, S.value_matrix())
    assert fat_shattering_dim(P, 0.25) == vc_dim(S)


@given(st.integers(0, 200))
def test_fat_antitone_in_gamma(salt):
    S = random_pconcept_class(2, 7, substream(salt, 6))
    dims = [fat_shattering_dim(S, g) for g in (0.05, 0.15, 0.3, 0.45)]
    assert all(dims[i] >= dims[i + 1] for i in range(len(dims) - 1))


def test_fat_rejects_nonpositive_gamma():
    S = constants_grid(2, 3)
    with pytest.raises(RejectedInputError):
        fat_shattering_dim(S, 0.0)


def test_fat_search_leaves_no_garbage_to_the_collector():
    """The shattering search holds no self-referencing closure, so its
    cells and masks are freed on return, not at a full collection."""
    S = random_pconcept_class(3, 30, substream(1, 0))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        fat_shattering_dim(S, 0.1)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_fat_cap_signal(monkeypatch, kernel_only):
    domain = InputDomain(2)
    full = ConceptClass(domain, [BooleanFunction(domain, b) for b in range(16)])
    S = PConceptClass.from_tables(domain, full.value_matrix())
    assert fat_shattering_dim(S, 0.25) == 4
    monkeypatch.setattr(winnow, "DIMENSION_CAP", 3)
    with pytest.raises(DimensionCapExceeded):
        fat_shattering_dim(S, 0.25)


def reference_fat_dim(S, gamma):
    """Brute force: for every input subset A and every choice of one
    witness level per input, anchored at a member value v (low: f(x) <= v,
    high: f(x) >= v + 2 gamma), A is shattered when all 2^|A| sign
    patterns occur among the members."""
    V = S.value_matrix()
    dim = 0
    for d in range(1, S.domain.size + 1):
        if len(V) < (1 << d):  # pigeonhole: 2^d sign patterns need 2^d members
            return dim
        shattered = False
        for A in itertools.combinations(range(S.domain.size), d):
            cols = V[:, list(A)]                                    # (m, d)
            levels = np.array(list(itertools.product(*(sorted(set(V[:, x]))
                                                       for x in A))))  # (K, d)
            low = cols[None, :, :] <= levels[:, None, :]
            high = cols[None, :, :] >= levels[:, None, :] + 2.0 * gamma
            placed = (low | high).all(axis=2)                       # (K, m)
            pattern = (high * (1 << np.arange(d))).sum(axis=2)     # (K, m)
            present = np.zeros((len(levels), (1 << d) + 1), dtype=bool)
            present[np.arange(len(levels))[:, None], np.where(placed, pattern, 1 << d)] = True
            if present[:, :1 << d].all(axis=1).any():
                shattered = True
                break
        if not shattered:
            return dim
        dim = d
    return dim


@settings(max_examples=30)
@given(st.integers(0, 10 ** 6), st.booleans())
def test_fat_matches_brute_force_reference(salt, on_grid):
    """Also with one input per block of the grid and one split per block
    of the multi-split search's bitmasks."""
    rng = substream(salt, 7)
    n = int(rng.integers(1, 4))
    size = int(rng.integers(1, 13))
    domain = InputDomain(n)
    if on_grid:  # values on a coarse grid, so ties and exact margins occur
        tables = rng.integers(0, 11, size=(size, domain.size)) / 10.0
    else:
        tables = rng.uniform(0.0, 1.0, size=(size, domain.size))
    S = PConceptClass(domain, [RealFunction(domain, t) for t in tables])
    for gamma in (0.005, 0.05, 0.15, 0.3):
        want = reference_fat_dim(S, gamma)
        assert fat_shattering_dim(S, gamma) == want
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(winnow, "BLOCK_CELLS", 1)
            assert fat_shattering_dim(S, gamma) == want


def reference_margin_pairs(values, gamma):
    """Per-anchor scan over all members, then the last pair of each run
    of equal high sets."""
    vals = [float(v) for v in values]
    raw = []
    for va in sorted(set(vals)):
        low = sum(1 << i for i, v in enumerate(vals) if v <= va)
        high = sum(1 << i for i, v in enumerate(vals) if v >= va + 2.0 * gamma)
        if low and high:
            raw.append((low, high))
    return [pair for j, pair in enumerate(raw)
            if j + 1 == len(raw) or raw[j + 1][1] != pair[1]]


@pytest.mark.parametrize("block_cells", [winnow.BLOCK_CELLS, 1])
@given(st.integers(1, 20), st.integers(1, 8), st.integers(0, 10 ** 6), st.booleans())
def test_witness_splits_match_per_anchor_scan(block_cells, members, inputs, salt, on_grid):
    """Input by input over whole matrices, with constant columns and
    one-member classes among them, at every margin, also one input per
    block of the grid and one split per block of its bitmasks."""
    rng = substream(salt, 57)
    if on_grid:  # dyadic values, so ties and exact margins occur
        V = rng.integers(0, 9, size=(members, inputs)) / 8.0
    else:
        V = rng.uniform(0.0, 1.0, size=(members, inputs))
    flat = rng.random(inputs) < 0.25  # constant columns
    V[:, flat] = V[:1, flat]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(winnow, "BLOCK_CELLS", block_cells)
        for gamma in (0.01, 0.0625, 0.125, 0.2, 0.25, 0.5):
            grid = _witness_splits(V, gamma)
            assert grid[0].dtype == np.min_scalar_type(members)
            assert (np.diff(grid[1]) >= 0).all()
            want = [reference_margin_pairs(V[:, x], gamma) for x in range(inputs)]
            assert grid_pairs(grid) == want
            assert _split_masks(grid, members) == want


@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.data())
def test_witness_splits_of_a_boolean_class_are_its_zeros_and_ones(n, salt, data):
    size = data.draw(st.integers(1, min(20, 1 << (1 << n))))
    S = random_boolean_class(n, size, substream(salt, 59))
    for gamma in (0.25, 0.5):
        assert grid_pairs(_witness_splits(S.value_matrix(), gamma)) == boolean_class_splits(S)


# ---------------------------------------------------------------------------
# safe winnowing
# ---------------------------------------------------------------------------

def clustered_pconcept(n, clusters, per_cluster, spread, rng):
    """Members bunched around cluster centers: forces real winnow splits."""
    domain = InputDomain(n)
    members = []
    for _ in range(clusters):
        center = rng.uniform(0.2, 0.8, size=domain.size)
        for _ in range(per_cluster):
            noise = rng.uniform(-spread, spread, size=domain.size)
            members.append(RealFunction(domain, np.clip(center + noise, 0, 1)))
    return PConceptClass(domain, members)


def test_safe_winnow_singleton_trivial():
    domain = InputDomain(2)
    f = constant(domain, 0.3)
    S = PConceptClass(domain, [f])
    cover = epsilon_cover(S, 0.1)
    result = safe_winnow(S, f, set(), 0.1, cover)
    assert result.f.key() == f.key()
    assert result.Z == frozenset()


def test_safe_winnow_accepts_empty_y():
    S = random_pconcept_class(3, 12, substream(21, 0))
    cover = epsilon_cover(S, 0.1)
    result = safe_winnow(S, S[0], set(), 0.1, cover)
    assert len(result.Z) <= max(cover.k, 0)


def test_safe_winnow_rejects_invalid_cover():
    S = random_pconcept_class(2, 6, substream(21, 1))
    other = random_pconcept_class(2, 6, substream(21, 2))
    bad = epsilon_cover(other, 0.1)
    with pytest.raises(RejectedInputError):
        safe_winnow(S, S[0], set(), 0.1, bad)


@given(st.integers(0, 150))
def test_safe_winnow_conclusions_on_clusters(salt):
    rng = substream(salt, 7)
    eps = 0.08
    S = clustered_pconcept(3, 3, 4, 0.35, rng)
    cover = epsilon_cover(S, eps)
    f_star = S[int(rng.integers(len(S)))]
    Y = {int(x) for x in rng.choice(S.domain.size, size=2, replace=False)}
    result = safe_winnow(S, f_star, Y, eps, cover)
    k = max(cover.k, 1.0)
    delta = eps / (5.0 * k)
    # conclusion (i): exhaustive scan over S x domain
    for g in S:
        if dist_inf(result.f, g, Y | result.Z) <= delta:
            assert dist_inf(result.f, g) <= 3.0 * eps
    # conclusion (ii)
    assert dist_inf(result.f, f_star, Y) <= eps / 5.0
    assert len(result.Z) <= cover.k + 1e-12


def test_safe_winnow_exercises_splits():
    # two tight clusters agreeing at input 0 but far apart at input 1:
    # the winnow must split at least once
    domain = InputDomain(2)
    rng = substream(77, 0)
    members = []
    for base in (0.2, 0.8):
        for _ in range(6):
            table = np.array([0.5, base, base, base]) + rng.uniform(-0.01, 0.01, 4)
            members.append(RealFunction(domain, np.clip(table, 0, 1)))
    S = PConceptClass(domain, members)
    cover = epsilon_cover(S, 0.05)
    result = safe_winnow(S, S[0], {0}, 0.05, cover)
    assert len(result.Z) >= 1
    # the reference, equal to safe_winnow on (f, Z), counts the cover
    # members surviving each split
    f, Z, survivors = reference_safe_winnow(S, S[0], frozenset({0}), 0.05, cover)
    assert (result.f.key(), result.Z) == (f.key(), Z)
    assert survivors and min(survivors) >= 1


# ---------------------------------------------------------------------------
# L1 winnowing
# ---------------------------------------------------------------------------

def test_l1_singleton_no_iterations():
    domain = InputDomain(2)
    f = constant(domain, 0.3)
    S = PConceptClass(domain, [f])
    result = l1_winnow(S, 0.1, epsilon_cover(S, 0.1))
    assert result.X == frozenset()
    assert len(result.progress_log) == 1


@given(st.integers(0, 150))
def test_l1_progress_and_postcondition(salt):
    rng = substream(salt, 8)
    eps = 0.1
    S = clustered_pconcept(3, 3, 4, 0.3, rng)
    cover = epsilon_cover(S, eps)
    result = l1_winnow(S, eps, cover)
    log = result.progress_log
    for i in range(len(log) - 1):
        assert log[i + 1] < (1.0 - eps / 20.0) * log[i]
    for g in S:
        if dist_one(result.f, g, result.X) <= 0.4 * eps:
            assert dist_inf(result.f, g) <= 2.0 * eps


def test_l1_starts_from_lowest_index():
    S = random_pconcept_class(2, 5, substream(99, 0))
    result = l1_winnow(S, 0.4, epsilon_cover(S, 0.4))
    # with a huge eps nothing violates, so f stays the first member
    assert result.f.key() == S[0].key()


# ---------------------------------------------------------------------------
# winnowing against member-by-member references
# ---------------------------------------------------------------------------

def reference_safe_winnow(S, f_star, Y, eps, cover):
    """Safe winnowing over lists of members, pairwise distances and table
    keys; returns (f, Z, the cover members surviving each split) without
    the postcondition check."""
    delta = eps / (5.0 * max(cover.k, 1.0))
    cover_keys = {g.key() for g in cover.cover}
    current, f_t, Z, survivors = list(S), f_star, set(), []

    def cover_count(members):
        return sum(1 for g in members if g.key() in cover_keys)

    while cover_count(current) > 1:
        found = next(((g, z) for g in current if dist_inf(f_t, g, Y | Z) <= delta
                      for z in S.domain.inputs() if abs(f_t(z) - g(z)) > 3.0 * eps), None)
        if found is None:
            break
        g, z = found
        Z.add(z)
        v = 0.5 * (f_t(z) + g(z))
        low = [h for h in current if h(z) < v]
        high = [h for h in current if h(z) >= v]
        current = low if cover_count(low) < cover_count(high) else high
        if not any(h.key() == f_t.key() for h in current):
            f_t = g
        survivors.append(cover_count(current))
    return f_t, frozenset(Z), survivors


def reference_l1_winnow(S, eps, cover):
    """L1 winnowing over lists of members and pairwise distances; returns
    (f, X, progress_log) without the postcondition check."""
    def measure(candidate, points):
        return float(sum(math.exp(-dist_one(candidate, h, points)) for h in cover.cover))

    f, X = S[0], set()
    log = [measure(f, X)]
    while True:
        found = next(((g, y) for g in S if g.key() != f.key()
                      and dist_one(f, g, X) <= 0.4 * eps
                      for y in S.domain.inputs() if abs(f(y) - g(y)) > 2.0 * eps), None)
        if found is None:
            break
        g, y = found
        X.add(y)
        M_f, M_g = measure(f, X), measure(g, X)
        replaced = M_g < M_f
        if replaced:
            f = g
        log.append(M_g if replaced else M_f)
    return f, frozenset(X), tuple(log)


def assert_winnows_match_references(S, f_star, Y, eps):
    cover = epsilon_cover(S, eps)
    f, Z, _ = reference_safe_winnow(S, f_star, frozenset(Y), eps, cover)
    result = safe_winnow(S, f_star, Y, eps, cover)
    assert (result.f.key(), result.Z) == (f.key(), Z)
    f, X, log = reference_l1_winnow(S, eps, cover)
    result = l1_winnow(S, eps, cover)
    assert (result.f.key(), result.X, result.progress_log) == (f.key(), X, log)


@settings(max_examples=60)
@given(st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans(),
       st.sampled_from([0.02, 0.05, 0.08, 0.1, 0.2, 0.5]), st.data())
def test_winnows_match_member_by_member_references(n, salt, clustered, eps, data):
    rng = substream(salt, 10)
    if clustered:
        S = clustered_pconcept(n, int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                               float(rng.choice([0.02, 0.1, 0.35])), rng)
    else:
        S = random_pconcept_class(n, int(rng.integers(1, 15)), rng)
    f_star = S[data.draw(st.integers(0, len(S) - 1))]
    Y = data.draw(st.sets(st.integers(0, S.domain.size - 1), max_size=3))
    assert_winnows_match_references(S, f_star, Y, eps)


def test_winnows_match_references_on_edge_classes():
    domain = InputDomain(2)
    singleton = PConceptClass(domain, [constant(domain, 0.3)])
    assert_winnows_match_references(singleton, singleton[0], set(), 0.1)
    S = clustered_pconcept(3, 3, 4, 0.35, substream(12, 0))
    assert_winnows_match_references(S, S[5], set(), 0.08)  # empty Y
    assert len(epsilon_cover(S, 1.0).cover) == 1
    assert_winnows_match_references(S, S[5], {1, 6}, 1.0)  # singleton cover


# ---------------------------------------------------------------------------
# L2 impossibility family
# ---------------------------------------------------------------------------

def count_solutions_oracle(n):
    """Direct enumeration of nonneg integer vectors summing to n^2, <= n."""
    size = 1 << n
    count = 0
    for combo in itertools.product(range(n + 1), repeat=size):
        if sum(combo) == n * n:
            count += 1
    return count


def test_l2_family_size_n2():
    family = L2Family(2)
    cls = family.enumerate_class()
    assert len(cls) == count_solutions_oracle(2) == 19


def test_l2_corrupt_two_bit_example():
    family = L2Family(2)
    f = family.member([2, 2, 0, 0])
    g = family.corrupt(f, [0, 1])
    assert dist_inf(f, g) == 1.0
    assert dist_two(f, g, [0, 1]) <= 1.0 / math.sqrt(2) + 1e-12
    # the corrupted function stays in the family
    assert int(round(sum(g.table) * 2)) == 4


@given(st.integers(0, 200))
def test_l2_corrupt_claims(salt):
    rng = substream(salt, 9)
    n = int(rng.integers(2, 4))
    family = L2Family(n)
    f = family.sample_member(rng)
    x_size = int(rng.integers(0, family.domain.size))
    X = {int(x) for x in rng.choice(family.domain.size, size=x_size, replace=False)}
    if not any(x not in X and f(x) == 0.0 for x in family.domain.inputs()):
        return
    g = family.corrupt(f, X)
    assert dist_inf(f, g) == 1.0
    assert dist_two(f, g, X) <= 1.0 / math.sqrt(n) + 1e-12


def test_l2_corrupt_rejects_when_no_zero_outside():
    family = L2Family(2)
    f = family.member([2, 2, 0, 0])
    with pytest.raises(RejectedInputError):
        family.corrupt(f, [0, 1, 2, 3])


def test_l2_rejects_bad_members():
    family = L2Family(2)
    with pytest.raises(RejectedInputError):
        family.member([2, 2, 1, 0])
    with pytest.raises(RejectedInputError):
        family.member([3, 1, 0, 0])
    with pytest.raises(RejectedInputError):
        L2Family(1)
