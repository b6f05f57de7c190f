"""Game solvers: exact LP oracle, double oracle, strategy invariants."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from majcert.concepts import (BooleanFunction, Certificate, ConceptClass,
                              InputDomain, restrict_class)
from majcert.errors import (EnumerationBudgetExceeded, RejectedInputError,
                            VerificationDefect)
import majcert.games as games
from majcert.games import (AliceStrategy, _first_certificates,
                           double_oracle_solve, k_isolatable_members,
                           solve_game_full_lp, solve_zero_sum)
from majcert.generators import point_function_class, random_boolean_class
from majcert.rng import substream
from majcert.winnow import weak_certify


@contextlib.contextmanager
def recorded_game_values():
    """Yields the list of values of the matrix games that the solvers in
    ``games`` solve while the context is open, in order."""
    values = []
    original = games.solve_zero_sum

    def recording(payoff):
        result = original(payoff)
        values.append(result[0])
        return result

    games.solve_zero_sum = recording
    try:
        yield values
    finally:
        games.solve_zero_sum = original


def isolating_certificates(S, k):
    """Every isolating certificate of size <= k as (mask, value, member
    index), found pattern by pattern with ``restrict_class``: by size,
    then by input subset in combinations order, then by ascending value."""
    found = []
    for s in range(k + 1):
        for points in itertools.combinations(S.domain.inputs(), s):
            patterns = sorted(itertools.product((0, 1), repeat=s),
                              key=lambda bits: sum(b << x for b, x in zip(bits, points)))
            for bits in patterns:
                cert = Certificate.of(S.domain, zip(points, bits))
                survivors = restrict_class(S, cert)
                if len(survivors) == 1:
                    found.append((cert.mask, cert.value, S.index_of(survivors[0])))
    return found


def first_certificates(S, k):
    """Each member's first certificate in ``isolating_certificates``, as
    ``[(member index, (mask, value))]`` in order of first appearance."""
    first = {}
    for mask, value, row in isolating_certificates(S, k):
        first.setdefault(row, (mask, value))
    return list(first.items())


def test_solve_zero_sum_matching_pennies():
    value, row, col = solve_zero_sum(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert value == pytest.approx(0.5, abs=1e-9)
    assert row == pytest.approx([0.5, 0.5], abs=1e-7)
    assert col == pytest.approx([0.5, 0.5], abs=1e-7)


def test_solve_zero_sum_dominant_row():
    value, row, _ = solve_zero_sum(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert value == pytest.approx(1.0, abs=1e-9)
    assert row[0] == pytest.approx(1.0, abs=1e-7)


def two_lp_solve(P):
    """The two-LP solver: (row LP optimum, row mix) after checking the
    optimum against a separate column LP's."""
    rows, cols = P.shape
    row = linprog(np.r_[np.zeros(rows), -1.0], A_ub=np.hstack([-P.T, np.ones((cols, 1))]),
                  b_ub=np.zeros(cols), A_eq=np.r_[np.ones(rows), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * rows + [(None, None)], method="highs")
    col = linprog(np.r_[np.zeros(cols), 1.0], A_ub=np.hstack([P, -np.ones((rows, 1))]),
                  b_ub=np.zeros(rows), A_eq=np.r_[np.ones(cols), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * cols + [(None, None)], method="highs")
    assert row.success and col.success
    assert abs(row.x[-1] - col.x[-1]) <= 1e-6
    w = np.clip(row.x[:rows], 0.0, None)
    return float(row.x[-1]), w / w.sum()


@st.composite
def payoff_matrices(draw):
    """Random payoffs in [0, 1], including degenerate shapes: one row, one
    column, a duplicated row or column, and constant matrices."""
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    P = draw(arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    kind = draw(st.sampled_from(["plain", "dup-row", "dup-col", "constant"]))
    if kind == "dup-row":
        P = np.vstack([P, P[-1:]])
    elif kind == "dup-col":
        P = np.hstack([P, P[:, -1:]])
    elif kind == "constant":
        P = np.full(shape, P[0, 0])
    return P


@given(payoff_matrices())
@example(np.array([[1.0, 1.0, 1.0, 1e-9], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]))
def test_solve_zero_sum_mixes_certify_the_value(P):
    value, w, d = solve_zero_sum(P)
    for mix, size in ((w, P.shape[0]), (d, P.shape[1])):
        assert mix.shape == (size,) and np.all(mix >= 0.0)
        assert abs(mix.sum() - 1.0) <= 1e-12
    assert value == float((w @ P).min())
    assert float((P @ d).max()) - value <= 1e-9
    # HiGHS's row LP: its mix is no better than the returned one, and its
    # raw optimum agrees up to HiGHS's feasibility tolerance (entries near
    # 1e-7 move it by ~1e-8; on the explicit example its mix reads 0
    # where the game value is 1e-9)
    optimum, w_two = two_lp_solve(P)
    assert float((w_two @ P).min()) - value <= 1e-12
    assert abs(value - optimum) <= 1e-6


def test_solve_zero_sum_exact_below_highs_tolerance():
    # payoffs near HiGHS's 1e-7 feasibility tolerance: its row mix reads
    # 2.98e-8, half the game value 0.5 eps / (eps + 0.5)
    eps = 5.96e-8
    value, _, _ = solve_zero_sum(np.array([[1, 1, 1, .5, 1, 0], [0, 0, 0, 0, 0, eps]]))
    exact = 0.5 * eps / (eps + 0.5)
    assert abs(value - exact) <= 1e-15 * exact


def test_solve_zero_sum_cell_budget(monkeypatch):
    # a 2 x 3 game's tableau has 3 x 6 cells
    P = np.ones((2, 3))
    monkeypatch.setattr(games, "GAME_CELL_BUDGET", 17)
    with pytest.raises(EnumerationBudgetExceeded) as excinfo:
        solve_zero_sum(P)
    assert (excinfo.value.budget, excinfo.value.count) == (17, 18)
    monkeypatch.setattr(games, "GAME_CELL_BUDGET", 18)
    assert solve_zero_sum(P)[0] == 1.0


def test_full_lp_singleton():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [1, 0, 1, 0])
    S = ConceptClass(domain, [f])
    strategy = solve_game_full_lp(S, f, k=1)
    assert strategy.game_value == pytest.approx(1.0, abs=1e-9)
    assert any(cert.size == 0 for cert, _ in strategy.support)


def test_full_lp_point_class_k1():
    # zero plus all 16 point functions on n=4; with k=1 only the point
    # functions are isolatable, and the uniform mix over all 16 loses
    # only at the played point: value exactly 1 - 1/16
    S = point_function_class(4)
    strategy = solve_game_full_lp(S, S[0], k=1)
    assert strategy.game_value == pytest.approx(1.0 - 1.0 / 16.0, abs=1e-7)
    assert strategy.game_value >= 0.9


def test_full_lp_budget_enforced(monkeypatch):
    S = point_function_class(4)
    monkeypatch.setattr(games, "FULL_LP_BUDGET", 3)
    with pytest.raises(EnumerationBudgetExceeded):
        solve_game_full_lp(S, S[0], k=1)


def test_full_lp_budget_counts_quotient_cells(monkeypatch):
    # at n = 12 the 8 isolatable point functions agree with the zero
    # target on 9 distinct columns: a 9 x 18 tableau of 162 cells, where
    # all 2^12 columns would take 9 x 4105 = 36,945
    S = point_function_class(12, 8, substream(3, 0))
    monkeypatch.setattr(games, "GAME_CELL_BUDGET", 1000)
    strategy = solve_game_full_lp(S, S[0], k=1)
    assert strategy.game_value == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-9)
    monkeypatch.setattr(games, "GAME_CELL_BUDGET", 161)
    with pytest.raises(EnumerationBudgetExceeded) as excinfo:
        solve_game_full_lp(S, S[0], k=1)
    assert excinfo.value.count == 162


def test_full_lp_raw_space_guard():
    domain = InputDomain(10)
    S = ConceptClass(domain, [BooleanFunction.zero(domain)])
    with pytest.raises(EnumerationBudgetExceeded):
        solve_game_full_lp(S, S[0], k=4)


def test_double_oracle_singleton():
    domain = InputDomain(2)
    f = BooleanFunction.from_values(domain, [0, 1, 1, 0])
    S = ConceptClass(domain, [f])
    strategy = double_oracle_solve(S, f)
    assert strategy.game_value == pytest.approx(1.0, abs=1e-12)
    assert len(strategy.support) == 1


def test_double_oracle_point_class_n6():
    from majcert.winnow import ceil_log
    S = point_function_class(6)
    strategy = double_oracle_solve(S, S[0])
    assert strategy.game_value >= 0.9 - 1e-12
    bound = ceil_log(len(S), 10, 9) + ceil_log(len(S), 2)
    assert all(cert.size <= bound for cert, _ in strategy.support)


def test_double_oracle_value_trace_non_decreasing():
    rng = substream(31, 0)
    S = random_boolean_class(4, 14, rng)
    with recorded_game_values() as trace:
        double_oracle_solve(S, S[0], target_value=1.0)
    assert trace
    assert all(trace[i] <= trace[i + 1] + 1e-9 for i in range(len(trace) - 1))


@given(st.integers(0, 40))
def test_cross_oracle_equivalence(salt):
    rng = substream(salt, 1)
    k = 4
    for _ in range(50):
        n = int(rng.integers(2, 4))
        size = int(rng.integers(2, 13))
        S = random_boolean_class(n, size, rng)
        if len(k_isolatable_members(S, k)) == len(S):
            break
    f_star = S[int(rng.integers(len(S)))]
    full = solve_game_full_lp(S, f_star, k)
    oracle = double_oracle_solve(S, f_star, target_value=1.0)
    assert abs(full.game_value - oracle.game_value) <= 1e-6


def test_strategy_validation_catches_tampering():
    S = point_function_class(3)
    strategy = double_oracle_solve(S, S[0])
    strategy.validate(S)
    bad_value = AliceStrategy(f_star=strategy.f_star, support=strategy.support,
                              weights=strategy.weights,
                              game_value=strategy.game_value - 0.25)
    with pytest.raises(VerificationDefect):
        bad_value.validate(S)
    bad_pair = AliceStrategy(f_star=strategy.f_star,
                             support=((Certificate.empty(S.domain), S[1]),),
                             weights=np.array([1.0]), game_value=0.0)
    with pytest.raises(VerificationDefect):
        bad_pair.validate(S)


@given(st.integers(0, 40), st.integers(0, 3))
def test_isolating_certificates_match_naive_enumeration(salt, k):
    # with and without a budget, each member's first certificate is the
    # reference's, and members come in the reference's order
    rng = substream(salt, 2)
    S = random_boolean_class(2, int(rng.integers(1, 9)), rng)
    expected = first_certificates(S, k)
    assert list(_first_certificates(S, k).items()) == expected
    assert list(_first_certificates(S, k, games.FULL_LP_BUDGET).items()) == expected


@pytest.mark.parametrize("block_cells", [games.BLOCK_CELLS, 7], ids=["one-block", "7-cells"])
@pytest.mark.parametrize("n, size, k", [(3, 9, 2), (4, 12, 3)])
def test_full_lp_budget_is_the_isolating_certificate_count(monkeypatch, block_cells,
                                                           n, size, k):
    # the budget counts every isolating certificate, the blocks' size
    # aside: the reference's total passes and one less is rejected
    S = random_boolean_class(n, size, substream(n, 5))
    total = len(isolating_certificates(S, k))
    monkeypatch.setattr(games, "BLOCK_CELLS", block_cells)
    monkeypatch.setattr(games, "FULL_LP_BUDGET", total)
    solve_game_full_lp(S, S[0], k)
    assert list(_first_certificates(S, k, total).items()) == first_certificates(S, k)
    monkeypatch.setattr(games, "FULL_LP_BUDGET", total - 1)
    with pytest.raises(EnumerationBudgetExceeded) as excinfo:
        solve_game_full_lp(S, S[0], k)
    assert excinfo.value.count > total - 1


def test_k_isolatable_members_point_class():
    S = point_function_class(3)
    # every point function is isolated by one pin; zero needs all eight
    assert k_isolatable_members(S, 1) == set(range(1, 9))
    assert k_isolatable_members(S, 8) == set(range(9))


def test_full_lp_value_by_certificate_size_point_class():
    S = point_function_class(3)
    # k=0 isolates nothing; k in [1,7] only isolates point functions, whose
    # best mix achieves 1 - 1/8 = 0.875 < 0.9; the zero function needs all
    # 8 pins, at which point the value jumps to 1
    with pytest.raises(RejectedInputError):
        solve_game_full_lp(S, S[0], 0)
    values = [solve_game_full_lp(S, S[0], k).game_value for k in range(1, 9)]
    assert values[0] == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-7)
    assert all(v < 0.9 for v in values[:7])
    assert values[7] == pytest.approx(1.0, abs=1e-7)


@st.composite
def boolean_games(draw):
    """A random class on n in {2, 3} inputs, any member as the target
    (k-isolatable or not), and k in {1, 2, 3}."""
    n = draw(st.integers(2, 3))
    domain = InputDomain(n)
    tables = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1), min_size=1, max_size=8,
                           unique=True))
    S = ConceptClass(domain, [BooleanFunction(domain, bits) for bits in tables])
    return S, S[draw(st.integers(0, len(S) - 1))], draw(st.integers(1, 3))


@given(boolean_games())
def test_full_lp_value_equals_per_pair_game(game):
    # the per-pair matrix: one row per isolating (certificate, member) pair
    S, f_star, k = game
    rows = [row for _, _, row in isolating_certificates(S, k)]
    if not rows:
        with pytest.raises(RejectedInputError):
            solve_game_full_lp(S, f_star, k)
        return
    per_pair = (S.value_matrix()[rows] == f_star.values()).astype(np.float64)
    value, _, _ = solve_zero_sum(per_pair)
    strategy = solve_game_full_lp(S, f_star, k)
    assert abs(strategy.game_value - value) <= 1e-9
    # one row per member, in index order, with the member's first certificate
    assert [((c.mask, c.value), S.index_of(f)) for c, f in strategy.support] == \
        [(first, row) for row, first in sorted(first_certificates(S, k))]


@given(st.integers(0, 40))
def test_double_oracle_mapped_bob_mix_caps_full_rows(salt):
    # the zero target among functions with one to three ones takes many
    # rounds, and restricted games whose column classes hold several
    # inputs; Bob's mix handed to the weak certifier after each restricted
    # solve is checked against the un-quotiented agreement rows
    rng = substream(salt, 4)
    domain = InputDomain(int(rng.integers(2, 6)))
    tables = {0} | {sum(1 << int(x) for x in rng.choice(domain.size, int(rng.integers(1, 4)),
                                                         replace=False))
                    for _ in range(int(rng.integers(2, 17)))}
    S = ConceptClass(domain, [BooleanFunction(domain, bits) for bits in sorted(tables)])
    mixes = []

    def recording(S_, f_star, D):
        mixes.append(D.weights)
        return weak_certify(S_, f_star, D)

    original, games.weak_certify = games.weak_certify, recording
    try:
        with recorded_game_values() as trace:
            strategy = double_oracle_solve(S, S[0], target_value=1.0)
    finally:
        games.weak_certify = original
    agreements = (S.value_matrix() == 0).astype(np.float64)
    rows = [S.index_of(f) for _, f in strategy.support]
    assert len(mixes) >= len(trace)
    for j in range(1, len(mixes)):
        assert float((agreements[rows[:j]] @ mixes[j]).max()) - trace[j - 1] <= 1e-6


def test_full_lp_one_row_per_isolated_member(monkeypatch):
    shapes = []
    original = games.solve_zero_sum

    def recording(payoff):
        shapes.append(payoff.shape)
        return original(payoff)

    monkeypatch.setattr(games, "solve_zero_sum", recording)
    point = point_function_class(4)
    solve_game_full_lp(point, point[0], k=1)
    S = random_boolean_class(4, 12, substream(0, 3))
    assert len(isolating_certificates(S, 4)) > 1000
    solve_game_full_lp(S, S[0], k=4)
    assert len(shapes) == 2
    assert shapes[0][0] <= len(point) and shapes[1][0] <= len(S)
