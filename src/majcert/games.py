"""Zero-sum solving of the certificate game.

The Boolean game: Alice plays a (certificate, isolated member) pair, Bob
plays an input x, and Alice wins when her isolated member agrees with
the target at x.  Alice's payoff depends on her pair only through the
isolated member, which is what makes column generation over members
converge to the exact game value.

Both solvers play the game on its quotient: one column per distinct
agreement pattern of their rows, in order of first input.  The full LP
has one row per isolatable member, in index order, paired in the support
with its first isolating certificate in enumeration order.  That
enumeration runs level by level in numpy, one block of (input subset,
member) codes at a time, and also answers ``k_isolatable_members``.  The
double oracle spreads Bob's weight on a column class evenly over its
inputs.  Only the quotient of the 0/1 agreement rows is converted to
float.

Each matrix game is one LP for Bob's mix, solved by a dense tableau
simplex under Bland's pivot rule (Bland 1977), so no basis repeats;
Alice's mix is read from the optimal tableau's dual, and the duality gap
of the two returned mixes is checked.
Game values are never read off the solver: ``solve_zero_sum`` returns
the exact value of the returned mix, and ``AliceStrategy.validate``
recomputes it from the support members' tables in the class value
matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concepts import (BooleanFunction, Certificate, ConceptClass,
                       Distribution, is_isolated)
from .errors import (EnumerationBudgetExceeded, RejectedInputError,
                     VerificationDefect)
from .winnow import isolate_member, weak_certify

#: Hard cap on isolating certificates enumerated by the full LP oracle.
FULL_LP_BUDGET = 100_000
#: Guard on raw (subset, bit-pattern) combinations before filtering.
ENUMERATION_GUARD = 2_000_000
#: (input subset, member) code cells held per block of certificate
#: enumeration.
BLOCK_CELLS = 1 << 20
#: Hard cap on the cells of one matrix game's simplex tableau,
#: (rows + 1) x (rows + cols + 1) float64 entries, 32 MB at the cap.
GAME_CELL_BUDGET = 4_000_000
#: Simplex pivots allowed per row and column of a matrix game.
PIVOT_CAP = 100


def solve_zero_sum(payoff: np.ndarray) -> tuple:
    """Solve max_w min_x (w P)_x for the row player of a matrix game.

    A tableau simplex on the column player's LP, max 1·z subject to
    Q z <= 1 and z >= 0 with Q = P - min P + 1 > 0, from the slack basis
    (feasible, so there is no phase I).  Bland's rule picks the entering
    column (the first with reduced cost below -1e-12) and the leaving row
    (the smallest basic index among the ratio ties), so the pivots cannot
    cycle; more than PIVOT_CAP pivots per row and column is a defect.  Bob's
    mix is z normalized and Alice's is the slack columns of the optimal
    objective row (the dual), both clipped to non-negative and
    renormalized.  Returns (value, row_mix, col_mix) where value =
    min_x (w P)_x is the exact value of the returned row mix, and the
    duality gap max_i (P d)_i - value of the returned mixes must be at
    most 1e-6.  Raises EnumerationBudgetExceeded before allocating a
    tableau of more than GAME_CELL_BUDGET cells.
    """
    P = np.asarray(payoff, dtype=np.float64)
    rows, cols = P.shape
    if rows == 0 or cols == 0:
        raise RejectedInputError("empty payoff matrix")
    cells = (rows + 1) * (rows + cols + 1)
    if cells > GAME_CELL_BUDGET:
        raise EnumerationBudgetExceeded(GAME_CELL_BUDGET, cells, "game tableau cells")

    T = np.zeros((rows + 1, rows + cols + 1))
    T[:rows, :cols] = P - P.min() + 1.0
    T[np.arange(rows), cols + np.arange(rows)] = 1.0
    T[:rows, -1] = 1.0
    T[rows, :cols] = -1.0
    basis = cols + np.arange(rows)
    for _ in range(PIVOT_CAP * (rows + cols)):
        entering = np.flatnonzero(T[rows, :-1] < -1e-12)
        if entering.size == 0:
            break
        j = entering[0]
        fit = np.flatnonzero(T[:rows, j] > 1e-12)
        if not fit.size:  # Q > 0 keeps the LP bounded: only rounding gets here
            raise VerificationDefect("game simplex found no pivot row")
        ratios = T[fit, -1] / T[fit, j]
        tied = fit[ratios == ratios.min()]
        i = tied[np.argmin(basis[tied])]
        T[i] /= T[i, j]
        factors = T[:, j].copy()
        factors[i] = 0.0
        T -= np.outer(factors, T[i])
        basis[i] = j
    else:
        raise VerificationDefect("game simplex exceeded its pivot cap")
    z = np.zeros(rows + cols)
    z[basis] = T[:rows, -1]
    d = np.clip(z[:cols], 0.0, None)
    d /= d.sum()
    w = np.clip(T[rows, cols:-1], 0.0, None)
    w /= w.sum()

    value = float((w @ P).min())
    if not float((P @ d).max()) - value <= 1e-6:  # NaN mixes fail too
        raise VerificationDefect("duality gap of the returned mixes exceeds tolerance")
    return value, w, d


@dataclass(frozen=True)
class AliceStrategy:
    """A mixed strategy over (certificate, isolated member) pairs.

    ``game_value`` is the worst case over Bob's pure strategies of the
    weighted probability that the isolated member agrees with the target,
    recomputed exactly from support and weights.
    """

    f_star: BooleanFunction
    support: tuple  # of (Certificate, BooleanFunction)
    weights: np.ndarray
    game_value: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "support", tuple(self.support))
        if len(self.support) != len(w):
            raise RejectedInputError("support/weight length mismatch")

    def validate(self, S: ConceptClass) -> None:
        """Every support pair isolates its member in S, the weights form a
        distribution, and the stored game value matches the worst case
        over inputs recomputed from the support members' tables in S."""
        if np.any(self.weights < -1e-12):
            raise VerificationDefect("negative strategy weight")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise VerificationDefect("strategy weights do not sum to 1")
        for cert, f in self.support:
            if not is_isolated(S, cert, f):
                raise VerificationDefect("support pair is not isolated")
        A = S.value_matrix()[[S.index_of(f) for _, f in self.support]] == self.f_star.values()
        first = np.sort(np.unique(A, axis=1, return_index=True)[1])  # the quotient's columns
        value = float((self.weights @ A[:, first]).min())
        if abs(value - self.game_value) > 1e-9:
            raise VerificationDefect("stored game value disagrees with its recomputation")


def _split(label: np.ndarray, bits: np.ndarray) -> tuple:
    """Refine the column classes ``label`` by one more 0/1 row: returns
    the new labels, numbered in order of first input, and each class's
    first input, whose column every input of the class copies."""
    new = 2 * label + bits
    first = np.full(int(new.max()) + 1, label.size)
    np.minimum.at(first, new, np.arange(label.size))
    order = np.argsort(first)[:np.count_nonzero(first < label.size)]
    rank = np.empty(first.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    return rank[new], first[order]


def solve_game_full_lp(S: ConceptClass, f_star: BooleanFunction, k: int) -> AliceStrategy:
    """Exact minimax strategy by enumerating every isolating certificate
    of size at most k and solving the game on one row per isolated member
    and one column per distinct agreement pattern of those rows.

    The enumeration (``_first_certificates``) runs level by level in
    blocks of at most BLOCK_CELLS (input subset, member) codes and keeps
    each member's first certificate.  Rejected (with the offending count)
    when the raw space exceeds ENUMERATION_GUARD or the isolating
    certificates exceed FULL_LP_BUDGET; this oracle exists to cross-check
    double_oracle_solve on small instances, not to scale.
    """
    S.index_of(f_star)
    domain = S.domain
    raw_count = sum(math.comb(domain.size, s) * (2 ** s) for s in range(k + 1))
    if raw_count > ENUMERATION_GUARD:
        raise EnumerationBudgetExceeded(ENUMERATION_GUARD, raw_count,
                                        "raw size-<=k certificate space")
    first = _first_certificates(S, k, FULL_LP_BUDGET)
    if not first:
        raise RejectedInputError(f"no certificate of size <= {k} isolates any member")
    rows = sorted(first)
    A = S.value_matrix()[rows] == f_star.values()
    columns = np.sort(np.unique(A, axis=1, return_index=True)[1])  # the quotient's
    value, w, _ = solve_zero_sum(A[:, columns].astype(np.float64))
    support = tuple((Certificate(domain, *first[row]), S[row]) for row in rows)
    strategy = AliceStrategy(f_star=f_star, support=support, weights=w, game_value=value)
    strategy.validate(S)
    return strategy


def _subset_blocks(size: int, k: int, block: int):
    """Yield ``(s, subsets)`` for the input subsets of size s <= k, in
    ``itertools.combinations`` order, at most ``block`` subsets at a time,
    each a row of its inputs in ascending order.

    A level's subsets are numbered in that order.  Parent p of level
    s - 1 has one child per input above its last, numbered up to
    ends[p] - 1 (the cumulative child count), so child t appends input
    size - ends[p] + t.
    """
    subsets = np.zeros((1, 0), dtype=np.intp)
    yield 0, subsets
    for s in range(1, k + 1):
        last = subsets[:, -1] if s > 1 else np.full(1, -1)
        ends = np.cumsum(size - 1 - last)
        level = []
        for start in range(0, int(ends[-1]), block):
            t = np.arange(start, min(start + block, int(ends[-1])))
            parent = np.searchsorted(ends, t, side="right")
            children = np.column_stack([subsets[parent], size - ends[parent] + t])
            if s < k:  # the next level's parents
                level.append(children)
            yield s, children
        if not level:
            return
        subsets = np.concatenate(level)


def _first_certificates(S: ConceptClass, k: int, budget: int = None) -> dict:
    """``{member index: (mask, value)}``, each member's first isolating
    certificate of size at most k, packed, in order of first certificate.

    The certificates are enumerated by size, then by input subset in
    ``itertools.combinations`` order, then by ascending value, one block
    of at most BLOCK_CELLS (subset, member) code cells at a time
    (``_subset_blocks``).  A member's code on a subset is its table read
    at the subset's inputs, bit i for the i-th smallest, so ascending
    codes are ascending certificate values, and the subset isolates the
    member when no other member shares its code.

    Every isolating certificate counts against ``budget``: the total is
    checked at each block's end, and a total above it raises
    EnumerationBudgetExceeded with the count so far.  Without a budget
    the enumeration stops after the first block that leaves every member
    found, since later blocks change no member's first certificate.
    """
    table = np.ascontiguousarray(S.value_matrix().T)  # row x: every member's value at x
    size, members = table.shape
    first: dict = {}
    missing = np.ones(members, dtype=bool)
    count = 0
    for s, subsets in _subset_blocks(size, k, max(1, BLOCK_CELLS // members)):
        dtype = np.min_scalar_type((1 << s) - 1)
        codes = np.zeros((len(subsets), members), dtype=dtype)
        for i in range(s):
            codes |= table[subsets[:, i]].astype(dtype) << i
        rows, order = np.arange(len(subsets))[:, None], np.argsort(codes, axis=1)
        ranked = codes[rows, order]
        differs = np.ones((len(subsets), members + 1), dtype=bool)
        differs[:, 1:-1] = ranked[:, 1:] != ranked[:, :-1]
        isolated = np.empty_like(differs[:, 1:])
        isolated[rows, order] = differs[:, :-1] & differs[:, 1:]
        count += int(np.count_nonzero(isolated))
        if budget is not None and count > budget:
            raise EnumerationBudgetExceeded(budget, count, "isolating certificates")
        found = np.flatnonzero(missing & isolated.any(axis=0))
        at = isolated[:, found].argmax(axis=0)  # each found member's first subset
        for j in np.lexsort((codes[at, found], at)):
            row = int(found[j])
            mask = sum(1 << int(x) for x in subsets[at[j]])
            first[row] = (mask, S[row].bits & mask)
        missing[found] = False
        if budget is None and not missing.any():
            break
    return first


def k_isolatable_members(S: ConceptClass, k: int) -> set:
    """Indices of members isolated by some certificate of size <= k.

    Used to pick game instances on which the k-bounded full-LP oracle
    and the unbounded double oracle solve the same matrix game (payoffs
    depend only on the isolated member).
    """
    return set(_first_certificates(S, k))


def double_oracle_solve(S: ConceptClass, f_star: BooleanFunction,
                        target_value: float = 0.9) -> AliceStrategy:
    """Column generation for the certificate game.

    Repeat: solve the restricted game over the current Alice rows (Bob
    always has every input available), read off Bob's optimal mixed
    strategy D, and stop once Alice's restricted mix already achieves
    ``target_value`` against Bob's best response.  Otherwise ask the weak
    certifier for a row beating D with probability at least 0.9.  While
    the restricted value is below 0.9 that row is always new (Bob's
    optimal mix caps every existing row at the restricted value).  If the
    certifier repeats a known member, fall back to the exact best
    response member against D; when that member is also known the
    restricted value equals the full game value and the loop stops, so
    passing target_value = 1.0 runs the solver to exact convergence.
    """
    S.index_of(f_star)
    domain = S.domain
    rows: list = []
    row_index: list = []
    cap = 10 * len(S) + 10
    V, t = S.value_matrix(), f_star.values()
    label = np.zeros(domain.size, dtype=np.intp)

    D = Distribution.uniform(domain)
    w = np.ones(0)
    worst = -1.0
    for _ in range(cap):
        if rows:
            worst, w, d = solve_zero_sum((V[np.ix_(row_index, first)] == t[first])
                                         .astype(np.float64))
            if worst >= target_value - 1e-12:
                break
            D = Distribution.from_weights(domain, (d / np.bincount(label))[label])

        cert_result = weak_certify(S, f_star, D)
        i = S.index_of(cert_result.f)
        if i not in row_index:
            rows.append((cert_result.C, cert_result.f))
        else:
            # exact best-response fallback (only reachable with target > 0.9)
            i = int(np.argmax([(v == t) @ D.weights for v in V]))
            if i in row_index:
                # Bob's mix caps every known row, so the restricted value is
                # already the full game value: converged below target.
                break
            rows.append((isolate_member(S, S[i]), S[i]))
        row_index.append(i)
        label, first = _split(label, V[i] == t)
    else:
        raise VerificationDefect("double oracle failed to terminate within its iteration cap")

    strategy = AliceStrategy(f_star=f_star, support=tuple(rows), weights=w,
                             game_value=worst)
    strategy.validate(S)
    return strategy
