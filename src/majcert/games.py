"""Zero-sum game solving for certificate decompositions.

The Boolean game: Alice plays a (certificate, isolated member) pair, Bob
plays an input x, and Alice wins when her isolated member agrees with
the target at x.  Alice's payoff depends on her pair only through the
isolated member, which is what makes column generation over members
converge to the exact game value.

Both solvers play the game on its quotient.  The full LP has one row
per isolatable member, in index order, paired in the support with its
first isolating certificate in enumeration order.  The double oracle has
one column per distinct agreement pattern of its rows, in order of first
input, and spreads Bob's weight on a class evenly over its inputs.  Only
the quotient of the 0/1 agreement rows is converted to float.

Each matrix game is one LP for Alice's mix, solved by scipy's HiGHS
backend (deterministic for fixed inputs); Bob's mix is read from that
LP's dual, and the duality gap of the two returned mixes is checked.
Game values are never read off the solver: ``solve_zero_sum`` returns
the exact value of the returned mix, and ``AliceStrategy.validate``
recomputes it from the support members' tables in the class value
matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .concepts import (BooleanFunction, Certificate, ConceptClass,
                       Distribution, is_isolated)
from .errors import (EnumerationBudgetExceeded, RejectedInputError,
                     VerificationDefect)
from .winnow import isolate_member, weak_certify

#: Hard cap on isolating certificates enumerated by the full LP oracle.
FULL_LP_BUDGET = 100_000
#: Guard on raw (subset, bit-pattern) combinations before filtering.
ENUMERATION_GUARD = 2_000_000


def solve_zero_sum(payoff: np.ndarray) -> tuple:
    """Solve max_w min_x (w P)_x for the row player of a matrix game.

    One LP for the row player; the column player's mix is read from its
    dual, the marginals of the constraints (w P)_x >= v.  Both mixes are
    clipped to non-negative and renormalized.  Returns (value, row_mix,
    col_mix) where value = min_x (w P)_x is the exact value of the
    returned row mix, and the duality gap max_i (P d)_i - value of the
    returned mixes must be at most 1e-6.
    """
    P = np.asarray(payoff, dtype=np.float64)
    rows, cols = P.shape
    if rows == 0 or cols == 0:
        raise RejectedInputError("empty payoff matrix")

    # variables (w, v), maximize v
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-P.T, np.ones((cols, 1))])
    b_ub = np.zeros(cols)
    A_eq = np.zeros((1, rows + 1))
    A_eq[0, :rows] = 1.0
    bounds = [(0.0, 1.0)] * rows + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0], bounds=bounds,
                  method="highs")
    if not res.success:
        raise VerificationDefect(f"game LP failed: {res.message}")
    w = np.clip(res.x[:rows], 0.0, None)
    w /= w.sum()
    d = np.clip(-res.ineqlin.marginals, 0.0, None)
    d /= d.sum()

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
        label = np.zeros(S.domain.size, dtype=np.intp)
        for bits in A:
            label, first = _split(label, bits)
        value = float((self.weights @ A[:, first]).min())
        if abs(value - self.game_value) > 1e-9:
            raise VerificationDefect("stored game value disagrees with its recomputation")

    def sample_pairs(self, rng: np.random.Generator, m: int) -> list:
        w = self.weights / self.weights.sum()
        idx = rng.choice(len(self.support), size=m, p=w)
        return [self.support[int(i)] for i in idx]


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


def solve_game_full_lp(S: ConceptClass, f_star: BooleanFunction, k: int,
                       budget: int = FULL_LP_BUDGET) -> AliceStrategy:
    """Exact minimax strategy by enumerating every isolating certificate
    of size at most k and solving the game on one row per isolated member.

    Rejected (with the offending count) when enumeration would exceed the
    budget; this oracle exists to cross-check double_oracle_solve on
    small instances, not to scale.
    """
    S.index_of(f_star)
    domain = S.domain
    raw_count = sum(math.comb(domain.size, s) * (2 ** s) for s in range(k + 1))
    if raw_count > ENUMERATION_GUARD:
        raise EnumerationBudgetExceeded(ENUMERATION_GUARD, raw_count,
                                        "raw size-<=k certificate space")
    first: dict = {}
    for mask, value, row in _isolating_certificates(S, k, budget):
        first.setdefault(row, (mask, value))
    if not first:
        raise RejectedInputError(f"no certificate of size <= {k} isolates any member")
    rows = sorted(first)
    value, w, _ = solve_zero_sum((S.value_matrix()[rows] == f_star.values()).astype(np.float64))
    support = tuple((Certificate(domain, *first[row]), S[row]) for row in rows)
    strategy = AliceStrategy(f_star=f_star, support=support, weights=w, game_value=value)
    strategy.validate(S)
    return strategy


def _isolating_certificates(S: ConceptClass, k: int, budget: int = None):
    """Yield packed (mask, value, member index) per isolating C, |C| <= k.

    Enumeration is per input subset, smallest first: the members' tables
    masked to the subset are the certificate values they match, and each
    value matched by a single member is one isolating certificate.
    Values come in increasing order.
    """
    count = 0
    for s in range(k + 1):
        for points in itertools.combinations(S.domain.inputs(), s):
            mask = sum(1 << x for x in points)
            matched: dict = {}
            for row, f in enumerate(S.members):
                value = f.bits & mask
                matched[value] = -1 if value in matched else row
            for value in sorted(matched):
                row = matched[value]
                if row < 0:
                    continue
                count += 1
                if budget is not None and count > budget:
                    raise EnumerationBudgetExceeded(budget, count,
                                                    "isolating certificates")
                yield mask, value, row


def k_isolatable_members(S: ConceptClass, k: int) -> set:
    """Indices of members isolated by some certificate of size <= k.

    Used to pick game instances on which the k-bounded full-LP oracle
    and the unbounded double oracle solve the same matrix game (payoffs
    depend only on the isolated member).
    """
    found: set = set()
    for _, _, row in _isolating_certificates(S, k):
        found.add(row)
        if len(found) == len(S):
            break
    return found


def double_oracle_solve(S: ConceptClass, f_star: BooleanFunction,
                        target_value: float = 0.9,
                        value_trace: list = None) -> AliceStrategy:
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
            if value_trace is not None:
                value_trace.append(worst)
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
