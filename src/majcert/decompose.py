"""Majority-certificates decompositions: Boolean, robust, and real-valued,
plus the untrusted-oracle evaluator and the sample-complexity check.

A decomposition's m slots are i.i.d. draws from the game's optimal mix,
so they repeat heavily; each decomposition stores them as ``Slots``:
the distinct slots once, with one ref per position.  Per-slot checks run
once per distinct slot and sums weight by count, while untrusted
per-position input (the untrusted oracle's claims) is matched to slots
through the refs.

Construction is Monte Carlo against an optimal game strategy, but every
returned decomposition has had its defining property verified
exhaustively over the whole domain; a decomposition object in hand is
proof, not evidence.  Where an asymptotic bound would need an unknown
constant, a verify-then-escalate schedule replaces it, so the guarantees
rest on the exact checks rather than on the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .concepts import (BooleanFunction, ConceptClass, Distribution,
                       PConceptClass, RealFunction, Slots, distance_expected,
                       is_isolated, pointwise_counts, pointwise_majority,
                       restricted_gaps)
from .errors import (RejectedInputError, RetriesExhausted, VerificationDefect)
from .games import double_oracle_solve, solve_zero_sum
from .rng import substream
from .winnow import epsilon_cover, safe_winnow

FAIL = "FAIL"


def smallest_odd_at_least(x: float) -> int:
    m = max(1, math.ceil(x))
    return m if m % 2 == 1 else m + 1


# ---------------------------------------------------------------------------
# Boolean decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorityDecomposition:
    """m (certificate, member) slots, stored as distinct slots with
    per-position refs, each certificate isolating its member, whose
    pointwise majority is exactly the target."""

    target: BooleanFunction
    slots: Slots

    WIDTH = 20  # slots per input bit, see slot_bound

    def __post_init__(self):
        if self.m % 2 == 0:
            raise RejectedInputError("m must be odd")

    @classmethod
    def slot_bound(cls, S: ConceptClass) -> int:
        """The most slots a decomposition of S may hold: smallest odd
        >= WIDTH * n, or 1 for a singleton class."""
        return 1 if len(S) == 1 else smallest_odd_at_least(cls.WIDTH * S.domain.n)

    @property
    def m(self) -> int:
        return len(self.slots)

    def slot_sums(self) -> np.ndarray:
        return pointwise_counts(self.slots.map(itemgetter(1)))

    def majority(self) -> BooleanFunction:
        return pointwise_majority(self.slots.map(itemgetter(1)))

    def target_defect(self) -> Optional[str]:
        """Why the slot members do not combine to the target, or None."""
        if self.majority().bits != self.target.bits:
            return "pointwise majority differs from target"
        return None

    def validate(self, S: ConceptClass) -> None:
        for cert, f in self.slots.distinct:
            if not is_isolated(S, cert, f):
                raise VerificationDefect("decomposition slot is not isolated")
        defect = self.target_defect()
        if defect:
            raise VerificationDefect(defect)

    def max_certificate_size(self) -> int:
        return max(c.size for c, _ in self.slots.distinct)


class RobustDecomposition(MajorityDecomposition):
    """Majority decomposition with approximate-majority margins: slot sums
    reach at least ceil(2m/3) on target-1 inputs and at most floor(m/3)
    on target-0 inputs."""

    WIDTH = 60

    @property
    def upper_threshold(self) -> int:
        return math.ceil(2 * self.m / 3)

    @property
    def lower_threshold(self) -> int:
        return math.floor(self.m / 3)

    def target_defect(self) -> Optional[str]:
        sums = self.slot_sums()
        bad = np.flatnonzero(np.where(self.target.values() == 1, sums < self.upper_threshold,
                                      sums > self.lower_threshold))
        return f"margin failure at input {bad[0]}: sum {sums[bad[0]]}" if len(bad) else None

    def margin_histogram(self) -> dict:
        sums, counts = np.unique(self.slot_sums(), return_counts=True)
        return dict(zip(sums.tolist(), counts.tolist()))


def _sampled_decomposition(cls, S: ConceptClass, f_star: BooleanFunction, seed: int,
                           stream: int):
    """The first of 64 draws of m = cls.slot_bound(S) slots whose slots
    combine to the target, as a ``cls``."""
    strategy = double_oracle_solve(S, f_star)
    m = cls.slot_bound(S)
    for attempt in range(64):
        pairs = strategy.sample_pairs(substream(seed, stream, attempt), m)
        decomposition = cls(target=f_star, slots=Slots.group(pairs))
        if decomposition.target_defect() is None:
            decomposition.validate(S)
            return decomposition
    raise RetriesExhausted(f"{cls.__name__} sampling", "no verified draw in 64 attempts")


def majority_certificates(S: ConceptClass, f_star: BooleanFunction,
                          seed: int = 0) -> MajorityDecomposition:
    """Draw m = smallest odd >= 20n slots i.i.d. from the 0.9-optimal game
    strategy and keep the first draw whose majority reproduces the target
    exactly on all 2^n inputs (64 attempts)."""
    return _sampled_decomposition(MajorityDecomposition, S, f_star, seed, 0)


def robust_majority_certificates(S: ConceptClass, f_star: BooleanFunction,
                                 seed: int = 0) -> RobustDecomposition:
    """As majority_certificates with m = smallest odd >= 60n and the
    2m/3 - m/3 margins verified exhaustively."""
    return _sampled_decomposition(RobustDecomposition, S, f_star, seed, 2)


def untrusted_oracle_evaluate(D: RobustDecomposition, claims: Sequence[BooleanFunction],
                              x: int):
    """Evaluate the target at x from untrusted per-position claims.

    Claim i is checked against the certificate of position i's slot, so
    two copies of one slot may be answered differently.  Any claim
    inconsistent with its certificate yields FAIL; otherwise the answer
    is the (approximate-)majority bit of the claims at x.  When every
    claim actually belongs to the decomposition's class, consistency
    forces each claim to equal its slot function, so the output is never
    the wrong bit.
    """
    if len(claims) != D.m:
        raise RejectedInputError(f"expected {D.m} claims, got {len(claims)}")
    D.target.domain.check_input(x)
    for (cert, _), claim in zip(D.slots, claims):
        if not cert.consistent(claim):
            return FAIL
    total = sum((claim.bits >> x) & 1 for claim in claims)
    return 1 if 2 * total >= D.m else 0


# ---------------------------------------------------------------------------
# Occam / sample-size machinery shared by the real decomposition
# ---------------------------------------------------------------------------

def _far_members(S: PConceptClass, f: RealFunction, D: Distribution, eps: float) -> np.ndarray:
    """Members more than 11*eps from f in D-weighted L1; no sample enters."""
    return np.array([distance_expected(h, f, D) > 11.0 * eps for h in S], dtype=bool)


def _occam_holds(V: np.ndarray, far: np.ndarray, f: RealFunction, eps: float,
                 X: Iterable[int]) -> bool:
    """Every h in S with sup-dist <= eps from f on X is within 11*eps of
    f in D-weighted L1: no far member (mask ``far`` over the rows of V) is
    within eps of f on X.  With X empty every member is that close."""
    xs = sorted(set(X))
    return not (far & (restricted_gaps(V, xs, f.table[xs]) <= eps)).any()


def occam_check(S: PConceptClass, f: RealFunction, D: Distribution, eps: float,
                m: int, trials: int, seed: int = 0) -> float:
    """Fraction of i.i.d. m-samples X from D for which the Occam
    implication (see _occam_holds) holds over all of S."""
    if f not in S:
        raise RejectedInputError("hypothesis target must belong to the class")
    V, far = S.value_matrix(), _far_members(S, f, D, eps)
    passed = 0
    for t in range(trials):
        rng = substream(seed, 5, t)
        X = set(int(x) for x in D.sample(rng, m)) if m > 0 else set()
        if _occam_holds(V, far, f, eps, X):
            passed += 1
    return passed / trials if trials else 0.0


def schedule_start(size: int, beta: float) -> int:
    """First size of the doubling schedule for a class of ``size`` members,
    4*d*ceil(ln^2(1/beta))+8 with d = max(floor(log2 size), 1): shattering
    k inputs takes 2^k members, so d bounds every fat-shattering dimension,
    and the sample bound only grows with the dimension."""
    if not beta > 0:
        raise RejectedInputError("beta must be positive")
    return 4 * max(size.bit_length() - 1, 1) * math.ceil(math.log(1.0 / beta) ** 2) + 8


#: doublings of the sample size before ``find_valid_sample_size`` gives up
_MAX_DOUBLINGS = 40


def find_valid_sample_size(S: PConceptClass, f_star: RealFunction, D: Distribution,
                           beta: float, seed: int, stream: tuple = (),
                           start: Optional[int] = None) -> tuple:
    """Run the doubling schedule from ``start`` (schedule_start(|S|, beta)
    by default), at most _MAX_DOUBLINGS doublings, until a sampled
    constraint set validates.

    Returns (M, Y): the first size at which one of 8 seeded draws Y
    satisfies the exhaustive check that sup-closeness beta on Y forces
    D-mean closeness 11*beta, together with that Y.
    """
    if start is None:
        start = schedule_start(len(S), beta)
    V, far = S.value_matrix(), _far_members(S, f_star, D, beta)
    M = start
    for doubling in range(_MAX_DOUBLINGS):
        for r in range(8):
            rng = substream(seed, 6, *stream, doubling, r)
            Y = frozenset(int(x) for x in D.sample(rng, M))
            if _occam_holds(V, far, f_star, beta, Y):
                return M, Y
        M *= 2
    raise RetriesExhausted("stage-1 sample validation",
                           f"no valid sample up to {_MAX_DOUBLINGS} doublings")


# ---------------------------------------------------------------------------
# Real-valued decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealDecomposition:
    """m (function, constraint-set) slots, stored as distinct slots with
    per-position refs, whose slot-wise admissible averages stay within
    eps of the target in sup-norm."""

    target: RealFunction
    slots: Slots  # distinct (RealFunction, frozenset of inputs) pairs
    alpha: float
    eps: float
    realized_t: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.eps < 0:
            raise RejectedInputError("alpha and eps must be non-negative")

    @property
    def m(self) -> int:
        return len(self.slots)


def extremal_deviation(V: np.ndarray, target: np.ndarray, groups: Iterable,
                       tol: float) -> Optional[np.ndarray]:
    """Pointwise worst deviation from ``target`` of the mean over all
    slots when each slot may hold any admissible class member.

    ``V`` is the class value matrix and ``groups`` holds one
    (count, points, values) triple per distinct slot: the slot occurs
    count times, and a member is admissible when it is within ``tol`` of
    ``values`` at ``points``.  Slot choices decouple, so the extreme means
    are the count-weighted means of the per-slot pointwise extremes.
    None when some slot admits no member.
    """
    lo_sum = np.zeros(V.shape[1])
    hi_sum = np.zeros(V.shape[1])
    m = 0
    for count, points, values in groups:
        mask = restricted_gaps(V, points, values) <= tol
        if not mask.any():
            return None
        sub = V[mask]
        lo_sum += count * sub.min(axis=0)
        hi_sum += count * sub.max(axis=0)
        m += count
    lo = lo_sum / m
    hi = hi_sum / m
    return np.maximum(np.abs(target - hi), np.abs(target - lo))


def verify_real_decomposition(S: PConceptClass, D: RealDecomposition) -> bool:
    """Exact check of the decomposition guarantee over finite S: both
    extreme averages of the admissible slot members stay within eps of
    the target everywhere, and every slot admits some member."""
    groups = [(count, sorted(X), f.table[sorted(X)]) for count, (f, X) in D.slots.groups()]
    dev = extremal_deviation(S.value_matrix(), D.target.table, groups, D.alpha)
    return dev is not None and bool(np.all(dev <= D.eps))


@dataclass(frozen=True)
class RealSlotStrategy:
    """One Alice pure strategy of the real game: a member plus its
    constraint set, with the realized winnowing parameters."""

    f: RealFunction
    X: frozenset
    alpha: float
    t: float
    penalties: np.ndarray = field(compare=False)


def _real_alice_response(S: PConceptClass, f_star: RealFunction, D: Distribution,
                         beta: float, eps: float, seed: int, stream: int) -> RealSlotStrategy:
    """Best-response generator of the real game.

    Stage 1 draws a validated constraint sample Y from D (doubling
    schedule).  Stage 2 safe-winnows the surviving subclass at tolerance
    4*beta, yielding (f, Z) and the realized alpha = 0.4*beta/t with
    t = max(log2 of the 4*beta-cover size, 1).  The candidate strategy is
    kept only if its exactly-measured expected penalty against D is at
    most eps/2; otherwise the sample size doubles and the stage reruns.
    """
    V = S.value_matrix()
    star = f_star.table
    base = schedule_start(len(S), beta)
    for escalation in range(12):
        _, Y = find_valid_sample_size(S, f_star, D, beta, seed,
                                      stream=(stream, escalation),
                                      start=base * (2 ** escalation))

        ys = sorted(Y)
        survivors = np.flatnonzero(restricted_gaps(V, ys, star[ys]) <= beta)
        S_prime = PConceptClass(S.domain, [S[int(i)] for i in survivors])
        cover = epsilon_cover(S_prime, 4.0 * beta)
        t = max(math.log2(len(cover.cover)), 1.0)
        winnowed = safe_winnow(S_prime, f_star, Y, 4.0 * beta, cover)
        alpha = 0.4 * beta / t
        X = frozenset(Y) | winnowed.Z
        f = winnowed.f

        xs = sorted(X)
        admissible = restricted_gaps(V, xs, f.table[xs]) <= alpha
        pen = np.abs(V[admissible] - star[None, :]).max(axis=0)
        measured = float(D.weights @ pen)
        if measured <= eps / 2.0 + 1e-12:
            return RealSlotStrategy(f=f, X=X, alpha=alpha, t=t, penalties=pen)
    raise RetriesExhausted("alice response",
                           "measured penalty stayed above eps/2 after 12 escalations")


def real_majority_certificates(S: PConceptClass, f_star: RealFunction, eps: float,
                               seed: int = 0) -> RealDecomposition:
    """Real-valued majority-certificates decomposition of f_star over S.

    Runs a double-oracle game where Alice mixes over (member, constraint
    set) strategies produced by the stage-1/stage-2 generator and Bob
    plays inputs; Alice's penalty at x is the exact worst deviation
    |f_star(x) - g(x)| over her slot's admissible members.  The outer
    loop stops when Alice's mix holds Bob's best response to expected
    penalty eps/2.  Then m = ceil(20 n / eps^2) slots are sampled from
    the mix (m = 1 for a singleton class) and the decomposition is kept
    only once verify_real_decomposition passes (resampling up to 64
    times).  The decomposition's alpha is the smallest realized slot
    alpha, which only tightens the verified slots.  Stage-1 schedules
    start at schedule_start(|S|, beta): no fat dimension is computed.
    """
    if not (0 < eps):
        raise RejectedInputError("eps must be positive")
    S.index_of(f_star)
    beta = eps / 48.0
    n = S.domain.n

    if len(S) == 1:
        slot = RealSlotStrategy(f=f_star, X=frozenset(), alpha=0.4 * beta, t=1.0,
                                penalties=np.zeros(S.domain.size))
        decomposition = RealDecomposition(target=f_star,
                                          slots=Slots(((f_star, frozenset()),), (0,)),
                                          alpha=slot.alpha, eps=eps, realized_t=1.0)
        if not verify_real_decomposition(S, decomposition):
            raise VerificationDefect("singleton decomposition failed verification")
        return decomposition

    slots: list = []
    slot_keys: set = set()
    # bootstrap Bob at the first input so constraint sets grow from the
    # game dynamics rather than from a blanket uniform sample
    D = Distribution.point_mass(S.domain, 0)
    w = np.ones(0)
    worst = math.inf
    cap = 10 * len(S) + 10
    for iteration in range(cap):
        if slots:
            Pen = np.stack([s.penalties for s in slots])
            value, w, d = solve_zero_sum(-Pen)
            worst = -value
            if worst <= eps / 2.0 + 1e-12:
                break
            D = Distribution.from_weights(S.domain, d)
        slot = _real_alice_response(S, f_star, D, beta, eps, seed, iteration)
        key = (slot.f.key(), slot.X)
        if key in slot_keys:
            raise VerificationDefect("real game generated a duplicate strategy")
        slot_keys.add(key)
        slots.append(slot)
    else:
        raise RetriesExhausted("real game outer loop",
                               f"no eps/2 mix within {cap} iterations")

    alpha = min(s.alpha for s in slots)
    realized_t = max(s.t for s in slots)
    m = max(1, math.ceil(20.0 * n / (eps * eps)))
    weights = w / w.sum()
    for attempt in range(64):
        rng = substream(seed, 8, attempt)
        drawn = Slots.group(rng.choice(len(slots), size=m, p=weights).tolist())
        decomposition = RealDecomposition(target=f_star,
                                          slots=drawn.map(lambda i: (slots[i].f, slots[i].X)),
                                          alpha=alpha, eps=eps, realized_t=realized_t)
        if verify_real_decomposition(S, decomposition):
            return decomposition
    raise RetriesExhausted("real decomposition sampling",
                           "no verified decomposition in 64 resamples")
