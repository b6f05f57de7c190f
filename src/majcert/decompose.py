"""Majority-certificates decompositions: Boolean, robust, and real-valued,
plus the untrusted-oracle evaluator and the sample-complexity check.

Boolean decompositions boost the weak certifier deterministically
(oblivious rounding); real ones round the real game's optimal mix to the
fewest slot counts that hold its penalty bound.  Slots repeat, so each
decomposition stores them as ``Slots``: the distinct slots once, with one
ref per position.  Per-slot checks run once per distinct slot and sums
weight by count, while untrusted per-position input (the untrusted
oracle's claims) is matched to slots through the refs.

Every returned decomposition has had its defining property verified
exhaustively over the whole domain; a decomposition object in hand is
proof, not evidence.  Where an asymptotic bound would need an unknown
constant, a verify-then-escalate schedule replaces it, so the guarantees
rest on the exact checks rather than on the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .concepts import (BooleanFunction, ConceptClass, Distribution,
                       PConceptClass, RealFunction, Slots, distance_expected,
                       is_isolated, pointwise_counts, pointwise_majority,
                       restricted_gaps)
from .errors import (RejectedInputError, RetriesExhausted, VerificationDefect)
from .games import solve_zero_sum
from .rng import substream
from .winnow import epsilon_cover, safe_winnow, weak_certify

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

    #: the share of the slots that must agree with the target at every
    #: input, and the builder's rate: each slot that agrees with the
    #: target at x scales x's weight by e^-RATE
    SHARE, RATE = Fraction(1, 2), math.log(9)

    def __post_init__(self):
        if self.m % 2 == 0:
            raise RejectedInputError("m must be odd")

    @classmethod
    def slot_bound(cls, S: ConceptClass) -> int:
        """The most slots a decomposition of S may hold: 1 for a singleton
        class, else the smallest odd m with n ln 2 + m ln(factor) < 0.
        The builder's potential sum_x exp(-RATE (k(x) - SHARE t)) starts
        at 2^n, is at least 1 while some input lacks its share, and each
        round's slot, wrong on at most a tenth of the weight, scales it by
        at most factor (0.6 for majority, 0.818 for robust)."""
        factor = 0.1 * math.exp(cls.RATE * cls.SHARE) + 0.9 * math.exp(cls.RATE * (cls.SHARE - 1))
        return 1 if len(S) == 1 else smallest_odd_at_least(
            math.floor(S.domain.n * math.log(2) / -math.log(factor)) + 1)

    @property
    def m(self) -> int:
        return len(self.slots)

    def slot_sums(self) -> np.ndarray:
        return pointwise_counts(self.slots.map(itemgetter(1)))

    def target_defect(self) -> Optional[str]:
        """Why the slot members do not combine to the target, or None:
        fewer than SHARE of the slots agree with the target somewhere."""
        sums = self.slot_sums()
        agree = np.where(self.target.values() == 1, sums, self.m - sums)
        bad = np.flatnonzero(agree < math.ceil(self.SHARE * self.m))
        return f"{agree[bad[0]]} of {self.m} slots agree at input {bad[0]}" if len(bad) else None

    def validate(self, S: ConceptClass) -> None:
        for cert, f in self.slots.distinct:
            if not is_isolated(S, cert, f):
                raise VerificationDefect("decomposition slot is not isolated")
        defect = self.target_defect()
        if defect:
            raise VerificationDefect(defect)


class RobustDecomposition(MajorityDecomposition):
    """Majority decomposition with approximate-majority margins: slot sums
    reach at least ceil(2m/3) on target-1 inputs and at most floor(m/3)
    on target-0 inputs."""

    SHARE, RATE = Fraction(2, 3), math.log(4.5)

    def margin_histogram(self) -> dict:
        sums, counts = np.unique(self.slot_sums(), return_counts=True)
        return dict(zip(sums.tolist(), counts.tolist()))


def _boosted_decomposition(cls, S: ConceptClass, f_star: BooleanFunction):
    """Boost the weak certifier (oblivious rounding; Young 1995, Freund
    and Schapire 1997): round t asks weak_certify for a slot against
    D_t(x) ~ exp(-RATE k(x)), where k(x) counts the earlier slots that
    agree with the target at x.  The first odd round whose slots combine
    to the target returns them as a ``cls``; by ``slot_bound`` no more
    rounds are needed."""
    V, target = S.value_matrix(), f_star.values()
    agree = np.zeros(S.domain.size, dtype=np.int64)
    pairs: list = []
    for t in range(1, cls.slot_bound(S) + 1):
        D = Distribution.from_weights(S.domain, np.exp(-cls.RATE * (agree - agree.min())))
        pick = weak_certify(S, f_star, D)
        pairs.append((pick.C, pick.f))
        agree += V[S.index_of(pick.f)] == target
        if t % 2 and agree.min() >= math.ceil(cls.SHARE * t):
            decomposition = cls(target=f_star, slots=Slots.group(pairs))
            decomposition.validate(S)
            return decomposition
    raise VerificationDefect(f"{cls.__name__}: no round within the slot bound verified")


def majority_certificates(S: ConceptClass, f_star: BooleanFunction) -> MajorityDecomposition:
    """Boosted slots, more than half of which agree with the target on
    every input; at most slot_bound(S) of them."""
    return _boosted_decomposition(MajorityDecomposition, S, f_star)


def robust_majority_certificates(S: ConceptClass, f_star: BooleanFunction) -> RobustDecomposition:
    """As majority_certificates, with at least ceil(2m/3) of the m slots
    agreeing with the target on every input."""
    return _boosted_decomposition(RobustDecomposition, S, f_star)


def untrusted_oracle_evaluate(D: RobustDecomposition, claims: Sequence[BooleanFunction]):
    """Evaluate the target on every input from untrusted per-position claims.

    Claim i is checked against the certificate of position i's slot, so
    two copies of one slot may be answered differently; each distinct
    (slot, claim) pair is checked once.  Any claim inconsistent with its
    certificate yields FAIL; otherwise the answer is the function whose
    value at each x is the (approximate-)majority bit of the claims at
    x.  When every claim actually belongs to the decomposition's class,
    consistency forces each claim to equal its slot function, so the
    output is never the wrong bit.
    """
    if len(claims) != D.m:
        raise RejectedInputError(f"expected {D.m} claims, got {len(claims)}")
    pairs = Slots.group(zip(D.slots.refs, claims), key=lambda pair: (pair[0], pair[1].bits))
    if not all(D.slots.distinct[ref][0].consistent(claim) for ref, claim in pairs.distinct):
        return FAIL
    return pointwise_majority(pairs.map(itemgetter(1)))


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
    implication (see _occam_holds) holds over all of S; with no far
    member it holds for every X, so no sample is drawn."""
    if m < 0 or trials < 0:
        raise RejectedInputError("sample size and trial count must be non-negative")
    if f not in S:
        raise RejectedInputError("hypothesis target must belong to the class")
    V, far = S.value_matrix(), _far_members(S, f, D, eps)
    if not far.any():
        return 1.0 if trials else 0.0
    passed = sum(_occam_holds(V, far, f, eps, D.sample(substream(seed, 5, t), m).tolist())
                 for t in range(trials))
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

    def __post_init__(self):
        if self.alpha < 0 or self.eps < 0:
            raise RejectedInputError("alpha and eps must be non-negative")

    @property
    def m(self) -> int:
        return len(self.slots)

    @staticmethod
    def slot_bound(S: PConceptClass, eps: float) -> int:
        """The most slots of a decomposition of S at eps, the cap of the
        builder's rounding loop: ceil(20n/eps^2), 1 if |S| = 1."""
        return 1 if len(S) == 1 else math.ceil(20.0 * S.domain.n / (eps * eps))


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
    constraint set, with the realized winnowing tolerance alpha."""

    f: RealFunction
    X: frozenset
    alpha: float
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
        S_prime = S.take(survivors)
        cover = epsilon_cover(S_prime, 4.0 * beta)
        t = max(math.log2(len(cover.cover)), 1.0)
        winnowed = safe_winnow(S_prime, f_star, Y, 4.0 * beta, cover)
        alpha = 0.4 * beta / t
        X = frozenset(Y) | winnowed.Z
        f = winnowed.f

        xs = sorted(X)
        pen = extremal_deviation(V, star, [(1, xs, f.table[xs])], alpha)
        measured = float(D.weights @ pen)
        if measured <= eps / 2.0 + 1e-12:
            return RealSlotStrategy(f=f, X=X, alpha=alpha, penalties=pen)
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
    penalty eps/2.  The mix w is then rounded: for m = 1, 2, ... the
    largest-remainder counts of m*w (ties to the earlier slot) are kept at
    the first m whose mean penalty is at most eps at every input.  Each
    count is within 1 of m*w_j, so that happens by m = ceil(2s/eps) for a
    mix of support s; RealDecomposition.slot_bound(S, eps) caps the loop.
    The result is checked once by verify_real_decomposition.  Its alpha
    is the smallest realized slot alpha, which only tightens the slots.
    Stage-1 schedules start at schedule_start(|S|, beta): no fat
    dimension is computed.
    """
    if not (0 < eps):
        raise RejectedInputError("eps must be positive")
    S.index_of(f_star)
    beta = eps / 48.0

    slots: list = []
    slot_keys: set = set()
    # bootstrap Bob at the first input so constraint sets grow from the
    # game dynamics rather than from a blanket uniform sample
    D = Distribution.point_mass(S.domain, 0)
    cap = 10 * len(S) + 10
    for iteration in range(cap):
        if slots:
            Pen = np.stack([s.penalties for s in slots])
            value, w, d = solve_zero_sum(-Pen)
            if -value <= eps / 2.0 + 1e-12:
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
    weights = w / w.sum()
    for m in range(1, RealDecomposition.slot_bound(S, eps) + 1):
        counts = np.floor(m * weights).astype(np.int64)
        remainders = m * weights - counts
        counts[np.argsort(-remainders, kind="stable")[:m - counts.sum()]] += 1
        if (counts @ Pen).max() <= eps * m:
            break
    else:
        raise VerificationDefect("no rounding of the mix within the slot bound holds eps")
    drawn = Slots.group(np.repeat(np.arange(len(slots)), counts).tolist())
    decomposition = RealDecomposition(target=f_star,
                                      slots=drawn.map(lambda i: (slots[i].f, slots[i].X)),
                                      alpha=alpha, eps=eps)
    if not verify_real_decomposition(S, decomposition):
        raise VerificationDefect("rounded real decomposition failed verification")
    return decomposition
