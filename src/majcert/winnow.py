"""Certificate construction: weak certification, binary-search winnowing,
safe winnowing, L1 winnowing, greedy covers, and dimension computations.

The iterative procedures here make two engineering commitments:

* Determinism.  Search order is always members by class index, then
  inputs in increasing (lexicographic) order, so traces are
  bit-reproducible.
* Verification.  safe_winnow and l1_winnow check their own conclusions
  exhaustively before returning, through the postcondition routines
  (safe_winnow_defect, l1_winnow_defect) that the suite checks share; a
  run that fails its check raises VerificationDefect rather than
  reporting a result.

Class-wide distance masks go through concepts.restricted_gaps over the
class value matrix, and winnowing tracks members as rows of it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .concepts import (BooleanFunction, Certificate, ConceptClass,
                       Distribution, InputDomain, PConceptClass, RealFunction,
                       is_isolated, restricted_gaps)
from .errors import (DimensionCapExceeded, RejectedInputError,
                     VerificationDefect)

#: Hard cap on dimension search: sets larger than this raise instead of
#: silently truncating.
DIMENSION_CAP = 12


def ceil_log(value: int, base_num: int, base_den: int = 1) -> int:
    """Smallest integer t with (base_num/base_den)^t >= value, exactly."""
    if value <= 1:
        return 0
    t = 0
    num, den = 1, 1
    while num < value * den:
        num *= base_num
        den *= base_den
        t += 1
    return t


# ---------------------------------------------------------------------------
# Binary-search winnowing and weak certification
# ---------------------------------------------------------------------------

def binary_search_winnow(V: np.ndarray) -> tuple:
    """Winnow the distinct 0/1 rows of V down to one by halving.

    At each step: take the smallest input (column) on which the surviving
    rows disagree; pin it to 0 if that at least halves the survivor
    count, else pin it to 1.  Either branch halves, so at most
    ceil(log2 |V|) pins are made.  Returns (row, pins): the index of the
    one row of V matching every pin, and the (input, bit) pins in the
    order they were made.
    """
    survivors = np.arange(len(V))
    pins = []
    while len(survivors) > 1:
        sums = V.sum(axis=0, dtype=np.int64)
        splits = np.nonzero((sums > 0) & (sums < len(survivors)))[0]
        assert len(splits) > 0, "distinct rows must disagree somewhere"
        split_x = int(splits[0])
        zero_count = len(survivors) - int(sums[split_x])
        bit = 0 if 2 * zero_count <= len(survivors) else 1
        pins.append((split_x, bit))
        keep = V[:, split_x] == bit
        survivors = survivors[keep]
        V = V[keep]
    return int(survivors[0]), pins


@dataclass(frozen=True)
class WeakCertifyResult:
    """A member isolated by a small certificate and agreeing with the
    target on at least 90% of the distribution's mass."""

    f: BooleanFunction
    C: Certificate
    error_mass: float

    def validate(self, S: ConceptClass) -> None:
        if not is_isolated(S, self.C, self.f):
            raise VerificationDefect("weak certify result is not isolated")
        if self.error_mass > 0.1 + 1e-15:
            raise VerificationDefect(f"error mass {self.error_mass} exceeds 1/10")


def weak_certify(S: ConceptClass, f_star: BooleanFunction, D: Distribution) -> WeakCertifyResult:
    """Find (f, C) with S[C] = {f} and Pr_{x~D}[f != f_star] <= 1/10.

    Both stages read one boolean matrix, wrong = V != V[t], over the
    class's value matrix V and the target's row t.  Stage 1: a member is
    "heavy" when its error mass exceeds 0.1; pinning input x to f_star(x)
    kills every surviving member wrong at x.  The greedy step picks the
    input killing the most surviving heavy members (ties to the smallest
    input).  Averaging over x ~ D shows the best input kills more than a
    tenth of the heavy survivors, so at most ceil(log_{10/9} |S|) pins
    are needed; the greedy choice is a derandomization of the
    probabilistic existence argument and meets the same bound.  Stage 2
    binary-searches the survivors' rows of wrong, adding at most
    ceil(log2 |S|) more pins.  A pin (x, b) on wrong becomes the
    certificate output b ^ f_star(x).
    """
    t = S.index_of(f_star)
    V = S.value_matrix()
    wrong = V != V[t]
    heavy_weight = np.einsum("ij,j->i", wrong, D.weights) > 0.1  # no float copy of wrong
    survivor_mask = np.ones(len(S), dtype=bool)
    pins = []
    t_bound = ceil_log(len(S), 10, 9)
    while True:
        heavy = survivor_mask & heavy_weight
        if not heavy.any():
            break
        # survivors agree with the target on pinned inputs, so those kill none
        kills = wrong[heavy].sum(axis=0)
        best_x = int(np.argmax(kills))  # ties resolve to the smallest input
        if kills[best_x] <= 0:
            raise VerificationDefect("no input kills any heavy member")
        pins.append((best_x, 0))
        survivor_mask &= ~wrong[:, best_x]
        if len(pins) > t_bound:
            raise VerificationDefect("stage-1 greedy exceeded its log_{10/9} bound")
    survivors = np.flatnonzero(survivor_mask)
    row, stage2 = binary_search_winnow(wrong[survivors])
    C = Certificate.of(S.domain, [(x, b ^ f_star(x)) for x, b in pins + stage2])
    f = S[int(survivors[row])]
    error = float(D.weights @ (f.values() != f_star.values()))
    result = WeakCertifyResult(f=f, C=C, error_mass=error)
    result.validate(S)
    if C.size > t_bound + ceil_log(len(S), 2):
        raise VerificationDefect("certificate exceeds combined size bound")
    return result


def isolate_member(S: ConceptClass, f: BooleanFunction) -> Certificate:
    """Smallest-first greedy certificate pinning S down to the given f.

    Unlike binary_search_winnow this isolates a *chosen* member, so no
    logarithmic size bound applies (point-function classes force size
    2^n - 1 for the zero function).
    """
    S.index_of(f)
    C = Certificate.empty(S.domain)
    # each survivor's disagreements with f, as a bit mask over inputs
    survivors = [g.bits ^ f.bits for g in S if g.bits != f.bits]
    while survivors:
        disagree = 0
        for diff in survivors:
            disagree |= diff
        low = disagree & -disagree
        x = low.bit_length() - 1
        C = C.extended(x, (f.bits >> x) & 1)
        survivors = [diff for diff in survivors if not diff & low]
    return C


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverResult:
    """A subset of S within sup-distance epsilon of every member."""

    cover: PConceptClass
    epsilon: float

    def validate(self, S: PConceptClass) -> None:
        V = S.value_matrix()
        covered = np.zeros(len(S), dtype=bool)
        for g in self.cover:
            if g not in S:
                raise RejectedInputError("cover member outside the class")
            covered |= restricted_gaps(V, None, g.table) <= self.epsilon
        if not covered.all():
            raise RejectedInputError("cover does not cover the class")

    def progress(self, f: np.ndarray, xs: list) -> float:
        """M_{f,X}: the sum over cover members h of exp(-Delta_1(f,h)[X]),
        for f's table and X as the sorted list ``xs``."""
        C = self.cover.value_matrix()
        return sum(math.exp(-d) for d in restricted_gaps(C, xs, f[xs], "one").tolist())

    @property
    def k(self) -> float:
        """log2 |cover|, the halving budget of safe winnowing."""
        return math.log2(len(self.cover))


def epsilon_cover(S: PConceptClass, eps: float) -> CoverResult:
    """Greedy cover: repeatedly add the member covering the most
    still-uncovered members (ties to the lowest index)."""
    if eps < 0:
        raise RejectedInputError("epsilon must be non-negative")
    V = S.value_matrix()
    # covers[i, j] = member i covers member j
    covers = np.stack([restricted_gaps(V, None, row) <= eps for row in V])
    uncovered = np.ones(len(S), dtype=bool)
    chosen = []
    while uncovered.any():
        gains = (covers & uncovered[None, :]).sum(axis=1)
        i = int(np.argmax(gains))  # argmax takes the lowest index on ties
        chosen.append(i)
        uncovered &= ~covers[i]
    chosen.sort()
    return CoverResult(cover=PConceptClass(S.domain, [S[i] for i in chosen]), epsilon=eps)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def _levelwise_dim(n_inputs: int, class_size: int, shattered_of, cap: int) -> int:
    """Size of the largest input set that ``shattered_of`` accepts.

    ``shattered_of(candidates)`` returns, in order, the shattered ones
    among sorted input tuples of one size.  Shattered sets are closed
    under subsets, so a size-s candidate is tested only when all of its
    size-(s-1) subsets shattered (apriori pruning), and a set of size s
    needs 2^s members with distinct sign patterns, so a class of fewer
    members stops the search.  Raises DimensionCapExceeded if sets of
    size ``cap`` still shatter.
    """
    level = [()]  # the empty set is trivially shattered
    dim = 0
    while True:
        size = dim + 1
        if class_size < (1 << size):
            return dim
        known = set(level)
        cand = [A + (x,) for A in level for x in range(A[-1] + 1 if A else 0, n_inputs)
                if all(A[:i] + A[i + 1:] + (x,) in known for i in range(len(A)))]
        level = shattered_of(cand) if cand else []
        if not level:
            return dim
        dim = size
        if dim >= cap:
            raise DimensionCapExceeded(cap)


def _shattered_sets_of_size(V: np.ndarray, candidates: list) -> list:
    """Filter candidate input tuples of one size to those shattered by
    the 0/1 matrix V."""
    size = len(candidates[0])
    weights = (1 << np.arange(size)).astype(np.int64)
    cand = np.asarray(candidates, dtype=np.intp)  # (n_cand, size)
    codes = V.astype(np.int64)[:, cand]           # (|S|, n_cand, size)
    packed = codes @ weights                      # (|S|, n_cand)
    packed.sort(axis=0)
    distinct = 1 + (np.diff(packed, axis=0) != 0).sum(axis=0)
    mask = distinct == (1 << size)
    return [candidates[i] for i in np.nonzero(mask)[0]]


def vc_dim(S: ConceptClass, cap: int = DIMENSION_CAP) -> int:
    """Exact VC dimension by level-wise brute force (see _levelwise_dim).
    Raises DimensionCapExceeded if sets of size ``cap`` still shatter."""
    V = S.value_matrix()
    return _levelwise_dim(S.domain.size, len(S),
                          lambda cand: _shattered_sets_of_size(V, cand), cap)


def _margin_pairs(values: np.ndarray, gamma: float) -> list:
    """Candidate (low-set, high-set) witness splits at one input.

    A witness level r yields low = {f: f(x) <= r - gamma} and
    high = {f: f(x) >= r + gamma}.  Any real r with both sides non-empty
    is dominated (low equal, high no smaller) by the level anchored at
    v_a + gamma where v_a is the largest member value at most r - gamma,
    so levels anchored at member values form a sufficient witness grid
    for finite classes.  Among anchors sharing a high set only the one
    with the largest low set is kept.  Both sets are read off prefix
    masks of the members sorted by value.
    """
    vals = [float(v) for v in values]
    order = sorted(range(len(vals)), key=lambda i: vals[i])
    sorted_vals = [vals[i] for i in order]
    prefix = [0]  # prefix[k]: the k members of smallest value
    for i in order:
        prefix.append(prefix[-1] | (1 << i))
    full = prefix[-1]
    raw = []
    for va in sorted(set(vals)):
        low = prefix[bisect_right(sorted_vals, va)]
        high = full ^ prefix[bisect_left(sorted_vals, va + 2.0 * gamma)]
        if high:  # low holds va's own member
            raw.append((low, high))
    pairs = []
    for j, (low, high) in enumerate(raw):
        # low grows with the anchor, so the last pair of each high run wins
        if j + 1 < len(raw) and raw[j + 1][1] == high:
            continue
        pairs.append((low, high))
    return pairs


def _fat_shatters(splits: list, A: tuple, members: int) -> bool:
    """Is the input set A gamma-shattered, given each input's witness
    splits (from _margin_pairs) over a class of ``members`` members?"""

    def descend(depth: int, cells: list) -> bool:
        if depth == len(A):
            return True
        # each cell after this split must still hold one member per sign
        # pattern of the inputs after it
        need = 1 << (len(A) - depth - 1)
        for low, high in splits[A[depth]]:
            nxt = []
            for mask in cells:
                a = mask & low
                b = mask & high
                if a.bit_count() < need or b.bit_count() < need:
                    break
                nxt.append(a)
                nxt.append(b)
            else:
                if descend(depth + 1, nxt):
                    return True
        return False

    return descend(0, [(1 << members) - 1])


def fat_shattering_dim(S: PConceptClass, gamma: float, cap: int = DIMENSION_CAP) -> int:
    """Exact gamma-fat-shattering dimension by level-wise search.

    A is gamma-shattered when one witness split per input (from the
    grid of _margin_pairs) cuts S into 2^|A| non-empty cells, one per
    sign pattern.  Two cuts shrink the search without changing its answer:

    * Apriori (_levelwise_dim): A's witnesses serve every subset of A,
      so a candidate whose one-smaller subsets do not all shatter cannot
      shatter, nor can A when |S| < 2^|A|.
    * Cell sizes: low and high sets are disjoint (gamma > 0), so the
      final cells are disjoint and each cell left after splitting k
      inputs of A needs 2^(|A|-k) members.  Later splits only shrink
      cells, so a witness choice leaving a smaller cell is abandoned.

    Same cap discipline as vc_dim.
    """
    if not gamma > 0:
        raise RejectedInputError("gamma must be positive")
    V = S.value_matrix()
    splits = [_margin_pairs(V[:, x], gamma) for x in S.domain.inputs()]
    return _levelwise_dim(S.domain.size, len(S),
                          lambda cand: [A for A in cand if _fat_shatters(splits, A, len(S))],
                          cap)


# ---------------------------------------------------------------------------
# Safe winnowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SafeWinnowStep:
    """One iteration of safe winnowing: the split input, whether f moved
    to g, and the surviving cover-intersection size."""

    z: int
    replaced: bool
    cover_survivors: int


@dataclass(frozen=True)
class SafeWinnowResult:
    f: RealFunction
    Z: frozenset
    trace: tuple


def safe_winnow_defect(S: PConceptClass, f: RealFunction, f_star: RealFunction,
                       Y: Iterable[int], Z: Iterable[int], eps: float,
                       cover_size: int) -> Optional[str]:
    """Why (f, Z) is not a safe-winnowing outcome on (S, f_star, Y, eps)
    with a cover of ``cover_size`` members, or None.  Checked exhaustively
    over S x domain, with k = log2 cover_size and delta = eps/(5 max(k, 1)):
    |Z| <= k; (i) every g in S within delta of f on Y u Z is within 3*eps
    of f everywhere; (ii) f is within eps/5 of f_star on Y."""
    k = math.log2(cover_size)
    if len(Z) > k + 1e-12:
        return "safe winnow added more points than log2|cover|"
    V = S.value_matrix()
    constraint = sorted(set(Y) | set(Z))
    close = restricted_gaps(V, constraint, f.table[constraint]) <= eps / (5.0 * max(k, 1.0))
    if (close & (restricted_gaps(V, None, f.table) > 3.0 * eps)).any():
        return "safe winnow conclusion (i) fails"
    ys = sorted(Y)
    if restricted_gaps(f_star.table[None, :], ys, f.table[ys])[0] > eps / 5.0:
        return "safe winnow conclusion (ii) fails"
    return None


def safe_winnow(S: PConceptClass, f_star: RealFunction, Y: Iterable[int], eps: float,
                cover: CoverResult) -> SafeWinnowResult:
    """Safely isolate a function of S under sup-norm constraints.

    Iteratively maintains (S_t, f_t, constraint set), S_t as a mask over
    the rows of S's value matrix and f_t as a row; whenever some g in S_t
    agrees with f_t within delta = eps/(5k) on Y and the added points yet
    differs by more than 3*eps somewhere, the class is split at the
    midpoint value v of the disagreement input and the half with the
    *smaller* cover-intersection is kept (that is what halves the cover
    intersection and caps |Z| at k = log2 |cover|).  Search order: members
    by index, inputs in increasing order.

    The result must pass :func:`safe_winnow_defect`, the postcondition
    the winnow suite's check also applies, or VerificationDefect is
    raised with its reason.

    A singleton cover makes k = 0; delta is then eps/5 (k treated as
    max(k, 1)), sound because the loop body never runs with one cover
    survivor.
    """
    if not eps > 0:
        raise RejectedInputError("eps must be positive")
    t = S.index_of(f_star)
    cover.validate(S)
    Y = frozenset(S.domain.check_input(x) for x in Y)
    delta = eps / (5.0 * max(cover.k, 1.0))

    V = S.value_matrix()
    in_cover = np.zeros(len(S), dtype=bool)
    in_cover[[S.index_of(g) for g in cover.cover]] = True
    current = np.ones(len(S), dtype=bool)
    Z: set = set()
    trace = []
    while np.count_nonzero(current & in_cover) > 1:
        constraint = sorted(Y | Z)
        close = restricted_gaps(V, constraint, V[t, constraint]) <= delta
        far = restricted_gaps(V, None, V[t]) > 3.0 * eps
        candidates = np.flatnonzero(current & close & far)
        if not len(candidates):
            break
        g = int(candidates[0])
        z = int(np.argmax(np.abs(V[t] - V[g]) > 3.0 * eps))
        Z.add(z)
        v = 0.5 * (float(V[t, z]) + float(V[g, z]))
        low = current & (V[:, z] < v)
        high = current & ~low
        current = (low if np.count_nonzero(low & in_cover) < np.count_nonzero(high & in_cover)
                   else high)
        replaced = not current[t]
        if replaced:
            t = g
        trace.append(SafeWinnowStep(z=z, replaced=replaced,
                                    cover_survivors=int(np.count_nonzero(current & in_cover))))

    result = SafeWinnowResult(f=S[t], Z=frozenset(Z), trace=tuple(trace))
    defect = safe_winnow_defect(S, result.f, f_star, Y, result.Z, eps, len(cover.cover))
    if defect:
        raise VerificationDefect(defect)
    return result


# ---------------------------------------------------------------------------
# L1 winnowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L1WinnowStep:
    y: int
    replaced: bool
    progress: float


@dataclass(frozen=True)
class L1WinnowResult:
    f: RealFunction
    X: frozenset
    progress_log: tuple  # M values, starting with the initial |cover|
    trace: tuple  # one L1WinnowStep per adjoined input


def l1_winnow_defect(S: PConceptClass, f: RealFunction, X: Iterable[int], eps: float,
                     progress_log) -> Optional[str]:
    """Why (f, X) with this progress log is not an L1-winnowing outcome
    on (S, eps), or None: each logged step must shrink M by a factor
    below 1 - eps/20, and every g in S with Delta_1(f,g)[X] <= 0.4 eps
    must be within 2 eps of f everywhere (checked over S x domain)."""
    if any(b >= (1.0 - eps / 20.0) * a for a, b in zip(progress_log, progress_log[1:])):
        return "L1 winnow step failed to shrink the measure"
    V = S.value_matrix()
    xs = sorted(X)
    close = restricted_gaps(V, xs, f.table[xs], "one") <= 0.4 * eps
    if (close & (restricted_gaps(V, None, f.table) > 2.0 * eps)).any():
        return "L1 winnow postcondition fails"
    return None


def l1_winnow(S: PConceptClass, eps: float, cover: CoverResult) -> L1WinnowResult:
    """Winnow under L1 constraints via the exponential progress measure.

    Weight each cover member h by P_{f,X}(h) = exp(-Delta_1(f,h)[X]) and
    track M_{f,X}, the sum of those weights.  While some g in S has
    weight at least e^{-0.4 eps} under (f, X) yet |f(y)-g(y)| > 2 eps at
    some input y, adjoin y and move to whichever of (f, X u {y}),
    (g, X u {y}) has the smaller measure.  Each step shrinks M by a
    factor below 1 - eps/20, which bounds |X| by O(log|cover| / eps).
    Such a y alone puts g more than 0.4 eps from f in L1, so it lies
    outside X and the loop ends.  f is tracked as a row of S's value
    matrix, members are searched by index, and the result's ``trace``
    holds one step per adjoined input.

    The result must pass :func:`l1_winnow_defect`, the postcondition the
    l1winnow suite's check also applies, or VerificationDefect is raised
    with its reason.
    """
    if not eps > 0:
        raise RejectedInputError("eps must be positive")
    cover.validate(S)
    V = S.value_matrix()
    f = 0  # the source construction starts anywhere; lowest index is canonical
    X: set = set()
    log = [cover.progress(V[f], [])]
    steps = []
    while True:
        xs = sorted(X)
        close = restricted_gaps(V, xs, V[f, xs], "one") <= 0.4 * eps
        candidates = np.flatnonzero(close & (restricted_gaps(V, None, V[f]) > 2.0 * eps))
        if not len(candidates):
            break
        g = int(candidates[0])
        y = int(np.argmax(np.abs(V[f] - V[g]) > 2.0 * eps))
        X.add(y)
        xs = sorted(X)
        M_f, M_g = cover.progress(V[f], xs), cover.progress(V[g], xs)
        replaced = M_g < M_f
        if replaced:
            f = g
        log.append(M_g if replaced else M_f)
        steps.append(L1WinnowStep(y=y, replaced=replaced, progress=log[-1]))

    result = L1WinnowResult(f=S[f], X=frozenset(X), progress_log=tuple(log),
                            trace=tuple(steps))
    defect = l1_winnow_defect(S, result.f, result.X, eps, result.progress_log)
    if defect:
        raise VerificationDefect(defect)
    return result


# ---------------------------------------------------------------------------
# The L2 impossibility family
# ---------------------------------------------------------------------------

class L2Family:
    """The family of step functions f(x) = a_x / n with non-negative
    integer numerators summing to n^2 (so each a_x <= n).

    ``corrupt`` realizes the witness that no L2 analogue of L1 winnowing
    can hold: it perturbs f into another family member that is within
    1/sqrt(n) of f in L2 over the observed set X yet at sup-distance
    exactly 1.
    """

    def __init__(self, n: int):
        if n < 2:
            raise RejectedInputError("family requires n >= 2")
        self.n = n
        self.domain = InputDomain(n)

    def member(self, numerators) -> RealFunction:
        arr = np.asarray(list(numerators), dtype=np.int64)
        if arr.shape != (self.domain.size,):
            raise RejectedInputError("need one numerator per input")
        if np.any(arr < 0) or np.any(arr > self.n) or int(arr.sum()) != self.n * self.n:
            raise RejectedInputError("numerators must lie in [0,n] and sum to n^2")
        return RealFunction(self.domain, arr / float(self.n))

    def enumerate_class(self) -> PConceptClass:
        """Explicit enumeration; feasible only for n <= 3."""
        if self.n > 3:
            raise RejectedInputError("explicit enumeration only for n <= 3; sample instead")
        members = []
        size = self.domain.size
        target = self.n * self.n

        def rec(pos: int, remaining: int, acc: list):
            if pos == size:
                if remaining == 0:
                    members.append(self.member(acc))
                return
            slots_left = size - pos - 1
            lo = max(0, remaining - slots_left * self.n)
            hi = min(self.n, remaining)
            for a in range(lo, hi + 1):
                rec(pos + 1, remaining - a, acc + [a])

        rec(0, target, [])
        return PConceptClass(self.domain, members)

    def sample_member(self, rng: np.random.Generator) -> RealFunction:
        """Random member: n^2 unit increments at uniform inputs, redrawing
        any input already holding n increments."""
        arr = np.zeros(self.domain.size, dtype=np.int64)
        for _ in range(self.n * self.n):
            while True:
                x = int(rng.integers(self.domain.size))
                if arr[x] < self.n:
                    arr[x] += 1
                    break
        return self.member(arr)

    def sample_class(self, count: int, rng: np.random.Generator) -> PConceptClass:
        return PConceptClass(self.domain, [self.sample_member(rng) for _ in range(count)])

    def corrupt(self, f: RealFunction, X: Iterable[int]) -> RealFunction:
        """Return g in the family with Delta_2(f,g)[X] <= 1/sqrt(n) and
        Delta_inf(f,g) = 1.

        Z is the first n inputs where f > 0; y is the first input outside
        X where f = 0 (it exists whenever |X| < 2^n - n^2, and may exist
        for larger X too; absence is rejected).
        """
        if f.domain != self.domain:
            raise RejectedInputError("function from a different domain")
        Xs = {self.domain.check_input(x) for x in X}
        Z = [x for x in self.domain.inputs() if f(x) > 0.0][: self.n]
        assert len(Z) == self.n, "sum n of values <= 1 forces >= n positive inputs"
        y = next((x for x in self.domain.inputs() if x not in Xs and f(x) == 0.0), None)
        if y is None:
            raise RejectedInputError(
                "no unobserved zero of f: pigeonhole precondition |X| < 2^n - n^2 violated")
        numer = np.rint(f.table * self.n).astype(np.int64)
        numer[y] = self.n
        for x in Z:
            numer[x] -= 1
        return self.member(numer)


def l2_counterexample(n: int) -> L2Family:
    """The generator/corruptor pair witnessing L2 non-winnowability."""
    return L2Family(n)
