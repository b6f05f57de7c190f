"""Certificate construction: weak certification, binary-search winnowing,
safe winnowing, L1 winnowing, greedy covers, and dimension computations.

The iterative procedures here make two engineering commitments:

* Determinism.  Search order is always members by class index, then
  inputs in increasing (lexicographic) order, so results are
  bit-reproducible.
* Verification.  safe_winnow and l1_winnow check their own conclusions
  exhaustively before returning, through the postcondition routines
  (safe_winnow_defect, l1_winnow_defect) that the suite checks share; a
  run that fails its check raises VerificationDefect rather than
  reporting a result.

Class-wide distance masks go through concepts.restricted_gaps (covers:
pairwise_gaps) over the class value matrix, and winnowing tracks members
as rows of it.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .concepts import (BLOCK_CELLS, BooleanFunction, Certificate, ConceptClass,
                       Distribution, InputDomain, PConceptClass, RealFunction,
                       is_isolated, pairwise_gaps, restricted_gaps)
from .errors import (DimensionCapExceeded, EnumerationBudgetExceeded,
                     RejectedInputError, VerificationDefect)

#: Hard cap on dimension search: sets larger than this raise instead of
#: silently truncating.
DIMENSION_CAP = 12

#: Most candidates one level of the dimension search may join before it
#: raises instead of exhausting memory or time.  A level of size s joins
#: at most C(2^n, s) sets, and s <= log2 |S|, so the dims suite's default
#: bounds (n <= 5, |S| <= 32) stay under C(32, 5) = 201,376.
DIMENSION_BUDGET = 250_000


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
        if not all(g in S for g in self.cover):
            raise RejectedInputError("cover member outside the class")
        if not (pairwise_gaps(self.cover.value_matrix(), S.value_matrix())
                <= self.epsilon).any(axis=0).all():
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
    still-uncovered members (ties to the lowest index), found lazily from
    a heap of stale gains."""
    if eps < 0:
        raise RejectedInputError("epsilon must be non-negative")
    V = S.value_matrix()
    # bit j of covers[i]: member i covers member j
    covers = [int.from_bytes(row.tobytes(), "little") for row in
              np.packbits(pairwise_gaps(V, V) <= eps, axis=1, bitorder="little")]
    # (-gain bound, index): gains only fall, so a popped entry whose fresh
    # gain still ranks at or above the heap top is the greedy choice
    bounds = [(-row.bit_count(), i) for i, row in enumerate(covers)]
    heapq.heapify(bounds)
    uncovered, chosen = (1 << len(S)) - 1, []
    while uncovered:
        _, i = heapq.heappop(bounds)
        entry = (-(covers[i] & uncovered).bit_count(), i)
        if bounds and entry > bounds[0]:
            heapq.heappush(bounds, entry)
            continue
        chosen.append(i)
        uncovered &= ~covers[i]
    chosen.sort()
    return CoverResult(cover=PConceptClass(S.domain, [S[i] for i in chosen]), epsilon=eps)


# ---------------------------------------------------------------------------
# Dimensions
# ---------------------------------------------------------------------------

def extension_blocks(parents: np.ndarray, size: int, block: int):
    """Yield, in order and at most ``block`` at a time, the rows of ``parents``
    (ascending inputs of ``size``) extended by an input above their last:
    child t of parent p, below ends[p] (cumulative), appends size - ends[p] + t."""
    last = parents[:, -1] if parents.shape[1] else np.full(len(parents), -1)
    ends = np.cumsum(size - 1 - last)
    for start in range(0, int(ends[-1]), block):
        t = np.arange(start, min(start + block, int(ends[-1])))
        parent = np.searchsorted(ends, t, side="right")
        yield np.column_stack([parents[parent], size - ends[parent] + t])


_SEARCHES: ContextVar = ContextVar("dimension_searches")


@contextmanager
def shared_searches():
    """A scope (also a decorator) in which ``_class_dimension`` builds each
    class's witness grid once per margin, ``_dimension`` searches each
    exact grid once and ``games._first_certificates`` enumerates each
    class's certificates once per k; nested scopes share the outermost
    memo, dropped on its exit.  A call that raises stores nothing."""
    token = _SEARCHES.set(_SEARCHES.get({}))
    try:
        yield
    finally:
        _SEARCHES.reset(token)


def _arrays_key(*arrays: np.ndarray) -> tuple:
    """Arrays as a memo key: their dtypes and shapes and one SHA-256 digest
    of their contiguous bytes, so a memo holds no copy of them."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a))
    return *((a.dtype, a.shape) for a in arrays), digest.digest()


def _class_dimension(V: np.ndarray, gamma: float) -> int:
    """``_dimension`` of the witness grid of the member-by-input matrix V at
    margin gamma, memoized by V's ``_arrays_key`` and gamma within
    ``shared_searches``, so the grid is built only on a miss.  A 0/1
    (uint8) V keys every gamma <= 1/2 as 1/2: its grid is then the same
    one (zeros | ones) split per non-constant input."""
    if V.dtype == np.uint8 and gamma <= 0.5:
        gamma = 0.5
    memo = _SEARCHES.get(None)
    if memo is None:
        return _dimension(_witness_splits(V, gamma), len(V))
    key = ("matrix", *_arrays_key(V), gamma)
    if key not in memo:
        memo[key] = _dimension(_witness_splits(V, gamma), len(V))
    return memo[key]


def _dimension(grid: tuple, members: int) -> int:
    """Size of the largest input set that ``members`` members shatter over
    the _witness_splits ``grid`` (see _fat_shatters), memoized by its
    ``_arrays_key`` within ``shared_searches``, so margins with equal grids
    share one search.  Level 1 is read off the grid; later levels'
    candidates are counted before any is built, level 2's before the
    kernel's codes or bitmasks: over DIMENSION_BUDGET raises
    EnumerationBudgetExceeded, as do over DIMENSION_BUDGET split choices
    in one level of the multi-split search.  A
    size-s set needs 2^s members; a shattered set of size DIMENSION_CAP
    raises DimensionCapExceeded."""
    memo, key = _SEARCHES.get({}), ("grid", members, *_arrays_key(*grid))
    if key in memo:
        return memo[key]
    # level 1: the distinct inputs of the ascending xs, each of whose kept
    # splits has two non-empty sides (np.unique would import numpy.ma)
    xs = grid[1]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    sets, dim = xs[first][:, None], 0
    while len(sets):
        dim += 1
        if dim >= DIMENSION_CAP:
            raise DimensionCapExceeded(DIMENSION_CAP)
        if members < 2 << dim:
            break
        _within_budget(int((len(grid[0]) - 1 - sets[:, -1]).sum()), dim + 1)
        if dim == 1:  # a grid of one split per input goes to the numpy kernel
            single = len(sets) == len(grid[1])
            splits = _split_codes(grid, members) if single else _split_masks(grid, members)
        sets = (_shattered_extensions(splits, sets) if single
                else _fat_extensions(splits, sets, members))
    memo[key] = dim
    return dim


def _within_budget(count: int, size: int, what: str = "dimension candidates") -> None:
    """Raise when one search level joins over DIMENSION_BUDGET candidates,
    or visits over DIMENSION_BUDGET split choices."""
    if count > DIMENSION_BUDGET:
        raise EnumerationBudgetExceeded(DIMENSION_BUDGET, count, f"{what} of size {size}")


def _witness_splits(V: np.ndarray, gamma: float) -> tuple:
    """The witness grid (rank, xs, low, high) of the member-by-input matrix
    V at margin gamma > 0: rank[x, j] is member j's place in the stable sort
    of column x, and split t at input xs[t] (ascending; an input may have
    several) puts the members ranked <= low[t] low, f(x) <= r - gamma, and
    those ranked >= high[t] high, f(x) >= r + gamma.  Anchors r = v + gamma
    at member values v dominate the other levels; of those sharing a high
    set the last is kept, so a 0/1 class at gamma <= 1/2 gets one split per
    non-constant input.  Built BLOCK_CELLS // members inputs at a time; with
    2 or more members, over DIMENSION_BUDGET inputs raise before a sort."""
    members, inputs = V.shape
    rank = np.zeros((inputs, members), np.min_scalar_type(members))
    if members < 2:
        return rank, *(np.zeros(0, np.intp),) * 3
    _within_budget(inputs, 1)
    parts, step = [], max(1, BLOCK_CELLS // members)  # each block's (xs, low, high)
    for k in range(0, inputs, step):
        order = V[:, k:k + step].argsort(axis=0, kind="stable").T
        cols = np.arange(k, k + len(order))[:, None]
        values, rank[cols, order] = V.T[cols, order], np.arange(members)
        # each anchor's first high rank, a stable sort putting its threshold before equal values
        merged = np.concatenate([values + 2.0 * gamma, values], axis=1).argsort(kind="stable")
        first = np.nonzero(merged < members)[1].reshape(order.shape) - np.arange(members)
        # keep anchor i when i + 1 has another high set, hence another value: low is ranks <= i
        x, i = np.nonzero(first[:, :-1] != first[:, 1:])
        parts.append((x + k, i, first[x, i]))
    return rank, *map(np.concatenate, zip(*parts))


def _split_codes(grid: tuple, members: int) -> np.ndarray:
    """Per input and member of a single-split grid: 1 high, 0 low, 2^16 on neither side."""
    rank, xs, low, high = grid
    rows, codes = rank[xs], np.full((len(rank), members), 1 << 16, np.int32)
    codes[xs] = np.where(rows >= high[:, None], 1, (rows > low[:, None]) << 16)
    return codes


def _split_masks(grid: tuple, members: int) -> list:
    """Per input, its splits' (low, high) member bitmasks, packed BLOCK_CELLS cells at a time."""
    rank, xs, low, high = grid
    splits, step = [[] for _ in rank], max(1, BLOCK_CELLS // members)
    for k in range(0, len(xs), step):
        rows, t = rank[xs[k:k + step]], slice(k, k + step)
        sides = np.concatenate([rows <= low[t, None], rows >= high[t, None]])
        masks = [int.from_bytes(row.tobytes(), "little")
                 for row in np.packbits(sides, axis=1, bitorder="little")]
        for x, pair in zip(xs[t].tolist(), zip(masks[:len(rows)], masks[len(rows):])):
            splits[x].append(pair)
    return splits


def _shattered_extensions(codes: np.ndarray, sets: np.ndarray) -> np.ndarray:
    """The extensions of the rows of ``sets`` that shatter, in numpy blocks
    of at most BLOCK_CELLS (candidate, member) codes: a member's code on a
    set ORs its _split_codes, the i-th input's shifted by i, and an s-set
    shatters when its codes below 2^s take all 2^s values."""
    size, members = codes.shape
    patterns = 2 << sets.shape[1]
    level = [np.zeros((0, sets.shape[1] + 1), dtype=np.intp)]
    for children in extension_blocks(sets, size, max(1, BLOCK_CELLS // members)):
        block = np.zeros((len(children), members), dtype=np.int32)
        for i, column in enumerate(children.T):
            block |= codes[column] << i
        ranked = np.sort(block, axis=1)
        fresh = ranked < patterns
        fresh[:, 1:] &= ranked[:, 1:] != ranked[:, :-1]
        level.append(children[np.count_nonzero(fresh, axis=1) == patterns])
    return np.concatenate(level)


def _fat_extensions(splits: list, sets: np.ndarray, members: int) -> np.ndarray:
    """The rows of ``sets`` extended by a later input that shatter (_fat_shatters),
    tested only when every one-smaller subset is a row of ``sets`` (Apriori).
    The split choices visited are summed over the level's sets."""
    known = set(map(tuple, sets.tolist()))
    level, visited = [], 0
    for A in map(tuple, sets.tolist()):
        tails = [x for x in range(A[-1] + 1, len(splits))
                 if all(A[:i] + A[i + 1:] + (x,) in known for i in range(len(A)))]
        found, visited = _fat_shatters(splits, A, tails, members, visited)
        level += [A + (x,) for x in found]
    return np.array(level, dtype=np.intp).reshape(len(level), sets.shape[1] + 1)


def _fat_shatters(splits: list, A: tuple, tails: list, members: int,
                  visited: int) -> tuple:
    """(the inputs x of ``tails``, in order, for which A + (x,) is
    shattered by a class of ``members`` members, given each input's
    witness splits; ``visited`` plus the split choices this search
    visits).  A choice of one split per input of A leaves one cell
    per sign pattern of A, shared by all tails, and x completes the set
    when one of its splits cuts every cell into two non-empty halves.
    Low and high sets are disjoint, so the final cells are too, and a
    choice leaving a cell of fewer than 2^(|A|+1-k) members after k
    splits cannot finish: it is abandoned.  Each split tried for an input
    of A is one choice; past DIMENSION_BUDGET choices visited,
    EnumerationBudgetExceeded is raised."""
    left = set(tails)
    stack = [(0, [(1 << members) - 1], 0)]  # (depth, cells, next split of A[depth])
    while stack and left:
        depth, cells, k = stack.pop()
        if depth == len(A):
            for x in list(left):
                for low, high in splits[x]:
                    for c in cells:
                        if not c & low or not c & high:
                            break
                    else:
                        left.remove(x)
                        break
            continue
        if k == len(splits[A[depth]]):
            continue
        visited += 1
        _within_budget(visited, len(A) + 1, "split choices")
        stack.append((depth, cells, k + 1))  # taken once this split's choices are done
        low, high = splits[A[depth]][k]
        need = 1 << (len(A) - depth)
        nxt = []
        for mask in cells:
            a = mask & low
            b = mask & high
            if a.bit_count() < need or b.bit_count() < need:
                break
            nxt.append(a)
            nxt.append(b)
        else:
            stack.append((depth + 1, nxt, 0))
    return [x for x in tails if x not in left], visited


def vc_dim(S: ConceptClass) -> int:
    """Exact VC dimension by _dimension over the rank-threshold grid at
    margin 1/2: one (zeros, ones) split per non-constant input, the same
    arrays as at 1/4, so one grid and one search serve both
    (_class_dimension).  Raises as _dimension does."""
    return _class_dimension(S.value_matrix(), 0.5)


def fat_shattering_dim(S: ConceptClass | PConceptClass, gamma: float) -> int:
    """Exact gamma-fat-shattering dimension by _dimension of any class with
    values in [0, 1], a Boolean one by its 0/1 tables: A is gamma-shattered
    when one rank-threshold split per input of A (_witness_splits) cuts S
    into 2^|A| non-empty cells.  Raises as _dimension does."""
    if not gamma > 0:
        raise RejectedInputError("gamma must be positive")
    return _class_dimension(S.value_matrix(), gamma)


# ---------------------------------------------------------------------------
# Safe winnowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SafeWinnowResult:
    f: RealFunction
    Z: frozenset


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
        if not current[t]:
            t = g

    result = SafeWinnowResult(f=S[t], Z=frozenset(Z))
    defect = safe_winnow_defect(S, result.f, f_star, Y, result.Z, eps, len(cover.cover))
    if defect:
        raise VerificationDefect(defect)
    return result


# ---------------------------------------------------------------------------
# L1 winnowing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class L1WinnowResult:
    f: RealFunction
    X: frozenset
    progress_log: tuple  # M values, starting with the initial |cover|


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
    matrix, members are searched by index, and the result's
    ``progress_log`` holds M before the first and after each adjoined
    input.

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
        if M_g < M_f:
            f = g
        log.append(min(M_g, M_f))

    result = L1WinnowResult(f=S[f], X=frozenset(X), progress_log=tuple(log))
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
        rows = itertools.product(range(self.n + 1), repeat=self.domain.size)
        return PConceptClass(self.domain, [self.member(a) for a in rows
                                           if sum(a) == self.n * self.n])

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
