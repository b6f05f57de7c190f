"""Core data model: functions on {0,1}^n, certificates, concept classes,
distributions, and the three restricted distance functionals.

Everything is a total function on the n-bit cube stored as an explicit
table, so every postcondition in the rest of the package can be checked
exactly.  Inputs are integers in [0, 2^n); "lexicographic order"
on bit strings coincides with numeric order.  Boolean tables are exact
(bit-packed into a Python int, bit x = f(x)), and so are Boolean
certificates (a mask of pinned inputs and their values); real tables
are float64 vectors, and invariant checks elsewhere compare reals with
absolute tolerance 1e-9 unless stated exact.

All values are immutable after construction (a class builds its
read-only value matrix once, on first use), hence safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import DomainMismatchError, RejectedInputError

MAX_BOOLEAN_N = 20
MAX_REAL_N = 14

#: Absolute tolerance for real-valued equality in invariant checks.
REAL_ATOL = 1e-9

#: Cells per block of the array kernels: gaps, shattering and certificate codes, payoffs.
BLOCK_CELLS = 1 << 20


@dataclass(frozen=True, order=True)
class InputDomain:
    """The n-bit cube {0,1}^n, 1 <= n <= 20."""

    n: int

    def __post_init__(self):
        if not (1 <= self.n <= MAX_BOOLEAN_N):
            raise RejectedInputError(f"domain size n={self.n} outside [1, {MAX_BOOLEAN_N}]")

    @property
    def size(self) -> int:
        return 1 << self.n

    def inputs(self) -> range:
        return range(self.size)

    def check_input(self, x: int) -> int:
        if not (0 <= x < self.size):
            raise RejectedInputError(f"input {x} outside domain of size {self.size}")
        return x


def _require_same_domain(a, b) -> None:
    if a.domain is not b.domain and a.domain != b.domain:
        raise DomainMismatchError(f"domain mismatch: n={a.domain.n} vs n={b.domain.n}")


@dataclass(frozen=True)
class BooleanFunction:
    """A total Boolean function, bit-packed: bit x of ``bits`` is f(x)."""

    domain: InputDomain
    bits: int

    def __post_init__(self):
        if not (0 <= self.bits < (1 << self.domain.size)):
            raise RejectedInputError("truth table wider than 2^n bits")

    @classmethod
    def from_values(cls, domain: InputDomain, values: Iterable[int]) -> "BooleanFunction":
        vals = list(values)
        if len(vals) != domain.size:
            raise RejectedInputError(f"expected {domain.size} table entries, got {len(vals)}")
        bits = 0
        for x, v in enumerate(vals):
            if v not in (0, 1):
                raise RejectedInputError(f"non-bit value {v!r} at input {x}")
            bits |= v << x
        return cls(domain, bits)

    @classmethod
    def zero(cls, domain: InputDomain) -> "BooleanFunction":
        return cls(domain, 0)

    @classmethod
    def point(cls, domain: InputDomain, y: int) -> "BooleanFunction":
        """The point function: 1 on y, 0 elsewhere."""
        domain.check_input(y)
        return cls(domain, 1 << y)

    def __call__(self, x: int) -> int:
        return (self.bits >> self.domain.check_input(x)) & 1

    def values(self) -> np.ndarray:
        """The truth table as a 0/1 uint8 vector of length 2^n."""
        size = self.domain.size
        raw = self.bits.to_bytes((size + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]


def _real_tables(domain: InputDomain, tables, ndim: int) -> np.ndarray:
    """``tables`` as a read-only float64 copy with ``ndim`` axes, the last
    of 2^n entries, each in [0, 1] (so none is NaN)."""
    if domain.n > MAX_REAL_N:
        raise RejectedInputError(f"real functions capped at n<={MAX_REAL_N}")
    try:
        arr = np.array(tables, dtype=np.float64)
    except (TypeError, ValueError):
        raise RejectedInputError("tables must be equal-length lists of numbers") from None
    if arr.ndim != ndim or arr.shape[-1] != domain.size:
        raise RejectedInputError(f"expected table of length {domain.size}")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise RejectedInputError("table entries must lie in [0,1]")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RealFunction:
    """A total function {0,1}^n -> [0,1] stored as a float64 table."""

    domain: InputDomain
    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", _real_tables(self.domain, self.table, 1))

    def __call__(self, x: int) -> float:
        return float(self.table[self.domain.check_input(x)])

    def key(self) -> bytes:
        """Exact-table identity, used for deduplication."""
        return self.table.tobytes()


def quantize(values) -> np.ndarray:
    """``values`` rounded to multiples of 1e-12 (-0.0 to 0.0), which reports write exactly."""
    return np.rint(np.asarray(values, dtype=np.float64) * 1e12) / 1e12 + 0.0


def real_members(domain: InputDomain, tables) -> tuple:
    """The real functions whose tables are the rows of the matrix
    ``tables``, validated once as RealFunction validates one table; each
    table is a read-only row of one float64 copy."""
    members = []
    for row in _real_tables(domain, tables, 2):
        f = object.__new__(RealFunction)  # the row is checked: skip __post_init__
        f.__dict__.update(domain=domain, table=row)
        members.append(f)
    return tuple(members)


@dataclass(frozen=True)
class Certificate:
    """A partial Boolean function: finitely many pinned input/output pairs.

    Packed like a truth table: bit x of ``mask`` is set when input x is
    pinned, and bit x of ``value`` is then its pinned output (``value``
    has no bits outside ``mask``).  The size |C| is the number of pinned
    inputs.
    """

    domain: InputDomain
    mask: int
    value: int

    def __post_init__(self):
        if not (0 <= self.mask < (1 << self.domain.size)) or self.value & ~self.mask:
            raise RejectedInputError("certificate value outside its pinned inputs")

    @classmethod
    def empty(cls, domain: InputDomain) -> "Certificate":
        return cls(domain, 0, 0)

    @classmethod
    def of(cls, domain: InputDomain, pairs) -> "Certificate":
        """From a mapping or an iterable of (input, bit) pairs; a repeated
        input, an input outside the domain or a non-bit is rejected."""
        mask = value = 0
        for x, b in (pairs.items() if isinstance(pairs, Mapping) else pairs):
            x, b = domain.check_input(int(x)), int(b)
            if b not in (0, 1):
                raise RejectedInputError(f"certificate value {b!r} is not a bit")
            if (mask >> x) & 1:
                raise RejectedInputError(f"duplicate certificate point {x}")
            mask |= 1 << x
            value |= b << x
        return cls(domain, mask, value)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def assignments(self) -> tuple:
        """The pinned (input, bit) pairs in increasing input order."""
        pairs = []
        rest = self.mask
        while rest:
            x = (rest & -rest).bit_length() - 1
            pairs.append((x, (self.value >> x) & 1))
            rest &= rest - 1
        return tuple(pairs)

    def consistent(self, f: BooleanFunction) -> bool:
        _require_same_domain(self, f)
        return not (f.bits ^ self.value) & self.mask

    def extended(self, x: int, b: int) -> "Certificate":
        self.domain.check_input(x)
        if b not in (0, 1):
            raise RejectedInputError(f"certificate value {b!r} is not a bit")
        if (self.mask >> x) & 1 and (self.value >> x) & 1 != b:
            raise RejectedInputError(f"conflicting assignment at {x}")
        return Certificate(self.domain, self.mask | (1 << x), self.value | (b << x))


class _FunctionClass:
    """An ordered, duplicate-free, finite set of functions on one domain.

    Members are identified by ``_key``.  Deduplication preserves
    first-occurrence order so seeded runs are reproducible, and fills a
    key -> index dict, so membership and ``index_of`` take O(1).  A plain
    class is non-empty; the possibly-empty views produced by
    :func:`restrict_class` are constructed with ``allow_empty=True``.
    The |S| x 2^n value matrix is built on first use and kept read-only.
    """

    __slots__ = ("domain", "members", "_index", "_matrix")

    def __init__(self, domain: InputDomain, members: Iterable, allow_empty: bool = False):
        index: dict = {}
        ordered = []
        for f in members:
            if f.domain is not domain and f.domain != domain:
                raise DomainMismatchError("member domain differs from class domain")
            k = self._key(f)
            if k not in index:
                index[k] = len(ordered)
                ordered.append(f)
        if not ordered and not allow_empty:
            raise RejectedInputError("a class must be non-empty")
        self.domain = domain
        self.members = tuple(ordered)
        self._index = index
        self._matrix = None

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator:
        return iter(self.members)

    def __getitem__(self, i: int):
        return self.members[i]

    def __contains__(self, f) -> bool:
        return self._key(f) in self._index

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.domain == other.domain
                and tuple(self._index) == tuple(other._index))

    def index_of(self, f) -> int:
        i = self._index.get(self._key(f))
        if i is None:
            raise RejectedInputError("function is not a member of the class")
        return i

    def value_matrix(self) -> np.ndarray:
        """|S| x 2^n matrix of member tables, row i for member i."""
        if self._matrix is None:
            matrix = self._stack()
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix


class ConceptClass(_FunctionClass):
    """A class of Boolean functions, keyed by their bits; its value
    matrix is 0/1 uint8."""

    __slots__ = ()

    @staticmethod
    def _key(f: BooleanFunction) -> int:
        return f.bits

    def _stack(self) -> np.ndarray:
        size = self.domain.size
        width = (size + 7) // 8
        raw = b"".join(f.bits.to_bytes(width, "little") for f in self.members)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(self.members), width)
        return np.unpackbits(rows, axis=1, bitorder="little")[:, :size]


class PConceptClass(_FunctionClass):
    """A class of real-valued functions, keyed by their exact table
    bytes; its value matrix is float64."""

    __slots__ = ()

    @staticmethod
    def _key(f: RealFunction) -> bytes:
        return f.key()

    def _stack(self) -> np.ndarray:
        return np.stack([f.table for f in self.members])


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over {0,1}^n (weights sum to 1 +/- 1e-12)."""

    domain: InputDomain
    weights: np.ndarray

    def __post_init__(self):
        arr = np.array(self.weights, dtype=np.float64)
        arr.flags.writeable = False
        if arr.shape != (self.domain.size,):
            raise RejectedInputError(f"expected {self.domain.size} weights")
        if np.any(arr < 0.0):
            raise RejectedInputError("weights must be non-negative")
        if abs(float(arr.sum()) - 1.0) > 1e-12:
            raise RejectedInputError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", arr)

    @classmethod
    def uniform(cls, domain: InputDomain) -> "Distribution":
        return cls(domain, np.full(domain.size, 1.0 / domain.size))

    @classmethod
    def point_mass(cls, domain: InputDomain, x: int) -> "Distribution":
        domain.check_input(x)
        w = np.zeros(domain.size)
        w[x] = 1.0
        return cls(domain, w)

    @classmethod
    def from_weights(cls, domain: InputDomain, raw: np.ndarray) -> "Distribution":
        """Normalize a non-negative (up to -1e-9 noise) weight vector."""
        arr = np.asarray(raw, dtype=np.float64)
        if np.any(arr < -1e-9):
            raise RejectedInputError("weights must be non-negative")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if total <= 0.0:
            raise RejectedInputError("weights sum to zero")
        return cls(domain, arr / total)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(self.domain.size, size=count, p=self.weights)


# ---------------------------------------------------------------------------
# Distance functionals
# ---------------------------------------------------------------------------

METRICS = ("inf", "two", "one")


def distance(metric: str, f: RealFunction, g: RealFunction, X: Iterable[int]) -> float:
    """Restricted distance between f and g over the input set X.

    metric "inf": max_{x in X} |f(x)-g(x)|   (0 when X is empty)
    metric "two": sqrt(sum_{x in X} (f(x)-g(x))^2)
    metric "one": sum_{x in X} |f(x)-g(x)|

    The empty-X value 0 for "inf" is a deliberate convention: safe
    winnowing with Y = {} relies on it.
    """
    if metric not in METRICS:
        raise RejectedInputError(f"unknown metric {metric!r}")
    _require_same_domain(f, g)
    xs = sorted({f.domain.check_input(x) for x in X})
    if not xs:
        return 0.0
    diff = np.abs(f.table[xs] - g.table[xs])
    if metric == "inf":
        return float(diff.max())
    if metric == "two":
        return float(np.sqrt(np.sum(diff * diff)))
    return float(diff.sum())


def dist_inf(f: RealFunction, g: RealFunction, X=None) -> float:
    if X is None:
        X = f.domain.inputs()
    return distance("inf", f, g, X)


def dist_two(f: RealFunction, g: RealFunction, X=None) -> float:
    if X is None:
        X = f.domain.inputs()
    return distance("two", f, g, X)


def distance_expected(f: RealFunction, g: RealFunction, D: Distribution) -> float:
    """D-weighted mean absolute difference E_{x~D}|f(x)-g(x)|."""
    _require_same_domain(f, g)
    _require_same_domain(f, D)
    return float(D.weights @ np.abs(f.table - g.table))


def restricted_gaps(V: np.ndarray, points, values, metric: str = "inf") -> np.ndarray:
    """Every row's restricted distance to ``values`` on ``points``.

    ``V`` is a class value matrix, ``points`` a sorted sequence of inputs
    (None for all of them) and ``values`` one value per point.  Row i
    holds max_j |V[i, points[j]] - values[j]| for metric "inf" (0 on an
    empty point set, as for :func:`distance`) and the sum for "one"; the
    arithmetic is that of :func:`distance` on each row.  One
    |S| x |points| slab is allocated.
    """
    if points is None:
        diff = V - values
    else:
        # a C-ordered copy, so each row sums in the order distance sums
        # its 1-d slice (V[:, points] would be column-major)
        diff = V.take(points, axis=1)
        diff -= values
    np.abs(diff, out=diff)
    if metric == "inf":
        return diff.max(axis=1, initial=0.0)
    if metric == "one":
        return diff.sum(axis=1)
    raise RejectedInputError(f"unknown metric {metric!r}")


def pairwise_gaps(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The |A| x |B| sup gaps max_x |A[i, x] - B[j, x]|, with the arithmetic
    of ``restricted_gaps``, from blocks of A's rows of at most BLOCK_CELLS
    (row, row, input) cells, or one row."""
    rows = max(1, BLOCK_CELLS // max(1, B.size))
    gaps = np.empty((len(A), len(B)))
    for i in range(0, len(A), rows):
        diff = A[i:i + rows, None, :] - B
        gaps[i:i + rows] = np.abs(diff, out=diff).max(axis=2, initial=0.0)
    return gaps


# ---------------------------------------------------------------------------
# Restriction, isolation, combination
# ---------------------------------------------------------------------------

def restrict_class(S: ConceptClass, C: Certificate) -> ConceptClass:
    """S[C]: the members of S consistent with C, as a possibly-empty view."""
    _require_same_domain(S, C)
    mask, value = C.mask, C.value
    return ConceptClass(S.domain, (f for f in S.members if not (f.bits ^ value) & mask),
                        allow_empty=True)


def is_isolated(S: ConceptClass, C: Certificate, f: BooleanFunction) -> bool:
    """True iff S[C] = {f}.  Requires f in S."""
    S.index_of(f)
    survivors = restrict_class(S, C)
    return len(survivors) == 1 and survivors[0].bits == f.bits


@dataclass(frozen=True, eq=False)
class Slots:
    """m slots as a multiset: ``distinct`` holds each different slot once,
    in first-occurrence order, and ``refs`` one index into it per
    position, so m = len(refs) and a slot's count is how often its index
    occurs.  Iterating yields the slots position by position.
    """

    distinct: tuple
    refs: tuple

    def __post_init__(self):
        object.__setattr__(self, "distinct", tuple(self.distinct))
        object.__setattr__(self, "refs", tuple(self.refs))
        first = list(dict.fromkeys(self.refs))  # each index once, in first-occurrence order
        if first != list(range(len(first))):
            raise RejectedInputError("slot refs must number the distinct slots "
                                     "in first-occurrence order")
        if len(first) != len(self.distinct):
            raise RejectedInputError(f"{len(self.distinct)} distinct slots, "
                                     f"{len(first)} referenced")

    @classmethod
    def group(cls, items: Iterable, key: Callable = lambda s: s) -> "Slots":
        """The slots ``items`` in order; items with equal keys are one
        distinct slot, represented by its first occurrence."""
        items = tuple(items)
        keys = list(map(key, items))
        first = dict(zip(reversed(keys), reversed(items)))  # the first item per key
        index = dict(zip(dict.fromkeys(keys), count()))  # keys in first-occurrence order
        return cls(tuple(map(first.__getitem__, index)), tuple(map(index.__getitem__, keys)))

    def __len__(self) -> int:
        return len(self.refs)

    def __iter__(self) -> Iterator:
        return map(self.distinct.__getitem__, self.refs)

    def counts(self) -> np.ndarray:
        """The count of each distinct slot, aligned with ``distinct``."""
        return np.bincount(np.asarray(self.refs, dtype=np.intp),
                           minlength=len(self.distinct))

    def groups(self) -> Iterator:
        """(count, slot) per distinct slot."""
        return zip(self.counts().tolist(), self.distinct)

    def map(self, fn: Callable) -> "Slots":
        """``fn`` applied once per distinct slot, positions unchanged."""
        return Slots(tuple(fn(s) for s in self.distinct), self.refs)


def pointwise_counts(fs: Slots) -> np.ndarray:
    """Per-input count of the slot functions that are 1 there, as int64;
    each distinct function is unpacked once."""
    if not len(fs):
        raise RejectedInputError("counts of an empty list")
    counts = np.zeros(fs.distinct[0].domain.size, dtype=np.int64)
    for count, f in fs.groups():
        _require_same_domain(fs.distinct[0], f)
        counts += count * f.values().astype(np.int64)
    return counts


def pointwise_majority(fs) -> BooleanFunction:
    """Per-input majority vote of an odd number of Boolean functions,
    given as a sequence or as Slots."""
    slots = fs if isinstance(fs, Slots) else Slots.group(fs)
    m = len(slots)
    if m < 1:
        raise RejectedInputError("majority of an empty list")
    if m % 2 == 0:
        raise RejectedInputError("majority requires an odd count (ties undefined)")
    maj = (2 * pointwise_counts(slots) > m).astype(np.uint8)
    out = int.from_bytes(np.packbits(maj, bitorder="little").tobytes(), "little")
    return BooleanFunction(slots.distinct[0].domain, out)
