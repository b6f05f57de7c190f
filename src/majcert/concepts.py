"""Core data model: functions on {0,1}^n, certificates, concept classes,
distributions, and the three restricted distance functionals.

Everything is a total function on the n-bit cube stored as an explicit
table, so every postcondition in the rest of the package can be checked
exactly.  Inputs are integers in [0, 2^n); "lexicographic order"
on bit strings coincides with numeric order.  Boolean tables are exact
(bit-packed into a Python int, bit x = f(x)); real tables are float64
vectors, and invariant checks elsewhere compare reals with absolute
tolerance 1e-9 unless stated exact.

All values are immutable after construction, hence safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainMismatchError, RejectedInputError

MAX_BOOLEAN_N = 20
MAX_REAL_N = 14

#: Absolute tolerance for real-valued equality in invariant checks.
REAL_ATOL = 1e-9


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
    if a.domain != b.domain:
        raise DomainMismatchError(f"domain mismatch: n={a.domain.n} vs n={b.domain.n}")


#: truth-table arrays keyed by (n, bits); entries are immutable
_VALUES_CACHE: dict = {}
#: bytes of table arrays and key integers the cache may hold before it is
#: cleared (one n = 20 entry holds about 1.1 MiB)
VALUES_CACHE_MAX_BYTES = 64 << 20
_values_cache_bytes = 0


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
        global _values_cache_bytes
        key = (self.domain.n, self.bits)
        cached = _VALUES_CACHE.get(key)
        if cached is None:
            size = self.domain.size
            raw = self.bits.to_bytes((size + 7) // 8, "little")
            cached = np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                                   bitorder="little")[:size]
            cached.flags.writeable = False
            entry_bytes = cached.nbytes + len(raw)
            if _values_cache_bytes + entry_bytes > VALUES_CACHE_MAX_BYTES:
                _VALUES_CACHE.clear()
                _values_cache_bytes = 0
            _VALUES_CACHE[key] = cached
            _values_cache_bytes += entry_bytes
        return cached

    def xor(self, other: "BooleanFunction") -> "BooleanFunction":
        _require_same_domain(self, other)
        return BooleanFunction(self.domain, self.bits ^ other.bits)

    def hamming(self, other: "BooleanFunction") -> int:
        _require_same_domain(self, other)
        return (self.bits ^ other.bits).bit_count()

    def to_real(self) -> "RealFunction":
        return RealFunction(self.domain, self.values().astype(np.float64))


def _freeze(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RealFunction:
    """A total function {0,1}^n -> [0,1] stored as a float64 table."""

    domain: InputDomain
    table: np.ndarray

    def __post_init__(self):
        if self.domain.n > MAX_REAL_N:
            raise RejectedInputError(f"real functions capped at n<={MAX_REAL_N}")
        arr = _freeze(self.table)
        if arr.shape != (self.domain.size,):
            raise RejectedInputError(f"expected table of length {self.domain.size}")
        if np.any(arr < 0.0) or np.any(arr > 1.0):
            raise RejectedInputError("table entries must lie in [0,1]")
        object.__setattr__(self, "table", arr)

    @classmethod
    def constant(cls, domain: InputDomain, c: float) -> "RealFunction":
        return cls(domain, np.full(domain.size, float(c)))

    def __call__(self, x: int) -> float:
        return float(self.table[self.domain.check_input(x)])

    def key(self) -> bytes:
        """Exact-table identity, used for deduplication."""
        return self.table.tobytes()


@dataclass(frozen=True)
class Certificate:
    """A partial Boolean function: finitely many pinned input/output pairs.

    ``assignments`` is kept as a sorted tuple of (input, bit) pairs; the
    size |C| is the number of pinned inputs.
    """

    domain: InputDomain
    assignments: tuple

    def __post_init__(self):
        raw = self.assignments.items() if isinstance(self.assignments, Mapping) else self.assignments
        pairs = tuple(sorted((int(x), int(b)) for x, b in raw))
        seen = set()
        for x, b in pairs:
            self.domain.check_input(x)
            if b not in (0, 1):
                raise RejectedInputError(f"certificate value {b!r} is not a bit")
            if x in seen:
                raise RejectedInputError(f"duplicate certificate point {x}")
            seen.add(x)
        object.__setattr__(self, "assignments", pairs)

    @classmethod
    def empty(cls, domain: InputDomain) -> "Certificate":
        return cls(domain, ())

    @classmethod
    def of(cls, domain: InputDomain, mapping: Mapping[int, int]) -> "Certificate":
        return cls(domain, tuple(mapping.items()))

    @property
    def size(self) -> int:
        return len(self.assignments)

    def as_dict(self) -> dict:
        return dict(self.assignments)

    def consistent(self, f: BooleanFunction) -> bool:
        _require_same_domain(self, f)
        return all(f(x) == b for x, b in self.assignments)

    def extended(self, x: int, b: int) -> "Certificate":
        d = self.as_dict()
        if x in d and d[x] != b:
            raise RejectedInputError(f"conflicting assignment at {x}")
        d[x] = b
        return Certificate.of(self.domain, d)

    def subsumes(self, other: "Certificate") -> bool:
        """True iff every assignment of ``other`` appears in self."""
        mine = self.as_dict()
        return all(mine.get(x) == b for x, b in other.assignments)

    def xor_shifted(self, f_star: BooleanFunction) -> "Certificate":
        """The certificate matched by g xor f_star whenever self matches g."""
        _require_same_domain(self, f_star)
        return Certificate.of(self.domain, {x: b ^ f_star(x) for x, b in self.assignments})


@dataclass(frozen=True)
class RealCertificate:
    """Constraints |f(x) - target(x)| <= tolerance on a finite point set."""

    domain: InputDomain
    points: frozenset
    targets: tuple
    tolerance: float

    def __post_init__(self):
        pts = frozenset(int(x) for x in self.points)
        tmap = dict(self.targets)
        if set(tmap) != pts:
            raise RejectedInputError("targets must be defined exactly on the point set")
        for x, v in tmap.items():
            self.domain.check_input(x)
            if not (0.0 <= float(v) <= 1.0):
                raise RejectedInputError(f"target {v!r} outside [0,1]")
        if not self.tolerance > 0:
            raise RejectedInputError("tolerance must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "targets", tuple(sorted((x, float(v)) for x, v in tmap.items())))

    def satisfied_by(self, f: RealFunction) -> bool:
        _require_same_domain(self, f)
        return all(abs(f(x) - v) <= self.tolerance for x, v in self.targets)


class ConceptClass:
    """An ordered, duplicate-free, finite set of Boolean functions.

    Deduplication preserves first-occurrence order so seeded runs are
    reproducible.  A plain ConceptClass is non-empty; the possibly-empty
    views produced by :func:`restrict_class` are constructed with
    ``allow_empty=True``.
    """

    __slots__ = ("domain", "members")

    def __init__(self, domain: InputDomain, members: Iterable[BooleanFunction],
                 allow_empty: bool = False):
        seen = set()
        ordered = []
        for f in members:
            if f.domain != domain:
                raise DomainMismatchError("member domain differs from class domain")
            if f.bits not in seen:
                seen.add(f.bits)
                ordered.append(f)
        if not ordered and not allow_empty:
            raise RejectedInputError("concept class must be non-empty")
        self.domain = domain
        self.members = tuple(ordered)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[BooleanFunction]:
        return iter(self.members)

    def __getitem__(self, i: int) -> BooleanFunction:
        return self.members[i]

    def __contains__(self, f: BooleanFunction) -> bool:
        return any(g.bits == f.bits for g in self.members)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConceptClass) and self.domain == other.domain
                and tuple(g.bits for g in self.members) == tuple(g.bits for g in other.members))

    def index_of(self, f: BooleanFunction) -> int:
        for i, g in enumerate(self.members):
            if g.bits == f.bits:
                return i
        raise RejectedInputError("function is not a member of the class")

    def value_matrix(self) -> np.ndarray:
        """|S| x 2^n 0/1 matrix of member tables."""
        return np.stack([f.values() for f in self.members])


class PConceptClass:
    """An ordered, duplicate-free, finite set of real-valued functions."""

    __slots__ = ("domain", "members")

    def __init__(self, domain: InputDomain, members: Iterable[RealFunction],
                 allow_empty: bool = False):
        seen = set()
        ordered = []
        for f in members:
            if f.domain != domain:
                raise DomainMismatchError("member domain differs from class domain")
            k = f.key()
            if k not in seen:
                seen.add(k)
                ordered.append(f)
        if not ordered and not allow_empty:
            raise RejectedInputError("p-concept class must be non-empty")
        self.domain = domain
        self.members = tuple(ordered)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[RealFunction]:
        return iter(self.members)

    def __getitem__(self, i: int) -> RealFunction:
        return self.members[i]

    def __eq__(self, other) -> bool:
        return (isinstance(other, PConceptClass) and self.domain == other.domain
                and tuple(g.key() for g in self.members) == tuple(g.key() for g in other.members))

    def index_of(self, f: RealFunction) -> int:
        k = f.key()
        for i, g in enumerate(self.members):
            if g.key() == k:
                return i
        raise RejectedInputError("function is not a member of the class")

    def __contains__(self, f: RealFunction) -> bool:
        k = f.key()
        return any(g.key() == k for g in self.members)

    def value_matrix(self) -> np.ndarray:
        """|S| x 2^n float matrix of member tables."""
        return np.stack([f.table for f in self.members])


@dataclass(frozen=True)
class Distribution:
    """A probability distribution over {0,1}^n (weights sum to 1 +/- 1e-12)."""

    domain: InputDomain
    weights: np.ndarray

    def __post_init__(self):
        arr = _freeze(self.weights)
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

    def support(self) -> tuple:
        return tuple(int(x) for x in np.nonzero(self.weights)[0])

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(self.domain.size, size=count, p=self.weights)

    def prob_one(self, f: BooleanFunction) -> float:
        """Pr_{x~D}[f(x) = 1]."""
        _require_same_domain(self, f)
        return float(self.weights @ f.values())


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


def dist_one(f: RealFunction, g: RealFunction, X=None) -> float:
    if X is None:
        X = f.domain.inputs()
    return distance("one", f, g, X)


def distance_expected(f: RealFunction, g: RealFunction, D: Distribution) -> float:
    """D-weighted mean absolute difference E_{x~D}|f(x)-g(x)|."""
    _require_same_domain(f, g)
    _require_same_domain(f, D)
    return float(D.weights @ np.abs(f.table - g.table))


# ---------------------------------------------------------------------------
# Restriction, isolation, shifting, combination
# ---------------------------------------------------------------------------

def restrict_class(S: ConceptClass, C: Certificate) -> ConceptClass:
    """S[C]: the members of S consistent with C, as a possibly-empty view."""
    _require_same_domain(S, C)
    return ConceptClass(S.domain, (f for f in S if C.consistent(f)), allow_empty=True)


def is_isolated(S: ConceptClass, C: Certificate, f: BooleanFunction) -> bool:
    """True iff S[C] = {f}.  Requires f in S."""
    S.index_of(f)
    survivors = restrict_class(S, C)
    return len(survivors) == 1 and survivors[0].bits == f.bits


def xor_shift(S: ConceptClass, f_star: BooleanFunction) -> ConceptClass:
    """The class {g xor f_star : g in S}; maps f_star to the zero function.

    An involution: applying it twice gives back S, table-exact.
    """
    S.index_of(f_star)
    return ConceptClass(S.domain, (g.xor(f_star) for g in S))


def pointwise_majority(fs: Sequence[BooleanFunction]) -> BooleanFunction:
    """Per-input majority vote of an odd number of Boolean functions."""
    m = len(fs)
    if m < 1:
        raise RejectedInputError("majority of an empty list")
    if m % 2 == 0:
        raise RejectedInputError("majority requires an odd count (ties undefined)")
    domain = fs[0].domain
    for f in fs[1:]:
        _require_same_domain(fs[0], f)
    counts = np.zeros(domain.size, dtype=np.int64)
    for f in fs:
        counts += f.values()
    maj = (2 * counts > m).astype(np.uint8)
    out = int.from_bytes(np.packbits(maj, bitorder="little").tobytes(), "little")
    return BooleanFunction(domain, out)


def pointwise_average(fs: Sequence[RealFunction]) -> RealFunction:
    """Entrywise arithmetic mean of one or more real functions."""
    if not fs:
        raise RejectedInputError("average of an empty list")
    domain = fs[0].domain
    for f in fs[1:]:
        _require_same_domain(fs[0], f)
    acc = np.zeros(domain.size, dtype=np.float64)
    for f in fs:
        acc += f.table
    # mean of [0,1] entries; clip float dust so the result revalidates
    return RealFunction(domain, np.clip(acc / len(fs), 0.0, 1.0))
