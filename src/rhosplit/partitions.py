"""Interval partitions with super-exponential growth and exact per-interval
subsets.

Boundaries are arbitrary-precision: the minimal compliant sizes grow like
2^(n^2/2), overflowing fixed-width integers near n = 10.  Per-interval
subsets carry exact cardinalities so that certificates stay exact at any
depth; structured descriptors (first-s, last-s, ...) remain countable far
beyond the explicit bit-vector cap.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from ._util import as_fraction, ceil_frac, parse_int
from .omega_sets import (
    OMEGA,
    CombineNode,
    ExplicitSet,
    HorizonOverflowError,
    OmegaSet,
    TailPattern,
    _unpack,
    parse_set,
)

__all__ = [
    "ExactCountError",
    "IntervalPartition",
    "IntervalSubset",
    "IntervalSymbolicSet",
    "build_partition",
]

_EXPLICIT_SUBSET_LIMIT = 1 << 20
SUBSET_KINDS = ("full", "empty", "first", "last", "trace", "cotrace", "explicit")
_COMPLEMENT_KIND = {"full": "empty", "empty": "full", "first": "last",
                    "last": "first", "trace": "cotrace", "cotrace": "trace"}


class ExactCountError(ValueError):
    """An exact cardinality was requested that the descriptor cannot supply."""


def _least_size(n: int, prefix: int) -> int:
    """The growth law as the least admissible |I_n|, given |I_{<n}|:
    |I_0| >= 2 and |I_n| > 2^n * |I_{<n}|."""
    return (1 << n) * prefix + 1 if n else 2


def order_fault(bounds: Sequence[int]) -> str | None:
    """None if a boundary list starts at 0 and strictly increases; else
    what is wrong with it."""
    if not bounds or bounds[0] != 0:
        return "boundaries must start at 0"
    if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
        return "boundaries must be strictly increasing"
    return None


def growth_violation(bounds: Sequence[int], even_sizes: bool = False) -> int | None:
    """None if the intervals [b_n, b_{n+1}) of a boundary list obey the
    growth law (and have even sizes, if asked); else the least violating n."""
    for n in range(len(bounds) - 1):
        size = bounds[n + 1] - bounds[n]
        if size < _least_size(n, bounds[n]) or (even_sizes and size % 2):
            return n
    return None


class IntervalPartition:
    """Consecutive intervals I_n = [b_n, b_{n+1}) with |I_0| >= 2 and
    |I_n| > 2^n * |I_{<n}|.

    A partition is generated, never given: it starts at [0] and extends
    lazily by the growth law, so it obeys that law by construction.
    Extension is append-only behind a lock, and reads of
    already-materialised boundaries never block.
    """

    __slots__ = ("_bounds", "_factor", "even_sizes", "_lock")

    def __init__(self, factor: Fraction | None, even_sizes: bool):
        self._bounds = [0]
        self._factor = factor
        self.even_sizes = even_sizes
        self._lock = threading.Lock()

    # -- lazy extension -------------------------------------------------

    def _next_size(self, n: int, prefix: int) -> int:
        minimal = size = _least_size(n, prefix)
        if self._factor is not None:
            size = ceil_frac(self._factor * minimal)
        if self.even_sizes and size % 2:
            size += 1
        return size

    def ensure(self, count: int):
        """Materialise boundaries for intervals 0..count-1."""
        if len(self._bounds) - 1 >= count:
            return
        with self._lock:
            while len(self._bounds) - 1 < count:
                n = len(self._bounds) - 1
                prefix = self._bounds[-1]
                self._bounds.append(prefix + self._next_size(n, prefix))

    def boundary(self, i: int) -> int:
        if i < 0:
            raise IndexError("boundary index must be non-negative")
        self.ensure(i)
        return self._bounds[i]

    def boundaries(self, count: int) -> list[int]:
        self.ensure(count)
        return self._bounds[: count + 1]

    def size(self, n: int) -> int:
        return self.boundary(n + 1) - self.boundary(n)

    def growth_ratio(self, n: int) -> Fraction:
        """|I_{<n}| / |I_n| as an exact rational."""
        return Fraction(self.boundary(n), self.size(n))

    def interval_of(self, x: int) -> int:
        if x < 0:
            raise ValueError("points live in the naturals")
        while self._bounds[-1] <= x:
            self.ensure(len(self._bounds))
        return bisect_right(self._bounds, x) - 1

    def verify_growth(self) -> int | None:
        """None if compliant; else the least violating interval index."""
        return growth_violation(self._bounds, self.even_sizes)

    # -- subset constructors ---------------------------------------------

    def full(self, k: int) -> "IntervalSubset":
        return IntervalSubset(self, k, "full", self.size(k))

    def empty(self, k: int) -> "IntervalSubset":
        return IntervalSubset(self, k, "empty", 0)

    def first(self, k: int, s: int) -> "IntervalSubset":
        return IntervalSubset(self, k, "first", s)

    def last(self, k: int, s: int) -> "IntervalSubset":
        return IntervalSubset(self, k, "last", s)

    def trace(self, k: int, base: OmegaSet) -> "IntervalSubset":
        count = _range_count(base, self.boundary(k), self.boundary(k + 1))
        return IntervalSubset(self, k, "trace", count, base=base)

    def restrict(self, k: int, X: OmegaSet) -> "IntervalSubset":
        """X ∩ I_k, reusing X's own value when X is symbolic on this partition."""
        if isinstance(X, IntervalSymbolicSet) and X.part is self:
            return X.value_at(k)
        return self.trace(k, X)

    def cotrace(self, k: int, base: OmegaSet) -> "IntervalSubset":
        return self.trace(k, base).complement()

    def explicit(self, k: int, elements) -> "IntervalSubset":
        lo, hi = self.boundary(k), self.boundary(k + 1)
        if hi - lo > _EXPLICIT_SUBSET_LIMIT:
            raise ExactCountError(
                f"interval {k} is too large for an explicit subset"
            )
        elems = tuple(sorted(set(int(e) for e in elements)))
        if elems and not (lo <= elems[0] and elems[-1] < hi):
            raise ValueError(f"elements escape interval {k} = [{lo},{hi})")
        return IntervalSubset(self, k, "explicit", len(elems), elements=elems)

    def subset_from_json(self, obj: Mapping) -> "IntervalSubset":
        """The subset that ``IntervalSubset.to_json`` wrote, read as
        untrusted input: every integer goes through ``parse_int``."""
        k, kind = parse_int(obj["index"]), obj["kind"]
        if k < 0:
            raise ValueError(f"subset index must be non-negative: {k}")
        if kind in ("full", "empty"):
            return getattr(self, kind)(k)
        if kind in ("first", "last"):
            return getattr(self, kind)(k, parse_int(obj["s"]))
        if kind in ("trace", "cotrace"):
            return getattr(self, kind)(k, parse_set(obj["base"]))
        if kind == "explicit":
            elems = obj["elements"]
            if not isinstance(elems, list):
                raise ValueError(f"explicit elements must be a list: {elems!r}")
            return self.explicit(k, map(parse_int, elems))
        raise ValueError(f"unknown subset kind {kind!r}")

    def to_json(self, count: int) -> list[str]:
        return [str(b) for b in self.boundaries(count)]

    def __repr__(self):
        mode = "minimal" if self._factor is None else "factor"
        return (f"IntervalPartition({mode}, materialized={len(self._bounds) - 1},"
                f" even_sizes={self.even_sizes})")


def build_partition(min_growth="minimal", count: int = 16,
                    even_sizes: bool = False) -> IntervalPartition:
    """Construct a compliant partition.

    min_growth is either "minimal" (smallest sizes satisfying the strict
    growth inequality, parity-adjusted when even_sizes is set) or a factor
    f >= 1 applied to the minimal size, rounded up and parity-adjusted.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    factor = None
    if min_growth != "minimal":
        if isinstance(min_growth, str) and min_growth.startswith("factor:"):
            min_growth = min_growth.split(":", 1)[1]
        factor = as_fraction(min_growth)
        if factor < 1:
            raise ValueError("growth factor must be at least 1")
    part = IntervalPartition(factor, even_sizes)
    part.ensure(count)
    return part


@dataclass(frozen=True)
class IntervalSubset:
    """A subset of one interval I_k with an exact cardinality.

    Every kind counts through one form, its signed span (``span``):
    [a, b) ∩ M or [a, b) \\ M, with M omega for the structured kinds
    (first/last/full/empty), the base set for trace and cotrace, and the
    finite set of its elements for an explicit subset.  Structured kinds
    stay exact at any interval size; trace kinds are exact whenever the
    base set counts exactly over [b_k, b_{k+1}), which excludes Bernoulli
    sets beyond the explicit cap.
    """

    partition: IntervalPartition = field(repr=False)
    index: int
    kind: str
    count: int
    base: OmegaSet | None = field(default=None, repr=False)
    elements: tuple[int, ...] | None = None
    lo: int = field(init=False, compare=False)
    hi: int = field(init=False, compare=False)

    def __post_init__(self):
        if self.kind not in SUBSET_KINDS:
            raise ValueError(f"unknown subset kind {self.kind!r}")
        object.__setattr__(self, "lo", self.partition.boundary(self.index))
        object.__setattr__(self, "hi", self.partition.boundary(self.index + 1))
        if not 0 <= self.count <= self.size:
            raise ValueError(
                f"cardinality {self.count} escapes interval {self.index}"
            )

    @property
    def size(self) -> int:
        return self.hi - self.lo

    @property
    def s(self) -> int | None:
        """Run length of a first/last subset (its count); None otherwise."""
        return self.count if self.kind in ("first", "last") else None

    def ratio(self) -> Fraction:
        return Fraction(self.count, self.size)

    @cached_property
    def span(self) -> tuple[int, int, OmegaSet, bool]:
        """(a, b, M, minus): the subset is [a, b) ∩ M, or [a, b) \\ M when
        minus is set.  M is omega for the structured kinds and, for an
        explicit subset, its elements as a set of at most 2^21 bits
        (``explicit`` caps the interval, and so hi)."""
        lo, hi, k = self.lo, self.hi, self.kind
        if k == "explicit":
            return lo, hi, ExplicitSet.from_elements(self.elements, hi), False
        if k in ("trace", "cotrace"):
            return lo, hi, self.base, k == "cotrace"
        if k == "first":
            return lo, lo + self.count, OMEGA, False
        if k == "last":
            return hi - self.count, hi, OMEGA, False
        return lo, (lo if k == "empty" else hi), OMEGA, False

    def _count_in(self, other: OmegaSet, lo: int, hi: int) -> int:
        """|subset ∩ other ∩ [lo, hi)|, exactly."""
        a, b, M, minus = self.span
        if other is OMEGA and lo <= a and b <= hi:
            return self.count
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            return 0
        n = _range_count(_meet(M, other), a, b)
        return _range_count(other, a, b) - n if minus else n

    # -- pointwise and range queries ------------------------------------

    def membership(self, x: int) -> bool:
        a, b, M, minus = self.span
        if not a <= x < b:
            return False
        return M.contains(x) != minus

    def count_strictly_below(self, x: int) -> int:
        """|subset ∩ [lo, x)| with x clamped into [lo, hi]."""
        return self._count_in(OMEGA, self.lo, x)

    def select(self, j: int) -> int:
        """j-th element (0-indexed) of the subset."""
        if not 0 <= j < self.count:
            raise IndexError(f"subset of interval {self.index} has {self.count} points")
        if self.elements is not None:
            return self.elements[j]
        a, b, M, minus = self.span
        if M is OMEGA:
            return a + j
        if not minus:
            return M.kth_element(M.count_below(a) + j)
        while a + 1 < b:
            mid = (a + b) // 2
            if self.count_strictly_below(mid) <= j:
                a = mid
            else:
                b = mid
        return a

    # -- exact intersections ---------------------------------------------

    def intersect_set_count(self, other: OmegaSet) -> int:
        """|subset ∩ other|, exactly."""
        if self.count == 0:
            return 0
        if self.base is other:
            return self.count if self.kind == "trace" else 0
        return self._count_in(other, self.lo, self.hi)

    def intersect_subset_count(self, other: "IntervalSubset") -> int:
        """|self ∩ other| for subsets of the same interval, exactly: self
        counted through other's span, by inclusion-exclusion when that
        span subtracts."""
        if other.index != self.index:
            raise ValueError("subsets live on different intervals")
        if self.count == 0 or other.count == 0:
            return 0
        if self.base is not None and self.base is other.base:
            return self.count if self.kind == other.kind else 0
        a, b, M, minus = other.span
        n = self._count_in(M, a, b)
        return self._count_in(OMEGA, a, b) - n if minus else n

    def complement(self) -> "IntervalSubset":
        if self.kind == "explicit":
            present = set(self.elements)
            return self.partition.explicit(
                self.index, [x for x in range(self.lo, self.hi) if x not in present])
        return IntervalSubset(self.partition, self.index, _COMPLEMENT_KIND[self.kind],
                              self.size - self.count, base=self.base)

    def to_json(self) -> dict:
        out: dict = {"index": self.index, "kind": self.kind, "count": self.count}
        if self.s is not None:
            out["s"] = self.s
        if self.base is not None:
            out["base"] = self.base.descriptor()
        if self.elements is not None:
            out["elements"] = list(self.elements)
        return out


def _meet(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    """a ∩ b, with omega dropped from either side."""
    if a is OMEGA:
        return b
    return a if b is OMEGA else CombineNode("inter", [a, b])


def _range_count(s: OmegaSet, lo: int, hi: int) -> int:
    if s is OMEGA:
        return hi - lo
    try:
        below_lo, below_hi = s.counts_at([lo, hi])
        return below_hi - below_lo
    except HorizonOverflowError as exc:
        raise ExactCountError(
            f"exact count over [{lo},{hi}) is beyond the explicit cap; "
            f"use a structured descriptor ({exc})"
        ) from exc


_DEFAULT_KINDS = ("singleton", "empty", "full", "trace")


class IntervalSymbolicSet(OmegaSet):
    """A set given per interval of a partition by exact subset descriptors.

    Intervals without an explicit value follow the default rule; the
    "singleton" default keeps assembled sets infinite by placing the least
    element of every unclaimed interval.  Counting is exact at any
    magnitude: a point at 2^1000 sits in interval ~44 of a minimal
    partition, so prefix counts cost one pass over a few dozen intervals.
    """

    __slots__ = ("part", "values", "default", "default_base", "_resolved")

    def __init__(self, partition: IntervalPartition,
                 values: Mapping[int, IntervalSubset] | None = None,
                 default: str = "singleton",
                 default_base: OmegaSet | None = None):
        super().__init__()
        if default not in _DEFAULT_KINDS:
            raise ValueError(f"unknown default rule {default!r}")
        if default == "trace" and default_base is None:
            raise ValueError("trace default needs a base set")
        self.part = partition
        vals = dict(values or {})
        for k, sub in vals.items():
            if sub.index != k:
                raise ValueError(f"subset at key {k} has index {sub.index}")
            if sub.partition is not partition:
                raise ValueError("subset built on a different partition")
        self.values = vals
        self.default = default
        self.default_base = default_base
        self._resolved: dict[int, IntervalSubset] = {}

    def value_at(self, k: int) -> IntervalSubset:
        sub = self.values.get(k)
        if sub is not None:
            return sub
        sub = self._resolved.get(k)
        if sub is not None:
            return sub
        if self.default == "singleton":
            sub = self.part.first(k, min(1, self.part.size(k)))
        elif self.default == "empty":
            sub = self.part.empty(k)
        elif self.default == "full":
            sub = self.part.full(k)
        else:
            sub = self.part.trace(k, self.default_base)
        self._resolved[k] = sub
        return sub

    # -- OmegaSet surface --------------------------------------------------

    def contains(self, k: int) -> bool:
        return self.value_at(self.part.interval_of(k)).membership(k)

    def count_below(self, n: int) -> int:
        # restated from OmegaSet: perfbench/tracer.py times symbolic
        # counting through this class's own attributes
        return self.counts_at([n])[0]

    def counts_at(self, checkpoints):
        """Counts below each checkpoint, in one forward pass over the
        intervals."""
        at, total, j = {}, 0, 0
        for n in sorted(set(checkpoints)):
            if n <= 0:
                at[n] = 0
                continue
            last = self.part.interval_of(n - 1)
            while j < last:
                total += self.value_at(j).count
                j += 1
            at[n] = total + self.value_at(last).count_strictly_below(n)
        return [at[n] for n in checkpoints]

    def prefix_count(self, k: int) -> int:
        """|self ∩ I_{<=k}| = count below b_{k+1}."""
        return sum(self.value_at(j).count for j in range(k + 1))

    def kth_element(self, k: int) -> int:
        if k < 0:
            raise IndexError("negative index")
        seen, j = 0, 0
        while True:
            sub = self.value_at(j)
            if k < seen + sub.count:
                return sub.select(k - seen)
            seen += sub.count
            j += 1
            if self.default == "empty" and j > max(self.values, default=-1):
                raise IndexError(f"element {k} beyond finite set of size {seen}")

    def tail_pattern(self):
        # only the empty default ends the set: nothing lies at or past the
        # interval after the last value
        if self.default != "empty":
            return None
        last = max(self.values, default=-1)
        return TailPattern(self.part.boundary(last + 1), 1, (False,))

    def enumerate_below(self, n, limit):
        if self.count_below(n) > limit:
            return None
        out = []
        last = self.part.interval_of(n - 1) if n > 0 else 0
        for j in range(last + 1):
            sub = self.value_at(j)
            out.extend(map(sub.select, range(sub.count_strictly_below(n))))
        return out

    def _fill(self, lo, out):
        hi = lo + out.shape[0]
        out[:] = False
        for j in range(self.part.interval_of(lo), self.part.interval_of(hi - 1) + 1):
            sub = self.value_at(j)
            a, b, M, minus = sub.span
            a, b = max(a, lo), min(b, hi)
            if sub.count == 0 or a >= b:
                continue
            if M is OMEGA:
                out[a - lo:b - lo] = not minus
            else:
                bits = _unpack(M.packed(b), a, b)
                out[a - lo:b - lo] = ~bits if minus else bits

    def to_json(self, count: int) -> dict:
        out = {
            "partition": self.part.to_json(count),
            "default": self.default,
            "values": {str(k): self.value_at(k).to_json() for k in range(count)},
        }
        if self.default_base is not None:
            out["default_base"] = self.default_base.descriptor()
        return out

    def __repr__(self):
        return (f"IntervalSymbolicSet(defined={sorted(self.values)}, "
                f"default={self.default!r})")
