"""The guarded-interval relation and its constructive witnesses.

A guard pair (H, (E_k)) bounds a set X from index n onward when, for
every guarded interval k in H beyond n,

    |X ∩ E_k| < (1/2 + eps) (|X ∩ I_k| + |I_{<k}|).

This module checks the relation at finite horizon and implements the
constructive content around it: witnesses above any X and below any
pair, the escape showing each basic neighbourhood contains a set the
pair fails to bound, and the map sending splitters to bounding pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ._util import as_fraction, half_offset, parse_int, parse_rational, proper_width
from .omega_sets import (ExplicitSet, OmegaSet, Progression, complement,
                         require_infinite)
from .partitions import IntervalPartition, IntervalSubset, IntervalSymbolicSet

__all__ = [
    "GoodPair",
    "RelVerdict",
    "rel_holds",
    "witness_above",
    "witness_below",
    "nwd_escape",
    "reap_tukey_map",
]

QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class GoodPair:
    """A guard pair: interval indices H plus per-interval guards E_k with
    |E_k|/|I_k| > 1/4; unspecified guards default to the full interval."""

    partition: IntervalPartition = field(repr=False)
    H: OmegaSet
    guards: Mapping[int, IntervalSubset]
    eps: Fraction

    def __post_init__(self):
        if not proper_width(self.eps):
            raise ValueError("eps must lie in (0, 1/2)")
        for k, sub in self.guards.items():
            if sub.index != k:
                raise ValueError(f"guard at {k} has interval index {sub.index}")

    def guard_at(self, k: int) -> IntervalSubset:
        sub = self.guards.get(k)
        return sub if sub is not None else self.partition.full(k)

    def floor_violation(self, horizon_k: int) -> int | None:
        """Least k < horizon_k with |E_k|/|I_k| <= 1/4, if any."""
        for k in range(horizon_k):
            if self.guard_at(k).ratio() <= QUARTER:
                return k
        return None

    def to_json(self, horizon_k: int) -> dict:
        return {
            "eps": str(self.eps),
            "H": [k for k in range(horizon_k) if self.H.contains(k)],
            "guards": {str(k): self.guard_at(k).to_json()
                       for k in range(horizon_k)},
        }

    @classmethod
    def from_json(cls, partition: IntervalPartition, obj: Mapping,
                  horizon_k: int) -> "GoodPair":
        """The pair that ``to_json(horizon_k)`` wrote, read as untrusted
        input: H holds the listed indices and every index past them.  A
        wrong shape (a list where an object belongs, a number where a
        guard does), a guard integer that is not exact, or a guard key or
        index at or above horizon_k is a "malformed pair" ValueError.

        Every check reads H and the guards below horizon_k only, so H is
        built below it alone.  A guard's boundaries grow like 2^(k^2/2),
        so the bound is checked before any guard is built."""
        try:
            ks, guards = obj["H"], obj.get("guards", {})
            guards = {parse_int(k): v for k, v in guards.items()}
            for k, v in guards.items():
                index = parse_int(v["index"])
                if max(k, index) >= horizon_k:
                    raise ValueError(f"guard {k} (interval {index}) is not "
                                     f"below horizon_k {horizon_k}")
            guards = {k: partition.subset_from_json(v) for k, v in guards.items()}
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed pair: {exc}") from exc
        if not isinstance(ks, list) or any(type(k) is not int or k < 0 for k in ks):
            raise ValueError(f"pair H must be a list of non-negative integers: {ks!r}")
        # an empty H keeps horizon 1, so the all-true tail starts at 1, not 0
        n = max(0, min(max(ks, default=0) + 1, horizon_k))
        H = ExplicitSet.from_elements(ks, n, tail=(True,))
        return cls(partition, H, guards, parse_rational(obj["eps"]))


@dataclass(frozen=True)
class RelVerdict:
    holds: bool
    witness_k: int | None = None
    lhs: int | None = None
    rhs: Fraction | None = None

    def __bool__(self):
        return self.holds


def rel_holds(X: OmegaSet, pair: GoodPair, n: int, horizon_k: int) -> RelVerdict:
    """Check the guarded relation for every k in H with n <= k < horizon_k.

    On failure, reports the least witnessing k together with both exact
    sides of the inequality.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative: {n}")
    part = pair.partition
    bad = pair.floor_violation(horizon_k)
    if bad is not None:
        raise ValueError(f"guard ratio at interval {bad} is not above 1/4")
    # |X ∩ E_k| < (1/2 + eps) m, with 1/2 + eps = num / den, on integers
    num, den = half_offset(pair.eps, 1)
    for k in range(n, horizon_k):
        if not pair.H.contains(k):
            continue
        lhs = pair.guard_at(k).intersect_set_count(X)
        m = part.restrict(k, X).count + part.boundary(k)
        if not lhs * den < num * m:
            return RelVerdict(False, k, lhs, Fraction(num * m, den))
    return RelVerdict(True)


def _banded_guard(partition: IntervalPartition, k: int) -> IntervalSubset:
    """First-s guard with s/|I_k| strictly inside (1/4, 3/8)."""
    size = partition.size(k)
    s = (5 * size) // 16
    if Fraction(s, size) <= QUARTER:
        s += 1
    if not (QUARTER < Fraction(s, size) < Fraction(3, 8)):
        raise ValueError(
            f"interval {k} (size {size}) admits no guard ratio in (1/4, 3/8)"
        )
    return partition.first(k, s)


def witness_above(X: OmegaSet, eps, partition: IntervalPartition,
                  horizon_k: int) -> GoodPair:
    """A guard pair bounding X, by the trace dichotomy.

    If at least half the materialised intervals carry an X-ratio below
    3/4, guard those intervals with I_k \\ X (bounding from index 1);
    otherwise X is nearly full beyond some K, and first-5/16 guards bound
    it from index 0.
    """
    eps = as_fraction(eps)
    require_infinite(X, "X")
    traces = [partition.restrict(k, X) for k in range(horizon_k)]
    ratios = [sub.ratio() for sub in traces]
    low = {k for k, r in enumerate(ratios) if r < Fraction(3, 4)}
    if 2 * len(low) >= horizon_k:
        guards = {k: traces[k].complement() for k in low}
        H = ExplicitSet.from_elements(low, horizon_k, tail=(True,))
        return GoodPair(partition, H, guards, eps)
    high_cut = max((k + 1 for k, r in enumerate(ratios) if r < Fraction(3, 4)),
                   default=0)
    K = max(2, high_cut)
    guards = {k: _banded_guard(partition, k) for k in range(K, horizon_k)}
    return GoodPair(partition, Progression(K, 1), guards, eps)


def witness_below(pair: GoodPair, horizon_k: int) -> IntervalSymbolicSet:
    """A set the pair bounds from index 1.

    Prefer the complement of the guards (off-guard intervals survive in
    full); when that leaves fewer than half the intervals inhabited, fall
    back to one point per interval.
    """
    part = pair.partition
    values = {}
    for k in range(horizon_k):
        if pair.H.contains(k):
            values[k] = pair.guard_at(k).complement()
        else:
            values[k] = part.full(k)
    inhabited = sum(1 for v in values.values() if v.count > 0)
    if 2 * inhabited >= horizon_k:
        return IntervalSymbolicSet(part, values, default="full")
    return IntervalSymbolicSet(part, {}, default="singleton")


def nwd_escape(X: OmegaSet, pair: GoodPair, n: int, m: int,
               horizon_k: int) -> tuple[IntervalSymbolicSet, int]:
    """Break the relation inside the basic neighbourhood {Y : Y∩m = X∩m}.

    Returns Y agreeing with X below m, equal to E_k on the least guarded
    k >= n whose interval clears m and whose guard is large enough for
    the flip, and equal to X elsewhere; rel_holds(Y, pair, n) then fails,
    witnessed at that k.
    """
    part = pair.partition
    if m > part.boundary(horizon_k):
        raise ValueError(f"prefix bound {m} lies beyond the horizon")
    before = rel_holds(X, pair, n, horizon_k)
    if not before.holds:
        raise ValueError(f"relation already fails at k={before.witness_k}")
    num, den = half_offset(pair.eps, 1)
    chosen = None
    for k in range(n, horizon_k):
        if not pair.H.contains(k):
            continue
        if part.boundary(k) < m:
            continue
        # r > (1/2 + eps)(r + 2^-k) for the guard ratio r = c / |I_k|,
        # multiplied through by den |I_k| 2^k
        guard = pair.guard_at(k)
        c = guard.count << k
        if c * den > num * (c + guard.size):
            chosen = k
            break
    if chosen is None:
        raise ValueError(
            "no sufficiently large guarded interval within the horizon; "
            "extend the horizon"
        )
    values = {chosen: pair.guard_at(chosen)}
    y_set = IntervalSymbolicSet(part, values, default="trace", default_base=X)
    return y_set, chosen


def reap_tukey_map(S: OmegaSet, eps, partition: IntervalPartition,
                   horizon_k: int) -> GoodPair:
    """Send a splitter S to the guard pair that bounds everything S
    almost-bisects.

    Uses S itself when its interval ratios are above 1/4 on at least half
    the materialised intervals, its complement otherwise; guarded
    intervals carry S' ∩ I_k, the rest the full interval.
    """
    eps = as_fraction(eps)
    require_infinite(S, "S")
    ratios = [partition.restrict(k, S).ratio() for k in range(horizon_k)]
    above = {k for k, r in enumerate(ratios) if r > QUARTER}
    if 2 * len(above) >= horizon_k:
        s_prime: OmegaSet = S
        chosen = above
    else:
        s_prime = complement(S)
        chosen = {k for k, r in enumerate(ratios) if 1 - r > QUARTER}
    guards = {k: partition.trace(k, s_prime) for k in chosen}
    H = ExplicitSet.from_elements(chosen, horizon_k, tail=(True,))
    return GoodPair(partition, H, guards, eps)
