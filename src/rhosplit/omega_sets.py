"""Infinite subsets of the naturals with exact counting at finite horizon.

A set is an immutable descriptor tree.  Membership of a single point is
always computable.  Prefix counts go through one method, ``counts_at``:
closed forms wherever the descriptor admits one (arithmetic
progressions, eventually periodic boolean combinations), then an
intersection with a progression counted on the progression's own grid,
then materialised membership words below a configurable cap (one bit
per index, counted by popcount), then sparse enumerations.
Partition-scale work should use the interval-symbolic representation
from :mod:`rhosplit.partitions`, which counts exactly at any magnitude.
"""

from __future__ import annotations

import os
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from math import gcd, lcm
from typing import Callable, Sequence

import numpy as np

from ._util import GOLDEN64, MASK64, MIX_M1, MIX_M2, as_fraction, mix64

__all__ = [
    "DEFAULT_EXPLICIT_CAP",
    "HorizonOverflowError",
    "FiniteSetError",
    "OmegaSet",
    "Progression",
    "ExplicitSet",
    "BernoulliSet",
    "CombineNode",
    "PowersSet",
    "SequenceSet",
    "StrideSelection",
    "OMEGA",
    "explicit_cap",
    "agree_below",
    "intersect",
    "union",
    "difference",
    "complement",
    "parse_set",
]

DEFAULT_EXPLICIT_CAP = 1 << 27
_ENV_CAP = "RHOSPLIT_HORIZON_CAP"

# Closed-form counting guards: prefix scans stay cheap, combined periodic
# patterns stay small, sparse enumerations stay bounded.
_PREFIX_SCAN_LIMIT = 1 << 16
_PATTERN_LIMIT = 1 << 12
_ENUM_LIMIT = 1 << 18
# PRF fill block: the resident scratch, three uint64 buffers of this
# length made at import (768 KB), stays in L2 (2^15 and 2^16 tie, in
# isolation and in the transform workload)
_CHUNK = 1 << 15
# PRF first-round table: at most this many indices (2 MiB), written only
# by ``tabulate_first_round``; 2^17, 2^18 and 2^19 were timed on a 1e6
# transform (README, "The PRF's shared first round")
_TABLE_CAPACITY = 1 << 18
# membership words: bit k % 64 of word k // 64 is index k
_WORD = np.dtype("<u8")
# _LOW_BITS[r]: the r lowest bits of a word set
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)
# gathered evaluation (README, "Gathered evaluation"), in units of one
# index of a dense Bernoulli fill: listing a set's members costs
# _LIST_COST per index; each set evaluated at them costs _GATHER_COST per
# member, and _WORDS_COST per index for its words.  So a lone set never
# pays for the listing
_LIST_COST = 0.86
_GATHER_COST = 2.15
_WORDS_COST = 0.14


def explicit_cap() -> int:
    """Largest horizon for explicit bit-vector materialisation."""
    raw = os.environ.get(_ENV_CAP)
    return int(raw) if raw else DEFAULT_EXPLICIT_CAP


class HorizonOverflowError(Exception):
    """Explicit materialisation was requested beyond the configured cap.

    Callers holding partition-scale data should switch to the
    interval-symbolic representation instead of raising the cap.
    """


class FiniteSetError(ValueError):
    """An operation that needs an infinite set got a finite-flagged one."""


@dataclass(frozen=True)
class TailPattern:
    """Eventually periodic structure: for k >= start, k is a member iff
    pattern[k % period]."""

    start: int
    period: int
    pattern: tuple[bool, ...]

    def counts_at(self, head: np.ndarray, checkpoints: Sequence[int]) -> list[int]:
        """Members below each checkpoint, given the packed member words of
        the head [0, start); the words may stop at the largest checkpoint."""
        cum = [0, *accumulate(self.pattern)]

        def periodic(m: int) -> int:  # members of the periodic extension below m
            q, r = divmod(m, self.period)
            return q * cum[-1] + cum[r]

        heads = _prefix_counts(head, [min(n, self.start) for n in checkpoints]).tolist()
        base = periodic(self.start)
        return [c + periodic(n) - base if n > self.start else c
                for c, n in zip(heads, checkpoints)]


def _nwords(n: int) -> int:
    """Words for the bits of [0, n]: one past n, so that the word holding
    index n exists even when n is a multiple of 64."""
    return (n >> 6) + 1


def _prefix_counts(words: np.ndarray, checkpoints: Sequence[int]) -> np.ndarray:
    """Members below each checkpoint n, from packed words that cover every
    checkpoint (bits at and above a checkpoint are masked off), as int64.
    One row of words, shape (w,), gives one count per checkpoint; rows of
    words, shape (r, w), give one such row of counts per row, all counted
    in this one call.

    Checkpoints may come in any order, repeat, or be negative (counted
    as 0).  A checkpoint n counts the whole words below word n // 64 and
    then the low n % 64 bits of that word.  The whole words are popcounted
    once and summed only between consecutive checkpoint words
    (``np.add.reduceat``), so the running sum covers one entry per
    checkpoint, not one per word: rank from block sums, after Jacobson,
    "Space-efficient static trees and graphs", FOCS 1989.
    """
    n = np.maximum(np.asarray(checkpoints, dtype=np.int64), 0)
    q = n >> 6
    order = np.argsort(q, kind="stable")
    s = q[order]
    # every count is at most 64 * (s[-1] + 1)
    dt = np.uint32 if s[-1] < 1 << 26 else np.uint64
    # segment i sums the words of [bounds[i], bounds[i + 1]); where the two
    # are equal reduceat gives the one word at bounds[i] instead, so those
    # segments are cleared, and the segment from the last word is dropped
    bounds = np.concatenate(([0], s))
    seg = np.add.reduceat(np.bitwise_count(words[..., :s[-1] + 1]), bounds,
                          axis=-1, dtype=dt)[..., :-1]
    seg[..., bounds[:-1] == s] = 0
    counts = np.empty(seg.shape, dtype=np.int64)
    counts[..., order] = seg.cumsum(axis=-1, dtype=dt)
    # take() gathers along the last axis; indexing with [..., q] does the
    # same a few microseconds slower per call
    counts += np.bitwise_count(words.take(q, axis=-1) & _LOW_BITS[n & 63])
    return counts


def _unpack(words: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Membership bits of [lo, hi) as a bool vector, from packed words."""
    octets = words.view(np.uint8)[lo >> 3:(hi + 7) >> 3]
    skip = lo & 7
    return np.unpackbits(octets, bitorder="little")[skip:skip + hi - lo].view(bool)


def _pack(n: int, fill: Callable[[int, np.ndarray], None]) -> np.ndarray:
    """Packed words of [0, n), built block by block: ``fill(lo, out)``
    writes the membership bits of [lo, lo + len(out)) into the bool block
    ``out``, for consecutive blocks in increasing order.  No bool vector
    of length n is built."""
    words = np.zeros(_nwords(n), dtype=_WORD)
    octets = words.view(np.uint8)
    # a multiple of the PRF block and of the word, so both grids line up
    step = lcm(_CHUNK, 64)
    block = np.empty(min(step, n), dtype=bool)
    for lo in range(0, n, step):
        out = block[:min(step, n - lo)]
        fill(lo, out)
        octets[lo >> 3:(lo + out.shape[0] + 7) >> 3] = np.packbits(out, bitorder="little")
    return words


class MemberList:
    """The members below n of a set, listed once from its packed words so
    that Bernoulli sets can be evaluated at them alone (``packed_on``).

    ``idx`` holds the members in increasing order, as int32 (int64 from
    2^31 on), listed block by block: no bool vector of length n is built.
    For the scatter back into words, ``bit`` holds each member's bit in
    its word (uint8), ``wids`` the words that hold a member, and
    ``starts`` where each such word's members start in idx, with len(idx)
    appended.  ``pieces`` cuts idx at word starts into pieces (r0, r1,
    s0, s1) of at most ``_CHUNK`` members, or one word: the words
    wids[r0:r1] hold the members idx[s0:s1].
    """

    __slots__ = ("n", "idx", "bit", "wids", "starts", "pieces")

    def __init__(self, words: np.ndarray, n: int):
        self.n = n
        q = n >> 6
        # the whole words below n, then the low bits of word q
        head = words[:q + 1].copy()
        head[q] &= _LOW_BITS[n & 63]
        self.wids = np.flatnonzero(head)
        sizes = np.bitwise_count(head[self.wids])
        self.starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        count = int(self.starts[-1])
        self.idx = np.empty(count, dtype=np.int32 if n <= 1 << 31 else np.int64)
        self.bit = np.empty(count, dtype=np.uint8)
        step, pos = lcm(_CHUNK, 64), 0
        for lo in range(0, n, step):
            at = np.flatnonzero(_unpack(head, lo, min(lo + step, n)))
            end = pos + at.shape[0]
            np.add(at, lo, out=self.idx[pos:end], casting="unsafe")
            np.bitwise_and(at, 63, out=self.bit[pos:end], casting="unsafe")
            pos = end
        # a piece takes at least one word, whose at most 64 members fit
        # the scratch whatever the chunk
        self.pieces, r = [], 0
        while r < self.wids.shape[0]:
            s0 = int(self.starts[r])
            r1 = max(r + 1, int(np.searchsorted(self.starts, s0 + _CHUNK, "right")) - 1)
            self.pieces.append((r, r1, s0, int(self.starts[r1])))
            r = r1

    def scatter(self, words: np.ndarray, piece: tuple[int, int, int, int],
                keep: np.ndarray) -> None:
        """Writes the words of one piece from its members' bits keep, in
        word space: each member's bit shifted into place (in the block
        scratch) and each word's bits ORed together (``reduceat``)."""
        r0, r1, s0, s1 = piece
        with _SCRATCH.lock:
            v = _SCRATCH.t[:s1 - s0]
            np.left_shift(keep, self.bit[s0:s1], out=v, dtype=np.uint64)
            words[self.wids[r0:r1]] = np.bitwise_or.reduceat(v, self.starts[r0:r1] - s0)


def sparse_members(s: OmegaSet, n: int, legs: int) -> MemberList | None:
    """The members of s below n as a ``MemberList``, when listing them
    and evaluating legs Bernoulli sets at them costs less than filling
    those sets over [0, n); None otherwise, without reading s when no
    list can pay.  s's words are packed past the cap check: n passed it
    already."""
    saved = legs * (1 - _WORDS_COST) - _LIST_COST  # per index, with no members
    if saved <= 0:
        return None
    words = s.packed(n, cap=n)
    if _prefix_counts(words, [n])[0] * legs * _GATHER_COST >= saved * n:
        return None
    return MemberList(words, n)


class OmegaSet:
    """Base class for enumerable subsets of the naturals.

    Values are immutable after construction; all operations are pure, so
    sharing across threads is safe.  The only internal mutation is
    caching: packed membership words (one bit per index, see ``packed``)
    of the first ``_built`` indices, grown on demand, dropped by
    ``release_words`` and set by ``hold_words``, and an intersection's
    grid (``CombineNode._grid``), derived on first count.  Dropping words
    changes no answer, but a reader in another thread may be between the
    length check and the read, so only the code that built a set and
    alone holds it releases its words or hands it words.
    """

    __slots__ = ("_mat", "_built")

    def __init__(self):
        self._mat: np.ndarray | None = None
        self._built = 0

    # -- membership and structure ------------------------------------

    def contains(self, k: int) -> bool:
        raise NotImplementedError

    def tail_pattern(self) -> TailPattern | None:
        return None

    @property
    def provably_finite(self) -> bool:
        tp = self.tail_pattern()
        return tp is not None and not any(tp.pattern)

    def size_if_finite(self) -> int | None:
        tp = self.tail_pattern()
        if tp is not None and not any(tp.pattern):
            return self.count_below(tp.start)
        return None

    def along(self, a: int, d: int) -> OmegaSet | None:
        """S_(a,d) = {j : a + d*j in self}, or None when it has no form
        cheaper to count than self.

        |self ∩ prog(a,d) ∩ [0,n)| = |S_(a,d) ∩ [0,J)|, where J is the
        number of members of prog(a,d) below n.
        """
        return self if (a, d) == (0, 1) else self._along(a, d)

    def _along(self, a: int, d: int) -> OmegaSet | None:
        return None

    # -- exact counting ------------------------------------------------

    def count_below(self, n: int) -> int:
        """|self ∩ [0, n)|, exactly."""
        return self.counts_at([n])[0]

    def counts_at(self, checkpoints: Sequence[int]) -> list[int]:
        """|self ∩ [0, n)| at each checkpoint n, exactly, sharing work
        across the checkpoints.

        Subclasses with a closed form override this; everything else
        counts here, by the first strategy that applies: the closed form
        of an eventually periodic tail, its head read once from the packed
        words; a grid, the set counted along a progression (see
        ``CombineNode._grid``); the cached packed words below the cap;
        sparse enumeration (the rescue path for astronomically large
        horizons).
        """
        if not checkpoints:
            return []
        horizon = max(max(checkpoints), 0)
        tp = self.tail_pattern()
        if tp is not None and tp.start <= _PREFIX_SCAN_LIMIT:
            # the head is short, so it is read whatever the cap
            head = min(horizon, tp.start)
            return tp.counts_at(self.packed(head, cap=head), checkpoints)
        grid = self._grid(checkpoints, horizon)
        if grid is not None:
            g, js = grid
            try:
                return g.counts_at(js)
            except HorizonOverflowError:
                pass  # J beyond the cap; sparse enumeration may still reach
        if horizon <= explicit_cap():
            return _prefix_counts(self.packed(horizon), checkpoints).tolist()
        elems = self.enumerate_below(horizon, _ENUM_LIMIT)
        if elems is not None:
            return [bisect_left(elems, n) for n in checkpoints]
        raise HorizonOverflowError(
            f"cannot count at horizon {horizon}: beyond the cap and not "
            "sparsely enumerable"
        )

    def _grid(self, checkpoints: Sequence[int],
              horizon: int) -> tuple[OmegaSet, Sequence[int]] | None:
        """(G, J) such that this set's counts at the checkpoints are G's
        counts at J, when that is cheaper at this horizon."""
        return None

    def enumerate_below(self, n: int, limit: int) -> list[int] | None:
        """Sorted members below n, or None when not cheaply enumerable."""
        return None

    # -- materialisation -----------------------------------------------

    def packed(self, n: int, cap: int | None = None) -> np.ndarray:
        """Membership words of [0, n], read-only: n // 64 + 1 little-endian
        uint64 words, bit k % 64 of word k // 64 for index k.

        The cache may reach past n, so the last word can hold members at
        and above n; readers mask at n.  Above the built length of the
        cache every bit is zero.
        """
        if n < 0:
            raise ValueError("horizon must be non-negative")
        cap = explicit_cap() if cap is None else cap
        if n > cap:
            raise HorizonOverflowError(
                f"explicit horizon {n} exceeds cap {cap}; "
                "use the interval-symbolic form"
            )
        if self._mat is None or self._built < n:
            # a longer horizon grows the cache geometrically within the
            # cap, so a scan over increasing horizons rebuilds O(log n) times
            size = n if self._mat is None else min(max(n, 2 * self._built), cap)
            self.hold_words(self._materialize_impl(size), size)
        return self._mat[:_nwords(n)]

    def release_words(self) -> None:
        """Drop the cached packed words; a later ``packed`` rebuilds them."""
        self._mat, self._built = None, 0

    def hold_words(self, words: np.ndarray, n: int) -> None:
        """Cache words as this set's packed words of [0, n]: ``packed``
        stores what it builds here, and so may the code that built this
        set and found its words another way (such as ``packed_on`` at a
        superset's members).  Bits at and above n are cleared, on a copy
        when words is read-only."""
        if words.shape[0] != _nwords(n):
            raise ValueError(f"{words.shape[0]} words do not cover [0, {n}]")
        if int(words[-1]) >> (n & 63):
            if not words.flags.writeable:
                words = words.copy()
            words[-1] &= _LOW_BITS[n & 63]
        words.flags.writeable = False
        # words first: a reader that sees the new length sees them too
        self._mat, self._built = words, n

    def packed_on(self, members: MemberList) -> np.ndarray | None:
        """Packed words of [0, members.n) holding this set's members among
        the listed ones, found by evaluating it there alone; None when it
        has no vectorised test, as only a Bernoulli set has."""
        return None

    def materialize(self, n: int) -> np.ndarray:
        """Membership bits over [0, n) as a read-only bool vector,
        unpacked from the packed words."""
        bits = _unpack(self.packed(n), 0, n)
        bits.flags.writeable = False
        return bits

    def _materialize_impl(self, n: int) -> np.ndarray:
        """Packed words of [0, n); bits above n may be set."""
        return _pack(n, self._fill)

    def _fill(self, lo: int, out: np.ndarray) -> None:
        """Writes the membership bits of [lo, lo + len(out)) into the bool
        block ``out``, for any lo, leaving this set's cached words alone:
        the one thing a leaf set supplies."""
        raise NotImplementedError

    # -- enumeration -----------------------------------------------------

    def kth_element(self, k: int) -> int:
        """k-th member (0-indexed) of the increasing enumeration."""
        if k < 0:
            raise IndexError("negative index")
        total = self.size_if_finite()
        if total is not None and k >= total:
            raise IndexError(f"element {k} beyond finite set of size {total}")
        cap = explicit_cap()
        lo, hi = 0, max(1, min(256, cap))
        while self.count_below(hi) <= k:
            # stop once on the cap, so a member below it is found even
            # where counting beyond it overflows
            lo, hi = hi, (2 * hi if hi >= cap else min(2 * hi, cap))
        # invariant: count_below(lo) <= k < count_below(hi)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.count_below(mid) <= k:
                lo = mid
            else:
                hi = mid
        return lo

    def descriptor(self) -> str:
        """Grammar form of this set, when it has one."""
        raise NotImplementedError(f"{type(self).__name__} has no grammar form")


class Progression(OmegaSet):
    """Arithmetic progression a, a+d, a+2d, ..."""

    __slots__ = ("a", "d")

    def __init__(self, a: int, d: int):
        super().__init__()
        if a < 0 or d <= 0:
            raise ValueError("progression needs a >= 0 and d >= 1")
        self.a = a
        self.d = d

    def contains(self, k: int) -> bool:
        return k >= self.a and (k - self.a) % self.d == 0

    def counts_at(self, checkpoints):
        return [max(0, (n - 1 - self.a) // self.d + 1) for n in checkpoints]

    def kth_element(self, k: int) -> int:
        if k < 0:
            raise IndexError("negative index")
        return self.a + self.d * k

    def _along(self, a, d):
        # a + d*j = self.a + self.d*i: d*j = self.a - a (mod self.d), and
        # j >= (self.a - a) / d
        g = gcd(d, self.d)
        if (self.a - a) % g:
            return ExplicitSet((), (False,))
        m = self.d // g
        j0 = (self.a - a) // g * pow(d // g, -1, m) % m
        lo = max(0, -((a - self.a) // d))
        return Progression(lo + (j0 - lo) % m, m)

    def tail_pattern(self):
        if self.a > _PREFIX_SCAN_LIMIT or self.d > _PATTERN_LIMIT:
            return None
        res = self.a % self.d
        return TailPattern(self.a, self.d, tuple(r == res for r in range(self.d)))

    @property
    def provably_finite(self) -> bool:
        return False

    def enumerate_below(self, n, limit):
        c = self.count_below(n)
        if c > limit:
            return None
        return [self.a + self.d * j for j in range(c)]

    def _fill(self, lo, out):
        out[:] = False
        first = max(self.a, lo + (self.a - lo) % self.d)
        out[first - lo::self.d] = True

    def descriptor(self) -> str:
        if self.a == 0 and self.d == 1:
            return "omega"
        return f"prog({self.a},{self.d})"

    def __repr__(self):
        return f"Progression({self.a}, {self.d})"


class ExplicitSet(OmegaSet):
    """Explicit prefix bits followed by a periodic tail pattern."""

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix_bits, tail: Sequence[bool] = (False,)):
        super().__init__()
        arr = np.asarray(prefix_bits, dtype=bool)
        if arr.ndim != 1:
            raise ValueError("prefix bits must be one-dimensional")
        arr = arr.copy()
        arr.flags.writeable = False
        self.prefix = arr
        self.tail = tuple(bool(b) for b in tail)
        if not self.tail:
            raise ValueError("tail pattern must be non-empty")

    @classmethod
    def from_elements(cls, elements, horizon: int | None = None,
                      tail: Sequence[bool] = (False,)) -> "ExplicitSet":
        elements = sorted(set(elements))
        if elements and elements[0] < 0:
            raise ValueError("elements must be naturals")
        n = horizon if horizon is not None else (elements[-1] + 1 if elements else 0)
        bits = np.zeros(n, dtype=bool)
        for e in elements:
            if e < n:
                bits[e] = True
        return cls(bits, tail)

    def contains(self, k: int) -> bool:
        n = self.prefix.shape[0]
        if k < n:
            return k >= 0 and bool(self.prefix[k])
        return self.tail[(k - n) % len(self.tail)]

    def counts_at(self, checkpoints):
        # the closed form at any prefix length, so counting never falls
        # back to enumerate_below, which counts first
        plen = self.prefix.shape[0]
        head = min(max([0, *checkpoints]), plen)
        return self.tail_pattern().counts_at(self.packed(head, cap=plen), checkpoints)

    def tail_pattern(self):
        n, per = self.prefix.shape[0], len(self.tail)
        pattern = tuple(self.tail[(r - n) % per] for r in range(per))
        return TailPattern(n, per, pattern)

    def _along(self, a, d):
        plen, per = self.prefix.shape[0], len(self.tail)
        bits = self.prefix[a:plen:d]  # j with a + d*j in the prefix
        k = bits.shape[0]
        return ExplicitSet(bits, tuple(self.contains(a + d * (k + r)) for r in range(per)))

    def enumerate_below(self, n, limit):
        if self.count_below(n) > limit:
            return None
        plen, per = self.prefix.shape[0], len(self.tail)
        out = np.flatnonzero(self.prefix[:max(n, 0)]).tolist()
        # the tail by its member residues, in O(count + period)
        offsets = [r for r, b in enumerate(self.tail) if b]
        if offsets:
            out += [base + r for base in range(plen, n, per)
                    for r in offsets if base + r < n]
        return out

    def _fill(self, lo, out):
        plen = self.prefix.shape[0]
        k = min(max(plen - lo, 0), out.shape[0])
        out[:k] = self.prefix[lo:lo + k]
        # the tail from index lo + k on, repeated to the block's end
        tail = np.asarray(self.tail, dtype=bool)
        phase = (lo + k - plen) % tail.shape[0]
        out[k:] = np.resize(np.roll(tail, -phase), out.shape[0] - k)

    def __repr__(self):
        return f"ExplicitSet(<{self.prefix.shape[0]} bits>, tail={self.tail})"


class _BlockScratch:
    """The PRF's block buffers, made once per process and reused by every
    fill: buffers made per fill are fresh pages, over a hundred minor
    faults for a 2e5-bit fill.  ``np.empty`` touches no page before the
    first fill.  One lock serialises the fills that use them.

    ``table`` holds mix64's first round of the PRF indices below
    ``written`` before the key is mixed in (see ``first_round``); it is
    the same for every Bernoulli set, so a fill reads it instead of
    computing it.  Only ``tabulate_first_round`` writes it, and no page
    of it is resident before then."""

    __slots__ = ("ramp", "x", "t", "step", "lock", "table", "written")

    def __init__(self, size: int, capacity: int):
        self.ramp, self.x, self.t = np.empty((3, size), dtype=np.uint64)
        self.step: int | None = None  # the stride ramp holds
        self.lock = threading.Lock()
        self.table = np.empty(capacity, dtype=np.uint64)
        self.written = 0

    def ramp_of(self, step: int) -> np.ndarray:
        """ramp[k] = k * step mod 2^64, rebuilt in place (a cumulative sum
        of the step) only when the step changes; called under the lock."""
        if step != self.step:
            r = self.ramp
            r.fill(step)
            r[0] = 0
            np.cumsum(r, out=r)
            self.step = step
        return self.ramp

    def first_round(self, i: int, d: int, out: np.ndarray, t: np.ndarray,
                    at: np.ndarray | None = None) -> None:
        """out[k] = R ^ (R >> 30) for R = (i + d*j) * M1 mod 2^64, with
        j = k, or j = at[k] for given offsets at: the first round of mix64
        on PRF index i + d*j before the key.  With x = R ^ key,
        x ^ (x >> 30) = (R ^ R >> 30) ^ (key ^ key >> 30), since a right
        shift distributes over XOR.  t is scratch of out's length; called
        under the lock."""
        # (i + d*j) * M1 = i * M1 + j * (d * M1) (mod 2^64)
        step, base = (d * MIX_M1) & MASK64, np.uint64((i * MIX_M1) & MASK64)
        if at is None:
            np.add(self.ramp_of(step)[:out.shape[0]], base, out=out)
        else:
            out[:] = at
            out *= np.uint64(step)
            out += base
        np.right_shift(out, _S30, out=t)
        out ^= t


_SCRATCH = _BlockScratch(_CHUNK, _TABLE_CAPACITY)
# below a threshold with these bits zero, mix64's last step need not run
_LOW33 = (1 << 33) - 1
# mix64's multipliers and shifts as numpy scalars, made once
_M1, _M2 = np.uint64(MIX_M1), np.uint64(MIX_M2)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


def tabulate_first_round(n: int) -> None:
    """Extend the table of the PRF's key-independent first round, in
    place, to the indices below n, or below its capacity when n exceeds
    it, so that every later Bernoulli fill of consecutive indices there
    reads it.  For code about to fill many Bernoulli sets over [0, n);
    the table stays written for the life of the process."""
    scratch = _SCRATCH
    n = min(n, scratch.table.shape[0])
    with scratch.lock:
        for start in range(scratch.written, n, _CHUNK):
            m = min(_CHUNK, n - start)
            scratch.first_round(start, 1, scratch.table[start:start + m], scratch.t[:m])
        scratch.written = max(scratch.written, n)


def _below(x: np.ndarray, thr: int, t: np.ndarray, out: np.ndarray) -> None:
    """out = (u < thr) for u = x ^ (x >> 31), mix64's last step, from the
    states x before it; x and t are scratch.

    When the low 33 bits of thr are zero (p = k / 2^j with j <= 31) the
    step is skipped: it keeps the top 31 bits, so u < thr iff
    u >> 33 < thr >> 33 iff x >> 33 < thr >> 33 iff x < thr.
    """
    if thr & _LOW33:
        np.right_shift(x, _S31, out=t)
        x ^= t
    np.less(x, np.uint64(thr), out=out)


class BernoulliSet(OmegaSet):
    """Pseudo-random set: k is a member iff PRF(seed, k) < p * 2^64.

    The PRF is counter-mode (a pure function of (seed, k)), so membership
    of any index is computable without streaming and two materialisations
    agree bit for bit.  ``along`` maps the index, k -> a + d*k, and the
    mapped set evaluates the PRF only at those indices.
    """

    __slots__ = ("p", "seed", "_key", "_thr", "_a", "_d")

    def __init__(self, p, seed: int):
        super().__init__()
        p = as_fraction(p)
        if not (0 < p < 1):
            raise ValueError(f"Bernoulli density must lie in (0,1), got {p}")
        self.p = p
        self.seed = int(seed)
        self._key = mix64((self.seed + GOLDEN64) & MASK64)
        thr = -((-(p.numerator << 64)) // p.denominator)  # ceil(p * 2^64)
        self._thr = min(thr, MASK64)
        self._a, self._d = 0, 1  # member k is PRF index a + d*k

    def contains(self, k: int) -> bool:
        i = self._a + self._d * k  # the PRF index
        u = mix64(self._index_key(i) ^ ((i * MIX_M1) & MASK64))
        return u < self._thr

    def _index_key(self, i: int) -> int:
        """The PRF key of PRF index i: the set's key below 2^64, and from
        2^64 on that key hashed with each 64-bit limb of i >> 64 in turn,
        so that indices that agree mod 2^64 get independent bits."""
        key, high = self._key, i >> 64
        while high > 0:
            key = mix64(key ^ ((high & MASK64) * MIX_M1 & MASK64))
            high >>= 64
        return key

    def _along(self, a, d):
        g = BernoulliSet(self.p, self.seed)
        g._a, g._d = self._a + self._d * a, self._d * d
        return g

    def _fill(self, lo: int, out: np.ndarray) -> None:
        """The vectorised ``contains``: writes the membership bits of
        [lo, lo + len(out)) into the bool vector ``out``.

        The PRF runs block by block (``_CHUNK`` indices from lo), in place
        in the resident block scratch, so its arithmetic stays in cache
        whatever the range.  A block of consecutive PRF indices inside the
        tabulated first round reads that round from the table; any other
        block computes it.  The PRF is a function of the index alone, so
        the block seams do not show.  Members whose PRF index reaches 2^64
        go through ``contains``.
        """
        a, d, key = self._a, self._d, self._round_key()
        hi = lo + out.shape[0]
        # the first member whose PRF index a + d*k reaches 2^64
        wide = min(max(lo, -((a - (1 << 64)) // d)), hi)
        scratch = _SCRATCH
        with scratch.lock:
            for start in range(lo, wide, _CHUNK):
                m = min(_CHUNK, wide - start)
                x, t = scratch.x[:m], scratch.t[:m]
                i = a + d * start  # the PRF index of member start
                if d == 1 and i + m <= scratch.written:
                    np.bitwise_xor(scratch.table[i:i + m], key, out=x)
                else:
                    scratch.first_round(i, d, x, t)
                    x ^= key
                self._last_rounds(x, t, out[start - lo:start - lo + m])
        for k in range(wide, hi):
            out[k - lo] = self.contains(k)

    def members_at(self, idx: np.ndarray) -> np.ndarray:
        """Membership of each index of idx, an array of naturals, as a bool
        array: ``_fill``'s PRF steps at the gathered indices, ``_CHUNK`` of
        them at a time in the resident block scratch, with the first round
        computed from the indices: reading it from the table (``np.take``)
        made the fallback transforms about 4% slower, likely as its 2 MiB
        compete with the scratch for the cache.
        Indices whose PRF index reaches 2^64 go through ``contains``."""
        a, d, key = self._a, self._d, self._round_key()
        out = np.empty(idx.shape, dtype=bool)
        if a + d * int(idx.max(initial=-1)) > MASK64:
            out[:] = [self.contains(int(k)) for k in idx]
            return out
        scratch = _SCRATCH
        with scratch.lock:
            for s in range(0, idx.shape[0], _CHUNK):
                part = idx[s:s + _CHUNK]
                m = part.shape[0]
                x, t = scratch.x[:m], scratch.t[:m]
                scratch.first_round(a, d, x, t, at=part)
                x ^= key
                self._last_rounds(x, t, out[s:s + m])
        return out

    def packed_on(self, members):
        words = np.zeros(_nwords(members.n), dtype=_WORD)
        for piece in members.pieces:
            members.scatter(words, piece, self.members_at(members.idx[piece[2]:piece[3]]))
        return words

    def _round_key(self) -> np.uint64:
        """The key's share of mix64's first round (``first_round``)."""
        return np.uint64(self._key ^ self._key >> 30)

    def _last_rounds(self, x: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
        """out = (PRF < threshold) from x, the first round of mix64 with
        the key in, in place; t is scratch of x's length.  Called under the
        scratch's lock."""
        # the rest of mix64 up to its last step, with the shifted copies in t
        x *= _M1
        np.right_shift(x, _S27, out=t)
        x ^= t
        x *= _M2
        _below(x, self._thr, t, out)

    def descriptor(self) -> str:
        if (self._a, self._d) != (0, 1):
            raise NotImplementedError("a mapped BernoulliSet has no grammar form")
        return f"bern({self.p},{self.seed})"

    def __repr__(self):
        mapped = "" if (self._a, self._d) == (0, 1) else f", along=({self._a}, {self._d})"
        return f"BernoulliSet({self.p}, seed={self.seed}{mapped})"


# each op's arity and pointwise rule, written once: the rule serves a
# single membership, a tail pattern as a bool vector and packed uint64
# words alike (on a plain bool, ~ is bitwise, so a membership reads bit 0)
_OPS = {
    "inter": (2, lambda a, b: a & b),
    "union": (2, lambda a, b: a | b),
    "diff": (2, lambda a, b: a & ~b),
    "compl": (1, lambda a: ~a),
}


class CombineNode(OmegaSet):
    """Pointwise boolean combination of child sets."""

    __slots__ = ("op", "children", "_rule", "_tail", "_x", "_g")

    def __init__(self, op: str, children: Sequence[OmegaSet]):
        super().__init__()
        if op not in _OPS:
            raise ValueError(f"unknown combination op {op!r}")
        arity, self._rule = _OPS[op]
        if len(children) != arity:
            raise ValueError(f"{op} takes exactly {arity} child(ren)")
        self.op = op
        self.children = tuple(children)
        # derived once, here: set trees are shared DAGs, and a node never
        # changes after construction
        self._tail = self._derive_tail()
        # an intersection counts on its sparsest progression child's grid
        # (see _grid); the grid itself is derived on first use, because
        # along() builds a parallel tree whose own grids would nest
        self._x: Progression | None = None
        self._g: OmegaSet | None = None
        if op == "inter":
            for c in self.children:
                if isinstance(c, Progression) and (self._x is None or c.d > self._x.d):
                    self._x = c

    def contains(self, k: int) -> bool:
        return bool(self._rule(*[c.contains(k) for c in self.children]) & 1)

    def tail_pattern(self):
        return self._tail

    def _along(self, a, d):
        ch = [c.along(a, d) for c in self.children]
        return None if any(c is None for c in ch) else CombineNode(self.op, ch)

    def _grid(self, checkpoints, horizon):
        """inter(other, x) with x = prog(a, d) counts as
        other.along(a, d) below J(n) = |x ∩ [0, n)|, so only J bits are
        built.  The grid of omega is the other child itself, with
        J(n) = n, always taken; any other grid is passed over when the
        other child's words already reach the horizon, which the packed
        path reuses where the grid would evaluate that child again."""
        x = self._x
        if x is None:
            return None
        a, b = self.children
        other = b if a is x else a
        omega = (x.a, x.d) == (0, 1)
        if not omega and other._mat is not None and other._built >= horizon:
            return None
        if self._g is None:
            self._g = other.along(x.a, x.d)
            if self._g is None:
                self._x = None  # no cheaper form: never ask again
                return None
        return self._g, checkpoints if omega else x.counts_at(checkpoints)

    def _derive_tail(self) -> TailPattern | None:
        tps = []
        for c in self.children:
            tp = c.tail_pattern()
            if tp is None:
                # a child empty from its start on empties an intersection
                # from there, and so does a difference's first child,
                # whatever the other child is (provably_finite asks no
                # progression for its pattern)
                absorbing = {"inter": self.children, "diff": self.children[:1]}
                starts = [e.tail_pattern().start for e in absorbing.get(self.op, ())
                          if e.provably_finite]
                return TailPattern(min(starts), 1, (False,)) if starts else None
            tps.append(tp)
        # a lone child keeps its period, however long; combined periods
        # stay small
        period = lcm(*(tp.period for tp in tps))
        if len(tps) > 1 and period > _PATTERN_LIMIT:
            return None
        out = self._rule(*[np.resize(np.array(tp.pattern, dtype=bool), period)
                           for tp in tps])
        return TailPattern(max(tp.start for tp in tps), period, tuple(out.tolist()))

    def enumerate_below(self, n, limit):
        if self.op == "compl":
            return None
        left = self.children[0].enumerate_below(n, limit)
        if self.op in ("inter", "diff"):
            base = left
            if base is None and self.op == "inter":
                base = self.children[1].enumerate_below(n, limit)
            if base is None:
                return None
            return [e for e in base if self.contains(e)]
        right = self.children[1].enumerate_below(n, limit)
        if left is None or right is None:
            return None
        merged = sorted(set(left) | set(right))
        return merged if len(merged) <= limit else None

    def _materialize_impl(self, n):
        # no _fill: the op's word rule combines the children's cached words
        # (n passed this node's cap check; packed() clears their bits above n)
        return self._rule(*[c.packed(n, cap=n) for c in self.children])

    def descriptor(self) -> str:
        parts = ",".join(c.descriptor() for c in self.children)
        return f"{self.op}({parts})"

    def __repr__(self):
        return f"CombineNode({self.op!r}, {list(self.children)!r})"


class SequenceSet(OmegaSet):
    """Range of a strictly increasing integer sequence given by a function.

    Intended for sparse sequences: nothing is cached, and every answer
    goes through ``terms_below``, which reads the sequence from index 0
    and checks each increase on the way.
    """

    __slots__ = ("fn", "name")

    def __init__(self, fn: Callable[[int], int], name: str = "seq"):
        super().__init__()
        self.fn = fn
        self.name = name

    def terms_below(self, v: int) -> int:
        """The number of terms below v."""
        i, last = 0, -1
        while True:
            t = int(self.fn(i))
            if t < 0:
                raise ValueError("sequence values must be naturals")
            if t <= last:
                raise ValueError(f"{self.name} is not strictly increasing at index {i}")
            if t >= v:
                return i
            i, last = i + 1, t

    def contains(self, k: int) -> bool:
        return int(self.fn(self.terms_below(k))) == k

    def counts_at(self, checkpoints):
        return [self.terms_below(n) for n in checkpoints]

    def kth_element(self, k: int) -> int:
        if k < 0:
            raise IndexError("negative index")
        v = int(self.fn(k))
        if self.terms_below(v) != k:
            raise ValueError(f"{self.name} is not strictly increasing below index {k}")
        return v

    def enumerate_below(self, n, limit):
        c = self.terms_below(n)
        return None if c > limit else [int(self.fn(i)) for i in range(c)]

    def _fill(self, lo, out):
        # the terms in [lo, hi) alone, from the first at or above lo
        hi = lo + out.shape[0]
        out[:] = False
        j, last = self.terms_below(lo), lo - 1
        while (t := int(self.fn(j))) < hi:
            if t <= last:
                raise ValueError(f"{self.name} is not strictly increasing at index {j}")
            out[t - lo] = True
            j, last = j + 1, t

    def __repr__(self):
        return f"SequenceSet({self.name})"


class PowersSet(SequenceSet):
    """Geometric set {base**k : k >= 0}, the sequence k -> base**k."""

    __slots__ = ("base",)

    def __init__(self, base: int):
        if base < 2:
            raise ValueError("base must be at least 2")
        self.base = int(base)
        super().__init__(partial(pow, self.base), f"pow({self.base})")

    def terms_below(self, v: int) -> int:
        """The least j with b^j >= v, an integer log found without floats.

        With m the bit length of v - 1 >= 1 and c that of b^m, m log2 b
        lies in [c - 1, c), so j0 = (m - 1) m // c is at most log_b(v - 1)
        and short of it by less than 2m/c + 1 <= 3; the loop multiplies
        up from b^j0.
        """
        if v <= 1:
            return 0
        b, m = self.base, (v - 1).bit_length()
        j = (m - 1) * m // (b ** m).bit_length()
        t = b ** j
        while t < v:
            t, j = t * b, j + 1
        return j

    def descriptor(self) -> str:
        return self.name

    def __repr__(self):
        return f"PowersSet({self.base})"


class StrideSelection(OmegaSet):
    """Every stride-th element of a base set, starting at position offset."""

    __slots__ = ("source", "stride", "offset")

    def __init__(self, source: OmegaSet, stride: int, offset: int = 0):
        super().__init__()
        if stride < 1 or not (0 <= offset < stride):
            raise ValueError("need stride >= 1 and 0 <= offset < stride")
        self.source = source
        self.stride = stride
        self.offset = offset

    def contains(self, k: int) -> bool:
        if not self.source.contains(k):
            return False
        j = self.source.count_below(k)
        return j % self.stride == self.offset

    def counts_at(self, checkpoints):
        return [max(0, (j - self.offset + self.stride - 1) // self.stride)
                for j in self.source.counts_at(checkpoints)]

    def kth_element(self, k: int) -> int:
        if k < 0:
            raise IndexError("negative index")
        return self.source.kth_element(self.offset + self.stride * k)

    def tail_pattern(self):
        # a source empty from its start on empties the selection there too
        tp = self.source.tail_pattern()
        return tp if tp is not None and not any(tp.pattern) else None

    def _materialize_impl(self, n):
        # no _fill: a block's bits need the count of source members before it
        # (n passed this node's cap check, as in CombineNode)
        source = self.source.packed(n, cap=n)
        seen = 0  # source members below the block

        def fill(lo, out):
            nonlocal seen
            idx = np.flatnonzero(_unpack(source, lo, lo + out.shape[0]))
            out[:] = False
            out[idx[(self.offset - seen) % self.stride::self.stride]] = True
            seen += idx.shape[0]
        return _pack(n, fill)

    def descriptor(self) -> str:
        return f"every({self.source.descriptor()},{self.stride},{self.offset})"

    def __repr__(self):
        return f"StrideSelection({self.source!r}, {self.stride}, {self.offset})"


OMEGA = Progression(0, 1)


# -- operation-style wrappers --------------------------------------------


def agree_below(wa: np.ndarray, wb: np.ndarray, n: int) -> bool:
    """Whether two sets' packed words (``OmegaSet.packed``), each covering
    index n, hold the same members below n, compared word by word."""
    q = n >> 6
    return (bool(np.array_equal(wa[:q], wb[:q]))
            and not int(wa[q] ^ wb[q]) & ((1 << (n & 63)) - 1))


def intersect(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return CombineNode("inter", [a, b])


def union(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return CombineNode("union", [a, b])


def difference(a: OmegaSet, b: OmegaSet) -> OmegaSet:
    return CombineNode("diff", [a, b])


def complement(a: OmegaSet) -> OmegaSet:
    return CombineNode("compl", [a])


# -- descriptor grammar -----------------------------------------------------

# at most this many constructors nest, one inside the next: parsing,
# counting and materialising walk the tree recursively
_MAX_DEPTH = 100
_TOKEN = re.compile(r"\s*([0-9]+/[0-9]+|[0-9]+\.[0-9]+|[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[(),])")

# constructor -> (argument kinds, builder); a kind ending in "?" is
# optional, and the builder's default stands in for it
_GRAMMAR = {
    "prog": (("int", "int"), Progression),
    "bern": (("rational", "int"), BernoulliSet),
    "pow": (("int",), PowersSet),
    "every": (("set", "int", "int?"), StrideSelection),
    **{op: (("set",) * arity, lambda *ch, op=op: CombineNode(op, ch))
       for op, (arity, _) in _OPS.items()},
}


def _read_arg(kind: str, value):
    """A parsed argument (a set or a number token) read as the kind, or
    None when it is not one: digits alone for an int, and for a rational
    any number token with a nonzero denominator."""
    if isinstance(value, OmegaSet):
        return value if kind == "set" else None
    if kind == "int" and value.isdecimal():
        return int(value)
    if kind == "rational":
        try:
            return as_fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    return None


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad descriptor near {text[pos:pos + 12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_set(text: str) -> OmegaSet:
    """Parse the textual set grammar: omega, or a constructor of
    ``_GRAMMAR`` on arguments of its kinds, such as every(prog(0,2),3),
    nested at most ``_MAX_DEPTH`` constructors deep."""
    return _parse(text, family=False)[0]


def parse_family(text: str) -> list[OmegaSet]:
    """Parse a non-empty comma-separated list of descriptors."""
    return _parse(text, family=True)


def _parse(text: str, family: bool) -> list[OmegaSet]:
    """One descriptor, or with family set a top-level comma list of them."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of descriptor")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        pos += 1
        return tok

    def parse_args(depth):  # a list of number tokens and sets
        take("(")
        args = []
        while peek() != ")":
            if args:
                take(",")
            tok = peek()
            args.append(take() if tok is not None and tok[0].isdigit() else parse_expr(depth))
        take(")")
        return args

    def parse_expr(depth=1) -> OmegaSet:
        if depth > _MAX_DEPTH:
            raise ValueError(f"descriptor nests deeper than {_MAX_DEPTH} constructors")
        name = take()
        if not name[0].isalpha():
            raise ValueError(f"expected a set descriptor, got {name!r}")
        if name == "omega":
            return Progression(0, 1)
        if name not in _GRAMMAR:
            raise ValueError(f"unknown set constructor {name!r}")
        kinds, build = _GRAMMAR[name]
        args = parse_args(depth + 1)
        vals = [_read_arg(k.rstrip("?"), v) for k, v in zip(kinds, args)]
        required = sum(not k.endswith("?") for k in kinds)
        if not required <= len(args) <= len(kinds) or any(v is None for v in vals):
            raise ValueError(f"bad arguments: expected {name}({','.join(kinds)})")
        return build(*vals)

    result = [parse_expr()]
    while family and peek() == ",":
        take(",")
        result.append(parse_expr())
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in descriptor: {tokens[pos:]}")
    return result


def require_infinite(s: OmegaSet, role: str = "set"):
    if s.provably_finite:
        raise FiniteSetError(f"{role} is finite-flagged; an infinite set is required")
