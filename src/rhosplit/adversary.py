"""Adversarial interval constructions that defeat purported almost-bisectors.

Given exact per-interval cardinalities of a candidate splitter, these
operations extend a finite condition interval by interval, assembling a
set whose density ratio provably escapes the (1/2-eps, 1/2+eps) band at
chosen interval boundaries, and emit exact-rational certificates for each
escape.  The forcing-theoretic surroundings are not simulated: the
centred and slalom chains take their E-sequence / slalom data as input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from ._util import HALF, as_fraction, in_half_band, proper_width
from .certificates import Certificate, emit_certificate
from .omega_sets import OmegaSet, require_infinite
from .partitions import IntervalPartition, IntervalSubset, IntervalSymbolicSet

__all__ = [
    "DefeatResult",
    "Slalom",
    "min_index_for_eps",
    "defeat_bisector",
    "centred_thresholds",
    "centred_escape",
    "laver_blocks",
    "laver_escape",
    "half_slalom",
]


def min_index_for_eps(eps) -> int:
    """Least n with 2^(1-n) <= 1/2 - eps.

    For that n, 1/(2^(1-n) + 1) >= 1/2 + eps holds as well, which is what
    the escape chains need.  Both are read off integers: with eps = a/b,
    n is least with 2^n >= 4b/(b - 2a), and 2b * 2^n >= (b + 2a)(2^n + 2).
    """
    eps = as_fraction(eps)
    if not proper_width(eps):
        raise ValueError("eps must lie in (0, 1/2)")
    a, b = eps.numerator, eps.denominator
    # as in centred_thresholds: the least n with 2^n >= m is (m - 1).bit_length()
    n = (-(-4 * b // (b - 2 * a)) - 1).bit_length()
    assert b << (n + 1) >= (b + 2 * a) * ((1 << n) + 2)
    return n


@dataclass
class DefeatResult:
    x_set: IntervalSymbolicSet
    certificates: list[Certificate]
    realized: list[tuple[int, Fraction]]
    cases: list[str]


def defeat_bisector(S: OmegaSet, eps, partition: IntervalPartition,
                    condition: Mapping[int, IntervalSubset] | None = None,
                    rounds: int = 1) -> DefeatResult:
    """Extend a condition, a finite map n -> subset of I_n, so the
    assembled set escapes the eps-band.

    Each round picks the least unused interval index n at or above the
    eps threshold; when |S ∩ I_n| > |I_n|/2 the new value is S ∩ I_n
    (ratio certified >= 1/2 + eps at I_{<=n}), otherwise it is I_n \\ S
    (ratio certified <= 1/2 - eps).  Unclaimed intervals are filled with
    the least element of the interval to keep the set infinite.
    """
    eps = as_fraction(eps)
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    require_infinite(S, "S")

    n_min = min_index_for_eps(eps)
    values: dict[int, IntervalSubset] = dict(condition or {})
    chosen: list[tuple[int, str, IntervalSubset]] = []
    case_at: dict[int, str] = {}
    for _ in range(rounds):
        n = n_min
        while n in values:
            n += 1
        sub = partition.restrict(n, S)
        case = "case1" if 2 * sub.count > partition.size(n) else "case2"
        values[n] = sub if case == "case1" else sub.complement()
        case_at[n] = case
        chosen.append((n, case, sub))
    x_set = IntervalSymbolicSet(partition, values, default="singleton")

    max_n = max(n for n, _, _ in chosen)
    sx_counts = []
    for k in range(max_n + 1):
        xsub = x_set.value_at(k)
        if k in case_at:
            # chosen values are S∩I_k (all of it in S) or I_k \ S (none)
            sx_counts.append(xsub.count if case_at[k] == "case1" else 0)
        else:
            sx_counts.append(xsub.intersect_set_count(S))

    certificates, realized, cases = [], [], []
    for n, case, sub in chosen:
        num = sum(sx_counts[: n + 1])
        den = x_set.prefix_count(n)
        cards = {
            "prefix_count": partition.boundary(n),
            "interval_size": partition.size(n),
            "s_in_interval": sub.count,
            "ratio_num": num,
            "ratio_den": den,
        }
        certificates.append(emit_certificate(
            f"game-{case}", n, eps, None, cards, partition.boundaries(n + 1)))
        realized.append((n, Fraction(num, den)))
        cases.append(case)
    return DefeatResult(x_set, certificates, realized, cases)


def _eps_pair(eps, eps_prime) -> tuple[Fraction, Fraction]:
    eps, eps_prime = as_fraction(eps), as_fraction(eps_prime)
    if not (0 < eps < eps_prime and proper_width(eps_prime)):
        raise ValueError("need 0 < eps < eps' < 1/2")
    return eps, eps_prime


def _check_band(sub: IntervalSubset, eps_prime: Fraction):
    """|sub|/|I_k| must lie strictly inside (1/2 - eps', 1/2 + eps')."""
    if not in_half_band(sub.count, sub.size, eps_prime):
        raise ValueError(f"band violated at interval {sub.index}: ratio {sub.ratio()}")


def centred_thresholds(eps, eps_prime) -> tuple[int, int]:
    """Least indices activating the centred escape chain.

    n0: least n with (1 + 2^-n)(1/2 + eps) < 1/2 + eps' and
    1/2 - eps - 2^-n > 1/2 - eps'.  k0: least k with
    2^-k / (1/2 - eps') + 1 <= 1/(1/2 + eps).

    Both are read off integers.  With eps = a/b and eps' = c/d, the
    second condition on n is 2^n (cb - ad) > bd, and it implies the first
    (2^-n (1/2 + eps) < 2^-n < eps' - eps).  The condition on k is
    2^k (b - 2a)(d - 2c) >= 2d(b + 2a).
    """
    eps, eps_prime = _eps_pair(eps, eps_prime)
    a, b = eps.numerator, eps.denominator
    c, d = eps_prime.numerator, eps_prime.denominator
    # least n with 2^n > x is the bit length of floor(x); least k with
    # 2^k >= m, for an integer m >= 1, is the bit length of m - 1
    n0 = (b * d // (c * b - a * d)).bit_length()
    k0 = (-(-2 * d * (b + 2 * a) // ((b - 2 * a) * (d - 2 * c))) - 1).bit_length()
    return n0, k0


def centred_escape(guards: Mapping[int, IntervalSubset], eps, eps_prime,
                   n: int) -> Certificate:
    """Certificate that the set assembled from the E-sequence escapes
    upward at interval n.

    Every E_k for k <= n must have |E_k|/|I_k| strictly inside
    (1/2 - eps', 1/2 + eps'), so it is non-empty; n must be at or above
    the k-threshold of centred_thresholds.
    """
    eps, eps_prime = _eps_pair(eps, eps_prime)
    _, k0 = centred_thresholds(eps, eps_prime)
    if n < k0:
        raise ValueError(f"index {n} below the chain threshold k0={k0}")
    missing = [k for k in range(n + 1) if k not in guards]
    if missing:
        raise ValueError(f"E-sequence is missing intervals {missing}")
    partition = guards[n].partition
    for k in range(n + 1):
        _check_band(guards[k], eps_prime)
    cards = {
        "prefix_count": partition.boundary(n),
        "interval_size": partition.size(n),
        "escape_count": guards[n].count,
        "x_count": sum(guards[k].count for k in range(n + 1)),
    }
    return emit_certificate("centred-chain", n, eps, eps_prime, cards,
                            partition.boundaries(n + 1))


def laver_blocks(partition: IntervalPartition, m: int) -> tuple[int, int]:
    """Block m of the slalom schedule: intervals [2^m, 2^m + 2^m)."""
    if m < 0:
        raise ValueError("block index must be non-negative")
    first, count = 2 ** m, 2 ** m
    partition.ensure(first + count)
    return first, count


@dataclass(frozen=True)
class Slalom:
    """Per-block candidate families S(m) = {S^m_j : j < 2^m} over the
    blocks Q_m, plus a branch choice.  Block m holds each candidate as
    its diagonal piece S^m_j ∩ I_(2^m+j), the only part of it that the
    escape reads: piece j lies on interval 2^m + j."""

    partition: IntervalPartition
    blocks: Mapping[int, Sequence[IntervalSubset]]
    branch: Mapping[int, int]

    def __post_init__(self):
        for m, pieces in self.blocks.items():
            if len(pieces) != 2 ** m:
                raise ValueError(
                    f"block {m} must hold exactly {2 ** m} pieces, "
                    f"got {len(pieces)}"
                )
            for j, piece in enumerate(pieces):
                if piece.index != 2 ** m + j or piece.partition is not self.partition:
                    raise ValueError(
                        f"piece {j} of block {m} must lie on interval "
                        f"{2 ** m + j} of the slalom's partition"
                    )
        for m, j in self.branch.items():
            if m not in self.blocks:
                raise ValueError(f"branch chooses missing block {m}")
            if not 0 <= j < 2 ** m:
                raise ValueError(f"branch value {j} invalid for block {m}")


def half_slalom(partition: IntervalPartition, depth: int,
                branch: Mapping[int, int] | None = None) -> Slalom:
    """Standard battery slalom: every candidate is the first half of each
    interval of its block, so each piece is the first half of its
    interval."""
    blocks: dict[int, list[IntervalSubset]] = {}
    for m in range(depth + 1):
        first, count = laver_blocks(partition, m)
        blocks[m] = [partition.first(k, (partition.size(k) + 1) // 2)
                     for k in range(first, first + count)]
    chosen = dict(branch or {m: 0 for m in range(depth + 1)})
    return Slalom(partition, blocks, chosen)


def laver_escape(slalom: Slalom, eps, eps_prime,
                 m: int) -> tuple[IntervalSymbolicSet, Certificate]:
    """Assemble the diagonal union of the slalom and certify the upward
    escape at interval k = 2^m + branch(m)."""
    eps, eps_prime = _eps_pair(eps, eps_prime)
    if m not in slalom.blocks:
        raise ValueError(f"slalom does not define block {m}")
    # 2^-2^m <= (1/2 - eps')(1/2 - eps)/(1/2 + eps) is the k-condition of
    # centred_thresholds at k = 2^m, so it holds exactly when 2^m >= k0
    if 2 ** m < centred_thresholds(eps, eps_prime)[1]:
        threshold = (HALF - eps_prime) * (HALF - eps) / (HALF + eps)
        raise ValueError(
            f"block {m} is below the escape threshold "
            f"(need 2^-2^m <= {threshold})"
        )
    partition = slalom.partition
    values: dict[int, IntervalSubset] = {}
    for _, pieces in sorted(slalom.blocks.items()):
        for piece in pieces:
            _check_band(piece, eps_prime)
            values[piece.index] = piece
    x_set = IntervalSymbolicSet(partition, values, default="singleton")

    k = 2 ** m + slalom.branch[m]
    cards = {
        "prefix_count": partition.boundary(k),
        "interval_size": partition.size(k),
        "escape_count": slalom.blocks[m][slalom.branch[m]].count,
        "x_count": x_set.prefix_count(k),
        "block": m,
    }
    return x_set, emit_certificate("slalom-chain", k, eps, eps_prime, cards,
                                   partition.boundaries(k + 1))
