"""Relative-density reports and splitting verdicts at finite horizon.

Limits are undecidable at finite horizon, so every predicate returns a
numeric verdict (band membership over a tail window) plus full
diagnostics, never a claim about the true limit.  All ratios are exact
rationals; floating point appears only in rendered output.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from ._util import HALF, as_fraction, ceil_frac, in_half_band, proper_width
from .omega_sets import CombineNode, OmegaSet, require_infinite

__all__ = [
    "DEFAULT_TOLERANCE",
    "DensityReport",
    "SplitVerdict",
    "build_checkpoints",
    "density_report",
    "split_verdict",
]

DEFAULT_TOLERANCE = Fraction(1, 100)
# a classical split needs more than this many points on each side
GROWTH_FLOOR = 10
SPLIT_KINDS = ("classical", "rho", "eps_band", "zero", "one")


@dataclass(frozen=True)
class DensityReport:
    """Checkpointed exact ratios |S∩X∩n| / |X∩n| with tail estimates.

    Checkpoints below tail_window * horizon are reported but excluded
    from the tail estimators (the densities of interest are tail
    properties).
    """

    checkpoints: tuple[int, ...]
    numerators: tuple[int, ...]
    denominators: tuple[int, ...]
    tail_window: Fraction
    tail_from: int
    upper_est: Fraction
    lower_est: Fraction
    target: Fraction | None = None
    max_tail_deviation: Fraction | None = None

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        """The exact ratio at each checkpoint, built on request: the
        verdicts read the integer counts."""
        return tuple(Fraction(n, d) for n, d in zip(self.numerators, self.denominators))

    def to_json(self) -> dict:
        return {
            "checkpoints": list(self.checkpoints),
            "ratios": [str(r) for r in self.ratios],
            "counts": [[n, d] for n, d in zip(self.numerators, self.denominators)],
            "tail_window": str(self.tail_window),
            "tail_from": self.tail_from,
            "upper_est": str(self.upper_est),
            "lower_est": str(self.lower_est),
            "target": str(self.target) if self.target is not None else None,
            "max_tail_deviation": (
                str(self.max_tail_deviation)
                if self.max_tail_deviation is not None
                else None
            ),
        }


def build_checkpoints(horizon: int, stride: int | None = None,
                      geometric: bool = False) -> list[int]:
    """Checkpoint schedule; always includes the horizon."""
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if stride is not None and stride < 1:
        raise ValueError("stride must be at least 1")
    if geometric:
        cps, n = [], 1
        while n < horizon:
            cps.append(n)
            n *= 2
        cps.append(horizon)
        return sorted(set(cps))
    if stride is None:
        stride = max(1, horizon // 100)
    cps = list(range(stride, horizon + 1, stride))
    if not cps or cps[-1] != horizon:
        cps.append(horizon)
    return cps


def require_points(count: int, horizon: int) -> None:
    """A report needs X to have at least 10 points below the horizon."""
    if count < 10:
        raise ValueError(
            f"X has only {count} points below horizon {horizon}; "
            "need at least 10"
        )


def tail_rows(checkpoints: Sequence[int], dens: Sequence[int], horizon: int,
              tail_window: Fraction = HALF) -> tuple[list[int], int, int]:
    """The rows of a report and of its tail, given X's counts dens at the
    sorted checkpoints: (kept, tail, tail_from).

    A report keeps the rows with a point of X (d > 0), listed by index in
    kept.  Its tail is kept[tail:], from the first kept checkpoint at or
    above tail_from = ceil(tail_window * horizon).  X needs at least 10
    points below the last checkpoint, which is the horizon
    (``build_checkpoints``), so that row is kept, and with tail_window < 1
    it is in the tail.
    """
    require_points(dens[-1], horizon)
    kept = [i for i, d in enumerate(dens) if d > 0]
    tail_from = ceil_frac(tail_window * horizon)
    return kept, bisect_left(kept, tail_from, key=checkpoints.__getitem__), tail_from


def _pair_counts(S: OmegaSet, X: OmegaSet, checkpoints: Sequence[int]):
    joint = CombineNode("inter", [S, X])
    return joint.counts_at(checkpoints), X.counts_at(checkpoints)


def density_report(S: OmegaSet, X: OmegaSet, horizon: int,
                   stride: int | None = None,
                   geometric: bool = False,
                   tail_window: Fraction = HALF,
                   target=None) -> DensityReport:
    """Exact checkpointed ratios of S within X below the horizon."""
    tail_window = as_fraction(tail_window)
    if not (0 < tail_window < 1):
        raise ValueError("tail window must lie in (0,1)")
    require_infinite(X, "X")
    checkpoints = build_checkpoints(horizon, stride, geometric)
    nums, dens = _pair_counts(S, X, checkpoints)
    kept, tail, tail_from = tail_rows(checkpoints, dens, horizon, tail_window)
    checkpoints, nums, dens = (tuple(v[i] for i in kept) for v in (checkpoints, nums, dens))
    # the tail extremes, compared by cross-multiplying the counts
    hi_n = lo_n = nums[tail]
    hi_d = lo_d = dens[tail]
    for n, d in zip(nums[tail:], dens[tail:]):
        if n * hi_d > hi_n * d:
            hi_n, hi_d = n, d
        elif n * lo_d < lo_n * d:
            lo_n, lo_d = n, d
    upper, lower = Fraction(hi_n, hi_d), Fraction(lo_n, lo_d)
    tgt = as_fraction(target) if target is not None else None
    # max |r - tgt| over the tail is attained at one of its extremes
    max_dev = max(upper - tgt, tgt - lower) if tgt is not None else None
    return DensityReport(
        checkpoints=checkpoints,
        numerators=nums,
        denominators=dens,
        tail_window=tail_window,
        tail_from=tail_from,
        upper_est=upper,
        lower_est=lower,
        target=tgt,
        max_tail_deviation=max_dev,
    )


@dataclass(frozen=True)
class SplitVerdict:
    kind: str
    holds_numerically: bool
    diagnostics: DensityReport | None
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "holds_numerically": self.holds_numerically,
            "details": {k: str(v) for k, v in self.details.items()},
            "diagnostics": self.diagnostics.to_json() if self.diagnostics else None,
        }


def split_verdict(kind: str, S: OmegaSet, X: OmegaSet, horizon: int, *,
                  rho=None, eps=None, tolerance=DEFAULT_TOLERANCE,
                  tail_window: Fraction = HALF, stride: int | None = None,
                  geometric: bool = False) -> SplitVerdict:
    """Numeric splitting verdict of the requested kind.

    classical: both |S∩X∩N| and |X∩N \\ S| must exceed the growth floor.
    rho: tail ratios within rho ± tolerance.  eps_band: tail ratios
    strictly inside (1/2-eps, 1/2+eps).  zero/one: tail ratios within
    tolerance of 0 or 1, requiring S infinite and co-infinite.
    """
    if kind not in SPLIT_KINDS:
        raise ValueError(f"unknown split kind {kind!r}")
    tolerance = as_fraction(tolerance)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    if kind == "rho":
        rho = as_fraction(rho)
        if not 0 <= rho <= 1:
            raise ValueError("rho must lie in [0, 1]")
    require_infinite(X, "X")
    if kind == "classical":
        require_infinite(S, "S")
        inter = CombineNode("inter", [S, X]).count_below(horizon)
        diff = CombineNode("diff", [X, S]).count_below(horizon)
        holds = inter > GROWTH_FLOOR and diff > GROWTH_FLOOR
        return SplitVerdict(kind, holds, None, {
            "s_and_x": inter, "x_minus_s": diff, "growth_floor": GROWTH_FLOOR,
        })
    if kind in ("zero", "one"):
        require_infinite(S, "S")
        s_count = S.count_below(horizon)
        if s_count >= horizon:
            raise ValueError("S must be co-infinite (density below 1 at horizon)")
    target = {"rho": rho, "eps_band": HALF, "zero": Fraction(0), "one": Fraction(1)}[kind]
    rep = density_report(S, X, horizon, stride=stride,
                         geometric=geometric, tail_window=tail_window,
                         target=target)
    details: dict = {"target": target}
    if kind == "eps_band":
        eps = as_fraction(eps)
        if not proper_width(eps):
            raise ValueError("eps must lie in (0, 1/2)")
        # every tail ratio lies inside the band iff both tail extremes do
        holds = all(in_half_band(r.numerator, r.denominator, eps)
                    for r in (rep.lower_est, rep.upper_est))
        details["eps"] = eps
    else:
        holds = rep.max_tail_deviation <= tolerance
        details["tolerance"] = tolerance
    return SplitVerdict(kind, holds, rep, details)
