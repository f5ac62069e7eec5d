"""Splitting chains, base expansions, and density-parameter transforms.

Both transforms are one algorithm over a pair (chain density p, target):
build a chain of p-splitters, select difference levels greedily by their
geometric weights p^(m-1) (1-p) toward the target, and return the union
of the selected levels.  half-to-rho is (1/2, rho), where the weights
are 2^-m and the selection is the binary expansion of rho; rho-to-half
is (rho, 1/2), squaring the parameter into (1/3, 2/3) first when the
direct expansion cannot reach 1/2.  ``plan_transform`` decides all of
this arithmetic exactly, before any set is built, and
``transform_splitter`` carries the plan out.

Oracles are validated and resampled rather than trusted: a proposal
enters a chain only after its tail ratios pass a count-aware band check
against every current family member.  An oracle hands back each proposal
with its traces on the targets as words and counts (``Counted``), which
are the targets of the next validation, so each set is counted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np

from ._util import HALF, as_fraction, ceil_frac, derive_seed
from .density import build_checkpoints, density_report, require_points, split_verdict
from .omega_sets import (
    OMEGA,
    BernoulliSet,
    CombineNode,
    OmegaSet,
    StrideSelection,
    _prefix_counts,
    agree_below,
    complement,
    difference,
    intersect,
    require_infinite,
    tabulate_first_round,
    union,
)

__all__ = [
    "ChainConfig",
    "SplitterOracle",
    "BernoulliOracle",
    "RoundRobinOracle",
    "ComposedOracle",
    "Counted",
    "OracleExhaustedError",
    "TransformError",
    "SplitChain",
    "binary_digits",
    "greedy_base_digits",
    "select_levels",
    "squaring_plan",
    "build_chain",
    "plan_transform",
    "transform_splitter",
    "TransformPlan",
    "TransformResult",
]


@dataclass(frozen=True)
class ChainConfig:
    depth: int = 8
    horizon: int = 1_000_000
    band_tolerance: Fraction = Fraction(1, 50)
    seed: int = 1


# the band a stage proposal must meet, the residual the converse
# transform accepts, the proposals an oracle gets per stage, and the
# bits of the largest denominator a squaring plan may reach
STAGE_TOLERANCE = Fraction(1, 100)
RESIDUAL_TOLERANCE = Fraction(1, 100)
MAX_ATTEMPTS = 12
SQUARING_BITS = 1 << 17


class OracleExhaustedError(RuntimeError):
    """A splitter oracle ran out of resampling attempts."""

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or []


class TransformError(RuntimeError):
    """The level selection could not reach its target within tolerance."""

    def __init__(self, message: str, residual_trace: list | None = None):
        super().__init__(message)
        self.residual_trace = residual_trace or []


# -- expansions --------------------------------------------------------------


def binary_digits(rho, K: int) -> list[int]:
    """Positions of the 1-digits in the binary expansion of rho, truncated
    at K digits; dyadic inputs get the terminating representation.

    These are the levels ``select_levels`` takes at p = 1/2, whose
    weights are 2^-m, so the residual rho - sum(2^-m) lies in [0, 2^-K).
    """
    rho = as_fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    return select_levels(HALF, rho, K)[0]


def greedy_base_digits(x, b, K: int) -> list[tuple[int, int]]:
    """Greedy digits of x > 0 in base b > 1: pairs (exponent, digit) with
    0 <= digit < b, descending exponents, K positions, zero digits
    omitted.  The residual is below b^(N-K+1) for leading exponent N."""
    x, b = as_fraction(x), as_fraction(b)
    if x <= 0:
        raise ValueError("x must be positive")
    if b <= 1:
        raise ValueError("base must exceed 1")
    if K < 1:
        raise ValueError("need at least one digit position")
    N = 0
    if x >= 1:
        while b ** (N + 1) <= x:
            N += 1
    else:
        while b ** N > x:
            N -= 1
    digit_cap = -((-b.numerator) // b.denominator) - 1  # ceil(b) - 1
    out, r = [], x
    for n in range(N, N - K, -1):
        power = b ** n
        c = min(r // power, digit_cap)
        c = int(c)
        if c:
            out.append((n, c))
            r -= c * power
    return out


def select_levels(p, target, K: int) -> tuple[list[int], Fraction]:
    """Greedy level selection over a chain of density p: take level m
    (ascending) iff its weight p^(m-1) (1-p) fits the remaining residual;
    returns the selection and the exact residual after K levels."""
    p, target = as_fraction(p), as_fraction(target)
    if not (0 < p < 1):
        raise ValueError("p must lie in (0, 1)")
    if target <= 0:
        raise ValueError("target must be positive")
    out, r, w = [], target, 1 - p
    for m in range(1, K + 1):
        if w <= r:
            out.append(m)
            r -= w
        w *= p
    return out, r


def squaring_plan(rho) -> tuple[list[str], Fraction]:
    """Drive rho into (1/3, 2/3) by squaring, complementing when at or
    below 1/3; returns the operation list and the final parameter.  A
    square doubles the bits of the denominator, so a plan ends within 16
    squares or is refused once one takes it past ``SQUARING_BITS``."""
    x = as_fraction(rho)
    if not (0 < x < 1):
        raise ValueError("rho must lie in (0, 1)")
    third, two_thirds = Fraction(1, 3), Fraction(2, 3)
    ops: list[str] = []
    while not (third < x < two_thirds):
        if x >= two_thirds:
            x = x * x
            if x.denominator.bit_length() > SQUARING_BITS:
                raise ValueError(f"squaring plan needs more than {SQUARING_BITS} bits")
            ops.append("square")
        else:
            x = 1 - x
            ops.append("complement")
    return ops, x


# -- oracles -----------------------------------------------------------------


class Counted:
    """The traces P ∩ X of a family's members X on a path set P: one
    read-only row of packed words at a horizon per member, and each row's
    int64 counts at the horizon's checkpoints (``build_checkpoints``).
    A trace is a set only once ``trace`` builds it.  Without words, the
    family (P = omega) is packed and counted here."""

    def __init__(self, family: Sequence[OmegaSet], horizon: int, path: OmegaSet = OMEGA,
                 words: np.ndarray | None = None, counts: np.ndarray | None = None):
        if words is None:
            words = np.stack([X.packed(horizon) for X in family])
            counts = _prefix_counts(words, build_checkpoints(horizon))
        words.flags.writeable = False
        self.family, self.path, self.horizon = tuple(family), path, horizon
        self.words, self.counts = words, counts

    def trace(self, i: int) -> OmegaSet:
        """Row i's set, P ∩ family[i], built on each call."""
        X = self.family[i]
        return X if self.path is OMEGA else intersect(self.path, X)

    def meet(self, S: OmegaSet, words: np.ndarray | None = None,
             counts: np.ndarray | None = None) -> Counted:
        """S's traces on these, the family's on the path P ∩ S: unless
        the caller holds their words and counts, S's words are ANDed into
        every row and every row is counted in one call."""
        if words is None:
            words = np.bitwise_and(self.words, S.packed(self.horizon))
            counts = _prefix_counts(words, build_checkpoints(self.horizon))
        return Counted(self.family, self.horizon, intersect(self.path, S), words, counts)


class SplitterOracle:
    """Source of candidate p-splitters for the current family.  ``propose``
    returns a proposal S with its traces on the targets, ``targets.meet(S)``."""

    p: Fraction

    def propose(self, stage: int, attempt: int,
                targets: Counted) -> tuple[OmegaSet, Counted]:
        raise NotImplementedError


class BernoulliOracle(SplitterOracle):
    """Proposes Bernoulli(p) sets with seeds derived from (seed, stage,
    attempt); the law of large numbers makes validation succeed with
    overwhelming probability."""

    def __init__(self, p, seed: int):
        self.p = as_fraction(p)
        if not (0 < self.p < 1):
            raise ValueError("oracle density must lie in (0, 1)")
        self.seed = int(seed)

    def propose(self, stage, attempt, targets):
        S = BernoulliSet(self.p, derive_seed(self.seed, stage, attempt))
        return S, targets.meet(S)


class RoundRobinOracle(SplitterOracle):
    """Deterministic exact 1/2-splitter of a single target: every second
    element of the target in enumeration order."""

    def __init__(self):
        self.p = HALF

    def propose(self, stage, attempt, targets):
        if len(targets.family) != 1:
            raise ValueError("round-robin needs a single-target family")
        S = StrideSelection(targets.trace(0), 2, 0)
        traces = targets.meet(S)
        # S holds its own words; at stage 1 its source is the caller's member
        if targets.path is not OMEGA:
            S.source.release_words()
        return S, traces


class ComposedOracle(SplitterOracle):
    """Oracle obtained from an inner one by the ops of ``squaring_plan``:
    intersection-squaring steps, each leg validated against its own
    targets, and complementations; its p is the plan's effective p.
    The inner oracle's proposals become legs whose packed words are
    released once combined, so it should return sets of its own.

    Nothing is counted twice: leg a's validation hands on its traces on
    the targets, which are leg b's targets, and the proposal's traces are
    the targets met with it on leg b's words and counts, or for a
    complement on the targets' less leg a's."""

    def __init__(self, inner: SplitterOracle, ops: Sequence[str], effective_p: Fraction):
        self.inner, self.ops, self.p = inner, tuple(ops), effective_p

    def propose(self, stage, attempt, targets):
        return self._build(len(self.ops), stage, attempt * 2 + 1, targets)

    def _build(self, level, stage, salt, targets: Counted):
        """The set of the plan's first ``level`` ops and its traces on the
        targets, as a ``Counted``."""
        if level == 0:
            return _accepted_proposal(self.inner, stage, salt, targets)
        a, on_a = self._build(level - 1, stage, salt * 3 + 1, targets)
        if self.ops[level - 1] == "complement":
            out, legs = complement(a), (a,)
            # a's traces are a subset of the targets, bit for bit
            words = targets.words ^ on_a.words
            counts = targets.counts - on_a.counts
        else:
            b, on_b = self._build(level - 1, stage, salt * 3 + 2, on_a)
            out, legs = intersect(a, b), (a, b)
            words, counts = on_b.words, on_b.counts
        # the combination's words are read next anyway; once they exist no
        # one reads the legs', so words are held for one leg per level of
        # the plan, not for all of its 2^L legs
        out.packed(targets.horizon)
        for leg in legs:
            leg.release_words()
        return out, targets.meet(out, words, counts)


# -- validation --------------------------------------------------------------


def _band_scales(p: Fraction, tol: Fraction) -> tuple[int, int, int, int, int]:
    """(a, b, dev_scale, tol_scale, floor_scale) of ``_band_fails``'s rule."""
    a, b = p.numerator, p.denominator
    t, u = tol.numerator, tol.denominator
    return a, b, 10 * u * u, 10 * (t * b) ** 2, 61 * (b * u) ** 2


_INT64_MAX = (1 << 63) - 1


def _band_fails(nums: np.ndarray, dens: np.ndarray, rows: np.ndarray,
                p: Fraction, tol: Fraction) -> np.ndarray:
    """For each row of counts, whether one of its entries marked in rows
    fails the count-aware band, decided in exact arithmetic.

    The allowed deviation of num/den from p at a checkpoint is the larger
    of the stage tolerance and sqrt(6.1/den).  By Hoeffding's inequality
    (W. Hoeffding, "Probability inequalities for sums of bounded random
    variables", JASA 58, 1963) a ratio of den thinned members strays that
    far with probability at most 2*exp(-12.2), a margin that survives a
    union bound over the tail rows.  The rule is squared and scaled by den
    so that no square root is taken: an entry fails when
    (num/den - p)^2 * den > max(tol^2 * den, 61/10).

    It is decided on integers.  With p = a/b and tol = t/u, multiplying
    through by 10 * b^2 * u^2 * den > 0 gives the same rule as
        10 * (num*b - a*den)^2 * u^2 > max(10 * t^2 * b^2 * den^2,
                                           61 * b^2 * u^2 * den),
    so no Fraction is built per entry.

    nums and dens are int64 counts of S ∩ t and of t at the same
    checkpoints, so 0 <= num <= den <= D for D the largest den.  Then
    num*b and a*den are at most b*D, and |num*b - a*den| is at most
    max(a, b - a) * D.  Where every term of the rule fits in int64 at
    those bounds, the expression is evaluated in int64; elsewhere the same
    expression is evaluated on object arrays of Python ints.
    """
    a, b, dev_scale, tol_scale, floor_scale = _band_scales(p, tol)
    D = max(int(dens.max(initial=0)), 1)
    dev_top = max(a, b - a) * D
    if max(b * D, dev_scale * dev_top * dev_top, tol_scale * D * D,
           floor_scale * D) > _INT64_MAX:
        nums, dens = nums.astype(object), dens.astype(object)
    dev = nums * b - a * dens
    fail = dev_scale * dev * dev > np.maximum(tol_scale * dens * dens, floor_scale * dens)
    return (fail & rows).any(axis=-1)


def _accepted_proposal(oracle: SplitterOracle, stage: int, salt: int,
                       targets: Counted) -> tuple[OmegaSet, Counted]:
    """The first proposal whose tail rows pass ``_band_fails``'s rule
    against every target, the targets checked in order, after at most
    MAX_ATTEMPTS proposals, with the traces [S ∩ t] that the oracle hands
    back with it.

    Every target's tail rows are judged on the traces' counts in one call
    of ``_band_fails``, so nothing is counted here.  A rejected proposal's
    diagnostics are the density report against the target it failed.
    """
    H, p = targets.horizon, oracle.p
    dens = targets.counts
    # every target's tail rows, as ``tail_rows`` finds them: the rows with
    # a point (den > 0) from tail_from = ceil(H / 2) on, of which the last
    # checkpoint, H, is one for every target with at least 10 points
    tails = (np.asarray(build_checkpoints(H)) >= ceil_frac(HALF * H)) & (dens > 0)
    reached = 0  # the targets the walk has reached so far
    failures = []
    for attempt in range(MAX_ATTEMPTS):
        S, traces = oracle.propose(stage, salt + attempt * 1000, targets)
        fails = _band_fails(traces.counts, dens, tails, p, STAGE_TOLERANCE)
        for i, fail in enumerate(fails):
            # a finite or thin target raises when the walk first reaches
            # it, as a report per target would
            if i == reached:
                require_infinite(targets.trace(i), "X")
                require_points(int(dens[i, -1]), H)
                reached += 1
            if fail:
                report = density_report(S, targets.trace(i), H, target=p)
                failures.append((stage, attempt, report.to_json()))
                break
        else:
            return S, traces
    raise OracleExhaustedError(
        f"oracle failed validation {MAX_ATTEMPTS} times at stage {stage}",
        failures,
    )


# -- chains ------------------------------------------------------------------


@dataclass
class SplitChain:
    """Nested splitting stages with their intersections and differences.

    nested[m] is the intersection of the first m stages; differences[m]
    = nested[m-1] \\ nested[m] for m >= 1 (index 0 unused).  Each stage
    has density p.
    """

    stages: tuple[OmegaSet, ...]
    nested: tuple[OmegaSet, ...]
    differences: tuple[OmegaSet | None, ...]
    p: Fraction


def build_chain(family: Sequence[OmegaSet], oracle: SplitterOracle,
                cfg: ChainConfig) -> SplitChain:
    """Build the stage recursion S_0 = omega, S_{n+1} splitting every
    member of the current family, replacing the family by its traces,
    for cfg.depth stages.

    The family is counted once, here.  Each accepted stage is oracle
    output that passed the band check against every live member; the
    oracle hands it on with the family's traces, the next stage's
    targets.  Their path is nested[m], checked to be the node
    nested[m-1] ∩ S_m, and their words are checked against the exact
    identity "stage-m family = {nested[m] ∩ X}".  The PRF's first round
    is tabulated below the horizon first (``tabulate_first_round``).
    """
    if not family:
        raise ValueError("family must be non-empty")
    for member in family:
        require_infinite(member, "family member")
    if cfg.depth < 1:
        raise ValueError("depth must be at least 1")
    # the chain's Bernoulli proposals and legs are filled over [0, H)
    tabulate_first_round(cfg.horizon)
    targets = Counted(family, cfg.horizon)
    stages, nested = [OMEGA], [OMEGA]
    differences: list[OmegaSet | None] = [None]
    for stage_idx in range(1, cfg.depth + 1):
        S, targets = _accepted_proposal(oracle, stage_idx, 0, targets)
        path = targets.path
        if not (isinstance(path, CombineNode) and path.op == "inter"
                and path.children[0] is nested[-1] and path.children[1] is S):
            raise AssertionError(f"traces' path is not nested[m-1] & S at stage {stage_idx}")
        stages.append(S)
        nested.append(path)
        differences.append(difference(nested[-2], path))
        path_words = path.packed(cfg.horizon)
        for words, member in zip(targets.words, targets.family):
            if not agree_below(words, member.packed(cfg.horizon) & path_words, cfg.horizon):
                raise AssertionError(f"trace identity failed at stage {stage_idx}")
    return SplitChain(tuple(stages), tuple(nested), tuple(differences), oracle.p)


# -- end-to-end transforms ----------------------------------------------------


@dataclass(frozen=True)
class TransformPlan:
    """A transform's arithmetic: chain density p, target, the ops taking
    p to effective_p, the levels, their residual, the advertised
    tolerance and the (parameter, residual) trace of rho-to-half."""

    p: Fraction
    target: Fraction
    ops: list[str]
    effective_p: Fraction
    selection: list[int]
    residual: Fraction
    advertised_tolerance: Fraction
    residual_trace: list

    @property
    def path(self) -> str:
        return "fallback" if self.ops else "direct"

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "selection": self.selection,
            "residual": str(self.residual),
            "ops": self.ops,
            "effective_p": str(self.effective_p),
            "advertised_tolerance": str(self.advertised_tolerance),
            "residual_trace": [[str(p), str(r)] for p, r in self.residual_trace],
        }


@dataclass(frozen=True)
class TransformResult(TransformPlan):
    """A plan carried out: its union of levels, verdicts and chain JSON."""

    splitter: OmegaSet
    verdicts: list
    chain: dict

    @property
    def all_hold(self) -> bool:
        return all(v.holds_numerically for v in self.verdicts)

    def to_json(self) -> dict:
        return {**super().to_json(), "chain": self.chain,
                "verdicts": [v.to_json() for v in self.verdicts]}


def plan_transform(direction: str, rho, depth: int,
                   band_tolerance: Fraction) -> TransformPlan:
    """The plan over (p, target) = (1/2, rho) for half-to-rho and (rho, 1/2)
    for rho-to-half; pure, exact and total on valid input.  half-to-rho
    advertises band + 2^-depth and keeps its selection whatever the
    residual; rho-to-half advertises band + the exact residual, records
    the residual trace, and squares (and complements) p into (1/3, 2/3)
    when p >= 2/3 or the residual exceeds tolerance."""
    rho = as_fraction(rho)
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    if direction not in ("half-to-rho", "rho-to-half"):
        raise ValueError(f"unknown direction {direction!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if band_tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    forward = direction == "half-to-rho"
    p, target = (HALF, rho) if forward else (rho, HALF)
    levels, residual = select_levels(p, target, depth)
    trace, ops, eff = [], [], p
    if not forward:
        trace.append((p, residual))
        if p >= Fraction(2, 3) or residual > RESIDUAL_TOLERANCE:
            ops, eff = squaring_plan(p)
            levels, residual = select_levels(eff, target, depth)
            trace.append((eff, residual))
    advertised = band_tolerance + (Fraction(1, 2 ** depth) if forward else residual)
    return TransformPlan(p, target, ops, eff, levels, residual, advertised, trace)


def _union_of_levels(chain: SplitChain, levels: Sequence[int]) -> OmegaSet:
    if not levels:
        raise TransformError("empty level selection; increase the depth")
    return reduce(union, [chain.differences[m] for m in levels])


def transform_splitter(family: Sequence[OmegaSet], direction: str, rho,
                       oracle: SplitterOracle | None = None,
                       cfg: ChainConfig | None = None) -> TransformResult:
    """Carry out ``plan_transform``: check the oracle's p (default
    Bernoulli(p, cfg.seed)), refuse a rho-to-half residual above
    tolerance, build the chain, and judge the union of the plan's levels
    on every family member.  ``chain`` holds the depth, p, horizon and
    the direction's label, "half" or "rho"."""
    cfg = cfg or ChainConfig()
    plan = plan_transform(direction, rho, cfg.depth, cfg.band_tolerance)
    oracle = oracle or BernoulliOracle(plan.p, cfg.seed)
    if oracle.p != plan.p:
        raise ValueError(f"{direction} needs an oracle with p = {plan.p}")
    if plan.residual_trace and plan.residual > RESIDUAL_TOLERANCE:
        raise TransformError(f"residual {plan.residual} above tolerance after fallback",
                             plan.residual_trace)
    # a reached fallback has squared at least once, so it has ops
    if plan.ops:
        oracle = ComposedOracle(oracle, plan.ops, plan.effective_p)
    chain = build_chain(family, oracle, cfg)
    splitter = _union_of_levels(chain, plan.selection)
    verdicts = [split_verdict("rho", splitter, member, cfg.horizon, rho=plan.target,
                              tolerance=plan.advertised_tolerance) for member in family]
    summary = {"depth": cfg.depth, "p": str(chain.p), "horizon": cfg.horizon,
               "mode": "half" if direction == "half-to-rho" else "rho"}
    return TransformResult(**vars(plan), splitter=splitter,
                           verdicts=verdicts, chain=summary)
