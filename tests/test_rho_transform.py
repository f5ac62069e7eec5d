import math
import time
import tracemalloc

import numpy as np
import pytest
from bisect import bisect_left
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from rhosplit import (
    OMEGA,
    BernoulliSet,
    ExplicitSet,
    Progression,
    StrideSelection,
    binary_digits,
    build_chain,
    greedy_base_digits,
    intersect,
    select_levels,
    squaring_plan,
    transform_splitter,
)
from rhosplit import rho_transform
from rhosplit.omega_sets import (
    FiniteSetError,
    _prefix_counts,
    agree_below,
    parse_family,
    parse_set,
    sparse_members,
)
from rhosplit.density import build_checkpoints, density_report
from rhosplit.rho_transform import (
    MAX_ATTEMPTS,
    RESIDUAL_TOLERANCE,
    SQUARING_BITS,
    STAGE_TOLERANCE,
    BernoulliOracle,
    ChainConfig,
    ComposedOracle,
    Counted,
    OracleExhaustedError,
    RoundRobinOracle,
    SplitterOracle,
    TransformError,
    TransformPlan,
    _accepted_proposal,
    _band_fails,
    _band_scales,
    plan_transform,
)

HALF = Fraction(1, 2)

rationals_01 = st.fractions(min_value=Fraction(1, 1000),
                            max_value=Fraction(999, 1000))


# -- expansions ---------------------------------------------------------------


def test_binary_digits_examples():
    assert binary_digits(HALF, 10) == [1]
    assert binary_digits(Fraction(11, 16), 10) == [1, 3, 4]
    assert binary_digits(Fraction(1, 3), 8) == [2, 4, 6, 8]


@given(rationals_01, st.integers(1, 40))
def test_binary_digits_reconstruct(rho, K):
    P = binary_digits(rho, K)
    total = sum(Fraction(1, 2 ** m) for m in P)
    assert 0 <= rho - total < Fraction(1, 2 ** K)


def greedy_oracle(x, b, K):
    """Independent greedy reimplementation for cross-checking."""
    N = 0
    if x >= 1:
        while b ** (N + 1) <= x:
            N += 1
    else:
        while b ** N > x:
            N -= 1
    cap = -((-b.numerator) // b.denominator) - 1
    digits, r = [], x
    for n in range(N, N - K, -1):
        c = min(int(r / (b ** n)), cap)
        if c:
            digits.append((n, c))
            r -= c * b ** n
    return digits, r


def test_greedy_base_digits_examples():
    assert greedy_base_digits(1, Fraction(3, 2), 5) == [(0, 1)]
    assert greedy_base_digits(HALF, 2, 4) == [(-1, 1)]
    got = greedy_base_digits(Fraction(5, 2), Fraction(3, 2), 8)
    assert got[0] == (2, 1)  # (3/2)^2 = 9/4 <= 5/2 < (3/2)^3
    expect, _ = greedy_oracle(Fraction(5, 2), Fraction(3, 2), 8)
    assert got == expect


@given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
       st.fractions(min_value=Fraction(11, 10), max_value=Fraction(4)),
       st.integers(1, 12))
@settings(max_examples=60)
def test_greedy_base_digits_properties(x, b, K):
    digits = greedy_base_digits(x, b, K)
    assert digits == greedy_oracle(x, b, K)[0]
    exps = [n for n, _ in digits]
    assert exps == sorted(exps, reverse=True)
    for _, c in digits:
        assert 0 <= c < b
    total = sum(c * b ** n for n, c in digits)
    N = exps[0] if exps else None
    if digits:
        assert 0 <= x - total < b ** (N - K + 1)


def test_select_levels_examples():
    # consistency with the binary expansion for dyadic weights
    rho = Fraction(11, 16)
    sel, res = select_levels(HALF, rho, 10)
    assert sel == binary_digits(rho, 10)
    # geometric weights at p = 3/5: take w1 (residual 1/10), skip
    # w2 = 6/25 and w3 = 18/125, take w4 = 54/625 (residual 17/1250)
    sel, res = select_levels(Fraction(3, 5), HALF, 4)
    assert sel == [1, 4]
    assert res == Fraction(17, 1250)
    # exact exhaustion
    total = sum(Fraction(1, 2 ** m) for m in range(1, 7))
    sel, res = select_levels(HALF, total, 6)
    assert sel == [1, 2, 3, 4, 5, 6] and res == 0


@pytest.mark.parametrize("p", [0, 1, Fraction(-1, 2), Fraction(3, 2), "1"])
def test_select_levels_rejects_p_outside_unit_interval(p):
    with pytest.raises(ValueError, match="p must lie in"):
        select_levels(p, HALF, 8)


@given(rationals_01, rationals_01, st.integers(1, 30))
def test_select_levels_is_greedy_on_geometric_weights(p, target, K):
    # the rule stated directly: weight p^(m-1) (1-p) is taken iff it fits
    sel, r = [], target
    for m in range(1, K + 1):
        w = p ** (m - 1) * (1 - p)
        if w <= r:
            sel.append(m)
            r -= w
    assert select_levels(p, target, K) == (sel, r)


@given(st.fractions(min_value=Fraction(51, 100), max_value=Fraction(99, 100)),
       st.integers(2, 24))
def test_select_levels_no_stranding_at_or_above_half(rho, K):
    # for rho >= 1/2 each weight is at most the remaining tail, so the
    # greedy residual is below rho^K
    _, res = select_levels(rho, HALF, K)
    assert 0 <= res < rho ** K


def test_select_levels_can_strand_below_half():
    # rho = 2/5: w1 = 3/5 > 1/2 is skipped and the remaining tail sums to
    # only 2/5, so the residual can never drop below 1/10
    for K in (10, 20, 30):
        _, res = select_levels(Fraction(2, 5), HALF, K)
        assert res > Fraction(1, 10)
    assert res - Fraction(1, 10) < Fraction(1, 10 ** 6)


def test_squaring_plan_examples():
    assert squaring_plan(Fraction(3, 4)) == (["square"], Fraction(9, 16))
    assert squaring_plan(HALF) == ([], HALF)
    ops, x = squaring_plan(Fraction(1, 5))
    assert ops[0] == "complement" and Fraction(1, 3) < x < Fraction(2, 3)


@given(st.fractions(min_value=Fraction(1, 10 ** 4),
                    max_value=Fraction(10 ** 4 - 1, 10 ** 4),
                    max_denominator=10 ** 4))
@settings(max_examples=200)
def test_squaring_plan_terminates(rho):
    ops, x = squaring_plan(rho)
    assert len(ops) <= 64
    assert Fraction(1, 3) < x < Fraction(2, 3)
    # replaying the ops reproduces the endpoint
    y = rho
    for op in ops:
        y = y * y if op == "square" else 1 - y
    assert y == x


@pytest.mark.parametrize("bits", [16, 20, 70])
def test_squaring_plan_refuses_past_its_bit_budget(bits):
    # rho = 1 - 2^-bits takes about bits squares to fall below 2/3, and
    # each doubles the bits of its denominator: from bits = 16 on that is
    # past 2^17 bits, refused at the first square beyond, in milliseconds
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"more than {SQUARING_BITS} bits"):
        squaring_plan(Fraction(2 ** bits - 1, 2 ** bits))
    assert time.perf_counter() - t0 < 1


# -- plans --------------------------------------------------------------------


@st.composite
def dyadic_rho(draw):
    j = draw(st.integers(1, 12))
    return Fraction(draw(st.integers(1, 2 ** j - 1)), 2 ** j)


@settings(deadline=None)
@given(dyadic_rho(), st.integers(1, 16),
       st.sampled_from(["half-to-rho", "rho-to-half"]))
@example(Fraction(5, 8), 8, "rho-to-half")  # direct residual 0.011, just above tolerance
@example(Fraction(2, 3), 12, "rho-to-half")  # falls back on p alone
def test_plan_is_total_and_exact(rho, depth, direction):
    plan = plan_transform(direction, rho, depth, Fraction(1, 50))
    eff = plan.effective_p
    assert plan.residual == plan.target - sum(
        eff ** (m - 1) * (1 - eff) for m in plan.selection)
    assert (plan.path == "fallback") == bool(plan.ops)
    if direction == "half-to-rho":
        assert (plan.p, plan.target) == (HALF, rho)
        assert plan.selection == binary_digits(rho, depth)
        assert plan.advertised_tolerance == Fraction(1, 50) + Fraction(1, 2 ** depth)
        assert plan.ops == [] and plan.residual_trace == []
    else:
        assert (plan.p, plan.target) == (rho, HALF)
        assert plan.residual_trace[0] == (rho, select_levels(rho, HALF, depth)[1])
        assert plan.residual_trace[-1] == (eff, plan.residual)
        # the fallback is tried exactly when rho >= 2/3 or the direct
        # residual is above tolerance
        assert (len(plan.residual_trace) == 2) == (
            rho >= Fraction(2, 3) or plan.residual_trace[0][1] > RESIDUAL_TOLERANCE)
        assert plan.advertised_tolerance == Fraction(1, 50) + plan.residual


# the rho-to-half values k/32 whose residual stays above tolerance after
# the fallback; at depth 8 this is the group perfbench expects to exit 1
@pytest.mark.parametrize("depth, unreached", [
    (8, {3, 6, 10, 11, 12, 13, 14, 15, 20, 22, 26, 29}),
    (10, {3, 10, 11, 12, 13, 14, 15, 22, 29}),
    (16, {3, 10, 11, 12, 13, 14, 15, 22, 29}),
])
def test_unreached_rho_to_half_plans(depth, unreached):
    plans = {k: plan_transform("rho-to-half", Fraction(k, 32), depth, Fraction(1, 50))
             for k in range(1, 32)}
    assert {k for k, plan in plans.items()
            if plan.residual > RESIDUAL_TOLERANCE} == unreached
    # the transform refuses each of them before building any chain
    for k in unreached:
        with pytest.raises(TransformError) as exc:
            transform_splitter([OMEGA], "rho-to-half", Fraction(k, 32), None,
                               small_cfg(depth=depth))
        assert exc.value.residual_trace == plans[k].residual_trace


def test_transform_reports_its_plan():
    cfg = small_cfg(depth=8)
    for direction, rho in [("half-to-rho", Fraction(1, 3)),
                           ("rho-to-half", Fraction(3, 4))]:
        plan = plan_transform(direction, rho, cfg.depth, cfg.band_tolerance)
        res = transform_splitter([OMEGA], direction, rho, None, cfg)
        assert TransformPlan(**{k: getattr(res, k) for k in vars(plan)}) == plan
        assert res.to_json().items() >= plan.to_json().items()


# -- band check -------------------------------------------------------------


@st.composite
def _band_cases(draw, u_max=1000, den_max=10 ** 6):
    b = draw(st.integers(2, 64))
    a = draw(st.integers(1, b - 1))
    u = draw(st.integers(1, u_max))
    t = draw(st.integers(1, u))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(st.integers(1, den_max))
        spread = draw(st.sampled_from([0, 3, 30, 300, 3000]))
        num = a * den // b + draw(st.integers(-spread, spread))
        rows.append((min(den, max(0, num)), den))
    return a, b, t, u, rows


def _rule_holds(rows, p, tol):
    """The band rule in rational arithmetic, as ``_band_fails``'s docstring
    states it: every row num/den has (num/den - p)^2 * den at most
    max(tol^2 * den, 61/10)."""
    return all((Fraction(n, d) - p) ** 2 * d <= max(tol ** 2 * d, Fraction(61, 10))
               for n, d in rows)


def _stacked(rows):
    """The rows as the counts of len(rows) + 1 targets at len(rows)
    checkpoints: target j with row j alone marked, and a last target with
    every row marked."""
    nums = np.array([[n for n, _ in rows]] * (len(rows) + 1), dtype=np.int64)
    dens = np.array([[d for _, d in rows]] * (len(rows) + 1), dtype=np.int64)
    marked = np.vstack([np.eye(len(rows), dtype=bool), np.ones(len(rows), dtype=bool)])
    return nums, dens, marked


def _per_row_and_whole(rows, p, tol):
    """What ``_band_fails`` must return for ``_stacked(rows)``."""
    return [not _rule_holds([r], p, tol) for r in rows] + [not _rule_holds(rows, p, tol)]


# rows exactly on the floor (6.1 / den) and on the tolerance boundary,
# where the strict inequality decides
@example((1, 2, 1, 100, [(366, 610)]))
@example((1, 2, 1, 100, [(367, 610)]))
@example((1, 2, 1, 100, [(51_000, 100_000)]))
@example((1, 2, 1, 100, [(51_001, 100_000)]))
@given(_band_cases())
def test_band_check_is_the_fraction_rule(case):
    a, b, t, u, rows = case
    p, tol = Fraction(a, b), Fraction(t, u)
    # one target with every row marked
    nums, dens = (np.array([[r[i] for r in rows]], dtype=np.int64) for i in (0, 1))
    marked = np.ones(nums.shape, dtype=bool)
    assert _band_fails(nums, dens, marked, p, tol).tolist() == [not _rule_holds(rows, p, tol)]


@example((1, 2, 1, 100, [(366, 610)]))
@example((1, 2, 1, 100, [(367, 610)]))
@example((1, 2, 1, 100, [(51_000, 100_000)]))
@example((1, 2, 1, 100, [(51_001, 100_000)]))
@given(st.one_of(_band_cases(), _band_cases(u_max=100, den_max=200_000)))
def test_stacked_band_decision_is_the_fraction_rule_per_row(case):
    a, b, t, u, rows = case
    p, tol = Fraction(a, b), Fraction(t, u)
    got = _band_fails(*_stacked(rows), p, tol).tolist()
    assert got == _per_row_and_whole(rows, p, tol)


def _fits_int64(p, tol, top):
    """Whether every term of the band rule fits in int64 for counts up to
    top, at the bounds ``_band_fails``'s docstring states."""
    a, b, dev_scale, tol_scale, floor_scale = _band_scales(p, tol)
    dev_top = max(a, b - a) * top
    return max(b * top, dev_scale * dev_top * dev_top, tol_scale * top * top,
               floor_scale * top) <= (1 << 63) - 1


@pytest.mark.parametrize("p", [HALF, Fraction(1, 32), Fraction(31, 32), Fraction(5, 64),
                               Fraction(3, 7)])
def test_int64_band_decision_stops_at_the_last_count_that_fits(p):
    # the largest count whose rule fits in int64, from the docstring bound
    tol = STAGE_TOLERANCE
    lo, hi = 1, 1 << 40
    assert _fits_int64(p, tol, lo) and not _fits_int64(p, tol, hi)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _fits_int64(p, tol, mid) else (lo, mid)
    a, b = p.numerator, p.denominator
    for top in (lo, hi):
        # the extreme rows, the rows at p, and rows just off the band's edges
        at_p = a * top // b
        edge = math.isqrt(top * 61 // 10)
        rows = [(0, top), (top, top), (at_p, top), (at_p + 1, top), (top // 2, top)]
        rows += [(min(top, max(0, at_p + s * (edge + e))), top)
                 for s in (1, -1) for e in (-1, 0, 1, 2)]
        got = _band_fails(*_stacked(rows), p, tol).tolist()
        assert got == _per_row_and_whole(rows, p, tol)
    # one past the last count that fits, the extreme row's deviation term
    # wraps in int64, so Python ints there are not a needless cost
    dev = np.array([max(a, b - a) * hi], dtype=np.int64)
    scale = 10 * tol.denominator ** 2
    assert int((scale * dev * dev)[0]) != scale * (max(a, b - a) * hi) ** 2


# -- chains -------------------------------------------------------------------


def small_cfg(**kw):
    base = dict(depth=4, horizon=200_000, seed=5)
    base.update(kw)
    return ChainConfig(**base)


def level_report(chain, m, kind, member, horizon):
    """Density report of nested level m (target p^m) or difference level m
    (target p^(m-1) (1-p)) of a chain, relative to member."""
    p = chain.p
    if kind == "nested":
        s, target = chain.nested[m], p ** m
    else:
        s, target = chain.differences[m], p ** (m - 1) * (1 - p)
    return density_report(s, member, horizon, stride=horizon // 100, target=target)


def test_round_robin_chain_exact():
    evens = Progression(0, 2)
    cfg = small_cfg(depth=3, horizon=100_000)
    chain = build_chain([evens], RoundRobinOracle(), cfg)
    assert [chain.stages[1].kth_element(i) for i in range(4)] == [0, 4, 8, 12]
    # d_X(I_m) = 2^-m exactly whenever |X ∩ n| is a multiple of 2^m
    for m in (1, 2, 3):
        rep = level_report(chain, m, "nested", evens, cfg.horizon)
        aligned = 0
        for cp, r in zip(rep.checkpoints, rep.ratios):
            if (cp // 2) % (2 ** m) == 0:
                assert r == Fraction(1, 2 ** m)
                aligned += 1
        assert aligned > 0


def test_chain_partition_law_and_telescoping():
    cfg = small_cfg()
    chain = build_chain([OMEGA], BernoulliOracle(HALF, 3), cfg)
    N = cfg.horizon
    # D_1..D_M and I_M partition [0, N) exactly
    total = chain.nested[4].count_below(N)
    for m in range(1, 5):
        total += chain.differences[m].count_below(N)
    assert total == N
    # checkpoint-exact telescoping: ratio(I_{m-1}) = ratio(I_m) + ratio(D_m)
    for m in range(1, 5):
        prev = chain.nested[m - 1].counts_at([N])[0]
        cur = chain.nested[m].counts_at([N])[0]
        diff = chain.differences[m].counts_at([N])[0]
        assert prev == cur + diff


def test_round_robin_releases_the_traces_it_built_not_the_member():
    # from stage 2 on, each stage selects from a trace the oracle built,
    # and that trace's words are dead weight once the stage holds its own
    H = 50_000
    member = BernoulliSet(Fraction(1, 3), 5)
    chain = build_chain([member], RoundRobinOracle(), small_cfg(depth=4, horizon=H))
    assert chain.stages[1].source is member
    assert member._mat is not None and member._built >= H
    for S in chain.stages[2:]:
        assert S.source is not member and S.source._mat is None


def test_chain_band_for_omega():
    cfg = small_cfg(horizon=10 ** 6)
    chain = build_chain([OMEGA], BernoulliOracle(HALF, 7), cfg)
    for m in range(1, 5):
        rep = level_report(chain, m, "nested", OMEGA, cfg.horizon)
        assert rep.max_tail_deviation <= Fraction(1, 50)
        rep_d = level_report(chain, m, "differences", OMEGA, cfg.horizon)
        assert rep_d.max_tail_deviation <= Fraction(1, 50)


def test_rho_mode_chain_difference_densities():
    # difference levels of a rho chain carry density rho^(m-1) * (1-rho)
    rho = Fraction(3, 5)
    cfg = small_cfg(depth=3, horizon=10 ** 6)
    chain = build_chain([OMEGA], BernoulliOracle(rho, 9), cfg)
    for m in range(1, 4):
        rep = level_report(chain, m, "differences", OMEGA, cfg.horizon)
        assert rep.target == rho ** (m - 1) * (1 - rho)
        assert rep.max_tail_deviation <= Fraction(1, 50)


def test_chain_rejects_finite_member():
    fin = intersect(Progression(0, 2), Progression(1, 2))
    with pytest.raises(Exception):
        build_chain([fin], BernoulliOracle(HALF, 1), small_cfg(depth=2))


def test_forward_transform_small():
    family = parse_family("omega,prog(0,2)")
    cfg = small_cfg()
    res = transform_splitter(family, "half-to-rho", Fraction(7, 16), None, cfg)
    assert res.selection == [2, 3, 4]  # binary 0.0111
    assert res.residual == 0
    assert res.path == "direct"
    assert res.all_hold


def test_forward_transform_keeps_a_residual_above_tolerance():
    # half-to-rho takes no squaring fallback: at depth 4 the binary
    # expansion of 1/3 leaves 1/48 > RESIDUAL_TOLERANCE = 1/100, and the
    # run advertises band + 2^-4 instead
    res = transform_splitter([OMEGA], "half-to-rho", Fraction(1, 3), None,
                             small_cfg(depth=4))
    assert res.path == "direct"
    assert res.selection == [2, 4]
    assert res.residual == Fraction(1, 48)
    assert res.advertised_tolerance == Fraction(33, 400)
    assert res.residual_trace == []
    assert res.chain == {"depth": 4, "mode": "half", "p": "1/2", "horizon": 200_000}


def test_converse_direct_small():
    family = parse_family("omega,prog(0,2)")
    cfg = small_cfg(depth=6)
    res = transform_splitter(family, "rho-to-half", Fraction(11, 20), None, cfg)
    assert res.path == "direct"
    assert res.residual < Fraction(1, 100)
    assert res.all_hold


def test_converse_fallback_small():
    # depth 8 so the geometric expansion of 1/2 at 9/16 clears the
    # residual tolerance (residual ~ 0.0048 at K = 8, 0.019 at K = 6)
    family = parse_family("omega,prog(0,2)")
    cfg = small_cfg(depth=8)
    res = transform_splitter(family, "rho-to-half", Fraction(3, 4), None, cfg)
    assert res.path == "fallback"
    assert res.ops == ["square"]
    assert res.effective_p == Fraction(9, 16)
    assert res.all_hold


def test_converse_unreachable_residual_errors():
    # at depth 3 the fallback to 9/16 still leaves 1/16 > RESIDUAL_TOLERANCE
    with pytest.raises(TransformError) as exc:
        transform_splitter([OMEGA], "rho-to-half", Fraction(3, 4), None,
                           small_cfg(depth=3))
    assert exc.value.residual_trace == [(Fraction(3, 4), Fraction(1, 16)),
                                        (Fraction(9, 16), Fraction(1, 16))]


@pytest.mark.parametrize("horizon", [200_000, 400_000])
def test_composed_transform_holds_the_chains_words_not_every_legs(horizon):
    # 1/32 falls back through a complement and four squarings, so every
    # stage proposal is composed of 2^4 accepted legs
    family = parse_family("omega,prog(0,2),prog(1,2),prog(0,3),prog(1,4)")
    cfg = ChainConfig(depth=8, horizon=horizon)
    tracemalloc.start()
    try:
        res = transform_splitter(family, "rho-to-half", Fraction(1, 32), None, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ops == ["complement"] + ["square"] * 4 and res.all_hold
    # the chain's stages, intersections and differences, the live targets
    # and one leg per squaring level, each H/8 bytes of words: about 80
    # such vectors; keeping every leg's words would hold about 470
    assert peak <= 120 * horizon // 8


def test_handed_on_words_and_counts_are_the_sets(monkeypatch):
    # 1/8 falls back through a complement and two squarings: each stage
    # proposal has four legs, the second validated against the traces of
    # a complement and the others against traces of a square or a leg
    H = 20_000
    cfg = small_cfg(depth=3, horizon=H)
    ops, eff = squaring_plan(Fraction(1, 8))
    assert ops == ["complement", "square", "square"]
    handed = []
    validate = rho_transform._accepted_proposal

    def spy(oracle, stage, salt, targets):
        S, traces = validate(oracle, stage, salt, targets)
        handed.extend([targets, traces])
        return S, traces

    counts = []

    def count(words, checkpoints):
        counts.append(words.shape)
        return _prefix_counts(words, checkpoints)

    monkeypatch.setattr(rho_transform, "_accepted_proposal", spy)
    monkeypatch.setattr(rho_transform, "_prefix_counts", count)
    family = parse_family("omega,prog(0,3),prog(1,4)")
    oracle = ComposedOracle(BernoulliOracle(Fraction(1, 8), 5), ops, eff)
    build_chain(family, oracle, cfg)
    # one count of the family, then one per leg proposal: 4 legs at each
    # of the 3 stages, each accepted at once here; the composed set is
    # validated on its last leg's traces, not counted again
    assert len(counts) == 1 + 3 * 4
    # every validation's targets and traces: 4 legs and the composed set
    # at each stage
    assert len(handed) == 2 * 3 * 5
    assert all(isinstance(c, Counted) for c in handed)
    checkpoints = build_checkpoints(H)
    for c in handed:
        # recounted from each trace's own words, built afresh from its tree
        fresh = np.stack([c.trace(i).packed(H) for i in range(len(c.family))])
        assert np.array_equal(c.counts, _prefix_counts(fresh, checkpoints))
        assert all(agree_below(row, want, H) for row, want in zip(c.words, fresh))


def test_meet_builds_one_set_not_one_per_row(monkeypatch):
    H = 5_000
    family = parse_family("omega,prog(0,2),prog(1,2),prog(0,3),prog(1,4)")
    targets = Counted(family, H)
    built = []

    def spy(a, b):
        built.append((a, b))
        return intersect(a, b)

    monkeypatch.setattr(rho_transform, "intersect", spy)
    S = BernoulliSet(Fraction(1, 3), 2)
    traces = targets.meet(S)
    # the path narrowed by S is the one set built; no row becomes a set
    assert built == [(OMEGA, S)] and traces.path is not OMEGA
    assert traces.family == targets.family
    T = BernoulliSet(Fraction(1, 3), 3)
    on_t = traces.meet(T, traces.words, traces.counts)
    assert len(built) == 2 and built[1] == (traces.path, T)
    assert on_t.words is traces.words and on_t.counts is traces.counts


def test_a_proposal_without_a_gathered_test_is_packed_densely_at_a_listed_path():
    H = 20_000
    family = parse_family("omega,prog(0,2),prog(1,3)")
    dense = Counted(family, H).meet(BernoulliSet(Fraction(1, 8), 5))
    members = sparse_members(dense.path, H, 16)
    assert members is not None
    listed = Counted(family, H, dense.path, dense.words, dense.counts, members)
    for make in (lambda: Progression(1, 3),
                 lambda: parse_set("union(prog(0,5),bern(1/3,2))"),
                 # the round-robin proposal on the first target's trace
                 lambda: StrideSelection(dense.trace(0), 2, 0)):
        T = make()
        assert T.packed_on(members) is None and T._mat is None
        got, want = listed.meet(make()), dense.meet(make())
        assert np.array_equal(got.words, want.words)
        assert np.array_equal(got.counts, want.counts)
        assert agree_below(got.path.packed(H), want.path.packed(H), H)


_dense_members = st.one_of(
    st.tuples(st.just("prog"), st.integers(0, 300), st.integers(1, 4)),
    st.tuples(st.just("bern"), st.integers(8, 31), st.integers(0, 99)),
)


# a complement as the last op hands on the targets' words less leg a's, a
# square its leg b's traces, and the plan of 1/8 does both below its top
@settings(max_examples=20, deadline=None)
@given(st.lists(_dense_members, min_size=1, max_size=4),
       st.sampled_from(["bernoulli", "round-robin", ("complement",), ("square",),
                        ("complement", "square", "square")]),
       st.integers(0, 99), st.integers(0, 3))
def test_a_proposals_traces_are_its_meet_with_the_targets(members, kind, seed, attempt):
    H = 20_000
    family = [_spec_set(m, H) for m in members]
    if kind == "round-robin":
        oracle, family = RoundRobinOracle(), family[:1]
    elif kind == "bernoulli":
        oracle = BernoulliOracle(Fraction(1, 3), seed)
    else:
        # the legs are validated at 1/8; the composed p is not read here
        oracle = ComposedOracle(BernoulliOracle(Fraction(1, 8), seed), kind, HALF)
    targets = Counted(family, H)
    S, traces = oracle.propose(1, attempt, targets)
    assert isinstance(traces, Counted) and traces.horizon == H
    assert traces.family == tuple(family)
    fresh = np.stack([intersect(S, t).packed(H) for t in family])
    assert np.array_equal(traces.counts, _prefix_counts(fresh, build_checkpoints(H)))
    # the handed-on rows are the words of the traces' own sets, too
    for i, row in enumerate(traces.words):
        assert agree_below(row, fresh[i], H)
        assert agree_below(row, traces.trace(i).packed(H), H)


def test_transform_rejects_bad_rho():
    with pytest.raises(ValueError):
        transform_splitter([OMEGA], "half-to-rho", Fraction(1), None,
                           small_cfg())


def test_oracle_validation():
    with pytest.raises(ValueError):
        BernoulliOracle(Fraction(1), 0)
    rr = RoundRobinOracle()
    with pytest.raises(ValueError):
        rr.propose(1, 0, Counted([OMEGA, OMEGA], 1_000))
    # the transform takes any oracle whose density is its chain density
    with pytest.raises(ValueError, match="rho-to-half needs an oracle with p = 3/5"):
        transform_splitter([OMEGA], "rho-to-half", Fraction(3, 5), rr, small_cfg())
    with pytest.raises(ValueError, match="half-to-rho needs an oracle with p = 1/2"):
        transform_splitter([OMEGA], "half-to-rho", Fraction(3, 5),
                           BernoulliOracle(Fraction(3, 5), 1), small_cfg())


class _ScriptedOracle(SplitterOracle):
    """Proposes the given sets in turn, then the last one again; records
    the (stage, attempt) of every request."""

    def __init__(self, *proposals):
        self.p = HALF
        self.proposals = proposals
        self.asked = []

    def propose(self, stage, attempt, targets):
        self.asked.append((stage, attempt))
        S = self.proposals[min(len(self.asked), len(self.proposals)) - 1]
        return S, targets.meet(S)


def test_oracle_rejected_every_time_is_exhausted():
    cfg = small_cfg(depth=1)
    for family, proposal, ratio in [
        # prog(0,4) has ratio exactly 1/4 at every checkpoint: far out of band
        ([OMEGA], Progression(0, 4), "1/4"),
        # the evens split omega and prog(0,3) exactly, and hold all of prog(0,4)
        ([OMEGA, Progression(0, 3), Progression(0, 4)], Progression(0, 2), "1"),
    ]:
        oracle = _ScriptedOracle(proposal)
        with pytest.raises(OracleExhaustedError, match="12 times at stage 1") as info:
            build_chain(family, oracle, cfg)
        assert oracle.asked == [(1, 1000 * a) for a in range(MAX_ATTEMPTS)]
        diags = info.value.diagnostics
        assert [(stage, attempt) for stage, attempt, _ in diags] == [
            (1, a) for a in range(MAX_ATTEMPTS)]
        # each diagnostic is the report against the member that rejected
        expect = density_report(proposal, family[-1], cfg.horizon, target=HALF).to_json()
        for _, _, rep in diags:
            assert rep == expect
            assert (rep["target"], rep["lower_est"], rep["upper_est"]) == ("1/2", ratio, ratio)


def test_oracle_resampled_after_a_rejection():
    oracle = _ScriptedOracle(Progression(0, 4), Progression(0, 2))
    chain = build_chain([OMEGA], oracle, small_cfg(depth=1))
    assert oracle.asked == [(1, 0), (1, 1000)]
    assert chain.stages[1] is oracle.proposals[1]


@pytest.mark.parametrize("kind", ["bernoulli", "composed", "round-robin"])
def test_each_nested_set_is_the_accepted_traces_path(monkeypatch, kind):
    if kind == "round-robin":
        family, oracle = [BernoulliSet(Fraction(1, 3), 5)], RoundRobinOracle()
    else:
        family = parse_family("omega,prog(0,3),prog(1,4)")
        oracle = BernoulliOracle(HALF, 5)
    if kind == "composed":
        # 1/8 falls back through a complement and two squarings
        ops, eff = squaring_plan(Fraction(1, 8))
        oracle = ComposedOracle(BernoulliOracle(Fraction(1, 8), 5), ops, eff)
    accepted = []
    validate = rho_transform._accepted_proposal

    def spy(o, stage, salt, targets):
        S, traces = validate(o, stage, salt, targets)
        if o is oracle:  # a stage, not one of its legs
            accepted.append((S, traces.path))
        return S, traces

    monkeypatch.setattr(rho_transform, "_accepted_proposal", spy)
    chain = build_chain(family, oracle, small_cfg(depth=3, horizon=20_000))
    assert len(accepted) == 3
    for m, (S, path) in enumerate(accepted, 1):
        assert chain.stages[m] is S and chain.nested[m] is path
        assert path.children == (chain.nested[m - 1], S)


def test_a_round_robin_chain_holds_no_path_words_but_its_nested_sets(monkeypatch):
    # each stage packs its proposal, a stride over the trace P ∩ X, and so
    # packs the path P; that P is the chain's nested set, not a copy of it
    paths = []
    init = Counted.__init__

    def spy(self, family, horizon, path=OMEGA, *rest):
        init(self, family, horizon, path, *rest)
        paths.append(path)

    monkeypatch.setattr(Counted, "__init__", spy)
    chain = build_chain([BernoulliSet(Fraction(1, 3), 5)], RoundRobinOracle(),
                        small_cfg(depth=6, horizon=50_000))
    held = {id(P) for P in paths if P._mat is not None}
    assert held == {id(N) for N in chain.nested}


class _MisPathOracle(SplitterOracle):
    """Proposes the evens with their traces' true words and counts, on a
    path that is a set equal to targets.path ∩ S but not that node."""

    def __init__(self, path_of):
        self.p = HALF
        self.path_of = path_of

    def propose(self, stage, attempt, targets):
        S = Progression(0, 2)
        traces = targets.meet(S)
        return S, Counted(targets.family, targets.horizon, self.path_of(targets.path, S),
                          traces.words, traces.counts)


@pytest.mark.parametrize("path_of", [
    lambda P, S: S,
    lambda P, S: intersect(S, P),
    lambda P, S: intersect(P, Progression(0, 2)),
], ids=["the-proposal", "children-swapped", "an-equal-proposal"])
def test_a_path_that_is_not_the_chains_intersection_is_refused(path_of):
    with pytest.raises(AssertionError, match="path is not nested"):
        build_chain([OMEGA, Progression(0, 3)], _MisPathOracle(path_of), small_cfg(depth=1))


# -- the validator against one density report per (proposal, member) --------


def _validated_by_reports(oracle, targets, horizon):
    """Stage-1 validation as a density report per (proposal, member) pair,
    with the band rule in rational arithmetic on each report's tail rows:
    the reference that ``_accepted_proposal`` must agree with."""
    p, tol = oracle.p, STAGE_TOLERANCE
    counted = Counted(targets, horizon)
    failures = []
    for attempt in range(MAX_ATTEMPTS):
        S, _ = oracle.propose(1, attempt * 1000, counted)
        for R in targets:
            rep = density_report(S, R, horizon, target=p)
            tail = bisect_left(rep.checkpoints, rep.tail_from)
            rows = zip(rep.numerators[tail:], rep.denominators[tail:])
            if not _rule_holds(rows, p, tol):
                failures.append((1, attempt, rep.to_json()))
                break
        else:
            return S
    raise OracleExhaustedError(
        f"oracle failed validation {MAX_ATTEMPTS} times at stage 1", failures)


def _spec_set(spec, horizon):
    """A set from a drawn spec: a progression, a Bernoulli set, an explicit
    set that starts at a permille of the horizon with a periodic tail, the
    evens with every index of [end - width, end) added for an end at a
    permille of the horizon, or a thin set with `count` points below the
    horizon and all of it after."""
    kind, *args = spec
    if kind == "prog":
        return Progression(*args)
    if kind == "bern":
        return BernoulliSet(Fraction(args[0], 32), args[1])
    if kind == "late":
        permille, tail = args
        return ExplicitSet([False] * (horizon * permille // 1000), tail)
    if kind == "bump":
        permille, width = args
        end = horizon * permille // 2000 * 2
        bits = [k % 2 == 0 or k >= end - width for k in range(end)]
        return ExplicitSet(bits, (True, False))
    (count,) = args
    return ExplicitSet.from_elements([horizon * i // count for i in range(count)],
                                     horizon + 1, tail=(True,))


_member_specs = st.one_of(
    st.tuples(st.just("prog"), st.integers(0, 300), st.integers(1, 5)),
    st.tuples(st.just("bern"), st.integers(1, 31), st.integers(0, 99)),
    st.tuples(st.just("late"), st.integers(0, 1200),
              st.sampled_from([(True,), (False, True), (True, False, False), (False,)])),
    st.tuples(st.just("thin"), st.integers(1, 12)),
)
_proposal_specs = st.one_of(
    st.tuples(st.just("prog"), st.integers(0, 3), st.integers(1, 4)),
    st.tuples(st.just("bern"), st.sampled_from([14, 16, 18]), st.integers(0, 99)),
    st.tuples(st.just("bump"), st.integers(450, 550), st.integers(0, 4000)),
)


def _outcome(validate):
    try:
        return "accepted", validate()
    except OracleExhaustedError as exc:
        return "exhausted", str(exc), exc.diagnostics
    except ValueError as exc:
        return type(exc).__name__, str(exc)


# a thin member after one the proposal passes, then rows with d == 0 in the
# tail (a member that starts at 0.7 H), each at a horizon whose checkpoints
# share words and at the transform's horizon; then bumps that only the first
# tail row (at H/2) rejects, and that only the row before it would reject
@example(3_000, [("prog", 0, 1), ("thin", 5)], [("prog", 0, 2)])
@example(200_000, [("prog", 0, 1), ("thin", 9)], [("bern", 16, 1)])
@example(3_000, [("late", 700, (False, True))], [("prog", 0, 4), ("prog", 1, 2)])
@example(200_000, [("prog", 0, 2), ("late", 700, (True,))], [("bern", 16, 2)])
@example(200_000, [("prog", 0, 1)], [("bump", 500, 2020), ("prog", 0, 2)])
@example(200_000, [("prog", 0, 1)], [("bump", 490, 1990), ("prog", 0, 4)])
@settings(max_examples=60, deadline=None)
@given(st.integers(500, 200_000), st.lists(_member_specs, min_size=1, max_size=5),
       st.lists(_proposal_specs, min_size=1, max_size=MAX_ATTEMPTS + 1))
def test_validator_agrees_with_a_report_per_member(horizon, members, proposals):
    family = [_spec_set(m, horizon) for m in members]
    sets = [_spec_set(p, horizon) for p in proposals]
    fast, slow = _ScriptedOracle(*sets), _ScriptedOracle(*sets)
    got = _outcome(lambda: _accepted_proposal(fast, 1, 0, Counted(family, horizon))[0])
    want = _outcome(lambda: _validated_by_reports(slow, family, horizon))
    assert got == want
    assert fast.asked == slow.asked


def test_a_finite_trace_first_reached_at_a_later_stage_raises_then():
    # the evens below 2H pass stage 1 against omega and prog(1,3), since
    # the horizon sees no more of them; at stage 2 the trace on omega is
    # that finite set, and the walk raises when it first reaches it
    H = 3_000
    finite_evens = ExplicitSet([k % 2 == 0 for k in range(2 * H)], (False,))
    oracle = _ScriptedOracle(finite_evens, Progression(0, 2))
    with pytest.raises(FiniteSetError, match="X is finite-flagged"):
        build_chain([OMEGA, Progression(1, 3)], oracle, small_cfg(depth=3, horizon=H))
    assert oracle.asked == [(1, 0), (2, 0)]


def test_a_thin_target_first_reached_by_a_later_proposal_raises_then():
    # the first proposal fails omega, so the second is the first to reach
    # the thin member, and the validation raises only then
    H = 3_000
    oracle = _ScriptedOracle(Progression(0, 4), Progression(0, 2))
    with pytest.raises(ValueError, match="X has only 5 points"):
        _accepted_proposal(oracle, 1, 0, Counted([OMEGA, _spec_set(("thin", 5), H)], H))
    assert oracle.asked == [(1, 0), (1, 1000)]


@pytest.mark.parametrize("direction, rho", [("rho-to-half", Fraction(1, 32)),
                                            ("half-to-rho", Fraction(7, 16))])
def test_each_nested_set_is_the_and_of_its_stages_recomputed_densely(monkeypatch, direction, rho):
    H = 200_000
    plan = plan_transform(direction, rho, 8, Fraction(1, 50))
    oracle = BernoulliOracle(plan.p, 3)
    if plan.ops:
        oracle = ComposedOracle(oracle, plan.ops, plan.effective_p)
    listed = []
    sparse_members = rho_transform.sparse_members

    def spy(path, n, legs):
        members = sparse_members(path, n, legs)
        listed.append(members is not None)
        return members

    monkeypatch.setattr(rho_transform, "sparse_members", spy)
    family = parse_family("omega,prog(0,2),prog(1,2),prog(0,3),prog(1,4)")
    OMEGA.release_words()
    chain = build_chain(family, oracle, ChainConfig(depth=8, horizon=H))
    # the shared omega, the first stage's path, holds no words
    assert OMEGA._mat is None
    # 1/32 squares four times, so 16 legs a proposal: its stages are
    # evaluated at their path's members once the path is sparse (about
    # 0.6^(m-1) of [0, H) at stage m), and a lone Bernoulli proposal never is
    assert len(listed) == 7
    assert listed[:1] + listed[2:] == ([False] + [True] * 5 if plan.ops else [False] * 6)
    stages = None
    for m in range(1, 9):
        # a fresh copy of the stage, every leg filled over [0, H)
        fresh = parse_set(chain.stages[m].descriptor()).packed(H)
        stages = fresh if stages is None else stages & fresh
        assert agree_below(chain.nested[m].packed(H), stages, H)
