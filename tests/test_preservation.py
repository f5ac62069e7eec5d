import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from rhosplit import (
    BernoulliSet,
    ExplicitSet,
    GoodPair,
    IntervalSymbolicSet,
    Progression,
    build_partition,
    complement,
    intersect,
    nwd_escape,
    reap_tukey_map,
    rel_holds,
    split_verdict,
    witness_above,
    witness_below,
)
from rhosplit.preservation import QUARTER

HALF = Fraction(1, 2)
EPS = Fraction(1, 10)
HORIZON_K = 7


def all_indices(horizon_k):
    return ExplicitSet(np.ones(horizon_k, dtype=bool), tail=(True,))


def make_battery(P):
    """Ten sets exercising both branches of each dichotomy."""
    half = {k: P.first(k, (P.size(k) + 1) // 2) for k in range(HORIZON_K)}
    quarter = {k: P.first(k, max(1, P.size(k) // 4)) for k in range(HORIZON_K)}
    seven_eighths = {k: P.first(k, (7 * P.size(k)) // 8 + 1)
                     for k in range(HORIZON_K)}
    alternating = {k: (P.full(k) if k % 2 else P.first(k, 1))
                   for k in range(HORIZON_K)}
    return {
        "singletons": IntervalSymbolicSet(P, {}, default="singleton"),
        "full": IntervalSymbolicSet(P, {}, default="full"),
        "first-half": IntervalSymbolicSet(P, half, default="singleton"),
        "first-quarter": IntervalSymbolicSet(P, quarter, default="singleton"),
        "seven-eighths": IntervalSymbolicSet(P, seven_eighths, default="full"),
        "alternating": IntervalSymbolicSet(P, alternating, default="singleton"),
        "evens": Progression(0, 2),
        "odds": Progression(1, 2),
        "mult3": Progression(0, 3),
        "bern": BernoulliSet(HALF, 23),
    }


BATTERY_NAMES = tuple(make_battery(build_partition("minimal", HORIZON_K)))


@pytest.fixture(scope="module")
def P():
    return build_partition("minimal", 16)


@pytest.fixture(scope="module")
def battery(P):
    return make_battery(P)


def brute_rel(X, pair, n, horizon_k):
    """Independent check of the relation on explicit bit vectors (guard
    bits are rebuilt from the guard descriptors, not from the library's
    intersection counting)."""
    P = pair.partition
    hi = P.boundary(horizon_k)
    xa = X.materialize(hi)
    for k in range(n, horizon_k):
        if not pair.H.contains(k):
            continue
        lo, up = P.boundary(k), P.boundary(k + 1)
        guard = pair.guard_at(k)
        gbits = np.zeros(up - lo, dtype=bool)
        if guard.kind == "full":
            gbits[:] = True
        elif guard.kind == "first":
            gbits[: guard.s] = True
        elif guard.kind == "last":
            gbits[up - lo - guard.s:] = True
        elif guard.kind == "trace":
            gbits = guard.base.materialize(up)[lo:up]
        else:
            gbits = np.array([guard.membership(x) for x in range(lo, up)])
        lhs = int((gbits & xa[lo:up]).sum())
        xik = int(xa[lo:up].sum())
        if not lhs < (HALF + pair.eps) * (xik + lo):
            return False, k
    return True, None


def test_rel_holds_trivial_empty_intersection(P):
    X = IntervalSymbolicSet(P, {}, default="singleton")
    guards = {k: P.last(k, P.size(k) - 1) for k in range(HORIZON_K)}
    pair = GoodPair(P, all_indices(HORIZON_K), guards, EPS)
    # X picks the least element, guards avoid it: lhs identically zero
    assert rel_holds(X, pair, 0, HORIZON_K).holds


def test_rel_holds_fails_on_full_capture(P):
    X = IntervalSymbolicSet(P, {}, default="full")
    pair = GoodPair(P, all_indices(HORIZON_K), {}, EPS)  # guards full
    verdict = rel_holds(X, pair, 3, HORIZON_K)
    assert not verdict.holds
    # |E_k| >= (1/2+eps)(|I_k| + |I_<k|) once |I_<k|/|I_k| is small
    k = verdict.witness_k
    assert verdict.lhs == P.size(k)
    assert verdict.rhs == (HALF + EPS) * (P.size(k) + P.boundary(k))


def test_rel_holds_vacuous_beyond_h(P):
    X = IntervalSymbolicSet(P, {}, default="full")
    H = ExplicitSet(np.zeros(HORIZON_K, dtype=bool), tail=(True,))
    pair = GoodPair(P, H, {}, EPS)
    assert rel_holds(X, pair, 0, HORIZON_K).holds


def test_rel_verdict_matches_brute_force(P, battery):
    guards = {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
              for k in range(HORIZON_K)}
    pair = GoodPair(P, all_indices(HORIZON_K), guards, EPS)
    for name, X in battery.items():
        got = rel_holds(X, pair, 1, HORIZON_K)
        expect, k = brute_rel(X, pair, 1, HORIZON_K)
        assert got.holds == expect, name
        if not expect:
            assert got.witness_k == k


def test_good_pair_floor_enforced(P):
    guards = {2: P.first(2, P.size(2) // 5)}  # ratio 1/5 <= 1/4
    pair = GoodPair(P, all_indices(HORIZON_K), guards, EPS)
    X = IntervalSymbolicSet(P, {}, default="singleton")
    with pytest.raises(ValueError, match="1/4"):
        rel_holds(X, pair, 0, HORIZON_K)


def test_witness_above_battery(P, battery):
    seen_branches = set()
    for name, X in battery.items():
        pair = witness_above(X, EPS, P, HORIZON_K)
        low_count = sum(
            1 for k in range(HORIZON_K)
            if Fraction(pair.guard_at(k).count, P.size(k)) > 0 and True
        )
        # identify the branch by the guard shape at a guarded index
        branch1 = any(pair.guard_at(k).kind in ("cotrace", "last", "empty")
                      or pair.guard_at(k).base is not None
                      for k in range(HORIZON_K) if k in pair.guards)
        n = 1 if branch1 else 0
        seen_branches.add(branch1)
        assert rel_holds(X, pair, n, HORIZON_K).holds, name
        assert pair.floor_violation(HORIZON_K) is None
    assert seen_branches == {True, False}  # both dichotomy branches hit


def test_witness_above_full_branch_inequality(P):
    # nearly-full X: |X∩E_k| <= |E_k| < (3/8)|I_k| < (1/2+eps)|X∩I_k|
    X = IntervalSymbolicSet(P, {}, default="full")
    pair = witness_above(X, EPS, P, HORIZON_K)
    for k in range(2, HORIZON_K):
        guard = pair.guard_at(k)
        if k in pair.guards:
            assert QUARTER < guard.ratio() < Fraction(3, 8)
            assert guard.count < (HALF + EPS) * P.size(k)


def test_witness_below_battery(P):
    pairs = {
        "banded": GoodPair(
            P, all_indices(HORIZON_K),
            {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
             for k in range(HORIZON_K)}, EPS),
        "full-guards": GoodPair(P, all_indices(HORIZON_K), {}, EPS),
        "alternate": GoodPair(
            P, ExplicitSet(np.array([k % 2 == 0 for k in range(HORIZON_K)]),
                           tail=(True,)),
            {}, EPS),
        "traces": GoodPair(
            P, all_indices(HORIZON_K),
            {k: P.trace(k, Progression(0, 2)) for k in range(HORIZON_K)}, EPS),
    }
    defaults_seen = set()
    for name, pair in pairs.items():
        Y = witness_below(pair, HORIZON_K)
        defaults_seen.add(Y.default)
        assert rel_holds(Y, pair, 1, HORIZON_K).holds, name
    assert "singleton" in defaults_seen  # full guards force the fallback
    assert "full" in defaults_seen


def test_witness_below_full_guards_singleton(P):
    pair = GoodPair(P, all_indices(HORIZON_K), {}, EPS)
    Y = witness_below(pair, HORIZON_K)
    for k in range(HORIZON_K):
        assert Y.value_at(k).count == 1


def test_closedness_verdict_depends_only_on_prefix_data(P):
    # permuting guards beyond the horizon leaves the verdict unchanged
    X = IntervalSymbolicSet(P, {}, default="singleton")
    guards_a = {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
                for k in range(HORIZON_K)}
    guards_b = dict(guards_a)
    guards_b[HORIZON_K + 2] = P.full(HORIZON_K + 2)
    a = rel_holds(X, GoodPair(P, all_indices(12), guards_a, EPS), 1, HORIZON_K)
    b = rel_holds(X, GoodPair(P, all_indices(12), guards_b, EPS), 1, HORIZON_K)
    assert a.holds == b.holds


def test_nwd_escape_battery(P, battery):
    guards = {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
              for k in range(HORIZON_K)}
    pair = GoodPair(P, all_indices(HORIZON_K), guards, EPS)
    for name, X in battery.items():
        if not rel_holds(X, pair, 1, HORIZON_K).holds:
            continue
        for m in (0, 3, 40):
            Y, k = nwd_escape(X, pair, 1, m, HORIZON_K)
            after = rel_holds(Y, pair, 1, HORIZON_K)
            assert not after.holds and after.witness_k == k, (name, m)
            assert np.array_equal(Y.materialize(m), X.materialize(m))


def test_nwd_escape_least_k_matches_scan(P):
    # independent scan of the largeness condition at guard ratio 5/16-ish
    X = IntervalSymbolicSet(P, {}, default="singleton")
    guards = {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
              for k in range(12)}
    pair = GoodPair(P, all_indices(12), guards, EPS)
    _, k = nwd_escape(X, pair, 1, 0, 12)
    expected = next(
        j for j in range(1, 12)
        if guards[j].ratio() > (HALF + EPS) * (guards[j].ratio()
                                               + Fraction(1, 2 ** j))
    )
    assert k == expected


def test_nwd_escape_m_beyond_horizon(P):
    X = IntervalSymbolicSet(P, {}, default="singleton")
    pair = GoodPair(P, all_indices(HORIZON_K), {}, EPS)
    with pytest.raises(ValueError, match="beyond the horizon"):
        nwd_escape(X, pair, 1, P.boundary(HORIZON_K) + 1, HORIZON_K)


def test_nwd_escape_unsatisfiable_largeness(P):
    # guards just above the floor with eps = 0.45: largeness needs
    # 2^-k < r/19, unreachable for k < 7
    X = IntervalSymbolicSet(P, {}, default="singleton")
    guards = {k: P.first(k, max(1, P.size(k) // 4 + 1)) for k in range(6)}
    pair = GoodPair(P, all_indices(6), guards, Fraction(45, 100))
    with pytest.raises(ValueError, match="extend the horizon"):
        nwd_escape(X, pair, 1, 0, 6)


def test_reap_tukey_map_branches(P):
    half = IntervalSymbolicSet(
        P, {k: P.first(k, (P.size(k) + 1) // 2) for k in range(HORIZON_K)},
        default="singleton")
    pair = reap_tukey_map(half, EPS, P, HORIZON_K)
    assert all(pair.H.contains(k) for k in range(HORIZON_K))  # S' = S

    singles = IntervalSymbolicSet(P, {}, default="singleton")
    pair2 = reap_tukey_map(singles, EPS, P, HORIZON_K)
    # ratios 1/|I_k| <= 1/4 for k >= 1, so the complement is used
    assert all(pair2.H.contains(k) for k in range(1, HORIZON_K))
    assert pair2.guard_at(3).count == P.size(3) - 1

    evens = Progression(0, 2)
    pair3 = reap_tukey_map(evens, EPS, P, HORIZON_K)
    assert pair3.guard_at(3).base is evens  # S' = S, guards are traces


def test_reap_tukey_contract(P, battery):
    """If S eps-almost bisects X numerically, the image pair bounds X
    from some index on (checked via the proof's prefix inequality)."""
    S = BernoulliSet(HALF, 11)
    pair = reap_tukey_map(S, EPS, P, HORIZON_K)
    targets = {k: battery[k] for k in
               ("evens", "odds", "mult3", "first-half", "full")}
    for name, X in targets.items():
        v = split_verdict("eps_band", S, X, 10 ** 6, eps=EPS)
        assert v.holds_numerically, name
        # one pass: the guarded inequality at every k, plus the proof's
        # chain |X∩E_k| / (|X∩I_k| + |I_<k|) <= prefix ratio < 1/2 + eps
        joint = intersect(S, X)
        ok_at = {}
        for k in range(HORIZON_K):
            if not pair.H.contains(k):
                ok_at[k] = True
                continue
            lhs = Fraction(
                pair.guard_at(k).intersect_set_count(X),
                _x_count(X, P, k) + P.boundary(k),
            )
            bound = HALF + EPS
            ok_at[k] = lhs < bound
            if k >= 3:
                hi = P.boundary(k + 1)
                prefix_ratio = Fraction(joint.count_below(hi),
                                        X.count_below(hi))
                assert lhs <= prefix_ratio < bound, (name, k)
        least = next((k0 for k0 in range(HORIZON_K)
                      if all(ok_at[j] for j in range(k0, HORIZON_K))), None)
        assert least is not None, name
        assert rel_holds(X, pair, least, HORIZON_K).holds, name


def _x_count(X, P, k):
    if isinstance(X, IntervalSymbolicSet) and X.part is P:
        return X.value_at(k).count
    return P.trace(k, X).count


def fraction_rel(X, pair, n, horizon_k):
    """The guarded relation in Fractions: the least k in H from n on with
    |X ∩ E_k| >= (1/2 + eps)(|X ∩ I_k| + |I_<k|), and both sides there."""
    P = pair.partition
    for k in range(n, horizon_k):
        if pair.H.contains(k):
            lhs = pair.guard_at(k).intersect_set_count(X)
            rhs = (HALF + pair.eps) * (_x_count(X, P, k) + P.boundary(k))
            if not lhs < rhs:
                return False, k, lhs, rhs
    return True, None, None, None


def fraction_escape_index(pair, n, m, horizon_k):
    """nwd_escape's interval in Fractions: the least guarded k >= n with
    b_k >= m and r > (1/2 + eps)(r + 2^-k) for the guard ratio r."""
    P = pair.partition
    for k in range(n, horizon_k):
        r = pair.guard_at(k).ratio()
        if (pair.H.contains(k) and P.boundary(k) >= m
                and r > (HALF + pair.eps) * (r + Fraction(1, 2 ** k))):
            return k
    return None


@settings(max_examples=40, deadline=None)
@given(eps=st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(499, 1000),
                        max_denominator=1000),
       sixteenths=st.lists(st.integers(4, 15), min_size=HORIZON_K, max_size=HORIZON_K),
       name=st.sampled_from(BATTERY_NAMES), n=st.integers(0, 3),
       m=st.sampled_from([0, 3, 40]))
def test_rel_and_escape_agree_with_a_fraction_reference(P, battery, eps, sixteenths,
                                                        name, n, m):
    # guards of just over s/16 of each interval, above the 1/4 floor
    X = battery[name]
    guards = {k: P.first(k, max(1, s * P.size(k) // 16 + 1))
              for k, s in enumerate(sixteenths)}
    pair = GoodPair(P, all_indices(HORIZON_K), guards, eps)
    got = rel_holds(X, pair, n, HORIZON_K)
    assert (got.holds, got.witness_k, got.lhs, got.rhs) == fraction_rel(X, pair, n, HORIZON_K)
    if not got.holds:
        return
    k = fraction_escape_index(pair, n, m, HORIZON_K)
    if k is None:
        with pytest.raises(ValueError, match="extend the horizon"):
            nwd_escape(X, pair, n, m, HORIZON_K)
    else:
        assert nwd_escape(X, pair, n, m, HORIZON_K)[1] == k


@pytest.mark.parametrize("eps", [Fraction(0), HALF, Fraction(3), Fraction(-1, 10)])
def test_good_pair_refuses_an_improper_width(P, eps):
    X = Progression(0, 2)
    for make in (lambda: GoodPair(P, all_indices(HORIZON_K), {}, eps),
                 lambda: witness_above(X, eps, P, HORIZON_K),
                 lambda: reap_tukey_map(X, eps, P, HORIZON_K)):
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1/2\)"):
            make()


def test_rel_holds_refuses_a_negative_n(P):
    X = Progression(0, 2)
    pair = witness_above(X, EPS, P, HORIZON_K)
    with pytest.raises(ValueError, match="n must be non-negative"):
        rel_holds(X, pair, -5, HORIZON_K)
    with pytest.raises(ValueError, match="n must be non-negative"):
        nwd_escape(X, pair, -2, 0, HORIZON_K)
