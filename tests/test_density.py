import numpy as np
import pytest
from fractions import Fraction
from hypothesis import assume, given, settings, strategies as st

from rhosplit import (
    OMEGA,
    BernoulliSet,
    ExplicitSet,
    PowersSet,
    Progression,
    SequenceSet,
    complement,
    density_report,
    intersect,
    parse_set,
    split_verdict,
    union,
)
from rhosplit import density
from rhosplit.density import build_checkpoints

HALF = Fraction(1, 2)


def test_report_evens_in_omega_exact_half():
    rep = density_report(Progression(0, 2), OMEGA, 1000, stride=100)
    assert set(rep.ratios) == {HALF}
    assert rep.checkpoints[-1] == 1000


def test_report_multiples_of_three_in_evens():
    rep = density_report(Progression(0, 3), Progression(0, 2), 10 ** 6,
                         stride=10 ** 4)
    assert Fraction(33, 100) <= rep.lower_est <= rep.upper_est <= Fraction(34, 100)


def test_report_identity_case():
    s = parse_set("prog(3,7)")
    rep = density_report(s, s, 10 ** 4, stride=1000)
    assert set(rep.ratios) == {Fraction(1)}


def test_report_requires_inhabited_x():
    sparse = PowersSet(2)
    with pytest.raises(ValueError, match="at least 10"):
        density_report(OMEGA, sparse, 100)


def test_report_counts_are_exact():
    S, X = parse_set("bern(1/2,5)"), Progression(0, 2)
    rep = density_report(S, X, 20000, stride=5000)
    joint = intersect(S, X)
    for cp, num, den in zip(rep.checkpoints, rep.numerators, rep.denominators):
        assert num == joint.count_below(cp)
        assert den == X.count_below(cp)


def test_upper_lower_oscillating_blocks():
    # S fills [2^(2k), 2^(2k+1)) and skips [2^(2k+1), 2^(2k+2))
    N = 2 ** 20
    bits = np.zeros(N, dtype=bool)
    k = 0
    while 4 ** k < N:
        bits[4 ** k: min(2 * 4 ** k, N)] = True
        k += 1
    osc = ExplicitSet(bits, tail=(True,))
    rep = density_report(osc, OMEGA, N, geometric=True)
    upper, lower = rep.upper_est, rep.lower_est
    # brute-force oracle at the two tail checkpoints 2^19, 2^20
    cum = np.cumsum(bits)
    expect_hi = Fraction(int(cum[2 ** 19 - 1]), 2 ** 19)
    expect_lo = Fraction(int(cum[2 ** 20 - 1]), 2 ** 20)
    assert upper == expect_hi and lower == expect_lo
    assert upper - lower >= Fraction(1, 5)


def test_complement_duality_at_checkpoints():
    S = parse_set("bern(2/5,17)")
    rep = density_report(S, OMEGA, 10 ** 5, stride=10 ** 4)
    rep_c = density_report(complement(S), OMEGA, 10 ** 5, stride=10 ** 4)
    for r, rc in zip(rep.ratios, rep_c.ratios):
        assert rc == 1 - r


def test_finite_additivity_at_checkpoints():
    s1, s2 = Progression(0, 4), Progression(1, 4)  # disjoint
    u = union(s1, s2)
    r1 = density_report(s1, OMEGA, 10 ** 5, stride=7777)
    r2 = density_report(s2, OMEGA, 10 ** 5, stride=7777)
    ru = density_report(u, OMEGA, 10 ** 5, stride=7777)
    for a, b, c in zip(r1.ratios, r2.ratios, ru.ratios):
        assert c == a + b


def test_monotone_in_the_set():
    small, big = Progression(0, 4), Progression(0, 2)  # small ⊆ big
    rs = density_report(small, OMEGA, 10 ** 4, stride=999)
    rb = density_report(big, OMEGA, 10 ** 4, stride=999)
    for a, b in zip(rs.ratios, rb.ratios):
        assert a <= b


def test_classical_verdict():
    v = split_verdict("classical", Progression(0, 2), OMEGA, 10 ** 4)
    assert v.holds_numerically
    assert v.details["s_and_x"] == 5000
    assert v.details["x_minus_s"] == 5000


def test_rho_verdict_bernoulli_half():
    v = split_verdict("rho", BernoulliSet(HALF, 5), OMEGA, 10 ** 6,
                      rho=HALF, tolerance=Fraction(1, 100))
    assert v.holds_numerically
    assert v.diagnostics.max_tail_deviation <= Fraction(1, 100)


def test_eps_band_is_strict():
    # a set pinned at exactly 1/2 + eps at every checkpoint violates the
    # open band
    v = split_verdict("eps_band", Progression(0, 2), OMEGA, 1000,
                      eps=Fraction(1, 10), stride=100)
    assert v.holds_numerically  # 1/2 strictly inside
    bits = np.zeros(1000, dtype=bool)
    bits[0::5] = True
    bits[1::5] = True
    bits[2::5] = True  # density exactly 3/5 = 1/2 + 1/10
    s = ExplicitSet(bits, tail=(True, True, True, False, False))
    v2 = split_verdict("eps_band", s, OMEGA, 1000, eps=Fraction(1, 10),
                       stride=100)
    assert not v2.holds_numerically


def test_zero_verdict_sparse_range():
    # ran(x) with x(n) = 2^(2^n) inside the powers of two, horizon 2^32
    R = PowersSet(2)
    x = SequenceSet(lambda n: 2 ** (2 ** n), name="doubling")
    v = split_verdict("zero", x, R, 2 ** 32, geometric=True,
                      tolerance=Fraction(1, 5))
    assert v.holds_numerically


def test_zero_verdict_preconditions():
    with pytest.raises(ValueError, match="co-infinite"):
        split_verdict("zero", OMEGA, Progression(0, 2), 1000)


def test_one_verdict():
    almost_all = complement(PowersSet(2))
    v = split_verdict("one", almost_all, OMEGA, 10 ** 5,
                      tolerance=Fraction(1, 100))
    assert v.holds_numerically


def test_fact_intersection_realized():
    # evens bisect omega, multiples of four bisect the evens; the
    # intersection quarters omega, exactly at multiples of four
    A, B = Progression(0, 2), Progression(0, 4)
    rep = density_report(intersect(A, B), OMEGA, 10 ** 6, stride=10 ** 4)
    assert all(r == Fraction(1, 4) for cp, r in zip(rep.checkpoints, rep.ratios)
               if cp % 4 == 0)
    assert rep.max_tail_deviation is None
    rep_t = density_report(intersect(A, B), OMEGA, 10 ** 6, stride=10 ** 4,
                           target=Fraction(1, 4))
    assert rep_t.max_tail_deviation <= Fraction(1, 1000)


def test_fact_union_realized():
    A, B = Progression(0, 2), Progression(1, 4)
    rep = density_report(union(A, B), OMEGA, 10 ** 6, stride=10 ** 4,
                         target=Fraction(3, 4))
    assert all(r == Fraction(3, 4) for cp, r in zip(rep.checkpoints, rep.ratios)
               if cp % 4 == 0)
    assert rep.max_tail_deviation <= Fraction(1, 1000)


def test_build_checkpoints():
    cps = build_checkpoints(1000, stride=300)
    assert cps == [300, 600, 900, 1000]
    geo = build_checkpoints(100, geometric=True)
    assert geo == [1, 2, 4, 8, 16, 32, 64, 100]


@pytest.mark.parametrize("stride", [0, -5])
def test_build_checkpoints_refuses_a_stride_below_one(stride):
    for geometric in (False, True):
        with pytest.raises(ValueError, match="stride must be at least 1"):
            build_checkpoints(1000, stride, geometric)


@st.composite
def _count_rows(draw):
    cps = sorted(draw(st.sets(st.integers(1, 10 ** 6), min_size=1, max_size=12)))
    dens = [draw(st.integers(0, 10 ** 6)) for _ in cps]
    dens[-1] = max(dens[-1], 10)
    nums = [draw(st.integers(0, d)) for d in dens]
    target = draw(st.none() | st.builds(Fraction, st.integers(0, 40),
                                        st.integers(1, 40)))
    return cps, nums, dens, Fraction(draw(st.integers(1, 15)), 16), target


@settings(max_examples=300)
@given(_count_rows())
def test_tail_statistics_are_the_fraction_extremes(case):
    cps, nums, dens, window, target = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "build_checkpoints", lambda h, stride, geo: cps)
        mp.setattr(density, "_pair_counts", lambda S, X, c: (nums, dens))
        rep = density_report(OMEGA, OMEGA, cps[-1], tail_window=window,
                             target=target)
    rows = [(cp, Fraction(n, d)) for cp, n, d in zip(cps, nums, dens) if d > 0]
    tail_from = -((-window.numerator * cps[-1]) // window.denominator)
    tail = [r for cp, r in rows if cp >= tail_from]
    assert rep.tail_from == tail_from
    assert rep.ratios == tuple(r for _, r in rows)
    assert rep.upper_est == max(tail)
    assert rep.lower_est == min(tail)
    if target is None:
        assert rep.max_tail_deviation is None
    else:
        assert rep.max_tail_deviation == max(abs(r - target) for r in tail)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(50, 2000),
       st.sampled_from([0.3, 0.5, 0.6]), st.integers(1, 300),
       st.builds(Fraction, st.integers(1, 19), st.just(40)) | st.integers(0, 50))
def test_eps_band_verdict_is_the_per_row_band(seed, horizon, p, stride, eps):
    # the verdict reads the two tail extremes; the definition is every
    # tail row strictly inside the band, recounted here from the bits
    rng = np.random.default_rng(seed)
    s_bits = rng.random(horizon) < p
    x_bits = rng.random(horizon) < 0.8
    x_bits[-10:] = True  # at least 10 points of X below the horizon
    num, den = np.cumsum(s_bits & x_bits), np.cumsum(x_bits)
    rows = [(cp, Fraction(int(num[cp - 1]), int(den[cp - 1])))
            for cp in build_checkpoints(horizon, stride) if den[cp - 1] > 0]
    tail = [r for cp, r in rows if 2 * cp >= horizon] or [rows[-1][1]]
    if isinstance(eps, int):
        # a band edge on a tail row, where strictness decides
        eps = abs(tail[eps % len(tail)] - HALF)
        assume(0 < eps < HALF)
    S = ExplicitSet(s_bits, tail=(True, False))
    X = ExplicitSet(x_bits, tail=(True,))
    v = split_verdict("eps_band", S, X, horizon, eps=eps, stride=stride)
    assert v.holds_numerically == all(HALF - eps < r < HALF + eps for r in tail)
