from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rhosplit import (
    OMEGA,
    BernoulliSet,
    CombineNode,
    ExactCountError,
    ExplicitSet,
    IntervalSymbolicSet,
    PowersSet,
    Progression,
    build_partition,
)
from rhosplit.partitions import growth_violation

from conftest import brute_count


def smallest_compliant_sizes(count):
    """Independent oracle: scan for the least size satisfying the strict
    growth inequality at each step (keep count small, the scan is linear)."""
    sizes, prefix = [], 0
    for n in range(count):
        s = 2 if n == 0 else 1
        while n > 0 and s <= (2 ** n) * prefix:
            s += 1
        sizes.append(s)
        prefix += s
    return sizes


def test_minimal_sizes_match_oracle():
    P = build_partition("minimal", 5)
    assert [P.size(n) for n in range(5)] == smallest_compliant_sizes(5)
    assert [P.size(n) for n in range(3)] == [2, 5, 29]


def test_minimal_sizes_are_minimal_at_depth():
    # independent minimality predicate: the size satisfies the strict
    # inequality and the next smaller size does not
    P = build_partition("minimal", 12)
    for n in range(1, 12):
        prefix = P.boundary(n)
        assert P.size(n) > (2 ** n) * prefix
        assert P.size(n) - 1 <= (2 ** n) * prefix


def test_minimal_even_sizes():
    P = build_partition("minimal", 3, even_sizes=True)
    assert [P.size(n) for n in range(3)] == [2, 6, 34]
    assert P.verify_growth() is None


def test_single_interval_floor():
    P = build_partition("minimal", 1)
    assert P.size(0) == 2
    assert P.boundaries(1) == [0, 2]


def test_factor_mode_dominates_minimal():
    Pm = build_partition("minimal", 6)
    Pf = build_partition(Fraction(3, 2), 6)
    for n in range(6):
        assert Pf.size(n) >= Pm.size(n)
    assert Pf.verify_growth() is None
    # the "factor:p/q" string form
    Pf2 = build_partition("factor:3/2", 6)
    assert [Pf2.size(n) for n in range(6)] == [Pf.size(n) for n in range(6)]


def test_interval_of_examples():
    P = build_partition("minimal", 4)
    assert P.interval_of(0) == 0
    assert P.interval_of(6) == 1   # I_1 = [2, 7)
    assert P.interval_of(7) == 2   # I_2 = [7, 36)
    # inverse of boundary lookup
    for x in (0, 1, 5, 7, 35, 36, 300):
        n = P.interval_of(x)
        assert P.boundary(n) <= x < P.boundary(n + 1)


def test_interval_of_extends_lazily():
    P = build_partition("minimal", 2)
    n = P.interval_of(10 ** 12)
    assert P.boundary(n) <= 10 ** 12 < P.boundary(n + 1)


def test_verify_growth_violations():
    assert growth_violation([0, 2, 6]) == 1
    assert growth_violation([0, 1]) == 0
    assert growth_violation([0, 2, 7, 36]) is None
    assert growth_violation([0, 2, 7, 36], even_sizes=True) == 1


@settings(max_examples=60, deadline=None)
@given(st.just("minimal") | st.fractions(min_value=1, max_value=4,
                                         max_denominator=1000),
       st.integers(1, 20), st.booleans())
def test_built_partitions_obey_the_growth_law(factor, count, even_sizes):
    # no partition is handed in, so none needs a growth re-check
    P = build_partition(factor, count, even_sizes)
    assert growth_violation(P.boundaries(count), even_sizes) is None


def test_growth_ratio_strictly_below_power():
    P = build_partition("minimal", 16)
    for n in range(1, 16):
        assert P.growth_ratio(n) < Fraction(1, 2 ** n)


def test_boundaries_grow_superexponentially():
    P = build_partition("minimal", 16)
    assert P.boundary(16) > 2 ** 100  # needs arbitrary precision


def test_subset_cardinalities_and_membership():
    P = build_partition("minimal", 6)
    k = 3  # I_3 = [36, 325), size 289
    lo, hi = P.boundary(3), P.boundary(4)
    full, empty = P.full(k), P.empty(k)
    first = P.first(k, 10)
    last = P.last(k, 10)
    evens = Progression(0, 2)
    trace = P.trace(k, evens)
    cot = P.cotrace(k, evens)
    expl = P.explicit(k, [36, 40, 41])

    assert full.count == hi - lo
    assert first.count == last.count == 10
    assert trace.count == brute_count(lambda x: x % 2 == 0 and lo <= x < hi, hi)
    assert trace.count + cot.count == full.count
    assert expl.count == 3

    for sub in (full, empty, first, last, trace, cot, expl):
        assert sub.count == brute_count(sub.membership, hi)
        # select enumerates exactly the members
        assert [sub.select(j) for j in range(sub.count)] == [
            x for x in range(lo, hi) if sub.membership(x)
        ][: sub.count]


def test_subset_count_strictly_below():
    P = build_partition("minimal", 6)
    k = 3
    lo, hi = P.boundary(3), P.boundary(4)
    evens = Progression(0, 2)
    subs = [P.first(k, 7), P.last(k, 7), P.trace(k, evens),
            P.cotrace(k, evens), P.full(k), P.explicit(k, [40, 50])]
    for sub in subs:
        for x in (lo, lo + 1, lo + 50, (lo + hi) // 2, hi - 1, hi):
            assert sub.count_strictly_below(x) == brute_count(
                sub.membership, x
            )


def test_subset_bounds_validation():
    P = build_partition("minimal", 3)
    with pytest.raises(ValueError):
        P.first(1, 99)
    with pytest.raises(ValueError):
        P.explicit(1, [100])


def test_trace_of_bernoulli_beyond_cap_is_refused():
    P = build_partition("minimal", 16)
    bern = BernoulliSet(Fraction(1, 2), 3)
    with pytest.raises(ExactCountError):
        P.trace(8, bern)  # I_8 ends beyond 2^27


def test_intersect_subset_counts_against_brute_force():
    P = build_partition("minimal", 5)
    k = 3
    evens, m3, p2 = Progression(0, 2), Progression(0, 3), PowersSet(2)
    subs = {
        "full": P.full(k),
        "first": P.first(k, 100),
        "last": P.last(k, 120),
        "trace-e": P.trace(k, evens),
        "cot-e": P.cotrace(k, evens),
        "trace-3": P.trace(k, m3),
        "cot-3": P.cotrace(k, m3),
        # I_3 = [36, 325) holds 64, 128 and 256: a base with no period
        "trace-p2": P.trace(k, p2),
        "cot-p2": P.cotrace(k, p2),
        "expl": P.explicit(k, range(40, 60)),
        "empty": P.empty(k),
    }
    hi = P.boundary(k + 1)
    for na, a in subs.items():
        for nb, b in subs.items():
            expected = brute_count(
                lambda x: a.membership(x) and b.membership(x), hi
            )
            assert a.intersect_subset_count(b) == expected, (na, nb)


def test_intersect_set_count_against_brute_force():
    P = build_partition("minimal", 5)
    k = 3
    evens, m3 = Progression(0, 2), Progression(0, 3)
    hi = P.boundary(k + 1)
    for sub in (P.full(k), P.first(k, 33), P.last(k, 17), P.trace(k, evens),
                P.cotrace(k, evens), P.explicit(k, range(44, 77, 3))):
        expected = brute_count(
            lambda x: sub.membership(x) and x % 3 == 0, hi
        )
        assert sub.intersect_set_count(m3) == expected
    # identity shortcuts
    tr = P.trace(k, evens)
    assert tr.intersect_set_count(evens) == tr.count
    assert P.cotrace(k, evens).intersect_set_count(evens) == 0


def test_complement_subset_involution():
    P = build_partition("minimal", 5)
    k = 2
    for sub in (P.full(k), P.first(k, 5), P.last(k, 9),
                P.trace(k, Progression(0, 2)), P.explicit(k, [7, 8])):
        comp = sub.complement()
        assert comp.count == P.size(k) - sub.count
        assert comp.complement().count == sub.count
        for x in range(P.boundary(k), P.boundary(k + 1)):
            assert comp.membership(x) == (not sub.membership(x))


def test_symbolic_set_counting_and_membership():
    P = build_partition("minimal", 8)
    s = IntervalSymbolicSet(
        P,
        {0: P.full(0), 1: P.first(1, 2), 2: P.empty(2)},
        default="singleton",
    )
    b4 = P.boundary(4)
    arr = s.materialize(b4)
    for n in (0, 1, 2, 5, 7, 36, 100, b4):
        assert s.count_below(n) == int(arr[:n].sum())
    assert [s.kth_element(i) for i in range(5)] == [0, 1, 2, 3, 36]
    assert not s.provably_finite


def test_symbolic_counts_beyond_cap():
    P = build_partition("minimal", 16)
    s = IntervalSymbolicSet(
        P, {k: P.first(k, (P.size(k) + 1) // 2) for k in range(12)},
        default="singleton",
    )
    n = P.boundary(11)  # far beyond the explicit cap
    expected = sum(s.value_at(k).count for k in range(11))
    assert s.count_below(n) == expected


def test_symbolic_empty_default_is_finite_flagged():
    P = build_partition("minimal", 4)
    s = IntervalSymbolicSet(P, {}, default="empty")
    assert s.provably_finite
    assert s.size_if_finite() == 0
    # its tail pattern ends it, so a set built from it is finite too
    s = IntervalSymbolicSet(P, {2: P.first(2, 3)}, default="empty")
    both = CombineNode("inter", [s, OMEGA])
    assert both.provably_finite and both.size_if_finite() == 3


def test_subset_json_roundtrip():
    P = build_partition("minimal", 5)
    for sub in (P.full(2), P.first(3, 5), P.trace(2, Progression(0, 2)),
                P.explicit(1, [3, 4])):
        again = P.subset_from_json(sub.to_json())
        assert again.to_json() == sub.to_json()
        assert again.count == sub.count


_PREDICATES = {
    "p13": lambda x: x % 3 == 1,
    "pow2": lambda x: x > 0 and x & (x - 1) == 0,
    "even": lambda x: x % 2 == 0,
}


def _closed_count(a, b, preds):
    """|{x in [a, b) : every named predicate holds}| in closed form: the
    powers of two in [a, b) are listed by exponent, and otherwise the
    residues mod 6 decide."""
    if b <= a:
        return 0
    if "pow2" in preds:
        powers = [1 << e for e in range(b.bit_length()) if a <= 1 << e < b]
        return sum(1 for x in powers if all(_PREDICATES[p](x) for p in preds))
    residues = [r for r in range(6) if all(_PREDICATES[p](r) for p in preds)]
    # members of r + 6Z in [a, b): ceil((b - r) / 6) - ceil((a - r) / 6)
    return sum((r - a) // 6 - (r - b) // 6 for r in residues)


def _model_count(models, lo=0, hi=None, extra=()):
    """|the intersection of the modelled subsets ∩ [lo, hi)|, where a model
    (a, b, pred, minus) is [a, b) cut to pred (or to its complement when
    minus is set; pred None keeps all of [a, b)), by inclusion-exclusion
    over the complemented predicates."""
    a = max([lo] + [m[0] for m in models])
    b = min([m[1] for m in models] + ([] if hi is None else [hi]))
    pos = [m[2] for m in models if m[2] and not m[3]] + list(extra)
    neg = [m[2] for m in models if m[2] and m[3]]
    return sum((-1) ** r * _closed_count(a, b, set(pos) | set(t))
               for r in range(len(neg) + 1) for t in combinations(neg, r))


@pytest.mark.parametrize("k", [9, 12])
def test_subsets_beyond_the_cap_match_closed_forms(minimal16, k):
    # intervals 9 and 12 start near 2^38 and 2^68, far beyond the 2^27
    # explicit cap: every count below is exact or the test fails
    P = minimal16
    lo, hi = P.boundary(k), P.boundary(k + 1)
    assert lo > 1 << 27
    p13, p2 = Progression(1, 3), PowersSet(2)
    subs = {
        "full": (P.full(k), (lo, hi, None, False)),
        "empty": (P.empty(k), (lo, lo, None, False)),
        "first": (P.first(k, 5), (lo, lo + 5, None, False)),
        "last": (P.last(k, 7), (hi - 7, hi, None, False)),
        "trace-p13": (P.trace(k, p13), (lo, hi, "p13", False)),
        "cot-p13": (P.cotrace(k, p13), (lo, hi, "p13", True)),
        "trace-p2": (P.trace(k, p2), (lo, hi, "pow2", False)),
        "cot-p2": (P.cotrace(k, p2), (lo, hi, "pow2", True)),
    }
    first5 = subs["first"]
    for name, (sub, model) in subs.items():
        assert sub.count == _model_count([model]), name
        for x in (lo, (lo + hi) // 2, hi):
            assert sub.count_strictly_below(x) == _model_count([model], hi=x), (name, x)
        for j in sorted({0, 1, sub.count // 2, sub.count - 1}):
            if 0 <= j < sub.count:
                x = sub.select(j)
                assert sub.membership(x), (name, j)
                assert sub.count_strictly_below(x) == j, (name, j)
                assert sub.count_strictly_below(x + 1) == j + 1, (name, j)
        assert sub.intersect_set_count(Progression(0, 2)) == _model_count(
            [model], extra=["even"]), name
        assert sub.intersect_subset_count(first5[0]) == _model_count(
            [model, first5[1]]), name
        for other_name, (other, other_model) in subs.items():
            assert sub.intersect_subset_count(other) == _model_count(
                [model, other_model]), (name, other_name)


def test_symbolic_enumeration_stops_at_the_bound():
    # the subset of interval 11 holds about 2^68 points; only the three
    # below n are selected
    P = build_partition("minimal", 12)
    lo = P.boundary(11)
    s = IntervalSymbolicSet(P, {11: P.first(11, P.size(11) // 2)},
                            default="singleton")
    expected = [P.boundary(j) for j in range(11)] + [lo, lo + 1, lo + 2]
    assert s.enumerate_below(lo + 3, 100) == expected


@pytest.mark.parametrize("default", ["singleton", "empty", "full", "trace"])
def test_symbolic_materialize_agrees_with_contains_and_counts(default):
    # boundaries 0, 2, 7, 36, 325, 5526: intervals 0-4 carry a value of
    # each kind, and interval 5, which holds the horizon, the default
    P = build_partition("minimal", 6)
    values = {
        0: P.explicit(0, [1]),
        1: P.first(1, 2),
        2: P.last(2, 7),
        3: P.trace(3, BernoulliSet(Fraction(1, 3), 4)),
        4: P.explicit(4, [325, 400, 4000, 5525]),
    }
    base = BernoulliSet(Fraction(1, 2), 9) if default == "trace" else None
    s = IntervalSymbolicSet(P, values, default=default, default_base=base)
    n = 6000
    bits = s.materialize(n).tolist()
    assert [s.contains(k) for k in range(n)] == bits
    counts = s.counts_at(list(range(n + 1)))
    assert [b - a for a, b in zip(counts, counts[1:])] == bits
    # the defaulted interval, from its start up to the horizon
    start = P.boundary(5)
    member = {"singleton": lambda k: k == start, "empty": lambda k: False,
              "full": lambda k: True, "trace": lambda k: base.contains(k)}[default]
    assert bits[start:] == [member(k) for k in range(start, n)]


_MINIMAL_BOUNDS = (0, 2, 7, 36, 325)


@st.composite
def explicit_subsets(draw):
    """An interval k of a minimal partition (I_3 = [36, 325)) and a subset
    of it, as the sorted list of its elements."""
    k = draw(st.integers(0, 3))
    lo, hi = _MINIMAL_BOUNDS[k], _MINIMAL_BOUNDS[k + 1]
    return k, sorted(draw(st.sets(st.integers(lo, hi - 1), max_size=hi - lo)))


@settings(max_examples=60, deadline=None)
@given(explicit_subsets(), explicit_subsets(), st.integers(1, 40))
def test_explicit_subsets_match_brute_force(drawn, other_drawn, s):
    # every query of an explicit subset against a brute-force scan of its
    # interval, reading the elements, not the library
    P = build_partition("minimal", 5)
    k, elems = drawn
    lo, hi = P.boundary(k), P.boundary(k + 1)
    members = set(elems)
    sub = P.explicit(k, elems)
    assert sub.count == len(elems)
    for x in range(lo - 1, hi + 2):
        assert sub.membership(x) == (x in members)
        assert sub.count_strictly_below(x) == sum(1 for e in elems if e < x)
    assert [sub.select(j) for j in range(sub.count)] == elems
    for S in (Progression(1, 3), PowersSet(2), BernoulliSet(Fraction(1, 2), 7)):
        assert sub.intersect_set_count(S) == sum(1 for e in elems if S.contains(e))
    evens = Progression(0, 2)
    others = [P.first(k, min(s, P.size(k))), P.trace(k, evens), P.cotrace(k, evens)]
    if other_drawn[0] == k:
        others.append(P.explicit(k, other_drawn[1]))
    for other in others:
        inside = [x for x in range(lo, hi) if other.membership(x)]
        expected = len(members.intersection(inside))
        assert sub.intersect_subset_count(other) == expected, other.kind
        assert other.intersect_subset_count(sub) == expected, other.kind
    comp = sub.complement()
    assert comp.kind == "explicit"
    assert list(comp.elements) == [x for x in range(lo, hi) if x not in members]
    for form in (sub, comp):
        again = P.subset_from_json(form.to_json())
        assert again.to_json() == form.to_json()
        assert [x for x in range(lo, hi) if again.membership(x)] == list(form.elements)
    # an interval-symbolic set with the subset as its value materialises it
    bits = IntervalSymbolicSet(P, {k: sub}, default="empty").materialize(hi)
    assert np.flatnonzero(bits[lo:hi]).tolist() == [e - lo for e in elems]


def test_explicit_select_reads_the_elements(monkeypatch):
    # selecting from an explicit subset indexes its sorted elements: no
    # count over its element set and no search for a k-th member there
    P = build_partition("minimal", 6)
    sub = P.explicit(5, range(5526, 182359, 175))  # I_5 = [5526, 182359)
    M = sub.span[2]
    calls = []
    for name in ("counts_at", "kth_element"):
        def spy(self, *args, _orig=getattr(ExplicitSet, name), _name=name):
            if self is M:
                calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(ExplicitSet, name, spy)
    assert tuple(sub.select(j) for j in range(sub.count)) == sub.elements
    assert calls == []
