import os
import subprocess
import sys
import threading
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from rhosplit import (
    OMEGA,
    BernoulliSet,
    CombineNode,
    ExplicitSet,
    FiniteSetError,
    HorizonOverflowError,
    IntervalSymbolicSet,
    PowersSet,
    Progression,
    SequenceSet,
    StrideSelection,
    build_partition,
    complement,
    difference,
    intersect,
    parse_set,
    union,
)
from rhosplit import omega_sets
from rhosplit._util import MASK64, MIX_M1
from rhosplit.omega_sets import TailPattern, agree_below, parse_family, require_infinite

from conftest import brute_count


progressions = st.builds(
    Progression, st.integers(0, 40), st.integers(1, 12)
)


def small_sets():
    explicit = st.builds(
        lambda bits, tail: ExplicitSet(np.array(bits, dtype=bool), tuple(tail)),
        st.lists(st.booleans(), min_size=0, max_size=24),
        st.lists(st.booleans(), min_size=1, max_size=5),
    )
    return st.one_of(progressions, explicit)


def combos():
    base = small_sets()
    unary = st.builds(lambda a: complement(a), base)
    binary = st.builds(
        lambda op, a, b: CombineNode(op, [a, b]),
        st.sampled_from(["inter", "union", "diff"]),
        base,
        base,
    )
    return st.one_of(base, unary, binary)


def bits_range(s, lo, hi):
    """Membership bits of [lo, hi) from one ``_fill`` of the set."""
    out = np.empty(hi - lo, dtype=bool)
    s._fill(lo, out)
    return out


def test_materialize_progressions():
    evens = Progression(0, 2)
    assert np.flatnonzero(evens.materialize(10)).tolist() == [0, 2, 4, 6, 8]
    assert np.flatnonzero(complement(evens).materialize(10)).tolist() == [1, 3, 5, 7, 9]


def test_materialize_is_idempotent_and_deterministic():
    s = parse_set("inter(prog(0,2),bern(1/2,5))")
    a, b = s.materialize(5000), s.materialize(5000)
    fresh = parse_set("inter(prog(0,2),bern(1/2,5))").materialize(5000)
    assert np.array_equal(a, b) and np.array_equal(a, fresh)


def test_bernoulli_count_chernoff_band_and_regression():
    s = BernoulliSet(Fraction(1, 2), 7)
    c = s.count_below(10 ** 6)
    assert 490_000 <= c <= 510_000  # Chernoff band, 20 sigma
    assert c == 499_780  # frozen regression value of the seeded stream


def test_bernoulli_first_element_regression():
    s = BernoulliSet(Fraction(1, 2), 7)
    assert s.kth_element(0) == 0  # frozen from the seeded generator
    assert s.contains(0)


def test_bernoulli_scalar_vector_agree():
    s = BernoulliSet(Fraction(1, 3), 99)
    arr = s.materialize(4096)
    scalar = np.array([s.contains(k) for k in range(4096)])
    assert np.array_equal(arr, scalar)


def test_bernoulli_two_instances_agree_bit_for_bit():
    a = BernoulliSet(Fraction(3, 10), 1234)
    b = BernoulliSet(Fraction(3, 10), 1234)
    assert np.array_equal(a.materialize(20000), b.materialize(20000))


def test_count_below_examples():
    evens = Progression(0, 2)
    assert evens.count_below(10) == 5
    m3 = Progression(0, 3)
    joint = intersect(evens, m3)
    assert joint.count_below(36) == brute_count(
        lambda k: k % 6 == 0, 36
    ) == 6
    assert joint.count_below(0) == 0


def test_combinations_pointwise_and_flags():
    evens, odds = Progression(0, 2), Progression(1, 2)
    empty = intersect(evens, odds)
    assert empty.provably_finite
    assert np.array_equal(union(evens, odds).materialize(100),
                          OMEGA.materialize(100))
    assert np.array_equal(difference(OMEGA, evens).materialize(100),
                          odds.materialize(100))
    with pytest.raises(FiniteSetError):
        require_infinite(empty)


def test_combine_arity_checks():
    with pytest.raises(ValueError):
        CombineNode("compl", [OMEGA, OMEGA])
    with pytest.raises(ValueError):
        CombineNode("inter", [OMEGA])


def test_kth_element_examples():
    assert Progression(0, 2).kth_element(3) == 6
    assert PowersSet(2).kth_element(5) == 32
    finite = ExplicitSet(np.array([1, 0, 1], dtype=bool), tail=(False,))
    assert finite.kth_element(1) == 2
    with pytest.raises(IndexError):
        finite.kth_element(2)


def test_horizon_overflow():
    s = BernoulliSet(Fraction(1, 2), 3)
    with pytest.raises(HorizonOverflowError):
        s.materialize((1 << 27) + 1)
    with pytest.raises(HorizonOverflowError):
        s.count_below((1 << 27) + 1)
    # progressions count fine at any magnitude
    assert Progression(0, 2).count_below(10 ** 40) == 5 * 10 ** 39


@given(combos(), st.integers(0, 200), st.integers(0, 200))
def test_count_monotone_lipschitz(s, n, m):
    lo, hi = min(n, m), max(n, m)
    assert s.count_below(lo) <= s.count_below(hi) <= s.count_below(lo) + hi - lo


@given(small_sets(), small_sets(), st.integers(1, 300))
def test_de_morgan(a, b, n):
    lhs = complement(union(a, b)).materialize(n)
    rhs = intersect(complement(a), complement(b)).materialize(n)
    assert np.array_equal(lhs, rhs)


@given(progressions, st.integers(0, 500))
def test_next_element_at_or_beyond_prefix(s, n):
    assert s.kth_element(s.count_below(n)) >= n


@given(combos(), st.integers(1, 256))
def test_count_matches_materialization(s, n):
    assert s.count_below(n) == int(s.materialize(n).sum())


# Recipes rather than sets, so that every counting path below gets a fresh
# tree with empty materialisation caches.
_leaf_recipes = st.one_of(
    st.tuples(st.just("prog"), st.integers(0, 60), st.integers(1, 9)),
    st.tuples(st.just("bern"), st.sampled_from(["1/3", "1/2", "3/4"]),
              st.integers(0, 99)),
    st.tuples(st.just("pow"), st.integers(2, 5)),
    st.tuples(st.just("explicit"), st.lists(st.booleans(), max_size=80),
              st.lists(st.booleans(), min_size=1, max_size=5)),
)
_recipes = st.recursive(_leaf_recipes, lambda inner: st.one_of(
    st.tuples(st.just("compl"), inner),
    st.tuples(st.sampled_from(["inter", "union", "diff"]), inner, inner),
    st.tuples(st.just("every"), inner, st.integers(1, 4), st.integers(0, 3)),
), max_leaves=4)


def _build(recipe):
    kind = recipe[0]
    if kind == "prog":
        return Progression(recipe[1], recipe[2])
    if kind == "bern":
        return BernoulliSet(Fraction(recipe[1]), recipe[2])
    if kind == "pow":
        return PowersSet(recipe[1])
    if kind == "explicit":
        return ExplicitSet(np.array(recipe[1], dtype=bool), tuple(recipe[2]))
    if kind == "compl":
        return CombineNode("compl", [_build(recipe[1])])
    if kind == "every":
        _, src, stride, offset = recipe
        return StrideSelection(_build(src), stride, offset % stride)
    return CombineNode(kind, [_build(recipe[1]), _build(recipe[2])])


@settings(max_examples=150, deadline=None)
@given(_recipes, st.lists(st.integers(0, 400), min_size=1, max_size=8),
       st.sampled_from([1, 7, 64]), st.integers(1, 400))
def test_counts_at_agrees_with_every_other_count(recipe, checkpoints, chunk, cap):
    checkpoints = sorted(checkpoints)
    horizon = checkpoints[-1]
    members = [k for k in range(horizon) if _build(recipe).contains(k)]
    expected = [bisect_left(members, n) for n in checkpoints]
    with pytest.MonkeyPatch.context() as mp:
        # small chunks put Bernoulli fill seams inside the horizon
        mp.setattr(omega_sets, "_CHUNK", chunk)
        s = _build(recipe)
        assert s.counts_at(checkpoints) == expected
        assert [s.count_below(n) for n in checkpoints] == expected
        bits = _build(recipe).materialize(horizon)
        assert [int(bits[:n].sum()) for n in checkpoints] == expected
        elems = _build(recipe).enumerate_below(horizon, 1 << 18)
        assert elems is None or elems == members

        # below the horizon the cap forces sparse enumeration; closed
        # forms never depend on it
        mp.setenv("RHOSPLIT_HORIZON_CAP", str(cap))
        s = _build(recipe)
        try:
            assert s.counts_at(checkpoints) == expected
        except HorizonOverflowError:
            assert horizon > cap and s.tail_pattern() is None


@settings(max_examples=100, deadline=None)
@given(_recipes, st.lists(st.integers(0, 400), min_size=1, max_size=8))
def test_released_words_are_rebuilt_identically(recipe, checkpoints):
    checkpoints = sorted(checkpoints)
    n = checkpoints[-1]
    s = _build(recipe)
    words = s.packed(n).copy()
    counts = s.counts_at(checkpoints)
    s.release_words()
    assert s._mat is None and s._built == 0
    assert np.array_equal(s.packed(n), words)
    s.release_words()
    assert s.counts_at(checkpoints) == counts


# Trees whose along() never gives up, so that the grid tests below see
# many grids and few Nones.
_grid_recipes = st.recursive(st.one_of(
    st.tuples(st.just("prog"), st.integers(0, 60), st.integers(1, 9)),
    st.tuples(st.just("bern"), st.sampled_from(["1/3", "1/2", "3/4"]),
              st.integers(0, 99)),
), lambda inner: st.one_of(
    st.tuples(st.just("compl"), inner),
    st.tuples(st.sampled_from(["inter", "union", "diff"]), inner, inner),
), max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_recipes, _grid_recipes), st.integers(0, 40), st.integers(1, 9),
       st.integers(0, 40), st.integers(1, 9), st.sampled_from([1, 7, 64]),
       st.integers(1, 300))
def test_along_is_the_set_on_the_progression_grid(recipe, a, d, a2, d2, chunk, h):
    ref = _build(recipe)
    expected = [j for j in range(h) if ref.contains(a + d * j)]
    with pytest.MonkeyPatch.context() as mp:
        # small chunks put strided Bernoulli fill seams inside the range
        mp.setattr(omega_sets, "_CHUNK", chunk)
        g = _build(recipe).along(a, d)
        if g is None:
            return
        assert [j for j in range(h) if g.contains(j)] == expected
        assert np.flatnonzero(g.materialize(h)).tolist() == expected
        cps = [0, h // 3, h]
        fresh = _build(recipe).along(a, d)
        assert fresh.counts_at(cps) == [bisect_left(expected, n) for n in cps]
        # along of along composes the index maps
        gg = _build(recipe).along(a, d).along(a2, d2)
        assert gg is None or np.flatnonzero(gg.materialize(h)).tolist() == [
            j for j in range(h) if ref.contains(a + d * (a2 + d2 * j))]


def test_along_of_a_progression_is_a_closed_form():
    for pa in range(13):
        for pd in range(1, 7):
            p = Progression(pa, pd)
            for a in range(13):
                for d in range(1, 7):
                    g = p.along(a, d)
                    members = [j for j in range(40) if p.contains(a + d * j)]
                    assert [j for j in range(40) if g.contains(j)] == members
                    assert g.count_below(40) == len(members)
                    assert g.provably_finite == (not members)
    assert Progression(5, 3).along(0, 2).descriptor() == "prog(4,3)"
    # no even index is odd: the empty finite set
    empty = Progression(1, 2).along(0, 4)
    assert empty.size_if_finite() == 0
    assert intersect(BernoulliSet(Fraction(1, 2), 3), Progression(1, 2)).along(0, 4) \
        .count_below(10 ** 9) == 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(_recipes, _grid_recipes), st.integers(0, 40), st.integers(1, 9),
       st.lists(st.integers(0, 400), min_size=1, max_size=6),
       st.sampled_from([1, 7, 64]), st.booleans())
def test_grid_count_agrees_with_the_packed_count(recipe, a, d, checkpoints, chunk, first):
    checkpoints = sorted(checkpoints)
    horizon = checkpoints[-1]
    ref = _build(recipe)
    members = [k for k in range(horizon) if ref.contains(k) and k >= a and (k - a) % d == 0]
    expected = [bisect_left(members, n) for n in checkpoints]

    def node(t):
        x = Progression(a, d)
        return intersect(x, t) if first else intersect(t, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omega_sets, "_CHUNK", chunk)
        # T fresh: the grid, wherever T has an along form
        t = _build(recipe)
        grid = node(t)
        assert grid.counts_at(checkpoints) == expected
        if t.along(a, d) is not None and grid.tail_pattern() is None:
            assert grid._g is not None
        # T packed to the horizon: the packed words (the grid of omega
        # is T itself, so it is taken whatever T holds)
        t = _build(recipe)
        t.packed(horizon)
        words = node(t)
        assert words.counts_at(checkpoints) == expected
        assert words._g is None or d == 1 and a == 0


def test_grid_beyond_the_cap_falls_back_to_sparse_enumeration():
    s = BernoulliSet(Fraction(1, 2), 6)
    members = [k for k in range(0, 300, 2) if s.contains(k)]
    with pytest.MonkeyPatch.context() as mp:
        # the grid needs 150 bits; the progression enumerates its 150
        # members and the intersection filters them
        mp.setenv("RHOSPLIT_HORIZON_CAP", "100")
        node = intersect(BernoulliSet(Fraction(1, 2), 6), Progression(0, 2))
        assert node.counts_at([120, 300]) == [bisect_left(members, 120), len(members)]


def test_bit_vector_count_memory_is_bounded_by_the_chunk():
    s = parse_set("inter(prog(5,3),bern(1/3,9))")
    tracemalloc.start()
    try:
        counts = s.counts_at([2 ** 23, 2 ** 24])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the cached bit vectors stay held; only what the count built and
    # freed again is bounded by the chunk
    assert peak - held < 5 * 8 * omega_sets._CHUNK
    bits = s.materialize(2 ** 24)
    assert counts == [int(np.count_nonzero(bits[:n])) for n in (2 ** 23, 2 ** 24)]


def _fill_inputs():
    """One set of each leaf kind: a Bernoulli set, a progression, an
    explicit prefix with a periodic tail, powers of 3 (the base fill from
    ``enumerate_below``) and a symbolic set with every kind of value."""
    P = build_partition("minimal", 7)
    values = {1: P.first(1, 2), 2: P.last(2, 10), 3: P.trace(3, BernoulliSet(Fraction(1, 3), 5)),
              4: P.cotrace(4, Progression(1, 3)), 5: P.explicit(5, range(5526, 182359, 997))}
    prefix = [k % 3 == 0 or k % 7 == 2 for k in range(100)]
    return [BernoulliSet(Fraction(2, 5), 31), Progression(3, 7),
            ExplicitSet(prefix, (True, False, False, True, True)), PowersSet(3),
            IntervalSymbolicSet(P, values)]


@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_bernoulli_fill_seams_match_the_scalar_prf(chunk):
    # every leaf set's fill is held to the seams of the PRF's blocks
    for s in _fill_inputs():
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(omega_sets, "_CHUNK", chunk)
            c = omega_sets._CHUNK
            # ranges that start and end off the block grid and cross seams
            for lo, hi in [(0, 3 * c + 5), (max(0, c - 3), c + 4), (2 * c + 1, 4 * c - 1),
                           (5, 6), (9, 9), (max(0, 3 * c - 40), 3 * c + 33)]:
                bits = bits_range(s, lo, hi)
                assert bits.shape == (hi - lo,)
                assert bits.tolist() == [s.contains(k) for k in range(lo, hi)], s
            # a fill leaves the set's own words alone
            assert s._mat is None
            # the k-th member found block by block, around a seam
            below = s.count_below(2 * c)
            for k in range(max(0, below - 3), below + 3):
                e = s.kth_element(k)
                assert s.contains(e) and s.count_below(e) == k


def test_a_second_fill_makes_no_block_sized_temporaries():
    n = 200_000
    BernoulliSet(Fraction(1, 2), 5).packed(n)  # a first fill
    for p in (Fraction(3, 7), Fraction(5, 32)):  # the full and the dyadic compare
        s = BernoulliSet(p, 6)
        tracemalloc.start()
        try:
            level, _ = tracemalloc.get_traced_memory()
            words = s.packed(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the words, the bool block that is packed, and small change; one
        # uint64 buffer of a block alone is 8 * _CHUNK bytes
        assert peak - level < 8 * omega_sets._nwords(n) + omega_sets._CHUNK + 2 ** 14
        members = np.flatnonzero(omega_sets._unpack(words, n - 500, n)) + n - 500
        assert members.tolist() == [k for k in range(n - 500, n) if s.contains(k)]


def test_interleaved_fills_of_different_maps_match_the_scalar_prf():
    base = BernoulliSet(Fraction(1, 3), 17)
    # each stride d differs from the one before, so the ramp must follow
    for a, d in [(0, 1), (5, 3), (0, 1), (2, 7), (5, 3), (1, 2), (1, 2)]:
        g = base.along(a, d)
        assert bits_range(g, 900, 3100).tolist() == [g.contains(k) for k in range(900, 3100)]


def _first_rounds(n):
    """mix64's first round of the PRF indices below n, before the key."""
    r = np.arange(n, dtype=np.uint64) * np.uint64(MIX_M1)
    return r ^ (r >> np.uint64(30))


_densities = st.one_of(
    st.builds(lambda j, k: Fraction(k % (1 << j) | 1, 1 << j),
              st.integers(1, 40), st.integers(0, 1 << 40)),
    st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=10 ** 6))


@settings(max_examples=80, deadline=None)
@given(_densities, st.integers(0, MASK64), st.sampled_from(["(0,1)", "(k,1)", "(k,3)"]),
       st.integers(0, 90), st.sampled_from([1, 7, 64]), st.integers(0, 400),
       st.integers(0, 70), st.integers(0, 70))
def test_table_backed_fills_match_the_chunk_path_and_the_scalar_prf(
        p, seed, mapping, k, chunk, written, back, past):
    capacity = 256
    a, d = {"(0,1)": (0, 1), "(k,1)": (k, 1), "(k,3)": (k, 3)}[mapping]
    s = BernoulliSet(p, seed).along(a, d)
    # members whose PRF indices a + d*i run from below the written prefix
    # to past the capacity
    lo = max(0, (written - a) // d - back)
    hi = max(lo, (capacity - a) // d + past)
    tabled = omega_sets._BlockScratch(64, capacity)
    plain = omega_sets._BlockScratch(64, capacity)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(omega_sets, "_CHUNK", chunk)
        mp.setattr(omega_sets, "_SCRATCH", tabled)
        # extended twice, the second time from a written prefix
        omega_sets.tabulate_first_round(written // 2)
        omega_sets.tabulate_first_round(written)
        omega_sets.tabulate_first_round(written // 3)  # the prefix only grows
        got = bits_range(s, lo, hi)
        mp.setattr(omega_sets, "_SCRATCH", plain)
        chunked = bits_range(s, lo, hi)
    assert tabled.written == min(written, capacity) and plain.written == 0
    assert np.array_equal(tabled.table[:tabled.written], _first_rounds(tabled.written))
    assert got.tolist() == chunked.tolist() == [s.contains(i) for i in range(lo, hi)]


def test_fills_in_threads_match_the_scalar_prf():
    n = 200_000
    # more threads than cores, each with its own set and index map, and
    # one more that extends a fresh first-round table while they fill
    sets = [BernoulliSet(Fraction(1, 3), 21), BernoulliSet(Fraction(1, 2), 22).along(3, 5),
            BernoulliSet(Fraction(5, 32), 23).along(0, 2),
            BernoulliSet(Fraction(3, 7), 24).along(11, 1)]
    want = [bits_range(s, 0, n) for s in sets]
    for s, bits in zip(sets, want):
        assert bits[::97].tolist() == [s.contains(k) for k in range(0, n, 97)]
    scratch = omega_sets._BlockScratch(omega_sets._CHUNK, omega_sets._TABLE_CAPACITY)
    start, errors, rounds = threading.Barrier(len(sets) + 1), [], []

    def fill(s, bits):
        start.wait()
        for _ in range(20):
            if not np.array_equal(bits_range(s, 0, n), bits):
                errors.append(s)
            rounds.append(s)

    def extend():
        start.wait()
        for k in range(1, 41):
            omega_sets.tabulate_first_round(n * k // 40 + 5)

    threads = [threading.Thread(target=fill, args=pair) for pair in zip(sets, want)]
    threads.append(threading.Thread(target=extend))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(omega_sets, "_SCRATCH", scratch)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(rounds) == 20 * len(sets) and not errors
    assert scratch.written == n + 5
    assert np.array_equal(scratch.table[:n + 5], _first_rounds(n + 5))


def _dyadic_thresholds(j):
    # odd k, so that k * 2^(64 - j) has exactly 64 - j low zero bits
    ks = {1, (1 << j) - 1, (1 << (j - 1)) | 1, 0x5BD1E995 % (1 << j) | 1}
    return [k << (64 - j) for k in sorted(ks)]


_SHORTCUT_THRESHOLDS = [t for j in (1, 5, 31) for t in _dyadic_thresholds(j)]
_FULL_THRESHOLDS = [t for j in (32, 33, 40) for t in _dyadic_thresholds(j)] + [
    -(-(1 << 64) // 3), MASK64]


@pytest.mark.parametrize("thr", _SHORTCUT_THRESHOLDS + _FULL_THRESHOLDS)
def test_below_compares_as_after_the_last_mix_step(thr):
    rng = np.random.default_rng(thr % (1 << 32))
    states = [v for v in (thr - 1, thr, thr + 1, 0, MASK64) if v <= MASK64]
    # states whose top 31 bits tie with thr's, with random low bits
    states += [thr >> 33 << 33 | int(r) for r in rng.integers(0, 1 << 33, 300)]
    x = np.array(states, dtype=np.uint64)
    out = np.empty(x.shape, dtype=bool)
    omega_sets._below(x, thr, np.empty_like(x), out)
    assert out.tolist() == [v ^ v >> 31 < thr for v in states]
    # the last step is skipped exactly for the shortcut thresholds
    assert (x.tolist() == states) == (thr in _SHORTCUT_THRESHOLDS)


_WORD_EDGES = [0, 1, 63, 64, 65, 127, 128, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1]


@pytest.mark.parametrize("text", ["bern(1/3,4)", "compl(bern(1/2,8))",
                                  "inter(prog(5,3),bern(3/4,2))"])
def test_packed_counts_at_word_edges(text):
    ref = parse_set(text)
    members = [k for k in range(_WORD_EDGES[-1]) if ref.contains(k)]
    for n in _WORD_EDGES:
        s = parse_set(text)  # a cache built at exactly n
        cps = [c for c in _WORD_EDGES if c <= n]
        assert s.counts_at(cps) == [bisect_left(members, c) for c in cps]
        assert np.flatnonzero(s.materialize(n)).tolist() == members[:bisect_left(members, n)]
        # above the built length every bit is zero, also where compl
        # flipped the padding of a horizon that is no multiple of 64
        words = s.packed(n)
        assert words.shape == (n // 64 + 1,)
        assert int(np.bitwise_count(words).sum()) == bisect_left(members, n)


@st.composite
def _words_and_checkpoints(draw):
    """Packed words, one row or several, and checkpoints the words cover:
    any order, repeats, negatives, 0, word edges and the last word."""
    w = draw(st.integers(1, 6))
    rows = draw(st.sampled_from([None, 1, 2, 3]))
    shape = (w,) if rows is None else (rows, w)
    word = st.one_of(st.just(0), st.just(MASK64), st.integers(0, MASK64))
    flat = draw(st.lists(word, min_size=w * (rows or 1), max_size=w * (rows or 1)))
    top = 64 * w - 1
    point = st.one_of(st.integers(-130, top), st.just(0),
                      st.integers(0, w - 1).map(lambda i: 64 * i),
                      st.integers(64 * (w - 1), top))
    return np.array(flat, dtype=np.uint64).reshape(shape), draw(st.lists(point, min_size=1,
                                                                        max_size=10))


def _count_bits_below(row, n):
    return sum(int(row[k >> 6]) >> (k & 63) & 1 for k in range(max(n, 0)))


@settings(max_examples=200, deadline=None)
@given(_words_and_checkpoints())
@example((np.array([MASK64] * 3, dtype=np.uint64), [191, 64, 64, 0, -5, 128, 1]))
@example((np.array([[MASK64, 1], [0, MASK64]], dtype=np.uint64), [127, 127, 64, 63]))
def test_prefix_counts_match_a_count_per_bit(case):
    words, checkpoints = case
    got = omega_sets._prefix_counts(words, checkpoints)
    assert got.dtype == np.int64
    got = got.tolist()
    want = [[_count_bits_below(row, n) for n in checkpoints]
            for row in np.atleast_2d(words)]
    assert got == (want[0] if words.ndim == 1 else want)


def test_cache_grown_past_the_horizon_is_masked_at_it():
    s = parse_set("bern(1/2,11)")
    members = [k for k in range(1000) if s.contains(k)]
    s.packed(1000)  # the last word of every read below holds members above n
    for n in (1, 63, 65, 100, 127, 999):
        assert s.counts_at([n]) == [bisect_left(members, n)]
        assert np.flatnonzero(s.materialize(n)).tolist() == members[:bisect_left(members, n)]
    # t agrees with s below 100 and adds the non-members of [100, 128)
    t = union(s, Progression(100, 1))
    t.packed(1000)
    assert not set(range(100, 128)) <= set(members)
    ws, wt = s.packed(1000), t.packed(1000)
    assert agree_below(ws, wt, 100) and agree_below(wt, ws, 100)
    assert not agree_below(ws, wt, 128)
    assert agree_below(ws, parse_set("bern(1/2,11)").packed(1000), 1000)


@settings(max_examples=100, deadline=None)
@given(_recipes, st.sampled_from([7, 64, None]))
def test_kth_element_agrees_with_contains(recipe, chunk):
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(omega_sets, "_CHUNK", chunk)
        ref = _build(recipe)
        members = [k for k in range(700) if ref.contains(k)]
        s = _build(recipe)
        # one finiteness rule: an all-false tail pattern
        assert s.provably_finite == (s.size_if_finite() is not None)
        for i in range(min(len(members), 70)):
            assert s.kth_element(i) == members[i]


def test_a_finite_stride_makes_an_intersection_finite():
    # the stride over {0, 1, 2, 3} is {0, 2}: empty from 4 on, so the
    # intersection knows its size instead of searching for a sixth member
    s = CombineNode("inter", [StrideSelection(ExplicitSet([1, 1, 1, 1]), 2), OMEGA])
    assert s.provably_finite and s.size_if_finite() == 2
    assert s.kth_element(1) == 2
    with pytest.raises(IndexError, match="beyond finite set of size 2"):
        s.kth_element(5)


def test_bernoulli_kth_element_finds_members_up_to_the_cap():
    s = BernoulliSet(Fraction(1, 3), 12)
    members = np.flatnonzero(s.materialize(3000)).tolist()
    assert [s.kth_element(k) for k in range(len(members))] == members
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("RHOSPLIT_HORIZON_CAP", "1000")
        t = BernoulliSet(Fraction(1, 3), 12)
        last = bisect_left(members, 1000) - 1
        # the doubling search stops on the cap, not past it
        assert t.kth_element(last) == members[last]
        with pytest.raises(HorizonOverflowError):
            t.kth_element(last + 1)


def test_packed_cache_holds_one_bit_per_index():
    s = parse_set("inter(prog(5,3),bern(1/3,9))")
    tracemalloc.start()
    try:
        s.counts_at([2 ** 24])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three packed vectors of 2^24 bits (the leaves and their
    # intersection), 2 MiB each, and the array objects around them;
    # one byte per index would hold 48 MiB
    assert held < 3 * 2 ** 21 + 2 ** 12


def test_grid_count_holds_one_bit_per_grid_index():
    s = parse_set("inter(prog(5,3),bern(1/3,9))")
    tracemalloc.start()
    try:
        s.counts_at([2 ** 24])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the Bernoulli set is evaluated on the progression's grid alone: one
    # packed vector of 2^24 / 3 bits, and no words of its own or of the
    # intersection
    assert held <= 8 * (2 ** 24 // 3 // 64 + 1) + 2 ** 12


def test_packed_count_without_a_grid_holds_one_bit_per_index():
    s = parse_set("inter(bern(1/3,9),bern(1/2,4))")
    tracemalloc.start()
    try:
        s.counts_at([2 ** 24])
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # no progression child: three packed vectors of 2^24 bits, 2 MiB each
    assert held < 3 * 2 ** 21 + 2 ** 12


_MEMORY_TESTS = [
    "test_bit_vector_count_memory_is_bounded_by_the_chunk",
    "test_packed_cache_holds_one_bit_per_index",
    "test_grid_count_holds_one_bit_per_grid_index",
    "test_packed_count_without_a_grid_holds_one_bit_per_index",
]


def test_memory_bounds_hold_in_a_fresh_interpreter():
    # each alone in a new interpreter, so that a buffer made lazily inside
    # a measured count cannot pass because an earlier test made it; each
    # is called bare, as starting pytest would take longer than the test
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(omega_sets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(omega_sets._ENV_CAP, None)
    procs = [subprocess.Popen(
        [sys.executable, "-c", f"import test_omega_sets; test_omega_sets.{name}()"],
        cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        for name in _MEMORY_TESTS]
    for proc in procs:
        out, _ = proc.communicate()
        assert proc.returncode == 0, out[-2000:]


_TABLE_WRITES = """
from fractions import Fraction
import numpy as np
from rhosplit import OMEGA, build_chain, density_report, omega_sets, parse_set
from rhosplit.omega_sets import parse_family
from rhosplit.rho_transform import ChainConfig, RoundRobinOracle, transform_splitter
from test_omega_sets import _first_rounds

scratch = omega_sets._SCRATCH
cap = scratch.table.shape[0]
first = _first_rounds(cap)
# every entry unlike its first round, so that any write shows
scratch.table[:] = ~first
density_report(parse_set("bern(1/2,7)"), OMEGA, 200_000)
assert scratch.written == 0 and np.array_equal(scratch.table, ~first)
n = 200_000
res = transform_splitter(parse_family("omega,prog(0,2)"), "half-to-rho", Fraction(7, 16),
                         cfg=ChainConfig(depth=3, horizon=n))
assert res.all_hold
assert scratch.written == min(n, cap)
assert np.array_equal(scratch.table[:n], first[:n])
assert np.array_equal(scratch.table[n:], ~first[n:])
# a chain past the capacity writes up to the capacity
build_chain([OMEGA], RoundRobinOracle(), ChainConfig(depth=1, horizon=cap + 1000))
assert scratch.written == cap and np.array_equal(scratch.table, first)
"""


def test_only_chains_write_the_first_round_table():
    # in a new interpreter, whose table no earlier test has written: a
    # density report of an unmapped Bernoulli set leaves it unwritten, a
    # transform writes exactly min(H, capacity) indices, and a chain past
    # the capacity writes it whole
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(omega_sets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(omega_sets._ENV_CAP, None)
    proc = subprocess.run([sys.executable, "-c", _TABLE_WRITES], cwd=here, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


_LARGE_GRID_COUNT = """
import resource
from rhosplit import parse_set
s = parse_set("inter(prog(5,3),bern(1/3,9))")
print(s.counts_at([k << 20 for k in range(1, 129)]))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_grid_count_at_2_27_runs_in_bounded_memory():
    # ru_maxrss survives exec, so a child of this process would start from
    # this process's peak: the count runs in a grandchild of a bare
    # interpreter instead
    src = os.path.dirname(os.path.dirname(omega_sets.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(omega_sets._ENV_CAP, None)
    launch = f"import subprocess, sys; subprocess.run([sys.executable, '-c', {_LARGE_GRID_COUNT!r}], check=True)"
    out = subprocess.run([sys.executable, "-c", launch], env=env,
                         capture_output=True, text=True, check=True).stdout.split("\n")
    counts, maxrss_kib = eval(out[0]), int(out[1])
    # the same counts from the plain PRF, in slices of 2^20 indices
    bern, total, expected = BernoulliSet(Fraction(1, 3), 9), 0, []
    for lo in range(0, 2 ** 27, 2 ** 20):
        bits = bits_range(bern, lo, lo + 2 ** 20)
        first = max(5, lo + (5 - lo) % 3)
        total += int(np.count_nonzero(bits[first - lo::3]))
        expected.append(total)
    assert counts == expected
    # 2^27 / 3 bits are 5.3 MiB of words; the interpreter and numpy take
    # the rest.  Packed words of the whole range would add 3 x 16 MiB.
    assert maxrss_kib < 50 * 1024


def test_materialize_cache_grows_geometrically_within_the_cap():
    calls = []
    impl = BernoulliSet._materialize_impl

    def counted(self, n):
        calls.append(n)
        return impl(self, n)

    n = 20_000
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BernoulliSet, "_materialize_impl", counted)
        s = parse_set("every(bern(1/2,7),2)")
        members = [k for k in range(n) if s.contains(k)]
        assert len(calls) <= 2 * n.bit_length()
        mp.setenv("RHOSPLIT_HORIZON_CAP", "1000")
        t = BernoulliSet(Fraction(1, 2), 7)
        t.materialize(600)
        assert t.materialize(700).shape == (700,)
        assert calls[-1] == 1000  # twice the cache, clipped to the cap
    expect = parse_set("every(bern(1/2,7),2)").materialize(n)
    assert members == np.flatnonzero(expect).tolist()


def test_tail_pattern_is_derived_once_per_node():
    calls = {}
    derive = Progression.tail_pattern

    def counted(self):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return derive(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Progression, "tail_pattern", counted)
        # the ComposedOracle shape: 40 nested intersections of shared
        # stages, their level differences, and a union of levels
        leaves = [OMEGA, Progression(0, 2), Progression(1, 4), Progression(3, 8)]
        nested, diffs = [OMEGA], []
        for m in range(40):
            nested.append(intersect(nested[-1], leaves[1 + m % 3]))
            diffs.append(difference(nested[-2], nested[-1]))
        unions = [diffs[0]]
        for d in diffs[1:]:
            unions.append(union(unions[-1], d))
        top = unions[-1]
        nodes = nested[1:] + diffs + unions[1:]
        for node in nodes:
            node.tail_pattern()
            node.provably_finite
        assert top.count_below(1000) == 1000 - nested[-1].count_below(1000)
        # each leaf is asked once by each distinct parent, however many
        # paths through the DAG reach it
        for leaf in leaves:
            parents = sum(any(c is leaf for c in node.children) for node in nodes)
            assert calls[id(leaf)] == parents

        # a node whose first child has no tail pattern does not ask its
        # second child
        calls.clear()
        prog = Progression(0, 3)
        node = intersect(BernoulliSet(Fraction(1, 2), 5), prog)
        assert node.tail_pattern() is None
        assert id(prog) not in calls


@pytest.mark.parametrize("text", [
    "inter(bern(1/2,3),inter(prog(0,2),prog(1,2)))",
    "inter(inter(prog(0,2),prog(1,2)),bern(1/2,3))",
    "diff(inter(prog(0,2),prog(1,2)),bern(1/2,3))",
])
def test_an_empty_child_fixes_the_tail_whatever_the_other_child(text):
    s = parse_set(text)
    bern, empty = sorted(s.children, key=lambda c: not isinstance(c, BernoulliSet))
    start = empty.tail_pattern().start
    assert s.tail_pattern() == TailPattern(start, 1, (False,))
    assert s.counts_at([2 ** 26]) == [0]
    assert s.provably_finite and s.size_if_finite() == 0
    # the Bernoulli set is never filled past the empty child's start
    assert bern._built <= start


def test_explicit_enumeration_walks_members_not_indices():
    # beyond the cap the intersection enumerates the explicit set, whose
    # three members are all in its prefix
    s = intersect(ExplicitSet([1, 0, 1, 1]), BernoulliSet(Fraction(1, 2), 3))
    assert s.counts_at([10 ** 6, 10 ** 12]) == [2, 2]
    t = ExplicitSet([1, 0, 1, 1, 0], tail=(False, True, True))
    members = [k for k in range(50) if t.contains(k)]
    for n in (0, 3, 5, 6, 7, 8, 50):
        assert t.enumerate_below(n, 100) == members[:bisect_left(members, n)]
    assert t.enumerate_below(10 ** 12, 100) is None


def test_explicit_set_holds_no_negative_point():
    # a negative index does not read the prefix from its end
    s = ExplicitSet([0, 0, 0, 1, 1], tail=(True,))
    assert [s.contains(k) for k in (-5, -2, -1, 3, 5)] == [False] * 3 + [True] * 2


def test_stride_selection_counts():
    evens = Progression(0, 2)
    quarters = StrideSelection(evens, 2, 0)
    assert [quarters.kth_element(i) for i in range(4)] == [0, 4, 8, 12]
    for n in (0, 1, 5, 17, 100):
        assert quarters.count_below(n) == brute_count(lambda k: k % 4 == 0, n)


def test_sequence_set():
    s = SequenceSet(lambda n: 2 ** (2 ** n), name="towers")
    assert [s.kth_element(i) for i in range(4)] == [2, 4, 16, 256]
    assert s.count_below(257) == 4
    assert s.contains(16) and not s.contains(17)
    bad = SequenceSet(lambda n: 5, name="flat")
    with pytest.raises(ValueError):
        bad.kth_element(1)


def test_powers_membership():
    p3 = PowersSet(3)
    members = {1, 3, 9, 27, 81}
    for k in range(100):
        assert p3.contains(k) == (k in members)
    assert p3.count_below(10 ** 30) == 63  # 3^62 < 10^30 < 3^63


# the closed form: every power b^j up to 2^4096
POWERS = {b: [b ** j for j in range(4097) if b ** j <= 2 ** 4096] for b in range(2, 11)}


@settings(deadline=None)
@given(st.integers(2, 10), st.integers(0, 2 ** 4096), st.integers(0, 2 ** 4096),
       st.integers(0, 600))
def test_powers_set_is_the_closed_form(b, n, m, k):
    P, powers = PowersSet(b), POWERS[b]
    below = bisect_left(powers, n)
    assert P.counts_at([n, m]) == [below, bisect_left(powers, m)]
    assert P.enumerate_below(n, 1 << 20) == powers[:below]
    assert P.kth_element(k) == b ** k
    for x in (n, b ** k - 1, b ** k, b ** k + 1):
        assert P.contains(x) == (x in powers)
    Q = parse_set(P.descriptor())
    assert (type(Q), Q.base, Q.descriptor()) == (PowersSet, b, f"pow({b})")


@settings(deadline=None)
@given(st.integers(2, 10 ** 6), st.integers(0, 2000), st.integers(-2, 2))
@example(3, 20000, 1)
@example(10 ** 6, 1500, -1)
@example(2 ** 20, 3000, 0)
def test_powers_terms_below_is_an_exact_integer_log(b, j, d):
    v = b ** j + d
    powers, t, top = [], 1, b ** (j + 1)
    while t <= top:
        powers.append(t)
        t *= b
    assert PowersSet(b).terms_below(v) == bisect_left(powers, v)


def test_powers_answer_without_listing_powers():
    P = PowersSet(2)
    calls, fn = [], P.fn
    P.fn = lambda k: calls.append(k) or fn(k)
    assert P.kth_element(2 ** 16) == 2 ** 2 ** 16
    assert P.contains(2 ** 20000) and not P.contains(2 ** 20000 + 1)
    assert P.counts_at([2 ** 20000 + 1]) == [20001]
    assert len(calls) == 3  # one term per kth_element and contains


def test_grammar_roundtrip():
    texts = [
        "omega",
        "prog(0,2)",
        "bern(1/2,7)",
        "pow(2)",
        "inter(prog(0,2),prog(0,3))",
        "compl(prog(1,2))",
        "union(prog(0,4),prog(1,4))",
        "diff(omega,prog(0,2))",
        "every(prog(0,2),2,0)",
    ]
    for text in texts:
        s = parse_set(text)
        again = parse_set(s.descriptor())
        assert np.array_equal(s.materialize(512), again.materialize(512))


def test_grammar_rejects_junk():
    for bad in ("prog(0,2", "nope(1)", "prog(0,2) extra", "bern(2,1)",
                # ill-typed, fractional and zero-denominator arguments, and
                # wrong counts, against each constructor's signature
                "inter(3,omega)", "prog(omega,2)", "bern(omega,1)",
                "every(3,2)", "prog(1/2,3)", "bern(1/2,1/3)", "bern(1/0,1)",
                "compl()", "inter(omega)", "prog(0,2,3)", "every(omega)",
                # numbers are ASCII digits, as in the CLI's rational options
                "prog(\u0663,2)", "bern(\u0661/\u0662,3)"):
        with pytest.raises(ValueError):
            parse_set(bad)


def test_parse_family_handles_nested_commas():
    members = parse_family("omega,prog(0,2),inter(prog(0,2),prog(0,3))")
    assert len(members) == 3
    assert members[2].count_below(36) == 6


@pytest.mark.parametrize("text", ["omega,", "omega,,prog(0,2)", ""])
def test_parse_family_rejects_empty_members(text):
    with pytest.raises(ValueError):
        parse_family(text)
