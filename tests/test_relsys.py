import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from rhosplit import (
    FiniteRelSys,
    PowersSet,
    Progression,
    SequenceSet,
    TukeyPair,
    bounding_number,
    check_tukey,
    dominating_number,
    dual,
    zero_split_check,
)
from rhosplit.relsys import (
    gallery_dom,
    gallery_reap,
    gallery_reap_rho,
    pullback_pair,
    random_system,
)


def identity(n):
    return FiniteRelSys(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"y{i}" for i in range(n)),
        tuple(tuple(i == j for j in range(n)) for i in range(n)),
    )


def brute_bounding(R):
    """Oracle: smallest subset of rows with no column true on all of it."""
    for k in range(1, R.nx + 1):
        for combo in combinations(range(R.nx), k):
            if not any(all(R.rel[i][j] for i in combo) for j in range(R.ny)):
                return k
    return None


def brute_dominating(R):
    """Oracle: smallest subset of columns covering every row."""
    for k in range(1, R.ny + 1):
        for combo in combinations(range(R.ny), k):
            if all(any(R.rel[i][j] for j in combo) for i in range(R.nx)):
                return k
    return None


# -- the per-cell definitions that the bitmasks replace, kept as the reference


def reference_fault(R):
    for i, row in enumerate(R.rel):
        if not any(row):
            return f"domain condition fails: row {R.x_labels[i]!r} is empty"
    for j in range(R.ny):
        if all(R.rel[i][j] for i in range(R.nx)):
            return f"column {R.y_labels[j]!r} dominates every point"
    if R.nx == 0:
        return "X has no points"
    return None


def _cell_mask(bits):
    return sum(1 << i for i, b in enumerate(bits) if b)


def reference_bounding(R):
    masks = [_cell_mask(row) for row in R.rel]
    for k in range(1, R.nx + 1):
        for combo in combinations(range(R.nx), k):
            acc = masks[combo[0]]
            for i in combo[1:]:
                acc &= masks[i]
            if acc == 0:
                return k
    raise AssertionError("validated system must have an unbounded subset")


def reference_dominating(R):
    cols = [_cell_mask(col) for col in zip(*R.rel)]
    full = (1 << R.nx) - 1
    covered, used = 0, 0
    while covered != full:
        best = max(range(R.ny), key=lambda j: bin(cols[j] & ~covered).count("1"))
        covered |= cols[best]
        used += 1
    best_size = used

    def search(covered, used):
        nonlocal best_size
        if covered == full:
            best_size = min(best_size, used)
            return
        if used + 1 >= best_size:
            return
        i = next(b for b in range(R.nx) if not covered & (1 << b))
        for j in range(R.ny):
            if cols[j] & (1 << i):
                search(covered | cols[j], used + 1)

    search(0, 0)
    return best_size


def reference_random_system(rng, nx, ny):
    for _ in range(1000):
        rel = tuple(tuple(rng.random() < 0.5 for _ in range(ny)) for _ in range(nx))
        R = FiniteRelSys(tuple(f"x{i}" for i in range(nx)),
                         tuple(f"y{j}" for j in range(ny)), rel)
        if reference_fault(R) is None:
            return R
    raise RuntimeError("could not sample a valid system")


def _outcome(f, R):
    try:
        return "value", f(R)
    except (AssertionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def systems(draw):
    """Any relation up to 6x6, valid or not, with no rows or no columns too."""
    nx, ny = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rel = tuple(tuple(draw(st.booleans()) for _ in range(ny)) for _ in range(nx))
    return FiniteRelSys(tuple(f"a{i}" for i in range(nx)),
                        tuple(f"b{j}" for j in range(ny)), rel)


@settings(max_examples=500)
@given(systems())
def test_masks_decide_as_the_per_cell_definitions(R):
    fault = reference_fault(R)
    if fault is None:
        R.validate()
        assert _outcome(bounding_number, R) == _outcome(reference_bounding, R)
        assert dominating_number(R) == reference_dominating(R)
    else:
        for f in (FiniteRelSys.validate, bounding_number, dominating_number):
            assert _outcome(f, R) == ("ValueError", fault)


@given(st.integers(0, 2 ** 32), st.integers(0, 6), st.integers(0, 6))
def test_random_system_draws_as_the_per_cell_sampler(seed, nx, ny):
    rng, ref = random.Random(seed), random.Random(seed)
    try:
        expected = reference_random_system(ref, nx, ny)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            random_system(rng, nx, ny)
    else:
        assert random_system(rng, nx, ny) == expected
    assert rng.getstate() == ref.getstate()


def test_identity_system_numbers():
    R = identity(3)
    assert bounding_number(R) == 2 == brute_bounding(R)
    assert dominating_number(R) == 3 == brute_dominating(R)


def test_two_by_two_diagonal():
    R = FiniteRelSys(("a", "b"), ("u", "v"), ((True, False), (False, True)))
    assert bounding_number(R) == 2
    assert dominating_number(R) == 2


def test_domain_condition_rejected():
    R = FiniteRelSys(
        ("x0", "x1", "x2"), ("y0", "y1"),
        ((True, False), (True, True), (False, False)),
    )
    with pytest.raises(ValueError, match="domain"):
        bounding_number(R)


def test_dominating_column_rejected():
    R = FiniteRelSys(
        ("x0", "x1"), ("y0", "y1"),
        ((True, True), (True, False)),
    )
    with pytest.raises(ValueError, match="dominates"):
        dominating_number(R)


def test_cover_by_two_columns():
    # one column covering all but one row plus a second covering it
    R = FiniteRelSys(
        ("a", "b", "c", "d"), ("u", "v", "w"),
        ((True, False, False),
         (True, False, True),
         (True, False, False),
         (False, True, False)),
    )
    assert dominating_number(R) == 2 == brute_dominating(R)


def test_dual_involution_and_exchange():
    R = identity(3)
    D = dual(R)
    assert dual(D) == R
    assert D.rel == tuple(tuple(i != j for j in range(3)) for i in range(3))
    assert bounding_number(D) == dominating_number(R)
    assert dominating_number(D) == bounding_number(R)


def test_duality_on_random_battery():
    rng = random.Random(2024)
    for _ in range(200):
        R = random_system(rng, 2 + rng.randrange(7), 2 + rng.randrange(7))
        b, d = bounding_number(R), dominating_number(R)
        assert b == brute_bounding(R)
        assert d == brute_dominating(R)
        D = dual(R)
        assert bounding_number(D) == d
        assert dominating_number(D) == b


def test_check_tukey_identity():
    R = identity(4)
    pair = TukeyPair((0, 1, 2, 3), (0, 1, 2, 3))
    assert check_tukey(R, R, pair).holds


def test_check_tukey_counterexample_is_least():
    R0 = identity(3)
    R1 = identity(3)
    pair = TukeyPair((0, 1, 2), (1, 2, 0))  # G misroutes everything
    verdict = check_tukey(R0, R1, pair)
    assert not verdict.holds
    assert verdict.counterexample == (0, 0)


def test_check_tukey_totality_validation():
    R = identity(3)
    with pytest.raises(ValueError):
        check_tukey(R, R, TukeyPair((0, 1), (0, 1, 2)))
    with pytest.raises(ValueError):
        check_tukey(R, R, TukeyPair((0, 1, 5), (0, 1, 2)))


def sample_accepted(rng, nx1, ny1, nx0, ny0):
    """Accepted pullback pair, redrawing the base system when a draw has
    no valid pullback (dense bases can leave every candidate column
    dominating)."""
    while True:
        R1 = random_system(rng, nx1, ny1)
        try:
            R0, pair = pullback_pair(rng, R1, nx0, ny0, max_tries=200)
            return R1, R0, pair
        except RuntimeError:
            continue


def test_tukey_reversal_on_duals():
    rng = random.Random(7)
    for _ in range(50):
        R1, R0, pair = sample_accepted(rng, 4, 4, 4, 4)
        forward = check_tukey(R0, R1, pair)
        reverse = check_tukey(dual(R1), dual(R0), TukeyPair(pair.g, pair.f))
        assert forward.holds == reverse.holds


def test_tukey_monotonicity_on_accepted_pairs():
    rng = random.Random(99)
    for _ in range(100):
        R1, R0, pair = sample_accepted(rng, 2 + rng.randrange(5),
                                       2 + rng.randrange(5),
                                       2 + rng.randrange(5),
                                       2 + rng.randrange(5))
        assert check_tukey(R0, R1, pair).holds
        assert bounding_number(R0) >= bounding_number(R1)
        assert dominating_number(R0) <= dominating_number(R1)


def test_tukey_composition():
    rng = random.Random(5)
    for _ in range(30):
        R2 = random_system(rng, 3, 3)
        try:
            R1, p1 = pullback_pair(rng, R2, 3, 3, max_tries=200)
            R0, p0 = pullback_pair(rng, R1, 3, 3, max_tries=200)
        except RuntimeError:
            continue
        composite = TukeyPair(
            tuple(p1.f[i] for i in p0.f),
            tuple(p0.g[j] for j in p1.g),
        )
        assert check_tukey(R0, R2, composite).holds


def doubling_seq():
    return SequenceSet(lambda n: 2 ** (2 ** n), name="doubling")


def test_zero_split_bound_powers_of_two():
    rep = zero_split_check(PowersSet(2), doubling_seq(), 1, 10)
    assert rep.bound_holds
    assert rep.zero_splits
    # frozen exact window maxima (independent hand count): at n=3 the
    # ratio peaks at 4/9 just past 256, at n=4 at 5/17 just past 65536
    by_n = {w.n: w for w in rep.windows}
    assert by_n[3].max_ratio == Fraction(4, 9)
    assert by_n[4].max_ratio == Fraction(5, 17)
    assert by_n[4].bound == Fraction(5, 16)


def test_zero_split_bound_needs_threshold_one():
    # with N = 0 the literal bound n/2^n fails (the window-3 maximum 4/9
    # exceeds 3/8): an honest negative, the bound is provable for N >= 1
    rep = zero_split_check(PowersSet(2), doubling_seq(), 0, 5)
    assert not rep.bound_holds
    by_n = {w.n: w for w in rep.windows}
    assert by_n[3].max_ratio == Fraction(4, 9) > by_n[3].bound == Fraction(3, 8)


def test_zero_split_shifted_sequence():
    x = SequenceSet(lambda n: 2 ** (2 ** n) + 1, name="shifted")
    rep = zero_split_check(Progression(0, 2), x, 1, 6)
    assert rep.bound_holds


def test_zero_split_hypothesis_violation():
    x = SequenceSet(lambda n: 2 ** (2 ** n) - 1 if n == 3 else 2 ** (2 ** n),
                    name="dips")
    with pytest.raises(ValueError, match="n=3"):
        zero_split_check(PowersSet(2), x, 1, 5)


def test_gallery_systems_are_valid():
    for sys_ in (gallery_dom(2, 2), gallery_reap(), gallery_reap_rho()):
        sys_.validate()
        b, d = bounding_number(sys_), dominating_number(sys_)
        assert 2 <= b <= sys_.nx
        assert 1 <= d <= sys_.ny


def test_json_roundtrip():
    R = gallery_reap(universe=4, min_size=2)
    again = FiniteRelSys.from_json(R.to_json())
    assert again == R


def _relation(R):
    return {(x, y): R.rel[i][j] for i, x in enumerate(R.x_labels)
            for j, y in enumerate(R.y_labels)}


def _sets(universe, min_size):
    return [set(c) for k in range(min_size, universe + 1)
            for c in combinations(range(universe), k)]


def test_gallery_reap_matches_its_definition():
    # S is related below X iff S does not split X
    sets = _sets(5, 3)
    expected = {(str(sorted(s)), str(sorted(x))): not (s & x and x - s)
                for s in sets for x in sets}
    assert _relation(gallery_reap()) == expected


@pytest.mark.parametrize("rho", [Fraction(1, 2), Fraction(1, 3)])
def test_gallery_reap_rho_matches_its_definition(rho):
    # S is related below X iff |S∩X|/|X| leaves the band rho ± 1/4
    sets = _sets(6, 2)
    expected = {
        (str(sorted(s)), str(sorted(x))):
            not rho - Fraction(1, 4) <= Fraction(len(s & x), len(x)) <= rho + Fraction(1, 4)
        for s in sets for x in sets
    }
    R = gallery_reap_rho(rho=rho)
    assert len(R.x_labels) == len(sets)
    assert _relation(R) == expected


@pytest.mark.parametrize("obj,part", [
    ({"X": "ab", "Y": ["u", "v"], "rel": ["10", "01"]}, "X"),  # a string, not a list
    ({"X": ["a", "b"], "Y": [1, 2], "rel": ["10", "01"]}, "Y"),  # labels must be strings
    ({"X": ["a", "b"], "Y": ["u", "v"], "rel": "1001"}, "rel"),
    ({"X": ["a", "b"], "Y": ["u", "v"], "rel": [[1, 0], [0, 1]]}, "rel"),
    ({"X": ["a", "b"], "Y": ["u", "v"]}, "rel"),  # missing
    (["a", "b"], "X"),  # a list where the system object belongs
])
def test_from_json_rejects_wrong_shapes(obj, part):
    with pytest.raises(ValueError, match=f"malformed system: {part} must be a list of strings"):
        FiniteRelSys.from_json(obj)


@pytest.mark.parametrize("row", ["1x", "1 ", "12", "TF"])
def test_from_json_rejects_rows_off_zero_one(row):
    with pytest.raises(ValueError, match="malformed system: rel rows"):
        FiniteRelSys.from_json({"X": ["a", "b"], "Y": ["u", "v"], "rel": [row, "01"]})


def test_gallery_reap_rho_names_a_degenerate_truncation():
    # over rho = k/32 a column dominates at k = 1, 2 and a row is empty at
    # k >= 24; every other truncation is a valid system
    for k in range(1, 32):
        rho = Fraction(k, 32)
        if k in (1, 2) or k >= 24:
            reason = "dominates every point" if k < 24 else "is empty"
            with pytest.raises(ValueError) as exc:
                gallery_reap_rho(rho=rho)
            msg = str(exc.value)
            assert msg.startswith(f"the reap-rho truncation at rho = {rho} is degenerate: "
                                  f"with the band rho ± 1/4 = [{rho - Fraction(1, 4)}, "
                                  f"{rho + Fraction(1, 4)}], ")
            assert reason in msg
        else:
            gallery_reap_rho(rho=rho).validate()
