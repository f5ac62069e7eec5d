import json
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from rhosplit import (
    IntervalSymbolicSet,
    Progression,
    centred_escape,
    centred_thresholds,
    complement,
    defeat_bisector,
    half_slalom,
    laver_blocks,
    laver_escape,
    min_index_for_eps,
    verify_certificate,
)
from rhosplit.adversary import Slalom
from rhosplit.certificates import CERT_KINDS, Certificate
from rhosplit.omega_sets import FiniteSetError

HALF = Fraction(1, 2)


def scan_min_index(eps):
    # independent oracle: first n where the exact comparison holds
    n = 1
    while Fraction(2, 2 ** n) > HALF - eps:
        n += 1
    return n


@pytest.mark.parametrize("eps,expected", [
    (Fraction(1, 4), 3),
    (Fraction(2, 5), 5),
    (Fraction(1, 100), 3),
])
def test_min_index_examples(eps, expected):
    assert min_index_for_eps(eps) == scan_min_index(eps) == expected


@given(st.fractions(min_value=Fraction(1, 64), max_value=Fraction(31, 64))
       | st.fractions(min_value=Fraction(1, 10 ** 9),
                      max_value=HALF - Fraction(1, 10 ** 9),
                      max_denominator=10 ** 9))
def test_min_index_oracle_and_reciprocal(eps):
    n = min_index_for_eps(eps)
    assert n == scan_min_index(eps)
    assert Fraction(1, Fraction(2, 2 ** n) + 1) >= HALF + eps


def test_min_index_rejects_bad_eps():
    for eps in (0, HALF, 1):
        with pytest.raises(ValueError):
            min_index_for_eps(Fraction(eps))


def test_defeat_evens_case_pattern(minimal16):
    # exact parity arithmetic: evens take ceil(|I_n|/2) of I_n when b_n is
    # even, so case 1 fires at n = 3 and 5 and case 2 at n = 4
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                          rounds=3)
    assert [c.index for c in res.certificates] == [3, 4, 5]
    assert res.cases == ["case1", "case2", "case1"]


def test_defeat_full_set_fires_case1(minimal16):
    full = IntervalSymbolicSet(
        minimal16, {k: minimal16.full(k) for k in range(8)},
        default="full",
    )
    res = defeat_bisector(full, Fraction(1, 4), minimal16, rounds=2)
    assert res.cases == ["case1", "case1"]
    for _, ratio in res.realized:
        assert ratio > HALF + Fraction(1, 4)


def test_defeat_tie_goes_to_case2():
    # an exact half-of-the-interval splitter on an even-sized partition
    from rhosplit import build_partition

    P = build_partition("minimal", 8, even_sizes=True)
    S = IntervalSymbolicSet(
        P, {k: P.first(k, P.size(k) // 2) for k in range(8)},
        default="singleton",
    )
    res = defeat_bisector(S, Fraction(1, 4), P, rounds=2)
    assert res.cases == ["case2", "case2"]
    for cert in res.certificates:
        assert cert.cardinalities["s_in_interval"] * 2 == \
            cert.cardinalities["interval_size"]


def test_defeat_rejects_finite_flagged(minimal16):
    empty = IntervalSymbolicSet(minimal16, {}, default="empty")
    with pytest.raises(FiniteSetError):
        defeat_bisector(empty, Fraction(1, 4), minimal16)


def test_defeat_respects_condition_domain(minimal16):
    cond = {3: minimal16.first(3, 5)}
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                          condition=cond, rounds=2)
    assert [c.index for c in res.certificates] == [4, 5]
    assert res.x_set.value_at(3).count == 5  # condition value kept


def test_defeat_realized_matches_brute_force(minimal16, splitter_battery):
    S = splitter_battery["evens"]
    res = defeat_bisector(S, Fraction(1, 10), minimal16, rounds=2)
    X = res.x_set
    for (n, ratio), cert in zip(res.realized, res.certificates):
        hi = minimal16.boundary(n + 1)
        xa = X.materialize(hi)
        sa = S.materialize(hi)
        num = int((xa & sa).sum())
        den = int(xa.sum())
        assert ratio == Fraction(num, den)
        assert cert.cardinalities["ratio_num"] == num
        assert cert.cardinalities["ratio_den"] == den


def scan_thresholds(eps, epsp):
    n = 0
    while not ((1 + Fraction(1, 2 ** n)) * (HALF + eps) < HALF + epsp
               and HALF - eps - Fraction(1, 2 ** n) > HALF - epsp):
        n += 1
    k = 0
    while Fraction(1, 2 ** k) / (HALF - epsp) + 1 > 1 / (HALF + eps):
        k += 1
    return n, k


def test_centred_thresholds_pinned_values():
    assert centred_thresholds(Fraction(1, 10), Fraction(1, 5)) == (4, 3)
    # near-degenerate gap: exact-comparison oracle value
    assert centred_thresholds(Fraction(1, 5), Fraction(21, 100)) == \
        scan_thresholds(Fraction(1, 5), Fraction(21, 100)) == (7, 4)


@given(st.fractions(min_value=Fraction(1, 32), max_value=Fraction(14, 32)),
       st.fractions(min_value=Fraction(1, 64), max_value=Fraction(15, 32)))
def test_centred_thresholds_match_scan_oracle(eps, gap):
    epsp = eps + gap
    if not eps < epsp < HALF:
        return
    assert centred_thresholds(eps, epsp) == scan_thresholds(eps, epsp)


def test_centred_thresholds_monotone_in_eps():
    # raising eps with eps' fixed shrinks the gap; both thresholds can
    # only move up
    epsp = Fraction(2, 5)
    prev = (0, 0)
    for num in range(1, 39):
        eps = Fraction(num, 100)
        cur = centred_thresholds(eps, epsp)
        assert cur[0] >= prev[0] and cur[1] >= prev[1]
        prev = cur


def first_half_guards(P, upto):
    return {k: P.first(k, (P.size(k) + 1) // 2) for k in range(upto + 1)}


def test_centred_escape_standard_battery(minimal16):
    guards = first_half_guards(minimal16, 4)
    cert = centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4)
    assert verify_certificate(cert)
    assert cert.conclusion_bound == HALF + Fraction(1, 10)
    for step in cert.steps:
        assert step.holds()


def test_centred_escape_band_violations(minimal16):
    guards = first_half_guards(minimal16, 4)
    guards[4] = minimal16.first(4, minimal16.size(4) // 4)  # ratio 1/4
    with pytest.raises(ValueError, match="band violated at interval 4"):
        centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4)


def test_centred_escape_below_threshold(minimal16):
    guards = first_half_guards(minimal16, 1)
    with pytest.raises(ValueError, match="below the chain threshold"):
        centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 1)


def test_laver_blocks_values(minimal16):
    assert laver_blocks(minimal16, 0) == (1, 1)
    assert laver_blocks(minimal16, 1) == (2, 2)
    assert laver_blocks(minimal16, 3) == (8, 8)


def test_laver_escape_standard_battery(minimal16):
    slalom = half_slalom(minimal16, 3)
    x_set, cert = laver_escape(slalom, Fraction(1, 10), Fraction(1, 5), 3)
    assert cert.index == 8  # first interval of block 3, branch 0
    assert verify_certificate(cert)
    # the assembled set realizes the certified escape count on I_k
    assert x_set.value_at(8).count == cert.cardinalities["escape_count"]
    assert x_set.prefix_count(8) == cert.cardinalities["x_count"]


def test_laver_escape_block_too_small(minimal16):
    slalom = half_slalom(minimal16, 3)
    with pytest.raises(ValueError, match="threshold"):
        laver_escape(slalom, Fraction(1, 10), Fraction(1, 5), 0)


def test_laver_escape_nonzero_branch(minimal16):
    slalom = half_slalom(minimal16, 3, branch={0: 0, 1: 1, 2: 3, 3: 5})
    _, cert = laver_escape(slalom, Fraction(1, 10), Fraction(1, 5), 3)
    assert cert.index == 13
    assert verify_certificate(cert)


def test_slalom_shape_validation(minimal16):
    # block m holds one piece per interval 2^m + j of its block
    assert sum(map(len, half_slalom(minimal16, 4).blocks.values())) == 31
    piece = minimal16.first(2, 1)
    with pytest.raises(ValueError, match="exactly 2"):
        Slalom(minimal16, {1: [piece]}, {1: 0})
    with pytest.raises(ValueError, match="piece 1 of block 1 must lie on interval 3"):
        Slalom(minimal16, {1: [piece, piece]}, {1: 0})
    from rhosplit import build_partition

    other = build_partition("minimal", 16)
    with pytest.raises(ValueError, match="piece 0 of block 0"):
        Slalom(minimal16, {0: [other.first(1, 1)]}, {0: 0})


def test_certificate_json_roundtrip(minimal16):
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                          rounds=2)
    for cert in res.certificates:
        again = Certificate.loads(cert.dumps())
        assert again == cert
        assert verify_certificate(again)


@pytest.mark.parametrize("delta", [1, -1])
def test_tampering_any_cardinality_is_detected(minimal16, delta):
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                          rounds=2)
    guards = first_half_guards(minimal16, 4)
    certs = list(res.certificates)
    certs.append(centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4))
    slalom = half_slalom(minimal16, 3)
    certs.append(laver_escape(slalom, Fraction(1, 10), Fraction(1, 5), 3)[1])
    for cert in certs:
        assert verify_certificate(cert)
        payload = json.loads(cert.dumps())
        for key in payload["cardinalities"]:
            tampered = json.loads(cert.dumps())
            tampered["cardinalities"][key] = str(
                int(tampered["cardinalities"][key]) + delta
            )
            bad = Certificate.from_json(tampered)
            assert not verify_certificate(bad), (cert.kind, key, delta)


def test_tampering_steps_is_detected(minimal16):
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16)
    payload = json.loads(res.certificates[0].dumps())
    payload["steps"][1]["rhs"] = "1/1"
    assert not verify_certificate(Certificate.from_json(payload))


def test_tampering_boundaries_is_detected(minimal16):
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16)
    payload = json.loads(res.certificates[0].dumps())
    payload["boundaries"][2] = str(int(payload["boundaries"][2]) + 1)
    assert not verify_certificate(Certificate.from_json(payload))


@pytest.mark.parametrize("block", [2, 4, 10 ** 8])
def test_slalom_block_must_hold_the_index(minimal16, block):
    # the block is untrusted input too: 2^block is never built from it
    _, cert = laver_escape(half_slalom(minimal16, 3), Fraction(1, 10),
                           Fraction(1, 5), 3)
    payload = json.loads(cert.dumps())
    payload["cardinalities"]["block"] = str(block)
    result = verify_certificate(Certificate.from_json(payload))
    assert not result
    assert "does not belong to the stated block" in result.reason


@pytest.mark.parametrize("kind", ["game", "escape"])
def test_negative_index_is_rejected(minimal16, kind):
    # certificates are untrusted input: a negative index must be a
    # rejection, not an exception out of the rule's 2 ** index
    if kind == "game":
        cert = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                               rounds=1).certificates[0]
    else:
        cert = centred_escape(first_half_guards(minimal16, 4), Fraction(1, 10),
                              Fraction(1, 5), 4)
    payload = json.loads(cert.dumps())
    payload["index"] = -1
    payload["boundaries"] = []
    result = verify_certificate(Certificate.from_json(payload))
    assert not result
    assert result.reason == "negative interval index"


def assert_sound(cert):
    # checked here without the verifier: the chain runs from the certified
    # ratio to a bound outside the band, every step holding in one direction
    cards = cert.cardinalities
    if cert.kind.startswith("game-"):
        ratio = Fraction(cards["ratio_num"], cards["ratio_den"])
    else:
        ratio = Fraction(cards["escape_count"], cards["x_count"])
    steps = cert.steps
    assert steps[0].lhs == ratio
    assert all(a.rhs == b.lhs for a, b in zip(steps, steps[1:]))
    assert steps[-1].rhs == cert.conclusion_bound
    way = cert.conclusion_rel[0]
    assert all(s.rel[0] == way and s.holds() for s in steps)
    if way == ">":
        assert ratio >= cert.conclusion_bound >= HALF + cert.eps
    else:
        assert ratio <= cert.conclusion_bound <= HALF - cert.eps


def test_every_emitted_chain_is_sound(minimal16):
    # game chains on structured splitters for eps up to 49/100, centred
    # chains at k0..11 and slalom chains on blocks 2-4
    P, certs = minimal16, []
    splitters = [Progression(0, 2), Progression(1, 2), Progression(0, 3),
                 complement(Progression(0, 3)), complement(Progression(2, 5))]
    for eps in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5),
                Fraction(49, 100)):
        for S in splitters:
            certs += defeat_bisector(S, eps, P, rounds=3).certificates
    eps, epsp = Fraction(1, 10), Fraction(1, 5)
    _, k0 = centred_thresholds(eps, epsp)
    guards = first_half_guards(P, 11)
    certs += [centred_escape(guards, eps, epsp, n) for n in range(k0, 12)]
    for m in (2, 3, 4):
        for j in (0, 2 ** m - 1):
            slalom = half_slalom(P, 4, branch={b: j % 2 ** b for b in range(5)})
            certs.append(laver_escape(slalom, eps, epsp, m)[1])
    assert {c.kind for c in certs} == set(CERT_KINDS)
    for cert in certs:
        assert_sound(cert)
        assert verify_certificate(cert), cert.kind


# the forged rules read and write a rule's chain: steps (lhs, rel, rhs)
# whose terms are pairs (num, den)


def _drop(i):
    # steps without steps[i], for negative i too
    return lambda steps, rel, bound: (steps[:i] + steps[i:][1:], rel, bound)


def _backwards(steps, rel, bound):
    # a true step that points against the conclusion
    back = "<=" if rel[0] == ">" else ">="
    return steps + ((bound, back, bound),), rel, bound


def _into_band(steps, rel, bound):
    half = (1, 2)
    return steps + ((bound, rel, half),), rel, half


def _strict_from_weak(steps, rel, bound):
    r = steps[0][0]
    return ((r, rel, r),), rel[0], r


@pytest.mark.parametrize("forge,reason", [
    (_drop(1), "breaks between steps 0 and 1"),
    (_drop(0), "does not start at the certified ratio"),
    (_drop(-1), "does not end at the conclusion bound"),
    (_backwards, "points against the conclusion"),
    (_into_band, "inside the band"),
    (_strict_from_weak, "strict conclusion"),
])
def test_verifier_rejects_an_unsound_rule(minimal16, monkeypatch, forge, reason):
    # emitter and verifier share the forged rule, so only the check of the
    # chain on its own terms can reject what it emits
    from rhosplit import certificates

    for kind, rule in list(certificates._RULES.items()):
        monkeypatch.setitem(
            certificates._RULES, kind,
            lambda *args, rule=rule: forge(*rule(*args)))
    res = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16,
                          rounds=2)
    certs = list(res.certificates)
    certs.append(centred_escape(first_half_guards(minimal16, 4),
                                Fraction(1, 10), Fraction(1, 5), 4))
    slalom = half_slalom(minimal16, 3)
    certs.append(laver_escape(slalom, Fraction(1, 10), Fraction(1, 5), 3)[1])
    assert {c.kind for c in certs} == set(CERT_KINDS)
    for cert in certs:
        result = verify_certificate(cert)
        assert not result and reason in result.reason, (cert.kind, result)
