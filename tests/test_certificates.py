"""The certificate reader and verifier against the Fraction formulas they
replace, and the verifier's comparison path on recorded chains."""

import json
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rhosplit import (
    Progression,
    centred_escape,
    centred_thresholds,
    defeat_bisector,
    half_slalom,
    laver_escape,
    verify_certificate,
)
from rhosplit._util import half_offset, in_half_band, parse_int, parse_rational
from rhosplit.adversary import _check_band
from rhosplit.certificates import CERT_KINDS, Certificate, _RULES

HALF = Fraction(1, 2)


# -- the Fraction formulas, kept here as the oracle ------------------------


def fraction_thresholds(eps, epsp):
    n = 0
    while not ((1 + Fraction(1, 2 ** n)) * (HALF + eps) < HALF + epsp
               and HALF - eps - Fraction(1, 2 ** n) > HALF - epsp):
        n += 1
    k = 0
    while Fraction(1, 2 ** k) / (HALF - epsp) + 1 > 1 / (HALF + eps):
        k += 1
    return n, k


def fraction_in_band(count, size, eps):
    return HALF - eps < Fraction(count, size) < HALF + eps


def fraction_escape_terms(k, eps, epsp, b, size, e, xc, m=None):
    """None when the escape count leaves the band, else the chain terms."""
    lo_band = HALF - epsp
    if not (lo_band * size < e < (HALF + epsp) * size):
        return None
    t = lo_band * size

    def c(j):
        return 1 / (Fraction(1, 2 ** j) / lo_band + 1)

    terms = [Fraction(e, xc), Fraction(e, b + e), t / (b + t), c(k)]
    if m is not None:
        terms.append(c(2 ** m))
    return terms + [HALF + eps]


def chain_terms(steps):
    """The Fractions of a rule's chain of pairs, each den checked > 0."""
    pairs = [lhs for lhs, _, _ in steps] + [steps[-1][2]]
    assert all(den > 0 for _, den in pairs)
    return [Fraction(*pair) for pair in pairs]


@st.composite
def eps_pairs(draw):
    """0 < eps < eps' < 1/2 with unrelated denominators up to 10^6."""
    d1 = draw(st.integers(3, 10 ** 6))
    eps = Fraction(draw(st.integers(1, (d1 - 1) // 2)), d1)
    d2 = draw(st.integers(3, 10 ** 6))
    lo, hi = math.floor(eps * d2) + 1, (d2 - 1) // 2
    assume(lo <= hi)
    return eps, Fraction(draw(st.integers(lo, hi)), d2)


# -- integer deciders against the oracle ------------------------------------


@settings(max_examples=500)
@given(eps_pairs())
def test_integer_thresholds_equal_the_fraction_loops(pair):
    assert centred_thresholds(*pair) == fraction_thresholds(*pair)


@settings(max_examples=100, deadline=None)
@given(eps_pairs())
def test_laver_block_threshold_equals_the_fraction_formula(minimal16, pair):
    eps, epsp = pair
    slalom = half_slalom(minimal16, 4)
    threshold = (HALF - epsp) * (HALF - eps) / (HALF + eps)
    for m in range(5):
        below = Fraction(1, 2 ** (2 ** m)) > threshold
        try:
            laver_escape(slalom, eps, epsp, m)
            refused = None
        except ValueError as exc:
            refused = str(exc)
        if below:
            assert refused == (f"block {m} is below the escape threshold "
                               f"(need 2^-2^m <= {threshold})")
        else:
            assert refused is None or "below the escape threshold" not in refused


@settings(max_examples=500)
@given(st.integers(0, 10 ** 12), st.integers(1, 10 ** 12), st.fractions(
    min_value=Fraction(1, 10 ** 6), max_value=HALF, max_denominator=10 ** 6))
def test_band_helper_equals_the_fraction_band(count, size, eps):
    count %= 2 * size + 1
    assert in_half_band(count, size, eps) == fraction_in_band(count, size, eps)
    assert Fraction(*half_offset(eps, 1)) == HALF + eps
    assert Fraction(*half_offset(eps, -1)) == HALF - eps


def test_band_helper_is_false_on_an_empty_interval():
    assert not in_half_band(0, 0, Fraction(1, 4))


@given(st.integers(1, 400), st.fractions(
    min_value=Fraction(1, 1000), max_value=Fraction(499, 1000), max_denominator=1000))
def test_check_band_refuses_exactly_outside_the_band(minimal16, count, eps):
    k = 3  # |I_3| = 289
    size = minimal16.size(k)
    count %= size + 1
    sub = minimal16.first(k, count)
    if fraction_in_band(count, size, eps):
        _check_band(sub, eps)
    else:
        with pytest.raises(ValueError) as info:
            _check_band(sub, eps)
        assert str(info.value) == \
            f"band violated at interval {k}: ratio {Fraction(count, size)}"


@settings(max_examples=300)
@given(eps_pairs(), st.integers(1, 60), st.integers(0, 10 ** 30),
       st.integers(1, 10 ** 30), st.integers(0, 10 ** 30), st.integers(1, 10 ** 31),
       st.booleans())
def test_escape_rule_terms_equal_the_fraction_formulas(pair, k, b, size, e, xc, slalom):
    eps, epsp = pair
    e %= size + 1
    m = k.bit_length() - 1 if slalom else None
    kind = "slalom-chain" if slalom else "centred-chain"
    cards = {"prefix_count": b, "interval_size": size, "escape_count": e,
             "x_count": xc, **({"block": m} if slalom else {})}
    expected = fraction_escape_terms(k, eps, epsp, b, size, e, xc, m)
    if expected is None:
        with pytest.raises(ValueError, match="violates the per-interval band"):
            _RULES[kind](kind, k, eps, epsp, cards)
        return
    steps, rel, bound = _RULES[kind](kind, k, eps, epsp, cards)
    assert chain_terms(steps) == expected
    assert (rel, Fraction(*bound)) == (">=", HALF + eps)


@given(eps_pairs(), st.integers(0, 40), st.integers(0, 10 ** 20),
       st.integers(2, 10 ** 20), st.integers(0, 10 ** 20), st.integers(1, 10 ** 20))
def test_game_rule_bounds_equal_half_plus_or_minus_eps(pair, n, b, size, c, den):
    eps = pair[0]
    c %= size + 1
    kind = "game-case1" if 2 * c > size else "game-case2"
    cards = {"prefix_count": b, "interval_size": size, "s_in_interval": c,
             "ratio_num": c, "ratio_den": den}
    steps, rel, bound = _RULES[kind](kind, n, eps, None, cards)
    assert bound == steps[-1][2]
    assert chain_terms(steps)[-1] == (HALF + eps if kind == "game-case1" else HALF - eps)


# -- the comparison path on recorded chains ---------------------------------


def certificates_of_every_kind(P):
    certs = list(defeat_bisector(Progression(0, 2), Fraction(1, 4), P,
                                 rounds=2).certificates)
    guards = {k: P.first(k, (P.size(k) + 1) // 2) for k in range(5)}
    certs.append(centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4))
    certs.append(laver_escape(half_slalom(P, 3), Fraction(1, 10), Fraction(1, 5), 3)[1])
    assert sorted(c.kind for c in certs) == sorted(CERT_KINDS)
    return certs


def test_every_kind_roundtrips_through_json(minimal16):
    for cert in certificates_of_every_kind(minimal16):
        assert Certificate.loads(cert.dumps()) == cert


def _rewrite(text, how):
    p, _, q = text.partition("/")
    q = q or "1"
    return f"{2 * int(p)}/{2 * int(q)}" if how == "double" else f"0{p}/{q}"


def test_non_canonical_equal_sides_still_verify(minimal16):
    for cert in certificates_of_every_kind(minimal16):
        payload = json.loads(cert.dumps())
        for i, step in enumerate(payload["steps"]):
            step["lhs"] = _rewrite(step["lhs"], "double" if i % 2 else "zero")
            step["rhs"] = _rewrite(step["rhs"], "zero" if i % 2 else "double")
        payload["conclusion"]["bound"] = _rewrite(payload["conclusion"]["bound"], "double")
        assert payload["steps"][0]["lhs"] != str(cert.steps[0].lhs)
        result = verify_certificate(Certificate.from_json(payload))
        assert result, (cert.kind, result)


def _get(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _set(payload, path, value):
    *outer, key = path
    _get(payload, outer)[key] = value


def _term_paths(payload):
    """The path of every recorded term: each step's sides, then the bound."""
    for i in range(len(payload["steps"])):
        yield ("steps", i, "lhs")
        yield ("steps", i, "rhs")
    yield ("conclusion", "bound")


def _moves(text, delta):
    """The term text with its numerator, then its denominator, moved by
    delta, where that changes its value and leaves a positive denominator."""
    p, _, q = text.partition("/")
    num, den = int(p), int(q or 1)
    for n, d in ((num + delta, den), (num, den + delta)):
        if d > 0 and Fraction(n, d) != Fraction(num, den):
            yield f"{n}/{d}"


@pytest.mark.parametrize("delta", [1, -1])
def test_every_side_and_bound_tampering_is_rejected(minimal16, delta):
    # a term's numerator or denominator moved by one is caught at its
    # step and side, or as a conclusion off the chain for the bound
    for cert in certificates_of_every_kind(minimal16):
        text = cert.dumps()
        for path in _term_paths(json.loads(text)):
            reason = (f"step {path[1]} disagrees with recomputation at its {path[2]}"
                      if path[0] == "steps" else "conclusion does not match the chain")
            moves = list(_moves(_get(json.loads(text), path), delta))
            assert moves, (cert.kind, path)
            for moved in moves:
                payload = json.loads(text)
                _set(payload, path, moved)
                result = verify_certificate(Certificate.from_json(payload))
                assert result.reason == reason, (cert.kind, path, moved)


def _tamperings(text):
    """Every single-count +-1 tampering of a certificate, and every term
    moved by one in its numerator or denominator."""
    payload = json.loads(text)
    for delta in (1, -1):
        for key, value in payload["cardinalities"].items():
            bad = json.loads(text)
            bad["cardinalities"][key] = str(int(value) + delta)
            yield bad
        for path in _term_paths(payload):
            for moved in _moves(_get(payload, path), delta):
                bad = json.loads(text)
                _set(bad, path, moved)
                yield bad


@pytest.mark.parametrize("k", [2, 3, 10 ** 20])
def test_a_term_written_as_an_equal_kp_over_kq_still_verifies(minimal16, k):
    for cert in certificates_of_every_kind(minimal16):
        text = cert.dumps()
        for path in _term_paths(json.loads(text)):
            payload = json.loads(text)
            p, _, q = _get(payload, path).partition("/")
            _set(payload, path, f"{k * int(p)}/{k * int(q or 1)}")
            result = verify_certificate(Certificate.from_json(payload))
            assert result, (cert.kind, path, result)


def test_verifying_builds_no_fraction(minimal16, monkeypatch):
    # the rules write pairs and the verifier cross-multiplies: with
    # certificates.Fraction unusable, verdicts do not change
    from rhosplit import certificates

    texts = [cert.dumps() for cert in certificates_of_every_kind(minimal16)]

    def no_fraction(*args):
        raise AssertionError(f"verification built Fraction{args}")

    monkeypatch.setattr(certificates, "Fraction", no_fraction)
    for text in texts:
        assert verify_certificate(Certificate.loads(text))
        for bad in _tamperings(text):
            assert not verify_certificate(Certificate.from_json(bad)), bad


def test_a_zero_ratio_denominator_is_refused_as_fraction_refuses_it(minimal16):
    for cert in certificates_of_every_kind(minimal16):
        num, den = (("ratio_num", "ratio_den") if cert.kind.startswith("game-")
                    else ("escape_count", "x_count"))
        payload = json.loads(cert.dumps())
        payload["cardinalities"][den] = "0"
        result = verify_certificate(Certificate.from_json(payload))
        assert result.reason == \
            f"cannot reconstruct chain: Fraction({cert.cardinalities[num]}, 0)", cert.kind


@pytest.mark.parametrize("boundaries,reason", [
    (["0", "2", "3", "2"], "boundaries are not strictly increasing from 0"),
    (["1", "3", "9"], "boundaries are not strictly increasing from 0"),
    (["0", "2", "2", "40"], "boundaries are not strictly increasing from 0"),
    (["0", "2", "6", "40"], "growth violated at interval 1"),
])
def test_boundary_reasons(minimal16, boundaries, reason):
    # a list that is not increasing reads as such even where growth
    # already fails before the fault
    cert = defeat_bisector(Progression(0, 2), Fraction(1, 4), minimal16).certificates[0]
    payload = json.loads(cert.dumps())
    payload["index"] = 1
    payload["boundaries"] = boundaries
    assert verify_certificate(Certificate.from_json(payload)).reason == reason


# -- the strict readers -----------------------------------------------------

# the readers' grammar as regexes, kept here as the reference
_REF_INTEGER = re.compile(r"-?[0-9]+")
_REF_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def reference_parse_int(value):
    if type(value) is int:
        return value
    if isinstance(value, str) and _REF_INTEGER.fullmatch(value):
        return int(value)
    raise ValueError(f"not an exact integer: {value!r}")


def reference_parse_rational(text):
    m = _REF_RATIONAL.fullmatch(text) if isinstance(text, str) else None
    den = int(m[2] or 1) if m else 0
    if not den:
        raise ValueError(f"not an exact rational p/q: {text!r}")
    return Fraction(int(m[1]), den)


def _outcome(read, value):
    try:
        out = read(value)
    except ValueError as exc:
        return "refused", str(exc)
    return "read", type(out), out


def assert_same_grammar(value):
    assert _outcome(parse_int, value) == _outcome(reference_parse_int, value)
    assert _outcome(parse_rational, value) == _outcome(reference_parse_rational, value)


@pytest.mark.parametrize("value", [
    "٣", "²", "1_0", " 7", "7\n", "-", "--1", "+1", "-0", "007", "1/0", "1/00",
    "1/-2", "1/2/3", "", "/", "1/", "/2", "-3/4", "12/٣", True, 1.0, None, 7, -7,
])
def test_readers_keep_the_reference_grammar_on_examples(value):
    assert_same_grammar(value)


@settings(max_examples=1000)
@given(st.one_of(st.text(alphabet="0123456789-/+_ .e\n٣²", max_size=8),
                 st.text(max_size=6),
                 st.from_regex(_REF_RATIONAL, fullmatch=True)))
def test_readers_keep_the_reference_grammar(value):
    assert_same_grammar(value)


def test_a_json_int_is_an_integer_but_not_a_rational():
    assert parse_int(7) == 7
    for value in (7, True, 1.0, None):
        with pytest.raises(ValueError, match="^not an exact rational p/q: "):
            parse_rational(value)



@pytest.mark.parametrize("value", [4.9, 4.0, True, False, "2_765", " 7", "7 ",
                                   "+7", "٣", "", None, [7]])
def test_parse_int_refuses_all_but_ints_and_digit_strings(value):
    with pytest.raises(ValueError, match="^not an exact integer: "):
        parse_int(value)


def test_parse_int_reads_ints_and_digit_strings():
    assert [parse_int(v) for v in ["0", "-12", 7, "0042"]] == [0, -12, 7, 42]
    with pytest.raises(ValueError, match="^not an exact integer: '1 2'$"):
        parse_int("1 2")


@pytest.mark.parametrize("path,value", [
    (("index",), 4.9),
    (("index",), True),
    (("cardinalities", "escape_count"), 2601.4),
    (("cardinalities", "x_count"), "2_765"),
    (("cardinalities", "x_count"), False),
    (("boundaries", 2), 7.0),
    (("boundaries",), "0271"),
    (("boundaries",), {"0": 1, "2": 1}),
    (("cardinalities",), [["x_count", "1"]]),
])
def test_from_json_refuses_loose_integers(minimal16, path, value):
    guards = {k: minimal16.first(k, (minimal16.size(k) + 1) // 2) for k in range(5)}
    payload = json.loads(centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4).dumps())
    *outer, key = path
    node = payload
    for k in outer:
        node = node[k]
    node[key] = value
    with pytest.raises(ValueError, match="^malformed certificate: "):
        Certificate.from_json(payload)


def test_from_json_reads_json_ints(minimal16):
    guards = {k: minimal16.first(k, (minimal16.size(k) + 1) // 2) for k in range(5)}
    cert = centred_escape(guards, Fraction(1, 10), Fraction(1, 5), 4)
    payload = json.loads(cert.dumps())
    payload["index"] = str(payload["index"])
    payload["cardinalities"] = {k: int(v) for k, v in payload["cardinalities"].items()}
    payload["boundaries"] = [int(b) for b in payload["boundaries"]]
    assert Certificate.from_json(payload) == cert
