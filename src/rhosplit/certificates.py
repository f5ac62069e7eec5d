"""Exact-rational inequality-chain certificates and their re-checker.

A certificate records the raw cardinalities entering one of the interval
escape arguments together with every inequality step.  Each chain is
written once, as a rule in ``_RULES``: the emitters assemble their
certificates with ``emit_certificate`` and the verifier re-derives every
step from the raw cardinalities with the same rule, so any tampering with
a single number is caught by exact arithmetic.  The rules write each
term as an unreduced integer pair (num, den) with den > 0; only the
record holds Fractions, and the verifier decides every equality and
inequality on integers by cross-multiplication.  The verifier also checks
the recorded chain on its own terms: it starts at the certified ratio,
each step's right side is the next step's left side, every relation
points the way of the conclusion, and it ends at a bound outside the
band, so a wrong rule cannot make it accept an unsound chain.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, NamedTuple

from ._util import half_offset, in_half_band, parse_int, parse_rational, proper_width
from .partitions import growth_violation, order_fault

__all__ = [
    "Step",
    "Certificate",
    "VerifyResult",
    "emit_certificate",
    "verify_certificate",
    "CERT_KINDS",
]

_REL = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
        ">=": operator.ge, ">": operator.gt}


def _holds(a: tuple[int, int], rel: str, b: tuple[int, int]) -> bool:
    """a rel b for rationals written as pairs (num, den) with den > 0."""
    return _REL[rel](a[0] * b[1], b[0] * a[1])


def _pair(x: Fraction) -> tuple[int, int]:
    return x.numerator, x.denominator


class Step(NamedTuple):
    lhs: Fraction
    rel: str
    rhs: Fraction

    def holds(self) -> bool:
        return _holds(_pair(self.lhs), self.rel, _pair(self.rhs))

    def to_json(self) -> dict:
        return {"lhs": str(self.lhs), "rel": self.rel, "rhs": str(self.rhs)}


def _read_chain(steps, bound) -> tuple[tuple[Step, ...], Fraction]:
    """The recorded steps and conclusion bound.  A chain repeats its terms:
    each step's lhs is the previous step's rhs, and the bound is the last
    rhs, so a side written as the string before it is not parsed again."""
    out: list[Step] = []
    text = value = None
    for s in steps:
        lhs = value if out and s["lhs"] == text else parse_rational(s["lhs"])
        text = s["rhs"]
        value = parse_rational(text)
        out.append(Step(lhs, _text(s["rel"], "rel"), value))
    return tuple(out), value if out and bound == text else parse_rational(bound)


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string: {value!r}")
    return value


@dataclass(frozen=True)
class Certificate:
    """Transcript of one escape argument, independently re-checkable."""

    kind: str
    index: int
    eps: Fraction
    eps_prime: Fraction | None
    cardinalities: Mapping[str, int]
    steps: tuple[Step, ...]
    conclusion_rel: str
    conclusion_bound: Fraction
    boundaries: tuple[int, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "index": self.index,
            "eps": str(self.eps),
            "eps_prime": str(self.eps_prime) if self.eps_prime is not None else None,
            "cardinalities": {k: str(v) for k, v in sorted(self.cardinalities.items())},
            "steps": [s.to_json() for s in self.steps],
            "conclusion": {"rel": self.conclusion_rel,
                           "bound": str(self.conclusion_bound)},
            "boundaries": [str(b) for b in self.boundaries],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "Certificate":
        # certificates are untrusted JSON: a wrong shape (a list where an
        # object belongs, a number where a list does), a kind or relation
        # that is not a string, an integer that is not a JSON int or a
        # "-?[0-9]+" string, or a rational that is not a "p/q" string (an
        # eps_prime may also be absent or null) is a ValueError
        try:
            cards, bounds = obj["cardinalities"], obj.get("boundaries", [])
            if not isinstance(cards, dict) or not isinstance(bounds, list):
                raise ValueError("cardinalities must be an object and boundaries a list")
            steps, bound = _read_chain(obj["steps"], obj["conclusion"]["bound"])
            eps_prime = obj.get("eps_prime")
            return cls(
                kind=_text(obj["kind"], "kind"),
                index=parse_int(obj["index"]),
                eps=parse_rational(obj["eps"]),
                eps_prime=None if eps_prime is None else parse_rational(eps_prime),
                cardinalities={k: parse_int(v) for k, v in cards.items()},
                steps=steps,
                conclusion_rel=_text(obj["conclusion"]["rel"], "rel"),
                conclusion_bound=bound,
                boundaries=tuple(map(parse_int, bounds)),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed certificate: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        return cls.from_json(json.loads(text))


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self):
        return self.ok


def _fail(reason: str) -> VerifyResult:
    return VerifyResult(False, reason)


def _need(cards: Mapping[str, int], *keys: str):
    missing = [k for k in keys if k not in cards]
    if missing:
        raise KeyError(", ".join(missing))
    return [cards[k] for k in keys]


def _ratio(num: int, den: int) -> tuple[int, int]:
    """The pair (num, den), refused as Fraction(num, den) refuses den 0."""
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    return num, den


def _chain(terms, rels) -> tuple:
    """Steps (terms[0], rels[0], terms[1]), (terms[1], rels[1], terms[2]),
    ...; the terms are pairs, checked in order for a zero denominator."""
    for term in terms:
        _ratio(*term)
    return tuple(zip(terms, rels, terms[1:]))


def _game_rule(kind, n, eps, eps_prime, cards):
    b, size, c, num, den = _need(
        cards, "prefix_count", "interval_size", "s_in_interval", "ratio_num", "ratio_den",
    )
    realized = _ratio(num, den)
    if kind == "game-case1":
        if 2 * c <= size:
            raise ValueError("case-1 certificate without |S∩I_n| > |I_n|/2")
        bound = half_offset(eps, 1)
        terms = (realized, (c, b + c), (size, 2 * b + size), (2 ** n, 2 ** n + 2), bound)
        return _chain(terms, (">=", ">", ">", ">=")), ">=", bound
    if 2 * c > size:
        raise ValueError("case-2 certificate without |S∩I_n| <= |I_n|/2")
    bound = half_offset(eps, -1)
    terms = (realized, (b, size - c), (2 * b, size), (2, 2 ** n), bound)
    return _chain(terms, ("<=", "<=", "<", "<=")), "<=", bound


def _escape_rule(kind, k, eps, eps_prime, cards):
    """Centred chain; the slalom chain adds the block step c3 >= c4."""
    keys = ("prefix_count", "interval_size", "escape_count", "x_count")
    slalom = kind == "slalom-chain"
    b, size, e, xc, *block = _need(cards, *keys, *(("block",) if slalom else ()))
    if eps_prime is None:
        raise ValueError(f"{kind} needs eps_prime")
    if not in_half_band(e, size, eps_prime):
        raise ValueError("escape count violates the per-interval band")
    # with 1/2 - eps' = low / den, every term is one pair of integers:
    # t = (1/2 - eps')|I_k| gives t / (b + t) = low |I_k| / (den b + low |I_k|)
    low, den = half_offset(eps_prime, -1)
    t = low * size

    def c(j):  # 1 / (2^-j / (1/2 - eps') + 1)
        return low << j, den + (low << j)

    terms = [(e, xc), (e, b + e), (t, den * b + t), c(k)]
    rels = [">=", ">", ">", ">="]
    if slalom:
        m = block[0]
        if m != k.bit_length() - 1:  # 2^m <= k < 2^(m+1), with no 2^m built
            raise ValueError("interval index does not belong to the stated block")
        terms.append(c(2 ** m))
        rels.append(">=")
    bound = half_offset(eps, 1)
    terms.append(bound)
    return _chain(terms, rels), ">=", bound


# the one definition of each chain: kind -> rule from (kind, index, eps,
# eps_prime, cardinalities) to (steps, conclusion_rel, conclusion_bound),
# each step a triple (lhs, rel, rhs) and every term a pair (num, den)
_RULES = {
    "game-case1": _game_rule,
    "game-case2": _game_rule,
    "centred-chain": _escape_rule,
    "slalom-chain": _escape_rule,
}
CERT_KINDS = tuple(_RULES)

_DIRECTION = {">": ">", ">=": ">", "<": "<", "<=": "<"}


def emit_certificate(kind: str, index: int, eps: Fraction,
                     eps_prime: Fraction | None, cardinalities: Mapping[str, int],
                     boundaries) -> Certificate:
    """Assemble the certificate of ``kind`` from its rule; every step must hold."""
    steps, rel, bound = _RULES[kind](kind, index, eps, eps_prime, cardinalities)
    for step in steps:
        assert _holds(*step), f"emitted step fails: {step}"
    record = tuple(Step(Fraction(*a), r, Fraction(*b)) for a, r, b in steps)
    return Certificate(kind, index, eps, eps_prime, cardinalities, record, rel,
                       Fraction(*bound), tuple(boundaries))


def _unsound(cert: Certificate, steps, bound, ratio) -> str | None:
    """Why the recorded chain, given as pairs, fails to carry ratio to an
    escape, if it does."""
    if not steps or not _holds(steps[0][0], "=", ratio):
        return "chain does not start at the certified ratio"
    for i, (a, b) in enumerate(zip(steps, steps[1:])):
        if not _holds(a[2], "=", b[0]):
            return f"chain breaks between steps {i} and {i + 1}"
    if not _holds(steps[-1][2], "=", bound):
        return "chain does not end at the conclusion bound"
    way = _DIRECTION.get(cert.conclusion_rel)
    if way is None or any(_DIRECTION.get(rel) != way for _, rel, _ in steps):
        return "a step points against the conclusion"
    if cert.conclusion_rel == way and all(rel != way for _, rel, _ in steps):
        return "strict conclusion from a chain of non-strict steps"
    if (_holds(bound, "<", half_offset(cert.eps, 1)) if way == ">"
            else _holds(bound, ">", half_offset(cert.eps, -1))):
        return "conclusion bound lies inside the band"
    return None


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Re-derive the whole chain from raw cardinalities and compare, then
    check that the recorded chain runs from the certified ratio to the
    conclusion bound."""
    if cert.kind not in _RULES:
        return _fail(f"unknown certificate kind {cert.kind!r}")
    if not proper_width(cert.eps):
        return _fail("eps outside (0, 1/2)")
    if cert.eps_prime is not None and not proper_width(cert.eps_prime):
        return _fail("eps_prime outside (0, 1/2)")
    if cert.index < 0:
        return _fail("negative interval index")
    cards = cert.cardinalities
    if any(v < 0 for v in cards.values()):
        return _fail("negative cardinality")
    # the growth law gives |I_n| > 2^(n+1), so an honest index stays below
    # the bit length of the interval size; this also keeps 2^n small
    size = cards.get("interval_size")
    if size is not None and cert.index >= size.bit_length():
        return _fail("interval index too large for the interval size")
    # boundary consistency when boundaries are embedded
    if cert.boundaries:
        bs = cert.boundaries
        n = cert.index
        if len(bs) < n + 2:
            return _fail("boundary list too short for the chosen interval")
        if order_fault(bs) is not None:
            return _fail("boundaries are not strictly increasing from 0")
        violation = growth_violation(bs)
        if violation is not None:
            return _fail(f"growth violated at interval {violation}")
        if cards.get("prefix_count") != bs[n]:
            return _fail("prefix_count disagrees with the boundaries")
        if size != bs[n + 1] - bs[n]:
            return _fail("interval_size disagrees with the boundaries")
    try:
        steps, rel, bound = _RULES[cert.kind](
            cert.kind, cert.index, cert.eps, cert.eps_prime, cards)
        # the certified ratio, read apart from the rules so that the
        # chain's endpoints are checked on their own
        num, den = (("ratio_num", "ratio_den") if cert.kind.startswith("game-")
                    else ("escape_count", "x_count"))
        ratio = _ratio(cards[num], cards[den])
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return _fail(f"cannot reconstruct chain: {exc}")
    if len(steps) != len(cert.steps):
        return _fail(f"expected {len(steps)} steps, found {len(cert.steps)}")
    recorded = [(_pair(s.lhs), s.rel, _pair(s.rhs)) for s in cert.steps]
    for i, (exp, got) in enumerate(zip(steps, recorded)):
        if not _holds(exp[0], "=", got[0]):
            return _fail(f"step {i} disagrees with recomputation at its lhs")
        if exp[1] != got[1]:
            return _fail(f"step {i} disagrees with recomputation at its rel")
        if not _holds(exp[2], "=", got[2]):
            return _fail(f"step {i} disagrees with recomputation at its rhs")
        if not _holds(*got):
            return _fail(f"step {i} inequality fails: {cert.steps[i]}")
    recorded_bound = _pair(cert.conclusion_bound)
    if cert.conclusion_rel != rel or not _holds(recorded_bound, "=", bound):
        return _fail("conclusion does not match the chain")
    # sanity: within-interval counts cannot exceed the interval
    for key in ("s_in_interval", "escape_count"):
        if key in cards and size is not None and cards[key] > size:
            return _fail(f"{key} exceeds the interval size")
    reason = _unsound(cert, recorded, recorded_bound, ratio)
    return _fail(reason) if reason else VerifyResult(True)
