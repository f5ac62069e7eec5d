"""Exact-rational inequality-chain certificates and their re-checker.

A certificate records the raw cardinalities entering one of the interval
escape arguments together with every inequality step.  The verifier
reconstructs each step from the raw cardinalities alone and compares it
with what was recorded, so any tampering with a single number is caught
by exact arithmetic.  It deliberately re-derives the chains rather than
sharing code with the emitters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from ._util import HALF

__all__ = [
    "Step",
    "Certificate",
    "VerifyResult",
    "verify_certificate",
    "CERT_KINDS",
]

CERT_KINDS = ("game-case1", "game-case2", "centred-chain", "slalom-chain")

_REL = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class Step:
    lhs: Fraction
    rel: str
    rhs: Fraction

    def holds(self) -> bool:
        return _REL[self.rel](self.lhs, self.rhs)

    def to_json(self) -> dict:
        return {"lhs": str(self.lhs), "rel": self.rel, "rhs": str(self.rhs)}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Step":
        return cls(Fraction(obj["lhs"]), obj["rel"], Fraction(obj["rhs"]))


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

    def conclusion(self) -> str:
        return f"ratio {self.conclusion_rel} {self.conclusion_bound}"

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
        return cls(
            kind=obj["kind"],
            index=int(obj["index"]),
            eps=Fraction(obj["eps"]),
            eps_prime=Fraction(obj["eps_prime"]) if obj.get("eps_prime") else None,
            cardinalities={k: int(v) for k, v in obj["cardinalities"].items()},
            steps=tuple(Step.from_json(s) for s in obj["steps"]),
            conclusion_rel=obj["conclusion"]["rel"],
            conclusion_bound=Fraction(obj["conclusion"]["bound"]),
            boundaries=tuple(int(b) for b in obj.get("boundaries", ())),
        )

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


def _expected_game(cert: Certificate):
    b, size, c, num, den = _need(
        cert.cardinalities,
        "prefix_count", "interval_size", "s_in_interval", "ratio_num", "ratio_den",
    )
    n, eps = cert.index, cert.eps
    realized = Fraction(num, den)
    if cert.kind == "game-case1":
        if 2 * c <= size:
            raise ValueError("case-1 certificate without |S∩I_n| > |I_n|/2")
        steps = (
            Step(realized, ">=", Fraction(c, b + c)),
            Step(Fraction(c, b + c), ">", Fraction(size, 2 * b + size)),
            Step(Fraction(size, 2 * b + size), ">", Fraction(2 ** n, 2 ** n + 2)),
            Step(Fraction(2 ** n, 2 ** n + 2), ">=", HALF + eps),
        )
        return steps, ">=", HALF + eps
    if 2 * c > size:
        raise ValueError("case-2 certificate without |S∩I_n| <= |I_n|/2")
    steps = (
        Step(realized, "<=", Fraction(b, size - c)),
        Step(Fraction(b, size - c), "<=", Fraction(2 * b, size)),
        Step(Fraction(2 * b, size), "<", Fraction(2, 2 ** n)),
        Step(Fraction(2, 2 ** n), "<=", HALF - eps),
    )
    return steps, "<=", HALF - eps


def _expected_centred(cert: Certificate):
    b, size, e, xc = _need(
        cert.cardinalities,
        "prefix_count", "interval_size", "escape_count", "x_count",
    )
    n, eps, epsp = cert.index, cert.eps, cert.eps_prime
    if epsp is None:
        raise ValueError("centred chain needs eps_prime")
    if not ((HALF - epsp) * size < e < (HALF + epsp) * size):
        raise ValueError("escape count violates the per-interval band")
    t = (HALF - epsp) * size
    c3_denom = Fraction(1, 2 ** n) / (HALF - epsp) + 1
    steps = (
        Step(Fraction(e, xc), ">=", Fraction(e, b + e)),
        Step(Fraction(e, b + e), ">", t / (b + t)),
        Step(t / (b + t), ">", 1 / c3_denom),
        Step(1 / c3_denom, ">=", HALF + eps),
    )
    return steps, ">=", HALF + eps


def _expected_slalom(cert: Certificate):
    b, size, e, xc, block = _need(
        cert.cardinalities,
        "prefix_count", "interval_size", "escape_count", "x_count", "block",
    )
    k, eps, epsp = cert.index, cert.eps, cert.eps_prime
    if epsp is None:
        raise ValueError("slalom chain needs eps_prime")
    if k < 2 ** block or k >= 2 ** (block + 1):
        raise ValueError("interval index does not belong to the stated block")
    if not ((HALF - epsp) * size < e < (HALF + epsp) * size):
        raise ValueError("escape count violates the per-interval band")
    t = (HALF - epsp) * size
    c3_denom = Fraction(1, 2 ** k) / (HALF - epsp) + 1
    c4_denom = Fraction(1, 2 ** (2 ** block)) / (HALF - epsp) + 1
    steps = (
        Step(Fraction(e, xc), ">=", Fraction(e, b + e)),
        Step(Fraction(e, b + e), ">", t / (b + t)),
        Step(t / (b + t), ">", 1 / c3_denom),
        Step(1 / c3_denom, ">=", 1 / c4_denom),
        Step(1 / c4_denom, ">=", HALF + eps),
    )
    return steps, ">=", HALF + eps


_EXPECTED = {
    "game-case1": _expected_game,
    "game-case2": _expected_game,
    "centred-chain": _expected_centred,
    "slalom-chain": _expected_slalom,
}


def verify_certificate(cert: Certificate) -> VerifyResult:
    """Re-derive the whole chain from raw cardinalities and compare."""
    if cert.kind not in _EXPECTED:
        return _fail(f"unknown certificate kind {cert.kind!r}")
    if not (0 < cert.eps < HALF):
        return _fail("eps outside (0, 1/2)")
    if cert.eps_prime is not None and not (0 < cert.eps_prime < HALF):
        return _fail("eps_prime outside (0, 1/2)")
    cards = cert.cardinalities
    if any(v < 0 for v in cards.values()):
        return _fail("negative cardinality")
    # boundary consistency when boundaries are embedded
    if cert.boundaries:
        bs = cert.boundaries
        n = cert.index
        if len(bs) < n + 2:
            return _fail("boundary list too short for the chosen interval")
        if bs[0] != 0 or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            return _fail("boundaries are not strictly increasing from 0")
        if bs[1] - bs[0] < 2:
            return _fail("growth violated: |I_0| < 2")
        for j in range(1, n + 1):
            if bs[j + 1] - bs[j] <= (1 << j) * bs[j]:
                return _fail(f"growth violated at interval {j}")
        if cards.get("prefix_count") != bs[n]:
            return _fail("prefix_count disagrees with the boundaries")
        if cards.get("interval_size") != bs[n + 1] - bs[n]:
            return _fail("interval_size disagrees with the boundaries")
    try:
        steps, rel, bound = _EXPECTED[cert.kind](cert)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return _fail(f"cannot reconstruct chain: {exc}")
    if len(steps) != len(cert.steps):
        return _fail(f"expected {len(steps)} steps, found {len(cert.steps)}")
    for i, (exp, got) in enumerate(zip(steps, cert.steps)):
        if exp != got:
            return _fail(f"step {i} disagrees with recomputation: "
                         f"recorded {got}, derived {exp}")
        if not got.holds():
            return _fail(f"step {i} inequality fails: {got}")
    if cert.conclusion_rel != rel or cert.conclusion_bound != bound:
        return _fail("conclusion does not match the chain")
    # sanity: within-interval counts cannot exceed the interval
    size = cards.get("interval_size")
    for key in ("s_in_interval", "escape_count"):
        if key in cards and size is not None and cards[key] > size:
            return _fail(f"{key} exceeds the interval size")
    return VerifyResult(True)
