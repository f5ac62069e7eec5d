"""Shared exact-arithmetic and deterministic-hashing helpers."""

from __future__ import annotations

import re
from fractions import Fraction

MASK64 = (1 << 64) - 1
GOLDEN64 = 0x9E3779B97F4A7C15
# splitmix64 finaliser multipliers
MIX_M1 = 0xBF58476D1CE4E5B9
MIX_M2 = 0x94D049BB133111EB

HALF = Fraction(1, 2)


def mix64(x: int) -> int:
    """64-bit avalanche (splitmix64 finaliser); pure function of x mod 2^64."""
    x &= MASK64
    x ^= x >> 30
    x = (x * MIX_M1) & MASK64
    x ^= x >> 27
    x = (x * MIX_M2) & MASK64
    x ^= x >> 31
    return x


def derive_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed, order-sensitive."""
    acc = GOLDEN64
    for p in parts:
        acc = mix64(acc ^ ((p * MIX_M1) & MASK64))
    return acc


# a rational as a person writes it: digits, p/q or a plain decimal, with
# no exponent (Fraction would build 10**e for one)
_NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def as_fraction(value) -> Fraction:
    """Exact Fraction from int, str ('p/q', digits or a plain decimal) or
    Fraction.  Any other string is a ValueError, and a zero denominator
    a ZeroDivisionError.

    Floats are read through their decimal literal so that 0.1 means 1/10,
    not the binary double nearest to it.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        if not _NUMBER.fullmatch(value):
            raise ValueError(f"not a rational p/q or decimal: {value!r}")
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


# The readers below check the grammar -?[0-9]+ and -?[0-9]+/[0-9]+ with
# str methods: isdigit() on an ASCII string holds exactly for one or more
# of 0-9, and the ASCII check keeps out "٣" and "²", which isdigit() takes.


def parse_rational(text) -> Fraction:
    """Exact Fraction from an untrusted "p/q" or "p" string, the forms
    ``str(Fraction)`` writes.  Anything else is a ValueError: a float, an
    exponent (Fraction would build 10**e for it), a zero denominator."""
    if isinstance(text, str) and text.isascii():
        p, slash, q = text.partition("/")
        if p.removeprefix("-").isdigit():
            if not slash:
                return Fraction(int(p))
            if q.isdigit() and (den := int(q)):
                return Fraction(int(p), den)
    raise ValueError(f"not an exact rational p/q: {text!r}")


def parse_int(value) -> int:
    """Exact int from an untrusted JSON int (not a bool) or a "-?[0-9]+"
    string.  Anything else is a ValueError: a float, which int() would
    truncate, or a string such as "2_765" or " 7", which int() accepts."""
    if type(value) is int:
        return value
    if isinstance(value, str) and value.isascii() and value.removeprefix("-").isdigit():
        return int(value)
    raise ValueError(f"not an exact integer: {value!r}")


def proper_width(eps: Fraction) -> bool:
    """Whether eps is a proper band width, 0 < eps < 1/2, on integers."""
    return 0 < 2 * eps.numerator < eps.denominator


def half_offset(eps: Fraction, sign: int) -> tuple[int, int]:
    """1/2 + eps (sign 1) or 1/2 - eps (sign -1), as an unreduced pair
    (num, den) with den > 0."""
    return eps.denominator + 2 * sign * eps.numerator, 2 * eps.denominator


def in_half_band(count: int, size: int, eps: Fraction) -> bool:
    """Whether count/size lies strictly inside (1/2 - eps, 1/2 + eps), for
    size >= 0 (false at size 0), decided on integers:
    |2 count - size| / (2 size) < eps."""
    return abs(2 * count - size) * eps.denominator < 2 * eps.numerator * size


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)
