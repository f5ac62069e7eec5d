import numpy as np
import pytest
from fractions import Fraction

from rhosplit import (
    BernoulliSet,
    IntervalSymbolicSet,
    Progression,
    build_partition,
)


@pytest.fixture(scope="session")
def minimal16():
    return build_partition("minimal", 16)


@pytest.fixture(scope="session")
def splitter_battery(minimal16):
    """The adversary battery: evens, odds, a Bernoulli trace capped to
    explicit-scale intervals, first-half-per-interval, and alternating
    full/empty intervals (kept infinite by full even intervals)."""
    P = minimal16
    bern = BernoulliSet(Fraction(1, 2), 7)
    cap_values = {}
    k = 0
    # trace descriptors only on intervals that end below the explicit cap
    while P.boundary(k + 1) <= 1 << 27 and k < 8:
        cap_values[k] = P.trace(k, bern)
        k += 1
    # structured halves above the cap
    for j in range(k, 12):
        cap_values[j] = P.first(j, (P.size(j) + 1) // 2)
    bern_symbolic = IntervalSymbolicSet(P, cap_values, default="singleton")
    first_half = IntervalSymbolicSet(
        P, {j: P.first(j, (P.size(j) + 1) // 2) for j in range(12)},
        default="singleton",
    )
    alternating = IntervalSymbolicSet(
        P,
        {j: (P.full(j) if j % 2 == 0 else P.empty(j)) for j in range(12)},
        default="singleton",
    )
    return {
        "evens": Progression(0, 2),
        "odds": Progression(1, 2),
        "bernoulli-trace": bern_symbolic,
        "first-half": first_half,
        "alternating": alternating,
    }


def brute_count(pred, n):
    return sum(1 for k in range(n) if pred(k))


def bits_of(s, n):
    return np.asarray(s.materialize(n), dtype=bool)
