"""Finite relational systems: exact bounding/dominating numbers, duality,
Tukey-connection checking, and the doubling-enumeration zero-split bound.

Brute force here is exact and intended for universes of at most ~20
points per side; the dominating number is a minimum set cover solved by
branch and bound on the least uncovered row.  Truncations of the
classical infinite systems are emitted for inspection only and claim
nothing about the infinite invariants.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from operator import and_

from ._util import as_fraction
from .omega_sets import OmegaSet

__all__ = [
    "FiniteRelSys",
    "TukeyPair",
    "TukeyVerdict",
    "bounding_number",
    "dominating_number",
    "dual",
    "check_tukey",
    "zero_split_check",
    "ZeroSplitReport",
    "random_system",
    "pullback_pair",
    "gallery_dom",
    "gallery_reap",
    "gallery_reap_rho",
]


@dataclass(frozen=True)
class FiniteRelSys:
    """A relational system (X, rel, Y) with rel as a row-major boolean
    matrix: rel[i][j] iff x_i is related below y_j.  The same relation is
    kept as bitmasks: bit j of row_masks[i] and bit i of col_masks[j] are
    set iff rel[i][j]."""

    x_labels: tuple[str, ...]
    y_labels: tuple[str, ...]
    rel: tuple[tuple[bool, ...], ...]
    row_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    col_masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.rel) != len(self.x_labels):
            raise ValueError("relation has wrong number of rows")
        ny = len(self.y_labels)
        rows, cols = [], [0] * ny
        for i, row in enumerate(self.rel):
            if len(row) != ny:
                raise ValueError("relation has wrong number of columns")
            mask = 0
            for j, related in enumerate(row):
                if related:
                    mask |= 1 << j
                    cols[j] |= 1 << i
            rows.append(mask)
        object.__setattr__(self, "row_masks", tuple(rows))
        object.__setattr__(self, "col_masks", tuple(cols))

    @property
    def nx(self) -> int:
        return len(self.x_labels)

    @property
    def ny(self) -> int:
        return len(self.y_labels)

    def _fault(self) -> str | None:
        """The first empty row, else the first column related to every row,
        else an empty X, of which no subset is unbounded."""
        rows = self.row_masks
        if 0 in rows:
            return f"domain condition fails: row {self.x_labels[rows.index(0)]!r} is empty"
        common = reduce(and_, rows, (1 << self.ny) - 1)
        if common:
            j = (common & -common).bit_length() - 1
            return f"column {self.y_labels[j]!r} dominates every point"
        if not rows:
            return "X has no points"
        return None

    def validate(self):
        """Total domain (every row related to something), no single
        dominating column, and at least one point in X."""
        fault = self._fault()
        if fault is not None:
            raise ValueError(fault)

    def to_json(self) -> dict:
        return {
            "X": list(self.x_labels),
            "Y": list(self.y_labels),
            "rel": ["".join("1" if b else "0" for b in row) for row in self.rel],
        }

    @classmethod
    def from_json(cls, obj) -> "FiniteRelSys":
        """The system that ``to_json`` wrote, read as untrusted input: X
        and Y are lists of strings and rel a list of strings over {0, 1};
        anything else is a "malformed system" ValueError."""
        parts = [obj.get(key) if isinstance(obj, dict) else None for key in ("X", "Y", "rel")]
        for key, part in zip(("X", "Y", "rel"), parts):
            if not (isinstance(part, list) and all(isinstance(v, str) for v in part)):
                raise ValueError(f"malformed system: {key} must be a list of strings")
        xs, ys, rows = parts
        if any(set(row) - {"0", "1"} for row in rows):
            raise ValueError("malformed system: rel rows must be strings over {0, 1}")
        return cls(tuple(xs), tuple(ys), tuple(tuple(ch == "1" for ch in row) for row in rows))


def bounding_number(R: FiniteRelSys) -> int:
    """Smallest size of a subset of X that no single y bounds entirely."""
    R.validate()
    masks = R.row_masks
    for k in range(1, R.nx + 1):
        for combo in combinations(range(R.nx), k):
            acc = masks[combo[0]]
            for i in combo[1:]:
                acc &= masks[i]
            if acc == 0:
                return k
    raise AssertionError("validated system must have an unbounded subset")


def dominating_number(R: FiniteRelSys) -> int:
    """Smallest size of a subset of Y covering every x (exact set cover)."""
    R.validate()
    cols = R.col_masks
    full = (1 << R.nx) - 1

    # greedy upper bound
    covered, used = 0, 0
    while covered != full:
        best = max(range(R.ny), key=lambda j: bin(cols[j] & ~covered).count("1"))
        covered |= cols[best]
        used += 1
    best_size = used

    def search(covered: int, used: int):
        nonlocal best_size
        if covered == full:
            best_size = min(best_size, used)
            return
        if used + 1 >= best_size:
            return
        # branch on the least uncovered row
        i = next(b for b in range(R.nx) if not covered & (1 << b))
        for j in range(R.ny):
            if cols[j] & (1 << i):
                search(covered | cols[j], used + 1)

    search(0, 0)
    return best_size


def dual(R: FiniteRelSys) -> FiniteRelSys:
    """(Y, not-related-transposed, X); conditions hold automatically for a
    valid input, so a failure here is an implementation bug."""
    R.validate()
    rel = tuple(
        tuple(not R.rel[i][j] for i in range(R.nx)) for j in range(R.ny)
    )
    out = FiniteRelSys(R.y_labels, R.x_labels, rel)
    out.validate()
    return out


@dataclass(frozen=True)
class TukeyPair:
    """Index maps F: X0 -> X1 and G: Y1 -> Y0."""

    f: tuple[int, ...]
    g: tuple[int, ...]


@dataclass(frozen=True)
class TukeyVerdict:
    holds: bool
    counterexample: tuple[int, int] | None = None

    def __bool__(self):
        return self.holds


def check_tukey(R0: FiniteRelSys, R1: FiniteRelSys,
                pair: TukeyPair) -> TukeyVerdict:
    """Exhaustively verify: rel1[F(x0)][y1] implies rel0[x0][G(y1)].

    Returns the least counterexample (x0, y1) in input order on failure.
    """
    if len(pair.f) != R0.nx:
        raise ValueError("F must be total on X0")
    if len(pair.g) != R1.ny:
        raise ValueError("G must be total on Y1")
    for i in pair.f:
        if not 0 <= i < R1.nx:
            raise ValueError("F maps outside X1")
    for j in pair.g:
        if not 0 <= j < R0.ny:
            raise ValueError("G maps outside Y0")
    for x0 in range(R0.nx):
        for y1 in range(R1.ny):
            if R1.rel[pair.f[x0]][y1] and not R0.rel[x0][pair.g[y1]]:
                return TukeyVerdict(False, (x0, y1))
    return TukeyVerdict(True)


# -- zero-split bound for the doubling enumeration map -----------------------


@dataclass(frozen=True)
class ZeroSplitWindow:
    n: int
    max_ratio: Fraction
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class ZeroSplitReport:
    windows: tuple[ZeroSplitWindow, ...]
    threshold: int
    zero_splits: bool

    @property
    def bound_holds(self) -> bool:
        return all(w.ok for w in self.windows)

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "zero_splits": self.zero_splits,
            "windows": [
                {"n": w.n, "max_ratio": str(w.max_ratio),
                 "bound": str(w.bound), "ok": w.ok}
                for w in self.windows
            ],
        }


# a final window ratio at most this counts as a numerical 0-split
ZERO_SPLIT_TOLERANCE = Fraction(1, 20)


def zero_split_check(R: OmegaSet, x: OmegaSet, N: int,
                     max_window: int) -> ZeroSplitReport:
    """Verify the (N+n)/2^n ratio bound for the doubling enumeration map.

    Hypothesis: the 2^n-th element of R is at most x(n) for every
    n >= N (violations are reported with the offending n).  For each
    window between consecutive doubling elements of R, the exact maximum
    of |ran(x) ∩ R ∩ k| / |R ∩ k| is compared against (N+n)/2^n; the
    bound is provable for N >= 1.  The verdict says whether ran(x)
    0-splits R numerically (final window ratio within tolerance of 0).

    Windows are indexed by n, not by a value horizon: the elements
    involved grow doubly exponentially, so all counting is sparse.
    """
    if max_window < N:
        raise ValueError("need at least one window at or above the threshold")
    probe = 10 ** 6
    if x.count_below(probe) >= probe:
        raise ValueError("x must have co-infinite range (density below 1)")
    for n in range(N, max_window + 2):
        r = R.kth_element(2 ** n)
        xv = x.kth_element(n)
        if r > xv:
            raise ValueError(
                f"hypothesis fails at n={n}: R's 2^n-th element {r} exceeds x(n)={xv}"
            )
    windows = []
    for n in range(N, max_window + 1):
        lo = R.kth_element(2 ** n)
        hi = R.kth_element(2 ** (n + 1))
        # ratio maxima occur at the window start and just past each
        # element of ran(x) ∩ R inside the window; hits lists ran(x) ∩ R
        # below hi in increasing order
        candidates, hits, j = [lo + 1], [], 0
        while (xe := x.kth_element(j)) < hi:
            if R.contains(xe):
                hits.append(xe)
                if xe > lo:
                    candidates.append(xe + 1)
            j += 1
        best = max(Fraction(bisect_left(hits, k), R.count_below(k))
                   for k in candidates)
        bound = Fraction(N + n, 2 ** n)
        windows.append(ZeroSplitWindow(n, best, bound, best <= bound))
    zero = windows[-1].max_ratio <= ZERO_SPLIT_TOLERANCE
    return ZeroSplitReport(tuple(windows), N, zero)


# -- random batteries and gallery truncations ---------------------------------


def random_system(rng: random.Random, nx: int, ny: int) -> FiniteRelSys:
    """Random valid system by rejection sampling: each pair is related
    with probability 1/2."""
    xs = tuple(f"x{i}" for i in range(nx))
    ys = tuple(f"y{j}" for j in range(ny))
    for _ in range(1000):
        rel = tuple(
            tuple(rng.random() < 0.5 for _ in range(ny))
            for _ in range(nx)
        )
        sys_ = FiniteRelSys(xs, ys, rel)
        if sys_._fault() is None:
            return sys_
    raise RuntimeError("could not sample a valid system")


def pullback_pair(rng: random.Random, R1: FiniteRelSys, nx0: int, ny0: int,
                  max_tries: int = 1000):
    """Random (R0, pair) with the connection accepted by construction:
    R0's relation is the pullback rel0[x0][y0] iff some y1 with
    G(y1) = y0 satisfies rel1[F(x0)][y1]."""
    for _ in range(max_tries):
        f = tuple(rng.randrange(R1.nx) for _ in range(nx0))
        g = tuple(rng.randrange(ny0) for _ in range(R1.ny))
        rel0 = []
        for x0 in range(nx0):
            row = [False] * ny0
            for y1 in range(R1.ny):
                if R1.rel[f[x0]][y1]:
                    row[g[y1]] = True
            rel0.append(tuple(row))
        R0 = FiniteRelSys(
            tuple(f"a{i}" for i in range(nx0)),
            tuple(f"b{j}" for j in range(ny0)),
            tuple(rel0),
        )
        try:
            R0.validate()
        except ValueError:
            continue
        pair = TukeyPair(f, g)
        assert check_tukey(R0, R1, pair).holds
        return R0, pair
    raise RuntimeError("could not sample an accepted pullback pair")


def gallery_dom(length: int, height: int) -> FiniteRelSys:
    """Truncated domination system, inspection only.

    X is the grid {0..height}^length minus its top; Y holds the coatoms
    (top lowered by one in a single coordinate); the relation is
    pointwise <=.  Every x misses the top somewhere, so some coatom
    dominates it, while no single coatom dominates the others.  Needs
    length >= 2."""
    if length < 2:
        raise ValueError("need at least two coordinates")
    top = tuple([height] * length)
    xs = [x for x in product(range(height + 1), repeat=length) if x != top]
    ys = [tuple(height if i != j else height - 1 for i in range(length))
          for j in range(length)]
    rel = tuple(
        tuple(all(a <= b for a, b in zip(fx, fy)) for fy in ys) for fx in xs
    )
    return FiniteRelSys(
        tuple(str(list(t)) for t in xs),
        tuple(str(list(t)) for t in ys),
        rel,
    )


def _set_gallery(universe: int, min_size: int, related) -> FiniteRelSys:
    """The subsets of range(universe) with at least min_size points, in
    bitmask order, on both sides; S is related below X iff
    related(S, X)."""
    sets = [frozenset(i for i in range(universe) if mask >> i & 1)
            for mask in range(1 << universe)]
    sets = [s for s in sets if len(s) >= min_size]
    labels = tuple(str(sorted(s)) for s in sets)
    rel = tuple(tuple(related(s, xx) for xx in sets) for s in sets)
    return FiniteRelSys(labels, labels, rel)


def gallery_reap(universe: int = 5, min_size: int = 3) -> FiniteRelSys:
    """Truncated reaping system: S related below X iff S does NOT split X
    at the truncation scale (one of S∩X, X\\S is empty)."""
    return _set_gallery(universe, min_size, lambda s, xx: not (s & xx and xx - s))


def gallery_reap_rho(rho=Fraction(1, 2)) -> FiniteRelSys:
    """Truncated rho-reaping system over the subsets of range(6) with at
    least 2 points; membership is band membership of |S∩X|/|X| in
    rho ± 1/4 at the truncation horizon, and is labelled as such (the
    limit property is not decidable from a truncation).  A rho whose
    truncation is no valid system is a ValueError naming rho and the band."""
    rho, quarter = as_fraction(rho), Fraction(1, 4)
    sys_ = _set_gallery(6, 2, lambda s, xx: abs(
        Fraction(len(s & xx), len(xx)) - rho) > quarter)
    try:
        sys_.validate()
    except ValueError as exc:
        raise ValueError(f"the reap-rho truncation at rho = {rho} is degenerate: with the "
                         f"band rho ± 1/4 = [{rho - quarter}, {rho + quarter}], {exc}") from exc
    return sys_
