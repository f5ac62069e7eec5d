"""The three benchmark workloads: seeded op decks, op runners and checks.

A workload turns a seed into a deck: a list of rounds, each a list of
ops.  Every round of a workload has the same mix of op kinds, so a run
that measures whole rounds measures the same mix for every seed; the
seed chooses the parameters inside each kind.  The program only sees the
generated argv lists (CLI workloads) or the generated objects (symbolic).

Library calls go through module attributes (``adversary.defeat_bisector``
rather than an imported name) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from rhosplit import (adversary, certificates, cli, omega_sets, partitions,
                      preservation, relsys)

HALF = Fraction(1, 2)


@dataclass
class Op:
    """One operation of a workload.

    ``run`` does the work and returns its raw result; ``text`` renders
    the result as the bytes that the reference hash covers; ``check``
    returns None when the result is right, else the reason it is wrong.
    """

    kind: str
    key: str
    run: Callable[[], object]
    text: Callable[[object], str]
    check: Callable[[object], str | None]


# -- CLI ops -------------------------------------------------------------------


def cli_call(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_text(result) -> str:
    code, stdout, _ = result
    return f"{code}\n{stdout}"


def _cli_op(kind: str, argv: list[str], check) -> Op:
    return Op(kind, " ".join(argv), lambda: cli_call(argv), cli_text, check)


# -- transform-chain -------------------------------------------------------------

TRANSFORM_FIXED = ["--depth", "8", "--horizon", "200000"]

# rho-to-half values k/32 grouped by the path they take at depth 8, which
# sets their cost (seconds per op on a 2-core Xeon VM at horizon 2e5):
# exit 1 before any chain is built (residual above tolerance after the
# fallback; a known defect, kept in the mix), the direct path (~0.3 s),
# and fallbacks of rising squaring depth (~0.8, ~1.5, ~2.7, ~5 s).
# Each round draws one k from every group, so every round carries the
# same cost mix whatever the seed.
RHO_TO_HALF_GROUPS = (
    (3, 6, 10, 11, 12, 13, 14, 15, 20, 22, 26, 29),
    (16, 17, 18, 19, 21),
    (7, 8, 9, 23, 24, 25),
    (4, 5, 27, 28),
    (2, 30),
    (1, 31),
)


def _check_transform(argv):
    direction, rho = argv[2], argv[4]

    def check(result):
        code, stdout, stderr = result
        if code == 1 and not stdout:
            # a typed failure (TransformError / OracleExhaustedError)
            return None if stderr.startswith("failed:") else f"exit 1: {stderr!r}"
        if code not in (0, 1):
            return f"exit {code}: {stderr.strip()}"
        rep = json.loads(stdout)
        if rep["direction"] != direction or rep["rho"] != rho:
            return "report echoes the wrong direction or rho"
        res = rep["result"]
        if res["chain"]["depth"] != 8 or res["chain"]["horizon"] != 200000:
            return "chain summary disagrees with the requested depth/horizon"
        holds = [v["holds_numerically"] for v in res["verdicts"]]
        if len(holds) != 5:
            return f"expected 5 verdicts (default family), got {len(holds)}"
        if (code == 0) != all(holds):
            return f"exit {code} but verdicts {holds}"
        return None

    return check


def transform_deck(seed: int, rounds: int = 6) -> list[list[Op]]:
    rng = random.Random(f"transform-chain:{seed}")
    # half-to-rho cycles through a seeded permutation of all 31 values,
    # and rho-to-half through a seeded permutation of each group
    half_ks = rng.sample(range(1, 32), 31)
    group_ks = [rng.sample(g, len(g)) for g in RHO_TO_HALF_GROUPS]
    deck, n = [], 0
    for r in range(rounds):
        ops = []
        for g in rng.sample(range(len(group_ks)), len(group_ks)):
            for direction, k in (("half-to-rho", half_ks[n % 31]),
                                 ("rho-to-half", group_ks[g][r % len(group_ks[g])])):
                rho = str(Fraction(k, 32))
                argv = ["transform", "--direction", direction, "--rho", rho,
                        *TRANSFORM_FIXED, "--seed", str(rng.randrange(1, 1 << 20))]
                ops.append(_cli_op(direction, argv, _check_transform(argv)))
            n += 1
        deck.append(ops)
    return deck


# -- density-horizon -------------------------------------------------------------

BERN_HORIZON = 20_000_000
HEAD_HORIZON = 1_000_000
SPARSE_HORIZON = 10 ** 12


def _prog_count(a: int, d: int, n: int) -> int:
    return 0 if n <= a else (n - 1 - a) // d + 1


def _density_counts(stdout: str):
    rep = json.loads(stdout)["report"]
    cps = rep["checkpoints"]
    nums = [n for n, _ in rep["counts"]]
    dens = [d for _, d in rep["counts"]]
    for r, n, d in zip(rep["ratios"], nums, dens):
        if Fraction(r) != Fraction(n, d):
            return None
    return cps, nums, dens


def _check_density(expect_cps, expect_den, expect_num=None, num_bound=None,
                   final_ratio=None):
    """Checks a density report against closed forms computed here.

    expect_den / expect_num map a checkpoint to its exact count;
    num_bound gives an upper bound for numerators that have no closed
    form (Bernoulli), and final_ratio a (target, tolerance) pair for the
    last checkpoint.
    """

    def check(result):
        code, stdout, stderr = result
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        parsed = _density_counts(stdout)
        if parsed is None:
            return "a ratio disagrees with its counts"
        cps, nums, dens = parsed
        if cps != expect_cps:
            return "checkpoint schedule differs from the requested one"
        if dens != [expect_den(c) for c in cps]:
            return "denominators differ from the closed form"
        if expect_num is not None and nums != [expect_num(c) for c in cps]:
            return "numerators differ from the closed form"
        if any(b > a for a, b in zip(nums[1:], nums)):
            return "numerators decrease"
        if num_bound is not None and any(n > num_bound(c) for c, n in zip(cps, nums)):
            return "numerators exceed their bound"
        if final_ratio is not None:
            target, tol = final_ratio
            if abs(Fraction(nums[-1], dens[-1]) - target) > tol:
                return f"final ratio {nums[-1]}/{dens[-1]} far from {target}"
        return None

    return check


def _stride_cps(horizon: int) -> list[int]:
    stride = horizon // 100
    return list(range(stride, horizon + 1, stride))


def _geometric_cps(horizon: int) -> list[int]:
    cps, n = [], 1
    while n < horizon:
        cps.append(n)
        n *= 2
    return cps + [horizon]


def _bernoulli_op(rng: random.Random, inside: bool) -> Op:
    p = rng.choice((Fraction(1, 4), Fraction(1, 3), HALF, Fraction(2, 3),
                    Fraction(3, 4)))
    s, a, d = rng.randrange(1, 1000), rng.randrange(0, 1000), rng.choice((2, 3, 5))
    bern, prog = f"bern({p},{s})", f"prog({a},{d})"
    cps = _stride_cps(BERN_HORIZON)
    # the final count covers >= 4e6 points, so 1/100 is over 20 sigma
    tol = Fraction(1, 100)
    if inside:
        argv = ["density", "--S", bern, "--X", prog]
        check = _check_density(cps, lambda n: _prog_count(a, d, n),
                               num_bound=lambda n: _prog_count(a, d, n),
                               final_ratio=(p, tol))
    else:
        argv = ["density", "--S", f"inter({prog},{bern})", "--X", "omega"]
        check = _check_density(cps, lambda n: n,
                               num_bound=lambda n: _prog_count(a, d, n),
                               final_ratio=(p / d, tol))
    argv += ["--horizon", str(BERN_HORIZON)]
    return _cli_op("bernoulli", argv, check)


def _head_scan_op(rng: random.Random) -> Op:
    a = 2 * rng.randrange(30_000, 32_500)
    first = a + (-a) % 6           # least x >= a with x even and 3 | x
    argv = ["density", "--S", f"inter(prog({a},2),prog(0,3))", "--X", "omega",
            "--horizon", str(HEAD_HORIZON)]
    check = _check_density(_stride_cps(HEAD_HORIZON), lambda n: n,
                           expect_num=lambda n: _prog_count(first, 6, n))
    return _cli_op("head-scan", argv, check)


def _sparse_op(rng: random.Random) -> Op:
    b = rng.choice(range(2, 21, 2))

    def even_powers_below(n):      # b^j for j >= 1 is even; b^0 = 1 is not
        c, v = 0, b
        while v < n:
            c, v = c + 1, v * b
        return c

    argv = ["density", "--S", f"inter(pow({b}),prog(0,2))", "--X", "omega",
            "--horizon", str(SPARSE_HORIZON), "--geometric"]
    check = _check_density(_geometric_cps(SPARSE_HORIZON), lambda n: n,
                           expect_num=even_powers_below)
    return _cli_op("sparse", argv, check)


def density_deck(seed: int, rounds: int = 16) -> list[list[Op]]:
    rng = random.Random(f"density-horizon:{seed}")
    deck = []
    for _ in range(rounds):
        ops = [_bernoulli_op(rng, True), _bernoulli_op(rng, False),
               _head_scan_op(rng), _sparse_op(rng)]
        rng.shuffle(ops)
        deck.append(ops)
    return deck


# -- symbolic --------------------------------------------------------------------

HORIZON_K = 6
PRESERVE_EPS = Fraction(1, 10)
# eps close to 1/2 pushes the chosen interval index to 11-13, where the
# partition boundaries are about 100 bits long
DEFEAT_EPS = tuple(Fraction(x) for x in
                   ("1/10", "1/4", "2/5", "15/32", "63/128", "255/512", "511/1024"))
ESCAPE_EPS = (Fraction(1, 10), Fraction(1, 5))


class SymbolicInputs:
    """Objects built once at set-up and shared by the symbolic ops."""

    def __init__(self):
        P = partitions.build_partition("minimal", 16)
        P.ensure(40)
        self.P = P
        self.splitters = self._splitters(P)
        self.preserve_sets = self._preserve_sets(P)
        guards = {k: P.first(k, max(1, (5 * P.size(k)) // 16 + 1))
                  for k in range(HORIZON_K)}
        every = omega_sets.ExplicitSet([True] * HORIZON_K, tail=(True,))
        self.pair = preservation.GoodPair(P, every, guards, PRESERVE_EPS)

    @staticmethod
    def _splitters(P):
        """Evens, odds, a Bernoulli trace on the intervals below the
        explicit cap with structured halves above it, first half per
        interval, and alternating full/empty intervals."""
        bern = omega_sets.BernoulliSet(HALF, 7)
        values, k = {}, 0
        while P.boundary(k + 1) <= 1 << 27 and k < 8:
            values[k] = P.trace(k, bern)
            k += 1
        for j in range(k, 12):
            values[j] = P.first(j, (P.size(j) + 1) // 2)
        half = {j: P.first(j, (P.size(j) + 1) // 2) for j in range(12)}
        alternating = {j: (P.full(j) if j % 2 == 0 else P.empty(j))
                       for j in range(12)}
        sym = partitions.IntervalSymbolicSet
        return {
            "evens": omega_sets.Progression(0, 2),
            "odds": omega_sets.Progression(1, 2),
            "bernoulli-trace": sym(P, values, default="singleton"),
            "first-half": sym(P, half, default="singleton"),
            "alternating": sym(P, alternating, default="singleton"),
        }

    @staticmethod
    def _preserve_sets(P):
        sym = partitions.IntervalSymbolicSet
        rng = range(HORIZON_K)
        return {
            "singletons": sym(P, {}, default="singleton"),
            "full": sym(P, {}, default="full"),
            "first-half": sym(P, {k: P.first(k, (P.size(k) + 1) // 2) for k in rng}),
            "first-quarter": sym(P, {k: P.first(k, max(1, P.size(k) // 4)) for k in rng}),
            "seven-eighths": sym(P, {k: P.first(k, (7 * P.size(k)) // 8 + 1)
                                     for k in rng}, default="full"),
            "alternating": sym(P, {k: (P.full(k) if k % 2 else P.first(k, 1))
                                   for k in rng}),
            "evens": omega_sets.Progression(0, 2),
            "odds": omega_sets.Progression(1, 2),
            "mult3": omega_sets.Progression(0, 3),
            "bern": omega_sets.BernoulliSet(HALF, 23),
        }


def _certify(cert) -> dict:
    """Round-trip a certificate through dumps/loads, verify it, and verify
    every single-count +-1 tampering of it."""
    Certificate = certificates.Certificate
    text = cert.dumps()
    ok = bool(certificates.verify_certificate(Certificate.loads(text)))
    tampers = caught = 0
    for key in json.loads(text)["cardinalities"]:
        for delta in (1, -1):
            bad = json.loads(text)
            bad["cardinalities"][key] = str(int(bad["cardinalities"][key]) + delta)
            caught += not certificates.verify_certificate(Certificate.from_json(bad))
            tampers += 1
    return {"cert": text, "verified": ok, "tampers": tampers, "caught": caught}


def _certs_ok(certs) -> str | None:
    for c in certs:
        if not c["verified"]:
            return "an emitted certificate does not verify"
        if c["caught"] != c["tampers"]:
            return f"{c['tampers'] - c['caught']} tampered certificates verified"
    return None


def _json_text(result) -> str:
    return json.dumps(result, sort_keys=True)


def _defeat_op(inp: SymbolicInputs, name: str, eps: Fraction) -> Op:
    def run():
        res = adversary.defeat_bisector(inp.splitters[name], eps, inp.P, rounds=3)
        return {"certs": [_certify(c) for c in res.certificates],
                "realized": [[n, str(r)] for n, r in res.realized],
                "cases": res.cases}

    def check(result):
        if len(result["certs"]) != 3:
            return f"expected 3 certificates, got {len(result['certs'])}"
        for _, r in result["realized"]:
            if HALF - eps <= Fraction(r) <= HALF + eps:
                return f"realized ratio {r} inside the closed band"
        return _certs_ok(result["certs"])

    return Op("defeat", f"defeat {name} {eps}", run, _json_text, check)


def _centred_op(inp: SymbolicInputs, index: int) -> Op:
    eps, eps_prime = ESCAPE_EPS

    def run():
        P = inp.P
        guards = {k: P.first(k, (P.size(k) + 1) // 2) for k in range(index + 1)}
        cert = adversary.centred_escape(guards, eps, eps_prime, index)
        return {"certs": [_certify(cert)]}

    return Op("centred", f"centred {index}", run, _json_text,
              lambda result: _certs_ok(result["certs"]))


def _slalom_op(inp: SymbolicInputs, m: int) -> Op:
    eps, eps_prime = ESCAPE_EPS

    def run():
        slalom = adversary.half_slalom(inp.P, m)
        _, cert = adversary.laver_escape(slalom, eps, eps_prime, m)
        return {"certs": [_certify(cert)]}

    return Op("slalom", f"slalom {m}", run, _json_text,
              lambda result: _certs_ok(result["certs"]))


def _preserve_op(inp: SymbolicInputs, name: str, m: int) -> Op:
    def run():
        X, P, pair = inp.preserve_sets[name], inp.P, inp.pair
        above = preservation.witness_above(X, PRESERVE_EPS, P, HORIZON_K)
        out = {"above_holds": preservation.rel_holds(X, above, 1, HORIZON_K).holds}
        before = preservation.rel_holds(X, pair, 1, HORIZON_K)
        out["before"] = [before.holds, before.witness_k]
        if before.holds:
            Y, k = preservation.nwd_escape(X, pair, 1, m, HORIZON_K)
            after = preservation.rel_holds(Y, pair, 1, HORIZON_K)
            out["escape"] = [k, after.holds, after.witness_k]
        return out

    def check(result):
        if not result["above_holds"]:
            return "witness_above's pair does not bound X"
        if "escape" in result:
            k, holds, witness = result["escape"]
            if holds or witness != k:
                return f"nwd_escape at {k} did not break the relation there"
        return None

    return Op("preserve", f"preserve {name} {m}", run, _json_text, check)


def _relsys_op(seed: int, count: int = 4) -> Op:
    def run():
        rng = random.Random(seed)
        rows = []
        for _ in range(count):
            R = relsys.random_system(rng, 2 + rng.randrange(7), 2 + rng.randrange(7))
            D = relsys.dual(R)
            rows.append([relsys.bounding_number(R), relsys.dominating_number(R),
                         relsys.bounding_number(D), relsys.dominating_number(D)])
        return {"rows": rows}

    def check(result):
        for b, d, db, dd in result["rows"]:
            if db != d or dd != b:
                return f"b/d duality fails: b={b} d={d} dual b={db} dual d={dd}"
        return None

    return Op("relsys", f"relsys {seed}", run, _json_text, check)


def _cycled(rng: random.Random, items: list, length: int) -> list:
    """`length` items cycling through a seeded permutation of `items`, so
    that every full deck holds each item equally often."""
    order = rng.sample(items, len(items))
    return [order[i % len(order)] for i in range(length)]


RELSYS_SEEDS = 20


def symbolic_deck(seed: int, inp: SymbolicInputs, rounds: int = 420) -> list[list[Op]]:
    """Each op kind cycles through every combination of its parameters
    (35 defeat, 12 centred, 3 slalom, 30 preserve, RELSYS_SEEDS relsys
    seeds; 420 is their least common multiple), in a seeded order, so that
    the cost mix of a deck does not depend on the seed.  A 30-second run
    repeats every op dozens of times."""
    rng = random.Random(f"symbolic:{seed}")
    k0 = adversary.centred_thresholds(*ESCAPE_EPS)[1]
    defeat = _cycled(rng, [(s, e) for s in sorted(inp.splitters) for e in DEFEAT_EPS],
                     rounds)
    centred = _cycled(rng, list(range(k0, 15)), rounds)
    slalom = _cycled(rng, [2, 3, 4], rounds)
    preserve = _cycled(rng, [(x, m) for x in sorted(inp.preserve_sets)
                             for m in (0, 3, 40)], rounds)
    relsys_seeds = _cycled(rng, [rng.randrange(1 << 30) for _ in range(RELSYS_SEEDS)],
                           rounds)
    deck = []
    for r in range(rounds):
        ops = [_defeat_op(inp, *defeat[r]), _centred_op(inp, centred[r]),
               _slalom_op(inp, slalom[r]), _preserve_op(inp, *preserve[r]),
               _relsys_op(relsys_seeds[r])]
        rng.shuffle(ops)
        deck.append(ops)
    return deck


# -- registry ----------------------------------------------------------------------

WORKLOADS = ("transform-chain", "density-horizon", "symbolic")


def build_deck(name: str, seed: int) -> list[list[Op]]:
    """All set-up for a workload: inputs, batteries and the op deck."""
    if name == "transform-chain":
        return transform_deck(seed)
    if name == "density-horizon":
        return density_deck(seed)
    if name == "symbolic":
        return symbolic_deck(seed, SymbolicInputs())
    raise ValueError(f"unknown workload {name!r}")
