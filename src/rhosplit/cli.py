"""Batch front end: every module as a subcommand with reproducible seeds
and machine-readable reports.

Exit codes: 0 success, 1 a checked property did not hold, 2 usage or
precondition error.  Identical (argv, seed) pairs yield byte-identical
JSON: exact rationals are rendered as "p/q" strings and keys are sorted.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction
from typing import Callable

import numpy as np

from ._util import as_fraction
from .adversary import (
    centred_escape,
    centred_thresholds,
    defeat_bisector,
    half_slalom,
    laver_escape,
    min_index_for_eps,
)
from .certificates import Certificate, verify_certificate
from .density import density_report, split_verdict
from .omega_sets import (
    HorizonOverflowError,
    PowersSet,
    SequenceSet,
    parse_family,
    parse_set,
)
from .partitions import IntervalPartition, build_partition
from .preservation import (
    GoodPair,
    nwd_escape,
    reap_tukey_map,
    rel_holds,
    witness_above,
    witness_below,
)
from .relsys import (
    FiniteRelSys,
    bounding_number,
    dominating_number,
    dual,
    gallery_dom,
    gallery_reap,
    gallery_reap_rho,
    random_system,
    zero_split_check,
)
from .rho_transform import (
    ChainConfig,
    OracleExhaustedError,
    RoundRobinOracle,
    TransformError,
    transform_splitter,
)

__all__ = ["main", "run"]

# relsys --fact54 --max-window 20 takes about 0.25 s; each window
# doubles the bit length of the powers it reads
MAX_WINDOW = 20


def _fraction(text: str) -> Fraction:
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _partition_arg(spec: str, count: int, even: bool) -> IntervalPartition:
    """The partition with its first ``count`` intervals built, refusing a
    count whose last boundary could not be printed before building the
    rest: interval sizes grow so fast that the work grows about as
    count^3."""
    if spec != "minimal" and not spec.startswith("factor:"):
        raise ValueError(f"unknown partition spec {spec!r}")
    part = build_partition(spec, min(count, 1), even)
    _require_printable(part, "--count", count, lambda n: n)
    part.ensure(count)
    return part


def _require_printable(part: IntervalPartition, option: str, last: int,
                       largest: Callable[[int], int]) -> None:
    """Refuse, before any work, an option value whose report prints the
    boundaries up to b_last when one of them has more decimal digits
    than the interpreter turns into text (``sys.get_int_max_str_digits``);
    ``largest(n)`` is the largest value whose report stops at b_n.  With
    the limit off (0) the default limit still bounds the option, since
    the work before the report grows with it too."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    n, limit = 0, 10 ** digits
    while n < last and part.boundary(n + 1) < limit:
        n += 1
    if n < last:
        raise ValueError(f"{option} must be at most {largest(n)} for this partition: "
                         f"boundary b_{n + 1} has more than {digits} decimal digits")


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    elif output == "csv":
        for key, value in sorted(_flatten(report)):
            print(f"{key},{value}")
    else:
        for key, value in sorted(_flatten(report)):
            print(f"{key:40s} {value}")


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _rle(bits) -> list[int]:
    """Run lengths of a non-empty bool vector, alternating and starting
    with a run of zeros (possibly of length 0)."""
    edges = np.flatnonzero(np.diff(bits)) + 1
    runs = np.diff(np.concatenate([[0], edges, [len(bits)]])).tolist()
    return [0] + runs if bits[0] else runs


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rhosplit",
        description="density-splitting diagnostics with exact certificates",
    )
    top.add_argument("--output", choices=("json", "csv", "pretty"),
                     default="json")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="build and check interval partitions")
    p.add_argument("--partition", default="minimal")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--even-sizes", action="store_true")

    p = sub.add_parser("density", help="checkpointed density report")
    p.add_argument("--S", required=True)
    p.add_argument("--X", default="omega")
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--geometric", action="store_true")
    p.add_argument("--tail-window", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--tolerance", type=_fraction, default=Fraction(1, 100))
    p.add_argument("--kind", choices=("report", "classical", "rho",
                                      "eps_band", "zero", "one"),
                   default="report")
    p.add_argument("--rho", type=_fraction, default=None)
    p.add_argument("--eps", type=_fraction, default=None)
    p.add_argument("--prefix", type=int, default=None, metavar="N",
                   help="embed the run-length-encoded bits of S below N")

    p = sub.add_parser("adversary", help="defeat a purported bisector")
    p.add_argument("--S", required=True)
    p.add_argument("--epsilon", type=_fraction, required=True)
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--partition", default="minimal")
    p.add_argument("--even-sizes", action="store_true")
    p.add_argument("--count", type=int, default=16)

    p = sub.add_parser("verify-cert", help="re-check serialized certificates")
    p.add_argument("--input", required=True,
                   help="JSON file: a certificate or a list of them")

    p = sub.add_parser("escape", help="centred/slalom escape certificates")
    p.add_argument("--chain", choices=("centred", "slalom"), required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--eps-prime", type=_fraction, required=True)
    p.add_argument("--index", type=int, required=True,
                   help="interval index (centred) or block index (slalom)")
    p.add_argument("--partition", default="minimal")
    p.add_argument("--count", type=int, default=20)

    p = sub.add_parser("preserve", help="guarded-relation operations")
    p.add_argument("--op", choices=("rel", "witness-above", "witness-below",
                                    "nwd-escape", "reap-map"), required=True)
    p.add_argument("--X", default=None)
    p.add_argument("--S", default=None)
    p.add_argument("--pair", default=None, help="JSON file with a guard pair")
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 10))
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--horizon-k", type=int, default=6)
    p.add_argument("--partition", default="minimal")
    p.add_argument("--count", type=int, default=16)

    p = sub.add_parser("transform", help="half<->rho splitter transforms")
    p.add_argument("--direction", choices=("half-to-rho", "rho-to-half"),
                   required=True)
    p.add_argument("--rho", type=_fraction, required=True)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--family", default="omega,prog(0,2),prog(1,2),prog(0,3),prog(1,4)")
    p.add_argument("--oracle", choices=("bernoulli", "round-robin"),
                   default="bernoulli")
    p.add_argument("--tolerance", type=_fraction, default=Fraction(1, 50))

    p = sub.add_parser("relsys", help="finite relational systems")
    p.add_argument("--gallery", choices=("dom", "reap", "reap-rho"),
                   default=None)
    p.add_argument("--file", default=None, help="JSON file with a system")
    p.add_argument("--rho", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--random", type=int, default=None,
                   help="sample N random systems and report b/d duality")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--fact54", action="store_true",
                   help="doubling-map zero-split bound on powers of two")
    p.add_argument("--max-window", type=int, default=10)
    return top


def _cmd_partition(args) -> tuple[int, dict]:
    part = _partition_arg(args.partition, args.count, args.even_sizes)
    violation = part.verify_growth()
    report = {
        "command": "partition",
        "boundaries": part.to_json(args.count),
        "sizes": [str(part.size(n)) for n in range(args.count)],
        "growth": "ok" if violation is None else {"violation_at": violation},
        "growth_ratios": [str(part.growth_ratio(n))
                          for n in range(1, args.count)],
    }
    return (0 if violation is None else 1), report


def _require_inputs(args, option: str, needs: dict) -> None:
    """Refuse a mode, the value of --option, run without the options
    that ``needs`` names for it."""
    mode = getattr(args, option)
    missing = [f"--{a}" for a in needs.get(mode, ()) if getattr(args, a) is None]
    if missing:
        raise ValueError(f"{args.command} --{option} {mode} needs {' and '.join(missing)}")


_DENSITY_INPUTS = {"rho": ("rho",), "eps_band": ("eps",)}


def _cmd_density(args) -> tuple[int, dict]:
    _require_inputs(args, "kind", _DENSITY_INPUTS)
    S, X = parse_set(args.S), parse_set(args.X)
    extra = {}
    if args.prefix is not None:
        if args.prefix < 1:
            raise ValueError("prefix horizon must be at least 1")
        extra["prefix"] = {"horizon": args.prefix, "rle": _rle(S.materialize(args.prefix))}
    if args.kind == "report":
        rep = density_report(S, X, args.horizon, stride=args.stride,
                             geometric=args.geometric,
                             tail_window=args.tail_window, target=args.rho)
        return 0, {"command": "density", "report": rep.to_json(), **extra}
    verdict = split_verdict(args.kind, S, X, args.horizon, rho=args.rho,
                            eps=args.eps, tolerance=args.tolerance,
                            tail_window=args.tail_window, stride=args.stride,
                            geometric=args.geometric)
    report = {"command": "density", "verdict": verdict.to_json(), **extra}
    return (0 if verdict.holds_numerically else 1), report


def _cmd_adversary(args) -> tuple[int, dict]:
    S = parse_set(args.S)
    part = _partition_arg(args.partition, args.count, args.even_sizes)
    result = defeat_bisector(S, args.epsilon, part, rounds=args.rounds)
    ok = all(verify_certificate(c) for c in result.certificates)
    report = {
        "command": "adversary",
        "epsilon": str(args.epsilon),
        "min_index": min_index_for_eps(args.epsilon),
        "certificates": [c.to_json() for c in result.certificates],
        "cases": result.cases,
        "realized": [
            {"index": n, "ratio": str(r)} for n, r in result.realized
        ],
        "x_set": result.x_set.to_json(max(n for n, _ in result.realized) + 1),
        "verified": ok,
    }
    return (0 if ok else 1), report


def _cmd_verify_cert(args) -> tuple[int, dict]:
    with open(args.input, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if isinstance(payload, dict):
        payload = payload["certificates"] if "certificates" in payload else [payload]
    if not isinstance(payload, list):
        raise ValueError("malformed certificate file: expected a certificate, a list "
                         "of them or {\"certificates\": [...]}")
    results = []
    all_ok = True
    for obj in payload:
        cert = Certificate.from_json(obj)
        res = verify_certificate(cert)
        all_ok &= res.ok
        results.append({
            "kind": cert.kind, "index": cert.index,
            "ok": res.ok, "reason": res.reason,
        })
    return (0 if all_ok else 1), {"command": "verify-cert", "results": results}


def _cmd_escape(args) -> tuple[int, dict]:
    part = _partition_arg(args.partition, args.count, False)
    if args.chain == "centred":
        _require_printable(part, "--index", args.index + 1, lambda n: n - 1)
        guards = {
            k: part.first(k, (part.size(k) + 1) // 2)
            for k in range(args.index + 1)
        }
        cert = centred_escape(guards, args.eps, args.eps_prime, args.index)
        n0, k0 = centred_thresholds(args.eps, args.eps_prime)
        extra = {"thresholds": {"n0": n0, "k0": k0}}
    else:
        # block m escapes at interval 2^m, so its report prints up to b_(2^m + 1)
        _require_printable(part, "--index", 2 ** max(args.index, 0) + 1,
                           lambda n: (n - 1).bit_length() - 1)
        slalom = half_slalom(part, args.index)
        _, cert = laver_escape(slalom, args.eps, args.eps_prime, args.index)
        extra = {}
    ok = verify_certificate(cert).ok
    report = {"command": "escape", "certificate": cert.to_json(),
              "verified": ok, **extra}
    return (0 if ok else 1), report


# the inputs each preserve op reads, by argument name
_PRESERVE_INPUTS = {
    "rel": ("pair", "X"), "witness-above": ("X",), "witness-below": ("pair",),
    "nwd-escape": ("pair", "X"), "reap-map": ("S",),
}


def _cmd_preserve(args) -> tuple[int, dict]:
    _require_inputs(args, "op", _PRESERVE_INPUTS)
    horizon_k = args.horizon_k
    if horizon_k < 1:
        raise ValueError("--horizon-k must be at least 1")
    part = _partition_arg(args.partition, args.count, False)
    _require_printable(part, "--horizon-k", horizon_k, lambda n: n)
    if args.op == "reap-map":
        S = parse_set(args.S)
        pair = reap_tukey_map(S, args.eps, part, horizon_k)
        return 0, {"command": "preserve", "op": args.op,
                   "pair": pair.to_json(horizon_k)}
    if args.op == "witness-above":
        X = parse_set(args.X)
        pair = witness_above(X, args.eps, part, horizon_k)
        verdict = rel_holds(X, pair, 1, horizon_k)
        return (0 if verdict.holds else 1), {
            "command": "preserve", "op": args.op,
            "pair": pair.to_json(horizon_k), "rel_holds": verdict.holds,
        }
    with open(args.pair, "r", encoding="utf-8") as fh:
        pair = GoodPair.from_json(part, json.load(fh), horizon_k)
    if args.op == "witness-below":
        Y = witness_below(pair, horizon_k)
        verdict = rel_holds(Y, pair, 1, horizon_k)
        return (0 if verdict.holds else 1), {
            "command": "preserve", "op": args.op,
            "witness": Y.to_json(horizon_k), "rel_holds": verdict.holds,
        }
    X = parse_set(args.X)
    if args.op == "rel":
        verdict = rel_holds(X, pair, args.n, horizon_k)
        report = {"command": "preserve", "op": "rel",
                  "holds": verdict.holds, "witness_k": verdict.witness_k}
        return (0 if verdict.holds else 1), report
    Y, k = nwd_escape(X, pair, args.n, args.m, horizon_k)
    after = rel_holds(Y, pair, args.n, horizon_k)
    return (0 if not after.holds else 1), {
        "command": "preserve", "op": "nwd-escape", "escape_at": k,
        "relation_flipped": not after.holds,
        "witness": Y.to_json(horizon_k),
    }


def _cmd_transform(args) -> tuple[int, dict]:
    family = parse_family(args.family)
    cfg = ChainConfig(depth=args.depth, horizon=args.horizon, seed=args.seed,
                      band_tolerance=args.tolerance)
    oracle = RoundRobinOracle() if args.oracle == "round-robin" else None
    result = transform_splitter(family, args.direction, args.rho, oracle, cfg)
    report = {
        "command": "transform",
        "direction": args.direction,
        "rho": str(args.rho),
        "seed": args.seed,
        "result": result.to_json(),
    }
    return (0 if result.all_hold else 1), report


def _cmd_relsys(args) -> tuple[int, dict]:
    if args.fact54:
        if args.max_window > MAX_WINDOW:
            raise ValueError(f"--max-window must be at most {MAX_WINDOW}")
        R = PowersSet(2)
        x = SequenceSet(lambda n: 2 ** (2 ** n), name="doubling")
        rep = zero_split_check(R, x, 1, args.max_window)
        return (0 if rep.bound_holds else 1), {
            "command": "relsys", "fact54": rep.to_json(),
        }
    if args.random is not None:
        rng = random.Random(args.seed)
        rows = []
        ok = True
        for i in range(args.random):
            sys_ = random_system(rng, 2 + rng.randrange(7), 2 + rng.randrange(7))
            b, d = bounding_number(sys_), dominating_number(sys_)
            dd = dual(sys_)
            db, ddm = bounding_number(dd), dominating_number(dd)
            ok &= (db == d and ddm == b)
            rows.append({"i": i, "b": b, "d": d, "dual_b": db, "dual_d": ddm})
        return (0 if ok else 1), {"command": "relsys", "duality": rows,
                                  "duality_ok": ok}
    if args.gallery:
        if args.gallery == "dom":
            sys_ = gallery_dom(2, 2)
        elif args.gallery == "reap":
            sys_ = gallery_reap()
        else:
            sys_ = gallery_reap_rho(rho=args.rho)
        report = {
            "command": "relsys",
            "gallery": args.gallery,
            "system": sys_.to_json(),
            "bounding": bounding_number(sys_),
            "dominating": dominating_number(sys_),
            "note": ("truncation for inspection; infinite invariants are "
                     "not computed, rho membership is band membership at "
                     "the truncation horizon"),
        }
        return 0, report
    if args.file is None:
        raise ValueError("relsys needs one of --fact54, --random, --gallery or --file")
    with open(args.file, "r", encoding="utf-8") as fh:
        sys_ = FiniteRelSys.from_json(json.load(fh))
    return 0, {
        "command": "relsys",
        "bounding": bounding_number(sys_),
        "dominating": dominating_number(sys_),
        "dual": dual(sys_).to_json(),
    }


_HANDLERS = {
    "partition": _cmd_partition,
    "density": _cmd_density,
    "adversary": _cmd_adversary,
    "verify-cert": _cmd_verify_cert,
    "escape": _cmd_escape,
    "preserve": _cmd_preserve,
    "transform": _cmd_transform,
    "relsys": _cmd_relsys,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = _HANDLERS[args.command](args)
    except (ValueError, HorizonOverflowError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleExhaustedError, TransformError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    _emit(report, args.output)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
