#!/usr/bin/env python3
"""rhosplit benchmark: three closed-loop workloads, one caller, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --record

Run it from the root of a checkout; it imports rhosplit from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics, taken by wrapping rhosplit's public functions (see
tracer.py).  Every run first checks the nine seeded CLI runs of the
acceptance suite against the committed hashes in reference.json, and
checks every op's output; any mismatch makes the run fail (exit 1).

``--record`` rewrites reference.json and environment.json from the
current tree.  ``--compare`` reads two result trees (``.perfbench/results``
of two checkouts) and flags every end-to-end median that got worse by
more than its bound.  NOTES.md explains the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
ENVIRONMENT = HERE / "environment.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 7
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0)
OP_HASH_HEX = 16    # per-op reference hashes keep the first 16 hex digits

# acceptance criterion 10 (tests/test_acceptance.py), copied so that the
# benchmark does not depend on the test suite
SEEDED_RUNS = [
    ["density", "--S", "bern(1/2,7)", "--X", "omega", "--horizon", "1000000",
     "--kind", "rho", "--rho", "1/2"],
    ["adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "3"],
    ["adversary", "--S", "bern(1/2,7)", "--epsilon", "1/10", "--rounds", "3"],
    ["escape", "--chain", "slalom", "--eps", "1/10", "--eps-prime", "1/5",
     "--index", "3"],
    ["preserve", "--op", "reap-map", "--S", "bern(1/2,11)", "--horizon-k", "6"],
    ["transform", "--direction", "half-to-rho", "--rho", "7/16",
     "--depth", "8", "--horizon", "200000", "--seed", "1"],
    ["transform", "--direction", "rho-to-half", "--rho", "3/4",
     "--depth", "8", "--horizon", "200000", "--seed", "1"],
    ["relsys", "--random", "50", "--seed", "9"],
    ["relsys", "--fact54", "--max-window", "10"],
]


def _require_checkout() -> dict:
    """BENCHMARK.json and src/rhosplit must both be present."""
    spec = ROOT / "BENCHMARK.json"
    if not (SRC / "rhosplit" / "__init__.py").is_file() or not spec.is_file():
        print(f"error: {ROOT} is not a rhosplit checkout "
              "(needs BENCHMARK.json and src/rhosplit)", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return json.loads(spec.read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _child(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(__file__)), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)


# -- gate and set-up, each in a child process ------------------------------------


def gate_rows() -> list[dict]:
    from workloads import cli_call

    rows = []
    for argv in SEEDED_RUNS:
        code, stdout, _ = cli_call(argv)
        rows.append({"argv": argv, "exit": code, "sha256": _sha256(stdout)})
    return rows


def run_gate() -> list[str]:
    """Byte-identity gate: exit code and stdout hash of every seeded run.
    It runs in a child process so that its memory does not count towards
    the workload's peak RSS."""
    proc = _child("--gate")
    if proc.returncode != 0:
        return [f"gate process failed: {proc.stderr.strip()[-500:]}"]
    got = json.loads(proc.stdout.splitlines()[-1])
    want = json.loads(REFERENCE.read_text())["gate"]
    problems = []
    for g, w in zip(got, want):
        if g != w:
            problems.append(f"seeded run {' '.join(w['argv'])}: exit {g['exit']} "
                            f"sha256 {g['sha256'][:12]}, want exit {w['exit']} "
                            f"sha256 {w['sha256'][:12]}")
    if len(got) != len(want):
        problems.append(f"{len(got)} seeded runs, reference has {len(want)}")
    return problems


def measure_setup(workload: str, seed: int) -> float:
    """Median over SETUP_REPEATS fresh processes of the time from spawning
    the process until its inputs are built and the first op is ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.time()
        proc = _child("--setup-only", "--workload", workload, "--seed", str(seed))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


# -- timed phase -------------------------------------------------------------------


def run_op(op, want: str | None, tracer=None):
    """Runs one op, traced when a tracer is given, and checks its output
    against the op's own check and, when `want` is given, the reference
    hash.  Only the op is timed.  Returns the record (op, seconds, error or
    None, CLI exit code, CLI stdout bytes)."""
    error = None
    if tracer is not None:
        tracer.op_id += 1
        tracer.install()
    try:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    code = out_bytes = None
    if error is None:
        error = op.check(result)
        if error is None and want is not None:
            if _sha256(op.text(result))[:OP_HASH_HEX] != want:
                error = "output hash differs from the committed reference"
        if isinstance(result, tuple):
            code, out_bytes = result[0], len(result[1].encode())
    return op, elapsed, error, code, out_bytes


def run_rounds(deck, seconds: float, reference, tracer=None):
    """Closed loop over whole rounds of the deck until the ops have taken
    about `seconds`: it stops at the round boundary nearest to `seconds`,
    after one round at least.  With a tracer, every op runs twice in a
    row, untraced and traced, the order alternating from op to op, so the
    two sides meet the same machine state.  Returns (untraced records,
    traced records)."""
    plain, traced, busy, r = [], [], 0.0, 0
    while True:
        pos, round_start = r % len(deck), busy
        for i, op in enumerate(deck[pos]):
            want = reference[pos][i] if reference is not None else None
            sides = (False,) if tracer is None else ((False, True), (True, False))[(r + i) % 2]
            for with_trace in sides:
                record = run_op(op, want, tracer if with_trace else None)
                (traced if with_trace else plain).append(record)
                busy += record[1]
        r += 1
        if busy + (busy - round_start) / 2 >= seconds:
            return plain, traced


def tail(times: list[float]):
    """The highest ladder percentile with at least ten samples beyond it,
    or None below 100 samples."""
    n = len(times)
    if n < 100:
        return None
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(times, n=10000, method="inclusive")
            return p, q[round(p * 100) - 1]
    return None


def best_times(records) -> list[float]:
    """Each op's time replaced by the fastest time of any op with the same
    key in the run.  The machine's speed drifts by tens of percent for
    seconds at a time while other tenants load the host, and the fastest
    repeat is the one that drift disturbed least.  Keys repeat when a run
    cycles through its deck: symbolic repeats each key dozens of times in
    a run, while transform-chain and density-horizon rarely repeat one,
    so there this is each op's own wall time."""
    best: dict[str, float] = {}
    for r in records:
        best[r[0].key] = min(r[1], best.get(r[0].key, r[1]))
    return [best[r[0].key] for r in records]


def end_to_end(records, setup_s: float) -> dict:
    times = best_times(records)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names: list[str], tracer, records, untraced_ops_per_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, per op of the traced side:
    `<span>.calls` and `<span>.self_s` come from the spans, the two ratios
    are computed here, and every other name is a tracer counter."""
    ops = len(records)
    calls, self_s = tracer.self_times()
    c = tracer.counters
    out = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name == "rho_transform.accept_ratio":
            proposals = c["rho_transform.proposals"]
            out[name] = c["rho_transform.accepted"] / proposals if proposals else 0.0
        elif name == "trace.overhead_ratio":
            out[name] = ops / sum(r[1] for r in records) / untraced_ops_per_s
        elif field == "calls":
            out[name] = calls[span] / ops
        elif field == "self_s":
            out[name] = self_s[span] / ops
        else:
            out[name] = c[name] / ops
    return out


# -- reporting ---------------------------------------------------------------------


def environment() -> dict:
    """Interpreter, numpy, CPU count and horizon cap of this process."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "RHOSPLIT_HORIZON_CAP": os.environ.get("RHOSPLIT_HORIZON_CAP"),
    }


def machine() -> dict:
    """environment() plus what --record keeps in environment.json: the
    command, the data cache sizes read from /sys, and each workload's
    working set, computed from its sizes."""
    from rhosplit import partitions

    import workloads

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    h_t, h_b = 200_000, workloads.BERN_HORIZON
    return {
        **environment(),
        "command": ["python3", "perfbench/run.py"],
        "caches": caches,
        "working_set_bytes_computed": {
            "transform-chain": {
                "bytes": h_t * (1 + 8 + 8),
                "how": "one bool vector, one int64 cumsum and one uint64 PRF "
                       "buffer at horizon 2e5"},
            "density-horizon": {
                "bytes": h_b * (1 + 8 + 8),
                "how": "one bool vector, one int64 cumsum and one uint64 PRF "
                       "buffer at horizon 2e7"},
            "symbolic": {
                "bytes": partitions.build_partition("minimal", 16).boundary(7),
                "how": "the cached bool vector of bern(1/2,7) below the "
                       "interval-7 boundary, summed by its trace counts"},
        },
    }


def _metric_line(name: str, value: float, unit: str, extra: str = "") -> None:
    print(f"{name:44s} {value:.6g} {unit}{extra}")


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: bool) -> int:
    import workloads

    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    print(f"workload {workload} seed {seed} seconds {seconds} trace {int(trace)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    problems = run_gate()
    print("gate: " + (f"{len(SEEDED_RUNS)} seeded runs byte-identical" if not problems
                      else "; ".join(problems)))
    reference = None
    if seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())["ops"][workload]
    setup_s = measure_setup(workload, seed)
    deck = workloads.build_deck(workload, seed)

    if not trace:
        records, _ = run_rounds(deck, seconds, reference)
        metrics = end_to_end(records, setup_s)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    else:
        from tracer import Tracer

        tracer = Tracer()
        plain, records = run_rounds(deck, seconds, reference, tracer)
        tracer.counters["cli.stdout_bytes"] = sum(r[4] or 0 for r in records)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(list(units), tracer, records,
                            len(plain) / sum(r[1] for r in plain))
        records = plain + records
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{workload}-{seed}.jsonl.gz"
        tracer.write(span_file)
        print(f"spans: {len(tracer.span_name)} written to {span_file.relative_to(ROOT)}")

    failed = [(r[0], r[2]) for r in records if r[2] is not None]
    for op, err in failed[:5]:
        print(f"FAILED {op.key}: {err.strip()}")
    typed = sum(1 for op, _, err, code, _ in records
                if err is None and op.kind == "rho-to-half" and code == 1)
    times = [r[1] for r in records]
    for name, value in metrics.items():
        _metric_line(name, value, units[name])
    if not trace:
        _metric_line("ops_per_s (wall, every repeat)", len(times) / sum(times), "ops/s")
        _metric_line("op_p50_s (wall, every repeat)", statistics.median(times), "s")
        _metric_line("op_p50_s samples", len(times), "ops",
                     f" ({len({r[0].key for r in records})} distinct)")
        t = tail(times)
        if t is None:
            print(f"{'op_tail_s':44s} n/a ({len(times)} ops, fewer than 100)")
        else:
            _metric_line(f"op_tail_s (p{t[0]:g})", t[1], "s", f" n={len(times)}")
    _metric_line("fail_ratio", len(failed) / len(records), "ratio",
                 f" ({len(failed)}/{len(records)})")
    if workload == "transform-chain":
        print(f"rho-to-half exits 1 (typed failures): {typed} of "
              f"{sum(1 for r in records if r[0].kind == 'rho-to-half')}")

    correct = not problems and not failed
    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    results_dir = OUT / "results" / workload
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0 if correct else 1


# -- compare and record -------------------------------------------------------------


def _load_results(root: Path) -> dict:
    """{(workload, trace): {seed: metrics}} from a results tree."""
    out: dict = {}
    for path in sorted(root.glob("*/seed*-trace*.json")):
        seed, trace = path.stem[4:].split("-trace")
        metrics = json.loads(path.read_text())["metrics"]
        out.setdefault((path.parent.name, trace), {})[seed] = {
            k: v["value"] for k, v in metrics.items()}
    return out


def compare(spec: dict, parent_dir: str, change_dir: str) -> int:
    """Median and quartiles per metric on each side; an end-to-end metric
    is flagged WORSE when the change's median is worse than the parent's
    by more than its bound, and UNRESOLVED when the parent's own spread
    is wider than the bound."""
    parent, change = _load_results(Path(parent_dir)), _load_results(Path(change_dir))
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): parent {len(parent[key])} runs, "
              f"change {len(change[key])} runs")
        names = sorted({n for runs in parent[key].values() for n in runs})
        for name in names:
            a = [r[name] for r in parent[key].values() if name in r]
            b = [r[name] for r in change[key].values() if name in r]
            if len(a) < 2 or len(b) < 2:
                continue
            qa = statistics.quantiles(a, n=4, method="inclusive")
            qb = statistics.quantiles(b, n=4, method="inclusive")
            ma, mb = statistics.median(a), statistics.median(b)
            m = info.get(name, {})
            flag = ""
            if "bound" in m and ma:
                sign = 1 if m["better"] == "lower" else -1
                change_share = sign * (mb - ma) / abs(ma)
                spread = (qa[2] - qa[0]) / abs(ma)
                seeds = sorted(set(parent[key]) & set(change[key]))
                wins = sum(1 for s in seeds
                           if sign * (change[key][s][name] - parent[key][s][name]) < 0)
                flag = f"  wins {wins}/{len(seeds)}"
                if change_share > m["bound"]:
                    flag += f"  WORSE by {change_share:.1%} (bound {m['bound']:.0%})"
                    worse += 1
                elif spread > m["bound"]:
                    flag += f"  UNRESOLVED (parent spread {spread:.1%})"
            print(f"  {name:44s} parent {ma:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"change {mb:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]{flag}")
    return 1 if worse else 0


def record() -> int:
    """Rewrite reference.json (gate hashes and the default seed's per-op
    hashes) and environment.json from the current tree."""
    import workloads

    ref = {"gate": gate_rows(), "ops": {}}
    for name in workloads.WORKLOADS:
        deck = workloads.build_deck(name, DEFAULT_SEED)
        hashes = []
        for ops in deck:
            row = []
            for op in ops:
                result = op.run()
                error = op.check(result)
                if error is not None:
                    print(f"error: {op.key}: {error}", file=sys.stderr)
                    return 1
                row.append(_sha256(op.text(result))[:OP_HASH_HEX])
            hashes.append(row)
        ref["ops"][name] = hashes
        print(f"recorded {sum(map(len, hashes))} op hashes for {name}")
    gate = ",\n  ".join(json.dumps(row) for row in ref["gate"])
    ops = ",\n  ".join(f"{json.dumps(name)}: {json.dumps(rows)}"
                       for name, rows in ref["ops"].items())
    REFERENCE.write_text(f'{{"gate": [\n  {gate}\n],\n "ops": {{\n  {ops}\n}}}}\n')
    ENVIRONMENT.write_text(json.dumps(machine(), indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--gate", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = _require_checkout()
    if args.compare:
        return compare(spec, *args.compare)
    if args.record:
        return record()
    if args.gate:
        print(json.dumps(gate_rows()))
        return 0
    if args.setup_only:
        import workloads

        workloads.build_deck(args.workload, args.seed)
        print(time.time())
        return 0
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
