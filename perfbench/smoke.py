#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny instance of each workload.

    python3 perfbench/smoke.py

It is kept out of the test suite because it takes about a minute.  For
every workload it runs the untraced and the traced benchmark on a deck cut
down to two ops of the default seed, and checks that the result line holds
every metric of BENCHMARK.json with its unit, that every metric is also
printed by name with its unit, that the byte-identity gate ran, and that
the outputs checked out.  Last, it checks that the benchmark refuses to run,
printing no result, in a directory that holds only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run as bench


def tiny_deck(build):
    """build_deck cut down to the first two ops of the first round."""
    def build_tiny(name, seed):
        return [build(name, seed)[0][:2]]
    return build_tiny


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", str(bench.DEFAULT_SEED),
                           "--seconds", "0", "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    level = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[level]}
    problems = []
    if code != 0 or result.get("correct") is not True:
        problems.append(f"exit {code}, correct {result.get('correct')}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for name, unit in want.items():
        if not any(line.split()[:1] == [name] and line.endswith(unit) for line in lines):
            problems.append(f"{name} is not printed with unit {unit}")
    if "gate: 9 seeded runs byte-identical" not in lines:
        problems.append("the byte-identity gate did not run or failed")
    return [f"{workload} trace {trace}: {p}" for p in problems]


def check_refuses_without_source() -> list[str]:
    bare = bench.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "symbolic",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["the benchmark ran without the program's source"]
    return []


def main() -> int:
    spec = bench._require_checkout()
    import workloads

    workloads.build_deck = tiny_deck(workloads.build_deck)
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(spec, name, trace)
    problems += check_refuses_without_source()
    for p in problems:
        print("SMOKE FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
