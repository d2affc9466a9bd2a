#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 repobench/run.py --workload guideline|train|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark binary
(repobench/, its own CMake package compiling ../src) into .bench_build/,
runs one workload for S seconds on inputs generated from the seed,
checks the program's outputs, and prints as the last stdout line one
JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the traced pass and reports the per-layer metrics, writes its Chrome
trace to .bench_out/ and validates it with tools/validate_trace.py.

Exit codes: 0 ok, 1 an output check failed (the result says
"correct": false) or the benchmark itself broke (no result printed),
2 bad arguments or the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "repobench"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "repobench"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg: str) -> None:
    print(f"repobench: {msg}", file=sys.stderr, flush=True)


def build() -> None:
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest() -> str:
    """sha256 over the program's sources: names the code when git can't."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(p.relative_to(ROOT).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def expected_metrics(trace: bool) -> list[str] | None:
    spec = ROOT / "BENCHMARK.json"
    if not spec.exists():
        return None
    doc = json.loads(spec.read_text())
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["guideline", "train", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        log("--seconds must be positive and --seed non-negative")
        return 2
    if not (ROOT / "src" / "navigator" / "navigator.hpp").exists():
        log(f"program sources not found under {ROOT / 'src'}")
        return 2

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    trace = args.trace == "1"
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace, "--git-sha", git_sha(),
           "--source-digest", source_digest()]
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s")
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"benchmark binary exited {run.returncode} without a result")
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("benchmark result has the wrong keys")
        return 1
    want = expected_metrics(trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("benchmark metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(result['metrics']))}, extra "
            f"{sorted(set(result['metrics']) - set(want))}")
        return 1

    if trace:
        check = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "validate_trace.py"),
             "--file", str(trace_file), "--min-categories", "4",
             "--require-category", "bench", "--require-category", "pipeline",
             "--require-category", "cache", "--require-category", "serve",
             "--require-nested"],
            capture_output=True, text=True, timeout=120)
        sys.stderr.write(check.stdout + check.stderr)
        if check.returncode != 0:
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and run.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
