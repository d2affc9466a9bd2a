#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 repobench/steady.py [--workloads guideline,train,serve]
        [--runs 10] [--sets 1] [--first-seed 1]

Run from the root of a checkout. Runs each workload --runs times per set
for BENCHMARK.json's run_seconds, through run.py (untraced); the runs of
a set take seeds --first-seed, --first-seed + 1, ..., and every set
repeats the same seeds, so a move between sets is run-to-run noise, not
a change of inputs. Prints for every end-to-end metric its median,
quartiles, the quartile spread as a share of the median, the worst
single-run deviation from the median, and the metric's bound. With
--sets 2 it also prints how far the second set's median moved from the
first in the metric's worse direction. A spread above a third of the
bound is marked "wide"; a spread or a move above the bound "FAIL".
Exits 1 when any run fails or any rule fails. --workloads picks a subset
(for tuning on the workload whose figures spread most).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    r = subprocess.run(
        [sys.executable, str(ROOT / "repobench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited "
                         f"{r.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all of BENCHMARK.json)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    raw: dict[str, list[list[dict]]] = {}
    ok = True
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for w in workloads:
        raw[w] = []
        for _ in range(args.sets):
            results = []
            for seed in seeds:
                res = run_once(w, seed, seconds)
                if not res["correct"] or res["failed"]:
                    print(f"{w}: seed {seed} incorrect or failed units")
                    ok = False
                results.append(res)
            raw[w].append(results)

        print(f"\n== {w}: {args.runs} runs x {args.sets} set(s), "
              f"{seconds} s each")
        print(f"{'metric':20s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'worst':>7s} {'bound':>6s} "
              f"{'moved':>7s}")
        for name, m in metrics.items():
            bound = m["bound"]
            first_median = None
            for s, results in enumerate(raw[w]):
                values = [r["metrics"][name]["value"] for r in results]
                med, q1, q3, sp = spread(values)
                worst = max(abs(v - med) / med for v in values)
                verdict = ""
                if sp > bound:
                    verdict, ok = "FAIL", False
                elif sp > bound / 3:
                    verdict = "wide"
                moved = ""
                if first_median is None:
                    first_median = med
                else:
                    # How far this set's median is worse than the first's.
                    worse = (med - first_median) / first_median
                    if m["better"] == "higher":
                        worse = -worse
                    moved = f"{worse:+7.3f}"
                    if worse > bound:
                        verdict, ok = "FAIL", False
                print(f"{name:20s} {s + 1:3d} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} {worst:7.3f} {bound:6.3f} "
                      f"{moved:>7s} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
