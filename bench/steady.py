#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code.

    python3 bench/steady.py [--runs 10] [--workloads grid,tower] [--seconds S]

For every workload it runs set A (seeds 1..N) and then set B (seeds N+1..2N),
each run a fresh ``bench/run.py`` process, and prints for every end-to-end
metric both medians, their quartiles, the spread (interquartile distance over
the median) of each set and the shift of B's median against A's in the
worse direction.  A metric agrees when each spread stays within its bound in
BENCHMARK.json (setup_s exempt) and the shift does too; the share of failed
operations must be identical in the two sets.  Exit code 0 when everything
agrees, 1 otherwise.  Raw results go to bench/out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (default 10)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in manifest["workloads"]))
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results: dict[str, dict[str, list[dict]]] = {}
    ok = True
    header = (f"{'workload':8} {'metric':12} {'A median':>11} {'A q1..q3':>23} {'A spread':>8} "
              f"{'B median':>11} {'B q1..q3':>23} {'B spread':>8} {'shift':>7} {'bound':>5}  ok")
    lines = [header]
    for workload in args.workloads.split(","):
        sets = {"A": range(1, args.runs + 1), "B": range(args.runs + 1, 2 * args.runs + 1)}
        results[workload] = {name: [run_once(workload, s, args.seconds) for s in seeds]
                             for name, seeds in sets.items()}
        a, b = results[workload]["A"], results[workload]["B"]
        for spec in manifest["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            ma, q1a, q3a, sa = summary([r["metrics"][name]["value"] for r in a])
            mb, q1b, q3b, sb = summary([r["metrics"][name]["value"] for r in b])
            shift = (mb - ma) / ma if spec["better"] == "lower" else (ma - mb) / ma
            good = shift <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            ok &= good
            lines.append(f"{workload:8} {name:12} {ma:11.5g} {q1a:11.5g}..{q3a:<10.5g} {sa:8.3f} "
                         f"{mb:11.5g} {q1b:11.5g}..{q3b:<10.5g} {sb:8.3f} {shift:+7.3f} "
                         f"{bound:5.2f}  {'yes' if good else 'NO'}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (a, b)]
        correct = all(r["correct"] for r in a + b)
        ok &= shares[0] == shares[1] and correct
        lines.append(f"{workload:8} failed share A {shares[0]:.6f} B {shares[1]:.6f}, "
                     f"all outputs correct: {correct}")
        print("\n".join(lines[-len(manifest['end_to_end']) - 1:]), flush=True)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out_file.write_text(json.dumps({"runs": args.runs, "seconds": args.seconds,
                                    "results": results}, indent=1))
    print()
    print("\n".join(lines))
    print(f"raw results: {out_file.relative_to(ROOT)}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
