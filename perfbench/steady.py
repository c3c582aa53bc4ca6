"""Steadiness check: run each workload on several seeds and report the spread.

    python3 perfbench/steady.py [--workloads NAME ...] [--seeds 1 2 ...] [--seconds S]

Run from the repository root.  Runs are made one at a time.  For every
end-to-end metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the spread as a share of the metric's bound.  A spread above a third of the
bound is marked; a spread above the bound fails the check, except for
``setup_s``, whose median is compared instead.  It also checks that every
run is correct and has the same share of failed operations.  ``--out``
writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import spec

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    names = [name for name, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    ok = True
    everything = {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(workload, seed, args.seconds)
            results.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} {values}", flush=True)
        everything[workload] = results
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) != 1 or not all(r["correct"] for r in results):
            ok = False
            print(f"{workload}: FAIL correct or failed share differs: {sorted(shares)}")
        print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6} {'/bound':>7}")
        for name, unit, bound in spec.END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = ""
            if spread > bound and name != "setup_s":
                mark, ok = "FAIL", False
            elif spread > bound / 3:
                mark = "wide"
            print(f"{name:18} {median:12.5f} {q1:12.5f} {q3:12.5f} {spread:8.4f} "
                  f"{bound:6.2f} {spread / bound:7.3f} {unit} {mark}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(everything, indent=1), "utf-8")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
