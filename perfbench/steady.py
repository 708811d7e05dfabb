"""Steadiness check of the benchmark itself.

    python3 perfbench/steady.py --runs 10

For each workload, runs two sets of `--runs` untraced runs of the same
code, each run with its own seed (the second set takes the next block
of seeds).  For every end-to-end metric it reports each set's median
and spread (the distance between the first and third quartile as a
share of the median) and checks, against the bounds in BENCHMARK.json:

  * every spread is within the metric's bound (and says whether it is
    within a third of it, the target);
  * the second set's median is not worse than the first's by more than
    the bound;
  * the share of failed operations is exactly the same in both sets.

It then makes two traced runs with the same seed and checks that every
per-layer count (unit "count") is identical.  Times are never compared
there.  Exits non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
FIRST_SEED = 1


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def check_workload(workload: str, runs: int) -> bool:
    ok = True
    sets = []
    for k in range(2):
        seeds = range(FIRST_SEED + k * runs, FIRST_SEED + (k + 1) * runs)
        results = []
        for s in seeds:
            results.append(run(workload, s, 0))
            print(f"{workload} set {k + 1} seed {s}: " + " ".join(
                f"{name}={m['value']:.5g}"
                for name, m in results[-1]["metrics"].items()), flush=True)
        if not all(r["correct"] for r in results):
            print(f"{workload}: wrong output in set {k + 1}")
            ok = False
        sets.append(results)
    shares = [
        {Fraction(r["failed"], r["attempted"]) for r in results}
        for results in sets
    ]
    if len(shares[0] | shares[1]) != 1:
        print(f"{workload}: failed shares differ: {shares}")
        ok = False
    for m in SPEC["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in results]
                  for results in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        drift = worse_by(medians[0], medians[1], m["better"])
        spread_ok = max(spreads) <= bound
        drift_ok = drift <= bound
        ok &= spread_ok and drift_ok
        target = "yes" if max(spreads) < bound / 3 else "no"
        print(f"{workload:18} {name:15} medians {medians[0]:10.5g} "
              f"{medians[1]:10.5g} {m['unit']:6} spreads "
              f"{spreads[0]:6.3f} {spreads[1]:6.3f} (bound {bound}, "
              f"under a third: {target}) worse by {drift:+.3f} "
              f"{'ok' if spread_ok and drift_ok else 'FAIL'}", flush=True)
    counts = [n["name"] for n in SPEC["per_layer"] if n["unit"] == "count"]
    traced = [run(workload, FIRST_SEED, 1) for _ in range(2)]
    differ = [c for c in counts
              if traced[0]["metrics"][c]["value"]
              != traced[1]["metrics"][c]["value"]]
    if differ:
        print(f"{workload}: traced counts differ: {differ}")
        ok = False
    else:
        print(f"{workload}: {len(counts)} per-layer counts identical "
              f"in two traced runs")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in SPEC["workloads"]])
    args = p.parse_args(argv)
    ok = True
    for w in args.workload or [w["name"] for w in SPEC["workloads"]]:
        ok &= check_workload(w, args.runs)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
