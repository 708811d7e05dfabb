"""Fixed-endpoint route latency over graph size n.

    python3 perfbench/scaling.py

For each n in SIZES, builds one seeded sparse graph like the route_fixed
workload's (out-degree 3, `time` in 1..10), picks PAIRS random endpoint pairs
and times emptiness and the MIN-time extremum of the route query under
a time bound, each checked against reference.py.  Unlike the workload,
the bound is tight, so a query explores a ball around s whose size
varies between pairs; the figures show how the successor scan's cost
grows with n, not a steady metric.  Used for the scaling table of the
README.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import opra  # noqa: E402

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

SIZES = (100, 300, 1000)
PAIRS = 3
# a tight time bound, with b1/b2 as in the ROADMAP's baseline probes
BOUND = 30
SEED = 1


def main() -> int:
    cfg = opra.SolveConfig(b1=40, b2=80)
    print("n  op  median_ms  min_ms  max_ms  median_expanded")
    for n in SIZES:
        rng = random.Random(SEED)
        adj, time_, data = wl.route_graph(rng, n)
        g = opra.graph_from_dict(data)
        runs = {"empty": [], "min": []}
        for _ in range(PAIRS):
            s, t = rng.sample(range(n), 2)
            best = ref.route_weights(adj, time_, s, BOUND).get(
                t, wl.INF)
            vq = opra.validate(opra.parse(wl.FIXED_QUERY.format(
                s=s, t=t, bound=BOUND)), g)
            t0 = time.perf_counter()
            res = opra.evaluate(g, vq, cfg)
            t1 = time.perf_counter()
            ext = opra.evaluate_extremum(g, vq, "time", "min", cfg)
            t2 = time.perf_counter()
            if res.empty != (best == wl.INF) or ext.value != best:
                sys.exit(f"wrong answer for v{s}->v{t} at n={n}")
            runs["empty"].append((t1 - t0, res.stats.expanded))
            runs["min"].append((t2 - t1, ext.stats.expanded))
        for op, xs in runs.items():
            ms = [1e3 * t for t, _ in xs]
            print(f"{n}  {op}  {statistics.median(ms):.0f}  {min(ms):.0f}  "
                  f"{max(ms):.0f}  {statistics.median(e for _, e in xs):.0f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
