"""Benchmark of the `opra` query evaluator.

    python3 perfbench/run.py --workload route_fixed --seed 1 --seconds 25 --trace 0

runs one workload in this process as a closed loop with one client:
each operation is issued only when the previous one has returned.  The
workload's inputs come from --seed.  The set-up (building the graphs
through the program's constructors, parsing and validating the queries)
is repeated for a second before the timed pass, and its median time
reported.  Whole rounds of the workload's operations run for --seconds,
and every output is checked against a reference computed without
`opra` (see reference.py).  Throughput is taken over the whole pass,
and the median latency over the operations of a round, each timed by
its mean over the rounds.  Every time is scaled to the machine's speed,
measured by a calibration loop around it (see speed.py); the raw times
are printed on lines marked "raw".

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json.  With --trace 1 half the time
runs untraced and half traced, the last line holds the per-layer
metrics, and the spans of the first traced round are written to
perfbench/out/.  Without --workload, every workload runs in its own
process, one after the other, and a summary is printed.

The program is imported from src/ next to this directory and nowhere
else: without it the benchmark exits with an error and no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
# Set-up takes milliseconds, so it is repeated for SETUP_SECONDS before
# the timed pass and the median of its timings is reported.
SETUP_SECONDS = 1.0


def import_program():
    """Import `opra` from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import opra
    except ImportError as e:
        sys.exit(f"run.py: cannot import opra from {src}: {e}")
    if src.resolve() not in Path(opra.__file__).resolve().parents:
        sys.exit(f"run.py: opra was imported from {opra.__file__}, "
                 f"not from {src}")
    return opra


@dataclasses.dataclass
class Pass:
    """What a timed pass saw: per round, for every operation in round
    order, its raw time, its time scaled to the machine's speed (see
    speed.py) and whether it was answered; and the names of the
    operations whose output was wrong or that failed unexpectedly."""

    rounds: list = dataclasses.field(default_factory=list)
    wrong: set = dataclasses.field(default_factory=set)

    @property
    def attempted(self) -> int:
        return sum(len(rnd) for rnd in self.rounds)

    @property
    def failed(self) -> int:
        return sum(not ok for rnd in self.rounds for *_, ok in rnd)

    def busy(self, raw: bool = False) -> list:
        """The time of all operations of each round, failed ones included."""
        return [sum(t[0] if raw else t[1] for t in rnd)
                for rnd in self.rounds]

    def answered(self) -> list:
        """The scaled time of every answered operation."""
        return [t[1] for rnd in self.rounds for t in rnd if t[2]]

    def merge(self, other: "Pass") -> "Pass":
        return Pass(rounds=self.rounds + other.rounds,
                    wrong=self.wrong | other.wrong)


def time_setup(setup, clock):
    """Repeat `setup` for SETUP_SECONDS; the last build, and the median
    time of one set-up, raw and scaled."""
    raw, scaled = [], []
    deadline = time.perf_counter() + SETUP_SECONDS
    while True:
        t0 = time.perf_counter()
        built = setup()
        raw.append(time.perf_counter() - t0)
        scaled.append(clock.scale(raw[-1]))
        if time.perf_counter() >= deadline:
            return built, statistics.median(raw), statistics.median(scaled)


def time_ops(opra, ops, seconds: float, clock, after_round=None) -> Pass:
    """Closed loop over whole rounds of `ops`, as many as fit in
    `seconds` (at least one).  An operation that raises counts as
    failed; unless it is kept for a known fault, it also makes the run's
    outputs wrong."""
    res = Pass()
    start = time.perf_counter()
    while True:
        rnd = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                out, ok = op.run(), True
            except opra.OpraError as e:
                # keep no reference to the exception: its traceback holds
                # the failed search's frames, and with them its memory
                out, ok = repr(e), False
            t = time.perf_counter() - t0
            rnd.append((t, clock.scale(t), ok))
            if not ok:
                if op.known_fault is None and op.name not in res.wrong:
                    print(f"unexpected failure: {op.name}: {out}",
                          file=sys.stderr)
                    res.wrong.add(op.name)
            elif not op.check(out):
                res.wrong.add(op.name)
        res.rounds.append(rnd)
        if after_round:
            after_round()
        elapsed = time.perf_counter() - start
        if elapsed * (len(res.rounds) + 1) / len(res.rounds) > seconds:
            return res


def end_to_end(passed: Pass, setup_s: float, raw: bool = False) -> dict:
    """Throughput over the whole pass, and the median over operations of
    each one's mean latency over the rounds, from the scaled times (or
    the raw ones)."""
    k = 0 if raw else 1
    per_op = [[t[k] for t in times if t[2]]
              for times in zip(*passed.rounds)]
    means = [statistics.fmean(ts) for ts in per_op if ts]
    if not means:
        sys.exit("run.py: no operation was answered")
    return {
        "ops_per_s": len(passed.answered()) / sum(passed.busy(raw)),
        "latency_p50_ms": 1e3 * statistics.median(means),
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced(opra, case, ops, seconds: float, clock, spans_path: Path):
    """Per-layer metrics: a traced set-up, then half of `seconds`
    untraced and half traced.  Counts repeat in every round, since each
    round runs the same operations; times are the mean over the traced
    rounds."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        case.setup()
        metrics = tracing.setup_metrics(tr.totals())
    finally:
        tr.uninstall()
    plain = time_ops(opra, ops, seconds / 2, clock)

    per_round, kept = [], []

    def after_round():
        per_round.append(tracing.layer_metrics(tr, tr.totals(), len(ops)))
        if not kept:
            kept.extend(tr.spans)
        tr.reset()

    def numbered(op):
        def run():
            tr.op += 1
            sid = tr.open("op")
            try:
                return op.run()
            finally:
                tr.close(sid)
        return dataclasses.replace(op, run=run)

    tr.install()
    try:
        traced_pass = time_ops(opra, [numbered(op) for op in ops],
                               seconds / 2, clock, after_round=after_round)
    finally:
        tr.uninstall()
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        same = all(v == values[0] for v in values)
        if not same and isinstance(values[0], int):
            print(f"{name} differs between rounds: {values}",
                  file=sys.stderr)
        metrics[name] = values[0] if same else statistics.fmean(values)
    metrics["trace.overhead_ratio"] = (
        statistics.fmean(traced_pass.busy()) / statistics.fmean(plain.busy()))
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for i, (name, parent, op, start, end) in enumerate(kept):
            fh.write(json.dumps({"id": i, "parent": parent, "op": op,
                                 "name": name, "start": start,
                                 "end": end}) + "\n")
    return metrics, plain.merge(traced_pass)


def measure(args) -> dict:
    opra = import_program()
    sys.path.insert(0, str(HERE))
    import speed
    import workloads

    case = workloads.WORKLOADS[args.workload](args.seed)
    clock = speed.Speed()
    built, raw_setup_s, setup_s = time_setup(case.setup, clock)
    ops = case.ops(built)

    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        metrics, passed = traced(
            opra, case, ops, args.seconds, clock,
            HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        passed = time_ops(opra, ops, args.seconds, clock)
        metrics = end_to_end(passed, setup_s)
        raw = end_to_end(passed, raw_setup_s, raw=True)
        for name in ("ops_per_s", "latency_p50_ms", "setup_s"):
            print(f"{args.workload} raw {name} {raw[name]:.6g}")
        answered = passed.answered()
        if len(answered) >= 100:
            # the highest percentile with at least ten samples beyond it
            p90 = statistics.quantiles(answered, n=10)[-1]
            print(f"{args.workload} latency_p90_ms {1e3 * p90:.4g} ms "
                  f"({len(answered)} samples)")
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(metrics) != set(units):
        sys.exit(f"run.py: metrics {sorted(set(metrics) ^ set(units))} "
                 f"do not match the {kind} list of BENCHMARK.json")
    for name in sorted(passed.wrong):
        print(f"wrong output: {name}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(f"{args.workload} attempted {passed.attempted} "
          f"failed {passed.failed} in {len(passed.rounds)} rounds "
          f"of {len(ops)} operations")
    return {
        "correct": not passed.wrong,
        "attempted": passed.attempted,
        "failed": passed.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    summary, status = {}, 0
    for w in SPEC["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            status = 1
            continue
        summary[w["name"]] = json.loads(lines[-1])
        status |= not summary[w["name"]]["correct"]
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload",
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
