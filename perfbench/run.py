"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The set-up is repeated for a twentieth of ``--seconds``; then
the op list is replayed in whole passes, one op at a time on one thread
(closed loop, one client), as long as the next pass, taken to last as
long as the previous one, still leaves time to repeat the set-up as long
again before ``--seconds`` have passed.
Every output is checked against an independent reference on its first
execution and for bit-identity with that output afterwards.  The last
line of standard output is one JSON object: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_SHARE = 0.05  # share of --seconds spent repeating the set-up, at each end of the run
SETUP_MIN_REPEATS = 5
# An op that took less than this on the first pass runs this long, back
# to back, in each later pass: a few-millisecond op timed once per pass
# would give a handful of samples, each at the mercy of a short burst of
# other work on the machine.
OP_MIN_SECONDS = 0.05


def _percentile_with_tail(samples, tail=10):
    """The highest percentile that still has ``tail`` samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(n - tail - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / n


class Runner:
    """Replays an op list; checks outputs; keeps per-op latency samples."""

    def __init__(self, ops, digest, check_failed) -> None:
        self.ops = ops
        self.digest = digest
        self.check_failed = check_failed
        self.first = [None] * len(ops)  # (ok, digest) of each op's first output
        self.samples = [[] for _ in ops]
        self.repeats = [1] * len(ops)  # executions of each op per pass
        self.attempted = 0
        self.failed = 0

    def repeat_cheap_ops(self) -> None:
        """After the first pass: give each op about OP_MIN_SECONDS per pass."""
        self.repeats = [max(1, int(OP_MIN_SECONDS / max(s[0], 1e-6))) for s in self.samples]

    def run_pass(self) -> float:
        """One pass over the op list; returns the summed op latency."""
        gc.collect()
        total = 0.0
        for i, op in enumerate(self.ops):
            for _ in range(self.repeats[i]):
                t0 = time.perf_counter()
                try:
                    out, err = op.call(), None
                except Exception as exc:  # any error, ResourceError included, fails the op
                    out, err = None, exc
                dt = time.perf_counter() - t0
                total += dt
                self.samples[i].append(dt)
                self.attempted += 1
                if not self._ok(i, op, out, err):
                    self.failed += 1
        return total

    def _ok(self, i, op, out, err) -> bool:
        if err is not None:
            print(f"op {op.name!r} raised:", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
            return False
        if self.first[i] is None:
            try:
                op.check(out)
                ok = True
            except self.check_failed as exc:
                print(f"op {op.name!r} failed its check: {exc}", file=sys.stderr)
                ok = False
            except Exception:  # a reference that crashes fails the op, not the run
                print(f"op {op.name!r}: its check raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                ok = False
            self.first[i] = (ok, self.digest(out))
            return ok
        ok, first = self.first[i]
        if self.digest(out) != first:
            print(f"op {op.name!r} output differs from its first execution", file=sys.stderr)
            return False
        return ok


def timed_setups(setup, seed: int, budget: float):
    """Repeat the set-up until ``budget`` seconds and at least
    SETUP_MIN_REPEATS set-ups have passed.  Returns the last set-up's
    inputs and every set-up's time.  Each copy of the inputs is dropped
    before the next is built, so only one is ever alive."""
    times = []
    start = time.perf_counter()
    while True:
        inputs = None
        gc.collect()
        t0 = time.perf_counter()
        inputs = setup(seed)
        times.append(time.perf_counter() - t0)
        if len(times) >= SETUP_MIN_REPEATS and time.perf_counter() - start >= budget:
            return inputs, times


def end_to_end(workload, seed: int, seconds: float):
    from workloads import WORKLOADS, digest
    from reference import CheckFailed

    setup, plan = WORKLOADS[workload]
    start = time.perf_counter()
    inputs, setup_times = timed_setups(setup, seed, SETUP_SHARE * seconds)
    reserve = time.perf_counter() - start
    runner = Runner(plan(inputs), digest, CheckFailed)
    del inputs
    passes, busy = 0, 0.0
    while passes == 0 or time.perf_counter() - start + busy + reserve <= seconds:
        busy = runner.run_pass()
        if passes == 0:
            runner.repeat_cheap_ops()
        passes += 1
    # Set-up time is sampled at both ends of the run, so that a slow or
    # fast spell of the machine at the start does not set it alone.  The
    # op list, and with it the inputs, is dropped first: only one copy of
    # the inputs is ever alive.
    runner.ops = None
    setup_times += timed_setups(setup, seed, SETUP_SHARE * seconds)[1]
    # An op's latency is the median of its executions: other tenants of the
    # machine slow it in bursts, and the median follows the usual state.
    # Ranking one value per op keeps the same ops at each rank whatever
    # the number of passes and repeats.
    per_op = [statistics.median(s) for s in runner.samples]
    tail, pct = _percentile_with_tail(per_op)
    metrics = {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(per_op), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_tail_ms": f"p{pct:.1f} of {len(per_op)} ops",
        "ops_per_s": f"{len(per_op)} ops in the list, {passes} passes, {sum(runner.repeats)} executions a pass after the first",
        "setup_s": f"median of {len(setup_times)} set-ups",
    }
    fail_ratio = runner.failed / runner.attempted
    print(f"{workload:8s} {'fail_ratio':16s} {fail_ratio:14.6g} {'ratio':6s} ({runner.failed}/{runner.attempted} ops)")
    return runner, metrics, notes


def traced(workload, seed: int, seconds: float):
    from workloads import WORKLOADS, digest
    from reference import CheckFailed
    from layertrace import Tracer, metrics as layer_metrics

    setup, plan = WORKLOADS[workload]
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        inputs = setup(seed)
    setup_wall = time.perf_counter() - t0
    setup_raw = dict(tracer.raw)
    runner = Runner(plan(inputs), digest, CheckFailed)
    # untraced and traced passes alternate, each op once a pass so that
    # the counts do not depend on timing; the first untraced pass also
    # fixes the outputs that every traced pass must reproduce bit for bit
    untraced, passes = [], []
    while not passes or time.perf_counter() - t0 + untraced[-1] + passes[-1][0] <= seconds:
        untraced.append(runner.run_pass())
        tracer.reset()
        with tracer.installed():
            wall = runner.run_pass()
        passes.append((wall, dict(tracer.raw)))
    keys = set(setup_raw).union(*(raw for _, raw in passes))
    raw = {k: setup_raw.get(k, 0.0) + statistics.median(p.get(k, 0.0) for _, p in passes) for k in keys}
    traced_wall = statistics.median(w for w, _ in passes)
    values = layer_metrics(raw)
    values["trace.overhead_ratio"] = traced_wall / statistics.median(untraced)
    values["trace.wall_s"] = setup_wall + traced_wall
    return runner, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("surface", "fpt", "bigrank"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "z2cut", "__init__.py")):
        print(f"no z2cut sources under {os.path.join(ROOT, 'src')}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    if args.trace:
        runner, values = traced(args.workload, args.seed, args.seconds)
        units = {k: _layer_unit(k) for k in values}
        for k in sorted(values):
            print(f"{args.workload:8s} {k:34s} {values[k]:14.6g} {units[k]}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        runner, found, notes = end_to_end(args.workload, args.seed, args.seconds)
        for k, (v, unit) in found.items():
            print(f"{args.workload:8s} {k:16s} {v:14.6g} {unit:6s} {notes.get(k, '')}")
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in found.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
