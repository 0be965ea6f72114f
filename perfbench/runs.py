"""Collect sets of benchmark runs and compare them.

    python3 perfbench/runs.py collect --out perfbench/runs/base.jsonl --seeds 1-10
    python3 perfbench/runs.py report perfbench/runs/base.jsonl           # one set
    python3 perfbench/runs.py report perfbench/runs/base.jsonl new.jsonl # two sets

``collect`` runs ``run.py`` once per (workload, seed), one run at a time,
for every workload and for ``run_seconds`` as BENCHMARK.json gives them,
and appends one JSON line per run.  ``report`` prints one row per
(metric, workload): each set's median and quartiles, the spread
(interquartile range over median), and for two sets the change and a
verdict under the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def parse_seeds(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def collect(args) -> int:
    spec = load_spec()
    failures = 0
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as out:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                    failures += 1
                    continue
                result = json.loads(lines[-1])
                failures += not result["correct"]
                rec = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return 1 if failures else 0


def load_runs(path: str):
    """{(metric, workload): {seed: value}}"""
    runs = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for metric, m in rec["result"]["metrics"].items():
                    runs[(metric, rec["workload"])][rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base, new, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one (metric, workload)."""
    sign = 1 if better == "higher" else -1
    b1, bm, b3 = quartiles(list(base.values()))
    n1, nm, n3 = quartiles(list(new.values()))
    gain = sign * (nm - bm) / bm  # > 0: the new set is better
    every_better = all(sign * (n - b) > 0 for n in new.values() for b in base.values())
    every_worse = all(sign * (n - b) < 0 for n in new.values() for b in base.values())
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        return "better" if every_better else "worse" if every_worse else "unresolved"
    if gain < -bound:
        return "worse"
    paired = sorted(set(base) & set(new))
    pairs = list(zip(paired, paired)) if len(paired) >= 2 else list(zip(sorted(base), sorted(new)))
    wins = sum(1 for a, b in pairs if sign * (new[b] - base[a]) > 0)
    if gain > (b3 - b1) / bm and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def report(args) -> int:
    spec = load_spec()
    metrics = [(m["name"], m["unit"], m.get("better"), m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]]
    sets = [load_runs(p) for p in args.files]
    workloads = [w["name"] for w in spec["workloads"]]
    head = f"{'metric':30s} {'workload':8s}"
    for i, _ in enumerate(sets):
        head += f" | {'set ' + 'AB'[i] + ' median [q1, q3]':36s} {'spread':>7s}"
    if len(sets) == 2:
        head += f" | {'change':>8s} {'bound':>6s} verdict"
    print(head)
    status = 0
    for name, unit, better, bound in metrics:
        for w in workloads:
            data = [s.get((name, w)) for s in sets]
            if not all(data):
                continue
            row = f"{name:30s} {w:8s}"
            for d in data:
                q1, med, q3 = quartiles(list(d.values()))
                spread = (q3 - q1) / med if med else 0.0
                row += f" | {med:12.6g} [{q1:10.6g}, {q3:10.6g}] {spread:7.1%}"
                if bound is not None and spread > bound:
                    status = 1
            if len(sets) == 2:
                bm, nm = (quartiles(list(d.values()))[1] for d in data)
                change = (nm - bm) / bm if bm else 0.0
                v = verdict(*data, better, bound) if bound is not None else "(per-layer)"
                row += f" | {change:8.1%} {bound if bound is not None else '':>6} {v}"
            print(row + f"  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark over seeds, append JSON lines")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,9")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r = sub.add_parser("report", help="spread of one set, or comparison of two")
    r.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    if args.cmd == "report" and len(args.files) > 2:
        parser.error("report takes one or two run sets")
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
