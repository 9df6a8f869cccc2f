#!/usr/bin/env python3
"""Run one workload on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload signoff --runs 10 [--first-seed 1]

Each run uses its own seed and BENCHMARK.json's run_seconds. For every
metric it prints the median of the runs and the quartile spread: the
distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric's
spread must stay well inside its bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec = json.load(open(os.path.join(bench.ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values = {}
    for i in range(args.runs):
        run_args = argparse.Namespace(workload=args.workload, seed=args.first_seed + i,
                                      seconds=spec["run_seconds"], trace=args.trace)
        rc, out = bench.run(run_args)
        res = json.loads(out.strip().splitlines()[-1])
        print(f"seed {run_args.seed}: rc={rc} failed={res['failed']}/{res['attempted']}",
              file=sys.stderr, flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"{name:26s} median {med:.6g}  spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
