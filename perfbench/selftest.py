#!/usr/bin/env python3
"""Tests of the benchmark itself, at small scale (about two minutes).

    python3 perfbench/selftest.py

1. A sign-off run on a seed not used while the benchmark was built passes
   every correctness check and prints exactly the metrics BENCHMARK.json
   names, with its host fingerprint.
2. signoff_par: every job's device counter delta equals the first job's
   (the harness counts a mismatch as a failed operation), and the traced
   run's device counters repeat exactly across two runs on one seed.
3. A deliberately wrong expectation raises error_rate above 0 and makes the
   run exit non-zero.
4. An interactive run leaves no process and no file behind, whatever its
   correctness result.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run as bench  # noqa: E402

UNSEEN_SEED = 8675309


class Args:
    def __init__(self, workload, seed, seconds, trace=0):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace


def result_of(out):
    return json.loads(out.strip().splitlines()[-1])


def odrc_processes():
    out = subprocess.run(["ps", "-eo", "args"], capture_output=True, text=True).stdout
    return [l for l in out.splitlines() if "odrc_tools/odrc " in l]


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    small = ["--scale", "0.5"]
    rc, out = bench.run(Args("signoff", UNSEEN_SEED, 2), small)
    res = result_of(out)
    expect(rc == 0 and res["correct"] and res["failed"] == 0, "signoff on an unseen seed is correct")
    expect(set(res["metrics"]) == e2e, "signoff prints exactly the end-to-end metrics")
    expect(any(l.startswith("# host {") and f'"seed": {UNSEEN_SEED}' in l for l in out.splitlines()),
           "result carries the host fingerprint and seed")

    rc, out = bench.run(Args("signoff_par", UNSEEN_SEED, 3), small)
    res = result_of(out)
    expect(rc == 0 and res["correct"], "signoff_par: seq and par agree, per-job device deltas equal")
    traced = []
    for _ in range(2):
        rc, out = bench.run(Args("signoff_par", UNSEEN_SEED, 2, trace=1), small)
        res = result_of(out)
        expect(rc == 0 and set(res["metrics"]) == layers, "traced run prints exactly the per-layer metrics")
        traced.append({k: v["value"] for k, v in res["metrics"].items()
                       if k in ("device.kernels", "device.h2d_bytes")})
    expect(traced[0] == traced[1] and traced[0]["device.kernels"] > 0,
           f"traced device counters repeat exactly: {traced}")

    rc, out = bench.run(Args("signoff", UNSEEN_SEED, 1), small + ["--wrong-expectation"])
    res = result_of(out)
    expect(rc != 0 and res["failed"] > 0 and not res["correct"],
           "a wrong expectation raises error_rate above 0 and exits non-zero")

    before = odrc_processes()
    rc, out = bench.run(Args("edit_loop_sharded", UNSEEN_SEED, 2), small)
    res = result_of(out)
    print(f"     edit_loop_sharded: {res['failed']} of {res['attempted']} operations failed")
    expect(odrc_processes() == before, "no odrc process outlives an interactive run")
    expect(not os.path.exists(os.path.join(ROOT, ".bench_run")), "no run directory is left behind")

    runs = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs, prefix="bare-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "signoff",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
        expect(p.returncode != 0 and "{" not in p.stdout,
               "without the sources run.py fails and prints no result")
    os.rmdir(runs)

    print("selftest: " + ("PASS" if not failures else f"{len(failures)} FAILED"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
