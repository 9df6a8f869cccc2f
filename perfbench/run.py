#!/usr/bin/env python3
"""End-to-end DRC benchmark: build from source, run one workload, print metrics.

    python3 perfbench/run.py --workload signoff --seed 1 --seconds 30 --trace 0

Builds the engine libraries, the `odrc` CLI and the harness (e2e_bench.cpp)
with CMake into $CARGO_TARGET_DIR (default `.bench_build`), runs the harness
in a private directory under `.bench_run/` and removes that directory
afterwards. The harness's stdout is passed through; its last line is the JSON
result. Every process the run starts is killed and waited for on every exit
path, including a timeout. See perfbench/README.md.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("signoff", "signoff_par", "edit_loop", "edit_loop_sharded")
DECK = os.path.join(ROOT, "decks", "asap7.deck")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; returns (harness, odrc) paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")) or not os.path.isfile(DECK):
        raise RuntimeError(f"no OpenDRC sources next to {HERE}")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return (os.path.join(build_dir, "e2e_bench"), os.path.join(build_dir, "odrc_tools", "odrc"))


def stop_group(pgid):
    """SIGKILL the run's process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run(args, extra=()):
    """Run the harness once; returns (exit code, stdout)."""
    harness, odrc = build()
    runs = os.path.join(ROOT, ".bench_run")
    os.makedirs(runs, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=runs)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--odrc", odrc, "--deck", DECK, *extra]
    env = dict(os.environ, TMPDIR=work)
    proc = subprocess.Popen(cmd, cwd=work, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=args.seconds + 120)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        log("timed out; killing the run")
        stop_group(proc.pid)
        proc.communicate()
        out, rc = "", 1
    finally:
        stop_group(proc.pid)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass
    return rc, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM/SIGHUP unwind through run()'s cleanup like Ctrl-C does.
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda s, _f: sys.exit(128 + s))
    try:
        rc, out = run(args)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(str(e))
        return 2
    sys.stdout.write(out)
    sys.stdout.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main())
