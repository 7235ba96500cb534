#!/usr/bin/env python3
"""Run one workload of the HSIS benchmark and print its result line.

    python3 perfbench/run.py --workload table1|serve-edit|fuzz --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --rebuild-refs

Run from the root of an HSIS checkout.  The script builds the benchmark
program with dune, runs the workload in a fresh process, and relays that
process's output; the last line is the JSON result.  With --trace 1 the
spans are also written as Chrome trace-event JSON to
perfbench/out/<workload>-<seed>.trace.json (open it in Perfetto).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1", "serve-edit", "fuzz")
# A run must end within 180 s; the longest seen takes about 40 s.
RUN_TIMEOUT_S = 170


def build(bench_dir):
    """Build the benchmark program; return its path, or None on failure."""
    target = os.path.join(bench_dir, "hsisbench.exe")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./" + target],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return None
    return os.path.join("_build", "default", target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rebuild-refs", action="store_true",
                    help="recompute refs.json by the monolithic TR route")
    args = ap.parse_args()
    if not args.rebuild_refs and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the root of an HSIS checkout "
                 "(no dune-project in the current directory)")
    bench_dir = os.path.relpath(HERE, os.getcwd())
    exe = build(bench_dir)
    if exe is None:
        sys.exit("run.py: building the benchmark failed")

    if args.rebuild_refs:
        cmd = [exe, "refs", "--dir", bench_dir]
    else:
        cmd = [exe, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--dir", bench_dir]
        if args.trace:
            out_dir = os.path.join(bench_dir, "out")
            os.makedirs(out_dir, exist_ok=True)
            cmd += ["--trace-file", os.path.join(
                out_dir, "%s-%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the workload did not finish in %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: the benchmark program exited with %d"
                 % proc.returncode)
    if args.rebuild_refs:
        sys.stdout.write(proc.stdout)
        return
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        sys.exit("run.py: malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
