#!/usr/bin/env python3
"""Check that the benchmark's counts repeat between runs of one seed.

    python3 perfbench/steady.py [--seed N] [--seconds S] [WORKLOAD ...]

Run from the root of an HSIS checkout.  Runs each workload (all three by
default) twice untraced and twice traced, each time in a fresh process
with the same seed.  The counts in EXACT must read the same in both runs
of a pair.  The counts in GC_TIMED follow the OCaml heap's history (BDD
handles are released by OCaml finalisers; see README.md) and must agree
within GC_TOLERANCE.  Every run must also be correct with no failed job.
Exits 1, naming the metric, when a check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1", "serve-edit", "fuzz")
# trace flag -> metrics that must repeat exactly
EXACT = {
    0: [],
    1: ["check.reach_steps", "check.enum_states", "fsm.relation_nodes"],
}
# trace flag -> counts that depend on when finalisers run
GC_TIMED = {
    0: ["peak_live_nodes"],
    1: ["bdd.peak_live", "bdd.and_exists_misses"],
}
GC_TOLERANCE = 0.1


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.rstrip("\n").split("\n")[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1,
                    help="run length; the runs still hold at least 100 jobs")
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for w in args.workloads:
        for trace in (0, 1):
            a, b = (run(w, args.seed, args.seconds, trace) for _ in range(2))
            for r in (a, b):
                if not r["correct"] or r["failed"]:
                    print("%s trace=%d: correct=%s failed=%d"
                          % (w, trace, r["correct"], r["failed"]))
                    ok = False
            for n in EXACT[trace] + GC_TIMED[trace]:
                x, y = a["metrics"][n]["value"], b["metrics"][n]["value"]
                rel = abs(x - y) / max(abs(x), abs(y), 1)
                good = x == y or (n in GC_TIMED[trace] and rel <= GC_TOLERANCE)
                print("%-10s %-24s %14s %14s  %s" % (
                    w, n, x, y, "same" if x == y else
                    "%.3f%% apart%s" % (100 * rel, "" if good else "  FAIL")))
                ok = ok and good
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
