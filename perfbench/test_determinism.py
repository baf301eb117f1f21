#!/usr/bin/env python3
"""Determinism self-check of the perfbench benchmark.

    python3 perfbench/test_determinism.py [--seed N]

Runs every workload, shrunk, twice at one seed and fails unless the
matching digest, precision and recall repeat exactly: at a fixed seed the
library's matching is bit-identical, so any drift is a bug. rmat-spill
matches rmat-scan's inputs under a memory budget, so its digest must equal
rmat-scan's. Each workload also runs traced once, and its timed phases
(emit, merge, scan, select) must fit in the wall time they are part of:
core.other_s and serve.other_s, the wall time the phases leave over, must
not be negative. Takes under a minute after the first build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pa-dense", "rmat-scan", "rmat-spill", "serve-churn")
# Wall time minus the timed phases; negative means overlapping or
# double-counted phase timers. The tolerance covers clock reads.
REMAINDERS = ("core.other_s", "serve.other_s")
TOLERANCE_S = 1e-4


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--shrink"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd),
                                                    proc.returncode))
    summary = next(line for line in lines if line.startswith("perfbench run "))
    return json.loads(summary[len("perfbench run "):]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = []
    digests = {}
    for workload in WORKLOADS:
        first, result = run(workload, args.seed, 0)
        second, _ = run(workload, args.seed, 0)
        for key in ("digest", "precision", "recall"):
            if first[key] != second[key]:
                failures.append("%s: %s %s != %s" % (workload, key, first[key],
                                                     second[key]))
        if not result["correct"] or result["failed"]:
            failures.append("%s: output checks failed" % workload)
        digests[workload] = first["digest"]

        _, traced = run(workload, args.seed, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        for name in REMAINDERS:
            if layer[name] < -TOLERANCE_S:
                failures.append("%s: %s is %r: the phases exceed the wall "
                                "time" % (workload, name, layer[name]))
        print("%-12s digest %s precision %r recall %r"
              % (workload, first["digest"], first["precision"],
                 first["recall"]))
    if digests["rmat-spill"] != digests["rmat-scan"]:
        failures.append("rmat-spill's matching differs from rmat-scan's")
    for failure in failures:
        print("FAIL " + failure, file=sys.stderr)
    print("PASS" if not failures else "FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
