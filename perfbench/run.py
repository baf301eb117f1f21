#!/usr/bin/env python3
"""Builds the perfbench benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere; it builds into .bench_build/ at the repository root
(Release, reusing an earlier build), runs the workload, and forwards the
benchmark's output. The last line of standard output is the result JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1, each
with its unit from BENCHMARK.json, the only list of metric names. A
per-layer metric the workload does not exercise reads 0; a missing
end-to-end metric or a name BENCHMARK.json does not list fails the run
without a result. Exit code 0 means every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
# A run finishes well inside this; a hang must not outlive it.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    """HEAD's commit id, read from .git without running git; "unknown"
    outside a git checkout."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "reconcile", "reconcile.h")):
        fail("library sources not found under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def metric_units(trace):
    """(name, unit) of every metric the run reports, in BENCHMARK.json's
    order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--shrink", action="store_true",
                        help="small inputs (determinism test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--git-sha", git_sha()]
    if args.shrink:
        cmd.append("--shrink")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)

    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    sys.stdout.flush()
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench exited with code %d and no result" % proc.returncode)
    units = metric_units(args.trace)
    values = result.get("metrics", {})
    unknown = sorted(set(values) - {name for name, _ in units})
    if unknown:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(unknown))
    missing = [name for name, _ in units if name not in values]
    if missing and not args.trace:
        fail("end-to-end metrics not measured: %s" % ", ".join(missing))
    metrics = {}
    for name, unit in units:
        value = values.get(name, 0)
        print("  %-30s %-22r %s" % (name, value, unit))
        metrics[name] = {"value": value, "unit": unit}
    result["metrics"] = metrics
    print(json.dumps(result))
    if proc.returncode != 0:
        print("perfbench: output checks failed (exit code %d)"
              % proc.returncode, file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
