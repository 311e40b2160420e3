#!/usr/bin/env python3
"""Whole-system benchmark of the DIMM-Link simulator.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

On first use this builds perfbench_driver, and the simulator library it
links, from source into $CARGO_TARGET_DIR (default .bench_build). It
then runs the driver, checks that the metrics it printed are exactly
the ones BENCHMARK.json declares for that mode (end_to_end for
--trace 0, per_layer for --trace 1), and relays its output. The last
stdout line is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it is the driver's provenance report.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the driver; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench_driver"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def git_sha():
    """HEAD's commit when the checkout is a git work tree, else unknown.

    Reads .git directly: the benchmark never looks outside its checkout.
    """
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def mismatches(metrics, declared):
    """Every difference between printed and declared names and units."""
    problems = []
    for name in sorted(set(declared) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(declared)):
        problems.append("undeclared metric " + name)
    for name in sorted(set(metrics) & set(declared)):
        if metrics[name]["unit"] != declared[name]:
            problems.append("unit of %s is %s, declared %s" % (
                name, metrics[name]["unit"], declared[name]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--force-fail", action="store_true",
                    help="make every verification fail (self-test)")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(os.path.join(ROOT, build_dir))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.force_fail:
        cmd.append("--force-fail")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("perfbench: driver exited with %d" % proc.returncode)

    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = mismatches(result["metrics"], declared_metrics(args.trace))
    for p in problems:
        print("perfbench: " + p, file=sys.stderr)
    if problems:
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
