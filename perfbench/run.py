#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Configures and builds perfbench_driver (perfbench/CMakeLists.txt,
linked against the mbavf libraries from ./src) under
.bench_build/perfbench, then runs one workload in one process. The
driver's last line of standard output is the result object; build
output goes to standard error. See perfbench/README.md for the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("analyze", "explore", "campaign")


def build():
    """Configure (once) and build the driver; exit nonzero on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no mbavf sources at %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for step in steps:
        status = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if status.returncode:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def recorded_digest(workload, seed):
    """The output digest recorded for the default seed, else None."""
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    if seed != recorded["default_seed"]:
        return None
    return recorded["digests"][workload]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="one set-up and two passes (tests)")
    args = parser.parse_args()

    build()
    workdir = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    command = [DRIVER, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--workdir=" + workdir]
    expected = recorded_digest(args.workload, args.seed)
    if expected is not None:
        command.append("--expect-digest=" + expected)
    if args.short:
        command.append("--short")
    try:
        sys.stdout.flush()
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
