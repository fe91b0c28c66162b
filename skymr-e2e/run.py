#!/usr/bin/env python3
"""skymr-e2e runner: builds the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 skymr-e2e/run.py --workload indep6-batch --seed 1 --seconds 30 --trace 0
    python3 skymr-e2e/run.py --selftest

The benchmark is a CMake package of its own (skymr-e2e/CMakeLists.txt) that
compiles the library from ../src in Release mode into .bench_build/skymr-e2e.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Exits non-zero when the library sources are missing, the build
fails, or the run finds a wrong answer.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "skymr-e2e")
BINARY = os.path.join(BUILD_DIR, "skymr_e2e")


def build():
    """Configures once and builds incrementally; returns True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "skymr_e2e"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("skymr-e2e: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # An exported checkout: no history to name.
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="drop one id from the first answer (checks the check)")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("skymr-e2e: library sources (src/) not found next to "
              "skymr-e2e/; run from a full checkout", file=sys.stderr)
        return 2
    if not build():
        return 3

    if args.selftest:
        command = [BINARY, "--selftest"]
    else:
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace,
                   "--out-dir", os.path.join(BUILD_DIR, "out"),
                   "--git-sha", git_sha()]
        if args.plant_wrong_answer:
            command += ["--plant-wrong-answer", "1"]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
