#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch22 --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. Build output goes to stderr, so the benchmark's own
stdout, whose last line is the JSON result, passes through unchanged.
The exit code is the benchmark's (2 for bad input), or 1 when the build
fails.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        # One build at a time when several runs start together.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode:
                shutil.rmtree(build_dir, ignore_errors=True)
                return False
        steps = ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]
        return subprocess.run(steps, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    if not build(os.path.abspath(build_dir)):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(os.path.abspath(build_dir), "perfbench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
