#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the gemrec libraries from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only re-check the build. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
The exit code is the benchmark's: non-zero on an oracle mismatch, a
failed build or set-up, or a missing source tree.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no gemrec sources at %s/src" % root, file=sys.stderr)
        return 2

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(root, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    scratch_dir = os.path.join(out_root, "scratch")
    os.makedirs(scratch_dir, exist_ok=True)

    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 2

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch-dir", scratch_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
