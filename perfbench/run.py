#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ward_stream --seed 1 --seconds 10 --trace 0

The first run configures and builds the hbrp libraries and the perfbench
binary from source into $CARGO_TARGET_DIR (default .bench_build) under the
checkout; later runs only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ward_stream", "fleet_direct", "ward_selective")
# A run measures at most 2 x 60 s (untraced + traced leg) plus set-up.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr, cwd=root).returncode != 0:
        # A cache configured from another source tree: start over once.
        shutil.rmtree(build_dir, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr, cwd=root).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, cwd=root).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in 1..60")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no hbrp source tree at {os.path.join(root, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        fail("benchmark run interrupted or over its time limit")
    sys.exit(rc)


if __name__ == "__main__":
    main()
