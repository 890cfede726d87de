#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 smtbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

The first run configures and builds smtbench/ (the library from the
repository's own sources plus the benchmark program) under .bench_build/;
later runs only check that the build is current. The benchmark's output
passes through unchanged: its last line is the JSON result. Build output
goes to stderr. Without the repository's sources beside smtbench/ the
script fails before building and prints no result.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print("smtbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "smtbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper-cold", "paper-replay", "store-churn"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(bench_dir)
    for needed in ("CMakeLists.txt", os.path.join("src", "sweep",
                                                  "runner.hh")):
        if not os.path.exists(os.path.join(repo_root, needed)):
            fail("no repository sources beside smtbench/ (missing %s)"
                 % needed)

    out_dir = os.path.join(repo_root, ".bench_build")
    build_dir = os.path.join(out_dir, "smtbench")
    os.makedirs(out_dir, exist_ok=True)
    # One benchmark at a time per checkout: a second run waits here
    # rather than time its stores beside this one. Released at exit.
    lock = open(os.path.join(out_dir, "run.lock"), "w")
    fcntl.flock(lock, fcntl.LOCK_EX)
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "smtbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--capture", os.path.join(bench_dir, "traffic",
                                     "fig5-2shard.json"),
           "--work-dir", os.path.join(out_dir, "work")]
    if args.trace == "1":
        cmd += ["--trace-out",
                os.path.join(out_dir, "traces", "%s-seed%d.json"
                             % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
