#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload archive-stock --seed 1 --seconds 30 --trace 0

Builds the engine and the perfbench program from this checkout's sources
(Release, into $CARGO_TARGET_DIR or .bench_build) on first use, then runs
the workload. The program's last line of output is the result object; with
--trace 1 it also writes the span dump and per-layer summary next to the
build. Extra flag: --tiny runs the same code paths on tiny inputs (the
benchmark's own tests use it).
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("archive-stock", "stream-dirty", "shard-fanout")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir(root):
    """The build directory, kept inside the checkout."""
    path = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if os.path.commonpath([path, root]) != root:
        path = os.path.join(root, ".bench_build")
    return os.path.join(path, "perfbench")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def build(root, out):
    """Configures (once) and builds the program; build chatter goes to stderr."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no engine sources next to perfbench/ in {root}: run from a full checkout")

    out = build_dir(root)
    try:
        binary = build(root, out)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", results, "--git-sha", git_sha(root)]
    if args.tiny:
        command.append("--tiny")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
