#!/usr/bin/env python3
"""Builds gqc's end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. gqc_perfbench and the gqc library are built
with CMake (Release) into .bench_build/ on first use; later runs rebuild
only what changed. The last line of standard output is the result object
gqc_perfbench prints; a traced run (--trace 1) also writes Chrome trace-event
JSON to .bench_build/trace-<workload>-<seed>.json.

Exit codes: those of gqc_perfbench (0 correct, 1 a wrong or flipped verdict,
2 bad arguments, 3 unoptimized build), or 4 when the sources are missing,
the build fails or the run overstays its time.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "gqc_perfbench")
# A run measures --seconds plus one pass, after its set-ups; anything near
# three minutes means it is stuck.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(4)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("gqc sources not found under " + ROOT + " (run from a checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode:
        fail("build failed")


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    program's sources (for a copy of the tree without .git)."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # For the benchmark's own tests.
    parser.add_argument("--passes", type=int)
    parser.add_argument("--fault")
    # Sensitivity checks of the serve workloads' popularity (README.md).
    parser.add_argument("--zipf")
    parser.add_argument("--ranking")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", source_id()]
    if args.trace:
        command += ["--trace-out", os.path.join(
            BUILD, "trace-%s-%d.json" % (args.workload, args.seed))]
    if args.passes:
        command += ["--passes", str(args.passes)]
    if args.fault:
        command += ["--fault", args.fault]
    if args.zipf is not None:
        command += ["--zipf", args.zipf]
    if args.ranking is not None:
        command += ["--ranking", args.ranking]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
