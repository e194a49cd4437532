#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The engine library (../src) and the benchmark
binary are built from source with CMake into .bench_build/perfbench (the
first run builds; later runs only relink what changed). Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. INVERDA_*
variables of the caller's environment are dropped before the binary starts.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"] + generator
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--", "-j4"]
    for attempt in range(2):
        if attempt == 1:
            # A stale or foreign build tree: start over once.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
        os.makedirs(BUILD_DIR, exist_ok=True)
        ok = True
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            ok = subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode == 0
        if ok:
            ok = subprocess.run(compile_cmd, stdout=sys.stderr,
                                stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S).returncode == 0
        if ok and os.path.isfile(BINARY):
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    if args.self_test:
        command = [BINARY, "--self-test"]
    else:
        command = [BINARY, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", args.trace]
    env = {k: v for k, v in os.environ.items() if not k.startswith("INVERDA_")}
    sys.stdout.flush()
    try:
        return subprocess.run(command, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
