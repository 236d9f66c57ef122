#!/usr/bin/env python3
"""Builds the recur benchmark from source and runs one workload.

Run from the repository root:

    python3 recurbench/run.py --workload materialize --seed 1 --seconds 20 --trace 0
    python3 recurbench/run.py --selftest
    python3 recurbench/run.py --explain

The build (CMake, Release) lives in .bench_build/ under the current
directory and is reused by later runs. Build output goes to standard error;
standard output is the benchmark's own, whose last line is the JSON result.
A failed build exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.abspath(".bench_build")


def configured_source():
    """The source directory an existing build was configured from."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    source = configured_source()
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        shutil.rmtree(BUILD)
        source = None
    if source is None:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "recurbench",
                    "--parallel", "4"], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "recurbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
