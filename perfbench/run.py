#!/usr/bin/env python3
"""Build the Easz serving benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (its own copy of the
library sources under src/) into .bench_build/perfbench; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Traced runs write their span dump to
.bench_build/spans/. Exits non-zero, printing no result, when the library
sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "server.hpp")):
        sys.exit("perfbench: library sources not found under " + ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    cmd = [os.path.join(BUILD, "perfbench"), *sys.argv[1:], "--span-dir", SPANS]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
