#!/usr/bin/env python3
"""Repository benchmark for pbc: builds the harness from source, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload wire-hot --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json. The first run in a checkout builds
the pbc libraries (Release, no tests/benches/examples) and the harness into
.bench_build/; later runs reuse that build. Build output goes to stderr;
the harness prints its tables to stdout and, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 1 it
also writes a Chrome trace-event file and registry snapshots under
.bench_build/out/.

Exits 2 without a result line when the repository sources are missing or
the build fails, and 1 when a correctness check fails (the result line then
says "correct": false).
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOBS = str(min(4, os.cpu_count() or 1))


def cmake_build(source, binary, extra):
    if not os.path.exists(os.path.join(binary, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", binary,
                        "-DCMAKE_BUILD_TYPE=Release"] + extra,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", binary, "-j", JOBS],
                   check=True, stdout=sys.stderr)


def build():
    lib_build = os.path.join(BUILD, "pbc")
    cmake_build(ROOT, lib_build, ["-DPBC_BUILD_TESTS=OFF",
                                  "-DPBC_BUILD_BENCH=OFF",
                                  "-DPBC_BUILD_EXAMPLES=OFF"])
    harness_build = os.path.join(BUILD, "perfbench")
    cmake_build(HERE, harness_build, ["-DPBC_ROOT=" + ROOT,
                                      "-DPBC_LIB_BUILD=" + lib_build])
    return os.path.join(harness_build, "pbc_perfbench")


def commit_id():
    """The git commit, or outside git a SHA-256 of the sources under src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (subprocess.CalledProcessError, OSError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print("perfbench: repository sources not found (%s missing)"
                  % need, file=sys.stderr)
            return 2
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    env = dict(os.environ, PERFBENCH_COMMIT=commit_id())
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
