#!/usr/bin/env python3
"""Build and run the FSI performance benchmark.

    python3 perfbench/run.py --workload <gf_batch|dqmc_sweep|serve_open> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (any directory works: paths are resolved from
this file).  The first call configures and compiles the library and the
fsi_perfbench program under .bench_build/perfbench (Release); later calls
only re-check the build.  fsi_perfbench runs with a pinned thread budget
of THREADS threads and a scrubbed environment (no inherited FSI_* / OpenMP
knobs), so every run measures the library's defaults.  Build output goes to
stderr; the last line on stdout is fsi_perfbench's JSON result.  Exits
non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "fsi_perfbench")
WORKLOADS = ("gf_batch", "dqmc_sweep", "serve_open")
THREADS = 2
RUN_TIMEOUT_S = 150


def build():
    """Configure once, then (re)build fsi_perfbench; output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "fsi_perfbench",
         "-j", str(os.cpu_count() or 2)],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def bench_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("FSI_", "OMP_", "GOMP_", "KMP_"))}
    env.update({
        "OMP_NUM_THREADS": str(THREADS),
        "OMP_DYNAMIC": "false",
        "FSI_LOG_LEVEL": "warn",
        "FSI_CRASH_DIR": BUILD,
    })
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "include"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: library source '{needed}' not found next to "
                  f"{HERE}; nothing to build", file=sys.stderr)
            return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=BUILD, env=bench_env(),
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: fsi_perfbench timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: fsi_perfbench exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1
    sys.stdout.write(proc.stdout.decode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
