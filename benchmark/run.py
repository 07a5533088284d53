#!/usr/bin/env python3
"""Build the pipeline benchmark and run one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1 [--allow-env]

Run from the repository root. The library and pstap_bench are built from
source (Release) into build-benchmark/; build output goes to stderr, so the
last line of standard output is pstap_bench's JSON result. The exit status
is pstap_bench's, or non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), "build-benchmark")


def main():
    jobs = str(os.cpu_count() or 1)
    try:
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "pstap_bench"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "pstap_bench")
    return subprocess.run([exe, "--out-dir", BUILD] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
